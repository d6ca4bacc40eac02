"""Fused complex-valued kernels for the training hot path.

The split complex layers of :mod:`repro.nn.complex` express one complex
product as four real products (Eq. 2 of the paper).  That is the right
*representation* for photonic deployment, but a slow way to *train*: a complex
convolution pays four full convolution passes -- four patch extractions over
the same two input planes -- and its backward pass another eight.

The fused kernels here keep the pair-of-real-tensors representation at the
interface while computing with:

* **one column extraction per input plane** -- ``im2col`` runs once for the
  real part and once for the imaginary part, and the backward closure reuses
  the cached columns;
* **fewer, wider matmuls** -- :func:`complex_linear` uses the
  3-multiplication (Karatsuba) complex product instead of 4::

      A = Wr Xr,  B = Wi Xi,  C = (Wr + Wi)(Xr + Xi)
      Re = A - B,  Im = C - A - B

  on the forward matmuls and both backward products (4 + 8 matmuls down to
  3 + 6), while :func:`complex_conv2d`, whose kernel matrices are thin and
  memory-bound, applies the real block matrix ``[[Wr, -Wi], [Wi, Wr]]`` as
  one matmul per direction;
* **a joint autograd node**: the real/imaginary outputs are two views of one
  packed ``(2, ...)`` tensor, so the hand-written backward fires once with
  both upstream gradients and shares every intermediate.

:func:`complex_linear_reference` / :func:`complex_conv2d_reference` keep the
4-real-op formulation as an executable specification; the parity tests pin the
fused gradients against it to 1e-8 across stride/padding/bias combinations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.complex.ctensor import ComplexTensor
from repro.tensor import functional as F
from repro.tensor.functional import (
    IntPair,
    _as_pair,
    col2im_reference,
    conv2d_reference,
    im2col,
)
from repro.tensor.tensor import Tensor, ensure_tensor


def _unpack_pair(packed: Tensor) -> ComplexTensor:
    """Split a packed ``(2, ...)`` tensor into a :class:`ComplexTensor`.

    Each part is a zero-copy view of the packed data; its backward embeds the
    upstream gradient into the matching slot of a zero packed gradient, so the
    packed node's hand-written backward receives both parts' gradients in one
    call (missing parts stay zero).
    """

    def part(index: int) -> Tensor:
        def backward(grad):
            full = np.zeros_like(packed.data)
            full[index] = grad
            return (full,)

        return Tensor._make(packed.data[index], (packed,), backward,
                            "pick", {"index": index})

    return ComplexTensor(part(0), part(1))


def complex_linear(inputs: ComplexTensor,
                   weight_real: Tensor, weight_imag: Tensor,
                   bias_real: Optional[Tensor] = None,
                   bias_imag: Optional[Tensor] = None) -> ComplexTensor:
    """Fused complex affine map ``y = x W^T + b`` on split tensors.

    Three matmuls forward (Karatsuba), six backward; matches
    :func:`complex_linear_reference` to machine precision.
    """
    if not isinstance(inputs, ComplexTensor):
        inputs = ComplexTensor(inputs)
    x_real, x_imag = inputs.real, inputs.imag
    weight_real = ensure_tensor(weight_real)
    weight_imag = ensure_tensor(weight_imag)
    lead_shape = x_real.shape[:-1]
    in_features = x_real.shape[-1]
    out_features = weight_real.shape[0]

    xr = x_real.data.reshape(-1, in_features)
    xi = x_imag.data.reshape(-1, in_features)
    wr, wi = weight_real.data, weight_imag.data
    w_sum_t = (wr + wi).T

    a = xr @ wr.T
    b = xi @ wi.T
    c = (xr + xi) @ w_sum_t
    out = np.empty((2,) + lead_shape + (out_features,), dtype=a.dtype)
    np.subtract(a, b, out=out[0].reshape(a.shape))
    out_imag = out[1].reshape(a.shape)
    np.subtract(c, a, out=out_imag)
    out_imag -= b
    has_bias = bias_real is not None
    if has_bias:
        out[0] += bias_real.data
        out[1] += bias_imag.data

    needs_input_grad = x_real.requires_grad or x_imag.requires_grad
    needs_weight_grad = weight_real.requires_grad or weight_imag.requires_grad
    input_shape = x_real.shape

    def backward(grad):
        # data reads happen at call time so a replayed plan (which refreshes
        # the parents' buffers in place) reuses this closure unchanged
        bxr = x_real.data.reshape(-1, in_features)
        bxi = x_imag.data.reshape(-1, in_features)
        bwr, bwi = weight_real.data, weight_imag.data
        grad_r = grad[0].reshape(-1, out_features)
        grad_i = grad[1].reshape(-1, out_features)
        grad_sum = grad_r + grad_i
        dx_real = dx_imag = dw_real = dw_imag = None
        if needs_input_grad:
            # dx = g conj(W): Re = gr Wr + gi Wi, Im = (gr + gi)(Wr - Wi) - gr Wr + gi Wi
            p1 = grad_r @ bwr
            p2 = grad_i @ bwi
            dx_real = (p1 + p2).reshape(input_shape)
            dx_imag = (grad_sum @ (bwr - bwi) - p1 + p2).reshape(input_shape)
        if needs_weight_grad:
            # dW = g^T conj(x): Re = gr^T xr + gi^T xi, Im = (gr + gi)^T (xr - xi) - gr^T xr + gi^T xi
            q1 = grad_r.T @ bxr
            q2 = grad_i.T @ bxi
            dw_real = q1 + q2
            dw_imag = grad_sum.T @ (bxr - bxi) - q1 + q2
        if has_bias:
            return (dx_real, dx_imag, dw_real, dw_imag,
                    grad_r.sum(axis=0), grad_i.sum(axis=0))
        return dx_real, dx_imag, dw_real, dw_imag

    parents = (x_real, x_imag, weight_real, weight_imag)
    if has_bias:
        parents = parents + (bias_real, bias_imag)
    packed = Tensor._make(out, parents, backward, "complex_linear",
                          {"lead_shape": lead_shape,
                           "in_features": in_features,
                           "out_features": out_features,
                           "has_bias": has_bias})
    return _unpack_pair(packed)


def complex_linear_reference(inputs: ComplexTensor,
                             weight_real: Tensor, weight_imag: Tensor,
                             bias_real: Optional[Tensor] = None,
                             bias_imag: Optional[Tensor] = None) -> ComplexTensor:
    """The 4-real-multiplication formulation of Eq. (2), kept as reference."""
    if not isinstance(inputs, ComplexTensor):
        inputs = ComplexTensor(inputs)
    out_real = (F.linear(inputs.real, weight_real, bias_real)
                - F.linear(inputs.imag, weight_imag, None))
    out_imag = (F.linear(inputs.real, weight_imag, bias_imag)
                + F.linear(inputs.imag, weight_real, None))
    return ComplexTensor(out_real, out_imag)


def complex_conv2d(inputs: ComplexTensor,
                   weight_real: Tensor, weight_imag: Tensor,
                   bias_real: Optional[Tensor] = None,
                   bias_imag: Optional[Tensor] = None,
                   stride: IntPair = 1,
                   padding: IntPair = 0) -> ComplexTensor:
    """Fused complex 2-D cross-correlation on split tensors.

    The real and imaginary planes are stacked along the channel axis, so one
    ``im2col`` extracts the columns of *both* input planes (the 4-real-op
    reference extracts them four times) and one fast
    :func:`~repro.tensor.functional.col2im` scatters both input-gradient
    planes back.  The backward closure reuses the cached forward columns for
    the weight gradients.

    The complex product is the Eq. (2) real block expansion
    ``[[Wr, -Wi], [Wi, Wr]]`` applied as a *single* matrix product per
    direction (one forward, two backward).  The paper's convolution kernels
    are thin (small ``out_channels`` x ``C * kh * kw``), so their matmuls are
    memory-bound and one wide product beats the three thinner ones of the
    Karatsuba form that :func:`complex_linear` uses -- measured ~2x faster on
    the LeNet/ResNet shapes.  Gradcheck-pinned against
    :func:`complex_conv2d_reference`.
    """
    if not isinstance(inputs, ComplexTensor):
        inputs = ComplexTensor(inputs)
    x_real, x_imag = inputs.real, inputs.imag
    weight_real = ensure_tensor(weight_real)
    weight_imag = ensure_tensor(weight_imag)
    stride = _as_pair(stride)
    padding = _as_pair(padding)
    batch, in_channels, height, width = x_real.shape
    out_channels, weight_in_channels, kernel_h, kernel_w = weight_real.shape
    if in_channels != weight_in_channels:
        raise ValueError(
            f"complex_conv2d channel mismatch: input has {in_channels}, "
            f"weight expects {weight_in_channels}"
        )
    stacked_shape = (batch, 2 * in_channels, height, width)
    kernel = (kernel_h, kernel_w)
    patch = in_channels * kernel_h * kernel_w
    col2im_fn = col2im_reference if F.reference_kernels_enabled() else F._col2im_fast

    # one extraction covers both planes: stacking along channels makes the
    # top `patch` column rows the real plane and the bottom the imaginary one
    stacked = np.concatenate([x_real.data, x_imag.data], axis=1)
    columns, (out_h, out_w) = im2col(stacked, kernel, stride, padding)
    wr = weight_real.data.reshape(out_channels, -1)
    wi = weight_imag.data.reshape(out_channels, -1)
    cache = {"columns": columns}

    matrix_shape = (2, out_channels, out_h, out_w, batch)
    # W2 = [[Wr, -Wi], [Wi, Wr]]: one wide matmul yields both planes
    w_block = np.empty((2 * out_channels, 2 * patch),
                       dtype=np.result_type(wr, wi))
    w_block[:out_channels, :patch] = wr
    np.negative(wi, out=w_block[:out_channels, patch:])
    w_block[out_channels:, :patch] = wi
    w_block[out_channels:, patch:] = wr
    cache["w_block"] = w_block
    out_matrix = w_block @ columns
    out = np.ascontiguousarray(
        out_matrix.reshape(matrix_shape).transpose(0, 4, 1, 2, 3))
    has_bias = bias_real is not None
    if has_bias:
        bias_shape = (1, out_channels, 1, 1)
        out[0] += bias_real.data.reshape(bias_shape)
        out[1] += bias_imag.data.reshape(bias_shape)

    # captured at forward time: gradients that no parent needs (e.g. the input
    # planes of the first layer are the data batch) are never computed, which
    # skips one wide matmul and the whole col2im scatter per step
    needs_input_grad = x_real.requires_grad or x_imag.requires_grad
    needs_weight_grad = weight_real.requires_grad or weight_imag.requires_grad

    weight_shape = weight_real.shape

    def backward(grad):
        # forward intermediates come from the cache and weights are read at
        # call time, so a replayed plan that refreshes the cache per step can
        # reuse this closure unchanged
        cols = cache["columns"]
        # one transpose pass produces the stacked (2*OC, out_h*out_w*batch)
        # upstream gradient for both planes
        grad_matrix = grad.transpose(0, 2, 3, 4, 1).reshape(2 * out_channels, -1)
        grad_r = grad_matrix[:out_channels]
        grad_i = grad_matrix[out_channels:]
        dx_real = dx_imag = dw_real = dw_imag = None
        # dW2 = G @ cols^T, dcols = W2^T @ G: one product per direction
        if needs_weight_grad:
            dw_block = grad_matrix @ cols.T
            dw_real = (dw_block[:out_channels, :patch]
                       + dw_block[out_channels:, patch:]).reshape(weight_shape)
            dw_imag = (dw_block[out_channels:, :patch]
                       - dw_block[:out_channels, patch:]).reshape(weight_shape)
        if needs_input_grad:
            dcols = cache["w_block"].T @ grad_matrix
            dx_stacked = col2im_fn(dcols, stacked_shape, kernel, stride, padding)
            dx_real = dx_stacked[:, :in_channels]
            dx_imag = dx_stacked[:, in_channels:]
        if has_bias:
            return (dx_real, dx_imag, dw_real, dw_imag,
                    grad_r.sum(axis=1), grad_i.sum(axis=1))
        return dx_real, dx_imag, dw_real, dw_imag

    parents = (x_real, x_imag, weight_real, weight_imag)
    if has_bias:
        parents = parents + (bias_real, bias_imag)
    packed = Tensor._make(out, parents, backward, "complex_conv2d",
                          {"cache": cache, "kernel": kernel, "stride": stride,
                           "padding": padding, "patch": patch,
                           "in_channels": in_channels,
                           "out_channels": out_channels,
                           "stacked_shape": stacked_shape,
                           "matrix_shape": matrix_shape,
                           "out_hw": (out_h, out_w),
                           "has_bias": has_bias})
    return _unpack_pair(packed)


def complex_conv2d_reference(inputs: ComplexTensor,
                             weight_real: Tensor, weight_imag: Tensor,
                             bias_real: Optional[Tensor] = None,
                             bias_imag: Optional[Tensor] = None,
                             stride: IntPair = 1,
                             padding: IntPair = 0) -> ComplexTensor:
    """The seed 4-real-convolution formulation, kept as reference.

    Built on :func:`~repro.tensor.functional.conv2d_reference`, so it
    reproduces the full pre-optimization path (index-table im2col gathers and
    the ``np.add.at`` adjoint) -- the baseline the training benchmark and the
    gradcheck parity tests measure the fused kernel against.
    """
    if not isinstance(inputs, ComplexTensor):
        inputs = ComplexTensor(inputs)
    conv = lambda x, w, b: conv2d_reference(x, w, b, stride=stride, padding=padding)  # noqa: E731
    out_real = (conv(inputs.real, weight_real, bias_real)
                - conv(inputs.imag, weight_imag, None))
    out_imag = (conv(inputs.real, weight_imag, bias_imag)
                + conv(inputs.imag, weight_real, None))
    return ComplexTensor(out_real, out_imag)
