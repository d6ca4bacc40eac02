"""Stateless neural-network primitives built on the autograd engine.

These functions are the computational kernels used by the layer classes in
:mod:`repro.nn`.  Convolution and pooling are implemented with an im2col
lowering so that the heavy lifting happens inside a single matrix product
(the same operation the photonic MZI mesh implements in hardware).

Training hot path
-----------------
The im2col/col2im pair is the inner loop of every convolutional training step,
so both directions are built for speed:

* :func:`im2col` extracts patches through
  ``np.lib.stride_tricks.sliding_window_view`` -- one strided view plus one
  contiguous copy, instead of materialising an index table and gathering
  through it.
* :func:`col2im` (the adjoint scatter-add) runs as a single ``np.bincount``
  over precomputed flat scatter indices instead of the classic ``np.add.at``,
  which is typically one to two orders of magnitude slower.
* Window geometry (index tables, scatter indices, output sizes) is memoized
  per ``(shape, kernel, stride, padding)``; a training loop pays for it once.

The seed implementations survive as :func:`im2col_reference`,
:func:`col2im_reference` and :func:`conv2d_reference` -- executable
specifications pinned by the parity tests and used as the baseline of
``benchmarks/test_bench_train.py``.  ``REPRO_FORCE_REFERENCE=1``
(:mod:`repro.reference`) routes :func:`im2col`, :func:`col2im` and every
backward adjoint (:func:`col2im_kernel`) through them.

One forward kernel per op
-------------------------
Like every primitive in :mod:`repro.tensor.ops`, :func:`conv2d`,
:func:`max_pool2d`, :func:`avg_pool2d` and :func:`batch_norm` each run their
forward math in one module-level kernel (``_conv2d_forward`` and so on) that
reads the parents' data at call time and takes an optional ``out`` buffer.
The op binds the kernel to its parents and records it as the ``forward``
tape parameter; the compiled train step (:mod:`repro.core.train_plan`)
replays that very callable into the node's persistent buffer, so the tape
and the plan run one implementation.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import reference
from repro.tensor import ops
from repro.tensor.ops import _into
from repro.tensor.tensor import Tensor, ensure_tensor, mark_trace_volatile

IntPair = Union[int, Tuple[int, int]]


def _as_pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# --------------------------------------------------------------------------- #
# softmax family
# --------------------------------------------------------------------------- #
def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    logits = ensure_tensor(logits)
    # the shift constant is data-dependent, so a traced softmax cannot be
    # replayed with frozen leaves (log_softmax routes through logsumexp and
    # stays replayable)
    mark_trace_volatile("softmax shift constant")
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    logits = ensure_tensor(logits)
    return logits - ops.logsumexp(logits, axis=axis, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Encode integer class labels as one-hot rows."""
    labels = np.asarray(labels, dtype=int).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot encoding")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


# --------------------------------------------------------------------------- #
# linear
# --------------------------------------------------------------------------- #
def linear(inputs: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``inputs @ weight.T + bias``.

    ``weight`` has shape ``(out_features, in_features)`` to match the
    convention used throughout :mod:`repro.nn`.
    """
    output = ensure_tensor(inputs) @ ensure_tensor(weight).transpose()
    if bias is not None:
        output = output + bias
    return output


# --------------------------------------------------------------------------- #
# im2col convolution
# --------------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _checked_output_size(input_shape: Tuple[int, int, int, int],
                         kernel_size: Tuple[int, int],
                         stride: Tuple[int, int],
                         padding: Tuple[int, int]) -> Tuple[int, int]:
    _batch, _channels, height, width = input_shape
    out_h = _conv_output_size(height, kernel_size[0], stride[0], padding[0])
    out_w = _conv_output_size(width, kernel_size[1], stride[1], padding[1])
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty for input {tuple(input_shape)}, "
            f"kernel {tuple(kernel_size)}, stride {tuple(stride)}, padding {tuple(padding)}"
        )
    return out_h, out_w


@lru_cache(maxsize=256)
def _im2col_geometry(plane_shape: Tuple[int, int, int],
                     kernel_size: Tuple[int, int],
                     stride: Tuple[int, int],
                     padding: Tuple[int, int]):
    """Memoized index tables of :func:`im2col_indices` (read-only arrays).

    Keyed on the batch-independent ``(channels, height, width)`` plane shape
    so loops with varying batch sizes (partial final batches, the dynamic
    micro-batcher) share one cache entry per layer geometry.
    """
    channels, _height, _width = plane_shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    out_h, out_w = _checked_output_size((1,) + plane_shape, kernel_size, stride, padding)

    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride_h * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride_w * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    for array in (k, i, j):
        array.flags.writeable = False
    return k, i, j, (out_h, out_w)


def im2col_indices(input_shape: Tuple[int, int, int, int],
                   kernel_size: Tuple[int, int],
                   stride: Tuple[int, int],
                   padding: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]:
    """Compute gather indices used to lower a convolution to a matrix product.

    Returns ``(k, i, j, (out_h, out_w))`` where ``k, i, j`` index the channel,
    row and column of each patch element for every output position.  The
    tables are memoized per geometry and returned read-only.
    """
    _batch, channels, height, width = input_shape
    return _im2col_geometry((int(channels), int(height), int(width)),
                            tuple(kernel_size), tuple(stride), tuple(padding))


@lru_cache(maxsize=32)
def _col2im_scatter_indices(input_shape: Tuple[int, int, int, int],
                            kernel_size: Tuple[int, int],
                            stride: Tuple[int, int],
                            padding: Tuple[int, int]):
    """Flat scatter indices of the im2col adjoint, memoized per geometry.

    Element ``(p, q, b)`` of the ``(C * kh * kw, out_h * out_w, batch)``
    column layout lands in flat bin ``index[p, q] + b * C * Hp * Wp`` of the
    padded ``(batch, C, Hp, Wp)`` image; the full index array is what one
    ``np.bincount`` call sums over.  The cache is deliberately small -- one
    entry per live layer geometry -- because the arrays scale with
    ``batch * C * kh * kw * out_h * out_w``.
    """
    batch, channels, height, width = input_shape
    pad_h, pad_w = padding
    padded_h, padded_w = height + 2 * pad_h, width + 2 * pad_w
    k, i, j, _out_size = im2col_indices(input_shape, kernel_size, stride, padding)
    plane = channels * padded_h * padded_w
    per_position = k * (padded_h * padded_w) + i * padded_w + j
    flat = per_position[:, :, None] + np.arange(batch, dtype=np.intp) * plane
    flat = np.ascontiguousarray(flat.reshape(-1))
    flat.flags.writeable = False
    return flat, (padded_h, padded_w)


def im2col_reference(inputs: np.ndarray,
                     kernel_size: Tuple[int, int],
                     stride: Tuple[int, int],
                     padding: Tuple[int, int]) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Seed im2col: index-table gather (executable specification)."""
    pad_h, pad_w = padding
    padded = np.pad(inputs, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)), mode="constant")
    k, i, j, out_size = im2col_indices(inputs.shape, kernel_size, stride, padding)
    columns = padded[:, k, i, j]                      # (batch, C*kh*kw, out_h*out_w)
    columns = columns.transpose(1, 2, 0).reshape(columns.shape[1], -1)
    return columns, out_size


def im2col(inputs: np.ndarray,
           kernel_size: Tuple[int, int],
           stride: Tuple[int, int],
           padding: Tuple[int, int]) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns.

    Output has shape ``(channels * kh * kw, batch * out_h * out_w)`` with the
    flat column axis ordered ``(out_h * out_w, batch)``.  Patches are read
    through a ``sliding_window_view`` -- a zero-copy strided view -- so the
    only data movement is the one contiguous reshape copy of the output.
    """
    if reference.enabled():
        return im2col_reference(inputs, kernel_size, stride, padding)
    batch, channels, _height, _width = inputs.shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    out_size = _checked_output_size(inputs.shape, kernel_size, stride, padding)
    if pad_h or pad_w:
        inputs = np.pad(inputs, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)),
                        mode="constant")
    windows = sliding_window_view(inputs, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride_h, ::stride_w]
    # (B, C, oh, ow, kh, kw) -> (C, kh, kw, oh, ow, B) -> (C*kh*kw, oh*ow*B)
    columns = windows.transpose(1, 4, 5, 2, 3, 0).reshape(
        channels * kernel_h * kernel_w, out_size[0] * out_size[1] * batch)
    return columns, out_size


def col2im_reference(columns: np.ndarray,
                     input_shape: Tuple[int, int, int, int],
                     kernel_size: Tuple[int, int],
                     stride: Tuple[int, int],
                     padding: Tuple[int, int]) -> np.ndarray:
    """Seed col2im: ``np.add.at`` scatter (executable specification)."""
    batch, channels, height, width = input_shape
    pad_h, pad_w = padding
    padded_shape = (batch, channels, height + 2 * pad_h, width + 2 * pad_w)
    padded = np.zeros(padded_shape, dtype=columns.dtype)
    k, i, j, out_size = im2col_indices(input_shape, kernel_size, stride, padding)
    out_h, out_w = out_size
    cols_reshaped = columns.reshape(channels * kernel_size[0] * kernel_size[1], out_h * out_w, batch)
    cols_reshaped = cols_reshaped.transpose(2, 0, 1)
    np.add.at(padded, (slice(None), k, i, j), cols_reshaped)
    if pad_h == 0 and pad_w == 0:
        return padded
    return padded[:, :, pad_h:pad_h + height, pad_w:pad_w + width]


def _bincount_scatter(indices: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    if np.iscomplexobj(weights):
        return (np.bincount(indices, weights=weights.real, minlength=length)
                + 1j * np.bincount(indices, weights=weights.imag, minlength=length))
    return np.bincount(indices, weights=weights, minlength=length)


#: below this per-window block size (``batch * C * out_h * out_w`` elements)
#: the adjoint scatters through one ``np.bincount`` call; above it, the
#: per-window shifted accumulation amortizes its ``kh * kw`` python-level
#: iterations over large vectorized adds and wins on memory locality
#: (measured crossover on the dev box; both paths are exact).
COL2IM_BINCOUNT_BLOCK_LIMIT = 65536


def col2im(columns: np.ndarray,
           input_shape: Tuple[int, int, int, int],
           kernel_size: Tuple[int, int],
           stride: Tuple[int, int],
           padding: Tuple[int, int]) -> np.ndarray:
    """Scatter-add columns back into image form (adjoint of :func:`im2col`).

    No ``np.add.at`` anywhere -- the seed scatter's buffered element-wise
    dispatch dominates the whole backward pass.  Three exact strategies,
    picked by window geometry:

    * **reshape** -- when the windows tile the image exactly (``stride ==
      kernel``, no padding, no remainder; every pooling layer in the paper's
      models), the adjoint is a pure permutation: one strided reshape copy,
      no accumulation at all.
    * **bincount** -- one ``np.bincount`` over memoized flat scatter indices
      (:func:`_col2im_scatter_indices`).
    * **shifted accumulation** -- for large per-window blocks, ``kh * kw``
      strided in-place adds of contiguous image-shaped slabs.
    """
    return col2im_kernel()(columns, input_shape, kernel_size, stride, padding)


def col2im_kernel():
    """The col2im adjoint the reference switch selects.

    Backward closures capture it at forward time, so a recorded pass
    back-propagates through the kernel it was recorded with.
    """
    return col2im_reference if reference.enabled() else _col2im_fast


def _col2im_fast(columns: np.ndarray,
                 input_shape: Tuple[int, int, int, int],
                 kernel_size: Tuple[int, int],
                 stride: Tuple[int, int],
                 padding: Tuple[int, int]) -> np.ndarray:
    """The reshape/bincount/shifted adjoint behind :func:`col2im`."""
    batch, channels, height, width = input_shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    out_h, out_w = _checked_output_size(input_shape, kernel_size, stride, padding)

    if (pad_h == 0 and pad_w == 0 and stride_h == kernel_h and stride_w == kernel_w
            and out_h * kernel_h == height and out_w * kernel_w == width):
        # exact tiling: the adjoint is a permutation, not a scatter
        image = np.empty(input_shape, dtype=columns.dtype)
        tiles = image.reshape(batch, channels, out_h, kernel_h, out_w, kernel_w)
        windows = columns.reshape(channels, kernel_h, kernel_w, out_h, out_w, batch)
        tiles[...] = windows.transpose(5, 0, 3, 1, 4, 2)
        return image

    block = batch * channels * out_h * out_w
    if block < COL2IM_BINCOUNT_BLOCK_LIMIT:
        padded_h, padded_w = height + 2 * pad_h, width + 2 * pad_w
        indices, _padded_size = _col2im_scatter_indices(
            tuple(input_shape), tuple(kernel_size), tuple(stride), tuple(padding))
        flat = _bincount_scatter(indices, columns.reshape(-1),
                                 batch * channels * padded_h * padded_w)
        padded = flat.reshape(batch, channels, padded_h, padded_w)
        padded = padded.astype(columns.dtype, copy=False)
    else:
        padded = np.zeros((batch, channels, height + 2 * pad_h, width + 2 * pad_w),
                          dtype=columns.dtype)
        windows = columns.reshape(channels, kernel_h, kernel_w, out_h, out_w, batch)
        windows = windows.transpose(5, 0, 1, 2, 3, 4)
        for offset_h in range(kernel_h):
            stop_h = offset_h + stride_h * out_h
            for offset_w in range(kernel_w):
                padded[:, :, offset_h:stop_h:stride_h,
                       offset_w:offset_w + stride_w * out_w:stride_w] \
                    += windows[:, :, offset_h, offset_w]
    if pad_h == 0 and pad_w == 0:
        return padded
    return padded[:, :, pad_h:pad_h + height, pad_w:pad_w + width]


def _conv2d_checked(inputs: Tensor, weight: Tensor,
                    stride: IntPair, padding: IntPair):
    inputs = ensure_tensor(inputs)
    weight = ensure_tensor(weight)
    stride = _as_pair(stride)
    padding = _as_pair(padding)
    _batch, in_channels, _height, _width = inputs.shape
    _out_channels, weight_in_channels, _kernel_h, _kernel_w = weight.shape
    if in_channels != weight_in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {in_channels}, weight expects {weight_in_channels}"
        )
    return inputs, weight, stride, padding


def _conv2d_forward(inputs: Tensor, weight: Tensor, bias: Optional[Tensor],
                    kernel: Tuple[int, int], stride: Tuple[int, int],
                    padding: Tuple[int, int], cache: dict,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward kernel of :func:`conv2d`; publishes the im2col columns to ``cache``."""
    x, w = inputs.data, weight.data
    out_channels = w.shape[0]
    columns, (out_h, out_w) = im2col(x, kernel, stride, padding)
    cache["columns"] = columns
    out_matrix = w.reshape(out_channels, -1) @ columns       # (out_channels, out_h*out_w*batch)
    shaped = out_matrix.reshape(out_channels, out_h, out_w, x.shape[0]).transpose(3, 0, 1, 2)
    if bias is not None:
        return np.add(shaped, bias.data.reshape(1, out_channels, 1, 1), out=out)
    return _into(out, shaped)


def conv2d(inputs: Tensor,
           weight: Tensor,
           bias: Optional[Tensor] = None,
           stride: IntPair = 1,
           padding: IntPair = 0) -> Tensor:
    """2-D cross-correlation (what deep-learning frameworks call convolution).

    Parameters
    ----------
    inputs:
        Tensor of shape ``(batch, in_channels, height, width)``.
    weight:
        Tensor of shape ``(out_channels, in_channels, kernel_h, kernel_w)``.
    bias:
        Optional tensor of shape ``(out_channels,)``.
    """
    inputs, weight, stride, padding = _conv2d_checked(inputs, weight, stride, padding)
    out_channels, _in_channels, kernel_h, kernel_w = weight.shape
    col2im_fn = col2im_kernel()

    # forward intermediates live in a cache dict (refreshed by every replay
    # of the forward kernel) and the weight matrix is re-derived from the
    # parameter at call time, so the closure never sees stale arrays
    cache: dict = {}
    forward = partial(_conv2d_forward, inputs, weight, bias, (kernel_h, kernel_w),
                      stride, padding, cache)
    out_data = forward()

    # captured at forward time: skip the input-gradient matmul + scatter when
    # the input is e.g. the data batch of the first layer
    needs_input_grad = inputs.requires_grad
    needs_weight_grad = weight.requires_grad

    def backward(grad):
        cols = cache["columns"]
        w_matrix = weight.data.reshape(out_channels, -1)
        grad_matrix = grad.transpose(1, 2, 3, 0).reshape(out_channels, -1)
        grad_weight = ((grad_matrix @ cols.T).reshape(weight.shape)
                       if needs_weight_grad else None)
        grad_input = None
        if needs_input_grad:
            grad_columns = w_matrix.T @ grad_matrix
            grad_input = col2im_fn(grad_columns, inputs.shape, (kernel_h, kernel_w),
                                   stride, padding)
        grad_bias = grad.sum(axis=(0, 2, 3)) if bias is not None else None
        if bias is not None:
            return grad_input, grad_weight, grad_bias
        return grad_input, grad_weight

    parents = (inputs, weight) if bias is None else (inputs, weight, bias)
    return Tensor._make(out_data, parents, backward, "conv2d", {"forward": forward})


def conv2d_reference(inputs: Tensor,
                     weight: Tensor,
                     bias: Optional[Tensor] = None,
                     stride: IntPair = 1,
                     padding: IntPair = 0) -> Tensor:
    """Seed convolution path: index-table im2col + ``np.add.at`` adjoint.

    Kept as the executable baseline that :func:`conv2d` (and the fused complex
    kernels built on it) are parity-pinned and benchmarked against.
    """
    inputs, weight, stride, padding = _conv2d_checked(inputs, weight, stride, padding)
    batch = inputs.shape[0]
    out_channels, _in_channels, kernel_h, kernel_w = weight.shape
    columns, (out_h, out_w) = im2col_reference(inputs.data, (kernel_h, kernel_w),
                                               stride, padding)
    weight_matrix = weight.data.reshape(out_channels, -1)
    out_matrix = weight_matrix @ columns
    out_data = out_matrix.reshape(out_channels, out_h, out_w, batch).transpose(3, 0, 1, 2)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, out_channels, 1, 1)

    def backward(grad):
        grad_matrix = grad.transpose(1, 2, 3, 0).reshape(out_channels, -1)
        grad_weight = (grad_matrix @ columns.T).reshape(weight.shape)
        grad_columns = weight_matrix.T @ grad_matrix
        grad_input = col2im_reference(grad_columns, inputs.shape,
                                      (kernel_h, kernel_w), stride, padding)
        grad_bias = grad.sum(axis=(0, 2, 3)) if bias is not None else None
        if bias is not None:
            return grad_input, grad_weight, grad_bias
        return grad_input, grad_weight

    parents = (inputs, weight) if bias is None else (inputs, weight, bias)
    return Tensor._make(out_data, parents, backward)


def _pool_columns(inputs: Tensor, kernel: Tuple[int, int], stride: Tuple[int, int]):
    """im2col of every channel as its own image: ``(kh*kw, out_h*out_w*N)``."""
    batch, channels, height, width = inputs.shape
    return im2col(inputs.data.reshape(batch * channels, 1, height, width),
                  kernel, stride, (0, 0))


def _pooled(inputs: Tensor, window_values: np.ndarray, out_size: Tuple[int, int],
            out: Optional[np.ndarray]) -> np.ndarray:
    """One value per window, back in ``(batch, channels, out_h, out_w)`` layout."""
    batch, channels = inputs.shape[:2]
    out_h, out_w = out_size
    pooled = (window_values.reshape(out_h, out_w, batch * channels).transpose(2, 0, 1)
              .reshape(batch, channels, out_h, out_w))
    return _into(out, pooled)


def _max_pool2d_forward(inputs: Tensor, kernel: Tuple[int, int], stride: Tuple[int, int],
                        cache: dict, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward kernel of :func:`max_pool2d`; publishes columns and argmax to ``cache``."""
    columns, out_size = _pool_columns(inputs, kernel, stride)
    max_idx = columns.argmax(axis=0)
    positions = np.arange(columns.shape[1])
    cache.update(columns=columns, max_idx=max_idx, positions=positions)
    return _pooled(inputs, columns[max_idx, positions], out_size, out)


def _avg_pool2d_forward(inputs: Tensor, kernel: Tuple[int, int], stride: Tuple[int, int],
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward kernel of :func:`avg_pool2d`."""
    columns, out_size = _pool_columns(inputs, kernel, stride)
    return _pooled(inputs, columns.mean(axis=0), out_size, out)


def max_pool2d(inputs: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over non-overlapping or strided windows."""
    inputs = ensure_tensor(inputs)
    kernel = _as_pair(kernel_size)
    stride = _as_pair(stride) if stride is not None else kernel
    batch, channels, height, width = inputs.shape
    out_h = _conv_output_size(height, kernel[0], stride[0], 0)
    out_w = _conv_output_size(width, kernel[1], stride[1], 0)
    pool_shape = (batch * channels, 1, height, width)
    col2im_fn = col2im_kernel()

    # Treat each channel independently by folding channels into the batch axis.
    cache: dict = {}
    forward = partial(_max_pool2d_forward, inputs, kernel, stride, cache)
    out_data = forward()

    def backward(grad):
        # the closure reuses the forward pass's columns, argmax and cached
        # im2col geometry (pool_shape/kernel/stride key the memoized tables);
        # all live in `cache`, which every forward replay refreshes
        grad_cols = np.zeros_like(cache["columns"])
        grad_flat = grad.reshape(batch * channels, out_h, out_w).transpose(1, 2, 0).reshape(-1)
        grad_cols[cache["max_idx"], cache["positions"]] = grad_flat
        grad_input = col2im_fn(grad_cols, pool_shape, kernel, stride, (0, 0))
        return (grad_input.reshape(batch, channels, height, width),)

    return Tensor._make(out_data, (inputs,), backward, "max_pool2d", {"forward": forward})


def avg_pool2d(inputs: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over windows."""
    inputs = ensure_tensor(inputs)
    kernel = _as_pair(kernel_size)
    stride = _as_pair(stride) if stride is not None else kernel
    batch, channels, height, width = inputs.shape
    out_h = _conv_output_size(height, kernel[0], stride[0], 0)
    out_w = _conv_output_size(width, kernel[1], stride[1], 0)
    window = kernel[0] * kernel[1]
    pool_shape = (batch * channels, 1, height, width)
    col2im_fn = col2im_kernel()

    forward = partial(_avg_pool2d_forward, inputs, kernel, stride)
    out_data = forward()

    def backward(grad):
        # reuses the forward pass's cached im2col geometry via pool_shape
        grad_flat = grad.reshape(batch * channels, out_h, out_w).transpose(1, 2, 0).reshape(-1)
        grad_cols = np.tile(grad_flat / window, (window, 1))
        grad_input = col2im_fn(grad_cols, pool_shape, kernel, stride, (0, 0))
        return (grad_input.reshape(batch, channels, height, width),)

    return Tensor._make(out_data, (inputs,), backward, "avg_pool2d", {"forward": forward})


def global_avg_pool2d(inputs: Tensor) -> Tensor:
    """Average over the spatial dimensions, yielding ``(batch, channels)``."""
    inputs = ensure_tensor(inputs)
    return inputs.mean(axis=(2, 3))


def dropout(inputs: Tensor, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``rate == 0``."""
    if not training or rate <= 0.0:
        return ensure_tensor(inputs)
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    rng = rng if rng is not None else np.random.default_rng()
    inputs = ensure_tensor(inputs)
    # a fresh random mask every step cannot be baked into a replayed plan
    mark_trace_volatile("dropout mask")
    mask = (rng.random(inputs.shape) >= rate) / (1.0 - rate)
    return inputs * Tensor(mask.astype(inputs.dtype))


# --------------------------------------------------------------------------- #
# fused batch normalisation
# --------------------------------------------------------------------------- #
def _batch_norm_forward_math(inputs: Tensor, weight: Optional[Tensor],
                             bias: Optional[Tensor], axes, shape, eps: float,
                             stats_hook, cache: dict,
                             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Training-mode batch-norm forward: the one kernel of the tape and the plan.

    Performs exactly the float operations the composed op-by-op formulation in
    :meth:`repro.nn.normalization._BatchNorm.forward` performs (mean, biased
    variance with its own mean, ``/ sqrt(var + eps)`` as a true division, then
    the affine map), so the fused node is bit-identical to the composed graph.

    The intermediates the backward closure reads (``mean``, ``sub``, ``var``,
    ``sq``, ``norm``) live in ``cache``: each is computed into the array
    already stored there, or into a fresh one that is stored.  The eager op
    starts from an empty cache; a compiled train step replays this kernel on
    the traced node's cache with ``out`` set to the node's buffer, so every
    replay reuses the traced arrays.  ``stats_hook`` receives the flat batch
    mean and variance on every call.
    """
    x = inputs.data
    mean = cache["mean"] = np.mean(x, axis=axes, keepdims=True, out=cache.get("mean"))
    sub = cache["sub"] = np.subtract(x, mean, out=cache.get("sub"))
    # the square goes into the buffer the normalised values overwrite next
    square = np.square(sub, out=cache.get("norm") if weight is not None else out)
    var = cache["var"] = np.mean(square, axis=axes, keepdims=True, out=cache.get("var"))
    sq = cache["sq"] = np.add(var, eps, out=cache.get("sq"))
    np.sqrt(sq, out=sq)
    norm = cache["norm"] = np.divide(sub, sq, out=square)
    if stats_hook is not None:
        stats_hook(mean.reshape(-1), var.reshape(-1))
    if weight is None:
        return norm
    result = np.multiply(norm, weight.data.reshape(shape), out=out)
    return np.add(result, bias.data.reshape(shape), out=result)


def batch_norm(inputs: Tensor, weight: Optional[Tensor], bias: Optional[Tensor],
               axes, param_shape, eps: float,
               stats_hook=None) -> Tensor:
    """Training-mode batch normalisation as a single fused autograd node.

    Replaces the ~10-node composed graph (mean, var, sub, add-eps, sqrt, div,
    two reshapes, mul, add) that :class:`~repro.nn.normalization._BatchNorm`
    used to build per part per step with one tape node whose forward *and*
    backward are bit-identical to the composed formulation -- the closure
    replays the exact per-node float operations, including the order in which
    the engine summed the three input-gradient contributions (variance, then
    centring, then mean).

    ``axes``/``param_shape`` follow the layer's conventions (``(0, 2, 3)`` /
    ``(1, C, 1, 1)`` for 2-d, ``0`` / ``(1, C)`` for 1-d).  ``stats_hook``,
    when given, receives the flat batch mean and biased batch variance each
    time the forward math runs -- at eager forward here and again on every
    plan replay -- so running-statistic updates stay outside the tape but
    inside the replayed step.
    """
    inputs = ensure_tensor(inputs)
    affine = weight is not None
    axes_tuple = axes if isinstance(axes, tuple) else (axes,)
    count = int(np.prod([inputs.shape[ax] for ax in axes_tuple]))
    x_shape = inputs.shape
    cache: dict = {}
    forward = partial(_batch_norm_forward_math, inputs, weight, bias, axes,
                      param_shape, eps, stats_hook, cache)
    out_data = forward()

    def backward(grad):
        sub = cache["sub"]
        sq = cache["sq"]
        if affine:
            g_norm = grad * weight.data.reshape(param_shape)
            g_weight = ((grad * cache["norm"]).sum(axis=axes_tuple, keepdims=True)
                        .reshape(weight.data.shape))
            g_bias = grad.sum(axis=axes_tuple, keepdims=True).reshape(bias.data.shape)
        else:
            g_norm = grad
        g_sub = g_norm / sq
        g_sq = (-g_norm * sub / (sq ** 2)).sum(axis=axes_tuple, keepdims=True)
        g_var = g_sq * 0.5 / sq
        # engine accumulation order of the composed graph: variance term
        # first, then the centring term, then the mean term
        g_x = np.broadcast_to(g_var, x_shape) * 2.0 * sub / count
        g_x = g_x + g_sub
        g_x = g_x + np.broadcast_to((-g_sub).sum(axis=axes_tuple, keepdims=True),
                                    x_shape) / count
        if affine:
            return g_x, g_weight, g_bias
        return (g_x,)

    parents = (inputs, weight, bias) if affine else (inputs,)
    return Tensor._make(out_data, parents, backward, "batch_norm",
                        {"forward": forward, "axes_tuple": axes_tuple,
                         "shape": param_shape, "count": count, "cache": cache,
                         "affine": affine})
