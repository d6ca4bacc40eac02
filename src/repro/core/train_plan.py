"""Training-step plan compiler: tape-to-plan lowering for the whole step.

:mod:`repro.core.runtime` lowers an *inference* DAG to a flat slot-reuse
instruction list and wins 2.5-4x over graph-walking dispatch.  This module
extends the idea to the full training step.  The autograd tape of one eager
``Trainer.train_step`` is recorded once per batch shape via
:func:`repro.tensor.tensor.trace_tape`, then lowered to three flat instruction
lists executed against preallocated buffers:

* **forward**: one emitter per traced node recomputes ``node.data`` *in place*
  into the very array the trace produced -- the traced tensors' own arrays are
  the activation buffers, so every backward closure (which reads
  ``parent.data``/``weight.data`` and the op's cache dict at call time) replays
  against fresh values without being rebuilt.  View nodes (reshape, transpose,
  slicing, the complex pair unpacking) whose data shares memory with their
  parent cost *zero* instructions: the compile-time view stays valid because
  buffers are never rebound.  The compiler cuts the list after the logits
  node: :meth:`TrainStepPlan.forward` runs the model part,
  :meth:`TrainStepPlan.finish` the loss tail, so a caller can read the
  logits before supplying the *late* inputs only the loss reads (mutual
  learning's peer distribution, which needs the other network's logits of
  the same batch).  :meth:`TrainStepPlan.execute` runs both halves.
* **backward**: the original eager closures are reused in the exact order
  ``Tensor.backward`` would process them (reversed topological order), but the
  per-step topological sort, the ``pending`` dict and every gradient
  allocation are gone: gradients accumulate via first-write ``np.copyto`` /
  in-place ``np.add`` into persistent slots recycled through a shape-keyed
  buffer pool.  ReLU backward is fused with its forward emitter (the
  activation mask is computed once per step and shared), and the complex
  pair-unpacking / slicing adjoints turn into direct slot writes instead of
  zeros-plus-scatter.
* **update**: the optimizer tail (optional global-norm clip, then
  ``begin_step`` + one ``step_parameter`` per contributing parameter) runs the
  very same in-place kernels as ``Optimizer.step``, reading ``optimizer.lr``
  at call time so scheduler changes apply to the next planned step.

Replay is bit-identical to the eager tape except for the sign of floating
zeros in scatter-style adjoints (the eager path adds ``-0.0`` into zeros,
producing ``+0.0``); the parity tests therefore pin trajectories with
``rtol=0, atol=0``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.tensor import functional as F
from repro.tensor.tensor import TapeEntry, TapeTrace, Tensor, _unbroadcast


class PlanUnsupported(RuntimeError):
    """The traced step cannot be lowered; the caller must stay on the eager tape."""


# --------------------------------------------------------------------------- #
# small helpers
# --------------------------------------------------------------------------- #
_VIEW_OPS = ("reshape", "transpose", "getitem", "pick")


def _is_basic_index(index) -> bool:
    """True for indexing that numpy resolves to a (possibly strided) view."""
    basic = (int, np.integer, slice, type(None), type(Ellipsis))
    if isinstance(index, basic):
        return True
    if isinstance(index, tuple):
        return all(isinstance(part, basic) for part in index)
    return False


class _BufferPool:
    """Shape/dtype-keyed free list of gradient slots."""

    def __init__(self):
        self._free: Dict[Tuple, List[np.ndarray]] = {}
        self.allocated = 0

    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        stack = self._free.get(key)
        if stack:
            return stack.pop()
        self.allocated += 1
        return np.empty(shape, dtype)

    def release(self, array: np.ndarray) -> None:
        self._free.setdefault((array.shape, array.dtype.str), []).append(array)


class _FusedForward:
    """Two forward emitters merged into one instruction (producer + activation)."""

    __slots__ = ("first", "second")

    def __init__(self, first: Callable[[], None], second: Callable[[], None]):
        self.first = first
        self.second = second

    def __call__(self) -> None:
        self.first()
        self.second()


# --------------------------------------------------------------------------- #
# forward emitters
#
# Every emitter recomputes the traced node's data IN PLACE into the array the
# trace produced, replicating the eager op's float operations exactly (same
# ufuncs, same order) so replay is bit-identical.  Emitters read parent data
# through the parent Tensor at call time and refresh the op's cache dict /
# captured intermediate arrays in place, keeping the reused backward closures
# coherent.
# --------------------------------------------------------------------------- #
def _ufunc_binary(ufunc):
    def factory(entry: TapeEntry, ctx) -> Callable[[], None]:
        a, b = entry.parents
        buf = entry.tensor.data

        def run():
            ufunc(a.data, b.data, out=buf)

        return run

    return factory


def _ufunc_unary(ufunc):
    def factory(entry: TapeEntry, ctx) -> Callable[[], None]:
        (a,) = entry.parents
        buf = entry.tensor.data

        def run():
            ufunc(a.data, out=buf)

        return run

    return factory


def _f_relu(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    mask = ctx.relu_masks.get(id(entry.tensor))
    if mask is None:
        def run():
            np.maximum(a.data, 0.0, out=buf)
    else:
        # the backward instruction reuses this mask: one forward/backward
        # instruction pair sharing the activation test
        def run():
            np.maximum(a.data, 0.0, out=buf)
            np.greater(a.data, 0, out=mask)

    return run


def _f_sigmoid(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data

    def run():
        np.negative(a.data, out=buf)
        np.exp(buf, out=buf)
        np.add(buf, 1.0, out=buf)
        np.divide(1.0, buf, out=buf)

    return run


def _f_power(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    exponent = entry.params["exponent"]

    def run():
        buf[...] = a.data ** exponent

    return run


def _f_leaky_relu(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    slope = entry.params["negative_slope"]

    def run():
        buf[...] = np.where(a.data > 0, a.data, slope * a.data)

    return run


def _f_clip(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    low, high = entry.params["low"], entry.params["high"]

    def run():
        np.clip(a.data, low, high, out=buf)

    return run


def _f_matmul(entry: TapeEntry, ctx) -> Callable[[], None]:
    a, b = entry.parents
    buf = entry.tensor.data

    def run():
        np.matmul(a.data, b.data, out=buf)

    return run


def _f_sum(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    axis, keepdims = entry.params["axis"], entry.params["keepdims"]

    def run():
        np.sum(a.data, axis=axis, keepdims=keepdims, out=buf)

    return run


def _f_mean(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    axis, keepdims = entry.params["axis"], entry.params["keepdims"]

    def run():
        np.mean(a.data, axis=axis, keepdims=keepdims, out=buf)

    return run


def _f_var(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    axis, keepdims = entry.params["axis"], entry.params["keepdims"]
    mean_buf = entry.params["mean"]  # shared with the backward closure

    def run():
        np.mean(a.data, axis=axis, keepdims=True, out=mean_buf)
        np.mean((a.data - mean_buf) ** 2, axis=axis, keepdims=keepdims, out=buf)

    return run


def _f_minmax(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    axis, keepdims = entry.params["axis"], entry.params["keepdims"]
    fn = entry.params["fn"]

    def run():
        fn(a.data, axis=axis, keepdims=keepdims, out=buf)

    return run


def _f_logsumexp(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    axis, keepdims = entry.params["axis"], entry.params["keepdims"]
    exps, sum_exps = entry.params["exps"], entry.params["sum_exps"]

    if keepdims:
        def run():
            shifted_max = a.data.max(axis=axis, keepdims=True)
            np.subtract(a.data, shifted_max, out=exps)
            np.exp(exps, out=exps)
            np.sum(exps, axis=axis, keepdims=True, out=sum_exps)
            np.log(sum_exps, out=buf)
            np.add(buf, shifted_max, out=buf)
    else:
        squeeze_axis = axis if axis is not None else tuple(range(a.data.ndim))

        def run():
            shifted_max = a.data.max(axis=axis, keepdims=True)
            np.subtract(a.data, shifted_max, out=exps)
            np.exp(exps, out=exps)
            np.sum(exps, axis=axis, keepdims=True, out=sum_exps)
            buf[...] = np.squeeze(np.log(sum_exps) + shifted_max, axis=squeeze_axis)

    return run


def _f_reshape(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    shape = entry.params["shape"]

    def run():
        buf[...] = a.data.reshape(shape)

    return run


def _f_getitem(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    index = entry.params["index"]

    def run():
        buf[...] = a.data[index]

    return run


def _f_concatenate(entry: TapeEntry, ctx) -> Callable[[], None]:
    buf = entry.tensor.data
    axis = entry.params["axis"]
    offsets = entry.params["offsets"]
    slots = []
    for parent, start, stop in zip(entry.parents, offsets[:-1], offsets[1:]):
        index = [slice(None)] * buf.ndim
        index[axis] = slice(int(start), int(stop))
        slots.append((buf[tuple(index)], parent))

    def run():
        for slot, parent in slots:
            slot[...] = parent.data

    return run


def _f_stack(entry: TapeEntry, ctx) -> Callable[[], None]:
    buf = entry.tensor.data
    axis = entry.params["axis"]
    slots = []
    for position, parent in enumerate(entry.parents):
        index = [slice(None)] * buf.ndim
        index[axis] = position
        slots.append((buf[tuple(index)], parent))

    def run():
        for slot, parent in slots:
            slot[...] = parent.data

    return run


def _f_pad(entry: TapeEntry, ctx) -> Callable[[], None]:
    (a,) = entry.parents
    buf = entry.tensor.data
    width = entry.params["width"]
    interior = tuple(
        slice(int(before), int(before) + dim)
        for (before, _after), dim in zip(width, a.data.shape)
    )
    # the border stays whatever np.pad wrote at trace time (the constant);
    # only the interior changes per step
    slot = buf[interior]

    def run():
        slot[...] = a.data

    return run


def _f_conv2d(entry: TapeEntry, ctx) -> Callable[[], None]:
    node = entry.tensor
    has_bias = entry.params["has_bias"]
    inputs, weight = entry.parents[0], entry.parents[1]
    bias = entry.parents[2] if has_bias else None
    kernel = entry.params["kernel"]
    stride, padding = entry.params["stride"], entry.params["padding"]
    cache = entry.params["cache"]
    buf = node.data
    batch, out_channels, out_h, out_w = node.shape

    def run():
        columns, _ = F.im2col(inputs.data, kernel, stride, padding)
        cache["columns"] = columns
        weight_matrix = weight.data.reshape(out_channels, -1)
        out_matrix = weight_matrix @ columns
        shaped = out_matrix.reshape(out_channels, out_h, out_w, batch).transpose(3, 0, 1, 2)
        if has_bias:
            np.add(shaped, bias.data.reshape(1, out_channels, 1, 1), out=buf)
        else:
            np.copyto(buf, shaped)

    return run


def _f_max_pool2d(entry: TapeEntry, ctx) -> Callable[[], None]:
    node = entry.tensor
    (inputs,) = entry.parents
    kernel, stride = entry.params["kernel"], entry.params["stride"]
    cache = entry.params["cache"]
    buf = node.data
    batch, channels, height, width = inputs.shape
    out_h, out_w = node.shape[2], node.shape[3]
    pool_shape = (batch * channels, 1, height, width)

    def run():
        reshaped = inputs.data.reshape(pool_shape)
        columns, _ = F.im2col(reshaped, kernel, stride, (0, 0))
        max_idx = columns.argmax(axis=0)
        cache["columns"] = columns
        cache["max_idx"] = max_idx
        out_cols = columns[max_idx, np.arange(columns.shape[1])]
        buf[...] = (out_cols.reshape(out_h, out_w, batch * channels)
                    .transpose(2, 0, 1).reshape(batch, channels, out_h, out_w))

    return run


def _f_avg_pool2d(entry: TapeEntry, ctx) -> Callable[[], None]:
    node = entry.tensor
    (inputs,) = entry.parents
    kernel, stride = entry.params["kernel"], entry.params["stride"]
    buf = node.data
    batch, channels, height, width = inputs.shape
    out_h, out_w = node.shape[2], node.shape[3]
    pool_shape = (batch * channels, 1, height, width)

    def run():
        reshaped = inputs.data.reshape(pool_shape)
        columns, _ = F.im2col(reshaped, kernel, stride, (0, 0))
        out_cols = columns.mean(axis=0)
        buf[...] = (out_cols.reshape(out_h, out_w, batch * channels)
                    .transpose(2, 0, 1).reshape(batch, channels, out_h, out_w))

    return run


def _f_batch_norm(entry: TapeEntry, ctx) -> Callable[[], None]:
    node = entry.tensor
    affine = entry.params["affine"]
    inputs = entry.parents[0]
    weight = entry.parents[1] if affine else None
    bias = entry.parents[2] if affine else None
    axes, shape = entry.params["axes"], entry.params["shape"]
    eps, cache = entry.params["eps"], entry.params["cache"]
    num_features = entry.params["num_features"]
    stats_hook = entry.params["stats_hook"]
    buf = node.data
    x_shape = inputs.data.shape
    dtype = buf.dtype
    # persistent intermediates published into the closure's cache once: the
    # eager helper reallocates all five per call, the plan reuses them.  For
    # the non-affine form the node's own buffer IS the normalised output,
    # exactly as in the eager helper.
    mean = np.empty_like(cache["mean"])
    var = np.empty_like(cache["var"])
    sq = np.empty_like(cache["sq"])
    sub = np.empty(x_shape, dtype)
    norm = np.empty(x_shape, dtype) if affine else buf
    scratch = np.empty(x_shape, dtype)
    cache.update(mean=mean, sub=sub, var=var, sq=sq, norm=norm)

    def run():
        x = inputs.data
        np.mean(x, axis=axes, keepdims=True, out=mean)
        np.subtract(x, mean, out=sub)
        np.power(sub, 2, out=scratch)
        np.mean(scratch, axis=axes, keepdims=True, out=var)
        np.add(var, eps, out=sq)
        np.sqrt(sq, out=sq)
        np.divide(sub, sq, out=norm)
        if affine:
            np.multiply(norm, weight.data.reshape(shape), out=buf)
            np.add(buf, bias.data.reshape(shape), out=buf)
        if stats_hook is not None:
            stats_hook(mean.reshape(num_features), var.reshape(num_features))

    return run


def _f_complex_linear(entry: TapeEntry, ctx) -> Callable[[], None]:
    node = entry.tensor
    has_bias = entry.params["has_bias"]
    x_real, x_imag, weight_real, weight_imag = entry.parents[:4]
    bias_real = entry.parents[4] if has_bias else None
    bias_imag = entry.parents[5] if has_bias else None
    in_features = entry.params["in_features"]
    out_features = entry.params["out_features"]
    buf = node.data
    dtype = buf.dtype
    rows = x_real.data.size // in_features
    # persistent scratch for the three Karatsuba products: the eager op
    # allocates a/b/c (plus the two operand sums) on every call
    a = np.empty((rows, out_features), dtype)
    b = np.empty((rows, out_features), dtype)
    c = np.empty((rows, out_features), dtype)
    x_sum = np.empty((rows, in_features), dtype)
    w_sum = np.empty((out_features, in_features), dtype)
    out_real = buf[0].reshape(rows, out_features)
    out_imag = buf[1].reshape(rows, out_features)

    def run():
        xr = x_real.data.reshape(-1, in_features)
        xi = x_imag.data.reshape(-1, in_features)
        wr, wi = weight_real.data, weight_imag.data
        np.matmul(xr, wr.T, out=a)
        np.matmul(xi, wi.T, out=b)
        np.add(xr, xi, out=x_sum)
        np.add(wr, wi, out=w_sum)
        np.matmul(x_sum, w_sum.T, out=c)
        np.subtract(a, b, out=out_real)
        np.subtract(c, a, out=out_imag)
        np.subtract(out_imag, b, out=out_imag)
        if has_bias:
            np.add(out_real, bias_real.data, out=out_real)
            np.add(out_imag, bias_imag.data, out=out_imag)

    return run


def _f_complex_conv2d(entry: TapeEntry, ctx) -> Callable[[], None]:
    node = entry.tensor
    has_bias = entry.params["has_bias"]
    x_real, x_imag, weight_real, weight_imag = entry.parents[:4]
    bias_real = entry.parents[4] if has_bias else None
    bias_imag = entry.parents[5] if has_bias else None
    kernel_h, kernel_w = entry.params["kernel"]
    stride_h, stride_w = entry.params["stride"]
    pad_h, pad_w = entry.params["padding"]
    patch = entry.params["patch"]
    in_channels = entry.params["in_channels"]
    out_channels = entry.params["out_channels"]
    matrix_shape = entry.params["matrix_shape"]
    out_h, out_w = entry.params["out_hw"]
    batch, _two_ic, height, width = entry.params["stacked_shape"]
    cache = entry.params["cache"]
    buf = node.data
    dtype = buf.dtype

    # persistent im2col workspace: the input planes land directly in the
    # interior of a zero-bordered padded buffer (replacing the per-step
    # concatenate + np.pad of the eager op) and the patch gather copies into
    # a reused column matrix, extracting exactly the elements `im2col` reads.
    # The padded buffer is stored channel-major (C, Hp, Wp, batch) so the
    # window gather's innermost axis is contiguous on both sides.
    padded = np.zeros((2 * in_channels, height + 2 * pad_h,
                       width + 2 * pad_w, batch), dtype)
    interior_real = padded[:in_channels, pad_h:pad_h + height, pad_w:pad_w + width, :]
    interior_imag = padded[in_channels:, pad_h:pad_h + height, pad_w:pad_w + width, :]
    n_cols = out_h * out_w * batch
    columns = np.empty((2 * patch, n_cols), dtype)
    cols_view = columns.reshape(2 * in_channels, kernel_h, kernel_w,
                                out_h, out_w, batch)
    cache["columns"] = columns
    buf_real, buf_imag = buf[0], buf[1]
    bias_shape = (1, out_channels, 1, 1)
    out_matrix = np.empty((2 * out_channels, n_cols), dtype)
    out_view = out_matrix.reshape(matrix_shape).transpose(0, 4, 1, 2, 3)

    def run():
        interior_real[...] = x_real.data.transpose(1, 2, 3, 0)
        interior_imag[...] = x_imag.data.transpose(1, 2, 3, 0)
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kernel_h, kernel_w), axis=(1, 2))
        np.copyto(cols_view,
                  windows[:, ::stride_h, ::stride_w].transpose(0, 4, 5, 1, 2, 3))
        wr = weight_real.data.reshape(out_channels, -1)
        wi = weight_imag.data.reshape(out_channels, -1)
        w_block = cache["w_block"]  # persistent block matrix, refreshed in place
        w_block[:out_channels, :patch] = wr
        np.negative(wi, out=w_block[:out_channels, patch:])
        w_block[out_channels:, :patch] = wi
        w_block[out_channels:, patch:] = wr
        np.matmul(w_block, columns, out=out_matrix)
        np.copyto(buf, out_view)
        if has_bias:
            np.add(buf_real, bias_real.data.reshape(bias_shape), out=buf_real)
            np.add(buf_imag, bias_imag.data.reshape(bias_shape), out=buf_imag)

    return run


_FORWARD_EMITTERS: Dict[str, Callable] = {
    "add": _ufunc_binary(np.add),
    "sub": _ufunc_binary(np.subtract),
    "mul": _ufunc_binary(np.multiply),
    "div": _ufunc_binary(np.divide),
    "maximum": _ufunc_binary(np.maximum),
    "neg": _ufunc_unary(np.negative),
    "exp": _ufunc_unary(np.exp),
    "log": _ufunc_unary(np.log),
    "sqrt": _ufunc_unary(np.sqrt),
    "abs": _ufunc_unary(np.abs),
    "tanh": _ufunc_unary(np.tanh),
    "sin": _ufunc_unary(np.sin),
    "cos": _ufunc_unary(np.cos),
    "sigmoid": _f_sigmoid,
    "relu": _f_relu,
    "leaky_relu": _f_leaky_relu,
    "power": _f_power,
    "clip": _f_clip,
    "matmul": _f_matmul,
    "sum": _f_sum,
    "mean": _f_mean,
    "var": _f_var,
    "max": _f_minmax,
    "min": _f_minmax,
    "logsumexp": _f_logsumexp,
    "reshape": _f_reshape,
    "transpose": None,            # always a view; handled statically
    "getitem": _f_getitem,
    "pick": None,                 # always a view of the packed buffer
    "concatenate": _f_concatenate,
    "stack": _f_stack,
    "pad": _f_pad,
    "conv2d": _f_conv2d,
    "max_pool2d": _f_max_pool2d,
    "avg_pool2d": _f_avg_pool2d,
    "batch_norm": _f_batch_norm,
    "complex_linear": _f_complex_linear,
    "complex_conv2d": _f_complex_conv2d,
}


class _CompileContext:
    def __init__(self):
        self.relu_masks: Dict[int, np.ndarray] = {}


# --------------------------------------------------------------------------- #
# backward instruction factories
# --------------------------------------------------------------------------- #
def _b_generic(closure, grad_in: np.ndarray, targets: Tuple) -> Callable[[], None]:
    def run():
        grads = closure(grad_in)
        for position, slot, first, needs_reduce, parent_shape in targets:
            contribution = grads[position]
            if needs_reduce:
                contribution = _unbroadcast(contribution, parent_shape)
            if first:
                np.copyto(slot, contribution)
            else:
                np.add(slot, contribution, out=slot)
    return run


def _b_relu(grad_in: np.ndarray, mask: np.ndarray, slot: np.ndarray,
            first: bool) -> Callable[[], None]:
    if first:
        def run():
            np.multiply(grad_in, mask, out=slot)
    else:
        def run():
            np.add(slot, grad_in * mask, out=slot)
    return run


def _b_pick(grad_in: np.ndarray, slot: np.ndarray, index: int,
            zero_indices: Tuple[int, ...]) -> Callable[[], None]:
    if zero_indices:
        def run():
            np.copyto(slot[index], grad_in)
            for missing in zero_indices:
                slot[missing].fill(0.0)
    else:
        def run():
            np.copyto(slot[index], grad_in)
    return run


def _b_getitem(grad_in: np.ndarray, slot: np.ndarray, index,
               first: bool) -> Callable[[], None]:
    if first:
        def run():
            slot.fill(0.0)
            slot[index] += grad_in
    else:
        def run():
            slot[index] += grad_in
    return run


# --------------------------------------------------------------------------- #
# specialized backward builders
#
# The generic instruction calls the eager closure (which allocates its result
# arrays) and then copies into the persistent slots.  For the three dominant
# ops the builders below replay the closure's float operations ufunc-by-ufunc
# -- same operations, same order, so bit-identical -- against compile-time
# scratch, writing gradients directly into the slots.  Each builder may return
# ``None`` (an accumulation pattern it does not cover), in which case the
# caller falls back to the generic closure instruction.
# --------------------------------------------------------------------------- #
def _slots_by_position(targets):
    """Map parent position -> (slot, first); None when any target broadcasts."""
    by_pos = {}
    for position, slot, first, needs_reduce, _shape in targets:
        if needs_reduce:
            return None
        by_pos[position] = (slot, first)
    return by_pos


def _b_batch_norm_build(entry: TapeEntry, grad_in: np.ndarray,
                        targets) -> Optional[Callable[[], None]]:
    by_pos = _slots_by_position(targets)
    if by_pos is None or 0 not in by_pos:
        return None
    if any(position in by_pos and not by_pos[position][1] for position in (1, 2)):
        return None  # an accumulated affine-parameter gradient: keep the closure
    params = entry.params
    affine = params["affine"]
    cache = params["cache"]
    axes_tuple = params["axes_tuple"]
    shape = params["shape"]
    count = params["count"]
    weight = entry.parents[1] if affine else None
    x_shape = entry.parents[0].data.shape
    x_slot, x_first = by_pos[0]
    w_slot = by_pos[1][0] if 1 in by_pos else None
    b_slot = by_pos[2][0] if 2 in by_pos else None
    dtype = grad_in.dtype
    s1 = np.empty(x_shape, dtype)
    s2 = np.empty(x_shape, dtype)
    reduced_shape = cache["mean"].shape
    m1 = np.empty(reduced_shape, dtype)
    m_sq = np.empty(reduced_shape, dtype)

    def run():
        sub, sq = cache["sub"], cache["sq"]
        if affine:
            np.multiply(grad_in, weight.data.reshape(shape), out=s1)
            g_norm = s1
            if w_slot is not None:
                np.multiply(grad_in, cache["norm"], out=s2)
                np.sum(s2, axis=axes_tuple, keepdims=True, out=m1)
                np.copyto(w_slot, m1.reshape(w_slot.shape))
            if b_slot is not None:
                np.sum(grad_in, axis=axes_tuple, keepdims=True, out=m1)
                np.copyto(b_slot, m1.reshape(b_slot.shape))
        else:
            g_norm = grad_in
        # four of the closure's full-size passes fold into small per-channel
        # ops without changing a single result bit: negation commutes exactly
        # with IEEE division and with every partial sum of the pairwise
        # reduction, scaling by 2.0 is exact, and dividing the per-channel
        # sums by ``count`` before broadcasting divides the same values
        np.divide(g_norm, sq, out=s2)                       # g_sub
        np.multiply(g_norm, sub, out=s1)
        np.power(sq, 2, out=m_sq)
        np.negative(m_sq, out=m_sq)
        np.divide(s1, m_sq, out=s1)
        np.sum(s1, axis=axes_tuple, keepdims=True, out=m1)  # g_sq
        np.multiply(m1, 0.5, out=m1)
        np.divide(m1, sq, out=m1)                           # g_var
        # engine accumulation order: variance, then centring, then mean term
        np.multiply(m1, 2.0, out=m1)
        np.multiply(np.broadcast_to(m1, x_shape), sub, out=s1)
        np.divide(s1, count, out=s1)
        if x_first:
            np.add(s1, s2, out=x_slot)
            np.sum(s2, axis=axes_tuple, keepdims=True, out=m1)
            np.negative(m1, out=m1)
            np.divide(m1, count, out=m1)
            np.add(x_slot, np.broadcast_to(m1, x_shape), out=x_slot)
        else:
            np.add(s1, s2, out=s1)
            np.sum(s2, axis=axes_tuple, keepdims=True, out=m1)
            np.negative(m1, out=m1)
            np.divide(m1, count, out=m1)
            np.add(s1, np.broadcast_to(m1, x_shape), out=s1)
            np.add(x_slot, s1, out=x_slot)

    return run


def _b_complex_linear_build(entry: TapeEntry, grad_in: np.ndarray,
                            targets) -> Optional[Callable[[], None]]:
    by_pos = _slots_by_position(targets)
    if by_pos is None:
        return None
    if any(position in by_pos and not by_pos[position][1]
           for position in (2, 3, 4, 5)):
        return None  # accumulated weight/bias gradients: keep the closure
    x_real, x_imag, weight_real, weight_imag = entry.parents[:4]
    in_features = entry.params["in_features"]
    out_features = entry.params["out_features"]
    dtype = grad_in.dtype
    rows = grad_in[0].size // out_features
    grad_r = grad_in[0].reshape(rows, out_features)
    grad_i = grad_in[1].reshape(rows, out_features)
    needs_input = 0 in by_pos or 1 in by_pos
    needs_weight = 2 in by_pos or 3 in by_pos
    grad_sum = np.empty((rows, out_features), dtype) if (needs_input or needs_weight) else None
    if needs_input:
        p1 = np.empty((rows, in_features), dtype)
        p2 = np.empty((rows, in_features), dtype)
        w_diff = np.empty((out_features, in_features), dtype)
        t_in = np.empty((rows, in_features), dtype)
    if needs_weight:
        q1 = np.empty((out_features, in_features), dtype)
        q2 = np.empty((out_features, in_features), dtype)
        x_diff = np.empty((rows, in_features), dtype)
        t_w = np.empty((out_features, in_features), dtype)

    def slot_view(position):
        if position not in by_pos:
            return None, True
        slot, first = by_pos[position]
        return slot.reshape(-1, slot.shape[-1]) if slot.ndim != 2 else slot, first

    xr_slot, xr_first = slot_view(0)
    xi_slot, xi_first = slot_view(1)
    wr_slot = by_pos[2][0] if 2 in by_pos else None
    wi_slot = by_pos[3][0] if 3 in by_pos else None
    br_slot = by_pos[4][0] if 4 in by_pos else None
    bi_slot = by_pos[5][0] if 5 in by_pos else None

    def write(slot, first, ufunc, left, right, scratch):
        if first:
            ufunc(left, right, out=slot)
        else:
            ufunc(left, right, out=scratch)
            np.add(slot, scratch, out=slot)

    def run():
        if grad_sum is not None:
            np.add(grad_r, grad_i, out=grad_sum)
        if needs_input:
            bwr, bwi = weight_real.data, weight_imag.data
            np.matmul(grad_r, bwr, out=p1)
            np.matmul(grad_i, bwi, out=p2)
            if xr_slot is not None:
                write(xr_slot, xr_first, np.add, p1, p2, t_in)
            if xi_slot is not None:
                np.subtract(bwr, bwi, out=w_diff)
                np.matmul(grad_sum, w_diff, out=t_in)
                np.subtract(t_in, p1, out=t_in)
                if xi_first:
                    np.add(t_in, p2, out=xi_slot)
                else:
                    np.add(t_in, p2, out=t_in)
                    np.add(xi_slot, t_in, out=xi_slot)
        if needs_weight:
            bxr = x_real.data.reshape(-1, in_features)
            bxi = x_imag.data.reshape(-1, in_features)
            np.matmul(grad_r.T, bxr, out=q1)
            np.matmul(grad_i.T, bxi, out=q2)
            if wr_slot is not None:
                np.add(q1, q2, out=wr_slot)
            if wi_slot is not None:
                np.subtract(bxr, bxi, out=x_diff)
                np.matmul(grad_sum.T, x_diff, out=t_w)
                np.subtract(t_w, q1, out=t_w)
                np.add(t_w, q2, out=wi_slot)
        if br_slot is not None:
            np.sum(grad_r, axis=0, out=br_slot)
        if bi_slot is not None:
            np.sum(grad_i, axis=0, out=bi_slot)

    return run


def _make_col2im_planes(input_shape, split_channels, kernel_size, stride,
                        padding, dtype):
    """Persistent-buffer col2im for plan replay, split at ``split_channels``.

    Returns ``run(columns) -> (top_plane, bottom_plane)`` where the planes are
    views of shape ``(batch, split, height, width)`` /
    ``(batch, channels - split, height, width)``.  Mirrors the strategy
    selection and the per-element accumulation order of
    :func:`F._col2im_fast` exactly, so the scattered gradients are
    bit-identical; the shifted-accumulation strategy additionally stores its
    accumulator channel-major ``(C, Hp, Wp, batch)``, which makes both sides
    of every shifted add near-contiguous (measured ~12x faster on the
    ResNet stage-1 geometry) without touching any element's add order.
    """
    batch, channels, height, width = input_shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    out_h, out_w = F._checked_output_size(input_shape, kernel_size, stride, padding)

    if (pad_h == 0 and pad_w == 0 and stride_h == kernel_h and stride_w == kernel_w
            and out_h * kernel_h == height and out_w * kernel_w == width):
        # exact tiling: the adjoint is a permutation, not a scatter
        image = np.empty(input_shape, dtype=dtype)
        tiles = image.reshape(batch, channels, out_h, kernel_h, out_w, kernel_w)
        planes = (image[:, :split_channels], image[:, split_channels:])

        def run(columns):
            windows = columns.reshape(channels, kernel_h, kernel_w,
                                      out_h, out_w, batch)
            tiles[...] = windows.transpose(5, 0, 3, 1, 4, 2)
            return planes

        return run

    block = batch * channels * out_h * out_w
    if block < F.COL2IM_BINCOUNT_BLOCK_LIMIT:
        # the bincount scatter allocates its own flat output; reuse as-is
        def run(columns):
            image = F._col2im_fast(columns, input_shape, kernel_size,
                                   stride, padding)
            return image[:, :split_channels], image[:, split_channels:]

        return run

    accumulator = np.empty((channels, height + 2 * pad_h, width + 2 * pad_w,
                            batch), dtype=dtype)
    interior = accumulator[:, pad_h:pad_h + height, pad_w:pad_w + width, :]
    planes = (interior[:split_channels].transpose(3, 0, 1, 2),
              interior[split_channels:].transpose(3, 0, 1, 2))

    def run(columns):
        accumulator.fill(0.0)
        windows = columns.reshape(channels, kernel_h, kernel_w,
                                  out_h, out_w, batch)
        for offset_h in range(kernel_h):
            stop_h = offset_h + stride_h * out_h
            for offset_w in range(kernel_w):
                accumulator[:, offset_h:stop_h:stride_h,
                            offset_w:offset_w + stride_w * out_w:stride_w, :] \
                    += windows[:, offset_h, offset_w]
        return planes

    return run


def _b_complex_conv2d_build(entry: TapeEntry, grad_in: np.ndarray,
                            targets) -> Optional[Callable[[], None]]:
    by_pos = _slots_by_position(targets)
    if by_pos is None:
        return None
    if any(position in by_pos and not by_pos[position][1]
           for position in (2, 3, 4, 5)):
        return None  # accumulated weight/bias gradients: keep the closure
    params = entry.params
    cache = params["cache"]
    patch = params["patch"]
    in_channels = params["in_channels"]
    out_channels = params["out_channels"]
    kernel, stride, padding = params["kernel"], params["stride"], params["padding"]
    stacked_shape = params["stacked_shape"]
    dtype = grad_in.dtype
    n_cols = grad_in[0].size // out_channels
    grad_source = grad_in.transpose(0, 2, 3, 4, 1)
    grad_matrix = np.empty((2 * out_channels, n_cols), dtype)
    grad_view = grad_matrix.reshape(grad_source.shape)
    grad_r = grad_matrix[:out_channels]
    grad_i = grad_matrix[out_channels:]
    needs_input = 0 in by_pos or 1 in by_pos
    needs_weight = 2 in by_pos or 3 in by_pos
    if needs_input:
        dcols = np.empty((2 * patch, n_cols), dtype)
        adjoint = F.col2im_kernel()
        if adjoint is F.col2im_reference:
            def col2im_fn(columns):
                image = adjoint(columns, stacked_shape, kernel, stride, padding)
                return image[:, :in_channels], image[:, in_channels:]
        else:
            col2im_fn = _make_col2im_planes(stacked_shape, in_channels,
                                            kernel, stride, padding, dtype)
    if needs_weight:
        dw_block = np.empty((2 * out_channels, 2 * patch), dtype)

    xr_slot, xr_first = by_pos.get(0, (None, True))
    xi_slot, xi_first = by_pos.get(1, (None, True))
    wr_slot = by_pos[2][0].reshape(out_channels, patch) if 2 in by_pos else None
    wi_slot = by_pos[3][0].reshape(out_channels, patch) if 3 in by_pos else None
    br_slot = by_pos[4][0] if 4 in by_pos else None
    bi_slot = by_pos[5][0] if 5 in by_pos else None

    def run():
        np.copyto(grad_view, grad_source)
        if needs_weight:
            np.matmul(grad_matrix, cache["columns"].T, out=dw_block)
            if wr_slot is not None:
                np.add(dw_block[:out_channels, :patch],
                       dw_block[out_channels:, patch:], out=wr_slot)
            if wi_slot is not None:
                np.subtract(dw_block[out_channels:, :patch],
                            dw_block[:out_channels, patch:], out=wi_slot)
        if needs_input:
            np.matmul(cache["w_block"].T, grad_matrix, out=dcols)
            dx_real, dx_imag = col2im_fn(dcols)
            if xr_slot is not None:
                if xr_first:
                    np.copyto(xr_slot, dx_real)
                else:
                    np.add(xr_slot, dx_real, out=xr_slot)
            if xi_slot is not None:
                if xi_first:
                    np.copyto(xi_slot, dx_imag)
                else:
                    np.add(xi_slot, dx_imag, out=xi_slot)
        if br_slot is not None:
            np.sum(grad_r, axis=1, out=br_slot)
        if bi_slot is not None:
            np.sum(grad_i, axis=1, out=bi_slot)

    return run


_BACKWARD_BUILDERS: Dict[str, Callable] = {
    "batch_norm": _b_batch_norm_build,
    "complex_linear": _b_complex_linear_build,
    "complex_conv2d": _b_complex_conv2d_build,
}


# --------------------------------------------------------------------------- #
# the compiled plan
# --------------------------------------------------------------------------- #
class TrainStepPlan:
    """A lowered training step: refresh inputs, replay, update, in place."""

    def __init__(self, input_buffers, late_buffers, input_meta, param_bindings,
                 unused_params, forward, loss_tail, backward, optimizer, grad_clip,
                 update_indices, loss_node, logits_node, stats):
        self._input_buffers = input_buffers
        self._late_buffers = late_buffers
        self.input_meta = input_meta
        self._param_bindings = param_bindings
        self._unused_params = unused_params
        self._forward = forward
        self._loss_tail = loss_tail
        self._backward = backward
        self._optimizer = optimizer
        self._grad_clip = grad_clip
        self._update_indices = update_indices
        self._loss = loss_node
        self._logits = logits_node
        self.stats = stats

    def execute(self, input_values: Dict[str, np.ndarray], update: bool = True):
        """Run one planned step; returns ``(loss, predicted labels)``.

        ``input_values`` maps the traced input keys (``input`` or
        ``input_real``/``input_imag``, plus ``cross_entropy_targets`` and any
        late input) to the new batch's arrays.  With ``update=False`` the
        optimizer tail is skipped and the parameter gradients are left bound
        on ``p.grad``.
        """
        self.forward(input_values)
        return self.finish(input_values, update)

    def forward(self, input_values: Dict[str, np.ndarray]) -> np.ndarray:
        """Refresh the early inputs and replay the forward pass to the logits.

        Returns the logits buffer itself: the next :meth:`forward` overwrites
        it, :meth:`finish` does not.
        """
        for key, buffer in self._input_buffers:
            np.copyto(buffer, input_values[key])
        for instruction in self._forward:
            instruction()
        return self._logits.data

    def finish(self, late_values: Dict[str, np.ndarray], update: bool = True):
        """Refresh the late inputs, then run the loss tail, backward and update.

        Completes the step :meth:`forward` began; returns ``(loss, predicted
        labels)`` like :meth:`execute`.
        """
        for key, buffer in self._late_buffers:
            np.copyto(buffer, late_values[key])
        for instruction in self._loss_tail:
            instruction()
        for parameter, buffer in self._param_bindings:
            parameter.grad = buffer
        for parameter in self._unused_params:
            parameter.grad = None
        for instruction in self._backward:
            instruction()
        if update:
            optimizer = self._optimizer
            if self._grad_clip:
                optimizer.clip_grad_norm(self._grad_clip)
            optimizer.begin_step()
            for index in self._update_indices:
                optimizer.step_parameter(index)
        return float(self._loss.data), self._logits.data.argmax(axis=1)


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #
def compile_train_step(trace: TapeTrace, loss: Tensor, logits: Tensor,
                       optimizer, grad_clip: Optional[float] = None) -> TrainStepPlan:
    """Lower one traced training step to a :class:`TrainStepPlan`.

    Raises :class:`PlanUnsupported` when the trace cannot be replayed (a
    volatile op such as dropout, an untagged custom node, a buffer-aliasing
    pattern the emitters cannot reproduce, or a late input read before the
    logits).
    """
    if trace.volatile:
        raise PlanUnsupported("volatile trace: " + "; ".join(sorted(set(trace.volatile))))

    entries: Dict[int, TapeEntry] = {id(e.tensor): e for e in trace.entries}
    params_index = {id(p): i for i, p in enumerate(optimizer.parameters)}
    input_ids = {id(tensor): key for key, (tensor, _meta) in trace.inputs.items()}
    late_ids = {id(tensor) for tensor, meta in trace.inputs.values() if meta.get("late")}

    # ------------------------------------------------------------------ #
    # reachability: every traced node whose data feeds the loss
    # ------------------------------------------------------------------ #
    needed: Dict[int, TapeEntry] = {}
    stack = [loss]
    seen = {id(loss)}
    while stack:
        tensor = stack.pop()
        entry = entries.get(id(tensor))
        if entry is None:
            continue  # leaf: parameter, marked input, or step-invariant constant
        needed[id(tensor)] = entry
        for parent in entry.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)

    if id(loss) not in needed or id(logits) not in needed:
        raise PlanUnsupported("loss or logits tensor is not part of the traced graph")

    # dynamic: recomputation is needed only for nodes depending on per-step
    # data (marked inputs) or on parameters mutated by the update tail;
    # trace entries are in creation order, which is topological, so one
    # forward sweep settles every node
    dynamic_ids = set(input_ids) | set(params_index)
    for entry in trace.entries:
        if any(id(parent) in dynamic_ids for parent in entry.parents):
            dynamic_ids.add(id(entry.tensor))

    # ------------------------------------------------------------------ #
    # backward analysis along the exact eager schedule
    # ------------------------------------------------------------------ #
    topo = loss._topological_order()
    for node in topo:
        if not node._parents:
            continue
        entry = entries.get(id(node))
        if entry is None:
            raise PlanUnsupported("graph node created outside the traced step")
        if entry.op is None:
            raise PlanUnsupported("graph contains an op without a replay emitter")
        if entry.op not in _FORWARD_EMITTERS:
            raise PlanUnsupported(f"no replay emitter for op {entry.op!r}")

    ctx = _CompileContext()
    pool = _BufferPool()
    grad_slot: Dict[int, np.ndarray] = {}
    contributed = {id(loss)}
    param_buffers: Dict[int, np.ndarray] = {}
    backward_instructions: List[Callable[[], None]] = []
    specialized_backward = 0

    # which pick indices of each packed tensor will receive gradients: the
    # missing halves must be zeroed so the packed closure sees them silent
    picks_by_packed: Dict[int, set] = {}
    topo_ids = {id(node) for node in topo}
    for node in topo:
        entry = entries.get(id(node))
        if entry is not None and entry.op == "pick":
            packed = entry.parents[0]
            picks_by_packed.setdefault(id(packed), set()).add(entry.params["index"])

    seed = np.ones_like(loss.data)
    grad_slot[id(loss)] = seed

    def acquire_slot(parent: Tensor, dtype) -> np.ndarray:
        pid = id(parent)
        if pid in params_index:
            buffer = np.empty(parent.data.shape, parent.data.dtype)
            param_buffers[pid] = buffer
            return buffer
        return pool.acquire(parent.data.shape, dtype)

    for node in reversed(topo):
        nid = id(node)
        if nid not in contributed:
            continue
        grad_in = grad_slot[nid]
        if node._backward is None or not node._parents:
            continue  # leaf (parameter): its slot is the persistent grad buffer
        entry = entries[nid]
        closure = entry.backward

        # one compile-time dry run discovers the closure's None pattern and
        # contribution shapes (closures are pure functions of grad and of the
        # forward state, so structure is shape-stable)
        dry = closure(np.zeros_like(node.data))

        emitted = False
        if entry.op == "pick":
            packed = entry.parents[0]
            pid = id(packed)
            first = pid not in contributed
            if first:
                contributed.add(pid)
                grad_slot[pid] = acquire_slot(packed, node.data.dtype)
            index = entry.params["index"]
            zero_indices = tuple(
                i for i in range(packed.data.shape[0])
                if i not in picks_by_packed[pid]
            ) if first else ()
            backward_instructions.append(
                _b_pick(grad_in, grad_slot[pid], index, zero_indices))
            emitted = True
        elif entry.op == "getitem" and _is_basic_index(entry.params["index"]):
            parent = entry.parents[0]
            pid = id(parent)
            first = pid not in contributed
            if first:
                contributed.add(pid)
                grad_slot[pid] = acquire_slot(parent, node.data.dtype)
            backward_instructions.append(
                _b_getitem(grad_in, grad_slot[pid], entry.params["index"], first))
            emitted = True
        elif entry.op == "relu":
            parent = entry.parents[0]
            pid = id(parent)
            first = pid not in contributed
            if first:
                contributed.add(pid)
                grad_slot[pid] = acquire_slot(parent, node.data.dtype)
            mask = ctx.relu_masks.setdefault(
                nid, np.empty(parent.data.shape, dtype=bool))
            backward_instructions.append(
                _b_relu(grad_in, mask, grad_slot[pid], first))
            emitted = True

        if not emitted:
            targets = []
            for position, (parent, contribution) in enumerate(zip(entry.parents, dry)):
                if contribution is None or not parent.requires_grad:
                    continue
                if id(parent) not in topo_ids:
                    continue
                pid = id(parent)
                first = pid not in contributed
                if first:
                    contributed.add(pid)
                    grad_slot[pid] = acquire_slot(parent, contribution.dtype)
                needs_reduce = contribution.shape != parent.data.shape
                targets.append((position, grad_slot[pid], first, needs_reduce,
                                parent.data.shape))
            builder = _BACKWARD_BUILDERS.get(entry.op)
            instruction = builder(entry, grad_in, targets) if builder else None
            if instruction is None:
                instruction = _b_generic(closure, grad_in, tuple(targets))
            else:
                specialized_backward += 1
            backward_instructions.append(instruction)

        if nid not in params_index and grad_in is not seed:
            pool.release(grad_in)

    # ------------------------------------------------------------------ #
    # forward instructions in creation order (a valid topological order)
    # ------------------------------------------------------------------ #
    forward_instructions: List[Callable[[], None]] = []
    forward_node_ids: List[int] = []
    static_views = 0
    view_origin: Dict[int, int] = {}  # static-view node -> producing buffer's node
    for entry in trace.entries:
        nid = id(entry.tensor)
        if nid not in needed or nid not in dynamic_ids:
            continue
        op = entry.op
        if op is None or op not in _FORWARD_EMITTERS:
            raise PlanUnsupported(f"no replay emitter for op {op!r}")
        if op in _VIEW_OPS and np.may_share_memory(entry.tensor.data,
                                                   entry.parents[0].data):
            # compile-time view of a stable buffer: zero per-step cost
            static_views += 1
            parent_id = id(entry.parents[0])
            view_origin[nid] = view_origin.get(parent_id, parent_id)
            continue
        factory = _FORWARD_EMITTERS[op]
        if factory is None:
            raise PlanUnsupported(f"op {op!r} produced a non-view output")
        if op not in _VIEW_OPS:
            for parent in entry.parents:
                if np.may_share_memory(entry.tensor.data, parent.data):
                    raise PlanUnsupported(
                        f"op {op!r} output aliases its input; in-place replay "
                        "would corrupt the operand")
        forward_instructions.append(factory(entry, ctx))
        forward_node_ids.append(nid)

    # fuse producer -> activation chains into single instruction objects: an
    # activation only reads its producer's buffer and every instruction writes
    # only its own, so a relu can always be hoisted next to its producer (even
    # across the sibling-plane instructions of the complex pair layout)
    fused = 0
    fused_forward: List[Callable[[], None]] = []
    position_of: Dict[int, int] = {}
    for nid, instruction in zip(forward_node_ids, forward_instructions):
        entry = entries[nid]
        if entry.op == "relu":
            parent_id = id(entry.parents[0])
            source = view_origin.get(parent_id, parent_id)
            at = position_of.get(source)
            if at is not None:
                fused_forward[at] = _FusedForward(fused_forward[at], instruction)
                position_of[nid] = at
                fused += 1
                continue
        position_of[nid] = len(fused_forward)
        fused_forward.append(instruction)

    # the cut: everything up to the instruction writing the logits buffer is
    # the model's forward pass, the rest the loss tail; no instruction before
    # it may read a late input, which arrives only after the forward pass
    logits_source = view_origin.get(id(logits), id(logits))
    if logits_source not in position_of:
        raise PlanUnsupported("no instruction computes the logits")
    cut = position_of[logits_source] + 1
    for nid in forward_node_ids:
        if position_of[nid] >= cut:
            continue
        for parent in entries[nid].parents:
            origin = view_origin.get(id(parent), id(parent))
            if origin in late_ids:
                raise PlanUnsupported(f"op {entries[nid].op!r} before the logits "
                                      f"reads late input {input_ids[origin]!r}")

    # ------------------------------------------------------------------ #
    # inputs and the optimizer tail
    # ------------------------------------------------------------------ #
    input_buffers = []
    late_buffers = []
    input_meta = {}
    for key, (tensor, meta) in trace.inputs.items():
        if id(tensor) in entries:
            raise PlanUnsupported(f"marked input {key!r} is not a leaf")
        if id(tensor) not in seen:
            continue  # traced but unused by this model
        (late_buffers if id(tensor) in late_ids else input_buffers).append(
            (key, tensor.data))
        input_meta[key] = meta

    param_bindings = []
    update_indices = []
    unused_params = []
    for parameter in optimizer.parameters:
        buffer = param_buffers.get(id(parameter))
        if buffer is None:
            unused_params.append(parameter)
        else:
            param_bindings.append((parameter, buffer))
            update_indices.append(params_index[id(parameter)])

    if not param_bindings:
        raise PlanUnsupported("no parameter receives a gradient in the traced step")

    stats = {
        "forward_instructions": len(fused_forward),
        "loss_tail_instructions": len(fused_forward) - cut,
        "backward_instructions": len(backward_instructions),
        "fused_activations": fused,
        "specialized_backward": specialized_backward,
        "static_views": static_views,
        "pooled_grad_buffers": pool.allocated,
        "parameter_gradients": len(param_bindings),
        "traced_nodes": len(trace.entries),
    }
    return TrainStepPlan(
        input_buffers=tuple(input_buffers),
        late_buffers=tuple(late_buffers),
        input_meta=input_meta,
        param_bindings=tuple(param_bindings),
        unused_params=tuple(unused_params),
        forward=tuple(fused_forward[:cut]),
        loss_tail=tuple(fused_forward[cut:]),
        backward=tuple(backward_instructions),
        optimizer=optimizer,
        grad_clip=grad_clip,
        update_indices=tuple(update_indices),
        loss_node=loss,
        logits_node=logits,
        stats=stats,
    )
