"""Training-step plan compiler: tape-to-plan lowering for the whole step.

:mod:`repro.core.runtime` lowers an *inference* DAG to a flat slot-reuse
instruction list and wins 2.5-4x over graph-walking dispatch.  This module
extends the idea to the full training step.  The autograd tape of one eager
``Trainer.train_step`` is recorded once per batch shape via
:func:`repro.tensor.tensor.trace_tape`, then lowered to three flat instruction
lists executed against preallocated buffers:

* **forward**: one instruction per traced node recomputes ``node.data`` *in
  place* into the very array the trace produced -- the traced tensors' own
  arrays are the activation buffers, so every backward closure (which reads
  ``parent.data``/``weight.data`` and the op's cache dict at call time) replays
  against fresh values without being rebuilt.  Every op records the forward
  kernel it ran on the tape (``params["forward"]``, see
  :mod:`repro.tensor.ops`); the instruction calls that very kernel with
  ``out=`` the node's buffer, so the tape and the plan run one
  implementation of each op, and an op that records none cannot be
  compiled.  View nodes (reshape, transpose, slicing, the complex pair
  unpacking) whose data shares memory with their parent cost *zero*
  instructions: the compile-time view stays valid because buffers are never
  rebound.  A relu also refreshes the activation mask its backward
  instruction shares, and fuses into the instruction producing its input.
  Only complex convolution keeps a plan-specific emitter (see the backward
  bullet).  The compiler cuts the list after the logits node:
  :meth:`TrainStepPlan.forward` runs the model part,
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
  zeros-plus-scatter.  Complex linear's backward kernel, shared with the
  tape, writes into the slots itself.  Batch-norm backward and complex
  convolution keep plan-specific builders: the first folds four full-size
  passes into per-channel ones, the second forms the input gradient one
  stacked input channel at a time (product, then col2im), so the full
  ``W.T @ G`` column matrix never exists.  Both are bit-identical to the
  tape but arranged differently, and giving the tape those layouts would
  speed up the eager baseline that the planned-step speedup floor is
  measured against.
* **scratch**: arrays that live inside one instruction only (a conv's
  zero-bordered input and product matrix, its input-gradient tile and col2im
  accumulator, batch-norm backward's temporaries) come from the plan's one
  :class:`_Scratch` arena, one array per role sized to the largest request,
  so they cost the largest layer's worth of memory instead of every layer's.
  Arrays that live from the forward pass to the backward pass (the im2col
  columns, the weight block, batch-norm's centred and normalised inputs,
  relu masks, gradient slots) stay per node.
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

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import reference
from repro.tensor import functional as F
from repro.tensor.tensor import TapeEntry, TapeTrace, Tensor, _unbroadcast


class PlanUnsupported(RuntimeError):
    """The traced step cannot be lowered; the caller must stay on the eager tape."""


# --------------------------------------------------------------------------- #
# small helpers
# --------------------------------------------------------------------------- #
#: ops whose output may share memory with their parent (a static view);
#: transpose and pick always do, so they record no forward kernel
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


class _Scratch:
    """A plan's step-local scratch arena: one array per role.

    An array that lives inside one instruction never outlives it, and the
    instructions run one at a time, so every instruction asking for a role
    shares one array, sized to the largest request -- the way
    ``ExecutionPlan.buffer`` serves the inference convs.  Roles used by the
    same instruction are distinct, so they never alias.
    ``compile_train_step`` reserves every request before any emitter takes
    its view.
    """

    def __init__(self):
        self._reserved: Dict[str, int] = {}
        self._storage: Dict[str, np.ndarray] = {}

    def reserve(self, role: str, shape: Tuple[int, ...], dtype) -> None:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        self._reserved[role] = max(self._reserved.get(role, 0), size)

    def view(self, role: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A ``shape`` view of the role's array; the contents are undefined."""
        storage = self._storage.get(role)
        if storage is None:
            storage = self._storage[role] = np.empty(self._reserved[role], np.uint8)
        size = math.prod(shape) * np.dtype(dtype).itemsize
        return storage[:size].view(dtype).reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(storage.nbytes for storage in self._storage.values())


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
# trace produced.  Each op records the forward kernel it ran
# (``params["forward"]``, see :mod:`repro.tensor.ops`), and ``_f_replay``
# reruns that very kernel with ``out=`` the node's buffer: the plan performs
# the eager op's float operations because it calls the same code.  Kernels
# read parent data through the parent Tensor at call time and refresh the
# arrays their backward closure shares, keeping the reused closures coherent.
# Only two ops add plan-side work: relu also refreshes the activation mask
# its backward instruction shares, and complex convolution keeps an emitter
# of its own (see the module docstring).
# --------------------------------------------------------------------------- #
def _f_replay(entry: TapeEntry, ctx) -> Callable[[], None]:
    """Rerun the op's recorded forward kernel into the node's buffer."""
    return partial(entry.params["forward"], out=entry.tensor.data)


def _relu_mask(inputs: Tensor, mask: np.ndarray) -> None:
    np.greater(inputs.data, 0, out=mask)


def _f_relu(entry: TapeEntry, ctx) -> Callable[[], None]:
    replay = _f_replay(entry, ctx)
    mask = ctx.relu_masks.get(id(entry.tensor))
    if mask is None:
        return replay
    # the backward instruction reuses this mask: one forward/backward
    # instruction pair sharing the activation test
    return _FusedForward(replay, partial(_relu_mask, entry.parents[0], mask))


def _conv_scratch(params) -> Dict[str, Tuple[int, ...]]:
    """Arena requests (role -> shape) of one complex conv's instructions."""
    batch, stacked, height, width = params["stacked_shape"]
    kernel_h, kernel_w = params["kernel"]
    pad_h, pad_w = params["padding"]
    out_h, out_w = params["out_hw"]
    n_cols = out_h * out_w * batch
    # the input gradient is formed one stacked input channel at a time,
    # except for 1x1 kernels: numpy hands a one-row product to gemv, whose
    # sums round differently from the rows of the eager gemm, so those take
    # the channels in pairs (the stacked count 2 * in_channels is even)
    group = 1 if kernel_h * kernel_w > 1 else 2
    plane = (height + 2 * pad_h, width + 2 * pad_w, batch)
    return {
        "image": (stacked,) + plane,                # forward: zero-bordered input
        "matrix": (2 * params["out_channels"], n_cols),  # product / incoming grad
        "weight_grad": (2 * params["out_channels"], 2 * params["patch"]),
        "tile": (group * kernel_h * kernel_w, n_cols),
        "accumulator": (group,) + plane,
    }


def _border_slabs(padded: np.ndarray, pad_h: int, pad_w: int) -> List[np.ndarray]:
    """The zero border of a channel-major ``(C, Hp, Wp, batch)`` padded image."""
    rows, cols = padded.shape[1], padded.shape[2]
    slabs = []
    if pad_h:
        slabs += [padded[:, :pad_h], padded[:, rows - pad_h:]]
    if pad_w:
        slabs += [padded[:, pad_h:rows - pad_h, :pad_w],
                  padded[:, pad_h:rows - pad_h, cols - pad_w:]]
    return slabs


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
    shapes = _conv_scratch(entry.params)

    # the input planes land directly in the interior of the arena's padded
    # image (replacing the per-step concatenate + np.pad of the eager op) and
    # the patch gather copies into the node's column matrix, extracting
    # exactly the elements `im2col` reads.  The image is channel-major
    # (C, Hp, Wp, batch) so the window gather's innermost axis is contiguous
    # on both sides; other instructions share its memory, so the border is
    # zeroed on every run.
    padded = ctx.scratch.view("image", shapes["image"], dtype)
    borders = _border_slabs(padded, pad_h, pad_w)
    interior_real = padded[:in_channels, pad_h:pad_h + height, pad_w:pad_w + width, :]
    interior_imag = padded[in_channels:, pad_h:pad_h + height, pad_w:pad_w + width, :]
    n_cols = out_h * out_w * batch
    columns = np.empty((2 * patch, n_cols), dtype)
    cols_view = columns.reshape(2 * in_channels, kernel_h, kernel_w,
                                out_h, out_w, batch)
    cache["columns"] = columns
    buf_real, buf_imag = buf[0], buf[1]
    bias_shape = (1, out_channels, 1, 1)
    out_matrix = ctx.scratch.view("matrix", shapes["matrix"], dtype)
    # scatter the (2*OC, out_h*out_w*batch) product into the batch-first
    # node buffer one (plane, channel) at a time: 2-D transposed copies run
    # ~1.6x faster than one 5-D copy on the ResNet stage-1 geometry
    out_view = out_matrix.reshape(matrix_shape).transpose(0, 4, 1, 2, 3)
    plane_pairs = [(out_view[plane, :, channel], buf[plane, :, channel])
                   for plane in range(2) for channel in range(out_channels)]

    def run():
        for border in borders:
            border.fill(0.0)
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
        for plane_view, plane_buf in plane_pairs:
            np.copyto(plane_buf, plane_view)
        if has_bias:
            np.add(buf_real, bias_real.data.reshape(bias_shape), out=buf_real)
            np.add(buf_imag, bias_imag.data.reshape(bias_shape), out=buf_imag)

    return run


#: ops whose instruction is built plan-side; every other op replays its kernel
_PLAN_EMITTERS: Dict[str, Callable] = {
    "relu": _f_relu,
    "complex_conv2d": _f_complex_conv2d,
}


def _forward_emitter(entry: TapeEntry) -> Optional[Callable]:
    """The factory of the node's forward instruction; None if it has none."""
    if entry.op in _PLAN_EMITTERS:
        return _PLAN_EMITTERS[entry.op]
    if "forward" in (entry.params or {}):
        return _f_replay
    return None


class _CompileContext:
    def __init__(self):
        self.relu_masks: Dict[int, np.ndarray] = {}
        self.scratch = _Scratch()


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
# arrays) and then copies into the persistent slots.  The builders below
# write gradients directly into the slots instead.  Complex linear's closure
# is itself the kernel: ``_b_into_slots`` passes it the slots (``out=``) and
# persistent scratch.  Batch norm and complex convolution keep plan-side
# copies that replay the closure's float operations ufunc-by-ufunc -- same
# operations, same order, so bit-identical -- in a layout of their own
# (per-channel folds; a per-input-channel product and col2im); see the module
# docstring for why the tape does not share it.  Their temporaries come from
# the plan's scratch arena.  A builder may return ``None`` (a pattern it does
# not cover), in which case the caller falls back to the generic closure
# instruction.
# --------------------------------------------------------------------------- #
def _slots_by_position(targets):
    """Map parent position -> (slot, first); None when any target broadcasts."""
    by_pos = {}
    for position, slot, first, needs_reduce, _shape in targets:
        if needs_reduce:
            return None
        by_pos[position] = (slot, first)
    return by_pos


def _batch_norm_scratch(entry: TapeEntry) -> Dict[str, Tuple[int, ...]]:
    """Arena requests (role -> shape) of one batch-norm backward."""
    full, reduced = entry.parents[0].data.shape, entry.params["cache"]["mean"].shape
    return {"bn_s1": full, "bn_s2": full, "bn_m1": reduced, "bn_m_sq": reduced}


def _b_batch_norm_build(entry: TapeEntry, grad_in: np.ndarray,
                        targets, ctx) -> Optional[Callable[[], None]]:
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
    s1, s2, m1, m_sq = (ctx.scratch.view(role, shape, dtype)
                        for role, shape in _batch_norm_scratch(entry).items())

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


def _b_into_slots(entry: TapeEntry, grad_in: np.ndarray,
                  targets, ctx) -> Optional[Callable[[], None]]:
    """Replay a backward kernel that writes into given arrays (``out=``).

    A first write goes straight into the gradient slot; an accumulated one
    goes into a persistent array that is then added into the slot, the sum
    the eager engine forms.
    """
    by_pos = _slots_by_position(targets)
    if by_pos is None:
        return None
    closure = entry.backward
    out = [None] * len(entry.parents)
    accumulated = []
    for position, (slot, first) in by_pos.items():
        out[position] = slot if first else np.empty_like(slot)
        if not first:
            accumulated.append((slot, out[position]))
    work: dict = {}

    def run():
        closure(grad_in, out, work)
        for slot, contribution in accumulated:
            np.add(slot, contribution, out=slot)

    return run


def _conv_input_gradient(w_block: np.ndarray, grad_matrix: np.ndarray,
                         tile: np.ndarray, accumulator: np.ndarray,
                         input_shape, kernel_size, stride, padding,
                         destinations) -> Callable[[], None]:
    """``col2im(w_block.T @ grad_matrix)`` one stacked input channel at a time.

    ``destinations[c]`` is ``(plane, first)`` for stacked input channel ``c``:
    a ``(batch, height, width)`` view that receives (``first``) or
    accumulates the channel's gradient, or ``None`` when no parent needs it.
    Per group of ``accumulator.shape[0]`` channels (one, or a pair for 1x1
    kernels, see :func:`_conv_scratch`), its ``kh * kw`` rows per channel of
    ``w_block.T`` times the incoming gradient land in ``tile``, and the
    offset-ordered col2im scatters them into the channel-major
    ``(group, Hp, Wp, batch)`` ``accumulator`` while the tile is still in
    cache; the full ``(channels * kh * kw, columns)`` product is never
    formed.  ``tile`` and ``accumulator`` are scratch: their contents on
    entry do not matter.

    Bit-identical to the eager adjoint: a row block of a gemm product equals
    those rows of the whole product, and each pixel sums its terms in
    kernel-offset order, the order every eager col2im strategy uses.  The
    first offset stores ``window + 0.0`` instead of adding into a zeroed
    accumulator (the same IEEE sum, signed zeros included), so only the
    pixels it does not cover are zeroed: two thin border slabs at unit
    stride, the whole accumulator otherwise.
    """
    batch, channels, height, width = input_shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    out_h, out_w = F._checked_output_size(input_shape, kernel_size, stride, padding)
    taps = kernel_h * kernel_w
    group = accumulator.shape[0]
    windows = tile.reshape(group, kernel_h, kernel_w, out_h, out_w, batch)
    first_target = accumulator[:, :stride_h * out_h:stride_h,
                               :stride_w * out_w:stride_w]
    first_window = windows[:, 0, 0]
    if stride_h == stride_w == 1:
        uncovered = (accumulator[:, out_h:], accumulator[:, :out_h, out_w:])
    else:
        uncovered = (accumulator,)
    shifted = [(accumulator[:, offset_h:offset_h + stride_h * out_h:stride_h,
                            offset_w:offset_w + stride_w * out_w:stride_w],
                windows[:, offset_h, offset_w])
               for offset_h in range(kernel_h) for offset_w in range(kernel_w)
               if offset_h or offset_w]
    interior = accumulator[:, pad_h:pad_h + height,
                           pad_w:pad_w + width].transpose(0, 3, 1, 2)
    groups = []
    for start in range(0, channels, group):
        stores = [(interior[k],) + destinations[start + k] for k in range(group)
                  if destinations[start + k] is not None]
        if stores:
            groups.append((w_block[:, start * taps:(start + group) * taps].T, stores))

    def run():
        for weights, stores in groups:
            np.matmul(weights, grad_matrix, out=tile)
            for region in uncovered:
                region.fill(0.0)
            np.add(first_window, 0.0, out=first_target)
            for target, window in shifted:
                target += window
            # one 3-D transposed copy per channel into the batch-first slot
            for plane, slot, first_write in stores:
                if first_write:
                    np.copyto(slot, plane)
                else:
                    np.add(slot, plane, out=slot)

    return run


def _b_complex_conv2d_build(entry: TapeEntry, grad_in: np.ndarray,
                            targets, ctx) -> Optional[Callable[[], None]]:
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
    dtype = grad_in.dtype
    shapes = _conv_scratch(params)
    grad_source = grad_in.transpose(0, 2, 3, 4, 1)
    grad_matrix = ctx.scratch.view("matrix", shapes["matrix"], dtype)
    grad_view = grad_matrix.reshape(grad_source.shape)
    grad_r = grad_matrix[:out_channels]
    grad_i = grad_matrix[out_channels:]
    needs_input = 0 in by_pos or 1 in by_pos
    needs_weight = 2 in by_pos or 3 in by_pos
    if needs_input:
        destinations = []
        for position in (0, 1):
            slot, first = by_pos.get(position, (None, True))
            destinations += [None if slot is None else (slot[:, channel], first)
                             for channel in range(in_channels)]
        input_gradient = _conv_input_gradient(
            cache["w_block"], grad_matrix,
            ctx.scratch.view("tile", shapes["tile"], dtype),
            ctx.scratch.view("accumulator", shapes["accumulator"], dtype),
            params["stacked_shape"], params["kernel"], params["stride"],
            params["padding"], destinations)
    if needs_weight:
        dw_block = ctx.scratch.view("weight_grad", shapes["weight_grad"], dtype)

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
            input_gradient()
        if br_slot is not None:
            np.sum(grad_r, axis=1, out=br_slot)
        if bi_slot is not None:
            np.sum(grad_i, axis=1, out=bi_slot)

    return run


_BACKWARD_BUILDERS: Dict[str, Callable] = {
    "batch_norm": _b_batch_norm_build,
    "complex_linear": _b_into_slots,
    "complex_conv2d": _b_complex_conv2d_build,
}


def _conv_requests(entry: TapeEntry) -> Dict[str, Tuple[int, ...]]:
    shapes = _conv_scratch(entry.params)
    if not any(parent.requires_grad for parent in entry.parents[:2]):
        del shapes["tile"], shapes["accumulator"]  # no input gradient to form
    return shapes


#: ops whose instructions take scratch arrays: op -> (entry -> role -> shape)
_SCRATCH_REQUESTS: Dict[str, Callable] = {
    "batch_norm": _batch_norm_scratch,
    "complex_conv2d": _conv_requests,
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
    volatile op such as dropout, a node that records no forward kernel, a
    buffer-aliasing pattern the emitters cannot reproduce, or a late input
    read before the logits), and under ``REPRO_FORCE_REFERENCE``: the plan
    has no reference kernels, and the eager tape is its oracle.
    """
    if reference.enabled():
        raise PlanUnsupported("REPRO_FORCE_REFERENCE runs every step on the eager tape")
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
        if entry.op not in _VIEW_OPS and _forward_emitter(entry) is None:
            raise PlanUnsupported(f"op {entry.op!r} records no forward kernel")

    ctx = _CompileContext()
    for entry in needed.values():
        requests = _SCRATCH_REQUESTS.get(entry.op)
        if requests is not None:
            for role, shape in requests(entry).items():
                ctx.scratch.reserve(role, shape, entry.tensor.data.dtype)
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
            instruction = builder(entry, grad_in, targets, ctx) if builder else None
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
        if op in _VIEW_OPS and np.may_share_memory(entry.tensor.data,
                                                   entry.parents[0].data):
            # compile-time view of a stable buffer: zero per-step cost
            static_views += 1
            parent_id = id(entry.parents[0])
            view_origin[nid] = view_origin.get(parent_id, parent_id)
            continue
        factory = _forward_emitter(entry)
        if factory is None:
            raise PlanUnsupported(f"op {op!r} records no forward kernel")
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
        "scratch_bytes": ctx.scratch.nbytes,
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
