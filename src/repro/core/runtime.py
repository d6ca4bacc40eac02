"""Plan-based executor for compiled photonic programs.

:mod:`repro.core.graph_ir` defines *what* a compiled program computes -- a
DAG of photonic stages and electronic ops.  This module decides *how* it
executes: :func:`compile_plan` lowers a :class:`~repro.core.graph_ir.GraphProgram`
once into an :class:`ExecutionPlan`, a flat topologically-ordered instruction
list, so the per-request hot path does none of the interpretation work the
node-walk repeats on every call.  Every plan applies all four:

* **Slot-keyed plan storage.**  Value lifetimes are precomputed from the
  graph's last-use table and mapped onto a few reusable slots by a linear
  scan.  The plan owns one array per slot, reused by every value the slot
  holds, so the working set is the few live values rather than the sum of
  all outputs.  An instruction takes its output slot before its inputs'
  slots are released, so it never writes over a value it reads, and a slot
  read by a ``FlattenStage`` (whose reshape can be a view) stays reserved
  while the view is alive.  The program output, and any value that reaches
  it through such views, never lives in plan storage: the returned array
  is always safe to keep, and the caller's input is only ever read.
* **Eager effective matrices.**  Every unbatched mesh stage
  (:class:`~repro.core.lowering.LinearStage` or
  :class:`~repro.core.lowering.Conv2dStage`), whatever its width, is folded
  into a *single* effective complex matrix ``scale * U @ diag(S) @ V`` at
  plan time, read from the stage's ``matrix`` (its ``bias`` joins the
  epilogue), so the stage becomes one matmul instead of two mesh
  simulations with an intermediate.  Only trials-batched noise ensembles
  stay unfused: they lower to a :class:`CallInstruction` of the stage's own
  ``forward``, which runs both meshes on the numpy column program.  So does
  every op the plan does not know, such as one a registered lowering rule
  emits: ``forward`` is all the plan needs of it.
* **Folded electronic epilogues.**  A fused stage absorbs the batch norm
  after it and the CReLU after that (or a CReLU right after it), and a
  two-input skip add absorbs the CReLU after it, each only when it is the
  sole consumer of a producer that is not the program output.  This is
  the only place CReLU folding happens: the lowered graph keeps every CReLU
  as its own node.  Bias plus split affine run as one interleaved
  ``*= scale; += shift`` on the output's float64 view, and CReLU as one
  ``np.maximum`` on that view.  A ResNet conv, batch norm and CReLU are one
  instruction.  An affine or CReLU that is not absorbed runs as a
  :class:`CallInstruction` of its own ``forward``.
* **Channels-last patch gather through hot scratch.**  A fused conv copies
  its input once, channels last, into a plan-owned scratch with a zero
  border.  It then makes one strided copy per kernel row, each a contiguous
  run of ``kw * in_channels`` values per output pixel, into a plan-owned
  patch scratch; the weight rows are permuted to ``(kh, kw, in_channels)``
  order at bake time.  The product stays channels-last in its slot and the
  value is its ``(..., C, H, W)`` view, which the next conv's copy reads
  contiguously.

The original node-walk survives as
:meth:`~repro.core.graph_ir.GraphProgram.forward_reference`, the one oracle
the test-suite pins every plan against to 1e-12.

A plan's reused buffers are not safe for *concurrent* execution; a lock
serializes `execute` calls (the serving layer batches requests onto a single
executor thread anyway, see :mod:`repro.serve`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.graph_ir import (
    INPUT,
    ElectronicActivation,
    ElectronicAdd,
    ElectronicBatchNorm,
    GraphNode,
)
from repro.core.lowering import Conv2dStage, FlattenStage, LinearStage


# --------------------------------------------------------------------------- #
# instructions
# --------------------------------------------------------------------------- #
def _interleave(real: Any, imag: Any, channels: int) -> np.ndarray:
    """Per-channel real/imag parameters in the order of a complex float64 view."""
    return np.column_stack([np.broadcast_to(real, (channels,)),
                            np.broadcast_to(imag, (channels,))]).ravel()


def _fold_epilogue(bias: Optional[np.ndarray], affine: Optional[ElectronicBatchNorm],
                   channels: int) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Interleaved ``(scale, shift)`` computing ``affine(x + bias)`` in one pass.

    Split batch norm acts on the real and imaginary planes independently, so
    bias and affine collapse to ``x * scale + shift`` per plane with
    ``shift = bias.real * real_scale + real_shift`` (and likewise for the
    imaginary plane); either factor is None when it is the identity.
    """
    if affine is None:
        if bias is None:
            return None, None
        return None, _interleave(bias.real, bias.imag, channels)
    real_shift, imag_shift = affine.real_shift, affine.imag_shift
    if bias is not None:
        real_shift = bias.real * affine.real_scale + real_shift
        imag_shift = bias.imag * affine.imag_scale + imag_shift
    return (_interleave(affine.real_scale, affine.imag_scale, channels),
            _interleave(real_shift, imag_shift, channels))


def _epilogue(outputs: np.ndarray, scale: Optional[np.ndarray],
              shift: Optional[np.ndarray], relu: bool) -> None:
    """Bias, split affine and CReLU in place on ``outputs``' float64 view.

    ``outputs`` is C-contiguous with channels last, so its float64 view
    interleaves the real and imaginary planes channel by channel -- the
    order :func:`_interleave` lays the parameters out in.
    """
    planes = outputs.view(np.float64)
    if scale is not None:
        planes *= scale
    if shift is not None:
        planes += shift
    if relu:
        np.maximum(planes, 0.0, out=planes)


def _memory_order(array: np.ndarray, shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """``array``'s axes from outermost to innermost in memory (identity if
    it does not have the result's full ``shape``)."""
    if array.shape != shape:
        return tuple(range(len(shape)))
    return tuple(sorted(range(array.ndim), key=lambda axis: -abs(array.strides[axis])))


@dataclass
class CallInstruction:
    """Generic fallback: invoke the node op's batch-first ``forward``."""

    nodes: Tuple[str, ...]
    op: Any
    in_slots: Tuple[int, ...]
    out_slot: int

    def run(self, buffers: List[Optional[np.ndarray]], plan: "ExecutionPlan") -> None:
        buffers[self.out_slot] = self.op.forward(
            *(buffers[slot] for slot in self.in_slots))


@dataclass
class MatmulInstruction:
    """A linear stage plus its folded epilogue: ``x @ W.T``, then in place
    ``* scale + shift`` (bias and split batch norm) and CReLU.

    ``weight_t`` is the pre-transposed effective matrix (C-contiguous, so the
    matmul needs no per-call transpose).  ``nodes`` names the graph nodes
    the instruction computes; it writes the value of the last one.  With
    ``stored`` the product lands in the plan storage of ``out_slot``;
    instructions whose value can reach the program output allocate instead.
    """

    nodes: Tuple[str, ...]
    weight_t: np.ndarray
    scale: Optional[np.ndarray]
    shift: Optional[np.ndarray]
    relu: bool
    in_slot: int
    out_slot: int
    stored: bool = True

    def run(self, buffers: List[Optional[np.ndarray]], plan: "ExecutionPlan") -> None:
        states = buffers[self.in_slot]
        outputs = plan.output_buffer(self.out_slot, states.shape[:-1]
                                     + self.weight_t.shape[-1:], self.stored)
        np.matmul(states, self.weight_t, out=outputs)
        _epilogue(outputs, self.scale, self.shift, self.relu)
        buffers[self.out_slot] = outputs


@dataclass
class ConvInstruction:
    """A convolution stage plus its folded epilogue as one im2col matmul.

    The input maps are copied once, channels last, into the plan's padding
    scratch (zero border); every kernel row then gathers one contiguous run
    of ``kw * in_channels`` values per output pixel into the patch scratch,
    so ``weight_t``'s rows are baked in ``(kh, kw, in_channels)`` order.  The
    product is channels-last too: the epilogue runs on its float64 view and
    the instruction's value is the ``(..., C, H, W)`` view of it.
    """

    nodes: Tuple[str, ...]
    weight_t: np.ndarray
    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    scale: Optional[np.ndarray]
    shift: Optional[np.ndarray]
    relu: bool
    in_slot: int
    out_slot: int
    stored: bool = True

    def run(self, buffers: List[Optional[np.ndarray]], plan: "ExecutionPlan") -> None:
        signal = buffers[self.in_slot]
        (kh, kw), (sh, sw), (ph, pw) = self.kernel_size, self.stride, self.padding
        depth, out_channels = self.weight_t.shape
        ndim = signal.ndim
        if ndim < 4 or signal.shape[-3] * kh * kw != depth:
            raise ValueError(f"conv {self.nodes[0]!r} expects (..., batch, "
                             f"{depth // (kh * kw)}, height, width), got {signal.shape}")
        lead, (channels, height, width) = signal.shape[:-3], signal.shape[-3:]
        rows, cols = height + 2 * ph, width + 2 * pw
        out_h, out_w = (rows - kh) // sh + 1, (cols - kw) // sw + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(f"conv {self.nodes[0]!r}: kernel {self.kernel_size} "
                             f"exceeds the padded {rows}x{cols} maps")
        padded = plan.buffer(_PAD, lead + (rows, cols, channels))
        if ph:
            padded[..., :ph, :, :] = 0.0
            padded[..., rows - ph:, :, :] = 0.0
        if pw:
            padded[..., ph:rows - ph, :pw, :] = 0.0
            padded[..., ph:rows - ph, cols - pw:, :] = 0.0
        padded[..., ph:ph + height, pw:pw + width, :] = signal.transpose(
            *range(ndim - 3), ndim - 2, ndim - 1, ndim - 3)

        # kernel row i of output pixel (y, x) is the contiguous run of
        # kw * C values starting at padded row y * sh + i, column x * sw
        row, item = cols * channels * padded.itemsize, padded.itemsize
        images, run = padded.size // (rows * cols * channels), kw * channels
        windows = np.ndarray((kh, images, out_h, out_w, run), dtype=complex,
                             buffer=padded, strides=(row, rows * row, sh * row,
                                                     sw * channels * item, item))
        patches = plan.buffer(_PATCHES, (images, out_h, out_w, kh, run))
        for kernel_row in range(kh):
            patches[:, :, :, kernel_row, :] = windows[kernel_row]

        outputs = plan.output_buffer(self.out_slot,
                                     lead + (out_h, out_w, out_channels), self.stored)
        np.matmul(patches.reshape(-1, depth), self.weight_t,
                  out=outputs.reshape(-1, out_channels))
        _epilogue(outputs, self.scale, self.shift, self.relu)
        maps = outputs.transpose(*range(ndim - 3), ndim - 1, ndim - 3, ndim - 2)
        buffers[self.out_slot] = maps if self.stored else np.ascontiguousarray(maps)


@dataclass
class AddInstruction:
    """A two-input skip addition plus an optional folded CReLU.

    The sum is laid out in memory like the operand of the result's shape
    (channels last behind a conv), so the add streams and the CReLU is one
    ``np.maximum`` over the contiguous float64 view.
    """

    nodes: Tuple[str, ...]
    relu: bool
    in_slots: Tuple[int, int]
    out_slot: int
    stored: bool = True

    def run(self, buffers: List[Optional[np.ndarray]], plan: "ExecutionPlan") -> None:
        first, second = (buffers[slot] for slot in self.in_slots)
        shape = (first.shape if first.shape == second.shape
                 else np.broadcast_shapes(first.shape, second.shape))
        order = _memory_order(first if first.shape == shape else second, shape)
        storage = plan.output_buffer(self.out_slot,
                                     tuple(shape[axis] for axis in order), self.stored)
        total = storage.transpose(sorted(range(len(order)), key=order.__getitem__))
        np.add(first, second, out=total)
        if self.relu:
            _epilogue(storage, None, None, True)
        buffers[self.out_slot] = total if self.stored else np.ascontiguousarray(total)


# --------------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------------- #
#: keys of the two plan-owned scratch arrays every fused conv shares
_PAD, _PATCHES = "pad", "patches"


@dataclass
class ExecutionPlan:
    """A compiled program lowered to a flat instruction list over buffer slots.

    Execute with :meth:`execute` (also ``__call__``).  The plan owns one
    array per buffer slot plus the two conv scratches, all reused across
    calls; a lock serializes concurrent execution.
    """

    instructions: List[Any]
    slot_count: int
    output_slot: int
    fused_matmuls: int = 0
    #: mesh stages left unfused (trials-batched noise ensembles), each a
    #: :class:`CallInstruction` simulating both meshes
    chain_stages: int = 0
    baked_meshes: List[Tuple[Any, int]] = field(default_factory=list, repr=False,
                                                compare=False)
    #: plan-owned arrays, keyed by buffer slot (or a scratch key)
    _storage: Dict[Any, np.ndarray] = field(default_factory=dict, repr=False,
                                            compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @property
    def instruction_count(self) -> int:
        return len(self.instructions)

    def buffer(self, key: Any, shape: Tuple[int, ...]) -> np.ndarray:
        """A C-contiguous complex ``shape`` view of the plan-owned array ``key``.

        Each array grows to the largest request it has served, so a slot's
        successive values (and every conv's patches) reuse the same memory.
        """
        size = math.prod(shape)
        storage = self._storage.get(key)
        if storage is None or storage.size < size:
            storage = np.empty(size, dtype=complex)
            self._storage[key] = storage
        return storage[:size].reshape(shape)

    def output_buffer(self, slot: int, shape: Tuple[int, ...], stored: bool) -> np.ndarray:
        """Where an instruction writes: its slot's storage, or a fresh array
        for a value that can reach the program output."""
        return self.buffer(slot, shape) if stored else np.empty(shape, dtype=complex)

    def is_stale(self) -> bool:
        """Whether a baked mesh's phases moved since the plan was compiled.

        Fused instructions bake mesh phases into effective dense matrices, so
        an in-place :meth:`~repro.photonics.mzi_mesh.MeshDecomposition.update_phases`
        on a deployed mesh must force a plan rebuild --
        :meth:`~repro.core.graph_ir.GraphProgram.forward` checks this before
        every execution (a handful of integer compares).
        """
        return any(mesh.phase_version != version
                   for mesh, version in self.baked_meshes)

    def describe(self) -> str:
        """One-line summary used by the serving CLI and the benchmarks."""
        kinds: Dict[str, int] = {}
        for instruction in self.instructions:
            name = type(instruction).__name__
            kinds[name] = kinds.get(name, 0) + 1
        parts = ", ".join(f"{count} {name}" for name, count in sorted(kinds.items()))
        return (f"{self.instruction_count} instructions over {self.slot_count} "
                f"buffer slots ({parts})")

    def execute(self, signal: np.ndarray) -> np.ndarray:
        """Run the plan on a batch of complex input amplitudes.

        Batch-first, exactly like the node-walk it replaces: trials-batched
        mesh stages prepend their trials axes and electronic ops broadcast
        over them.  The caller's array is only read.
        """
        buffers: List[Optional[np.ndarray]] = [None] * self.slot_count
        buffers[0] = np.asarray(signal, dtype=complex)
        with self._lock:
            for instruction in self.instructions:
                instruction.run(buffers, self)
            return buffers[self.output_slot]

    __call__ = execute


# --------------------------------------------------------------------------- #
# plan compilation
# --------------------------------------------------------------------------- #
def _fusible(op: Any) -> bool:
    """A mesh stage whose meshes are unbatched folds into one matmul,
    whatever its width (fusibility is a property of the program)."""
    return (isinstance(op, (LinearStage, Conv2dStage))
            and op.matrix.uses_dense_path())


def _absorbable(node: GraphNode) -> Tuple[type, ...]:
    """The epilogue node kinds, in order, that ``node``'s instruction absorbs."""
    if _fusible(node.op):
        return (ElectronicBatchNorm, ElectronicActivation)
    if isinstance(node.op, ElectronicAdd) and len(node.inputs) == 2:
        return (ElectronicActivation,)
    return ()


def _fold_epilogues(nodes: List[GraphNode], output: str) -> List[Tuple[GraphNode, ...]]:
    """Group each fused stage or two-input add with the epilogue it absorbs.

    A fused stage absorbs the batch norm after it (of its own layout) and
    then the CReLU after that, or a CReLU directly after it; a two-input add
    absorbs the CReLU after it.  A node is absorbed only when it is the sole
    consumer of its producer and that producer is not the program output, so
    a skip branch that fans out from a pre-activation value still reads it
    un-activated.  Each group runs as one instruction at its first node's
    position and writes the value of its last node.
    """
    readers: Dict[str, List[GraphNode]] = {}
    for node in nodes:
        for name in node.inputs:
            readers.setdefault(name, []).append(node)
    absorbed = set()
    groups: List[Tuple[GraphNode, ...]] = []
    for node in nodes:
        if node.name in absorbed:
            continue
        group = [node]
        for kind in _absorbable(node):
            tail = group[-1].name
            candidates = readers.get(tail, [])
            if len(candidates) != 1 or tail == output:
                break
            reader = candidates[0]
            if not isinstance(reader.op, kind):
                continue
            if (kind is ElectronicBatchNorm
                    and reader.op.spatial != isinstance(node.op, Conv2dStage)):
                break
            group.append(reader)
            absorbed.add(reader.name)
        groups.append(tuple(group))
    return groups


def compile_plan(graph: Any) -> ExecutionPlan:
    """Lower a :class:`~repro.core.graph_ir.GraphProgram` to an execution plan.

    The graph's nodes are already topologically ordered; this pass folds
    each electronic epilogue into the fused stage or add before it, picks
    one instruction per group (fused matmul / fused conv / add / generic
    call), and maps the group values onto reusable buffer slots from the
    precomputed last-use table.
    """
    output = graph.output
    groups = _fold_epilogues(graph.nodes, output)

    last_use: Dict[str, int] = {}
    for index, group in enumerate(groups):
        for name in group[0].inputs:
            last_use[name] = index
    last_use[output] = len(groups)
    # a FlattenStage reshape can be a view of its input's storage, so that
    # slot stays reserved for as long as the view is read
    for index in reversed(range(len(groups))):
        head = groups[index][0]
        if isinstance(head.op, FlattenStage):
            for name in head.inputs:
                last_use[name] = max(last_use[name], last_use.get(head.name, index))

    # values that can reach the program output through a chain of
    # view-producing ops (FlattenStage reshapes) must not live in plan
    # storage either -- the caller's returned array would alias it
    producers: Dict[str, GraphNode] = {group[-1].name: group[0] for group in groups}
    escapes = {output}
    cursor = producers.get(output)
    while (cursor is not None and isinstance(cursor.op, FlattenStage)
           and len(cursor.inputs) == 1):
        escapes.add(cursor.inputs[0])
        cursor = producers.get(cursor.inputs[0])

    slot_of: Dict[str, int] = {INPUT: 0}
    free_slots: List[int] = []
    slot_count = 1
    instructions: List[Any] = []
    fused_matmuls = 0
    chain_stages = 0
    baked_meshes: List[Tuple[Any, int]] = []

    def bake(stage: Any) -> np.ndarray:
        # the PhotonicMatrix caches (scale * U @ diag(S) @ V).T, which the
        # artifact store may have seeded with a memory-mapped copy
        matrix = stage.matrix
        for mesh in (matrix.left_mesh, matrix.right_mesh):
            baked_meshes.append((mesh, mesh.phase_version))
        return matrix.effective_weight_t()

    for index, group in enumerate(groups):
        head, name = group[0], group[-1].name
        in_slots = tuple(slot_of[value] for value in head.inputs)
        # take the output slot before releasing the inputs' slots, so an
        # instruction never writes over a value it reads
        if free_slots:
            out_slot = free_slots.pop()
        else:
            out_slot = slot_count
            slot_count += 1
        slot_of[name] = out_slot
        for value in set(head.inputs):
            if last_use.get(value, -1) == index:
                free_slots.append(slot_of.pop(value))
        if name not in last_use:                       # nothing reads it
            free_slots.append(slot_of.pop(name))

        op = head.op
        labels = tuple(node.name for node in group)
        stored = name not in escapes
        epilogue = [node.op for node in group[1:]]
        affine = next((step for step in epilogue
                       if isinstance(step, ElectronicBatchNorm)), None)
        relu = any(isinstance(step, ElectronicActivation) for step in epilogue)
        if _fusible(op):
            weight_t = bake(op)
            channels = weight_t.shape[1]
            scale, shift = _fold_epilogue(op.bias, affine, channels)
            if isinstance(op, LinearStage):
                instructions.append(MatmulInstruction(
                    nodes=labels, weight_t=weight_t, scale=scale, shift=shift,
                    relu=relu, in_slot=in_slots[0], out_slot=out_slot,
                    stored=stored))
            else:
                kh, kw = op.kernel_size
                # rows baked in (kh, kw, in_channels) order, the gather's order
                weight_t = np.ascontiguousarray(
                    weight_t.reshape(op.in_channels, kh, kw, channels)
                    .transpose(1, 2, 0, 3)).reshape(-1, channels)
                instructions.append(ConvInstruction(
                    nodes=labels, weight_t=weight_t, kernel_size=op.kernel_size,
                    stride=op.stride, padding=op.padding, scale=scale,
                    shift=shift, relu=relu, in_slot=in_slots[0],
                    out_slot=out_slot, stored=stored))
            fused_matmuls += 1
        elif isinstance(op, ElectronicAdd) and len(in_slots) == 2:
            instructions.append(AddInstruction(
                nodes=labels, relu=relu, in_slots=in_slots, out_slot=out_slot,
                stored=stored))
        else:
            # unfused mesh stages (trials-batched), unfolded affines and
            # every other op run their own batch-first forward
            instructions.append(CallInstruction(nodes=labels, op=op,
                                                in_slots=in_slots,
                                                out_slot=out_slot))
            if isinstance(op, (LinearStage, Conv2dStage)):
                chain_stages += 1

    return ExecutionPlan(instructions=instructions, slot_count=slot_count,
                         output_slot=slot_of[output],
                         fused_matmuls=fused_matmuls,
                         chain_stages=chain_stages,
                         baked_meshes=baked_meshes)
