"""Plan-based executor for compiled photonic programs.

:mod:`repro.core.graph_ir` defines *what* a compiled program computes -- a
DAG of photonic stages and electronic ops.  This module decides *how* it
executes: :func:`compile_plan` lowers a :class:`~repro.core.graph_ir.GraphProgram`
once into an :class:`ExecutionPlan`, a flat topologically-ordered instruction
list, so the per-request hot path does none of the interpretation work the
node-walk repeats on every call.  Every plan applies all four:

* **Slot-reuse buffer allocation.**  Buffer lifetimes are precomputed from
  the graph's last-use table and mapped onto a small set of reusable slots by
  a linear scan -- the per-call consumer refcounting (and its dict churn) of
  the node-walk disappears.
* **Eager effective matrices.**  Every unbatched mesh stage, whatever its
  width, is folded into a *single* effective complex matrix
  ``scale * U @ diag(S) @ V`` at plan time; the stage becomes one matmul
  (plus electronic bias and optional in-place CReLU) instead of two mesh
  simulations with an intermediate.  Only trials-batched noise ensembles
  stay unfused: they lower to a :class:`CallInstruction` of the stage's own
  ``forward``, which runs both meshes on the numpy column program.
* **Electronic-affine peephole.**  Chains of adjacent electronic affine ops
  (eval-mode batch norms folded to per-channel scale/shift) whose
  intermediate value has no other consumer are composed into a single
  ``a * x + b`` instruction per real/imag channel.
* **Preallocated output buffers.**  Fused matmul instructions write through
  ``out=`` (:func:`repro.photonics.engine.apply_dense` is the same idiom at
  the engine level) into per-instruction buffers that persist across calls,
  so steady-state execution does no per-request allocation on the interior
  of the hot path.  The instruction producing the program output never
  writes into pooled storage -- the returned array is always safe to keep.

The original node-walk survives as
:meth:`~repro.core.graph_ir.GraphProgram.forward_reference`, the one oracle
the test-suite pins every plan against to 1e-12.

A plan's reused buffers are not safe for *concurrent* execution; a lock
serializes `execute` calls (the serving layer batches requests onto a single
executor thread anyway, see :mod:`repro.serve`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.graph_ir import INPUT, ElectronicBatchNorm, GraphNode
from repro.core.lowering import Conv2dStage, FlattenStage, LinearStage


# --------------------------------------------------------------------------- #
# instructions
# --------------------------------------------------------------------------- #
def _inplace_crelu(signal: np.ndarray) -> np.ndarray:
    """CReLU on a complex buffer without allocating (clamps both planes)."""
    np.maximum(signal.real, 0.0, out=signal.real)
    np.maximum(signal.imag, 0.0, out=signal.imag)
    return signal


def _pooled_matmul(states: np.ndarray, weight_t: np.ndarray,
                   pool: Dict[int, np.ndarray], index: int,
                   pooled: bool) -> np.ndarray:
    """``states @ weight_t``, writing into the instruction's persistent buffer.

    The shared hot-path matmul of the fused instructions: when this
    instruction may pool (the program-output one must not) the product
    lands in ``pool[index]``, reallocated only when the batch shape changes.
    """
    if pooled:
        shape = states.shape[:-1] + (weight_t.shape[-1],)
        out = pool.get(index)
        if out is None or out.shape != shape:
            out = np.empty(shape, dtype=complex)
            pool[index] = out
        return np.matmul(states, weight_t, out=out)
    return np.matmul(states, weight_t)


@dataclass
class CallInstruction:
    """Generic fallback: invoke the node op's batch-first ``forward``."""

    op: Any
    in_slots: Tuple[int, ...]
    out_slot: int

    def run(self, buffers: List[Optional[np.ndarray]],
            pool: Dict[int, np.ndarray]) -> None:
        buffers[self.out_slot] = self.op.forward(
            *(buffers[slot] for slot in self.in_slots))


@dataclass
class MatmulInstruction:
    """A mesh stage folded into one dense matmul: ``x @ W.T (+ bias) (CReLU)``.

    ``weight_t`` is the pre-transposed effective matrix (C-contiguous, so the
    matmul needs no per-call transpose); ``index`` keys this instruction's
    persistent output buffer in the plan's pool.  The program-output
    instruction runs with ``pooled=False`` so the returned array never
    aliases plan-owned storage.
    """

    weight_t: np.ndarray
    bias: Optional[np.ndarray]
    activation: bool
    in_slot: int
    out_slot: int
    index: int
    pooled: bool = True

    def run(self, buffers: List[Optional[np.ndarray]],
            pool: Dict[int, np.ndarray]) -> None:
        outputs = _pooled_matmul(buffers[self.in_slot], self.weight_t, pool,
                                 self.index, self.pooled)
        if self.bias is not None:
            outputs += self.bias
        if self.activation:
            _inplace_crelu(outputs)
        buffers[self.out_slot] = outputs


@dataclass
class ConvInstruction:
    """A convolution stage folded into one im2col matmul.

    Delegates the im2col / reshape geometry to the stage's own
    :meth:`~repro.core.lowering.Conv2dStage.extract_patches` /
    :meth:`~repro.core.lowering.Conv2dStage.assemble_maps`, so the fused and
    fallback executors share one copy of it; only the two mesh applications
    are replaced by the fused effective matrix.  The reshape back to feature
    maps can be a *view* of the matmul buffer, so -- like
    :class:`MatmulInstruction` -- an instruction whose result can reach the
    program output runs with ``pooled=False`` to keep the returned array off
    plan-owned storage.
    """

    stage: Conv2dStage
    weight_t: np.ndarray
    in_slot: int
    out_slot: int
    index: int
    pooled: bool = True

    def run(self, buffers: List[Optional[np.ndarray]],
            pool: Dict[int, np.ndarray]) -> None:
        flat, batch, out_h, out_w = self.stage.extract_patches(buffers[self.in_slot])
        outputs = _pooled_matmul(flat, self.weight_t, pool, self.index, self.pooled)
        bias = self.stage.layer.bias
        if bias is not None:
            outputs += bias
        outputs = self.stage.assemble_maps(outputs, batch, out_h, out_w)
        if self.stage.activation_after:
            _inplace_crelu(outputs)
        buffers[self.out_slot] = outputs


@dataclass
class AffineInstruction:
    """One or more folded batch norms as a single split ``a * x + b``.

    ``op`` is the (possibly chain-composed, see :func:`_fuse_affine_nodes`)
    :class:`~repro.core.graph_ir.ElectronicBatchNorm` -- delegating to its
    ``forward`` keeps the split-affine semantics in exactly one place.
    """

    op: ElectronicBatchNorm
    in_slot: int
    out_slot: int

    def run(self, buffers: List[Optional[np.ndarray]],
            pool: Dict[int, np.ndarray]) -> None:
        buffers[self.out_slot] = self.op.forward(buffers[self.in_slot])


# --------------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------------- #
@dataclass
class ExecutionPlan:
    """A compiled program lowered to a flat instruction list over buffer slots.

    Execute with :meth:`execute` (also ``__call__``).  The plan owns
    per-instruction interior buffers that persist across calls; a lock
    serializes concurrent execution.
    """

    instructions: List[Any]
    slot_count: int
    output_slot: int
    fused_matmuls: int = 0
    fused_affine_chains: int = 0
    #: mesh stages left unfused (trials-batched noise ensembles), each a
    #: :class:`CallInstruction` simulating both meshes
    chain_stages: int = 0
    baked_meshes: List[Tuple[Any, int]] = field(default_factory=list, repr=False,
                                                compare=False)
    _pool: Dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @property
    def instruction_count(self) -> int:
        return len(self.instructions)

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
        over them.
        """
        buffers: List[Optional[np.ndarray]] = [None] * self.slot_count
        buffers[0] = np.asarray(signal, dtype=complex)
        with self._lock:
            for instruction in self.instructions:
                instruction.run(buffers, self._pool)
            return buffers[self.output_slot]

    __call__ = execute


# --------------------------------------------------------------------------- #
# plan compilation
# --------------------------------------------------------------------------- #
def _fuse_affine_nodes(nodes: List[GraphNode],
                       output: str) -> Tuple[List[GraphNode], str]:
    """Compose chains of adjacent electronic affine ops into single nodes.

    A folded batch norm feeding *only* another folded batch norm of the same
    layout composes exactly: ``a2 * (a1 * x + b1) + b2`` is one affine map.
    Producers that fan out (or are the program output) keep their node.
    """
    consumers: Dict[str, int] = {}
    for node in nodes:
        for name in node.inputs:
            consumers[name] = consumers.get(name, 0) + 1
    fused: List[GraphNode] = []
    by_name: Dict[str, GraphNode] = {}
    renamed: Dict[str, str] = {}
    for node in nodes:
        inputs = tuple(renamed.get(name, name) for name in node.inputs)
        if isinstance(node.op, ElectronicBatchNorm) and len(inputs) == 1:
            producer = by_name.get(inputs[0])
            if (producer is not None
                    and isinstance(producer.op, ElectronicBatchNorm)
                    and producer.op.spatial == node.op.spatial
                    and consumers.get(node.inputs[0], 0) == 1
                    and node.inputs[0] != output):
                first, second = producer.op, node.op
                composed = ElectronicBatchNorm(
                    real_scale=second.real_scale * first.real_scale,
                    real_shift=second.real_scale * first.real_shift + second.real_shift,
                    imag_scale=second.imag_scale * first.imag_scale,
                    imag_shift=second.imag_scale * first.imag_shift + second.imag_shift,
                    spatial=first.spatial)
                merged = GraphNode(name=producer.name, op=composed,
                                   inputs=producer.inputs)
                fused[fused.index(producer)] = merged
                by_name[producer.name] = merged
                renamed[node.name] = producer.name
                continue
        kept = GraphNode(name=node.name, op=node.op, inputs=inputs)
        fused.append(kept)
        by_name[kept.name] = kept
    return fused, renamed.get(output, output)


def compile_plan(graph: Any) -> ExecutionPlan:
    """Lower a :class:`~repro.core.graph_ir.GraphProgram` to an execution plan.

    The graph's nodes are already topologically ordered; this pass runs the
    affine peephole, picks an instruction per node (fused matmul / fused
    conv / affine / generic call), and maps node outputs onto reusable buffer
    slots from the precomputed last-use table.
    """
    nodes, output = _fuse_affine_nodes(list(graph.nodes), graph.output)
    fused_affine = len(graph.nodes) - len(nodes)

    last_use: Dict[str, int] = {}
    for index, node in enumerate(nodes):
        for name in node.inputs:
            last_use[name] = index
    last_use[output] = len(nodes)

    # values that can reach the program output through a chain of
    # view-producing ops (FlattenStage reshapes) must not live in pooled
    # storage either -- the caller's returned array would alias the pool
    producers: Dict[str, GraphNode] = {node.name: node for node in nodes}
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
        matrix = stage.layer.photonic_matrix
        for mesh in (matrix.left_mesh, matrix.right_mesh):
            baked_meshes.append((mesh, mesh.phase_version))
        return matrix.effective_weight_t()
    for index, node in enumerate(nodes):
        in_slots = tuple(slot_of[name] for name in node.inputs)
        # release slots whose value has no later consumer; rebinding the
        # output below never mutates the arrays an instruction is reading
        for name in set(node.inputs):
            if last_use.get(name, -1) == index:
                free_slots.append(slot_of.pop(name))
        if free_slots:
            out_slot = free_slots.pop()
        else:
            out_slot = slot_count
            slot_count += 1
        slot_of[node.name] = out_slot

        op = node.op
        may_pool = node.name not in escapes
        # fusibility is a property of the program, not of the mesh size:
        # every stage whose meshes are unbatched folds, whatever its width
        mesh_stage = isinstance(op, (LinearStage, Conv2dStage))
        fusible = mesh_stage and op.layer.photonic_matrix.uses_dense_path()
        if fusible and isinstance(op, LinearStage):
            instructions.append(MatmulInstruction(
                weight_t=bake(op), bias=op.layer.bias,
                activation=op.activation_after, in_slot=in_slots[0],
                out_slot=out_slot, index=index, pooled=may_pool))
            fused_matmuls += 1
        elif fusible:
            instructions.append(ConvInstruction(
                stage=op, weight_t=bake(op),
                in_slot=in_slots[0], out_slot=out_slot, index=index,
                pooled=may_pool))
            fused_matmuls += 1
        elif isinstance(op, ElectronicBatchNorm):
            instructions.append(AffineInstruction(
                op=op, in_slot=in_slots[0], out_slot=out_slot))
        else:
            # unfused mesh stages (trials-batched) and every other op run
            # their own batch-first forward
            instructions.append(CallInstruction(op=op, in_slots=in_slots,
                                                out_slot=out_slot))
            if mesh_stage:
                chain_stages += 1

    return ExecutionPlan(instructions=instructions, slot_count=slot_count,
                         output_slot=slot_of[output],
                         fused_matmuls=fused_matmuls,
                         fused_affine_chains=fused_affine,
                         chain_stages=chain_stages,
                         baked_meshes=baked_meshes)
