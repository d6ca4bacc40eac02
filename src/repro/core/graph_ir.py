"""Graph intermediate representation of compiled photonic programs.

A compiled model is a directed acyclic graph of named :class:`GraphNode`\\ s.
Each node wraps an *op* -- either a photonic stage from
:mod:`repro.core.lowering` (mesh-deployed linear / convolution layers,
structural pooling and flatten stages), one of the electronic ops defined
here, or any op a registered lowering rule emits -- and names the nodes whose
outputs it consumes.  An op needs only a batch-first ``forward``.  A *mesh
stage* also carries its deployed ``matrix``
(a :class:`~repro.photonics.svd_mapping.PhotonicMatrix`, see
:func:`mesh_matrix`): :attr:`GraphProgram.mzi_count` sums those matrices'
devices, and :meth:`GraphProgram.with_noise`, the one degrade seam, swaps in
degraded copies of them and shares every other op.  Edges are explicit:
a node referenced by several consumers fans its signal out (an optical
splitter / electronic broadcast), which is how residual architectures express
their skip connections:

* :class:`ElectronicAdd` -- skip-connection addition.  Photocurrents (or
  digitised amplitudes) of the two branches are summed in the electronic
  domain, costing no optical area.
* :class:`ElectronicBatchNorm` -- an eval-mode split batch norm folded to a
  per-channel affine map on the real and imaginary parts independently.
  Split normalisation is widely-linear (not complex-linear), so it cannot be
  absorbed into an MZI mesh; like biases it lives in the electronic domain.
* :class:`ElectronicActivation` -- an electro-optic CReLU.  Every CReLU is
  its own node; the plan compiler decides which ones fold into the mesh
  stage or skip add before them.

This module holds the graph *definition*; *execution* lives in
:mod:`repro.core.runtime`.  :meth:`GraphProgram.plan` compiles the DAG once
into an :class:`~repro.core.runtime.ExecutionPlan` -- a flat instruction list
over a few reusable, plan-owned buffer slots, in which every unbatched mesh
stage is one dense matmul that also absorbs the electronic batch norm and
CReLU after it (a skip add absorbs its CReLU) -- and
:meth:`GraphProgram.forward` is a thin wrapper over executing that (cached)
plan.  The original interpreted node-walk is kept as
:meth:`GraphProgram.forward_reference`, the executable specification the
test-suite pins every plan against to 1e-12.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.photonics.noise import PhaseNoiseModel
from repro.photonics.svd_mapping import PhotonicMatrix

#: name of the implicit source node every graph reads its input signal from
INPUT = "input"


# --------------------------------------------------------------------------- #
# electronic ops
# --------------------------------------------------------------------------- #
@dataclass
class ElectronicAdd:
    """Sum the signals of several producer nodes (skip-connection addition).

    Leading trials/sigma axes broadcast: an identity skip branch that never
    passed through a noisy mesh broadcasts against the trials-batched main
    branch exactly like numpy broadcasting.
    """

    def forward(self, *signals: np.ndarray) -> np.ndarray:
        if not signals:
            raise ValueError("ElectronicAdd needs at least one input signal")
        total = np.asarray(signals[0], dtype=complex)
        for signal in signals[1:]:
            total = total + np.asarray(signal, dtype=complex)
        # a new array even for one input: the plan runtime reuses the storage
        # of every value no longer read, so a result must not alias an input
        return total if len(signals) > 1 else total.copy()


def split_relu(signal: np.ndarray) -> np.ndarray:
    """CReLU on complex amplitudes: clamp real and imaginary parts at zero."""
    signal = np.asarray(signal, dtype=complex)
    return np.maximum(signal.real, 0.0) + 1j * np.maximum(signal.imag, 0.0)


@dataclass
class ElectronicActivation:
    """Electro-optic CReLU applied as its own graph node."""

    def forward(self, signal: np.ndarray) -> np.ndarray:
        return split_relu(signal)


@dataclass
class ElectronicBatchNorm:
    """Eval-mode split batch norm as a per-channel electronic affine map.

    ``real_scale``/``real_shift`` act on the real part and
    ``imag_scale``/``imag_shift`` on the imaginary part (split normalisation
    treats the two as independent real channels).  With ``spatial=True`` the
    channel axis is ``-3`` of an image signal ``(..., C, H, W)``; otherwise
    the parameters act on the trailing feature axis.
    """

    real_scale: np.ndarray
    real_shift: np.ndarray
    imag_scale: np.ndarray
    imag_shift: np.ndarray
    spatial: bool = True

    def __post_init__(self) -> None:
        self.real_scale = np.asarray(self.real_scale, dtype=float)
        self.real_shift = np.asarray(self.real_shift, dtype=float)
        self.imag_scale = np.asarray(self.imag_scale, dtype=float)
        self.imag_shift = np.asarray(self.imag_shift, dtype=float)

    def _shaped(self, params: np.ndarray) -> np.ndarray:
        return params[:, None, None] if self.spatial else params

    def forward(self, signal: np.ndarray) -> np.ndarray:
        signal = np.asarray(signal, dtype=complex)
        real = signal.real * self._shaped(self.real_scale) + self._shaped(self.real_shift)
        imag = signal.imag * self._shaped(self.imag_scale) + self._shaped(self.imag_shift)
        return real + 1j * imag


# --------------------------------------------------------------------------- #
# graph structure
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GraphNode:
    """One op of the program plus the names of the nodes it consumes."""

    name: str
    op: Any
    inputs: Tuple[str, ...]


def mesh_matrix(node: GraphNode) -> Optional[PhotonicMatrix]:
    """The deployed matrix of a mesh-stage node, None for every other op."""
    matrix = getattr(node.op, "matrix", None)
    return matrix if isinstance(matrix, PhotonicMatrix) else None


@dataclass
class GraphProgram:
    """A topologically ordered photonic/electronic dataflow graph.

    ``nodes`` must be in execution order (every input of a node refers to
    :data:`INPUT` or an earlier node); ``output`` names the node whose signal
    the program returns.  ``readout`` converts the complex output amplitudes
    to real logits (photodiode / coherent detection plus calibration) and
    ``input_kind`` records what the first stage consumes (``"flat"`` feature
    vectors or ``"image"`` maps).
    """

    nodes: List[GraphNode]
    output: str
    readout: Callable[[np.ndarray], np.ndarray]
    num_classes: int
    input_kind: str = "flat"
    _last_use: Dict[str, int] = field(default_factory=dict, repr=False)
    _plan: Optional[Any] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        defined = {INPUT}
        for node in self.nodes:
            if node.name in defined:
                raise ValueError(f"duplicate graph node name {node.name!r}")
            missing = [name for name in node.inputs if name not in defined]
            if missing:
                raise ValueError(f"node {node.name!r} consumes undefined "
                                 f"producers {missing} (not topologically ordered?)")
            defined.add(node.name)
        if self.output not in defined:
            raise ValueError(f"output node {self.output!r} is not defined")
        self._last_use = {}
        for index, node in enumerate(self.nodes):
            for name in node.inputs:
                self._last_use[name] = index
        self._last_use[self.output] = len(self.nodes)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def node(self, name: str) -> GraphNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no graph node named {name!r}")

    @property
    def mzi_count(self) -> int:
        """Devices (MZIs plus attenuators) of every mesh stage's matrix."""
        return sum(matrix.device_count for matrix in map(mesh_matrix, self.nodes)
                   if matrix is not None)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def plan(self):
        """The graph compiled to an :class:`~repro.core.runtime.ExecutionPlan`.

        Compiled once and cached on the program, and recompiled when a baked
        mesh's phases were mutated in place through ``update_phases`` (plans
        fold phases into dense matrices, so they track each mesh's phase
        version).
        """
        from repro.core.runtime import compile_plan

        if self._plan is None or self._plan.is_stale():
            self._plan = compile_plan(self)
        return self._plan

    def forward(self, signal: np.ndarray) -> np.ndarray:
        """Execute the graph on a batch of complex input amplitudes.

        Thin wrapper over executing the cached :meth:`plan`.  Batch-first
        like every stage: trials-batched (noise-ensemble) mesh nodes prepend
        their trials axes and the electronic nodes broadcast over them.
        """
        return self.plan().execute(signal)

    def forward_reference(self, signal: np.ndarray) -> np.ndarray:
        """The original interpreted node-walk, kept as the parity reference.

        Walks the DAG node by node, refcounting intermediate signals and
        freeing each after its last consumer -- exactly what
        :meth:`forward` did before the plan runtime existed.  The test-suite
        pins plan execution against this walk to 1e-12.
        """
        values: Dict[str, np.ndarray] = {INPUT: np.asarray(signal, dtype=complex)}
        for index, node in enumerate(self.nodes):
            values[node.name] = node.op.forward(*(values[name] for name in node.inputs))
            # a node may read one value twice (``x + x``): free it once
            for name in set(node.inputs):
                if self._last_use.get(name, -1) == index:
                    del values[name]
        return values[self.output]

    __call__ = forward

    # ------------------------------------------------------------------ #
    # hardware non-idealities
    # ------------------------------------------------------------------ #
    def with_noise(self, noise: Optional[PhaseNoiseModel] = None,
                   quantization_bits: Optional[int] = None,
                   trials: Optional[int] = None) -> "GraphProgram":
        """A copy of the graph whose mesh stages carry noise / quantization.

        This is the one degrade seam: each mesh stage's copy gets
        :meth:`~repro.photonics.svd_mapping.PhotonicMatrix.degraded` as its
        ``matrix``, stage by stage in graph order; every other op is shared.
        """
        nodes = []
        for node in self.nodes:
            matrix = mesh_matrix(node)
            if matrix is not None:
                op = copy.copy(node.op)
                op.matrix = matrix.degraded(noise, quantization_bits, trials=trials)
                node = GraphNode(name=node.name, op=op, inputs=node.inputs)
            nodes.append(node)
        return GraphProgram(nodes=nodes, output=self.output, readout=self.readout,
                            num_classes=self.num_classes, input_kind=self.input_kind)


class GraphBuilder:
    """Incrementally assemble a :class:`GraphProgram` in topological order."""

    def __init__(self) -> None:
        self._nodes: List[GraphNode] = []
        self._names: Set[str] = set()

    def add(self, name: str, op: Any, inputs: Sequence[str]) -> str:
        """Append a node; a colliding name is uniquified with a numeric suffix."""
        unique = name
        suffix = 1
        while unique == INPUT or unique in self._names:
            unique = f"{name}#{suffix}"
            suffix += 1
        self._nodes.append(GraphNode(name=unique, op=op, inputs=tuple(inputs)))
        self._names.add(unique)
        return unique

    def ops(self) -> List[Any]:
        """The ops added so far, in emission order."""
        return [node.op for node in self._nodes]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def build(self, output: str, readout: Callable[[np.ndarray], np.ndarray],
              num_classes: int, input_kind: str = "flat") -> GraphProgram:
        return GraphProgram(nodes=list(self._nodes), output=output, readout=readout,
                            num_classes=num_classes, input_kind=input_kind)
