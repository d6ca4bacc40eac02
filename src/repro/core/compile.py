"""``repro.compile()``: the photonic compiler entry point.

``repro.compile`` is the one way to map a trained model onto photonic
hardware::

    import repro
    from repro.core.compile import HardwareTarget

    program = repro.compile(model, target=HardwareTarget(method="clements"))
    logits = program.predict_logits(images, scheme)

* :class:`HardwareTarget` describes the hardware the program runs on: the
  mesh decomposition scheme and the non-idealities to bake in at compile
  time (phase-noise model, phase quantization, Monte-Carlo trial count).
  It is the only input besides the model.  How weights map onto meshes is
  fixed: every same-size group of SVD factors across the model decomposes
  as one Reck/Clements stack
  (:func:`repro.photonics.svd_mapping.svd_decompose_many`).  How meshes
  execute follows from the program: every unbatched stage folds into one
  effective matrix, and trials-batched noise ensembles run the numpy column
  program (:meth:`~repro.photonics.mzi_mesh.MeshDecomposition.uses_dense_path`).
* :class:`CompiledProgram` wraps the lowered
  :class:`~repro.core.graph_ir.GraphProgram` -- a dataflow graph with
  photonic stage nodes and electronic ops, so residual architectures
  (ComplexResNet) deploy with photonic stages per branch and skip additions
  in the electronic domain -- plus the encoder and readout needed to run the
  full optical pipeline.

The target is frozen: two concurrent compiles with different targets never
observe each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional

import numpy as np

from repro.assignment import AssignmentScheme
from repro.core.graph_ir import GraphProgram
from repro.core.lowering import lower_to_graph
from repro.photonics.encoders import DCComplexEncoder
from repro.photonics.noise import PhaseNoiseModel

MESH_METHODS = ("clements", "reck")


@dataclass(frozen=True)
class HardwareTarget:
    """Description of the photonic hardware a model is compiled for.

    Parameters
    ----------
    method:
        Mesh decomposition scheme for every deployed unitary (``"clements"``
        or ``"reck"``).
    noise:
        Optional phase-noise model baked into the compiled program (use
        :meth:`PhaseNoiseModel.seeded` for reproducible targets).  Further
        ensembles can still be derived from the clean program with
        :meth:`CompiledProgram.with_noise`.
    quantization_bits:
        Optional DAC resolution of the phase shifters.
    trials:
        Monte-Carlo ensemble size drawn at compile time when ``noise`` is
        set; the program's outputs then carry a leading trials axis.
    """

    method: str = "clements"
    noise: Optional[PhaseNoiseModel] = None
    quantization_bits: Optional[int] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in MESH_METHODS:
            raise ValueError(f"unknown mesh method {self.method!r}; "
                             f"choose from {MESH_METHODS}")
        if self.trials is not None and self.noise is None:
            raise ValueError("HardwareTarget.trials requires a noise model")


@dataclass
class CompiledProgram:
    """A model compiled onto simulated photonic hardware.

    The program is a dataflow graph (:attr:`graph`) of photonic stage nodes
    and electronic ops; :meth:`forward_signals` executes it batch-first on
    complex amplitudes and :meth:`predict_logits` runs the full optical
    pipeline (assignment, encoding, meshes, detector readout).
    """

    graph: GraphProgram
    target: HardwareTarget
    encoder: DCComplexEncoder = field(default_factory=DCComplexEncoder)
    #: content key in the artifact store this program was compiled against
    #: (None when no store participated), and whether it was a warm hit
    store_key: Optional[str] = None
    store_hit: bool = False

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def num_classes(self) -> int:
        return self.graph.num_classes

    @property
    def input_kind(self) -> str:
        return self.graph.input_kind

    @property
    def readout(self):
        return self.graph.readout

    @property
    def mzi_count(self) -> int:
        return self.graph.mzi_count

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def plan(self):
        """The program's :class:`~repro.core.runtime.ExecutionPlan`.

        Compiled once and cached on the graph; every ``forward`` /
        ``predict_logits`` call executes it.  Call this eagerly to pay the
        plan compilation (eager dense matrices, buffer-lifetime analysis)
        before the first request -- the serving layer does so when a program
        enters the cache.
        """
        return self.graph.plan()

    def forward_signals(self, complex_inputs: np.ndarray) -> np.ndarray:
        """Propagate complex input amplitudes through the program graph.

        Executes the cached execution plan (see :meth:`plan`).  Batch-first:
        ``complex_inputs`` is ``(batch, n)`` for flat programs or ``(batch,
        channels, height, width)`` for convolutional ones.  When nodes carry
        trials-batched (noise-ensemble) meshes the signal gains a leading
        trials axis at the first mesh node and every realization propagates
        consistently through the rest of the graph.
        """
        return self.graph.forward(complex_inputs)

    forward = forward_signals
    __call__ = forward_signals

    def encode_images(self, images: np.ndarray, scheme: AssignmentScheme) -> np.ndarray:
        """The complex light the program graph consumes for a raw image batch.

        Applies the assignment scheme and the optical encoder, flattening the
        assigned maps first for flat-input programs.  This is the front half
        of :meth:`predict_logits`; the harnesses use it to drive the graph
        executors directly on encoded signals.
        """
        assignment = scheme.assign(images)
        if self.input_kind == "image":
            return self.encoder.encode(assignment.real, assignment.imag)
        flattened_real = assignment.real.reshape(assignment.real.shape[0], -1)
        flattened_imag = assignment.imag.reshape(assignment.imag.shape[0], -1)
        return self.encoder.encode(flattened_real, flattened_imag)

    def predict_logits(self, images: np.ndarray, scheme: AssignmentScheme) -> np.ndarray:
        """Run the full optical pipeline: assignment, encoding, meshes, readout."""
        signal = self.forward_signals(self.encode_images(images, scheme))
        return self.readout(signal)

    def classify(self, images: np.ndarray, scheme: AssignmentScheme) -> np.ndarray:
        return self.predict_logits(images, scheme).argmax(axis=-1)

    # ------------------------------------------------------------------ #
    # hardware non-idealities
    # ------------------------------------------------------------------ #
    def with_noise(self, noise: Optional[PhaseNoiseModel] = None,
                   quantization_bits: Optional[int] = None,
                   trials: Optional[int] = None) -> "CompiledProgram":
        """Return a copy whose mesh nodes carry phase noise / quantization.

        ``trials`` draws an ensemble of noise realizations per mesh; the
        copy's logits and predictions then carry a leading trials axis, so a
        whole Monte-Carlo robustness sweep runs in one batched forward pass.
        A noise model with an *array* ``sigma`` additionally prepends a sigma
        axis, folding a whole sigma sweep into the same pass.

        The degradation composes with any the program already carries, and
        :attr:`target` keeps every field this call leaves unset.
        """
        graph = self.graph.with_noise(noise, quantization_bits, trials=trials)
        given = {"noise": noise, "quantization_bits": quantization_bits,
                 "trials": trials}
        target = replace(self.target, **{name: value for name, value in given.items()
                                         if value is not None})
        return CompiledProgram(graph=graph, target=target, encoder=self.encoder,
                               store_key=self.store_key, store_hit=self.store_hit)

    def with_scenario(self, scenario: Any, times: Optional[Any] = None,
                      trials: Optional[int] = None,
                      quantization_bits: Optional[int] = None) -> "CompiledProgram":
        """Return a copy degraded by a hardware scenario (see ``repro.scenarios``).

        ``scenario`` is a scenario instance, a ``{"name", "params"}`` config
        dict, or a list of configs (composite).  Without ``times`` the copy
        is evaluated at the scenario's current clock; with ``times`` (a 1-D
        grid of seconds) the copy's meshes carry the whole degradation
        trajectory as a leading time axis, composing with ``trials`` exactly
        like a sigma sweep.  The scenario rides the same seam as
        :meth:`with_noise`, so the plan runtime runs it unchanged.
        """
        from repro.scenarios import build_scenario
        from repro.scenarios.base import ScenarioTrajectory

        scenario = build_scenario(scenario)
        noise = scenario if times is None else ScenarioTrajectory(scenario, times)
        return self.with_noise(noise=noise, quantization_bits=quantization_bits,
                               trials=trials)


def compile(model, target: Optional[HardwareTarget] = None,
            store: Optional[Any] = None,
            store_refresh: bool = False) -> CompiledProgram:
    """Compile a trained complex model onto simulated photonic hardware.

    Lowers the model through the ``@register_lowering`` rule registry into a
    photonic dataflow graph with one node per op (fully connected and
    convolutional trunks become straight chains of nodes; residual models
    gain explicit fan-out and electronic skip-add nodes), deploys every weight via SVD with same-size unitaries
    decomposed as one batched stack, and bakes the target's non-idealities in.
    The model is switched to eval mode.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.ArtifactStore`.  A warm entry for the
        content key of ``(model weights, target)`` skips
        decomposition entirely -- the stored phases and memory-mapped dense
        matrices are deployed in its place; a miss falls through to live
        compilation and (unless the store is read-only) publishes the fresh
        decomposition.  Targets carrying a live noise model bypass the store
        (noise is injected after the stored clean decomposition anyway, so
        only the clean step is ever persisted).
    store_refresh:
        Skip the store read and rewrite the entry from a live compile
        (``repro precompile --refresh`` sets it).  A weight change needs no
        refresh: it changes the content key, so it can never hit a stale
        entry.
    """
    target = HardwareTarget() if target is None else target

    def lower(deploy_fn=None) -> GraphProgram:
        return lower_to_graph(model, method=target.method, deploy_fn=deploy_fn)

    key = store.try_key_for(model, target) if store is not None else None
    graph = None
    hit = False
    if key is not None and not store_refresh:
        artifact = store.load(key)
        if artifact is not None:
            from repro.store.errors import ArtifactError
            try:
                graph = lower(artifact.deploy_fn())
                hit = True
            except ArtifactError as error:
                import logging

                logging.getLogger("repro.store").warning(
                    "store entry %s does not fit this model (%s); quarantining "
                    "and recompiling live", key[:12], error)
                store.quarantine(key)
                graph = None
    if graph is None:
        if key is not None and not store.readonly:
            from repro.photonics.svd_mapping import svd_decompose_many

            captured: List[Any] = []

            def capturing(weights):
                matrices = svd_decompose_many(weights, method=target.method)
                captured.extend(matrices)
                return matrices

            graph = lower(capturing)
            if store_refresh:
                store.delete(key)
            store.save(key, captured, model=model, target=target)
        else:
            graph = lower()
    program = CompiledProgram(graph=graph, target=target,
                              store_key=key, store_hit=hit)
    if target.noise is not None or target.quantization_bits is not None:
        program = program.with_noise(noise=target.noise,
                                     quantization_bits=target.quantization_bits,
                                     trials=target.trials)
    return program
