"""SVD mapping of arbitrary weight matrices onto MZI meshes.

A general (complex or real) ``m x n`` weight matrix ``W`` is factored as
``W = U S V*`` (singular value decomposition).  ``U`` and ``V*`` are unitary
and are implemented as MZI meshes; ``S`` is a non-negative diagonal
implemented as a column of optical attenuators (singular values larger than
one are handled by pulling a global scale out of the diagonal, which in
hardware corresponds to optical amplification or digital rescaling at the
detector).

The MZI count of the mapped matrix is::

    n (n - 1) / 2  +  min(m, n)  +  m (m - 1) / 2

which is the formula the paper uses for every area number.

:func:`svd_decompose_many` maps a whole list of weight matrices at once:
the SVD factors of every weight are grouped by dimension and each group is
decomposed as one batched stack
(:func:`~repro.photonics.mzi_mesh.decompose_unitary_stack`), which is how the
compiler amortizes deploying models with many same-size kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.photonics.area import mzi_count_matrix
from repro.photonics.mzi_mesh import (
    MeshDecomposition,
    decompose_unitary,
    decompose_unitary_stack,
)


@dataclass
class PhotonicMatrix:
    """A weight matrix deployed as two MZI meshes and a diagonal scaling column.

    Attributes
    ----------
    left_mesh:
        Mesh implementing the ``m x m`` unitary ``U``.
    right_mesh:
        Mesh implementing the ``n x n`` unitary ``V*``.
    singular_values:
        The ``min(m, n)`` singular values (attenuator settings after
        normalisation by :attr:`scale`).
    scale:
        Global scale factor pulled out so every attenuator transmission is at
        most 1.  Applied digitally (or by an amplifier) after detection.
    """

    rows: int
    cols: int
    left_mesh: MeshDecomposition
    right_mesh: MeshDecomposition
    singular_values: np.ndarray
    scale: float

    # cached pre-transposed effective matrix (see effective_weight_t); keyed
    # by the mesh phase versions it was computed from
    _weight_t_cache: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)
    _weight_t_versions: Optional[Tuple[int, int]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def mzi_count(self) -> int:
        """MZIs used by both meshes (matches the closed-form count)."""
        return self.left_mesh.mzi_count + self.right_mesh.mzi_count

    @property
    def attenuator_count(self) -> int:
        return int(min(self.rows, self.cols))

    @property
    def device_count(self) -> int:
        """MZIs plus diagonal attenuators -- the paper's per-matrix device count."""
        return self.mzi_count + self.attenuator_count

    def matrix(self) -> np.ndarray:
        """Reconstruct the dense matrix implemented by the photonic circuit.

        For trials-batched meshes the result gains the leading trials axes.
        """
        left = self.left_mesh.reconstruct()
        right = self.right_mesh.reconstruct()
        diag = np.zeros((self.rows, self.cols), dtype=complex)
        k = min(self.rows, self.cols)
        diag[np.arange(k), np.arange(k)] = self.singular_values
        return self.scale * (left @ diag @ right)

    def effective_weight_t(self) -> np.ndarray:
        """The pre-transposed effective matrix ``matrix().T``, cached.

        This is exactly what the plan runtime bakes into a fused matmul
        instruction (``states @ weight_t``), so it is cached here -- keyed by
        the two meshes' phase versions -- instead of being reconstructed per
        plan build.  The artifact store seeds the cache with a memory-mapped
        copy on warm loads (:meth:`seed_effective_weight_t`), which is how N
        serving replicas share one physical copy of every dense matrix.
        """
        versions = (self.left_mesh.phase_version, self.right_mesh.phase_version)
        if self._weight_t_cache is None or self._weight_t_versions != versions:
            weight = self.matrix()
            self._weight_t_cache = np.ascontiguousarray(
                np.swapaxes(weight, -1, -2))
            self._weight_t_versions = versions
        return self._weight_t_cache

    def seed_effective_weight_t(self, weight_t: np.ndarray) -> None:
        """Install a precomputed (possibly memory-mapped) effective matrix.

        The seed is tied to the *current* mesh phase versions, so a later
        in-place phase update still invalidates it exactly like a computed
        cache entry.
        """
        if weight_t.shape[-2:] != (self.cols, self.rows):
            raise ValueError(
                f"effective matrix must have trailing shape "
                f"({self.cols}, {self.rows}), got {weight_t.shape}")
        self._weight_t_cache = weight_t
        self._weight_t_versions = (self.left_mesh.phase_version,
                                   self.right_mesh.phase_version)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Propagate complex amplitudes through ``V*``, the attenuators and ``U``.

        Batch-first: ``vector`` may be ``(cols,)`` or ``(batch, cols)``,
        optionally with leading trials axes; trials-batched meshes
        (phase-noise ensembles) add their trials axes to the result, with
        realization ``t`` applied consistently to both meshes.
        """
        vector = np.asarray(vector, dtype=complex)
        single = vector.ndim == 1
        states = vector[None, :] if single else vector
        states = self.right_mesh.apply(states)      # fresh array, ours to mutate
        k = min(self.rows, self.cols)
        if self.rows == self.cols:
            # square weights need no mode padding/truncation
            states *= self.singular_values
            projected = states
        else:
            projected = np.zeros(states.shape[:-1] + (self.rows,), dtype=complex)
            projected[..., :k] = states[..., :k] * self.singular_values[:k]
        # the column engine may propagate straight in the projected buffer
        # (out= copies the states in first); the dense path ignores the
        # aliasing buffer and allocates as before
        states = self.left_mesh.apply(projected, out=projected)
        states *= self.scale
        return states[..., 0, :] if single else states


#: weight matrices decomposed (SVD factoring + mesh nulling) by this process.
#: The serving workers report it in their ready info, which is how the tests
#: prove a warm artifact store performs *zero* decompositions across a spawn
#: boundary (where monkeypatching cannot reach).
_DECOMPOSITIONS = 0


def decompositions_performed() -> int:
    """How many weight matrices this process has decomposed onto meshes."""
    return _DECOMPOSITIONS


def _count_decompositions(count: int) -> None:
    global _DECOMPOSITIONS
    _DECOMPOSITIONS += count


def _apply_mesh_policy(mesh: MeshDecomposition, backend: str) -> MeshDecomposition:
    if backend not in MeshDecomposition.BACKENDS:
        raise ValueError(f"unknown mesh backend {backend!r}; "
                         f"choose from {MeshDecomposition.BACKENDS}")
    mesh.backend = backend
    return mesh


def _assemble(rows: int, cols: int, left_mesh: MeshDecomposition,
              right_mesh: MeshDecomposition, singular_values: np.ndarray,
              scale: float) -> PhotonicMatrix:
    photonic = PhotonicMatrix(
        rows=rows, cols=cols, left_mesh=left_mesh, right_mesh=right_mesh,
        singular_values=singular_values.astype(float), scale=scale,
    )
    expected = mzi_count_matrix(rows, cols) - min(rows, cols)
    if photonic.mzi_count != expected:
        raise AssertionError(
            f"mesh MZI count {photonic.mzi_count} disagrees with closed form {expected}"
        )
    return photonic


def _normalized(singular_values: np.ndarray, normalize: bool):
    scale = 1.0
    if normalize and singular_values.size and singular_values[0] > 1.0:
        scale = float(singular_values[0])
        singular_values = singular_values / scale
    return singular_values, scale


def _svd_factors(weight: np.ndarray, normalize: bool):
    weight = np.asarray(weight, dtype=complex)
    if weight.ndim != 2:
        raise ValueError("svd_decompose expects a 2-D matrix")
    left, singular_values, right = np.linalg.svd(weight, full_matrices=True)
    singular_values, scale = _normalized(singular_values, normalize)
    return weight.shape, left, right, singular_values, scale


def _svd_factors_many(weights: Sequence[np.ndarray], normalize: bool) -> List[tuple]:
    """SVD-factor many weights, grouping same-shape matrices into one call.

    ``np.linalg.svd`` is a gufunc: a group of same-shape weights stacked
    along a leading axis factors in one batched call (same LAPACK routine
    per slice, so the factors match the per-matrix path; the parity tests
    pin this).  The returned list is index-aligned with ``weights``.
    """
    arrays = [np.asarray(weight, dtype=complex) for weight in weights]
    for array in arrays:
        if array.ndim != 2:
            raise ValueError("svd_decompose expects 2-D matrices")
    by_shape: Dict[Tuple[int, int], List[int]] = {}
    for index, array in enumerate(arrays):
        by_shape.setdefault(array.shape, []).append(index)
    factored: List[Optional[tuple]] = [None] * len(arrays)
    for shape, indices in by_shape.items():
        if len(indices) >= 2:
            stack = np.stack([arrays[index] for index in indices])
            lefts, stacked_values, rights = np.linalg.svd(stack, full_matrices=True)
            for position, index in enumerate(indices):
                singular_values, scale = _normalized(stacked_values[position],
                                                     normalize)
                factored[index] = (shape, lefts[position], rights[position],
                                   singular_values, scale)
        else:
            index = indices[0]
            factored[index] = _svd_factors(arrays[index], normalize)
    return factored


def svd_decompose(weight: np.ndarray, method: str = "clements",
                  normalize: bool = True, backend: str = "auto") -> PhotonicMatrix:
    """Map a weight matrix onto a photonic circuit via SVD.

    Parameters
    ----------
    weight:
        Real or complex matrix of shape ``(m, n)``.
    method:
        Mesh decomposition method for the two unitaries (``"clements"`` or
        ``"reck"``).
    normalize:
        If True, scale the singular values so the largest attenuator
        transmission is 1 (physically realisable); the scale factor is stored
        in :attr:`PhotonicMatrix.scale`.
    backend:
        Execution policy stamped onto both meshes (see
        :class:`~repro.photonics.mzi_mesh.MeshDecomposition`); the compiler
        threads it in from ``CompileOptions``.
    """
    _count_decompositions(1)
    (rows, cols), left, right, singular_values, scale = _svd_factors(weight, normalize)
    left_mesh = _apply_mesh_policy(decompose_unitary(left, method=method), backend)
    right_mesh = _apply_mesh_policy(decompose_unitary(right, method=method), backend)
    return _assemble(rows, cols, left_mesh, right_mesh, singular_values, scale)


#: smallest dimension group that is decomposed as a batched stack, per mesh
#: method and per *chain backend* (the backend axis of the measured
#: ``stack_threshold`` rows of ``benchmarks/results/compile.json``).  The
#: Reck stack path replaces an already-vectorized wavefront loop and wins
#: from two matrices up regardless of backend.  The Clements stack path
#: replaces a *scalar* nulling chain: on the ``numpy`` chain backend the
#: small-array per-op overhead of the fused
#: :func:`repro.photonics.engine.nulling_rotation_blocks` kernel only
#: amortizes from three matrices up, while the native ``cchain`` kernel
#: (one C call per stack, :mod:`repro.photonics._native`) removes the
#: per-op overhead entirely, so the stack path wins from two.
STACK_THRESHOLDS: Dict[str, Dict[str, int]] = {
    "reck": {"numpy": 2, "cchain": 2},
    "clements": {"numpy": 3, "cchain": 2},
}


def chain_backend() -> str:
    """The decomposition-chain backend active in this process.

    ``"cchain"`` when the native kernel is loaded (and not force-disabled),
    ``"numpy"`` otherwise -- the key :func:`stack_threshold` resolves the
    per-backend crossover table with.
    """
    from repro.photonics import engine

    return "cchain" if engine.native_kernel() is not None else "numpy"


def stack_threshold(method: str, backend: Optional[str] = None) -> int:
    """Measured stack-vs-per-matrix crossover for ``method``.

    ``backend`` is the chain backend (``"numpy"`` / ``"cchain"``); by
    default the one active in this process (:func:`chain_backend`), so the
    grouping policy of :func:`svd_decompose_many` automatically tracks
    whether the native kernel is available.
    """
    table = STACK_THRESHOLDS.get(method.lower())
    if table is None:
        return 2
    return table.get(backend if backend is not None else chain_backend(), 2)


def svd_decompose_many(weights: Sequence[np.ndarray], method: str = "clements",
                       normalize: bool = True, batch_unitaries: bool = True,
                       backend: str = "auto") -> List[PhotonicMatrix]:
    """Map many weight matrices onto photonic circuits in one batched pass.

    The batching happens at both ends of the pipeline: the *SVDs* of
    same-shape weight matrices run as one stacked ``np.linalg.svd`` call
    (:func:`_svd_factors_many`), and the resulting unitaries are grouped by
    dimension with every group at or above the method's measured
    :func:`stack_threshold` size (per chain backend, see
    :data:`STACK_THRESHOLDS`) decomposed as a single stacked Reck/Clements
    pass (``batch_unitaries=False`` falls back to the per-matrix
    decomposition path, same results).  The returned list is index-aligned
    with ``weights``.
    """
    _count_decompositions(len(weights))
    factored = _svd_factors_many(weights, normalize)
    # group the unitaries of every weight by dimension: (weight index, side)
    groups: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
    for index, (_shape, left, right, _sv, _scale) in enumerate(factored):
        for side, unitary in enumerate((left, right)):
            groups.setdefault(unitary.shape[0], []).append((index, side, unitary))
    meshes: Dict[Tuple[int, int], MeshDecomposition] = {}
    threshold = stack_threshold(method)
    for members in groups.values():
        if batch_unitaries and len(members) >= threshold:
            stack = np.stack([unitary for _index, _side, unitary in members])
            decomposed = decompose_unitary_stack(stack, method=method)
        else:
            decomposed = [decompose_unitary(unitary, method=method)
                          for _index, _side, unitary in members]
        for (index, side, _unitary), mesh in zip(members, decomposed):
            meshes[index, side] = _apply_mesh_policy(mesh, backend)
    return [_assemble(rows, cols, meshes[index, 0], meshes[index, 1],
                      singular_values, scale)
            for index, ((rows, cols), _left, _right, singular_values, scale)
            in enumerate(factored)]
