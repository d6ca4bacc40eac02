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

:func:`svd_decompose_many` is the one mapping routine: it SVD-factors
every same-shape group of weights as one stack and decomposes every
same-dimension group of unitaries as one Reck/Clements stack
(:func:`~repro.photonics.mzi_mesh.decompose_unitary_stack`), which is how the
compiler amortizes deploying models with many same-size kernels.
:func:`svd_decompose` maps one weight as a list of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.photonics.area import mzi_count_matrix
from repro.photonics.mzi_mesh import MeshDecomposition, decompose_unitary_stack
from repro.photonics.noise import quantize_phases


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

    def uses_dense_path(self) -> bool:
        """Whether neither mesh is trials-batched: the plan runtime then folds
        this matrix into one effective matmul, and the artifact store persists it."""
        return self.left_mesh.uses_dense_path() and self.right_mesh.uses_dense_path()

    def matrix(self) -> np.ndarray:
        """Reconstruct the dense matrix implemented by the photonic circuit.

        ``diag(S)`` keeps only ``k = min(rows, cols)`` columns of ``U`` and
        rows of ``V*``, so this is the rank-``k`` product
        ``scale * (U[:, :k] * S) @ V*[:k, :]``: on the native kernel each
        mesh propagates just ``k`` basis vectors
        (:meth:`~repro.photonics.mzi_mesh.MeshDecomposition.leading_columns`,
        :meth:`~repro.photonics.mzi_mesh.MeshDecomposition.leading_rows`).
        For trials-batched meshes the result gains the leading trials axes.
        """
        k = min(self.rows, self.cols)
        columns = self.left_mesh.leading_columns(k)
        rows = self.right_mesh.leading_rows(k)
        return self.scale * ((columns * self.singular_values) @ rows)

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

    def degraded(self, noise: Optional[Any] = None,
                 quantization_bits: Optional[int] = None,
                 trials: Optional[int] = None) -> "PhotonicMatrix":
        """A copy whose meshes carry phase quantization and/or phase noise.

        Each mesh is quantized to ``quantization_bits`` first and then
        perturbed by ``noise`` (a
        :class:`~repro.photonics.noise.PhaseNoiseModel` or a hardware
        scenario: anything with ``perturb(mesh, trials=...)``), the left mesh
        before the right, so a seeded model draws in a fixed order.
        ``trials`` draws that many independent realizations at once: the
        copy's meshes are trials-batched and its outputs gain a leading
        trials axis.
        """
        if trials is not None and noise is None:
            raise ValueError("trials requires a PhaseNoiseModel")

        def degrade(mesh: MeshDecomposition) -> MeshDecomposition:
            if quantization_bits is not None:
                mesh = quantize_phases(mesh, quantization_bits)
            if noise is not None:
                mesh = noise.perturb(mesh, trials=trials)
            return mesh

        return PhotonicMatrix(
            rows=self.rows, cols=self.cols,
            left_mesh=degrade(self.left_mesh), right_mesh=degrade(self.right_mesh),
            singular_values=self.singular_values.copy(), scale=self.scale)

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


def _svd_factors_many(weights: Sequence[np.ndarray], normalize: bool) -> List[tuple]:
    """SVD-factor many weights, one ``np.linalg.svd`` call per shape.

    ``np.linalg.svd`` is a gufunc: a group of same-shape weights stacked
    along a leading axis factors in one batched call (same LAPACK routine
    per slice, so the factors match a per-matrix call; the parity tests pin
    this).  A group of one is a stack of one.  The returned list is
    index-aligned with ``weights``.
    """
    arrays = [np.asarray(weight, dtype=complex) for weight in weights]
    for index, array in enumerate(arrays):
        if array.ndim != 2 or 0 in array.shape:
            raise ValueError(f"weight {index} has shape {array.shape}; "
                             "svd_decompose_many expects non-empty 2-D matrices")
    by_shape: Dict[Tuple[int, int], List[int]] = {}
    for index, array in enumerate(arrays):
        by_shape.setdefault(array.shape, []).append(index)
    factored: List[Optional[tuple]] = [None] * len(arrays)
    for shape, indices in by_shape.items():
        stack = np.stack([arrays[index] for index in indices])
        lefts, stacked_values, rights = np.linalg.svd(stack, full_matrices=True)
        for position, index in enumerate(indices):
            singular_values, scale = _normalized(stacked_values[position], normalize)
            factored[index] = (shape, lefts[position], rights[position],
                               singular_values, scale)
    return factored


def svd_decompose(weight: np.ndarray, method: str = "clements",
                  normalize: bool = True) -> PhotonicMatrix:
    """Map one weight matrix onto a photonic circuit via SVD.

    :func:`svd_decompose_many` of a list of one; see there for the
    parameters.
    """
    return svd_decompose_many([weight], method=method, normalize=normalize)[0]


def svd_decompose_many(weights: Sequence[np.ndarray], method: str = "clements",
                       normalize: bool = True) -> List[PhotonicMatrix]:
    """Map weight matrices onto photonic circuits via SVD, in batched passes.

    The SVDs of same-shape weights run as one stacked ``np.linalg.svd`` call
    (:func:`_svd_factors_many`), and the resulting unitaries are grouped by
    dimension, each group decomposed as one Reck/Clements stack
    (:func:`~repro.photonics.mzi_mesh.decompose_unitary_stack`); groups of
    one are stacks of one.  The returned list is index-aligned with
    ``weights``.

    Parameters
    ----------
    weights:
        Real or complex matrices of shape ``(m, n)`` with ``m, n >= 1``.
    method:
        Mesh decomposition method for the unitaries (``"clements"`` or
        ``"reck"``).
    normalize:
        If True, scale the singular values so the largest attenuator
        transmission is 1 (physically realisable); the scale factor is stored
        in :attr:`PhotonicMatrix.scale`.
    """
    _count_decompositions(len(weights))
    factored = _svd_factors_many(weights, normalize)
    # group the unitaries of every weight by dimension: (weight index, side)
    groups: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
    for index, (_shape, left, right, _sv, _scale) in enumerate(factored):
        for side, unitary in enumerate((left, right)):
            groups.setdefault(unitary.shape[0], []).append((index, side, unitary))
    meshes: Dict[Tuple[int, int], MeshDecomposition] = {}
    for members in groups.values():
        stack = np.stack([unitary for _index, _side, unitary in members])
        decomposed = decompose_unitary_stack(stack, method=method)
        for (index, side, _unitary), mesh in zip(members, decomposed):
            meshes[index, side] = mesh
    return [_assemble(rows, cols, meshes[index, 0], meshes[index, 1],
                      singular_values, scale)
            for index, ((rows, cols), _left, _right, singular_values, scale)
            in enumerate(factored)]
