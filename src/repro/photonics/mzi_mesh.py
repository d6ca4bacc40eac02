"""Decomposition of arbitrary unitaries into meshes of physical MZIs.

Two mesh topologies are provided:

* **Reck** (triangular) -- the scheme of Reck et al. 1994 used by the original
  coherent ONN [10]: elements are nulled row by row with column operations,
  yielding ``U = D * M_K * ... * M_1`` where each ``M_k`` is a physical MZI
  (Eq. 1) acting on two adjacent modes and ``D`` is a column of output phase
  shifters.
* **Clements** (rectangular) -- the scheme of Clements et al. 2016: elements
  are nulled alternately with column and row operations; the leftover diagonal
  is commuted through the row operations so the final form is identical
  (``U = D * product of MZIs``) but the mesh has half the optical depth.

Both use exactly ``n (n - 1) / 2`` MZIs for an ``n x n`` unitary, which is the
count the paper's area model builds on.

Phases are stored structure-of-arrays (``modes``, ``thetas``, ``phis``) and
propagation runs through the compiled column engine of
:mod:`repro.photonics.engine`; :class:`MZISetting` remains as a per-MZI view
for code that walks the mesh device by device.

There is one implementation of each scheme, and it works on a *stack* of
same-size unitaries: :func:`reck_decompose_stack` /
:func:`clements_decompose_stack` vectorize every nulling operation over a
leading matrix axis, which is how the compiler decomposes all same-size SVD
factors of a model (e.g. every conv-kernel matrix of a ResNet stage) in one
pass.  :func:`reck_decompose`, :func:`clements_decompose` and
:func:`decompose_unitary` are the same paths on a stack of one.  Reck packs
its nulling operations into wavefronts of disjoint mode pairs (the greedy
schedule the engine uses for propagation).  The Clements nulling chain is
sequential per matrix: it runs in the native kernel of
:mod:`repro.photonics._native` when one is loaded, together with the push
phase that commutes the left ops through the output phase screen, otherwise
in numpy, per matrix below :data:`BATCHED_CHAIN_MIN_STACK` matrices and
batched over the stack from there up.  The original scalar nulling loops
are kept as ``reck_decompose_reference`` / ``clements_decompose_reference`` --
executable specifications the test-suite pins the stack paths against to
1e-10.

Execution policy is a fact about the mesh, not an option: an unbatched mesh
applies its cached dense matrix, and a trials-batched mesh (a noise
ensemble) runs the numpy column program of :mod:`repro.photonics.engine`.
Dense matrices are built by propagating the identity through the native
kernel of :mod:`repro.photonics._native` when it is loaded, and through
:func:`engine.dense_transfer` otherwise;
:meth:`MeshDecomposition.leading_columns` and
:meth:`~MeshDecomposition.leading_rows` propagate only the basis vectors an
SVD factor's singular values keep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.photonics import engine
from repro.photonics.components import mzi_transfer


def is_unitary(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """Check whether ``matrix`` is unitary within ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def random_unitary(n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Draw a Haar-random ``n x n`` unitary matrix (QR of a complex Ginibre matrix).

    Pass a seeded generator for reproducible draws; with ``rng=None`` a fresh
    ``default_rng()`` is used, so repeated calls give independent unitaries.
    """
    if n <= 0:
        raise ValueError("dimension must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    ginibre = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(ginibre)
    # fix the phases so the distribution is Haar
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases[None, :]


@dataclass
class MZISetting:
    """Phase settings of one MZI in a mesh.

    Attributes
    ----------
    mode:
        Index of the upper of the two adjacent modes the MZI couples.
    theta:
        Internal phase shift (splitting control).
    phi:
        Input phase shift (relative-phase control).
    """

    mode: int
    theta: float
    phi: float

    def transfer_matrix(self) -> np.ndarray:
        return mzi_transfer(self.theta, self.phi)


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _frozen(array, dtype) -> np.ndarray:
    """Coerce to a read-only array, copying only when the input is writable.

    Already-frozen arrays (e.g. shared between meshes by ``with_phases``) are
    aliased rather than copied, so topologies and unchanged phase planes are
    shared across noise/quantization copies.
    """
    array = np.asarray(array, dtype=dtype)
    if array.flags.writeable:
        array = _readonly(array.copy())
    return array


class MeshDecomposition:
    """A unitary expressed as output phases applied after a chain of MZIs.

    ``reconstruct()`` returns ``diag(output_phases) @ M_last @ ... @ M_first``
    where the MZI at index 0 is applied first to an input vector.

    Phases are stored as structure-of-arrays: ``modes`` (int), ``thetas`` and
    ``phis`` (float) hold one entry per MZI in application order.  ``thetas``,
    ``phis`` and ``output_phases`` may carry a leading *trials* axis so an
    ensemble of phase realizations (e.g. Monte-Carlo noise draws) shares one
    topology and propagates in a single vectorized pass.

    The arrays are exposed read-only; mutate phases through
    :meth:`update_phases` (in place, invalidates the cached dense transfer
    matrix) or :meth:`with_phases` (returns a new mesh sharing the topology).

    :meth:`apply` runs an unbatched mesh, of any size, as one matmul with
    the cached dense matrix and a trials-batched mesh on the compiled numpy
    column program (see :meth:`uses_dense_path`).
    """

    def __init__(self, dimension: int,
                 settings: Optional[Sequence[MZISetting]] = None,
                 output_phases: Optional[np.ndarray] = None,
                 method: str = "reck",
                 modes: Optional[np.ndarray] = None,
                 thetas: Optional[np.ndarray] = None,
                 phis: Optional[np.ndarray] = None):
        self.dimension = int(dimension)
        self.method = method
        if settings is not None:
            if modes is not None or thetas is not None or phis is not None:
                raise ValueError("pass either settings or modes/thetas/phis, not both")
            modes = np.array([s.mode for s in settings], dtype=np.intp)
            thetas = np.array([s.theta for s in settings], dtype=float)
            phis = np.array([s.phi for s in settings], dtype=float)
        self._modes = _frozen([] if modes is None else modes, np.intp)
        if self._modes.ndim != 1:
            raise ValueError("modes must be a 1-D array of upper mode indices")
        self._thetas = _frozen([] if thetas is None else thetas, float)
        self._phis = _frozen([] if phis is None else phis, float)
        if self._thetas.shape[-1:] != self._modes.shape or self._phis.shape[-1:] != self._modes.shape:
            raise ValueError("thetas/phis must have one trailing entry per MZI")
        if output_phases is None:
            output_phases = np.ones(self.dimension, dtype=complex)
        self._output_phases = _frozen(output_phases, complex)
        if self._output_phases.shape[-1] != self.dimension:
            raise ValueError(f"output_phases must have trailing length {self.dimension}")
        # leading trials axes of the three phase arrays must broadcast together
        self._trial_shape = np.broadcast_shapes(
            self._thetas.shape[:-1], self._phis.shape[:-1], self._output_phases.shape[:-1])
        self._program: Optional[engine.MeshProgram] = None
        self._dense_cache: Dict[float, np.ndarray] = {}
        self._settings_cache: Optional[List[MZISetting]] = None
        self._phase_version = 0

    # ------------------------------------------------------------------ #
    # structure-of-arrays access
    # ------------------------------------------------------------------ #
    @property
    def modes(self) -> np.ndarray:
        """Upper mode index of each MZI, in application order (read-only)."""
        return self._modes

    @property
    def thetas(self) -> np.ndarray:
        """Internal phases, shape ``(*trials, n_mzi)`` (read-only)."""
        return self._thetas

    @property
    def phis(self) -> np.ndarray:
        """Input phases, shape ``(*trials, n_mzi)`` (read-only)."""
        return self._phis

    @property
    def output_phases(self) -> np.ndarray:
        """Output phase screen, shape ``(*trials, dimension)`` (read-only)."""
        return self._output_phases

    @property
    def trial_shape(self) -> Tuple[int, ...]:
        """Leading trials axes shared by the phase arrays (``()`` if none)."""
        return self._trial_shape

    @property
    def is_batched(self) -> bool:
        """True when the phases carry a leading trials axis."""
        return bool(self._trial_shape)

    @property
    def phase_version(self) -> int:
        """Counter bumped by every :meth:`update_phases` call.

        Callers that bake this mesh's phases into derived state (the plan
        runtime's eager dense matrices) record the version at bake time and
        rebuild when it moves.
        """
        return self._phase_version

    @property
    def settings(self) -> List[MZISetting]:
        """Per-MZI view of the phase arrays (unbatched meshes only)."""
        if self.is_batched:
            raise ValueError("a trials-batched mesh has no single per-MZI settings; "
                             "index the thetas/phis arrays instead")
        if self._settings_cache is None:
            self._settings_cache = [
                MZISetting(mode=int(m), theta=float(t), phi=float(p))
                for m, t, p in zip(self._modes, self._thetas, self._phis)
            ]
        return self._settings_cache

    # ------------------------------------------------------------------ #
    # counts
    # ------------------------------------------------------------------ #
    @property
    def mzi_count(self) -> int:
        return int(self._modes.size)

    @property
    def phase_shifter_count(self) -> int:
        """Tunable phase shifters: two per MZI plus the output phase screen."""
        return 2 * self.mzi_count + self.dimension

    @property
    def optical_depth(self) -> int:
        """Columns of simultaneously applied MZIs after compilation."""
        return self.compiled().depth

    # ------------------------------------------------------------------ #
    # compiled engine plumbing
    # ------------------------------------------------------------------ #
    def compiled(self) -> engine.MeshProgram:
        """Column schedule of this mesh (cached; depends only on the topology)."""
        if self._program is None:
            self._program = engine.column_schedule(self._modes, self.dimension)
        return self._program

    def _dense_matrix(self, insertion_loss_db: float) -> np.ndarray:
        key = float(insertion_loss_db)
        matrix = self._dense_cache.get(key)
        if matrix is None:
            matrix = self.reconstruct(key)
            self._dense_cache[key] = matrix
        return matrix

    def update_phases(self, thetas: Optional[np.ndarray] = None,
                      phis: Optional[np.ndarray] = None,
                      output_phases: Optional[np.ndarray] = None) -> None:
        """Replace phase arrays in place and invalidate the cached transfer matrix."""
        if thetas is not None:
            thetas = _frozen(thetas, float)
            if thetas.shape[-1:] != self._modes.shape:
                raise ValueError("thetas must have one trailing entry per MZI")
            self._thetas = thetas
        if phis is not None:
            phis = _frozen(phis, float)
            if phis.shape[-1:] != self._modes.shape:
                raise ValueError("phis must have one trailing entry per MZI")
            self._phis = phis
        if output_phases is not None:
            output_phases = _frozen(output_phases, complex)
            if output_phases.shape[-1] != self.dimension:
                raise ValueError(f"output_phases must have trailing length {self.dimension}")
            self._output_phases = output_phases
        self._trial_shape = np.broadcast_shapes(
            self._thetas.shape[:-1], self._phis.shape[:-1], self._output_phases.shape[:-1])
        self._dense_cache.clear()
        self._settings_cache = None
        self._phase_version += 1

    def with_phases(self, thetas: Optional[np.ndarray] = None,
                    phis: Optional[np.ndarray] = None,
                    output_phases: Optional[np.ndarray] = None) -> "MeshDecomposition":
        """A new mesh sharing this topology, with some phase arrays replaced."""
        mesh = MeshDecomposition(
            dimension=self.dimension, method=self.method, modes=self._modes,
            thetas=self._thetas if thetas is None else thetas,
            phis=self._phis if phis is None else phis,
            output_phases=self._output_phases if output_phases is None else output_phases,
        )
        mesh._program = self._program  # the column schedule depends only on modes
        return mesh

    # ------------------------------------------------------------------ #
    # dense reconstruction and propagation
    # ------------------------------------------------------------------ #
    def embed(self, setting: MZISetting) -> np.ndarray:
        """Embed a single MZI into the full ``dimension x dimension`` space."""
        full = np.eye(self.dimension, dtype=complex)
        block = setting.transfer_matrix()
        m = setting.mode
        full[m:m + 2, m:m + 2] = block
        return full

    def _native_basis_walk(self, k: int, insertion_loss_db: float = 0.0,
                           transpose: bool = False) -> Optional[np.ndarray]:
        """Basis vectors ``e_0 .. e_{k-1}`` walked through the native kernel.

        Row ``i`` of the ``(k, dimension)`` result is ``U @ e_i`` (column
        ``i`` of ``U``), or row ``i`` of ``U`` with ``transpose``.  None when
        the kernel is not loaded or the phases are trials-batched.
        """
        basis = np.eye(k, self.dimension, dtype=complex)
        return engine.native_propagate(
            self._modes, basis, self._thetas, self._phis, self._output_phases,
            insertion_loss_db=insertion_loss_db, out=basis, transpose=transpose)

    def reconstruct(self, insertion_loss_db: float = 0.0) -> np.ndarray:
        """Multiply out the mesh into a dense unitary matrix.

        The identity is propagated through the mesh: through the native
        kernel when it is loaded and the phases are unbatched (one C call;
        row ``i`` of the result is ``U @ e_i``), otherwise through
        :func:`engine.dense_transfer`, which stays the oracle.  Returns
        ``(dimension, dimension)``, or ``(*trials, dimension, dimension)``
        for a trials-batched mesh.
        """
        columns = self._native_basis_walk(self.dimension, insertion_loss_db)
        if columns is None:
            return engine.dense_transfer(self.compiled(), self._thetas, self._phis,
                                         self._output_phases,
                                         insertion_loss_db=insertion_loss_db)
        return columns.T

    def leading_columns(self, k: int) -> np.ndarray:
        """The first ``k`` columns of the unitary, ``reconstruct()[..., :, :k]``.

        On the native kernel only ``k`` basis vectors are propagated; without
        it, or for a trials-batched mesh, the full :meth:`reconstruct` is
        sliced.
        """
        columns = self._native_basis_walk(k)
        return self.reconstruct()[..., :, :k] if columns is None else columns.T

    def leading_rows(self, k: int) -> np.ndarray:
        """The first ``k`` rows of the unitary, ``reconstruct()[..., :k, :]``.

        On the native kernel ``k`` basis vectors walk the transposed mesh;
        without it, or for a trials-batched mesh, the full :meth:`reconstruct`
        is sliced.
        """
        rows = self._native_basis_walk(k, transpose=True)
        return self.reconstruct()[..., :k, :] if rows is None else rows

    def uses_dense_path(self) -> bool:
        """Whether :meth:`apply` executes through the cached dense matrix.

        True for every unbatched mesh, whatever its size; a trials-batched
        mesh runs the column program instead.  The plan compiler consults
        this to decide which stages it folds into eager dense matrices.
        """
        return not self.is_batched

    def apply(self, vector: np.ndarray, insertion_loss_db: float = 0.0,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """Propagate complex input amplitudes through the mesh (batch-aware).

        ``vector`` may be ``(dimension,)``, ``(batch, dimension)`` or carry
        leading trials axes ``(*trials, batch, dimension)``.  For a
        trials-batched mesh the result gains the mesh's trials axes: trial
        ``t`` of the input (broadcast if the input has none) propagates
        through phase realization ``t``.

        Parameters
        ----------
        insertion_loss_db:
            Optional per-MZI insertion loss in dB (power).  Each MZI a signal
            traverses multiplies its amplitude by ``10**(-IL/20)``, modelling
            waveguide/coupler losses; 0 dB (default) keeps the mesh lossless.
        out:
            Optional preallocated complex result buffer.  The column path
            propagates in it (it may alias the input -- the engine copies the
            states in first); the dense path only uses it when it does *not*
            alias the input (matmul forbids overlap).  An incompatible or
            unusable buffer is ignored.
        """
        if insertion_loss_db < 0:
            raise ValueError("insertion_loss_db must be non-negative")
        vector = np.asarray(vector, dtype=complex)
        single = vector.ndim == 1
        states = vector[None, :] if single else vector
        if states.shape[-1] != self.dimension:
            raise ValueError(f"expected vectors of length {self.dimension}, got {states.shape[-1]}")
        if self.uses_dense_path():
            dense = self._dense_matrix(insertion_loss_db)
            matmul_out = (out if out is not None and out.shape == states.shape
                          and out.dtype == np.complex128 and out.flags.writeable
                          and not np.may_share_memory(out, states) else None)
            outputs = engine.apply_dense(states, dense, out=matmul_out)
        else:
            outputs = engine.propagate(self.compiled(), states, self._thetas,
                                       self._phis, self._output_phases,
                                       insertion_loss_db=insertion_loss_db,
                                       out=None if single else out)
        return outputs[..., 0, :] if single else outputs

    def total_phase_power_mw(self) -> float:
        """Static power of every tunable phase shifter in the mesh.

        Returns a float, or an array over the trials axes for a batched mesh.
        """
        from repro.photonics.components import phase_shifter_power_mw

        angles = np.concatenate([
            np.broadcast_to(self._thetas, self._trial_shape + self._thetas.shape[-1:]),
            np.broadcast_to(self._phis, self._trial_shape + self._phis.shape[-1:]),
            np.broadcast_to(np.angle(self._output_phases),
                            self._trial_shape + (self.dimension,)),
        ], axis=-1)
        power = phase_shifter_power_mw(angles).sum(axis=-1)
        return float(power) if not self.is_batched else power


# --------------------------------------------------------------------------- #
# nulling parameter solvers
# --------------------------------------------------------------------------- #
#: pivot cells at or below this magnitude are treated as optically dark when
#: solving nulling parameters: the MZI is parked at a deterministic setting
#: instead of amplifying floating-point residue (the phase of a ~1e-17 cell)
#: into an arbitrary phase.  Without the clamp, phases inside dark subspaces
#: -- e.g. the null-space completion rows of an SVD factor of a non-square
#: weight -- are reproducible only up to accumulation noise, even though the
#: reconstruction is exact either way.
NULL_TOLERANCE = 1e-12


def _solve_right_null(a: complex, b: complex) -> Tuple[float, float]:
    """Parameters of the MZI ``M`` such that right-multiplying by ``M``-dagger
    on columns ``(m, m+1)`` nulls the entry whose current row values are
    ``a = U[row, m]`` and ``b = U[row, m+1]``."""
    a_abs = abs(a) if abs(a) > NULL_TOLERANCE else 0.0
    b_abs = abs(b) if abs(b) > NULL_TOLERANCE else 0.0
    theta = 2.0 * math.atan2(b_abs, a_abs)
    phi = -float(np.angle(-b * np.conj(a))) if a_abs > 0 and b_abs > 0 else 0.0
    return theta, phi


def _solve_left_null(a: complex, b: complex) -> Tuple[float, float]:
    """Parameters of the MZI ``M`` such that left-multiplying by ``M`` on rows
    ``(row-1, row)`` nulls the entry whose current column values are
    ``a = U[row-1, col]`` and ``b = U[row, col]``."""
    a_abs = abs(a) if abs(a) > NULL_TOLERANCE else 0.0
    b_abs = abs(b) if abs(b) > NULL_TOLERANCE else 0.0
    theta = 2.0 * math.atan2(a_abs, b_abs)
    phi = float(np.angle(b * np.conj(a))) if a_abs > 0 and b_abs > 0 else 0.0
    return theta, phi


def _embed_pair(n: int, mode: int, block: np.ndarray) -> np.ndarray:
    full = np.eye(n, dtype=complex)
    full[mode:mode + 2, mode:mode + 2] = block
    return full


def _refactor_phase_mzi(block: np.ndarray) -> Tuple[complex, complex, float, float]:
    """Factor a 2x2 unitary ``A`` as ``diag(d0, d1) @ M(theta, phi)``.

    Used to commute leftover row operations through the output phase screen in
    the Clements decomposition.
    """
    a00, a01 = block[0, 0], block[0, 1]
    theta = 2.0 * math.atan2(abs(a00), abs(a01))
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    if s > 1e-12 and c > 1e-12:
        phi = float(np.angle(a00) - np.angle(a01))
    else:
        phi = 0.0
    mzi = mzi_transfer(theta, phi)
    d0 = block[0, 1] / mzi[0, 1] if abs(mzi[0, 1]) > 1e-12 else block[0, 0] / mzi[0, 0]
    d1 = block[1, 0] / mzi[1, 0] if abs(mzi[1, 0]) > 1e-12 else block[1, 1] / mzi[1, 1]
    return d0, d1, theta, phi


# --------------------------------------------------------------------------- #
# decompositions
# --------------------------------------------------------------------------- #
def _check_unitary_input(unitary: np.ndarray) -> np.ndarray:
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.ndim != 2 or unitary.shape[0] != unitary.shape[1]:
        raise ValueError("decomposition requires a square matrix")
    if not is_unitary(unitary, atol=1e-6):
        raise ValueError("matrix is not unitary; map general matrices via svd_decompose()")
    return unitary


def reck_decompose_reference(unitary: np.ndarray) -> MeshDecomposition:
    """Scalar (per-element) Reck nulling loop, kept as an executable spec.

    The seed algorithm -- one Python iteration and one full ``n x n`` matrix
    product per nulled element -- with the shared dark-cell clamp of the
    nulling solvers (see :data:`NULL_TOLERANCE`).  :func:`reck_decompose`
    must agree with it to 1e-10; use it only as a reference.
    """
    unitary = _check_unitary_input(unitary)
    n = unitary.shape[0]
    work = unitary.copy()
    settings: List[MZISetting] = []
    for row in range(n - 1, 0, -1):
        for m in range(0, row):
            a, b = work[row, m], work[row, m + 1]
            theta, phi = _solve_right_null(a, b)
            mzi = mzi_transfer(theta, phi)
            work = work @ _embed_pair(n, m, mzi.conj().T)
            settings.append(MZISetting(mode=m, theta=theta, phi=phi))
    output_phases = np.diag(work).copy()
    return MeshDecomposition(dimension=n, settings=settings,
                             output_phases=output_phases, method="reck")


def clements_decompose_reference(unitary: np.ndarray) -> MeshDecomposition:
    """Scalar (per-element) Clements nulling loop, kept as an executable spec.

    The seed algorithm with the shared dark-cell clamp of the nulling solvers
    (see :data:`NULL_TOLERANCE`); :func:`clements_decompose` must agree with
    it to 1e-10.  Use it only as a reference.
    """
    unitary = _check_unitary_input(unitary)
    n = unitary.shape[0]
    work = unitary.copy()
    right_settings: List[MZISetting] = []   # recorded in application order
    left_settings: List[MZISetting] = []    # recorded in application order

    for i in range(n - 1):
        if i % 2 == 0:
            # null along the anti-diagonal with column (right) operations
            for j in range(i + 1):
                row, col = n - 1 - j, i - j
                a, b = work[row, col], work[row, col + 1]
                theta, phi = _solve_right_null(a, b)
                mzi = mzi_transfer(theta, phi)
                work = work @ _embed_pair(n, col, mzi.conj().T)
                right_settings.append(MZISetting(mode=col, theta=theta, phi=phi))
        else:
            # null along the anti-diagonal with row (left) operations
            for j in range(i + 1):
                row, col = n - 1 - i + j, j
                a, b = work[row - 1, col], work[row, col]
                theta, phi = _solve_left_null(a, b)
                mzi = mzi_transfer(theta, phi)
                work = _embed_pair(n, row - 1, mzi) @ work
                left_settings.append(MZISetting(mode=row - 1, theta=theta, phi=phi))

    diagonal = np.diag(work).copy()

    # U = L_1^{-1} ... L_q^{-1} D M_p ... M_1  with L/M physical MZIs.  Commute
    # each L_k^{-1} through the diagonal so the final expression is
    # D' * (physical MZI chain).
    pushed: List[MZISetting] = []
    for setting in reversed(left_settings):
        m = setting.mode
        inverse_block = setting.transfer_matrix().conj().T
        block = inverse_block @ np.diag(diagonal[m:m + 2])
        d0, d1, theta, phi = _refactor_phase_mzi(block)
        diagonal[m] = d0
        diagonal[m + 1] = d1
        pushed.insert(0, MZISetting(mode=m, theta=theta, phi=phi))

    # Application order: right-op MZIs first (rightmost in the product), then
    # the pushed left-op MZIs.
    settings = list(right_settings) + list(reversed(pushed))
    return MeshDecomposition(dimension=n, settings=settings,
                             output_phases=diagonal, method="clements")


# --------------------------------------------------------------------------- #
# vectorized decompositions
# --------------------------------------------------------------------------- #
def _solve_right_null_vec(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_solve_right_null` over arrays of (a, b) pairs."""
    a_abs = np.abs(a)
    b_abs = np.abs(b)
    a_abs = np.where(a_abs > NULL_TOLERANCE, a_abs, 0.0)
    b_abs = np.where(b_abs > NULL_TOLERANCE, b_abs, 0.0)
    theta = 2.0 * np.arctan2(b_abs, a_abs)
    phi = np.where((a_abs > 0) & (b_abs > 0), -np.angle(-b * np.conj(a)), 0.0)
    return theta, phi


def _apply_right_columns(work: np.ndarray, tops: np.ndarray,
                         thetas: np.ndarray, phis: np.ndarray) -> None:
    """Right-multiply ``work`` by ``M(theta, phi)``-dagger on disjoint column pairs.

    Every pair ``(tops[k], tops[k] + 1)`` is updated in place with one gather
    and one fused 2x2 complex multiply -- the array-level form of the
    per-element ``work @ embed(m, M.conj().T)``.  ``work`` may carry a leading
    stack axis ``(..., n, n)``; ``thetas``/``phis`` then have the matching
    shape ``(..., k)`` and every matrix of the stack is updated at once.
    """
    t00, t01, t10, t11 = engine.mzi_block_coefficients(thetas, phis)
    # insert the row axis so per-pair coefficients broadcast over (..., n, k)
    t00, t01 = t00[..., None, :], t01[..., None, :]
    t10, t11 = t10[..., None, :], t11[..., None, :]
    upper = work[..., tops]
    lower = work[..., tops + 1]
    work[..., tops] = upper * np.conj(t00) + lower * np.conj(t01)
    work[..., tops + 1] = upper * np.conj(t10) + lower * np.conj(t11)


@lru_cache(maxsize=128)
def _reck_oplist(n: int):
    """Nulling op list and wavefront schedule of the Reck scheme (topology only).

    Element ``(row, m)`` is nulled with a column operation on modes
    ``(m, m + 1)``; two ops conflict exactly when their column pairs overlap,
    so the engine's greedy column scheduler doubles as a dependency-preserving
    wavefront schedule.  Cached per dimension: deploying a stack of same-size
    matrices (e.g. conv im2col kernels) pays for the schedule once.
    """
    lengths = np.arange(n - 1, 0, -1)
    op_rows = np.repeat(lengths, lengths)
    op_cols = (np.concatenate([np.arange(row) for row in lengths])
               if n > 1 else np.empty(0, dtype=np.intp))
    op_rows.flags.writeable = False
    op_cols.flags.writeable = False
    return op_rows, op_cols, engine.column_schedule(op_cols, n)


def _reck_nulling(work: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Wavefront-nulling core of the Reck scheme on a ``(count, n, n)`` stack.

    ``work`` is mutated in place; the returned ``thetas``, ``phis`` and
    ``output_phases`` carry its leading stack axis (``modes`` is shared).
    """
    n = work.shape[-1]
    op_rows, op_cols, schedule = _reck_oplist(n)
    thetas = np.empty(work.shape[:-2] + (op_cols.size,), dtype=float)
    phis = np.empty_like(thetas)
    for indices, tops, _bottoms in schedule.columns:
        rows = op_rows[indices]
        theta, phi = _solve_right_null_vec(work[..., rows, tops],
                                           work[..., rows, tops + 1])
        _apply_right_columns(work, tops, theta, phi)
        thetas[..., indices] = theta
        phis[..., indices] = phi
    output_phases = np.diagonal(work, axis1=-2, axis2=-1).copy()
    return op_cols, thetas, phis, output_phases


class _ClementsOps(NamedTuple):
    """Topology of the Clements scheme at one dimension (see :func:`_clements_oplist`)."""

    is_left: np.ndarray       # per nulling op: row (left) or column (right) pair
    op_modes: np.ndarray      # per nulling op: upper mode of the pair
    op_pivots: np.ndarray     # per nulling op: pivot row (right) / column (left)
    right_ops: np.ndarray     # nulling-op indices of the right ops, recording order
    push_ops: np.ndarray      # nulling-op indices of the left ops, reversed
    modes: np.ndarray         # upper mode of every mesh MZI, application order
    push_schedule: engine.MeshProgram   # push-phase wavefronts over push_ops


@lru_cache(maxsize=128)
def _clements_oplist(n: int) -> _ClementsOps:
    """Nulling op list of the Clements scheme plus the push-phase schedule.

    Unlike Reck, the anti-diagonal nulling ops form one sequential dependency
    chain -- every op's pivot cells were written by its predecessor (the last
    op of each diagonal writes the pivot row/column the next diagonal starts
    from), so there is no intra-matrix wavefront parallelism to exploit.  The
    final commutation of the left ops through the output phase screen only
    touches diagonal pairs, so *that* phase wavefront-vectorizes over disjoint
    modes.  The mesh applies the right ops in recording order, then the
    pushed left ops in reversed recording order.  Cached per dimension.
    """
    is_left: List[bool] = []
    op_modes: List[int] = []
    op_pivots: List[int] = []
    for i in range(n - 1):
        if i % 2 == 0:
            for j in range(i + 1):
                is_left.append(False)
                op_modes.append(i - j)          # column pair (col, col + 1)
                op_pivots.append(n - 1 - j)     # pivot row
        else:
            for j in range(i + 1):
                is_left.append(True)
                op_modes.append(n - 2 - i + j)  # row pair (row - 1, row)
                op_pivots.append(j)             # pivot column
    is_left_arr = np.array(is_left, dtype=bool)
    modes_arr = np.array(op_modes, dtype=np.intp)
    pivots_arr = np.array(op_pivots, dtype=np.intp)
    right_ops = np.flatnonzero(~is_left_arr)
    # push phase: reversed left ops, conflicting only on diagonal-pair overlap
    push_ops = np.flatnonzero(is_left_arr)[::-1].copy()
    push_modes = modes_arr[push_ops]
    modes = np.concatenate([modes_arr[right_ops], push_modes])
    for array in (is_left_arr, modes_arr, pivots_arr, right_ops, push_ops, modes):
        array.flags.writeable = False
    return _ClementsOps(is_left_arr, modes_arr, pivots_arr, right_ops, push_ops,
                        modes, engine.column_schedule(push_modes, n))


def _refactor_phase_mzi_vec(left_thetas: np.ndarray, left_phis: np.ndarray,
                            d0: np.ndarray, d1: np.ndarray):
    """Vectorized :func:`_refactor_phase_mzi` of ``A = L-dagger @ diag(d0, d1)``.

    With ``x = |a00|``, ``y = |a01|`` and ``r = hypot(x, y)`` the factor
    ``M(theta, phi)`` has ``theta = 2 atan2(x, y)``, so
    ``sin(theta / 2) = x / r``, ``cos(theta / 2) = y / r`` and
    ``e^{i phi} = (a00 / x) conj(a01 / y)``: its entries follow without
    further trig.  The native push phase evaluates the same closed forms.
    """
    l00, l01, l10, l11 = engine.mzi_block_coefficients(left_thetas, left_phis)
    a00, a01 = np.conj(l00) * d0, np.conj(l10) * d1
    a10, a11 = np.conj(l01) * d0, np.conj(l11) * d1
    x, y = np.abs(a00), np.abs(a01)
    r = np.hypot(x, y)
    theta = 2.0 * np.arctan2(x, y)
    sin_half, cos_half = x / r, y / r
    mixed = (sin_half > 1e-12) & (cos_half > 1e-12)
    phi = np.where(mixed, np.angle(a00) - np.angle(a01), 0.0)
    e_phi = np.where(mixed, np.conj(a01 / np.where(mixed, y, 1.0))
                     * (a00 / np.where(mixed, x, 1.0)), 1.0)
    # with h = e^{i theta/2}: m01 = i cos h, m10 = m01 e^{i phi},
    # m00 = i sin h e^{i phi}, m11 = -i sin h.  |m01| = |m10| = cos(theta/2),
    # and a 2x2 unitary row never has both entries tiny, so the selected
    # denominator is always well conditioned
    m01 = (-cos_half * sin_half) + 1j * (cos_half * cos_half)
    m00 = ((-sin_half * sin_half) + 1j * (sin_half * cos_half)) * e_phi
    m11 = (sin_half * sin_half) + 1j * (-sin_half * cos_half)
    use_01 = cos_half > 1e-12
    new_d0 = np.where(use_01, a01, a00) / np.where(use_01, m01, m00)
    new_d1 = np.where(use_01, a10, a11) / np.where(use_01, m01 * e_phi, m11)
    return new_d0, new_d1, theta, phi


def _clements_finalize(work: np.ndarray, ops: _ClementsOps, thetas: np.ndarray,
                       phis: np.ndarray):
    """Push phase + application-order assembly of the numpy Clements chains.

    The no-kernel tail of :func:`clements_decompose_stack` (the native
    kernel runs the same push in C, in the call that runs the chain):
    commute every left op through the output phase screen in wavefronts of
    disjoint diagonal pairs, then assemble the physical-MZI phases in
    application order (``ops.modes``).  ``thetas``/``phis`` are in nulling-op
    order and carry the leading stack axis of ``work``; the returned
    ``(thetas, phis, output_phases)`` carry it too.
    """
    diagonal = np.diagonal(work, axis1=-2, axis2=-1).copy()
    pushed_thetas = np.empty(thetas.shape[:-1] + (ops.push_ops.size,), dtype=float)
    pushed_phis = np.empty_like(pushed_thetas)
    for indices, tops, _bottoms in ops.push_schedule.columns:
        push = ops.push_ops[indices]
        new_d0, new_d1, theta, phi = _refactor_phase_mzi_vec(
            thetas[..., push], phis[..., push],
            diagonal[..., tops], diagonal[..., tops + 1])
        diagonal[..., tops] = new_d0
        diagonal[..., tops + 1] = new_d1
        pushed_thetas[..., indices] = theta
        pushed_phis[..., indices] = phi
    all_thetas = np.concatenate([thetas[..., ops.right_ops], pushed_thetas], axis=-1)
    all_phis = np.concatenate([phis[..., ops.right_ops], pushed_phis], axis=-1)
    return all_thetas, all_phis, diagonal


# --------------------------------------------------------------------------- #
# numpy Clements nulling chains
# --------------------------------------------------------------------------- #
#: smallest stack the numpy Clements chain runs batched over the stack axis.
#: Below it the scalar chain, run once per matrix, is faster: the fused
#: small-array kernel of the batched chain
#: (:func:`repro.photonics.engine.nulling_rotation_blocks`) only amortizes its
#: per-op overhead from three matrices up.  The native kernel, when loaded,
#: replaces both numpy chains.
BATCHED_CHAIN_MIN_STACK = 3


def _clements_chain_scalar(work: np.ndarray, is_left: np.ndarray,
                           op_modes: np.ndarray, op_pivots: np.ndarray,
                           thetas: np.ndarray, phis: np.ndarray) -> None:
    """The slim scalar nulling chain on one ``(n, n)`` matrix, in place.

    Closed-form 2x2 entries (Eq. 1, the same closed form the engine
    evaluates) and ``O(n)`` two-row / two-column slice updates instead of the
    reference's embedded full ``n x n`` matrix products; ``thetas``/``phis``
    receive one entry per op.
    """
    for index, (left, mode, pivot) in enumerate(
            zip(is_left.tolist(), op_modes.tolist(), op_pivots.tolist())):
        if left:
            a, b = work[mode, pivot], work[mode + 1, pivot]
            a_abs = abs(a) if abs(a) > NULL_TOLERANCE else 0.0
            b_abs = abs(b) if abs(b) > NULL_TOLERANCE else 0.0
            theta = 2.0 * math.atan2(a_abs, b_abs)
            phi = cmath.phase(b * a.conjugate()) if a_abs > 0 and b_abs > 0 else 0.0
            e_theta, e_phi = cmath.exp(1j * theta), cmath.exp(1j * phi)
            t00 = 0.5 * (e_theta - 1.0) * e_phi
            t01 = 0.5j * (e_theta + 1.0)
            t10 = t01 * e_phi
            t11 = 0.5 * (1.0 - e_theta)
            upper = work[mode, :].copy()
            lower = work[mode + 1, :]
            work[mode, :] = t00 * upper + t01 * lower
            work[mode + 1, :] = t10 * upper + t11 * lower
        else:
            a, b = work[pivot, mode], work[pivot, mode + 1]
            a_abs = abs(a) if abs(a) > NULL_TOLERANCE else 0.0
            b_abs = abs(b) if abs(b) > NULL_TOLERANCE else 0.0
            theta = 2.0 * math.atan2(b_abs, a_abs)
            phi = -cmath.phase(-b * a.conjugate()) if a_abs > 0 and b_abs > 0 else 0.0
            e_theta, e_phi = cmath.exp(-1j * theta), cmath.exp(-1j * phi)
            # conjugate-transpose entries of the closed-form block
            h00 = 0.5 * (e_theta - 1.0) * e_phi
            h01 = -0.5j * (e_theta + 1.0) * e_phi
            h10 = -0.5j * (e_theta + 1.0)
            h11 = 0.5 * (1.0 - e_theta)
            upper = work[:, mode].copy()
            lower = work[:, mode + 1]
            work[:, mode] = h00 * upper + h10 * lower
            work[:, mode + 1] = h01 * upper + h11 * lower
        thetas[index] = theta
        phis[index] = phi


def _clements_chain_batched(work: np.ndarray, is_left: np.ndarray,
                            op_modes: np.ndarray, op_pivots: np.ndarray,
                            thetas: np.ndarray, phis: np.ndarray) -> None:
    """Every nulling-chain step for all matrices of a ``(count, n, n)`` stack."""
    blocks = np.empty((work.shape[0], 2, 2), dtype=complex)
    for index, (left, mode, pivot) in enumerate(
            zip(is_left.tolist(), op_modes.tolist(), op_pivots.tolist())):
        # the fused small-array kernel solves the rotation and assembles the
        # 2x2 blocks (conjugate-transposed for right ops) in one pass; the
        # pair update is a single batched matmul over the stack axis
        if left:
            a, b = work[:, mode, pivot], work[:, mode + 1, pivot]
        else:
            a, b = work[:, pivot, mode], work[:, pivot, mode + 1]
        theta, phi, blocks = engine.nulling_rotation_blocks(
            a, b, left, NULL_TOLERANCE, out=blocks)
        if left:
            work[:, mode:mode + 2, :] = np.matmul(blocks, work[:, mode:mode + 2, :])
        else:
            work[:, :, mode:mode + 2] = np.matmul(work[:, :, mode:mode + 2], blocks)
        thetas[:, index] = theta
        phis[:, index] = phi


# --------------------------------------------------------------------------- #
# stack decompositions: the one implementation of both schemes
# --------------------------------------------------------------------------- #
def _check_square_stack(unitaries: np.ndarray) -> np.ndarray:
    stack = np.asarray(unitaries, dtype=complex)
    if stack.ndim != 3 or stack.shape[-1] != stack.shape[-2]:
        raise ValueError("stack decomposition requires a (stack, n, n) array")
    return stack


def _check_nulled_unitary(nulled: np.ndarray) -> None:
    """Raise unless every matrix of a nulled stack came from a unitary.

    Nulling applies unitary rotations only and leaves every matrix ``W``
    upper triangular, ``R = L W M``, whatever its input, and ``R^H R`` is
    unitarily similar to ``W^H W``.  An upper-triangular matrix is unitary
    exactly when it is diagonal with unit-modulus entries.  So this
    ``O(n^2)`` look at the nulled stack applies the bounds of the
    ``allclose(W^H W, I, atol=1e-6)`` it replaces (and of
    :func:`_check_unitary_input`) to first order, without the ``O(n^3)``
    Gram product: ``|R_ii|^2`` within ``1e-6 + 1e-5`` of 1, every other
    entry within ``1e-6`` of 0.
    """
    magnitude = np.abs(nulled)
    index = np.arange(nulled.shape[-1])
    diagonal = magnitude[..., index, index]
    magnitude[..., index, index] = 0.0
    unitary = (np.abs(diagonal ** 2 - 1.0).max(initial=0.0) <= 1e-6 + 1e-5
               and magnitude.max(initial=0.0) <= 1e-6)      # NaN fails both
    if not unitary:
        raise ValueError("stack contains a non-unitary matrix; map general "
                         "matrices via svd_decompose_many()")


def reck_decompose_stack(unitaries: np.ndarray) -> List[MeshDecomposition]:
    """Triangular (Reck) decomposition of a stack of same-size unitaries.

    The nulling operations are packed into wavefronts of disjoint column
    pairs.  Each wavefront reads its pivot pairs, solves every MZI parameter
    and applies all two-column updates for every matrix of the stack in one
    array operation, so the Python-level loop count is the mesh depth
    ``2 n - 3`` regardless of the stack size.  Each returned mesh agrees with
    :func:`reck_decompose_reference` of its slice to 1e-10.
    """
    stack = _check_square_stack(unitaries)
    work = stack.copy()
    modes, thetas, phis, output_phases = _reck_nulling(work)
    _check_nulled_unitary(work)
    dimension = stack.shape[-1]
    return [MeshDecomposition(dimension=dimension, modes=modes, thetas=thetas[index],
                              phis=phis[index], output_phases=output_phases[index],
                              method="reck")
            for index in range(stack.shape[0])]


def clements_decompose_stack(unitaries: np.ndarray) -> List[MeshDecomposition]:
    """Rectangular (Clements) decomposition of a stack of same-size unitaries.

    The anti-diagonal nulling operations form one sequential dependency chain
    per matrix (see :func:`_clements_oplist`); across a stack the chains are
    independent.  The chain leaves ``U = L_1^-1 ... L_q^-1 D M_p ... M_1``,
    and the push phase commutes each ``L_k^-1`` through the diagonal so the
    final expression is ``D' * (physical MZI chain)``.  The native kernel,
    when loaded, runs every matrix's chain and push phase in one C call,
    nulling up to four matrices at once in vector lanes.  Otherwise numpy
    runs the scalar chain once per matrix below
    :data:`BATCHED_CHAIN_MIN_STACK` matrices and the batched chain (every
    step for the whole stack at once) from there up, both giving the same
    phases, and then the push phase of :func:`_clements_finalize`,
    wavefront-vectorized over disjoint diagonal pairs.  Non-unitary input is
    rejected from the nulled stack (:func:`_check_nulled_unitary`).  Each
    returned mesh agrees with :func:`clements_decompose_reference` of its
    slice to 1e-10.
    """
    stack = _check_square_stack(unitaries)
    count, n = stack.shape[0], stack.shape[-1]
    work = stack.copy()
    ops = _clements_oplist(n)
    kernel = engine.native_kernel()
    if kernel is not None:
        thetas, phis, diagonal = kernel.clements_chain_stack(
            work, ops.is_left.view(np.uint8), ops.op_modes, ops.op_pivots,
            ops.modes, NULL_TOLERANCE)
        _check_nulled_unitary(work)
    else:
        chain_thetas = np.empty((count, ops.op_modes.size), dtype=float)
        chain_phis = np.empty_like(chain_thetas)
        if count >= BATCHED_CHAIN_MIN_STACK:
            _clements_chain_batched(work, ops.is_left, ops.op_modes, ops.op_pivots,
                                    chain_thetas, chain_phis)
        else:
            for matrix, matrix_thetas, matrix_phis in zip(work, chain_thetas,
                                                          chain_phis):
                _clements_chain_scalar(matrix, ops.is_left, ops.op_modes,
                                       ops.op_pivots, matrix_thetas, matrix_phis)
        _check_nulled_unitary(work)
        thetas, phis, diagonal = _clements_finalize(work, ops, chain_thetas,
                                                    chain_phis)
    return [MeshDecomposition(dimension=n, modes=ops.modes, thetas=thetas[index],
                              phis=phis[index], output_phases=diagonal[index],
                              method="clements")
            for index in range(count)]


def decompose_unitary_stack(unitaries: np.ndarray,
                            method: str = "clements") -> List[MeshDecomposition]:
    """Dispatch to :func:`reck_decompose_stack` or :func:`clements_decompose_stack`."""
    method = method.lower()
    if method == "reck":
        return reck_decompose_stack(unitaries)
    if method == "clements":
        return clements_decompose_stack(unitaries)
    raise ValueError(f"unknown mesh decomposition method {method!r} (use 'reck' or 'clements')")


def reck_decompose(unitary: np.ndarray) -> MeshDecomposition:
    """Reck-decompose one unitary (:func:`reck_decompose_stack` of a stack of one)."""
    return reck_decompose_stack(np.asarray(unitary)[None])[0]


def clements_decompose(unitary: np.ndarray) -> MeshDecomposition:
    """Clements-decompose one unitary (:func:`clements_decompose_stack` of a stack of one)."""
    return clements_decompose_stack(np.asarray(unitary)[None])[0]


def decompose_unitary(unitary: np.ndarray, method: str = "clements") -> MeshDecomposition:
    """Decompose one unitary by ``method`` (:func:`decompose_unitary_stack` of a stack of one)."""
    return decompose_unitary_stack(np.asarray(unitary)[None], method=method)[0]
