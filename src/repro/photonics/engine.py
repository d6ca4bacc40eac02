"""Compiled, vectorized propagation engine for MZI meshes.

The naive way to simulate a mesh is to walk its MZIs one by one and apply each
2x2 transfer matrix to the two modes it couples.  That is ``n (n - 1) / 2``
Python-level iterations per forward pass -- the hot path of every deployment
fidelity check and every robustness sweep.  This module replaces the walk with
a small compiler pipeline:

1. :func:`column_schedule` greedily packs the MZIs into *columns* of disjoint
   mode pairs while preserving the per-mode application order.  MZIs inside a
   column commute (they touch disjoint modes), so a column can be applied as
   one batched gather + 2x2 complex multiply.  A Clements mesh compresses to
   ``n`` columns, a Reck mesh to ``2 n - 3``.
2. :func:`mzi_block_coefficients` evaluates every MZI transfer matrix at once
   from structure-of-arrays phase storage (closed form of Eq. 1, verified
   against :func:`repro.photonics.components.mzi_transfer` in the test-suite).
3. :func:`propagate` streams a batch of complex amplitude vectors through the
   scheduled columns.  Phases may carry a leading *trials* axis -- a whole
   ensemble of noise realizations propagates in one vectorized pass.
4. :func:`dense_transfer` multiplies the mesh out into a dense matrix by
   propagating the identity through the column program, so a mesh can be
   applied with a single matmul.  It is the oracle of the dense build:
   :meth:`MeshDecomposition.reconstruct` pushes the identity through
   :func:`native_propagate` instead when the kernel is loaded, and the dense
   matrix is cached on :class:`MeshDecomposition` and invalidated when
   phases are mutated.

:func:`reference_apply` keeps the original per-MZI walk as an executable
specification; the property tests pin the compiled engine against it to
1e-10 for both topologies, with and without insertion loss, phase noise and
quantization.

When the native kernel is available (:mod:`repro.photonics._native` compiles
it from shipped C source on first use), :func:`native_propagate` executes the
whole rotation chain plus the output phase screen in one C call per batch, in
place on the caller's complex buffer.  Its one production use is building
dense matrices: :meth:`MeshDecomposition.reconstruct` pushes the identity
through it, and :meth:`MeshDecomposition.leading_columns` /
:meth:`~MeshDecomposition.leading_rows` push only the first ``k`` basis
vectors (the rows through the transposed walk).  Sequential flat-order
application is exactly the column program's semantics -- the greedy column
schedule only vectorizes the walk -- so the kernel needs no column
bookkeeping and is parity-pinned against
:func:`propagate` and :func:`reference_apply` like every other fast path.
Mesh execution itself never picks a kernel: an unbatched mesh applies its
cached dense matrix (:func:`apply_dense`), a trials-batched one runs
:func:`propagate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

#: a strided-slice view ``(start, stop, step)`` equivalent to an index array,
#: or None when the indices form no arithmetic progression
SliceSpec = Optional[Tuple[int, int, int]]


def as_slice(indices: np.ndarray) -> SliceSpec:
    """The ``(start, stop, step)`` basic slice equivalent to ``indices``.

    Returns None when the indices are not an ascending arithmetic progression.
    Reck (and Clements) columns pack their MZIs at stride-2 mode patterns, so
    most column gathers reduce to basic slices -- views instead of fancy-index
    copies on the state array.
    """
    if indices.size == 0:
        return None
    first = int(indices[0])
    if indices.size == 1:
        return first, first + 1, 1
    steps = np.diff(indices)
    step = int(steps[0])
    if step <= 0 or not np.all(steps == step):
        return None
    return first, int(indices[-1]) + 1, step


@dataclass(frozen=True)
class MeshProgram:
    """Column schedule of one mesh topology (independent of the phase values).

    Attributes
    ----------
    dimension:
        Number of optical modes.
    columns:
        One entry per column: ``(mzi_indices, top_modes, bottom_modes)`` --
        the indices into the flat MZI arrays scheduled in this column and the
        upper/lower mode of each scheduled MZI.  All mode pairs within a
        column are disjoint.
    column_slices:
        One entry per column: ``(mode_slice, index_slice)`` where each element
        is the ``(start, stop, step)`` basic slice equivalent to the column's
        ``top_modes`` / ``mzi_indices`` array (or None when the pattern is not
        an arithmetic progression).  Reck columns alternate stride-2 mode
        patterns, so their half-empty gathers run as strided views instead of
        fancy-index copies.
    """

    dimension: int
    columns: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    column_slices: Tuple[Tuple[SliceSpec, SliceSpec], ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.column_slices) != len(self.columns):
            object.__setattr__(self, "column_slices", tuple(
                (as_slice(tops), as_slice(indices))
                for indices, tops, _bottoms in self.columns))

    @property
    def depth(self) -> int:
        """Optical depth: the number of MZI columns."""
        return len(self.columns)


def column_schedule(modes: np.ndarray, dimension: int) -> MeshProgram:
    """Greedily schedule MZIs into columns of disjoint mode pairs.

    An MZI is placed in the earliest column after every earlier MZI that
    shares one of its modes, which preserves the sequential application order
    exactly (operations on disjoint modes commute).
    """
    modes = np.asarray(modes, dtype=np.intp)
    depth_per_mode = np.zeros(dimension, dtype=np.intp)
    assignment = np.empty(modes.size, dtype=np.intp)
    for index, mode in enumerate(modes):
        column = max(depth_per_mode[mode], depth_per_mode[mode + 1])
        assignment[index] = column
        depth_per_mode[mode] = depth_per_mode[mode + 1] = column + 1
    depth = int(depth_per_mode.max()) if modes.size else 0
    columns: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for column in range(depth):
        indices = np.flatnonzero(assignment == column)
        tops = modes[indices]
        # MZIs within a column touch disjoint modes (they commute) and stay
        # positionally paired with their flat indices, so sorting by mode is
        # free -- and it turns the Reck scheme's descending mode patterns
        # into ascending stride-2 progressions that gather as basic slices
        order = np.argsort(tops)
        indices, tops = indices[order], tops[order]
        columns.append((indices, tops, tops + 1))
    return MeshProgram(dimension=dimension, columns=tuple(columns))


def mzi_block_coefficients(thetas: np.ndarray, phis: np.ndarray,
                           transmission: float = 1.0):
    """Entries of every MZI transfer matrix, evaluated vectorized.

    Closed form of ``DC . PS(theta) . DC . PS(phi)`` (Eq. 1)::

        T = 1/2 * [[(e^{i theta} - 1) e^{i phi},  i (e^{i theta} + 1)        ],
                   [i (e^{i theta} + 1) e^{i phi}, 1 - e^{i theta}           ]]

    Returns the four entry arrays ``(t00, t01, t10, t11)``, each with the
    shape of ``thetas`` (which may carry leading trials axes), scaled by the
    amplitude ``transmission`` of the per-MZI insertion-loss model.
    """
    e_theta = np.exp(1j * np.asarray(thetas, dtype=float))
    e_phi = np.exp(1j * np.asarray(phis, dtype=float))
    half = 0.5 * transmission
    plus = 1j * half * (e_theta + 1.0)
    t00 = half * (e_theta - 1.0) * e_phi
    t01 = plus
    t10 = plus * e_phi
    t11 = half * (1.0 - e_theta)
    return t00, t01, t10, t11


def nulling_rotation_blocks(a: np.ndarray, b: np.ndarray, left: bool,
                            null_tolerance: float,
                            out: Optional[np.ndarray] = None):
    """Solve a stacked nulling rotation and emit batched 2x2 transfer blocks.

    This is the low-overhead small-array kernel of the Clements stack
    decomposition chain: for every matrix of a stack it solves the
    ``(theta, phi)`` MZI parameters that null pivot entry ``b`` against ``a``
    and assembles the resulting 2x2 block -- ``M(theta, phi)`` for *left*
    (row-pair) operations, its conjugate transpose for *right* (column-pair)
    operations -- ready for one batched ``np.matmul`` pair update.

    Compared to composing :func:`mzi_block_coefficients` with separate
    ``np.where`` clamps and four per-entry gathers, the fused form roughly
    halves the number of small-array ufunc dispatches, which is what
    dominates when the stack axis is short (2-4 conv-kernel SVD factors).
    The closed forms are identical, so the phases agree with the scalar
    chain (``mzi_mesh._clements_chain_scalar``) to the last bit.

    Parameters
    ----------
    a, b:
        Stacked pivot pairs, shape ``(stack,)``.
    left:
        Left (row) operation when True, right (column) operation when False.
    null_tolerance:
        Magnitudes at or below this are treated as exact zeros.
    out:
        Optional preallocated ``(stack, 2, 2)`` complex block buffer.

    Returns ``(theta, phi, blocks)``.
    """
    a_abs = np.abs(a)
    b_abs = np.abs(b)
    a_abs[a_abs <= null_tolerance] = 0.0
    b_abs[b_abs <= null_tolerance] = 0.0
    mask = (a_abs > 0) & (b_abs > 0)
    product = b * np.conj(a)
    if left:
        theta = 2.0 * np.arctan2(a_abs, b_abs)
        phi = np.where(mask, np.arctan2(product.imag, product.real), 0.0)
    else:
        theta = 2.0 * np.arctan2(b_abs, a_abs)
        np.negative(product, out=product)
        phi = np.where(mask, -np.arctan2(product.imag, product.real), 0.0)
    e_theta = np.exp(1j * theta)
    e_phi = np.exp(1j * phi)
    t01 = 0.5j * (e_theta + 1.0)
    t00 = 0.5 * (e_theta - 1.0) * e_phi
    t10 = t01 * e_phi
    t11 = 0.5 * (1.0 - e_theta)
    blocks = out if out is not None and out.shape == a.shape + (2, 2) \
        else np.empty(a.shape + (2, 2), dtype=complex)
    if left:
        blocks[..., 0, 0] = t00
        blocks[..., 0, 1] = t01
        blocks[..., 1, 0] = t10
        blocks[..., 1, 1] = t11
    else:
        np.conj(t00, out=blocks[..., 0, 0])
        np.conj(t10, out=blocks[..., 0, 1])
        np.conj(t01, out=blocks[..., 1, 0])
        np.conj(t11, out=blocks[..., 1, 1])
    return theta, phi, blocks


def _loss_transmission(insertion_loss_db: float) -> float:
    if insertion_loss_db < 0:
        raise ValueError("insertion_loss_db must be non-negative")
    return 10.0 ** (-insertion_loss_db / 20.0)


def propagate(program: MeshProgram, states: np.ndarray, thetas: np.ndarray,
              phis: np.ndarray, output_phases: np.ndarray,
              insertion_loss_db: float = 0.0,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Propagate batched complex amplitudes through a scheduled mesh.

    Parameters
    ----------
    states:
        Complex amplitudes of shape ``(batch, dim)`` or ``(*trials, batch,
        dim)``.
    thetas, phis:
        Phase arrays of shape ``(n_mzi,)`` or ``(*trials, n_mzi)``.
    output_phases:
        Complex unit-modulus phases of shape ``(dim,)`` or ``(*trials, dim)``.
    out:
        Optional preallocated complex result buffer of the broadcast output
        shape; when compatible, the whole propagation runs in it and no work
        array is allocated (it may alias ``states`` -- the states are copied
        in first).  An incompatible buffer is ignored.

    Leading trials axes of the states and the phases broadcast against each
    other; the result has shape ``(*trials, batch, dim)``.
    """
    transmission = _loss_transmission(insertion_loss_db)
    states = np.asarray(states, dtype=complex)
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    output_phases = np.asarray(output_phases, dtype=complex)
    lead = np.broadcast_shapes(states.shape[:-2], thetas.shape[:-1],
                               phis.shape[:-1], output_phases.shape[:-1])
    shape = lead + states.shape[-2:]
    if (out is not None and out.shape == shape and out.dtype == np.complex128
            and out.flags.writeable):
        work = out
        np.copyto(work, states)
    else:
        work = np.array(np.broadcast_to(states, shape))
    t00, t01, t10, t11 = mzi_block_coefficients(thetas, phis, transmission)
    # insert the batch axis once so per-column slices broadcast directly
    batch_axis = t00.shape[:-1] + (1, t00.shape[-1])
    t00, t01 = t00.reshape(batch_axis), t01.reshape(batch_axis)
    t10, t11 = t10.reshape(batch_axis), t11.reshape(batch_axis)
    for (indices, tops, bottoms), (mode_slice, index_slice) in zip(
            program.columns, program.column_slices):
        if mode_slice is not None:
            # arithmetic mode pattern (every Clements column, the half-empty
            # stride-2 Reck columns): strided views instead of gather copies
            start, stop, step = mode_slice
            top = work[..., start:stop:step]
            bottom = work[..., start + 1:stop + 1:step]
        else:
            top = work[..., tops]
            bottom = work[..., bottoms]
        if index_slice is not None:
            i0, i1, istep = index_slice
            a, b = t00[..., i0:i1:istep], t01[..., i0:i1:istep]
            c, d = t10[..., i0:i1:istep], t11[..., i0:i1:istep]
        else:
            a, b = t00[..., indices], t01[..., indices]
            c, d = t10[..., indices], t11[..., indices]
        # both new columns must materialize before the first write-back: with
        # strided views, writing the tops would corrupt the bottoms' inputs
        new_top = a * top + b * bottom
        new_bottom = c * top + d * bottom
        if mode_slice is not None:
            work[..., start:stop:step] = new_top
            work[..., start + 1:stop + 1:step] = new_bottom
        else:
            work[..., tops] = new_top
            work[..., bottoms] = new_bottom
    work *= output_phases[..., None, :]
    return work


def native_kernel():
    """The loaded native ``cchain`` kernel, or None when unavailable/disabled.

    Thin convenience over :func:`repro.photonics._native.kernel` so callers
    inside the photonics package do not each repeat the import dance.
    """
    from repro.photonics import _native

    return _native.kernel()


def native_propagate(modes: np.ndarray, states: np.ndarray,
                     thetas: np.ndarray, phis: np.ndarray,
                     output_phases: np.ndarray,
                     insertion_loss_db: float = 0.0,
                     out: Optional[np.ndarray] = None,
                     transpose: bool = False) -> Optional[np.ndarray]:
    """Propagate batched states through the native chain kernel.

    One C call applies every MZI in flat application order and the output
    phase screen, in place on a ``(batch, dim)`` complex work buffer --
    semantically identical to :func:`propagate` of the column schedule (the
    schedule preserves per-mode order, so columns only vectorize the walk).
    With ``transpose`` the states walk the transposed mesh ``U^T`` instead,
    so basis vector ``e_i`` comes out as row ``i`` of ``U``.

    Returns the propagated array, or None when the call is ineligible: no
    kernel loaded (or ``REPRO_FORCE_REFERENCE`` set) or trials-batched phase
    arrays, which stay on the numpy ensemble path.  Callers fall back to
    :func:`propagate` on None.  Leading axes of ``states`` beyond the batch
    axis are flattened through the same kernel call.
    """
    kernel = native_kernel()
    if kernel is None:
        return None
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    output_phases = np.asarray(output_phases, dtype=complex)
    if thetas.ndim != 1 or phis.ndim != 1 or output_phases.ndim != 1:
        return None
    transmission = _loss_transmission(insertion_loss_db)
    states = np.asarray(states, dtype=complex)
    dim = states.shape[-1]
    if (out is not None and out.shape == states.shape
            and out.dtype == np.complex128 and out.flags.writeable
            and out.flags.c_contiguous):
        work = out
        np.copyto(work, states)
    else:
        # the kernel mutates in place, so always hand it a private copy
        work = states.astype(np.complex128, order="C", copy=True)
    kernel.propagate(work.reshape(-1, dim),
                     np.ascontiguousarray(modes, dtype=np.intp),
                     np.ascontiguousarray(thetas),
                     np.ascontiguousarray(phis),
                     np.ascontiguousarray(output_phases, dtype=np.complex128),
                     transmission, transpose=transpose)
    return work


def apply_dense(states: np.ndarray, dense: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply a dense transfer matrix to batched states: ``states @ dense.T``.

    ``out``-style preallocated-buffer application: when ``out`` is a
    compatible buffer the matmul writes straight into it (``out`` must not
    alias ``states``), so steady-state plan execution allocates nothing on
    the hot path.
    """
    states = np.asarray(states, dtype=complex)
    dense_t = np.swapaxes(np.asarray(dense, dtype=complex), -1, -2)
    if out is not None:
        try:
            return np.matmul(states, dense_t, out=out)
        except (TypeError, ValueError):
            pass
    return np.matmul(states, dense_t)


def dense_transfer(program: MeshProgram, thetas: np.ndarray, phis: np.ndarray,
                   output_phases: np.ndarray,
                   insertion_loss_db: float = 0.0) -> np.ndarray:
    """Multiply the mesh out into its dense transfer matrix.

    The identity is propagated through the column program (one vectorized
    pass), so this is ``O(depth * dim^2)`` instead of the ``O(n_mzi * dim^3)``
    of embedding every MZI into the full space.  Returns ``(dim, dim)``, or
    ``(*trials, dim, dim)`` for phases with leading trials axes.
    """
    identity = np.eye(program.dimension, dtype=complex)
    columns = propagate(program, identity, thetas, phis, output_phases,
                        insertion_loss_db=insertion_loss_db)
    # row i of the propagated identity is U @ e_i, i.e. the i-th column of U
    return np.swapaxes(columns, -1, -2)


def reference_apply(modes: np.ndarray, thetas: np.ndarray, phis: np.ndarray,
                    output_phases: np.ndarray, states: np.ndarray,
                    insertion_loss_db: float = 0.0) -> np.ndarray:
    """The original per-MZI Python walk, kept as an executable specification.

    Used by the property tests (the compiled engine must agree to 1e-10) and
    by the mesh micro-benchmark as the speedup baseline.  Only unbatched
    phases are supported -- this is exactly the seed implementation.
    """
    from repro.photonics.components import mzi_transfer

    transmission = _loss_transmission(insertion_loss_db)
    states = np.array(states, dtype=complex)
    for mode, theta, phi in zip(modes, thetas, phis):
        block = mzi_transfer(float(theta), float(phi)) * transmission
        states[..., mode:mode + 2] = states[..., mode:mode + 2] @ block.T
    return states * np.asarray(output_phases, dtype=complex)
