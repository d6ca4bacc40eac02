"""Property tests: the compiled mesh engine must match the per-MZI walk.

:func:`repro.photonics.engine.reference_apply` is the seed per-MZI Python
loop, kept as an executable specification.  Every compiled path -- the column
program, the cached dense transfer matrix, the trials-batched noise ensembles
-- is pinned against it to 1e-10 here, for both mesh topologies, with and
without insertion loss, phase noise and quantization.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.photonics import (
    MeshDecomposition,
    MZISetting,
    PhaseNoiseModel,
    clements_decompose,
    column_schedule,
    mzi_block_coefficients,
    mzi_transfer,
    quantize_phases,
    random_unitary,
    reck_decompose,
    reference_apply,
)
from repro.photonics import engine


DECOMPOSERS = {"reck": reck_decompose, "clements": clements_decompose}


def reference_output(mesh, states, insertion_loss_db=0.0):
    return reference_apply(mesh.modes, mesh.thetas, mesh.phis, mesh.output_phases,
                           states, insertion_loss_db=insertion_loss_db)


def random_batch(rng, batch, dim):
    return rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))


class TestBlockCoefficients:
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_closed_form_matches_component_product(self, theta, phi):
        t00, t01, t10, t11 = mzi_block_coefficients(np.array([theta]), np.array([phi]))
        expected = mzi_transfer(theta, phi)
        block = np.array([[t00[0], t01[0]], [t10[0], t11[0]]])
        assert np.abs(block - expected).max() < 1e-12

    def test_transmission_scales_every_entry(self, rng):
        thetas, phis = rng.uniform(0, 2 * np.pi, size=(2, 5))
        lossless = mzi_block_coefficients(thetas, phis)
        lossy = mzi_block_coefficients(thetas, phis, transmission=0.5)
        for full, scaled in zip(lossless, lossy):
            assert np.allclose(scaled, 0.5 * full)


class TestColumnSchedule:
    def test_columns_have_disjoint_modes(self, rng):
        mesh = clements_decompose(random_unitary(9, rng))
        program = column_schedule(mesh.modes, mesh.dimension)
        for _indices, tops, bottoms in program.columns:
            touched = np.concatenate([tops, bottoms])
            assert len(set(touched.tolist())) == touched.size

    def test_per_mode_order_is_preserved(self, rng):
        mesh = reck_decompose(random_unitary(7, rng))
        program = column_schedule(mesh.modes, mesh.dimension)
        column_of = np.empty(mesh.mzi_count, dtype=int)
        for column, (indices, _tops, _bottoms) in enumerate(program.columns):
            column_of[indices] = column
        for i in range(mesh.mzi_count):
            for j in range(i + 1, mesh.mzi_count):
                modes_i = {int(mesh.modes[i]), int(mesh.modes[i]) + 1}
                modes_j = {int(mesh.modes[j]), int(mesh.modes[j]) + 1}
                if modes_i & modes_j:
                    assert column_of[i] < column_of[j]

    def test_clements_depth_is_about_n(self, rng):
        dimension = 10
        mesh = clements_decompose(random_unitary(dimension, rng))
        assert mesh.optical_depth <= dimension
        reck = reck_decompose(random_unitary(dimension, rng))
        assert reck.optical_depth == 2 * dimension - 3

    def test_empty_mesh(self):
        program = column_schedule(np.array([], dtype=np.intp), 4)
        assert program.depth == 0


class TestStridedColumnSlices:
    """Arithmetic column patterns must compile to strided-slice gathers."""

    def test_as_slice_detects_arithmetic_progressions(self):
        assert engine.as_slice(np.array([], dtype=np.intp)) is None
        assert engine.as_slice(np.array([3])) == (3, 4, 1)
        assert engine.as_slice(np.array([0, 2, 4, 6])) == (0, 7, 2)
        assert engine.as_slice(np.array([1, 4, 7])) == (1, 8, 3)
        assert engine.as_slice(np.array([0, 2, 3])) is None
        assert engine.as_slice(np.array([4, 2, 0])) is None

    def test_slice_spec_selects_the_same_modes(self, rng):
        for method, decompose in DECOMPOSERS.items():
            mesh = decompose(random_unitary(9, rng))
            program = mesh.compiled()
            assert len(program.column_slices) == program.depth
            for (indices, tops, _bottoms), (mode_slice, index_slice) in zip(
                    program.columns, program.column_slices):
                if mode_slice is not None:
                    start, stop, step = mode_slice
                    assert np.array_equal(np.arange(start, stop, step), tops), method
                if index_slice is not None:
                    start, stop, step = index_slice
                    assert np.array_equal(np.arange(start, stop, step), indices), method

    @pytest.mark.parametrize("method", ["reck", "clements"])
    def test_stride2_patterns_become_slices(self, method, rng):
        # the half-empty Reck columns the ROADMAP called out, and the full
        # stride-2 Clements columns, must all take the strided-view path
        mesh = DECOMPOSERS[method](random_unitary(10, rng))
        mode_slices = [mode_slice for mode_slice, _ in mesh.compiled().column_slices]
        assert all(mode_slice is not None for mode_slice in mode_slices)
        assert any(mode_slice[2] == 2 for mode_slice in mode_slices
                   if mode_slice[1] - mode_slice[0] > 1)

    def test_non_arithmetic_columns_fall_back_to_gathers(self, rng):
        # modes 0, 2, 5 are disjoint but not an arithmetic progression
        modes = np.array([0, 2, 5], dtype=np.intp)
        program = column_schedule(modes, 8)
        assert program.depth == 1
        assert program.column_slices[0][0] is None
        thetas = rng.uniform(0, 2 * np.pi, size=3)
        phis = rng.uniform(0, 2 * np.pi, size=3)
        output_phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=8))
        states = random_batch(rng, 4, 8)
        compiled = engine.propagate(program, states, thetas, phis, output_phases)
        reference = reference_apply(modes, thetas, phis, output_phases, states)
        assert np.abs(compiled - reference).max() < 1e-10


class TestPreallocatedBuffers:
    @pytest.mark.parametrize("method", ["reck", "clements"])
    def test_propagate_out_buffer_is_used_and_correct(self, method, rng):
        mesh = DECOMPOSERS[method](random_unitary(8, rng))
        program = mesh.compiled()
        states = random_batch(rng, 5, 8)
        expected = engine.propagate(program, states, mesh.thetas, mesh.phis,
                                    mesh.output_phases)
        out = np.empty((5, 8), dtype=complex)
        result = engine.propagate(program, states, mesh.thetas, mesh.phis,
                                  mesh.output_phases, out=out)
        assert result is out
        assert np.abs(result - expected).max() < 1e-12

    def test_propagate_out_may_alias_states(self, rng):
        mesh = clements_decompose(random_unitary(6, rng))
        states = random_batch(rng, 3, 6)
        expected = engine.propagate(mesh.compiled(), states, mesh.thetas,
                                    mesh.phis, mesh.output_phases)
        result = engine.propagate(mesh.compiled(), states, mesh.thetas,
                                  mesh.phis, mesh.output_phases, out=states)
        assert result is states
        assert np.abs(result - expected).max() < 1e-12

    def test_propagate_ignores_incompatible_out(self, rng):
        mesh = clements_decompose(random_unitary(6, rng))
        states = random_batch(rng, 3, 6)
        wrong = np.empty((2, 6), dtype=complex)
        result = engine.propagate(mesh.compiled(), states, mesh.thetas,
                                  mesh.phis, mesh.output_phases, out=wrong)
        assert result is not wrong
        assert result.shape == (3, 6)

    def test_apply_dense_out(self, rng):
        mesh = clements_decompose(random_unitary(7, rng))
        dense = mesh.reconstruct()
        states = random_batch(rng, 4, 7)
        out = np.empty((4, 7), dtype=complex)
        result = engine.apply_dense(states, dense, out=out)
        assert result is out
        assert np.abs(result - states @ dense.T).max() < 1e-12
        # incompatible buffers are ignored, not fatal
        bad = np.empty((4, 7), dtype=float)
        fallback = engine.apply_dense(states, dense, out=bad)
        assert fallback is not bad
        assert np.abs(fallback - states @ dense.T).max() < 1e-12


@pytest.mark.parametrize("method", ["reck", "clements"])
class TestCompiledPropagationMatchesReference:
    @pytest.mark.parametrize("dimension", [2, 3, 5, 8, 16, 33])
    def test_lossless(self, method, dimension, rng):
        mesh = DECOMPOSERS[method](random_unitary(dimension, rng))
        states = random_batch(rng, 6, dimension)
        assert np.abs(mesh.apply(states) - reference_output(mesh, states)).max() < 1e-10

    @pytest.mark.parametrize("loss_db", [0.1, 0.7])
    def test_with_insertion_loss(self, method, loss_db, rng):
        mesh = DECOMPOSERS[method](random_unitary(9, rng))
        states = random_batch(rng, 4, 9)
        compiled = mesh.apply(states, insertion_loss_db=loss_db)
        assert np.abs(compiled - reference_output(mesh, states, loss_db)).max() < 1e-10

    def test_with_phase_noise(self, method, rng):
        mesh = DECOMPOSERS[method](random_unitary(8, rng))
        noisy = PhaseNoiseModel(sigma=0.1, rng=rng).perturb(mesh)
        states = random_batch(rng, 5, 8)
        assert np.abs(noisy.apply(states) - reference_output(noisy, states)).max() < 1e-10

    def test_with_quantization(self, method, rng):
        mesh = DECOMPOSERS[method](random_unitary(8, rng))
        quantized = quantize_phases(mesh, 4)
        states = random_batch(rng, 5, 8)
        compiled = quantized.apply(states)
        assert np.abs(compiled - reference_output(quantized, states)).max() < 1e-10

    def test_column_program_path_matches_dense_path(self, method, rng):
        """Both engine paths agree (the dense cache is used below the limit)."""
        mesh = DECOMPOSERS[method](random_unitary(12, rng))
        states = random_batch(rng, 4, 12)
        direct = engine.propagate(mesh.compiled(), states, mesh.thetas, mesh.phis,
                                  mesh.output_phases)
        assert np.abs(mesh.apply(states) - direct).max() < 1e-10

    def test_reconstruct_matches_embed_product(self, method, rng):
        mesh = DECOMPOSERS[method](random_unitary(6, rng))
        expected = np.eye(6, dtype=complex)
        for setting in mesh.settings:
            expected = mesh.embed(setting) @ expected
        expected = np.diag(mesh.output_phases) @ expected
        assert np.abs(mesh.reconstruct() - expected).max() < 1e-10

    @given(st.integers(2, 8), st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_property_compiled_equals_reference(self, method, dimension, seed):
        rng = np.random.default_rng(seed)
        mesh = DECOMPOSERS[method](random_unitary(dimension, rng))
        states = random_batch(rng, 3, dimension)
        assert np.abs(mesh.apply(states) - reference_output(mesh, states)).max() < 1e-10


class TestTrialsAxis:
    def test_batched_perturb_matches_per_trial_meshes(self, rng):
        mesh = clements_decompose(random_unitary(7, rng))
        batched = PhaseNoiseModel(sigma=0.08, rng=rng).perturb(mesh, trials=6)
        states = random_batch(rng, 4, 7)
        ensemble = batched.apply(states)
        assert ensemble.shape == (6, 4, 7)
        for t in range(6):
            single = mesh.with_phases(thetas=batched.thetas[t], phis=batched.phis[t],
                                      output_phases=batched.output_phases[t])
            assert np.abs(ensemble[t] - reference_output(single, states)).max() < 1e-10

    def test_zero_sigma_trials_replicates_clean_mesh(self, rng):
        mesh = reck_decompose(random_unitary(5, rng))
        batched = PhaseNoiseModel(sigma=0.0).perturb(mesh, trials=3)
        states = random_batch(rng, 2, 5)
        ensemble = batched.apply(states)
        clean = mesh.apply(states)
        for t in range(3):
            assert np.allclose(ensemble[t], clean)

    def test_quantize_applies_to_every_trial(self, rng):
        mesh = reck_decompose(random_unitary(5, rng))
        batched = PhaseNoiseModel(sigma=0.2, rng=rng).perturb(mesh, trials=4)
        quantized = quantize_phases(batched, 5)
        step = 2.0 * np.pi / 2 ** 5
        remainder = np.mod(quantized.thetas, step)
        assert np.all(np.minimum(remainder, step - remainder) < 1e-9)
        assert quantized.trial_shape == (4,)

    def test_batched_reconstruct_stacks_per_trial_matrices(self, rng):
        mesh = clements_decompose(random_unitary(4, rng))
        batched = PhaseNoiseModel(sigma=0.05, rng=rng).perturb(mesh, trials=3)
        stacked = batched.reconstruct()
        assert stacked.shape == (3, 4, 4)
        for t in range(3):
            single = mesh.with_phases(thetas=batched.thetas[t], phis=batched.phis[t],
                                      output_phases=batched.output_phases[t])
            assert np.abs(stacked[t] - single.reconstruct()).max() < 1e-10

    def test_trials_axis_input_broadcasts_per_trial(self, rng):
        mesh = clements_decompose(random_unitary(5, rng))
        batched = PhaseNoiseModel(sigma=0.05, rng=rng).perturb(mesh, trials=3)
        per_trial_inputs = (rng.normal(size=(3, 2, 5))
                            + 1j * rng.normal(size=(3, 2, 5)))
        outputs = batched.apply(per_trial_inputs)
        for t in range(3):
            single = mesh.with_phases(thetas=batched.thetas[t], phis=batched.phis[t],
                                      output_phases=batched.output_phases[t])
            assert np.abs(outputs[t] - single.apply(per_trial_inputs[t])).max() < 1e-10

    def test_perturbing_batched_mesh_with_trials_rejected(self, rng):
        mesh = reck_decompose(random_unitary(4, rng))
        model = PhaseNoiseModel(sigma=0.1, rng=rng)
        batched = model.perturb(mesh, trials=2)
        with pytest.raises(ValueError):
            model.perturb(batched, trials=2)

    def test_invalid_trials_rejected(self, rng):
        mesh = reck_decompose(random_unitary(4, rng))
        with pytest.raises(ValueError):
            PhaseNoiseModel(sigma=0.1, rng=rng).perturb(mesh, trials=0)

    def test_settings_view_unavailable_on_batched_mesh(self, rng):
        mesh = reck_decompose(random_unitary(4, rng))
        batched = PhaseNoiseModel(sigma=0.1, rng=rng).perturb(mesh, trials=2)
        with pytest.raises(ValueError):
            batched.settings


class TestSoAStorageAndCaching:
    def test_settings_view_round_trips(self, rng):
        mesh = clements_decompose(random_unitary(5, rng))
        rebuilt = MeshDecomposition(dimension=5, settings=mesh.settings,
                                    output_phases=mesh.output_phases,
                                    method=mesh.method)
        assert np.allclose(rebuilt.reconstruct(), mesh.reconstruct())
        assert all(isinstance(s, MZISetting) for s in mesh.settings)

    def test_phase_arrays_are_read_only(self, rng):
        mesh = reck_decompose(random_unitary(4, rng))
        with pytest.raises(ValueError):
            mesh.thetas[0] = 1.0
        with pytest.raises(ValueError):
            mesh.output_phases[0] = 1.0

    def test_update_phases_invalidates_dense_cache(self, rng):
        unitary = random_unitary(5, rng)
        mesh = clements_decompose(unitary)
        states = random_batch(rng, 3, 5)
        before = mesh.apply(states)          # populates the dense cache
        mesh.update_phases(thetas=mesh.thetas + 0.3)
        after = mesh.apply(states)
        fresh = MeshDecomposition(dimension=5, modes=mesh.modes, thetas=mesh.thetas,
                                  phis=mesh.phis, output_phases=mesh.output_phases,
                                  method=mesh.method)
        assert not np.allclose(before, after)
        assert np.abs(after - fresh.apply(states)).max() < 1e-10

    def test_with_phases_shares_topology_but_not_caches(self, rng):
        mesh = clements_decompose(random_unitary(5, rng))
        shifted = mesh.with_phases(phis=mesh.phis + 0.1)
        assert shifted.modes is mesh.modes
        assert not np.allclose(shifted.reconstruct(), mesh.reconstruct())

    def test_vectorized_power_matches_per_shifter_sum(self, rng):
        from repro.photonics.components import phase_shifter_power_mw

        mesh = reck_decompose(random_unitary(6, rng))
        expected = 0.0
        for setting in mesh.settings:
            expected += phase_shifter_power_mw(setting.theta)
            expected += phase_shifter_power_mw(setting.phi)
        for phase in np.angle(mesh.output_phases):
            expected += phase_shifter_power_mw(float(phase))
        assert mesh.total_phase_power_mw() == pytest.approx(expected, rel=1e-12)

    def test_batched_power_is_per_trial(self, rng):
        mesh = reck_decompose(random_unitary(5, rng))
        batched = PhaseNoiseModel(sigma=0.1, rng=rng).perturb(mesh, trials=4)
        power = batched.total_phase_power_mw()
        assert power.shape == (4,)
        assert np.isfinite(power).all()

    def test_mixing_settings_and_arrays_rejected(self):
        with pytest.raises(ValueError):
            MeshDecomposition(dimension=3, settings=[MZISetting(0, 0.1, 0.2)],
                              thetas=np.array([0.1]))


class TestDeployedEnsembles:
    def test_deployed_noise_ensemble_matches_sequential_draws(self, rng):
        """A trials-batched deployed model equals T seeded sequential copies."""
        import repro
        from repro.assignment import get_scheme
        from repro.models import ComplexFCNN

        scheme = get_scheme("SI")
        model = ComplexFCNN(8, (6,), 2, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        images = rng.normal(size=(3, 1, 4, 4))
        trials = 4
        noisy = deployed.with_noise(noise=PhaseNoiseModel(sigma=0.05,
                                                          rng=np.random.default_rng(11)),
                                    trials=trials)
        logits = noisy.predict_logits(images, scheme)
        assert logits.shape == (trials, 3, 2)
        assert np.isfinite(logits).all()
        predictions = noisy.classify(images, scheme)
        assert predictions.shape == (trials, 3)

    def test_zero_sigma_ensemble_matches_clean_model(self, rng):
        import repro
        from repro.assignment import get_scheme
        from repro.models import ComplexFCNN

        scheme = get_scheme("SI")
        model = ComplexFCNN(8, (6,), 2, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        images = rng.normal(size=(3, 1, 4, 4))
        clean = deployed.predict_logits(images, scheme)
        ensemble = deployed.with_noise(noise=PhaseNoiseModel(sigma=0.0),
                                       trials=3).predict_logits(images, scheme)
        for t in range(3):
            assert np.allclose(ensemble[t], clean)

    def test_trials_without_noise_model_rejected(self, rng):
        import repro
        from repro.models import ComplexFCNN

        model = ComplexFCNN(8, (6,), 2, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        with pytest.raises(ValueError):
            deployed.with_noise(quantization_bits=6, trials=3)


class TestSigmaAxisEnsembles:
    """Array sigmas fold a whole sigma sweep into the trials ensemble."""

    def test_sigma_axis_shapes(self, rng):
        mesh = clements_decompose(random_unitary(6, rng))
        noise = PhaseNoiseModel(sigma=np.array([0.0, 0.02, 0.1]), rng=rng)
        batched = noise.perturb(mesh, trials=4)
        assert batched.trial_shape == (3, 4)
        states = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        assert batched.apply(states).shape == (3, 4, 2, 6)

    def test_sigma_axis_without_trials(self, rng):
        mesh = clements_decompose(random_unitary(5, rng))
        noise = PhaseNoiseModel(sigma=np.array([0.01, 0.3]), rng=rng)
        batched = noise.perturb(mesh)
        assert batched.trial_shape == (2,)

    def test_zero_sigma_slice_is_clean(self, rng):
        mesh = clements_decompose(random_unitary(6, rng))
        noise = PhaseNoiseModel(sigma=np.array([0.0, 0.05]), rng=rng)
        batched = noise.perturb(mesh, trials=3)
        assert np.allclose(batched.thetas[0], np.broadcast_to(mesh.thetas, (3, mesh.mzi_count)))
        assert np.allclose(batched.output_phases[0],
                           np.broadcast_to(mesh.output_phases, (3, 6)))

    def test_common_random_numbers_across_sigmas(self, rng):
        """Sigma slices share standard-normal draws, scaled per sigma."""
        mesh = clements_decompose(random_unitary(5, rng))
        noise = PhaseNoiseModel(sigma=np.array([0.01, 0.1]), rng=np.random.default_rng(5))
        batched = noise.perturb(mesh, trials=2)
        small = batched.thetas[0] - mesh.thetas
        large = batched.thetas[1] - mesh.thetas
        assert np.allclose(large, 10.0 * small)

    def test_negative_sigma_entry_rejected(self, rng):
        mesh = clements_decompose(random_unitary(4, rng))
        with pytest.raises(ValueError):
            PhaseNoiseModel(sigma=np.array([0.1, -0.1]), rng=rng).perturb(mesh)

    def test_scalar_stream_unchanged_by_refactor(self, rng):
        """Scalar sigma draws the exact historical scaled-normal stream."""
        mesh = clements_decompose(random_unitary(5, rng))
        noisy = PhaseNoiseModel(sigma=0.05, rng=np.random.default_rng(11)).perturb(mesh)
        reference = np.random.default_rng(11)
        mzi_errors = reference.normal(0.0, 0.05, size=(mesh.mzi_count, 2))
        phase_errors = reference.normal(0.0, 0.05, size=(5,))
        assert np.allclose(noisy.thetas, mesh.thetas + mzi_errors[:, 0], atol=1e-15)
        assert np.allclose(noisy.phis, mesh.phis + mzi_errors[:, 1], atol=1e-15)
        assert np.allclose(noisy.output_phases,
                           mesh.output_phases * np.exp(1j * phase_errors), atol=1e-15)


class TestNoDenseSizeRule:
    def test_no_dense_limit_names_remain(self):
        related = [name for name in vars(engine)
                   if any(word in name.lower()
                          for word in ("dense_limit", "dense_dimension", "crossover"))]
        assert related == []

    def test_noise_ensembles_stay_off_the_dense_path(self, rng):
        mesh = clements_decompose(random_unitary(6, rng))
        assert mesh.uses_dense_path()
        noisy = PhaseNoiseModel(sigma=0.01, rng=rng).perturb(mesh, trials=3)
        assert noisy.is_batched and not noisy.uses_dense_path()
