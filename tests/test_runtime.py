"""Tests of the plan-based executor (:mod:`repro.core.runtime`).

The acceptance bar: for FCNN, LeNet and ResNet programs (all five decoder
heads) the :class:`ExecutionPlan` must match the kept node-walk reference to
1e-12.  The rest covers the plan compiler's moving parts -- slot reuse,
eager dense fusion, the electronic-affine peephole, buffer-pool safety and
the interaction with noise/quantization ensembles.
"""

import numpy as np
import pytest

import repro
from repro.assignment import get_scheme
from repro.core.compile import HardwareTarget
from repro.core.graph_ir import (
    INPUT,
    ElectronicActivation,
    ElectronicAdd,
    ElectronicBatchNorm,
    GraphNode,
    GraphProgram,
)
from repro.core.runtime import (
    AddInstruction,
    CallInstruction,
    ConvInstruction,
    ExecutionPlan,
    MatmulInstruction,
    compile_plan,
)
from repro.models import ComplexFCNN, ComplexLeNet5
from repro.models.resnet import ComplexResNet
from repro.photonics.noise import PhaseNoiseModel
from tests.test_compile import DECODERS, randomize_batchnorms, tiny_lenet, tiny_resnet
from tests.test_lowering import conv_stage

PARITY = 1e-12


def noise_lane() -> HardwareTarget:
    """One seeded noisy chip: its meshes are trials-batched, so no stage fuses."""
    return HardwareTarget(noise=PhaseNoiseModel.seeded(0.01, seed=3), trials=1)


def encoded_light(program, images, scheme):
    return program.encode_images(images, scheme)


def compile_benchmark_families(rng):
    """The three families the cold/warm compile benchmark builds."""
    yield "fcnn", ComplexFCNN(128, (160, 160), 10, decoder="merge", rng=rng), \
        "SI", (3, 1, 16, 16)
    yield "lenet5", ComplexLeNet5(in_channels=2, num_classes=10, image_size=(24, 24),
                                  channels=(3, 8), hidden_sizes=(60, 42),
                                  decoder="merge", rng=rng), "CL", (3, 3, 24, 24)
    resnet = ComplexResNet(depth=14, in_channels=2, num_classes=10,
                           base_widths=(4, 8, 16), decoder="merge", rng=rng)
    randomize_batchnorms(resnet, rng)
    yield "resnet14", resnet, "CL", (3, 3, 12, 12)


def models_under_test(rng, decoder):
    yield "fcnn", ComplexFCNN(18, (10,), 4, decoder=decoder, rng=rng), "SI", (5, 1, 6, 6)
    yield "lenet", tiny_lenet(rng, decoder=decoder), "CL", (4, 3, 12, 12)
    yield "resnet", tiny_resnet(rng, decoder=decoder), "CL", (3, 3, 8, 8)


class TestPlanParity:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_plan_matches_node_walk_on_all_models_and_heads(self, decoder, rng):
        for name, model, scheme_key, shape in models_under_test(rng, decoder):
            scheme = get_scheme(scheme_key)
            program = repro.compile(model)
            signal = encoded_light(program, rng.normal(size=shape), scheme)
            walk = program.graph.forward_reference(signal)
            planned = program.plan().execute(signal)
            assert np.abs(walk - planned).max() <= PARITY, (name, decoder)

    def test_compile_benchmark_families_match_node_walk(self, rng):
        # every fused stage bakes the rank-k SVD product; the walk applies
        # both full meshes
        for name, model, scheme_key, shape in compile_benchmark_families(rng):
            program = repro.compile(model)
            signal = encoded_light(program, rng.normal(size=shape),
                                   get_scheme(scheme_key))
            walk = program.graph.forward_reference(signal)
            planned = program.plan().execute(signal)
            assert np.abs(walk - planned).max() <= PARITY, name

    def test_repeated_execution_is_stable(self, rng):
        # pooled interior buffers must not leak state between calls
        scheme = get_scheme("CL")
        program = repro.compile(tiny_resnet(rng))
        first_images = rng.normal(size=(4, 3, 8, 8))
        second_images = rng.normal(size=(2, 3, 8, 8))     # different batch size
        first = program.predict_logits(first_images, scheme)
        second = program.predict_logits(second_images, scheme)
        assert np.allclose(program.predict_logits(first_images, scheme),
                           first, atol=0)
        assert np.allclose(program.predict_logits(second_images, scheme),
                           second, atol=0)

    def test_output_never_aliases_pooled_storage(self, rng):
        scheme = get_scheme("SI")
        program = repro.compile(ComplexFCNN(18, (10,), 4, decoder="merge", rng=rng))
        signal = encoded_light(program, rng.normal(size=(3, 1, 6, 6)), scheme)
        first = program.forward_signals(signal)
        kept = first.copy()
        program.forward_signals(encoded_light(
            program, rng.normal(size=(3, 1, 6, 6)), scheme))
        assert np.array_equal(first, kept)

    def test_conv_output_never_aliases_pooled_storage(self, rng):
        # the reshape back to feature maps can be a view of the matmul
        # buffer, so a conv-output program must not pool its last instruction
        from repro.nn.complex import ComplexConv2d

        stage = conv_stage(ComplexConv2d(2, 3, 3, rng=rng))
        graph = GraphProgram(nodes=[GraphNode("conv", stage, (INPUT,))],
                             output="conv", readout=lambda s: s, num_classes=3)
        def signal():
            return rng.normal(size=(2, 2, 6, 6)) + 1j * rng.normal(size=(2, 2, 6, 6))

        first = graph.forward(signal())
        kept = first.copy()
        graph.forward(signal())
        assert np.array_equal(first, kept)

    def test_flatten_output_over_conv_never_aliases_pool(self, rng):
        # FlattenStage returns a reshape *view*, so a conv whose result
        # reaches the output through a flatten chain must not pool either
        from repro.core.lowering import FlattenStage
        from repro.nn.complex import ComplexConv2d

        stage = conv_stage(ComplexConv2d(2, 3, 3, rng=rng))
        graph = GraphProgram(
            nodes=[GraphNode("conv", stage, (INPUT,)),
                   GraphNode("flat", FlattenStage(), ("conv",))],
            output="flat", readout=lambda s: s, num_classes=3)

        def signal():
            return rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))

        first = graph.forward(signal())        # 1x1 maps: reshape stays a view
        kept = first.copy()
        graph.forward(signal())
        assert np.array_equal(first, kept)

    def test_plan_rebuilds_after_in_place_phase_update(self, rng):
        # update_phases is a documented in-place mutation API; plans bake
        # phases into dense matrices, so forward() must notice and rebuild
        scheme = get_scheme("SI")
        program = repro.compile(ComplexFCNN(18, (10,), 4, decoder="merge", rng=rng))
        signal = encoded_light(program, rng.normal(size=(3, 1, 6, 6)), scheme)
        before = program.forward_signals(signal)     # caches the plan
        stale_plan = program.plan()
        mesh = program.graph.nodes[0].op.matrix.left_mesh
        mesh.update_phases(thetas=mesh.thetas * 0.5)
        assert stale_plan.is_stale()
        after = program.forward_signals(signal)      # rebuilds the plan
        reference = program.graph.forward_reference(signal)
        assert np.abs(after - reference).max() <= PARITY
        assert not np.allclose(after, before)
        assert program.plan() is not stale_plan
        assert not program.plan().is_stale()

    def test_unfused_plan_matches_walk(self, rng):
        # a seeded one-trial noise lane keeps every mesh stage out of the
        # matmul fusion, so this pins the unfused instructions against the walk
        scheme = get_scheme("CL")
        program = repro.compile(tiny_lenet(rng), target=noise_lane())
        signal = encoded_light(program, rng.normal(size=(3, 3, 12, 12)), scheme)
        assert program.plan().fused_matmuls == 0
        assert np.abs(program.plan().execute(signal)
                      - program.graph.forward_reference(signal)).max() <= PARITY

    def test_noise_ensemble_plan_matches_walk(self, rng):
        scheme = get_scheme("CL")
        program = repro.compile(tiny_resnet(rng))
        noisy = program.with_noise(noise=PhaseNoiseModel.seeded(0.02, seed=5), trials=3)
        signal = encoded_light(noisy, rng.normal(size=(2, 3, 8, 8)), scheme)
        walk = noisy.graph.forward_reference(signal)
        planned = noisy.plan().execute(signal)
        assert walk.shape == planned.shape           # (trials, batch, features)
        assert np.abs(walk - planned).max() <= PARITY
        # trials-batched meshes must not have been folded to dense matrices
        assert noisy.plan().fused_matmuls == 0


class TestPlanCompilation:
    def test_chain_ping_pongs_between_two_slots(self, rng):
        # an instruction's output slot is taken before its input's slot is
        # released, so a pure chain alternates between two slots; the
        # flatten's source slot stays reserved while its (possible) view is
        # read by the first linear stage, which takes a third
        program = repro.compile(tiny_lenet(rng))
        plan = program.plan()
        assert [instruction.out_slot for instruction in plan.instructions] \
            == [1, 0, 1, 0, 1, 2, 1, 2]
        assert plan.slot_count == 3

    def test_fanout_needs_extra_slots(self, rng):
        plan = repro.compile(tiny_resnet(rng)).plan()
        assert plan.slot_count >= 2                   # skip branches stay live

    def test_dense_stages_fold_to_matmuls(self, rng):
        plan = repro.compile(tiny_lenet(rng)).plan()
        kinds = [type(instruction) for instruction in plan.instructions]
        assert kinds.count(ConvInstruction) == 2
        assert kinds.count(MatmulInstruction) == 3
        assert plan.fused_matmuls == 5

    def test_trials_batched_stages_stay_unfused(self, rng):
        program = repro.compile(tiny_lenet(rng), target=noise_lane())
        plan = program.plan()
        assert plan.fused_matmuls == 0
        # unfused mesh stages run their own forward on the column program,
        # like every other op; chain_stages counts the two convs and three
        # linears
        assert all(isinstance(instruction, CallInstruction)
                   for instruction in plan.instructions)
        assert plan.chain_stages == 5

    def test_plan_is_cached(self, rng):
        program = repro.compile(tiny_lenet(rng))
        assert program.plan() is program.plan()

    def test_describe_mentions_instructions(self, rng):
        plan = repro.compile(tiny_lenet(rng)).plan()
        text = plan.describe()
        assert "instructions" in text and "buffer slots" in text

    def test_serve_conv_resnet_plan_shape(self, rng):
        # the ResNet-8 the serve-conv benchmark workload serves: base widths
        # (4, 8, 16) on 3x12x12 images under CL
        model = ComplexResNet(depth=8, in_channels=2, num_classes=10,
                              base_widths=(4, 8, 16), rng=rng)
        randomize_batchnorms(model, rng)
        program = repro.compile(model)
        plan = program.plan()
        # every mesh stage fuses, the 144-wide conv included; each conv
        # absorbs its batch norm (and CReLU), each skip add its CReLU, and
        # only the global pool still runs its own forward
        assert plan.describe() == (
            "14 instructions over 3 buffer slots (3 AddInstruction, "
            "1 CallInstruction, 9 ConvInstruction, 1 MatmulInstruction)")
        assert plan.chain_stages == 0
        assert [instruction.nodes for instruction in plan.instructions[:4]] == [
            ("stem.0", "stem.1", "stem.2"),
            ("stages.0.conv1", "stages.0.bn1", "stages.0.crelu1"),
            ("stages.0.conv2", "stages.0.bn2"),
            ("stages.0.add", "stages.0.crelu2")]
        signal = encoded_light(program, rng.normal(size=(4, 3, 12, 12)),
                               get_scheme("CL"))
        assert np.abs(plan.execute(signal)
                      - program.graph.forward_reference(signal)).max() <= PARITY


class TestPlanStorage:
    def test_plan_owns_one_array_per_slot_plus_two_scratches(self, rng):
        # storage is keyed by slot, not by instruction: a ResNet-14 plan of
        # 23 instructions owns at most slot_count arrays plus the padding
        # and patch scratches, at every batch size it has served
        model = ComplexResNet(depth=14, in_channels=2, num_classes=10,
                              base_widths=(4, 8, 16), rng=rng)
        randomize_batchnorms(model, rng)
        program = repro.compile(model)
        plan = program.plan()
        assert plan.instruction_count > 2 * plan.slot_count
        for batch in (4, 1, 9):
            signal = encoded_light(program, rng.normal(size=(batch, 3, 12, 12)),
                                   get_scheme("CL"))
            assert np.abs(plan.execute(signal)
                          - program.graph.forward_reference(signal)).max() <= PARITY
            owned = plan._storage.values()
            assert len({id(array) for array in owned}) <= plan.slot_count + 2
            assert set(plan._storage) <= set(range(plan.slot_count)) | {"pad", "patches"}

    def test_execute_never_writes_into_the_callers_array(self, rng):
        # a folded add -> CReLU reads the caller's array directly; it writes
        # into its own slot, never into the input
        from repro.nn.complex import ComplexConv2d

        stage = conv_stage(ComplexConv2d(2, 2, 3, padding=1, rng=rng))
        graph = GraphProgram(
            nodes=[GraphNode("add", ElectronicAdd(), (INPUT, INPUT)),
                   GraphNode("act", ElectronicActivation(), ("add",)),
                   GraphNode("conv", stage, ("act",)),
                   GraphNode("skip", ElectronicAdd(), ("conv", INPUT)),
                   GraphNode("out", ElectronicActivation(), ("skip",))],
            output="out", readout=lambda s: s, num_classes=2)
        plan = graph.plan()
        assert [instruction.nodes for instruction in plan.instructions] == [
            ("add", "act"), ("conv",), ("skip", "out")]
        assert [type(instruction) for instruction in plan.instructions] == [
            AddInstruction, ConvInstruction, AddInstruction]
        signal = rng.normal(size=(3, 2, 5, 4)) + 1j * rng.normal(size=(3, 2, 5, 4))
        pristine = signal.copy()
        result = plan.execute(signal)
        assert np.array_equal(signal, pristine)
        assert not np.may_share_memory(result, signal)
        assert np.abs(result - graph.forward_reference(signal)).max() <= PARITY


class TestUnabsorbedAffines:
    """Batch norms no fused stage absorbs: each runs as its own call."""

    @staticmethod
    def _affine(scale, shift, spatial=False):
        scale = np.asarray(scale, dtype=float)
        shift = np.asarray(shift, dtype=float)
        return ElectronicBatchNorm(real_scale=scale, real_shift=shift,
                                   imag_scale=scale * 0.5, imag_shift=shift - 1.0,
                                   spatial=spatial)

    def _program(self, nodes, output):
        return GraphProgram(nodes=nodes, output=output, readout=lambda s: s,
                            num_classes=2)

    def test_adjacent_affines_run_as_calls(self, rng):
        first = self._affine([2.0, 3.0], [0.5, -0.5])
        second = self._affine([0.25, 4.0], [1.0, 2.0])
        graph = self._program([GraphNode("bn1", first, (INPUT,)),
                               GraphNode("bn2", second, ("bn1",))], "bn2")
        plan = graph.plan()
        assert [instruction.nodes for instruction in plan.instructions] == [
            ("bn1",), ("bn2",)]
        assert all(isinstance(instruction, CallInstruction)
                   and isinstance(instruction.op, ElectronicBatchNorm)
                   for instruction in plan.instructions)
        signal = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert np.abs(graph.forward_reference(signal)
                      - plan.execute(signal)).max() <= PARITY

    def test_triple_chain_matches_reference(self, rng):
        nodes = [GraphNode("bn1", self._affine([2.0], [0.1]), (INPUT,)),
                 GraphNode("bn2", self._affine([3.0], [0.2]), ("bn1",)),
                 GraphNode("bn3", self._affine([0.5], [0.3]), ("bn2",))]
        graph = self._program(nodes, "bn3")
        signal = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        assert np.abs(graph.forward_reference(signal)
                      - graph.plan().execute(signal)).max() <= PARITY

    def test_fanned_out_affine_matches_reference(self, rng):
        # bn1 feeds both bn2 and the skip add
        nodes = [GraphNode("bn1", self._affine([2.0, 1.5], [0.1, 0.0]), (INPUT,)),
                 GraphNode("bn2", self._affine([3.0, 0.5], [0.2, 1.0]), ("bn1",)),
                 GraphNode("add", ElectronicAdd(), ("bn2", "bn1"))]
        graph = self._program(nodes, "add")
        signal = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.abs(graph.forward_reference(signal)
                      - graph.plan().execute(signal)).max() <= PARITY

    def test_output_affine_chain_matches_reference(self, rng):
        nodes = [GraphNode("bn1", self._affine([2.0], [0.5]), (INPUT,)),
                 GraphNode("bn2", self._affine([0.5], [0.25]), ("bn1",))]
        graph = self._program(nodes, "bn2")
        signal = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
        assert np.abs(graph.forward_reference(signal)
                      - graph.plan().execute(signal)).max() <= PARITY

    def test_mixed_layouts_match_reference(self, rng):
        spatial = ElectronicBatchNorm(real_scale=np.ones(2), real_shift=np.zeros(2),
                                      imag_scale=np.ones(2), imag_shift=np.zeros(2),
                                      spatial=True)
        flat = self._affine([1.0, 2.0], [0.0, 0.1], spatial=False)
        graph = self._program([GraphNode("bn1", spatial, (INPUT,)),
                               GraphNode("bn2", flat, ("bn1",))], "bn2")
        signal = rng.normal(size=(3, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2))
        assert np.abs(graph.forward_reference(signal)
                      - graph.plan().execute(signal)).max() <= PARITY


class TestGraphForwardWrapper:
    def test_forward_is_plan_backed(self, rng):
        scheme = get_scheme("CL")
        program = repro.compile(tiny_lenet(rng))
        signal = encoded_light(program, rng.normal(size=(3, 3, 12, 12)), scheme)
        assert np.abs(program.graph.forward(signal)
                      - program.graph.forward_reference(signal)).max() <= PARITY

    def test_generic_graphs_still_execute(self, rng):
        # hand-built graphs with only electronic ops go through CallInstruction
        graph = GraphProgram(
            nodes=[GraphNode("act", ElectronicActivation(), (INPUT,)),
                   GraphNode("add", ElectronicAdd(), ("act", INPUT))],
            output="add", readout=lambda s: s, num_classes=2)
        signal = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        assert np.abs(graph.forward(signal)
                      - graph.forward_reference(signal)).max() <= PARITY

    def test_plan_execute_callable_alias(self, rng):
        program = repro.compile(ComplexFCNN(8, (6,), 3, decoder="merge", rng=rng))
        plan = program.plan()
        assert isinstance(plan, ExecutionPlan)
        signal = (rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8)))
        assert np.array_equal(plan(signal), plan.execute(signal))


class TestCompilePlanFunction:
    def test_compile_plan_defaults(self, rng):
        program = repro.compile(tiny_lenet(rng))
        plan = compile_plan(program.graph)
        # conv+CReLU, pool, conv+CReLU, pool, flatten, two linear+CReLU and
        # the head: each CReLU node folds into the stage before it
        assert len(program.graph.nodes) == 12
        assert plan.instruction_count == 8

    def test_plans_take_no_options(self, rng):
        program = repro.compile(tiny_lenet(rng))
        for build in (compile_plan, lambda graph, options: program.plan(options),
                      lambda graph, options: graph.plan(options)):
            with pytest.raises(TypeError):
                build(program.graph, None)
        # with nothing to switch it off, every plan fuses its dense stages
        assert compile_plan(program.graph).fused_matmuls == 5
