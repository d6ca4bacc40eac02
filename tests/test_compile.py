"""Tests of the ``repro.compile`` graph compiler API.

Covers the compiler entry point and its target dataclass, the graph IR
produced for residual models (fan-out, electronic skip adds, folded batch
norms) and the execution policy, which follows from whether a mesh is
trials-batched.
"""

import numpy as np
import pytest

import repro
from repro.assignment import get_scheme
from repro.core.area_analysis import model_area_report
from repro.core.compile import CompiledProgram, HardwareTarget
from repro.core.graph_ir import INPUT, ElectronicAdd, ElectronicBatchNorm, GraphProgram
from repro.core.lowering import Conv2dStage, LinearStage
from repro.core.training import prepare_batch
from repro.models import ComplexFCNN
from repro.models.lenet import ComplexLeNet5
from repro.models.resnet import ComplexResNet, RealResNet
from repro.nn.normalization import _BatchNorm
from repro.photonics.noise import PhaseNoiseModel
from repro.tensor import no_grad

DECODERS = ("merge", "linear", "unitary", "coherent", "photodiode")


def randomize_batchnorms(model, rng):
    """Give every batch norm non-trivial running statistics and affine params."""
    for _name, module in model.named_modules():
        if isinstance(module, _BatchNorm):
            module._set_buffer("running_mean", rng.normal(size=module.num_features) * 0.3)
            module._set_buffer("running_var", rng.uniform(0.5, 2.0, size=module.num_features))
            if module.affine:
                module.weight.data[:] = rng.uniform(0.5, 1.5, size=module.num_features)
                module.bias.data[:] = rng.normal(size=module.num_features) * 0.2


def tiny_resnet(rng, decoder="merge", num_classes=3):
    model = ComplexResNet(depth=8, in_channels=2, num_classes=num_classes,
                          base_widths=(2, 3, 4), decoder=decoder, rng=rng)
    randomize_batchnorms(model, rng)
    model.head.calibration.scale.data[:] = rng.uniform(0.5, 1.5, size=num_classes)
    model.head.calibration.bias.data[:] = rng.normal(size=num_classes)
    return model


def tiny_lenet(rng, decoder="merge", num_classes=4):
    return ComplexLeNet5(in_channels=2, num_classes=num_classes, image_size=(12, 12),
                         channels=(3, 4), hidden_sizes=(12, 10), decoder=decoder,
                         kernel_size=3, padding=1, rng=rng)


def software_logits(model, images, scheme):
    model.eval()
    with no_grad():
        return model(prepare_batch(images, scheme)).data


class TestCompileEntryPoint:
    def test_top_level_export(self):
        from repro.core.compile import compile as compile_function

        assert repro.compile is compile_function
        assert repro.HardwareTarget is HardwareTarget

    def test_compiled_lenet_is_a_chain_program(self, rng):
        program = repro.compile(tiny_lenet(rng))
        assert isinstance(program, CompiledProgram)
        assert isinstance(program.graph, GraphProgram)
        assert program.input_kind == "image"
        # a straight line from the input to the output node
        previous = INPUT
        for node in program.graph.nodes:
            assert node.inputs == (previous,)
            previous = node.name
        assert program.graph.output == previous
        kinds = [type(node.op) for node in program.graph.nodes]
        assert kinds.count(Conv2dStage) == 2
        assert kinds.count(LinearStage) == 3
        assert not hasattr(program, "stages")      # the graph is the one view

    def test_compiled_fcnn_matches_software(self, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(18, (10,), 4, decoder="merge", rng=rng)
        program = repro.compile(model)
        images = rng.normal(size=(6, 1, 6, 6))
        assert np.allclose(program.predict_logits(images, scheme),
                           software_logits(model, images, scheme), atol=1e-6)

    def test_unsupported_model_rejected(self, rng):
        with pytest.raises(TypeError, match="register_lowering"):
            repro.compile(RealResNet(depth=8, in_channels=3, num_classes=3,
                                     base_widths=(2, 3, 4), rng=rng))

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            HardwareTarget(method="butterfly")
        with pytest.raises(ValueError):
            HardwareTarget(trials=4)          # trials without a noise model


class TestResNetGraphCompile:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_resnet_matches_software_on_all_decoder_heads(self, decoder, rng):
        scheme = get_scheme("CL")
        model = tiny_resnet(rng, decoder=decoder)
        program = repro.compile(model)
        images = rng.normal(size=(4, 3, 8, 8))
        expected = software_logits(model, images, scheme)
        actual = program.predict_logits(images, scheme)
        assert np.abs(actual - expected).max() <= 1e-8

    @pytest.mark.parametrize("method", ["clements", "reck"])
    def test_both_mesh_methods(self, method, rng):
        scheme = get_scheme("CL")
        model = tiny_resnet(rng)
        program = repro.compile(model, target=HardwareTarget(method=method))
        images = rng.normal(size=(3, 3, 8, 8))
        assert np.abs(program.predict_logits(images, scheme)
                      - software_logits(model, images, scheme)).max() <= 1e-8

    def test_graph_has_skip_adds_and_fanout(self, rng):
        program = repro.compile(tiny_resnet(rng))
        graph = program.graph
        adds = [node for node in graph.nodes if isinstance(node.op, ElectronicAdd)]
        assert len(adds) == 3                      # one skip add per basic block
        assert all(len(node.inputs) == 2 for node in adds)
        # batch norms fold into electronic affine nodes, not mesh stages
        assert any(isinstance(node.op, ElectronicBatchNorm) for node in graph.nodes)
        # at least one producer fans out to two consumers (branch + skip)
        consumers = {}
        for node in graph.nodes:
            for name in node.inputs:
                consumers[name] = consumers.get(name, 0) + 1
        assert max(consumers.values()) >= 2

    def test_mzi_count_matches_area_report(self, rng):
        model = tiny_resnet(rng)
        program = repro.compile(model)
        assert program.mzi_count == model_area_report(model).total_mzis

    def test_batched_equals_looped(self, rng):
        scheme = get_scheme("CL")
        program = repro.compile(tiny_resnet(rng))
        images = rng.normal(size=(4, 3, 8, 8))
        batched = program.predict_logits(images, scheme)
        looped = np.concatenate([program.predict_logits(images[i:i + 1], scheme)
                                 for i in range(len(images))])
        assert np.allclose(batched, looped, atol=1e-12)

    def test_noise_trials_and_sigma_axes(self, rng):
        scheme = get_scheme("CL")
        program = repro.compile(tiny_resnet(rng))
        images = rng.normal(size=(2, 3, 8, 8))
        noise = PhaseNoiseModel(sigma=np.array([0.0, 0.05]), rng=rng)
        logits = program.with_noise(noise=noise, trials=3).predict_logits(images, scheme)
        assert logits.shape == (2, 3, 2, 3)        # (sigmas, trials, batch, classes)
        clean = program.predict_logits(images, scheme)
        # the sigma = 0 slice must agree with the clean circuit; the identity
        # skip branches broadcast against the trials axes of the mesh branches
        assert np.allclose(logits[0], np.broadcast_to(clean, (3,) + clean.shape),
                           atol=1e-8)


def mesh_stage_meshes(program):
    return [mesh for node in program.graph.nodes
            if isinstance(node.op, (LinearStage, Conv2dStage))
            for mesh in (node.op.matrix.left_mesh, node.op.matrix.right_mesh)]


def zero_noise_lane(program, trials=2):
    """The program's exact phases, trials-batched: every mesh runs the column
    program instead of its dense matrix."""
    return program.with_noise(noise=PhaseNoiseModel(sigma=0.0), trials=trials)


class TestExecutionPolicy:
    def test_policy_follows_trials_batching(self, rng):
        program = repro.compile(tiny_lenet(rng))
        meshes = mesh_stage_meshes(program)
        assert meshes
        assert all(mesh.uses_dense_path() for mesh in meshes)
        batched = mesh_stage_meshes(zero_noise_lane(program))
        assert batched and not any(mesh.uses_dense_path() for mesh in batched)

    def test_column_lane_agrees_with_dense_lane(self, rng):
        scheme = get_scheme("CL")
        model = tiny_lenet(rng)
        images = rng.normal(size=(3, 3, 12, 12))
        program = repro.compile(model)
        reference = program.predict_logits(images, scheme)
        lane = zero_noise_lane(program).predict_logits(images, scheme)
        assert lane.shape == (2,) + reference.shape
        assert np.allclose(lane, reference, atol=1e-9)

    def test_clean_and_noisy_programs_do_not_share_state(self, rng):
        # a noisy copy gets its own meshes; the clean program stays dense
        program = repro.compile(tiny_lenet(rng))
        noisy = program.with_noise(noise=PhaseNoiseModel.seeded(0.01, seed=3),
                                   trials=1)
        assert all(mesh.uses_dense_path() for mesh in mesh_stage_meshes(program))
        assert not any(mesh.uses_dense_path() for mesh in mesh_stage_meshes(noisy))

    def test_target_noise_is_baked_in(self, rng):
        scheme = get_scheme("CL")
        model = tiny_lenet(rng)
        target = HardwareTarget(noise=PhaseNoiseModel.seeded(0.03, seed=11), trials=4)
        program = repro.compile(model, target=target)
        logits = program.predict_logits(rng.normal(size=(2, 3, 12, 12)), scheme)
        assert logits.shape == (4, 2, 4)           # (trials, batch, classes)

    def test_quantization_target(self, rng):
        scheme = get_scheme("CL")
        model = tiny_lenet(rng)
        images = rng.normal(size=(2, 3, 12, 12))
        clean = repro.compile(model).predict_logits(images, scheme)
        coarse = repro.compile(model, target=HardwareTarget(quantization_bits=6))
        assert not np.allclose(coarse.predict_logits(images, scheme), clean)

    def test_with_noise_keeps_the_target_fields_it_does_not_set(self, rng):
        # the meshes compose the degradations, so the target must still
        # report the compile-time noise and its trials
        noise = PhaseNoiseModel.seeded(0.05, seed=1)
        program = repro.compile(ComplexFCNN(8, (6,), 3, decoder="merge", rng=rng),
                                target=HardwareTarget(noise=noise, trials=2))
        quantized = program.with_noise(quantization_bits=6)
        assert quantized.target == HardwareTarget(noise=noise, quantization_bits=6,
                                                  trials=2)
        signal = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        assert quantized.readout(quantized.forward(signal)).shape == (2, 4, 3)
        # a field the call sets is replaced
        drift = PhaseNoiseModel.seeded(0.01, seed=2)
        assert quantized.with_noise(noise=drift).target == HardwareTarget(
            noise=drift, quantization_bits=6, trials=2)
        assert program.target == HardwareTarget(noise=noise, trials=2)


class TestQuantizationEndToEnd:
    """``HardwareTarget.quantization_bits`` through the full compile pipeline."""

    BITS = (10, 8, 6, 4)        # sensible DAC resolutions; below ~3 bits the
    #                             phase wrap-around makes the error non-monotone

    def test_accuracy_degrades_monotonically_with_fewer_bits(self, rng):
        scheme = get_scheme("CL")
        model = tiny_lenet(rng)
        images = rng.normal(size=(24, 3, 12, 12))
        clean = repro.compile(model).predict_logits(images, scheme)
        clean_predictions = clean.argmax(axis=-1)
        errors, agreements = [], []
        for bits in self.BITS:
            program = repro.compile(model, target=HardwareTarget(quantization_bits=bits))
            logits = program.predict_logits(images, scheme)
            errors.append(float(np.abs(logits - clean).max()))
            agreements.append(float((logits.argmax(axis=-1)
                                     == clean_predictions).mean()))
        # fewer bits -> strictly larger logit error, no better agreement
        for fine, coarse in zip(errors, errors[1:]):
            assert coarse > fine
        for fine, coarse in zip(agreements, agreements[1:]):
            assert coarse <= fine

    @pytest.mark.parametrize("bits", [4, 6])
    def test_with_noise_quantization_equals_compile_time(self, bits, rng):
        scheme = get_scheme("CL")
        model = tiny_lenet(rng)
        images = rng.normal(size=(4, 3, 12, 12))
        at_compile = repro.compile(
            model, target=HardwareTarget(quantization_bits=bits))
        post_hoc = repro.compile(model).with_noise(quantization_bits=bits)
        assert np.allclose(post_hoc.predict_logits(images, scheme),
                           at_compile.predict_logits(images, scheme), atol=1e-12)
        assert post_hoc.target.quantization_bits == bits

    def test_quantized_program_keeps_mzi_count(self, rng):
        model = tiny_lenet(rng)
        clean = repro.compile(model)
        coarse = repro.compile(model, target=HardwareTarget(quantization_bits=5))
        assert coarse.mzi_count == clean.mzi_count


class TestOneCompilePath:
    """``repro.compile`` is the only entry point and the target its only input."""

    def test_one_way_to_map_a_weight_onto_meshes(self):
        """No layer takes a mapping or execution knob."""
        import inspect

        from repro.core.lowering import LoweringContext, lower_to_graph
        from repro.photonics import _native
        from repro.photonics.svd_mapping import svd_decompose, svd_decompose_many

        signatures = {
            repro.compile: ["model", "target", "store", "store_refresh"],
            lower_to_graph: ["model", "method", "deploy_fn"],
            LoweringContext.__init__: ["self", "method", "deploy_fn"],
            svd_decompose_many: ["weights", "method", "normalize"],
            svd_decompose: ["weight", "method", "normalize"],
        }
        for function, parameters in signatures.items():
            assert list(inspect.signature(function).parameters) == parameters
        # the stack entry point is the kernel's only decomposition chain
        assert not hasattr(_native.ChainKernel, "clements_chain")
        assert hasattr(_native.ChainKernel, "clements_chain_stack")

    def test_no_execution_knob_reaches_the_meshes(self):
        import inspect

        from repro.core.lowering import LoweringContext, lower_to_graph
        from repro.photonics.mzi_mesh import MeshDecomposition
        from repro.photonics.svd_mapping import (
            PhotonicMatrix,
            svd_decompose,
            svd_decompose_many,
        )

        for function in (lower_to_graph, svd_decompose, svd_decompose_many,
                         LoweringContext.deploy_weight, LinearStage.__init__,
                         Conv2dStage.__init__, PhotonicMatrix.degraded,
                         MeshDecomposition.__init__, MeshDecomposition.with_phases):
            parameters = inspect.signature(function).parameters
            assert not [name for name in parameters
                        if "dense" in name or "backend" in name], function

    def test_compile_is_the_only_compile_entry_point(self):
        import importlib

        import repro.core

        assert repro.core.compile is repro.compile
        stale = [name for name in dir(repro.core)
                 if name.startswith(("deploy", "Deployed", "Lowered"))]
        assert stale == []
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.deploy")


class TestDeletedExecutionKnobs:
    """The mesh backend knob and its carriers are gone, not deprecated."""

    def test_compile_options_is_gone(self):
        import dataclasses

        import repro.core
        import repro.core.compile as compile_module
        import repro.store

        for namespace in (repro, repro.core, compile_module, repro.store):
            assert not hasattr(namespace, "CompileOptions"), namespace
        assert "CompileOptions" not in repro.__all__
        assert "CompileOptions" not in repro.core.__all__
        assert [f.name for f in dataclasses.fields(CompiledProgram)] == [
            "graph", "target", "encoder", "store_key", "store_hit"]

    def test_mesh_backend_is_gone(self, rng):
        from repro.photonics import mzi_mesh, svd_mapping
        from repro.photonics.mzi_mesh import MeshDecomposition

        assert not hasattr(MeshDecomposition, "BACKENDS")
        assert not hasattr(MeshDecomposition, "resolve_backend")
        mesh = svd_mapping.svd_decompose(rng.normal(size=(3, 4))).left_mesh
        assert not hasattr(mesh, "backend")
        with pytest.raises(TypeError):
            MeshDecomposition(dimension=2, backend="column")
        assert not hasattr(svd_mapping, "_apply_mesh_policy")
        assert not hasattr(mzi_mesh, "_log_native_fallback")
        assert not hasattr(mzi_mesh, "_NATIVE_FALLBACK_LOGGED")

    def test_chain_instruction_is_gone(self):
        import dataclasses

        from repro.core import runtime

        assert not hasattr(runtime, "ChainInstruction")
        # the unfused-stage count stays: the serving benchmarks report it
        assert "chain_stages" in {f.name for f in
                                  dataclasses.fields(runtime.ExecutionPlan)}

    def test_serving_and_store_take_no_options(self):
        import inspect

        from repro.core.pipeline import OplixNet
        from repro.serve.shard import ShardedInferenceService
        from repro.serve.worker import WorkerSpec
        from repro.store import ArtifactStore

        for function in (OplixNet.deploy, ShardedInferenceService.deploy,
                         WorkerSpec.__init__, ArtifactStore.key_for,
                         ArtifactStore.try_key_for, ArtifactStore.load,
                         ArtifactStore.save):
            assert "options" not in inspect.signature(function).parameters, function


class TestLoweringRegistry:
    def test_rules_are_extensible(self, rng):
        from repro.core.graph_ir import ElectronicActivation
        from repro.core.lowering import (
            LoweringContext,
            _LAYER_RULES,
            register_lowering,
        )

        class Doubler:
            """A toy electronic module type with its own lowering rule."""

        @register_lowering(Doubler)
        def _lower_doubler(module, name, ctx):
            ctx.emit(name, ElectronicActivation())

        try:
            ctx = LoweringContext()
            ctx.lower_chain([Doubler()], "custom")
            assert ctx.builder.node_count == 1
            assert isinstance(ctx.builder.ops()[0], ElectronicActivation)
        finally:
            del _LAYER_RULES[Doubler]

    def test_mro_dispatch_covers_subclasses(self, rng):
        from repro.core.lowering import LoweringContext
        from repro.nn.complex import ComplexLinear

        class FancyLinear(ComplexLinear):
            pass

        ctx = LoweringContext()
        ctx.lower_chain([FancyLinear(4, 3, rng=rng)], "custom")
        ctx.finalize()
        assert isinstance(ctx.builder.ops()[0], LinearStage)

    def test_activation_folds_only_for_sole_consumers(self, rng):
        from repro.core.graph_ir import ElectronicActivation
        from repro.core.lowering import LoweringContext
        from repro.core.runtime import (
            AddInstruction,
            CallInstruction,
            MatmulInstruction,
        )
        from repro.nn.complex import ComplexLinear, CReLU

        def plan_of(ctx):
            ctx.finalize()
            graph = ctx.builder.build(ctx.cursor, readout=lambda signal: signal,
                                      num_classes=4)
            return graph, graph.plan()

        signal = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))

        # pure chain: the lowered graph keeps the CReLU as its own node, and
        # the plan folds it into the linear stage's matmul
        ctx = LoweringContext()
        ctx.lower_chain([ComplexLinear(4, 4, rng=rng), CReLU()], "chain")
        graph, plan = plan_of(ctx)
        assert [type(node.op) for node in graph.nodes] == [LinearStage,
                                                          ElectronicActivation]
        assert len(plan.instructions) == 1
        matmul = plan.instructions[0]
        assert isinstance(matmul, MatmulInstruction) and matmul.relu
        assert matmul.nodes == ("chain.0", "chain.1")
        assert np.abs(plan.execute(signal)
                      - graph.forward_reference(signal)).max() <= 1e-12

        # fan-out: a skip branch consumes the pre-activation output, so the
        # CReLU stays its own instruction and the add reads the un-activated
        # linear output
        ctx = LoweringContext()
        ctx.lower_module(ComplexLinear(4, 4, rng=rng), "linear")
        entry = ctx.cursor
        ctx.lower_module(CReLU(), "act")
        main = ctx.cursor
        ctx.emit("add", ElectronicAdd(), inputs=(main, entry))
        graph, plan = plan_of(ctx)
        matmul, activation, add = plan.instructions
        assert isinstance(matmul, MatmulInstruction) and not matmul.relu
        assert isinstance(activation, CallInstruction)
        assert activation.nodes == ("act",)
        assert isinstance(add, AddInstruction) and not add.relu
        assert add.in_slots == (activation.out_slot, matmul.out_slot)
        linear = graph.node("linear").op.forward(signal)
        expected = np.maximum(linear.real, 0) + 1j * np.maximum(linear.imag, 0) + linear
        assert np.abs(plan.execute(signal) - expected).max() <= 1e-12

    def test_op_with_only_forward_compiles_counts_and_degrades(self, rng):
        from repro.core.graph_ir import ElectronicActivation
        from repro.core.lowering import _LAYER_RULES, register_lowering
        from repro.nn import Module

        class Negate(Module):
            """A toy module that flips the sign of its input."""

            def forward(self, inputs):
                return -inputs

        class NegationOp:
            """A graph op with nothing but ``forward``."""

            def forward(self, signal):
                return -np.asarray(signal, dtype=complex)

        @register_lowering(Negate)
        def _lower_negate(module, name, ctx):
            ctx.emit(name, NegationOp())

        try:
            plain = repro.compile(ComplexFCNN(8, (6,), 3, decoder="merge",
                                              rng=np.random.default_rng(0)))
            model = ComplexFCNN(8, (6,), 3, decoder="merge",
                                rng=np.random.default_rng(0))
            model.trunk.append(Negate())
            negated = repro.compile(model)
        finally:
            del _LAYER_RULES[Negate]
        assert [type(node.op) for node in negated.graph.nodes] == [
            LinearStage, ElectronicActivation, NegationOp, LinearStage]
        assert negated.mzi_count == plain.mzi_count > 0
        signal = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        assert np.abs(negated.forward(signal)
                      - negated.graph.forward_reference(signal)).max() <= 1e-12

        noisy = negated.with_noise(PhaseNoiseModel.seeded(0.01, seed=0), trials=2)
        assert noisy.mzi_count == plain.mzi_count
        assert noisy.graph.node("trunk.2").op is negated.graph.node("trunk.2").op
        outputs = noisy.forward(signal)
        assert outputs.shape == (2, 4, 6)
        assert not np.allclose(outputs[0], outputs[1])
        assert np.abs(outputs - noisy.graph.forward_reference(signal)).max() <= 1e-12

    def test_no_op_carries_a_noise_protocol_or_a_device_count(self):
        import dataclasses
        import importlib

        import repro.photonics
        from repro.core import graph_ir, lowering

        for op in (graph_ir.ElectronicAdd, graph_ir.ElectronicActivation,
                   graph_ir.ElectronicBatchNorm, lowering.LinearStage,
                   lowering.Conv2dStage, lowering.AvgPool2dStage,
                   lowering.GlobalAvgPool2dStage, lowering.FlattenStage):
            assert not hasattr(op, "with_noise"), op
            assert not hasattr(op, "mzi_count"), op
            fields = {field.name for field in dataclasses.fields(op)}
            assert ("matrix" in fields) == (op in (lowering.LinearStage,
                                                   lowering.Conv2dStage)), op
        assert not hasattr(lowering, "lower_complex_conv2d")
        assert not hasattr(repro.photonics, "PhotonicLinearLayer")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.photonics.circuit")

    def test_graph_program_validates_topology(self):
        from repro.core.graph_ir import GraphNode

        op = ElectronicAdd()
        with pytest.raises(ValueError, match="undefined"):
            GraphProgram(nodes=[GraphNode("a", op, ("missing",))], output="a",
                         readout=lambda s: s, num_classes=1)
        with pytest.raises(ValueError, match="duplicate"):
            GraphProgram(nodes=[GraphNode("a", op, (INPUT,)),
                                GraphNode("a", op, (INPUT,))],
                         output="a", readout=lambda s: s, num_classes=1)
