"""Property tests of the plan compiler over random small dataflow graphs.

:func:`repro.core.runtime.compile_plan` rewrites a graph into a flat
instruction list: mesh stages fold into effective matmuls, each fused stage
or add absorbs the batch norm and CReLU after it, and values share buffer slots whose plan-owned storage is reused.
Hypothesis draws small DAGs -- fan-out, skip adds, adjacent batch norms,
``FlattenStage`` chains into the output, linear and conv stages that are
unbatched (fused) or carry a seeded trials-batched noise ensemble of one or
two trials (unfused, on the column program), convs of stride 1 or 2 with
3x3 or unpadded 1x1 kernels on non-square maps, and ResNet-style strided
shortcuts -- and checks three things on each:

* slot reuse never clobbers a live value: after every instruction, every
  value a node not yet computed still reads sits unchanged in its slot;
* the returned output never aliases plan storage: a result kept from one
  ``execute`` is unchanged by the next call;
* ``plan.execute`` matches ``forward_reference`` to 1e-12, and never
  writes into the caller's array.

Explicit cases pin which epilogues fold: only a sole consumer of a
producer that is not the program output.
"""

from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.graph_ir import (
    INPUT,
    ElectronicActivation,
    ElectronicAdd,
    ElectronicBatchNorm,
    GraphNode,
    GraphProgram,
)
from repro.core.lowering import Conv2dStage, FlattenStage, LinearStage
from repro.core.runtime import compile_plan
from repro.photonics.noise import PhaseNoiseModel
from repro.photonics.svd_mapping import svd_decompose

PARITY = 1e-12
#: None keeps a stage unbatched (it fuses); 1 or 2 draws a seeded noise
#: ensemble of that many trials (it stays unfused)
STAGE_TRIALS = (None, 1, 2)


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _mesh(draw, rng, rows: int, cols: int) -> Dict[str, Any]:
    """The ``matrix`` and ``bias`` fields of a random mesh stage."""
    weight = _complex(rng, (rows, cols)) / np.sqrt(cols)
    bias = _complex(rng, (rows,)) if draw(st.booleans()) else None
    matrix = svd_decompose(weight)
    trials = draw(st.sampled_from(STAGE_TRIALS))
    if trials is not None:
        noise = PhaseNoiseModel.seeded(0.01, seed=draw(st.integers(0, 2 ** 16)))
        matrix = matrix.degraded(noise, trials=trials)
    return {"matrix": matrix, "bias": bias}


def _affine(rng, channels: int, spatial: bool) -> ElectronicBatchNorm:
    return ElectronicBatchNorm(
        real_scale=rng.uniform(0.5, 1.5, channels),
        real_shift=rng.normal(size=channels),
        imag_scale=rng.uniform(0.5, 1.5, channels),
        imag_shift=rng.normal(size=channels), spatial=spatial)


def _conv(draw, rng, channels: int, out_channels: int,
          kernel: int, stride: Tuple[int, int]) -> Conv2dStage:
    """A 3x3 conv padded by one, or a 1x1 conv without padding."""
    padding = (kernel // 2, kernel // 2)
    return Conv2dStage(
        **_mesh(draw, rng, out_channels, channels * kernel * kernel),
        in_channels=channels, out_channels=out_channels,
        kernel_size=(kernel, kernel), stride=stride, padding=padding)


def _trunk(draw, rng, shape: Tuple[int, ...], image: bool, source: str = INPUT,
           prefix: str = "n") -> Tuple[List[GraphNode], Tuple[int, ...]]:
    """A random DAG of mesh stages, affines, CReLUs and adds.

    ``shape`` is the value shape past the batch axis (``(features,)`` or
    ``(channels, height, width)``).  A ``resize`` step changes it -- a wider
    or narrower linear stage, or a conv with stride 1 or 2 and a new channel
    count, optionally with a 1x1 strided shortcut added back in like a
    ResNet downsample block -- after which only values of the new shape are
    drawn from.  The trunk reads ``source``; returns the nodes and the final
    value shape.
    """
    nodes: List[GraphNode] = []
    names = [source]
    kinds = ("mesh", "affine", "affine", "activation", "add", "resize")
    for index in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(kinds))
        # mostly chain on the newest value, sometimes fan out from an older one
        source = names[-1] if draw(st.booleans()) else draw(st.sampled_from(names))
        name = f"{prefix}{index}"
        if kind == "resize" and image:
            channels, height, width = shape
            stride = draw(st.sampled_from(((1, 1), (1, 2), (2, 1), (2, 2))))
            out_channels = draw(st.integers(1, 3))
            shape = (out_channels, (height - 1) // stride[0] + 1,
                     (width - 1) // stride[1] + 1)
            nodes.append(GraphNode(name, _conv(
                draw, rng, channels, out_channels,
                draw(st.sampled_from((1, 3))), stride), (source,)))
            names = [name]
            if draw(st.booleans()):
                nodes.append(GraphNode(f"{name}s", _conv(
                    draw, rng, channels, out_channels, 1, stride),
                    (source,)))
                nodes.append(GraphNode(f"{name}a", ElectronicAdd(),
                                       (name, f"{name}s")))
                names = [f"{name}a"]
            continue
        if kind == "resize":
            features = draw(st.integers(2, 5))
            op = LinearStage(**_mesh(draw, rng, features, shape[0]))
            shape = (features,)
            nodes.append(GraphNode(name, op, (source,)))
            names = [name]
            continue
        if kind == "mesh" and image:
            op = _conv(draw, rng, shape[0], shape[0],
                       draw(st.sampled_from((1, 3))), (1, 1))
        elif kind == "mesh":
            op = LinearStage(**_mesh(draw, rng, shape[0], shape[0]))
        elif kind == "affine":
            op = _affine(rng, shape[0], spatial=image)
        elif kind == "activation":
            op = ElectronicActivation()
        else:
            other = draw(st.sampled_from(names))
            nodes.append(GraphNode(name, ElectronicAdd(), (source, other)))
            names.append(name)
            continue
        nodes.append(GraphNode(name, op, (source,)))
        names.append(name)
    return nodes, shape


@st.composite
def flat_programs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    features = draw(st.integers(2, 5))
    nodes, _ = _trunk(draw, rng, (features,), image=False)
    # any node may be the output; nodes after it still execute
    output = nodes[draw(st.integers(0, len(nodes) - 1))].name
    signal = _complex(rng, (draw(st.integers(1, 4)), features))
    return GraphProgram(nodes=nodes, output=output, readout=lambda s: s,
                        num_classes=features), signal, rng


@st.composite
def image_programs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # maps need not be square
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    nodes, final = _trunk(draw, rng, shape, image=True)
    tail = draw(st.sampled_from(("maps", "flatten", "flatten+linear",
                                 "flatten+trunk")))
    if tail != "maps":
        # a FlattenStage reshape chains the trunk's value into the output;
        # it is a view of its input whenever the layout allows
        nodes.append(GraphNode("flat", FlattenStage(), (nodes[-1].name,)))
    if tail == "flatten+linear":
        nodes.append(GraphNode("head", LinearStage(
            **_mesh(draw, rng, 3, int(np.prod(final)))), ("flat",)))
    if tail == "flatten+trunk":
        # a flat trunk that may read the flattened view long after the
        # storage it views was last read under its own name
        nodes += _trunk(draw, rng, (int(np.prod(final)),), image=False,
                        source="flat", prefix="f")[0]
    signal = _complex(rng, (draw(st.integers(1, 3)),) + shape)
    return GraphProgram(nodes=nodes, output=nodes[-1].name, readout=lambda s: s,
                        num_classes=3, input_kind="image"), signal, rng


def _check_plan(graph: GraphProgram, signal: np.ndarray, rng) -> None:
    plan = compile_plan(graph)
    # every node of the graph is computed by exactly one instruction, which
    # writes the value of the last node it names
    nodes, output = graph.nodes, graph.output
    covered = [name for instruction in plan.instructions for name in instruction.nodes]
    assert sorted(covered) == sorted(node.name for node in nodes)
    values = {INPUT: signal}
    readers = {}
    for node in nodes:
        values[node.name] = node.op.forward(*(values[name] for name in node.inputs))
        for name in node.inputs:
            readers.setdefault(name, set()).add(node.name)

    # slot reuse: after each instruction, every value that a node not yet
    # computed still reads (and the output) must sit unchanged in its slot
    pristine = signal.copy()
    buffers = [None] * plan.slot_count
    buffers[0] = signal
    slot_of = {INPUT: 0}
    computed = set()
    for instruction in plan.instructions:
        instruction.run(buffers, plan)
        computed.update(instruction.nodes)
        slot_of[instruction.nodes[-1]] = instruction.out_slot
        for name, slot in slot_of.items():
            if name == output or readers.get(name, set()) - computed:
                assert np.abs(buffers[slot] - values[name]).max() <= PARITY, \
                    (name, instruction.nodes, type(instruction).__name__)
    assert plan.output_slot == slot_of[output]
    assert np.array_equal(signal, pristine)            # input never mutated

    # parity against the kept node-walk oracle
    reference = graph.forward_reference(signal)
    kept = plan.execute(signal)
    assert np.array_equal(signal, pristine)
    assert kept.shape == reference.shape
    assert np.abs(kept - reference).max() <= PARITY

    # the returned output owns its storage: the next call leaves it alone
    snapshot = kept.copy()
    assert not any(np.may_share_memory(kept, array)
                   for array in plan._storage.values())
    plan.execute(_complex(rng, signal.shape))
    assert np.array_equal(kept, snapshot)


# example counts come from the Hypothesis profile (tests/conftest.py):
# ``default`` for tier-1, ``HYPOTHESIS_PROFILE=ci`` for the longer CI run
@given(flat_programs())
def test_flat_dag_plans_are_sound(case):
    _check_plan(*case)


@given(image_programs())
def test_image_dag_plans_are_sound(case):
    _check_plan(*case)


# --------------------------------------------------------------------------- #
# explicit epilogue folds
# --------------------------------------------------------------------------- #
def _fold_case(case: str, rng):
    """A small ResNet-shaped graph; returns it and the expected instruction
    groups (the node names each instruction computes, in order)."""
    channels = 2

    def conv():
        return Conv2dStage(
            matrix=svd_decompose(_complex(rng, (channels, channels * 9)) / 4.0),
            bias=_complex(rng, (channels,)),
            in_channels=channels, out_channels=channels, kernel_size=(3, 3),
            stride=(1, 1), padding=(1, 1))

    bn, act = _affine(rng, channels, spatial=True), ElectronicActivation()
    if case == "conv-bn-crelu":
        nodes = [GraphNode("conv", conv(), (INPUT,)),
                 GraphNode("bn", bn, ("conv",)),
                 GraphNode("act", act, ("bn",))]
        return nodes, "act", [("conv", "bn", "act")]
    if case == "add-crelu":
        nodes = [GraphNode("conv", conv(), (INPUT,)),
                 GraphNode("add", ElectronicAdd(), ("conv", INPUT)),
                 GraphNode("act", act, ("add",))]
        return nodes, "act", [("conv",), ("add", "act")]
    if case == "bn-of-fanned-out-conv":
        nodes = [GraphNode("conv", conv(), (INPUT,)),
                 GraphNode("bn", bn, ("conv",)),
                 GraphNode("add", ElectronicAdd(), ("bn", "conv"))]
        return nodes, "add", [("conv",), ("bn",), ("add",)]
    if case == "bn-of-output-conv":
        nodes = [GraphNode("conv", conv(), (INPUT,)),
                 GraphNode("bn", bn, ("conv",))]
        return nodes, "conv", [("conv",), ("bn",)]
    if case == "crelu-of-fanned-out-bn":
        nodes = [GraphNode("conv", conv(), (INPUT,)),
                 GraphNode("bn", bn, ("conv",)),
                 GraphNode("act", act, ("bn",)),
                 GraphNode("add", ElectronicAdd(), ("act", "bn"))]
        return nodes, "add", [("conv", "bn"), ("act",), ("add",)]
    if case == "crelu-of-output-add":
        nodes = [GraphNode("conv", conv(), (INPUT,)),
                 GraphNode("add", ElectronicAdd(), ("conv", "conv")),
                 GraphNode("act", act, ("add",))]
        return nodes, "add", [("conv",), ("add",), ("act",)]
    raise KeyError(case)


@pytest.mark.parametrize("case", ["conv-bn-crelu", "add-crelu",
                                  "bn-of-fanned-out-conv", "bn-of-output-conv",
                                  "crelu-of-fanned-out-bn", "crelu-of-output-add"])
def test_epilogue_folds_only_sole_consumers_of_non_outputs(case):
    rng = np.random.default_rng(7)
    nodes, output, groups = _fold_case(case, rng)
    graph = GraphProgram(nodes=nodes, output=output, readout=lambda s: s,
                         num_classes=2, input_kind="image")
    assert [instruction.nodes for instruction in compile_plan(graph).instructions] \
        == groups
    _check_plan(graph, _complex(rng, (3, 2, 4, 5)), rng)


def test_flatten_view_keeps_its_source_storage_reserved():
    # on 1x1 maps the flatten is a view of the conv's slot storage; the
    # linear stage after it must not take that slot while the skip add
    # still reads the view
    rng = np.random.default_rng(11)
    conv = Conv2dStage(matrix=svd_decompose(_complex(rng, (2, 18)) / 4.0),
                       in_channels=2, out_channels=2, kernel_size=(3, 3),
                       stride=(1, 1), padding=(1, 1))
    linear = LinearStage(matrix=svd_decompose(_complex(rng, (2, 2))))
    graph = GraphProgram(
        nodes=[GraphNode("conv", conv, (INPUT,)),
               GraphNode("flat", FlattenStage(), ("conv",)),
               GraphNode("linear", linear, ("flat",)),
               GraphNode("add", ElectronicAdd(), ("linear", "flat")),
               GraphNode("act", ElectronicActivation(), ("add",))],
        output="act", readout=lambda s: s, num_classes=2, input_kind="image")
    _check_plan(graph, _complex(rng, (3, 2, 1, 1)), rng)
