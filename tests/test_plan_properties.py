"""Property tests of the plan compiler over random small dataflow graphs.

:func:`repro.core.runtime.compile_plan` rewrites a graph into a flat
instruction list: mesh stages fold into effective matmuls, adjacent affines
compose, and node outputs share reusable buffer slots.  Hypothesis draws
small DAGs -- fan-out, skip adds, adjacent batch norms, ``FlattenStage``
chains into the output, linear and conv stages that are unbatched (fused)
or carry a seeded trials-batched noise ensemble of one or two trials
(unfused, on the column program) -- and checks three things on each:

* slot reuse never clobbers a live value: after every instruction, every
  value a later instruction still reads sits unchanged in its slot;
* the returned output never aliases pooled storage: a result kept from one
  ``execute`` is unchanged by the next call;
* ``plan.execute`` matches ``forward_reference`` to 1e-12.
"""

from typing import List

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.graph_ir import (
    INPUT,
    ElectronicActivation,
    ElectronicAdd,
    ElectronicBatchNorm,
    GraphNode,
    GraphProgram,
)
from repro.core.lowering import Conv2dStage, FlattenStage, LinearStage
from repro.core.runtime import _fuse_affine_nodes, compile_plan
from repro.photonics.circuit import PhotonicLinearLayer
from repro.photonics.noise import PhaseNoiseModel
from repro.photonics.svd_mapping import svd_decompose

PARITY = 1e-12
#: None keeps a stage unbatched (it fuses); 1 or 2 draws a seeded noise
#: ensemble of that many trials (it stays unfused)
STAGE_TRIALS = (None, 1, 2)


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _layer(draw, rng, rows: int, cols: int, name: str) -> PhotonicLinearLayer:
    weight = _complex(rng, (rows, cols)) / np.sqrt(cols)
    bias = _complex(rng, (rows,)) if draw(st.booleans()) else None
    layer = PhotonicLinearLayer(photonic_matrix=svd_decompose(weight),
                                bias=bias, name=name)
    trials = draw(st.sampled_from(STAGE_TRIALS))
    if trials is None:
        return layer
    noise = PhaseNoiseModel.seeded(0.01, seed=draw(st.integers(0, 2 ** 16)))
    return layer.with_noise(noise, trials=trials)


def _affine(rng, channels: int, spatial: bool) -> ElectronicBatchNorm:
    return ElectronicBatchNorm(
        real_scale=rng.uniform(0.5, 1.5, channels),
        real_shift=rng.normal(size=channels),
        imag_scale=rng.uniform(0.5, 1.5, channels),
        imag_shift=rng.normal(size=channels), spatial=spatial)


def _trunk(draw, rng, channels: int, image: bool) -> List[GraphNode]:
    """A random DAG of same-shape values: mesh stages, affines, CReLUs, adds."""
    nodes: List[GraphNode] = []
    names = [INPUT]
    kinds = ("mesh", "affine", "affine", "activation", "add")
    for index in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        # mostly chain on the newest value, sometimes fan out from an older one
        source = names[-1] if draw(st.booleans()) else draw(st.sampled_from(names))
        name = f"n{index}"
        if kind == "mesh" and image:
            kernel = draw(st.sampled_from((1, 3)))
            op = Conv2dStage(
                layer=_layer(draw, rng, channels, channels * kernel * kernel, name),
                in_channels=channels, out_channels=channels,
                kernel_size=(kernel, kernel), stride=(1, 1),
                padding=(kernel // 2, kernel // 2),
                activation_after=draw(st.booleans()))
        elif kind == "mesh":
            op = LinearStage(layer=_layer(draw, rng, channels, channels, name),
                             activation_after=draw(st.booleans()))
        elif kind == "affine":
            op = _affine(rng, channels, spatial=image)
        elif kind == "activation":
            op = ElectronicActivation()
        else:
            other = draw(st.sampled_from(names))
            nodes.append(GraphNode(name, ElectronicAdd(), (source, other)))
            names.append(name)
            continue
        nodes.append(GraphNode(name, op, (source,)))
        names.append(name)
    return nodes


@st.composite
def flat_programs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    features = draw(st.integers(2, 5))
    nodes = _trunk(draw, rng, features, image=False)
    # any node may be the output; nodes after it still execute
    output = nodes[draw(st.integers(0, len(nodes) - 1))].name
    signal = _complex(rng, (draw(st.integers(1, 4)), features))
    return GraphProgram(nodes=nodes, output=output, readout=lambda s: s,
                        num_classes=features), signal, rng


@st.composite
def image_programs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    channels = draw(st.integers(1, 3))
    size = draw(st.integers(1, 4))
    nodes = _trunk(draw, rng, channels, image=True)
    tail = draw(st.sampled_from(("maps", "flatten", "flatten+linear")))
    if tail != "maps":
        # a FlattenStage reshape chains the trunk's value into the output
        nodes.append(GraphNode("flat", FlattenStage(), (nodes[-1].name,)))
    if tail == "flatten+linear":
        width = channels * size * size
        nodes.append(GraphNode("head", LinearStage(
            layer=_layer(draw, rng, 3, width, "head")), ("flat",)))
    signal = _complex(rng, (draw(st.integers(1, 3)), channels, size, size))
    return GraphProgram(nodes=nodes, output=nodes[-1].name, readout=lambda s: s,
                        num_classes=3, input_kind="image"), signal, rng


def _check_plan(graph: GraphProgram, signal: np.ndarray, rng) -> None:
    plan = compile_plan(graph)
    # the plan emits one instruction per node of the affine-fused graph, so
    # its values can be recomputed node by node and kept alive throughout
    nodes, output = _fuse_affine_nodes(list(graph.nodes), graph.output)
    assert len(nodes) == plan.instruction_count
    values = {INPUT: signal}
    last_use = {output: len(nodes)}
    for index, node in enumerate(nodes):
        values[node.name] = node.op.forward(*(values[name] for name in node.inputs))
        for name in node.inputs:
            last_use[name] = max(last_use.get(name, -1), index)

    # slot reuse: after each instruction, every value some later
    # instruction still reads must sit unchanged in its slot
    pristine = signal.copy()
    buffers = [None] * plan.slot_count
    buffers[0] = signal
    slot_of = {INPUT: 0}
    for index, (node, instruction) in enumerate(zip(nodes, plan.instructions)):
        instruction.run(buffers, plan._pool)
        slot_of[node.name] = instruction.out_slot
        for name, slot in slot_of.items():
            if last_use.get(name, -1) > index:
                assert np.abs(buffers[slot] - values[name]).max() <= PARITY, \
                    (name, index, type(instruction).__name__)
    assert plan.output_slot == slot_of[output]
    assert np.array_equal(signal, pristine)            # input never mutated

    # parity against the kept node-walk oracle
    reference = graph.forward_reference(signal)
    kept = plan.execute(signal)
    assert kept.shape == reference.shape
    assert np.abs(kept - reference).max() <= PARITY

    # the returned output owns its storage: the next call leaves it alone
    snapshot = kept.copy()
    assert not any(np.may_share_memory(kept, buffer)
                   for buffer in plan._pool.values())
    plan.execute(_complex(rng, signal.shape))
    assert np.array_equal(kept, snapshot)


@settings(max_examples=60, deadline=None)
@given(flat_programs())
def test_flat_dag_plans_are_sound(case):
    _check_plan(*case)


@settings(max_examples=60, deadline=None)
@given(image_programs())
def test_image_dag_plans_are_sound(case):
    _check_plan(*case)
