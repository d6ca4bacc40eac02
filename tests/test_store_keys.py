"""Property tests of the artifact store's content key (:func:`store_key`).

The key must name exactly the deployable content of ``(model, target)``:

* it does **not** change under a Fortran-ordered or non-contiguous copy of
  the same weights, or under a different ``state_dict`` insertion order;
* it **does** change when one weight element moves by one ulp
  (``np.nextafter``), when an array's dtype or shape changes, or when any
  :class:`HardwareTarget` field changes;
* a target field holding a non-finite float has no canonical form and
  raises :class:`StoreKeyError`.

Hypothesis draws the state dicts (names, dtypes, shapes, values) and the
target values; the example count comes from the profile registered in
``tests/conftest.py``.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.compile import MESH_METHODS, HardwareTarget
from repro.models import ComplexFCNN
from repro.store import StoreKeyError, canonical_json, store_key

FIELDS = [spec.name for spec in dataclasses.fields(HardwareTarget)]
DTYPES = (np.float64, np.float32, np.complex128, np.int64)


class StateOnly:
    """A model reduced to what the key reads: its ``state_dict``."""

    def __init__(self, state):
        self._state = state

    def state_dict(self):
        return dict(self._state)


def _with_field(target: HardwareTarget, name: str, value) -> HardwareTarget:
    """``target`` with one field replaced, bypassing ``__post_init__``.

    The key must cover every field by construction, including values no
    valid target carries alone (``trials`` without a noise model), so the
    frozen dataclass is copied and patched rather than rebuilt.
    """
    patched = copy.copy(target)
    object.__setattr__(patched, name, value)
    return patched


@st.composite
def arrays(draw, dtypes=DTYPES):
    dtype = np.dtype(draw(st.sampled_from(dtypes)))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5))
    if dtype.kind in "fc":
        elements = st.floats(-1e6, 1e6, allow_nan=False,
                             width=32 if dtype == np.float32 else 64)
        if dtype.kind == "c":
            elements = st.builds(complex, elements, elements)
    else:
        elements = st.integers(-1000, 1000)
    return draw(hnp.arrays(dtype, shape, elements=elements))


@st.composite
def states(draw, dtypes=DTYPES):
    names = draw(st.lists(st.text("abcdefgh.", min_size=1, max_size=6),
                          min_size=1, max_size=4, unique=True))
    return {name: draw(arrays(dtypes)) for name in names}


targets = st.builds(HardwareTarget, method=st.sampled_from(MESH_METHODS),
                    quantization_bits=st.none() | st.integers(1, 16))


def _key(state, target=HardwareTarget()) -> str:
    return store_key(StateOnly(state), target)


def _non_contiguous(array: np.ndarray) -> np.ndarray:
    """An equal-valued view of ``array`` with a doubled leading stride."""
    spread = np.zeros((2 * array.shape[0],) + array.shape[1:], dtype=array.dtype)
    spread[::2] = array
    return spread[::2]


class TestKeyIgnoresMemoryLayout:
    @given(state=states(), target=targets)
    def test_fortran_and_strided_copies_share_the_key(self, state, target):
        key = _key(state, target)
        fortran = {name: np.asfortranarray(array) for name, array in state.items()}
        strided = {name: _non_contiguous(array) for name, array in state.items()}
        assert _key(fortran, target) == key
        assert _key(strided, target) == key

    @given(state=states(), order=st.randoms(use_true_random=False))
    def test_state_dict_insertion_order_is_irrelevant(self, state, order):
        names = list(state)
        order.shuffle(names)
        assert _key({name: state[name] for name in names}) == _key(state)

    @given(seed=st.integers(0, 2 ** 16), strided=st.booleans())
    def test_a_model_with_reordered_parameter_memory_keeps_its_key(self, seed,
                                                                    strided):
        model = ComplexFCNN(8, (6,), 3, decoder="merge",
                            rng=np.random.default_rng(seed))
        key = store_key(model, HardwareTarget())
        for parameter in model.parameters():
            if parameter.data.ndim == 2:
                parameter.data = (_non_contiguous(parameter.data) if strided
                                  else np.asfortranarray(parameter.data))
        assert store_key(model, HardwareTarget()) == key


class TestKeyTracksContent:
    @given(state=states(dtypes=(np.float64, np.float32, np.complex128)),
           data=st.data())
    def test_one_ulp_moves_the_key(self, state, data):
        name = data.draw(st.sampled_from(sorted(state)))
        moved = {key: array.copy() for key, array in state.items()}
        flat = moved[name].reshape(-1)
        index = data.draw(st.integers(0, flat.size - 1))
        if flat.dtype.kind == "c":
            flat.real[index] = np.nextafter(flat.real[index], np.inf)
        else:
            flat[index] = np.nextafter(flat[index], flat.dtype.type(np.inf))
        assert _key(moved) != _key(state)

    @given(state=states(), data=st.data())
    def test_a_dtype_change_moves_the_key(self, state, data):
        name = data.draw(st.sampled_from(sorted(state)))
        dtype = data.draw(st.sampled_from(
            [d for d in DTYPES if np.dtype(d) != state[name].dtype]))
        values = state[name].real if state[name].dtype.kind == "c" else state[name]
        changed = dict(state, **{name: values.astype(dtype)})
        assert _key(changed) != _key(state)

    @given(state=states(dtypes=(np.float64, np.int64)), data=st.data())
    def test_the_same_bytes_under_another_dtype_move_the_key(self, state, data):
        name = data.draw(st.sampled_from(sorted(state)))
        other = np.int64 if state[name].dtype == np.float64 else np.float64
        changed = dict(state, **{name: state[name].view(other)})
        assert changed[name].tobytes() == state[name].tobytes()
        assert _key(changed) != _key(state)

    @given(state=states(), data=st.data())
    def test_a_shape_change_moves_the_key(self, state, data):
        name = data.draw(st.sampled_from(sorted(state)))
        array = state[name]
        # same bytes, different shape: a trailing unit axis
        changed = dict(state, **{name: array.reshape(array.shape + (1,))})
        assert _key(changed) != _key(state)

    @given(target=targets, field=st.sampled_from(FIELDS), data=st.data())
    def test_every_target_field_moves_the_key(self, target, field, data):
        current = canonical_json(getattr(target, field))
        value = data.draw(
            (st.none() | st.booleans() | st.integers(-64, 64)
             | st.floats(allow_nan=False, allow_infinity=False)
             | st.text(max_size=8)).filter(
                 lambda candidate: canonical_json(candidate) != current))
        state = {"w": np.arange(6.0).reshape(2, 3)}
        assert _key(state, _with_field(target, field, value)) != _key(state, target)

    @given(first=targets, second=targets)
    def test_valid_targets_share_a_key_exactly_when_equal(self, first, second):
        state = {"w": np.arange(6.0).reshape(2, 3)}
        assert (_key(state, first) == _key(state, second)) == (first == second)


class TestNonFiniteTargets:
    @given(target=targets, field=st.sampled_from(FIELDS),
           value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def test_any_non_finite_field_raises(self, target, field, value):
        with pytest.raises(StoreKeyError, match="not finite"):
            _key({"w": np.zeros(2)}, _with_field(target, field, value))
