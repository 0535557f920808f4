"""The report writer is json.dumps(indent=2), byte for byte."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cepskit.jsontext import dumps_indented

# Keys as json accepts them: str, int (big ones too), float, bool and None.
keys = st.one_of(st.text(), st.integers(-(2**80), 2**80), st.floats(), st.booleans(),
                 st.none())
scalars = st.one_of(st.none(), st.booleans(), st.integers(-(2**200), 2**200),
                    st.floats(), st.text())
# Lists of one kind take the writer's one-step join; booleans must not.
uniform_lists = st.one_of(st.lists(st.text()), st.lists(st.integers(-(2**70), 2**70)),
                          st.lists(st.booleans()))
trees = st.recursive(
    st.one_of(scalars, uniform_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_writer_is_json_dumps_indent_2(tree):
    assert dumps_indented(tree) == json.dumps(tree, indent=2)


def test_writer_on_hand_picked_values():
    tree = {
        "empty": [[], {}, [[]], [{}]],
        "escapes": ["\x00\x1f\"\\\n\t", "é€😀", " "],
        "ints": [0, -1, 2**100, True, False],
        "bools": [True, False],
        "floats": [0.0, -0.0, 1e-300, 1.5e300, float("nan"), float("inf"),
                   float("-inf")],
        3: {"é\x01": None, 1.5: 1, True: 2, None: 3, -7: 4},
    }
    assert dumps_indented(tree) == json.dumps(tree, indent=2)
    for scalar in ("x\x7f", 5, -5.25, None, True, [], {}):
        assert dumps_indented(scalar) == json.dumps(scalar, indent=2)


@pytest.mark.parametrize("bad", [{1, 2}, [object()], {"k": b"bytes"}, {(1, 2): 3}])
def test_writer_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError) as expected:
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError) as got:
        dumps_indented(bad)
    assert str(got.value) == str(expected.value)
