"""The CLI's JSON writer against the stdlib: the same bytes as ``json.dumps(v, indent=2)``."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from stabgeom.cli import _dumps

# quotes, backslashes, control, non-ASCII and astral characters, mixed with any others
strings = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é٢ \ud800\U0001f600'),
        st.characters(),
    )
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-(10**40), 10**40), strings)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(strings, max_size=5),
        st.dictionaries(strings, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_matches_the_stdlib(value):
    assert _dumps(value) + "\n" == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        ["1", "-2/3", 'q"\\\n٢'],
        ("1", "0"),
        [[0, 1], [2, 3]],
        ["1", 2, None, True, False, [], {"k": ["x"]}],
        [0, False, -(10**40)],
        {"é": -(10**40), "none": None, "yes": True, "no": False},
        "\ud800",
        0,
    ],
    ids=[
        "empty-dict", "empty-list", "empty-tuple", "empty-children", "strings", "string-tuple",
        "int-lists", "mixed-list", "int-then-bool", "scalars", "lone-surrogate", "zero",
    ],
)
def test_explicit_values(value):
    assert _dumps(value) == json.dumps(value, indent=2)
