"""The package's JSON writer against the stdlib encoder it replaces:
``to_json_text(v)`` must equal ``json.dumps(v, indent=2,
ensure_ascii=False)`` for every JSON value, tuples included."""

import json
from collections import OrderedDict
from enum import Enum, IntEnum

import pytest
from hypothesis import given, strategies as st

from labelflow.dataset import to_json_text


def reference(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


# Text biased towards what escaping has to get right: quotes,
# backslashes, control characters, non-ASCII and astral characters.
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é日😀'),
    st.characters(blacklist_categories=("Cs",)),
))
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e-308, 5e-324, 1e16, 1e-7,
                     0.1, 1 / 3]),
)
SCALARS = st.one_of(st.none(), st.booleans(),
                    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
                    FLOATS, TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


@given(VALUES)
def test_matches_json_dumps(value):
    assert to_json_text(value) == reference(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()],
    {"": {"": [[[]]]}}, [(), [()]],
    float("nan"), float("inf"), -float("inf"), -0.0, [float("nan"), -0.0],
    "", '"', "\\", " ", "\x00", "😀", 10 ** 40, -1, True, False, None,
])
def test_edge_values(value):
    assert to_json_text(value) == reference(value)


class Colour(str, Enum):
    RED = "red"


class Rank(IntEnum):
    FIRST = 1


class Ratio(float):
    pass


def test_subclasses_as_json_writes_them():
    value = OrderedDict([("colour", Colour.RED), ("rank", Rank.FIRST),
                         ("ratio", Ratio(0.5)), ("flag", True)])
    assert to_json_text(value) == reference(value)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", object(), 1j, [1, {"a": frozenset()}],
    {"a": {1: "int key"}}, {("t",): 1}, {None: 1},
])
def test_unsupported_type_raises_type_error(value):
    with pytest.raises(TypeError):
        to_json_text(value)


class Tag(str):
    """A str subclass: the writer takes its general path for it, not
    the inline one for exact str values and items."""


# str subclasses mixed with every other leaf, at every depth, as dict
# values, list and tuple items and dict keys
MIXED_TEXT = st.one_of(TEXT, TEXT.map(Tag), st.just(Colour.RED))
MIXED = st.recursive(
    st.one_of(SCALARS, MIXED_TEXT, st.just(Rank.FIRST),
              st.just(Ratio(0.5))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(MIXED_TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


@given(MIXED)
def test_mixed_leaves_match_json_dumps(value):
    assert to_json_text(value) == reference(value)


@pytest.mark.parametrize("value", [
    {"a": Tag('"'), "b": "é", "c": Colour.RED},
    [Tag("x"), "y", (Tag("\\"), "\n", [Colour.RED, {"k": Tag("")}])],
    ({"a": [Tag("t"), 1, None]}, "s", Tag("😀")),
    {Tag("key"): {"inner": (Tag("v"), "w", 2.5, True)}},
    [{"a": "b"}, {"a": Tag("b")}, {"a": ["b", Tag("b")]}],
])
def test_str_subclasses_nested(value):
    assert to_json_text(value) == reference(value)
