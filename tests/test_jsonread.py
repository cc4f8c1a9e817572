"""The typed JSON reader: an array of scalars read in one check equals the
item-by-item walk (``oracle.read_array``), in value and in message."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cwemap.errors import FormatError
from cwemap.jsonread import read

ITEMS = {
    str: st.text(max_size=4),
    int: st.integers(),
    float: st.floats(allow_nan=False),
    bool: st.booleans(),
}
# Any JSON scalar, with integers too large for a float among them.
SCALARS = st.one_of(*ITEMS.values(), st.none(), st.integers(10**308, 10**400))


@st.composite
def arrays(draw, item):
    """Mostly items of exactly the type ``item``, with up to two other
    scalars placed anywhere; now and then a scalar instead of an array."""
    if draw(st.integers(0, 9)) == 0:
        return draw(SCALARS)
    value = draw(st.lists(ITEMS[item], max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        value.insert(draw(st.integers(0, len(value))), draw(SCALARS))
    return value


def outcome(reader):
    """The value ``reader()`` reads, each item by its repr (``True`` is not
    ``1``, nor ``1`` ``1.0``), or the message of the FormatError it raises."""
    try:
        return "value", list(map(repr, reader()))
    except FormatError as exc:
        return "error", str(exc)


@settings(max_examples=800, deadline=None)
@given(data=st.data(), item=st.sampled_from(sorted(ITEMS, key=str)))
def test_array_read_equals_the_item_walk(data, item):
    value = data.draw(arrays(item))
    assert (outcome(lambda: read(value, [item], "terms"))
            == outcome(lambda: oracle.read_array(value, item, "terms")))


def test_first_misfit_is_named_by_its_index():
    with pytest.raises(FormatError, match=r"^terms\[1\] is not a JSON string$"):
        read(["a", 1, "b", 2], [str], "terms")


def test_a_boolean_is_no_integer():
    with pytest.raises(FormatError, match=r"^counts\[2\] is not a JSON integer$"):
        read([1, 2, True], [int], "counts")


def test_an_integer_reads_as_a_float_under_float():
    got = read([1, 2.5, -3], [float], "x")
    assert got == [1.0, 2.5, -3.0] and set(map(type, got)) == {float}


def test_an_integer_too_large_for_a_float_is_named():
    with pytest.raises(FormatError, match=r"^x\[1\] is too large a number$"):
        read([1.0, 10**400], [float], "x")


def test_a_misfit_in_an_array_of_a_field_names_the_path():
    with pytest.raises(FormatError, match=r"^doc\.nodes\[0\]\.ids\[1\] is not a JSON string$"):
        read({"nodes": [{"ids": ["a", None]}]}, {"nodes": [{"ids": [str]}]}, "doc")
