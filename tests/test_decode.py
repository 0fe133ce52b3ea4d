"""decode_values: the vectorized decode of the spellings fairdiv writes must
give what parse_pair gives, entry by entry, or defer to it."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fairdiv import (
    GeneralIdenticalValuation,
    GeneratorConfig,
    generate,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    model,
)
from fairdiv.model import _over_one_scale, decode_values, parse_pair


def outcome(decode, entries):
    """What ``decode`` returns, or the type and text of its ValueError."""
    try:
        return decode(entries)
    except ValueError as exc:
        return type(exc), str(exc)


def per_entry(entries):
    return _over_one_scale(map(parse_pair, entries))


def no_parse_pair():
    """parse_pair raising, so a decode that falls back to it fails loudly."""
    return mock.patch.object(model, "parse_pair", side_effect=AssertionError("fell back"))


DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=6)
SIGN = st.sampled_from(["", "-"])
#: What format_table writes: a decimal, or a ratio over a small denominator.
WRITTEN = st.one_of(
    st.builds(lambda s, a, b: f"{s}{a}{b}", SIGN, DIGITS, st.sampled_from(["", ".5", ".25", ".125"])),
    st.builds(lambda s, a, b: f"{s}{a}/{b}", SIGN, DIGITS, st.integers(1, 12)),
)
#: Short strings over the grammar's characters and a few outside it.
NOISE = st.text(alphabet="0123456789-./+_ eE\x00٣", max_size=6)
OTHER = st.one_of(
    st.integers(-5, 5), st.booleans(), st.just(1.5), st.none(), st.just("1" * 19)
)


@settings(max_examples=300)
@given(st.lists(WRITTEN, min_size=1, max_size=20), st.integers(1, 7))
def test_written_spellings_decode_without_parse_pair(entries, chunk):
    expected = per_entry(entries)
    with mock.patch.object(model, "_DECODE_CHUNK", chunk), no_parse_pair():
        assert decode_values(entries) == expected


@settings(max_examples=500)
@given(
    st.lists(st.one_of(WRITTEN, WRITTEN, NOISE, OTHER), max_size=20),
    st.integers(1, 7),
)
def test_decode_matches_parse_pair_values_and_errors(entries, chunk):
    expected = outcome(per_entry, entries)
    with mock.patch.object(model, "_DECODE_CHUNK", chunk):
        assert outcome(decode_values, entries) == expected


@pytest.mark.parametrize(
    "entries",
    [
        ["1\x00"],  # numpy's fixed-width bytes drop the trailing NUL
        ["1", "2\x00"],
        ["1\x002"],
        ["+1"], [" 2"], ["2 "], ["1_0"], ["2.5e-3"], ["٣"], ["é"],
        ["2/4"], ["-0"], ["-0/7"], ["007.50"], ["1/0"], ["0/0"], ["-1/0", "1"],
        ["1.", ".5", "-.5"], ["-"], [""], ["1-"], ["--1"], ["1.2.3"], ["1/2/3"],
        ["1./2"], ["1/2.5"],
        ["1" * 19], ["1" * 18, "0.5"], ["9" * 18], ["9" * 9 + "." + "9" * 9],
        ["1/" + str(2**70 + 1)], ["1/99999999999999997", "1/99999999999999999"],
        ["0/99999999999999997", "0/99999999999999999"],
        ["999999999999999999", "1/10"], ["123456789012345678/7", "1/3"],
        ["9" * 19], ["9" * 10 + "/" + "9" * 9], ["-" + "9" * 18 + ".5"],
        [1], [True], [False], [1.5], [None], ["1", 2], [["1"]], [b"1"],
        ["0"],  # the table of m = 0
        [],
    ],
)
def test_decode_edge_cases(entries):
    assert outcome(decode_values, entries) == outcome(per_entry, entries)


def test_empty_table_and_m_zero():
    assert decode_values([]) == ((), 1)
    with no_parse_pair():
        assert decode_values(["0"]) == ((0,), 1)
        assert GeneralIdenticalValuation.of(["0"]) == GeneralIdenticalValuation((0,), 1)


@pytest.mark.parametrize("family", ["general-identical", "general-identical-nonzero-marginal"])
def test_generated_16_item_tables_load_without_parse_pair(family):
    inst = generate(GeneratorConfig(2, 16, family, 3))
    text = instance_to_json(inst)
    with no_parse_pair():
        assert instance_from_json(text) == inst


def test_a_long_entry_is_not_padded_into_a_matrix():
    entries = ["1"] * 2000 + ["1" * 4000]
    expected = per_entry(entries)
    tracemalloc.start()
    try:
        assert decode_values(entries) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_decode_peak_memory_is_at_most_the_per_entry_path():
    inst = generate(GeneratorConfig(2, 16, "general-identical-nonzero-marginal", 4))
    entries = instance_to_dict(inst)["valuation"]["table"]
    del inst
    peaks = []
    for decode in (decode_values, per_entry):
        tracemalloc.start()
        try:
            decoded = decode(entries)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del decoded
    assert peaks[0] <= peaks[1]
