"""decode_values must give what parse_pair gives, entry by entry, while
parsing each distinct spelling of a chunk of strings only once."""

import json
import tracemalloc
from fractions import Fraction
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
from fairdiv.model import (
    _over_one_scale,
    decode_values,
    format_table,
    format_value,
    parse_pair,
    scaled_table,
)


def outcome(decode, entries):
    """What ``decode`` returns, or the type and text of its ValueError."""
    try:
        return decode(entries)
    except ValueError as exc:
        return type(exc), str(exc)


def per_entry(entries):
    return _over_one_scale(map(parse_pair, entries))


def counted_parse_pair():
    """parse_pair, counting the calls the decoder makes to it."""
    return mock.patch.object(model, "parse_pair", wraps=parse_pair)


def distinct_per_chunk(entries):
    """The distinct strings of each chunk of ``entries``, summed over chunks:
    the parse_pair calls a decode of strings makes."""
    size = model._DECODE_CHUNK
    return sum(len(set(entries[i : i + size])) for i in range(0, len(entries), size))


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
def test_written_spellings_parse_each_spelling_once_per_chunk(entries, chunk):
    expected = per_entry(entries)
    with mock.patch.object(model, "_DECODE_CHUNK", chunk), counted_parse_pair() as parse:
        assert decode_values(entries) == expected
        assert parse.call_count == distinct_per_chunk(entries)


def repeated(entry):
    """Lists of up to 20 entries drawn from a pool of at most 4."""
    return st.lists(entry, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=20)
    )


@settings(max_examples=500)
@given(
    st.one_of(
        st.lists(st.one_of(WRITTEN, WRITTEN, NOISE, OTHER), max_size=20),
        repeated(st.one_of(WRITTEN, WRITTEN, NOISE, OTHER)),
    ),
    st.integers(1, 7),
)
def test_decode_matches_parse_pair_values_and_errors(entries, chunk):
    expected = outcome(per_entry, entries)
    with mock.patch.object(model, "_DECODE_CHUNK", chunk):
        assert outcome(decode_values, entries) == expected


def test_equal_spellings_of_a_chunk_share_one_int():
    with counted_parse_pair() as parse:
        scaled, scale = decode_values(["123456"] * 10 + ["-654321/7"] * 10)
    assert parse.call_count == 2
    assert scale == 7
    assert len({id(a) for a in scaled}) == 2


@pytest.mark.parametrize("scale", [1, 3, 8])
def test_a_table_past_int64_round_trips_through_parse_pair(scale):
    scaled = tuple(mask.bit_count() * (2**70 + 1) + mask % 2 for mask in range(1 << 14))
    valuation = GeneralIdenticalValuation(scaled, scale)
    assert scaled_table(valuation).dtype == object
    entries = format_table(scaled, scale)
    assert entries == [format_value(Fraction(a, scale)) for a in scaled]
    assert decode_values(entries) == (scaled, scale)


CHUNK = model._DECODE_CHUNK


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
        # repeated spellings, across the chunk boundary and before errors
        ["0.5"] * CHUNK + ["0.5", "-3/4", "0.5"],
        ["-3/4", "1.25"] * CHUNK,
        ["1"] * (CHUNK + 5) + ["1/0", "x"],
        ["2.5"] * 3 + ["x"] + ["2.5"] * CHUNK + [" 1"],
        ["1"] * CHUNK + ["1" * 19, "1"],
    ],
)
def test_decode_edge_cases(entries):
    assert outcome(decode_values, entries) == outcome(per_entry, entries)


def test_empty_table_and_m_zero():
    assert decode_values([]) == ((), 1)
    with counted_parse_pair() as parse:
        assert decode_values(["0"]) == ((0,), 1)
        assert GeneralIdenticalValuation.of(["0"]) == GeneralIdenticalValuation((0,), 1)
    assert parse.call_count == 2


@pytest.mark.parametrize(
    "config",
    [
        GeneratorConfig(2, 16, "general-identical", 3),
        GeneratorConfig(2, 16, "general-identical-nonzero-marginal", 3),
        # almost every one of the 65,536 values distinct
        GeneratorConfig(2, 16, "general-identical", 1, perturb_max=50_000),
    ],
    ids=["general-identical", "general-identical-nonzero-marginal", "all-distinct"],
)
def test_16_item_tables_parse_each_spelling_once_per_chunk(config):
    inst = generate(config)
    valuation = inst.valuation
    table = format_table(valuation.scaled, valuation.scale)
    assert table == [format_value(Fraction(a, valuation.scale)) for a in valuation.scaled]
    text = instance_to_json(inst)
    with counted_parse_pair() as parse:
        assert instance_from_json(text) == inst
    assert parse.call_count == distinct_per_chunk(table)


def traced_peak(fn, *args):
    """The most memory ``fn(*args)`` held at once, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_entry_decodes_in_bounded_memory():
    entries = ["1"] * 2000 + ["1" * 4000]
    assert decode_values(entries) == per_entry(entries)
    assert traced_peak(decode_values, entries) < 1_000_000


def test_decode_peaks_no_higher_than_parsing_every_entry():
    inst = generate(GeneratorConfig(2, 16, "general-identical-nonzero-marginal", 4))
    entries = instance_to_dict(inst)["valuation"]["table"]
    del inst
    assert traced_peak(decode_values, entries) <= traced_peak(per_entry, entries)


#: A 16-item general table: 65,536 entries of a few hundred distinct values.
GENERAL_16 = GeneratorConfig(2, 16, "general-identical", 1)
#: The same shape with almost every one of its 65,536 values distinct.
ALL_DISTINCT_16 = GeneratorConfig(2, 16, "general-identical", 1, perturb_max=50_000)


def test_format_table_renders_a_16_item_table_in_bounded_memory():
    # One string per entry peaked at about 4 MB, one per distinct value
    # of each chunk at about 0.8 MB.
    valuation = generate(GENERAL_16).valuation
    assert traced_peak(format_table, valuation.scaled, valuation.scale) < 2_000_000


def test_decode_values_reads_a_16_item_table_in_bounded_memory():
    # Numerators, denominators and an int per entry beside the parsed
    # strings peaked at about 2.2 MB, a decode per distinct spelling of
    # each chunk at about 0.8 MB.
    entries = json.loads(instance_to_json(generate(GENERAL_16)))["valuation"]["table"]
    assert traced_peak(decode_values, entries) < 1_500_000


def test_decode_values_reads_an_all_distinct_16_item_table_in_bounded_memory():
    # Parsing one chunk's spellings at a time peaked at about 3.4 MB;
    # holding a (numerator, denominator) pair per entry, at about 12 MB.
    entries = json.loads(instance_to_json(generate(ALL_DISTINCT_16)))["valuation"]["table"]
    assert traced_peak(decode_values, entries) < 4_500_000
