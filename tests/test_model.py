"""Core model: exact parsing and rendering, validation, classification,
bundle values, rescaling and the aversion view."""

import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import additive, general
from fairdiv import (
    AdditiveValuation,
    Allocation,
    GeneralIdenticalValuation,
    Instance,
    InvalidAllocation,
    InvalidInstance,
    MixedMonotonicity,
    NonzeroEmptySet,
    NotAdditive,
    NotChoresOnly,
    SignMismatch,
    ZeroTotal,
    aversion_view,
    classify_items,
    fixture_instance,
    format_value,
    instance_from_json,
    instance_to_json,
    parse_pair,
    parse_value,
    require_chores_only,
    rescale_common_total,
    validate_instance,
    value,
    model,
)
from fairdiv.model import format_table


# ---------------------------------------------------------------- values

def test_parse_value_decimal_is_exact():
    assert parse_value("-18.1") == Fraction(-181, 10)
    assert parse_value("0.1") == Fraction(1, 10)
    assert parse_value(" 2.5 ") == Fraction(5, 2)


def test_parse_value_ratio_and_int():
    assert parse_value("3/7") == Fraction(3, 7)
    assert parse_value("-2/6") == Fraction(-1, 3)
    assert parse_value("5") == Fraction(5)
    assert parse_value(4) == Fraction(4)
    assert parse_value(Fraction(9, 4)) == Fraction(9, 4)


@pytest.mark.parametrize("bad", [0.1, True, "abc", "1/0", ""])
def test_parse_value_rejects(bad):
    with pytest.raises(ValueError):
        parse_value(bad)


@pytest.mark.parametrize(
    "text, pair",
    [
        ("0", (0, 1)),
        ("-0", (0, 1)),
        ("+5", (5, 1)),
        ("007", (7, 1)),
        (" 2.5 ", (5, 2)),
        ("\t-18.1\n", (-181, 10)),
        ("3/6", (1, 2)),
        ("-2/6", (-1, 3)),
        ("0/5", (0, 1)),
        (".5", (1, 2)),
        ("5.", (5, 1)),
        ("-.25", (-1, 4)),
        ("1e3", (1000, 1)),
        ("2.5E-3", (1, 400)),
        ("+.5e+1", (5, 1)),
        ("1.e2", (100, 1)),
        ("1_000", (1000, 1)),
        ("1_0.2_5", (41, 4)),
        ("1_0/4_0", (1, 4)),
        ("1e1_0", (10**10, 1)),
        ("\u0663", (3, 1)),
        ("\u0661/\u0663", (1, 3)),
        ("12345678901234567890123/10", (12345678901234567890123, 10)),
    ],
)
def test_parse_pair_reads_the_grammar_reduced(text, pair):
    assert parse_pair(text) == pair
    assert parse_value(text) == Fraction(*pair)


@pytest.mark.parametrize(
    "bad",
    [
        "", " ", "-", "+", ".", "abc", "1/0", "0/0", "1 /2", "1/ 2", "1/-2", "1/+2",
        "1/2.5", "1/2e3", "1.5/2", "_1", "1_", "1__0", "1._5", "1_.5", "1e", "e5",
        "1e_5", "+-1", "--1", "1 2", "1,5", "0x10", "inf", "nan", "\u00bd", "\u00b2",
    ],
)
def test_parse_pair_rejects_outside_the_grammar(bad):
    with pytest.raises(ValueError):
        parse_pair(bad)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="Fraction(str) is the grammar's oracle on Python 3.11 only: 3.10's "
    "rejects underscores and 3.12's allows spaces around the slash",
)
@settings(max_examples=500)
@given(st.text(alphabet="0123456789_./eE+- \u0663", max_size=8))
def test_parse_pair_accepts_what_fraction_accepts(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_pair(text)
    else:
        exponent = re.search(r"e([-+]?[\d_]+)", text, re.IGNORECASE)
        if exponent and abs(int(exponent[1])) > sys.get_int_max_str_digits():
            with pytest.raises(ValueError, match="exponent"):
                parse_pair(text)
        else:
            assert parse_pair(text) == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("text", ["1e4301", "-2.5E-4301", "1e999999999", "1e-999999999"])
def test_parse_pair_refuses_an_exponent_past_the_digit_limit(text):
    with pytest.raises(ValueError, match="exponent"):
        parse_pair(text)


def test_the_exponent_limit_is_the_interpreters_digit_limit():
    assert parse_pair("1e4300") == (10**4300, 1)
    assert parse_pair("1e-4300") == (1, 10**4300)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert parse_pair("1e640") == (10**640, 1)
        with pytest.raises(ValueError, match="exponent"):
            parse_pair("1e641")
        sys.set_int_max_str_digits(0)
        assert parse_pair("1e5000") == (10**5000, 1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_value_decimal_when_finite():
    assert format_value(Fraction(-181, 10)) == "-18.1"
    assert format_value(Fraction(3)) == "3"
    assert format_value(Fraction(-1, 2)) == "-0.5"
    assert format_value(Fraction(7, 50)) == "0.14"
    assert format_value(Fraction(-1, 8)) == "-0.125"
    assert format_value(Fraction(0)) == "0"
    assert format_value(Fraction(1, 10**6)) == "0.000001"


def test_format_value_ratio_otherwise():
    assert format_value(Fraction(1, 3)) == "1/3"
    assert format_value(Fraction(-22, 7)) == "-22/7"


def test_format_value_past_the_digit_limit():
    zeros = "0" * 4300  # 10^4300 has one digit more than str() prints by default
    big = 10 ** len(zeros)
    assert format_value(Fraction(-big)) == f"-1{zeros}"
    assert format_value(Fraction(1, big)) == f"0.{zeros[1:]}1"
    assert format_value(Fraction(big + 1, 3)) == f"1{zeros[1:]}1/3"
    assert format_value(Fraction(-1, 3 * big)) == f"-1/3{zeros}"


@given(
    num=st.integers(min_value=-10**6, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**4),
)
def test_format_parse_round_trip(num, den):
    x = Fraction(num, den)
    assert parse_value(format_value(x)) == x


#: Scales dividing a power of ten, then scales with another prime factor,
#: whose entries are rendered one by one.
SCALES = [1, 2, 5, 8, 125, 2**3 * 5**2, 2**10 * 5**7, 10**6, 3, 3 * 2, 3 * 2**4, 7 * 5**2]


@pytest.mark.parametrize("scale", SCALES)
def test_format_table_matches_format_value_entry_by_entry(scale):
    entries = [
        0, 1, -1, 3, -7, scale, -scale, 10 * scale, -20 * scale, 100 * scale + 5,
        2**64 + 1, -(2**70 + 3), 3**50, 10**25, -(10**30) * scale,
    ]
    assert format_table(entries, scale) == [format_value(Fraction(a, scale)) for a in entries]


ENTRY = st.integers(-(2**80), 2**80)


@given(
    entries=st.one_of(
        st.lists(ENTRY, max_size=16),
        # repeated entries: up to 20 drawn from a pool of at most 4
        st.lists(ENTRY, min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=20)
        ),
    ),
    scale=st.one_of(
        st.sampled_from(SCALES),
        st.builds(lambda k, j: 2**k * 5**j, st.integers(0, 30), st.integers(0, 30)),
        st.integers(1, 10**6),
    ),
    chunk=st.integers(1, 7),
)
def test_format_table_is_format_value_of_each_entry(entries, scale, chunk):
    with mock.patch.object(model, "_DECODE_CHUNK", chunk):
        assert format_table(entries, scale) == [format_value(Fraction(a, scale)) for a in entries]


@pytest.mark.parametrize("scale", [8, 3])
def test_format_table_renders_a_chunk_s_distinct_values_once(scale):
    chunk = model._DECODE_CHUNK
    # -1 repeats across the chunk boundary; 2^70 + 1 is past int64
    entries = [-1, 5, 2**70 + 1] * (chunk // 3) + [-1, -1, 2**70 + 1, 7] * 3
    expected = {a: format_value(Fraction(a, scale)) for a in set(entries)}
    rendered = format_table(entries, scale)
    assert rendered == [expected[a] for a in entries]
    assert len({id(text) for text in rendered[:chunk]}) == 3


# ------------------------------------------------------------ structure

def test_additive_valuation_rejects_ragged_rows():
    with pytest.raises(InvalidInstance):
        AdditiveValuation.of(((Fraction(1), Fraction(2)), (Fraction(3),)))
    with pytest.raises(InvalidInstance):
        AdditiveValuation.of(())


def test_general_valuation_needs_power_of_two_table():
    with pytest.raises(InvalidInstance):
        GeneralIdenticalValuation.of((Fraction(0), Fraction(1), Fraction(2)))
    with pytest.raises(InvalidInstance):
        GeneralIdenticalValuation.of(())


#: Both valuation kinds, each with how it lays out one list of entries:
#: a general table as is, an additive matrix as a single agent's row.
VALUATION_KINDS = [
    pytest.param(GeneralIdenticalValuation, tuple, id="general"),
    pytest.param(AdditiveValuation, lambda entries: (tuple(entries),), id="additive"),
]


@pytest.mark.parametrize("kind, shape", VALUATION_KINDS)
def test_valuation_is_stored_once_in_lowest_terms(kind, shape):
    valuation = kind.of(
        shape((Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(1, 2**70 + 1)))
    )
    assert valuation.scale == 4 * (2**70 + 1)
    assert valuation.scaled == shape((0, 2 * (2**70 + 1), -3 * (2**70 + 1), 4))
    assert kind.of(shape((0, 2))) == kind(shape((0, 2)), 1)
    assert kind.of(shape((0,))) == kind(shape((0,)), 1)


@pytest.mark.parametrize("kind, shape", VALUATION_KINDS)
@pytest.mark.parametrize(
    "scaled, scale",
    [((0, 1), 0), ((0, 1), -1), ((0, 2), 2), ((0, 6, -9, 3), 3), ((0,), 2)],
)
def test_valuation_rejects_a_scale_that_is_not_canonical(kind, shape, scaled, scale):
    with pytest.raises(InvalidInstance):
        kind(shape(scaled), scale)


#: Exact values with denominators up to 2^70 + 1.
EXACT = st.builds(Fraction, st.integers(-(2**72), 2**72), st.integers(1, 2**70 + 1))


@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(st.tuples(*[EXACT] * m), min_size=1, max_size=4)
    )
    | st.lists(st.just(()), min_size=1, max_size=3)  # m = 0
)
def test_an_additive_valuation_round_trips_exactly(rows):
    rows = tuple(rows)
    valuation = AdditiveValuation.of(rows)
    assert valuation.matrix == rows
    again = AdditiveValuation.of([[str(entry) for entry in row] for row in rows])
    assert again == valuation and hash(again) == hash(valuation)
    inst = Instance(len(rows), tuple(f"o{j}" for j in range(len(rows[0]))), valuation)
    assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_structural_checks():
    row = (Fraction(-1), Fraction(-2))
    with pytest.raises(InvalidInstance):
        Instance(2, ("a", "b"), AdditiveValuation.of((row,)))  # row count
    with pytest.raises(InvalidInstance):
        Instance(1, ("a",), AdditiveValuation.of((row,)))  # column count
    with pytest.raises(InvalidInstance):
        Instance(1, ("a", "a"), AdditiveValuation.of((row,)))  # duplicate names
    with pytest.raises(InvalidInstance):
        Instance(0, (), AdditiveValuation.of(((),)))  # no agents
    with pytest.raises(InvalidInstance, match="agents must be a positive integer"):
        Instance(0, ("a",), GeneralIdenticalValuation.of((Fraction(0), Fraction(1))))
    with pytest.raises(InvalidInstance):
        Instance(1, ("a", "b"), GeneralIdenticalValuation.of((Fraction(0), Fraction(1))))


@pytest.mark.parametrize(
    "agents, items, rows",
    [
        (2.0, ("a",), 2),  # a float agent count that matches the row count
        (True, ("a",), 1),  # a bool agent count
        ("1", ("a",), 1),
        (1, (1,), 1),  # an item name that is not a string
        (1, "a", 1),  # items that are not a tuple
        (1, ["a"], 1),
    ],
)
def test_instance_rejects_agents_that_are_not_an_int_and_items_that_are_not_strings(
    agents, items, rows
):
    with pytest.raises(InvalidInstance):
        Instance(agents, items, AdditiveValuation.of(((-1,),) * rows))


@pytest.mark.parametrize(
    "agents, assignment",
    [(2.0, (1,)), (True, (0,)), (2, (1.0,)), (2, (True,)), (2, ("1",))],
)
def test_allocation_rejects_agents_and_entries_that_are_not_ints(agents, assignment):
    with pytest.raises(InvalidAllocation):
        Allocation(agents, assignment)


@pytest.mark.parametrize("assignment", [[0, 1], range(2), iter((0, 1)), None])
def test_allocation_requires_a_tuple_assignment(assignment):
    # a list would make an unhashable allocation unequal to its tuple twin
    with pytest.raises(InvalidAllocation):
        Allocation(2, assignment)


def test_instance_bundle_helpers():
    inst = additive([(-1, -2, -3)])
    assert inst.agents == 1 and inst.m == 3 and inst.full_mask == 0b111
    assert inst.bundle_of("ac") == 0b101
    assert inst.bundle_names(0b101) == ("a", "c")
    with pytest.raises(InvalidAllocation):
        inst.item_index("z")


def test_allocation_partition_checks():
    with pytest.raises(InvalidAllocation):
        Allocation(2, (0, 2))
    alloc = Allocation(2, (0, 1, 0))
    assert alloc.bundles() == (0b101, 0b010)
    assert alloc.bundle(1) == 0b010
    assert Allocation.from_bundles(2, (0b101, 0b010), 3) == alloc
    with pytest.raises(InvalidAllocation):
        Allocation.from_bundles(2, (0b101, 0b011), 3)  # item b twice
    with pytest.raises(InvalidAllocation):
        Allocation.from_bundles(2, (0b100, 0b010), 3)  # item a missing
    with pytest.raises(InvalidAllocation):
        Allocation.from_bundles(2, (0b1000, 0b111), 3)  # item out of range


# ------------------------------------------------------------ validation

def test_validate_accepts_additive():
    inst = fixture_instance("table1")
    assert validate_instance(inst) is inst


def test_validate_rejects_nonzero_empty_set():
    inst = general(1, (1, 2))
    with pytest.raises(NonzeroEmptySet) as err:
        validate_instance(inst)
    assert err.value.value == 1


def test_validate_mixed_monotonicity_witness():
    # item a raises the value on the empty set, lowers it on {b}
    inst = general(2, (0, 1, 0, -1))
    with pytest.raises(MixedMonotonicity) as err:
        validate_instance(inst)
    assert err.value.item == 0
    assert err.value.raising_subset == 0b00
    assert err.value.lowering_subset == 0b10


def test_validate_accepts_monotone_general():
    inst = general(2, (0, 2, -1, 1))
    assert validate_instance(inst) is inst


# -------------------------------------------------------- classification

def test_classify_additive_zero_is_good():
    inst = additive([(5, 0, -3)])
    cls = classify_items(inst)
    assert cls.goods == (0b011,)
    assert cls.chores == (0b100,)


def test_classify_general_shared_masks():
    inst = general(3, (0, 2, -1, 1))
    cls = classify_items(inst)
    assert cls.goods == (0b01,) * 3
    assert cls.chores == (0b10,) * 3


def test_classify_general_zero_marginal_item_is_good():
    inst = general(2, (0, 0))
    cls = classify_items(inst)
    assert cls.goods == (0b1, 0b1)


def test_classify_general_matches_marginal_scan():
    # brute-force oracle: an item is a good iff no marginal is negative
    table = (0, 3, -2, 1, 1, 4, -1, 2)
    inst = general(2, table)
    cls = classify_items(inst)
    m = inst.m
    for j in range(m):
        bit = 1 << j
        negatives = [
            sub
            for sub in range(1 << m)
            if not sub & bit and table[(sub | bit)] - table[sub] < 0
        ]
        expected_good = not negatives
        assert bool(cls.goods[0] & bit) == expected_good
        assert bool(cls.chores[0] & bit) == (not expected_good)


@given(
    weights=st.lists(
        st.integers(min_value=-5, max_value=5).filter(bool), min_size=1, max_size=4
    )
)
def test_classify_additive_general_agreement(weights):
    # an additive row and its induced set function classify identically
    m = len(weights)
    row = additive([weights])
    table = [
        sum(weights[j] for j in range(m) if mask >> j & 1) for mask in range(1 << m)
    ]
    induced = general(1, table)
    assert classify_items(row).goods == classify_items(induced).goods


# ----------------------------------------------------------------- value

def test_value_examples():
    t1 = fixture_instance("table1")
    assert value(t1, 0, t1.bundle_of("abc")) == Fraction(-18)
    assert value(t1, 1, t1.bundle_of("abc")) == Fraction(-543, 10)
    assert value(t1, 0, 0) == 0


def test_value_general_reads_table():
    inst = general(2, (0, 2, -1, 1))
    assert value(inst, 0, 0b11) == 1
    assert value(inst, 1, 0b10) == -1


# --------------------------------------------------------------- rescale

def test_rescale_to_common_total():
    inst = additive([(-1, -1), (-2, -2)])
    scaled = rescale_common_total(inst, Fraction(-2))
    assert scaled.valuation.matrix == (
        (Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(-1)),
    )
    single = rescale_common_total(additive([(-3,)]), Fraction(-1))
    assert single.valuation.matrix == ((Fraction(-1),),)


def test_rescale_errors():
    with pytest.raises(ZeroTotal):
        rescale_common_total(additive([(1, -1)]), Fraction(-1))
    with pytest.raises(SignMismatch):
        rescale_common_total(additive([(-3,)]), Fraction(1))
    with pytest.raises(NotAdditive):
        rescale_common_total(general(1, (0, -1)), Fraction(-1))
    with pytest.raises(ValueError):
        rescale_common_total(additive([(-3,)]), -0.1)


@pytest.mark.parametrize("rows", [[(-1, -2)], [(1, 2)], [(1, -2), (-3, 1)]])
def test_rescale_rejects_a_zero_target(rows):
    with pytest.raises(SignMismatch) as raised:
        rescale_common_total(additive(rows), Fraction(0))
    assert raised.value.agent == 0


@given(
    row=st.lists(st.integers(min_value=-9, max_value=-1), min_size=1, max_size=5),
    total=st.integers(min_value=-20, max_value=-1),
)
def test_rescale_preserves_bundle_order(row, total):
    inst = additive([row])
    scaled = rescale_common_total(inst, Fraction(total))
    assert value(scaled, 0, inst.full_mask) == total
    for left in range(1 << len(row)):
        for right in range(1 << len(row)):
            before = value(inst, 0, left) < value(inst, 0, right)
            after = value(scaled, 0, left) < value(scaled, 0, right)
            assert before == after


# ---------------------------------------------------------- aversion view

def test_aversion_view_negates():
    inst = fixture_instance("mnw")
    view = aversion_view(inst)
    assert value(view, 0, inst.bundle_of("ab")) == 12
    back = tuple(
        tuple(-entry for entry in row) for row in view.valuation.matrix
    )
    assert back == inst.valuation.matrix


def test_aversion_view_allows_zero_values():
    view = aversion_view(additive([(0, -2)]))
    assert view.valuation.matrix == ((Fraction(0), Fraction(2)),)


def test_require_chores_only_reads_signs():
    assert require_chores_only(additive([(0, -2), (-1, 0)])) is None
    with pytest.raises(NotChoresOnly) as err:
        require_chores_only(additive([(-1, -2), (-3, 4)]))
    assert (err.value.agent, err.value.item) == (1, 1)
    with pytest.raises(NotAdditive):
        require_chores_only(general(1, (0, -1)))


def test_aversion_view_rejects_goods():
    with pytest.raises(NotChoresOnly) as err:
        aversion_view(additive([(-1, -2), (-3, 4)]))
    assert (err.value.agent, err.value.item) == (1, 1)
    with pytest.raises(NotAdditive):
        aversion_view(general(1, (0, -1)))
