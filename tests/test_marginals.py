"""The one integer marginal pass, classify_items, and validate_instance,
which runs it after the empty-set check, against the scalar Fraction
scans kept in the oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle
from conftest import general
from fairdiv import (
    UTILITY,
    UTILITY_GOODS,
    UTILITY_GOODS_CHORES,
    Allocation,
    MixedMonotonicity,
    NonzeroEmptySet,
    audit,
    check_EF1,
    check_EFX,
    classify_items,
    leximin_solve,
    validate_instance,
)
from fairdiv.model import scaled_table

HUGE = (10**20 + 39, 2**70 + 1)


def outcome(validate, inst):
    """What validating did: the error type with every witness it carries
    and its message, or ``("valid",)``."""
    try:
        validate(inst)
    except MixedMonotonicity as exc:
        return ("mixed", exc.item, exc.raising_subset, exc.lowering_subset, str(exc))
    except NonzeroEmptySet as exc:
        return ("empty", exc.value, str(exc))
    return ("valid",)


def additive_table(weights) -> list:
    """Bundle values of per-item weights, built one low bit at a time."""
    table = [0] * (1 << len(weights))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
    return table


@st.composite
def general_tables(draw):
    """Item-weight tables bent by a few small bumps.

    A zero weight gives zero marginals, and a bump next to a small weight
    mixes that item's signs. Each bump carries its own denominator, so
    the huge ones push the scale past int64 while changing signs only
    where the weight is zero.
    """
    m = draw(st.integers(0, 7))
    weights = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    table = [Fraction(v) for v in additive_table(weights)]
    if m:
        bumps = draw(
            st.dictionaries(
                st.integers(1, (1 << m) - 1),
                st.tuples(st.integers(-2, 2), st.sampled_from((1, 2, 3) + HUGE)),
                max_size=4,
            )
        )
        for mask, (numerator, denominator) in bumps.items():
            table[mask] += Fraction(numerator, denominator)
    table[0] = draw(st.sampled_from((0, 0, 0, 0, 0, -2, Fraction(1, HUGE[1]))))
    return general(2, table)


@given(general_tables())
def test_validate_matches_the_scalar_scan(inst):
    assert outcome(validate_instance, inst) == outcome(oracle.validate_instance, inst)


@given(general_tables())
def test_classify_matches_the_scalar_scan(inst):
    # classify_items is the one marginal pass: it refuses exactly the
    # tables in which the oracle's scan finds a mixed item, naming the
    # same item and subsets, and otherwise splits the items as the oracle.
    mixed = oracle.mixed_item(inst)
    if mixed is None:
        assert classify_items(inst) == oracle.classify_items(inst)
    else:
        expected = ("mixed", *mixed, str(MixedMonotonicity(*mixed)))
        assert outcome(classify_items, inst) == expected


@pytest.mark.parametrize("denominator", HUGE)
def test_huge_denominators_take_the_object_path(denominator):
    # Integer entries next to multiples of 1/denominator scale past 2^63.
    # Item 0 is a good and item 2 a chore. Item 1 rises by 1/denominator
    # on {a}, which leaves it a good, and mixes once it also falls by as
    # much on {a, c}.
    eps = Fraction(1, denominator)
    table = [Fraction(v) for v in additive_table([5, 0, -5])]
    table[0b011] += eps
    monotone = general(2, table)
    table[0b111] -= eps
    mixed = general(2, table)
    assert scaled_table(monotone.valuation).dtype == object
    assert scaled_table(mixed.valuation).dtype == object
    assert classify_items(monotone) == oracle.classify_items(monotone)
    assert classify_items(monotone).goods == (0b011, 0b011)
    expected = MixedMonotonicity(1, 0b001, 0b101)
    assert outcome(classify_items, mixed) == ("mixed", 1, 0b001, 0b101, str(expected))
    assert outcome(validate_instance, mixed) == outcome(classify_items, mixed)
    assert outcome(oracle.validate_instance, mixed) == outcome(validate_instance, mixed)


@pytest.mark.parametrize(
    "entry, dtype",
    [(2**63 - 1, np.int64), (-(2**63) + 1, np.int64), (-(2**63), object), (2**63, object)],
)
def test_scaled_table_is_int64_only_below_2_63_in_absolute_value(entry, dtype):
    scaled = scaled_table(general(1, (0, entry)).valuation)
    assert scaled.dtype == dtype
    assert scaled.tolist() == [0, entry]


def test_sixteen_items_whose_only_violation_is_at_item_15():
    # Item 15 has weight 0. Falling by 1/7 on {b..o} makes it a chore;
    # rising by 1/7 on {a, c} as well makes it mixed.
    m = 16
    weights = [3 + j % 4 for j in range(m - 1)] + [0]
    table = [Fraction(v, 7) for v in additive_table(weights)]
    item = 1 << 15
    table[item | 0x7FFE] -= Fraction(1, 7)
    monotone = general(2, table)
    table[item | 0b101] += Fraction(1, 7)
    mixed = general(2, table)
    assert scaled_table(mixed.valuation).dtype == np.int64
    cls = classify_items(monotone)
    assert cls.goods == (0x7FFF, 0x7FFF)
    assert cls.chores == (item, item)
    expected = MixedMonotonicity(15, 0b101, 0x7FFE)
    assert outcome(classify_items, mixed) == ("mixed", 15, 0b101, 0x7FFE, str(expected))
    assert outcome(validate_instance, mixed) == outcome(classify_items, mixed)


#: Built directly rather than loaded: item a rises on {} and falls on {b}.
MIXED = general(2, (0, 1, 1, 0))


def test_every_reader_of_the_classification_refuses_a_mixed_table():
    inst = MIXED
    witness = outcome(validate_instance, inst)
    assert witness == ("mixed", 0, 0b00, 0b10, str(MixedMonotonicity(0, 0b00, 0b10)))
    alloc = Allocation(2, (0, 1))
    for spec in (UTILITY_GOODS, UTILITY_GOODS_CHORES):
        assert outcome(lambda inst: leximin_solve(inst, spec), inst) == witness
    assert outcome(lambda inst: check_EF1(inst, alloc), inst) == witness
    assert outcome(lambda inst: check_EFX(inst, alloc), inst) == witness
    for notion in ("ef1", "efx"):
        assert outcome(lambda inst: audit(inst, alloc, (notion,)), inst) == witness


def test_readers_that_ignore_the_classification_still_run_on_a_mixed_table():
    inst = MIXED
    alloc = Allocation(2, (0, 1))
    assert leximin_solve(inst, UTILITY).tie_count >= 1
    report = audit(inst, alloc, ("ef", "prop", "prop1", "po"))
    assert [notion for notion, _result in report.results] == ["ef", "prop", "prop1", "po"]
