"""The integer marginal pass behind validate_instance and classify_items,
against the scalar Fraction scans kept in the oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle
from conftest import general
from fairdiv import MixedMonotonicity, NonzeroEmptySet, classify_items, validate_instance
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
    assert classify_items(inst) == oracle.classify_items(inst)


@pytest.mark.parametrize("denominator", HUGE)
def test_huge_denominators_take_the_object_path(denominator):
    # Integer entries next to multiples of 1/denominator scale past 2^63.
    # Item 0 is a good; item 1 only mixes by 1/denominator, once up on
    # {a} and once down on {a, c}; item 2 is a chore.
    eps = Fraction(1, denominator)
    table = [Fraction(v) for v in additive_table([5, 0, -5])]
    table[0b011] += eps
    table[0b111] -= eps
    inst = general(2, table)
    assert scaled_table(inst.valuation)[0].dtype == object
    expected = MixedMonotonicity(1, 0b001, 0b101)
    assert outcome(validate_instance, inst) == ("mixed", 1, 0b001, 0b101, str(expected))
    assert outcome(oracle.validate_instance, inst) == outcome(validate_instance, inst)
    assert classify_items(inst) == oracle.classify_items(inst)
    assert classify_items(inst).goods == (0b001, 0b001)


@pytest.mark.parametrize(
    "entry, dtype",
    [(2**63 - 1, np.int64), (-(2**63) + 1, np.int64), (-(2**63), object), (2**63, object)],
)
def test_scaled_table_is_int64_only_below_2_63_in_absolute_value(entry, dtype):
    scaled, scale = scaled_table(general(1, (0, entry)).valuation)
    assert scaled.dtype == dtype
    assert scale == 1
    assert scaled.tolist() == [0, entry]


def test_sixteen_items_whose_only_violation_is_at_item_15():
    m = 16
    weights = [3 + j % 4 for j in range(m - 1)] + [0]
    table = [Fraction(v, 7) for v in additive_table(weights)]
    item = 1 << 15
    table[item | 0b101] += Fraction(1, 7)
    table[item | 0x7FFE] -= Fraction(1, 7)
    inst = general(2, table)
    assert scaled_table(inst.valuation)[0].dtype == np.int64
    with pytest.raises(MixedMonotonicity) as err:
        validate_instance(inst)
    assert (err.value.item, err.value.raising_subset, err.value.lowering_subset) == (
        15, 0b101, 0x7FFE,
    )
    cls = classify_items(inst)
    assert cls.goods == (0x7FFF, 0x7FFF)
    assert cls.chores == (item, item)
