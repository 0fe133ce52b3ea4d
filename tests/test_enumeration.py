"""The enumeration kernel against the scalar Fraction oracle.

Every exhaustive operation must reproduce the oracle's allocation, tie
count, canonical-first tie-break and Pareto witness, on the int64 path
and on the exact object-dtype path, whatever the chunking.
"""

from fractions import Fraction
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from conftest import additive, general
from fairdiv import (
    SPEC_NAMES,
    UTILITY,
    Allocation,
    GeneratorConfig,
    ObjectiveSpec,
    audit,
    check_PO,
    constrained_mnw_solve,
    is_leximin_optimal,
    leximin_solve,
    mnw_prime_solve,
    modified_nash_welfare,
    nash_prime_factors,
    objective,
    search_counterexamples,
    value,
)
from fairdiv import enumeration, welfare
from fairdiv.enumeration import allocation_chunks, assignment_at, contribution_matrix
from fairdiv.leximin import _objective_rows
from fairdiv.welfare import _pareto_front_mask, _pareto_frontier

SPECS = tuple(SPEC_NAMES.values())


def _spread(inst, agent, bundle):
    # value first, then fewer items is better
    return (value(inst, agent, bundle), -bundle.bit_count())


def _coarse(inst, agent, bundle):
    # heavy ties: only the sign of the value and the parity of the size
    worth = value(inst, agent, bundle)
    return ((worth > 0) - (worth < 0), bundle.bit_count() % 2)


def _unhashable(inst, agent, bundle):
    # a list entry: equal tuples must be found without hashing
    return (bundle.bit_count() // 2, [value(inst, agent, bundle) >= 0])


def _ragged(inst, agent, bundle):
    # tuples of two lengths, where (v,) ranks below (v, agent)
    return (min(value(inst, agent, bundle), 1),) + (agent,) * (bundle.bit_count() % 2)


CUSTOM_SPECS = tuple(
    ObjectiveSpec(ObjectiveSpec.CUSTOM, fn) for fn in (_spread, _coarse, _unhashable, _ragged)
)

#: Chunk sizes: one prefix per chunk, a few prefixes, and the default.
BUDGETS = st.sampled_from([1, 7, enumeration.ROW_BUDGET])

SIZES = st.tuples(st.integers(1, 4), st.integers(0, 6)).filter(
    lambda size: size[0] ** size[1] <= 4096
)


def budget(rows):
    return patch.object(enumeration, "ROW_BUDGET", rows)


def fractions(low, high):
    # small ranges make ties and zero Nash factors common
    return st.builds(Fraction, st.integers(low, high), st.sampled_from([1, 2, 3]))


@st.composite
def additive_instances(draw, low=-3, high=3):
    n, m = draw(SIZES)
    row = st.lists(fractions(low, high), min_size=m, max_size=m)
    return additive(draw(st.lists(row, min_size=n, max_size=n)) if m else [()] * n)


@st.composite
def general_instances(draw):
    """Identical set functions that are not additive: goods add the square
    of their total weight, chores subtract the square of theirs, so every
    item's marginal keeps one sign."""
    n, m = draw(SIZES)
    weights = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    denominator = draw(st.sampled_from([1, 2, 3]))
    table = []
    for mask in range(1 << m):
        held = [w for j, w in enumerate(weights) if mask >> j & 1]
        goods = sum(w for w in held if w > 0)
        chores = sum(-w for w in held if w < 0)
        table.append(Fraction(goods**2 - chores**2, denominator))
    return general(n, table)


INSTANCES = st.one_of(additive_instances(), general_instances())
CHORES = additive_instances(low=-3, high=0)


@st.composite
def with_allocation(draw, instances):
    inst = draw(instances)
    agents = st.integers(0, inst.agents - 1)
    assignment = draw(st.lists(agents, min_size=inst.m, max_size=inst.m))
    return inst, Allocation(inst.agents, tuple(assignment))


def assert_leximin_matches(inst, spec):
    res = leximin_solve(inst, spec)
    assignment, ties = oracle.leximin(inst, spec)
    assert res.allocation.assignment == assignment
    assert res.tie_count == ties
    assert res.objective_vector == oracle._solver_key_fn(inst, spec)(assignment)
    assert res.score is None
    assert res.search_space == inst.agents**inst.m


def assert_mnw_prime_matches(inst):
    res = mnw_prime_solve(inst)
    assignment, ties = oracle.mnw_prime(inst)
    best = Allocation(inst.agents, assignment)
    assert res.allocation == best
    assert res.tie_count == ties
    assert res.objective_vector == nash_prime_factors(inst, best)
    assert res.score == modified_nash_welfare(inst, best)


def assert_constrained_matches(inst):
    res = constrained_mnw_solve(inst)
    assignment, ties = oracle.constrained_mnw(inst)
    assert res.allocation.assignment == assignment
    assert res.tie_count == ties
    assert res.objective_vector == tuple(
        -value(inst, i, mask) for i, mask in enumerate(res.allocation.bundles())
    )


def assert_frontier_matches(inst):
    """Every Pareto-optimal vector, its count and its first index."""
    contributions, _lookup = contribution_matrix(inst)
    vectors, counts, firsts = _pareto_frontier(contributions)
    assert vectors.dtype == contributions.dtype
    n, m = inst.agents, inst.m
    scale = inst.valuation.scale
    front = {
        tuple(Fraction(entry, scale) for entry in vector): (
            assignment_at(n, m, first),
            count,
        )
        for vector, count, first in zip(
            vectors.tolist(), counts.tolist(), firsts.tolist()
        )
    }
    assert len(front) == len(vectors)
    assert front == oracle.pareto_set(inst)


def assert_po_matches(inst, alloc):
    witness = oracle.po_witness(inst, alloc)
    res = check_PO(inst, alloc)
    if witness is None:
        assert res.holds
    else:
        assert res.witness.improvement == witness


@settings(max_examples=60)
@given(INSTANCES, st.sampled_from(SPECS), BUDGETS)
def test_leximin_solve_matches_oracle(inst, spec, rows):
    with budget(rows):
        assert_leximin_matches(inst, spec)


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 2, 2, -1, -1), (0, 1, 0, 0, 0)],
        [(0, 1, 0, 0, -1), (1, 0, -1, 2, 2)],
    ],
)
@pytest.mark.parametrize("spec", SPECS)
def test_leximin_counts_never_outweigh_one_unit_of_value(rows, spec):
    # integer values one unit apart, where the packed counts of a
    # too-small digit base would overturn the value comparison
    assert_leximin_matches(additive(rows), spec)


def capped_table(weights, cap):
    """A general table of up to ``cap`` goods minus up to ``cap`` chores
    among the held items of weight 1 and -1: items of weight 0, and every
    item once its side is capped, have zero marginals."""
    table = []
    for mask in range(1 << len(weights)):
        held = [w for j, w in enumerate(weights) if mask >> j & 1]
        table.append(min(held.count(1), cap) - min(held.count(-1), cap))
    return table


#: Small validated instances whose values lie one scaled unit apart, with
#: zero-valued goods, and general tables with zero marginals.
PACKING_INSTANCES = (
    [additive(rows) for m in range(4) for rows in product(product((-1, 0, 1), repeat=m), repeat=2)]
    + [additive([row]) for row in product((-1, 0, 1), repeat=4)]
    + [additive([(Fraction(1, 2), Fraction(-1, 3), 0), (Fraction(-1, 6), 0, Fraction(1, 3))])]
    + [
        general(2, capped_table(weights, cap))
        for m in range(4)
        for weights in product((-1, 0, 1), repeat=m)
        for cap in (1, 2)
    ]
)


@pytest.mark.parametrize("spec", SPECS + CUSTOM_SPECS[:2])
def test_packed_row_entries_order_like_objective_tuples(spec):
    # a custom spec's entries are the ranks of its tuples; the pairs are
    # hashed here, so only the specs with hashable tuples take part
    for inst in PACKING_INSTANCES:
        pairs = set()
        for start, chunk in _objective_rows(inst, spec)[0]:
            for index, row in enumerate(chunk.tolist(), start):
                alloc = Allocation(inst.agents, assignment_at(inst.agents, inst.m, index))
                for agent, bundle in enumerate(alloc.bundles()):
                    pairs.add((row[agent], objective(inst, spec, agent, bundle)))
        entries = {entry for entry, _ in pairs}
        tuples = {key for _, key in pairs}
        assert len(entries) == len(tuples) == len(pairs), inst
        assert [key for _, key in sorted(pairs)] == sorted(tuples), inst


@settings(max_examples=40)
@given(with_allocation(INSTANCES), st.sampled_from(SPECS))
def test_is_leximin_optimal_matches_oracle(case, spec):
    inst, alloc = case
    assert is_leximin_optimal(inst, spec, alloc) == oracle.is_leximin_optimal(
        inst, spec, alloc
    )
    best = Allocation(inst.agents, oracle.leximin(inst, spec)[0])
    assert is_leximin_optimal(inst, spec, best)


@settings(max_examples=40)
@given(CHORES, BUDGETS)
def test_mnw_prime_solve_matches_oracle(inst, rows):
    with budget(rows):
        assert_mnw_prime_matches(inst)


@settings(max_examples=40)
@given(CHORES, BUDGETS)
def test_constrained_mnw_solve_matches_oracle(inst, rows):
    with budget(rows):
        assert_constrained_matches(inst)


@settings(max_examples=60)
@given(additive_instances())
@example(additive([(-1, 0, Fraction(2, 3))]))
@example(additive([()] * 3))
def test_pareto_frontier_matches_oracle(inst):
    # both signs and zero values; n = 1 and m = 0 as explicit examples
    assert_frontier_matches(inst)


@settings(max_examples=60)
@given(with_allocation(INSTANCES), BUDGETS)
def test_check_PO_matches_oracle(case, rows):
    with budget(rows):
        assert_po_matches(*case)


@st.composite
def identical_additive_instances(draw):
    """Every agent holding one row of mixed-sign values."""
    n, m = draw(SIZES)
    return additive([tuple(draw(st.lists(fractions(-3, 3), min_size=m, max_size=m)))] * n)


@settings(max_examples=60)
@given(with_allocation(identical_additive_instances()))
@example((additive([(-1, 2, Fraction(1, 3))]), Allocation(1, (0, 0, 0))))
@example((additive([()] * 3), Allocation(3, ())))
def test_check_PO_holds_without_a_scan_on_identical_additive_rows(case):
    # n = 1 and m = 0 as explicit examples
    assert oracle.po_witness(*case) is None
    with patch("fairdiv.audit.allocation_chunks", side_effect=AssertionError("scanned")):
        assert check_PO(*case).holds


@settings(max_examples=60)
@given(with_allocation(INSTANCES), st.sampled_from(CUSTOM_SPECS), BUDGETS)
@example((additive([(-1, 2, Fraction(1, 3))]), Allocation(1, (0, 0, 0))), CUSTOM_SPECS[0], 1)
@example((additive([()] * 3), Allocation(3, ())), CUSTOM_SPECS[2], 1)
@example((general(3, (0,)), Allocation(3, ())), CUSTOM_SPECS[3], 7)
def test_custom_spec_matches_oracle(case, spec, rows):
    # n = 1 and m = 0 as explicit examples, general tables among the draws
    inst, alloc = case
    with budget(rows):
        assert_leximin_matches(inst, spec)
        assert is_leximin_optimal(inst, spec, alloc) == oracle.is_leximin_optimal(
            inst, spec, alloc
        )


def test_single_agent_and_no_items():
    lone = additive([(-1, 2, Fraction(1, 3))])
    empty = additive([()] * 3)
    for inst in (lone, empty):
        for spec in SPECS:
            assert_leximin_matches(inst, spec)
        assert_po_matches(inst, Allocation(inst.agents, (0,) * inst.m))
    chores = additive([(-1, -2)])
    assert_mnw_prime_matches(chores)
    assert_constrained_matches(chores)
    assert leximin_solve(empty).allocation.assignment == ()
    assert leximin_solve(empty).tie_count == 1


# ------------------------------------------------- exact fallback paths

HUGE = (10**20 + 39, 2**70 + 1)


def huge_rows(sign):
    """3 x 4 values over denominators whose lcm exceeds 2^63."""
    numerators = [(1, 3, 2, 5), (4, 1, 1, 2), (2, 2, 6, 1)]
    return [
        [Fraction(sign * k, HUGE[(i + j) % 2]) for j, k in enumerate(row)]
        for i, row in enumerate(numerators)
    ]


def _ascending_front_mask(vectors):
    # the filter's contract: distinct rows in ascending lexicographic order
    rows = vectors.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))
    return _pareto_front_mask(vectors)


@settings(max_examples=60)
@given(additive_instances())
@example(additive(huge_rows(1)))
@example(additive(huge_rows(-1)))
def test_pareto_filter_gets_distinct_ascending_rows(inst):
    # the huge-denominator examples run the filter on object-dtype rows
    contributions, _lookup = contribution_matrix(inst)
    expected = _pareto_frontier(contributions)
    with patch.object(
        welfare, "_pareto_front_mask", side_effect=_ascending_front_mask
    ) as mask:
        frontier = _pareto_frontier(contributions)
    assert mask.call_count == inst.m
    for got, want in zip(frontier, expected):
        assert got.tolist() == want.tolist()


def test_huge_denominators_take_the_exact_path():
    mixed = additive(
        [[v if j % 2 else -v for j, v in enumerate(row)] for row in huge_rows(1)]
    )
    chores = additive(huge_rows(-1))
    h0, h1 = HUGE
    table = general(2, [0, Fraction(3, h1), Fraction(4, h0), Fraction(10, h0)])
    for inst in (mixed, chores, table):
        assert contribution_matrix(inst)[0].dtype == object
        for spec in SPECS:
            assert_leximin_matches(inst, spec)
        for assignment in ((0, 1, 2, 0), (1, 1, 0, 2), (0, 0)):
            if len(assignment) == inst.m:
                alloc = Allocation(inst.agents, assignment)
                assert_po_matches(inst, alloc)
                assert is_leximin_optimal(inst, UTILITY, alloc) == (
                    oracle.is_leximin_optimal(inst, UTILITY, alloc)
                )
    assert_mnw_prime_matches(chores)
    assert_constrained_matches(chores)
    assert_frontier_matches(mixed)
    assert_frontier_matches(chores)


def test_nash_products_beyond_int64_stay_exact():
    # entries fit int64, but four factors near 2^20 multiply past 2^63;
    # in the second instance every factor is below 2^32, and the optimum's
    # two factors of 2^32 - 2 multiply into [2^63, 2^64), where int64
    # wraps to a negative product
    big = 2**32 - 2
    wraps = additive([(-1, -big), (-big, -1)])
    for inst in (
        additive([[-(2**19) - 3 * i - j for j in range(5)] for i in range(4)]),
        wraps,
    ):
        assert contribution_matrix(inst)[0].dtype == np.int64
        assert_mnw_prime_matches(inst)
        assert_constrained_matches(inst)
    assert mnw_prime_solve(wraps).allocation.assignment == (0, 1)
    _count, product = welfare._nash_columns(np.full((1, 2), big + 1))
    assert product.tolist() == [(big + 1) ** 2]


def test_leximin_weight_past_int64_takes_the_exact_path():
    # two chores near 2^61 and 2^62 at scale 1: times leximin++'s weight
    # m + 1 = 3 the pair's value passes 2^63 and would wrap positive
    inst = general(2, [0, -(2**61), -(2**61) - 5, -(2**62) - 3])
    assert inst.valuation.scale == 1
    assert contribution_matrix(inst, inst.m + 1)[1].dtype == object
    assert_leximin_matches(inst, SPEC_NAMES["leximin++"])


def test_row_sums_up_to_2_63_stay_int64():
    # At scale 1 the bound is the largest row sum of |values|. At 2^63 - 1
    # every entry fits int64. At 2^63 the leximin optimum of the goods
    # gives agent 0 a bundle worth 2^63, and the mnw-prime optimum of the
    # chores spares agent 0 an aversion of 2^63: int64 would wrap both
    # negative, so both instances must take the exact path.
    half = 2**62
    for top, dtype in ((half - 1, np.int64), (half, object)):
        goods = additive([(half, top, 0), (0, 0, 1)])
        chores = additive([(-half, -top), (-1, -2), (-2, -1)])
        for inst in (goods, chores):
            assert contribution_matrix(inst)[0].dtype == dtype
            for spec in SPECS:
                assert_leximin_matches(inst, spec)
        assert leximin_solve(goods).allocation.assignment == (0, 0, 1)
        assert mnw_prime_solve(chores).allocation.assignment == (1, 2)
        assert_mnw_prime_matches(chores)
        assert_constrained_matches(chores)
        assert_frontier_matches(goods)
        assert_po_matches(goods, Allocation(2, (0, 1, 1)))
        assert_po_matches(chores, Allocation(3, (0, 1)))


# ------------------------------------------------------ chunk boundaries

def test_tied_optima_straddle_a_chunk_boundary():
    # one item each is optimal both ways round: canonical indices 1 and 2,
    # which a one-prefix chunk puts in different chunks
    inst = additive([(1, 1), (1, 1)])
    with budget(1):
        assert len(list(allocation_chunks(*contribution_matrix(inst)))) == 2
        res = leximin_solve(inst)
        assert res.allocation.assignment == (0, 1)
        assert res.tie_count == 2
        split = constrained_mnw_solve(additive([(-1, -1), (-1, -1)]))
        assert split.allocation.assignment == (0, 1)
        assert split.tie_count == 2
        # the first improvement of (0, 0) is the swap at index 2
        swap = check_PO(additive([(0, 1), (1, 0)]), Allocation(2, (0, 0)))
        assert swap.witness.improvement.assignment == (1, 0)


@pytest.mark.parametrize("max_space", ["5", True, 2.5])
def test_max_space_must_be_none_or_an_integer(max_space):
    inst = additive([(-1, -2), (-2, -1)])
    alloc = Allocation(2, (0, 1))
    config = GeneratorConfig(2, 2, "additive-chores", 1)
    calls = [
        lambda: enumeration.guard_search_space(2, 2, max_space),
        lambda: leximin_solve(inst, max_space=max_space),
        lambda: mnw_prime_solve(inst, max_space),
        lambda: constrained_mnw_solve(inst, max_space),
        lambda: check_PO(inst, alloc, max_space),
        lambda: audit(inst, alloc, ("po",), max_space),
        lambda: audit(inst, alloc, ("ef",), max_space),
        # no trial runs, and alg-identical never reaches the guard
        lambda: search_counterexamples(config, "alg-identical", ("ef",), 0, max_space),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="max_space must be None or an integer"):
            call()
