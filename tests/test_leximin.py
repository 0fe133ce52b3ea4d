"""Objective tuples, the leximin preorder and the exhaustive solver."""

import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import additive, general
from fairdiv import leximin
from fairdiv import (
    SPEC_NAMES,
    UTILITY,
    UTILITY_GOODS,
    UTILITY_GOODS_CHORES,
    AdditiveValuation,
    Allocation,
    GeneratorConfig,
    ObjectiveSpec,
    SearchSpaceTooLarge,
    fixture_instance,
    generate,
    is_leximin_optimal,
    leximin_solve,
    objective,
    precedes,
    sorted_objectives,
    value,
)

TABLE1 = fixture_instance("table1")
CIRCLED1 = Allocation(5, (0, 0, 0, 1, 2, 3, 4))


# -------------------------------------------------------------- objective

def test_objective_utility():
    assert objective(TABLE1, UTILITY, 0, 0b0000111) == (Fraction(-18),)


def test_objective_counts_goods_and_chores():
    inst = additive([(5, 0, -3, 2)])
    full = 0b1111
    assert objective(inst, UTILITY, 0, full) == (Fraction(4),)
    # items a, b, d are goods (zero counts as a good), c is a chore
    assert objective(inst, UTILITY_GOODS, 0, full) == (Fraction(4), 3)
    assert objective(inst, UTILITY_GOODS_CHORES, 0, full) == (Fraction(4), 3, -1)
    assert objective(inst, UTILITY_GOODS_CHORES, 0, 0) == (Fraction(0), 0, 0)


def test_objective_on_general_valuations():
    inst = general(2, (0, 2, -1, 1))
    assert objective(inst, UTILITY_GOODS_CHORES, 1, 0b01) == (Fraction(2), 1, 0)
    assert objective(inst, UTILITY_GOODS_CHORES, 1, 0b10) == (Fraction(-1), 0, -1)


def test_objective_custom():
    spec = ObjectiveSpec(ObjectiveSpec.CUSTOM, lambda inst, i, s: (s.bit_count(),))
    assert objective(TABLE1, spec, 3, 0b0000111) == (3,)


def test_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec("egalitarian")
    with pytest.raises(ValueError):
        ObjectiveSpec(ObjectiveSpec.CUSTOM)
    with pytest.raises(ValueError):
        ObjectiveSpec(ObjectiveSpec.CUSTOM, 42)
    with pytest.raises(ValueError):
        ObjectiveSpec(ObjectiveSpec.UTILITY, lambda inst, i, s: ())


def test_spec_names():
    assert set(SPEC_NAMES) == {"leximin", "leximin++", "leximin-gc"}
    assert SPEC_NAMES["leximin"] is UTILITY
    assert SPEC_NAMES["leximin++"] is UTILITY_GOODS
    assert SPEC_NAMES["leximin-gc"] is UTILITY_GOODS_CHORES


# ----------------------------------------- sorted objectives and precedes

def test_sorted_objectives():
    assert sorted_objectives(TABLE1, UTILITY, CIRCLED1) == (
        (Fraction(-18),),
        (Fraction("-0.1"),),
        (Fraction("-0.1"),),
        (Fraction("-0.1"),),
        (Fraction("-0.1"),),
    )


def test_precedes_strictly_orders_worse_allocations():
    # hand agent 0 one more chore than the circled optimum does
    worse = Allocation(5, (0, 0, 0, 0, 1, 2, 3))
    assert precedes(TABLE1, UTILITY, worse, CIRCLED1)
    assert not precedes(TABLE1, UTILITY, CIRCLED1, worse)


def test_precedes_irreflexive_and_blind_to_relabelling():
    assert not precedes(TABLE1, UTILITY, CIRCLED1, CIRCLED1)
    inst = additive([(-1, -2), (-1, -2)])
    a = Allocation(2, (0, 1))
    b = Allocation(2, (1, 0))
    # identical sorted vectors: incomparable both ways
    assert not precedes(inst, UTILITY, a, b)
    assert not precedes(inst, UTILITY, b, a)


def test_precedes_is_a_strict_weak_order_on_a_small_instance():
    inst = additive([(3, -2, 1), (1, 4, -1), (-3, 2, 2)])
    allocs = [Allocation(3, t) for t in product(range(3), repeat=3)]
    idx = range(len(allocs))
    before = [[precedes(inst, UTILITY, allocs[a], allocs[b]) for b in idx] for a in idx]
    for a in idx:
        assert not before[a][a]
        for b in idx:
            assert not (before[a][b] and before[b][a])
            for c in idx:
                if before[a][b] and before[b][c]:
                    assert before[a][c]
                # incomparability is transitive too
                inc_ab = not before[a][b] and not before[b][a]
                inc_bc = not before[b][c] and not before[c][b]
                inc_ac = not before[a][c] and not before[c][a]
                if inc_ab and inc_bc:
                    assert inc_ac


# ------------------------------------------------------------------ solver

def test_leximin_solve_balances_two_chores():
    inst = additive([(-1, -2), (-2, -1)])
    res = leximin_solve(inst)
    assert res.allocation.assignment == (0, 1)
    assert res.objective_vector == ((Fraction(-1),), (Fraction(-1),))
    assert res.tie_count == 1
    assert res.search_space == 4


def test_leximin_solve_trivial_shapes():
    one = leximin_solve(additive([(-5, 2)]))
    assert one.allocation.assignment == (0, 0)
    assert one.tie_count == 1
    empty = leximin_solve(additive([[], []]))
    assert empty.allocation.assignment == ()
    assert empty.objective_vector == ((Fraction(0),), (Fraction(0),))
    assert empty.tie_count == 1
    assert empty.search_space == 1


def test_leximin_solve_table1():
    res = leximin_solve(TABLE1)
    assert res.allocation == CIRCLED1
    assert res.tie_count == 1
    assert res.search_space == 5**7


def test_plus_plus_refinement_breaks_utility_ties():
    # the chore must go somewhere, the good balances against it
    inst = additive([(0, 5), (0, 5)])
    plain = leximin_solve(inst, UTILITY)
    assert plain.tie_count == 4
    assert plain.allocation.assignment == (0, 0)
    refined = leximin_solve(inst, UTILITY_GOODS)
    assert refined.tie_count == 2
    assert refined.allocation.assignment == (0, 1)
    assert refined.objective_vector == ((Fraction(0), 1), (Fraction(5), 1))


def test_constant_custom_objective_ties_everything():
    inst = additive([(1, 2), (3, 4)])
    spec = ObjectiveSpec(ObjectiveSpec.CUSTOM, lambda inst, i, s: (0,))
    res = leximin_solve(inst, spec)
    assert res.tie_count == 4
    assert res.allocation.assignment == (0, 0)


def test_custom_function_is_called_once_per_agent_and_bundle():
    calls = []

    def counted(inst, agent, bundle):
        calls.append((agent, bundle))
        return (value(inst, agent, bundle),)

    spec = ObjectiveSpec(ObjectiveSpec.CUSTOM, counted)
    for inst in (additive([(1, -2, 3), (2, 2, -1), (0, 1, 1)]), general(2, (0, 1, 2, 2))):
        calls.clear()
        leximin_solve(inst, spec)
        assert calls == [(i, s) for i in range(inst.agents) for s in range(1 << inst.m)]
    # one agent has one allocation, so only its full bundle is evaluated
    calls.clear()
    res = leximin_solve(additive([(1, -2, 3)]), spec)
    assert calls == [(0, 0b111)]
    assert res.objective_vector == ((Fraction(2),),)
    assert res.tie_count == 1


@pytest.mark.parametrize("method", ["leximin++", "leximin-gc"])
def test_a_built_in_solve_classifies_the_items_once(method, monkeypatch):
    calls, classify = [], leximin.classify_items

    def counted(inst):
        calls.append(inst)
        return classify(inst)

    monkeypatch.setattr(leximin, "classify_items", counted)
    inst = general(3, (0, 2, -1, 1, 3, 5, 2, 4))
    res = leximin_solve(inst, SPEC_NAMES[method])
    assert len(calls) == 1
    assert res.objective_vector == sorted_objectives(inst, SPEC_NAMES[method], res.allocation)


def test_leximin_solve_guard():
    inst = additive([[-1] * 10] * 3)
    with pytest.raises(SearchSpaceTooLarge):
        leximin_solve(inst, max_space=1000)


# ---------------------------------------------------------------- optimum

def test_is_leximin_optimal():
    assert is_leximin_optimal(TABLE1, UTILITY, CIRCLED1)
    assert not is_leximin_optimal(TABLE1, UTILITY, Allocation(5, (1, 0, 0, 1, 2, 3, 4)))
    assert is_leximin_optimal(additive([(7,)]), UTILITY, Allocation(1, (0,)))


def test_solver_matches_pairwise_maxima_oracle():
    inst = additive([(2, -3, 1), (-1, 4, -2)])
    allocs = [Allocation(2, t) for t in product(range(2), repeat=3)]
    maxima = [
        a
        for a in allocs
        if not any(precedes(inst, UTILITY, a, b) for b in allocs)
    ]
    res = leximin_solve(inst)
    assert res.allocation == maxima[0]
    assert res.tie_count == len(maxima)
    for a in maxima:
        assert is_leximin_optimal(inst, UTILITY, a)


# ------------------------------------------------------ metamorphic relations

def _transformed(inst, agents, items, factor=1):
    """Agent k of the result is agent ``agents[k]`` of ``inst`` and item j is
    item ``items[j]``, every value times ``factor``."""
    if isinstance(inst.valuation, AdditiveValuation):
        return additive([[factor * value(inst, i, 1 << j) for j in items] for i in agents])
    table = [
        factor * value(inst, 0, sum(1 << items[j] for j in range(inst.m) if mask >> j & 1))
        for mask in range(1 << inst.m)
    ]
    return general(inst.agents, table)


#: Generator configurations, three seeds each; the integer grid of
#: values -2..2 makes tied optima common on additive rows too.
METAMORPHIC_CONFIGS = (
    ("additive-mixed", 4, 7, {}),
    ("additive-mixed", 4, 6, {"low": -2, "high": 2, "denominator": 1}),
    ("additive-chores", 5, 6, {}),
    ("additive-chores", 3, 7, {"low": -2, "high": 2, "denominator": 1}),
    ("general-identical", 3, 7, {}),
    ("general-identical-nonzero-marginal", 4, 6, {}),
)


@pytest.mark.parametrize("method", SPEC_NAMES)
def test_leximin_solvers_keep_metamorphic_relations(method):
    # relabelling agents or permuting items keeps the objective vector and
    # the tie count; scaling every value by c > 0 scales the values (the
    # counts of the ++ and -gc specs stay) and keeps the tie count
    spec = SPEC_NAMES[method]
    for family, n, m, options in METAMORPHIC_CONFIGS:
        for seed in (1, 2, 3):
            inst = generate(GeneratorConfig(n, m, family, seed, **options))
            rng = random.Random(seed)
            agents, items = rng.sample(range(n), n), rng.sample(range(m), m)
            factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            base = leximin_solve(inst, spec)
            scaled = tuple((factor * v, *counts) for v, *counts in base.objective_vector)
            for changed, vector in (
                (_transformed(inst, agents, range(m)), base.objective_vector),
                (_transformed(inst, range(n), items), base.objective_vector),
                (_transformed(inst, range(n), range(m), factor), scaled),
            ):
                res = leximin_solve(changed, spec)
                assert res.objective_vector == vector
                assert res.tie_count == base.tie_count
