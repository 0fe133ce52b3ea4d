"""Modified Nash welfare and the Pareto-constrained disutility product."""

from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest

from conftest import additive, general
from fairdiv import (
    AdditiveValuation,
    Allocation,
    GeneratorConfig,
    Instance,
    NotAdditive,
    NotChoresOnly,
    SearchSpaceTooLarge,
    WelfareScore,
    check_PO,
    constrained_mnw_solve,
    fixture_instance,
    generate,
    mnw_prime_solve,
    modified_nash_welfare,
    nash_prime_factors,
)
from fairdiv.welfare import _pareto_front_mask

MNW = fixture_instance("mnw")
CIRCLED = Allocation(3, (0, 0, 0, 1, 2))
MNW2 = fixture_instance("mnw2")
CIRCLED2 = Allocation(3, (0, 0, 0, 1, 2))


def test_score_orders_nonzero_count_before_product():
    assert WelfareScore(2, Fraction(100)) < WelfareScore(3, Fraction(1))
    assert WelfareScore(3, Fraction(10)) < WelfareScore(3, Fraction(12))
    assert WelfareScore(0, Fraction(1)) < WelfareScore(1, Fraction(1, 100))


def test_nash_prime_factors_of_the_circled_allocation():
    assert nash_prime_factors(MNW, CIRCLED) == (
        Fraction(15),
        Fraction(32),
        Fraction(32),
    )
    assert modified_nash_welfare(MNW, CIRCLED) == WelfareScore(3, Fraction(15360))


def test_factors_require_chores_only_additive():
    with pytest.raises(NotChoresOnly):
        nash_prime_factors(additive([(1, -2), (-1, -1)]), Allocation(2, (0, 1)))
    with pytest.raises(NotAdditive):
        nash_prime_factors(general(2, (0, -1, -1, -2)), Allocation(2, (0, 1)))


def test_mnw_prime_solve_fixture():
    res = mnw_prime_solve(MNW)
    assert res.allocation == CIRCLED
    assert res.score == WelfareScore(3, Fraction(15360))
    assert res.objective_vector == nash_prime_factors(MNW, CIRCLED)
    assert res.tie_count == 1
    assert res.search_space == 3**5


def test_mnw_prime_solve_single_chore():
    inst = additive([(-1,), (-2,)])
    res = mnw_prime_solve(inst)
    # giving agent 0 the chore spares agent 1 everything: factors (0, 2)
    assert res.allocation.assignment == (0,)
    assert res.score == WelfareScore(1, Fraction(2))


def test_mnw_prime_solve_single_agent():
    res = mnw_prime_solve(additive([(-3, -4)]))
    # the lone agent always takes everything and spares nothing
    assert res.score == WelfareScore(0, Fraction(1))
    assert res.tie_count == 1


def test_mnw_prime_solve_guard():
    inst = additive([[-1] * 10] * 3)
    with pytest.raises(SearchSpaceTooLarge):
        mnw_prime_solve(inst, max_space=1000)


def test_constrained_solve_mnw2_fixture():
    res = constrained_mnw_solve(MNW2)
    assert res.allocation == CIRCLED2
    assert res.score == WelfareScore(3, Fraction(192))
    assert res.tie_count == 1
    assert check_PO(MNW2, res.allocation).holds


def test_constrained_solve_optimizes_a_different_objective_than_prime():
    # the aversion product over the efficient set peaks elsewhere than the
    # spared-aversion product over all allocations
    res = constrained_mnw_solve(MNW)
    assert res.allocation.assignment == (0, 1, 2, 1, 1)
    assert res.score == WelfareScore(3, Fraction(780))
    assert res.objective_vector == (Fraction(6), Fraction(13), Fraction(10))
    assert res.tie_count == 12
    assert check_PO(MNW, res.allocation).holds
    assert res.allocation != mnw_prime_solve(MNW).allocation


def test_constrained_solve_counts_ties_among_optima():
    inst = additive([(-1, -1), (-1, -1)])
    res = constrained_mnw_solve(inst)
    # one chore each, both splits optimal, canonical one first
    assert res.allocation.assignment == (0, 1)
    assert res.tie_count == 2
    assert res.score == WelfareScore(2, Fraction(1))
    assert res.objective_vector == (Fraction(1), Fraction(1))


def test_constrained_solve_counts_past_int64():
    # 2^67 allocations: counts and indices need Python integers
    inst = Instance(
        agents=2,
        items=tuple(f"c{j}" for j in range(67)),
        valuation=AdditiveValuation.of(((-1,) * 67,) * 2),
    )
    res = constrained_mnw_solve(inst, max_space=2**67)
    assert res.tie_count == 2 * comb(67, 33) == 28_453_041_475_240_576_740
    assert res.allocation.assignment == (0,) * 34 + (1,) * 33
    assert res.search_space == 2**67


def test_constrained_solve_counts_exactly_two_to_the_63():
    # n^m = 2^63 is one past int64, so the counts must be Python integers
    inst = Instance(
        agents=2,
        items=tuple(f"c{j}" for j in range(63)),
        valuation=AdditiveValuation.of(((0,) * 63,) * 2),
    )
    res = constrained_mnw_solve(inst, max_space=2**63)
    assert res.tie_count == 2**63
    assert res.allocation.assignment == (0,) * 63


def test_mnw_prime_solve_product_of_exactly_two_to_the_63():
    # each agent spares 2^21 when it takes the one chore it does not mind,
    # a product of 2^63, one past int64
    big = 2**20
    inst = additive([(0, -big, -big), (-big, 0, -big), (-big, -big, 0)])
    res = mnw_prime_solve(inst)
    assert res.allocation.assignment == (0, 1, 2)
    assert res.score == WelfareScore(3, Fraction(2**63))
    assert res.tie_count == 1


def test_constrained_solve_guard():
    inst = additive([[-1] * 10] * 3)
    with pytest.raises(SearchSpaceTooLarge):
        constrained_mnw_solve(inst, max_space=1000)


def _relabelled(inst, agents, items):
    """Agent k of the result is agent ``agents[k]`` of ``inst``, and item
    j is item ``items[j]``."""
    rows = inst.valuation.matrix
    return Instance(
        agents=inst.agents,
        items=tuple(inst.items[j] for j in items),
        valuation=AdditiveValuation.of(tuple(tuple(rows[i][j] for j in items) for i in agents)),
    )


def _scaled(inst, scales):
    """Agent i's row of ``inst`` multiplied by ``scales[i]``."""
    rows = zip(scales, inst.valuation.matrix)
    return Instance(
        agents=inst.agents,
        items=inst.items,
        valuation=AdditiveValuation.of(tuple(tuple(c * v for v in row) for c, row in rows)),
    )


@pytest.mark.parametrize("solve", [constrained_mnw_solve, mnw_prime_solve])
def test_nash_solvers_commute_with_relabelling_and_scaling(solve):
    # 5 x 8 chores: the last Pareto filter of the first instance gets 10,570
    # candidates, 166 blocks; the second has 23 tied constrained optima
    agents, items = (3, 0, 4, 1, 2), (5, 2, 7, 0, 6, 1, 3, 4)
    scales = (Fraction(3), Fraction(1, 2), Fraction(7, 3), Fraction(1), Fraction(5, 4))
    for config in (
        GeneratorConfig(5, 8, "additive-chores", 1),
        GeneratorConfig(5, 8, "additive-chores", 1, low=-3, high=-1, denominator=1),
    ):
        inst = generate(config)
        base = solve(inst)
        by_agents = solve(_relabelled(inst, agents, range(8)))
        by_items = solve(_relabelled(inst, range(5), items))
        for res in (by_agents, by_items):
            assert res.tie_count == base.tie_count
            assert res.score == base.score
        if base.tie_count == 1:
            factors = base.objective_vector
            assert by_agents.objective_vector == tuple(factors[i] for i in agents)
            # the same agents, so the same factors, not just their multiset
            assert by_items.objective_vector == factors
        # each factor is a value of its own agent's row, so it scales with
        # that row, and the product with the rows of its nonzero factors
        by_scales = solve(_scaled(inst, scales))
        assert by_scales.allocation == base.allocation
        assert by_scales.tie_count == base.tie_count
        factors = base.objective_vector
        assert by_scales.objective_vector == tuple(c * f for c, f in zip(scales, factors))
        nonzero = [c for c, f in zip(scales, factors) if f != 0]
        assert by_scales.score == WelfareScore(
            base.score.nonzero_count, base.score.product * prod(nonzero)
        )


def _brute_front_mask(vectors):
    return [
        not any(
            all(a >= b for a, b in zip(other, row)) and tuple(other) != tuple(row)
            for other in vectors
        )
        for row in vectors
    ]


def _front_inputs():
    """Distinct rows in ascending lexicographic order, as
    _pareto_frontier hands them over, around the 64-row blocks."""
    rng = np.random.default_rng(3)
    # many blocks, with ties in every coordinate and in the totals
    yield np.unique(rng.integers(0, 12, size=(1500, 3)), axis=0)
    pool = np.unique(rng.integers(0, 8, size=(600, 3)), axis=0)
    for count in (1, 63, 64, 65, 129):
        yield pool[np.sort(rng.choice(len(pool), count, replace=False))]
    yield np.unique(rng.integers(0, 200, size=(100, 1)), axis=0)
    # row 0 is its own block, and its only dominator, row 1, shares its
    # first coordinate and sits in the block after it
    yield np.array([(5, 0), (5, 1)] + [(5 + k, -k) for k in range(1, 64)])


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_pareto_front_mask_matches_pairwise_domination(dtype):
    for vectors in _front_inputs():
        vectors = vectors.astype(dtype)
        mask = _pareto_front_mask(vectors)
        assert mask.dtype == bool
        assert mask.tolist() == _brute_front_mask(vectors.tolist()), len(vectors)
