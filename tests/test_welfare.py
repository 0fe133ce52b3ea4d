"""Modified Nash welfare and the Pareto-constrained disutility product."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import additive, general
from fairdiv import (
    AdditiveValuation,
    Allocation,
    Instance,
    NotAdditive,
    NotChoresOnly,
    SearchSpaceTooLarge,
    WelfareScore,
    check_PO,
    constrained_mnw_solve,
    fixture_instance,
    mnw_prime_solve,
    modified_nash_welfare,
    nash_prime_factors,
)
from fairdiv.enumeration import assignment_index
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
    assert assignment_index(2, res.allocation.assignment) == 2**33 - 1
    assert res.search_space == 2**67


def test_constrained_solve_guard():
    inst = additive([[-1] * 10] * 3)
    with pytest.raises(SearchSpaceTooLarge):
        constrained_mnw_solve(inst, max_space=1000)


def _brute_front_mask(vectors):
    return [
        not any(
            all(a >= b for a, b in zip(other, row)) and tuple(other) != tuple(row)
            for other in vectors
        )
        for row in vectors
    ]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_pareto_front_mask_matches_pairwise_domination(dtype):
    # two 512-row batches of 64-row chunks, with ties in every
    # coordinate and in the totals
    rng = np.random.default_rng(3)
    vectors = np.unique(rng.integers(0, 12, size=(1500, 3)), axis=0)
    vectors = vectors[rng.permutation(len(vectors))].astype(dtype)
    mask = _pareto_front_mask(vectors)
    assert mask.dtype == bool
    assert mask.tolist() == _brute_front_mask(vectors.tolist())
