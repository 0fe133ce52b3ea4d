"""Acceptance criteria, one test per criterion.

Every test re-derives its expected values through an independent path
(hand-pinned exact numbers, a brute-force oracle, or an alternative
formulation), asserts exact equality, enforces the stated runtime bound
and prints one ACCEPTANCE line.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from conftest import prefix_allocations
from oracle import aversion_view
from fairdiv import (
    UTILITY,
    UTILITY_GOODS_CHORES,
    Allocation,
    Ef1Witness,
    GeneratorConfig,
    Prop1Witness,
    WelfareScore,
    alg_identical,
    alg_identical_trace,
    check_EF1,
    check_EFX,
    check_PO,
    check_PROP1,
    constrained_mnw_solve,
    fixture_instance,
    generate,
    leximin_solve,
    mnw_prime_solve,
    nash_prime_factors,
    precedes,
    value,
)
from fairdiv.enumeration import assignment_at


class stopwatch:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.bound, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.bound}s bound"
            )
        return False


def report(k):
    print(f"ACCEPTANCE {k}: PASS")


def test_acceptance_1_leximin_on_the_five_agent_seven_chore_table():
    with stopwatch(10):
        inst = fixture_instance("table1")
        res = leximin_solve(inst)
        assert res.allocation.assignment == (0, 0, 0, 1, 2, 3, 4)
        assert res.objective_vector == (
            (Fraction(-18),),
            (Fraction(-1, 10),),
            (Fraction(-1, 10),),
            (Fraction(-1, 10),),
            (Fraction(-1, 10),),
        )
        assert res.allocation.bundles()[0] == 0b0000111  # items a, b, c
        assert res.tie_count == 1
        prop1 = check_PROP1(inst, res.allocation)
        assert prop1.witness == Prop1Witness(
            0, Fraction(-18), Fraction(-12), Fraction(-11)
        )
    report(1)


def test_acceptance_2_modified_nash_welfare_on_the_three_agent_example():
    with stopwatch(5):
        inst = fixture_instance("mnw")
        res = mnw_prime_solve(inst)
        assert res.allocation.assignment == (0, 0, 0, 1, 2)
        assert nash_prime_factors(inst, res.allocation) == (
            Fraction(15),
            Fraction(32),
            Fraction(32),
        )
        assert res.score == WelfareScore(3, Fraction(15360))
        assert res.tie_count == 1
        prop1 = check_PROP1(inst, res.allocation)
        assert prop1.witness == Prop1Witness(
            0, Fraction(-18), Fraction(-12), Fraction(-11)
        )
        # aversion-space recheck: agent 0 carries 18, the grand bundle costs
        # 33, and even the lightest load after one removal is 12 > 33/3
        avers = aversion_view(inst)
        own = value(avers, 0, res.allocation.bundles()[0])
        assert own == Fraction(18)
        total = value(avers, 0, inst.full_mask)
        assert total == Fraction(33)
        removals = [
            value(avers, 0, res.allocation.bundles()[0] & ~(1 << j))
            for j in range(inst.m)
            if res.allocation.bundles()[0] >> j & 1
        ]
        assert min(removals) == Fraction(12) > total / 3
    report(2)


def test_acceptance_3_constrained_welfare_counterexamples():
    with stopwatch(60):
        mnw2 = fixture_instance("mnw2")
        res2 = constrained_mnw_solve(mnw2)
        assert res2.allocation.assignment == (0, 0, 0, 1, 2)
        assert res2.score == WelfareScore(3, Fraction(192))
        assert res2.tie_count == 1
        ef1 = check_EF1(mnw2, res2.allocation)
        assert ef1.witness == Ef1Witness(
            0, 1, Fraction(-8), Fraction(-3), Fraction(-6)
        )
        # aversion-space recheck: agent 0 carries 8 against agent 1's 3,
        # and no single removal gets below 5
        avers = aversion_view(mnw2)
        bundle0 = res2.allocation.bundles()[0]
        removals = {
            value(avers, 0, bundle0 & ~(1 << j))
            for j in range(mnw2.m)
            if bundle0 >> j & 1
        }
        assert removals == {Fraction(5), Fraction(6)}
        assert min(removals) > value(avers, 0, res2.allocation.bundles()[1])

        mnw3 = fixture_instance("mnw3")
        res3 = constrained_mnw_solve(mnw3)
        assert res3.allocation.assignment == (0, 0, 1, 1, 2, 3, 4)
        assert res3.score == WelfareScore(5, Fraction(1075437, 25))
        assert res3.tie_count == 1
        prop1 = check_PROP1(mnw3, res3.allocation)
        assert prop1.witness == Prop1Witness(
            0, Fraction(-45, 2), Fraction(-103, 10), Fraction(-10)
        )
        # agent 0's lightest single-removal load is 10.3, above 50.3/5
        avers3 = aversion_view(mnw3)
        bundle0 = res3.allocation.bundles()[0]
        best = min(
            value(avers3, 0, bundle0 & ~(1 << j))
            for j in range(mnw3.m)
            if bundle0 >> j & 1
        )
        assert best == Fraction(103, 10)
        assert best > value(avers3, 0, mnw3.full_mask) / 5
    report(3)


def test_acceptance_4_leximin_is_fair_for_equal_total_chores():
    with stopwatch(300):
        shapes = [(3, 7), (4, 6)]
        for n, m_max in shapes:
            for trial in range(200):
                rng = random.Random(n * 1000 + trial)
                m = rng.randint(1, m_max)
                config = GeneratorConfig(
                    agents=n,
                    items=m,
                    family="additive-chores",
                    seed=trial * 31 + n,
                    rescale_total=Fraction(-1),
                )
                inst = generate(config)
                res = leximin_solve(inst)
                assert check_PROP1(inst, res.allocation).holds, config
                assert check_PO(inst, res.allocation).holds, config
    report(4)


def test_acceptance_5_leximin_is_EFX_for_identical_general_valuations():
    with stopwatch(300):
        for trial in range(100):
            rng = random.Random(trial)
            config = GeneratorConfig(
                agents=rng.randint(2, 3),
                items=rng.randint(1, 5),
                family="general-identical",
                seed=trial,
            )
            inst = generate(config)
            res = leximin_solve(inst, UTILITY_GOODS_CHORES)
            assert check_EFX(inst, res.allocation).holds, config
        for trial in range(100):
            rng = random.Random(10_000 + trial)
            config = GeneratorConfig(
                agents=rng.randint(2, 3),
                items=rng.randint(1, 5),
                family="general-identical-nonzero-marginal",
                seed=trial,
            )
            inst = generate(config)
            res = leximin_solve(inst, UTILITY)
            assert check_EFX(inst, res.allocation).holds, config
            assert check_PO(inst, res.allocation).holds, config
    report(5)


def test_acceptance_6_greedy_prefixes_stay_EFX_for_identical_additive():
    with stopwatch(60):
        for trial in range(200):
            rng = random.Random(trial)
            config = GeneratorConfig(
                agents=rng.randint(2, 4),
                items=rng.randint(1, 8),
                family="identical-additive",
                seed=trial,
            )
            inst = generate(config)
            trace = alg_identical_trace(inst)
            for sub_inst, sub_alloc in prefix_allocations(inst, trace):
                assert check_EFX(sub_inst, sub_alloc).holds, config
            assert check_EFX(inst, alg_identical(inst)).holds, config
    report(6)


def test_acceptance_7_the_comparison_is_a_strict_weak_order_and_the_solver_maximizes_it():
    with stopwatch(120):
        for trial in range(50):
            rng = random.Random(trial)
            n = rng.randint(2, 3)
            m = rng.randint(1, 4)
            config = GeneratorConfig(
                agents=n, items=m, family="additive-mixed", seed=trial
            )
            inst = generate(config)
            allocs = [Allocation(n, t) for t in product(range(n), repeat=m)]
            size = len(allocs)
            M = np.zeros((size, size), dtype=bool)
            for a in range(size):
                for b in range(size):
                    M[a, b] = precedes(inst, UTILITY, allocs[a], allocs[b])
            assert not M.diagonal().any()  # irreflexive
            assert not (M & M.T).any()  # asymmetric
            closure = (M.astype(int) @ M.astype(int)) > 0
            assert not (closure & ~M).any()  # transitive
            I = ~(M | M.T)  # incomparability, diagonal included
            iclosure = (I.astype(int) @ I.astype(int)) > 0
            assert not (iclosure & ~I).any()  # transitive incomparability
            maxima = np.flatnonzero(~M.any(axis=1))
            res = leximin_solve(inst)
            assert res.tie_count == len(maxima)
            first = int(maxima.min())
            assert res.allocation.assignment == assignment_at(n, m, first)
            assert allocs[first].assignment == assignment_at(n, m, first)
    report(7)


def u_form_EF1(avers, alloc):
    bundles = alloc.bundles()
    for i in range(avers.agents):
        own = value(avers, i, bundles[i])
        for j in range(avers.agents):
            if i == j or own <= value(avers, i, bundles[j]):
                continue
            if not any(
                value(avers, i, bundles[i] & ~(1 << c)) <= value(avers, i, bundles[j])
                for c in range(avers.m)
                if bundles[i] >> c & 1
            ):
                return False
    return True


def u_form_PROP1(avers, alloc):
    for i in range(avers.agents):
        share = value(avers, i, avers.full_mask) / avers.agents
        mask = alloc.bundles()[i]
        if value(avers, i, mask) <= share:
            continue
        if not any(
            value(avers, i, mask & ~(1 << c)) <= share
            for c in range(avers.m)
            if mask >> c & 1
        ):
            return False
    return True


def test_acceptance_8_value_and_aversion_forms_of_the_checks_agree_on_chores():
    with stopwatch(60):
        agreements_ef1 = set()
        agreements_prop1 = set()
        for trial in range(100):
            rng = random.Random(trial)
            n = rng.randint(2, 4)
            m = rng.randint(1, 6)
            config = GeneratorConfig(
                agents=n, items=m, family="additive-chores", seed=trial
            )
            inst = generate(config)
            avers = aversion_view(inst)
            alloc = Allocation(n, tuple(rng.randrange(n) for _ in range(m)))
            ef1 = check_EF1(inst, alloc).holds
            assert ef1 == u_form_EF1(avers, alloc), config
            prop1 = check_PROP1(inst, alloc).holds
            assert prop1 == u_form_PROP1(avers, alloc), config
            agreements_ef1.add(ef1)
            agreements_prop1.add(prop1)
        # both verdicts must actually occur across the sample
        assert agreements_ef1 == {True, False}
        assert agreements_prop1 == {True, False}
    report(8)
