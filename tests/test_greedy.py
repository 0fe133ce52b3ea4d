"""Greedy allocator for identical additive valuations."""

import random
from fractions import Fraction

import pytest

from conftest import additive, general, prefix_allocations
from fairdiv import (
    Allocation,
    NotAdditive,
    NotIdentical,
    TraceStep,
    alg_identical,
    alg_identical_trace,
    check_EFX,
)
from fairdiv.greedy import greedy_result


def F(x):
    return Fraction(x)


def test_trace_alternates_goods_to_poorest_chores_to_richest():
    inst = additive([(5, -4, 3, -2)] * 2)
    trace = alg_identical_trace(inst)
    assert trace == (
        TraceStep(0, 0, (F(5), F(0))),
        TraceStep(1, 0, (F(1), F(0))),
        TraceStep(2, 1, (F(1), F(3))),
        TraceStep(3, 1, (F(1), F(1))),
    )
    assert alg_identical(inst).assignment == (0, 0, 1, 1)
    result = greedy_result(inst, trace)
    assert result.allocation.assignment == (0, 0, 1, 1)
    assert result.objective_vector == (F(1), F(1))
    assert (result.score, result.tie_count, result.search_space) == (None, 1, 0)


def test_absolute_value_order_breaks_ties_by_item_index():
    inst = additive([(-3, 3, 2)] * 2)
    trace = alg_identical_trace(inst)
    assert tuple(s.item for s in trace) == (0, 1, 2)
    # the chore makes agent 0 poorest, so both goods flow back to it
    assert tuple(s.agent for s in trace) == (0, 0, 0)
    assert trace[-1].utilities == (F(2), F(0))


def test_zero_values_all_go_to_agent_zero():
    inst = additive([(0, 0, 0)] * 3)
    assert alg_identical(inst).assignment == (0, 0, 0)


def test_single_chore_goes_to_agent_zero():
    inst = additive([(-7,)] * 3)
    assert alg_identical(inst).assignment == (0,)


def test_empty_instance_gives_empty_trace():
    inst = additive([[], []])
    assert alg_identical_trace(inst) == ()
    assert alg_identical(inst) == Allocation(2, ())
    assert greedy_result(inst, ()).objective_vector == (F(0), F(0))


def test_rejects_non_identical_and_non_additive():
    with pytest.raises(NotIdentical) as info:
        alg_identical(additive([(1, 2), (1, 3)]))
    assert info.value.agent == 1
    with pytest.raises(NotAdditive):
        alg_identical(general(2, (0, 1, 1, 2)))


def test_every_prefix_is_EFX():
    rng = random.Random(987)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(1, 7)
        row = [rng.randint(-9, 9) for _ in range(m)]
        inst = additive([row] * n)
        trace = alg_identical_trace(inst)
        for sub_inst, sub_alloc in prefix_allocations(inst, trace):
            assert check_EFX(sub_inst, sub_alloc).holds
        assert check_EFX(inst, alg_identical(inst)).holds
