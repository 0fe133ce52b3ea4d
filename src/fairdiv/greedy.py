"""Greedy allocation for identical additive valuations.

Items are handed out in decreasing order of absolute value (ties by
ascending item index): each good goes to a currently poorest agent, each
chore to a currently richest one, ties broken by ascending agent index.
Every prefix of the resulting assignment sequence is envy-free up to any
item.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAdditive, NotIdentical
from .model import AdditiveValuation, Allocation, Instance, SolveResult


@dataclass(frozen=True)
class TraceStep:
    """One greedy step: ``item`` went to ``agent``, leaving the given
    per-agent running utilities."""

    item: int
    agent: int
    utilities: tuple[Fraction, ...]


def _identical_row(inst: Instance) -> tuple[int, ...]:
    if not isinstance(inst.valuation, AdditiveValuation):
        raise NotAdditive("the greedy allocator requires an additive instance")
    scaled = inst.valuation.scaled
    for i, row in enumerate(scaled[1:], start=1):
        if row != scaled[0]:
            raise NotIdentical(i)
    return scaled[0]


def alg_identical_trace(inst: Instance) -> tuple[TraceStep, ...]:
    """Run the greedy allocator and record every step."""
    row = _identical_row(inst)
    n, scale = inst.agents, inst.valuation.scale
    order = sorted(range(inst.m), key=lambda j: (-abs(row[j]), j))
    utilities = [0] * n
    trace = []
    for item in order:
        if row[item] >= 0:
            agent = min(range(n), key=lambda k: (utilities[k], k))
        else:
            agent = min(range(n), key=lambda k: (-utilities[k], k))
        utilities[agent] += row[item]
        trace.append(TraceStep(item, agent, tuple(Fraction(u, scale) for u in utilities)))
    return tuple(trace)


def greedy_result(inst: Instance, trace) -> SolveResult:
    """The greedy method's result, read from its trace: the final
    per-agent utilities (all zero without items), a tie count of 1 and,
    as nothing is enumerated, a search space of 0."""
    assignment = [0] * inst.m
    for step in trace:
        assignment[step.item] = step.agent
    utilities = trace[-1].utilities if trace else (Fraction(0),) * inst.agents
    return SolveResult(Allocation(inst.agents, tuple(assignment)), utilities, None, 1, 0)


def alg_identical(inst: Instance) -> Allocation:
    """The greedy allocation for an identical additive instance."""
    return greedy_result(inst, alg_identical_trace(inst)).allocation
