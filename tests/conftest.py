"""Shared helpers: compact instance builders and the greedy prefix view."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import settings

from fairdiv import (
    AdditiveValuation,
    Allocation,
    GeneralIdenticalValuation,
    Instance,
)

ITEM_NAMES = "abcdefghijklmnop"

# Property tests draw the same examples on every run, and first-call numpy
# latency on a slow machine must not trip a deadline.
settings.register_profile("fairdiv", derandomize=True, deadline=None)
settings.load_profile("fairdiv")


def additive(rows) -> Instance:
    """Instance with additive rows; items named a, b, c, ... in order."""
    matrix = tuple(tuple(Fraction(v) for v in row) for row in rows)
    return Instance(
        agents=len(matrix),
        items=tuple(ITEM_NAMES[: len(matrix[0])]),
        valuation=AdditiveValuation(matrix),
    )


def general(agents: int, table) -> Instance:
    """General-identical instance from a dense 2^m table."""
    entries = tuple(Fraction(v) for v in table)
    m = (len(entries) - 1).bit_length()
    return Instance(
        agents=agents,
        items=tuple(ITEM_NAMES[:m]),
        valuation=GeneralIdenticalValuation.of(entries),
    )


def prefix_allocations(inst, trace):
    """Sub-instance and allocation after each greedy step.

    The l-th pair restricts the instance to the first l items handed out
    and allocates them as the trace did, so fairness checks apply to the
    partial allocation the algorithm maintained at that point.
    """
    matrix = inst.valuation.matrix
    taken: list[int] = []
    owners: list[int] = []
    for step in trace:
        taken.append(step.item)
        owners.append(step.agent)
        sub = Instance(
            agents=inst.agents,
            items=tuple(inst.items[j] for j in taken),
            valuation=AdditiveValuation(
                tuple(tuple(row[j] for j in taken) for row in matrix)
            ),
        )
        yield sub, Allocation(inst.agents, tuple(owners))
