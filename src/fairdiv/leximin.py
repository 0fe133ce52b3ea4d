"""Generalized leximin: objective tuples, the comparison operator, and an
exhaustive solver.

An objective spec maps (agent, bundle) to a tuple of exact values. An
allocation A precedes B when, after sorting each allocation's agents by
increasing objective tuple, the first position at which the two sorted
tuple sequences differ is smaller in A. This is a strict weak order, and
a leximin-optimal allocation is a maximal element of it.

The paper's three specs, the members of :class:`ObjectiveSpec`, with v the
agent's value and G/C its goods and chores:

* utility:            f(S) = (v(S),)
* utility-goods:      f(S) = (v(S), |S  intersect  G|)
* utility-goods-chores: f(S) = (v(S), |S intersect G|, -|S intersect C|)
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

import numpy as np

from .enumeration import (
    allocation_chunks,
    assignment_at,
    contribution_matrix,
    guard_search_space,
    lex_argmax,
)
from .model import (
    Allocation,
    Bundle,
    Instance,
    SolveResult,
    classify_items,
    require_allocation,
    value,
)


class ObjectiveSpec(Enum):
    """A named family of per-agent objective tuples, one of the paper's three."""

    UTILITY = "utility"
    UTILITY_GOODS = "utility-goods"
    UTILITY_GOODS_CHORES = "utility-goods-chores"


UTILITY, UTILITY_GOODS, UTILITY_GOODS_CHORES = ObjectiveSpec

#: Solver names accepted on the command line, mapped to objective specs.
SPEC_NAMES = {
    "leximin": UTILITY,
    "leximin++": UTILITY_GOODS,
    "leximin-gc": UTILITY_GOODS_CHORES,
}


def _counts(inst: Instance, spec: ObjectiveSpec) -> Callable[[int, Bundle], tuple]:
    """What a spec counts after the value, as a function of
    (agent, bundle): nothing, the goods held, or the goods held and minus
    the chores held. Any other spec is a ``ValueError``."""
    if not isinstance(spec, ObjectiveSpec):
        raise ValueError(f"not an objective spec: {spec!r}")
    if spec is UTILITY:
        return lambda agent, bundle: ()
    cls = classify_items(inst)
    if spec is UTILITY_GOODS:
        return lambda agent, bundle: ((bundle & cls.goods[agent]).bit_count(),)
    return lambda agent, bundle: (
        (bundle & cls.goods[agent]).bit_count(),
        -(bundle & cls.chores[agent]).bit_count(),
    )


def objective(inst: Instance, spec: ObjectiveSpec, agent: int, bundle: Bundle) -> tuple:
    """The objective tuple of one agent for one bundle, exact."""
    return (value(inst, agent, bundle), *_counts(inst, spec)(agent, bundle))


def _sorted_tuples(inst: Instance, counts, alloc: Allocation) -> tuple:
    """:func:`sorted_objectives`, given the spec's :func:`_counts`."""
    require_allocation(inst, alloc)
    return tuple(sorted((value(inst, i, s), *counts(i, s)) for i, s in enumerate(alloc.bundles())))


def sorted_objectives(inst: Instance, spec: ObjectiveSpec, alloc: Allocation) -> tuple:
    """The agents' objective tuples for their own bundles, in increasing
    order."""
    return _sorted_tuples(inst, _counts(inst, spec), alloc)


def precedes(inst: Instance, spec: ObjectiveSpec, a: Allocation, b: Allocation) -> bool:
    """The leximin comparison: does allocation ``a`` rank strictly below
    ``b``?

    Sorts each allocation's objective tuples in increasing order and
    compares the two sequences position by position; the first position
    whose tuples differ decides. Equal sorted sequences are incomparable,
    so the relation is a strict weak order.
    """
    counts = _counts(inst, spec)
    return _sorted_tuples(inst, counts, a) < _sorted_tuples(inst, counts, b)


def _objective_rows(inst: Instance, spec: ObjectiveSpec):
    """(Chunks of rows ordering like the objective tuples, the spec's :func:`_counts`).

    Each tuple is packed into one integer: the scaled value, then the
    :func:`_counts` as base-(m+1) digits. Counts add up over items, so
    each item adds the packed counts of its one-item bundle; two bundles'
    counts differ by at most m, so integer order on the keys is
    lexicographic order on the tuples.

    Base m would be exact too, so no test can tell the two apart. On a
    validated instance a bundle made only of an agent's goods is worth at
    least 0 to that agent, and one made only of its chores at most 0. Only
    counts m apart, which come from such bundles, could overflow base m,
    and their values already order them."""
    base = inst.m + 1
    counts = _counts(inst, spec)

    def packed(agent: int, bundle: Bundle) -> int:
        key = 0
        for count in counts(agent, bundle):
            key = key * base + count
        return key

    extra = [[packed(i, 1 << j) for j in range(inst.m)] for i in range(inst.agents)]
    matrix = contribution_matrix(inst, base ** len(counts(0, 0)), extra)
    return allocation_chunks(*matrix), counts


def _solve(inst: Instance, spec: ObjectiveSpec, max_space: int | None):
    """(:func:`leximin_solve`'s result, the spec's :func:`_counts`)."""
    size = guard_search_space(inst.agents, inst.m, max_space)
    chunks, counts = _objective_rows(inst, spec)
    first, ties = lex_argmax(chunks, lambda chunk: np.sort(chunk, axis=1).T)
    alloc = Allocation(inst.agents, assignment_at(inst.agents, inst.m, first))
    return SolveResult(alloc, _sorted_tuples(inst, counts, alloc), None, ties, size), counts


def leximin_solve(
    inst: Instance,
    spec: ObjectiveSpec = UTILITY,
    max_space: int | None = None,
) -> SolveResult:
    """Exhaustively find a leximin-optimal allocation.

    Enumerates all n^m allocations in canonical order and keeps the
    maximum under the leximin comparison, breaking ties toward the first
    optimum met. ``tie_count`` reports how many allocations share the
    optimal sorted objective vector.
    """
    return _solve(inst, spec, max_space)[0]


def is_leximin_optimal(
    inst: Instance,
    spec: ObjectiveSpec,
    alloc: Allocation,
    max_space: int | None = None,
) -> bool:
    """True iff no allocation ranks strictly above ``alloc``.

    The comparison is a strict weak order, so ``alloc`` is maximal exactly
    when it does not rank below the solver's optimum.
    """
    require_allocation(inst, alloc)
    best, counts = _solve(inst, spec, max_space)
    return not _sorted_tuples(inst, counts, alloc) < best.objective_vector
