"""Generalized leximin: objective tuples, the comparison operator, and an
exhaustive solver.

An objective spec maps (agent, bundle) to a tuple of exact values. An
allocation A precedes B when, after sorting each allocation's agents by
increasing objective tuple, the first position at which the two sorted
tuple sequences differ is smaller in A. This is a strict weak order, and
a leximin-optimal allocation is a maximal element of it.

Built-in specs, with v the agent's value, G/C her goods and chores:

* utility:            f(S) = (v(S),)
* utility-goods:      f(S) = (v(S), |S  intersect  G|)
* utility-goods-chores: f(S) = (v(S), |S intersect G|, -|S intersect C|)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .enumeration import (
    AllocationRows,
    assignment_at,
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

#: Permutation of agents sorting their objective tuples in nondecreasing
#: order, ties broken by ascending agent index.
AgentOrdering = tuple[int, ...]


@dataclass(frozen=True)
class ObjectiveSpec:
    """A named family of per-agent objective tuples.

    ``custom`` carries a user function (inst, agent, bundle) -> tuple for
    the custom kind; the built-in kinds ignore it.
    """

    kind: str
    custom: Optional[Callable[[Instance, int, Bundle], tuple]] = None

    UTILITY = "utility"
    UTILITY_GOODS = "utility-goods"
    UTILITY_GOODS_CHORES = "utility-goods-chores"
    CUSTOM = "custom"

    def __post_init__(self):
        kinds = (self.UTILITY, self.UTILITY_GOODS, self.UTILITY_GOODS_CHORES, self.CUSTOM)
        if self.kind not in kinds:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if (self.kind == self.CUSTOM) != (self.custom is not None):
            raise ValueError("custom objectives, and only them, need a function")


UTILITY = ObjectiveSpec(ObjectiveSpec.UTILITY)
UTILITY_GOODS = ObjectiveSpec(ObjectiveSpec.UTILITY_GOODS)
UTILITY_GOODS_CHORES = ObjectiveSpec(ObjectiveSpec.UTILITY_GOODS_CHORES)

#: Solver names accepted on the command line, mapped to objective specs.
SPEC_NAMES = {
    "leximin": UTILITY,
    "leximin++": UTILITY_GOODS,
    "leximin-gc": UTILITY_GOODS_CHORES,
}


def _counts(inst: Instance, spec: ObjectiveSpec) -> Callable[[int, Bundle], tuple]:
    """What a built-in spec counts after the value, as a function of
    (agent, bundle): nothing, the goods held, or the goods held and minus
    the chores held."""
    if spec.kind == ObjectiveSpec.UTILITY:
        return lambda agent, bundle: ()
    cls = classify_items(inst)
    if spec.kind == ObjectiveSpec.UTILITY_GOODS:
        return lambda agent, bundle: ((bundle & cls.goods[agent]).bit_count(),)
    return lambda agent, bundle: (
        (bundle & cls.goods[agent]).bit_count(),
        -(bundle & cls.chores[agent]).bit_count(),
    )


def objective(inst: Instance, spec: ObjectiveSpec, agent: int, bundle: Bundle) -> tuple:
    """The objective tuple of one agent for one bundle, exact."""
    if spec.kind == ObjectiveSpec.CUSTOM:
        return tuple(spec.custom(inst, agent, bundle))
    return (value(inst, agent, bundle), *_counts(inst, spec)(agent, bundle))


def _objective_tuples(inst: Instance, spec: ObjectiveSpec, alloc: Allocation) -> list:
    """Each agent's objective tuple for her own bundle, in agent order."""
    require_allocation(inst, alloc)
    return [objective(inst, spec, i, mask) for i, mask in enumerate(alloc.bundles())]


def agent_ordering(inst: Instance, spec: ObjectiveSpec, alloc: Allocation) -> AgentOrdering:
    """Agents sorted by increasing objective tuple, ties by agent index."""
    tuples = _objective_tuples(inst, spec, alloc)
    return tuple(sorted(range(inst.agents), key=lambda i: (tuples[i], i)))


def sorted_objectives(inst: Instance, spec: ObjectiveSpec, alloc: Allocation) -> tuple:
    """The allocation's objective tuples in the agent ordering."""
    return tuple(sorted(_objective_tuples(inst, spec, alloc)))


def precedes(inst: Instance, spec: ObjectiveSpec, a: Allocation, b: Allocation) -> bool:
    """The leximin comparison: does allocation ``a`` rank strictly below
    ``b``?

    Sorts each allocation's objective tuples in increasing order and
    compares the two sequences position by position; the first position
    whose tuples differ decides. Equal sorted sequences are incomparable,
    so the relation is a strict weak order.
    """
    return sorted_objectives(inst, spec, a) < sorted_objectives(inst, spec, b)


def _objective_rows(inst: Instance, spec: ObjectiveSpec) -> AllocationRows:
    """Each agent's built-in objective tuple packed into one integer: the
    scaled value, then the :func:`_counts` as base-(m+1) digits. Counts add
    up over items, so each item adds the packed counts of its one-item
    bundle; two bundles' counts differ by at most m, so integer order on
    the keys is lexicographic order on the tuples.

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
    return AllocationRows(inst, base ** len(counts(0, 0)), extra)


def _custom_argmax(inst: Instance, spec: ObjectiveSpec) -> tuple[int, int]:
    """(canonical index of the first optimum, tie count) for a custom
    spec, whose objective only its Python function can evaluate."""
    best = None
    first = None
    ties = 0
    for index, assignment in enumerate(product(range(inst.agents), repeat=inst.m)):
        key = sorted_objectives(inst, spec, Allocation(inst.agents, assignment))
        if best is None or key > best:
            best, first, ties = key, index, 1
        elif key == best:
            ties += 1
    return first, ties


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
    size = guard_search_space(inst.agents, inst.m, max_space)
    if spec.kind == ObjectiveSpec.CUSTOM:
        first, ties = _custom_argmax(inst, spec)
    else:
        rows = _objective_rows(inst, spec)
        first, _key, ties = lex_argmax(rows, lambda chunk: np.sort(chunk, axis=1).T)
    allocation = Allocation(inst.agents, assignment_at(inst.agents, inst.m, first))
    return SolveResult(
        allocation=allocation,
        objective_vector=sorted_objectives(inst, spec, allocation),
        score=None,
        tie_count=ties,
        search_space=size,
    )


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
    best = leximin_solve(inst, spec, max_space).allocation
    return not precedes(inst, spec, alloc, best)
