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
from typing import Callable, Optional

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

@dataclass(frozen=True)
class ObjectiveSpec:
    """A named family of per-agent objective tuples.

    ``custom`` carries a user function (inst, agent, bundle) -> tuple for
    the custom kind; the built-in kinds ignore it. :func:`leximin_solve`
    calls it once per (agent, bundle) in agent, then bundle-mask order:
    n * 2^m calls, or one on the full bundle when n = 1.
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
        if self.custom is not None and not callable(self.custom):
            raise ValueError(f"custom objective {self.custom!r} is not callable")


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


def sorted_objectives(inst: Instance, spec: ObjectiveSpec, alloc: Allocation) -> tuple:
    """The agents' objective tuples for their own bundles, in increasing
    order."""
    require_allocation(inst, alloc)
    bundles = alloc.bundles()
    return tuple(sorted(objective(inst, spec, i, mask) for i, mask in enumerate(bundles)))


def precedes(inst: Instance, spec: ObjectiveSpec, a: Allocation, b: Allocation) -> bool:
    """The leximin comparison: does allocation ``a`` rank strictly below
    ``b``?

    Sorts each allocation's objective tuples in increasing order and
    compares the two sequences position by position; the first position
    whose tuples differ decides. Equal sorted sequences are incomparable,
    so the relation is a strict weak order.
    """
    return sorted_objectives(inst, spec, a) < sorted_objectives(inst, spec, b)


def _objective_rows(inst: Instance, spec: ObjectiveSpec):
    """(Chunks of rows ordering like the objective tuples, (agent, bundle) -> tuple).

    A built-in tuple is packed into one integer: the scaled value, then
    the :func:`_counts` as base-(m+1) digits. Counts add up over items, so
    each item adds the packed counts of its one-item bundle; two bundles'
    counts differ by at most m, so integer order on the keys is
    lexicographic order on the tuples.

    Base m would be exact too, so no test can tell the two apart. On a
    validated instance a bundle made only of an agent's goods is worth at
    least 0 to that agent, and one made only of its chores at most 0. Only
    counts m apart, which come from such bundles, could overflow base m,
    and their values already order them."""
    if spec.kind == ObjectiveSpec.CUSTOM:
        return _rank_rows(inst, spec)
    base = inst.m + 1
    counts = _counts(inst, spec)

    def packed(agent: int, bundle: Bundle) -> int:
        key = 0
        for count in counts(agent, bundle):
            key = key * base + count
        return key

    extra = [[packed(i, 1 << j) for j in range(inst.m)] for i in range(inst.agents)]
    matrix = contribution_matrix(inst, base ** len(counts(0, 0)), extra)
    return allocation_chunks(*matrix), lambda agent, bundle: (
        value(inst, agent, bundle), *counts(agent, bundle)
    )


def _rank_rows(inst: Instance, spec: ObjectiveSpec):
    """:func:`_objective_rows` of a custom spec: each (agent, bundle) tuple
    is replaced by its rank among all of them, equal sorted neighbours
    sharing one, so sorted rank rows compare as the sorted tuples do. With
    one agent only the full bundle is evaluated; its rank fills the row."""
    n, m = inst.agents, inst.m
    bundles = range(1 << m) if n > 1 else [inst.full_mask]
    tuples = [objective(inst, spec, i, bundle) for i in range(n) for bundle in bundles]
    order = sorted(range(len(tuples)), key=tuples.__getitem__)
    ranks = [0] * len(tuples)
    for before, index in zip(order, order[1:]):
        ranks[index] = ranks[before] + (tuples[before] != tuples[index])
    lookup = np.broadcast_to(np.array(ranks, dtype=np.int64).reshape(n, -1), (n, 1 << m))
    chunks = allocation_chunks(np.zeros((n, m), dtype=np.int64), lookup)
    return chunks, lambda agent, bundle: tuples[agent * len(bundles) + bundles.index(bundle)]


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
    chunks, objective_of = _objective_rows(inst, spec)
    first, _key, ties = lex_argmax(chunks, lambda chunk: np.sort(chunk, axis=1).T)
    allocation = Allocation(inst.agents, assignment_at(inst.agents, inst.m, first))
    tuples = map(objective_of, range(inst.agents), allocation.bundles())
    return SolveResult(allocation, tuple(sorted(tuples)), None, ties, size)


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
    best = leximin_solve(inst, spec, max_space).objective_vector
    return not sorted_objectives(inst, spec, alloc) < best
