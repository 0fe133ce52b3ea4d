"""Exact fairness checks, the envy graph, and envy-cycle elimination.

Every check returns a :class:`CheckResult` whose witness, when the check
fails, is concrete enough to re-verify the violation directly. Witnesses
always report the lexicographically smallest violating tuple, scanning
agents, then counterpart agents, then items in ascending index order.

Conventions for mixed goods and chores, with G_i and C_i the goods and
chores of agent i from :func:`fairdiv.model.classify_items`:

* i envies j iff v_i(A_i) < v_i(A_j).
* EFX: every envious pair (i, j) must satisfy v_i(A_i) >= v_i(A_j - {g})
  for all goods g in A_j owned by j, and v_i(A_i) >= v_i(A_j + {c}) for
  all chores c in A_i. An envious pair with no goods in A_j and no chores
  in A_i fails outright.
* EF1 is the existential weakening: one such adjustment must succeed.
* PROP: v_i(A_i) >= v_i(M) / n for every agent.
* PROP1: the PROP bound must hold after adding some unowned item (any
  item, regardless of its sign for i) or removing some owned item.
* PO: no allocation weakly improves every agent and strictly improves one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from .enumeration import (
    AllocationRows,
    assignment_at,
    assignment_index,
    guard_search_space,
)
from .errors import SearchSpaceTooLarge
from .model import (
    Allocation,
    Instance,
    classify_items,
    format_value,
    require_allocation,
    scaled_value,
)

GOOD_REMOVAL = "good-removal"
CHORE_COPY = "chore-copy"
NO_ADJUSTMENT = "no-adjustment"


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"


class _Witness:
    """Renders a witness dataclass field by field, in field order: exact
    values as strings, and the field ``item`` by name when an instance is
    given."""

    def as_dict(self, inst: Instance | None = None) -> dict:
        out = {}
        for field in fields(self):
            entry = getattr(self, field.name)
            if isinstance(entry, Fraction):
                entry = format_value(entry)
            elif field.name == "item" and inst is not None and entry is not None:
                entry = inst.items[entry]
            out[field.name] = entry
        return out


@dataclass(frozen=True)
class EnvyWitness(_Witness):
    """Agent i strictly prefers agent j's bundle."""

    i: int
    j: int
    own: Fraction
    other: Fraction


@dataclass(frozen=True)
class EfxWitness(_Witness):
    """A single-item adjustment that leaves agent i still envious.

    ``side`` tells which adjustment failed: removing the good ``item``
    from j's bundle, or copying the chore ``item`` from i's bundle onto
    j's. ``adjusted`` is the value of j's adjusted bundle to i. An envious
    pair with no adjustment available carries item None and side
    "no-adjustment".
    """

    i: int
    j: int
    item: Optional[int]
    side: str
    own: Fraction
    adjusted: Fraction


@dataclass(frozen=True)
class Ef1Witness(_Witness):
    """No single-item adjustment frees agent i of envy toward j.

    ``best_target`` is the most favourable adjusted value of j's bundle
    over all allowed adjustments (None when the pair admits none).
    """

    i: int
    j: int
    own: Fraction
    other: Fraction
    best_target: Optional[Fraction]


@dataclass(frozen=True)
class PropWitness(_Witness):
    """Agent's bundle value falls short of the proportional share."""

    agent: int
    value: Fraction
    threshold: Fraction


@dataclass(frozen=True)
class Prop1Witness(_Witness):
    """Even the best single-item adjustment misses the proportional share.

    ``best_adjusted`` is the best bundle value agent reaches by leaving
    the bundle alone, adding one unowned item, or removing one owned item.
    """

    agent: int
    value: Fraction
    best_adjusted: Fraction
    threshold: Fraction


@dataclass(frozen=True)
class PoWitness:
    """An allocation that weakly improves everyone and strictly improves
    at least one agent."""

    improvement: Allocation

    def as_dict(self, inst: Instance | None = None) -> dict:
        if inst is None:
            return {"improvement": list(self.improvement.assignment)}
        return {
            "improvement": [
                list(inst.bundle_names(mask))
                for mask in self.improvement.bundles()
            ]
        }


@dataclass(frozen=True)
class GuardWitness:
    """A check was skipped because its search space exceeds the cap."""

    size: int
    limit: int

    def as_dict(self, inst: Instance | None = None) -> dict:
        return {"search_space": self.size, "limit": self.limit}


@dataclass(frozen=True)
class CheckResult:
    verdict: Verdict
    witness: object = None

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS


def _exact(inst: Instance, *scaled):
    """Scaled values as exact ``Fraction``s for a witness, None kept."""
    return (None if a is None else Fraction(a, inst.valuation.scale) for a in scaled)


def _envious_pairs(inst: Instance, masks):
    """Yield (i, j, v_i(A_i), v_i(A_j)), values scaled, for every pair in
    which agent i envies agent j, in ascending (i, j) order."""
    for i in range(inst.agents):
        own = scaled_value(inst, i, masks[i])
        for j in range(inst.agents):
            if j != i:
                other = scaled_value(inst, i, masks[j])
                if own < other:
                    yield i, j, own, other


def envies(inst: Instance, alloc: Allocation, i: int, j: int) -> bool:
    """True iff agent i strictly prefers agent j's bundle to her own."""
    require_allocation(inst, alloc)
    bundles = alloc.bundles()
    return scaled_value(inst, i, bundles[i]) < scaled_value(inst, i, bundles[j])


def check_EF(inst: Instance, alloc: Allocation) -> CheckResult:
    """Envy-freeness: no agent strictly prefers another agent's bundle."""
    require_allocation(inst, alloc)
    for i, j, own, other in _envious_pairs(inst, alloc.bundles()):
        return CheckResult(Verdict.FAILS, EnvyWitness(i, j, *_exact(inst, own, other)))
    return CheckResult(Verdict.HOLDS)


def _adjusted_targets(inst, cls, bundles, i, j):
    """Adjusted values of j's bundle for i, per single-item adjustment.

    Yields (item, side, scaled adjusted value) for removing each of j's
    goods and for copying each of i's chores onto j's bundle, in ascending
    item order.
    """
    removable = bundles[j] & cls.goods[i]
    copyable = bundles[i] & cls.chores[i]
    for item in range(inst.m):
        bit = 1 << item
        if removable & bit:
            yield item, GOOD_REMOVAL, scaled_value(inst, i, bundles[j] & ~bit)
        elif copyable & bit:
            yield item, CHORE_COPY, scaled_value(inst, i, bundles[j] | bit)


def check_EFX(inst: Instance, alloc: Allocation) -> CheckResult:
    """Envy-freeness up to any item, in the mixed goods-and-chores sense.

    Every envious pair must survive every allowed single-item adjustment:
    removing any good from the envied bundle, and copying any owned chore
    onto it. An envious pair with no adjustment available fails.
    """
    require_allocation(inst, alloc)
    cls = classify_items(inst)
    bundles = alloc.bundles()
    for i, j, own, other in _envious_pairs(inst, bundles):
        vacuous = True
        for item, side, adjusted in _adjusted_targets(inst, cls, bundles, i, j):
            vacuous = False
            if own < adjusted:
                witness = EfxWitness(i, j, item, side, *_exact(inst, own, adjusted))
                return CheckResult(Verdict.FAILS, witness)
        if vacuous:
            witness = EfxWitness(i, j, None, NO_ADJUSTMENT, *_exact(inst, own, other))
            return CheckResult(Verdict.FAILS, witness)
    return CheckResult(Verdict.HOLDS)


def check_EF1(inst: Instance, alloc: Allocation) -> CheckResult:
    """Envy-freeness up to one item: for every envious pair some single
    adjustment (one good removed from the envied bundle, or one owned
    chore copied onto it) must cancel the envy."""
    require_allocation(inst, alloc)
    cls = classify_items(inst)
    bundles = alloc.bundles()
    for i, j, own, other in _envious_pairs(inst, bundles):
        best = min(
            (adjusted for _, _, adjusted in _adjusted_targets(inst, cls, bundles, i, j)),
            default=None,
        )
        if best is None or own < best:
            return CheckResult(Verdict.FAILS, Ef1Witness(i, j, *_exact(inst, own, other, best)))
    return CheckResult(Verdict.HOLDS)


def check_PROP(inst: Instance, alloc: Allocation) -> CheckResult:
    """Proportionality: every agent values her bundle at least at
    v_i(M) / n."""
    require_allocation(inst, alloc)
    bundles = alloc.bundles()
    for i in range(inst.agents):
        total = scaled_value(inst, i, inst.full_mask)
        own = scaled_value(inst, i, bundles[i])
        if own * inst.agents < total:
            own, total = _exact(inst, own, total)
            return CheckResult(Verdict.FAILS, PropWitness(i, own, total / inst.agents))
    return CheckResult(Verdict.HOLDS)


def check_PROP1(inst: Instance, alloc: Allocation) -> CheckResult:
    """Proportionality up to one item: each agent must reach her
    proportional share as allocated, after adding one unowned item, or
    after removing one owned item. The added item may be any unowned
    item; the quantifier is not restricted to goods."""
    require_allocation(inst, alloc)
    bundles = alloc.bundles()
    for i in range(inst.agents):
        total = scaled_value(inst, i, inst.full_mask)
        mask = bundles[i]
        own = scaled_value(inst, i, mask)
        best = own
        for item in range(inst.m):
            bit = 1 << item
            adjusted = scaled_value(inst, i, mask ^ bit)
            if adjusted > best:
                best = adjusted
        if best * inst.agents < total:
            own, best, total = _exact(inst, own, best, total)
            return CheckResult(Verdict.FAILS, Prop1Witness(i, own, best, total / inst.agents))
    return CheckResult(Verdict.HOLDS)


def check_PO(inst: Instance, alloc: Allocation, max_space: int | None = None) -> CheckResult:
    """Pareto optimality by exhaustive search for an improvement.

    Scans all n^m allocations in canonical order and reports the first
    one that makes every agent weakly better off and someone strictly
    better off. Bounded by the search-space cap.
    """
    require_allocation(inst, alloc)
    n = inst.agents
    guard_search_space(n, inst.m, max_space)
    rows = AllocationRows(inst)
    base = rows.row(assignment_index(n, alloc.assignment))
    for start, chunk in rows.chunks():
        better = (chunk >= base).all(axis=1) & (chunk > base).any(axis=1)
        hits = np.flatnonzero(better)
        if len(hits):
            improvement = assignment_at(n, inst.m, start + int(hits[0]))
            return CheckResult(Verdict.FAILS, PoWitness(Allocation(n, improvement)))
    return CheckResult(Verdict.HOLDS)


_CHECKS = {
    "ef": check_EF,
    "ef1": check_EF1,
    "efx": check_EFX,
    "prop": check_PROP,
    "prop1": check_PROP1,
    "po": check_PO,
}

#: Canonical notion order used by reports and the command line.
NOTIONS = tuple(_CHECKS)


def require_notions(notions) -> None:
    """Raise ``ValueError`` on the first name that is not a notion."""
    for notion in notions:
        if notion not in _CHECKS:
            raise ValueError(f"unknown notion {notion!r}")


@dataclass(frozen=True)
class FairnessReport:
    """Verdicts for a set of notions on one allocation, in request order."""

    results: tuple[tuple[str, CheckResult], ...]

    def result(self, notion: str) -> CheckResult:
        for name, res in self.results:
            if name == notion:
                return res
        raise KeyError(notion)

    @property
    def all_hold(self) -> bool:
        return all(res.verdict is Verdict.HOLDS for _, res in self.results)

    def as_list(self, inst: Instance | None = None) -> list[dict]:
        out = []
        for name, res in self.results:
            if res.verdict is Verdict.NOT_APPLICABLE:
                holds = None
            else:
                holds = res.verdict is Verdict.HOLDS
            witness = None
            if res.witness is not None:
                witness = res.witness.as_dict(inst)
            out.append({"notion": name, "holds": holds, "witness": witness})
        return out


def audit(
    inst: Instance,
    alloc: Allocation,
    notions=NOTIONS,
    max_space: int | None = None,
) -> FairnessReport:
    """Run the requested checks and collect one verdict per notion.

    An unknown notion raises ``ValueError`` before any check runs. A check
    whose search space exceeds the cap is reported as not-applicable
    rather than aborting the whole audit.
    """
    require_allocation(inst, alloc)
    notions = tuple(notions)
    require_notions(notions)
    results = []
    for notion in notions:
        try:
            if notion == "po":
                res = _CHECKS[notion](inst, alloc, max_space)
            else:
                res = _CHECKS[notion](inst, alloc)
        except SearchSpaceTooLarge as exc:
            res = CheckResult(
                Verdict.NOT_APPLICABLE, GuardWitness(exc.size, exc.limit)
            )
        results.append((notion, res))
    return FairnessReport(tuple(results))


@dataclass(frozen=True)
class EnvyGraph:
    """Directed envy relation of an allocation: edge (u, w) means agent u
    strictly prefers agent w's bundle. Edges are sorted by (source,
    target)."""

    agents: int
    edges: tuple[tuple[int, int], ...]

    def out_neighbours(self, agent: int) -> tuple[int, ...]:
        return tuple(w for u, w in self.edges if u == agent)


def build_envy_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    require_allocation(inst, alloc)
    pairs = _envious_pairs(inst, alloc.bundles())
    return EnvyGraph(inst.agents, tuple((i, j) for i, j, _own, _other in pairs))


def _first_cycle(n: int, adjacency: list[list[int]]) -> list[int] | None:
    """First cycle met by a depth-first walk that starts from the lowest
    agent index and explores outgoing edges in ascending target order.
    Returns the cycle as an agent list, or None if the graph is acyclic."""
    color = [0] * n  # 0 unvisited, 1 on the current path, 2 done
    for start in range(n):
        if color[start] or not adjacency[start]:
            continue
        color[start] = 1
        path = [start]
        stack = [(start, iter(adjacency[start]))]
        while stack:
            _node, edge_iter = stack[-1]
            descended = False
            for target in edge_iter:
                if color[target] == 1:
                    return path[path.index(target):]
                if color[target] == 0:
                    color[target] = 1
                    path.append(target)
                    stack.append((target, iter(adjacency[target])))
                    descended = True
                    break
            if not descended:
                color[path.pop()] = 2
                stack.pop()
    return None


def eliminate_envy_cycles(inst: Instance, alloc: Allocation) -> Allocation:
    """Rotate bundles along envy cycles until the envy graph is acyclic.

    Each rotation hands every agent on the cycle the bundle she envies,
    strictly raising her value and leaving everyone else untouched, so
    the total utility strictly increases and the loop terminates. The
    result's envy graph is acyclic, hence some agent envies nobody.
    """
    require_allocation(inst, alloc)
    masks = list(alloc.bundles())
    while True:
        adjacency = [[] for _ in range(inst.agents)]
        for i, j, _own, _other in _envious_pairs(inst, masks):
            adjacency[i].append(j)
        cycle = _first_cycle(inst.agents, adjacency)
        if cycle is None:
            return Allocation.from_bundles(inst.agents, masks, inst.m)
        previous = list(masks)
        k = len(cycle)
        for idx, agent in enumerate(cycle):
            masks[agent] = previous[cycle[(idx + 1) % k]]
