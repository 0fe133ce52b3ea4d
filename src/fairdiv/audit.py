"""Exact fairness checks with witnesses that can be re-verified.

Every check returns a :class:`CheckResult` whose witness, when the check
fails, is concrete enough to re-verify the violation directly. Witnesses
always report the lexicographically smallest violating tuple, scanning
agents, then counterpart agents, then items in ascending index order.

Conventions for mixed goods and chores, with G_i and C_i the goods and
chores of agent i from :func:`fairdiv.model.classify_items`:

* i envies j iff v_i(A_i) < v_i(A_j).
* EFX: every envious pair (i, j) must satisfy v_i(A_i) >= v_i(A_j - {g})
  for all goods g in A_j owned by j, and v_i(A_i) >= v_i(A_j + {c}) for
  all chores c in A_i. Every envious pair admits one such adjustment:
  each item is a good or a chore for i, and classify_items makes every
  marginal keep its sign, so were there none, v_i(A_i) >= v_i({}) >=
  v_i(A_j).
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

import numpy as np

from .enumeration import (
    allocation_chunks,
    assignment_at,
    contribution_matrix,
    guard_search_space,
    require_max_space,
)
from .errors import SearchSpaceTooLarge
from .model import (
    AdditiveValuation,
    Allocation,
    Instance,
    classify_items,
    format_value,
    require_allocation,
    scaled_value,
)
from .serialize import allocation_to_dict

GOOD_REMOVAL = "good-removal"
CHORE_COPY = "chore-copy"


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"


class _Witness:
    """Renders a witness dataclass field by field, in field order: exact
    values as strings, the field ``item`` by name, and an allocation as
    its bundles of item names."""

    def as_dict(self, inst: Instance) -> dict:
        out = {}
        for field in fields(self):
            entry = getattr(self, field.name)
            if isinstance(entry, Fraction):
                entry = format_value(entry)
            elif isinstance(entry, Allocation):
                entry = allocation_to_dict(inst, entry)["bundles"]
            elif field.name == "item":
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
    j's. ``adjusted`` is the value of j's adjusted bundle to i.
    """

    i: int
    j: int
    item: int
    side: str
    own: Fraction
    adjusted: Fraction


@dataclass(frozen=True)
class Ef1Witness(_Witness):
    """No single-item adjustment frees agent i of envy toward j.

    ``best_target`` is the most favourable adjusted value of j's bundle
    over all allowed adjustments.
    """

    i: int
    j: int
    own: Fraction
    other: Fraction
    best_target: Fraction


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
class PoWitness(_Witness):
    """An allocation that weakly improves everyone and strictly improves
    at least one agent."""

    improvement: Allocation


@dataclass(frozen=True)
class GuardWitness(_Witness):
    """A check was skipped because its search space exceeds the cap."""

    search_space: int
    limit: int


@dataclass(frozen=True)
class CheckResult:
    verdict: Verdict
    witness: object = None

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS


def _exact(inst: Instance, *scaled):
    """Scaled values as exact ``Fraction``s for a witness."""
    return (Fraction(a, inst.valuation.scale) for a in scaled)


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


def check_EF(inst: Instance, alloc: Allocation) -> CheckResult:
    """Envy-freeness: no agent strictly prefers another agent's bundle."""
    require_allocation(inst, alloc)
    for i, j, own, other in _envious_pairs(inst, alloc.bundles()):
        return CheckResult(Verdict.FAILS, EnvyWitness(i, j, *_exact(inst, own, other)))
    return CheckResult(Verdict.HOLDS)


def _adjusted_targets(inst: Instance, alloc: Allocation):
    """Yield (i, j, v_i(A_i), v_i(A_j), targets), values scaled, for every
    envious pair in ascending (i, j) order. ``targets`` yields (item, side,
    scaled v_i of j's adjusted bundle) for removing each of j's goods and
    copying each of i's chores onto j's bundle, in ascending item order."""
    require_allocation(inst, alloc)
    cls = classify_items(inst)
    bundles = alloc.bundles()

    def targets(i, j):
        removable = bundles[j] & cls.goods[i]
        copyable = bundles[i] & cls.chores[i]
        for item in range(inst.m):
            bit = 1 << item
            if removable & bit:
                yield item, GOOD_REMOVAL, scaled_value(inst, i, bundles[j] & ~bit)
            elif copyable & bit:
                yield item, CHORE_COPY, scaled_value(inst, i, bundles[j] | bit)

    for i, j, own, other in _envious_pairs(inst, bundles):
        yield i, j, own, other, targets(i, j)


def check_EFX(inst: Instance, alloc: Allocation) -> CheckResult:
    """Envy-freeness up to any item, in the mixed goods-and-chores sense.

    Every envious pair must survive every allowed single-item adjustment:
    removing any good from the envied bundle, and copying any owned chore
    onto it.
    """
    for i, j, own, _, targets in _adjusted_targets(inst, alloc):
        for item, side, adjusted in targets:
            if own < adjusted:
                witness = EfxWitness(i, j, item, side, *_exact(inst, own, adjusted))
                return CheckResult(Verdict.FAILS, witness)
    return CheckResult(Verdict.HOLDS)


def check_EF1(inst: Instance, alloc: Allocation) -> CheckResult:
    """Envy-freeness up to one item: for every envious pair some single
    adjustment (one good removed from the envied bundle, or one owned
    chore copied onto it) must cancel the envy."""
    for i, j, own, other, targets in _adjusted_targets(inst, alloc):
        best = min(adjusted for _, _, adjusted in targets)
        if own < best:
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
    better off. Bounded by the search-space cap. When every agent has the
    same additive row, each complete allocation's utilities sum to v(M),
    so none improves another and nothing is scanned.
    """
    require_allocation(inst, alloc)
    n = inst.agents
    guard_search_space(n, inst.m, max_space)
    if isinstance(inst.valuation, AdditiveValuation) and len(set(inst.valuation.scaled)) == 1:
        return CheckResult(Verdict.HOLDS)
    base = [scaled_value(inst, i, mask) for i, mask in enumerate(alloc.bundles())]
    for start, chunk in allocation_chunks(*contribution_matrix(inst)):
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


def require_notions(notions) -> tuple[str, ...]:
    """``notions`` as a tuple of notion names.

    Raises ``ValueError`` on a bare string, on an empty collection, and on
    the first entry that is not a string, not a notion, or a repeat of an
    earlier one.
    """
    if isinstance(notions, str):
        raise ValueError(f"notions must be a collection of names, not the string {notions!r}")
    notions = tuple(notions)
    if not notions:
        raise ValueError("no notions to check")
    for k, notion in enumerate(notions):
        if not isinstance(notion, str):
            raise ValueError(f"notion {notion!r} is not a string")
        if notion not in _CHECKS:
            raise ValueError(f"unknown notion {notion!r}")
        if notion in notions[:k]:
            raise ValueError(f"notion {notion!r} is repeated")
    return notions


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

    def as_list(self, inst: Instance) -> list[dict]:
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

    Notions that :func:`require_notions` refuses (a bare string, none at
    all, or an entry that is not a string, unknown or repeated) raise
    ``ValueError`` before any check runs, as does a ``max_space`` that
    :func:`~fairdiv.enumeration.require_max_space` refuses. A check whose
    search space exceeds the cap is reported as not-applicable rather than
    aborting the whole audit.
    """
    require_allocation(inst, alloc)
    notions = require_notions(notions)
    require_max_space(max_space)
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
