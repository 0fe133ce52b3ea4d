"""Reference implementations of every exhaustive operation and of the
five value checks.

Plain scalar loops over all n^m assignments in canonical order, and over
all m * 2^(m-1) marginals of a general table, on exact ``Fraction``
values. The vectorized enumeration kernel must agree with them on the
allocation, the tie count, the canonical-first tie-break and the Pareto
witness; the integer marginal pass behind ``validate_instance`` and
``classify_items`` must agree on every error, witness and item split; the
integer EF, EF1, EFX, PROP and PROP1 checks must agree on every verdict
and witness.

Every value here comes from :func:`exact_tables`, which sums the additive
matrix's ``Fraction`` entries or reads :func:`general_table`, so the
reference never shares the code under test's scale or ``value()``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from fairdiv import (
    AdditiveValuation,
    Allocation,
    CheckResult,
    Ef1Witness,
    EfxWitness,
    EnvyWitness,
    ItemClassification,
    MixedMonotonicity,
    NonzeroEmptySet,
    ObjectiveSpec,
    Prop1Witness,
    PropWitness,
    Verdict,
)
from fairdiv.audit import CHORE_COPY, GOOD_REMOVAL, NO_ADJUSTMENT


def general_table(valuation):
    """A general table's exact values, in bundle-bitmask order."""
    return [Fraction(entry, valuation.scale) for entry in valuation.scaled]


def exact_tables(inst):
    """Per-agent exact values of all 2^m bundles: sums of the additive
    matrix's entries, or the general table shared by every agent."""
    if not isinstance(inst.valuation, AdditiveValuation):
        return [general_table(inst.valuation)] * inst.agents
    return [
        [
            sum((row[j] for j in range(inst.m) if mask >> j & 1), Fraction(0))
            for mask in range(1 << inst.m)
        ]
        for row in inst.valuation.matrix
    ]


def validate_instance(inst):
    """Scan every marginal of a general table in ascending subset order."""
    if isinstance(inst.valuation, AdditiveValuation):
        return inst
    table = general_table(inst.valuation)
    if table[0] != 0:
        raise NonzeroEmptySet(table[0])
    m = inst.m
    for j in range(m):
        bit = 1 << j
        raising = None
        lowering = None
        for sub in range(1 << m):
            if sub & bit:
                continue
            marginal = table[sub | bit] - table[sub]
            if marginal > 0 and raising is None:
                raising = sub
            elif marginal < 0 and lowering is None:
                lowering = sub
            if raising is not None and lowering is not None:
                raise MixedMonotonicity(j, raising, lowering)
    return inst


def classify_items(inst):
    """Goods are items with no negative value (additive) or no negative
    marginal (general), found by scanning."""
    m = inst.m
    if isinstance(inst.valuation, AdditiveValuation):
        goods = []
        for row in inst.valuation.matrix:
            mask = 0
            for j, entry in enumerate(row):
                if entry >= 0:
                    mask |= 1 << j
            goods.append(mask)
    else:
        table = general_table(inst.valuation)
        shared = 0
        for j in range(m):
            bit = 1 << j
            good = True
            for sub in range(1 << m):
                if sub & bit:
                    continue
                if table[sub | bit] - table[sub] < 0:
                    good = False
                    break
            if good:
                shared |= bit
        goods = [shared] * inst.agents
    full = inst.full_mask
    return ItemClassification(
        goods=tuple(goods), chores=tuple(full & ~g for g in goods)
    )


def assignments(n: int, m: int):
    """All n^m assignments in canonical order."""
    return product(range(n), repeat=m)


def bundle_masks(assignment, n: int) -> list[int]:
    masks = [0] * n
    for j, agent in enumerate(assignment):
        masks[agent] |= 1 << j
    return masks


def _solver_key_fn(inst, spec):
    """Key function assignment -> sorted objective-tuple sequence."""
    n = inst.agents
    if spec.kind == ObjectiveSpec.CUSTOM:
        fn = spec.custom

        def key(assignment):
            masks = bundle_masks(assignment, n)
            return tuple(sorted(tuple(fn(inst, i, masks[i])) for i in range(n)))

        return key
    tables = exact_tables(inst)
    cls = classify_items(inst)

    def key(assignment):
        masks = bundle_masks(assignment, n)
        tuples = []
        for i in range(n):
            entry = (tables[i][masks[i]],)
            if spec.kind != ObjectiveSpec.UTILITY:
                entry += ((masks[i] & cls.goods[i]).bit_count(),)
            if spec.kind == ObjectiveSpec.UTILITY_GOODS_CHORES:
                entry += (-(masks[i] & cls.chores[i]).bit_count(),)
            tuples.append(entry)
        return tuple(sorted(tuples))

    return key


def _argmax(n, m, score):
    """(first maximizing assignment, number of maximizers)."""
    best = None
    best_assignment = None
    ties = 0
    for assignment in assignments(n, m):
        key = score(assignment)
        if best is None or key > best:
            best, best_assignment, ties = key, assignment, 1
        elif key == best:
            ties += 1
    return best_assignment, ties


def leximin(inst, spec):
    """(assignment, tie count) of the first leximin optimum."""
    return _argmax(inst.agents, inst.m, _solver_key_fn(inst, spec))


def is_leximin_optimal(inst, spec, alloc) -> bool:
    key_fn = _solver_key_fn(inst, spec)
    own = key_fn(alloc.assignment)
    return all(key_fn(a) <= own for a in assignments(inst.agents, inst.m))


def _nash_score(factors):
    nonzero = [f for f in factors if f]
    return (len(nonzero), prod(nonzero, start=Fraction(1)))


def mnw_prime(inst):
    """(assignment, tie count) of the first modified-Nash optimum."""
    n = inst.agents
    tables = exact_tables(inst)
    totals = [tables[i][inst.full_mask] for i in range(n)]

    def score(assignment):
        masks = bundle_masks(assignment, n)
        return _nash_score([tables[i][masks[i]] - totals[i] for i in range(n)])

    return _argmax(n, inst.m, score)


def _utilities(inst):
    """Canonical index -> exact utility vector, for every assignment."""
    n = inst.agents
    tables = exact_tables(inst)
    for assignment in assignments(n, inst.m):
        masks = bundle_masks(assignment, n)
        yield assignment, tuple(tables[i][masks[i]] for i in range(n))


def _dominates(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b)) and a != b


def pareto_set(inst):
    """Each Pareto-optimal utility vector -> (first assignment reaching it,
    number of assignments reaching it)."""
    first: dict[tuple, tuple] = {}
    count: dict[tuple, int] = {}
    for assignment, vector in _utilities(inst):
        first.setdefault(vector, assignment)
        count[vector] = count.get(vector, 0) + 1
    # a dominator has a strictly larger sum, so scanning by descending sum
    # meets every dominator of a vector before the vector itself
    frontier = []
    for vector in sorted(first, key=sum, reverse=True):
        if not any(_dominates(other, vector) for other in frontier):
            frontier.append(vector)
    return {vector: (first[vector], count[vector]) for vector in frontier}


def constrained_mnw(inst):
    """(assignment, tie count) of the first Nash-product optimum among
    Pareto-optimal allocations."""
    front = pareto_set(inst)
    best = max(_nash_score([-x for x in vector]) for vector in front)
    optima = [v for v in front if _nash_score([-x for x in v]) == best]
    return min(front[v][0] for v in optima), sum(front[v][1] for v in optima)


def po_witness(inst, alloc):
    """The canonical-first Pareto improvement, or None."""
    tables = exact_tables(inst)
    base = tuple(tables[i][mask] for i, mask in enumerate(alloc.bundles()))
    for assignment, vector in _utilities(inst):
        if _dominates(vector, base):
            return Allocation(inst.agents, assignment)
    return None


# ------------------------------------------------------------ value checks
# The conventions of fairdiv.audit's module docstring, one scan each:
# agents, then counterpart agents, then items, in ascending order.


def _envious(inst, tables, masks):
    """(i, j, v_i(A_i), v_i(A_j)) for every envious pair, in order."""
    return [
        (i, j, tables[i][masks[i]], tables[i][masks[j]])
        for i in range(inst.agents)
        for j in range(inst.agents)
        if j != i and tables[i][masks[i]] < tables[i][masks[j]]
    ]


def _adjustments(inst, tables, masks, i, j):
    """(item, side, v_i of j's adjusted bundle) for removing each of j's
    goods and copying each of i's chores, goods and chores as i sees them."""
    cls = classify_items(inst)
    out = []
    for item in range(inst.m):
        bit = 1 << item
        if masks[j] & bit and cls.goods[i] & bit:
            out.append((item, GOOD_REMOVAL, tables[i][masks[j] & ~bit]))
        elif masks[i] & bit and cls.chores[i] & bit:
            out.append((item, CHORE_COPY, tables[i][masks[j] | bit]))
    return out


def check_EF(inst, alloc):
    tables, masks = exact_tables(inst), alloc.bundles()
    pairs = _envious(inst, tables, masks)
    if not pairs:
        return CheckResult(Verdict.HOLDS)
    return CheckResult(Verdict.FAILS, EnvyWitness(*pairs[0]))


def check_EFX(inst, alloc):
    tables, masks = exact_tables(inst), alloc.bundles()
    for i, j, own, other in _envious(inst, tables, masks):
        adjustments = _adjustments(inst, tables, masks, i, j)
        if not adjustments:
            return CheckResult(
                Verdict.FAILS, EfxWitness(i, j, None, NO_ADJUSTMENT, own, other)
            )
        for item, side, adjusted in adjustments:
            if own < adjusted:
                return CheckResult(
                    Verdict.FAILS, EfxWitness(i, j, item, side, own, adjusted)
                )
    return CheckResult(Verdict.HOLDS)


def check_EF1(inst, alloc):
    tables, masks = exact_tables(inst), alloc.bundles()
    for i, j, own, other in _envious(inst, tables, masks):
        adjusted = [value for _, _, value in _adjustments(inst, tables, masks, i, j)]
        if not any(own >= value for value in adjusted):
            best = min(adjusted) if adjusted else None
            return CheckResult(Verdict.FAILS, Ef1Witness(i, j, own, other, best))
    return CheckResult(Verdict.HOLDS)


def check_PROP(inst, alloc):
    tables, masks = exact_tables(inst), alloc.bundles()
    for i in range(inst.agents):
        share = tables[i][inst.full_mask] / inst.agents
        own = tables[i][masks[i]]
        if own < share:
            return CheckResult(Verdict.FAILS, PropWitness(i, own, share))
    return CheckResult(Verdict.HOLDS)


def check_PROP1(inst, alloc):
    tables, masks = exact_tables(inst), alloc.bundles()
    for i in range(inst.agents):
        share = tables[i][inst.full_mask] / inst.agents
        own = tables[i][masks[i]]
        added = [tables[i][masks[i] | 1 << k] for k in range(inst.m) if not masks[i] >> k & 1]
        removed = [tables[i][masks[i] & ~(1 << k)] for k in range(inst.m) if masks[i] >> k & 1]
        best = max([own, *added, *removed])
        if best < share:
            return CheckResult(Verdict.FAILS, Prop1Witness(i, own, best, share))
    return CheckResult(Verdict.HOLDS)


VALUE_CHECKS = {
    "ef": check_EF,
    "ef1": check_EF1,
    "efx": check_EFX,
    "prop": check_PROP,
    "prop1": check_PROP1,
}
