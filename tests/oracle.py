"""Reference implementations of every exhaustive operation.

Plain scalar loops over all n^m assignments in canonical order, and over
all m * 2^(m-1) marginals of a general table, on exact ``Fraction``
values. The vectorized enumeration kernel must agree with them on the
allocation, the tie count, the canonical-first tie-break and the Pareto
witness; the integer marginal pass behind ``validate_instance`` and
``classify_items`` must agree on every error, witness and item split.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from fairdiv import (
    AdditiveValuation,
    Allocation,
    ItemClassification,
    MixedMonotonicity,
    NonzeroEmptySet,
    ObjectiveSpec,
)
from fairdiv.enumeration import exact_value_tables


def general_table(valuation):
    """A general table's exact values, in bundle-bitmask order."""
    return [Fraction(entry, valuation.scale) for entry in valuation.scaled]


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
    tables = exact_value_tables(inst)
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
    tables = exact_value_tables(inst)
    totals = [tables[i][inst.full_mask] for i in range(n)]

    def score(assignment):
        masks = bundle_masks(assignment, n)
        return _nash_score([tables[i][masks[i]] - totals[i] for i in range(n)])

    return _argmax(n, inst.m, score)


def _utilities(inst):
    """Canonical index -> exact utility vector, for every assignment."""
    n = inst.agents
    tables = exact_value_tables(inst)
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
    tables = exact_value_tables(inst)
    base = tuple(tables[i][mask] for i, mask in enumerate(alloc.bundles()))
    for assignment, vector in _utilities(inst):
        if _dominates(vector, base):
            return Allocation(inst.agents, assignment)
    return None
