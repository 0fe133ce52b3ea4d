"""Nash-welfare baselines for chores, on top of the aversion view.

Both solvers work on chores-only additive instances and score allocations
through each agent's aversion u_i = -v_i:

* modified Nash welfare multiplies the factors u_i(M) - u_i(A_i), the
  aversion each agent is spared;
* constrained Nash welfare restricts attention to Pareto-optimal
  allocations and multiplies the factors u_i(A_i) there.

Scores handle zero factors lexicographically: more nonzero factors beat
any product, and the product of an empty factor set is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .enumeration import (
    AllocationRows,
    assignment_at,
    distinct_rows,
    guard_search_space,
    lex_argmax,
    lex_max,
    value_scale,
)
from .errors import NotAdditive, NotChoresOnly
from .model import (
    AdditiveValuation,
    Allocation,
    Instance,
    SolveResult,
    require_allocation,
    value,
)


@dataclass(frozen=True, order=True)
class WelfareScore:
    """Degenerate-safe Nash product: the number of nonzero factors first,
    then the product of the nonzero factors (1 when there are none).
    Field order makes comparisons lexicographic."""

    nonzero_count: int
    product: Fraction


def _score(factors) -> WelfareScore:
    nonzero = [f for f in factors if f != 0]
    return WelfareScore(len(nonzero), Fraction(prod(nonzero, start=1)))


def _require_chores_only(inst: Instance) -> None:
    if not isinstance(inst.valuation, AdditiveValuation):
        raise NotAdditive("Nash-welfare baselines require an additive instance")
    for i, row in enumerate(inst.valuation.matrix):
        for j, entry in enumerate(row):
            if entry > 0:
                raise NotChoresOnly(i, j)


def nash_prime_factors(inst: Instance, alloc: Allocation) -> tuple[Fraction, ...]:
    """Per-agent spared aversion u_i(M) - u_i(A_i), which for chores-only
    values equals v_i(A_i) - v_i(M)."""
    _require_chores_only(inst)
    require_allocation(inst, alloc)
    return tuple(
        value(inst, i, mask) - value(inst, i, inst.full_mask)
        for i, mask in enumerate(alloc.bundles())
    )


def modified_nash_welfare(inst: Instance, alloc: Allocation) -> WelfareScore:
    """The modified Nash product over spared aversions."""
    return _score(nash_prime_factors(inst, alloc))


def _nash_columns(factors: np.ndarray, bound: int) -> list[np.ndarray]:
    """Per row: the number of nonzero factors, then their product.

    ``bound`` caps every factor's absolute value; products that it cannot
    prove below 2^63 are taken over Python integers.
    """
    if max(bound, 1) ** factors.shape[1] >= 2**63:
        factors = factors.astype(object)
    nonzero = factors != 0
    return [nonzero.sum(axis=1), np.where(nonzero, factors, 1).prod(axis=1)]


def _scaled_totals(inst: Instance) -> list[int]:
    """Each agent's value of the whole item set, under the scale of
    :class:`AllocationRows`."""
    scale = value_scale(inst)
    return [int(sum(row, Fraction(0)) * scale) for row in inst.valuation.matrix]


def mnw_prime_solve(inst: Instance, max_space: int | None = None) -> SolveResult:
    """Exhaustively maximize the modified Nash welfare.

    Ties break toward the first optimum in canonical enumeration order.
    """
    _require_chores_only(inst)
    size = guard_search_space(inst.agents, inst.m, max_space)
    n = inst.agents
    rows = AllocationRows(inst)
    totals = _scaled_totals(inst)
    # chores only: 0 <= v_i(A_i) - v_i(M) <= -v_i(M)
    bound = max(-total for total in totals)
    totals = np.array(totals, dtype=rows.dtype)
    first, _key, ties = lex_argmax(
        rows, lambda chunk: _nash_columns(chunk - totals, bound)
    )
    allocation = Allocation(n, assignment_at(n, inst.m, first))
    factors = nash_prime_factors(inst, allocation)
    return SolveResult(
        allocation=allocation,
        objective_vector=factors,
        score=_score(factors),
        tie_count=ties,
        search_space=size,
    )


def _pareto_front_mask(vectors: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows among distinct utility
    vectors.

    Rows are processed in batches of descending total. A dominator always
    has a strictly larger total, so every possible dominator of a row sits
    in the frontier accumulated from earlier batches or in the same batch
    with a strictly larger total; domination by any row, dominated or not,
    already disproves optimality, which keeps both checks one-pass.

    The frontier is stored one contiguous array per coordinate, so every
    comparison streams contiguous memory, and candidates are checked 64
    at a time, so the boolean blocks stay small enough for the cache.
    On 261,748 four-agent vectors, a row-major frontier read one strided
    column at a time took twice as long and varied twice as much between
    runs on a shared 2-core VM.
    """
    count, width = vectors.shape
    totals = vectors.sum(axis=1)
    order = np.argsort(-totals, kind="stable")
    keep = np.zeros(count, dtype=bool)
    frontier = np.empty((width, count), dtype=vectors.dtype)
    fcount = 0
    for start in range(0, count, 512):
        batch_idx = order[start : start + 512]
        batch = vectors[batch_idx]
        batch_totals = totals[batch_idx]
        alive = np.ones(len(batch_idx), dtype=bool)
        if fcount:
            front = frontier[:, :fcount]
            for s in range(0, len(batch_idx), 64):
                chunk = batch[s : s + 64]
                dominated = front[0] >= chunk[:, 0, None]
                for d in range(1, width):
                    dominated &= front[d] >= chunk[:, d, None]
                alive[s : s + 64] &= ~dominated.any(axis=1)
        if alive.any():
            rows = np.flatnonzero(alive)
            sub = batch[rows].T.copy()
            sub_totals = batch_totals[rows]
            weakly = sub[0] >= sub[0, :, None]
            for d in range(1, width):
                weakly &= sub[d] >= sub[d, :, None]
            weakly &= sub_totals[None, :] > sub_totals[:, None]
            alive[rows[np.asarray(weakly).any(axis=1)]] = False
        surviving = batch[alive]
        frontier[:, fcount : fcount + len(surviving)] = surviving.T
        fcount += len(surviving)
        keep[batch_idx[alive]] = True
    return keep


def constrained_mnw_solve(inst: Instance, max_space: int | None = None) -> SolveResult:
    """Among Pareto-optimal allocations, exhaustively maximize the Nash
    product of aversions u_i(A_i).

    An allocation is Pareto-optimal exactly when its utility vector is
    not dominated by any achievable utility vector, so the search first
    collapses the space to distinct utility vectors, then filters them to
    the Pareto frontier, and finally maximizes the score there. Ties
    break toward the first optimum in canonical enumeration order.
    """
    _require_chores_only(inst)
    size = guard_search_space(inst.agents, inst.m, max_space)
    n = inst.agents
    rows = AllocationRows(inst)
    vectors, counts, firsts = distinct_rows(rows)
    efficient = np.flatnonzero(_pareto_front_mask(vectors))
    # chores only: 0 <= -v_i(A_i) <= -v_i(M)
    bound = max(-total for total in _scaled_totals(inst))
    hits, _key = lex_max(_nash_columns(-vectors[efficient], bound))
    optima = efficient[hits]
    best_index = int(firsts[optima].min())
    ties = int(counts[optima].sum())
    allocation = Allocation(n, assignment_at(n, inst.m, best_index))
    factors = tuple(-value(inst, i, mask) for i, mask in enumerate(allocation.bundles()))
    return SolveResult(
        allocation=allocation,
        objective_vector=factors,
        score=_score(factors),
        tie_count=ties,
        search_space=size,
    )
