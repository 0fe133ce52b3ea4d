"""Nash-welfare baselines for chores.

Both solvers work on chores-only additive instances and score allocations
through each agent's aversion u_i = -v_i:

* modified Nash welfare multiplies the factors u_i(M) - u_i(A_i), the
  aversion each agent is spared;
* constrained Nash welfare restricts attention to Pareto-optimal
  allocations and multiplies the factors u_i(A_i) there. It builds the
  Pareto frontier one item at a time instead of visiting all n^m
  allocations.

Scores handle zero factors lexicographically: more nonzero factors beat
any product, and the product of an empty factor set is 1.
"""

from __future__ import annotations

from functools import total_ordering
from fractions import Fraction
from math import prod

import numpy as np

from .enumeration import (
    _extend,
    allocation_chunks,
    assignment_at,
    contribution_matrix,
    guard_search_space,
    lex_argmax,
    lex_max,
)
from .model import (
    Allocation,
    Instance,
    SolveResult,
    _Record,
    require_allocation,
    require_chores_only,
    scaled_value,
    value,
)


@total_ordering
class WelfareScore(_Record):
    """Degenerate-safe Nash product: the number of nonzero factors first,
    then the product of the nonzero factors (1 when there are none).
    Scores compare lexicographically in that order."""

    nonzero_count: int
    product: Fraction

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nonzero_count, self.product) < (other.nonzero_count, other.product)


def _score(factors) -> WelfareScore:
    nonzero = [f for f in factors if f != 0]
    return WelfareScore(len(nonzero), Fraction(prod(nonzero, start=1)))


def nash_prime_factors(inst: Instance, alloc: Allocation) -> tuple[Fraction, ...]:
    """Per-agent spared aversion u_i(M) - u_i(A_i), which for chores-only
    values equals v_i(A_i) - v_i(M)."""
    require_chores_only(inst)
    require_allocation(inst, alloc)
    scale = inst.valuation.scale
    return tuple(
        Fraction(scaled_value(inst, i, mask) - scaled_value(inst, i, inst.full_mask), scale)
        for i, mask in enumerate(alloc.bundles())
    )


def modified_nash_welfare(inst: Instance, alloc: Allocation) -> WelfareScore:
    """The modified Nash product over spared aversions."""
    return _score(nash_prime_factors(inst, alloc))


def _nash_columns(factors: np.ndarray) -> list[np.ndarray]:
    """Per row of nonnegative factors: the number of nonzero factors, then
    their product, over Python integers unless the largest factor proves
    every product below 2^63."""
    if max(int(factors.max()), 1) ** factors.shape[1] >= 2**63:
        factors = factors.astype(object)
    nonzero = factors != 0
    return [nonzero.sum(axis=1), np.where(nonzero, factors, 1).prod(axis=1)]


def _nash_result(inst: Instance, first: int, ties: int, factors_of) -> SolveResult:
    """The result for the allocation at canonical index ``first``, with
    the Nash factors ``factors_of(allocation)``."""
    allocation = Allocation(inst.agents, assignment_at(inst.agents, inst.m, first))
    factors = factors_of(allocation)
    return SolveResult(allocation, factors, _score(factors), ties, inst.agents**inst.m)


def mnw_prime_solve(inst: Instance, max_space: int | None = None) -> SolveResult:
    """Exhaustively maximize the modified Nash welfare.

    Ties break toward the first optimum in canonical enumeration order.
    """
    require_chores_only(inst)
    guard_search_space(inst.agents, inst.m, max_space)
    contributions, _lookup = contribution_matrix(inst)
    # chores only: v_i(A_i) - v_i(M) >= 0
    totals = contributions.sum(axis=1)
    first, _key, ties = lex_argmax(
        allocation_chunks(contributions), lambda chunk: _nash_columns(chunk - totals)
    )
    return _nash_result(inst, first, ties, lambda alloc: nash_prime_factors(inst, alloc))


def _pareto_front_mask(vectors: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows among distinct utility
    vectors in ascending lexicographic order: in :func:`_pareto_frontier`,
    the candidate partial vectors after each item.

    Blocks of 64 rows go from the last back. A distinct row weakly
    dominated by another is lexicographically smaller, so every dominator
    of a row sits in a later block or later in its own: each block,
    appended behind the survivors so far, is compared once against all of
    them and itself, each row's compare with itself cleared. Domination
    by any row, dominated or not, already disproves optimality.

    The frontier is stored one contiguous array per coordinate, so every
    compare streams contiguous memory; on 261,748 four-agent vectors, a
    row-major frontier read one strided column at a time took twice as
    long on a shared 2-core VM.
    """
    count, width = vectors.shape
    keep = np.zeros(count, dtype=bool)
    frontier = np.empty((width, count), dtype=vectors.dtype)
    fcount = 0
    for stop in range(count, 0, -64):
        start = max(stop - 64, 0)
        size = stop - start
        block = frontier[:, fcount : fcount + size]
        block[:] = vectors[start:stop].T
        front = frontier[:, : fcount + size]
        dominated = front[0] >= block[0, :, None]
        for d in range(1, width):
            dominated &= front[d] >= block[d, :, None]
        own = np.arange(size)
        dominated[own, fcount + own] = False
        alive = ~dominated.any(axis=1)
        survivors = block[:, alive]
        frontier[:, fcount : fcount + survivors.shape[1]] = survivors
        fcount += survivors.shape[1]
        keep[start:stop] = alive
    return keep


def _pareto_frontier(contributions: np.ndarray):
    """The Pareto-optimal utility vectors of an additive instance, given
    its :func:`contribution_matrix`, with how many allocations reach each
    and the canonical index of the first.

    From the zero vector, each item in canonical order extends every kept
    vector once per agent (index h to h * n + a); equal vectors merge,
    adding their counts and keeping the smallest index, and dominated ones
    are dropped. No Pareto-optimal allocation is pruned (Nemhauser &
    Ullmann, 1969): the dominator of a prefix plus the same suffix would
    dominate the whole allocation. Counts and indices are int64 only while
    n^m < 2^63, Python integers otherwise.
    """
    n, m = contributions.shape
    index = np.int64 if n**m < 2**63 else object
    agents = np.arange(n).astype(index)
    vectors = np.zeros((1, n), dtype=contributions.dtype)
    counts, firsts = np.ones(1, dtype=index), np.zeros(1, dtype=index)
    for j in range(m):
        vectors = _extend(vectors, contributions[:, j])
        order = np.lexsort(vectors.T[::-1])
        vectors = vectors[order]
        starts = np.flatnonzero(np.r_[True, (vectors[1:] != vectors[:-1]).any(axis=1)])
        vectors = vectors[starts]
        counts = np.add.reduceat(np.repeat(counts, n)[order], starts)
        firsts = np.minimum.reduceat((firsts[:, None] * n + agents).ravel()[order], starts)
        keep = _pareto_front_mask(vectors)
        vectors, counts, firsts = vectors[keep], counts[keep], firsts[keep]
    return vectors, counts, firsts


def constrained_mnw_solve(inst: Instance, max_space: int | None = None) -> SolveResult:
    """Among Pareto-optimal allocations, maximize the Nash product of
    aversions u_i(A_i).

    An allocation is Pareto-optimal exactly when its utility vector is
    not dominated by any achievable utility vector, so the score is
    maximized over the exact frontier of :func:`_pareto_frontier`, which
    also gives the tie count. Ties break toward the first optimum in
    canonical enumeration order.
    """
    require_chores_only(inst)
    guard_search_space(inst.agents, inst.m, max_space)
    contributions, _lookup = contribution_matrix(inst)
    vectors, counts, firsts = _pareto_frontier(contributions)
    # chores only: -v_i(A_i) >= 0
    hits, _key = lex_max(_nash_columns(-vectors))
    return _nash_result(
        inst,
        int(firsts[hits].min()),
        int(counts[hits].sum()),
        lambda alloc: tuple(-value(inst, i, mask) for i, mask in enumerate(alloc.bundles())),
    )
