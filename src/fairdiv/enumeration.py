"""The exhaustive enumeration kernel shared by the solvers and the PO check.

Canonical enumeration order: assignments are base-n counters over the item
indices, item 0 being the most significant digit. Ties in any exhaustive
argmax are broken toward the first optimum in this order, which makes
every solver deterministic.

:class:`AllocationRows` evaluates all n^m allocations as integer rows with
one entry per agent, by meet in the middle. Items 0..k-1 (k = m // 2) form
the prefix half and the others the suffix half. Each half gets a block
with one row per assignment of its items, in canonical order, holding
every agent's sum of per-item integer contributions. The allocation at
canonical index h * n^(m-k) + s has the row prefix[h] + suffix[s], so
streaming ``prefix[h0:h1, None] + suffix`` chunk by chunk, each chunk a
run of whole prefixes, visits the allocations in canonical order and
keeps "first optimum wins" and every tie count. General-identical
valuations are not additive: their blocks also carry bundle masks, which
are OR-ed and looked up in the scaled 2^m value table.

Exactness: every entry is an integer under one common positive scale (the
least common multiple of all denominators), never a float. The blocks are
int64 only when a bound checked up front proves that no entry, and no sum
of a row's n entries, can overflow; otherwise the same code runs on
``dtype=object`` arrays of Python integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import SearchSpaceTooLarge
from .model import AdditiveValuation, Instance, scaled_table

#: Default cap on the number of allocations an exhaustive operation may visit.
DEFAULT_MAX_SPACE = 10_000_000

#: Allocations evaluated per numpy pass. A chunk holds whole prefixes, so
#: it exceeds the budget only when the suffix block alone does. Spaces of
#: up to 3^8 allocations take one pass; larger chunks buy no speed and
#: only raise peak memory.
ROW_BUDGET = 1 << 13

#: Row entries times the agent count stay below this in the int64 path.
INT64_LIMIT = 2**62


def search_space_size(n: int, m: int) -> int:
    return n**m


def guard_search_space(n: int, m: int, max_space: int | None = None) -> int:
    """Return n^m, raising :class:`SearchSpaceTooLarge` above the cap."""
    limit = DEFAULT_MAX_SPACE if max_space is None else max_space
    size = search_space_size(n, m)
    if size > limit:
        raise SearchSpaceTooLarge(size, limit)
    return size


def assignment_at(n: int, m: int, index: int) -> tuple[int, ...]:
    """The assignment at a given position of the canonical enumeration."""
    digits = [0] * m
    for j in range(m - 1, -1, -1):
        index, digits[j] = divmod(index, n)
    return tuple(digits)


def assignment_index(n: int, assignment) -> int:
    """The position of an assignment in the canonical enumeration."""
    index = 0
    for agent in assignment:
        index = index * n + agent
    return index


@lru_cache(maxsize=32)
def exact_value_tables(inst: Instance) -> tuple[tuple[Fraction, ...], ...]:
    """Per-agent tables of all 2^m exact bundle values."""
    m = inst.m
    if isinstance(inst.valuation, AdditiveValuation):
        tables = []
        for row in inst.valuation.matrix:
            table = [Fraction(0)] * (1 << m)
            for mask in range(1, 1 << m):
                low = mask & -mask
                table[mask] = table[mask ^ low] + row[low.bit_length() - 1]
            tables.append(tuple(table))
        return tuple(tables)
    shared = tuple(inst.valuation.table)
    return tuple([shared] * inst.agents)


def value_scale(inst: Instance) -> int:
    """The least common multiple of every denominator of an additive
    instance."""
    return lcm(*{entry.denominator for row in inst.valuation.matrix for entry in row})


@lru_cache(maxsize=32)
def scaled_value_tables(inst: Instance) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer bundle-value tables under one common positive scale.

    Every exact value is multiplied by the least common multiple of all
    denominators in the instance, so comparisons between any two scaled
    values, including across agents, agree with the exact comparisons.
    Returns (tables, scale).
    """
    if isinstance(inst.valuation, AdditiveValuation):
        scale = value_scale(inst)
        tables = tuple(
            tuple(int(entry * scale) for entry in table)
            for table in exact_value_tables(inst)
        )
    else:
        lookup, scale = scaled_table(inst.valuation)
        tables = (tuple(lookup.tolist()),) * inst.agents
    return tables, scale


def _block(contributions: np.ndarray) -> np.ndarray:
    """Per-agent sums over every assignment of a run of items.

    ``contributions[i, j]`` is what item j adds to agent i's entry when i
    receives it. Row r of the result is the assignment at canonical index
    r of these items alone.
    """
    n, count = contributions.shape
    block = np.zeros((1, n), dtype=contributions.dtype)
    step = np.zeros((n, n), dtype=contributions.dtype)
    for j in range(count):
        np.fill_diagonal(step, contributions[:, j])
        block = (block[:, None, :] + step[None, :, :]).reshape(-1, n)
    return block


class AllocationRows:
    """Every allocation of an instance as one integer row, in canonical
    order.

    Entry i of an allocation's row is ``weight * v_i(A_i)`` plus the sum
    of ``extra[i][j]`` over the items j in A_i, with v_i the scaled bundle
    value of :func:`scaled_value_tables`. ``extra`` is an optional n x m
    list of integers; the leximin solvers use it for goods and chores
    counts.
    """

    def __init__(self, inst: Instance, weight: int = 1, extra=None):
        n, m = inst.agents, inst.m
        self.n = n
        if extra is None:
            extra = [[0] * m for _ in range(n)]
        if isinstance(inst.valuation, AdditiveValuation):
            scale = value_scale(inst)
            contributions = [
                [int(value * scale) * weight + add for value, add in zip(row, adds)]
                for row, adds in zip(inst.valuation.matrix, extra)
            ]
            lookup = None
            bound = 0
        else:
            contributions = extra
            lookup, _scale = scaled_table(inst.valuation)
            bound = int(np.abs(lookup).max()) * weight
        bound += max(sum(abs(entry) for entry in row) for row in contributions)
        dtype = np.int64 if n * bound < INT64_LIMIT else object
        self.dtype = dtype
        contributions = np.array(contributions, dtype=dtype).reshape(n, m)
        k = m // 2
        self.prefix = _block(contributions[:, :k])
        self.suffix = _block(contributions[:, k:])
        self.lookup = None
        if lookup is not None:
            self.lookup = lookup.astype(dtype, copy=False) * weight
            bits = np.array([[1 << j for j in range(m)]] * n, dtype=np.int64)
            self.prefix_masks = _block(bits[:, :k])
            self.suffix_masks = _block(bits[:, k:])

    def _rows(self, prefixes: slice, suffixes: slice) -> np.ndarray:
        rows = self.prefix[prefixes, None] + self.suffix[None, suffixes]
        if self.lookup is not None:
            masks = self.prefix_masks[prefixes, None] | self.suffix_masks[None, suffixes]
            rows = rows + self.lookup[masks]
        return rows.reshape(-1, self.n)

    def chunks(self):
        """Yield (canonical index of the first row, rows), covering every
        allocation once, in canonical order."""
        width = len(self.suffix)
        step = max(1, ROW_BUDGET // width)
        for start in range(0, len(self.prefix), step):
            yield start * width, self._rows(slice(start, start + step), slice(None))

    def row(self, index: int) -> np.ndarray:
        """The row of the allocation at one canonical index."""
        h, s = divmod(index, len(self.suffix))
        return self._rows(slice(h, h + 1), slice(s, s + 1))[0]


def lex_max(columns) -> tuple[np.ndarray, tuple[int, ...]]:
    """Positions, ascending, of the rows that reach the lexicographic
    maximum of the given equal-length columns, and that maximum."""
    hits = np.arange(len(columns[0]))
    top = []
    for column in columns:
        values = column[hits]
        best = values.max()
        hits = hits[values == best]
        top.append(int(best))
    return hits, tuple(top)


def lex_argmax(rows: AllocationRows, columns_of) -> tuple[int, tuple[int, ...], int]:
    """The lexicographic maximum over all allocations of the columns that
    ``columns_of`` derives from each chunk of rows.

    Returns (canonical index of the first maximizer, the maximum, number of
    maximizers).
    """
    best = None
    first = None
    ties = 0
    for start, chunk in rows.chunks():
        hits, top = lex_max(columns_of(chunk))
        if best is None or top > best:
            best, first, ties = top, start + int(hits[0]), len(hits)
        elif top == best:
            ties += len(hits)
    return first, best, ties


def _groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable lexicographic sort order of the rows, and the positions
    in that order where each run of equal rows starts."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(starts)


def distinct_rows(rows: AllocationRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows over all allocations, in order of first
    occurrence, with how many allocations share each one and the
    canonical index of the first."""
    vectors, counts, firsts = [], [], []
    for start, chunk in rows.chunks():
        order, starts = _groups(chunk)
        vectors.append(chunk[order[starts]])
        counts.append(np.diff(starts, append=len(chunk)))
        firsts.append(start + order[starts])
    vectors = np.concatenate(vectors)
    counts = np.concatenate(counts)
    firsts = np.concatenate(firsts)
    # chunks are in canonical order and the sort is stable, so each run
    # starts at its vector's earliest occurrence
    order, starts = _groups(vectors)
    counts = np.add.reduceat(counts[order], starts)
    firsts = firsts[order[starts]]
    vectors = vectors[order[starts]]
    by_first = np.argsort(firsts)
    return vectors[by_first], counts[by_first], firsts[by_first]
