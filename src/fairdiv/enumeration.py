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
int64 only when a bound that :func:`contribution_matrix` checks up front
proves that no entry, and no sum of a row's n entries, can overflow;
otherwise the same code runs on ``dtype=object`` arrays of Python integers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import SearchSpaceTooLarge
from .model import AdditiveValuation, Instance, scaled_table, scaled_value, value

#: Default cap on the number of allocations an exhaustive operation may visit.
DEFAULT_MAX_SPACE = 10_000_000

#: Allocations evaluated per numpy pass. A chunk holds whole prefixes, so
#: it exceeds the budget only when the suffix block alone does. Spaces of
#: up to 3^8 allocations take one pass; larger chunks buy no speed and
#: only raise peak memory.
ROW_BUDGET = 1 << 13

#: Row entries times the agent count stay below this in the int64 path.
INT64_LIMIT = 2**62


def guard_search_space(n: int, m: int, max_space: int | None = None) -> int:
    """Return n^m, raising :class:`SearchSpaceTooLarge` above the cap."""
    limit = DEFAULT_MAX_SPACE if max_space is None else max_space
    size = n**m
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


# No code in fairdiv calls this or :func:`scaled_value_tables`. Both stay
# only because perfbench/spans.py binds them by name; delete them with that.
def exact_value_tables(inst: Instance) -> tuple[tuple[Fraction, ...], ...]:
    """Per-agent tables of all 2^m exact bundle values."""
    masks = range(1 << inst.m)
    return tuple(tuple(value(inst, i, mask) for mask in masks) for i in range(inst.agents))


def scaled_value_tables(inst: Instance) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(Per-agent tables of all 2^m :func:`model.scaled_value` integers, scale)."""
    masks = range(1 << inst.m)
    tables = tuple(tuple(scaled_value(inst, i, s) for s in masks) for i in range(inst.agents))
    return tables, inst.valuation.scale


def contribution_matrix(
    inst: Instance, weight: int = 1, extra=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """What each item adds to each agent's row entry, as an n x m integer
    matrix, and the bundle lookup of a general table (None if additive).

    Additive entries are ``weight`` times the scaled value plus
    ``extra[i][j]``; a general table gets ``extra`` alone and a lookup of
    ``weight`` times :func:`model.scaled_table`. ``extra`` (optional, n x m
    integers) carries the leximin solvers' goods and chores counts. Both
    arrays are int64 only when n times the largest possible row entry is
    below :data:`INT64_LIMIT`, and hold Python integers otherwise.
    """
    n, m = inst.agents, inst.m
    if extra is None:
        extra = [[0] * m for _ in range(n)]
    if isinstance(inst.valuation, AdditiveValuation):
        contributions = [
            [entry * weight + add for entry, add in zip(row, adds)]
            for row, adds in zip(inst.valuation.scaled, extra)
        ]
        lookup = None
        bound = 0
    else:
        contributions = extra
        lookup, _scale = scaled_table(inst.valuation)
        bound = int(np.abs(lookup).max()) * weight
    bound += max(sum(abs(entry) for entry in row) for row in contributions)
    dtype = np.int64 if n * bound < INT64_LIMIT else object
    contributions = np.array(contributions, dtype=dtype).reshape(n, m)
    if lookup is not None:
        lookup = lookup.astype(dtype, copy=False) * weight
    return contributions, lookup


def _extend(block: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Every row of ``block`` extended by one more item, given to each
    agent in turn: row h becomes rows h * n + a, with ``column[a]`` added
    to agent a's entry."""
    return (block[:, None, :] + np.diag(column)).reshape(-1, len(column))


def _block(contributions: np.ndarray) -> np.ndarray:
    """Per-agent sums over every assignment of a run of items.

    ``contributions[i, j]`` is what item j adds to agent i's entry when i
    receives it. Row r of the result is the assignment at canonical index
    r of these items alone.
    """
    n, count = contributions.shape
    block = np.zeros((1, n), dtype=contributions.dtype)
    for j in range(count):
        block = _extend(block, contributions[:, j])
    return block


class AllocationRows:
    """Every allocation of an instance as one integer row, in canonical
    order.

    Entry i of an allocation's row is ``weight * v_i(A_i)`` plus the sum
    of ``extra[i][j]`` over the items j in A_i, with v_i the bundle value
    of :func:`model.scaled_value`; see :func:`contribution_matrix`.
    """

    def __init__(self, inst: Instance, weight: int = 1, extra=None):
        n, m = inst.agents, inst.m
        self.n = n
        self.contributions, self.lookup = contribution_matrix(inst, weight, extra)
        k = m // 2
        self.prefix = _block(self.contributions[:, :k])
        self.suffix = _block(self.contributions[:, k:])
        if self.lookup is not None:
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
