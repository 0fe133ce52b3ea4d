"""The exhaustive enumeration kernel shared by the solvers and the PO check.

Canonical enumeration order: assignments are base-n counters over the item
indices, item 0 being the most significant digit. Ties in any exhaustive
argmax are broken toward the first optimum in this order, which makes
every solver deterministic.

:func:`allocation_chunks` yields all n^m allocations as integer rows with
one entry per agent, by meet in the middle. Items 0..k-1 (k = m // 2) form
the prefix half and the others the suffix half. Each half gets a block
with one row per assignment of its items, in canonical order, holding
every agent's sum of per-item integer contributions. The allocation at
canonical index h * n^(m-k) + s has the row prefix[h] + suffix[s], so
streaming ``prefix[h0:h1, None] + suffix`` chunk by chunk, each chunk a
run of whole prefixes, visits the allocations in canonical order and
keeps "first optimum wins" and every tie count. The values of a general
table are not additive; they come from one 2^m lookup, shared by every
agent: the blocks also carry bundle masks, OR-ed per agent.

Exactness: every entry is an integer under one common positive scale (the
least common multiple of all denominators), never a float. The blocks are
int64 only when :func:`contribution_matrix` proves up front that no entry
can leave int64. Each entry, and each partial sum on the way to it, is
agent i's contributions summed over some set S of items, plus
``lookup[S]`` when there is a lookup. So its magnitude is at most
B = max |lookup| + the largest row sum of |contributions|, and B < 2^63
keeps every one in int64. No consumer adds a row's n entries together;
each of them only compares such entries or stays within [-B, B]:

* leximin sorts each row and compares the columns;
* ``mnw_prime_solve`` computes ``chunk - totals``, where ``totals[i]`` is
  agent i's contribution sum over all items. For chores only, entry i
  lies in [totals[i], 0], so each factor lies in [0, B], and
  ``_nash_columns`` multiplies factors over Python integers unless their
  products stay below 2^63;
* ``check_PO`` compares rows with the allocation's own entries, which are
  such entries too;
* ``_pareto_frontier`` builds the same partial sums, item by item, and
  only sorts, merges and compares them; ``constrained_mnw_solve`` negates
  chores-only vectors into [0, B];
* the lookup add, ``rows + lookup[masks]``, is the entry itself.

Otherwise the same code runs on ``dtype=object`` arrays of Python integers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import SearchSpaceTooLarge
from .model import AdditiveValuation, Instance, _is_int, scaled_table, scaled_value, value

#: Default cap on the number of allocations an exhaustive operation may visit.
DEFAULT_MAX_SPACE = 10_000_000

#: Allocations evaluated per numpy pass. A chunk holds whole prefixes, so
#: it exceeds the budget only when the suffix block alone does. Spaces of
#: up to 3^8 allocations take one pass; larger chunks buy no speed and
#: only raise peak memory.
ROW_BUDGET = 1 << 13


def require_max_space(max_space) -> None:
    """Raise ``ValueError`` unless ``max_space`` is None (the default cap)
    or an int of at least 1: n^m >= 1, so a lower cap admits nothing."""
    if max_space is not None and not _is_int(max_space):
        raise ValueError(f"max_space must be None or an integer, got {max_space!r}")
    if max_space is not None and max_space < 1:
        raise ValueError(f"max_space must be at least 1, got {max_space}")


def guard_search_space(n: int, m: int, max_space: int | None = None) -> int:
    """Return n^m, raising :class:`SearchSpaceTooLarge` above the cap, and
    ``ValueError`` as :func:`require_max_space` does."""
    require_max_space(max_space)
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
    """The :func:`allocation_chunks` arguments of an instance: what each item
    adds to each agent's row entry, as an n x m integer matrix, and the
    2^m bundle lookup of a general table, which every agent shares (None
    if additive).

    Additive entries are ``weight`` times the scaled value plus
    ``extra[i][j]``; a general table gets ``extra`` alone and a lookup of
    ``weight`` times :func:`model.scaled_table`.
    ``extra`` (optional, n x m integers) holds leximin's goods and chores
    counts. Both arrays are int64 only when the largest possible row
    entry is below 2^63 (see the module docstring); otherwise Python
    integers.
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
        lookup = scaled_table(inst.valuation)
        bound = int(np.abs(lookup).max()) * weight
    bound += max(sum(abs(entry) for entry in row) for row in contributions)
    dtype = np.int64 if bound < 2**63 else object
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


def allocation_chunks(contributions: np.ndarray, lookup: np.ndarray | None = None):
    """Every allocation as one integer row, in canonical order.

    Entry i of an allocation's row is the sum of ``contributions[i, j]``
    over the items j in A_i, plus ``lookup[A_i]`` when a 2^m bundle
    lookup is given; see :func:`contribution_matrix`. Yields
    (canonical index of the first row, rows), covering every allocation
    once, in chunks of whole prefixes of about :data:`ROW_BUDGET` rows.
    """
    n, m = contributions.shape
    k = m // 2
    prefix, suffix = _block(contributions[:, :k]), _block(contributions[:, k:])
    if lookup is not None:
        bits = np.array([[1 << j for j in range(m)]] * n, dtype=np.int64)
        prefix_masks, suffix_masks = _block(bits[:, :k]), _block(bits[:, k:])
    width = len(suffix)
    step = max(1, ROW_BUDGET // width)
    for start in range(0, len(prefix), step):
        rows = prefix[start : start + step, None] + suffix
        if lookup is not None:
            masks = prefix_masks[start : start + step, None] | suffix_masks
            rows = rows + lookup[masks]
        yield start * width, rows.reshape(-1, n)


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


def lex_argmax(chunks, columns_of) -> tuple[int, tuple[int, ...], int]:
    """The lexicographic maximum over all allocations of the columns that
    ``columns_of`` derives from each chunk of rows, given the
    :func:`allocation_chunks` of every allocation.

    Returns (canonical index of the first maximizer, the maximum, number of
    maximizers).
    """
    best = None
    first = None
    ties = 0
    for start, chunk in chunks:
        hits, top = lex_max(columns_of(chunk))
        if best is None or top > best:
            best, first, ties = top, start + int(hits[0]), len(hits)
        elif top == best:
            ties += len(hits)
    return first, best, ties
