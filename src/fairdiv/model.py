"""Core data model: exact values, valuations, instances and allocations.

All arithmetic is exact and no floating point enters any computation.
Additive entries and bundle values are ``fractions.Fraction``s; a general
table is stored once, as integers over one positive scale. Bundles are
bitmasks over item indices (bit j set means item j is in the bundle), so
subset manipulation is integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

import numpy as np

from .errors import (
    InvalidAllocation,
    InvalidInstance,
    MixedMonotonicity,
    NonzeroEmptySet,
    NotAdditive,
    NotChoresOnly,
    SignMismatch,
    ZeroTotal,
)

#: A bundle of items, encoded as a bitmask over item indices.
Bundle = int


#: The value grammar, that of ``Fraction(str)`` on Python 3.11: an optional
#: sign, then an integer, a ratio "p/q", or a decimal with an optional
#: exponent; digits may be grouped by single underscores, and whitespace
#: may surround the whole.
_VALUE = re.compile(
    r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<num>\d*|\d+(?:_\d+)*)
    (?:
        (?:/(?P<den>\d+(?:_\d+)*))?
    |
        (?:\.(?P<decimal>\d*|\d+(?:_\d+)*))?
        (?:E(?P<exp>[-+]?\d+(?:_\d+)*))?
    )
    \s*\Z
    """,
    re.VERBOSE | re.IGNORECASE,
)


def parse_pair(text: Union[str, int, Fraction]) -> tuple[int, int]:
    """Parse an exact value into its reduced (numerator, denominator), the
    denominator positive: from a decimal string ("-18.1"), a ratio string
    ("3/7"), an integer or a ``Fraction``.

    Strings follow the grammar of ``Fraction(str)`` on Python 3.11,
    whatever the running interpreter: "-18.1" gives (-181, 10), "3/6"
    gives (1, 2), " 1_000 " gives (1000, 1) and "2.5e-3" gives (1, 400).
    Anything else, a zero denominator, a float or a bool included, raises
    ``ValueError``.
    """
    if not isinstance(text, str):
        if isinstance(text, bool):
            raise ValueError(f"not a value: {text!r}")
        if isinstance(text, (int, Fraction)):
            return text.numerator, text.denominator
        if isinstance(text, float):
            raise ValueError("refusing to parse a float; pass a string for exactness")
    match = _VALUE.match(str(text))
    if match is None:
        raise ValueError(f"not a value: {text!r}")
    sign, num, den, decimal, exp = match.groups()
    num = int(num or "0")
    if den is not None:
        den = int(den)
        if den == 0:
            raise ValueError(f"not a value: {text!r}")
    else:
        den = 1
        if decimal:
            den = 10 ** len(decimal.replace("_", ""))
            num = num * den + int(decimal)
        if exp is not None:
            exp = int(exp)
            if exp >= 0:
                num *= 10**exp
            else:
                den *= 10**-exp
    if sign == "-":
        num = -num
    divisor = gcd(num, den)
    return num // divisor, den // divisor


def parse_value(text: Union[str, int, Fraction]) -> Fraction:
    """The exact value :func:`parse_pair` reads: "-18.1" becomes -181/10."""
    return Fraction(*parse_pair(text))


def _decimal_digits(den: int) -> tuple[int, int]:
    """Split a positive denominator as 2^a * 5^b * rest; returns
    (max(a, b), rest), so that rest == 1 exactly when the denominator
    divides 10^max(a, b)."""
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives), den


def _decimal(shifted: int, digits: int) -> str:
    """The value ``shifted / 10^digits`` as a decimal, trailing zeros of
    the fraction (and a bare point) stripped."""
    if digits == 0:
        return str(shifted)
    body = str(abs(shifted)).rjust(digits + 1, "0")
    fraction = body[-digits:].rstrip("0")
    sign = "-" if shifted < 0 else ""
    if not fraction:
        return f"{sign}{body[:-digits]}"
    return f"{sign}{body[:-digits]}.{fraction}"


def _format_pair(num: int, den: int) -> str:
    """The one rendering rule, for a reduced num/den with den >= 1."""
    digits, rest = _decimal_digits(den)
    if rest != 1:
        return f"{num}/{den}"
    return _decimal(num * (10**digits // den), digits)


def format_value(x: Fraction) -> str:
    """Render a value exactly: as a finite decimal when the denominator
    allows it (only prime factors 2 and 5), otherwise as "p/q"."""
    return _format_pair(x.numerator, x.denominator)


def format_table(scaled, scale: int) -> list[str]:
    """``format_value`` of each ``a / scale`` for ``a`` in ``scaled``,
    without building a ``Fraction`` per entry.

    When ``scale`` divides a power of ten, 10^d, every entry is rendered
    from the integer ``a * (10^d / scale)``; otherwise each entry is
    reduced and rendered on its own.
    """
    digits, rest = _decimal_digits(scale)
    if rest != 1:
        return [_format_pair(a // (g := gcd(a, scale)), scale // g) for a in scaled]
    factor = 10**digits // scale
    return [_decimal(a * factor, digits) for a in scaled]


@dataclass(frozen=True)
class AdditiveValuation:
    """Per-agent additive valuations: an n x m matrix of exact values.

    The value of a bundle to agent i is the sum of agent i's entries over
    the bundle's items.
    """

    matrix: tuple[tuple[Fraction, ...], ...]

    kind = "additive"

    def __post_init__(self):
        if not self.matrix:
            raise InvalidInstance("additive valuation needs at least one agent row")
        width = len(self.matrix[0])
        for row in self.matrix:
            if len(row) != width:
                raise InvalidInstance("additive valuation rows differ in length")


@dataclass(frozen=True)
class GeneralIdenticalValuation:
    """One set function shared by all agents: a dense table of 2^m exact
    values indexed by bundle bitmask, bundle S being worth
    ``scaled[S] / scale``.

    The form is canonical: ``scale`` is the least common multiple of the
    values' reduced denominators, so ``gcd(scale, *scaled) == 1`` and equal
    tables are equal objects. :meth:`of` builds one from exact values.
    """

    scaled: tuple[int, ...]
    scale: int

    kind = "general-identical"

    def __post_init__(self):
        size = len(self.scaled)
        if size == 0 or size & (size - 1):
            raise InvalidInstance(
                f"general valuation table length must be a power of two, got {size}"
            )
        if self.scale < 1 or gcd(self.scale, *self.scaled) != 1:
            raise InvalidInstance(f"scale {self.scale} is not positive or not reduced")

    @classmethod
    def of(cls, values) -> "GeneralIdenticalValuation":
        """The table of exact values (``Fraction``s or integers) listed in
        bundle-bitmask order."""
        return cls.from_pairs((entry.numerator, entry.denominator) for entry in values)

    @classmethod
    def from_pairs(cls, pairs) -> "GeneralIdenticalValuation":
        """The table of values given as reduced (numerator, denominator)
        pairs, denominators positive, listed in bundle-bitmask order. Only
        the integers are kept while ``pairs`` is read; as each pair is
        reduced, the lcm of the denominators is the canonical scale."""
        numerators, denominators = [], []
        for a, b in pairs:
            numerators.append(a)
            denominators.append(b)
        scale = lcm(*set(denominators))
        return cls(tuple(a * (scale // b) for a, b in zip(numerators, denominators)), scale)


Valuation = Union[AdditiveValuation, GeneralIdenticalValuation]


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m named items, one valuation model."""

    agents: int
    items: tuple[str, ...]
    valuation: Valuation

    def __post_init__(self):
        if self.agents < 1:
            raise InvalidInstance("an instance needs at least one agent")
        if len(set(self.items)) != len(self.items):
            raise InvalidInstance("item names must be unique")
        if isinstance(self.valuation, AdditiveValuation):
            if len(self.valuation.matrix) != self.agents:
                raise InvalidInstance(
                    f"expected {self.agents} valuation rows, "
                    f"got {len(self.valuation.matrix)}"
                )
            if len(self.valuation.matrix[0]) != len(self.items):
                raise InvalidInstance(
                    f"expected {len(self.items)} columns, "
                    f"got {len(self.valuation.matrix[0])}"
                )
        else:
            if len(self.valuation.scaled) != 1 << len(self.items):
                raise InvalidInstance(
                    f"expected a table of {1 << len(self.items)} values, "
                    f"got {len(self.valuation.scaled)}"
                )

    @property
    def n(self) -> int:
        return self.agents

    @property
    def m(self) -> int:
        return len(self.items)

    @property
    def full_mask(self) -> Bundle:
        return (1 << len(self.items)) - 1

    def item_index(self, name: str) -> int:
        try:
            return self.items.index(name)
        except ValueError:
            raise InvalidAllocation(f"unknown item {name!r}") from None

    def bundle_of(self, names) -> Bundle:
        """Bitmask of the bundle holding the given item names."""
        mask = 0
        for name in names:
            mask |= 1 << self.item_index(name)
        return mask

    def bundle_names(self, mask: Bundle) -> tuple[str, ...]:
        """Item names of a bundle, in item-index order."""
        return tuple(self.items[j] for j in range(len(self.items)) if mask >> j & 1)


@dataclass(frozen=True)
class ItemClassification:
    """Per-agent split of items into goods and chores, as bitmasks.

    For every agent the two masks are disjoint and cover all items.
    Items that never change any bundle's value count as goods.
    """

    goods: tuple[Bundle, ...]
    chores: tuple[Bundle, ...]


@dataclass(frozen=True)
class Allocation:
    """A complete partition of the items: ``assignment[j]`` is the agent
    receiving item j. Every item is assigned to exactly one agent."""

    agents: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        for j, agent in enumerate(self.assignment):
            if not 0 <= agent < self.agents:
                raise InvalidAllocation(
                    f"item {j} assigned to agent {agent}, valid range is "
                    f"0..{self.agents - 1}"
                )

    def bundles(self) -> tuple[Bundle, ...]:
        """Per-agent bundle bitmasks."""
        masks = [0] * self.agents
        for j, agent in enumerate(self.assignment):
            masks[agent] |= 1 << j
        return tuple(masks)

    def bundle(self, agent: int) -> Bundle:
        return self.bundles()[agent]

    @classmethod
    def from_bundles(cls, agents: int, masks, m: int) -> "Allocation":
        """Build an allocation from per-agent bitmasks; they must partition
        the m items."""
        assignment = [-1] * m
        for agent, mask in enumerate(masks):
            rest = mask
            while rest:
                j = (rest & -rest).bit_length() - 1
                if j >= m:
                    raise InvalidAllocation(f"bundle mentions item {j}, m={m}")
                if assignment[j] != -1:
                    raise InvalidAllocation(f"item {j} assigned twice")
                assignment[j] = agent
                rest &= rest - 1
        if -1 in assignment:
            raise InvalidAllocation(f"item {assignment.index(-1)} unassigned")
        return cls(agents, tuple(assignment))


def require_allocation(inst: Instance, alloc: Allocation) -> None:
    """Raise :class:`InvalidAllocation` unless ``alloc`` allocates this
    instance's items among this instance's agents."""
    if alloc.agents != inst.agents:
        raise InvalidAllocation(
            f"allocation is for {alloc.agents} agents, instance has {inst.agents}"
        )
    if len(alloc.assignment) != inst.m:
        raise InvalidAllocation(
            f"allocation assigns {len(alloc.assignment)} items, instance has {inst.m}"
        )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exhaustive solve.

    ``objective_vector`` is the solver's per-position score vector (sorted
    objective tuples for leximin solvers, per-agent welfare factors for the
    Nash-welfare solvers). ``score`` carries a solver-specific aggregate
    where one exists. ``tie_count`` counts optima with the same score;
    ties are broken toward the first allocation in canonical enumeration
    order. ``search_space`` is n^m, the size of the allocation space,
    whether or not the solver visits every allocation (0 for the greedy
    method, which searches none).
    """

    allocation: Allocation
    objective_vector: tuple
    score: object
    tie_count: int
    search_space: int


def scaled_table(valuation: GeneralIdenticalValuation) -> tuple[np.ndarray, int]:
    """A general table's integers as an array, and its scale.

    Integer order on the array is exact order on the values. It is int64
    when every entry lies strictly between -2^63 and 2^63, and otherwise a
    ``dtype=object`` array of Python integers. Returns (array indexed by
    bundle bitmask, scale).
    """
    scaled = valuation.scaled
    try:
        array = np.fromiter(scaled, np.int64, len(scaled))
        if array.min() > np.iinfo(np.int64).min:
            return array, valuation.scale
    except OverflowError:
        pass
    return np.fromiter(scaled, object, len(scaled)), valuation.scale


def _first_subset(hits: np.ndarray, item: int) -> Bundle | None:
    """The subset behind the first hit of a marginal comparison, or None.

    Hit p is the p-th subset without ``item`` in ascending order; putting
    a zero bit at position ``item`` back into p gives its bitmask.
    """
    p = int(hits.argmax())
    if not hits.flat[p]:
        return None
    return ((p >> item) << (item + 1)) | (p & ((1 << item) - 1))


def _marginal_signs(valuation: GeneralIdenticalValuation):
    """For each item j in order, yield (j, the first subset on which j's
    marginal is positive, the first on which it is negative), each the
    smallest such bitmask without bit j, or None where there is none.

    One comparison per marginal on :func:`scaled_table`: viewing the table
    as (-1, 2, 2^j) puts every subset without j (slot 0) next to the same
    subset with j (slot 1), both in ascending order. Comparing instead of
    subtracting keeps int64 entries from overflowing.
    """
    scaled, _scale = scaled_table(valuation)
    m = len(scaled).bit_length() - 1
    for j in range(m):
        pairs = scaled.reshape(-1, 2, 1 << j)
        without, with_j = pairs[:, 0], pairs[:, 1]
        yield j, _first_subset(with_j > without, j), _first_subset(with_j < without, j)


def validate_instance(inst: Instance) -> Instance:
    """Check the semantic invariants of an instance and return it.

    Additive instances are valid by construction. A general valuation must
    give the empty bundle value 0 and be item-wise monotone: each item's
    marginal keeps one sign over all subsets, so every item is globally a
    good or globally a chore. Violations raise :class:`NonzeroEmptySet` or
    :class:`MixedMonotonicity`; the latter names the lowest mixed item and
    the smallest subset bitmasks on which its marginal is positive and
    negative. The marginals are compared exactly on :func:`scaled_table`
    (int64 when every scaled entry is below 2^63 in absolute value, Python
    integers otherwise), never as ``Fraction`` differences or floats.
    """
    if isinstance(inst.valuation, AdditiveValuation):
        return inst
    if inst.valuation.scaled[0] != 0:
        raise NonzeroEmptySet(value(inst, 0, 0))
    for item, raising, lowering in _marginal_signs(inst.valuation):
        if raising is not None and lowering is not None:
            raise MixedMonotonicity(item, raising, lowering)
    return inst


@lru_cache(maxsize=1)
def classify_items(inst: Instance) -> ItemClassification:
    """Split items into goods and chores for each agent.

    Additive: item j is a good for agent i iff v_i(j) >= 0 (zero-valued
    items count as goods). General identical: item j is a good iff none
    of its marginals is negative, read from the same exact integer
    comparisons as :func:`validate_instance` makes; the classification is
    shared by all agents. Only the last instance is cached: every command
    and search trial works on one at a time, and a larger cache would keep
    old instances alive.
    """
    if isinstance(inst.valuation, AdditiveValuation):
        goods = []
        for row in inst.valuation.matrix:
            mask = 0
            for j, entry in enumerate(row):
                if entry >= 0:
                    mask |= 1 << j
            goods.append(mask)
    else:
        shared = 0
        for j, _raising, lowering in _marginal_signs(inst.valuation):
            if lowering is None:
                shared |= 1 << j
        goods = [shared] * inst.agents
    full = inst.full_mask
    return ItemClassification(
        goods=tuple(goods), chores=tuple(full & ~g for g in goods)
    )


def value(inst: Instance, agent: int, bundle: Bundle) -> Fraction:
    """Exact value of a bundle (bitmask) to an agent."""
    if isinstance(inst.valuation, GeneralIdenticalValuation):
        return Fraction(inst.valuation.scaled[bundle], inst.valuation.scale)
    row = inst.valuation.matrix[agent]
    total = Fraction(0)
    rest = bundle
    while rest:
        j = (rest & -rest).bit_length() - 1
        total += row[j]
        rest &= rest - 1
    return total


def rescale_common_total(inst: Instance, total: Fraction) -> Instance:
    """Scale each agent's additive values so every agent values the full
    item set at exactly ``total``.

    Each row is multiplied by total / v_i(M), which preserves every
    within-agent bundle comparison. Requires ``total`` and every v_i(M)
    to be nonzero and of the same sign.
    """
    if not isinstance(inst.valuation, AdditiveValuation):
        raise NotAdditive("rescaling requires an additive instance")
    total = Fraction(total)
    rows = []
    for i, row in enumerate(inst.valuation.matrix):
        row_total = sum(row, Fraction(0))
        if row_total == 0:
            raise ZeroTotal(i)
        if total == 0 or (row_total > 0) != (total > 0):
            raise SignMismatch(i, row_total, total)
        factor = total / row_total
        rows.append(tuple(entry * factor for entry in row))
    return Instance(
        agents=inst.agents,
        items=inst.items,
        valuation=AdditiveValuation(tuple(rows)),
    )


def aversion_view(inst: Instance) -> Instance:
    """Negate a chores-only additive instance into aversion form.

    The result holds each agent's aversions u_i = |v_i| = -v_i, all
    nonnegative. Raises :class:`NotAdditive` on a general valuation and
    :class:`NotChoresOnly` on the first positively valued (agent, item)
    pair.
    """
    if not isinstance(inst.valuation, AdditiveValuation):
        raise NotAdditive("the aversion view requires an additive instance")
    for i, row in enumerate(inst.valuation.matrix):
        for j, entry in enumerate(row):
            if entry > 0:
                raise NotChoresOnly(i, j)
    rows = tuple(tuple(-entry for entry in row) for row in inst.valuation.matrix)
    return Instance(
        agents=inst.agents,
        items=inst.items,
        valuation=AdditiveValuation(rows),
    )
