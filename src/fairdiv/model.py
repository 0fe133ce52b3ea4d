"""Core data model: exact values, valuations, instances and allocations.

All arithmetic is exact and no floating point enters any computation.
Both valuation kinds hold their values as integers over one positive
scale, ``scaled`` and ``scale``, compared through :func:`scaled_value`;
:func:`value` builds the ``Fraction``. Bundles are bitmasks over item
indices (bit j set means item j is in the bundle), so subset manipulation
is integer arithmetic.
"""

from __future__ import annotations

import re
import sys
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice
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
    ``ValueError``, as does an exponent past the interpreter's digit limit
    (``sys.get_int_max_str_digits()``; 0 or absent is no limit), which
    ``int()`` already applies to the digits.
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
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and abs(exp) > limit:
                raise ValueError(f"exponent of {text!r} exceeds {limit}")
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


def _digits(n: int) -> str:
    """``str(n)``, also for an integer past the interpreter's digit limit."""
    try:
        return str(n)
    except ValueError:
        return format(Decimal(n), "f")


def _decimal(shifted: int, digits: int) -> str:
    """The value ``shifted / 10^digits`` as a decimal, trailing zeros of
    the fraction (and a bare point) stripped."""
    if digits == 0:
        return _digits(shifted)
    body = _digits(abs(shifted)).rjust(digits + 1, "0")
    fraction = body[-digits:].rstrip("0")
    sign = "-" if shifted < 0 else ""
    if not fraction:
        return f"{sign}{body[:-digits]}"
    return f"{sign}{body[:-digits]}.{fraction}"


def _format_pair(num: int, den: int) -> str:
    """The one rendering rule, for a reduced num/den with den >= 1."""
    digits, rest = _decimal_digits(den)
    if rest != 1:
        return f"{_digits(num)}/{_digits(den)}"
    return _decimal(num * (10**digits // den), digits)


def format_value(x: Fraction) -> str:
    """Render a value exactly: as a finite decimal when the denominator
    allows it (only prime factors 2 and 5), otherwise as "p/q"."""
    return _format_pair(x.numerator, x.denominator)


#: Entries per step of the table reader: :func:`decode_values` keeps a
#: table of distinct values for one chunk at a time.
_DECODE_CHUNK = 8192


def _chunks(entries):
    """A sequence in consecutive :data:`_DECODE_CHUNK`-entry slices."""
    for start in range(0, len(entries), _DECODE_CHUNK):
        yield entries[start : start + _DECODE_CHUNK]


def format_table(scaled, scale: int) -> list[str]:
    """``format_value`` of each ``a / scale`` for ``a`` in ``scaled``,
    without building a ``Fraction`` per entry.

    When ``scale`` divides a power of ten, 10^d, every entry is rendered
    from the integer ``a * (10^d / scale)``; otherwise each entry is
    reduced and rendered on its own. Each distinct integer of the whole
    table is rendered once, and its entries share that one string: a
    16-item general table holds a few hundred distinct values among its
    65,536 entries.
    """
    digits, rest = _decimal_digits(scale)
    if rest != 1:
        def render(a):
            return _format_pair(a // (g := gcd(a, scale)), scale // g)
    else:
        factor = 10**digits // scale
        def render(a):
            return _decimal(a * factor, digits)
    for a in (text := dict.fromkeys(scaled)):
        text[a] = render(a)
    return list(map(text.__getitem__, scaled))


def _common_divisor(scaled, scale: int) -> int:
    """``gcd(scale, *scaled)``, folded one entry at a time and stopped at 1."""
    divisor = scale
    for a in scaled:
        if divisor == 1:
            break
        divisor = gcd(divisor, a)
    return divisor


def lowest_terms(scaled, scale: int) -> tuple[tuple[int, ...], int]:
    """Integers over a positive common denominator, divided through by
    ``gcd(scale, *scaled)``: the canonical form of both valuation kinds,
    whose scale is the lcm of the values' reduced denominators."""
    divisor = _common_divisor(scaled, scale)
    if divisor > 1:
        scaled = [a // divisor for a in scaled]
    return tuple(scaled), scale // divisor


def _over_one_scale(pairs) -> tuple[tuple[int, ...], int]:
    """(numerator, denominator) pairs as integers over one scale, in :func:`lowest_terms` form."""
    numerators, denominators = [], []
    for a, b in pairs:
        numerators.append(a)
        denominators.append(b)
    common = lcm(*set(denominators))
    return lowest_terms(tuple(a * (common // b) for a, b in zip(numerators, denominators)), common)


def decode_values(entries) -> tuple[tuple[int, ...], int]:
    """The values :func:`parse_pair` reads from ``entries``, as integers
    over one scale in :func:`lowest_terms` form.

    Each :data:`_DECODE_CHUNK`-entry chunk made only of strings is parsed
    once per distinct spelling, and its entries share the one int of their
    spelling; any other chunk is parsed entry by entry, since ``1``,
    ``True`` and ``1.0`` are equal keys but parse differently. Either way
    the first malformed entry, in entry order, raises its ``ValueError``.
    """
    entries = entries if isinstance(entries, list) else list(entries)
    decoded = []  # per chunk: ints over its own scale, and whether per distinct string
    scale = 1
    for chunk in _chunks(entries):
        strings = set(map(type, chunk)) == {str}
        ints, own = _over_one_scale(map(parse_pair, dict.fromkeys(chunk) if strings else chunk))
        decoded.append((ints, own, strings))
        scale = lcm(scale, own)
    # No gcd pass: the chunk whose own scale holds p^e of the lcm has an int p
    # does not divide, and scale // own has no p.

    def scaled():
        for chunk in _chunks(entries):
            ints, own, strings = decoded.pop(0)
            if own != scale:
                ints = [a * (scale // own) for a in ints]
            if strings:
                ints = map(dict(zip(dict.fromkeys(chunk), ints)).__getitem__, chunk)
            yield ints

    return tuple(chain.from_iterable(scaled())), scale


def _is_int(x) -> bool:
    """Whether ``x`` is an ``int`` and not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_lowest_terms(scaled, scale: int) -> None:
    if scale < 1 or _common_divisor(scaled, scale) != 1:
        raise InvalidInstance(f"scale {scale} is not positive or not reduced")


class _Record:
    """Base of fairdiv's immutable value records.

    A subclass names its fields by class annotations, after those of its
    bases; a field with a class attribute of the same name defaults to it.
    Records are built by position or keyword, then checked by
    ``__post_init__``, which may set fields with ``object.__setattr__``;
    afterwards no field can be assigned or deleted. ``vars(record)`` maps
    the field names to their values, in field order. Two records are equal
    when they are of one class and their fields are equal, and hash as the
    tuple of their fields. The repr is ``Name(field=value, ...)``. Unlike
    a frozen dataclass, defining a subclass generates no code.
    """

    #: Field names in order, and the defaults, set for each subclass.
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        fields = self.__dict__
        for name, entry in zip(names, args):
            fields[name] = entry
        if kwargs or len(args) != len(names):
            self._bind_rest(args, kwargs)
        self.__post_init__()

    def _bind_rest(self, args, kwargs):
        """Set the fields after the positional ones, by keyword or default,
        raising a function call's ``TypeError`` for a bad argument list."""
        names, given = self._fields, len(args)
        rest = names[given:]
        fields = self.__dict__
        used = 0
        for key in rest:
            if key in kwargs:
                fields[key] = kwargs[key]
                used += 1
            elif key in self._defaults:
                fields[key] = self._defaults[key]
        if len(fields) == len(names) >= given and used == len(kwargs):
            return
        call = f"{type(self).__qualname__}.__init__()"
        if given > len(names):
            raise TypeError(
                f"{call} takes {len(names) + 1} positional arguments but {given + 1} were given"
            )
        for key in kwargs:
            if key not in names:
                raise TypeError(f"{call} got an unexpected keyword argument {key!r}")
            if key not in rest:
                raise TypeError(f"{call} got multiple values for argument {key!r}")
        missing = [key for key in rest if key not in fields]
        raise TypeError(
            f"{call} missing {len(missing)} required argument(s): " + ", ".join(map(repr, missing))
        )

    def __post_init__(self):
        pass

    def __setattr__(self, name, entry):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class AdditiveValuation(_Record):
    """Per-agent additive valuations: agent i values item j at
    ``scaled[i][j] / scale`` and a bundle at the sum over its items.

    The form is canonical (see :func:`lowest_terms`), so equal matrices
    are equal objects. :meth:`of` builds one from exact values.
    """

    scaled: tuple[tuple[int, ...], ...]
    scale: int

    def __post_init__(self):
        if not self.scaled:
            raise InvalidInstance("additive valuation needs at least one agent row")
        if len({len(row) for row in self.scaled}) != 1:
            raise InvalidInstance("additive valuation rows differ in length")
        _require_lowest_terms(chain.from_iterable(self.scaled), self.scale)

    @classmethod
    def of(cls, rows) -> "AdditiveValuation":
        """The matrix of exact values, as :func:`parse_pair` reads them, by rows."""
        return cls.from_pairs(map(parse_pair, row) for row in rows)

    @classmethod
    def from_pairs(cls, rows) -> "AdditiveValuation":
        """The matrix of values given as (numerator, denominator) pairs,
        denominators positive, one row of pairs per agent."""
        rows = [tuple(row) for row in rows]
        scaled, scale = _over_one_scale(chain.from_iterable(rows))
        entries = iter(scaled)
        return cls(tuple(tuple(islice(entries, len(row))) for row in rows), scale)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The exact values, rebuilt as ``Fraction``s on each access."""
        return tuple(tuple(Fraction(a, self.scale) for a in row) for row in self.scaled)


class GeneralIdenticalValuation(_Record):
    """One set function shared by all agents: a dense table of 2^m exact
    values indexed by bundle bitmask, bundle S being worth
    ``scaled[S] / scale``.

    The form is canonical (see :func:`lowest_terms`), so equal tables are
    equal objects. :meth:`of` builds one from exact values.
    """

    scaled: tuple[int, ...]
    scale: int

    def __post_init__(self):
        size = len(self.scaled)
        if size == 0 or size & (size - 1):
            raise InvalidInstance(
                f"general valuation table length must be a power of two, got {size}"
            )
        _require_lowest_terms(self.scaled, self.scale)

    @classmethod
    def of(cls, values) -> "GeneralIdenticalValuation":
        """The table of exact values, as :func:`parse_pair` reads them, by
        bitmask (see :func:`decode_values`)."""
        return cls(*decode_values(values))


Valuation = Union[AdditiveValuation, GeneralIdenticalValuation]


class Instance(_Record):
    """A fair-division instance: n agents, m named items, one valuation model."""

    agents: int
    items: tuple[str, ...]
    valuation: Valuation

    def __post_init__(self):
        if not _is_int(self.agents) or self.agents < 1:
            raise InvalidInstance(f"agents must be a positive integer, got {self.agents!r}")
        if self.agents > sys.maxsize:
            # No per-agent sequence can be longer.
            raise InvalidInstance(
                f"agents must be at most {sys.maxsize}, got {_digits(self.agents)}"
            )
        if not isinstance(self.items, tuple) or not all(isinstance(x, str) for x in self.items):
            raise InvalidInstance("items must be a tuple of strings")
        if len(set(self.items)) != len(self.items):
            raise InvalidInstance("item names must be unique")
        if isinstance(self.valuation, AdditiveValuation):
            rows = self.valuation.scaled
            if (len(rows), len(rows[0])) != (self.agents, len(self.items)):
                raise InvalidInstance(
                    f"expected a {self.agents} x {len(self.items)} value matrix, "
                    f"got {len(rows)} x {len(rows[0])}"
                )
        else:
            if len(self.valuation.scaled) != 1 << len(self.items):
                raise InvalidInstance(
                    f"expected a table of {1 << len(self.items)} values, "
                    f"got {len(self.valuation.scaled)}"
                )

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


class ItemClassification(_Record):
    """Per-agent split of items into goods and chores, as bitmasks.

    For every agent the two masks are disjoint and cover all items.
    Items that never change any bundle's value count as goods.
    """

    goods: tuple[Bundle, ...]
    chores: tuple[Bundle, ...]


class Allocation(_Record):
    """A complete partition of the items: ``assignment[j]`` is the agent
    receiving item j. Every item is assigned to exactly one agent."""

    agents: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        if not _is_int(self.agents):
            raise InvalidAllocation(f"agents must be an integer, got {self.agents!r}")
        if not isinstance(self.assignment, tuple):
            raise InvalidAllocation(f"assignment must be a tuple, got {self.assignment!r}")
        for j, agent in enumerate(self.assignment):
            if not _is_int(agent) or not 0 <= agent < self.agents:
                raise InvalidAllocation(
                    f"item {j} assigned to agent {agent!r}, valid range is "
                    f"0..{self.agents - 1}"
                )

    def bundles(self) -> tuple[Bundle, ...]:
        """Per-agent bundle bitmasks."""
        masks = [0] * self.agents
        for j, agent in enumerate(self.assignment):
            masks[agent] |= 1 << j
        return tuple(masks)

    @classmethod
    def from_bundles(cls, agents: int, masks, m: int) -> "Allocation":
        """Build an allocation from per-agent bitmasks; they must partition
        the m items, one mask per agent."""
        if len(masks) != agents:
            raise InvalidAllocation(f"{len(masks)} bundles for {agents} agents")
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


class SolveResult(_Record):
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


def scaled_table(valuation: GeneralIdenticalValuation) -> np.ndarray:
    """A general table's integers as an array indexed by bundle bitmask.

    Integer order on the array is exact order on the values. It is int64
    when every entry lies strictly between -2^63 and 2^63, and otherwise a
    ``dtype=object`` array of Python integers.
    """
    scaled = valuation.scaled
    try:
        array = np.fromiter(scaled, np.int64, len(scaled))
        if array.min() > np.iinfo(np.int64).min:
            return array
    except OverflowError:
        pass
    return np.fromiter(scaled, object, len(scaled))


def _first_subset(hits: np.ndarray, item: int) -> Bundle | None:
    """The subset behind the first hit of a marginal comparison, or None.

    Hit p is the p-th subset without ``item`` in ascending order; putting
    a zero bit at position ``item`` back into p gives its bitmask.
    """
    p = int(hits.argmax())
    if not hits.flat[p]:
        return None
    return ((p >> item) << (item + 1)) | (p & ((1 << item) - 1))


def validate_instance(inst: Instance) -> Instance:
    """Check the semantic invariants of an instance and return it.

    Additive instances are valid by construction. A general valuation must
    give the empty bundle value 0, or :class:`NonzeroEmptySet` is raised,
    and be item-wise monotone: :func:`classify_items`, run here on a
    one-agent view (all agents share the split, so nothing is built per
    agent), raises :class:`MixedMonotonicity` otherwise.
    """
    if isinstance(inst.valuation, AdditiveValuation):
        return inst
    if inst.valuation.scaled[0] != 0:
        raise NonzeroEmptySet(value(inst, 0, 0))
    classify_items(Instance(1, inst.items, inst.valuation))
    return inst


def classify_items(inst: Instance) -> ItemClassification:
    """Split items into goods and chores for each agent.

    Additive: item j is a good for agent i iff v_i(j) >= 0 (zero-valued
    items count as goods). General identical: the split is shared by all
    agents, and the table must be item-wise monotone, each item's marginal
    keeping one sign over all subsets. Item j is a good iff none of its
    marginals is negative; :class:`MixedMonotonicity` names the lowest
    item with marginals of both signs and the smallest subset bitmasks on
    which its marginal is positive and negative.

    Each marginal is compared once on :func:`scaled_table`, viewed as
    (-1, 2, 2^j): every subset without j (slot 0) sits next to the same
    subset with j (slot 1), both in ascending order. Comparing instead of
    subtracting keeps int64 entries from overflowing.
    """
    if isinstance(inst.valuation, AdditiveValuation):
        goods = []
        for row in inst.valuation.scaled:
            mask = 0
            for j, entry in enumerate(row):
                if entry >= 0:
                    mask |= 1 << j
            goods.append(mask)
    else:
        scaled = scaled_table(inst.valuation)
        shared = 0
        for j in range(inst.m):
            pairs = scaled.reshape(-1, 2, 1 << j)
            without, with_j = pairs[:, 0], pairs[:, 1]
            lowering = _first_subset(with_j < without, j)
            if lowering is None:
                shared |= 1 << j
            elif (raising := _first_subset(with_j > without, j)) is not None:
                raise MixedMonotonicity(j, raising, lowering)
        goods = [shared] * inst.agents
    full = inst.full_mask
    return ItemClassification(
        goods=tuple(goods), chores=tuple(full & ~g for g in goods)
    )


def scaled_value(inst: Instance, agent: int, bundle: Bundle) -> int:
    """A bundle's (bitmask's) value to an agent times the valuation's scale."""
    if isinstance(inst.valuation, GeneralIdenticalValuation):
        return inst.valuation.scaled[bundle]
    row = inst.valuation.scaled[agent]
    total = 0
    rest = bundle
    while rest:
        j = (rest & -rest).bit_length() - 1
        total += row[j]
        rest &= rest - 1
    return total


def value(inst: Instance, agent: int, bundle: Bundle) -> Fraction:
    """Exact value of a bundle (bitmask) to an agent, refusing an agent or
    bundle that is not an ``int`` (a ``bool`` is not one), an agent outside
    0..n-1 or a bundle outside 0..2^m-1 (:class:`InvalidAllocation`)."""
    ints = _is_int(agent) and _is_int(bundle)
    if not (ints and 0 <= agent < inst.agents and 0 <= bundle <= inst.full_mask):
        raise InvalidAllocation(f"agent {agent} or bundle {bundle} out of range")
    return Fraction(scaled_value(inst, agent, bundle), inst.valuation.scale)


def rescale_common_total(inst: Instance, total) -> Instance:
    """Scale each agent's additive values so every agent values the full
    item set at exactly ``total`` (anything :func:`parse_pair` reads).

    Each row is multiplied by total / v_i(M), which preserves every
    within-agent bundle comparison; as the valuation's scale cancels,
    entry a_ij becomes a_ij * total / (a_i1 + ... + a_im). Requires
    ``total`` and every v_i(M) to be nonzero and of the same sign.
    """
    if not isinstance(inst.valuation, AdditiveValuation):
        raise NotAdditive("rescaling requires an additive instance")
    num, den = parse_pair(total)
    rows = []
    for i, row in enumerate(inst.valuation.scaled):
        row_total = sum(row)
        if row_total == 0:
            raise ZeroTotal(i)
        if num == 0 or (row_total > 0) != (num > 0):
            raise SignMismatch(i, Fraction(row_total, inst.valuation.scale), Fraction(num, den))
        # num and row_total share a sign: num / row_total = abs(num) / abs(row_total)
        rows.append([(a * abs(num), abs(row_total) * den) for a in row])
    return Instance(inst.agents, inst.items, AdditiveValuation.from_pairs(rows))


def require_chores_only(inst: Instance) -> None:
    """Raise :class:`NotAdditive` on a general valuation and
    :class:`NotChoresOnly` on the first positively valued (agent, item)
    pair of an additive one."""
    if not isinstance(inst.valuation, AdditiveValuation):
        raise NotAdditive("Nash welfare requires an additive instance")
    for i, row in enumerate(inst.valuation.scaled):
        for j, entry in enumerate(row):
            if entry > 0:
                raise NotChoresOnly(i, j)
