"""Exception types shared across the library."""

from __future__ import annotations


class FairdivError(Exception):
    """Base class for every error raised by this library."""


class InvalidInstance(FairdivError):
    """An instance violates a structural or semantic invariant."""


class MixedMonotonicity(InvalidInstance):
    """An item raises the set value on one subset and lowers it on another.

    ``raising_subset`` and ``lowering_subset`` are bitmasks of subsets not
    containing ``item`` on which the item's marginal is positive and negative
    respectively.
    """

    def __init__(self, item: int, raising_subset: int, lowering_subset: int):
        self.item = item
        self.raising_subset = raising_subset
        self.lowering_subset = lowering_subset
        super().__init__(
            f"item {item} has a positive marginal on subset mask "
            f"{raising_subset:#b} and a negative marginal on subset mask "
            f"{lowering_subset:#b}"
        )


class NonzeroEmptySet(InvalidInstance):
    """A general valuation table assigns a nonzero value to the empty bundle."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"empty bundle must have value 0, got {value}")


class NotChoresOnly(InvalidInstance):
    """An operation requiring a chores-only instance met a positive value."""

    def __init__(self, agent: int, item: int):
        self.agent = agent
        self.item = item
        super().__init__(f"agent {agent} values item {item} positively")


class NotAdditive(InvalidInstance):
    """An operation requiring an additive instance got a general one."""


class NotIdentical(InvalidInstance):
    """An operation requiring identical valuations got differing ones."""

    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"agent {agent} has a valuation differing from agent 0")


class ZeroTotal(InvalidInstance):
    """Rescaling is undefined for an agent whose grand-bundle value is zero."""

    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"agent {agent} values the full item set at 0")


class SignMismatch(InvalidInstance):
    """A rescaling target is zero or differs in sign from an agent's
    grand-bundle value."""

    def __init__(self, agent: int, total, target):
        self.agent = agent
        self.total = total
        self.target = target
        super().__init__(
            f"agent {agent} values the full item set at {total}, which cannot "
            f"be rescaled to {target}"
        )


class InvalidAllocation(FairdivError):
    """An allocation is not a partition of the instance's items."""


class SearchSpaceTooLarge(FairdivError):
    """An exhaustive operation would exceed the configured search-space cap."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"search space has {size} allocations, cap is {limit}")


class FixtureMismatch(FairdivError):
    """A built-in fixture no longer reproduces its pinned behaviour."""

    def __init__(self, name: str, diff: str):
        self.name = name
        self.diff = diff
        super().__init__(f"fixture {name!r} diverged:\n{diff}")
