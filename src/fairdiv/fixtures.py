"""Built-in counterexample fixtures.

Each fixture pins one solver to one chores instance and one expected
document: what ``fairdiv solve`` prints for the solver's result, without
the method, plus the ``witness`` with which that allocation fails the
pinned fairness notion. :data:`FIXTURES` keeps each instance as its item
names and value strings; :func:`fixture_instance` parses them into an
:class:`Instance` on each call, so importing the module parses nothing.
:func:`run_fixture` renders the same document from a fresh solve and
check and compares it key by key; any divergence raises
:class:`FixtureMismatch` listing every key that differs, making these
instances golden tests for the whole pipeline.
"""

from __future__ import annotations

from .audit import check_EF1, check_PROP1
from .errors import FixtureMismatch
from .methods import solve_with_method
from .model import AdditiveValuation, Instance, SolveResult, _Record
from .serialize import result_to_dict

_FAILURE_CHECKS = {"ef1": check_EF1, "prop1": check_PROP1}


class FixtureSpec(_Record):
    """A fixture on an additive instance: its item names and one row of
    exact values per agent, as :func:`~fairdiv.model.parse_pair` reads
    them, the pinned solver and notion, and the pinned document."""

    name: str
    items: tuple[str, ...]
    rows: tuple[tuple, ...]
    method: str
    failure_notion: str
    expected: dict


def _spec(name: str, items: str, rows, method: str, notion: str, **expected) -> FixtureSpec:
    """A fixture, its pinned document given key by key."""
    return FixtureSpec(name, tuple(items), tuple(map(tuple, rows)), method, notion, expected)


class FixtureReport(_Record):
    """A verified fixture run. ``document`` is the solve result and witness
    as rendered for the comparison with the pinned document."""

    name: str
    method: str
    result: SolveResult
    failure_notion: str
    document: dict

    def as_dict(self) -> dict:
        doc = self.document
        return {
            "name": self.name,
            "method": self.method,
            "allocation": doc["allocation"],
            "tie_count": doc["tie_count"],
            "search_space": doc["search_space"],
            "fails": self.failure_notion,
            "witness": doc["witness"],
        }


_LIGHT = (
    ("-0.1", "-0.2", "-0.2", "-0.2"),
    ("-0.2", "-0.1", "-0.2", "-0.2"),
    ("-0.2", "-0.2", "-0.1", "-0.2"),
    ("-0.2", "-0.2", "-0.2", "-0.1"),
)

FIXTURES: dict[str, FixtureSpec] = {
    spec.name: spec
    for spec in (
        # Five agents, seven chores. Agent 1's mild chores a, b, c are
        # severe for everyone else; each row totals -55. The leximin
        # allocation fails PROP1: agent 1 stays below -11 even after its
        # best removal.
        _spec(
            "table1",
            "abcdefg",
            [(-6, -6, -6, -9, -9, -9, -10)] + [("-18.1",) * 3 + row for row in _LIGHT],
            "leximin",
            "prop1",
            allocation={"bundles": [["a", "b", "c"], ["d"], ["e"], ["f"], ["g"]]},
            objective_vector=[["-18"], ["-0.1"], ["-0.1"], ["-0.1"], ["-0.1"]],
            score=None,
            tie_count=1,
            search_space=78125,
            witness={"agent": 0, "value": "-18", "best_adjusted": "-12", "threshold": "-11"},
        ),
        # Three agents, five chores. The modified-Nash optimum spares agent
        # 1 the severe chores d, e but still fails PROP1 at agent 1.
        _spec(
            "mnw",
            "abcde",
            [(-6, -6, -6, -7, -8), (-10, -10, -10, -1, -2), (-10, -10, -10, -2, -1)],
            "mnw-prime",
            "prop1",
            allocation={"bundles": [["a", "b", "c"], ["d"], ["e"]]},
            objective_vector=["15", "32", "32"],
            score={"nonzero_count": 3, "product": "15360"},
            tie_count=1,
            search_space=243,
            witness={"agent": 0, "value": "-18", "best_adjusted": "-12", "threshold": "-11"},
        ),
        # Three agents, five chores. The constrained-Nash optimum fails
        # EF1: agent 1 envies agent 2 even after any single adjustment.
        _spec(
            "mnw2",
            "abcde",
            [(-2, -3, -3, -3, -9), (-2, -3, -9, -2, -4), (-1, -1, -1, -5, -12)],
            "mnw-constrained",
            "ef1",
            allocation={"bundles": [["a", "b", "c"], ["d"], ["e"]]},
            objective_vector=["8", "2", "12"],
            score={"nonzero_count": 3, "product": "192"},
            tie_count=1,
            search_space=243,
            witness={"i": 0, "j": 1, "own": "-8", "other": "-3", "best_target": "-6"},
        ),
        # Five agents, seven chores. The constrained-Nash optimum fails
        # PROP1 at agent 1, whose best removal still leaves it below -10.
        _spec(
            "mnw3",
            "abcdefg",
            [
                ("-10.3", "-12.2", "-10", "-2.2", "-12.7", "-1.1", "-1.5"),
                ("-7.9", "-9.4", "-1.4", "-5.7", "-7.4", "-10.3", "-7.9"),
                ("-9.8", "-6", "-6.5", "-9.6", "-6.8", "-7.4", "-3.9"),
                ("-7.5", "-10.1", "-2.5", "-8.1", "-8", "-6.6", "-7.2"),
                ("-10.5", "-6.3", "-6.4", "-1", "-6.1", "-13.7", "-6"),
            ],
            "mnw-constrained",
            "prop1",
            allocation={"bundles": [["a", "b"], ["c", "d"], ["e"], ["f"], ["g"]]},
            objective_vector=["22.5", "7.1", "6.8", "6.6", "6"],
            score={"nonzero_count": 5, "product": "43017.48"},
            tie_count=1,
            search_space=78125,
            witness={"agent": 0, "value": "-22.5", "best_adjusted": "-10.3", "threshold": "-10"},
        ),
    )
}

FIXTURE_NAMES = tuple(FIXTURES)


def fixture_instance(name: str) -> Instance:
    """The instance of fixture ``name``, built from its values on each call."""
    spec = FIXTURES[name]
    return Instance(len(spec.rows), spec.items, AdditiveValuation.of(spec.rows))


def run_fixture(name: str, max_space: int | None = None) -> FixtureReport:
    """Re-verify one fixture end to end.

    Runs the pinned solver and checks the pinned notion on its result,
    renders both as the pinned document is written (``witness`` is None
    when the notion holds) and compares the two key by key. Raises
    :class:`FixtureMismatch` listing every key that differs.
    """
    try:
        spec = FIXTURES[name]
    except KeyError:
        raise FixtureMismatch(name, "no such fixture") from None
    inst = fixture_instance(name)
    result = solve_with_method(inst, spec.method, max_space)
    witness = _FAILURE_CHECKS[spec.failure_notion](inst, result.allocation).witness
    actual = result_to_dict(inst, result)
    actual["witness"] = None if witness is None else witness.as_dict(inst)
    diffs = [
        f"{key}:\n  expected {spec.expected.get(key)!r}\n  actual   {got!r}"
        for key, got in actual.items()
        if spec.expected.get(key) != got
    ]
    if diffs:
        raise FixtureMismatch(name, "\n".join(diffs))
    return FixtureReport(name, spec.method, result, spec.failure_notion, actual)
