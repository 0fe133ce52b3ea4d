"""Built-in counterexample fixtures.

Each fixture pins one solver to one chores instance: the solver must
return the pinned allocation with the pinned scores, and that allocation
must fail the pinned fairness notion with the pinned witness. Any
divergence raises :class:`FixtureMismatch` with a full diff, making these
instances golden tests for the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .audit import (
    CheckResult,
    Ef1Witness,
    Prop1Witness,
    Verdict,
    check_EF1,
    check_PROP1,
)
from .errors import FixtureMismatch
from .methods import solve_with_method
from .model import AdditiveValuation, Allocation, Instance, SolveResult
from .serialize import allocation_to_dict, objective_vector_to_list
from .welfare import WelfareScore

_FAILURE_CHECKS = {"ef1": check_EF1, "prop1": check_PROP1}


def _chores(items: str, rows) -> Instance:
    """An additive instance with one agent per row of exact values."""
    return Instance(
        len(rows),
        tuple(items),
        AdditiveValuation.of(rows),
    )


@dataclass(frozen=True)
class FixtureSpec:
    name: str
    instance: Instance
    method: str
    expected_assignment: tuple[int, ...]
    expected_vector: tuple
    expected_score: object
    failure_notion: str
    expected_witness: object


@dataclass(frozen=True)
class FixtureReport:
    """A verified fixture run."""

    name: str
    method: str
    allocation: Allocation
    result: SolveResult
    failure_notion: str
    failure_witness: object

    def as_dict(self) -> dict:
        inst = FIXTURES[self.name].instance
        return {
            "name": self.name,
            "method": self.method,
            "allocation": allocation_to_dict(inst, self.allocation),
            "tie_count": self.result.tie_count,
            "search_space": self.result.search_space,
            "fails": self.failure_notion,
            "witness": self.failure_witness.as_dict(inst),
        }


def _table1() -> FixtureSpec:
    # Five agents, seven chores. Agent 1's mild chores a, b, c are severe
    # for everyone else; each row totals -55. The leximin allocation
    # fails PROP1: agent 1 stays below -11 even after her best removal.
    heavy = ("-18.1",) * 3
    light = (
        ("-0.1", "-0.2", "-0.2", "-0.2"),
        ("-0.2", "-0.1", "-0.2", "-0.2"),
        ("-0.2", "-0.2", "-0.1", "-0.2"),
        ("-0.2", "-0.2", "-0.2", "-0.1"),
    )
    rows = [(-6, -6, -6, -9, -9, -9, -10)] + [heavy + row for row in light]
    inst = _chores("abcdefg", rows)
    return FixtureSpec(
        name="table1",
        instance=inst,
        method="leximin",
        expected_assignment=(0, 0, 0, 1, 2, 3, 4),
        expected_vector=(
            (Fraction(-18),),
            (Fraction("-1/10"),),
            (Fraction("-1/10"),),
            (Fraction("-1/10"),),
            (Fraction("-1/10"),),
        ),
        expected_score=None,
        failure_notion="prop1",
        expected_witness=Prop1Witness(
            agent=0,
            value=Fraction(-18),
            best_adjusted=Fraction(-12),
            threshold=Fraction(-11),
        ),
    )


def _mnw() -> FixtureSpec:
    # Three agents, five chores. The modified-Nash optimum spares agent 1
    # the severe chores d, e but still fails PROP1 at agent 1.
    inst = _chores(
        "abcde",
        [
            (-6, -6, -6, -7, -8),
            (-10, -10, -10, -1, -2),
            (-10, -10, -10, -2, -1),
        ],
    )
    return FixtureSpec(
        name="mnw",
        instance=inst,
        method="mnw-prime",
        expected_assignment=(0, 0, 0, 1, 2),
        expected_vector=(Fraction(15), Fraction(32), Fraction(32)),
        expected_score=WelfareScore(3, Fraction(15360)),
        failure_notion="prop1",
        expected_witness=Prop1Witness(
            agent=0,
            value=Fraction(-18),
            best_adjusted=Fraction(-12),
            threshold=Fraction(-11),
        ),
    )


def _mnw2() -> FixtureSpec:
    # Three agents, five chores. The constrained-Nash optimum fails EF1:
    # agent 1 envies agent 2 even after any single adjustment.
    inst = _chores(
        "abcde",
        [
            (-2, -3, -3, -3, -9),
            (-2, -3, -9, -2, -4),
            (-1, -1, -1, -5, -12),
        ],
    )
    return FixtureSpec(
        name="mnw2",
        instance=inst,
        method="mnw-constrained",
        expected_assignment=(0, 0, 0, 1, 2),
        expected_vector=(Fraction(8), Fraction(2), Fraction(12)),
        expected_score=WelfareScore(3, Fraction(192)),
        failure_notion="ef1",
        expected_witness=Ef1Witness(
            i=0,
            j=1,
            own=Fraction(-8),
            other=Fraction(-3),
            best_target=Fraction(-6),
        ),
    )


def _mnw3() -> FixtureSpec:
    # Five agents, seven chores. The constrained-Nash optimum fails PROP1
    # at agent 1, whose best removal still leaves her below -10.
    rows = [
        ("-10.3", "-12.2", "-10", "-2.2", "-12.7", "-1.1", "-1.5"),
        ("-7.9", "-9.4", "-1.4", "-5.7", "-7.4", "-10.3", "-7.9"),
        ("-9.8", "-6", "-6.5", "-9.6", "-6.8", "-7.4", "-3.9"),
        ("-7.5", "-10.1", "-2.5", "-8.1", "-8", "-6.6", "-7.2"),
        ("-10.5", "-6.3", "-6.4", "-1", "-6.1", "-13.7", "-6"),
    ]
    inst = _chores("abcdefg", rows)
    return FixtureSpec(
        name="mnw3",
        instance=inst,
        method="mnw-constrained",
        expected_assignment=(0, 0, 1, 1, 2, 3, 4),
        expected_vector=(
            Fraction("45/2"),
            Fraction("71/10"),
            Fraction("34/5"),
            Fraction("33/5"),
            Fraction(6),
        ),
        expected_score=WelfareScore(5, Fraction("1075437/25")),
        failure_notion="prop1",
        expected_witness=Prop1Witness(
            agent=0,
            value=Fraction("-45/2"),
            best_adjusted=Fraction("-103/10"),
            threshold=Fraction(-10),
        ),
    )


FIXTURES: dict[str, FixtureSpec] = {
    spec.name: spec for spec in (_table1(), _mnw(), _mnw2(), _mnw3())
}

FIXTURE_NAMES = tuple(FIXTURES)


def fixture_instance(name: str) -> Instance:
    return FIXTURES[name].instance


def _describe(label: str, expected, actual) -> str:
    return f"{label}:\n  expected {expected!r}\n  actual   {actual!r}"


def run_fixture(name: str, max_space: int | None = None) -> FixtureReport:
    """Re-verify one fixture end to end.

    Runs the pinned solver, compares allocation, score vector and
    aggregate score against the pinned values, then re-checks that the
    pinned fairness notion fails with the pinned witness. Raises
    :class:`FixtureMismatch` listing every divergence.
    """
    try:
        spec = FIXTURES[name]
    except KeyError:
        raise FixtureMismatch(name, "no such fixture") from None
    result = solve_with_method(spec.instance, spec.method, max_space)
    diffs = []
    if result.allocation.assignment != spec.expected_assignment:
        expected_bundles = allocation_to_dict(
            spec.instance, Allocation(spec.instance.agents, spec.expected_assignment)
        )
        actual_bundles = allocation_to_dict(spec.instance, result.allocation)
        diffs.append(_describe("allocation", expected_bundles, actual_bundles))
    if result.objective_vector != spec.expected_vector:
        diffs.append(
            _describe(
                "objective vector",
                objective_vector_to_list(spec.expected_vector),
                objective_vector_to_list(result.objective_vector),
            )
        )
    if spec.expected_score is not None and result.score != spec.expected_score:
        diffs.append(_describe("score", spec.expected_score, result.score))
    check = _FAILURE_CHECKS[spec.failure_notion]
    outcome: CheckResult = check(spec.instance, result.allocation)
    if outcome.verdict is not Verdict.FAILS:
        diffs.append(
            _describe(
                f"{spec.failure_notion} verdict", Verdict.FAILS, outcome.verdict
            )
        )
    elif outcome.witness != spec.expected_witness:
        diffs.append(
            _describe(
                f"{spec.failure_notion} witness",
                spec.expected_witness,
                outcome.witness,
            )
        )
    if diffs:
        raise FixtureMismatch(name, "\n".join(diffs))
    return FixtureReport(
        name=name,
        method=spec.method,
        allocation=result.allocation,
        result=result,
        failure_notion=spec.failure_notion,
        failure_witness=outcome.witness,
    )
