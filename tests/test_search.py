"""Counterexample search over generated instances."""

from fractions import Fraction

import pytest

from fairdiv import (
    GeneratorConfig,
    Prop1Witness,
    Verdict,
    audit,
    fixture_instance,
    search_counterexamples,
)


def chores_cfg(seed=7):
    return GeneratorConfig(agents=3, items=5, family="additive-chores", seed=seed)


def test_zero_trials_and_no_extras_find_nothing():
    report = search_counterexamples(chores_cfg(), "leximin", ("ef",), trials=0)
    assert report.trials == 0
    assert report.violations == ()
    assert not report.found


def test_negative_trials_are_rejected():
    with pytest.raises(ValueError):
        search_counterexamples(chores_cfg(), "leximin", ("ef",), trials=-3)


def test_extra_instances_are_checked_first():
    report = search_counterexamples(
        chores_cfg(),
        "leximin",
        ("prop1",),
        trials=0,
        extra_instances=(fixture_instance("table1"),),
    )
    assert report.found
    (v,) = report.violations
    assert v.trial == 0
    assert v.seed is None
    assert v.notion == "prop1"
    assert v.result.witness == Prop1Witness(
        0, Fraction(-18), Fraction(-12), Fraction(-11)
    )
    # the violation re-verifies on its own stored instance and allocation
    recheck = audit(v.instance, v.allocation, ("prop1",)).result("prop1")
    assert recheck.verdict is Verdict.FAILS
    assert recheck.witness == v.result.witness


def test_seeded_search_finds_a_frozen_violation():
    report = search_counterexamples(chores_cfg(seed=7), "mnw-constrained", ("ef1",), trials=5)
    assert report.method == "mnw-constrained"
    assert report.notions == ("ef1",)
    assert report.trials == 5
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.trial == 4
    assert v.notion == "ef1"
    assert audit(v.instance, v.allocation, ("ef1",)).result("ef1").verdict is Verdict.FAILS


def test_search_is_deterministic():
    a = search_counterexamples(chores_cfg(seed=7), "mnw-constrained", ("ef1",), trials=5)
    b = search_counterexamples(chores_cfg(seed=7), "mnw-constrained", ("ef1",), trials=5)
    assert [v.as_dict() for v in a.violations] == [v.as_dict() for v in b.violations]
    d = a.violations[0].as_dict()
    assert d["trial"] == 4
    assert d["notion"] == "ef1"
    assert isinstance(d["seed"], int)
    assert set(d) >= {"trial", "seed", "instance", "allocation", "notion", "witness"}


def test_guarded_notions_do_not_count_as_violations():
    config = GeneratorConfig(agents=3, items=3, family="identical-additive", seed=1)
    report = search_counterexamples(
        config, "alg-identical", ("po",), trials=3, max_space=10
    )
    # 3^3 = 27 > 10: the audit is skipped, never reported as a failure
    assert not report.found
