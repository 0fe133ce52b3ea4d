"""Counterexample search over generated instances."""

import gc
import weakref

import pytest

from fairdiv import search
from fairdiv import (
    GeneratorConfig,
    Verdict,
    audit,
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


def test_search_keeps_no_instance_older_than_the_previous_trial(monkeypatch):
    original = search.generate
    made = []

    def tracked(config):
        gc.collect()
        assert all(ref() is None for ref in made[:-1]), "an old trial's instance is alive"
        inst = original(config)
        made.append(weakref.ref(inst))
        return inst

    monkeypatch.setattr(search, "generate", tracked)
    config = GeneratorConfig(agents=2, items=6, family="general-identical", seed=5)
    report = search_counterexamples(config, "leximin++", ("ef1",), trials=6)
    assert not report.found
    assert len(made) == 6


@pytest.mark.parametrize(
    "method, notions, trials",
    [
        ("no-such-method", ("bogus",), 0),
        ("no-such-method", ("ef",), 5),
        ("leximin", ("ef", "bogus"), 5),
    ],
)
def test_unknown_method_or_notion_is_rejected_before_any_solve(
    monkeypatch, method, notions, trials
):
    original = search.solve_with_method
    solves = []

    def counting(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(search, "solve_with_method", counting)
    with pytest.raises(ValueError, match="unknown"):
        search_counterexamples(chores_cfg(), method, notions, trials)
    assert solves == []
