"""Golden failure instances re-verified from scratch."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairdiv import (
    FIXTURE_NAMES,
    Ef1Witness,
    FixtureMismatch,
    Instance,
    Prop1Witness,
    fixture_instance,
    format_value,
    run_fixture,
    solve_with_method,
)
from fairdiv.fixtures import FIXTURES, FixtureSpec
from fairdiv.serialize import result_to_dict


def test_fixture_names():
    assert FIXTURE_NAMES == ("table1", "mnw", "mnw2", "mnw3")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reverifies(name):
    report = run_fixture(name)
    assert report.name == name
    assert report.result.tie_count == 1
    doc = report.as_dict()
    assert doc["name"] == name
    assert doc["fails"] == FIXTURES[name].failure_notion
    assert isinstance(doc["witness"], dict)
    inst = fixture_instance(name)
    assert doc["search_space"] == inst.agents**inst.m


def test_no_fixture_instance_is_built_at_import():
    # FIXTURES keeps names and value strings; fixture_instance parses them
    for spec in FIXTURES.values():
        assert not any(isinstance(entry, Instance) for entry in vars(spec).values())
    inst = fixture_instance("mnw")
    assert inst == fixture_instance("mnw") and inst is not fixture_instance("mnw")
    assert (inst.agents, inst.items) == (3, ("a", "b", "c", "d", "e"))
    assert inst.valuation.scaled[1] == (-10, -10, -10, -1, -2)


def test_pinned_values_spot_checks():
    t1 = FIXTURES["table1"]
    assert t1.method == "leximin"
    assert t1.expected["allocation"] == {
        "bundles": [["a", "b", "c"], ["d"], ["e"], ["f"], ["g"]]
    }
    assert t1.expected["score"] is None
    assert t1.failure_notion == "prop1"
    assert t1.expected["witness"] == Prop1Witness(
        0, Fraction(-18), Fraction(-12), Fraction(-11)
    ).as_dict(fixture_instance("table1"))
    mnw = FIXTURES["mnw"]
    assert mnw.method == "mnw-prime"
    assert mnw.expected["score"] == {"nonzero_count": 3, "product": "15360"}
    assert mnw.failure_notion == "prop1"
    mnw2 = FIXTURES["mnw2"]
    assert mnw2.method == "mnw-constrained"
    assert mnw2.expected["score"] == {"nonzero_count": 3, "product": "192"}
    assert mnw2.expected["witness"] == Ef1Witness(
        0, 1, Fraction(-8), Fraction(-3), Fraction(-6)
    ).as_dict(fixture_instance("mnw2"))
    mnw3 = FIXTURES["mnw3"]
    assert mnw3.method == "mnw-constrained"
    assert mnw3.expected["score"] == {
        "nonzero_count": 5,
        "product": format_value(Fraction(1075437, 25)),
    }
    assert mnw3.failure_notion == "prop1"
    for name, spec in FIXTURES.items():
        inst = fixture_instance(name)
        assert spec.expected["tie_count"] == 1
        assert spec.expected["search_space"] == inst.agents**inst.m


def test_pinned_documents_have_the_keys_solve_prints():
    # the keys of `fairdiv solve`, in its order and without the method,
    # then the witness
    for name, spec in FIXTURES.items():
        inst = fixture_instance(name)
        result = solve_with_method(inst, spec.method)
        assert list(spec.expected) == [*result_to_dict(inst, result), "witness"]


def test_a_traced_fixture_renders_its_allocation_once(tmp_path):
    # run_fixture renders the solve result to compare it with the pinned
    # document, and the printed report reuses that rendering
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, "-B", str(root / "perfbench" / "spans.py"), str(out),
         "fixture", "--name", "mnw"],
        env={"PATH": "", "PYTHONPATH": str(root / "src")},
        capture_output=True,
        check=True,
    )
    names = [span[0] for span in json.loads(out.read_text())["spans"]]
    assert names.count("serialize.allocation_to_dict") == 1


def test_unknown_fixture_name():
    with pytest.raises(FixtureMismatch) as info:
        run_fixture("table9")
    assert "no such fixture" in str(info.value)


def _pin(monkeypatch, name, notion=None, **expected):
    """Replace fixture ``name`` for one test, with the given keys of its
    pinned document, and its notion if one is given, changed."""
    spec = FIXTURES[name]
    broken = FixtureSpec(
        **{
            **vars(spec),
            "failure_notion": notion or spec.failure_notion,
            "expected": {**spec.expected, **expected},
        }
    )
    monkeypatch.setitem(FIXTURES, name, broken)


def _mismatch(name):
    with pytest.raises(FixtureMismatch) as info:
        run_fixture(name)
    return str(info.value)


def test_mismatch_reports_the_divergent_field(monkeypatch):
    _pin(monkeypatch, "mnw2", score={"nonzero_count": 3, "product": "191"})
    message = _mismatch("mnw2")
    assert "score" in message
    assert "191" in message
    # only the divergent key is listed
    assert "witness" not in message and "allocation" not in message


def test_mismatch_reports_wrong_witness(monkeypatch):
    witness = {"agent": 0, "value": "-18", "best_adjusted": "-12", "threshold": "-10"}
    _pin(monkeypatch, "table1", witness=witness)
    message = _mismatch("table1")
    assert "witness" in message
    assert "'threshold': '-10'" in message


def test_mismatch_reports_wrong_tie_count(monkeypatch):
    _pin(monkeypatch, "mnw2", tie_count=2)
    assert _mismatch("mnw2") == (
        "fixture 'mnw2' diverged:\ntie_count:\n  expected 2\n  actual   1"
    )


def test_mismatch_reports_a_pinned_notion_that_holds(monkeypatch):
    # mnw2's allocation fails EF1 but is PROP1, so PROP1 has no witness
    _pin(monkeypatch, "mnw2", notion="prop1")
    message = _mismatch("mnw2")
    assert message.startswith("fixture 'mnw2' diverged:\nwitness:\n  expected {'i': 0")
    assert message.endswith("\n  actual   None")


def test_mismatch_lists_every_divergent_key(monkeypatch):
    _pin(monkeypatch, "mnw", objective_vector=["15", "32", "31"], search_space=242)
    assert _mismatch("mnw").splitlines()[1:] == [
        "objective_vector:",
        "  expected ['15', '32', '31']",
        "  actual   ['15', '32', '32']",
        "search_space:",
        "  expected 242",
        "  actual   243",
    ]
