"""End-to-end command line coverage via click's test runner."""

import json
import sys

import pytest
from click.testing import CliRunner

from fairdiv import (
    Allocation,
    allocation_to_dict,
    fixture_instance,
    instance_from_json,
    instance_to_dict,
)
from fairdiv import greedy
from fairdiv.cli import main
from fairdiv.fixtures import FIXTURES, FixtureSpec
from fairdiv.serialize import dumps

runner = CliRunner()


def write_instance(tmp_path, name):
    inst = fixture_instance(name)
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(instance_to_dict(inst)))
    return inst, str(path)


def write_allocation(tmp_path, inst, assignment, name="alloc"):
    path = tmp_path / f"{name}.json"
    alloc = Allocation(inst.agents, assignment)
    path.write_text(dumps(allocation_to_dict(inst, alloc)))
    return str(path)


GEN_ARGS = [
    "gen",
    "--family", "identical-additive",
    "--agents", "3",
    "--items", "5",
    "--seed", "5",
]


def test_gen_solve_audit_round_trip(tmp_path):
    instance_path = str(tmp_path / "inst.json")
    res = runner.invoke(main, GEN_ARGS + ["--out", instance_path])
    assert res.exit_code == 0

    res = runner.invoke(
        main, ["solve", "--instance", instance_path, "--method", "alg-identical"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["method"] == "alg-identical"
    assert doc["tie_count"] == 1

    allocation_path = str(tmp_path / "alloc.json")
    (tmp_path / "alloc.json").write_text(dumps({"bundles": doc["allocation"]["bundles"]}))
    res = runner.invoke(
        main,
        [
            "audit",
            "--instance", instance_path,
            "--allocation", allocation_path,
            "--notions", "efx,ef1",
        ],
    )
    assert res.exit_code == 0
    rows = json.loads(res.output)
    assert [r["notion"] for r in rows] == ["efx", "ef1"]
    assert all(r["holds"] for r in rows)


def test_solve_prints_a_value_past_the_digit_limit(tmp_path):
    # 10^4300 has 4,301 digits, one past the default limit of str(int)
    path = tmp_path / "huge.json"
    path.write_text(
        '{"agents": 1, "items": ["a"], "valuation": {"type": "additive", "matrix": [["1e4300"]]}}'
    )
    res = runner.invoke(main, ["solve", "--method", "leximin", "--instance", str(path)])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["objective_vector"] == [["1" + "0" * 4300]]


def test_gen_is_deterministic_and_prints_json():
    a = runner.invoke(main, GEN_ARGS)
    b = runner.invoke(main, GEN_ARGS)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    doc = json.loads(a.output)
    assert doc["agents"] == 3
    assert doc["items"] == ["o1", "o2", "o3", "o4", "o5"]


def test_solve_objective_switches_the_leximin_family(tmp_path):
    _, instance_path = write_instance(tmp_path, "table1")
    res = runner.invoke(
        main,
        [
            "solve",
            "--instance", instance_path,
            "--method", "leximin-gc",
        ],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["method"] == "leximin-gc"
    # utility, goods count, negated chores count per agent
    assert doc["objective_vector"][0] == ["-18", 0, -3]


def test_solve_trace_emits_json_lines(tmp_path, monkeypatch):
    instance_path = str(tmp_path / "inst.json")
    runner.invoke(main, GEN_ARGS + ["--out", instance_path])
    # every greedy run starts by reading the identical row, exactly once
    runs = []
    identical_row = greedy._identical_row
    monkeypatch.setattr(
        greedy, "_identical_row", lambda inst: runs.append(inst) or identical_row(inst)
    )
    res = runner.invoke(
        main,
        ["solve", "--instance", instance_path, "--method", "alg-identical", "--trace"],
    )
    assert res.exit_code == 0
    assert len(runs) == 1
    lines = res.output.splitlines()
    steps = [json.loads(line) for line in lines[:5]]
    assert {step["item"] for step in steps} == {"o1", "o2", "o3", "o4", "o5"}
    assert all(len(step["utilities"]) == 3 for step in steps)
    doc = json.loads("\n".join(lines[5:]))
    assert doc["method"] == "alg-identical"


def test_solve_trace_requires_the_greedy_method(tmp_path):
    _, instance_path = write_instance(tmp_path, "table1")
    res = runner.invoke(
        main, ["solve", "--instance", instance_path, "--method", "leximin", "--trace"]
    )
    assert res.exit_code == 2
    assert "--trace" in res.stderr


def test_audit_exit_one_on_violation(tmp_path):
    inst, instance_path = write_instance(tmp_path, "table1")
    allocation_path = write_allocation(tmp_path, inst, (0, 0, 0, 1, 2, 3, 4))
    res = runner.invoke(
        main,
        [
            "audit",
            "--instance", instance_path,
            "--allocation", allocation_path,
            "--notions", "prop1",
        ],
    )
    assert res.exit_code == 1
    rows = json.loads(res.output)
    assert rows == [
        {
            "notion": "prop1",
            "holds": False,
            "witness": {
                "agent": 0,
                "value": "-18",
                "best_adjusted": "-12",
                "threshold": "-11",
            },
        }
    ]


def test_audit_exit_zero_when_notions_hold(tmp_path):
    inst, instance_path = write_instance(tmp_path, "mnw2")
    allocation_path = write_allocation(tmp_path, inst, (0, 0, 0, 1, 2))
    res = runner.invoke(
        main,
        [
            "audit",
            "--instance", instance_path,
            "--allocation", allocation_path,
            "--notions", "po",
        ],
    )
    assert res.exit_code == 0
    assert json.loads(res.output)[0]["holds"] is True


def test_audit_exit_two_when_guard_skips(tmp_path):
    inst, instance_path = write_instance(tmp_path, "mnw2")
    allocation_path = write_allocation(tmp_path, inst, (0, 0, 0, 1, 2))
    res = runner.invoke(
        main,
        [
            "audit",
            "--instance", instance_path,
            "--allocation", allocation_path,
            "--notions", "po",
            "--max-space", "10",
        ],
    )
    assert res.exit_code == 2
    row = json.loads(res.output)[0]
    assert row["holds"] is None
    assert row["witness"] == {"search_space": 243, "limit": 10}


@pytest.mark.parametrize("command", ["audit", "solve"])
def test_a_cap_below_one_exits_two(tmp_path, command):
    inst, instance_path = write_instance(tmp_path, "mnw2")
    args = [command, "--instance", instance_path, "--max-space", "-1"]
    if command == "audit":
        args += ["--allocation", write_allocation(tmp_path, inst, (0, 0, 0, 1, 2))]
        args += ["--notions", "po"]
    else:
        args += ["--method", "leximin"]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: max_space must be at least 1, got -1\n"


@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_alg_identical_refuses_a_cap_below_one(tmp_path, trace):
    # the greedy enumerates nothing, yet refuses the cap every method refuses
    instance_path = str(tmp_path / "inst.json")
    assert runner.invoke(main, GEN_ARGS + ["--out", instance_path]).exit_code == 0
    args = ["solve", "--instance", instance_path, "--method", "alg-identical"]
    res = runner.invoke(main, [*args, "--max-space", "-1", *trace])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: max_space must be at least 1, got -1\n"


@pytest.mark.parametrize("method", ["mnw-prime", "mnw-constrained"])
def test_nash_welfare_on_a_general_table_exits_two(tmp_path, method):
    path = tmp_path / "general.json"
    table = {"type": "general-identical", "table": ["0", "-1"]}
    path.write_text(json.dumps({"agents": 2, "items": ["a"], "valuation": table}))
    res = runner.invoke(main, ["solve", "--instance", str(path), "--method", method])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: Nash welfare requires an additive instance\n"


def test_audit_rejects_unknown_notion(tmp_path):
    inst, instance_path = write_instance(tmp_path, "mnw2")
    allocation_path = write_allocation(tmp_path, inst, (0, 0, 0, 1, 2))
    res = runner.invoke(
        main,
        [
            "audit",
            "--instance", instance_path,
            "--allocation", allocation_path,
            "--notions", "prop2",
        ],
    )
    assert res.exit_code == 2
    assert "error:" in res.stderr


def test_fixture_command(tmp_path):
    res = runner.invoke(main, ["fixture", "--name", "mnw2"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["name"] == "mnw2"
    assert doc["fails"] == "ef1"
    assert doc["tie_count"] == 1
    assert doc["allocation"]["bundles"] == [["a", "b", "c"], ["d"], ["e"]]


def test_fixture_divergence_exits_two(monkeypatch):
    spec = FIXTURES["mnw2"]
    score = {"nonzero_count": 3, "product": "191"}
    broken = FixtureSpec(**{**vars(spec), "expected": {**spec.expected, "score": score}})
    monkeypatch.setitem(FIXTURES, "mnw2", broken)
    res = runner.invoke(main, ["fixture", "--name", "mnw2"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: fixture 'mnw2' diverged:\nscore:\n")
    assert "'product': '191'" in res.stderr


def test_search_exit_one_when_a_violation_is_found():
    res = runner.invoke(
        main,
        [
            "search",
            "--family", "additive-chores",
            "--agents", "3",
            "--items", "5",
            "--seed", "7",
            "--method", "mnw-constrained",
            "--notions", "ef1",
            "--trials", "5",
        ],
    )
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert len(doc["violations"]) == 1
    assert doc["violations"][0]["trial"] == 4


def test_search_exit_zero_when_clean():
    res = runner.invoke(
        main,
        [
            "search",
            "--family", "additive-chores",
            "--agents", "2",
            "--items", "3",
            "--seed", "1",
            "--rescale", "-1",
            "--method", "leximin",
            "--notions", "prop1,po",
            "--trials", "3",
        ],
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["violations"] == []


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--rescale", "0"],
        ["search", "--rescale", "0", "--method", "leximin", "--trials", "1"],
        ["search", "--method", "leximin", "--trials", "-3"],
        ["gen", "--weight-max", "0"],
        ["gen", "--perturb-max", "-1"],
        # a repeated option takes its last value
        ["gen", "--seed", "-1"],
        ["search", "--method", "leximin", "--trials", "-1"],
    ],
)
def test_out_of_range_generator_and_trial_options_exit_two(args):
    command, *options = args
    generator = ["--family", "additive-chores", "--agents", "2", "--items", "2", "--seed", "1"]
    res = runner.invoke(main, [command, *generator, *options])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "error:" in res.stderr


def test_gen_refuses_an_agent_count_past_sys_maxsize():
    # An additive family drew rows until the process was killed.
    args = ["--agents", str(sys.maxsize + 1), "--items", "1", "--seed", "0"]
    res = runner.invoke(main, ["gen", "--family", "additive-chores", *args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "agents must be from" in res.stderr


def test_a_general_table_of_huge_agent_count_round_trips(tmp_path):
    # Every agent shares a general table's goods and chores.
    path = tmp_path / "huge.json"
    args = ["--agents", str(10**18), "--items", "2", "--seed", "0", "--out", str(path)]
    res = runner.invoke(main, ["gen", "--family", "general-identical", *args])
    assert res.exit_code == 0
    inst = instance_from_json(path.read_text())
    assert (inst.agents, inst.m) == (10**18, 2)


def test_leximin_on_a_huge_agent_count_exits_two(tmp_path):
    # Loading classified the goods of every agent and died of MemoryError,
    # which exited 1, the code of a violation found.
    path = tmp_path / "huge.json"
    path.write_text(
        '{"agents": 1000000000000000000, "items": ["a", "b"],'
        ' "valuation": {"type": "general-identical", "table": ["0", "1", "2", "3"]}}'
    )
    res = runner.invoke(main, ["solve", "--instance", str(path), "--method", "leximin"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "search space has 10" in res.stderr


def test_a_repeated_notion_exits_two(tmp_path):
    inst, instance_path = write_instance(tmp_path, "mnw2")
    allocation_path = write_allocation(tmp_path, inst, (0, 0, 0, 1, 2))
    generator = ["--family", "additive-chores", "--agents", "3", "--items", "5", "--seed", "3"]
    for args in (
        ["audit", "--instance", instance_path, "--allocation", allocation_path],
        ["search", *generator, "--method", "mnw-prime", "--trials", "5"],
    ):
        res = runner.invoke(main, [*args, "--notions", "ef,ef"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: notion 'ef' is repeated\n"


@pytest.mark.parametrize("notions", ["", " , "])
def test_no_notion_exits_two(tmp_path, notions):
    inst, instance_path = write_instance(tmp_path, "mnw2")
    allocation_path = write_allocation(tmp_path, inst, (0, 0, 0, 1, 2))
    generator = ["--family", "additive-chores", "--agents", "3", "--items", "5", "--seed", "3"]
    for args in (
        ["audit", "--instance", instance_path, "--allocation", allocation_path],
        ["search", *generator, "--method", "mnw-prime", "--trials", "5"],
    ):
        res = runner.invoke(main, [*args, "--notions", notions])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: no notions to check\n"


def test_missing_file_and_invalid_json_exit_two(tmp_path):
    res = runner.invoke(
        main, ["solve", "--instance", str(tmp_path / "nope.json"), "--method", "leximin"]
    )
    assert res.exit_code == 2
    assert "cannot read" in res.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["solve", "--instance", str(bad), "--method", "leximin"])
    assert res.exit_code == 2
    assert "not valid JSON" in res.stderr


@pytest.mark.parametrize(
    "content", [b"[" * 2000, b"\xff{}"], ids=["nested-past-the-recursion-limit", "not-utf-8"]
)
def test_a_bad_file_is_named_and_exits_two(tmp_path, content):
    inst, instance_path = write_instance(tmp_path, "mnw2")
    allocation_path = write_allocation(tmp_path, inst, (0, 0, 0, 1, 2))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for args in (
        ["solve", "--instance", str(bad), "--method", "leximin"],
        ["audit", "--instance", str(bad), "--allocation", allocation_path],
        ["audit", "--instance", instance_path, "--allocation", str(bad)],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: {bad} is not valid JSON: ")


def test_unwritable_gen_out_exits_two(tmp_path):
    out = tmp_path / "missing" / "inst.json"
    res = runner.invoke(main, GEN_ARGS + ["--out", str(out)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"cannot write {out}" in res.stderr
    assert not out.exists()


def test_malformed_allocation_exits_two(tmp_path):
    inst, instance_path = write_instance(tmp_path, "mnw2")
    path = tmp_path / "alloc.json"
    path.write_text(dumps({"bundles": [["a", "b"], ["d"], ["e"]]}))
    res = runner.invoke(
        main,
        ["audit", "--instance", instance_path, "--allocation", str(path)],
    )
    assert res.exit_code == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize(
    "bundles",
    [5, None, ["ab", []], {"a": 0, "b": 0}],
    ids=["number", "null", "string-bundle", "object"],
)
def test_malformed_bundles_exit_two(tmp_path, bundles):
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(
        json.dumps(
            {
                "agents": 2,
                "items": ["a", "b"],
                "valuation": {"type": "additive", "matrix": [["-1", "-2"], ["-2", "-1"]]},
            }
        )
    )
    allocation_path = tmp_path / "alloc.json"
    allocation_path.write_text(json.dumps({"bundles": bundles}))
    res = runner.invoke(
        main,
        ["audit", "--instance", str(instance_path), "--allocation", str(allocation_path)],
    )
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "error:" in res.stderr


@pytest.mark.parametrize(
    "document, message",
    [
        (
            {"agents": 1, "items": ["a"], "valuation": {"type": "additive"}},
            "additive valuation needs a list 'matrix', got NoneType",
        ),
        (
            {"agents": 1, "items": ["a"], "valuation": {"type": "general-identical"}},
            "general-identical valuation needs a list 'table', got NoneType",
        ),
        (
            {
                "agents": 1,
                "items": ["a"],
                "valuation": {"type": "general-identical", "table": None},
            },
            "general-identical valuation needs a list 'table', got NoneType",
        ),
        (
            {"agents": 1, "items": "ab", "valuation": {"type": "additive", "matrix": [["1", "2"]]}},
            "items must be a list, got str",
        ),
        *(
            (
                {
                    "agents": 1,
                    "items": ["a"],
                    "valuation": {"type": "general-identical", "table": table},
                },
                f"malformed value entry: {message}",
            )
            for table, message in (
                (["0", "1/0"], "not a value: '1/0'"),
                (["0", 0.5], "refusing to parse a float; pass a string for exactness"),
                (["0", True], "not a value: True"),
                (["0", "1 /2"], "not a value: '1 /2'"),
            )
        ),
        (
            {"agents": 1, "items": ["a"], "valuation": {"type": "additive", "matrix": [["1__0"]]}},
            "malformed value entry: not a value: '1__0'",
        ),
        (
            {
                "agents": 1,
                "items": ["a"],
                "valuation": {"type": "additive", "matrix": [["1e999999999"]]},
            },
            "malformed value entry: exponent of '1e999999999' exceeds 4300",
        ),
        (
            {"agents": 1, "items": ["a", "b"], "valuation": {"type": "additive", "matrix": ["12"]}},
            "additive matrix rows must be lists",
        ),
        (
            {
                "agents": 0,
                "items": ["a"],
                "valuation": {"type": "general-identical", "table": ["0", "1"]},
            },
            "agents must be a positive integer, got 0",
        ),
        (
            {
                "agents": 2**64,
                "items": [],
                "valuation": {"type": "general-identical", "table": ["0"]},
            },
            f"agents must be at most {sys.maxsize}, got 18446744073709551616",
        ),
    ],
    ids=[
        "additive-without-matrix",
        "general-without-table",
        "null-table",
        "items-as-string",
        "zero-denominator",
        "float-entry",
        "bool-entry",
        "space-before-slash",
        "double-underscore",
        "huge-exponent",
        "row-as-string",
        "zero-agents-general",
        "agents-past-maxsize",
    ],
)
def test_malformed_instance_exits_two(tmp_path, document, message):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document))
    res = runner.invoke(main, ["solve", "--instance", str(path), "--method", "leximin"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"
