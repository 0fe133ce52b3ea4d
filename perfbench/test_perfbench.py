"""Tests for the benchmark harness itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402  (imports fairdiv from src)
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    recorded = [
        ["outer", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["second child", 5.0, 9.0, 0],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_links_nested_calls_to_their_parents():
    recorder = spans.Recorder(clock=fake_clock(0.0, 1.0, 3.0, 4.0))
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert recorder.spans == [["outer", 0.0, 4.0, -1], ["inner", 1.0, 3.0, 0]]
    assert spans.self_times(recorder.spans) == [2.0, 2.0]


def test_recorder_closes_a_span_when_the_call_raises():
    recorder = spans.Recorder(clock=fake_clock(0.0, 2.0))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap("fail", fail)()
    assert recorder.spans == [["fail", 0.0, 2.0, -1]]
    assert recorder.stack == []


def test_search_trials_pair_each_solve_with_its_audit():
    recorded = [
        ["search.search_counterexamples", 0.0, 10.0, -1],
        ["generators.generate", 0.0, 1.0, 0],
        ["methods.solve_with_method", 1.0, 3.0, 0],
        ["audit.audit", 3.0, 4.0, 0],
        ["methods.solve_with_method", 4.0, 5.0, 0],
        ["audit.audit", 5.0, 7.5, 0],
    ]
    assert spans.search_trials(recorded) == [3.0, 3.5]


def test_install_reaches_every_module_that_bound_a_wrapped_name():
    import importlib

    import fairdiv
    import fairdiv.cli

    # The package rebinds ``fairdiv.audit`` to the function, so look the
    # modules up by name.
    audit, fixtures, generators, model, search, serialize = (
        importlib.import_module(f"fairdiv.{name}")
        for name in ("audit", "fixtures", "generators", "model", "search", "serialize")
    )

    original_validate = model.validate_instance
    original_ef = audit.check_EF
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        wrapped = model.validate_instance
        assert wrapped is not original_validate
        assert wrapped.__wrapped__ is original_validate
        assert serialize.validate_instance is wrapped
        assert generators.validate_instance is wrapped
        assert fairdiv.validate_instance is wrapped
        assert fairdiv.cli.audit is audit.audit is search.audit
        assert audit.audit.__wrapped__ is not None
        assert audit._CHECKS["ef"] is audit.check_EF
        assert audit.check_EF.__wrapped__ is original_ef
        assert fixtures._FAILURE_CHECKS["ef1"] is audit.check_EF1
        assert fairdiv.cli.solve_with_method is search.solve_with_method

        generators.generate(generators.GeneratorConfig(2, 3, "additive-mixed", 5))
        names = [(name, parent) for name, _start, _end, parent in recorder.spans]
        assert names == [("generators.generate", -1), ("model.validate_instance", 0)]
    finally:
        restore()
    assert model.validate_instance is original_validate
    assert serialize.validate_instance is original_validate
    assert audit._CHECKS["ef"] is original_ef


def _fixture_workload():
    job = workloads.Job(name="fixture-mnw", kind="fixture", args=("fixture", "--name", "mnw"))
    return job, workloads.Workload("test", 1, (job,), {})


def _run(stdout: bytes) -> run.JobRun:
    return run.JobRun(wall=1.0, cpu=1.0, maxrss_kb=1, exit_code=0, stdout=stdout)


def test_gate_flags_a_one_byte_mismatch_against_the_recording():
    job, workload = _fixture_workload()
    gate = run.Gate(workload)
    gate.observe(job, _run(b'{"name": "mnx"}\n'), "untraced")
    gate.observe(job, _run(b'{"name": "mnx"}\n'), "traced")
    recorded = {job.name: {"exit": 0, "stdout": '{"name": "mnw"}\n'}}
    first = {job.name: (0, gate.first[job.name].stdout, None)}
    reasons = checks.check_first_runs(workload, {}, first, recorded)
    assert "at byte 12" in reasons[job.name]
    assert gate.count(reasons)[:2] == (2, 2)
    assert checks.check_first_runs(workload, {}, {job.name: (0, b'{"name": "mnw"}\n', None)}, recorded) == {}


def test_gate_flags_a_later_run_that_differs_by_one_byte():
    job, workload = _fixture_workload()
    gate = run.Gate(workload)
    gate.observe(job, _run(b'{"name": "mnw"}\n'), "untraced")
    gate.observe(job, _run(b'{"name": "mnw"}\r'), "traced")
    assert gate.count({})[:2] == (2, 1)


def test_gate_accepts_matching_runs():
    job, workload = _fixture_workload()
    gate = run.Gate(workload)
    gate.observe(job, _run(b'{"name": "mnw"}\n'), "untraced")
    gate.observe(job, _run(b'{"name": "mnw"}\n'), "traced")
    assert gate.count({}) == (2, 0, [])


def test_solve_check_rejects_a_wrong_objective_vector():
    from fairdiv import GeneratorConfig, generate, solve_with_method

    inst = generate(GeneratorConfig(2, 4, "additive-mixed", 3))
    result = solve_with_method(inst, "leximin")
    assert result.objective_vector
    good = {
        "method": "leximin",
        "allocation": {"bundles": [list(inst.bundle_names(m)) for m in result.allocation.bundles()]},
        "objective_vector": checks.render(result.objective_vector),
        "score": None,
        "tie_count": result.tie_count,
        "search_space": 16,
    }
    checks.check_solve(inst, "leximin", 0, json.dumps(good).encode())
    bad = dict(good, objective_vector=checks.render(
        tuple((value + Fraction(1, 10),) for (value,) in result.objective_vector)
    ))
    with pytest.raises(checks.OutputError):
        checks.check_solve(inst, "leximin", 0, json.dumps(bad).encode())


def test_parse_importtime_reads_cumulative_times():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      2000 |      70000 |     numpy",
        "import time:      5000 |     200000 | fairdiv",
        "import time:       300 |      12000 |   click",
        "import time:      1000 |      40000 | fairdiv.cli",
    ])
    assert run.parse_importtime(text) == pytest.approx({
        "cli.import_s": 0.24,
        "cli.import.numpy_s": 0.07,
        "cli.import.click_s": 0.012,
    })


def test_traced_cli_prints_the_same_bytes_and_records_spans(tmp_path):
    from fairdiv import GeneratorConfig, generate, instance_to_json

    inst = generate(GeneratorConfig(3, 5, "additive-chores", 11))
    (tmp_path / "inst.json").write_text(instance_to_json(inst))
    args = ["solve", "--instance", "inst.json", "--method", "mnw-constrained"]
    runner = run.Runner(tmp_path, deadline=time.perf_counter() + 60)
    plain = runner.spawn(runner.cli(args))
    traced = runner.spawn(runner.traced(args, tmp_path / "spans.json"))
    assert plain.exit_code == traced.exit_code == 0
    assert plain.stdout == traced.stdout
    document = json.loads((tmp_path / "spans.json").read_text())
    names = {span[0] for span in document["spans"]}
    assert {"welfare.constrained_mnw_solve", "welfare.pareto_filter", "serialize.dumps"} <= names
    assert document["counts"]["welfare.allocations"] == 3**5
    assert document["counts"]["serialize.bytes_out"] == len(plain.stdout)


def test_workloads_are_reproducible_from_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7)
        b = workloads.build(name, 7)
        assert a.job_list_sha256() == b.job_list_sha256()
        assert a.job_list_sha256() != workloads.build(name, 8).job_list_sha256()


def test_an_empty_checkout_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exhaustive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
