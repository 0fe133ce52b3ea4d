"""Correctness gate for job outputs, and the inputs the jobs read.

This is the only part of the benchmark that imports fairdiv. It runs in a
process of its own, before the passes (``inputs``) and after them
(``verify``), so the harness that spawns the jobs stays small: a child's
maximum RSS includes its parent's at the time of the spawn.

    python perfbench/checks.py inputs WORKLOAD SEED WORKDIR
    python perfbench/checks.py verify WORKLOAD SEED WORKDIR [--recording]

For the default seed every job's exit code and stdout must equal the bytes
recorded under ``perfbench/expected``. Fixtures do not depend on the seed,
so they are held to the recording on every seed. For any other seed each
output is checked from outside the program: exit code 0 or 1 as the CLI
documents, stdout that parses as JSON, allocations that partition the
items, and objective vectors, scores and witnesses recomputed exactly
through fairdiv's public functions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from fractions import Fraction
from math import prod
from pathlib import Path

import numpy

from fairdiv import (
    NOTIONS,
    SPEC_NAMES,
    GeneratorConfig,
    WelfareScore,
    allocation_from_dict,
    audit,
    format_value,
    generate,
    instance_to_dict,
    instance_to_json,
    modified_nash_welfare,
    nash_prime_factors,
    sorted_objectives,
    value,
)

import workloads

SOLVE_KEYS = {"method", "allocation", "objective_vector", "score", "tie_count", "search_space"}
SEARCH_KEYS = {"method", "notions", "trials", "seed", "violations"}


class OutputError(Exception):
    """A job's output is not what the program should have printed."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def compare_recorded(recorded: dict, exit_code: int, stdout: bytes) -> None:
    """Byte-for-byte comparison with a recorded output."""
    expect(exit_code == recorded["exit"], f"exit {exit_code}, recorded {recorded['exit']}")
    want = recorded["stdout"].encode()
    if stdout != want:
        at = next(
            (k for k, (a, b) in enumerate(zip(stdout, want)) if a != b),
            min(len(stdout), len(want)),
        )
        raise OutputError(
            f"stdout differs from the recording at byte {at} "
            f"({len(stdout)} bytes, recorded {len(want)})"
        )


def _roundtrip(document):
    return json.loads(json.dumps(document))


def render(entry):
    """An objective entry as the CLI prints it."""
    if isinstance(entry, tuple):
        return [render(part) for part in entry]
    if isinstance(entry, Fraction):
        return format_value(entry)
    return entry


def partition(inst, document):
    """The allocation a bundle document describes, after checking that its
    bundles hand out every item exactly once."""
    bundles = document["bundles"]
    expect(len(bundles) == inst.agents, f"{len(bundles)} bundles for {inst.agents} agents")
    names = sorted(name for bundle in bundles for name in bundle)
    expect(names == sorted(inst.items), "bundles do not partition the items")
    return allocation_from_dict(inst, document)


def check_solve(inst, method: str, exit_code: int, stdout: bytes):
    """Check a ``solve`` output and return its allocation."""
    expect(exit_code == 0, f"solve exited {exit_code}")
    doc = json.loads(stdout)
    expect(set(doc) == SOLVE_KEYS, f"solve keys {sorted(doc)}")
    expect(doc["method"] == method, f"method {doc['method']!r}")
    alloc = partition(inst, doc["allocation"])
    expect(doc["search_space"] == inst.agents**inst.m, "search_space is not n^m")
    expect(isinstance(doc["tie_count"], int) and doc["tie_count"] >= 1, "tie_count < 1")
    if method in SPEC_NAMES:
        vector = sorted_objectives(inst, SPEC_NAMES[method], alloc)
        score = None
    elif method == "mnw-prime":
        vector = nash_prime_factors(inst, alloc)
        score = modified_nash_welfare(inst, alloc)
    else:
        expect(method == "mnw-constrained", f"no check for method {method!r}")
        vector = tuple(-value(inst, i, mask) for i, mask in enumerate(alloc.bundles()))
        nonzero = [factor for factor in vector if factor]
        score = WelfareScore(len(nonzero), Fraction(prod(nonzero, start=1)))
    expect(doc["objective_vector"] == render(vector), "objective vector does not recompute")
    if score is not None:
        score = {"nonzero_count": score.nonzero_count, "product": format_value(score.product)}
    expect(doc["score"] == score, "score does not recompute")
    return alloc


def check_audit(inst, alloc, exit_code: int, stdout: bytes, pareto_optimal: bool) -> None:
    """Check an ``audit`` output on all six notions.

    The five non-PO verdicts and witnesses are recomputed; PO must hold
    when the allocation was chosen among Pareto-optimal ones.
    """
    rows = json.loads(stdout)
    expect([row["notion"] for row in rows] == list(NOTIONS), "notions out of order")
    expect(all(isinstance(row["holds"], bool) for row in rows), "a notion was not decided")
    fails = any(row["holds"] is False for row in rows)
    expect(exit_code == (1 if fails else 0), f"audit exited {exit_code}")
    cheap = tuple(notion for notion in NOTIONS if notion != "po")
    recomputed = _roundtrip(audit(inst, alloc, cheap).as_list(inst))
    expect(rows[: len(cheap)] == recomputed, "non-PO verdicts do not recompute")
    if pareto_optimal:
        expect(rows[-1]["holds"] is True, "a Pareto-constrained optimum fails PO")


def _option(args, name):
    return args[args.index(name) + 1]


def check_search(args, exit_code: int, stdout: bytes) -> None:
    """Check a ``search`` output: every violation must replay from its seed
    and fail its notion again with the same witness."""
    doc = json.loads(stdout)
    expect(set(doc) == SEARCH_KEYS, f"search keys {sorted(doc)}")
    trials = int(_option(args, "--trials"))
    expect(doc["method"] == _option(args, "--method"), "method differs")
    expect(doc["notions"] == list(NOTIONS), "notions differ")
    expect(doc["trials"] == trials, "trials differ")
    expect(doc["seed"] == int(_option(args, "--seed")), "seed differs")
    violations = doc["violations"]
    expect(exit_code == (1 if violations else 0), f"search exited {exit_code}")
    config = GeneratorConfig(
        agents=int(_option(args, "--agents")),
        items=int(_option(args, "--items")),
        family=_option(args, "--family"),
        seed=0,
    )
    instances = {}
    for violation in violations:
        expect(0 <= violation["trial"] < trials, "trial index out of range")
        seed = violation["seed"]
        if seed not in instances:
            instances[seed] = generate(replace(config, seed=seed))
        inst = instances[seed]
        expect(_roundtrip(instance_to_dict(inst)) == violation["instance"],
               "violation instance does not replay from its seed")
        alloc = partition(inst, violation["allocation"])
        notion = violation["notion"]
        expect(notion in NOTIONS, f"unknown notion {notion!r}")
        row = _roundtrip(audit(inst, alloc, (notion,)).as_list(inst))[0]
        expect(row == {"notion": notion, "holds": False, "witness": violation["witness"]},
               f"trial {violation['trial']} does not fail {notion} with the reported witness")


def draw_inputs(workload, skip=()) -> dict:
    """``{file name: (Instance, serialized bytes)}`` drawn through ``generate``."""
    inputs = {}
    for name, fields in workload.configs.items():
        if name in skip:
            continue
        inst = generate(GeneratorConfig(*fields))
        inputs[name] = (inst, instance_to_json(inst).encode())
    return inputs


def check_job(job, exit_code, stdout, written, inputs, allocations, recorded, recording):
    """Raise :class:`OutputError` (or a parsing error) unless the job's
    first run printed what it should have."""
    if job.name in recorded:
        compare_recorded(recorded[job.name], exit_code, stdout)
    if job.kind == "gen":
        expect(exit_code == 0 and stdout == b"", "gen failed")
        data = inputs[job.instance][1]
        expect(written == hashlib.sha256(data).hexdigest(), "gen wrote other bytes than generate()")
    elif job.kind == "solve":
        method = _option(job.args, "--method")
        alloc = check_solve(inputs[job.instance][0], method, exit_code, stdout)
        allocations[job.allocation_out] = (alloc, method == "mnw-constrained")
    elif job.kind == "audit":
        alloc, pareto_optimal = allocations[_option(job.args, "--allocation")]
        check_audit(inputs[job.instance][0], alloc, exit_code, stdout, pareto_optimal)
    elif job.kind == "search":
        check_search(job.args, exit_code, stdout)
    else:
        expect(exit_code == 0, f"{job.kind} exited {exit_code}")
        json.loads(stdout)
        expect(recording or job.name in recorded, f"no recorded output for {job.name}")


def recorded_outputs(workload) -> dict:
    """The recorded outputs that apply to this workload's seed."""
    expected = workloads.load_expected(workload.name)
    return {
        name: output for name, output in expected["jobs"].items()
        if expected["seed"] == workload.seed or name.startswith("fixture-")
    }


def check_first_runs(workload, inputs, first, recorded, recording=False) -> dict:
    """``{job name: reason}`` for each job whose first run was wrong.

    ``first`` maps job names to (exit code, stdout bytes, written digest).
    """
    reasons = {}
    allocations = {}
    for job in workload.jobs:
        if job.name not in first:
            continue
        try:
            check_job(job, *first[job.name], inputs, allocations, recorded, recording)
        except Exception as exc:  # a malformed output is a failed job, not a crash
            reasons[job.name] = f"{type(exc).__name__}: {exc}"
    return reasons


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="fairdiv-side steps of the benchmark")
    parser.add_argument("step", choices=("inputs", "verify"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--recording", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed)
    if args.step == "inputs":
        # gen jobs write their own instance; verify draws it to compare.
        inputs = draw_inputs(workload, skip={job.instance for job in workload.jobs if job.kind == "gen"})
        for name, (_inst, data) in inputs.items():
            (args.workdir / name).write_bytes(data)
        result = {
            "instance_sha256": {
                name: hashlib.sha256(data).hexdigest() for name, (_inst, data) in inputs.items()
            },
            "numpy": numpy.__version__,
        }
    else:
        inputs = draw_inputs(workload)
        runs = json.loads((args.workdir / "first.json").read_text())
        first = {
            name: (run["exit"], (args.workdir / run["stdout_file"]).read_bytes(), run["written"])
            for name, run in runs.items()
        }
        recorded = {} if args.recording else recorded_outputs(workload)
        result = check_first_runs(workload, inputs, first, recorded, args.recording)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
