"""The command line's byte contract: recorded stdout and exit codes.

``tests/golden/`` holds the input files and ``expected.json``, which maps
each case below to the exit code and stdout of one CLI invocation. The
test replays every case in-process and compares both byte for byte.
stderr is not part of the contract.

After an intended output change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from fairdiv.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"

#: Input instances: file name -> ``fairdiv gen`` arguments that made it.
INSTANCES = {
    "mixed.json": ["--family", "additive-mixed", "--agents", "3", "--items", "5", "--seed", "4"],
    "chores.json": ["--family", "additive-chores", "--agents", "3", "--items", "5", "--seed", "3"],
    "rescaled.json": [
        "--family", "additive-chores", "--agents", "3", "--items", "4", "--seed", "9",
        "--rescale", "-12",
    ],
    "general.json": ["--family", "general-identical", "--agents", "3", "--items", "4", "--seed", "0"],
    "nonzero.json": [
        "--family", "general-identical-nonzero-marginal", "--agents", "2", "--items", "5",
        "--seed", "2",
    ],
    "identical.json": [
        "--family", "identical-additive", "--agents", "3", "--items", "6", "--seed", "5",
        "--low", "-3", "--high", "3", "--denominator", "2",
    ],
}

#: Input allocations: file name -> (instance file, assignment). Between
#: them the audits below fail every notion with every witness shape the
#: command line can print (an envious pair with no adjustment at all
#: cannot arise on a valid instance).
ALLOCATIONS = {
    "mixed-00000.json": ("mixed.json", (0, 0, 0, 0, 0)),
    "mixed-00001.json": ("mixed.json", (0, 0, 0, 0, 1)),
    "mixed-00010.json": ("mixed.json", (0, 0, 0, 1, 0)),
    "mixed-00100.json": ("mixed.json", (0, 0, 1, 0, 0)),
    "mixed-01201.json": ("mixed.json", (0, 1, 2, 0, 1)),
    "chores-00001.json": ("chores.json", (0, 0, 0, 0, 1)),
    "chores-21021.json": ("chores.json", (2, 1, 0, 2, 1)),
    "general-0011.json": ("general.json", (0, 0, 1, 1)),
    "general-0100.json": ("general.json", (0, 1, 0, 0)),
    "general-0120.json": ("general.json", (0, 1, 2, 0)),
    "rescaled-0112.json": ("rescaled.json", (0, 1, 1, 2)),
    "short.json": ("mixed.json", None),
}

LEXIMIN_METHODS = ("leximin", "leximin++", "leximin-gc")
WELFARE_METHODS = ("mnw-prime", "mnw-constrained")


def _path(name: str) -> str:
    return str(GOLDEN / name)


def _solve(instance: str, method: str, *extra: str) -> list[str]:
    return ["solve", "--instance", _path(instance), "--method", method, *extra]


def _audit(instance: str, allocation: str, *extra: str) -> list[str]:
    return ["audit", "--instance", _path(instance), "--allocation", _path(allocation), *extra]


def _search(family: str, n: int, m: int, seed: int, method: str, notions: str) -> list[str]:
    return [
        "search", "--family", family, "--agents", str(n), "--items", str(m),
        "--seed", str(seed), "--method", method, "--notions", notions, "--trials", "4",
    ]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, args in INSTANCES.items():
        cases[f"gen {name}"] = ["gen", *args]
    for instance in ("mixed.json", "chores.json", "rescaled.json", "general.json", "nonzero.json"):
        for method in LEXIMIN_METHODS:
            cases[f"solve {instance} {method}"] = _solve(instance, method)
    for instance in ("chores.json", "rescaled.json", "mixed.json", "general.json"):
        for method in WELFARE_METHODS:
            cases[f"solve {instance} {method}"] = _solve(instance, method)
    for instance in ("identical.json", "mixed.json", "general.json"):
        cases[f"solve {instance} alg-identical"] = _solve(instance, "alg-identical")
    cases["solve identical.json alg-identical --trace"] = _solve(
        "identical.json", "alg-identical", "--trace"
    )
    cases["solve chores.json leximin --trace"] = _solve("chores.json", "leximin", "--trace")
    cases["solve chores.json leximin --max-space 10"] = _solve(
        "chores.json", "leximin", "--max-space", "10"
    )
    for allocation, (instance, _assignment) in ALLOCATIONS.items():
        cases[f"audit {allocation}"] = _audit(instance, allocation)
    cases["audit mixed-00000.json --max-space 10"] = _audit(
        "mixed.json", "mixed-00000.json", "--max-space", "10"
    )
    cases["audit chores-21021.json --max-space 10"] = _audit(
        "chores.json", "chores-21021.json", "--max-space", "10"
    )
    cases["audit rescaled-0112.json --notions prop1,po"] = _audit(
        "rescaled.json", "rescaled-0112.json", "--notions", "prop1,po"
    )
    cases["audit rescaled-0112.json --notions prop1,po --max-space 10"] = _audit(
        "rescaled.json", "rescaled-0112.json", "--notions", "prop1,po", "--max-space", "10"
    )
    cases["audit mixed-00001.json --notions po,efx"] = _audit(
        "mixed.json", "mixed-00001.json", "--notions", "po,efx"
    )
    cases["audit mixed-00001.json --notions ef,bogus"] = _audit(
        "mixed.json", "mixed-00001.json", "--notions", "ef,bogus"
    )
    cases["search chores mnw-constrained"] = _search(
        "additive-chores", 3, 4, 7, "mnw-constrained", "ef1,prop1"
    )
    cases["search chores leximin"] = _search("additive-chores", 3, 4, 7, "leximin", "prop1,po")
    cases["search mixed mnw-prime"] = _search("additive-mixed", 2, 3, 1, "mnw-prime", "ef")
    cases["search general leximin++"] = _search(
        "general-identical", 3, 4, 2, "leximin++", "efx,ef"
    )
    cases["search identical alg-identical"] = _search(
        "identical-additive", 3, 5, 8, "alg-identical", "efx,prop,po"
    )
    for name in ("table1", "mnw", "mnw2", "mnw3"):
        cases[f"fixture {name}"] = ["fixture", "--name", name]
    cases["fixture mnw --max-space 10"] = ["fixture", "--name", "mnw", "--max-space", "10"]
    return cases


CASES = _cases()


def _run(args: list[str]) -> dict:
    result = CliRunner().invoke(main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return {"exit_code": result.exit_code, "stdout": result.stdout}


def _load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout_and_exit_code(name):
    expected = _load_expected()[name]
    assert _run(CASES[name]) == expected


def test_golden_cases_match_the_recording():
    assert sorted(_load_expected()) == sorted(CASES)


def test_golden_audits_cover_every_witness():
    expected = _load_expected()
    shapes = set()
    for name in CASES:
        stdout = expected[name]["stdout"]
        if not name.startswith("audit") or not stdout:
            continue
        for row in json.loads(stdout):
            if row["witness"] is not None:
                shapes.add((row["notion"], row["holds"], row["witness"].get("side")))
    assert shapes >= {
        ("ef", False, None),
        ("ef1", False, None),
        ("efx", False, "good-removal"),
        ("efx", False, "chore-copy"),
        ("prop", False, None),
        ("prop1", False, None),
        ("po", False, None),
        ("po", None, None),
    }


def record() -> None:
    """Write the input files and record every case's stdout and exit code."""
    from fairdiv import Allocation, allocation_to_dict, instance_from_json
    from fairdiv.serialize import dumps

    GOLDEN.mkdir(exist_ok=True)
    for name, args in INSTANCES.items():
        (GOLDEN / name).write_text(_run(["gen", *args])["stdout"])
    for name, (instance, assignment) in ALLOCATIONS.items():
        inst = instance_from_json((GOLDEN / instance).read_text())
        if assignment is None:  # one bundle short of the agent count
            document = {"bundles": [list(inst.items)]}
        else:
            document = allocation_to_dict(inst, Allocation(inst.agents, assignment))
        (GOLDEN / name).write_text(dumps(document))
    recorded = {name: _run(args) for name, args in sorted(CASES.items())}
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
