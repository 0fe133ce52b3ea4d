"""The program entry ``fairdiv.cli.run``: it freezes the import-time heap
before ``main``, while imports and in-process ``main`` calls leave the
collector alone. Subprocesses run with ``-B`` and an environment of only
PATH and PYTHONPATH, so they write no bytecode into ``src``."""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from fairdiv import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

SEARCH = [
    "search",
    "--family", "additive-chores",
    "--agents", "3",
    "--items", "5",
    "--seed", "7",
    "--method", "mnw-constrained",
    "--notions", "ef1",
    "--trials", "5",
]


def python(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-B", *args],
        env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC},
        cwd=cwd,
        capture_output=True,
    )


def test_run_freezes_then_calls_main_with_the_same_arguments(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda **kwargs: calls.append(kwargs) or "result")
    args = ["fixture", "--name", "mnw"]
    assert cli.run(args=args, standalone_mode=False) == "result"
    assert calls == ["freeze", {"args": args, "standalone_mode": False}]


def test_import_and_in_process_main_leave_the_collector_alone():
    proc = python("-c", "import gc; import fairdiv.cli; print(gc.get_freeze_count())")
    assert proc.returncode == 0
    assert proc.stdout == b"0\n"
    before = gc.get_freeze_count()
    assert CliRunner().invoke(cli.main, ["fixture", "--name", "mnw"]).exit_code == 0
    assert gc.get_freeze_count() == before


def test_python_m_goes_through_run_and_still_runs_exit_handlers():
    # what `python -m fairdiv.cli --help` runs, with a handler that reports
    # at exit whether the heap was frozen
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['fairdiv', '--help']\n"
        "runpy.run_module('fairdiv.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"Usage: ")
    assert proc.stderr == b"True\n"


def test_the_installed_script_starts_in_run():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^fairdiv = "fairdiv\.cli:run"$', pyproject, re.MULTILINE)


@pytest.mark.parametrize(
    "args, code, size",
    [
        (["fixture", "--name", "mnw2"], 0, None),
        (SEARCH, 1, 1232),
        (["solve", "--instance", "missing.json", "--method", "leximin"], 2, 0),
    ],
    ids=["fixture", "search-violation", "missing-file"],
)
def test_python_m_prints_what_click_runner_prints(tmp_path, monkeypatch, args, code, size):
    monkeypatch.chdir(tmp_path)
    proc = python("-m", "fairdiv.cli", *args, cwd=tmp_path)
    res = CliRunner().invoke(cli.main, args)
    assert (proc.returncode, res.exit_code) == (code, code)
    assert proc.stdout == res.stdout_bytes
    if size is not None:
        assert len(proc.stdout) == size
    if code == 2:
        assert proc.stderr.decode() == res.stderr
