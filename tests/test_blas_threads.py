"""Importing fairdiv asks OpenBLAS for one thread, unless the caller set a
value or loaded numpy first. Each case runs in a fresh interpreter whose
environment holds only PATH and PYTHONPATH, so no thread setting leaks in;
``-B`` keeps those interpreters from writing bytecode into ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

REPORT = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


def run(code: str, **env: str) -> str:
    clean = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC, **env}
    return subprocess.run(
        [sys.executable, "-B", "-c", code], env=clean, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
def test_import_leaves_one_thread_and_sets_one_openblas_thread():
    code = "import fairdiv, os; print(len(os.listdir('/proc/self/task')))\n" + REPORT
    assert run(code) == "1\n1\n"


def test_a_preset_value_is_left_unchanged():
    assert run("import fairdiv\n" + REPORT, OPENBLAS_NUM_THREADS="2") == "2\n"


def test_numpy_imported_first_leaves_the_environment_alone():
    assert run("import numpy, fairdiv\n" + REPORT) == "None\n"
