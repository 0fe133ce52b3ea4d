"""The benchmark's workloads: closed loops of fairdiv CLI jobs built from a seed.

Each workload is a fixed list of jobs, each one ``python -m fairdiv.cli``
call. Everything a job reads comes from the workload seed: instance files
are drawn through ``fairdiv.generators.generate`` and written during set-up,
and ``search``/``gen`` seeds are drawn from the same stream. Only
``general-table``'s ``gen`` job generates inside a timed job, because
generating is the user-visible work there.

Why each workload exists:

* ``exhaustive``: every exhaustive solver at 10^5 to 10^6 allocations, so
  the enumeration kernel, the objective reduction and the Pareto filter do
  almost all the work.
* ``search-small``: the same solvers and audits on spaces of 729 to 6,561
  allocations, where per-instance fixed costs (generating, value tables,
  classifying, the non-PO checks, serializing witnesses) rival the loops.
* ``general-table``: one general-identical 2x16 instance (a 65,536-entry
  table, about 1 MB of JSON), where parsing, validation, classification and
  value tables dominate and the kernel visits only 65,536 allocations.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("exhaustive", "search-small", "general-table")

#: The seed whose outputs are recorded under ``perfbench/expected``.
DEFAULT_SEED = 1

#: Trials per ``search`` job; with five jobs a pass audits 500 instances.
SEARCH_TRIALS = 100

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass(frozen=True)
class Job:
    """One CLI call.

    ``args`` follow ``python -m fairdiv.cli`` and name files relative to the
    run's work directory. ``instance`` names the instance file the job reads
    or writes; ``allocation_out`` names the file the harness fills from this
    job's ``allocation`` before the next job runs. ``allocations`` counts the
    allocations the job enumerates (``search_space`` of a solve plus n^m for
    a PO audit) and ``trials`` the allocations it audits.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    instance: str | None = None
    allocation_out: str | None = None
    allocations: int = 0
    trials: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: tuple[Job, ...]
    #: Instance file name -> ``GeneratorConfig`` fields (agents, items,
    #: family, seed) that draw it.
    configs: dict

    def job_list_sha256(self) -> str:
        """Digest of the jobs and of the configs behind their instances."""
        listing = {
            "jobs": [[job.name, list(job.args)] for job in self.jobs],
            "configs": self.configs,
        }
        return hashlib.sha256(json.dumps(listing, sort_keys=True).encode()).hexdigest()


def _solve(name, instance, method, n, m, allocation_out=None):
    return Job(
        name=name,
        kind="solve",
        args=("solve", "--instance", instance, "--method", method),
        instance=instance,
        allocation_out=allocation_out,
        allocations=n**m,
    )


def _audit(name, instance, allocation, n, m):
    return Job(
        name=name,
        kind="audit",
        args=("audit", "--instance", instance, "--allocation", allocation),
        instance=instance,
        allocations=n**m,
        trials=1,
    )


def _exhaustive(rng):
    configs = {
        "mixed-3x11.json": (3, 11, "additive-mixed", rng.randrange(2**63)),
        "mixed-4x9.json": (4, 9, "additive-mixed", rng.randrange(2**63)),
        "chores-5x8.json": (5, 8, "additive-chores", rng.randrange(2**63)),
        "chores-4x9.json": (4, 9, "additive-chores", rng.randrange(2**63)),
    }
    jobs = [
        _solve("solve-leximin-3x11", "mixed-3x11.json", "leximin", 3, 11),
        _solve("solve-leximin++-4x9", "mixed-4x9.json", "leximin++", 4, 9),
        _solve("solve-leximin-gc-4x9", "mixed-4x9.json", "leximin-gc", 4, 9),
        _solve("solve-leximin-5x8", "chores-5x8.json", "leximin", 5, 8),
        _solve("solve-mnw-prime-5x8", "chores-5x8.json", "mnw-prime", 5, 8),
        _solve(
            "solve-mnw-constrained-4x9", "chores-4x9.json", "mnw-constrained", 4, 9,
            allocation_out="chores-4x9.allocation.json",
        ),
        _audit("audit-mnw-constrained-4x9", "chores-4x9.json", "chores-4x9.allocation.json", 4, 9),
    ]
    for fixture in ("table1", "mnw", "mnw2", "mnw3"):
        jobs.append(Job(f"fixture-{fixture}", "fixture", ("fixture", "--name", fixture), trials=1))
    return configs, jobs


# (family, method, m): n is 3 throughout, so spaces run from 3^6 to 3^8.
_SEARCHES = (
    ("additive-mixed", "leximin-gc", 7),
    ("additive-chores", "mnw-prime", 6),
    ("additive-chores", "mnw-constrained", 7),
    ("identical-additive", "alg-identical", 8),
    ("general-identical-nonzero-marginal", "leximin++", 6),
)


def _search_small(rng):
    jobs = []
    for family, method, m in _SEARCHES:
        seed = rng.randrange(2**63)
        # alg-identical is greedy; only the PO audit enumerates.
        solves = 0 if method == "alg-identical" else 1
        jobs.append(
            Job(
                name=f"search-{method}-{family}-3x{m}",
                kind="search",
                args=(
                    "search", "--family", family, "--agents", "3", "--items", str(m),
                    "--seed", str(seed), "--method", method,
                    "--trials", str(SEARCH_TRIALS),
                ),
                allocations=SEARCH_TRIALS * (solves + 1) * 3**m,
                trials=SEARCH_TRIALS,
            )
        )
    return {}, jobs


def _general_table(rng):
    instance = "general-2x16.json"
    config = (2, 16, "general-identical", rng.randrange(2**63))
    gen = Job(
        name="gen-general-2x16",
        kind="gen",
        args=(
            "gen", "--family", config[2], "--agents", "2", "--items", "16",
            "--seed", str(config[3]), "--out", instance,
        ),
        instance=instance,
    )
    jobs = [
        gen,
        _solve(
            "solve-leximin++-2x16", instance, "leximin++", 2, 16,
            allocation_out="general-2x16.allocation.json",
        ),
        _audit("audit-leximin++-2x16", instance, "general-2x16.allocation.json", 2, 16),
    ]
    return {instance: config}, jobs


_BUILDERS = {
    "exhaustive": _exhaustive,
    "search-small": _search_small,
    "general-table": _general_table,
}


def build(name: str, seed: int) -> Workload:
    """The workload's jobs and instance configs for one seed."""
    configs, jobs = _BUILDERS[name](random.Random(seed))
    return Workload(name, seed, tuple(jobs), configs)


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json.gz"


def load_expected(workload: str) -> dict:
    """Recorded ``{"seed": seed, "jobs": {job name: {"exit", "stdout"}}}``."""
    with gzip.open(expected_path(workload), "rt") as handle:
        return json.load(handle)


def save_expected(workload: str, seed: int, outputs: dict) -> None:
    document = json.dumps({"seed": seed, "jobs": outputs}, indent=1, sort_keys=True)
    with open(expected_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(document.encode())
