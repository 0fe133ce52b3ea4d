"""fairdiv's benchmark: closed loops of CLI jobs, timed end to end and traced.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 36 --trace 0

Run from the repository root. One client runs one ``python -m fairdiv.cli``
process at a time, with ``src`` on ``PYTHONPATH``, and repeats the
workload's job list (a pass) for about ``--seconds``. Every job's exit code
and stdout go through the correctness gate in ``checks.py``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each the
median over passes. ``--trace 1`` alternates an untraced pass with a traced
one, where every job runs under ``spans.py``, and reports the per-layer
metrics; a traced job must print the same bytes as its untraced run.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Everything else, per-job resources, run
metadata and the full per-layer breakdown, goes to stderr and to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.

``--record-expected`` runs one pass at the default seed and rewrites the
recorded outputs in ``perfbench/expected`` that the gate compares against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Each job is killed once the run has lasted this long, so a hung program
#: cannot keep the benchmark past its time limit.
HARD_LIMIT_S = 170.0
#: Spawns of ``--help`` for ``setup_s`` before each pass, so the samples
#: spread over the run; the run starts with one more, untimed, to warm up.
SETUP_SAMPLES_PER_PASS = 3
#: ``-X importtime`` samples per traced run.
IMPORT_SAMPLES = 5


@dataclass
class JobRun:
    wall: float
    cpu: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    #: SHA-256 of the file a ``gen`` job wrote.
    written: str | None = None

    def key(self):
        return (self.exit_code, sha256(self.stdout), self.written)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Spawns jobs in the work directory and reaps them with their rusage."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        self.timed_out = False

    def spawn(self, argv) -> JobRun:
        stdout_path = self.workdir / "stdout"
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - start, 0.0), self._time_out, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no job behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return JobRun(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            exit_code=proc.returncode,
            stdout=stdout_path.read_bytes(),
        )

    def _time_out(self, proc) -> None:
        self.timed_out = True
        proc.kill()

    def cli(self, args) -> list[str]:
        return [sys.executable, "-m", "fairdiv.cli", *args]

    def traced(self, args, spans_path: Path) -> list[str]:
        return [sys.executable, str(HERE / "spans.py"), str(spans_path), *args]

    def helper(self, step: str, workload, *extra) -> dict:
        """Run one ``checks.py`` step and return the JSON it prints."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "checks.py"), step, workload.name,
             str(workload.seed), str(self.workdir), *extra],
            cwd=self.workdir, env=self.env, capture_output=True, text=True,
            timeout=max(self.deadline - time.perf_counter(), 1.0),
        )
        if proc.returncode != 0:
            raise SystemExit(f"checks.py {step} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout)

    def stderr_tail(self) -> str:
        return (self.workdir / "stderr").read_text(errors="replace")[-2000:]


def measure_setup(runner: Runner, samples: int) -> list[float]:
    """Spawn-to-exit times of a CLI process that only prints ``--help``."""
    times = []
    for _ in range(samples):
        run = runner.spawn(runner.cli(["--help"]))
        if run.exit_code != 0 or not run.stdout.startswith(b"Usage:"):
            raise SystemExit(f"fairdiv.cli --help failed:\n{runner.stderr_tail()}")
        times.append(run.wall)
    return times


def import_times(runner: Runner) -> dict:
    """``python -X importtime -c "import fairdiv.cli"``, medians in seconds."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fairdiv.cli"],
            cwd=runner.workdir, env=runner.env, capture_output=True, text=True, check=True,
        )
        samples.append(parse_importtime(proc.stderr))
    return medians(samples)


def parse_importtime(text: str) -> dict:
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if cumulative_us.strip().isdigit():
            cumulative[name.strip()] = int(cumulative_us) / 1e6
    return {
        # `import fairdiv.cli` loads the package first, then the CLI module.
        "cli.import_s": cumulative["fairdiv"] + cumulative["fairdiv.cli"],
        "cli.import.numpy_s": cumulative["numpy"],
        "cli.import.click_s": cumulative["click"],
    }


class Gate:
    """Collects every run's output; the first run of each job is checked in
    full by ``checks.py``, and every later run, traced ones included, must
    repeat it byte for byte."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[str, JobRun] = {}
        self.keys: dict[str, list] = {job.name: [] for job in workload.jobs}

    def observe(self, job, run: JobRun, label: str) -> None:
        self.first.setdefault(job.name, run)
        self.keys[job.name].append((label, run.key()))

    def save_first(self, workdir: Path) -> None:
        """Write the first runs where ``checks.py verify`` reads them."""
        (workdir / "first").mkdir(exist_ok=True)
        index = {}
        for number, (name, run) in enumerate(self.first.items()):
            stdout_file = f"first/{number}.out"
            (workdir / stdout_file).write_bytes(run.stdout)
            index[name] = {"exit": run.exit_code, "stdout_file": stdout_file, "written": run.written}
        (workdir / "first.json").write_text(json.dumps(index))

    def count(self, reasons: dict) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages), given why first runs were wrong."""
        attempted = failed = 0
        messages = [f"{name}: {reason}" for name, reason in reasons.items()]
        for job in self.workload.jobs:
            runs = self.keys[job.name]
            attempted += len(runs)
            for label, key in runs:
                if job.name in reasons or key != runs[0][1]:
                    failed += 1
                    if job.name not in reasons:
                        messages.append(f"{job.name}: {label} run differs from the first run")
        return attempted, failed, messages


@dataclass
class TracedPass:
    """Spans of one traced pass, aggregated over its jobs."""

    self_s: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    trials: list = field(default_factory=list)

    def add(self, document: dict) -> None:
        spans_list = document["spans"]
        for span, own in zip(spans_list, spans.self_times(spans_list)):
            self.self_s[span[0]] += own
            self.total_s[span[0]] += span[2] - span[1]
            self.calls[span[0]] += 1
        self.counts.update(document["counts"])
        self.trials.extend(spans.search_trials(spans_list))


def run_pass(workload, runner: Runner, gate: Gate, label: str, traced: TracedPass | None):
    runs = []
    for job in workload.jobs:
        if traced is None:
            run = runner.spawn(runner.cli(job.args))
        else:
            spans_path = runner.workdir / "spans.json"
            run = runner.spawn(runner.traced(job.args, spans_path))
            if spans_path.exists():
                traced.add(json.loads(spans_path.read_text()))
                spans_path.unlink()
        if job.kind == "gen":
            written = runner.workdir / job.instance
            run.written = sha256(written.read_bytes()) if written.exists() else None
        gate.observe(job, run, label)
        if job.allocation_out:
            write_allocation(runner.workdir / job.allocation_out, run.stdout)
        runs.append(run)
        if runner.timed_out:
            break
    return runs


def write_allocation(path: Path, stdout: bytes) -> None:
    """Hand a solve's allocation to the audit that follows it."""
    try:
        bundles = json.loads(stdout)["allocation"]["bundles"]
    except (ValueError, KeyError, TypeError):
        path.unlink(missing_ok=True)  # the audit then fails, and so does the gate
        return
    path.write_text(json.dumps({"bundles": bundles}))


def end_to_end(workload, runs) -> dict:
    wall = sum(run.wall for run in runs)
    return {
        "wall_s": wall,
        "cpu_s": sum(run.cpu for run in runs),
        "peak_rss_mb": max(run.maxrss_kb for run in runs) / 1024,
        "allocations_per_s": sum(job.allocations for job in workload.jobs) / wall,
        "trials_per_s": sum(job.trials for job in workload.jobs) / wall,
    }


def _share(traced: TracedPass, wall: float, names) -> float:
    return sum(traced.self_s[name] for name in names) / wall


def per_layer(traced: TracedPass, traced_wall: float, untraced_wall: float, imports: dict) -> dict:
    self_s, counts = traced.self_s, traced.counts
    metrics = dict(imports)
    for name in spans.SPANS.values():
        metrics[f"{name}_s"] = self_s[name]
        metrics[f"{name}.total_s"] = traced.total_s[name]
        metrics[f"{name}.calls"] = traced.calls[name]
    value_tables = ("enumeration.exact_value_tables", "enumeration.scaled_value_tables")
    welfare_solves = ("welfare.mnw_prime_solve", "welfare.constrained_mnw_solve")
    distinct = counts["welfare.distinct_vectors"]
    leximin_s = self_s["leximin.leximin_solve"]
    welfare_s = sum(self_s[name] for name in welfare_solves)
    metrics.update({
        "serialize.bytes_out": counts["serialize.bytes_out"],
        "model.classify_items.misses": counts["model.classify_items.misses"],
        "enumeration.value_tables_s": sum(self_s[name] for name in value_tables),
        "leximin.allocations_per_s": counts["leximin.allocations"] / leximin_s if leximin_s else 0.0,
        "welfare.allocations_per_s": counts["welfare.allocations"] / welfare_s if welfare_s else 0.0,
        "welfare.distinct_vectors": distinct,
        "welfare.frontier_size": counts["welfare.frontier_size"],
        "welfare.frontier_ratio": counts["welfare.frontier_size"] / distinct if distinct else 0.0,
        "audit.po_visited": counts["audit.po_visited"],
        "search.trial_s": statistics.median(traced.trials) if traced.trials else 0.0,
        "search.trial_max_s": max(traced.trials, default=0.0),
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.unattributed_s": traced_wall - sum(self_s.values()),
    })
    # The shares each workload's rationale rests on, of traced wall time.
    layers = {module.split(".")[0] for module in spans.SPANS.values()}
    by_layer = {layer: [n for n in spans.SPANS.values() if n.startswith(layer + ".")] for layer in layers}
    non_po = [f"audit.check_{notion}" for notion in ("ef", "ef1", "efx", "prop", "prop1")]
    metrics["share.leximin_welfare"] = _share(traced, traced_wall, by_layer["leximin"] + by_layer["welfare"])
    metrics["share.model_serialize_value_tables"] = _share(
        traced, traced_wall, by_layer["model"] + by_layer["serialize"] + list(value_tables)
    )
    metrics["share.fixed_costs"] = _share(
        traced, traced_wall,
        list(value_tables) + non_po + by_layer["generators"] + by_layer["serialize"],
    )
    for layer, names in sorted(by_layer.items()):
        metrics[f"layer.{layer}_s"] = sum(self_s[name] for name in names)
    return metrics


def medians(samples: list[dict]) -> dict:
    """Per-metric medians; counts stay whole numbers."""
    result = {}
    for name in samples[0]:
        values = [sample[name] for sample in samples]
        exact = all(isinstance(value, int) for value in values)
        result[name] = (statistics.median_low if exact else statistics.median)(values)
    return result


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio")) or name.startswith("share."):
        return "ratio"
    return "count"


def metadata(workload, prepared, gate, loadavg_1m: float) -> dict:
    instance_sha = dict(prepared["instance_sha256"])
    for job in workload.jobs:
        if job.kind == "gen" and job.name in gate.first:
            instance_sha[job.instance] = gate.first[job.name].written
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "job_list_sha256": workload.job_list_sha256(),
        "instance_sha256": instance_sha,
        "python": sys.version.split()[0],
        "numpy": prepared["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": loadavg_1m,
    }


def per_job(workload, runs_by_pass) -> dict:
    table = {}
    for index, job in enumerate(workload.jobs):
        runs = [runs[index] for runs in runs_by_pass if index < len(runs)]
        if runs:
            table[job.name] = {
                "wall_s": statistics.median(run.wall for run in runs),
                "cpu_s": statistics.median(run.cpu for run in runs),
                "maxrss_mb": max(run.maxrss_kb for run in runs) / 1024,
                "exit": runs[0].exit_code,
                "stdout_bytes": len(runs[0].stdout),
            }
    return table


def report_to_stderr(meta, jobs, metrics) -> None:
    print(f"# {meta['workload']} seed {meta['seed']}, python {meta['python']}, "
          f"numpy {meta['numpy']}, nproc {meta['nproc']}, load {meta['loadavg_1m_at_start']:.2f}",
          file=sys.stderr)
    for name, row in jobs.items():
        print(f"  {name:48s} {row['wall_s']:8.3f} s  cpu {row['cpu_s']:7.3f} s  "
              f"rss {row['maxrss_mb']:6.1f} MB  exit {row['exit']}", file=sys.stderr)
    for name, value in sorted(metrics.items()):
        print(f"  {name:48s} {value:14.6g} {unit_of(name)}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a SIGTERM into SystemExit, so the running job is stopped and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fairdiv" / "cli.py").is_file():
        print(f"error: no fairdiv sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = workloads.DEFAULT_SEED if args.record_expected else args.seed
    workload = workloads.build(args.workload, seed)
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, bench, workload, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, bench, workload, workdir: Path, started: float) -> int:
    loadavg_1m = os.getloadavg()[0]
    runner = Runner(workdir, started + HARD_LIMIT_S)
    prepared = runner.helper("inputs", workload)
    gate = Gate(workload)
    measure_setup(runner, 1)  # compiles the bytecode, as a user's first call would
    imports = import_times(runner) if args.trace else {}

    setup, untraced_runs, e2e_samples, layer_samples = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setup += measure_setup(runner, SETUP_SAMPLES_PER_PASS)
        runs = run_pass(workload, runner, gate, "untraced", None)
        untraced_runs.append(runs)
        if runner.timed_out:
            break
        e2e_samples.append(end_to_end(workload, runs))
        if args.trace:
            traced = TracedPass()
            traced_runs = run_pass(workload, runner, gate, "traced", traced)
            if runner.timed_out:
                break
            layer_samples.append(per_layer(
                traced, sum(run.wall for run in traced_runs),
                sum(run.wall for run in runs), imports,
            ))
        # Start another round while more than half of one as long as the
        # last still fits, so a run measures about --seconds.
        now = time.perf_counter()
        if args.record_expected or now - start + (now - round_start) / 2 > args.seconds:
            break

    gate.save_first(workdir)
    reasons = runner.helper("verify", workload, *(["--recording"] if args.record_expected else []))
    attempted, failed, messages = gate.count(reasons)
    if runner.timed_out:
        messages.append(f"a job was killed after {HARD_LIMIT_S:.0f} s")
        failed += 1
    correct = failed == 0
    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)

    if args.record_expected:
        if not correct:
            print("error: not recording outputs that fail the checks", file=sys.stderr)
            return 1
        workloads.save_expected(workload.name, workload.seed, {
            job.name: {"exit": run.exit_code, "stdout": run.stdout.decode()}
            for job, run in zip(workload.jobs, untraced_runs[0])
        })
        print(f"recorded {workloads.expected_path(workload.name)}", file=sys.stderr)
        return 0

    meta = metadata(workload, prepared, gate, loadavg_1m)
    jobs = per_job(workload, untraced_runs)
    e2e = medians(e2e_samples) if e2e_samples else {}
    e2e["setup_s"] = statistics.median(setup)
    layers = medians(layer_samples) if layer_samples else {}
    detail = {
        "metadata": meta,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": messages,
        "setup_samples_s": setup,
        "passes": len(untraced_runs),
        "jobs": jobs,
        "end_to_end": e2e,
        "per_layer": layers,
        "per_pass_end_to_end": e2e_samples,
    }
    (OUT / f"{workload.name}-seed{workload.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    report_to_stderr(meta, jobs, layers if args.trace else e2e)

    chosen = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {}
    for metric in chosen:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        else:
            correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
