"""Timing spans around fairdiv's public functions, from outside the package.

Run as a script, this is the traced stand-in for ``python -m fairdiv.cli``:

    python perfbench/spans.py SPANS.json solve --instance x.json --method leximin

It imports the CLI, wraps every function in ``SPANS`` wherever a fairdiv
module bound it (module globals and module-level dicts such as
``audit._CHECKS``), runs the command, and writes the spans and counters to
``SPANS.json`` when the process ends. Spans stay in memory until then.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: (module, function) -> span name. Spans sit at each layer's public entry
#: points; per-allocation helpers are left alone so tracing stays cheap.
SPANS = {
    ("serialize", "instance_from_json"): "serialize.instance_from_json",
    ("serialize", "instance_to_dict"): "serialize.instance_to_dict",
    ("serialize", "allocation_from_dict"): "serialize.allocation_from_dict",
    ("serialize", "allocation_to_dict"): "serialize.allocation_to_dict",
    ("serialize", "dumps"): "serialize.dumps",
    ("model", "validate_instance"): "model.validate_instance",
    ("model", "classify_items"): "model.classify_items",
    ("enumeration", "exact_value_tables"): "enumeration.exact_value_tables",
    ("enumeration", "scaled_value_tables"): "enumeration.scaled_value_tables",
    ("leximin", "leximin_solve"): "leximin.leximin_solve",
    ("welfare", "mnw_prime_solve"): "welfare.mnw_prime_solve",
    ("welfare", "constrained_mnw_solve"): "welfare.constrained_mnw_solve",
    ("welfare", "_pareto_front_mask"): "welfare.pareto_filter",
    ("audit", "audit"): "audit.audit",
    ("audit", "check_EF"): "audit.check_ef",
    ("audit", "check_EF1"): "audit.check_ef1",
    ("audit", "check_EFX"): "audit.check_efx",
    ("audit", "check_PROP"): "audit.check_prop",
    ("audit", "check_PROP1"): "audit.check_prop1",
    ("audit", "check_PO"): "audit.check_po",
    ("greedy", "alg_identical_trace"): "greedy.alg_identical_trace",
    ("generators", "generate"): "generators.generate",
    ("methods", "solve_with_method"): "methods.solve_with_method",
    ("search", "search_counterexamples"): "search.search_counterexamples",
    ("fixtures", "run_fixture"): "fixtures.run_fixture",
}


def _count_bytes(counts, args, result):
    counts["serialize.bytes_out"] += len(result.encode())


def _count_frontier(counts, args, result):
    counts["welfare.distinct_vectors"] += len(args[0])
    counts["welfare.frontier_size"] += int(result.sum())


def _count_po(counts, args, result):
    """Allocations check_PO visited: all n^m when PO holds, else up to and
    including the canonical-first improvement it reports."""
    inst = args[0]
    if result.witness is None:
        counts["audit.po_visited"] += inst.agents**inst.m
        return
    index = 0
    for agent in result.witness.improvement.assignment:
        index = index * inst.agents + agent
    counts["audit.po_visited"] += index + 1


def _count_space(layer):
    def count(counts, args, result):
        counts[f"{layer}.allocations"] += result.search_space

    return count


COUNTERS = {
    "serialize.dumps": _count_bytes,
    "welfare.pareto_filter": _count_frontier,
    "audit.check_po": _count_po,
    "leximin.leximin_solve": _count_space("leximin"),
    "welfare.mnw_prime_solve": _count_space("welfare"),
    "welfare.constrained_mnw_solve": _count_space("welfare"),
}


class Recorder:
    """In-memory spans ``[name, start, end, parent index]`` and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cached: dict[str, object] = {}

    def wrap(self, name, fn, count=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, self.clock
        if hasattr(fn, "cache_info"):
            self.cached[name] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def document(self) -> dict:
        counts = dict(self.counts)
        for name, fn in self.cached.items():
            counts[f"{name}.misses"] = fn.cache_info().misses
        return {"spans": self.spans, "counts": counts}


def install(recorder: Recorder):
    """Wrap every ``SPANS`` function in each loaded fairdiv module that
    bound it by name, including values of module-level dicts.

    Returns a function that puts the originals back.
    """
    wrappers = {}
    for (module, attr), name in SPANS.items():
        fn = getattr(importlib.import_module(f"fairdiv.{module}"), attr)
        wrappers[id(fn)] = (fn, recorder.wrap(name, fn, COUNTERS.get(name)))
    patched = []

    def patch(container, key, value):
        found = wrappers.get(id(value))
        if found is not None and found[0] is value:
            container[key] = found[1]
            patched.append((container, key, value))

    for module_name, module in list(sys.modules.items()):
        if module_name != "fairdiv" and not module_name.startswith("fairdiv."):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            patch(namespace, key, value)
            if isinstance(value, dict):
                for inner_key, inner in list(value.items()):
                    patch(value, inner_key, inner)

    def restore():
        for container, key, value in reversed(patched):
            container[key] = value

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            child_start = max(spans[child][1], reach)
            child_end = min(spans[child][2], end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result


def search_trials(spans) -> list[float]:
    """Per-trial times inside ``search_counterexamples``: each trial is one
    ``solve_with_method`` call plus the ``audit`` call that follows it."""
    trials = []
    pending = {}
    for span in spans:
        name, start, end, parent = span
        if parent < 0 or spans[parent][0] != "search.search_counterexamples":
            continue
        if name == "methods.solve_with_method":
            pending[parent] = end - start
        elif name == "audit.audit" and parent in pending:
            trials.append(pending.pop(parent) + end - start)
    return trials


def main(argv: list[str]) -> None:
    out_path, cli_args = argv[0], argv[1:]
    from fairdiv import cli

    recorder = Recorder()
    install(recorder)
    try:
        cli.main(args=cli_args, prog_name="python -m fairdiv.cli")
    finally:
        with open(out_path, "w") as out:
            json.dump(recorder.document(), out)


if __name__ == "__main__":
    main(sys.argv[1:])
