"""Counterexample search: run a solver over a seeded instance stream and
audit its output.

Per-trial seeds are drawn once from the config seed, so the whole run is
reproducible and every reported violation can be re-verified from the
report alone. Explicit instances can be prepended to the stream, which is
how known hard instances are replayed through the harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .audit import CheckResult, Verdict, audit
from .generators import GeneratorConfig, generate
from .methods import solve_with_method
from .model import Allocation, Instance
from .serialize import allocation_to_dict, instance_to_dict


@dataclass(frozen=True)
class Violation:
    """One audited failure: enough data to replay it exactly."""

    trial: int
    seed: int | None
    instance: Instance
    allocation: Allocation
    notion: str
    result: CheckResult

    def as_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "instance": instance_to_dict(self.instance),
            "allocation": allocation_to_dict(self.instance, self.allocation),
            "notion": self.notion,
            "witness": self.result.witness.as_dict(self.instance)
            if self.result.witness is not None
            else None,
        }


@dataclass(frozen=True)
class SearchReport:
    method: str
    notions: tuple[str, ...]
    trials: int
    seed: int
    violations: tuple[Violation, ...]

    @property
    def found(self) -> int:
        return len(self.violations)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "notions": list(self.notions),
            "trials": self.trials,
            "seed": self.seed,
            "violations": [violation.as_dict() for violation in self.violations],
        }


def search_counterexamples(
    config: GeneratorConfig,
    method: str,
    notions,
    trials: int,
    extra_instances=(),
    max_space: int | None = None,
) -> SearchReport:
    """Audit ``method`` over ``trials`` generated instances.

    ``extra_instances`` are run first, before the random stream, and do
    not count against ``trials``, which must not be negative. Notions
    whose check exceeds the search cap are reported as not-applicable by
    the audit and never counted as violations.
    """
    if trials < 0:
        raise ValueError(f"trials cannot be negative, got {trials}")
    notions = tuple(notions)
    rng = random.Random(config.seed)
    trial_seeds = [rng.randrange(2**63) for _ in range(trials)]
    stream: list[tuple[int | None, Instance]] = [
        (None, inst) for inst in extra_instances
    ]
    for seed in trial_seeds:
        stream.append((seed, generate(replace(config, seed=seed))))
    violations = []
    for trial, (seed, inst) in enumerate(stream):
        result = solve_with_method(inst, method, max_space)
        report = audit(inst, result.allocation, notions, max_space)
        for notion, check in report.results:
            if check.verdict is Verdict.FAILS:
                violations.append(
                    Violation(trial, seed, inst, result.allocation, notion, check)
                )
    return SearchReport(
        method=method,
        notions=notions,
        trials=trials,
        seed=config.seed,
        violations=tuple(violations),
    )
