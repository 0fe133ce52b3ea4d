"""Counterexample search: run a solver over a seeded instance stream and
audit its output.

Per-trial seeds are drawn once from the config seed, so the whole run is
reproducible and every reported violation can be re-verified from the
report alone. Each trial's instance is generated when the trial runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .audit import CheckResult, Verdict, audit, require_notions
from .generators import GeneratorConfig, generate
from .methods import require_method, solve_with_method
from .model import Allocation, Instance
from .serialize import allocation_to_dict, instance_to_dict


@dataclass(frozen=True)
class Violation:
    """One audited failure: enough data to replay it exactly."""

    trial: int
    seed: int
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
    max_space: int | None = None,
) -> SearchReport:
    """Audit ``method`` over ``trials`` generated instances.

    ``trials`` must not be negative. An unknown method or notion raises
    ``ValueError`` before the first trial. Notions whose check exceeds the
    search cap are reported as not-applicable by the audit and never
    counted as violations.
    """
    if trials < 0:
        raise ValueError(f"trials cannot be negative, got {trials}")
    notions = tuple(notions)
    require_method(method)
    require_notions(notions)
    rng = random.Random(config.seed)
    trial_seeds = [rng.randrange(2**63) for _ in range(trials)]
    violations = []
    for trial, seed in enumerate(trial_seeds):
        inst = generate(replace(config, seed=seed))
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
