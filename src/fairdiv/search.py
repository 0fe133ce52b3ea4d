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
from .enumeration import require_max_space
from .generators import GeneratorConfig, generate
from .methods import require_method, solve_with_method
from .model import Allocation, Instance, _is_int
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
            "witness": self.result.witness.as_dict(self.instance),
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

    ``trials`` must be a nonnegative integer. An unknown method, notions
    that :func:`~fairdiv.audit.require_notions` refuses, or a ``max_space``
    that :func:`~fairdiv.enumeration.require_max_space` refuses raise
    ``ValueError`` before the first trial.
    Notions whose check exceeds the search cap are reported as
    not-applicable by the audit and never counted as violations.
    """
    if not _is_int(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 0:
        raise ValueError(f"trials cannot be negative, got {trials}")
    require_method(method)
    notions = require_notions(notions)
    require_max_space(max_space)
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
