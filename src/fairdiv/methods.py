"""Registry mapping method names to solvers, shared by the harness and
the command line."""

from __future__ import annotations

from .greedy import alg_identical
from .leximin import SPEC_NAMES, leximin_solve
from .model import Instance, SolveResult, value
from .welfare import constrained_mnw_solve, mnw_prime_solve

METHODS = (
    "leximin",
    "leximin++",
    "leximin-gc",
    "mnw-prime",
    "mnw-constrained",
    "alg-identical",
)


def solve_with_method(
    inst: Instance, method: str, max_space: int | None = None
) -> SolveResult:
    """Run the named solver.

    The greedy method is not enumerative; its result reports the final
    per-agent utilities as the objective vector, a tie count of 1 and a
    search space of 0.
    """
    if method in SPEC_NAMES:
        return leximin_solve(inst, SPEC_NAMES[method], max_space)
    if method == "mnw-prime":
        return mnw_prime_solve(inst, max_space)
    if method == "mnw-constrained":
        return constrained_mnw_solve(inst, max_space)
    if method == "alg-identical":
        allocation = alg_identical(inst)
        return SolveResult(
            allocation=allocation,
            objective_vector=tuple(
                value(inst, i, mask) for i, mask in enumerate(allocation.bundles())
            ),
            score=None,
            tie_count=1,
            search_space=0,
        )
    raise ValueError(f"unknown method {method!r}")
