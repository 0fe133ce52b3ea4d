"""Registry mapping method names to solvers, shared by the harness and
the command line."""

from __future__ import annotations

from .greedy import alg_identical_trace, greedy_result
from .leximin import SPEC_NAMES, leximin_solve
from .model import Instance, SolveResult
from .welfare import constrained_mnw_solve, mnw_prime_solve

METHODS = (*SPEC_NAMES, "mnw-prime", "mnw-constrained", "alg-identical")


def require_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` names a solver."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")


def solve_with_method(
    inst: Instance, method: str, max_space: int | None = None
) -> SolveResult:
    """Run the named solver; the greedy method's result is
    :func:`greedy.greedy_result`."""
    require_method(method)
    if method in SPEC_NAMES:
        return leximin_solve(inst, SPEC_NAMES[method], max_space)
    if method == "mnw-prime":
        return mnw_prime_solve(inst, max_space)
    if method == "mnw-constrained":
        return constrained_mnw_solve(inst, max_space)
    return greedy_result(inst, alg_identical_trace(inst))
