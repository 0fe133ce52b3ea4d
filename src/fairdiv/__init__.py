"""Exact solvers and auditors for allocating indivisible goods and chores.

Every computation is exact. The leximin and mnw-prime solvers enumerate
all n^m allocations, mnw-constrained builds the Pareto frontier one item
at a time, both under a configurable cap on n^m, and alg-identical is a
greedy that searches nothing. Fairness checks return re-verifiable
witnesses; seeded generators and pinned fixtures make results reproducible.

fairdiv computes on int64 arrays and Python integers only and never calls
BLAS, yet numpy's OpenBLAS starts one thread per core on load, and those
threads spin idle and cost CPU in every short ``fairdiv`` process. So when
importing fairdiv is what loads numpy, fairdiv first sets
``OPENBLAS_NUM_THREADS=1``. To keep other settings, set
``OPENBLAS_NUM_THREADS`` yourself, which fairdiv leaves as it is, or import
numpy before fairdiv, which leaves the environment untouched.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
del _os, _sys

from .audit import (
    NOTIONS,
    CheckResult,
    Ef1Witness,
    EfxWitness,
    EnvyWitness,
    FairnessReport,
    GuardWitness,
    PoWitness,
    Prop1Witness,
    PropWitness,
    Verdict,
    audit,
    check_EF,
    check_EF1,
    check_EFX,
    check_PO,
    check_PROP,
    check_PROP1,
)
from .enumeration import DEFAULT_MAX_SPACE, guard_search_space
from .errors import (
    FairdivError,
    FixtureMismatch,
    InvalidAllocation,
    InvalidInstance,
    MixedMonotonicity,
    NonzeroEmptySet,
    NotAdditive,
    NotChoresOnly,
    NotIdentical,
    SearchSpaceTooLarge,
    SignMismatch,
    ZeroTotal,
)
from .fixtures import FIXTURE_NAMES, FixtureReport, fixture_instance, run_fixture
from .generators import FAMILIES, GeneratorConfig, generate
from .greedy import TraceStep, alg_identical, alg_identical_trace
from .leximin import (
    SPEC_NAMES,
    UTILITY,
    UTILITY_GOODS,
    UTILITY_GOODS_CHORES,
    ObjectiveSpec,
    is_leximin_optimal,
    leximin_solve,
    objective,
    precedes,
    sorted_objectives,
)
from .methods import METHODS, solve_with_method
from .model import (
    AdditiveValuation,
    Allocation,
    Bundle,
    GeneralIdenticalValuation,
    Instance,
    ItemClassification,
    SolveResult,
    classify_items,
    format_value,
    parse_pair,
    parse_value,
    require_allocation,
    require_chores_only,
    rescale_common_total,
    validate_instance,
    value,
)
from .search import SearchReport, Violation, search_counterexamples
from .serialize import (
    MAX_GENERAL_ITEMS,
    allocation_from_dict,
    allocation_from_json,
    allocation_to_dict,
    allocation_to_json,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
)
from .welfare import (
    WelfareScore,
    constrained_mnw_solve,
    mnw_prime_solve,
    modified_nash_welfare,
    nash_prime_factors,
)

__version__ = "0.1.0"
