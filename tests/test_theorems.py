"""The paper's EFX theorems on every shape with 2 to 5 agents and 0 to 8
items, a few seeded instances each (the acceptance tests stop at n <= 4
and m <= 8)."""

import pytest

from conftest import prefix_allocations
from fairdiv import (
    UTILITY,
    UTILITY_GOODS_CHORES,
    GeneratorConfig,
    alg_identical,
    alg_identical_trace,
    check_EFX,
    check_PO,
    generate,
    leximin_solve,
)

AGENTS = range(2, 6)
ITEMS = range(0, 9)
SEEDS = range(4)


def instances(family, n):
    for m in ITEMS:
        for seed in SEEDS:
            config = GeneratorConfig(agents=n, items=m, family=family, seed=100 * m + seed)
            yield config, generate(config)


@pytest.mark.parametrize("n", AGENTS)
def test_leximin_gc_is_EFX_for_general_identical_valuations(n):
    for config, inst in instances("general-identical", n):
        res = leximin_solve(inst, UTILITY_GOODS_CHORES)
        assert check_EFX(inst, res.allocation).holds, config


@pytest.mark.parametrize("n", AGENTS)
def test_leximin_is_EFX_and_PO_for_nonzero_marginals(n):
    for config, inst in instances("general-identical-nonzero-marginal", n):
        res = leximin_solve(inst, UTILITY)
        assert check_EFX(inst, res.allocation).holds, config
        assert check_PO(inst, res.allocation).holds, config


@pytest.mark.parametrize("n", AGENTS)
def test_every_greedy_prefix_is_EFX_for_identical_additive(n):
    for config, inst in instances("identical-additive", n):
        trace = alg_identical_trace(inst)
        for sub_inst, sub_alloc in prefix_allocations(inst, trace):
            assert check_EFX(sub_inst, sub_alloc).holds, config
        assert check_EFX(inst, alg_identical(inst)).holds, config
