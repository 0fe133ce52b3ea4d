"""Random instance generation: determinism, ranges and validity."""

import hashlib
from fractions import Fraction

import pytest

from fairdiv import (
    FAMILIES,
    AdditiveValuation,
    GeneralIdenticalValuation,
    GeneratorConfig,
    classify_items,
    instance_to_json,
    generate,
    instance_from_json,
    rescale_common_total,
    validate_instance,
    value,
)


def cfg(**kw):
    base = dict(agents=3, items=5, family="additive-chores", seed=0)
    base.update(kw)
    return GeneratorConfig(**base)


def test_family_list():
    assert FAMILIES == (
        "additive-chores",
        "additive-mixed",
        "identical-additive",
        "general-identical",
        "general-identical-nonzero-marginal",
    )


def test_generation_is_deterministic():
    for family in FAMILIES:
        a = generate(cfg(family=family, items=4, seed=11))
        b = generate(cfg(family=family, items=4, seed=11))
        assert instance_to_json(a) == instance_to_json(b)
        c = generate(cfg(family=family, items=4, seed=12))
        assert instance_to_json(a) != instance_to_json(c)


def test_item_names():
    inst = generate(cfg(items=4))
    assert inst.items == ("o1", "o2", "o3", "o4")
    assert generate(cfg(items=0)).items == ()


def test_chores_family_stays_on_the_negative_grid():
    for seed in range(10):
        inst = generate(cfg(seed=seed, low=Fraction(-10), high=Fraction(10)))
        assert isinstance(inst.valuation, AdditiveValuation)
        for row in inst.valuation.matrix:
            for v in row:
                assert Fraction(-10) <= v <= Fraction(-1, 10)
                assert (v * 10).denominator == 1


def test_mixed_family_respects_bounds_and_hits_both_signs():
    signs = set()
    for seed in range(10):
        inst = generate(cfg(family="additive-mixed", seed=seed))
        for row in inst.valuation.matrix:
            for v in row:
                assert Fraction(-10) <= v <= Fraction(10)
                signs.add(v > 0)
                signs.add(v < 0)
    assert signs == {True, False}


def test_identical_family_rows_are_equal():
    inst = generate(cfg(family="identical-additive", seed=3))
    rows = inst.valuation.matrix
    assert all(row == rows[0] for row in rows)


def test_general_families_validate_and_anchor_at_zero():
    for family in ("general-identical", "general-identical-nonzero-marginal"):
        for seed in range(5):
            inst = generate(cfg(family=family, items=4, seed=seed))
            assert isinstance(inst.valuation, GeneralIdenticalValuation)
            validate_instance(inst)
            assert value(inst, 0, 0) == 0


def test_nonzero_marginal_family_has_strict_marginals():
    for seed in range(10):
        inst = generate(
            cfg(
                family="general-identical-nonzero-marginal",
                agents=2,
                items=3,
                seed=seed,
                weight_max=1,
                perturb_max=1,
            )
        )
        for item in range(inst.m):
            bit = 1 << item
            for mask in range(1 << inst.m):
                if mask & bit:
                    continue
                assert value(inst, 0, mask | bit) != value(inst, 0, mask)


def test_plain_general_family_can_produce_zero_marginals():
    inst = generate(
        cfg(
            family="general-identical",
            agents=2,
            items=3,
            seed=0,
            weight_max=1,
            perturb_max=1,
        )
    )
    found = False
    for item in range(inst.m):
        bit = 1 << item
        for mask in range(1 << inst.m):
            if not mask & bit and value(inst, 0, mask | bit) == value(inst, 0, mask):
                found = True
    assert found


def test_rescale_total_fixes_row_sums():
    inst = generate(cfg(seed=4, rescale_total=Fraction(-1)))
    for i in range(inst.agents):
        assert value(inst, i, inst.full_mask) == Fraction(-1)
    # chores stay chores after rescaling
    assert classify_items(inst).goods == (0, 0, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(family="uniform")
    with pytest.raises(ValueError):
        cfg(family="general-identical", items=17)
    with pytest.raises(ValueError):
        cfg(family="general-identical", rescale_total=Fraction(-1))
    with pytest.raises(ValueError):
        cfg(low=Fraction(3), high=Fraction(-3))
    with pytest.raises(ValueError):
        cfg(agents=0)
    with pytest.raises(ValueError):
        cfg(items=-1)
    with pytest.raises(ValueError):
        cfg(denominator=0)
    # a chores grid needs at least one value below zero
    with pytest.raises(ValueError):
        generate(cfg(low=Fraction(1), high=Fraction(10)))


@pytest.mark.parametrize("field", ["low", "high", "rescale_total"])
@pytest.mark.parametrize("bad", [-0.1, True, "-0.1.5"])
def test_config_rejects_a_value_that_is_not_exact(field, bad):
    with pytest.raises(ValueError):
        cfg(**{field: bad})


def test_config_parses_its_values_once():
    config = cfg(low="-1.5", high="1/2", rescale_total=-2)
    assert (config.low, config.high, config.rescale_total) == (
        Fraction(-3, 2),
        Fraction(1, 2),
        Fraction(-2),
    )
    inst = generate(cfg(agents=2, items=2, seed=1, rescale_total="-0.1"))
    plain = generate(cfg(agents=2, items=2, seed=1))
    assert inst == rescale_common_total(plain, Fraction(-1, 10))


@pytest.mark.parametrize(
    "family, options, digest",
    [
        (
            "general-identical",
            {},
            "eacd21d138298f61b13d046ea024ecfd1ec083ae0a11d5acc885aa852b40e9b3",
        ),
        (
            "general-identical-nonzero-marginal",
            {},
            "7fc1d9dc3e62e1c06f0d00d9ba61165e0aedf3fcb97e1b56400186ed56c86a8b",
        ),
        (
            "general-identical",
            {"perturb_max": 0},
            "a2b5374894acb8e4b01def7159d93f48756c802fe51dcc825849b18ce33110e2",
        ),
        (
            "general-identical",
            {"perturb_max": 1, "weight_max": 1},
            "53a0459fb321ec368322dcad9a6005b33129ad8ef99c71f09dec9007a368eaf1",
        ),
    ],
)
def test_sixteen_item_general_tables_keep_their_bytes(family, options, digest):
    text = instance_to_json(generate(GeneratorConfig(2, 16, family, 1, **options)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_reduced_general_table_equals_its_round_trip():
    # Every perturbation this seed draws is even, so the entries over
    # 2 * perturb_max = 4 share the factor 2 and are stored over scale 2.
    inst = generate(
        cfg(family="general-identical", agents=2, items=3, seed=32, perturb_max=2)
    )
    assert inst.valuation.scale == 2
    again = instance_from_json(instance_to_json(inst))
    assert again == inst
    assert hash(again) == hash(inst)
    exact = [value(inst, 0, mask) for mask in range(1 << inst.m)]
    assert GeneralIdenticalValuation.of(exact) == inst.valuation


def test_generated_instances_serialize_round_trip():
    for family in FAMILIES:
        inst = generate(cfg(family=family, items=4, seed=9))
        assert instance_from_json(instance_to_json(inst)) == inst
