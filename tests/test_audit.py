"""Fairness checks and their witnesses."""

import random
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from conftest import additive, general
from test_enumeration import additive_instances, fractions
from fairdiv import (
    AdditiveValuation,
    Allocation,
    Ef1Witness,
    EfxWitness,
    EnvyWitness,
    GuardWitness,
    PoWitness,
    Prop1Witness,
    PropWitness,
    SearchSpaceTooLarge,
    Verdict,
    audit,
    check_EF,
    check_EF1,
    check_EFX,
    check_PO,
    check_PROP,
    check_PROP1,
    classify_items,
    fixture_instance,
    Instance,
    validate_instance,
    value,
)
from fairdiv.audit import _CHECKS

TABLE1 = fixture_instance("table1")
CIRCLED1 = Allocation(5, (0, 0, 0, 1, 2, 3, 4))
MNW2 = fixture_instance("mnw2")
CIRCLED2 = Allocation(3, (0, 0, 0, 1, 2))


def random_instance(rng, n, m, lo=-9, hi=9):
    return additive([[rng.randint(lo, hi) or 1 for _ in range(m)] for _ in range(n)])


# ------------------------------------------------------------------- EF

def test_check_EF():
    res = check_EF(TABLE1, CIRCLED1)
    assert res.verdict is Verdict.FAILS
    assert res.witness == EnvyWitness(0, 1, Fraction(-18), Fraction(-9))
    assert check_EF(additive([(-1, -1), (-1, -1)]), Allocation(2, (0, 1))).holds


# ----------------------------------------------------------------- EFX

def test_check_EFX_holds_on_balanced_chores():
    inst = additive([(-1, -1), (-1, -1)])
    assert check_EFX(inst, Allocation(2, (0, 1))).holds


def test_check_EFX_chore_copy_witnesses():
    res = check_EFX(MNW2, CIRCLED2)
    assert res.verdict is Verdict.FAILS
    assert res.witness == EfxWitness(
        0, 1, 0, "chore-copy", Fraction(-8), Fraction(-5)
    )
    res1 = check_EFX(TABLE1, CIRCLED1)
    assert res1.witness == EfxWitness(
        0, 1, 0, "chore-copy", Fraction(-18), Fraction(-15)
    )


def test_check_EFX_good_removal_witness():
    inst = additive([(1, 5, 4), (1, 5, 4)])
    res = check_EFX(inst, Allocation(2, (0, 1, 1)))
    assert res.verdict is Verdict.FAILS
    assert res.witness == EfxWitness(
        0, 1, 1, "good-removal", Fraction(1), Fraction(4)
    )


def test_check_EFX_single_agent():
    assert check_EFX(additive([(-5, 3)]), Allocation(1, (0, 0))).holds


# ----------------------------------------------------------------- EF1

def test_check_EF1_weaker_than_EFX():
    # one chore copy cancels the envy, another does not
    inst = additive([(-1, -4, -3), (-1, -4, -3)])
    alloc = Allocation(2, (0, 0, 1))
    assert check_EF1(inst, alloc).holds
    efx = check_EFX(inst, alloc)
    assert efx.witness == EfxWitness(
        0, 1, 0, "chore-copy", Fraction(-5), Fraction(-4)
    )


def test_check_EF1_fails_on_mnw2():
    res = check_EF1(MNW2, CIRCLED2)
    assert res.verdict is Verdict.FAILS
    assert res.witness == Ef1Witness(
        0, 1, Fraction(-8), Fraction(-3), Fraction(-6)
    )


def test_check_EF1_fails_on_table1():
    # agent 0 envies agent 1 by 9 while every single adjustment moves the
    # target by at most 6, so no one-item fix exists
    res = check_EF1(TABLE1, CIRCLED1)
    assert res.verdict is Verdict.FAILS
    assert res.witness == Ef1Witness(
        0, 1, Fraction(-18), Fraction(-9), Fraction(-15)
    )
    # independent pairwise enumeration of the same definition: all items
    # are chores here, so the only adjustments copy one of i's chores
    bundles = CIRCLED1.bundles()
    failing = []
    for i, j in product(range(5), repeat=2):
        if i == j:
            continue
        own = value(TABLE1, i, bundles[i])
        if own >= value(TABLE1, i, bundles[j]):
            continue
        targets = [
            value(TABLE1, i, bundles[j] | (1 << k))
            for k in range(7)
            if bundles[i] >> k & 1
        ]
        if own < min(targets):
            failing.append((i, j, min(targets)))
    assert failing[0] == (0, 1, Fraction(-15))


# ----------------------------------------------------------- PROP, PROP1

def test_check_PROP():
    res = check_PROP(TABLE1, CIRCLED1)
    assert res.witness == PropWitness(0, Fraction(-18), Fraction(-11))
    assert check_PROP(additive([(-5, 3)]), Allocation(1, (0, 0))).holds
    assert check_PROP(additive([(-2, -2), (-2, -2)]), Allocation(2, (0, 1))).holds


def test_check_PROP1_fails_on_table1():
    res = check_PROP1(TABLE1, CIRCLED1)
    assert res.verdict is Verdict.FAILS
    assert res.witness == Prop1Witness(
        0, Fraction(-18), Fraction(-12), Fraction(-11)
    )


def test_check_PROP1_addition_clause_rescues():
    # agent 0 sits below the share, but adding the unowned good c clears it
    inst = additive([(-3, -3, 10), (0, 0, 10)])
    alloc = Allocation(2, (0, 0, 1))
    assert check_PROP(inst, alloc).witness == PropWitness(
        0, Fraction(-6), Fraction(2)
    )
    assert check_PROP1(inst, alloc).holds


def test_check_PROP1_fails_when_no_adjustment_reaches_share():
    inst = additive([(-10, 8, -10), (0, 0, 0)])
    res = check_PROP1(inst, Allocation(2, (0, 1, 0)))
    assert res.witness == Prop1Witness(
        0, Fraction(-20), Fraction(-10), Fraction(-6)
    )


def test_check_PROP1_single_agent_holds():
    assert check_PROP1(additive([(-5, -7)]), Allocation(1, (0, 0))).holds


# ------------------------------------------------------------------- PO

def po_oracle(inst, alloc):
    """Independent Pareto check: scan every allocation for a domination."""
    base = [value(inst, i, mask) for i, mask in enumerate(alloc.bundles())]
    n, m = inst.agents, inst.m
    for candidate in product(range(n), repeat=m):
        masks = [0] * n
        for j, agent in enumerate(candidate):
            masks[agent] |= 1 << j
        got = [value(inst, i, masks[i]) for i in range(n)]
        if all(g >= b for g, b in zip(got, base)) and got != base:
            return candidate
    return None


def test_check_PO_holds_on_mnw2_circles():
    assert po_oracle(MNW2, CIRCLED2) is None
    assert check_PO(MNW2, CIRCLED2).holds


def test_check_PO_swap_witness():
    inst = additive([(-1, -10), (-10, -1)])
    res = check_PO(inst, Allocation(2, (1, 0)))
    assert res.verdict is Verdict.FAILS
    assert res.witness.improvement.assignment == (0, 1)
    assert po_oracle(inst, Allocation(2, (1, 0))) == (0, 1)


def test_check_PO_identical_single_good():
    inst = additive([(1,), (1,)])
    assert check_PO(inst, Allocation(2, (0,))).holds
    assert check_PO(inst, Allocation(2, (1,))).holds


def test_check_PO_matches_oracle_on_random_instances():
    rng = random.Random(20240817)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(2, 3), rng.randint(1, 4))
        alloc = Allocation(
            inst.agents, tuple(rng.randrange(inst.agents) for _ in range(inst.m))
        )
        expected = po_oracle(inst, alloc)
        res = check_PO(inst, alloc)
        if expected is None:
            assert res.holds
        else:
            assert res.witness.improvement.assignment == expected


def test_check_PO_guard():
    inst = additive([[-1] * 10, [-1] * 10, [-1] * 10])
    with pytest.raises(SearchSpaceTooLarge):
        check_PO(inst, Allocation(3, (0,) * 10), max_space=100)


# ---------------------------------------------------------------- audit

def test_audit_report_shape_and_order():
    report = audit(MNW2, CIRCLED2, ("po", "ef1"))
    assert [name for name, _ in report.results] == ["po", "ef1"]
    assert report.result("po").holds
    assert report.result("ef1").verdict is Verdict.FAILS
    assert not report.all_hold
    rows = report.as_list(MNW2)
    assert rows[0] == {"notion": "po", "holds": True, "witness": None}
    assert rows[1]["holds"] is False
    assert rows[1]["witness"] == {
        "i": 0,
        "j": 1,
        "own": "-8",
        "other": "-3",
        "best_target": "-6",
    }
    with pytest.raises(KeyError):
        report.result("prop")


def test_audit_guard_becomes_not_applicable():
    inst = additive([[-1] * 5, [-1] * 5, [-1] * 5])
    report = audit(inst, Allocation(3, (0,) * 5), ("po", "prop"), max_space=10)
    res = report.result("po")
    assert res.verdict is Verdict.NOT_APPLICABLE
    assert res.witness == GuardWitness(243, 10)
    assert report.result("prop").verdict is Verdict.FAILS
    assert report.as_list(inst)[0]["holds"] is None


def test_audit_rejects_unknown_notion():
    with pytest.raises(ValueError):
        audit(MNW2, CIRCLED2, ("ef", "bogus"))


def test_audit_rejects_unknown_notion_before_any_check(monkeypatch):
    calls = []
    monkeypatch.setitem(_CHECKS, "ef", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="bogus"):
        audit(MNW2, CIRCLED2, ("ef", "bogus"))
    assert calls == []


def test_audit_rejects_a_repeated_notion_before_any_check(monkeypatch):
    calls = []
    monkeypatch.setitem(_CHECKS, "ef", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="notion 'ef' is repeated"):
        audit(MNW2, CIRCLED2, ("ef", "prop", "ef"))
    assert calls == []


@pytest.mark.parametrize(
    "notions, message",
    [
        ("ef", "not the string 'ef'"),
        ((["ef"],), r"notion \['ef'\] is not a string"),
        (("ef", 1), "notion 1 is not a string"),
        ((), "no notions to check"),
        ([], "no notions to check"),
    ],
)
def test_audit_rejects_a_string_a_non_string_or_no_notion(monkeypatch, notions, message):
    calls = []
    monkeypatch.setitem(_CHECKS, "ef", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        audit(MNW2, CIRCLED2, notions)
    assert calls == []


def test_implication_chains():
    # EF implies EFX implies EF1; PROP implies PROP1; additive EF implies PROP
    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(2, 3), rng.randint(1, 4))
        alloc = Allocation(
            inst.agents, tuple(rng.randrange(inst.agents) for _ in range(inst.m))
        )
        ef = check_EF(inst, alloc).holds
        efx = check_EFX(inst, alloc).holds
        ef1 = check_EF1(inst, alloc).holds
        if ef:
            assert efx
        if efx:
            assert ef1
        if check_PROP(inst, alloc).holds:
            assert check_PROP1(inst, alloc).holds
        if ef:
            assert check_PROP(inst, alloc).holds


def test_checks_work_on_general_valuations():
    inst = general(2, (0, -1, -1, -2))
    alloc = Allocation(2, (0, 1))
    assert check_EFX(inst, alloc).holds
    assert check_PROP(inst, alloc).holds
    assert check_PO(inst, alloc).holds


@st.composite
def general_audited(draw, denominators=(4, 5, 12, 2**70 + 1)):
    """A general table kept as ``Fraction``s, its item weights, the
    instance built from it and one allocation.

    Each bundle is worth its items' nonzero integer weights plus a bump of
    at most 1/4, whose denominator is one of ``denominators`` (each at
    least 4); a bump moves a marginal by at most 1/2, so every item keeps
    its weight's sign.
    """
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=m, max_size=m))
    bumps = st.builds(Fraction, st.integers(-1, 1), st.sampled_from(denominators))
    table = [Fraction(0)]
    for mask in range(1, 1 << m):
        table.append(sum(w for j, w in enumerate(weights) if mask >> j & 1) + draw(bumps))
    assignment = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return table, weights, general(n, table), Allocation(n, tuple(assignment))


@given(general_audited())
def test_general_witnesses_carry_the_exact_bundle_values(case):
    table, weights, inst, alloc = case
    validate_instance(inst)
    masks = alloc.bundles()
    n, m = inst.agents, inst.m
    share = table[-1] / n
    held = [table[mask] for mask in masks]  # anyone's value for each bundle
    envious = [(i, j) for i in range(n) for j in range(n) if held[i] < held[j]]
    results = dict(audit(inst, alloc, ("ef", "ef1", "efx", "prop", "prop1")).results)
    assert results["ef"].holds == (not envious)
    assert results["prop"].holds == all(own >= share for own in held)
    for notion, res in results.items():
        if res.holds:
            continue
        witness = res.witness
        if notion in ("prop", "prop1"):
            own = held[witness.agent]
            assert (witness.value, witness.threshold) == (own, share)
            if notion == "prop1":
                adjusted = [table[masks[witness.agent] ^ (1 << k)] for k in range(m)]
                assert witness.best_adjusted == max(adjusted + [own])
            continue
        i, j = witness.i, witness.j
        assert (i, j) in envious
        assert witness.own == held[i]
        # Removing one of j's goods, or copying one of i's chores onto j.
        targets = {}
        for k in range(m):
            if masks[j] >> k & 1 and weights[k] > 0:
                targets[k] = table[masks[j] & ~(1 << k)]
            elif masks[i] >> k & 1 and weights[k] < 0:
                targets[k] = table[masks[j] | 1 << k]
        if notion == "ef":
            assert (i, j) == envious[0] and witness.other == held[j]
        elif notion == "ef1":
            assert witness.other == held[j]
            assert witness.best_target == min(targets.values())
        else:
            assert witness.adjusted == targets[witness.item]


@st.composite
def monotone_instances(draw):
    """Up to 3 agents and 4 items: additive rows with zero and fractional
    entries, or a general table in which every item's marginal keeps one
    sign, often zero, over a nonzero empty-bundle value.

    The table is v(S) = v({}) + (floor(G / k) - floor(C / k)) / d, where
    G and C sum the positive weights and the negated negative weights of
    the items in S; an item of weight 0 has only zero marginals.
    """
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        row = st.lists(fractions(-3, 3), min_size=m, max_size=m)
        return additive(draw(st.lists(row, min_size=n, max_size=n)) if m else [()] * n)
    weights = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    empty = draw(st.sampled_from((-5, Fraction(-1, 2), 1, 5)))
    table = []
    for mask in range(1 << m):
        held = [w for j, w in enumerate(weights) if mask >> j & 1]
        goods, chores = sum(w for w in held if w > 0), sum(-w for w in held if w < 0)
        table.append(empty + Fraction(goods // k - chores // k, d))
    return general(n, table)


@given(monotone_instances())
def test_every_envious_pair_admits_an_adjustment(inst):
    # Each item is a good or a chore for i with marginals of one sign, so
    # if A_j held none of i's goods and A_i none of i's chores, then
    # v_i(A_i) >= v_i({}) >= v_i(A_j) and i would not envy j.
    tables = oracle.exact_tables(inst)
    for assignment in oracle.assignments(inst.agents, inst.m):
        masks = oracle.bundle_masks(assignment, inst.agents)
        for i, j, _, _ in oracle._envious(inst, tables, masks):
            assert oracle._adjustments(inst, tables, masks, i, j)


# ------------------------------------------------------------ rendering

def test_witness_rendering():
    inst = additive([(-1, 2, 3)])
    third = Fraction(1, 3)
    assert EnvyWitness(0, 1, Fraction(-1), third).as_dict(inst) == {
        "i": 0, "j": 1, "own": "-1", "other": "1/3",
    }
    efx = EfxWitness(0, 1, 2, "good-removal", Fraction(-1), Fraction(1, 2))
    assert efx.as_dict(inst) == {
        "i": 0, "j": 1, "item": "c", "side": "good-removal", "own": "-1", "adjusted": "0.5",
    }
    assert Ef1Witness(1, 0, Fraction(-1), third, third).as_dict(inst) == {
        "i": 1, "j": 0, "own": "-1", "other": "1/3", "best_target": "1/3",
    }
    assert PropWitness(2, Fraction(-3), third).as_dict(inst) == {
        "agent": 2, "value": "-3", "threshold": "1/3",
    }
    assert Prop1Witness(2, Fraction(-3), Fraction(-2), third).as_dict(inst) == {
        "agent": 2, "value": "-3", "best_adjusted": "-2", "threshold": "1/3",
    }
    assert PoWitness(Allocation(2, (1, 0, 1))).as_dict(inst) == {
        "improvement": [["b"], ["a", "c"]],
    }
    assert GuardWitness(243, 10).as_dict(inst) == {"search_space": 243, "limit": 10}


# ------------------------------------------------------------ metamorphic

@st.composite
def audited(draw, instances=additive_instances()):
    """An additive instance with n <= 4, m <= 6 and one of its allocations."""
    inst = draw(instances)
    owners = st.integers(0, inst.agents - 1)
    assignment = draw(st.lists(owners, min_size=inst.m, max_size=inst.m))
    return inst, Allocation(inst.agents, tuple(assignment))


def _outcome(inst, alloc):
    """Each notion's verdict, with its witness cut down to the fields that
    hold no value: agents, items, sides and improvements."""
    outcome = []
    for notion, res in audit(inst, alloc).results:
        shape = None
        if res.witness is not None:
            shape = [
                (field.name, getattr(res.witness, field.name))
                for field in fields(res.witness)
                if not isinstance(getattr(res.witness, field.name), Fraction)
            ]
        outcome.append((notion, res.verdict, shape))
    return outcome


@given(audited(), st.data())
def test_scaling_one_agent_keeps_every_verdict_and_witness(case, data):
    inst, alloc = case
    agent = data.draw(st.integers(0, inst.agents - 1))
    factor = data.draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
    rows = [list(row) for row in inst.valuation.matrix]
    rows[agent] = [entry * factor for entry in rows[agent]]
    assert _outcome(additive(rows), alloc) == _outcome(inst, alloc)


@given(audited(), st.data())
def test_relabelling_agents_keeps_every_verdict(case, data):
    inst, alloc = case
    order = data.draw(st.permutations(range(inst.agents)))  # new agent k was order[k]
    rows = [inst.valuation.matrix[old] for old in order]
    new_label = {old: new for new, old in enumerate(order)}
    relabelled = Allocation(inst.agents, tuple(new_label[a] for a in alloc.assignment))

    def verdicts(inst, alloc):
        return [res.verdict for _, res in audit(inst, alloc).results]

    assert verdicts(additive(rows), relabelled) == verdicts(inst, alloc)


def _reverify(inst, alloc, notion, witness, old):
    """Check a failing witness found with agents relabelled, agent k there
    being agent ``old[k]`` here, as a violation of ``inst`` under ``alloc``
    with the same exact values."""
    masks = alloc.bundles()
    if notion in ("prop", "prop1"):
        agent = old[witness.agent]
        own = value(inst, agent, masks[agent])
        share = value(inst, agent, inst.full_mask) / inst.agents
        assert (witness.value, witness.threshold) == (own, share)
        if notion == "prop1":
            flips = [value(inst, agent, masks[agent] ^ (1 << k)) for k in range(inst.m)]
            assert witness.best_adjusted == max([own] + flips)
            own = witness.best_adjusted
        assert own < share
        return
    i, j = old[witness.i], old[witness.j]
    own, other = value(inst, i, masks[i]), value(inst, i, masks[j])
    assert witness.own == own < other
    goods = classify_items(inst).goods[i]
    targets = {}  # removing one of j's goods, or copying one of i's chores onto j
    for k in range(inst.m):
        if masks[j] >> k & 1 and goods >> k & 1:
            targets[k] = value(inst, i, masks[j] & ~(1 << k))
        elif masks[i] >> k & 1 and not goods >> k & 1:
            targets[k] = value(inst, i, masks[j] | 1 << k)
    if notion == "ef":
        assert witness.other == other
    elif notion == "ef1":
        assert witness.other == other
        assert own < witness.best_target == min(targets.values())
    else:
        assert own < witness.adjusted == targets[witness.item]


@given(
    st.one_of(audited(), general_audited().map(lambda case: case[2:])),
    st.data(),
)
def test_relabelling_agents_maps_every_witness_back(case, data):
    inst, alloc = case
    order = data.draw(st.permutations(range(inst.agents)))  # new agent k was order[k]
    valuation = inst.valuation
    if isinstance(valuation, AdditiveValuation):
        rows = tuple(valuation.scaled[old] for old in order)
        valuation = AdditiveValuation(rows, valuation.scale)
    new_label = {old: new for new, old in enumerate(order)}
    relabelled = Allocation(inst.agents, tuple(new_label[a] for a in alloc.assignment))
    notions = ("ef", "ef1", "efx", "prop", "prop1")
    report = audit(Instance(inst.agents, inst.items, valuation), relabelled, notions)
    for notion, res in report.results:
        if not res.holds:
            _reverify(inst, alloc, notion, res.witness, order)


@given(audited(), st.data())
def test_permuting_items_keeps_every_verdict(case, data):
    inst, alloc = case
    order = data.draw(st.permutations(range(inst.m)))  # new item k was order[k]
    rows = [[row[old] for old in order] for row in inst.valuation.matrix]
    permuted = Allocation(inst.agents, tuple(alloc.assignment[old] for old in order))

    def verdicts(inst, alloc):
        return [res.verdict for _, res in audit(inst, alloc).results]

    assert verdicts(additive(rows), permuted) == verdicts(inst, alloc)


# ------------------------------------------------------- Fraction oracle

VALUE_CASES = st.one_of(
    audited(),  # mixed signs, denominators 1-3, m = 0 and n = 1 included
    audited(additive_instances(low=-3, high=0)),  # chores only
    general_audited((4, 5, 12, 2**70 + 1, 10**20 + 39)).map(lambda case: case[2:]),
)


@settings(max_examples=300)
@given(VALUE_CASES)
@example((additive([(), ()]), Allocation(2, ())))
@example((additive([(-1, 2, Fraction(-1, 3))]), Allocation(1, (0, 0, 0))))
@example((general(1, (0, Fraction(-1, 10**20 + 39))), Allocation(1, (0,))))
def test_value_checks_match_the_fraction_oracle(case):
    inst, alloc = case
    for notion, reference in oracle.VALUE_CHECKS.items():
        expected = reference(inst, alloc)
        (got,) = (res for _, res in audit(inst, alloc, (notion,)).results)
        assert got == expected
        assert repr(got) == repr(expected)  # the same types, Fractions included
