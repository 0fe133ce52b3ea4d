"""The contract of fairdiv's immutable value records: construction by
position, keyword and default, the ``TypeError`` of a bad argument list,
immutability, equality within one class, hashing and the repr."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairdiv import (
    AdditiveValuation,
    Allocation,
    CheckResult,
    Ef1Witness,
    EfxWitness,
    EnvyWitness,
    FairnessReport,
    FixtureReport,
    GeneralIdenticalValuation,
    GuardWitness,
    Instance,
    ItemClassification,
    PoWitness,
    Prop1Witness,
    PropWitness,
    SearchReport,
    SolveResult,
    TraceStep,
    Verdict,
    Violation,
    WelfareScore,
)
from fairdiv.fixtures import FixtureSpec
from fairdiv.model import _Record

ROOT = Path(__file__).resolve().parent.parent

VALUATION = AdditiveValuation(((-1, -2),), 1)
INSTANCE = Instance(1, ("a", "b"), VALUATION)
ALLOCATION = Allocation(1, (0, 0))
RESULT = SolveResult(ALLOCATION, ((-3,),), None, 1, 1)
GUARD = GuardWitness(243, 10)
FAILS = CheckResult(Verdict.FAILS, GUARD)

#: Every record class with one valid value per field, in field order.
RECORDS = [
    (AdditiveValuation, {"scaled": ((-1, -2),), "scale": 1}),
    (GeneralIdenticalValuation, {"scaled": (0, 1), "scale": 2}),
    (Instance, {"agents": 1, "items": ("a", "b"), "valuation": VALUATION}),
    (ItemClassification, {"goods": (0,), "chores": (3,)}),
    (Allocation, {"agents": 2, "assignment": (1, 0)}),
    (
        SolveResult,
        {
            "allocation": ALLOCATION,
            "objective_vector": ((-3,),),
            "score": None,
            "tie_count": 1,
            "search_space": 1,
        },
    ),
    (EnvyWitness, {"i": 0, "j": 1, "own": Fraction(-2), "other": Fraction(-1)}),
    (
        EfxWitness,
        {
            "i": 0,
            "j": 1,
            "item": 2,
            "side": "good-removal",
            "own": Fraction(1),
            "adjusted": Fraction(3, 2),
        },
    ),
    (
        Ef1Witness,
        {"i": 1, "j": 0, "own": Fraction(1), "other": Fraction(4), "best_target": Fraction(2)},
    ),
    (PropWitness, {"agent": 0, "value": Fraction(-18), "threshold": Fraction(-11)}),
    (
        Prop1Witness,
        {
            "agent": 0,
            "value": Fraction(-18),
            "best_adjusted": Fraction(-12),
            "threshold": Fraction(-11),
        },
    ),
    (PoWitness, {"improvement": ALLOCATION}),
    (GuardWitness, {"search_space": 243, "limit": 10}),
    (CheckResult, {"verdict": Verdict.FAILS, "witness": GUARD}),
    (FairnessReport, {"results": (("po", FAILS),)}),
    (
        FixtureSpec,
        {
            "name": "one",
            "items": ("a", "b"),
            "rows": ((-1, "-2"),),
            "method": "leximin",
            "failure_notion": "prop1",
            "expected": {"tie_count": 1},
        },
    ),
    (
        FixtureReport,
        {
            "name": "one",
            "method": "leximin",
            "result": RESULT,
            "failure_notion": "prop1",
            "document": {"tie_count": 1},
        },
    ),
    (TraceStep, {"item": 1, "agent": 0, "utilities": (Fraction(-1), Fraction(0))}),
    (
        Violation,
        {
            "trial": 0,
            "seed": 7,
            "instance": INSTANCE,
            "allocation": ALLOCATION,
            "notion": "po",
            "result": FAILS,
        },
    ),
    (
        SearchReport,
        {"method": "leximin", "notions": ("po",), "trials": 1, "seed": 7, "violations": ()},
    ),
    (WelfareScore, {"nonzero_count": 2, "product": Fraction(6)}),
]

#: The fields that may be left out, with their defaults.
DEFAULTS = {CheckResult: {"witness": None}}


def _record_classes(base=_Record):
    for cls in base.__subclasses__():
        if not cls.__name__.startswith("_"):
            yield cls
        yield from _record_classes(cls)


def test_every_record_class_is_covered():
    assert sorted(c.__name__ for c in _record_classes()) == sorted(
        cls.__name__ for cls, _ in RECORDS
    )
    assert len(RECORDS) == 21


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_the_record_contract(cls, values):
    args = tuple(values.values())
    names = list(values)
    record = cls(*args)
    # construction by position, by keyword and with the defaults
    assert vars(record) == values and list(vars(record)) == names
    assert all(getattr(record, name) is entry for name, entry in values.items())
    assert cls(**values) == record
    assert cls(*args[:1], **dict(list(values.items())[1:])) == record
    defaults = DEFAULTS.get(cls, {})
    required = names[: len(names) - len(defaults)]
    assert names[len(required):] == list(defaults)
    bare = cls(*args[: len(required)])
    assert vars(bare) == {**dict(zip(required, args)), **defaults}

    # a bad argument list is a TypeError, as for any function call
    call = re.escape(f"{cls.__qualname__}.__init__()")
    with pytest.raises(TypeError, match=rf"^{call} missing {len(required)} required"):
        cls()
    if len(required) > 1:
        with pytest.raises(TypeError, match=rf"missing 1 required argument\(s\): '{required[-1]}'$"):
            cls(*args[: len(required) - 1])
    with pytest.raises(TypeError, match=rf"^{call} got an unexpected keyword argument 'bogus'$"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match=rf"^{call} got multiple values for argument '{names[0]}'$"):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match=rf"^{call} takes {len(names) + 1} positional arguments"):
        cls(*args, None)

    # immutable: no field, and no other attribute, can be set or deleted
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, args[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert vars(record) == values

    # equal only to a record of the same class with equal fields
    other = type("_Other", (cls,), {})(*args)
    assert record != other and other != record
    assert record != args and record != values
    assert not record == other and not (record != cls(*args))

    # equal records hash alike, as the tuple of their fields does
    try:
        expected = hash(args)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**values)) == expected

    # the repr names the class and every field in order
    fields = ", ".join(f"{name}={entry!r}" for name, entry in values.items())
    assert repr(record) == f"{cls.__qualname__}({fields})"

    # only welfare scores are ordered
    if cls is not WelfareScore:
        with pytest.raises(TypeError):
            record < record


def test_fields_come_from_annotations_bases_first():
    class _Point(_Record):
        x: int
        y: int = 5
        ORIGIN = 0  # no annotation, so no field

    class _Labelled(_Point):
        label: str = "p"

    assert _Labelled._fields == ("x", "y", "label")
    assert vars(_Labelled(1)) == {"x": 1, "y": 5, "label": "p"}
    assert vars(_Labelled(1, label="q", y=2)) == {"x": 1, "y": 2, "label": "q"}
    assert repr(_Labelled(1)) == (
        "test_fields_come_from_annotations_bases_first.<locals>._Labelled(x=1, y=5, label='p')"
    )
    assert _Point(1, 5) != _Labelled(1, 5, "p")


def test_records_differ_when_one_field_does():
    assert Allocation(2, (0, 1)) != Allocation(2, (1, 0))
    assert CheckResult(Verdict.HOLDS) != CheckResult(Verdict.HOLDS, GUARD)
    assert WelfareScore(2, Fraction(6)) != WelfareScore(2, Fraction(7))
    with pytest.raises(TypeError):
        WelfareScore(2, Fraction(6)) < (2, Fraction(7))


def test_generator_config_is_the_one_dataclass():
    # the records generate no code at import; GeneratorConfig, which
    # dataclasses.replace is applied to, stays a dataclass
    script = (
        "import dataclasses, sys\n"
        "import fairdiv.cli\n"
        "print(sorted({\n"
        "    f'{obj.__module__}.{obj.__qualname__}'\n"
        "    for name, module in list(sys.modules.items())\n"
        "    if name == 'fairdiv' or name.startswith('fairdiv.')\n"
        "    for obj in vars(module).values()\n"
        "    if isinstance(obj, type) and dataclasses.is_dataclass(obj)\n"
        "}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", script],
        env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "['fairdiv.generators.GeneratorConfig']\n"
