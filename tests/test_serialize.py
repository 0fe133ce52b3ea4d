"""JSON round-trips and document validation."""

import json
from unittest import mock

import pytest

from conftest import additive, general
from fairdiv import (
    Allocation,
    GeneratorConfig,
    InvalidAllocation,
    InvalidInstance,
    MixedMonotonicity,
    allocation_from_dict,
    allocation_from_json,
    allocation_to_dict,
    allocation_to_json,
    fixture_instance,
    generate,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    model,
)
from fairdiv.model import parse_pair
from fairdiv.serialize import dump, dumps


def test_additive_instance_round_trip():
    inst = fixture_instance("table1")
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst
    assert instance_to_json(again) == text


def test_a_value_past_the_digit_limit_round_trips_byte_exact():
    # the scale 10^4300 makes the scaled -1 a 4,301-digit integer
    matrix = [["1e-4300", "-1"], ["-2", "3"]]
    inst = instance_from_json(dumps({"agents": 2, "items": ["a", "b"], "valuation": {
        "type": "additive", "matrix": matrix}}))
    text = instance_to_json(inst)
    assert json.loads(text)["valuation"]["matrix"][0] == ["0." + "0" * 4299 + "1", "-1"]
    again = instance_from_json(text)
    assert again == inst
    assert instance_to_json(again) == text


def test_values_travel_as_exact_strings():
    doc = instance_to_dict(fixture_instance("table1"))
    assert doc["valuation"]["type"] == "additive"
    assert doc["valuation"]["matrix"][1][0] == "-18.1"
    assert doc["valuation"]["matrix"][0][0] == "-6"
    thirds = additive([("1/3", "-2/3")])
    assert instance_to_dict(thirds)["valuation"]["matrix"][0] == ["1/3", "-2/3"]


def test_general_instance_round_trip():
    inst = general(2, (0, 2, -1, 1))
    doc = instance_to_dict(inst)
    assert doc["valuation"]["type"] == "general-identical"
    assert instance_from_dict(doc) == inst


def test_load_validates_general_tables():
    doc = instance_to_dict(general(2, (0, 1, 0, -1)))
    with pytest.raises(MixedMonotonicity):
        instance_from_dict(doc)
    empty = instance_to_dict(general(1, (0, -1)))
    empty["valuation"]["table"][0] = "5"
    with pytest.raises(InvalidInstance):
        instance_from_dict(empty)


def test_general_item_cap():
    doc = {
        "agents": 1,
        "items": [f"o{j}" for j in range(17)],
        "valuation": {"type": "general-identical", "table": ["0"] * (1 << 17)},
    }
    with pytest.raises(InvalidInstance):
        instance_from_dict(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("agents"),
        lambda d: d.pop("valuation"),
        lambda d: d["valuation"].pop("type"),
        lambda d: d["valuation"].update(type="mystery"),
        lambda d: d.update(agents=True),
        lambda d: d.update(agents=2.0),
        lambda d: d.update(items=["a", 3]),
        lambda d: d.update(items="ab"),
        lambda d: d["valuation"].pop("matrix"),
        lambda d: d["valuation"].update(matrix=["-1", "-2"]),
        lambda d: d["valuation"].update(type="general-identical"),
        lambda d: d["valuation"].update(type="general-identical", table=None),
        lambda d: d["valuation"].update(type="general-identical", table="0000"),
        lambda d: d["valuation"].update(matrix=[[0.5]]),
        lambda d: d["valuation"].update(matrix=[["x"]]),
        lambda d: d["valuation"].update(matrix=[[True]]),
        lambda d: d["valuation"].update(matrix=[[None]]),
        lambda d: d["valuation"].update(type="general-identical", table=["0", [1], "0", "0"]),
        lambda d: d["valuation"].update(type="general-identical", table=["0", "1/0", "0", "0"]),
        lambda d: d["valuation"].update(type="general-identical", table=["0", "x", "0"]),
        # a string row would otherwise be read one character per entry
        lambda d: d["valuation"].update(matrix=["12"]),
        lambda d: d.update(agents=0, valuation={"type": "general-identical", "table": ["0"] * 4}),
    ],
)
def test_malformed_instance_documents(mutate):
    doc = instance_to_dict(additive([(-1, -2)]))
    mutate(doc)
    with pytest.raises(InvalidInstance):
        instance_from_dict(doc)


def test_a_table_of_the_wrong_length_is_refused_before_any_entry_is_read():
    doc = {
        "agents": 2,
        "items": [f"o{j}" for j in range(16)],
        "valuation": {"type": "general-identical", "table": ["0", "x"] * (1 << 14)},
    }
    with mock.patch.object(model, "parse_pair", wraps=parse_pair) as parse:
        with pytest.raises(InvalidInstance, match="expected a table of 65536 values, got 32768"):
            instance_from_dict(doc)
    assert parse.call_count == 0


def test_allocation_round_trip():
    inst = fixture_instance("mnw2")
    alloc = Allocation(3, (0, 0, 0, 1, 2))
    doc = allocation_to_dict(inst, alloc)
    assert doc == {"bundles": [["a", "b", "c"], ["d"], ["e"]]}
    assert allocation_from_dict(inst, doc) == alloc
    assert allocation_from_json(inst, allocation_to_json(inst, alloc)) == alloc


@pytest.mark.parametrize(
    "bundles",
    [
        [["a", "b"]],  # wrong bundle count
        [["a"], ["a"]],  # item twice
        [["a"], []],  # item missing
        [["a"], ["z"]],  # unknown item
        [["a", "a", "b"], []],  # item twice in one bundle
        5,  # not a list
        None,
        ["ab", []],  # a string, not a list of names
        {"a": 0, "b": 0},
    ],
)
def test_malformed_allocation_documents(bundles):
    inst = additive([(-1, -2), (-1, -2)])
    with pytest.raises(InvalidAllocation):
        allocation_from_dict(inst, {"bundles": bundles})
    with pytest.raises(InvalidAllocation):
        allocation_from_dict(inst, {})


def test_serialization_is_deterministic():
    inst = fixture_instance("mnw3")
    assert instance_to_json(inst) == instance_to_json(inst)
    assert instance_to_json(inst).endswith("\n")
    json.loads(instance_to_json(inst))


def test_dump_writes_the_text_of_dumps_in_pieces():
    document = instance_to_dict(generate(GeneratorConfig(2, 12, "general-identical", 2)))
    parts = []
    dump(document, parts.append)
    assert len(parts) > 2
    assert "".join(parts) == dumps(document) == json.dumps(document, indent=2) + "\n"
