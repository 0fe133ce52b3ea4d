"""JSON encoding and decoding for instances, allocations and reports.

All values travel as exact strings: a finite decimal where one exists,
otherwise "p/q". Serialization is deterministic, so equal objects always
produce byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidAllocation, InvalidInstance
from .model import (
    AdditiveValuation,
    Allocation,
    GeneralIdenticalValuation,
    Instance,
    format_table,
    format_value,
    parse_pair,
    validate_instance,
)

#: General valuation tables are dense, so the file format caps item count.
MAX_GENERAL_ITEMS = 16


def instance_to_dict(inst: Instance) -> dict:
    if isinstance(inst.valuation, AdditiveValuation):
        valuation = {
            "type": "additive",
            "matrix": [
                format_table(row, inst.valuation.scale) for row in inst.valuation.scaled
            ],
        }
    else:
        valuation = {
            "type": "general-identical",
            "table": format_table(inst.valuation.scaled, inst.valuation.scale),
        }
    return {
        "agents": inst.agents,
        "items": list(inst.items),
        "valuation": valuation,
    }


def _entries(valuation: dict, key: str) -> list:
    entries = valuation.get(key)
    if not isinstance(entries, list):
        raise InvalidInstance(
            f"{valuation['type']} valuation needs a list {key!r}, "
            f"got {type(entries).__name__}"
        )
    return entries


def _pairs(entries):
    """Each entry's :func:`parse_pair` in turn, a malformed one ending the read."""
    try:
        yield from map(parse_pair, entries)
    except ValueError as exc:
        raise InvalidInstance(f"malformed value entry: {exc}") from None


def _parse_instance(data: dict) -> Instance:
    """The instance a document describes, not yet validated."""
    try:
        agents = data["agents"]
        items = data["items"]
        valuation = data["valuation"]
        vtype = valuation["type"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"malformed instance document: {exc}") from None
    if not isinstance(agents, int) or isinstance(agents, bool):
        raise InvalidInstance("agents must be an integer")
    if not isinstance(items, list) or not all(isinstance(name, str) for name in items):
        raise InvalidInstance("items must be a list of strings")
    items = tuple(items)
    if vtype == "additive":
        rows = _entries(valuation, "matrix")
        if not all(isinstance(row, list) for row in rows):
            raise InvalidInstance("additive matrix rows must be lists")
        model = AdditiveValuation.from_pairs(_pairs(row) for row in rows)
    elif vtype == "general-identical":
        if len(items) > MAX_GENERAL_ITEMS:
            raise InvalidInstance(
                f"general-identical instances are capped at "
                f"{MAX_GENERAL_ITEMS} items, got {len(items)}"
            )
        model = GeneralIdenticalValuation.from_pairs(
            _pairs(_entries(valuation, "table"))
        )
    else:
        raise InvalidInstance(f"unknown valuation type {vtype!r}")
    return Instance(agents=agents, items=items, valuation=model)


def instance_from_dict(data: dict) -> Instance:
    return validate_instance(_parse_instance(data))


def allocation_to_dict(inst: Instance, alloc: Allocation) -> dict:
    return {
        "bundles": [list(inst.bundle_names(mask)) for mask in alloc.bundles()]
    }


def allocation_from_dict(inst: Instance, data: dict) -> Allocation:
    try:
        bundles = data["bundles"]
    except (KeyError, TypeError) as exc:
        raise InvalidAllocation(f"malformed allocation document: {exc}") from None
    if not isinstance(bundles, list) or not all(isinstance(names, list) for names in bundles):
        raise InvalidAllocation("bundles must be a list of lists of item names")
    if len(bundles) != inst.agents:
        raise InvalidAllocation(
            f"expected {inst.agents} bundles, got {len(bundles)}"
        )
    masks = [inst.bundle_of(names) for names in bundles]
    for names, mask in zip(bundles, masks):
        if mask.bit_count() != len(names):
            raise InvalidAllocation(f"bundle {names!r} names an item twice")
    return Allocation.from_bundles(inst.agents, masks, inst.m)


def objective_vector_to_list(vector) -> list:
    """An objective vector as JSON data: tuples become lists and exact
    values strings."""
    out = []
    for entry in vector:
        if isinstance(entry, tuple):
            entry = objective_vector_to_list(entry)
        elif isinstance(entry, Fraction):
            entry = format_value(entry)
        out.append(entry)
    return out


def dumps(document: dict) -> str:
    """Canonical JSON rendering: fixed key order, two-space indent, one
    trailing newline."""
    return json.dumps(document, indent=2) + "\n"


def instance_to_json(inst: Instance) -> str:
    return dumps(instance_to_dict(inst))


def instance_from_json(text: str) -> Instance:
    # The parsed document is released before validation starts: for a
    # 16-item general table it holds 65,536 strings, and keeping them
    # alive through validation raised the process's peak memory.
    return validate_instance(_parse_instance(json.loads(text)))


def allocation_to_json(inst: Instance, alloc: Allocation) -> str:
    return dumps(allocation_to_dict(inst, alloc))


def allocation_from_json(inst: Instance, text: str) -> Allocation:
    return allocation_from_dict(inst, json.loads(text))
