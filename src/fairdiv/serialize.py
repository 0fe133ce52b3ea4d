"""JSON encoding and decoding for instances, allocations and reports.

All values travel as exact strings: a finite decimal where one exists,
otherwise "p/q". Serialization is deterministic, so equal objects always
produce byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import islice

from .errors import InvalidAllocation, InvalidInstance
from .model import (
    AdditiveValuation,
    Allocation,
    GeneralIdenticalValuation,
    Instance,
    SolveResult,
    format_table,
    format_value,
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


def _read(build, entries):
    """``build(entries)``, a malformed value entry ending the read."""
    try:
        return build(entries)
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
    if not isinstance(items, list):
        raise InvalidInstance(f"items must be a list, got {type(items).__name__}")
    items = tuple(items)
    if vtype == "additive":
        rows = _entries(valuation, "matrix")
        if not all(isinstance(row, list) for row in rows):
            raise InvalidInstance("additive matrix rows must be lists")
        model = _read(AdditiveValuation.of, rows)
    elif vtype == "general-identical":
        if len(items) > MAX_GENERAL_ITEMS:
            raise InvalidInstance(
                f"general-identical instances are capped at "
                f"{MAX_GENERAL_ITEMS} items, got {len(items)}"
            )
        table = _entries(valuation, "table")
        if len(table) != 1 << len(items):
            raise InvalidInstance(
                f"expected a table of {1 << len(items)} values, got {len(table)}"
            )
        model = _read(GeneralIdenticalValuation.of, table)
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


def result_to_dict(inst: Instance, result: SolveResult) -> dict:
    """A solve result as ``fairdiv solve`` prints it, without the method."""
    score = result.score
    if score is not None:
        score = {"nonzero_count": score.nonzero_count, "product": format_value(score.product)}
    return {
        "allocation": allocation_to_dict(inst, result.allocation),
        "objective_vector": objective_vector_to_list(result.objective_vector),
        "score": score,
        "tie_count": result.tie_count,
        "search_space": result.search_space,
    }


#: Encoder chunks joined per ``write`` call by :func:`dump`.
_DUMP_BATCH = 4096


def dump(document, write) -> None:
    """Pass the text of :func:`dumps` to ``write`` in pieces, so that the
    encoder's small chunks never pile up all at once."""
    chunks = json.JSONEncoder(indent=2).iterencode(document)
    for first in chunks:
        write(first + "".join(islice(chunks, _DUMP_BATCH - 1)))
    write("\n")


def dumps(document) -> str:
    """Canonical JSON rendering: fixed key order, two-space indent, one
    trailing newline."""
    parts = []
    dump(document, parts.append)
    return "".join(parts)


def instance_to_json(inst: Instance) -> str:
    return dumps(instance_to_dict(inst))


def instance_from_json(text: str) -> Instance:
    """The validated instance a JSON document describes.

    Each stage is released before the next is built: the text once it is
    parsed, and the parsed document, which for a 16-item general table
    holds 65,536 strings, before validation starts. The text goes only
    when this call holds its last reference, as it does for an argument
    the caller built in place on CPython 3.11.
    """
    document = json.loads(text)
    del text
    inst = _parse_instance(document)
    del document
    return validate_instance(inst)


def allocation_to_json(inst: Instance, alloc: Allocation) -> str:
    return dumps(allocation_to_dict(inst, alloc))


def allocation_from_json(inst: Instance, text: str) -> Allocation:
    return allocation_from_dict(inst, json.loads(text))
