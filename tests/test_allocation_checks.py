"""Every public entry that takes an allocation rejects one that does not
fit the instance, instead of auditing a different instance or failing
with a raw IndexError."""

import pytest

from conftest import additive
from fairdiv import (
    UTILITY,
    Allocation,
    InvalidAllocation,
    audit,
    check_EF,
    check_EF1,
    check_EFX,
    check_PO,
    check_PROP,
    check_PROP1,
    is_leximin_optimal,
    modified_nash_welfare,
    nash_prime_factors,
    precedes,
    sorted_objectives,
)

INSTANCE = additive([(-1, -2), (-2, -1)])
FITS = Allocation(2, (0, 1))

ENTRY_POINTS = {
    "audit": audit,
    "check_EF": check_EF,
    "check_EF1": check_EF1,
    "check_EFX": check_EFX,
    "check_PROP": check_PROP,
    "check_PROP1": check_PROP1,
    "check_PO": check_PO,
    "precedes-first": lambda inst, alloc: precedes(inst, UTILITY, alloc, FITS),
    "precedes-second": lambda inst, alloc: precedes(inst, UTILITY, FITS, alloc),
    "sorted_objectives": lambda inst, alloc: sorted_objectives(inst, UTILITY, alloc),
    "is_leximin_optimal": lambda inst, alloc: is_leximin_optimal(inst, UTILITY, alloc),
    "nash_prime_factors": nash_prime_factors,
    "modified_nash_welfare": modified_nash_welfare,
}

MISFITS = (
    Allocation(2, (0,)),  # too few items
    Allocation(2, (0, 1, 0)),  # too many items
    Allocation(3, (0, 2)),  # too many agents
    Allocation(1, (0, 0)),  # too few agents
)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_rejects_an_allocation_for_another_instance(entry):
    call = ENTRY_POINTS[entry]
    call(INSTANCE, FITS)
    for alloc in MISFITS:
        with pytest.raises(InvalidAllocation):
            call(INSTANCE, alloc)
