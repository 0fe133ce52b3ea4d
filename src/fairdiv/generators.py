"""Seeded random instance generators.

All randomness flows from one ``random.Random`` seeded with a 64-bit
integer, and every family draws in a fixed order, so a given config
always produces the same instance, byte for byte after serialization.

Families:

* additive-chores: independent per-agent values, strictly negative.
* additive-mixed: independent per-agent values, both signs allowed.
* identical-additive: one mixed-sign row shared by every agent.
* general-identical: a shared set function v(S) = sum of item weights
  plus a small perturbation; item-wise monotone by construction, zero
  marginals possible.
* general-identical-nonzero-marginal: same construction with the
  perturbation strictly dominated by every weight, so every marginal is
  strictly nonzero.

Additive values are drawn uniformly from the grid of multiples of
1/denominator inside [low, high].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import (
    AdditiveValuation,
    GeneralIdenticalValuation,
    Instance,
    lowest_terms,
    parse_value,
    rescale_common_total,
    validate_instance,
)
from .serialize import MAX_GENERAL_ITEMS

ADDITIVE_CHORES = "additive-chores"
ADDITIVE_MIXED = "additive-mixed"
IDENTICAL_ADDITIVE = "identical-additive"
GENERAL_IDENTICAL = "general-identical"
GENERAL_IDENTICAL_NONZERO = "general-identical-nonzero-marginal"

FAMILIES = (
    ADDITIVE_CHORES,
    ADDITIVE_MIXED,
    IDENTICAL_ADDITIVE,
    GENERAL_IDENTICAL,
    GENERAL_IDENTICAL_NONZERO,
)

_ADDITIVE_FAMILIES = (ADDITIVE_CHORES, ADDITIVE_MIXED, IDENTICAL_ADDITIVE)


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one generator draw.

    ``low``/``high``/``denominator`` bound the additive value grid;
    ``weight_max``/``perturb_max`` size the general set functions;
    ``rescale_total`` optionally rescales every agent of an additive
    instance to that common grand-bundle value. ``low``, ``high`` and
    ``rescale_total`` go through :func:`parse_value`: a float raises ``ValueError``.
    """

    agents: int
    items: int
    family: str
    seed: int
    low: Fraction = Fraction(-10)
    high: Fraction = Fraction(10)
    denominator: int = 10
    weight_max: int = 8
    perturb_max: int = 4
    rescale_total: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("low", "high", "rescale_total"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, parse_value(getattr(self, name)))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.agents < 1:
            raise ValueError("need at least one agent")
        if self.items < 0:
            raise ValueError("item count cannot be negative")
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        if self.weight_max < 1:
            raise ValueError("weight_max must be positive")
        if self.perturb_max < 0:
            raise ValueError("perturb_max cannot be negative")
        if self.low > self.high:
            raise ValueError("empty value range")
        if self.family not in _ADDITIVE_FAMILIES:
            if self.items > MAX_GENERAL_ITEMS:
                raise ValueError(
                    f"general tables are capped at {MAX_GENERAL_ITEMS} items"
                )
            if self.rescale_total is not None:
                raise ValueError("rescaling applies to additive families only")


def _grid_bounds(config: GeneratorConfig) -> tuple[int, int]:
    lo = math.ceil(config.low * config.denominator)
    hi = math.floor(config.high * config.denominator)
    if config.family == ADDITIVE_CHORES:
        hi = min(hi, -1)
    if lo > hi:
        raise ValueError(
            f"value range [{config.low}, {config.high}] holds no valid grid "
            f"point for family {config.family!r}"
        )
    return lo, hi


def _draw_row(rng: random.Random, config: GeneratorConfig) -> list[tuple[int, int]]:
    """One row of grid points k / denominator, as (k, denominator) pairs."""
    lo, hi = _grid_bounds(config)
    return [(rng.randint(lo, hi), config.denominator) for _ in range(config.items)]


def _draw_general_table(
    rng: random.Random, config: GeneratorConfig, strict: bool
) -> GeneralIdenticalValuation:
    """v(S) = the sum of S's item weights plus epsilon times a perturbation
    h(S) in [-P, P], built as integers over 1 / epsilon (over 1 if P = 0)."""
    m, bound = config.items, config.perturb_max
    weights = []
    for _ in range(m):
        sign = rng.choice((-1, 1))
        weights.append(sign * rng.randint(1, config.weight_max))
    if bound == 0:
        denominator = 1
    elif strict:
        # |epsilon * (h(S+o) - h(S))| <= 2P/(2P+1) < 1 <= |weight|
        denominator = 2 * bound + 1
    else:
        # |epsilon * (h(S+o) - h(S))| <= 1 <= |weight|, equality possible
        denominator = 2 * bound
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        table[mask] = table[mask ^ low] + denominator * weights[low.bit_length() - 1]
    for mask in range(1, 1 << m):
        table[mask] += rng.randint(-bound, bound)
    return GeneralIdenticalValuation(*lowest_terms(table, denominator))


def generate(config: GeneratorConfig) -> Instance:
    """Draw one validated instance."""
    rng = random.Random(config.seed)
    items = tuple(f"o{j + 1}" for j in range(config.items))
    if config.family in _ADDITIVE_FAMILIES:
        if config.family == IDENTICAL_ADDITIVE:
            row = _draw_row(rng, config)
            rows = [row] * config.agents
        else:
            rows = [_draw_row(rng, config) for _ in range(config.agents)]
        inst = Instance(config.agents, items, AdditiveValuation.from_pairs(rows))
        if config.rescale_total is not None:
            inst = rescale_common_total(inst, config.rescale_total)
    else:
        strict = config.family == GENERAL_IDENTICAL_NONZERO
        valuation = _draw_general_table(rng, config, strict)
        inst = Instance(config.agents, items, valuation)
    return validate_instance(inst)
