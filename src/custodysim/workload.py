"""Synthetic workload generation for simulations.

Issue times are uniform within each block period, less its last
``MARGIN`` share, so transactions can reach every mempool before the
period closes. All draws come from a seeded generator.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .ledger import Address, EvidenceId, TRANSFER_GAS, transfer_tx


MARGIN = 0.01   # share of each period at its end in which nothing is issued


class InvalidSpec(Exception):
    pass


@dataclass(frozen=True)
class RateSpec:
    """Constant rate: a fixed number of transfers per period."""

    tx_per_period: int
    periods: int


@dataclass(frozen=True)
class RampSpec:
    """Gas rate climbing linearly from start to end over the run."""

    start_gas_per_period: int
    end_gas_per_period: int
    periods: int


def _uniform_times(rng: random.Random, period_index: int, period: float,
                   count: int) -> list:
    start = period_index * period
    width = period * (1.0 - MARGIN)
    return sorted(start + rng.random() * width for _ in range(count))


def _transfer_workload(counts: list, seed: int, period: float) -> list:
    """Transfers, counts[p] of them at uniform times within period p."""
    rng = random.Random(seed)
    # bound once: each read of a classmethod makes a new bound method
    addr, eid, bits = Address.from_int, EvidenceId.from_int, rng.getrandbits
    txs = []
    for p, count in enumerate(counts):
        for t in _uniform_times(rng, p, period, count):
            txs.append(transfer_tx(len(txs) + 1, addr(bits(160)),
                                   eid(bits(256)), addr(bits(160)), t))
    return txs


def constant_rate_workload(spec: RateSpec, seed: int, period: float) -> list:
    """Transfer transactions at a fixed per-period count."""
    if spec.tx_per_period < 0 or spec.periods <= 0:
        raise InvalidSpec("counts must be non-negative, duration positive")
    return _transfer_workload([spec.tx_per_period] * spec.periods, seed,
                              period)


def ramp_workload(spec: RampSpec, seed: int, period: float) -> list:
    """Transfers whose per-period gas tracks a linear ramp.

    The per-period count is the ramp target divided by the transfer gas
    cost, rounded down, so the issued gas rate never overshoots the
    target.
    """
    if spec.periods <= 0 or spec.start_gas_per_period < 0 \
            or spec.end_gas_per_period < spec.start_gas_per_period:
        raise InvalidSpec("ramp must be non-decreasing over a positive run")
    span = spec.end_gas_per_period - spec.start_gas_per_period
    counts = []
    for p in range(spec.periods):
        frac = p / (spec.periods - 1) if spec.periods > 1 else 1.0
        target = spec.start_gas_per_period + frac * span
        counts.append(int(target // TRANSFER_GAS))
    return _transfer_workload(counts, seed, period)

