"""Closed-form performance models and gas-limit planning.

Covers block inclusion and consensus latency, maximum block size (both
the knapsack oracle and its closed form), header overhead, chain growth
rate, and the lower/upper-bound procedure for choosing the block gas
limit. A `Catalog` of transaction types holds what block-size queries on
it share: its dominant type and a knapsack table grown on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ledger
from .blocks import HEADER_SIZE
from .config import ChainParams
from .consensus import COMMIT_SIZE, PREPARE_SIZE, PREPREPARE_OVERHEAD

MIB = 2 ** 20
YEAR_SECONDS = 365 * 24 * 3600


class AnalyticsError(Exception):
    pass


class CapacityTooLargeForExactDP(AnalyticsError):
    pass


class InvalidMaxSize(AnalyticsError):
    pass


class InvalidBounds(AnalyticsError):
    pass


@dataclass(frozen=True)
class TxType:
    """One transaction type with its fixed size and gas cost."""

    name: str
    size: int
    gas: int

    def __post_init__(self):
        if self.size <= 0 or self.gas <= 0:
            raise ValueError("size and gas must be positive")


TRANSFER = TxType("transfer", ledger.TRANSFER_SIZE, ledger.TRANSFER_GAS)
REMOVE = TxType("remove", ledger.REMOVE_SIZE, ledger.REMOVE_GAS)


def create_type(length: int) -> TxType:
    return TxType(f"create({length})", ledger.create_size(length),
                  ledger.create_gas(length))


_UKP_CAP = 100_000_000   # largest gas limit the exact solver takes
_UNREACHABLE = 2 ** 62   # min-gas of a byte total that no types sum to
_BLOCK = 32              # widest block of table entries filled at once


class Catalog(tuple):
    """Immutable sequence of transaction types with what knapsack queries on
    it share: the dominant type, a type of the best size/gas ratio, the
    largest size and a min-gas table grown by `min_gas`. Catalog(c) of a
    Catalog is c.

    The table is filled from every type up to the largest size. Past it,
    it is filled only from the types that can set an entry: a type i with
    min_gas[size_i] < gas_i is dropped. Some other types then fill size_i
    bytes for less gas, and swapping them in for i lowers the gas of any
    combination holding i, so no least-gas combination of any total
    holds i. Types tied at min_gas[size_i] == gas_i, exact duplicates
    among them, are all kept.
    """

    def __new__(cls, types: Iterable[TxType]):
        if isinstance(types, Catalog):
            return types
        self = super().__new__(cls, types)
        if not self:
            raise ValueError("catalog cannot be empty")
        self.dominant = next((k for k in self if all(
            j is k or math.ceil(j.size / k.size) * k.gas <= j.gas
            for j in self)), None)
        self.best = max(self, key=lambda t: t.size / t.gas)
        self.max_size = max(t.size for t in self)
        self._sizes = np.array([t.size for t in self], dtype=np.int64)
        self._gas = np.array([t.gas for t in self], dtype=np.int64)[:, None]
        # entry v sits at index max_size + v, after a pad for v - size < 0,
        # so window row _rows[i] + lo starts at entry lo - size_i
        self._rows = self.max_size - self._sizes
        self._width = min(_BLOCK, int(self._sizes.min()))
        self._table = np.full(self.max_size + 1, _UNREACHABLE, np.int64)
        self._table[-1] = 0
        self._filled = 1
        return self

    def min_gas(self, vmax: int) -> np.ndarray:
        """Read-only view of the least gas that fills exactly v bytes, for
        v = 0..vmax, and _UNREACHABLE where no types sum to v bytes.

        Fills min_gas[v] = min_i(min_gas[v - size_i] + gas_i) in blocks no
        wider than the smallest size, so a block reads only finished
        entries, each block in one gather-add-min over items x width.
        The first call that finishes entry max_size drops the types that
        cannot set an entry (see Catalog), and later blocks gather only
        the kept ones; every entry is the same as from all types.
        """
        pad = self.max_size
        if vmax >= self._filled:
            size = pad + vmax + self._width
            if size > len(self._table):   # its filler past _filled is unread
                self._table = np.resize(self._table, 2 * size)
            if self._filled <= pad:
                self._fill(min(vmax, pad))
                if self._filled > pad:
                    keep = self._table[pad + self._sizes] >= self._gas[:, 0]
                    self._rows, self._gas = self._rows[keep], self._gas[keep]
            if vmax >= self._filled:
                self._fill(vmax)
        view = self._table[pad: pad + vmax + 1]
        view.flags.writeable = False
        return view

    def _fill(self, vmax: int) -> None:
        """Finish the blocks of entries from _filled through vmax."""
        pad, width = self.max_size, self._width
        window = sliding_window_view(self._table, width)
        for lo in range(self._filled, vmax + 1, width):
            best = (window[self._rows + lo] + self._gas).min(axis=0)
            np.minimum(best, _UNREACHABLE,
                       out=self._table[pad + lo: pad + lo + width])
        self._filled = lo + width


def standard_catalog() -> Catalog:
    """All transaction types: transfer, remove, create(0)..create(1024)."""
    return Catalog((TRANSFER, REMOVE) + tuple(
        create_type(l) for l in range(ledger.MAX_DESCRIPTION_LEN + 1)))


# -- latency -----------------------------------------------------------


def block_inclusion_latency(tx_issue_time: float, block_creation_time: float,
                            period: float) -> float:
    """Time from issue to the end of the including block's period."""
    return block_creation_time + period - tx_issue_time


def consensus_latency(blk_size: int, params: ChainParams) -> float:
    """Approximate commit time: total phase bytes over the slowest link."""
    total = PREPREPARE_OVERHEAD + blk_size + PREPARE_SIZE + COMMIT_SIZE
    return total / params.bandwidth


def latency_gas_bound(max_latency: float, params: ChainParams) -> int:
    """Largest gas limit whose fullest block (header plus k transfers, the
    dominant type) commits within max_latency.

    Assumes TRANSFER dominates the standard catalog, as TestDominance::
    test_transfer_dominates_full_catalog checks.
    Raises AnalyticsError when even a header-only block misses the target.
    """
    floor = consensus_latency(HEADER_SIZE, params)
    if max_latency < floor:
        raise AnalyticsError(
            f"latency target {max_latency} s is below the empty block's "
            f"{floor} s")
    budget = int(max_latency * params.bandwidth) - PREPREPARE_OVERHEAD \
        - PREPARE_SIZE - COMMIT_SIZE
    # max: at the floor itself, int() may round the byte budget down by one
    k = max(0, budget - HEADER_SIZE) // TRANSFER.size
    return (k + 1) * TRANSFER.gas - 1


# -- maximum block size ------------------------------------------------


def max_block_size_closed_form(gas_limit: int, catalog: Sequence[TxType]) -> int:
    """Header plus as many copies of the dominant type as the gas allows."""
    if gas_limit < 0:
        raise ValueError("gas limit cannot be negative")
    dominant = dominance_check(catalog)
    if dominant is None:
        raise AnalyticsError(
            "no single dominant transaction type; use the knapsack solver")
    return HEADER_SIZE + (gas_limit // dominant.gas) * dominant.size


def ukp_max_value(capacity: int, items: Sequence[TxType]) -> int:
    """Exact unbounded-knapsack optimum (value = size, weight = gas).

    Runs the DP over the value axis: the largest byte total whose entry
    in the catalog's min-gas table fits the capacity. The table does not
    depend on the capacity, so all queries on one Catalog share it, and a
    plain sequence gets a throwaway Catalog. Equivalent to the classic
    capacity-axis table but tractable for gas limits in the millions.

    Only a window of the table is scanned. With b the best-ratio type,
    capacity // gas_b copies of b fit, so the answer is at least
    lo = (capacity // gas_b) * size_b > capacity * size_b / gas_b - size_b,
    and no more than vmax = capacity * size_b / gas_b + max_size + 1, the
    fractional bound with slack. The window lo..vmax thus holds at most
    size_b + max_size + 1 <= 2 * max_size + 1 entries, whatever the
    capacity.
    """
    if capacity < 0:
        raise ValueError("capacity cannot be negative")
    if not items:
        return 0
    catalog = Catalog(items)
    best = catalog.best
    vmax = int(capacity * (best.size / best.gas)) + catalog.max_size + 1
    lo = capacity // best.gas * best.size
    window = catalog.min_gas(vmax)[lo:]
    return lo + int(np.flatnonzero(window <= capacity)[-1])


def max_block_size_ukp(gas_limit: int, catalog: Sequence[TxType]) -> int:
    """Maximum block size via the exact knapsack solver."""
    if gas_limit > _UKP_CAP:
        raise CapacityTooLargeForExactDP(
            f"gas limit {gas_limit} exceeds the exact-solver cap "
            f"{_UKP_CAP}; use the closed form")
    return HEADER_SIZE + ukp_max_value(gas_limit, catalog)


def dominance_check(catalog: Sequence[TxType]) -> Optional[TxType]:
    """Transaction type that dominates every other one, if any.

    K dominates J when ceil(size(J)/size(K)) copies of K fit in J's gas:
    any J in a block can then be swapped for copies of K without losing
    bytes or gaining gas, so optimal blocks contain only K.
    """
    return Catalog(catalog).dominant


def gas_limit_range_for_max_size(max_size: int,
                                 catalog: Sequence[TxType]) -> tuple:
    """Gas-limit interval realizing a target maximum block size.

    The target must lie on the lattice header + k * size(dominant).
    """
    dominant = dominance_check(catalog)
    if dominant is None:
        raise AnalyticsError("no dominant transaction type")
    payload = max_size - HEADER_SIZE
    if payload < 0 or payload % dominant.size != 0:
        raise InvalidMaxSize(
            f"{max_size} is not header + k*{dominant.size} for integer k")
    k = payload // dominant.size
    return k * dominant.gas, k * dominant.gas + dominant.gas - 1


# -- chain growth ------------------------------------------------------


def header_overhead(t: float, period: float) -> Fraction:
    """Cumulative header bytes after running for t seconds (exact)."""
    if t < 0:
        raise ValueError("t cannot be negative")
    if period <= 0:
        raise AnalyticsError("period must be positive")
    return Fraction(HEADER_SIZE) * Fraction(t) / Fraction(period)


def growth_rate(t1: float, t2: float, period: float,
                tx_multiset: Iterable[tuple]) -> Fraction:
    """Chain bytes added over (t1, t2]: header term plus included tx sizes.

    tx_multiset is an iterable of (TxType, count) pairs for the
    transactions included in the interval.
    """
    if t2 < t1:
        raise ValueError("interval end precedes its start")
    content = sum(tx_type.size * count for tx_type, count in tx_multiset)
    return header_overhead(t2 - t1, period) + content


# -- gas-limit planning ------------------------------------------------


@dataclass(frozen=True)
class GasLimitPlan:
    max_rate_bound: int       # lower bound from the peak gas rate
    avg_rate_bound: int       # lower bound from the mean gas rate
    latency_bound: int        # upper bound from the consensus-latency target
    recommendation: int
    tag: str                  # "ideal" | "average-bounded" | "latency-tradeoff"


def plan_gas_limit(max_rate_bound: int, avg_rate_bound: int,
                   latency_bound: int) -> GasLimitPlan:
    """Pick a block gas limit from the three bounds.

    If the peak-rate lower bound fits under the latency upper bound, any
    value in between works (midpoint by default). Otherwise fall back to
    the average-rate lower bound; the limit is never set below it, since
    that makes transaction latency grow without bound.
    """
    if min(max_rate_bound, avg_rate_bound, latency_bound) < 0:
        raise InvalidBounds("gas bounds cannot be negative")
    if avg_rate_bound > max_rate_bound:
        raise InvalidBounds(
            f"average gas rate {avg_rate_bound} exceeds peak {max_rate_bound}")
    if max_rate_bound <= latency_bound:
        return GasLimitPlan(max_rate_bound, avg_rate_bound, latency_bound,
                            (max_rate_bound + latency_bound) // 2, "ideal")
    if avg_rate_bound <= latency_bound:
        return GasLimitPlan(max_rate_bound, avg_rate_bound, latency_bound,
                            latency_bound, "average-bounded")
    return GasLimitPlan(max_rate_bound, avg_rate_bound, latency_bound,
                        avg_rate_bound, "latency-tradeoff")


@dataclass(frozen=True)
class GasRateSummary:
    series: tuple   # gas per period, indexed by period
    peak: int
    mean: float


def gas_rate(transactions: Iterable, period: float) -> GasRateSummary:
    """Per-period gas consumption of a timestamped transaction multiset."""
    txs = list(transactions)
    if not txs:
        return GasRateSummary((), 0, 0.0)
    last = max(int(tx.issue_time // period) for tx in txs)
    series = [0] * (last + 1)
    for tx in txs:
        series[int(tx.issue_time // period)] += tx.gas
    return GasRateSummary(tuple(series), max(series),
                          sum(series) / len(series))


# -- report rows -------------------------------------------------------


@dataclass(frozen=True)
class GrowthReportRow:
    creations_per_year: int
    content_bytes: int
    total_bytes: Fraction
    overhead_pct: float

    @property
    def content_mib(self) -> float:
        return self.content_bytes / MIB

    @property
    def total_mib(self) -> float:
        return float(self.total_bytes) / MIB


def annual_multiset(n: int) -> list:
    """(type, count) multiset: n full-description creates, n removes,
    10n transfers."""
    if n < 0:
        raise ValueError("count cannot be negative")
    return [(create_type(ledger.MAX_DESCRIPTION_LEN), n), (REMOVE, n),
            (TRANSFER, 10 * n)]


def annual_growth_row(n: int,
                      period: float = ChainParams.period) -> GrowthReportRow:
    """Growth over one year for n creations/removals and 10n transfers."""
    multiset = annual_multiset(n)
    content = sum(t.size * c for t, c in multiset)
    total = growth_rate(0, YEAR_SECONDS, period, multiset)
    overhead = header_overhead(YEAR_SECONDS, period)
    return GrowthReportRow(n, content, total,
                           float(overhead / total) * 100.0)


def annual_growth_table(
        period: float = ChainParams.period,
        workloads: Sequence[int] = (10_000, 100_000, 1_000_000)) -> list:
    return [annual_growth_row(n, period) for n in workloads]


def annual_header_overhead_sweep(
        periods_minutes: Sequence[int] = (1, 2, 5, 10, 15, 30, 60)) -> list:
    """(period minutes, header bytes per year) for a sweep of block periods."""
    return [(m, header_overhead(YEAR_SECONDS, m * 60))
            for m in periods_minutes]
