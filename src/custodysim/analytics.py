"""Closed-form performance models and gas-limit planning.

Covers block inclusion and consensus latency, maximum block size (both
the knapsack oracle and its closed form), header overhead, chain growth
rate, and the lower/upper-bound procedure for choosing the block gas
limit. A `Catalog` keeps transaction types as size and gas columns,
makes a `TxType` only when one is read, and holds what block-size
queries on it share: its dominant type and a knapsack table, filled once
up to the window from which it repeats, that answers every gas limit.

Only `Catalog`'s table code imports numpy, inside its functions, so that
`simulation` and the CLI can import this module without loading numpy.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import ledger
from .blocks import HEADER_SIZE
from .config import ChainParams
from .consensus import COMMIT_SIZE, PREPARE_SIZE, PREPREPARE_OVERHEAD

MIB = 2 ** 20
YEAR_SECONDS = 365 * 24 * 3600


class AnalyticsError(Exception):
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


_UNREACHABLE = 2 ** 62   # min-gas of a byte total that no types sum to
_BLOCK = 64              # widest block of table entries filled at once


class Catalog(Sequence):
    """Immutable sequence of transaction types, kept as integer columns
    sizes and gas and a function that makes the type at index i when it
    is read. Catalog(types) indexes the given types; Catalog(c) of a
    Catalog is c. It holds what knapsack queries on it share, found in
    integer arithmetic: the dominant type, the first type b of the best
    size/gas ratio, the largest size and the min-gas table `min_gas` reads.

    The table is filled only from the types that can set an entry: once
    entry size_i is final, a type i with min_gas[size_i] < gas_i is
    dropped, as the types filling size_i bytes for less gas replace it in
    any combination. Ties, exact duplicates among them, are kept.

    The table is periodic in b (Gilmore & Gomory, Operations Research 14,
    1966): if min_gas[v] == min_gas[v - size_b] + gas_b (two _UNREACHABLE
    entries count as equal) for max_size entries in a row from w on, it
    holds for every v >= w, as each later entry reads only entries at or
    above w. Such a w is at most (size_b - 1) * max_size + 1: size_b
    other types hold some whose sizes sum to a multiple of size_b, which
    copies of b fill for no more gas, so every larger total has a
    least-gas combination holding b. The first query fills the table,
    once, through the first such window.
    """

    def __new__(cls, types: Iterable[TxType]):
        if isinstance(types, Catalog):
            return types
        types = tuple(types)
        return cls._columns(tuple(t.size for t in types),
                            tuple(t.gas for t in types), types.__getitem__)

    @classmethod
    def _columns(cls, sizes: tuple, gas: tuple, make) -> Catalog:
        if not sizes:
            raise ValueError("catalog cannot be empty")
        self = super().__new__(cls)
        self.sizes, self.gas, self._make = sizes, gas, make
        b, sb, gb = 0, sizes[0], gas[0]
        for i, s, g in zip(range(len(sizes)), sizes, gas):
            if s * gb > sb * g:
                b, sb, gb = i, s, g
        # a dominant type has the best ratio, so only b or a tie can be one
        self.dominant = next((make(k) for k, sk, gk in zip(
            range(b, len(sizes)), sizes[b:], gas[b:]) if sk * gb == sb * gk
            and all(-(-s // sk) * gk <= g for s, g in zip(sizes, gas))), None)
        self.best, self.max_size = make(b), max(sizes)
        return self

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._make, range(len(self.sizes))[i]))
        return self._make(range(len(self.sizes))[i])

    @cached_property
    def _periodic(self) -> tuple:
        """(w, table): the start w of the first periodic window, and the
        read-only table through at least entry w + max_size - 1.

        Fills min_gas[v] = min_i(min_gas[v - size_i] + gas_i) in blocks no
        wider than the smallest size, so a block reads only finished
        entries, in one gather-add-min over types x width, and stops at
        the end of the window, so it fills O(w + max_size) entries.
        """
        import numpy as np
        pad, b = self.max_size, self.best
        sizes, gas = np.array((self.sizes, self.gas), dtype=np.int64)
        width = min(_BLOCK, int(sizes.min()))
        # entry v sits at index pad + v, after a pad for v - size < 0;
        # unfilled entries are _UNREACHABLE too, so every type not sized
        # below lo passes the keep test
        table = np.full(pad + 1, _UNREACHABLE, np.int64)
        table[pad] = 0
        lo, run = 1, 0   # the next entry to fill; periodic entries before it
        while run < pad:
            if pad + lo + width > len(table):
                table = np.concatenate(
                    (table, np.full_like(table, _UNREACHABLE)))
                window = np.lib.stride_tricks.sliding_window_view(table, width)
            if lo <= pad + width:   # keep or drop types sized below lo
                use = np.flatnonzero((sizes < lo + width)
                                     & (table[pad + sizes] >= gas))
                rows, cost = pad - sizes[use], gas[use, None]
            block = table[pad + lo: pad + lo + width]
            (window[rows + lo] + cost).min(axis=0, initial=_UNREACHABLE,
                                           out=block)
            back = table[pad + lo - b.size: pad + lo - b.size + width] + b.gas
            miss = np.flatnonzero(block != np.minimum(back, _UNREACHABLE))
            run = run + width if miss.size == 0 else width - 1 - int(miss[-1])
            lo += width
        table = table[pad: pad + lo]
        table.flags.writeable = False
        return lo - run, table

    @cached_property
    def _reduced(self) -> tuple:
        """(c0, least): the base capacity c0 = ((w + size_b) // size_b + 1)
        * gas_b that ukp_max_value reduces larger capacities to, and
        least[v] = min(min_gas[v..end]), end being the fractional bound
        capacity * size_b / gas_b + max_size + 1 at capacity c0 + gas_b -
        1. So the optimum of a capacity below c0 + gas_b is the last v
        with least[v] <= capacity.
        """
        import numpy as np
        b = self.best
        base = ((self._periodic[0] + b.size) // b.size + 1) * b.gas
        end = (base + b.gas - 1) * b.size // b.gas + self.max_size + 1
        least = np.minimum.accumulate(self.min_gas(end)[::-1])[::-1]
        return base, least.tolist()

    def min_gas(self, vmax: int) -> numpy.ndarray:
        """Read-only array of the least gas that fills exactly v bytes, for
        v = 0..vmax, and _UNREACHABLE where no types sum to v bytes. Past
        the table, entry v is min_gas[v - k * size_b] + k * gas_b with v -
        k * size_b in w..w + size_b - 1, clamped at _UNREACHABLE.
        """
        import numpy as np
        start, table = self._periodic
        if vmax < len(table):
            return table[:vmax + 1]
        k, r = np.divmod(np.arange(len(table), vmax + 1) - start,
                         self.best.size)
        tail = np.minimum(table[start + r] + k * self.best.gas, _UNREACHABLE)
        out = np.concatenate((table, tail))
        out.flags.writeable = False
        return out


def standard_catalog() -> Catalog:
    """All transaction types: transfer, remove, create(0)..create(1024)."""
    lengths = range(ledger.MAX_DESCRIPTION_LEN + 1)
    return Catalog._columns(
        (TRANSFER.size, REMOVE.size, *map(ledger.create_size, lengths)),
        (TRANSFER.gas, REMOVE.gas, *map(ledger.create_gas, lengths)),
        lambda i: (TRANSFER, REMOVE)[i] if i < 2 else create_type(i - 2))


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
    Raises AnalyticsError when even a header-only block misses the target,
    or when the target's byte budget is not a finite float.
    """
    floor = consensus_latency(HEADER_SIZE, params)
    if max_latency < floor:
        raise AnalyticsError(
            f"latency target {max_latency} s is below the empty block's "
            f"{floor} s")
    budget = max_latency * params.bandwidth
    if not math.isfinite(budget):
        raise AnalyticsError(
            f"latency target {max_latency} s overflows a float in bytes")
    budget = int(budget) - PREPREPARE_OVERHEAD - PREPARE_SIZE - COMMIT_SIZE
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
    depend on the capacity, so all queries on one Catalog share it. A
    plain sequence gets a throwaway Catalog, which fills the whole table
    again on every call: pass a Catalog to query one catalog often.

    With b the best-ratio type, a capacity C >= c0 is answered as
    ukp(C - k * gas_b) + k * size_b, k = (C - c0) // gas_b: both optima
    lie past w, where size_b more bytes cost exactly gas_b more. So every
    capacity is one binary search in one fixed table (Catalog._reduced).
    """
    if capacity < 0:
        raise ValueError("capacity cannot be negative")
    if not items:
        return 0
    catalog = Catalog(items)
    best = catalog.best
    base, least = catalog._reduced
    k = max(0, capacity - base) // best.gas
    return k * best.size + bisect_right(least, capacity - k * best.gas) - 1


def max_block_size_ukp(gas_limit: int, catalog: Sequence[TxType]) -> int:
    """Maximum block size via the exact knapsack solver, at any gas limit."""
    return HEADER_SIZE + ukp_max_value(gas_limit, catalog)


def dominance_check(catalog: Sequence[TxType]) -> Optional[TxType]:
    """Transaction type that dominates every other one, if any.

    K dominates J when ceil(size(J)/size(K)) copies of K fit in J's gas:
    any J in a block can then be swapped for copies of K without losing
    bytes or gaining gas, so optimal blocks contain only K.
    """
    return Catalog(catalog).dominant


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
    if total > sys.float_info.max:
        raise AnalyticsError(
            f"period {period} s overflows a float in bytes per year")
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
