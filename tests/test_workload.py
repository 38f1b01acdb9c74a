import math

import pytest

from custodysim import analytics
from custodysim.analytics import annual_multiset
from custodysim.ledger import TRANSFER_GAS
from custodysim.workload import (InvalidSpec, RampSpec, RateSpec,
                                 constant_rate_workload, ramp_workload)

PERIOD = 300.0


def _period_counts(txs, periods):
    counts = [0] * periods
    for tx in txs:
        counts[int(tx.issue_time // PERIOD)] += 1
    return counts


class TestConstantRate:
    def test_counts_and_bounds(self):
        txs = constant_rate_workload(RateSpec(5, 8), seed=1, period=PERIOD)
        assert len(txs) == 40
        assert _period_counts(txs, 8) == [5] * 8
        for tx in txs:
            offset = tx.issue_time % PERIOD
            assert 0 <= offset < PERIOD * 0.99

    def test_deterministic_per_seed(self):
        a = constant_rate_workload(RateSpec(3, 4), seed=9, period=PERIOD)
        b = constant_rate_workload(RateSpec(3, 4), seed=9, period=PERIOD)
        c = constant_rate_workload(RateSpec(3, 4), seed=10, period=PERIOD)
        assert a == b
        assert [t.issue_time for t in a] != [t.issue_time for t in c]

    def test_uids_unique_and_ordered(self):
        txs = constant_rate_workload(RateSpec(4, 6), seed=2, period=PERIOD)
        assert [t.uid for t in txs] == list(range(1, 25))

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            constant_rate_workload(RateSpec(-1, 4), 0, PERIOD)
        with pytest.raises(InvalidSpec):
            constant_rate_workload(RateSpec(1, 0), 0, PERIOD)


class TestRamp:
    def test_gas_never_overshoots_target(self):
        spec = RampSpec(0, 1_000_000, 21)
        txs = ramp_workload(spec, seed=3, period=PERIOD)
        counts = _period_counts(txs, 21)
        for p, count in enumerate(counts):
            target = p / 20 * 1_000_000
            assert count * TRANSFER_GAS <= target

    def test_crosses_gas_limit_near_midpoint(self):
        gas_limit = 805_020  # ten transfers
        spec = RampSpec(0, 2 * gas_limit, 101)
        txs = ramp_workload(spec, seed=4, period=PERIOD)
        counts = _period_counts(txs, 101)
        over = next(p for p, c in enumerate(counts)
                    if c * TRANSFER_GAS > gas_limit)
        assert 45 <= over <= 55

    def test_counts_non_decreasing(self):
        txs = ramp_workload(RampSpec(100_000, 900_000, 10), seed=5,
                            period=PERIOD)
        counts = _period_counts(txs, 10)
        assert counts == sorted(counts)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            ramp_workload(RampSpec(500, 100, 10), 0, PERIOD)


class TestAnnualMultiset:
    def test_composition(self):
        ms = dict((t.name, c) for t, c in annual_multiset(7))
        assert ms[analytics.TRANSFER.name] == 70
        assert ms[analytics.REMOVE.name] == 7
        assert ms[analytics.create_type(1024).name] == 7

    def test_yearly_bytes_match_growth_model(self):
        total = sum(t.size * c for t, c in annual_multiset(10_000))
        assert total == 31_150_000

