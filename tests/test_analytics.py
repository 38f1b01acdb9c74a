import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from custodysim import analytics, cli
from custodysim.analytics import (REMOVE, TRANSFER, AnalyticsError,
                                  Catalog, ChainParams, InvalidBounds,
                                  MIB, TxType, YEAR_SECONDS,
                                  annual_growth_table,
                                  annual_header_overhead_sweep,
                                  block_inclusion_latency, consensus_latency,
                                  create_type, dominance_check,
                                  growth_rate, header_overhead,
                                  latency_gas_bound,
                                  max_block_size_closed_form,
                                  max_block_size_ukp, plan_gas_limit,
                                  standard_catalog, ukp_max_value)
from naive_knapsack import min_gas_dense, ukp_max_value_dense


@pytest.fixture(scope="module")
def catalog():
    return standard_catalog()


class TestInclusionLatency:
    def test_issue_at_period_start(self):
        assert block_inclusion_latency(0.0, 0.0, 300.0) == 300.0

    def test_issue_mid_period(self):
        assert block_inclusion_latency(150.0, 0.0, 300.0) == 150.0

    def test_delayed_one_period(self):
        lat = block_inclusion_latency(150.0, 300.0, 300.0)
        assert 300.0 < lat <= 600.0


class TestConsensusLatency:
    def test_empty_block(self):
        params = ChainParams(bandwidth=1e6)
        # (256 + 1909 + 128 + 128) / 1e6
        assert consensus_latency(1909, params) == pytest.approx(2.421e-3)

    def test_inverse_in_bandwidth(self):
        slow = ChainParams(bandwidth=1e6)
        fast = ChainParams(bandwidth=2e6)
        assert consensus_latency(5000, slow) == 2 * consensus_latency(5000, fast)

    def test_monotone_in_block_size(self):
        params = ChainParams()
        assert consensus_latency(3000, params) > consensus_latency(1909, params)


class TestLatencyGasBound:
    def test_is_the_largest_limit_meeting_the_target(self, catalog):
        rng = random.Random(5)
        for _ in range(2000):
            params = ChainParams(bandwidth=rng.uniform(1e4, 1e8))
            # at least the empty block's latency, so some limit meets it
            floor = consensus_latency(max_block_size_closed_form(0, catalog),
                                      params)
            target = floor * rng.uniform(1.0, 50.0)
            g = latency_gas_bound(target, params)

            def latency(gas):
                return consensus_latency(
                    max_block_size_closed_form(gas, catalog), params)

            assert latency(g) <= target < latency(g + 1)

    def test_cli_default_point(self):
        # 10 ms at 1 MB/s leaves 10,000 - 512 - 1,909 = 7,579 bytes for
        # 174-byte transfers: 43 fit, so any G below 44 transfers' gas does
        assert latency_gas_bound(0.01, ChainParams()) == 44 * 80502 - 1

    def test_target_below_the_empty_block_is_rejected(self, catalog):
        params = ChainParams()
        floor = consensus_latency(max_block_size_closed_form(0, catalog),
                                  params)
        assert latency_gas_bound(floor, params) == TRANSFER.gas - 1
        with pytest.raises(AnalyticsError, match="below the empty block"):
            latency_gas_bound(floor * 0.999, params)


class TestMaxBlockSize:
    @pytest.mark.parametrize("g,expected", [
        (170207, 2257),   # floor(G / 80502) = 2 transfers
        (0, 1909),
        (80501, 1909),
    ])
    def test_closed_form(self, catalog, g, expected):
        assert max_block_size_closed_form(g, catalog) == expected

    def test_dp_matches_closed_form_at_sample_points(self, catalog):
        for g in (0, 80501, 80502, 170207, 897367, 1_000_000):
            assert max_block_size_ukp(g, catalog) == \
                max_block_size_closed_form(g, catalog)

    def test_eleven_transfers_beat_one_full_create(self, catalog):
        # 897367 gas fits 11 transfers (1914 bytes) vs one create (1233)
        assert max_block_size_ukp(897367, catalog) == 1909 + 11 * 174 == 3823

    def test_below_cheapest_item(self, catalog):
        assert max_block_size_ukp(80000, catalog) == 1909

    def test_no_capacity_cap(self, catalog):
        # the table is bounded, so the exact solver takes any gas limit
        for g in (10 ** 8 + 1, 10 ** 9, 10 ** 12):
            assert max_block_size_ukp(g, catalog) == \
                max_block_size_closed_form(g, catalog)

    def test_negative_gas_limit_rejected(self, catalog):
        for solver in (max_block_size_closed_form, max_block_size_ukp):
            with pytest.raises(ValueError, match="cannot be negative"):
                solver(-1, catalog)

    def test_value_dp_matches_dense_dp_small_capacities(self):
        items = (TxType("a", 7, 3), TxType("b", 5, 4), TxType("c", 9, 5))
        for cap in range(0, 60):
            assert ukp_max_value(cap, items) == ukp_max_value_dense(cap, items)

    def test_value_dp_matches_dense_dp_real_catalog(self, catalog):
        rng = random.Random(1)
        small = (TRANSFER, REMOVE, create_type(0), create_type(1024))
        for cap in [rng.randrange(500_000) for _ in range(5)]:
            assert ukp_max_value(cap, small) == ukp_max_value_dense(cap, small)



tx_type = st.builds(TxType, st.just("t"), st.integers(1, 30),
                    st.integers(1, 50))
tx_types = st.lists(tx_type, min_size=1, max_size=6)


@st.composite
def redundant_catalogs(draw):
    """Types plus ones the table past max_size can do without: an exact
    duplicate, the sum of two types at their summed gas or more, and a
    type of an existing size at another gas."""
    base = draw(st.lists(tx_type, min_size=2, max_size=5))
    a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
    extra = [TxType("dup", a.size, a.gas),
             TxType("sum", a.size + b.size,
                    a.gas + b.gas + draw(st.integers(0, 20))),
             TxType("same-size", b.size,
                    draw(st.integers(1, 60).filter(lambda g: g != b.gas)))]
    return draw(st.permutations(base + extra))


def _dense_table(vmax, items):
    """min_gas_dense in the Catalog table's terms."""
    return [analytics._UNREACHABLE if g is None else g
            for g in min_gas_dense(vmax, items)]


class TestCatalogTable:
    """The min-gas table a Catalog fills once, in blocks as wide as its
    smallest size (capped), up to the window from which it is periodic in
    the best-ratio type b, against the dense capacity-axis and value-axis
    oracles. The fill gathers only the types that can set an entry, so
    catalogs with redundant types are checked in particular. Entries past
    the stored table, and capacities from the base c0 on, which
    ukp_max_value answers by subtracting multiples of gas_b, come from
    the period, so reads far past max_size, capacities next to multiples
    of gas_b and capacities around c0 are checked too."""

    @given(st.integers(1, 50), tx_types,
           st.lists(st.integers(0, 300), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_reused_catalog_matches_dense_dp(self, unit_gas, types,
                                             capacities):
        items = (TxType("unit", 1, unit_gas), *types)   # blocks 1 wide
        catalog = Catalog(items)
        for cap in capacities + sorted(capacities, reverse=True):
            assert ukp_max_value(cap, catalog) == ukp_max_value_dense(cap, items)

    @given(tx_types, st.lists(st.integers(-30, 400), min_size=1))
    @example([TxType("a", 7, 3), TxType("b", 5, 4), TxType("c", 9, 5)],
             [-1, 0, 1])
    @example([TxType("a", 30, 40), TxType("b", 30, 41), TxType("c", 1, 50)],
             [-29, -1, 0, 60])
    @settings(max_examples=100, deadline=None)
    def test_table_grown_in_steps_equals_one_build(self, items, offsets):
        stepped, whole = Catalog(items), Catalog(items)
        steps = sorted(max(0, whole.max_size + d) for d in offsets)
        for vmax in steps:
            stepped.min_gas(vmax)
        vmax = steps[-1]
        assert np.array_equal(stepped.min_gas(vmax), whole.min_gas(vmax))
        assert stepped.min_gas(vmax).tolist() == _dense_table(vmax, items)

    @given(redundant_catalogs(), st.lists(st.integers(0, 400), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_redundant_types_match_dense_dp(self, items, capacities):
        catalog = Catalog(items)
        for cap in capacities:
            assert ukp_max_value(cap, catalog) == ukp_max_value_dense(cap, items)
        vmax = 3 * catalog.max_size
        assert catalog.min_gas(vmax).tolist() == _dense_table(vmax, items)

    @given(tx_types, st.integers(1, 30), st.integers(1, 50),
           st.integers(1, 3), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_capacities_next_to_multiples_of_the_best_gas(
            self, types, size, gas, m, rng):
        """Two types tied at the best ratio, the first in catalog order
        being the window's b, and capacities k * gas_b - 1, k * gas_b and
        k * gas_b + 1 for either."""
        items = [t for t in types if t.size * gas < size * t.gas]
        items += [TxType("best", size, gas), TxType("twin", m * size, m * gas)]
        rng.shuffle(items)
        catalog = Catalog(items)
        for g in (gas, m * gas):
            for k in range(0, 8):
                for cap in (k * g - 1, k * g, k * g + 1):
                    if cap >= 0:
                        assert ukp_max_value(cap, catalog) == \
                            ukp_max_value_dense(cap, items)

    def test_standard_catalog_drops_types_the_kept_ones_undercut(self,
                                                                catalog):
        """175 of 1,027 types can set an entry; each other type's size is
        filled by those 175 for less gas, and they alone give the same
        table."""
        table = catalog.min_gas(catalog.max_size)
        kept = [t for t in catalog if table[t.size] >= t.gas]
        dropped = [t for t in catalog if table[t.size] < t.gas]
        assert (len(kept), len(dropped)) == (175, 852)
        by_kept = min_gas_dense(catalog.max_size, kept)
        assert all(by_kept[t.size] is not None and by_kept[t.size] < t.gas
                   for t in dropped)
        vmax = 3 * catalog.max_size
        assert np.array_equal(Catalog(kept).min_gas(vmax),
                              catalog.min_gas(vmax))

    @given(st.one_of(tx_types, redundant_catalogs()),
           st.lists(st.integers(0, 3000), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_capacities_past_the_base_match_dense_dp(self, items, capacities):
        """On tx_types catalogs (sizes <= 30, gas <= 50) c0 is at most
        32 * 50, so most capacities up to 3,000 are answered from the
        period; c0 and its neighbours are checked on every catalog."""
        catalog = Catalog(items)
        base, gas_b = catalog._reduced[0], catalog.best.gas
        for cap in capacities + [base - 1, base, base + gas_b - 1,
                                 base + gas_b]:
            assert ukp_max_value(cap, catalog) == ukp_max_value_dense(cap, items)

    @given(st.one_of(tx_types, redundant_catalogs()))
    @settings(max_examples=100, deadline=None)
    def test_entries_past_the_stored_table_follow_the_period(self, items):
        catalog = Catalog(items)
        vmax = 3 * len(catalog._periodic[1]) + catalog.max_size
        table = catalog.min_gas(vmax)
        assert table.tolist() == _dense_table(vmax, items)
        with pytest.raises(ValueError):
            table[-1] = 0

    def test_standard_catalog_matches_closed_form_past_the_base(self,
                                                                catalog):
        """The window starts at w = 381, so c0 = 4 * 80,502; capacities
        next to it, next to multiples of the transfer's gas near 1e8, and
        1e8 itself."""
        assert catalog._periodic[0] == 381
        base = catalog._reduced[0]
        assert base == 4 * TRANSFER.gas
        caps = [base - 1, base, base + 1, 10 ** 8] + [
            k * TRANSFER.gas + d for k in (1240, 1241, 1242) for d in (-1, 0, 1)]
        for g in caps:
            assert max_block_size_ukp(g, catalog) == \
                max_block_size_closed_form(g, catalog)

    def test_table_stays_small_after_a_query_at_the_cap(self):
        catalog = standard_catalog()
        max_block_size_ukp(10 ** 8, catalog)
        assert len(catalog._periodic[1]) < 4000
        assert len(catalog._reduced[1]) < 4000

    def test_odd_totals_of_even_sizes_stay_unreachable(self):
        items = (TxType("a", 2, 300), TxType("b", 8, 1100),
                 TxType("c", 30, 4000))
        catalog, cap = Catalog(items), 10 ** 6
        assert catalog.dominant is None
        best = max(nc * 30 + nb * 8 + (cap - nc * 4000 - nb * 1100) // 300 * 2
                   for nc in range(cap // 4000 + 1)
                   for nb in range((cap - nc * 4000) // 1100 + 1))
        assert ukp_max_value(cap, catalog) == best
        odd = catalog.min_gas(best)[1::2]
        assert odd.min() > cap and np.unique(odd).size == 1

    def test_table_view_is_read_only(self, catalog):
        with pytest.raises(ValueError):
            catalog.min_gas(10)[0] = 1


class TestStandardCatalogColumns:
    """The standard catalog keeps sizes and gas as columns and makes a
    create type only when its index is read, yet reads as the sequence
    of all 1,027 types."""

    def test_sequence_contract(self, catalog):
        types = [TRANSFER, REMOVE, *map(create_type, range(1025))]
        assert len(catalog) == 1027 and list(catalog) == types
        assert catalog.sizes == tuple(t.size for t in types)
        assert catalog.gas == tuple(t.gas for t in types)
        assert catalog[0] is TRANSFER and catalog[1] is REMOVE
        assert catalog[-1] == create_type(1024)
        assert catalog[1:4] == tuple(types[1:4])
        assert catalog[::-300] == tuple(types[::-300])
        for i in (1027, -1028):
            with pytest.raises(IndexError):
                catalog[i]
        assert Catalog(catalog) is catalog
        vmax = 3 * catalog.max_size
        assert np.array_equal(Catalog(list(catalog)).min_gas(vmax),
                              catalog.min_gas(vmax))

    def test_ukp_check_makes_no_type(self, monkeypatch, capsys):
        made = []
        post_init = TxType.__post_init__

        def counted(self):
            made.append(self.name)
            post_init(self)
        monkeypatch.setattr(TxType, "__post_init__", counted)
        standard_catalog()
        assert made == []
        assert cli.main(["analyze", "ukp-check", "--samples", "10"]) == 0
        assert made == []
        assert standard_catalog()[7].name == "create(5)" and made == ["create(5)"]


class TestDominance:
    def test_transfer_dominates_full_catalog(self, catalog):
        # latency_gas_bound counts transfers alone on this assumption
        assert dominance_check(catalog) is TRANSFER

    def test_single_kind_dominates_itself(self):
        only = (TxType("solo", 100, 10),)
        assert dominance_check(only) is only[0]

    def test_adversarial_catalog(self):
        cheap = TxType("cheap", 1000, 10)
        # one Catalog: each plain sequence would fill the table again
        cat = Catalog((cheap, TxType("transferish", 174, 80502)))
        assert dominance_check(cat) is cheap
        # confirmed by the solver on small capacities
        for cap in range(0, 200, 7):
            assert ukp_max_value(cap, cat) == (cap // 10) * 1000

    def test_exact_past_two_to_the_53(self):
        """As floats, ceil((2**53 + 1) / 1) copies of k fit j's 2**53 gas,
        so k read as dominant and the closed form lost j's extra byte."""
        k, j = TxType("k", 1, 1), TxType("j", 2 ** 53 + 1, 2 ** 53)
        assert dominance_check((k, j)) is None
        with pytest.raises(AnalyticsError):
            max_block_size_closed_form(2 ** 53, (k, j))

    def test_best_ratio_is_exact_and_the_first_on_ties(self):
        # 2**60 / (2**60 - 1) is 1.0 as a float, a tie with b
        b, a = TxType("b", 1, 1), TxType("a", 2 ** 60, 2 ** 60 - 1)
        assert Catalog((b, a)).best is a
        assert Catalog((b, TxType("b2", 2, 2))).best is b

    def test_no_dominator(self):
        # small-and-cheap vs huge-and-efficient: neither wins everywhere
        cat = (TxType("a", 10, 10), TxType("b", 1000, 500))
        assert dominance_check(cat) is None
        with pytest.raises(AnalyticsError):
            max_block_size_closed_form(1000, cat)


class TestHeaderOverhead:
    def test_one_year_at_five_minutes(self):
        overhead = header_overhead(YEAR_SECONDS, 300.0)
        assert overhead == 1909 * 105120 == 200_674_080
        assert float(overhead) / MIB == pytest.approx(191.38, abs=0.01)

    def test_zero_time(self):
        assert header_overhead(0, 300.0) == 0

    def test_doubling_period_halves_overhead(self):
        assert header_overhead(1000, 600.0) * 2 == header_overhead(1000, 300.0)

    def test_linear_in_time(self):
        assert header_overhead(2000, 300.0) == 2 * header_overhead(1000, 300.0)


class TestGrowthRate:
    def test_empty_multiset_is_header_term(self):
        assert growth_rate(0, 3000, 300.0, []) == header_overhead(3000, 300.0)

    def test_snapshot_difference_consistency(self):
        # growth over [t1, t2] equals growth over [0, t2] minus [0, t1]
        ms = [(TRANSFER, 7)]
        total = growth_rate(0, 900, 300.0, ms)
        assert total == growth_rate(0, 300, 300.0, []) \
            + growth_rate(300, 900, 300.0, ms)

    def test_annual_table_matches_published_figures(self):
        rows = annual_growth_table(period=300.0)
        expected = [(10_000, 29.7, 221.08, 86.56),
                    (100_000, 297.0, 488.45, 39.18),
                    (1_000_000, 2.9 * 1024, 3.09 * 1024, 6.05)]
        for row, (n, content, total, pct) in zip(rows, expected):
            assert row.creations_per_year == n
            assert row.content_mib == pytest.approx(content, rel=5e-3)
            assert row.total_mib == pytest.approx(total, rel=5e-3)
            assert row.overhead_pct == pytest.approx(pct, abs=0.01)

    def test_content_term_value(self):
        row = analytics.annual_growth_row(10_000)
        assert row.content_bytes == 10_000 * (1233 + 142) + 100_000 * 174 \
            == 31_150_000


class TestFig3Sweep:
    def test_five_minute_point(self):
        sweep = dict(annual_header_overhead_sweep())
        assert sweep[5] == 200_674_080

    def test_scaling(self):
        sweep = dict(annual_header_overhead_sweep())
        assert sweep[10] * 2 == sweep[5]
        assert sweep[1] == 5 * sweep[5]


class TestPlanGasLimit:
    def test_ideal(self):
        plan = plan_gas_limit(100, 50, 200)
        assert plan.tag == "ideal"
        assert 100 <= plan.recommendation <= 200

    def test_average_bounded(self):
        plan = plan_gas_limit(300, 150, 200)
        assert plan.tag == "average-bounded"
        assert plan.recommendation == 200

    def test_latency_tradeoff_never_below_average(self):
        plan = plan_gas_limit(300, 150, 100)
        assert plan.tag == "latency-tradeoff"
        assert plan.recommendation == 150

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            plan_gas_limit(100, 200, 300)

    @pytest.mark.parametrize("bounds", [(-5, -10, -20), (100, 50, -1),
                                        (100, -1, 200)])
    def test_negative_bounds_rejected(self, bounds):
        with pytest.raises(InvalidBounds, match="cannot be negative"):
            plan_gas_limit(*bounds)
