import dataclasses
import math
import random

import pytest

from custodysim import consensus, simulation
from custodysim.analytics import consensus_latency
from custodysim.blocks import Block, Mempool, block_digest
from custodysim.consensus import ConsensusMessage, MsgType, Validator
from custodysim.config import parse_byzantine
from custodysim.ledger import (Address, EvidenceId, LedgerState, TxKind,
                               create_tx, remove_tx, transfer_tx)
from custodysim.netsim import (LinkModel, Network, Scheduler,
                               SchedulingInPast)
from custodysim.simulation import (EQUIVOCATE, SILENT, ConfigError,
                                   ExperimentConfig, Simulation,
                                   run_experiment)
from custodysim.workload import RampSpec, RateSpec, constant_rate_workload, \
    ramp_workload

from conftest import random_ops

T = 300.0


def _cfg(**kw):
    defaults = dict(period=T, gas_limit=805020, validators=4, seed=0,
                    periods=10)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _run(periods=10, tx_per_period=2, **kw):
    cfg = _cfg(periods=periods, **kw)
    wl = constant_rate_workload(RateSpec(tx_per_period, periods),
                                seed=cfg.seed, period=T)
    return run_experiment(cfg, wl)


class TestModelCrossCheck:
    """The measured consensus latency of every committed block equals the
    closed-form byte model, not just at criterion 6's empty block."""

    @pytest.mark.parametrize("bandwidth,validators", [(2e6, 4), (5e5, 7)])
    def test_mean_lc_matches_consensus_latency(self, bandwidth, validators):
        cfg = _cfg(periods=20, bandwidth=bandwidth, validators=validators,
                   seed=3)
        # the ramp ends at about twice the gas limit, so blocks fill up
        wl = ramp_workload(RampSpec(0, 1_600_000, cfg.periods), cfg.seed, T)
        rows = [r for r in run_experiment(cfg, wl).rows
                if not math.isnan(r.mean_lc)]
        assert len({r.committed_block_size for r in rows}) >= 10
        for r in rows:
            assert r.mean_lc == pytest.approx(
                consensus_latency(r.committed_block_size, cfg), rel=1e-9)


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("kw", [
        dict(period=0), dict(periods=0), dict(validators=0),
        dict(gas_limit=-1), dict(bandwidth=0),
        dict(byzantine=((9, SILENT),)),
        dict(byzantine=((1, "weird"),)),
        dict(validators=4, byzantine=((1, SILENT), (2, SILENT))),
        dict(validators=7, byzantine=((3, SILENT), (3, EQUIVOCATE))),
        dict(round_timeout=0), dict(round_timeout=-1),
        dict(base_delay=-1), dict(jitter=-5),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            _cfg(**kw).validate()

    # every float setting, so a new one cannot skip the check
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(ExperimentConfig) if "float" in f.type])
    def test_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("spec", [
        "3:silent", " 3 : silent", "3 :silent", "3: silent ", "\t3:\tsilent"])
    def test_byzantine_spaces_around_the_colon(self, spec):
        assert parse_byzantine(spec) == ((3, SILENT),)
        _cfg(byzantine=parse_byzantine(spec)).validate()

    def test_round_timeout_defaults_to_two_periods(self):
        assert _cfg().effective_round_timeout == 2 * T
        assert _cfg(round_timeout=10.0).effective_round_timeout == 10.0


class TestHonestRun:
    def test_all_validators_agree(self):
        result = _run()
        digests = set(result.chain_digests.values())
        assert len(digests) == 1
        assert set(result.chain_lengths.values()) == {10}

    def test_one_block_per_period(self):
        result = _run(periods=20)
        assert set(result.chain_lengths.values()) == {20}
        assert result.blocks_per_period >= 0.95

    def test_deterministic_per_seed(self):
        a, b = _run(seed=5), _run(seed=5)
        assert a.chain_digests == b.chain_digests
        assert [(r.period_index, r.gas_rate, r.mean_lb, r.mean_lc)
                for r in a.rows] == \
            [(r.period_index, r.gas_rate, r.mean_lb, r.mean_lc)
             for r in b.rows]

    def test_different_seed_different_chain(self):
        assert _run(seed=1).chain_digests != _run(seed=2).chain_digests

    def test_all_transactions_committed_with_receipts(self):
        result = _run(periods=8, tx_per_period=3)
        assert len(result.tx_records) == 24
        assert set(result.receipts) == set(result.tx_records)

    def test_inclusion_latency_bounds(self):
        result = _run(periods=30, tx_per_period=4)
        lbs = [r.mean_lb for r in result.rows if not math.isnan(r.mean_lb)]
        mean = sum(lbs) / len(lbs)
        # uniform issue times within the period: mean inclusion near T/2
        assert abs(mean - T / 2) < 0.1 * T
        assert all(r.max_lb <= T for r in result.rows
                   if not math.isnan(r.max_lb))

    def test_consensus_latency_matches_transport_model(self):
        result = _run(periods=10, tx_per_period=2, bandwidth=1e6)
        # block with 2 transfers: (256 + 2257 + 128 + 128) / 1e6
        lcs = {lat for _, lat in result.commit_latencies}
        assert any(abs(l - 2.769e-3) < 1e-9 for l in lcs)

    def test_gas_rate_is_the_gas_issued_in_each_period(self):
        # two 80502-gas transfers per period; the drain issues nothing
        result = _run(periods=6, tx_per_period=2)
        assert [r.gas_rate for r in result.rows] == [161004] * 6 + [0]

    def test_gas_rate_of_a_ramp_is_non_decreasing(self):
        cfg = _cfg(periods=8)
        wl = ramp_workload(RampSpec(0, 1_600_000, cfg.periods), 0, T)
        rates = [r.gas_rate for r in run_experiment(cfg, wl).rows]
        assert rates[:8] == sorted(rates[:8]) and rates[7] > rates[1]

    def test_chain_size_accumulates(self):
        result = _run(periods=6, tx_per_period=0)
        sizes = [r.chain_size_bytes for r in result.rows]
        assert sizes == sorted(sizes)
        assert sizes[0] >= 4096 + 1909


class TestQuorumOfOne:
    """With 1 to 3 validators f = 0, so one vote is a quorum: each replica
    commits on its own votes, with no other replica's vote needed."""

    @pytest.mark.parametrize("jitter", [0.0, 0.005])
    @pytest.mark.parametrize("validators", [1, 2, 3])
    def test_every_replica_commits_one_block_per_period(self, validators,
                                                        jitter):
        assert consensus.quorum_size(validators) == 1
        cfg = _cfg(periods=5, validators=validators, jitter=jitter,
                   base_delay=0.01)
        wl = constant_rate_workload(RateSpec(2, cfg.periods), seed=0, period=T)
        sim = Simulation(cfg, wl)
        result = sim.run()
        # the block of period p is proposed at the end of period p, so the
        # fifth comes in a sixth period, as with any n
        assert result.periods_elapsed == 6
        for node in sim.nodes.values():
            assert [b.timestamp for b in node.validator.chain] == \
                [p * T for p in range(5)]
        assert len(set(result.chain_digests.values())) == 1
        assert len(result.tx_records) == 10


class TestOverload:
    def test_backlog_grows_past_gas_limit(self):
        # ramp crossing the gas limit: early periods keep up, late ones
        # accumulate a backlog and inclusion latency climbs
        cfg = _cfg(periods=40, drain=False)
        wl = ramp_workload(RampSpec(0, 2 * cfg.gas_limit, 40), seed=3,
                           period=T)
        result = run_experiment(cfg, wl)
        depths = [r.mempool_depth for r in result.rows]
        assert depths[-1] > depths[10]
        late = [r.mean_lb for r in result.rows[25:30]
                if not math.isnan(r.mean_lb)]
        early = [r.mean_lb for r in result.rows[5:10]
                 if not math.isnan(r.mean_lb)]
        assert min(late) > max(early)

    def test_drain_extends_run_until_mempool_empty(self):
        cfg = _cfg(periods=10, gas_limit=161004, drain=True)
        wl = constant_rate_workload(RateSpec(3, 10), seed=1, period=T)
        result = run_experiment(cfg, wl)
        assert result.periods_elapsed > 10
        assert set(result.tx_records) == {tx.uid for tx in wl}

    def test_oversized_transaction_flagged_stuck(self):
        # every such transaction is stuck: the second one behind the
        # first, and one issued in the last period, which no block follows
        cfg = _cfg(periods=3, gas_limit=100_000, drain=False)
        for times, stuck in [([10.0], [1]), ([10.0, 20.0], [1, 2]),
                             ([2 * T + 10.0], [1])]:
            bigs = [create_tx(uid, Address.from_int(1),
                              EvidenceId.from_int(uid), "x" * 1024, t)
                    for uid, t in enumerate(times, 1)]
            assert bigs[0].gas == 897367   # can never fit
            result = run_experiment(cfg, bigs)
            assert result.stuck_transactions == stuck
            assert result.tx_records == {}


class TestIssuing:
    """Each transaction is scheduled when the period it is issued in opens,
    and is injected at its issue time."""

    @staticmethod
    def _transfer(uid, t):
        return transfer_tx(uid, Address.from_int(1), EvidenceId.from_int(uid),
                           Address.from_int(2), t)

    def test_equal_issue_times_reach_mempool_and_chain_in_uid_order(
            self, monkeypatch):
        submitted = []
        real_submit = Mempool.submit

        def spy(pool, tx):
            submitted.append((pool, tx.uid))
            real_submit(pool, tx)

        monkeypatch.setattr(Mempool, "submit", spy)
        uids = [5, 2, 9, 1, 7]
        wl = [self._transfer(u, 0.4 * T) for u in uids] + \
            [self._transfer(u, T) for u in (8, 3)]
        sim = Simulation(_cfg(periods=3), wl)
        sim.run()
        reference = sim.nodes[sim.reference].mempool
        assert [u for pool, u in submitted if pool is reference] == \
            sorted(uids) + [3, 8]
        chain = sim.nodes[sim.reference].validator.chain
        assert [tx.uid for b in chain for tx in b.transactions] == \
            sorted(uids) + [3, 8]

    def test_negative_issue_time_raises_before_any_event_fires(
            self, monkeypatch):
        runs = []
        monkeypatch.setattr(Scheduler, "run_until",
                            lambda sched, t: runs.append(t))
        wl = [self._transfer(1, 5.0), self._transfer(2, -1.0)]
        with pytest.raises(SchedulingInPast):
            run_experiment(_cfg(periods=3), wl)
        assert runs == []

    @pytest.mark.parametrize("time,error", [
        (math.inf, ConfigError), (math.nan, ConfigError),
        (-math.inf, SchedulingInPast)])
    def test_non_finite_issue_time_raises_before_any_event_fires(
            self, monkeypatch, time, error):
        runs = []
        monkeypatch.setattr(Scheduler, "run_until",
                            lambda sched, t: runs.append(t))
        wl = [self._transfer(1, 5.0), self._transfer(7, time)]
        with pytest.raises(error) as raised:
            run_experiment(_cfg(periods=3), wl)
        assert runs == []
        if error is ConfigError:
            assert "transaction 7 " in str(raised.value)

    def test_repeated_uid_raises_before_any_event_fires(self, monkeypatch):
        """Receipts and tx_records are keyed by uid, so a second
        transaction with a uid would be dropped while its gas counts."""
        runs = []
        monkeypatch.setattr(Scheduler, "run_until",
                            lambda sched, t: runs.append(t))
        issuer = Address.from_int(1)
        wl = [create_tx(1, issuer, EvidenceId.from_int(5), "", 10.0),
              create_tx(1, issuer, EvidenceId.from_int(6), "", 20.0)]
        with pytest.raises(ConfigError, match="uid 1 "):
            run_experiment(_cfg(periods=3), wl)
        assert runs == []

    def test_issue_at_a_boundary_is_injected_up_to_that_boundary(
            self, monkeypatch):
        runs, injected = [], []
        real_run_until, real_inject = Scheduler.run_until, Network.inject

        def run_until(sched, t):
            runs.append(t)
            real_run_until(sched, t)

        def inject(net, tx, size):
            injected.append((tx.uid, net.scheduler.now, runs[-1]))
            real_inject(net, tx, size)

        monkeypatch.setattr(Scheduler, "run_until", run_until)
        monkeypatch.setattr(Network, "inject", inject)
        result = run_experiment(_cfg(periods=3), [self._transfer(1, T)])
        assert runs[:2] == [T, 2 * T]
        assert injected == [(1, T, T)]
        assert 1 in result.tx_records


def _depth_by_scan(sim, periods, committed_at):
    """Arrivals at the reference replica minus its commits, at each period
    boundary, from the workload and the commit times alone; no mempool is
    read. On a jitter-free network a client transaction reaches every
    mempool one link delay after it is issued."""
    cfg = sim.config
    link = LinkModel(cfg.bandwidth, cfg.base_delay)
    arrivals = [tx.issue_time + link.transmission_delay(tx.size)
                for tx in sim.workload]
    depths = []
    for p in range(periods):
        boundary = (p + 1) * cfg.period
        depths.append(sum(t <= boundary for t in arrivals)
                      - sum(t <= boundary for t in committed_at.values()))
    return depths


class TestMempoolDepth:
    """mempool_depth is the reference replica's pending count at each
    boundary; an oracle that reads no mempool checks it."""

    def _check(self, cfg, wl):
        assert cfg.jitter == 0
        sim = Simulation(cfg, wl)
        result = sim.run()
        ref = sim.nodes[sim.reference]
        committed_at = {}   # uid -> when the reference replica committed it
        for block, now in zip(ref.validator.chain, ref.commit_times):
            for tx in block.transactions:
                committed_at.setdefault(tx.uid, now)
        depths = [r.mempool_depth for r in result.rows]
        assert depths == _depth_by_scan(sim, result.periods_elapsed,
                                        committed_at)
        return depths

    def test_backlog_matches_scan(self):
        cfg = _cfg(periods=30)
        wl = constant_rate_workload(RateSpec(12, 30), seed=2, period=T)
        depths = self._check(cfg, wl)
        assert max(depths) > 20

    def test_round_change_matches_scan(self):
        # a silent proposer with a short timeout: the next proposer builds
        # mid-period, so its block also takes some of that period's txs
        cfg = _cfg(periods=20, byzantine=((1, SILENT),),
                   round_timeout=0.5 * T)
        wl = constant_rate_workload(RateSpec(4, 20), seed=8, period=T)
        depths = self._check(cfg, wl)
        assert min(depths[:-1]) < 4

    def test_equivocation_matches_scan(self):
        cfg = _cfg(periods=20, byzantine=((1, EQUIVOCATE),))
        wl = constant_rate_workload(RateSpec(3, 20), seed=11, period=T)
        depths = self._check(cfg, wl)
        assert max(depths) > 3

    def test_constant_rate_leaves_one_period_pending(self):
        # the block started at a boundary holds the transactions of the
        # period that boundary closes and commits after it, so each
        # boundary sees one period's transactions pending
        cfg = _cfg(periods=8)
        wl = constant_rate_workload(RateSpec(3, 8), seed=0, period=T)
        assert self._check(cfg, wl) == [3] * 8 + [0]

    def test_drained_ramp_matches_scan(self):
        cfg = _cfg(periods=12)
        wl = ramp_workload(RampSpec(0, 1_600_000, cfg.periods), 0, T)
        depths = self._check(cfg, wl)
        assert len(depths) > cfg.periods and depths[-1] == 0

    def test_strict_admission_leaves_every_mempool_empty(self):
        # transfers of evidence no ledger holds: every replica drops them
        cfg = _cfg(periods=8, reject_invalid_at_mempool=True)
        wl = constant_rate_workload(RateSpec(3, 8), seed=0, period=T)
        result = run_experiment(cfg, wl)
        assert result.tx_records == {}
        assert [r.mempool_depth for r in result.rows] == [0] * 8


class TestDigestCost:
    def test_one_digest_per_replica_per_proposal(self, monkeypatch):
        calls = {"digest": 0, "propose": 0}
        real_digest, real_propose = consensus.block_digest, Validator.propose

        def counting_digest(block):
            calls["digest"] += 1
            return real_digest(block)

        def counting_propose(self, block):
            calls["propose"] += 1
            return real_propose(self, block)

        monkeypatch.setattr(consensus, "block_digest", counting_digest)
        monkeypatch.setattr(Validator, "propose", counting_propose)
        result = _run(periods=6, tx_per_period=3, validators=7)
        assert set(result.chain_lengths.values()) == {6}
        assert calls["digest"] <= (7 + 1) * calls["propose"]


class TestAdmissionPolicy:
    def test_invalid_transactions_rejected_at_mempool(self):
        bad = transfer_tx(1, Address.from_int(1), EvidenceId.from_int(9),
                          Address.from_int(2), 10.0)  # unknown evidence
        permissive = run_experiment(_cfg(periods=3), [bad])
        strict = run_experiment(
            _cfg(periods=3, reject_invalid_at_mempool=True), [bad])
        assert 1 in permissive.receipts and not permissive.receipts[1].succeeded
        assert 1 not in strict.tx_records


class TestByzantine:
    def test_silent_validator_safety_and_liveness(self):
        cfg = _cfg(periods=20, byzantine=((3, SILENT),),
                   round_timeout=0.5 * T)
        wl = constant_rate_workload(RateSpec(2, 20), seed=4, period=T)
        result = run_experiment(cfg, wl)
        honest = {result.chain_digests[i] for i in result.honest}
        assert len(honest) == 1
        assert result.blocks_per_period >= 0.9

    def test_silent_validator_admits_no_transactions(self):
        cfg = _cfg(periods=50, byzantine=((3, SILENT),))
        wl = constant_rate_workload(RateSpec(4, 50), seed=0, period=T)
        sim = Simulation(cfg, wl)
        sim.run()
        assert len(wl) == 200
        assert len(sim.nodes[3].mempool) == 0
        silent = sim.nodes[3].validator
        assert not silent.active and silent.chain == []

    def test_equivocating_validator_safety_and_liveness(self):
        cfg = _cfg(periods=20, byzantine=((2, EQUIVOCATE),),
                   round_timeout=0.5 * T)
        wl = constant_rate_workload(RateSpec(2, 20), seed=4, period=T)
        result = run_experiment(cfg, wl)
        honest = {result.chain_digests[i] for i in result.honest}
        assert len(honest) == 1
        assert result.blocks_per_period >= 0.9

    def test_head_digest_names_the_last_committed_block(self):
        cfg = _cfg(periods=10, validators=7, base_delay=0.05, jitter=0.02,
                   byzantine=((3, EQUIVOCATE),), seed=11)
        sim = Simulation(cfg, constant_rate_workload(RateSpec(2, 10), 11, T))
        sim.run()
        for node in sim.nodes.values():
            v = node.validator
            assert v.head_digest == (block_digest(v.chain[-1]) if v.chain
                                     else sim.genesis)
        assert min(len(n.validator.chain) for n in sim.nodes.values()) > 0

    def test_honest_replicas_apply_same_receipts(self):
        cfg = _cfg(periods=12, byzantine=((0, SILENT),),
                   round_timeout=0.5 * T)
        wl = constant_rate_workload(RateSpec(2, 12), seed=6, period=T)
        result = run_experiment(cfg, wl)
        assert set(result.receipts) == set(result.tx_records)

    def test_honest_replicas_reach_the_same_ledger(self):
        # random_ops collides on small pools, so many transactions revert;
        # 20 ids keep enough entries live to compare their histories
        cfg = _cfg(periods=5, validators=7, base_delay=0.05, jitter=0.02,
                   byzantine=((2, SILENT), (5, EQUIVOCATE)), seed=4)
        sim = Simulation(cfg, random_ops(random.Random(4), 200, n_ids=20))
        result = sim.run()
        outcomes = {r.succeeded for r in result.receipts.values()}
        assert len(result.receipts) == 200 and outcomes == {True, False}
        ref = sim.nodes[sim.reference].ledger.evidences
        assert ref
        for i in result.honest:
            ledger = sim.nodes[i].ledger.evidences
            assert ledger.keys() == ref.keys()
            for eid, entry in ref.items():
                other = ledger[eid]
                assert (other.owner, other.taddr, other.ttime) == \
                    (entry.owner, entry.taddr, entry.ttime)


class TestFaultRules:
    """A fault kind is one rule on the consensus messages a node sends."""

    @staticmethod
    def _outgoing(sim, sender):
        block = Block(0, sim.genesis, proposer=sender, timestamp=0.0)
        return {kind: ConsensusMessage(
                    kind, 0, 0, block_digest(block), sender,
                    block if kind is MsgType.PRE_PREPARE else None)
                for kind in MsgType}

    @pytest.mark.parametrize("n", [4, 7])
    def test_equivocate_sends_each_half_its_own_proposal(self, n):
        sim = Simulation(_cfg(validators=n, byzantine=((1, EQUIVOCATE),)), [])
        node, msgs = sim.nodes[1], self._outgoing(sim, 1)
        proposal = msgs[MsgType.PRE_PREPARE]
        (first, to_first), (second, to_second) = \
            simulation._equivocate(node, proposal)
        assert first is proposal
        assert (second.type, second.height, second.round, second.sender) == \
            (MsgType.PRE_PREPARE, 0, 0, 1)
        assert second.digest == block_digest(second.block) != first.digest
        ids = sorted(sim.nodes)
        assert (to_first, to_second) == (ids[:n // 2], ids[n // 2:])
        for vote in (MsgType.PREPARE, MsgType.COMMIT):
            assert simulation._equivocate(node, msgs[vote]) == ()

    def test_silent_sends_nothing(self):
        sim = Simulation(_cfg(byzantine=((3, SILENT),)), [])
        for msg in self._outgoing(sim, 3).values():
            assert simulation._silent(sim.nodes[3], msg) == ()


class TestHonestSendPath:
    """Honest nodes send without running a fault rule; a rule that passes
    each message through unchanged must give the same run."""

    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    def test_pass_through_rule_matches_the_all_honest_run(self, jitter,
                                                          monkeypatch):
        cfg = _cfg(periods=12, validators=4, base_delay=0.05, jitter=jitter,
                   seed=2)
        wl = _lifecycle(cfg.periods, 3, seed=2)
        honest = run_experiment(cfg, wl)
        relayed = []

        def pass_through(node, msg):
            relayed.append(msg.type)
            return ((msg, None),)

        monkeypatch.setattr(simulation, "_FAULTS",
                            {**simulation._FAULTS, EQUIVOCATE: pass_through})
        labelled = dataclasses.replace(cfg, byzantine=((1, EQUIVOCATE),))
        result = run_experiment(labelled, wl)
        assert set(relayed) == set(MsgType)
        # the label names validator 1 in the config and takes it out of
        # the honest list; nothing else may tell the runs apart
        assert (result.config, result.honest) == (labelled, [0, 2, 3])
        result = dataclasses.replace(result, config=cfg, honest=[0, 1, 2, 3])
        for field in dataclasses.fields(result):
            assert repr(getattr(result, field.name)) == \
                repr(getattr(honest, field.name)), field.name


class TestRoundTimers:
    """Each replica holds only its latest round timer, and pushes it onto
    the heap once the period it falls in opens."""

    def test_replaced_timer_never_fires(self, monkeypatch):
        calls = []
        real = Validator._on_round_timeout

        def spy(v, height, round_):
            calls.append((v.index, height, round_))
            real(v, height, round_)

        monkeypatch.setattr(Validator, "_on_round_timeout", spy)
        result = _run(periods=30)
        # the default timeout is two periods, so every timer is replaced
        # by the next height's before it falls due
        assert set(result.chain_lengths.values()) == {30}
        assert len(calls) <= 4

    def test_held_timer_keeps_the_place_of_its_arm(self):
        sim = Simulation(_cfg(), [])
        node, sched, seen = sim.nodes[0], sim.scheduler, []
        sim.boundary = 1.0
        node._set_timer(1.0, lambda: seen.append("due at the boundary"))
        assert node.timer is None and sched.pending() == 1
        node._set_timer(2.0, lambda: seen.append("held"))
        sched.schedule_at(2.0, seen.append, "scheduled after the arm")
        assert node.timer is not None and sched.pending() == 2
        sim.boundary = 2.0
        node.release_timer()
        node._set_timer(5.0, lambda: seen.append("replaced"))
        node._set_timer(6.0, lambda: seen.append("latest"))
        sim.boundary = 6.0
        node.release_timer()
        sched.run_until(6.0)
        assert seen == ["due at the boundary", "held",
                        "scheduled after the arm", "latest"]

    @pytest.mark.parametrize("fault", [(), ((1, SILENT),),
                                       ((1, EQUIVOCATE),)])
    @pytest.mark.parametrize("timeout", [None, 0.05, 0.5 * T, 1.5 * T])
    @pytest.mark.parametrize("jitter", [0.0, 0.2 * T])
    def test_matches_scheduling_every_timer(self, jitter, timeout, fault,
                                            monkeypatch):
        cfg = _cfg(periods=12, validators=5, base_delay=0.01, jitter=jitter,
                   round_timeout=timeout, byzantine=fault, seed=1)
        wl = constant_rate_workload(RateSpec(3, cfg.periods), 1, T)
        result = run_experiment(cfg, wl)
        with monkeypatch.context() as m:
            m.setattr(simulation._Node, "_set_timer",
                      lambda node, delay, action:
                      node.sim.scheduler.schedule(delay, action))
            expected = run_experiment(cfg, wl)
        for field in dataclasses.fields(result):
            assert repr(getattr(result, field.name)) == \
                repr(getattr(expected, field.name)), field.name


class TestCommitLatency:
    """A block's consensus latency runs from the first broadcast of the
    highest round proposed at its height to the reference replica's
    commit of it."""

    def test_measured_from_first_proposal_of_highest_round(self):
        sim = Simulation(_cfg(), [])
        block = Block(0, sim.genesis, proposer=2, timestamp=0.0)

        def propose_at(t, round_):
            sim.scheduler.run_until(t)
            sim.note_proposal(ConsensusMessage(
                MsgType.PRE_PREPARE, 0, round_, block_digest(block),
                round_ % 4, block))

        propose_at(1.0, 0)
        propose_at(5.0, 70)
        propose_at(6.0, 70)   # a re-broadcast keeps the first time
        propose_at(6.5, 3)    # a lower round is not the committing one
        sim.scheduler.run_until(7.5)
        reference = sim.nodes[sim.reference].validator
        reference.locked_block = block
        reference.locked_digest = block_digest(block)
        reference._commit()
        propose_at(8.0, 71)   # a lagging replica's round after the commit
        assert sim._result().commit_latencies == [(0, 2.5)]

    def test_latencies_stay_positive_when_replicas_lag(self):
        # jitter splits the replicas: some time out on a height the
        # reference replica has committed and propose it in later rounds
        cfg = _cfg(period=5.0, periods=20, jitter=0.2, base_delay=0.3,
                   round_timeout=1.0)
        wl = constant_rate_workload(RateSpec(2, cfg.periods), 0, cfg.period)
        result = run_experiment(cfg, wl)
        assert len(result.commit_latencies) == 21
        assert min(lat for _, lat in result.commit_latencies) > 0


def _lifecycle(periods, per_period, seed):
    """Custody lifecycles one period apart: each item is created, handed on
    twice and, unless it is the first of its period, removed. A transfer
    or remove is valid only once the block before it has been applied."""
    rng = random.Random(seed)
    users = [Address.from_int(i) for i in range(1, 6)]
    txs = []
    for p in range(periods - 3):
        for k in range(per_period):
            eid = EvidenceId.from_int(p * per_period + k + 1)
            creator = owner = rng.choice(users)
            t = (p + rng.random()) * T
            txs.append(create_tx(len(txs) + 1, creator, eid, "d", t))
            for step in (1, 2):
                new_owner = rng.choice(users)
                txs.append(transfer_tx(len(txs) + 1, owner, eid, new_owner,
                                       t + step * T))
                owner = new_owner
            if k:
                txs.append(remove_tx(len(txs) + 1, creator, eid, t + 3 * T))
    return txs


class _EagerNode(simulation._Node):
    """The eager oracle: every replica applies each block to its own
    ledger as it commits it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.eager = LedgerState()

    @property
    def ledger(self):
        return self.eager

    def _committed(self, block):
        self.receipts.extend(self.eager.apply(tx, block.timestamp)
                             for tx in block.transactions)
        super()._committed(block)


def _ledgers(sim):
    return {i: {eid: (e.owner, e.taddr, e.ttime)
                for eid, e in node.ledger.evidences.items()}
            for i, node in sim.nodes.items()}


class TestLazyLedger:
    """Every replica's ledger, the reference replica's included, applies
    its own chain when it is read, and reads exactly what eager
    application would give. The run reads the reference ledger once, when
    it ends, so each committed transaction is applied once per run."""

    @pytest.mark.parametrize("reject", [False, True])
    @pytest.mark.parametrize("fault", [SILENT, EQUIVOCATE])
    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    @pytest.mark.parametrize("n", [4, 7])
    def test_matches_eager_application(self, n, jitter, fault, reject,
                                       monkeypatch):
        cfg = _cfg(periods=12, validators=n, base_delay=0.05, jitter=jitter,
                   byzantine=((1, fault),), round_timeout=0.5 * T,
                   reject_invalid_at_mempool=reject, seed=n)
        wl = _lifecycle(cfg.periods, 3, seed=n)
        sim = Simulation(cfg, wl)
        result = sim.run()
        with monkeypatch.context() as m:
            m.setattr(simulation, "_Node", _EagerNode)
            oracle = Simulation(cfg, wl)
            expected = oracle.run()
        for field in dataclasses.fields(result):
            assert repr(getattr(result, field.name)) == \
                repr(getattr(expected, field.name)), field.name
        assert _ledgers(sim) == _ledgers(oracle)
        # the workload does what it is for: lifecycles commit, and replicas
        # other than the reference propose transfers and removes
        chain = sim.nodes[sim.reference].validator.chain
        assert sim.nodes[sim.reference].ledger.evidences
        assert any(b.proposer != sim.reference and
                   any(tx.kind is not TxKind.CREATE for tx in b.transactions)
                   for b in chain)
        assert any(result.receipts[tx.uid].succeeded for tx in wl
                   if tx.kind is TxKind.REMOVE and tx.uid in result.receipts)

    def test_one_apply_per_committed_transaction(self, monkeypatch):
        calls = []
        real_apply = LedgerState.apply

        def counting_apply(self, tx, ledger_time):
            calls.append(tx.uid)
            return real_apply(self, tx, ledger_time)

        monkeypatch.setattr(LedgerState, "apply", counting_apply)
        cfg = _cfg(periods=12)
        sim = Simulation(cfg, _lifecycle(cfg.periods, 3, seed=1))
        sim.run()

        def txs(i):
            return [tx.uid for b in sim.nodes[i].validator.chain
                    for tx in b.transactions]

        assert calls == txs(sim.reference) and calls
        for i in sim.nodes:
            before = len(calls)
            sim.nodes[i].ledger
            sim.nodes[i].ledger
            applied = calls[before:]
            assert applied == ([] if i == sim.reference else txs(i))
