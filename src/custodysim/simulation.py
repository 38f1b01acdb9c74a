"""End-to-end simulation: validators, mempools, workload and metrics.

Wires the consensus state machines to the discrete-event network, drives
one proposal per block period and collects per-period metrics (gas rate,
inclusion latency, consensus latency, chain size). Only the reference
replica applies each block to its ledger as it commits, for the receipts;
every other replica's ledger applies its own chain when it is read.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace

from . import blocks as blk
from .analytics import block_inclusion_latency
from .blocks import Block, Mempool, block_digest, block_size, build_block
# ConfigError is re-exported: callers import it with ExperimentConfig
from .config import (EQUIVOCATE, MAX_DRAIN_PERIODS, SILENT, ConfigError,
                     ExperimentConfig)
from .consensus import PRE_PREPARE, ConsensusMessage, Validator, wire_size
from .ledger import LedgerState, Transaction
from .netsim import LinkModel, Network, Scheduler


@dataclass
class MetricsRow:
    """One period's metrics. ``mempool_depth`` is the reference replica's
    mempool size after every event due at the period's closing boundary,
    before the next height starts; it leaves out transactions still in
    flight to that replica and any that strict admission dropped."""

    period_index: int
    gas_rate: int
    mean_lb: float
    max_lb: float
    mean_lc: float
    committed_block_size: int
    chain_size_bytes: int
    mempool_depth: int


@dataclass
class SimResult:
    config: ExperimentConfig
    rows: list
    chain_digests: dict        # validator index -> final head digest (hex)
    chain_lengths: dict        # validator index -> committed block count
    honest: list               # honest validator indices
    tx_records: dict           # uid -> (issue_time, block_timestamp)
    receipts: dict             # uid -> Receipt (from validator honest[0])
    commit_latencies: list     # (height, seconds)
    periods_elapsed: int
    stuck_transactions: list   # uids flagged as never fitting a block

    @property
    def blocks_per_period(self) -> float:
        n = min((self.chain_lengths[i] for i in self.honest), default=0)
        return n / self.periods_elapsed if self.periods_elapsed else 0.0


class _Node:
    """One validator process: consensus, a mempool and a ledger replica.
    The reference replica applies each block as it commits; any other
    replica's ledger catches up with its own chain when ``ledger`` is read.

    The send path is chosen at construction: an honest node broadcasts
    each message as it is, and only a faulty one runs its rule from
    ``_FAULTS``. Simulation chooses the admit callback when it registers
    the node: ``mempool.submit``, or ``_admit`` under strict admission."""

    def __init__(self, sim: "Simulation", index: int, fault):
        self.sim = sim
        self.index = index
        self.fault = fault  # a rule from _FAULTS, or None when honest
        self.mempool = Mempool()
        self._ledger = LedgerState()
        self._applied = 0   # blocks of validator.chain applied to _ledger
        cfg = sim.config
        self.validator = Validator(
            index=index, n=cfg.validators, gas_limit=cfg.gas_limit,
            round_timeout=cfg.effective_round_timeout,
            broadcast=self._send if fault is None else self._send_faulty,
            set_timer=sim.scheduler.schedule, build_block=self._build,
            on_commit=self._committed, genesis=sim.genesis)

    # environment hooks -------------------------------------------------

    def _send(self, msg: ConsensusMessage, recipients=None) -> None:
        if msg.type is PRE_PREPARE:
            self.sim.note_proposal(msg)
        self.sim.network.broadcast(self.index, msg, wire_size(msg),
                                   recipients)

    def _send_faulty(self, msg: ConsensusMessage) -> None:
        for out, recipients in self.fault(self, msg):
            self._send(out, recipients)

    def _build(self, height: int, round_: int, period_start: float) -> Block:
        stuck = self.mempool.stuck_head(self.sim.config.gas_limit)
        if stuck is not None:
            self.sim.note_stuck(stuck)
        return build_block(self.mempool, self.sim.config.gas_limit, height,
                           self.validator.head_digest, self.index,
                           period_start)

    def _committed(self, block: Block) -> None:
        self.mempool.remove_committed(tx.uid for tx in block.transactions)
        if self.index == self.sim.reference:
            self.sim.note_commit(block, self._apply_chain(),
                                 self.sim.scheduler.now)

    @property
    def ledger(self) -> LedgerState:
        """The state after every block this replica has committed."""
        self._apply_chain()
        return self._ledger

    def _apply_chain(self) -> list:
        """Apply the committed blocks not applied yet; one receipt per tx."""
        blocks = self.validator.chain[self._applied:]
        self._applied += len(blocks)
        return [self._ledger.apply(tx, block.timestamp)
                for block in blocks for tx in block.transactions]

    # inbound -----------------------------------------------------------

    def _admit(self, tx: Transaction) -> None:
        """A client transaction under strict admission: it enters the
        mempool only if this replica's ledger would apply it."""
        if self.ledger.validate(tx) is None:
            self.mempool.submit(tx)


# A fault kind is one rule: it maps a consensus message the node would
# send to the (message, recipients or None for all) pairs it sends.

def _silent(node: _Node, msg: ConsensusMessage) -> tuple:
    """Sends nothing; Simulation also never starts a silent node and has
    the network drop everything sent to it."""
    return ()


def _equivocate(node: _Node, msg: ConsensusMessage) -> tuple:
    """Proposes two conflicting blocks to disjoint halves; withholds votes.

    The node tracks the chain honestly, so later equivocations still
    carry a plausible parent digest.
    """
    if msg.type is not PRE_PREPARE:
        return ()
    ids = sorted(node.sim.nodes)
    half = len(ids) // 2
    alt_block = replace(msg.block, salt=msg.block.salt + 1)
    alt = ConsensusMessage(msg.type, msg.height, msg.round,
                           block_digest(alt_block), msg.sender, alt_block)
    return ((msg, ids[:half]), (alt, ids[half:]))


_FAULTS = {SILENT: _silent, EQUIVOCATE: _equivocate}


class Simulation:
    def __init__(self, config: ExperimentConfig, workload: list):
        self.config = config
        self.workload = sorted(workload, key=lambda tx: (tx.issue_time, tx.uid))
        self.scheduler = Scheduler()
        link = LinkModel(config.bandwidth, config.base_delay)
        self.network = Network(self.scheduler, link, jitter=config.jitter,
                               rng=random.Random(config.seed))
        self.genesis = blk.genesis_digest()
        behaviors = dict(config.byzantine)
        self.honest = [i for i in range(config.validators) if i not in behaviors]
        # the replica whose commits and receipts the metrics report
        self.reference = self.honest[0] if self.honest else 0
        self.nodes: dict[int, _Node] = {}
        self._validators: list[Validator] = []  # the ones run() starts
        for i in range(config.validators):
            kind = behaviors.get(i)
            node = self.nodes[i] = _Node(self, i, _FAULTS.get(kind))
            if kind == SILENT:
                self.network.add_node(i)   # drops everything sent to it
            else:
                admit = node._admit if config.reject_invalid_at_mempool \
                    else node.mempool.submit
                self.network.add_node(i, node.validator.handle, admit)
                self._validators.append(node.validator)

        # height -> (highest proposed round, first broadcast of that round)
        self._proposal_times: dict[int, tuple[int, float]] = {}
        self._tx_records: dict[int, tuple] = {}
        self._receipts: dict[int, object] = {}
        self._commit_latencies: list = []
        # period a committed block was proposed for -> its size, its latency
        self._size_by_period: dict[int, int] = {}
        self._lc_by_period: dict[int, float] = {}
        self._stuck: list = []
        self._depths: list[int] = []  # reference mempool at each boundary

    # hooks from nodes --------------------------------------------------

    def note_proposal(self, msg: ConsensusMessage) -> None:
        seen = self._proposal_times.get(msg.height)
        if seen is None or msg.round > seen[0]:
            self._proposal_times[msg.height] = (msg.round, self.scheduler.now)

    def note_commit(self, block: Block, receipts: list, now: float) -> None:
        """The reference replica committed block; one receipt per tx."""
        p = int(round(block.timestamp / self.config.period))
        self._size_by_period[p] = block_size(block)
        # measure from the most recent proposal for this height (the
        # committing round's broadcast time)
        proposed = self._proposal_times.get(block.height)
        if proposed is not None:
            latency = now - proposed[1]
            self._commit_latencies.append((block.height, latency))
            self._lc_by_period[p] = latency
        for tx, receipt in zip(block.transactions, receipts):
            self._tx_records.setdefault(tx.uid, (tx.issue_time, block.timestamp))
            self._receipts.setdefault(tx.uid, receipt)

    def note_stuck(self, tx: Transaction) -> None:
        if tx.uid not in self._stuck:
            self._stuck.append(tx.uid)

    # driving -----------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        txs, issued = self.workload, 0      # txs[:issued] are scheduled
        issue_times = [tx.issue_time for tx in txs]
        schedule_at, inject = self.scheduler.schedule_at, self.network.inject
        max_periods = cfg.periods + (MAX_DRAIN_PERIODS if cfg.drain else 0)
        boundary, settling = cfg.period, False
        while True:
            # Schedule the transactions issued by this boundary only now: the
            # heap every other event passes through then holds one period's
            # issues, not the whole run's, and its pushes and pops stay cheap.
            end = bisect_right(issue_times, boundary)
            for tx in txs[issued:end]:
                schedule_at(tx.issue_time, inject, tx, tx.size)
            issued = end
            self.scheduler.run_until(boundary)
            if settling:
                break
            self._depths.append(len(self.nodes[self.reference].mempool))
            periods = len(self._depths)
            # after the last period, one more settles in-flight messages
            settling = periods >= max_periods or (
                periods >= cfg.periods and self._depths[-1] == 0)
            if not settling:
                # start the next height on every idle validator, its block
                # stamped with the period start; a validator still
                # mid-consensus skips this boundary (round changes run on)
                next_start = boundary - cfg.period
                for v in self._validators:
                    if not v.active:
                        v.start_height(next_start)
            boundary += cfg.period
        return self._result()

    # metrics -----------------------------------------------------------

    def _result(self) -> SimResult:
        cfg = self.config
        T = cfg.period
        periods = len(self._depths)
        gas_by_period = [0] * periods
        lb_by_period: list[list[float]] = [[] for _ in range(periods)]
        for tx in self.workload:
            p = min(int(tx.issue_time // T), periods - 1)
            gas_by_period[p] += tx.gas
        for issue_time, block_ts in self._tx_records.values():
            p = min(int(issue_time // T), periods - 1)
            lb_by_period[p].append(
                block_inclusion_latency(issue_time, block_ts, T))

        rows = []
        chain_size = blk.GENESIS_SIZE
        for p in range(periods):
            lbs = lb_by_period[p]
            size = self._size_by_period.get(p, 0)
            chain_size += size
            rows.append(MetricsRow(
                period_index=p,
                gas_rate=gas_by_period[p],
                mean_lb=sum(lbs) / len(lbs) if lbs else math.nan,
                max_lb=max(lbs) if lbs else math.nan,
                mean_lc=self._lc_by_period.get(p, math.nan),
                committed_block_size=size,
                chain_size_bytes=chain_size,
                mempool_depth=self._depths[p]))

        digests = {i: self.nodes[i].validator.head_digest.hex()
                   for i in self.nodes}
        lengths = {i: len(self.nodes[i].validator.chain) for i in self.nodes}
        return SimResult(
            config=cfg, rows=rows, chain_digests=digests,
            chain_lengths=lengths, honest=list(self.honest),
            tx_records=dict(self._tx_records), receipts=dict(self._receipts),
            commit_latencies=list(self._commit_latencies),
            periods_elapsed=periods, stuck_transactions=list(self._stuck))


def run_experiment(config: ExperimentConfig, workload: list) -> SimResult:
    """Build a simulation from a config and a workload and run it."""
    return Simulation(config, workload).run()
