"""End-to-end simulation: validators, mempools, workload and metrics.

Wires the consensus state machines to the discrete-event network and
drives one proposal per block period; besides messages in flight, the
event heap holds the open period's issues and the round timers due in it.
When the run ends, the per-period metrics (gas rate, inclusion latency,
consensus latency, chain size) and the receipts are read from the
reference replica's chain; every replica's ledger applies its own chain
when it is read.
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
    receipts: dict             # uid -> Receipt, at its first commit
    commit_latencies: list     # (height, seconds) per reference block
    stuck_transactions: list   # uids whose gas alone exceeds the gas limit

    @property
    def periods_elapsed(self) -> int:
        return len(self.rows)

    @property
    def blocks_per_period(self) -> float:
        return min(self.chain_lengths[i] for i in self.honest) / len(self.rows)


class _Node:
    """One validator process: consensus, a mempool and a ledger replica.
    The ledger catches up with this replica's chain when ``ledger`` is
    read. A new round timer makes the earlier ones no-ops, so the node
    holds only its latest, until it is due in the open period.

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
        self.receipts: list = []         # one per applied tx, in chain order
        self.commit_times: list[float] = []  # when each block committed
        self.timer = None   # a reserved heap entry not pushed yet
        cfg = sim.config
        self.validator = Validator(
            index=index, n=cfg.validators, gas_limit=cfg.gas_limit,
            round_timeout=cfg.effective_round_timeout,
            broadcast=self._send if fault is None else self._send_faulty,
            set_timer=self._set_timer, build_block=self._build,
            on_commit=self._committed, genesis=sim.genesis)

    # environment hooks -------------------------------------------------

    def _send(self, msg: ConsensusMessage, recipients=None) -> None:
        if msg.type is PRE_PREPARE:
            self.sim.note_proposal(msg)
        self.sim.network.broadcast(self.index, msg, wire_size(msg),
                                   recipients)

    def _set_timer(self, delay: float, action) -> None:
        self.timer = self.sim.scheduler.reserve(delay, action)
        self.release_timer()

    def release_timer(self) -> None:
        if self.timer is not None and self.timer[0] <= self.sim.boundary:
            self.sim.scheduler.push(self.timer)
            self.timer = None

    def _send_faulty(self, msg: ConsensusMessage) -> None:
        for out, recipients in self.fault(self, msg):
            self._send(out, recipients)

    def _build(self, height: int, round_: int, period_start: float) -> Block:
        return build_block(self.mempool, self.sim.config.gas_limit, height,
                           self.validator.head_digest, self.index, period_start)

    def _committed(self, block: Block) -> None:
        self.mempool.remove_committed(tx.uid for tx in block.transactions)
        self.commit_times.append(self.sim.scheduler.now)

    @property
    def ledger(self) -> LedgerState:
        """The state after every block this replica has committed; a read
        applies the blocks since the last one and keeps their receipts."""
        blocks = self.validator.chain[self._applied:]
        self._applied += len(blocks)
        self.receipts.extend(self._ledger.apply(tx, block.timestamp)
                             for block in blocks for tx in block.transactions)
        return self._ledger

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
        self.reference = self.honest[0]  # whose chain the metrics report
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

        # height -> (highest round proposed before the reference replica
        # committed that height, first broadcast of that round)
        self._proposal_times: dict[int, tuple[int, float]] = {}
        self._depths: list[int] = []  # reference mempool at each boundary
        self.boundary = math.inf  # end of the open period (none before run)

    # hooks from nodes --------------------------------------------------

    def note_proposal(self, msg: ConsensusMessage) -> None:
        if msg.height < self.nodes[self.reference].validator.height:
            return
        seen = self._proposal_times.get(msg.height)
        if seen is None or msg.round > seen[0]:
            self._proposal_times[msg.height] = (msg.round, self.scheduler.now)

    # driving -----------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        txs, issued = self.workload, 0      # txs[:issued] are scheduled
        uids = set()   # results are keyed by uid
        for tx in txs:   # a time in the past, -inf too, fails when scheduled
            if not tx.issue_time < math.inf:
                raise ConfigError(f"transaction {tx.uid} is issued at "
                                  f"{tx.issue_time}, not a finite time")
            if tx.uid in uids:
                raise ConfigError(f"uid {tx.uid} names two transactions")
            uids.add(tx.uid)
        issue_times = [tx.issue_time for tx in txs]
        schedule_at, inject = self.scheduler.schedule_at, self.network.inject
        max_periods = cfg.periods + (MAX_DRAIN_PERIODS if cfg.drain else 0)
        boundary, settling = cfg.period, False
        while True:
            # Schedule the issues and push the timers due by this boundary only
            # now: the heap every other event passes through then holds one
            # period's, not the whole run's, and its pushes and pops stay cheap.
            self.boundary = boundary
            end = bisect_right(issue_times, boundary)
            for tx in txs[issued:end]:
                schedule_at(tx.issue_time, inject, tx, tx.size)
            issued = end
            for node in self.nodes.values():
                node.release_timer()
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
        cfg, T, last = self.config, self.config.period, len(self._depths) - 1
        gas_by_period, stuck = [0] * len(self._depths), []
        for tx in self.workload:
            q = int(tx.issue_time // T)  # the last period takes later issues
            gas_by_period[q if q < last else last] += tx.gas
            if tx.gas > cfg.gas_limit:
                stuck.append(tx.uid)

        ref = self.nodes[self.reference]
        ref.ledger   # applies the reference chain not applied yet
        receipts = iter(ref.receipts)   # zip below takes one per tx
        tx_records, receipt_of, latencies = {}, {}, []
        lb_by_period: list[list[float]] = [[] for _ in gas_by_period]
        size_by_period, lc_by_period = {}, {}  # by a block's proposal period
        for block, now in zip(ref.validator.chain, ref.commit_times):
            p, t = int(round(block.timestamp / T)), block.timestamp
            latency = now - self._proposal_times[block.height][1]
            latencies.append((block.height, latency))
            size_by_period[p], lc_by_period[p] = block_size(block), latency
            for tx, receipt in zip(block.transactions, receipts):
                if tx.uid not in tx_records:
                    tx_records[tx.uid] = (tx.issue_time, t)
                    receipt_of[tx.uid] = receipt
                    q = int(tx.issue_time // T)
                    lb_by_period[q if q < last else last].append(
                        block_inclusion_latency(tx.issue_time, t, T))

        rows, chain_size = [], blk.GENESIS_SIZE
        for p, (gas, lbs) in enumerate(zip(gas_by_period, lb_by_period)):
            size = size_by_period.get(p, 0)
            chain_size += size
            rows.append(MetricsRow(
                period_index=p, gas_rate=gas,
                mean_lb=sum(lbs) / len(lbs) if lbs else math.nan,
                max_lb=max(lbs) if lbs else math.nan,
                mean_lc=lc_by_period.get(p, math.nan),
                committed_block_size=size, chain_size_bytes=chain_size,
                mempool_depth=self._depths[p]))

        nodes = self.nodes.items()
        return SimResult(
            config=cfg, rows=rows, honest=list(self.honest),
            chain_digests={i: n.validator.head_digest.hex() for i, n in nodes},
            chain_lengths={i: len(n.validator.chain) for i, n in nodes},
            tx_records=tx_records, receipts=receipt_of,
            commit_latencies=latencies, stuck_transactions=stuck)


def run_experiment(config: ExperimentConfig, workload: list) -> SimResult:
    """Build a simulation from a config and a workload and run it."""
    return Simulation(config, workload).run()
