"""The benchmark's four workloads.

Every workload builds its inputs from the seed in ``setup`` (timed as
setup_s), then runs one unit of timed work per ``run`` call (timed as
run_s) inside a ``tracing.Region``. ``run`` returns a ``Rep`` with the
operations attempted and failed and the per-operation latency samples.
Correctness checks run outside the region. Both calls take an optional
``pacer``, which they call between two operations and never inside one.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import PACKAGE, Region, package_modules, rebind_everywhere


def mod(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


@dataclass
class Rep:
    seconds: float
    attempted: int
    failed: int
    samples: list = field(default_factory=list)   # (op class, seconds)
    fingerprint: tuple = ()
    info: dict = field(default_factory=dict)


# -- simulation workloads ---------------------------------------------------


def rows_sha256(rows) -> str:
    """SHA-256 of the metrics rows in the exact bytes ``sim run --out`` writes."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(mod("cli").METRICS_COLUMNS)
    for row in rows:
        writer.writerow([row.period_index, row.gas_rate,
                         f"{row.mean_lb:.6f}", f"{row.max_lb:.6f}",
                         f"{row.mean_lc:.9f}", row.committed_block_size,
                         row.chain_size_bytes, row.mempool_depth])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def heads_sha256(result) -> str:
    text = "".join(f"{i}:{result.chain_digests[i]}\n" for i in sorted(result.honest))
    return hashlib.sha256(text.encode()).hexdigest()


class SimWorkload:
    """Batch run: one Simulation.run over a fixed, seed-generated tx list."""

    op_unit = "block period (host time of one Scheduler.run_until step)"
    setup_reps = 0
    setup_each_rep = True
    min_reps = 4
    trace_reps = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.txs: list = []

    def setup(self, pacer=None) -> None:
        self.txs = self.generate(self.periods)

    def run(self, tracer=None, txs=None, periods=None, pacer=None) -> Rep:
        simulation = mod("simulation")
        txs = self.txs if txs is None else txs
        config = self.config(periods or self.periods)
        steps = []
        region = Region(tracer)
        with region:
            sim = simulation.Simulation(config, txs)
            if tracer is None:
                step = sim.scheduler.run_until

                def timed_step(t):
                    t0 = perf_counter()
                    step(t)
                    steps.append(("period", perf_counter() - t0))
                    if pacer is not None:
                        pacer()

                sim.scheduler.run_until = timed_step
            result = sim.run()
        failed = self.check(result, txs)
        return Rep(region.seconds, len(txs), failed, steps,
                   (rows_sha256(result.rows), heads_sha256(result)),
                   {"commits": sum(result.chain_lengths.values()),
                    "pending_events": sim.scheduler.pending()})

    def check(self, result, txs) -> int:
        """Failed txs: not committed, missing a receipt, or an unexpected outcome.

        If the honest validators disagree on the head, every tx fails.
        """
        if len({result.chain_digests[i] for i in result.honest}) != 1 \
                or result.stuck_transactions:
            return len(txs)
        failed = 0
        for tx in txs:
            receipt = result.receipts.get(tx.uid)
            if tx.uid not in result.tx_records or receipt is None \
                    or not self.expected_outcome(receipt):
                failed += 1
        return failed

    def finish(self) -> tuple:
        return 0, 0


class SimBacklog(SimWorkload):
    """4 validators, offered gas ~1.2xG per period of valid custody lifecycles."""

    name = "sim-backlog"
    periods = 300
    gas_limit = 805020
    load = 1.2
    transfers_per_item = 10
    max_description = 256   # a 1,024-char create exceeds G and blocks the FIFO
    shape = (f"validators=4 gas_limit={gas_limit} load={load}xG "
             f"periods={periods} (drain under the default max_drain_periods) "
             f"lifecycle=create+{transfers_per_item}transfer+remove "
             f"description<={max_description} link=1MB/s delay=0 jitter=0 "
             f"fault=none mode=batch")

    def config(self, periods: int):
        return mod("simulation").ExperimentConfig(
            validators=4, gas_limit=self.gas_limit, periods=periods, seed=self.seed)

    def generate(self, periods: int) -> list:
        """Interleaved lifecycles: each item issues at most one tx per period.

        Issue times sit inside [1%, 99%] of their period, so one item's txs
        are seconds apart and reach every mempool in issue order.
        """
        ledger = mod("ledger")
        rng = random.Random(f"{self.name}:{self.seed}")
        period = 300.0
        target = self.load * self.gas_limit
        last_step = self.transfers_per_item + 1
        active: list = []   # [evidence id, creator, owner, next step, description]
        txs = []
        uid = 0
        for p in range(periods):
            waiting = active[:]
            rng.shuffle(waiting)
            plan = []
            gas = 0
            while gas < target:
                if waiting:
                    item = waiting.pop()
                else:
                    item = [ledger.EvidenceId(rng.getrandbits(256).to_bytes(32, "big")),
                            _address(rng), None, 0,
                            "x" * rng.randint(0, self.max_description)]
                    item[2] = item[1]
                    active.append(item)
                step = item[3]
                if step == 0:
                    gas += ledger.tx_gas(ledger.TxKind.CREATE, len(item[4]))
                elif step < last_step:
                    gas += ledger.tx_gas(ledger.TxKind.TRANSFER)
                else:
                    gas += ledger.tx_gas(ledger.TxKind.REMOVE)
                    active.remove(item)
                plan.append((item, step))
                item[3] += 1
            times = sorted(period * (p + 0.01 + 0.98 * rng.random()) for _ in plan)
            for (item, step), t in zip(plan, times):
                uid += 1
                eid, creator, owner = item[0], item[1], item[2]
                if step == 0:
                    txs.append(ledger.create_tx(uid, creator, eid, item[4], t))
                elif step < last_step:
                    item[2] = _address(rng)
                    txs.append(ledger.transfer_tx(uid, owner, eid, item[2], t))
                else:
                    txs.append(ledger.remove_tx(uid, creator, eid, t))
        return txs

    @staticmethod
    def expected_outcome(receipt) -> bool:
        return receipt.succeeded


class SimWide(SimWorkload):
    """16 validators, one silent, jittered links, CLI-default rate:2 transfers."""

    name = "sim-wide"
    periods = 200
    shape = (f"validators=16 fault=5:silent workload=rate:2 transfers "
             f"periods={periods} link=1MB/s base_delay=0.01s jitter=0.005s "
             f"gas_limit=805020 mode=batch")

    def config(self, periods: int):
        return mod("simulation").ExperimentConfig(
            validators=16, byzantine=((5, "silent"),), base_delay=0.01,
            jitter=0.005, periods=periods, seed=self.seed)

    def generate(self, periods: int) -> list:
        workload = mod("workload")
        return workload.constant_rate_workload(
            workload.RateSpec(2, periods), self.seed, 300.0)

    @staticmethod
    def expected_outcome(receipt) -> bool:
        # rate:N transfers name random evidence ids, so each one reverts
        return receipt.reason is not None \
            and receipt.reason.value == "evidence-not-found"


def _address(rng: random.Random):
    return mod("ledger").Address(rng.getrandbits(160).to_bytes(20, "big"))


# -- custody workflow -------------------------------------------------------


class Custody:
    """Closed loop, one client: Frontend + EvidenceStore + LocalLedgerClient.

    One rep is a fixed script of requests in seeded order, and it leaves
    the store as it found it: the batch discards what it creates, and
    every transfer is later handed back. So every rep does the same work.
    """

    name = "custody"
    entries = 1000
    users = 16
    min_blob, max_blob = 1024, 64 * 1024
    # Reads outnumber writes so that they take about a quarter of run_s,
    # and writes are 10% of requests so that the printed 95th percentile
    # lands among them.
    batch = (("create", 10), ("discard", 10), ("transfer", 20),
             ("acquire", 150), ("acquire-refused", 5), ("discard-refused", 5))
    op_unit = "custody request (create, discard, transfer or acquire)"
    shape = (f"store_entries={entries} blob_bytes=uniform[{min_blob},{max_blob}] "
             f"users={users} batch=" + ",".join(f"{k}:{n}" for k, n in batch)
             + " mode=closed-loop clients=1")
    setup_reps = 5
    setup_each_rep = False
    min_reps = 10
    trace_reps = 10

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.pool = random.Random(f"{self.name}:pool:{seed}").randbytes(self.max_blob)
        self.setups = 0

    def blob(self, key: int, size: int) -> bytes:
        return key.to_bytes(8, "big") + self.pool[:size - 8]

    def setup(self, pacer=None) -> None:
        """Preload a fresh store with N entries through Frontend.submit_evidence."""
        store_mod, ledger = mod("store"), mod("ledger")
        rng = random.Random(f"{self.name}:{self.seed}")
        users = [ledger.Address.from_label(f"user-{i}") for i in range(self.users)]
        self.store = store_mod.EvidenceStore(self.work / f"store-{self.setups}")
        self.setups += 1
        self.client = store_mod.LocalLedgerClient()
        self.frontend = store_mod.Frontend(self.store, self.client, seed=self.seed)
        self.model: dict = {}    # evidence id -> (creator, blob key, size)
        specs = [(rng.choice(users), key, rng.randint(self.min_blob, self.max_blob))
                 for key in range(self.entries + self.batch[0][1])]
        for creator, key, size in specs[:self.entries]:
            eid = self.frontend.submit_evidence(
                creator, self.blob(key, size), f"evidence {key}")
            self.model[eid] = (creator, key, size)
            if pacer is not None:
                pacer()
        self.script = self._script(rng, users, specs[self.entries:])

    def _script(self, rng, users, fresh) -> list:
        """(kind, arguments) per request; pairs share a token in shuffled order."""
        ids = list(self.model)
        targets = rng.sample(ids, self.batch[2][1] // 2)
        others = sorted((eid for eid in ids if eid not in set(targets)),
                        key=lambda eid: self.model[eid][2])

        def stranger(user):
            return rng.choice([u for u in users if u != user])

        def across_sizes(n):
            """One id from each of n equal slices of ``others`` by blob size.

            An acquire's cost grows with its blob, so n plain random picks
            would move the median acquire by several percent from seed to
            seed; the slices keep every seed's sizes spread alike.
            """
            step = len(others) / n
            return [others[int((i + rng.random()) * step)] for i in range(n)]

        tokens = [("pair", "create", i) for i in range(len(fresh))] * 2
        tokens += [("pair", "transfer", eid) for eid in targets] * 2
        tokens += [(kind, None, eid)
                   for kind, n in self.batch[3:] for eid in across_sizes(n)]
        rng.shuffle(tokens)
        script, seen, away = [], set(), {}
        for kind, pair, arg in tokens:
            if kind == "pair":
                first = (pair, arg) not in seen
                seen.add((pair, arg))
                if pair == "create":
                    creator, key, size = fresh[arg]
                    script.append(("create" if first else "discard",
                                   (arg, creator, self.blob(key, size))))
                else:
                    owner = self.model[arg][0]
                    if first:
                        away[arg] = stranger(owner)
                        script.append(("transfer", (arg, owner, away[arg])))
                    else:
                        script.append(("transfer", (arg, away[arg], owner)))
                continue
            creator, key, size = self.model[arg]
            if kind == "acquire":
                script.append((kind, (arg, creator, self.blob(key, size))))
            else:
                script.append((kind, (arg, stranger(creator), None)))
        return script

    def run(self, tracer=None, pacer=None) -> Rep:
        ledger = mod("ledger")
        fe = self.frontend
        created: dict = {}
        samples = []
        failed = 0
        region = Region(tracer)
        with region:
            for kind, (target, user, data) in self.script:
                ok = True
                t0 = perf_counter()
                try:
                    if kind == "create":
                        created[target] = fe.submit_evidence(user, data, "fresh")
                    elif kind == "discard":
                        fe.discard_evidence(user, created.pop(target))
                    elif kind == "transfer":
                        fe.transfer_evidence(user, target, data)
                    elif kind == "acquire":
                        got = fe.acquire_evidence(user, target)
                    elif kind == "acquire-refused":
                        try:
                            fe.acquire_evidence(user, target)
                            ok = False
                        except ledger.NotOwner:
                            pass
                    else:
                        try:
                            fe.discard_evidence(user, target)
                            ok = False
                        except ledger.NotCreator:
                            pass
                except Exception as err:  # counted as a failed operation
                    print(f"custody {kind} raised {type(err).__name__}: {err}",
                          file=sys.stderr)
                    ok = False
                samples.append((kind, perf_counter() - t0))
                if pacer is not None:
                    pacer()
                if kind == "acquire" and ok:
                    ok = got == data
                failed += not ok
        return Rep(region.seconds, len(self.script), failed, samples)

    def finish(self) -> tuple:
        """Check the whole store and ledger against the benchmark's own record."""
        failed = 0 if self.frontend.check_referential_integrity() else 1
        if set(self.store.ids()) != set(self.model):
            failed += 1
        for eid, (creator, _, _) in self.model.items():
            entry = self.client.get_entry(eid)
            failed += entry.owner != creator or entry.creator != creator
        return len(self.model) + 2, failed


# -- analytics --------------------------------------------------------------


class Ukp:
    """Batch run: ``analyze ukp-check`` in-process, analytics caches emptied."""

    name = "ukp"
    op_unit = "gas limit checked (closed form plus knapsack solver)"
    shape = "argv=analyze ukp-check --seed SEED (default 1,000 samples + 22 lattice points, max gas 1e7) mode=batch"
    setup_reps = 0
    setup_each_rep = True
    min_reps = 4
    trace_reps = 2
    summary = re.compile(r"checked (\d+) gas limits, (\d+) mismatches")

    def __init__(self, seed: int, work: Path):
        self.argv = ["analyze", "ukp-check", "--seed", str(seed)]

    def setup(self, pacer=None) -> None:
        """Import the package afresh, as every CLI invocation does."""
        for name in [m.__name__ for m in package_modules()]:
            del sys.modules[name]
        mod("cli")

    def run(self, tracer=None, pacer=None) -> Rep:
        for m in package_modules():
            for value in list(vars(m).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
        samples: list = []   # one per gas limit: from the previous return to this one
        last = [0.0]
        patches = []
        if tracer is None:
            exact = mod("analytics").max_block_size_ukp

            def timed_exact(*args, **kwargs):
                result = exact(*args, **kwargs)
                samples.append(("gas-limit", perf_counter() - last[0]))
                if pacer is not None:
                    pacer()
                last[0] = perf_counter()
                return result

            patches = rebind_everywhere(exact, timed_exact)
        out = io.StringIO()
        region = Region(tracer)
        try:
            with contextlib.redirect_stdout(out):
                with region:
                    last[0] = perf_counter()
                    code = mod("cli").main(self.argv)
        finally:
            for owner, attr, original in patches:
                setattr(owner, attr, original)
        found = self.summary.search(out.getvalue())
        if code != 0 or found is None:
            checked = int(found.group(1)) if found else 1
            return Rep(region.seconds, checked, checked)
        return Rep(region.seconds, int(found.group(1)), int(found.group(2)),
                   samples)

    def finish(self) -> tuple:
        return 0, 0


WORKLOADS = {w.name: w for w in (SimBacklog, SimWide, Custody, Ukp)}
