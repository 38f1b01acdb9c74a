"""custodysim benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-backlog --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it wraps the package's public functions and prints the
per-layer metrics. The package is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2 and no result.
Everything is single-process and single-threaded.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"   # stores made by the custody workload
OUT = ROOT / ".perfbench-out"     # span dumps of traced runs

DOUBLING_REPS = 2


def load_package():
    """Import custodysim from this checkout's src/, never from elsewhere."""
    if not (SRC / "custodysim" / "__init__.py").is_file():
        raise ImportError(f"no custodysim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import custodysim
    if Path(custodysim.__file__).resolve().parent != SRC / "custodysim":
        raise ImportError(f"custodysim imported from {custodysim.__file__}")
    import custodysim.cli  # noqa: F401  (loads every module the tracer wraps)


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def machine() -> str:
    import numpy
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} platform={platform.machine()}")


# Seconds that reference() takes on a quiet host of the kind the benchmark
# was built on (a 2-vCPU Xeon VM, Python 3.11): its fastest time over a
# few thousand calls there. It only sets the unit of the scaled times.
REFERENCE_S = 0.0011
PACE_S = 0.025   # the program runs this long between two reference() calls
_BLOB = bytes(range(256)) * 256
_TABLE = None


class _Item:
    __slots__ = ("key", "size")

    def __init__(self, key: int, size: int):
        self.key = key
        self.size = size


def reference() -> float:
    """Seconds taken by a fixed mix of interpreted, hashlib and numpy work.

    The mix stands for what the program spends its time on: formatting and
    sorting rows (the store's index), a heap (the event scheduler), dicts
    and small objects (ledger, blocks, consensus), SHA-256 (the store) and
    numpy tables (the knapsack check). It never touches custodysim.
    """
    global _TABLE
    import numpy
    if _TABLE is None:
        _TABLE = numpy.arange(20000, dtype=numpy.int64)
    t0 = perf_counter()
    rows = [(i * 7919 % 1000, f"{i:08x}\t{i * 31}\t{i % 97}") for i in range(600)]
    rows.sort()
    text = "\n".join(row for _, row in rows)
    heap: list = []
    for row in rows:
        heapq.heappush(heap, row)
    index = {}
    while heap:
        key, row = heapq.heappop(heap)
        index[row[:8]] = _Item(key, len(row))
    total = sum(item.size for item in index.values()) + len(text)
    hashlib.sha256(_BLOB).digest()
    total += int(numpy.maximum(_TABLE, _TABLE[::-1]).sum())
    return perf_counter() - t0


class Pacer:
    """Times reference() every PACE_S seconds, between the program's operations.

    Workloads call it right after each operation of a rep, never inside
    one; measure() forces a reference right before and after every set-up
    and rep. ``spent`` is the time spent in here, which measure() takes out
    of the set-up and rep times.
    """

    def __init__(self):
        self.took: list = []    # seconds of each reference() call
        self.ticks: list = []   # len(took) after each call by a workload
        self.spent = 0.0
        self.due = 0.0

    def __call__(self) -> None:
        if perf_counter() >= self.due:
            self.probe()
        self.ticks.append(len(self.took))

    def probe(self) -> None:
        t0 = perf_counter()
        self.took.append(reference())
        end = perf_counter()
        self.spent += end - t0
        self.due = end + PACE_S

    def scale(self, after: int) -> float:
        """REFERENCE_S over the mean of references ``after - 1`` and ``after``."""
        return 2 * REFERENCE_S / (self.took[after - 1] + self.took[after])

    def timed(self, call) -> tuple:
        """``call()`` between two forced references.

        Returns its result, its seconds, the seconds of the references taken
        during it, and its scale: REFERENCE_S over the mean time of those
        references and of the two around it.
        """
        self.probe()
        first, spent = len(self.took) - 1, self.spent
        t0 = perf_counter()
        result = call()
        seconds = perf_counter() - t0
        inside = self.spent - spent
        self.probe()
        window = self.took[first:]
        return result, seconds, inside, REFERENCE_S * len(window) / sum(window)


def measure(workload, seconds: float) -> tuple:
    """End-to-end metrics: set up several times, then rep until time is up.

    Co-tenant load on a shared host slows the whole CPU by up to 1.5x, in
    phases from under a second to minutes, often longer than a run, so raw
    host times drift with it by as much between runs. So a Pacer times
    reference() every PACE_S seconds while the program runs, and each
    set-up and rep is scaled to the reference speed: its seconds x
    REFERENCE_S / (mean reference time during it and just around it).
    Slow phases stretch the program and the reference alike, so the scaled
    times keep the program's cost. The raw host times are printed beside
    them; run_s and setup_s are medians of the scaled times.
    """
    pacer = Pacer()
    raw_setups, setups, raw_reps, reps = [], [], [], []
    by_class: dict = {}   # operation class -> scaled seconds of each operation

    def setup() -> None:
        _, dt, inside, k = pacer.timed(lambda: workload.setup(pacer))
        raw_setups.append(dt - inside)
        setups.append((dt - inside) * k)

    for _ in range(workload.setup_reps):
        gc.collect()
        setup()
    deadline = perf_counter() + seconds
    while len(reps) < workload.min_reps or perf_counter() < deadline:
        gc.collect()   # garbage of the previous rep is not this rep's cost
        if workload.setup_each_rep:
            setup()
        start = len(pacer.took)
        pacer.ticks.clear()
        rep, _, inside, k = pacer.timed(lambda: workload.run(pacer=pacer))
        rep.seconds -= inside
        raw_reps.append(rep)
        reps.append((rep, k))
        # each operation at the speed of the references just before and after it
        after = [start + 1] + pacer.ticks
        if len(after) != len(rep.samples) + 1:   # not one call per operation
            rep.failed += 1
            after = []
        for (kind, dt), a in zip(rep.samples, after):
            by_class.setdefault(kind, array("d")).append(dt * pacer.scale(a))
        rep.samples = []   # kept small, so that peak_rss_mib is the program's
    attempted = sum(r.attempted for r in raw_reps)
    failed = sum(r.failed for r in raw_reps)
    checked, bad = workload.finish()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted += checked
    failed += bad
    fingerprints = {r.fingerprint for r in raw_reps}
    correct = failed == 0 and len(fingerprints) == 1

    if not by_class:   # the program failed before its first operation
        by_class["rep"] = array("d", (r.seconds * k for r, k in reps))
    latencies = [dt for values in by_class.values() for dt in values]
    refs = pacer.took
    times = [r.seconds for r in raw_reps]
    lines = [f"reps={len(reps)} op={workload.op_unit}",
             f"error_rate={failed / attempted:.6g} ({failed}/{attempted})",
             f"reference seconds: n={len(refs)} min={min(refs):.6f} "
             f"median={statistics.median(refs):.6f} max={max(refs):.6f} "
             f"(REFERENCE_S={REFERENCE_S})",
             f"raw rep seconds: min={min(times):.6f} "
             f"median={statistics.median(times):.6f} max={max(times):.6f}",
             f"raw setup seconds: n={len(raw_setups)} min={min(raw_setups):.6f} "
             f"median={statistics.median(raw_setups):.6f} max={max(raw_setups):.6f}",
             f"op quantiles over {len(latencies)} operations of all reps, scaled"]
    if len(by_class) > 1:
        for kind, values in sorted(by_class.items()):
            lines.append(f"{kind}: all reps n={len(values)} "
                         f"p50_ms={1e3 * nearest_rank(values, 50):.4f} "
                         f"p95_ms={1e3 * nearest_rank(values, 95):.4f} (scaled)")
    if raw_reps[0].fingerprint:
        rows, heads = raw_reps[0].fingerprint
        same = "identical" if len(fingerprints) == 1 else "DIFFERENT"
        lines.append(f"fingerprint rows_sha256={rows} heads_sha256={heads} "
                     f"({same} across {len(reps)} reps)")
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.seconds * k for r, k in reps),
        "peak_rss_mib": peak_rss_mib,
        "op_p50_ms": 1e3 * nearest_rank(latencies, 50),
    }
    lines.append(f"op_p95_ms={1e3 * nearest_rank(latencies, 95):.6f} (not gated)")
    return correct, attempted, failed, metrics, lines


def trace(workload) -> tuple:
    """Per-layer metrics from traced reps, next to untraced reps of the same input."""
    import tracing
    from workloads import SimWorkload

    name = workload.name
    simulated = isinstance(workload, SimWorkload)
    gen = []
    for _ in range(3 if simulated else 1):
        t0 = perf_counter()
        workload.setup()
        gen.append(perf_counter() - t0)
    base = [workload.run() for _ in range(max(3, workload.trace_reps))]
    tracer = tracing.Tracer()
    traced = []
    try:
        tracing.install_counting_hooks(tracer)
        for _ in range(workload.trace_reps):
            tracer.reset()
            rep = workload.run(tracer)
            traced.append((rep, layer_metrics(tracer, rep)))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}.tsv.gz"   # the latest traced run only
    tracer.write(span_file)

    lines = [f"spans of the last traced rep written to {span_file.relative_to(ROOT)}"]
    if tracer.missing:
        lines.append("not wrapped (absent): " + " ".join(tracer.missing))
    doubling, double = 0.0, []
    if simulated:
        txs = workload.generate(2 * workload.periods)
        double = [workload.run(txs=txs, periods=2 * workload.periods)
                  for _ in range(DOUBLING_REPS)]
        doubling = statistics.median(r.seconds for r in double) \
            / statistics.median(r.seconds for r in base)
        lines.append(f"doubling: {workload.periods} -> {2 * workload.periods} "
                     f"periods, host time x{doubling:.3f}")

    reps = [rep for rep, _ in traced]
    layers = [m for _, m in traced]
    attempted = sum(r.attempted for r in base + double + reps)
    failed = sum(r.failed for r in base + double + reps)
    checked, bad = workload.finish()
    attempted += checked
    failed += bad
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
    repeat = all(c == counts[0] for c in counts)
    lines.append(f"per-layer counts {'repeat exactly' if repeat else 'DIFFER'} "
                 f"across {len(counts)} traced reps")
    correct = failed == 0 and (repeat or not simulated)

    untraced_s = statistics.median(r.seconds for r in base)
    traced_s = statistics.mean(r.seconds for r in reps)
    metrics = {key: statistics.mean(m[key] for m in layers) for key in layers[0]}
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_self_s"))
    if layer_sum > traced_s:
        correct = False
        lines.append(f"layer self times {layer_sum} exceed traced run_s {traced_s}")
    metrics.update({
        "simulation.doubling_ratio": doubling,
        "workload.gen_s": statistics.median(gen) if simulated else 0.0,
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    lines.append(f"untraced run_s={untraced_s:.6f} traced run_s={traced_s:.6f} "
                 f"layer self sum={layer_sum:.6f}")
    return correct, attempted, failed, metrics, lines


def layer_metrics(tracer, rep) -> dict:
    self_s, calls = tracer.summary()
    counters = tracer.counters
    commits = rep.info.get("commits", 0)
    applies = calls["LedgerState.apply"]
    creates = calls["Frontend.submit_evidence"]
    scheduled = calls["Scheduler.schedule_at"]
    return {
        "netsim.events": scheduled - rep.info["pending_events"] if scheduled else 0,
        "netsim.dispatch_self_s": self_s["netsim.dispatch"],
        "netsim.schedule_self_s": self_s["netsim.schedule"],
        "netsim.sends": calls["Network.send"],
        "netsim.bytes_sent": counters["bytes_sent"],
        "netsim.send_self_s": self_s["netsim.send"],
        "netsim.injects": calls["Network.inject"],
        "netsim.inject_self_s": self_s["netsim.inject"],
        "consensus.handle_calls": calls["Validator.handle"],
        "consensus.handle_self_s": self_s["consensus.handle"],
        "consensus.handle_per_commit":
            calls["Validator.handle"] / commits if commits else 0.0,
        "consensus.proposals": calls["Validator.propose"],
        "consensus.reproposals": counters["reproposals"],
        "blocks.digest_calls": calls["block_digest"],
        "blocks.digest_self_s": self_s["blocks.digest"],
        "blocks.digests_per_commit":
            calls["block_digest"] / commits if commits else 0.0,
        "blocks.build_calls": calls["build_block"],
        "blocks.build_self_s": self_s["blocks.build"],
        "blocks.mempool_submit_self_s": self_s["blocks.mempool_submit"],
        "blocks.remove_committed_self_s": self_s["blocks.remove_committed"],
        "blocks.mempool_peak_depth": counters["mempool_peak_depth"],
        "ledger.apply_calls": applies,
        "ledger.apply_self_s": self_s["ledger.apply"],
        "ledger.revert_share": counters["reverts"] / applies if applies else 0.0,
        "ledger.get_evidence_self_s": self_s["ledger.get_evidence"],
        "simulation.run_self_s": self_s["simulation.run"],
        "simulation.commits": commits,
        "store.put_calls": calls["EvidenceStore.put"],
        "store.put_self_s": self_s["store.put"],
        "store.delete_self_s": self_s["store.delete"],
        "store.ids_per_create":
            tracer.calls_under("generate_id", "Frontend.submit_evidence") / creates
            if creates else 0.0,
        "store.get_self_s": self_s["store.get"],
        "store.hash_self_s": self_s["store.hash"],
        "store.frontend_self_s": self_s["store.frontend"],
        "analytics.ukp_calls": calls["max_block_size_ukp"],
        "analytics.ukp_self_s": self_s["analytics.ukp"],
        "analytics.closed_form_self_s": self_s["analytics.closed_form"],
        "analytics.dominance_self_s": self_s["analytics.dominance"],
        "cli.main_self_s": self_s["cli.main"],
        "trace.unattributed_s": self_s["bench"],
        "trace.spans": len(tracer.start),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except ImportError as err:
        print(f"perfbench: cannot load the program: {err}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, WORK)
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            correct, attempted, failed, metrics, lines = trace(workload)
        else:
            correct, attempted, failed, metrics, lines = measure(workload, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} {machine()}")
    print(f"shape: {workload.shape}")
    for line in lines:
        print(line)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
