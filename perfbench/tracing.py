"""Span tracer that wraps custodysim's public functions from outside.

Each wrapped call records one span (name, start, end, parent) in flat
arrays kept in memory; ``write`` dumps them at the end of a run. Wrapping
replaces the callable at every name a caller binds: a function imported
with ``from .blocks import block_digest`` lives under several module
attributes, and each one is patched. Methods are patched on their class.
"""
from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, layer bucket). Self times are summed per bucket;
# call counts are kept per attribute.
TARGETS = (
    ("netsim", "Scheduler.run_until", "netsim.dispatch"),
    ("netsim", "Scheduler.run_until_idle", "netsim.dispatch"),
    ("netsim", "Scheduler.schedule_at", "netsim.schedule"),
    ("netsim", "Scheduler.schedule", "netsim.schedule"),
    ("netsim", "Network.send", "netsim.send"),
    ("netsim", "Network.broadcast", "netsim.send"),
    ("netsim", "Network.inject", "netsim.inject"),
    ("consensus", "Validator.handle", "consensus.handle"),
    ("consensus", "Validator.start_height", "consensus.handle"),
    ("consensus", "Validator.propose", "consensus.handle"),
    ("blocks", "block_digest", "blocks.digest"),
    ("blocks", "build_block", "blocks.build"),
    ("blocks", "Mempool.submit", "blocks.mempool_submit"),
    ("blocks", "Mempool.remove_committed", "blocks.remove_committed"),
    ("ledger", "LedgerState.apply", "ledger.apply"),
    ("ledger", "LedgerState.get_evidence", "ledger.get_evidence"),
    ("simulation", "Simulation.run", "simulation.run"),
    ("store", "EvidenceStore.put", "store.put"),
    ("store", "EvidenceStore.get", "store.get"),
    ("store", "EvidenceStore.delete", "store.delete"),
    ("store", "generate_id", "store.hash"),
    ("store", "Frontend.submit_evidence", "store.frontend"),
    ("store", "Frontend.acquire_evidence", "store.frontend"),
    ("store", "Frontend.transfer_evidence", "store.frontend"),
    ("store", "Frontend.discard_evidence", "store.frontend"),
    ("store", "Frontend.check_referential_integrity", "store.frontend"),
    ("analytics", "max_block_size_ukp", "analytics.ukp"),
    ("analytics", "ukp_max_value", "analytics.ukp"),
    ("analytics", "max_block_size_closed_form", "analytics.closed_form"),
    ("analytics", "dominance_check", "analytics.dominance"),
    ("cli", "main", "cli.main"),
)

PACKAGE = "custodysim"


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind_everywhere(original, replacement) -> list:
    """Point every package-level name bound to ``original`` at ``replacement``.

    Returns (module, attribute, original) triples for restoring.
    """
    patched = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


class Tracer:
    """Records spans of wrapped calls plus a few argument-derived counters."""

    def __init__(self):
        self.names: list[str] = ["bench.root"]
        self.buckets: list[str] = ["bench"]
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counters; wrappers stay installed."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters.clear()

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str, bucket: str) -> int:
        self.names.append(name)
        self.buckets.append(bucket)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, nid: int, hook):
        # _open/_close read self.name etc. at call time, so reset() is safe
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------

    def install(self, hooks: dict) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for module, attr, bucket in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            nid = self._name_id(attr, bucket)
            wrapper = self._wrapper(original, nid, hooks.get(attr))
            if owner_name:
                setattr(owner, member, wrapper)
                self._patches.append((owner, member, original))
            else:
                self._patches.extend(rebind_everywhere(original, wrapper))

    def uninstall(self) -> None:
        for owner, member, original in reversed(self._patches):
            setattr(owner, member, original)
        self._patches = []

    # -- analysis -------------------------------------------------------

    def summary(self) -> tuple:
        """(self seconds per bucket, calls per span name)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            nid = self.name[i]
            self_s[self.buckets[nid]] += self.end[i] - self.start[i] - child[i]
            calls[self.names[nid]] += 1
        return self_s, calls

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` whose direct parent span is ``parent_name``."""
        count = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.names[self.name[i]] == name and p >= 0 \
                    and self.names[self.name[p]] == parent_name:
                count += 1
        return count

    def write(self, path) -> None:
        """Dump the recorded spans as gzipped TSV, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                          f"{self.parent[i]}\n")


class Region:
    """Times the program part of one rep; under a tracer it is the root span.

    Enter it once per rep, around the calls into custodysim and nothing
    else, so that run_s excludes the benchmark's own checks.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self._idx = self.tracer._open(0)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer._close(self._idx)
        return False


def install_counting_hooks(tracer: Tracer) -> None:
    """Wrap the targets, with hooks for counts that need arguments or results."""
    counters = tracer.counters

    def on_send(args, kwargs, result):
        counters["bytes_sent"] += args[4] if len(args) > 4 else kwargs["wire_size"]

    def on_propose(args, kwargs, result):
        if args[0].round > 0:
            counters["reproposals"] += 1

    def on_submit(args, kwargs, result):
        depth = len(args[0])
        if depth > counters["mempool_peak_depth"]:
            counters["mempool_peak_depth"] = depth

    def on_apply(args, kwargs, result):
        if not result.succeeded:
            counters["reverts"] += 1

    tracer.install({"Network.send": on_send, "Validator.propose": on_propose,
                    "Mempool.submit": on_submit, "LedgerState.apply": on_apply})
