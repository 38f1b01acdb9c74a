"""Command-line interface: experiments, analytics reports, custody ops.

Each command imports only the modules it runs and builds only the
argument parsers on its path.

Exit codes: 0 on success, 1 on an operation error (ledger/store refusal,
failed check), 2 on a configuration error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import os
import random
import sys
from concurrent import futures
from pathlib import Path

from . import analytics
from .analytics import MIB, AnalyticsError, standard_catalog
from .config import (FAULT_KINDS, ChainParams, ConfigError, ExperimentConfig,
                     finite_float, parse_value, read_config_file)
from .ledger import Address, EvidenceId, LedgerError

METRICS_COLUMNS = ("period_index", "gas_rate", "mean_lb", "max_lb", "mean_lc",
                   "committed_block_size", "chain_size_bytes", "mempool_depth")

_METRICS_HELP = """\
metrics CSV columns:
  period_index          block-period index, starting at 0
  gas_rate              gas issued during the period
  mean_lb / max_lb      block inclusion latency (s) of txs issued in the period
  mean_lc               measured consensus latency (s) of the period's block
  committed_block_size  bytes of the block committed for the period
  chain_size_bytes      cumulative chain size incl. genesis
  mempool_depth         reference replica's mempool size after every event
                        due at the period boundary, before the next height
                        starts; txs in flight to it or dropped by strict
                        admission are not counted
"""


class _Lazy(argparse.ArgumentParser):
    """A parser that calls build(self) to add its arguments and subcommands
    the first time it parses or formats, so a command builds only the
    parsers on its path."""

    def __init__(self, build=None, **kwargs):
        super().__init__(**kwargs)
        self.build = build

    def _built(self):
        """ArgumentParser's methods, bound to this parser once it is built."""
        build, self.build = self.build, None
        if build is not None:
            build(self)
        return super()

    def parse_known_args(self, args=None, namespace=None):
        return self._built().parse_known_args(args, namespace)

    def format_usage(self):
        return self._built().format_usage()

    def format_help(self):
        return self._built().format_help()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="custodysim",
        description="Deterministic custody-ledger blockchain simulator "
                    "and performance analytics.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Lazy)
    sub.add_parser("sim", help="run simulations", build=_sim_parsers)
    sub.add_parser("analyze", help="closed-form performance reports",
                   build=_analyze_parsers)
    sub.add_parser("ledger", help="manual custody operations against "
                                  "a local store", build=_ledger_parsers)
    return parser


def _sim_parsers(sim: _Lazy) -> None:
    sub = sim.add_subparsers(dest="sim_command", required=True, parser_class=_Lazy)
    sub.add_parser("run", help="run one experiment",
                   build=_add_sim_flags).set_defaults(func=cmd_sim_run)
    sub.add_parser("sweep", help="run one experiment per value of a swept parameter",
                   build=lambda p: _add_sim_flags(p, sweep=True),
                   ).set_defaults(func=cmd_sim_sweep)


# config keys that are also sim flags -> help; parse_value parses each
# flag's text as it parses the same key's value in a config file
_SIM_FLAGS = {
    "seed": None,
    "period": "block period T in seconds",
    "gas_limit": None,
    "validators": None,
    "byzantine": f"faults IDX:KIND[,..], KIND: {' | '.join(FAULT_KINDS)}",
    "periods": "number of issue periods",
    "bandwidth": None,
    "round_timeout": None,
}


def _add_sim_flags(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    p.epilog, p.formatter_class = _METRICS_HELP, argparse.RawDescriptionHelpFormatter
    p.add_argument("--config", type=Path, help="key = value config file")
    p.add_argument("--out", type=Path, help="metrics CSV path")
    for key, help_ in _SIM_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), help=help_)
    p.add_argument("--workload", default="rate:2",
                   help="'rate:N' transfers per period or 'ramp:START:END' "
                        "gas per period (default rate:2)")
    if sweep:
        p.add_argument("--sweep", required=True, metavar="KEY=V1,V2,...",
                       help="config-file key to sweep, one run per value "
                            "on a process pool, e.g. gas-limit=161004,805020")


def _analyze_parsers(ana: _Lazy) -> None:
    sub = ana.add_subparsers(dest="analyze_command", required=True, parser_class=_Lazy)

    def table2(p):
        p.add_argument("--period", type=finite_float, default=ChainParams.period,
                       help="block period in seconds (default %(default)s)")
        p.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    sub.add_parser("table2", help="annual growth for 10k/100k/1M yearly creations",
                   description="CSV columns: workload_n, content_mib, total_mib, "
                               "overhead_pct (MiB units).",
                   build=table2).set_defaults(func=cmd_analyze_table2)

    def fig3(p):
        p.add_argument("--minutes", default="1,2,5,10,15,30,60",
                       help="comma-separated block periods in minutes")
        p.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    sub.add_parser("fig3", help="annual header overhead for a sweep of block periods",
                   description="CSV columns: period_minutes, header_bytes_per_year, "
                               "header_mib_per_year.",
                   build=fig3).set_defaults(func=cmd_analyze_fig3)

    def plan(p):
        p.add_argument("--max-gas-rate", type=int, required=True,
                       help="peak per-period gas rate (lower bound)")
        p.add_argument("--avg-gas-rate", type=int, required=True,
                       help="mean per-period gas rate")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--upper-bound", type=int,
                           help="gas-limit upper bound, given directly")
        group.add_argument("--max-consensus-latency", type=finite_float,
                           help="derive the upper bound from this latency target (s)")
        p.add_argument("--bandwidth", type=finite_float, default=ChainParams.bandwidth,
                       help="slowest-link bandwidth, bytes/s (default %(default)s)")
    sub.add_parser("plan-gas-limit",
                   help="choose a block gas limit from rate/latency bounds",
                   build=plan).set_defaults(func=cmd_analyze_plan)

    def ukp(p):
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--max-gas", type=int, default=10_000_000)
        p.add_argument("--seed", type=int, default=0)
    sub.add_parser("ukp-check", help="verify the closed-form max block size against "
                                     "the knapsack solver",
                   build=ukp).set_defaults(func=cmd_analyze_ukp)


def _ledger_parsers(led: _Lazy) -> None:
    led.add_argument("--store", type=Path, default=Path("custody-store"),
                     help="store directory (default ./custody-store)")
    sub = led.add_subparsers(dest="ledger_command", required=True, parser_class=_Lazy)

    def create(p):
        p.add_argument("--file", type=Path, required=True)
        p.add_argument("--desc", default="")
        p.add_argument("--as", dest="identity", required=True,
                       help="acting identity (label, hashed to an address)")
    sub.add_parser("create", help="register a new evidence file",
                   build=create).set_defaults(func=cmd_ledger_create)

    def transfer(p):
        p.add_argument("id")
        p.add_argument("--to", required=True)
        p.add_argument("--as", dest="identity", required=True)
    sub.add_parser("transfer", help="hand evidence to a new owner",
                   build=transfer).set_defaults(func=cmd_ledger_transfer)

    sub.add_parser("show", help="print the custody history of an entry",
                   build=lambda p: p.add_argument("id"),
                   ).set_defaults(func=cmd_ledger_show)

    def discard(p):
        p.add_argument("id")
        p.add_argument("--as", dest="identity", required=True)

    def acquire(p):
        discard(p)
        p.add_argument("--out", type=Path, help="write the blob here")
    sub.add_parser("acquire", help="fetch the blob (current owner only)",
                   build=acquire).set_defaults(func=cmd_ledger_acquire)
    sub.add_parser("discard", help="remove entry and blob (creator only)",
                   build=discard).set_defaults(func=cmd_ledger_discard)

    sub.add_parser("verify", help="re-hash every blob and cross-check "
                                  "store and ledger; exit 1 on a problem",
                   ).set_defaults(func=cmd_ledger_verify)


# -- sim commands ------------------------------------------------------


def _config_from_args(args) -> ExperimentConfig:
    file_values = read_config_file(args.config) if args.config else {}
    overrides = {key: parse_value(key, getattr(args, key)) for key in _SIM_FLAGS
                 if getattr(args, key) is not None}
    return ExperimentConfig(**{**file_values, **overrides})


def _workload_from_spec(spec: str, config: ExperimentConfig) -> list:
    from . import workload
    try:
        if spec.startswith("rate:"):
            return workload.constant_rate_workload(
                workload.RateSpec(int(spec.split(":")[1]), config.periods),
                config.seed, config.period)
        if spec.startswith("ramp:"):
            _, start, end = spec.split(":")
            return workload.ramp_workload(
                workload.RampSpec(int(start), int(end), config.periods),
                config.seed, config.period)
    except (ValueError, workload.InvalidSpec) as err:
        raise ConfigError(f"bad workload spec {spec!r}: {err}") from err
    raise ConfigError(f"bad workload spec {spec!r}")


@contextlib.contextmanager
def _output(path):
    """The file at path opened for CSV writing, or stdout if path is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _write_metrics(rows, path) -> None:
    with _output(path) as out:
        writer = csv.writer(out)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow([row.period_index, row.gas_rate,
                             f"{row.mean_lb:.6f}", f"{row.max_lb:.6f}",
                             f"{row.mean_lc:.9f}", row.committed_block_size,
                             row.chain_size_bytes, row.mempool_depth])


def _run(config: ExperimentConfig, spec: str):
    """One experiment on a workload spec; also the sweep's pool task."""
    from .simulation import run_experiment
    return run_experiment(config, _workload_from_spec(spec, config))


def cmd_sim_run(args) -> int:
    result = _run(_config_from_args(args), args.workload)
    _write_metrics(result.rows, args.out)
    print(f"periods elapsed: {result.periods_elapsed}", file=sys.stderr)
    for idx in sorted(result.chain_digests):
        mark = "honest" if idx in result.honest else "byzantine"
        print(f"validator {idx} ({mark}): height {result.chain_lengths[idx]} "
              f"head {result.chain_digests[idx][:16]}", file=sys.stderr)
    return 0


def cmd_sim_sweep(args) -> int:
    base = _config_from_args(args)
    key, _, values = args.sweep.partition("=")
    key = key.replace("-", "_")
    if not values or key not in ExperimentConfig.__dataclass_fields__:
        raise ConfigError(f"bad sweep spec {args.sweep!r}")
    # each value is printed as typed, and parsed as in a config file
    texts = [v.strip() for v in values.split(",")]
    configs = [ExperimentConfig(**{**vars(base), key: parse_value(key, text)})
               for text in texts]
    if len(set(configs)) < len(configs):
        raise ConfigError(f"bad sweep spec {args.sweep!r}: a value is repeated")
    from . import simulation, workload  # noqa: F401  (forked workers inherit them)
    with futures.ProcessPoolExecutor(
            max_workers=min(len(configs), os.cpu_count() or 1)) as pool:
        results = list(pool.map(_run, configs,
                                [args.workload] * len(configs)))

    for text, result in zip(texts, results):
        if args.out:
            path = args.out.with_name(f"{args.out.stem}_{key}_{text}{args.out.suffix}")
            _write_metrics(result.rows, path)
            where = str(path)
        else:
            where = "-"
        print(f"{key}={text}: periods={result.periods_elapsed} "
              f"min_height={min(result.chain_lengths[i] for i in result.honest)} "
              f"metrics={where}")
    return 0


# -- analyze commands --------------------------------------------------


def cmd_analyze_table2(args) -> int:
    rows = analytics.annual_growth_table(period=args.period)
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["workload_n", "content_mib", "total_mib", "overhead_pct"])
        for row in rows:
            writer.writerow([row.creations_per_year, f"{row.content_mib:.2f}",
                             f"{row.total_mib:.2f}", f"{row.overhead_pct:.2f}"])
    return 0


def cmd_analyze_fig3(args) -> int:
    try:
        minutes = [int(m) for m in args.minutes.split(",")]
    except ValueError as err:
        raise ConfigError(f"bad minutes list {args.minutes!r}") from err
    sweep = analytics.annual_header_overhead_sweep(minutes)
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["period_minutes", "header_bytes_per_year",
                         "header_mib_per_year"])
        for m, overhead in sweep:
            writer.writerow([m, int(overhead), f"{float(overhead) / MIB:.2f}"])
    return 0


def cmd_analyze_plan(args) -> int:
    if args.upper_bound is not None:
        upper = args.upper_bound
    else:
        upper = analytics.latency_gas_bound(
            args.max_consensus_latency, ChainParams(bandwidth=args.bandwidth))
    plan = analytics.plan_gas_limit(args.max_gas_rate, args.avg_gas_rate, upper)
    print(f"lower bound (peak rate):    {plan.max_rate_bound}")
    print(f"lower bound (average rate): {plan.avg_rate_bound}")
    print(f"upper bound (latency):      {plan.latency_bound}")
    print(f"recommended gas limit:      {plan.recommendation}  [{plan.tag}]")
    return 0


def cmd_analyze_ukp(args) -> int:
    if args.samples < 0 or args.max_gas < 0:
        raise ConfigError("--samples and --max-gas cannot be negative")
    catalog = standard_catalog()
    rng = random.Random(args.seed)
    transfer_gas = analytics.TRANSFER.gas
    values = sorted({rng.randrange(args.max_gas + 1) for _ in range(args.samples)})
    values += [k * transfer_gas + r for k in range(11) for r in (0, transfer_gas - 1)]
    mismatches = 0
    for g in values:
        closed = analytics.max_block_size_closed_form(g, catalog)
        exact = analytics.max_block_size_ukp(g, catalog)
        if closed != exact:
            mismatches += 1
            print(f"MISMATCH at G={g}: closed={closed} dp={exact}")
    print(f"checked {len(values)} gas limits, {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


# -- ledger commands ---------------------------------------------------


def _utf8(text: str, what: str) -> str:
    """Refuse text that is not UTF-8: Python passes an argument's
    undecodable bytes as lone surrogates, which the ledger cannot hash or
    journal."""
    from .store import is_utf8
    if not is_utf8(text):
        raise ConfigError(f"bad {what} {text!r}: not UTF-8")
    return text


def _identity(label: str) -> Address:
    """Parse an --as or --to argument, before any command touches the
    store."""
    if len(label) == 40:
        try:
            return Address.from_hex(label)
        except ValueError:
            pass
    return Address.from_label(_utf8(label, "identity"))


def _evidence_id(text: str) -> EvidenceId:
    """Parse an id argument, before any command touches the store."""
    try:
        return EvidenceId.from_hex(text)
    except ValueError as err:
        raise ConfigError(f"bad evidence id {text!r}: {err}") from err


def cmd_ledger_create(args) -> int:
    from .store import open_custody
    creator = _identity(args.identity)
    description = _utf8(args.desc, "description")
    blob = args.file.read_bytes()
    with open_custody(args.store) as frontend:
        evidence_id = frontend.submit_evidence(creator, blob, description)
    print(evidence_id.hex)
    return 0


def cmd_ledger_transfer(args) -> int:
    from .store import open_custody
    evidence_id = _evidence_id(args.id)
    owner, new_owner = _identity(args.identity), _identity(args.to)
    with open_custody(args.store) as frontend:
        frontend.transfer_evidence(owner, evidence_id, new_owner)
    print("transferred")
    return 0


def cmd_ledger_discard(args) -> int:
    from .store import open_custody
    evidence_id = _evidence_id(args.id)
    requester = _identity(args.identity)
    with open_custody(args.store) as frontend:
        frontend.discard_evidence(requester, evidence_id)
    print("removed")
    return 0


def cmd_ledger_show(args) -> int:
    from .store import open_custody
    evidence_id = _evidence_id(args.id)
    with open_custody(args.store, reconcile=False) as frontend:
        entry = frontend.client.get_entry(evidence_id)
    print(f"id:          {entry.id.hex}")
    # a description an older version journaled from an undecodable
    # argument holds lone surrogates: shown as backslash escapes
    description = entry.description.encode("utf-8", "backslashreplace")
    print(f"description: {description.decode()}")
    print(f"creator:     {entry.creator.hex}")
    print(f"owner:       {entry.owner.hex}")
    print("custody history:")
    for addr, when in zip(entry.taddr, entry.ttime):
        print(f"  {addr.hex} @ {when}")
    return 0


def cmd_ledger_acquire(args) -> int:
    from .store import open_custody
    evidence_id = _evidence_id(args.id)
    requester = _identity(args.identity)
    with open_custody(args.store, reconcile=False) as frontend:
        blob = frontend.acquire_evidence(requester, evidence_id)
    if args.out:
        args.out.write_bytes(blob)
        print(f"wrote {len(blob)} bytes to {args.out}")
    else:
        sys.stdout.buffer.write(blob)
    return 0


def cmd_ledger_verify(args) -> int:
    from .store import open_custody
    with open_custody(args.store, reconcile=False) as frontend:
        problems = frontend.verify()
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AnalyticsError) as err:
        # every AnalyticsError the CLI can reach comes from a flag value
        print(f"config error: {err}", file=sys.stderr)
        return 2
    # only a ledger command raises a StoreError, after it loaded the store
    except (LedgerError, OSError, getattr(sys.modules.get(
            f"{__package__}.store"), "StoreError", OSError)) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
