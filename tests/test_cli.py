import argparse
import contextlib
import csv
import fcntl
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, \
    strategies as st

import custodysim
from custodysim import cli, simulation
from custodysim.cli import METRICS_COLUMNS, _build_parser, main
from custodysim.config import (_FIELD_PARSERS, FAULT_KINDS, ConfigError,
                               ExperimentConfig, read_config_file)
from custodysim.ledger import Address
from custodysim.store import LEDGER, EvidenceStore, open_custody
from crashes import Crash, crash_at

def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimRun:
    def test_writes_metrics_csv(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code, _, err = _run(capsys, "sim", "run", "--periods", "5",
                            "--seed", "1", "--out", str(out))
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == list(METRICS_COLUMNS)
        assert len(rows) >= 6
        assert "periods elapsed" in err

    def test_csv_byte_identical_across_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert _run(capsys, "sim", "run", "--periods", "8", "--seed", "3",
                        "--out", str(path))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("periods = 4\nseed = 2\n# comment\ngas_limit = 805020\n")
        out = tmp_path / "m.csv"
        code, _, _ = _run(capsys, "sim", "run", "--config", str(cfg),
                          "--periods", "6", "--out", str(out))
        assert code == 0
        assert len(list(csv.reader(out.open()))) >= 7  # override wins

    def test_byzantine_flag(self, tmp_path, capsys):
        code, _, err = _run(capsys, "sim", "run", "--periods", "5",
                            "--byzantine", "3:silent",
                            "--round-timeout", "150",
                            "--out", str(tmp_path / "m.csv"))
        assert code == 0
        assert "byzantine" in err

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("periods == 4\n")
        code, _, err = _run(capsys, "sim", "run", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_bad_workload_spec_exits_2(self, capsys):
        code, _, _ = _run(capsys, "sim", "run", "--workload", "nonsense")
        assert code == 2

    def test_invalid_byzantine_count_exits_2(self, capsys):
        code, _, _ = _run(capsys, "sim", "run", "--byzantine",
                          "1:silent,2:silent", "--periods", "3")
        assert code == 2

    def test_negative_round_timeout_exits_2(self, capsys):
        code, _, err = _run(capsys, "sim", "run", "--periods", "3",
                            "--round-timeout", "-1")
        assert code == 2
        assert "config error: round timeout must be positive" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--periods", "x", "bad value for periods: 'x'"),
        ("--validators", "4.5", "bad value for validators: '4.5'"),
        ("--period", "inf", "bad value for period: 'inf'"),
        ("--byzantine", "1:bogus", "unknown byzantine behavior 'bogus'"),
        ("--byzantine", "1:silent,one", "bad value for byzantine: '1:silent,one'"),
    ])
    def test_bad_flag_value_exits_2(self, flag, value, message, capsys):
        code, out, err = _run(capsys, "sim", "run", "--periods", "3",
                              flag, value)
        assert code == 2 and out == ""
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["--period", "1e308", "--periods", "3"],
         "the default round timeout 2 * 1e+308 is not finite"),
        (["--period", "1e305", "--periods", "100000"],
         "100000 periods of 1e+305 s, plus up to 1000 drain periods, "
         "overflow the clock"),
        (["--periods", "1" + "0" * 400],
         f"1{'0' * 400} periods of 300.0 s, plus up to 1000 drain periods, "
         "overflow the clock"),
        # finite, but a doubled round timer could pass the float range
        (["--period", "1e305", "--periods", "700"],
         "700 periods of 1e+305 s, plus up to 1000 drain periods, "
         "overflow the clock"),
    ])
    def test_run_past_the_float_clock_exits_2(self, argv, message, capsys):
        """A run whose timers or period boundaries overflow to inf would
        never finish; a count of periods too large for a float would
        raise OverflowError."""
        code, out, err = _run(capsys, "sim", "run", *argv)
        assert code == 2 and out == ""
        assert err == f"config error: {message}\n"

    def test_doubled_round_timers_near_the_float_clock_stay_finite(self,
                                                                    capsys):
        # the silent proposer's round 0 times out near the end of the clock
        code, _, err = _run(capsys, "sim", "run", "--period", "5e304",
                            "--periods", "700", "--round-timeout", "8e307",
                            "--byzantine", "1:silent", "--workload", "rate:1",
                            "--out", os.devnull)
        assert code == 0 and "periods elapsed: 1700" in err

    @pytest.mark.parametrize("timeout", ["1e-9", "1e-300"])
    def test_round_timeout_below_a_round_trip_still_commits(self, timeout):
        """The round timer doubles with each round, so it outgrows a round
        trip however small it starts; a fixed one ran out in every round,
        for ever. A subprocess, so that such a run fails the test."""
        proc = subprocess.run(
            [sys.executable, "-m", "custodysim.cli", "sim", "run", "--periods",
             "3", "--round-timeout", timeout, "--out", os.devnull],
            capture_output=True, text=True, env=_SRC_ENV, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert re.findall(r"height (\d+)", proc.stderr) == ["3"] * 4

    def test_rounds_slower_than_the_timeout_reach_every_height(self, tmp_path,
                                                              capsys):
        """0.3 s links with 0.2 s jitter make a three-phase round outlast
        the 1 s timer. With a fixed timer every replica halted at height 0
        or 1; the doubling one lets a round finish at every height."""
        config = tmp_path / "tight.cfg"
        config.write_text("jitter = 0.2\nbase-delay = 0.3\n")
        code, _, err = _run(capsys, "sim", "run", "--config", str(config),
                            "--validators", "4", "--period", "5",
                            "--round-timeout", "1", "--periods", "20",
                            "--seed", "0", "--out", str(tmp_path / "t.csv"))
        assert code == 0
        assert re.findall(r"height (\d+)", err) == ["21"] * 4

    def test_empty_byzantine_flag_overrides_the_config_file(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "faults.cfg"
        cfg.write_text("periods = 3\nbyzantine = 3:silent\n")
        argv = ("sim", "run", "--config", str(cfg), "--out",
                str(tmp_path / "m.csv"))
        assert "(byzantine)" in _run(capsys, *argv)[2]
        code, _, err = _run(capsys, *argv, "--byzantine", "")
        assert code == 0 and "(byzantine)" not in err


class TestConfigSurface:
    def test_every_file_key_is_a_config_field(self):
        assert set(_FIELD_PARSERS) == set(ExperimentConfig.__dataclass_fields__)

    def test_every_fault_kind_has_a_node(self):
        assert tuple(simulation._FAULTS) == FAULT_KINDS

    def test_size_constants_are_not_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "sizes.cfg"
        cfg.write_text("header_size = 1909\n")
        code, _, err = _run(capsys, "sim", "run", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize("text,value", [
        *((text, True) for text in ("1", "true", "yes", "on", "TRUE", "On")),
        *((text, False) for text in ("0", "false", "no", "off", "FALSE"))])
    def test_boolean_spellings(self, text, value, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"drain = {text}\nreject_invalid_at_mempool = {text}\n")
        assert read_config_file(cfg) == {"drain": value,
                                         "reject_invalid_at_mempool": value}

    @pytest.mark.parametrize("line", ["drain = maybe",
                                      "reject_invalid_at_mempool = ture"])
    def test_bad_boolean_exits_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"periods = 3\n{line}\n")
        code, _, err = _run(capsys, "sim", "run", "--config", str(cfg))
        assert code == 2
        assert f"config error: {cfg}:2: bad value for {line.split()[0]}" in err

    def test_non_utf8_config_exits_2_naming_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "bytes.cfg"
        cfg.write_bytes(b"periods = 3\n\xff\xfe\n")
        code, _, err = _run(capsys, "sim", "run", "--config", str(cfg))
        assert code == 2
        assert err == f"config error: {cfg}:2: not UTF-8 text\n"


# scenario -> (sim run flags, SHA-256 of the --out CSV, SHA-256 of stderr)
GOLDEN_RUNS = {
    "no-fault": (["--seed", "11", "--periods", "30", "--workload", "rate:3"],
                 "197cec5f679a4d85257c15b9c147440499ad21ca701f118b7c9f8d0f57ac991f",
                 "2ae4ef0045b92174981c5759fc572651b64000d059d2af29d379313835fedec9"),
    "silent": (["--seed", "11", "--periods", "30", "--byzantine", "3:silent"],
               "cc4e6a03371ecb08c5642c90b056365c755e79bd3769189d5bdc574110c3b1e2",
               "1276154b0ad4f1cca35ef870b256b779e2cbe4cbc0ea8bf8fd4f237c097705a7"),
    "equivocate": (["--seed", "11", "--periods", "30",
                    "--byzantine", "1:equivocate"],
                   "2e3250c82aaa4cfdf3ece5a5e5555066bafe9f84e2fc1baffab2fcc3989862f7",
                   "013a79ce6248736890ac1f3b4df4730f1246d421e333715b2193fc7a8a32519f"),
    "delay-jitter": (["--config", "{config}", "--workload", "rate:4"],
                     "3a11e49f83a36d6a395a7104a5b088d4149fa8e5f5e738a1626d81bd779393a6",
                     "d86bf37c6b46af65a3f30c496ed6cb5b24caeed373f088988c5dad0dbdc68b2e"),
    "equivocate-jitter": (["--config", "{config}", "--validators", "7",
                           "--byzantine", "3:equivocate"],
                          "93a6f59b5c889cdc1ef9ad39a11df4afb6ac78cd6361b74ae72b0e0b16e51b4b",
                          "dad9c04f7589bee94a63233200d3e2869a856d75d6472bcf5aa2d5e35ec18e2c"),
    "silent-wide": (["--config", "{config}", "--validators", "16",
                     "--byzantine", "5:silent"],
                    "6d540ee0aa8dbac798273b6bc2ce01ea696f6ce6236857ec2e16785978451800",
                    "48a87786fd0369cfa97884a2392eebf8838158b895efc9a51616fa7a600786fd"),
    "reject-invalid": (["--config", "{strict_config}", "--workload", "rate:3"],
                       "797096d4f20b4fff7648ed93f1baeefebed8e08420674be49111feb84e8242bf",
                       "4be85b5e8a140dbfdbbcdc8fbb9a90d268ccce3cd3d43666954e0281bc22280b"),
    "silent-short-timeout": (["--config", "{config}", "--validators", "7",
                              "--byzantine", "2:silent",
                              "--round-timeout", "0.05"],
                             "93d923497f85bb145f27dd051548dbe99c2f1b7ab6cf2481701b8f8c4effd1e5",
                             "c0f0e3ed98ada2a5a3cfb00324979c214743b84bd5c5f03a83ffb7d9fac041de"),
    "silent-long-timeout": (["--config", "{config}", "--validators", "4",
                             "--byzantine", "1:silent",
                             "--round-timeout", "450"],
                            "b97ff2ee8e12ab947844995e056591c734cd9f4960514ac0ae2a3a3e5629e04c",
                            "74c91185b4e7b8a20201566525e9878c1a0b6f4adeb724c17dd11bf1fb6343b8"),
}
GOLDEN_CONFIG = "seed = 11\nperiods = 30\nbase_delay = 0.05\njitter = 0.02\n"
STRICT_CONFIG = "seed = 11\nperiods = 30\nreject_invalid_at_mempool = true\n"


class TestGoldenOutput:
    """`sim run` output pinned byte for byte for nine seeded scenarios.

    The delay-jitter, equivocate-jitter and silent-wide scenarios set
    base_delay and jitter through a config file, so every client
    transaction draws link jitter on its way to the mempools, and in
    equivocate-jitter the two halves of each conflicting proposal draw it
    too. silent-wide runs 16 validators, one of them silent, so each
    height it should propose goes through a round change under jitter.
    reject-invalid is the one run with strict admission: its transfers
    name evidence no ledger holds, so every mempool drops them and each
    block is empty. The two timeout scenarios pin the round timers. At
    0.05 s every timer is due in the period it is set in, and rounds
    change mid-period; the honest replicas split and end at different
    heights. At 450 s a silent proposer's timer is set at a boundary,
    waits out the period that opens there and fires in the middle of the
    one after it. A change to the engine that keeps its results must keep
    these hashes. A change that declares a change of behaviour records
    them again.
    """

    @pytest.mark.parametrize("scenario", sorted(GOLDEN_RUNS))
    def test_sim_run_output_unchanged(self, scenario, tmp_path, capsys):
        flags, csv_sha, err_sha = GOLDEN_RUNS[scenario]
        config = tmp_path / "net.cfg"
        config.write_text(GOLDEN_CONFIG)
        strict_config = tmp_path / "strict.cfg"
        strict_config.write_text(STRICT_CONFIG)
        out = tmp_path / "m.csv"
        code, _, err = _run(capsys, "sim", "run", "--out", str(out),
                            *(f.format(config=config,
                                       strict_config=strict_config)
                              for f in flags))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(err.encode()).hexdigest() == err_sha


# analyze flags -> SHA-256 of stdout
UKP_CHECK_SHA = "4610a74c3304e743bc933bdaa791b47d8f4eaf0bb15643638feaacfe892975e4"
GOLDEN_ANALYZE = {
    "table2": ([], "10394e06e95bf4ebf204684ac0c4d4684644589c644c677bbc749be5dd634183"),
    "fig3": ([], "f05a1ca60ccd2222493b2ee69b1e71a698fda7c544f6e382d1c7955b0c7ee9fb"),
    "plan-gas-limit": (["--max-gas-rate", "500000", "--avg-gas-rate", "200000",
                        "--max-consensus-latency", "0.01"],
                       "d857b6431c6fdfb3a96661a768058afbe4afca04b5ebdd28f86704ceab150f03"),
    **{f"ukp-check --seed {seed}": (["--seed", str(seed)], UKP_CHECK_SHA)
       for seed in range(5)},
    "ukp-check --max-gas 100000000": (["--max-gas", "100000000"],
                                      UKP_CHECK_SHA),
}


class TestGoldenAnalyze:
    """`analyze` stdout pinned byte for byte, so a refactor of the
    analytics module that keeps its results keeps these hashes."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
    def test_analyze_output_unchanged(self, name, capsys):
        flags, sha = GOLDEN_ANALYZE[name]
        code, out, _ = _run(capsys, "analyze", name.split()[0], *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestSimSweep:
    def test_sweep_gas_limit(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = _run(capsys, "sim", "sweep", "--periods", "4",
                               "--sweep", "gas-limit=161004,805020",
                               "--out", str(out))
        assert code == 0
        assert "gas_limit=161004" in stdout and "gas_limit=805020" in stdout
        assert (tmp_path / "sweep_gas_limit_161004.csv").exists()
        assert (tmp_path / "sweep_gas_limit_805020.csv").exists()

    def test_bad_sweep_key_exits_2(self, capsys):
        code, _, _ = _run(capsys, "sim", "sweep", "--sweep", "bogus=1,2")
        assert code == 2

    def test_sweep_over_a_non_field_attribute_exits_2(self, capsys):
        for key in ("effective-round-timeout", "max-drain-periods"):
            code, _, err = _run(capsys, "sim", "sweep", "--periods", "2",
                                "--sweep", f"{key}=1,2")
            assert code == 2
            assert "bad sweep spec" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec,message", [
        ("validators=4.5", "bad value for validators: '4.5'"),
        ("gas-limit=1e6", "bad value for gas_limit: '1e6'"),
        ("seed=1,x", "bad value for seed: 'x'"),
        ("drain=maybe", "bad value for drain: 'maybe'"),
        ("jitter=nan", "bad value for jitter: 'nan'"),
        ("byzantine=1:bogus", "unknown byzantine behavior 'bogus'"),
        ("period=-1", "period must be positive"),
    ])
    def test_bad_sweep_value_exits_2(self, spec, message, capsys):
        code, out, err = _run(capsys, "sim", "sweep", "--periods", "2",
                              "--sweep", spec)
        assert code == 2 and out == ""
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("values", ["1,1", "1,2,01"])
    def test_repeated_sweep_value_exits_2_before_any_run(
            self, values, tmp_path, monkeypatch, capsys):
        # two runs of one config would write one metrics file twice
        monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", None)
        code, out, err = _run(capsys, "sim", "sweep", "--periods", "2",
                              "--sweep", f"seed={values}",
                              "--out", str(tmp_path / "s.csv"))
        assert code == 2 and out == ""
        assert err == (f"config error: bad sweep spec 'seed={values}': "
                       "a value is repeated\n")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_prints_values_as_typed(self, capsys):
        code, out, _ = _run(capsys, "sim", "sweep", "--periods", "2",
                            "--sweep", "seed=-1,2")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == \
            ["seed=-1", "seed=2"]


class TestAnalyze:
    def test_table2_values(self, capsys):
        code, out, _ = _run(capsys, "analyze", "table2")
        assert code == 0
        rows = {r[0]: r for r in csv.reader(out.splitlines()[1:])}
        assert float(rows["10000"][2]) == pytest.approx(221.08, abs=0.01)
        assert float(rows["100000"][3]) == pytest.approx(39.18, abs=0.01)
        assert float(rows["1000000"][1]) == pytest.approx(2970.70, abs=0.01)

    def test_fig3_default_sweep(self, capsys):
        code, out, _ = _run(capsys, "analyze", "fig3")
        assert code == 0
        rows = {r[0]: r for r in csv.reader(out.splitlines()[1:])}
        assert rows["5"][1] == "200674080"
        assert float(rows["5"][2]) == pytest.approx(191.38, abs=0.01)

    def test_plan_gas_limit_direct_bound(self, capsys):
        code, out, _ = _run(capsys, "analyze", "plan-gas-limit",
                            "--max-gas-rate", "100000",
                            "--avg-gas-rate", "50000",
                            "--upper-bound", "900000")
        assert code == 0
        assert "[ideal]" in out

    def test_plan_gas_limit_from_latency(self, capsys):
        code, out, _ = _run(capsys, "analyze", "plan-gas-limit",
                            "--max-gas-rate", "100000",
                            "--avg-gas-rate", "50000",
                            "--max-consensus-latency", "0.01")
        assert code == 0
        assert "recommended gas limit" in out

    def test_ukp_check(self, capsys):
        code, out, _ = _run(capsys, "analyze", "ukp-check",
                            "--samples", "50", "--max-gas", "1000000")
        assert code == 0
        assert "0 mismatches" in out

    def test_ukp_check_has_no_gas_cap(self, capsys):
        code, out, _ = _run(capsys, "analyze", "ukp-check",
                            "--samples", "5", "--max-gas", "1000000000000")
        assert code == 0
        assert "0 mismatches" in out

    @pytest.mark.parametrize("argv", [
        ["plan-gas-limit", "--max-gas-rate", "100000", "--avg-gas-rate",
         "50000", "--max-consensus-latency", "0.01", "--bandwidth", "0"],
        ["table2", "--period", "0"],
        ["fig3", "--minutes", "0"],
        ["ukp-check", "--max-gas", "-1"],
        ["ukp-check", "--samples", "-3"],
        ["plan-gas-limit", "--max-gas-rate", "1", "--avg-gas-rate", "5",
         "--upper-bound", "3"],
        ["plan-gas-limit", "--max-gas-rate", "500000", "--avg-gas-rate",
         "200000", "--max-consensus-latency", "0.001"],
        ["plan-gas-limit", "--max-gas-rate", "-5", "--avg-gas-rate", "-10",
         "--upper-bound", "-20"],
    ])
    def test_bad_flag_values_exit_2(self, argv, capsys):
        code, _, err = _run(capsys, "analyze", *argv)
        assert code == 2
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["table2", "--period", "1e-300"],
         "period 1e-300 s overflows a float in bytes per year"),
        (["plan-gas-limit", "--max-gas-rate", "1", "--avg-gas-rate", "1",
          "--max-consensus-latency", "1e308"],
         "latency target 1e+308 s overflows a float in bytes"),
    ], ids=["table2", "plan-gas-limit"])
    def test_overflowing_results_exit_2(self, argv, message, capsys):
        code, out, err = _run(capsys, "analyze", *argv)
        assert (code, out) == (2, "")
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["table2", "--period", "nan"],
        ["plan-gas-limit", "--max-gas-rate", "5", "--avg-gas-rate", "1",
         "--max-consensus-latency", "inf"],
        ["plan-gas-limit", "--max-gas-rate", "5", "--avg-gas-rate", "1",
         "--max-consensus-latency", "0.01", "--bandwidth", "inf"],
    ])
    def test_non_finite_floats_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", *argv])
        assert exit_.value.code == 2
        assert "invalid finite_float value" in capsys.readouterr().err


class TestLedgerWorkflow:
    def test_full_custody_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        blob = tmp_path / "evidence.bin"
        blob.write_bytes(b"camera footage")

        code, out, _ = _run(capsys, "ledger", "--store", store, "create",
                            "--file", str(blob), "--desc", "cam",
                            "--as", "alice")
        assert code == 0
        eid = out.strip()
        assert len(eid) == 64

        code, out, _ = _run(capsys, "ledger", "--store", store, "show", eid)
        assert code == 0
        assert "cam" in out and eid in out

        code, _, _ = _run(capsys, "ledger", "--store", store, "transfer",
                          eid, "--to", "bob", "--as", "alice")
        assert code == 0

        # old owner can no longer acquire; new owner can
        code, _, err = _run(capsys, "ledger", "--store", store, "acquire",
                            eid, "--as", "alice")
        assert code == 1 and "NotOwner" in err
        got = tmp_path / "copy.bin"
        code, _, _ = _run(capsys, "ledger", "--store", store, "acquire",
                          eid, "--as", "bob", "--out", str(got))
        assert code == 0
        assert got.read_bytes() == b"camera footage"

        # only the creator may discard
        code, _, err = _run(capsys, "ledger", "--store", store, "discard",
                            eid, "--as", "bob")
        assert code == 1 and "NotCreator" in err
        code, _, _ = _run(capsys, "ledger", "--store", store, "discard",
                          eid, "--as", "alice")
        assert code == 0
        code, _, _ = _run(capsys, "ledger", "--store", store, "show", eid)
        assert code == 1

    def test_unknown_id_exits_1(self, tmp_path, capsys):
        with open_custody(tmp_path / "s"):
            pass   # an empty store
        code, _, err = _run(capsys, "ledger", "--store",
                            str(tmp_path / "s"), "show", "ab" * 32)
        assert code == 1
        assert "EvidenceNotFound" in err

    @pytest.mark.parametrize("bad_id", ["zzz", "abcd"])
    @pytest.mark.parametrize("command", [
        ("show",), ("transfer", "--to", "bob", "--as", "alice"),
        ("discard", "--as", "alice"),
        ("acquire", "--as", "alice")], ids=lambda command: command[0])
    def test_malformed_id_exits_2(self, command, bad_id, tmp_path, capsys):
        store = tmp_path / "s"
        code, out, err = _run(capsys, "ledger", "--store", str(store),
                              command[0], bad_id, *command[1:])
        assert code == 2 and out == ""
        assert err.startswith(f"config error: bad evidence id {bad_id!r}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not store.exists()

    @pytest.mark.parametrize("damage", [
        lambda line: line[:40],
        lambda line: json.dumps({**json.loads(line), "time": "x"}),
        lambda line: json.dumps({**json.loads(line), "issuer": "cc" * 20}),
    ], ids=["truncated", "clock-not-a-number", "transfer-by-non-owner"])
    def test_malformed_ledger_file_exits_1(self, damage, tmp_path, capsys):
        store = tmp_path / "s"
        blob = tmp_path / "e.bin"
        blob.write_bytes(b"x")
        argv = ("ledger", "--store", str(store))
        code, out, _ = _run(capsys, *argv, "create", "--file", str(blob),
                            "--as", "alice")
        assert code == 0
        assert _run(capsys, *argv, "transfer", out.strip(), "--to", "bob",
                    "--as", "alice")[0] == 0
        assert _run(capsys, *argv, "create", "--file", str(blob),
                    "--as", "alice")[0] == 0
        ledger = store / "ledger.jsonl"
        lines = ledger.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        lines[1] = damage(lines[1].rstrip("\n")) + "\n"
        ledger.write_text("".join(lines))
        code, _, err = _run(capsys, *argv, "show", "ab" * 32)
        assert code == 1
        assert "StoreError" in err and "ledger.jsonl: line 2" in err
        assert "Traceback" not in err

    def test_hex_identity_accepted(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        blob = tmp_path / "e.bin"
        blob.write_bytes(b"x")
        code, out, _ = _run(capsys, "ledger", "--store", store, "create",
                            "--file", str(blob), "--as", "ab" * 20)
        assert code == 0
        _, show, _ = _run(capsys, "ledger", "--store", store, "show",
                          out.strip())
        assert "ab" * 20 in show


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    parser.format_usage()   # a parser adds its arguments when first used
    return next((action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), {})


def test_readme_commands_parse():
    # every `custodysim ...` line of README's CLI block, continuations
    # joined; argparse exits on a flag the parser no longer has
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("custodysim ")]
    assert len(commands) >= 10
    documented = set()
    for command in commands:
        args = _build_parser().parse_args(shlex.split(command)[1:])
        assert callable(args.func), command
        documented.add(getattr(args, "ledger_command", None))
    # and README documents every ledger command, so no alias hides
    ledger = _subcommands(_subcommands(_build_parser())["ledger"])
    assert documented - {None} == set(ledger)


# SHA-256 of `custodysim COMMAND --help` stdout, for every command path
HELP_SHA = {
    "": "037c4aa3564e106474fb1cedaf3fb6c5792e613e6269b3639c26b409f9c9b27a",
    "sim": "d52da6fb5a2bb930d37e5e5eb34e70cf992dd315a768215a59ca3a02b2e6c5bc",
    "sim run": "7fddb33a9530845b046bfb1c673ed6b58e7b3b5994c16de62430bade1ca9d476",
    "sim sweep": "554e3276dcd6802a8e4f7429c6ffd279bd23f15e72d172016abd87f44d7addb9",
    "analyze": "f3dd0b38145903b5b91e009d14031471224207d4e0539e314c413caf159efe57",
    "analyze table2": "de9a6613671b0b4006e0c6fb03ffee7ca8a1369f736b22b7b32109076d5fffea",
    "analyze fig3": "c155c5063b1178aebbd59b07975671a23cf66d5b24e6a47bc8a7f4681a689be8",
    "analyze plan-gas-limit": "d678ecd1a7cef221b166fa42c2f189c7404acff5d4ad50bfcd490109208d4bc3",
    "analyze ukp-check": "6f9c02a8efb629e5bbd506fa703c179d707047b7ce8adad7ed54a5679d55e005",
    "ledger": "bb485e66935030fd36f896b4b63a9a5ad0574fcb009e97eadd9fda4f58859ce5",
    "ledger create": "978ed2d3c815294c6c6d855e9566c4a127a69cffc716d720f032afedf42e0d83",
    "ledger transfer": "4345f76b3334be842252aacefcfb5b712ededd1b3331509165691a62dd665ee9",
    "ledger show": "0f3477715397f94356abe91fe1bbc82ae7c5a1743f857a8cb1cf78bdaa6cbe9d",
    "ledger acquire": "30d2966b4668c9e37ddb7e9569675fc080ff9299711aaaa34427840880986938",
    "ledger discard": "fe4b47001c47c140c04d9b70a7756c1dc9e90aa698bfb10302a04c2398e242e6",
    "ledger verify": "b161b0dcfe9182f26b43df37fd7892aa16a54e12b471e4b019738f549b9c2081",
}
# argv -> SHA-256 of stderr, for argv that argparse refuses with exit 2
USAGE_ERROR_SHA = {
    "": "f6c0b4b9db93efef9746bc84be564b1811b675993d9043afe81c970cbb06d9ee",
    "bogus": "a0def9b3aabf734fe228a1f2ca635258a82119eecdc742c18449d224e41b8037",
    "sim": "43d3082758296d8e328c5a2ddf5076cce436b5a0c1ecdbe579dda0d555021584",
    "analyze": "7fa4ab7df851a19bc880b181109d63628d94092c165489ee3cd224cfb7f360c6",
    "ledger": "ed2ba7ef1c481597e9050f87833eb5eb4be50d27c11b80764a39a9ac5f7f7514",
    "sim bogus": "0d9848eb8c337404492f4929c28b921093623bdaa4554199ee05513bcc04d4f0",
    "sim sweep --periods 2": "c113cc550e7a1422eb1a3682f26b6eb52c6cc5a9a070a5ba0c4c2ff64f2b7d8a",
    "analyze ukp-check --bogus": "ceadb632f97dbf34f67f136ee91e269d8c3521ab80a720a02c51b4f0a041a8fa",
    "analyze ukp-check --samples x": "f735e7755859e753c88c3029adc04dade3d0369f6b4b514d55278592219bfb38",
    "analyze plan-gas-limit --max-gas-rate 1 --avg-gas-rate 1 --upper-bound 1 "
    "--max-consensus-latency 1": "f713d6bb4d7fbc07436c85c2f61ffa99efedb980677ce9641ffb27ec9d7b7507",
    "ledger --sto DIR show": "a203958602e1bbd9088915e167fcc7fa2f7eeb8a89033388baf3ba049f6e1ea5",
    "ledger create --file f": "899eee619a86a4fa9b2424e73d165ddf8f237c9215bff1e0faec791614674f57",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the hashes pin argparse's layout on Python 3.11")
class TestParserOutput:
    """Help pages and usage errors pinned byte for byte at 80 columns, so
    a change to how the parsers are built keeps what they print."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_every_command_path_is_pinned(self):
        def paths(parser, prefix=""):
            yield prefix
            for name, sub in _subcommands(parser).items():
                yield from paths(sub, f"{prefix} {name}".strip())
        assert sorted(paths(_build_parser())) == sorted(HELP_SHA)

    @pytest.mark.parametrize("command", sorted(HELP_SHA))
    def test_help_unchanged(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main(command.split() + ["--help"])
        out, err = capsys.readouterr()
        assert exited.value.code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA[command]

    @pytest.mark.parametrize("argv", sorted(USAGE_ERROR_SHA))
    def test_usage_error_unchanged(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv.split())
        out, err = capsys.readouterr()
        assert exited.value.code == 2 and out == ""
        assert hashlib.sha256(err.encode()).hexdigest() == USAGE_ERROR_SHA[argv]


@pytest.mark.parametrize("argv,command,parsers,arguments", [
    ("analyze ukp-check --samples 0 --max-gas 0", "analyze ukp-check", 8, 11),
    ("ledger --store unused show not-an-id", "ledger show", 10, 12),
])
def test_a_command_builds_only_the_parsers_on_its_path(
        argv, command, parsers, arguments, monkeypatch, capsys):
    # every group parser exists, to be chosen from; only the chosen group
    # lists its commands, and only the chosen command adds its flags
    built, added = [], []
    init, add_argument = (argparse.ArgumentParser.__init__,
                          argparse.ArgumentParser.add_argument)

    def counted_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    def counted_add_argument(self, *args, **kwargs):
        added.append((self.prog, args))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        counted_add_argument)
    main(argv.split())
    group = command.split()[0]
    assert [prog for prog in built if len(prog.split()) > 2
            and not prog.startswith(f"custodysim {group} ")] == []
    assert {prog for prog, args in added if args != ("-h", "--help")} <= {
        f"custodysim {group}", f"custodysim {command}"}
    assert (len(built), len(added)) == (parsers, arguments)


def test_readme_lists_the_store_files(tmp_path, capsys):
    # the files README's "Custody store" list names, after one create
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Custody store", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([^`]+)`", section, re.MULTILINE)
    blob = tmp_path / "e.bin"
    blob.write_bytes(b"x")
    store = tmp_path / "s"
    assert _run(capsys, "ledger", "--store", str(store), "create", "--file",
                str(blob), "--as", "alice")[0] == 0
    found = [re.sub(r"^[0-9a-f]{64}\.bin$", "<hex id>.bin", path.name)
             for path in store.iterdir()]
    assert sorted(found) == sorted(listed)


_CREATE_LOOP = """
import sys
from custodysim.cli import main
store, blob, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
codes = [main(["ledger", "--store", store, "create", "--file", blob,
               "--as", "alice"]) for _ in range(n)]
sys.exit(max(codes))
"""


_SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(custodysim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def test_only_the_ledger_commands_need_fcntl(tmp_path):
    # as on a Python without fcntl: the simulator and analytics still run
    script = ("import sys; sys.modules['fcntl'] = None\n"
              "from custodysim.cli import main\n"
              "assert main(['analyze', 'fig3', '--minutes', '5']) == 0\n"
              f"main(['ledger', '--store', {str(tmp_path)!r}, 'verify'])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_SRC_ENV, timeout=60)
    assert "header_mib_per_year" in proc.stdout
    assert proc.returncode != 0 and "fcntl" in proc.stderr


def test_only_the_knapsack_table_needs_numpy(tmp_path):
    # as on a Python without numpy: the simulator and the store still run
    blob = tmp_path / "e.bin"
    blob.write_bytes(b"evidence")
    store = str(tmp_path / "s")
    # the first ledger command, in a process that has not loaded the
    # store, still maps a StoreError to exit 1
    script = ("import os, sys; sys.modules['numpy'] = None\n"
              "from custodysim.cli import main\n"
              "assert main(['sim', 'run', '--periods', '2', '--out', "
              "os.devnull]) == 0\n"
              f"assert main(['ledger', '--store', {store!r}, 'verify']) == 1\n"
              f"assert main(['ledger', '--store', {store!r}, 'create', "
              f"'--file', {str(blob)!r}, '--as', 'alice']) == 0\n"
              f"assert main(['ledger', '--store', {store!r}, 'verify']) == 0\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_SRC_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert f"error: StoreError: {store}/{LEDGER} is missing" in proc.stderr


def test_each_command_loads_only_the_modules_it_runs():
    script = ("import json, sys\n"
              "def loaded(): return sorted(m for m in sys.modules\n"
              "                            if m.startswith('custodysim.'))\n"
              "from custodysim.cli import main\n"
              "print(json.dumps([loaded(), 'numpy' in sys.modules]))\n"
              "assert main(['analyze', 'ukp-check', '--samples', '10']) == 0\n"
              "print(json.dumps(loaded()))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_SRC_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    at_import, numpy_loaded = json.loads(lines[0])
    assert at_import == [f"custodysim.{name}" for name in (
        "analytics", "blocks", "cli", "config", "consensus", "ledger")]
    assert not numpy_loaded
    assert not set(json.loads(lines[-1])) & {
        "custodysim.store", "custodysim.simulation", "custodysim.netsim",
        "custodysim.workload"}


_DAMAGE = ("empty", "short", "cut", "flip", "append", "delete")


def _damage(path, kind, pick, extra):
    """Empty the file, cut it to at most 8 bytes or to a point past its
    8th byte, flip one of its bytes, append extra to it, or delete it."""
    if kind == "delete":
        path.unlink()
        return
    data = bytearray(path.read_bytes())
    if kind == "empty":
        data.clear()
    elif kind == "short":
        del data[pick % 9:]
    elif kind == "cut":
        del data[9 + pick % (len(data) - 9):]
    elif kind == "flip":
        data[pick % len(data)] ^= 1 + extra[0] % 255
    else:
        data += extra
    path.write_bytes(bytes(data))


class TestLedgerStore:
    """Crash safety, concurrency and `ledger verify`."""

    @staticmethod
    def _create(capsys, store, blob, who="alice"):
        code, out, _ = _run(capsys, "ledger", "--store", str(store), "create",
                            "--file", str(blob), "--as", who)
        assert code == 0
        return out.strip()

    def test_two_processes_lose_no_create(self, tmp_path, capsys):
        store, blob, n = tmp_path / "s", tmp_path / "e.bin", 15
        blob.write_bytes(b"shared evidence")
        procs = [subprocess.Popen(
            [sys.executable, "-c", _CREATE_LOOP, str(store), str(blob), str(n)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_SRC_ENV) for _ in range(2)]
        outputs = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outputs
        ids = [line for out, _ in outputs for line in out.split()]
        assert len(set(ids)) == 2 * n
        assert len(list(store.glob("*.bin"))) == 2 * n
        for eid in ids:
            assert _run(capsys, "ledger", "--store", str(store), "show",
                        eid)[0] == 0
        with open_custody(store) as frontend:
            assert len(frontend.client.evidence_ids()) == 2 * n
            assert frontend.check_referential_integrity()

    @pytest.mark.parametrize("tear", [False, True])
    @pytest.mark.parametrize("step", range(1, 5))
    @pytest.mark.parametrize("op", ["create", "transfer", "discard"])
    def test_crash_at_each_write_step(self, op, step, tear, tmp_path, capsys):
        store, blob = tmp_path / "s", tmp_path / "e.bin"
        blob.write_bytes(b"first")
        kept = self._create(capsys, store, blob)
        blob.write_bytes(b"second")
        argv = {"create": ["create", "--file", str(blob)],
                "transfer": ["transfer", kept, "--to", "bob"],
                "discard": ["discard", kept]}[op]
        with crash_at(step, tear):
            try:
                main(["ledger", "--store", str(store), *argv, "--as", "alice"])
            except Crash:
                pass
        capsys.readouterr()
        names = {eid.hex for eid in EvidenceStore(store).ids()}
        left = {eid for eid in names if _run(
            capsys, "ledger", "--store", str(store), "show", eid)[0] != 0}
        names.add(kept)
        # verify reports what the crash left, a torn ledger line included;
        # the next change clears it
        journal = store / LEDGER
        torn = {str(journal)} if tear and not journal.read_bytes().endswith(
            b"\n") else set()
        code, out, _ = _run(capsys, "ledger", "--store", str(store), "verify")
        assert code == (1 if left or torn else 0)
        assert {line.split()[0] for line in out.splitlines()} == left | torn
        self._create(capsys, store, blob, who="carol")
        assert _run(capsys, "ledger", "--store", str(store), "verify") \
            == (0, "", "")
        for eid in sorted(names):
            on_ledger = _run(capsys, "ledger", "--store", str(store), "show",
                             eid)[0] == 0
            assert on_ledger == (store / f"{eid}.bin").exists()

    def test_read_only_commands_keep_a_torn_ledger_line(self, tmp_path,
                                                        capsys):
        store, blob = tmp_path / "s", tmp_path / "e.bin"
        blob.write_bytes(b"evidence")
        eid = self._create(capsys, store, blob)
        journal = store / LEDGER
        whole = journal.read_bytes()
        journal.write_bytes(whole + b'{"uid": 2, "ti')
        torn = journal.read_bytes()
        for argv in (["show", eid], ["acquire", eid, "--as", "alice"],
                     ["verify"]):
            code, out, _ = _run(capsys, "ledger", "--store", str(store), *argv)
            assert journal.read_bytes() == torn, argv
            if argv == ["verify"]:
                assert (code, out) == (
                    1, f"{journal} ends in a torn line of 14 bytes, "
                    "not applied\n")
            else:
                assert code == 0, argv
        assert _run(capsys, "ledger", "--store", str(store), "transfer", eid,
                    "--to", "bob", "--as", "alice")[0] == 0
        lines = journal.read_bytes().split(b"\n")
        assert b"\n".join(lines[:-2]) + b"\n" == whole
        assert json.loads(lines[-2])["kind"] == "transfer"
        assert lines[-1] == b""
        assert _run(capsys, "ledger", "--store", str(store), "verify") \
            == (0, "", "")

    @pytest.mark.parametrize("argv", [
        ["show", "ab" * 32], ["acquire", "ab" * 32, "--as", "alice"],
        ["verify"]], ids=lambda argv: argv[0])
    def test_read_only_commands_create_no_store(self, argv, tmp_path, capsys):
        store = tmp_path / "s"
        code, out, err = _run(capsys, "ledger", "--store", str(store), *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: StoreError: {store / LEDGER} is missing: "
                       f"{store} holds no custody store to read\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["create", "--file", "blob", "--as", "al\udcffce"],
        ["create", "--file", "blob", "--as", "alice", "--desc", "caf\udcff"],
        ["transfer", "ab" * 32, "--to", "b\udcffb", "--as", "alice"],
        ["discard", "ab" * 32, "--as", "al\udcffce"],
        ["acquire", "ab" * 32, "--as", "al\udcffce"],
    ], ids=["create-as", "create-desc", "transfer-to", "discard-as",
            "acquire-as"])
    def test_undecodable_argument_exits_2_and_creates_no_store(
            self, argv, tmp_path, capsys):
        """An argument with bytes that are not UTF-8 is refused before the
        store is opened, so a create makes no store directory."""
        (tmp_path / "blob").write_bytes(b"evidence")
        store = tmp_path / "s"
        with contextlib.chdir(tmp_path):
            code, out, err = _run(capsys, "ledger", "--store", str(store),
                                  *argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error: bad ") and "\\udcff" in err
        assert err.count("\n") == 1
        assert not store.exists()

    def test_journaled_surrogate_description_is_escaped_and_verified(
            self, tmp_path, capsys):
        """A description with a lone surrogate, as an older version
        journaled it from an undecodable --desc: show prints it with a
        backslash escape and exits 0, and verify lists the entry."""
        store, blob = tmp_path / "s", tmp_path / "e.bin"
        blob.write_bytes(b"evidence")
        code, out, _ = _run(capsys, "ledger", "--store", str(store), "create",
                            "--file", str(blob), "--as", "alice",
                            "--desc", "cafe")
        assert code == 0
        eid = out.strip()
        journal = store / LEDGER
        record = json.loads(journal.read_text())
        record["description"] = "caf\udcff"
        journal.write_text(json.dumps(record) + "\n")
        assert "caf\\udcff" in journal.read_text()
        code, out, err = _run(capsys, "ledger", "--store", str(store),
                              "show", eid)
        assert (code, err) == (0, "")
        assert "description: caf\\udcff\n" in out
        assert _run(capsys, "ledger", "--store", str(store), "verify") == (
            1, f"{eid} has a description that is not UTF-8 text\n", "")

    def test_readers_share_the_lock_and_a_writer_waits(self, tmp_path,
                                                       capsys):
        store, blob = tmp_path / "s", tmp_path / "e.bin"
        blob.write_bytes(b"evidence")
        eid = self._create(capsys, store, blob)

        def start(timeout, *argv):
            thread = threading.Thread(target=main, args=(
                ["ledger", "--store", str(store), *argv],))
            thread.start()
            thread.join(timeout)
            return thread

        with open(store / "lock") as held:
            fcntl.flock(held, fcntl.LOCK_SH)   # another reader holds it
            reader = start(10, "verify")
            writer = start(0.5, "transfer", eid, "--to", "bob", "--as",
                           "alice")
            finished = (not reader.is_alive(), not writer.is_alive())
        reader.join()
        writer.join()
        assert finished == (True, False)
        assert capsys.readouterr().out == "transferred\n"

    def test_user_files_in_the_store_survive(self, tmp_path, capsys):
        store = tmp_path / "s"
        store.mkdir()
        source = store / "disk.img.bin"
        source.write_bytes(b"original evidence")
        eid = self._create(capsys, store, source)
        copy = store / "copy.bin"
        assert _run(capsys, "ledger", "--store", str(store), "acquire", eid,
                    "--as", "alice", "--out", str(copy))[0] == 0
        self._create(capsys, store, source, who="bob")
        assert source.read_bytes() == copy.read_bytes() == b"original evidence"
        assert _run(capsys, "ledger", "--store", str(store), "verify") \
            == (0, "", "")

    # pre-journal: the whole ledger that versions before ledger.jsonl
    # rewrote on every command; it is never read, and never deleted
    @pytest.mark.parametrize("pre_journal", [False, True],
                             ids=["no-ledger", "pre-journal-ledger-json"])
    def test_missing_journal_exits_1_and_keeps_blobs(self, pre_journal,
                                                     tmp_path, capsys):
        store, blob = tmp_path / "s", tmp_path / "e.bin"
        blob.write_bytes(b"x")
        eid = self._create(capsys, store, blob)
        (store / "ledger.jsonl").unlink()
        legacy = store / "ledger.json"
        if pre_journal:
            legacy.write_text(json.dumps({"entries": [{
                "id": eid, "description": "", "creator": "ab" * 20,
                "owner": "ab" * 20, "taddr": ["ab" * 20], "ttime": [1.0]}]}))
        for argv in (["show", eid], ["acquire", eid, "--as", "alice"],
                     ["transfer", eid, "--to", "bob", "--as", "alice"],
                     ["discard", eid, "--as", "alice"],
                     ["create", "--file", str(blob), "--as", "alice"],
                     ["verify"]):
            code, _, err = _run(capsys, "ledger", "--store", str(store), *argv)
            assert code == 1, argv
            assert "StoreError" in err and "ledger.jsonl is missing" in err
        assert (store / f"{eid}.bin").exists()
        assert [e.hex for e in EvidenceStore(store).ids()] == [eid]
        assert legacy.exists() == pre_journal
        assert not (store / "ledger.jsonl").exists()

    @pytest.mark.parametrize("command", ["show", "acquire", "transfer",
                                         "discard", "create", "verify"])
    def test_older_store_format_exits_1_and_keeps_files(self, command,
                                                        tmp_path, capsys):
        # the older format: blob files without their nonce, and index.tsv
        # naming each blob's nonce and size
        store, blob = tmp_path / "s", tmp_path / "e.bin"
        blob.write_bytes(b"old evidence")
        eid = self._create(capsys, store, blob)
        orphan = self._create(capsys, store, blob)
        lines = (store / "ledger.jsonl").read_text().splitlines(keepends=True)
        (store / "ledger.jsonl").write_text(lines[0])
        index = ""
        for name in (eid, orphan):
            data = (store / f"{name}.bin").read_bytes()
            (store / f"{name}.bin").write_bytes(data[:-8])
            nonce = int.from_bytes(data[-8:], "big")
            index += f"{name}\t{nonce}\t{len(data) - 8}\n"
        (store / "index.tsv").write_text(index)
        before = {path.name: path.read_bytes() for path in store.iterdir()}
        args = {"show": ["show", eid],
                "acquire": ["acquire", eid, "--as", "alice"],
                "transfer": ["transfer", eid, "--to", "bob", "--as", "alice"],
                "discard": ["discard", eid, "--as", "alice"],
                "create": ["create", "--file", str(blob), "--as", "alice"],
                "verify": ["verify"]}[command]
        code, out, err = _run(capsys, "ledger", "--store", str(store), *args)
        assert (code, out) == (1, "")
        assert "StoreError" in err and str(store / "index.tsv") in err
        assert {path.name: path.read_bytes() for path in store.iterdir()} \
            == before

    @pytest.mark.parametrize("damage", ["tamper", "lose-file", "lose-entry"])
    def test_verify_reports_each_problem(self, damage, tmp_path, capsys):
        store, blob = tmp_path / "s", tmp_path / "e.bin"
        blob.write_bytes(b"kept")
        self._create(capsys, store, blob)
        blob.write_bytes(b"damaged")
        eid = self._create(capsys, store, blob)
        assert _run(capsys, "ledger", "--store", str(store), "verify") \
            == (0, "", "")
        if damage == "tamper":
            (store / f"{eid}.bin").write_bytes(b"doctored")
            expected = "no longer match their id"
        elif damage == "lose-file":
            (store / f"{eid}.bin").unlink()
            expected = "is on the ledger but not in the store"
        else:
            # the ledger loses the create's line, which is its last
            ledger = store / "ledger.jsonl"
            lines = ledger.read_text().splitlines(keepends=True)
            ledger.write_text("".join(lines[:-1]))
            expected = "is in the store but not on the ledger"
        code, out, _ = _run(capsys, "ledger", "--store", str(store), "verify")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert eid in out and expected in out

    def test_verify_lines_come_by_kind_then_by_id(self, tmp_path, capsys):
        """Blobs that no longer match, then ids only in the store, then ids
        only on the ledger; by id within each kind."""
        store, blob = tmp_path / "s", tmp_path / "e.bin"
        ids = []
        for i in range(5):
            blob.write_bytes(b"evidence %d" % i)
            ids.append(self._create(capsys, store, blob))
        # roles by id order, so that lines ordered by id alone read otherwise
        ids.sort()
        missing, damaged, unlisted = ids[0], [ids[1], ids[3]], ids[2]
        for eid in damaged:
            (store / f"{eid}.bin").write_bytes(b"doctored")
        (store / f"{missing}.bin").unlink()
        ledger = store / "ledger.jsonl"
        ledger.write_text("".join(
            line for line in ledger.read_text().splitlines(keepends=True)
            if unlisted not in line))
        assert _run(capsys, "ledger", "--store", str(store), "verify") == (
            1, "".join([f"stored bytes for {eid} no longer match their id\n"
                        for eid in damaged] + [
                f"{unlisted} is in the store but not on the ledger\n",
                f"{missing} is on the ledger but not in the store\n"]), "")

    @given(damage=st.lists(
        st.tuples(st.sampled_from([0, 1, 2, "ledger"]),
                  st.sampled_from(_DAMAGE), st.integers(0, 2 ** 16),
                  st.binary(min_size=1, max_size=12)),
        min_size=1, max_size=4, unique_by=lambda damage: damage[0]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_damaged_store(self, damage, capsys):
        """Damage done after the writes, to blob files and to the ledger.

        Each command exits 0 or 1 with no traceback, acquiring a damaged
        blob exits 1 with one error line, and verify names every damaged
        blob that the ledger or the directory still knows of.
        """
        owners = ("alice", "bob", "carol")
        blobs = [b"evidence %d" % i for i in range(3)]
        with tempfile.TemporaryDirectory() as tmp:
            store, out = Path(tmp) / "s", Path(tmp) / "out.bin"
            with open_custody(store) as frontend:
                ids = [frontend.submit_evidence(Address.from_label(creator),
                                                blob, "d")
                       for creator, blob in zip(("alice", "alice", "carol"),
                                                blobs)]
                frontend.transfer_evidence(Address.from_label("alice"), ids[1],
                                           Address.from_label("bob"))
            ids = [eid.hex for eid in ids]
            for target, kind, pick, extra in damage:
                name = LEDGER if target == "ledger" else f"{ids[target]}.bin"
                _damage(store / name, kind, pick, extra)
            damaged = {ids[t] for t, *_ in damage if t != "ledger"}
            ledger_intact = all(t != "ledger" for t, *_ in damage)
            argv = ("ledger", "--store", str(store))
            for eid, owner, blob in zip(ids, owners, blobs):
                code, _, err = _run(capsys, *argv, "acquire", eid,
                                    "--as", owner, "--out", str(out))
                assert code in (0, 1) and "Traceback" not in err
                if eid in damaged:
                    assert code == 1 and err.startswith("error: ")
                    assert err.count("\n") == 1
                elif ledger_intact:
                    assert code == 0 and out.read_bytes() == blob
                code, _, err = _run(capsys, *argv, "show", eid)
                assert code in (0, 1) and "Traceback" not in err
                assert code == 0 or not ledger_intact
            code, out_text, err = _run(capsys, *argv, "verify")
            if err:
                # the ledger itself cannot be read
                assert (code, out_text) == (1, "") and not ledger_intact
                assert err.startswith("error: ") and err.count("\n") == 1
                return
            named = set(re.findall(r"[0-9a-f]{64}", out_text))
            assert code == (1 if out_text else 0)
            known = {eid for eid in damaged
                     if ledger_intact or (store / f"{eid}.bin").exists()}
            assert known <= named
            if ledger_intact:
                assert named == damaged


# -- argv fuzz -----------------------------------------------------------

# hand-picked hostile values; drawn text adds the rest. Python passes an
# argument's undecodable bytes as lone surrogates, which drawn text never
# holds: "al\udcffce" is the argument al, byte 0xff, ce.
_HOSTILE = ("", " ", "-1", "0", "1", "3", "1_0", "\u0663", "0x1f", "nan",
            "inf", "-inf", "1e-300", "1e308", "\u00e9", "x" * 300,
            " 3 : silent", "1:equivocate,2:silent", "9:silent", "rate:3",
            "rate:-1", "ramp:0:900000", "ramp:x", "seed=0", "period=",
            "1,2,x", "alice", "00" * 32, "al\udcffce")
# values most options accept, so a draw also gets past the argument checks
_PLAIN = ("1", "2", "5", "0.5", "rate:2", "ramp:0:500000", "seed=1", "alice",
          "ab" * 32)
# every Path option draws one of these, relative to a fresh directory;
# "" is the directory itself
_PATHS = ("", "missing", "dir", "blob", "cfg", "dir/new")


def _small_or_not_a_number(text: str) -> bool:
    """Keeps drawn text off counts in the thousands (validators, periods,
    samples), which make one run take minutes."""
    try:
        value = abs(float(text))
    except ValueError:
        return True
    return not math.isfinite(value) or value == 0 or 0.01 <= value <= 16


_TEXT = st.one_of(
    st.sampled_from(_HOSTILE),
    st.sampled_from(_PLAIN),
    st.text(st.characters(blacklist_characters="\x00"), max_size=10)
    .filter(_small_or_not_a_number))
_CONFIG_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.tuples(st.sampled_from(sorted(_FIELD_PARSERS)), _TEXT),
             max_size=4).map(lambda kv: "".join(
                 f"{k.replace('_', '-')} = {v}\n" for k, v in kv)
                 .encode("utf-8", "surrogateescape")))


@st.composite
def _argv(draw, parser=None):
    """Words for parser: its options and positionals with drawn values,
    then one of its subcommands and that subcommand's words."""
    parser = parser or _build_parser()
    parser.format_usage()   # a parser adds its arguments when first used
    words, commands = [], None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands = action.choices
            continue
        if action.nargs == 0:       # --help
            continue
        value = st.sampled_from(_PATHS) if action.type is Path else _TEXT
        if not action.option_strings:
            words.append(draw(value))
        elif action.required or draw(st.integers(0, 3)) == 0:
            words += [action.option_strings[-1], draw(value)]
    if commands:
        name = draw(st.sampled_from(sorted(commands)))
        words += [name] + draw(_argv(commands[name]))
    return words


def _runs_for_minutes(argv) -> bool:
    """A sim run too slow for a fuzz example: with a round timeout far
    below the period, each height runs out rounds until the doubling timer
    outgrows a round trip, about a thousand of them from 1e-300 s. Every
    run this skips ends; it only keeps the fuzz test short."""
    if argv[0] != "sim":
        return False
    try:
        cfg = cli._config_from_args(_build_parser().parse_args(argv))
    except (SystemExit, ConfigError, OSError):
        return False    # main exits before the simulator starts
    return cfg.effective_round_timeout < cfg.period / 4


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@example(argv=["sim", "run", "--periods", "2", "--config", "cfg"],
         config=b"periods = 2\n\xff\n")
@example(argv=["analyze", "table2", "--period", "1e-300"], config=b"")
@example(argv=["sim", "run", "--period", "1e308", "--periods", "3"], config=b"")
@example(argv=["analyze", "plan-gas-limit", "--max-gas-rate", "1",
               "--avg-gas-rate", "1", "--max-consensus-latency", "1e308"],
         config=b"")
@example(argv=["ledger", "--store", "dir/new", "create", "--file", "blob",
               "--as", "al\udcffce"], config=b"")
@given(argv=_argv(), config=_CONFIG_BYTES)
def test_any_argv_exits_0_1_or_2(argv, config, capsys):
    """Any argv the parser can be walked to, with hostile values and a
    config file of arbitrary bytes, exits 0, 1 or 2 with no traceback."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("dir").mkdir()
        Path("blob").write_bytes(b"evidence")
        Path("cfg").write_bytes(config)
        assume(not _runs_for_minutes(argv))
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: 2 on a usage error
            code = exc.code
        captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err + captured.out
