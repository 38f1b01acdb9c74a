"""perfbench must still run against custodysim.

The tracer skips a missing name and only reports it at run time, so a
renamed or deleted function would silently drop out of the per-layer
metrics. This reads perfbench/tracing.py's TARGETS without installing
anything. A deleted name that a workload calls would only show as a
benchmark run that fails, so each workload also runs once, shrunk.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# wrapped names the package no longer has; the tracer lists them as absent
KNOWN_ABSENT = {"netsim.Scheduler.run_until_idle", "netsim.Network.send",
                "store.EvidenceStore.get"}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TARGETS]


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(f"custodysim.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


@pytest.mark.parametrize("module,attr", _targets())
def test_target_resolves_unless_known_absent(module, attr):
    assert _resolves(module, attr) == (f"{module}.{attr}" not in KNOWN_ABSENT)


def test_known_absent_names_are_targets():
    assert KNOWN_ABSENT <= {f"{m}.{a}" for m, a in _targets()}


# per-workload sizes small enough for tier-1; ukp has no size to shrink
SMOKE_SIZES = {"sim-backlog": {"periods": 30}, "sim-wide": {"periods": 30},
               "custody": {"entries": 30}}


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, imported as perfbench/run.py imports it.

    The ukp workload imports custodysim afresh, so every module in
    sys.modules is put back afterwards for the tests that follow.
    """
    saved = dict(sys.modules)
    monkeypatch.syspath_prepend(str(TRACING.parent))
    yield importlib.import_module("workloads")
    for name in set(sys.modules) - set(saved):
        del sys.modules[name]
    sys.modules.update(saved)


def test_every_workload_runs_once_with_no_failed_operation(
        perfbench_workloads, tmp_path):
    workloads = perfbench_workloads.WORKLOADS
    assert set(SMOKE_SIZES) <= set(workloads)
    for name, workload in workloads.items():
        bench = workload(1, tmp_path / name)
        for attr, value in SMOKE_SIZES.get(name, {}).items():
            setattr(bench, attr, value)
        bench.setup()
        rep = bench.run()
        assert rep.attempted > 0 and rep.failed == 0, name
        assert bench.finish()[1] == 0, name
