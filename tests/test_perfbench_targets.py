"""Every name the perfbench tracer wraps must exist in custodysim.

The tracer skips a missing name and only reports it at run time, so a
renamed or deleted function would silently drop out of the per-layer
metrics. This reads perfbench/tracing.py's TARGETS without installing
anything.
"""
import importlib
import importlib.util
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
