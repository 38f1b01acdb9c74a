"""Deterministic custody-ledger blockchain simulator and analytics.

Import submodules by name (``from custodysim import simulation``): the
root loads none of them, so each CLI command loads only what it runs."""

__version__ = "0.1.0"
