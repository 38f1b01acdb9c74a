"""The parameter objects and line-oriented ``key = value`` config files.

``ChainParams`` (block period, gas limit, link bandwidth) is read by the
simulator and the closed-form models alike; ``ExperimentConfig`` adds
the settings of one run. Both validate on construction. Header, genesis
and message sizes are constants in ``blocks`` and ``consensus``.

Config-file keys are the ``ExperimentConfig`` fields and mirror the CLI
flag names with dashes replaced by underscores; explicit CLI flags
always win over file values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .consensus import max_faulty


class ConfigError(ValueError):
    pass


SILENT = "silent"
EQUIVOCATE = "equivocate"
FAULT_KINDS = (SILENT, EQUIVOCATE)   # the Byzantine behaviours a run can inject
MAX_DRAIN_PERIODS = 1000   # most periods a run drains for after the last issue


def _require_finite(params, *names: str) -> None:
    for name in names:
        value = getattr(params, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, not {value!r}")


@dataclass(frozen=True)
class ChainParams:
    period: float = 300.0            # block period T, seconds
    gas_limit: int = 805020          # block gas limit G
    bandwidth: float = 1_000_000.0   # slowest-link bytes/second

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _require_finite(self, "period", "bandwidth")
        if self.period <= 0:
            raise ConfigError("period must be positive")
        if self.gas_limit < 0:
            raise ConfigError("gas limit cannot be negative")
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")


@dataclass(frozen=True)
class ExperimentConfig(ChainParams):
    validators: int = 4
    byzantine: tuple = ()  # ((index, kind in FAULT_KINDS), ...)
    base_delay: float = 0.0
    jitter: float = 0.0
    round_timeout: Optional[float] = None  # default: 2 * period
    seed: int = 0
    periods: int = 100
    drain: bool = True
    reject_invalid_at_mempool: bool = False

    def validate(self) -> None:
        super().validate()
        _require_finite(self, "base_delay", "jitter", "round_timeout")
        if self.periods <= 0:
            raise ConfigError("duration must be positive")
        if self.validators < 1:
            raise ConfigError("need at least one validator")
        if self.base_delay < 0:
            raise ConfigError("base delay cannot be negative")
        if self.jitter < 0:
            raise ConfigError("jitter cannot be negative")
        if self.round_timeout is not None and self.round_timeout <= 0:
            raise ConfigError("round timeout must be positive")
        seen = set()
        for idx, kind in self.byzantine:
            if not 0 <= idx < self.validators:
                raise ConfigError(f"byzantine index {idx} out of range")
            if idx in seen:
                raise ConfigError(f"byzantine index {idx} given twice")
            seen.add(idx)
            if kind not in FAULT_KINDS:
                raise ConfigError(f"unknown byzantine behavior {kind!r}")
        f = max_faulty(self.validators)
        if len(self.byzantine) > f:
            raise ConfigError(
                f"{len(self.byzantine)} faulty validators exceeds the "
                f"tolerated f={f} for n={self.validators}")
        # the simulated clock must stay finite up to the last timer; a round
        # timer is twice one that ran out during the run, so below 2 * horizon
        if not math.isfinite(self.effective_round_timeout):
            raise ConfigError(
                f"the default round timeout 2 * {self.period} is not finite")
        try:
            horizon = self.period * (self.periods + MAX_DRAIN_PERIODS + 2)
        except OverflowError:   # periods too large for a float
            horizon = math.inf
        if not math.isfinite(2 * horizon):
            raise ConfigError(
                f"{self.periods} periods of {self.period} s, plus up to "
                f"{MAX_DRAIN_PERIODS} drain periods, overflow the clock")

    @property
    def effective_round_timeout(self) -> float:
        return self.round_timeout or 2.0 * self.period


def finite_float(text: str) -> float:
    """A float other than nan and +-inf, which no setting can take."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, not {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, not {text!r}")


def parse_byzantine(spec: str) -> tuple:
    """Parse ``IDX:KIND[,IDX:KIND...]``; ExperimentConfig checks each KIND."""
    if not spec.strip():
        return ()
    out = []
    for part in spec.split(","):
        idx, kind = part.split(":")
        out.append((int(idx), kind.strip()))
    return tuple(out)


_FIELD_PARSERS = {
    "period": finite_float,
    "gas_limit": int,
    "validators": int,
    "bandwidth": finite_float,
    "base_delay": finite_float,
    "jitter": finite_float,
    "round_timeout": finite_float,
    "seed": int,
    "periods": int,
    "drain": _parse_bool,
    "reject_invalid_at_mempool": _parse_bool,
    "byzantine": parse_byzantine,
}


def parse_value(key: str, text: str):
    """The value of setting ``key`` spelled ``text`` in a config file, a
    ``sim`` flag or a sweep; ranges are ExperimentConfig.validate's job."""
    if key not in _FIELD_PARSERS:
        raise ConfigError(f"unknown key {key!r}")
    try:
        return _FIELD_PARSERS[key](text)
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {text!r}") from err


def read_config_file(path: Path) -> dict:
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from err
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        try:
            values[key] = parse_value(key, value)
        except ConfigError as err:
            raise ConfigError(f"{path}:{lineno}: {err}") from err
    return values
