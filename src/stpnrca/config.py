"""The run configuration: one set of hyperparameters for the pattern network,
the energy model, the a3 classifier and the VAR baseline, and its text format."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import reprlib
from dataclasses import dataclass

from .errors import UsageError

CONFIG_ENV_VAR = "STPNRCA_CONFIG"
_MAX_DEPTH = 63  # alphabet_size >= 2: deeper states number 2**64 or more


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline, with reference-experiment defaults.

    Readable from a ``key = value`` text file (unknown keys are rejected)
    with command-line overrides applied on top. One rule types every field,
    whatever built the config: text is parsed, an integer for a float key
    becomes that float, a numpy integer an int, a sequence a tuple. A bool,
    a float for an int key, or an out-of-range value raises UsageError.
    """

    alphabet_size: int = 9
    depth: int = 1
    lag: int = 1
    window_length: int = 1200
    stride: int = 0  # 0 -> window_length
    threshold_quantile: float = 0.05
    partition_method: str = "mep"
    rbm_hidden: int = 64
    rbm_epochs: int = 200
    rbm_learning_rate: float = 0.05
    rbm_batch_size: int = 32
    detector_kappa: float = 1.0
    a3_hidden: tuple[int, ...] = (256, 256)
    a3_dropout: float = 0.5
    a3_learning_rate: float = 0.1
    a3_momentum: float = 0.9
    a3_batch_size: int = 128
    a3_epochs: int = 200
    a3_patience: int = 10
    a3_flip_orders: tuple[int, ...] = (1, 2, 3, 4)
    a3_samples_per_order: int = 20
    a3_cutoff: float = 0.5
    var_lag: int = 1
    var_eta: float = 0.4
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _coerce(getattr(self, f.name), f.type, f.name))
        at_least = {
            "alphabet_size": 2, "depth": 1, "lag": 1, "stride": 0,
            "rbm_hidden": 1, "rbm_epochs": 0, "rbm_batch_size": 1,
            "a3_batch_size": 1, "a3_epochs": 0, "a3_patience": 1,
            "a3_samples_per_order": 1, "var_lag": 1, "seed": 0,
        }
        for key, low in at_least.items():
            if getattr(self, key) < low:
                raise UsageError(f"config key {key!r} must be >= {low}")
        if self.depth > _MAX_DEPTH:  # refused before any power of the alphabet size
            raise UsageError(f"alphabet_size {self.alphabet_size} and depth {self.depth} need "
                             f"at least 2**64 states; depth must be <= {_MAX_DEPTH}")
        if self.window_length < max(self.alphabet_size, self.depth + self.lag):
            raise UsageError("config key 'window_length' must be >= alphabet_size and depth + lag")
        if not 0.0 <= self.threshold_quantile < 1.0:
            raise UsageError("config key 'threshold_quantile' must lie in [0, 1)")
        if min(self.a3_hidden, default=1) < 1 or min(self.a3_flip_orders, default=1) < 1:
            raise UsageError("a3_hidden widths and a3_flip_orders must be >= 1")
        if not self.a3_flip_orders:  # a classifier trained on no flips flags nothing
            raise UsageError("config key 'a3_flip_orders' must hold at least one order")
        if not 0.0 <= self.a3_dropout < 1.0:
            raise UsageError("config key 'a3_dropout' must lie in [0, 1)")
        if not 0.0 < self.a3_cutoff < 1.0:
            raise UsageError("config key 'a3_cutoff' must lie in (0, 1)")
        if self.partition_method.lower() not in ("mep", "up"):
            raise UsageError("config key 'partition_method' must be 'mep' or 'up'")
        for key in ("rbm_learning_rate", "a3_learning_rate"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise UsageError(f"config key {key!r} must be finite and > 0")
        if not 0.0 <= self.detector_kappa < math.inf:
            raise UsageError("config key 'detector_kappa' must be finite and >= 0")
        for key in ("a3_momentum", "var_eta"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise UsageError(f"config key {key!r} must lie in [0, 1)")

    def fingerprint(self) -> str:
        doc = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    @classmethod
    def from_sources(
        cls, path: str | None = None, overrides: dict | None = None
    ) -> "RunConfig":
        """Defaults, then an optional config file, then explicit overrides."""
        values: dict = {}
        if path is None:
            path = os.environ.get(CONFIG_ENV_VAR) or None
        if path:
            values.update(_parse_config_file(path))
        values.update(overrides or {})
        return _config_from_values(values)


def _config_from_values(values: dict) -> RunConfig:
    """RunConfig from text values (config file, --set) or JSON ones (a bundle header);
    unknown keys and values of the wrong type are a UsageError."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for key in values:
        if key not in fields:
            raise UsageError(f"unknown config key {key!r}")
    return RunConfig(**values)


def _parse_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_NUMBER_TYPES = {"int": numbers.Integral, "float": numbers.Real}


def _coerce(raw, annotation: str, key: str):
    try:
        if annotation.startswith("tuple"):
            items = raw.replace(",", " ").split() if isinstance(raw, str) else list(raw)
            return tuple(_coerce(x, "int", key) for x in items)
        if annotation in _NUMBER_TYPES:
            if isinstance(raw, (str, _NUMBER_TYPES[annotation])) and not isinstance(raw, bool):
                # text is parsed; an integer for a float key becomes the float
                # it names, so the config and its fingerprint equal a --set one
                return int(raw) if annotation == "int" else float(raw)
        elif isinstance(raw, str):
            return raw
    except (OverflowError, TypeError, ValueError):  # float(10**400) overflows
        pass
    raise UsageError(f"config key {key!r}: cannot parse {reprlib.repr(raw)}")  # cut short if long
