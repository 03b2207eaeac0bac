"""Flat key/value run configuration with a versioned schema.

Unknown keys are hard errors: a silently ignored typo in a tolerance key is
the most dangerous failure mode of a long computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .eigensolve import DEFAULT_MULT_TOL, DEFAULT_NULL_TOL
from .errors import ConfigError, require
from .geometry import FAMILIES
from .greedy import GreedyConfig, recommended_n_init
from .problem import GAUGES
from .tracking import TrackingConfig

SCHEMA_VERSION = 1

# keys that must be positive integers
_COUNTS = ("mesh_n", "N_pod", "N_train", "N_test", "seed")
# sub-config fields that a run config names otherwise
_RUN_KEYS = {"h": "track_h", "system": "track_system"}


@dataclass
class RunConfig:
    schema: int = SCHEMA_VERSION
    mesh_n: int = 16
    family: str = "affine-stretch"
    stretch_a1: float = 2.5
    bump_beta: float = 0.3
    gauge: str = "tree-cotree"
    K: int = 5
    tau: int = 2
    N_init: int = 0           # 0 selects ceil(1.5 (K + tau))
    N_pod: int = 20
    N_train: int = 100
    N_test: int = 200
    tol: float = 1e-8
    N_max: int = 150
    track_h: float = 0.05
    track_system: str = "reduced"
    rho_min: float = 0.8
    max_halvings: int = 4
    seed: int = 7
    delta_mult: float = DEFAULT_MULT_TOL
    null_tol: float = DEFAULT_NULL_TOL
    residual_form: str = "mass"
    repetitions: int = 10

    def __post_init__(self):
        """Check the keys this class owns; its sub-configs check the rest."""
        if self.schema != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema {self.schema} not supported (expected {SCHEMA_VERSION})"
            )
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if name in _COUNTS:
                require(value >= 1, name, "must be a positive integer", value)
            if kind == "float":
                require(math.isfinite(value), name, "must be finite", value)
        if self.repetitions < 3:
            raise ConfigError("repetitions must be at least 3")
        require(self.mesh_n >= 2, "mesh_n", "must be at least 2", self.mesh_n)
        require(self.N_init >= 0, "N_init", "must be non-negative", self.N_init)
        require(self.null_tol > 0, "null_tol", "must be positive", self.null_tol)
        require(self.stretch_a1 > 0, "stretch_a1", "must be positive", self.stretch_a1)
        require(
            self.family in FAMILIES, "family", f"must be one of {FAMILIES}", self.family
        )
        require(
            abs(self.bump_beta) < 1, "bump_beta", "must satisfy |beta| < 1", self.bump_beta
        )
        require(self.gauge in GAUGES, "gauge", f"must be one of {GAUGES}", self.gauge)
        try:
            self.greedy_config()
            self.tracking_config(self.track_system)
        except ConfigError as exc:
            if exc.key not in _RUN_KEYS:
                raise
            raise ConfigError(_RUN_KEYS[exc.key] + str(exc)[len(exc.key):]) from None
        n_init = self.resolved_n_init()
        if self.N_max < n_init:
            raise ConfigError(f"N_max is below the initial basis size {n_init}")

    def resolved_n_init(self) -> int:
        return self.N_init or recommended_n_init(self.K, self.tau)

    def greedy_config(self) -> GreedyConfig:
        """Greedy settings of this run."""
        return GreedyConfig(
            K=self.K, tau=self.tau, xi_train=np.linspace(0.0, 1.0, self.N_train),
            tol=self.tol, N_max=self.N_max, delta_mult=self.delta_mult,
            residual_form=self.residual_form,
        )

    def tracking_config(self, system: str) -> TrackingConfig:
        """Tracking settings of this run on the given system variant."""
        return TrackingConfig(
            K=self.K, h=self.track_h, system=system, rho_min=self.rho_min,
            max_halvings=self.max_halvings, overtrack=self.tau,
            delta_mult=self.delta_mult,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {name!r}: {raw!r}") from exc
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; '#' starts a comment; unknown keys error."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate configuration key {key!r}")
        values[key] = _coerce(key, raw)
    if "schema" not in values:
        raise ConfigError("config is missing the schema version header")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}


# JSON value types each field accepts; bool is excluded by exact type match.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config entry must map keys to values")
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown configuration keys {sorted(unknown)}")
    values = {}
    for name, value in data.items():
        kind = _FIELD_TYPES[name]
        if type(value) not in _JSON_TYPES[kind]:
            raise ConfigError(f"value for {name!r} must be {kind}, got {value!r}")
        values[name] = float(value) if kind == "float" else value
    return RunConfig(**values)
