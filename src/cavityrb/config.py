"""Flat key/value run configuration with a versioned schema.

Unknown keys are hard errors: a silently ignored typo in a tolerance key is
the most dangerous failure mode of a long computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .eigensolve import DEFAULT_MULT_TOL
from .errors import ConfigError
from .geometry import FAMILIES
from .greedy import RESIDUAL_FORMS, recommended_n_init
from .problem import GAUGES
from .tracking import SYSTEMS

SCHEMA_VERSION = 1


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
    null_tol: float = 1e-8
    residual_form: str = "mass"
    repetitions: int = 10

    def resolved_n_init(self) -> int:
        return self.N_init or recommended_n_init(self.K, self.tau)

    def validate(self) -> "RunConfig":
        if self.schema != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema {self.schema} not supported (expected {SCHEMA_VERSION})"
            )
        positive_ints = (
            "mesh_n", "K", "N_pod", "N_train", "N_test", "N_max",
            "max_halvings", "seed",
        )
        for name in positive_ints:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        for name, kind in _FIELD_TYPES.items():
            if kind == "float" and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.repetitions < 3:
            raise ConfigError("repetitions must be at least 3")
        if self.tau < 0 or self.N_init < 0:
            raise ConfigError("tau and N_init must be non-negative")
        n_init = self.resolved_n_init()
        if self.N_max < n_init:
            raise ConfigError(f"N_max is below the initial basis size {n_init}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}")
        if self.gauge not in GAUGES:
            raise ConfigError(f"gauge must be one of {GAUGES}")
        if self.track_system not in SYSTEMS:
            raise ConfigError(f"track_system must be one of {SYSTEMS}")
        if self.residual_form not in RESIDUAL_FORMS:
            raise ConfigError(f"residual_form must be one of {RESIDUAL_FORMS}")
        for name in ("tol", "delta_mult", "null_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 < self.track_h <= 1.0):
            raise ConfigError("track_h must lie in (0, 1]")
        if not (0.0 < self.rho_min <= 1.0):
            raise ConfigError("rho_min must lie in (0, 1]")
        if self.stretch_a1 <= 0:
            raise ConfigError("stretch_a1 must be positive")
        if abs(self.bump_beta) >= 1.0:
            raise ConfigError("bump_beta must satisfy |beta| < 1")
        return self


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
    return RunConfig(**values).validate()


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
    return RunConfig(**values).validate()
