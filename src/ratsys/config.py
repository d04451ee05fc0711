"""Experiment configuration: one YAML document fully determines a run.

Top-level sections: ``system`` (k plus the kernel, either as a matrix
with optional denominator vectors or in scalar two-equation form),
``run`` (horizon, trials, init_max), ``init`` (an explicit history or a
constructor directive), ``tolerances``, ``sweep`` (grid of kernel
multipliers), and ``verify`` (optional expected-regime override).
Random draws use numpy's seeded PCG64 generator, so a config plus its
``rng_seed`` reproduces a run byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import yaml

from .analysis import Tolerances
from .linalg import RHO_TOL
from .model import InitialConditions, SystemSpec, from_scalar_params, validate

MODES = ("tetrachotomy", "trichotomy")
SEED_DIRECTIVES = ("periodic", "period2k", "unbounded", "explicit")


class ConfigError(ValueError):
    """A config file is missing, malformed, or inconsistent."""


@dataclass
class SweepGrid:
    c: List[float]
    denom_scale: List[float] = field(default_factory=lambda: [1.0])


@dataclass
class RunConfig:
    spec: SystemSpec
    mode: Optional[str] = None
    rng_seed: int = 0
    horizon: int = 1000
    trials: int = 20
    init_max: float = 10.0
    tolerances: Tolerances = field(default_factory=Tolerances)
    rho_tol: float = RHO_TOL
    seed_directive: Optional[str] = None
    seed_a: float = 1.0
    seed_b: float = 0.0
    explicit_history: Optional[np.ndarray] = None
    sweep: Optional[SweepGrid] = None
    expect_regime: Optional[str] = None


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise ConfigError(f"{where}.{key} is required")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} must be of type {kind.__name__}")
    return value


def _optional(mapping, key, kind, default, where):
    if key not in mapping:
        return default
    return _require(mapping, key, kind, where)


def _parse_system(doc) -> SystemSpec:
    system = doc.get("system")
    if not isinstance(system, dict):
        raise ConfigError("system section is required")
    k = _require(system, "k", int, "system")
    if "scalar" in system:
        sc = system["scalar"]
        if not isinstance(sc, dict):
            raise ConfigError("system.scalar must be a mapping")
        try:
            return from_scalar_params(
                k,
                _require(sc, "beta", float, "system.scalar"),
                _require(sc, "gamma", float, "system.scalar"),
                _require(sc, "delta", float, "system.scalar"),
                _require(sc, "epsilon", float, "system.scalar"),
                _optional(sc, "B", list, [0.0] * (k - 1), "system.scalar"),
                _optional(sc, "C", list, [0.0] * (k - 1), "system.scalar"),
                _optional(sc, "D", list, [0.0] * (k - 1), "system.scalar"),
                _optional(sc, "E", list, [0.0] * (k - 1), "system.scalar"),
            )
        except ValueError as exc:
            raise ConfigError(f"system.scalar: {exc}") from exc
    a_rows = _require(system, "A", list, "system")
    a = np.asarray(a_rows, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError("system.A must be a square matrix given as nested rows")
    m = a.shape[0]
    denom = np.zeros((m, max(k - 1, 0), m))
    for entry in system.get("denom", []):
        if not isinstance(entry, dict):
            raise ConfigError("system.denom entries must be mappings with i, j, q")
        i = _require(entry, "i", int, "system.denom")
        j = _require(entry, "j", int, "system.denom")
        q = np.asarray(_require(entry, "q", list, "system.denom"), dtype=float)
        if not (1 <= i <= m):
            raise ConfigError(f"system.denom: i must be in 1..{m}, got {i}")
        if not (1 <= j <= k - 1):
            raise ConfigError(f"system.denom: j must be in 1..{k - 1}, got {j}")
        if q.shape != (m,):
            raise ConfigError(f"system.denom: q must have {m} entries")
        denom[i - 1, j - 1] = q
    return SystemSpec(k=k, A=a, denom=denom)


def _parse_tolerances(doc) -> Tolerances:
    section = doc.get("tolerances", {})
    if not isinstance(section, dict):
        raise ConfigError("tolerances must be a mapping")
    return Tolerances(
        zero_tol=_optional(section, "zero_tol", float, Tolerances.zero_tol, "tolerances"),
        per_tol=_optional(section, "per_tol", float, Tolerances.per_tol, "tolerances"),
        growth_threshold=_optional(
            section, "growth_threshold", float, Tolerances.growth_threshold, "tolerances"
        ),
        max_period=section.get("max_period"),
    )


def load_config(path) -> RunConfig:
    """Parse and validate a config file; raises :class:`ConfigError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping of sections")

    spec = _parse_system(doc)
    cfg = RunConfig(spec=spec)

    mode = doc.get("mode")
    if mode is not None:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        cfg.mode = mode
    cfg.rng_seed = _optional(doc, "rng_seed", int, 0, "config")

    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run must be a mapping")
    cfg.horizon = _optional(run, "horizon", int, cfg.horizon, "run")
    cfg.trials = _optional(run, "trials", int, cfg.trials, "run")
    cfg.init_max = _optional(run, "init_max", float, cfg.init_max, "run")
    check_run(cfg)

    cfg.tolerances = _parse_tolerances(doc)
    tols = doc.get("tolerances", {})
    cfg.rho_tol = _optional(tols, "rho_tol", float, RHO_TOL, "tolerances")

    init = doc.get("init")
    if init is not None:
        if not isinstance(init, dict):
            raise ConfigError("init must be a mapping")
        directive = _require(init, "seed", str, "init")
        if directive not in SEED_DIRECTIVES:
            raise ConfigError(f"init.seed must be one of {SEED_DIRECTIVES}, got {directive!r}")
        cfg.seed_directive = directive
        if directive == "period2k":
            cfg.seed_a = _require(init, "a", float, "init")
            cfg.seed_b = _require(init, "b", float, "init")
        if directive == "explicit":
            history = _require(init, "history", list, "init")
            cfg.explicit_history = np.asarray(history, dtype=float)

    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep must be a mapping")
        c_values = _require(sweep, "c", list, "sweep")
        scales = _optional(sweep, "denom_scale", list, [1.0], "sweep")
        cfg.sweep = SweepGrid(
            c=[float(x) for x in c_values],
            denom_scale=[float(x) for x in scales],
        )

    verify = doc.get("verify", {})
    if not isinstance(verify, dict):
        raise ConfigError("verify must be a mapping")
    cfg.expect_regime = verify.get("expect")
    problems = validate(spec)
    if problems:
        raise ConfigError("invalid system: " + "; ".join(problems))
    return cfg


def check_run(cfg: RunConfig) -> None:
    """Reject out-of-range run settings, read from the file or overridden later."""
    if cfg.horizon < 1:
        raise ConfigError("run.horizon must be >= 1")
    if cfg.trials < 0:
        raise ConfigError("run.trials must be >= 0")


def resolve_init(cfg: RunConfig) -> InitialConditions:
    """Materialize the configured initial conditions (constructors may raise)."""
    from .constructors import (
        construct_period2k_seed,
        construct_periodic_seed,
        construct_unbounded_seed,
    )

    if cfg.seed_directive is None:
        raise ConfigError("init section with a seed directive is required")
    if cfg.seed_directive == "explicit":
        if cfg.explicit_history is None:
            raise ConfigError("init.history is required for explicit seeds")
        return InitialConditions(cfg.explicit_history)
    if cfg.seed_directive == "periodic":
        return construct_periodic_seed(cfg.spec)
    if cfg.seed_directive == "period2k":
        return construct_period2k_seed(cfg.spec, cfg.seed_a, cfg.seed_b)
    return construct_unbounded_seed(cfg.spec)
