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

import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import yaml

from .analysis import GROWTH_THRESHOLD, PER_TOL, ZERO_TOL, Tolerances
from .classifier import CONVERGES_TO_ZERO, PERIOD_2K, PERIOD_K, UNBOUNDED_EXISTS
from .constructors import construct_period2k_seed, construct_periodic_seed, construct_unbounded_seed
from .linalg import RHO_TOL
from .model import InitialConditions, SystemSpec, from_scalar_params, validate_initial
from .simulator import MAX_RUN_BYTES

MODES = ("tetrachotomy", "trichotomy")
SEED_DIRECTIVES = ("periodic", "period2k", "unbounded", "explicit")
REGIMES = (CONVERGES_TO_ZERO, PERIOD_K, PERIOD_2K, UNBOUNDED_EXISTS)
REQUIRED = object()  # default of a field that must be given
_SHAPES = ("a number", "a list of numbers", "a list of equal-length lists of numbers")


class ConfigError(ValueError):
    """A config file is missing, malformed, or inconsistent."""


#: Every scalar setting, the command-line overrides included:
#: dotted path -> (type, default or REQUIRED, rule, text naming the rule).
FIELDS = {
    "mode": (str, None, MODES.__contains__, f"must be one of {MODES}"),
    "rng_seed": (int, 0, lambda v: v >= 0, "must be >= 0"),
    "system.k": (int, REQUIRED, lambda v: v >= 2, "must be >= 2"),
    "run.horizon": (int, 1000, lambda v: v >= 1, "must be >= 1"),
    "run.trials": (int, 20, lambda v: v >= 0, "must be >= 0"),
    "run.init_max": (float, 10.0, lambda v: v >= 0, "must be >= 0"),
    "tolerances.zero_tol": (float, ZERO_TOL, lambda v: v >= 0, "must be >= 0"),
    "tolerances.per_tol": (float, PER_TOL, lambda v: v >= 0, "must be >= 0"),
    "tolerances.growth_threshold": (float, GROWTH_THRESHOLD, lambda v: v > 0, "must be > 0"),
    "tolerances.rho_tol": (float, RHO_TOL, lambda v: v >= 0, "must be >= 0"),
    "tolerances.max_period": (int, None, lambda v: v >= 1, "must be >= 1"),
    "init.seed": (str, REQUIRED, SEED_DIRECTIVES.__contains__, f"must be one of {SEED_DIRECTIVES}"),
    "init.a": (float, REQUIRED, lambda v: v >= 0, "must be >= 0"),  # read for period2k only
    "init.b": (float, REQUIRED, lambda v: v >= 0, "must be >= 0"),
    "verify.expect": (str, None, REGIMES.__contains__, f"must be one of {REGIMES}"),
}


@dataclass
class SweepGrid:
    c: List[float]
    denom_scale: List[float] = field(default_factory=lambda: [1.0])


@dataclass
class RunConfig:
    """A loaded config; the defaults of its settings are in :data:`FIELDS`."""

    spec: SystemSpec
    mode: Optional[str]
    rng_seed: int
    horizon: int
    trials: int
    init_max: float
    tolerances: Tolerances
    rho_tol: float
    expect_regime: Optional[str]
    seed_directive: Optional[str] = None
    seed_a: Optional[float] = None  # period2k seeds only
    seed_b: Optional[float] = None
    explicit_history: Optional[np.ndarray] = None
    sweep: Optional[SweepGrid] = None


def check(path: str, value):
    """``value`` checked by its :data:`FIELDS` row: an int passes for a float, a bool never."""
    kind, _, rule, text = FIELDS[path]
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ConfigError(f"{path} must be of type {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, huge ints
        raise ConfigError(f"{path} must be finite, got {value!r}")
    if not rule(value):
        raise ConfigError(f"{path} {text}, got {value!r}")
    return float(value) if kind is float else value


def _get(doc: dict, path: str):
    """The checked value of field ``path`` in ``doc``, or the row's default."""
    *sections, key = path.split(".")
    for name in sections:
        doc = _section(doc, name)
    if key in doc:
        return check(path, doc[key])
    default = FIELDS[path][1]
    if default is REQUIRED:
        raise ConfigError(f"{path} is required")
    return default


def _section(doc: dict, path: str) -> dict:
    section = doc.get(path.rpartition(".")[2], {})
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be a mapping")
    return section


def _numbers_only(value) -> bool:
    """True for an int or float, or nested lists of them; a bool is not a number."""
    if isinstance(value, list):
        return all(map(_numbers_only, value))
    return type(value) in (int, float)


def _floats(value, where: str, ndim: int) -> np.ndarray:
    """``value`` as a float array of ``ndim`` dimensions, every entry finite and >= 0."""
    if value is None:
        raise ConfigError(f"{where} is required")
    try:
        arr = np.array(value, dtype=float) if _numbers_only(value) else None
    except (ValueError, OverflowError):  # ragged lists, ints beyond the float range
        arr = None
    if arr is None or arr.ndim != ndim or not np.isfinite(arr).all() or (arr < 0).any():
        raise ConfigError(f"{where} must be {_SHAPES[ndim]}, each finite and >= 0")
    return arr


def _check_denom_size(m: int, k: int) -> None:
    """Refuse, before it is built, a denominator array over ``MAX_RUN_BYTES``."""
    size = m * (k - 1) * m * 8
    if size > MAX_RUN_BYTES:
        raise ConfigError(
            f"system.k = {k} with m = {m} needs {size} bytes of denominator "
            f"coefficients, more than the limit of {MAX_RUN_BYTES}"
        )


def _parse_system(doc) -> SystemSpec:
    system = _section(doc, "system")
    k = _get(doc, "system.k")
    if "scalar" in system:
        _check_denom_size(2, k)
        sc = _section(system, "system.scalar")
        scalars = [_floats(sc.get(name), f"system.scalar.{name}", 0)
                   for name in ("beta", "gamma", "delta", "epsilon")]
        lists = [_floats(sc.get(name, [0.0] * (k - 1)), f"system.scalar.{name}", 1)
                 for name in ("B", "C", "D", "E")]
        try:
            return from_scalar_params(k, *scalars, *lists)
        except ValueError as exc:
            raise ConfigError(f"system.scalar: {exc}") from exc
    a = _floats(system.get("A"), "system.A", 2)
    if a.shape[0] != a.shape[1]:
        raise ConfigError("system.A must be a square matrix given as nested rows")
    m = a.shape[0]
    _check_denom_size(m, k)
    denom = np.zeros((m, k - 1, m))
    entries = system.get("denom", [])
    if not isinstance(entries, list):
        raise ConfigError("system.denom must be a list of entries with i, j, q")
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError("system.denom entries must be mappings with i, j, q")
        i, j = entry.get("i"), entry.get("j")
        if type(i) is not int or not 1 <= i <= m:
            raise ConfigError(f"system.denom.i must be in 1..{m}, got {i!r}")
        if type(j) is not int or not 1 <= j <= k - 1:
            raise ConfigError(f"system.denom.j must be in 1..{k - 1}, got {j!r}")
        q = _floats(entry.get("q"), "system.denom.q", 1)
        if q.shape != (m,):
            raise ConfigError(f"system.denom.q must have {m} entries")
        denom[i - 1, j - 1] = q
    return SystemSpec(k=k, A=a, denom=denom)


def load_config(path) -> RunConfig:
    """Parse and validate a config file; raises :class:`ConfigError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            detail = exc.problem if mark else " ".join(str(exc).split())
            raise ConfigError(f"config does not parse: {detail}{where}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping of sections")

    cfg = RunConfig(
        spec=_parse_system(doc),
        mode=_get(doc, "mode"),
        rng_seed=_get(doc, "rng_seed"),
        horizon=_get(doc, "run.horizon"),
        trials=_get(doc, "run.trials"),
        init_max=_get(doc, "run.init_max"),
        tolerances=Tolerances(
            zero_tol=_get(doc, "tolerances.zero_tol"),
            per_tol=_get(doc, "tolerances.per_tol"),
            growth_threshold=_get(doc, "tolerances.growth_threshold"),
            max_period=_get(doc, "tolerances.max_period"),
        ),
        rho_tol=_get(doc, "tolerances.rho_tol"),
        expect_regime=_get(doc, "verify.expect"),
    )

    if "init" in doc:
        cfg.seed_directive = _get(doc, "init.seed")
        if cfg.seed_directive == "period2k":
            cfg.seed_a = _get(doc, "init.a")
            cfg.seed_b = _get(doc, "init.b")
        if cfg.seed_directive == "explicit":
            history = _floats(doc["init"].get("history"), "init.history", 2)
            problems = validate_initial(InitialConditions(history), cfg.spec)
            if problems:
                raise ConfigError("init.history: " + "; ".join(problems))
            cfg.explicit_history = history

    if "sweep" in doc:
        sweep = _section(doc, "sweep")
        c_values = _floats(sweep.get("c"), "sweep.c", 1)
        scales = _floats(sweep.get("denom_scale", [1.0]), "sweep.denom_scale", 1)
        for where, values in (("sweep.c", c_values), ("sweep.denom_scale", scales)):
            if not values.size:
                raise ConfigError(f"{where} must declare a non-empty grid")
        cfg.sweep = SweepGrid(c=c_values.tolist(), denom_scale=scales.tolist())
    return cfg


def resolve_init(cfg: RunConfig) -> InitialConditions:
    """Materialize the configured initial conditions (constructors may raise)."""
    if cfg.seed_directive is None:
        raise ConfigError("init section with a seed directive is required")
    if cfg.seed_directive == "explicit":
        return InitialConditions(cfg.explicit_history)
    if cfg.seed_directive == "periodic":
        return construct_periodic_seed(cfg.spec, rho_tol=cfg.rho_tol)
    if cfg.seed_directive == "period2k":
        return construct_period2k_seed(cfg.spec, cfg.seed_a, cfg.seed_b, rho_tol=cfg.rho_tol)
    return construct_unbounded_seed(cfg.spec, rho_tol=cfg.rho_tol)
