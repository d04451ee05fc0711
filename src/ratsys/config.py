"""Experiment configuration: one YAML document fully determines a run.

Top-level sections: ``system`` (k plus the kernel, either as a matrix
with optional denominator vectors or in scalar two-equation form),
``run`` (horizon, trials, init_max), ``init`` (an explicit history or a
constructor directive), ``tolerances``, ``sweep`` (grid of kernel
multipliers), and ``verify`` (optional expected-regime override).
Random draws come from ratsys's own pure-Python PCG64, equal bit for bit
to ``numpy.random.default_rng``, so a config plus its ``rng_seed``
reproduces a run byte for byte.  The ``tolerances`` section becomes one
:class:`~ratsys.analysis.Tolerances`, which holds the defaults and value
rules of its fields.  A key that a section does not take (see
:data:`KEYS`) is refused; top-level keys are not checked, so that YAML
anchors can live there.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field, fields
from typing import List, Optional

import numpy as np
import yaml

from .analysis import Tolerances
from .classifier import CONVERGES_TO_ZERO, PERIOD_2K, PERIOD_K, UNBOUNDED_EXISTS
from .constructors import construct_period2k_seed, construct_periodic_seed, construct_unbounded_seed
from .model import (InitialConditions, SystemSpec, denom_size_problem, from_scalar_params,
                    validate_initial)

MODES = ("tetrachotomy", "trichotomy")
SEED_DIRECTIVES = ("periodic", "period2k", "unbounded", "explicit")
REGIMES = (CONVERGES_TO_ZERO, PERIOD_K, PERIOD_2K, UNBOUNDED_EXISTS)
REQUIRED = object()  # default of a field that must be given
_SHAPES = ("a number", "a list of numbers", "a list of equal-length lists of numbers")


class ConfigError(ValueError):
    """A config file is missing, malformed, or inconsistent."""


#: Every scalar setting, the command-line overrides included:
#: dotted path -> (type, default or REQUIRED, rule, text naming the rule).
#: A tolerances.* row holds only its type: Tolerances holds its default and rule.
FIELDS = {
    "mode": (str, None, MODES.__contains__, f"must be one of {MODES}"),
    "rng_seed": (int, 0, lambda v: v >= 0, "must be >= 0"),
    "system.k": (int, REQUIRED, lambda v: v >= 2, "must be >= 2"),
    "run.horizon": (int, 1000, lambda v: v >= 1, "must be >= 1"),
    "run.trials": (int, 20, lambda v: v >= 0, "must be >= 0"),
    "run.init_max": (float, 10.0, lambda v: v >= 0, "must be >= 0"),
    "tolerances.zero_tol": (float, None, None, None),
    "tolerances.per_tol": (float, None, None, None),
    "tolerances.growth_threshold": (float, None, None, None),
    "tolerances.rho_tol": (float, None, None, None),
    "init.seed": (str, REQUIRED, SEED_DIRECTIVES.__contains__, f"must be one of {SEED_DIRECTIVES}"),
    "init.a": (float, REQUIRED, lambda v: v >= 0, "must be >= 0"),  # read for period2k only
    "init.b": (float, REQUIRED, lambda v: v >= 0, "must be >= 0"),
    "verify.expect": (str, None, REGIMES.__contains__, f"must be one of {REGIMES}"),
}


#: The keys of each section and of each ``system.denom`` entry; any other key is refused,
#: since nothing would read it.
KEYS = {
    "system": ("k", "A", "denom", "scalar"),
    "system.scalar": ("beta", "gamma", "delta", "epsilon", "B", "C", "D", "E"),
    "system.denom": ("i", "j", "q"),
    "run": ("horizon", "trials", "init_max"),
    "init": ("seed", "a", "b", "history"),
    "tolerances": tuple(f.name for f in fields(Tolerances)),
    "sweep": ("c", "denom_scale"),
    "verify": ("expect",),
}


@dataclass
class SweepGrid:
    c: List[float]
    denom_scale: List[float] = field(default_factory=lambda: [1.0])


@dataclass
class RunConfig:
    """A loaded config; the defaults of its settings are in :data:`FIELDS`, or in Tolerances."""

    spec: SystemSpec
    mode: Optional[str]
    rng_seed: int
    horizon: int
    trials: int
    init_max: float
    tolerances: Tolerances
    expect_regime: Optional[str]
    seed_directive: Optional[str] = None
    seed_a: Optional[float] = None  # period2k seeds only
    seed_b: Optional[float] = None
    explicit_init: Optional[InitialConditions] = None
    sweep: Optional[SweepGrid] = None


#: Longest text of a value that a refusal echoes whole; a longer one is cut to this many
#: characters, its last three ``...``, so that a 400-digit int stays a short line.
_ECHO_CHARS = 60


def _cut(text: str) -> str:
    """``text``, cut to :data:`_ECHO_CHARS` characters ending in ``...`` if longer."""
    return text if len(text) <= _ECHO_CHARS else text[: _ECHO_CHARS - 3] + "..."


#: A decimal number as Python reads it: sign, mantissa, exponent letter, sign, digits.
_DECIMAL = re.compile(r"([-+]?)([0-9]+\.?[0-9]*|\.[0-9]+)(?:([eE])([-+]?)([0-9]+))?")


def _yaml_number_note(value) -> str:
    """For a decimal number that YAML read as text, why and the spelling to use; else "".

    YAML 1.1, which PyYAML follows, reads a float only with a dot in the
    mantissa and a sign in the exponent: ``1e-9`` and ``1.0e6`` are text,
    ``1.0e-9`` and ``1.0e+6`` are numbers.  In nested lists, the first
    such entry is named.
    """
    if isinstance(value, list):
        return next(filter(None, map(_yaml_number_note, value)), "")
    match = _DECIMAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        return ""
    sign, mantissa, e, exp_sign, digits = match.groups()
    spelling = sign + mantissa + ("" if "." in mantissa else ".0")
    if e:
        spelling += e + (exp_sign or "+") + digits
    read = f"; YAML read {_cut(repr(value))} as text, since it"
    if spelling == value:
        return f"{read} is quoted: write it without quotes"
    return f"{read} reads a float only with a dot and a signed exponent: write {_cut(spelling)}"


def _int_note(value) -> str:
    """For a float, or decimal text, that is an integer of at most 2**53, its digits; else "".

    YAML reads ``1e5`` as text and ``1.0e+5`` as a float, so neither passes
    for an int.  Past 2**53 a float need not be the integer that was written.
    """
    from decimal import Decimal  # here, not at the top: it adds ~0.3 MB to every run

    if isinstance(value, str) and _DECIMAL.fullmatch(value) and Decimal(value) == float(value):
        value = float(value)
    if type(value) is not float or not (value.is_integer() and abs(value) <= 2.0**53):
        return ""
    return f"; write {int(value)}"


def check(path: str, value):
    """``value`` checked by its :data:`FIELDS` row: an int passes for a float, a bool never."""
    kind, _, rule, text = FIELDS[path]
    if type(value) is not kind and not (kind is float and type(value) is int):
        note = _yaml_number_note(value) if kind is float else _int_note(value) if kind is int else ""
        raise ConfigError(f"{path} must be of type {kind.__name__}, got {_cut(repr(value))}{note}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, huge ints
        raise ConfigError(f"{path} must be finite, got {_cut(repr(value))}")
    if rule and not rule(value):
        raise ConfigError(f"{path} {text}, got {_cut(repr(value))}")
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
    return _known_keys(section, path)


def _known_keys(mapping: dict, path: str) -> dict:
    """``mapping``, the section or entry at ``path``, once each of its keys is in :data:`KEYS`."""
    for key in mapping:
        if key not in KEYS[path]:
            raise ConfigError(f"{path}.{_cut(str(key))} is not a setting; "
                              f"{path} takes {', '.join(KEYS[path])}")
    return mapping


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
        note = _yaml_number_note(value)
        raise ConfigError(f"{where} must be {_SHAPES[ndim]}, each finite and >= 0{note}")
    return arr


def _check_denom_size(m: int, k: int) -> None:
    """Refuse, before it is built, a denominator array over ``model.MAX_RUN_BYTES``."""
    problem = denom_size_problem(m, k)
    if problem:
        raise ConfigError("system." + problem)


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
        i, j = _known_keys(entry, "system.denom").get("i"), entry.get("j")
        if type(i) is not int or not 1 <= i <= m:
            raise ConfigError(f"system.denom.i must be in 1..{m}, got {i!r}")
        if type(j) is not int or not 1 <= j <= k - 1:
            raise ConfigError(f"system.denom.j must be in 1..{k - 1}, got {j!r}")
        q = _floats(entry.get("q"), "system.denom.q", 1)
        if q.shape != (m,):
            raise ConfigError(f"system.denom.q must have {m} entries")
        denom[i - 1, j - 1] = q
    return SystemSpec(k=k, A=a, denom=denom)


def _tolerances(doc: dict) -> Tolerances:
    """The ``tolerances`` section: the fields it gives, checked for type, in one Tolerances."""
    section = _section(doc, "tolerances")
    given = {f.name: check("tolerances." + f.name, section[f.name])
             for f in fields(Tolerances) if f.name in section}
    try:
        return Tolerances(**given)
    except ValueError as exc:  # its message starts with the field's name
        raise ConfigError(f"tolerances.{exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate a config file; raises :class:`ConfigError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
        tolerances=_tolerances(doc),
        expect_regime=_get(doc, "verify.expect"),
    )

    if "init" in doc:
        cfg.seed_directive = _get(doc, "init.seed")
        if cfg.seed_directive == "period2k":
            cfg.seed_a = _get(doc, "init.a")
            cfg.seed_b = _get(doc, "init.b")
        if cfg.seed_directive == "explicit":
            init = InitialConditions(_floats(doc["init"].get("history"), "init.history", 2))
            problems = validate_initial(init, cfg.spec)
            if problems:
                raise ConfigError("init.history: " + "; ".join(problems))
            cfg.explicit_init = init

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
        return cfg.explicit_init
    if cfg.seed_directive == "periodic":
        return construct_periodic_seed(cfg.spec, cfg.tolerances.rho_tol)
    if cfg.seed_directive == "period2k":
        return construct_period2k_seed(cfg.spec, cfg.seed_a, cfg.seed_b, cfg.tolerances.rho_tol)
    return construct_unbounded_seed(cfg.spec, cfg.tolerances.rho_tol)
