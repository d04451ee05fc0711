"""Batch interface: simulate, classify, verify, and sweep from config files.

Exit codes: 0 success (verify: all predictions pass), 1 config or
validation error (a kernel the eigensolver or the seed constructors
cannot handle included), 2 verification failure or a diverged
simulation, 3 I/O error.  All output is deterministic for a fixed config
and seed; floats are serialized with 17 significant digits so CSV files
round-trip to the exact in-memory doubles.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import replace
from typing import List, NoReturn, Optional, Tuple

import numpy as np

from .classifier import (
    BoundaryAmbiguous,
    Classification,
    PERIOD_2K,
    PERIOD_K,
    VerificationReport,
    classify_tetrachotomy,
    classify_trichotomy,
    verify_classification,
)
from .config import ConfigError, RunConfig, check, load_config, resolve_init
from .constructors import SeedConstructionError
from .linalg import PowerIterationError
from .model import SystemSpec, Trajectory
from .simulator import simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_matrix(a: np.ndarray) -> str:
    rows = ", ".join("[" + ", ".join(_fmt(x) for x in row) + "]" for row in a)
    return "[" + rows + "]"


#: Rows of a trajectory CSV formatted and written at a time, so a long
#: run never holds all its row strings, or all its values as Python
#: floats, at once.
CSV_CHUNK_ROWS = 4096


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    # "%.17g" % x is the same text as _fmt(x).  A row whose bits equal those
    # of the row 2k before it (periods 1, k and 2k all divide 2k) repeats
    # that row's text after the index, so each chunk formats only the rows
    # that do not repeat and copies the text of the others.  Bits, not ==,
    # pick the rows, since -0.0 == 0.0 but prints as -0.  A run that ended
    # in an exact cycle stores its rows up to some step, and each later row
    # is the row 2k before it.  Its rows before ``n_split``, the first
    # multiple of 10 at or past its first row not stored (>= 10, as that
    # row's n is >= 1), are written row by row; _write_cycle writes the
    # rest ten rows per join.  Any other run stores every row, so its
    # ``n_split`` is ``n_end`` and every row is written row by row.
    period = 2 * traj.k
    row_format = ",".join(["%.17g"] * traj.m) + "\n"
    n_end = traj.horizon + 1
    n_split = min(-(-(traj.n_first + len(traj.values)) // 10) * 10, n_end)
    head = traj.rows(traj.n_first, n_split - 1)
    # each row's bytes as one item, so the comparison makes no (rows, m) array
    bits = head.view(np.dtype((np.void, 8 * traj.m))).ravel()
    repeats = np.zeros(len(bits), dtype=bool)  # the first 2k rows repeat nothing
    repeats[period:] = bits[period:] == bits[:-period]
    texts: List[str] = []  # the text after the index of each row, the last 2k kept
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n," + ",".join(f"v{i + 1}" for i in range(traj.m)) + "\n")
        for start in range(0, len(bits), CSV_CHUNK_ROWS):
            mask = repeats[start : start + CSV_CHUNK_ROWS]
            # reversed, so pop() yields the rows in order and leaves no chunk
            # of floats or strings alive while the next chunk's are made
            fresh = head[start : start + len(mask)][~mask][::-1].tolist()
            for repeat in mask.tolist():
                texts.append(texts[-period] if repeat else row_format % tuple(fresh.pop()))
            first = traj.n_first + start
            fh.write("".join([f"{n},{text}" for n, text in enumerate(texts[-len(mask):], first)]))
            del texts[:-period]
        if n_split < n_end:
            _write_cycle(fh, texts, n_split, n_end)
        if traj.diverged_at is not None:
            fh.write(f"# diverged at n={traj.diverged_at}\n")


def _write_cycle(fh, texts: List[str], n_start: int, n_end: int) -> None:
    """Write rows ``n_start`` (a multiple of 10, >= 10) to ``n_end - 1`` of an exact cycle.

    ``texts`` holds the texts after the index of the 2k rows before
    ``n_start``, so row ``n_start + r`` has text ``texts[r % 2k]``.  The
    rows n = 10a .. 10a + 9 are ``str(a).join(["", "0," + t0, ..., "9," + t9])``,
    since str(a) + str(d) is str(10a + d) for a >= 1.  Their ten texts repeat
    every lcm(10, 2k) rows, so that many rows' pieces are built once.
    """
    period = len(texts)
    # decade a's pieces are pieces[a % len(pieces)]
    pieces = [[""] + [f"{d},{texts[(10 * a + d - n_start) % period]}" for d in range(10)]
              for a in range(math.lcm(10, period) // 10)]
    step = CSV_CHUNK_ROWS // 10
    a_end, last = divmod(n_end, 10)
    for lo in range(n_start // 10, a_end, step):
        fh.write("".join([str(a).join(pieces[a % len(pieces)])
                          for a in range(lo, min(lo + step, a_end))]))
    fh.write(str(a_end).join(pieces[a_end % len(pieces)][: 1 + last]))  # "" when last is 0


def _classify(cfg: RunConfig, spec: SystemSpec) -> Classification:
    if cfg.mode == "tetrachotomy":
        return classify_tetrachotomy(spec, cfg.tolerances.rho_tol)
    if cfg.mode == "trichotomy":
        return classify_trichotomy(spec, cfg.tolerances.rho_tol)
    raise ConfigError("mode must be set to tetrachotomy or trichotomy")


def _expected_classification(cfg: RunConfig, cls: Classification) -> Classification:
    """Apply the optional verify.expect override (for negative-path checks).

    The witness was built for the predicted regime, so it cannot test the
    expected one and is dropped.
    """
    if cfg.expect_regime is None or cfg.expect_regime == cls.regime:
        return cls
    return replace(cls, regime=cfg.expect_regime, theorem_path="expected:" + cfg.expect_regime,
                   witness=None)


def cmd_simulate(cfg: RunConfig, out_path: str) -> int:
    init = resolve_init(cfg)
    traj = simulate(cfg.spec, init, cfg.horizon)
    write_trajectory_csv(out_path, traj)
    if traj.diverged_at is not None:
        print(f"diverged at n={traj.diverged_at}; partial trajectory written to {out_path}")
        return EXIT_VERIFICATION
    print(f"wrote {traj.horizon + traj.k} rows to {out_path}")
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    cls = _classify(cfg, cfg.spec)
    print(f"regime: {cls.regime}")
    print(f"theorem: {cls.theorem_path}")
    print(f"rho: {_fmt(cls.spectrum.spectral_radius)}")
    print("eigenvalues: " + ", ".join(_fmt(x) for x in cls.spectrum.eigenvalues))
    if cls.spectrum.perron is not None:
        r, w = cls.spectrum.perron
        print(f"perron: r={_fmt(r)} w=[" + ", ".join(_fmt(x) for x in w) + "]")
    if cls.witness is not None:
        print(f"witness: {_fmt_matrix(cls.witness.history)}")
    return EXIT_OK


def _verify(cfg: RunConfig, spec: SystemSpec, cls: Classification, rng_seed) -> VerificationReport:
    """``verify_classification`` of ``cls`` with the config's run settings."""
    return verify_classification(spec, cls, cfg.horizon, cfg.trials, rng_seed=rng_seed,
                                 init_max=cfg.init_max, tolerances=cfg.tolerances)


def _verify_lines(cfg: RunConfig, cls: Classification) -> Tuple[List[str], bool]:
    report = _verify(cfg, cfg.spec, cls, cfg.rng_seed)
    width = max((len(c.name) for c in report.checks), default=10) + 2
    lines = [f"regime: {cls.regime} ({cls.theorem_path})"]
    for check in report.checks:
        lines.append(f"{check.name:<{width}} {check.status:<6} observed: {check.report.describe()}")
        if check.init is not None:
            lines.append(f"  counterexample init: {_fmt_matrix(check.init)}")
    lines.append("verdict: " + ("all predictions pass" if report.passed else "some predictions failed"))
    return lines, report.passed


def cmd_verify(cfg: RunConfig, out_path: Optional[str]) -> int:
    cls = _expected_classification(cfg, _classify(cfg, cfg.spec))
    lines, passed = _verify_lines(cfg, cls)
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_sweep(cfg: RunConfig, out_dir: str) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep.c is required")
    grid = []
    for scale in cfg.sweep.denom_scale:
        for c in cfg.sweep.c:
            grid.append((scale, c))
    multi_scale = len(cfg.sweep.denom_scale) > 1
    header = ["c", "rho", "regime", "verified", "period_observed"]
    if multi_scale:
        header.insert(1, "denom_scale")
    rows = [",".join(header)]
    for cell_index, (scale, c) in enumerate(grid):
        with np.errstate(over="ignore"):  # SystemSpec refuses an inf entry in one line
            a, denom = c * cfg.spec.A, scale * cfg.spec.denom
        cell_spec = SystemSpec(k=cfg.spec.k, A=a, denom=denom)
        cls = _classify(cfg, cell_spec)
        report = _verify(cfg, cell_spec, cls, (cfg.rng_seed, cell_index))  # per-cell entropy
        witness = report.checks[0].report  # a periodic regime's first check is its witness
        period = ""
        if cls.regime in (PERIOD_K, PERIOD_2K) and witness.period is not None:
            period = str(witness.period)
        row = [_fmt(c), _fmt(cls.spectrum.spectral_radius), cls.regime,
               "true" if report.passed else "false", period]
        if multi_scale:
            row.insert(1, _fmt(scale))
        rows.append(",".join(row))
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "sweep.csv")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {out_path}")
    return EXIT_OK


#: Command-line flag -> the config field it overrides.
_OVERRIDES = {"--seed": "rng_seed", "--horizon": "run.horizon", "--trials": "run.trials"}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end in ``main``'s one-line ``error:`` and exit 1."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratsys",
        description="Simulate and classify k-th order rational difference systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes only the flags it reads, so an ignored flag is an error.
    for name, out, flags in (
        ("simulate", "CSV file", ("--horizon",)),
        ("classify", None, ()),
        ("verify", "report file", ("--trials", "--horizon", "--seed")),
        ("sweep", "directory", ("--trials", "--horizon", "--seed")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the YAML config")
        if out:
            p.add_argument("--out", required=name != "verify", help=f"output {out}")
        for flag in flags:
            p.add_argument(flag, type=int, default=None, help=f"override {_OVERRIDES[flag]}")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one ``ratsys`` command on ``argv`` (default: the command line); the exit code.

    The first statement freezes the collector's tracked objects
    (``gc.freeze()``): everything alive at that point, the imported
    modules with numpy's among them, lives until the process exits anyway,
    and once frozen it is skipped by every later collection, the full
    passes the interpreter runs at exit included (20-26 ms of a verify or
    sweep run on a 2-vCPU Intel Xeon).
    That is safe because no frozen object needs the collector to let go of
    anything: every file ``main`` writes is closed by its ``with`` block
    before ``main`` returns, and the interpreter flushes stdout and stderr
    without the collector.  Objects made later are collected as before.
    """
    gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        for flag, path in _OVERRIDES.items():
            value = getattr(args, flag[2:], None)
            if value is not None:
                setattr(cfg, path.rpartition(".")[2], check(path, value))
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        return cmd_sweep(cfg, args.out)
    except (BoundaryAmbiguous, ValueError, PowerIterationError, SeedConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
