"""Seeded workload generators and output checkers for the ratsys benchmark.

Each workload turns a benchmark seed into one YAML config plus the
``ratsys`` subcommand that runs it.  The config is the only input the
program receives.  A checker turns one invocation's exit code, stdout and
output file into a list of problems; an empty list means the output is
correct.

This module uses only the standard library (plus PyYAML to write the
configs), so the driver process stays far smaller than the ``ratsys``
children whose peak RSS it reports.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

import yaml

Matrix = List[List[float]]


@dataclass
class Job:
    """One generated workload instance: what to run and how to judge it."""

    config: dict
    command: str  # ratsys subcommand
    out_name: Optional[str]  # --out target inside the work directory
    output_file: Optional[str]  # file whose bytes are the output (None: stdout)
    check: Callable[[int, bytes, str], List[str]]  # (exit code, stdout, output path)


def _perron_root(a: Matrix) -> float:
    """Spectral radius of a strictly positive symmetric matrix (power iteration)."""
    m = len(a)
    v = [1.0 / math.sqrt(m)] * m
    for _ in range(10_000):
        w = [sum(a[i][c] * v[c] for c in range(m)) for i in range(m)]
        norm = math.sqrt(sum(x * x for x in w))
        w = [x / norm for x in w]
        done = max(abs(x - y) for x, y in zip(w, v)) < 1e-15
        v = w
        if done:
            break
    av = [sum(a[i][c] * v[c] for c in range(m)) for i in range(m)]
    return sum(x * y for x, y in zip(v, av)) / sum(x * x for x in v)


def positive_symmetric_unit_radius(rng: random.Random, m: int) -> Matrix:
    """Random strictly positive symmetric m x m kernel scaled to rho = 1."""
    a = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            a[i][j] = a[j][i] = rng.uniform(0.1, 1.0)
    r = _perron_root(a)
    return [[x / r for x in row] for row in a]


def _denominators(rng: random.Random, m: int, k: int, low: float, high: float) -> List[dict]:
    return [
        {"i": i, "j": j, "q": [rng.uniform(low, high) for _ in range(m)]}
        for i in range(1, m + 1)
        for j in range(1, k)
    ]


def _read_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()


# --- verify-m16k4 -----------------------------------------------------------

_CHECK_LINE = re.compile(
    r"^(?P<name>.+?)\s+(?P<status>PASS|FAIL|info)\s+observed: (?P<observed>.*)$")


def check_verify(exit_code: int, stdout: bytes, output_path: str, *, k: int,
                 trials: int) -> List[str]:
    """A period-k (T3-ii) verdict with every check PASS and a period-k witness."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    lines = _read_lines(output_path)
    if not lines or lines[0] != "regime: period-k (T3-ii)":
        problems.append(f"regime line is {lines[0] if lines else None!r}")
    checks = [_CHECK_LINE.match(line) for line in lines[1:]]
    checks = [c for c in checks if c]
    if len(checks) != 1 + trials:
        problems.append(f"{len(checks)} check lines, expected {1 + trials}")
    for c in checks:
        if c["status"] != "PASS":
            problems.append(f"check {c['name']!r} is {c['status']}")
    witness = [c for c in checks if c["name"].startswith("witness:")]
    if len(witness) != 1 or witness[0]["observed"] != f"eventually-periodic (period {k})":
        problems.append("witness was not observed with period %d" % k)
    if not lines or lines[-1] != "verdict: all predictions pass":
        problems.append(f"verdict line is {lines[-1] if lines else None!r}")
    return problems


def make_verify(seed: int, tiny: bool = False) -> Job:
    """Trichotomy verify of a 16 x 16 positive kernel at rho = 1, k = 4."""
    rng = random.Random(f"verify-m16k4/{seed}")
    m, k = 16, 4
    # Witness plus four random trials keep one invocation near 1.5 s, so a
    # run holds enough invocations that one of them misses the VM's slow spells.
    trials = 1 if tiny else 4
    config = {
        "mode": "trichotomy",
        "rng_seed": rng.randrange(2**32),
        "system": {
            "k": k,
            "A": positive_symmetric_unit_radius(rng, m),
            "denom": _denominators(rng, m, k, 0.5, 1.5),
        },
        "run": {"horizon": 2000, "trials": trials},
    }
    return Job(
        config=config,
        command="verify",
        out_name=None,
        output_file=None,
        check=partial(check_verify, k=k, trials=trials),
    )


# --- sweep-m2-tetra ---------------------------------------------------------

SWEEP_HEADER = "c,denom_scale,rho,regime,verified,period_observed"


def expected_regime(c: float) -> str:
    if c < 1.0:
        return "converges-to-zero"
    if c == 1.0:
        return "period-2k"
    return "unbounded-exists"


def check_sweep(exit_code: int, stdout: bytes, output_path: str, *, c: List[float],
                scales: List[float], k: int) -> List[str]:
    """Every row: regime follows from c, verified=true, period 2k exactly at c = 1."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    lines = _read_lines(output_path)
    if not lines or lines[0] != SWEEP_HEADER:
        problems.append(f"header is {lines[0] if lines else None!r}")
    rows = [line.split(",") for line in lines[1:]]
    cells = [(s, x) for s in scales for x in c]
    if len(rows) != len(cells):
        problems.append(f"{len(rows)} rows, expected {len(cells)}")
    for row, (scale, cval) in zip(rows, cells):
        if len(row) != 6:
            problems.append(f"row {row} does not have 6 fields")
            continue
        c_text, scale_text, _rho, regime, verified, period = row
        where = f"row c={c_text} denom_scale={scale_text}"
        try:
            if float(c_text) != cval or float(scale_text) != scale:
                problems.append(f"{where}: expected c={cval!r} denom_scale={scale!r}")
        except ValueError:
            problems.append(f"{where}: c or denom_scale is not a number")
        if regime != expected_regime(cval):
            problems.append(f"{where}: regime {regime}, expected {expected_regime(cval)}")
        if verified != "true":
            problems.append(f"{where}: verified={verified}")
        want_period = str(2 * k) if cval == 1.0 else ""
        if period != want_period:
            problems.append(f"{where}: period_observed={period!r}, expected {want_period!r}")
    return problems


def make_sweep(seed: int, tiny: bool = False) -> Job:
    """Tetrachotomy sweep of c * [[0, 1], [1, 0]], k = 2, over five c and two scales."""
    rng = random.Random(f"sweep-m2-tetra/{seed}")
    k = 2
    # Two contracting cells, the period-2k boundary, a mild and a strong
    # unbounded cell.  Unbounded runs overflow near n = 2 * 709.8 / ln(c):
    # after the horizon for c <= 1.35, at 1490..1620 for c in [2.4, 2.6].  So
    # the diverged_at path runs while the steps simulated stay nearly the
    # same from seed to seed.
    c = [rng.uniform(0.3, 0.6), rng.uniform(0.6, 0.85), 1.0,
         rng.uniform(1.25, 1.35), rng.uniform(2.4, 2.6)]
    # At rho = 1 a random orbit can converge algebraically to a small period-4
    # orbit; analyze then calls it undetermined and the cell verified=false
    # (a horizon-too-short FAIL).  With denominator scales 1, 2 and horizon
    # 2000 that hit about one seed in sixty.  With 2, 4 and horizon 4000 no
    # seed in 0..599 did, but one period-2k cell in 2400 still did when the
    # random draws of the two scales were swapped: rarer, not gone.
    scales = [2.0, 4.0]
    config = {
        "mode": "tetrachotomy",
        "rng_seed": rng.randrange(2**32),
        "system": {
            "k": k,
            "A": [[0.0, 1.0], [1.0, 0.0]],
            "denom": _denominators(rng, 2, k, 0.5, 1.5),
        },
        "run": {"horizon": 4000, "trials": 1 if tiny else 4},
        "sweep": {"c": c, "denom_scale": scales},
    }
    return Job(
        config=config,
        command="sweep",
        out_name="sweep",
        output_file="sweep/sweep.csv",
        check=partial(check_sweep, c=c, scales=scales, k=k),
    )


# --- simulate-m2-long -------------------------------------------------------

def reference_rows(a: Matrix, denom: List[dict], history: Matrix,
                   horizon: int) -> Iterator[List[float]]:
    """Scalar re-implementation of the simulator, rows for n = 1-k .. horizon.

    It follows the accumulation order the simulator documents: numerator
    terms by ascending component; the denominator starts at 1 and adds
    terms grouped by component, delays ascending inside each group.
    """
    m, k = len(a), len(history)
    q = [[[0.0] * m for _ in range(k - 1)] for _ in range(m)]
    for entry in denom:
        q[entry["i"] - 1][entry["j"] - 1] = list(entry["q"])
    window = [list(row) for row in history]
    yield from (list(row) for row in history)
    for _ in range(horizon):
        out = []
        for i in range(m):
            num = 0.0
            for c in range(m):
                num += a[i][c] * window[0][c]
            den = 1.0
            for c in range(m):
                for j in range(1, k):
                    den += q[i][j - 1][c] * window[k - j][c]
            out.append(num / den)
        window = window[1:] + [out]
        yield out


def check_simulate(exit_code: int, stdout: bytes, output_path: str, *, config: dict,
                   out_path: str) -> List[str]:
    """Exit 0 and a CSV whose every value equals the scalar reference exactly.

    The CSV is streamed line by line next to the reference, so checking a
    long trajectory does not raise the driver's own peak RSS.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    system, horizon = config["system"], config["run"]["horizon"]
    history = config["init"]["history"]
    k, m = system["k"], len(system["A"])
    want_stdout = f"wrote {horizon + k} rows to {out_path}\n".encode()
    if stdout != want_stdout:
        problems.append(f"stdout is {stdout[:200]!r}")
    expected = reference_rows(system["A"], system.get("denom", []), history, horizon)
    with open(output_path, encoding="utf-8", errors="replace", newline="") as fh:
        header = fh.readline()
        if header != "n," + ",".join(f"v{i + 1}" for i in range(m)) + "\n":
            problems.append(f"header is {header!r}")
        for n, want in zip(range(1 - k, horizon + 1), expected):
            line = fh.readline()
            parts = line.rstrip("\n").split(",")
            try:
                ok = (line.endswith("\n") and int(parts[0]) == n
                      and [float(x) for x in parts[1:]] == want)
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"row n={n} is {line!r}, expected {n},{want}")
                return problems
        if fh.read(1):
            problems.append(f"more than {horizon + k} rows")
    return problems


def make_simulate(seed: int, tiny: bool = False) -> Job:
    """One long trajectory of a positive 2 x 2 kernel at rho = 1, k = 2, to CSV."""
    rng = random.Random(f"simulate-m2-long/{seed}")
    m, k = 2, 2
    config = {
        "system": {
            "k": k,
            "A": positive_symmetric_unit_radius(rng, m),
            "denom": _denominators(rng, m, k, 0.5, 1.5),
        },
        "run": {"horizon": 2000 if tiny else 100_000},
        "init": {
            "seed": "explicit",
            "history": [[rng.uniform(0.0, 10.0) for _ in range(m)] for _ in range(k)],
        },
    }
    out_path = "trajectory.csv"
    return Job(
        config=config,
        command="simulate",
        out_name=out_path,
        output_file=out_path,
        check=partial(check_simulate, config=config, out_path=out_path),
    )


WORKLOADS: Dict[str, Callable[..., Job]] = {
    "verify-m16k4": make_verify,
    "sweep-m2-tetra": make_sweep,
    "simulate-m2-long": make_simulate,
}


def write_config(job: Job, path: str) -> None:
    """Write the config as YAML; floats keep all 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(job.config, fh, sort_keys=False)
