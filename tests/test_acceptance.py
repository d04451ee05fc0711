"""Acceptance suite: one test per criterion, each at its stated tolerance.

Shared fixtures hold the expensive radius-1 runs so the later criteria
(shift-residual checks, envelope/domination grids) reuse them instead of
re-simulating.  Each test prints one summary line; `pytest -v` adds the
per-criterion pass/fail status.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    oracle_step_from_spec,
    random_init,
    random_spec,
    rank_one_unit,
    symmetric_nonneg_with_rho,
    symmetric_positive_with_rho,
    symmetric_signed_with_rho,
)

from ratsys import (
    CONVERGES_TO_ZERO,
    EVENTUALLY_PERIODIC,
    PERIOD_2K,
    PERIOD_K,
    UNBOUNDED_EXISTS,
    SystemSpec,
    analyze,
    check_fact1,
    check_fact2,
    classify_trichotomy,
    construct_period2k_seed,
    construct_unbounded_seed,
    detect_zero_limit,
    domination_check,
    envelope_check,
    perron_pair,
    residual_linear,
    residual_shift,
    simulate,
    step,
)
from ratsys.analysis import residue_limits
from ratsys.cli import main

HORIZON_LONG = 10_000


def tail_max(seq, fraction=0.2):
    n = max(int(len(seq) * fraction), 1)
    return float(np.max(seq[-n:])) if len(seq) else 0.0


def max_shift_residual(traj, shift):
    gen = traj.generated
    return float(np.abs(gen[shift:] - gen[:-shift]).max())


@pytest.fixture(scope="module")
def decay_runs():
    """Criterion 1 runs: 50 contracting systems, horizon 500."""
    rng = np.random.default_rng(101)
    runs = []
    start = time.monotonic()
    for i in range(50):
        m = 2 if i % 2 == 0 else 3
        rho = float(rng.uniform(0.2, 0.9))
        spec = random_spec(rng, m, 2, rho)
        runs.append((spec, simulate(spec, random_init(rng, 2, m), 500)))
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def unit_radius_runs():
    """Criterion 2 runs: 20 radius-1 systems (half rank-one), horizon 1e4."""
    rng = np.random.default_rng(202)
    runs = []
    start = time.monotonic()
    for i in range(20):
        m = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        a = rank_one_unit(rng, m) if i % 2 == 0 else symmetric_nonneg_with_rho(rng, m, 1.0)
        spec = SystemSpec(k=k, A=a, denom=rng.uniform(0.5, 1.5, (m, k - 1, m)))
        runs.append((spec, simulate(spec, random_init(rng, k, m), HORIZON_LONG)))
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def trichotomy_runs():
    """Criterion 4 runs: positive kernels at radius 1 for m = 2, 3, 4."""
    rng = np.random.default_rng(404)
    data = []
    for m, k in [(2, 2), (3, 3), (4, 4)]:
        a = symmetric_positive_with_rho(rng, m, 1.0)
        spec = SystemSpec(k=k, A=a, denom=rng.uniform(0.5, 1.5, (m, k - 1, m)))
        _, w = perron_pair(spec.A)
        random_runs = []
        for _ in range(20):
            traj = simulate(spec, random_init(rng, k, m), HORIZON_LONG)
            random_runs.append((traj, analyze(traj, spec)))
        cls = classify_trichotomy(spec)
        witness_traj = simulate(spec, cls.witness, HORIZON_LONG)
        data.append(
            dict(spec=spec, m=m, k=k, perron=w, runs=random_runs, witness=witness_traj)
        )
    return data


@pytest.fixture(scope="module")
def case3_witness_run():
    """Criterion 5/6 shared run: the anti-diagonal kernel with seed (1, 0)."""
    spec = SystemSpec(
        k=2, A=[[0.0, 1.0], [1.0, 0.0]], denom=np.full((2, 1, 2), 0.3)
    )
    seed = construct_period2k_seed(spec, 1.0, 0.0)
    return spec, simulate(spec, seed, HORIZON_LONG)


def test_criterion_1_decay_to_zero(decay_runs):
    runs, sim_elapsed = decay_runs
    start = time.monotonic()
    for spec, traj in runs:
        assert detect_zero_limit(traj, 1e-8), f"no decay for k={spec.k}, m={spec.m}"
    elapsed = sim_elapsed + (time.monotonic() - start)
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 decay to zero (50 runs, {elapsed:.2f}s): PASS")


def test_criterion_2_linear_residual(unit_radius_runs):
    runs, sim_elapsed = unit_radius_runs
    start = time.monotonic()
    worst = 0.0
    for spec, traj in runs:
        worst = max(worst, tail_max(residual_linear(traj, spec.A)))
    elapsed = sim_elapsed + (time.monotonic() - start)
    assert worst <= 1e-6, f"linear residual tail {worst:.2e}"
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 linear residual (tail max {worst:.1e}, {elapsed:.2f}s): PASS")


def test_criterion_3_unbounded_witness():
    rng = np.random.default_rng(303)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        rho = float(rng.uniform(1.1, 3.0))
        spec = random_spec(rng, m, k, rho)
        seed = construct_unbounded_seed(spec)
        budget = math.ceil(k * math.log(1e6) / math.log(rho)) + 2 * k
        traj = simulate(spec, seed, budget)
        with np.errstate(over="ignore"):
            norms = np.sqrt((traj.generated ** 2).sum(axis=1))
        assert traj.diverged_at is not None or norms.max() > 1e6, (
            f"no growth past 1e6 within {budget} steps (rho={rho:.3f}, k={k})"
        )
    print("\nACCEPTANCE 3 unbounded witness (20 runs inside growth budget): PASS")


def test_criterion_4_trichotomy(trichotomy_runs):
    for entry in trichotomy_runs:
        spec, k, w = entry["spec"], entry["k"], entry["perron"]
        # (a) every random run is eventually periodic with period dividing k
        for traj, report in entry["runs"]:
            assert report.behavior == EVENTUALLY_PERIODIC, report.behavior
            assert k % report.period == 0, (k, report.period)
            # (b) residue-class limits align with the Perron vector
            for limit in residue_limits(traj, report.period):
                norm = float(np.linalg.norm(limit))
                if norm <= 1e-8:
                    continue  # zero limit: the zero multiple of the Perron vector
                angle = math.acos(min(float(limit @ w) / norm, 1.0))
                assert angle <= 1e-4, f"angle {angle:.2e}"
        # (c) the witness has prime period exactly k
        witness = entry["witness"]
        assert max_shift_residual(witness, k) <= 1e-12
        assert min(max_shift_residual(witness, s) for s in range(1, k)) > 0.1
    # (d) above radius 1 every component of the witness grows past 1e3
    rng = np.random.default_rng(505)
    for m, k in [(2, 2), (3, 3), (4, 4)]:
        rho = float(rng.uniform(1.2, 2.0))
        a = symmetric_positive_with_rho(rng, m, rho)
        spec = SystemSpec(k=k, A=a, denom=rng.uniform(0.5, 1.5, (m, k - 1, m)))
        cls = classify_trichotomy(spec)
        assert cls.regime == UNBOUNDED_EXISTS
        budget = math.ceil(k * math.log(1e6) / math.log(rho)) + 2 * k
        traj = simulate(spec, cls.witness, budget)
        assert (traj.generated.max(axis=0) > 1e3).all(), "a component stayed small"
    print("\nACCEPTANCE 4 trichotomy a-d (m in {2,3,4}): PASS")


SWEEP_CONF = """
mode: tetrachotomy
rng_seed: 55
system:
  k: 2
  A: [[0.5, 0.5], [0.5, 0.5]]
  denom:
    - {i: 1, j: 1, q: [0.25, 0.25]}
    - {i: 2, j: 1, q: [0.25, 0.25]}
run:
  horizon: 2000
  trials: 6
sweep:
  c: [0.5, 1.0, 1.5]
"""

CASE3_CONF = """
mode: tetrachotomy
rng_seed: 56
system:
  k: 2
  A: [[0.0, 1.0], [1.0, 0.0]]
  denom:
    - {i: 1, j: 1, q: [0.3, 0.3]}
    - {i: 2, j: 1, q: [0.3, 0.3]}
run:
  horizon: 2000
  trials: 6
sweep:
  c: [1.0]
"""


def test_criterion_5_tetrachotomy_sweep(tmp_path, case3_witness_run):
    conf = tmp_path / "sweep.yaml"
    conf.write_text(SWEEP_CONF)
    out = tmp_path / "grid"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert [r[2] for r in rows] == [CONVERGES_TO_ZERO, PERIOD_K, UNBOUNDED_EXISTS]
    assert all(r[3] == "true" for r in rows)

    conf3 = tmp_path / "case3.yaml"
    conf3.write_text(CASE3_CONF)
    out3 = tmp_path / "grid3"
    assert main(["sweep", "--config", str(conf3), "--out", str(out3)]) == 0
    rows3 = [r.split(",") for r in (out3 / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert rows3[0][2] == PERIOD_2K and rows3[0][3] == "true" and rows3[0][4] == "4"

    assert main(["verify", "--config", str(conf3)]) == 0

    _, witness = case3_witness_run
    assert max_shift_residual(witness, 4) <= 1e-12
    assert max_shift_residual(witness, 2) > 0.1
    print("\nACCEPTANCE 5 tetrachotomy sweep (T4-I/II/IV + case III 2k): PASS")


def test_criterion_6_shift_residuals(trichotomy_runs, case3_witness_run):
    for entry in trichotomy_runs:
        k = entry["k"]
        for traj, _ in entry["runs"]:
            assert tail_max(residual_shift(traj, k)) <= 1e-6
    spec3, witness = case3_witness_run
    assert tail_max(residual_shift(witness, 2 * spec3.k)) <= 1e-6
    assert tail_max(residual_shift(witness, spec3.k)) > 1e-2
    print("\nACCEPTANCE 6 shift residuals (period-k tails and case III): PASS")


def test_criterion_7_proof_machinery(decay_runs, unit_radius_runs, trichotomy_runs):
    runs = list(decay_runs[0]) + list(unit_radius_runs[0])
    for entry in trichotomy_runs:
        runs.extend((entry["spec"], traj) for traj, _ in entry["runs"])
        runs.append((entry["spec"], entry["witness"]))
    for spec, traj in runs:
        assert envelope_check(traj, spec.A)
        for q in (0, 1, 2):
            for el in (0, 1, 2, 3):
                assert domination_check(traj, spec.A, el, q), (q, el)

    rng = np.random.default_rng(707)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        a = symmetric_signed_with_rho(rng, m, 1.0)
        lams, vecs = np.linalg.eigh(a)
        big_l = int(rng.integers(1, 7))
        if rng.uniform() < 0.5:
            unit = np.abs(np.abs(lams) - 1.0) <= 1e-12
            v = vecs[:, unit] @ rng.uniform(0.5, 1.5, int(unit.sum()))
            expect_equal = True
        else:
            v = rng.uniform(0.5, 1.5, m)
            small = vecs[:, np.abs(lams) < 1.0 - 1e-6]
            expect_equal = float(np.linalg.norm(small.T @ v)) <= 1e-10
        ok, equal = check_fact1(a, v, big_l)
        assert ok and equal == expect_equal

    for _ in range(100):
        m = int(rng.integers(2, 5))
        a = symmetric_signed_with_rho(rng, m, float(rng.uniform(1.5, 3.0)))
        _, vecs = np.linalg.eigh(a)
        coeffs = rng.uniform(0.3, 1.0, m) * rng.choice([-1.0, 1.0], m)
        v = vecs @ coeffs
        assert check_fact2(a, v, 1e6, 64)
    print("\nACCEPTANCE 7 proof machinery (envelope, domination, facts): PASS")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 10_000:
        k = int(rng.integers(2, 6))
        spec = SystemSpec(
            k=k,
            A=rng.uniform(0.0, 2.0, (2, 2)),
            denom=rng.uniform(0.0, 1.5, (2, k - 1, 2)),
        )
        for _ in range(50):
            window = rng.uniform(0.0, 10.0, (k, 2))
            got = step(spec, window)
            want = oracle_step_from_spec(spec, window)
            assert float(got[0]) == want[0] and float(got[1]) == want[1]
            checked += 1
    print(f"\nACCEPTANCE 8 oracle equivalence ({checked} steps, 0 ulp): PASS")


def test_criterion_9_determinism(tmp_path):
    conf = tmp_path / "sweep.yaml"
    conf.write_text(SWEEP_CONF)
    pairs = []
    for tag in ("one", "two"):
        out = tmp_path / f"grid_{tag}"
        assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
        pairs.append((out / "sweep.csv").read_bytes())
    assert pairs[0] == pairs[1]

    sim_conf = tmp_path / "sim.yaml"
    sim_conf.write_text(
        SWEEP_CONF.replace("sweep:\n  c: [0.5, 1.0, 1.5]\n", "init:\n  seed: periodic\n")
    )
    csvs = []
    for tag in ("one", "two"):
        out = tmp_path / f"traj_{tag}.csv"
        assert main(["simulate", "--config", str(sim_conf), "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]

    reports = []
    for tag in ("one", "two"):
        out = tmp_path / f"verify_{tag}.txt"
        assert main(["verify", "--config", str(sim_conf), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    print("\nACCEPTANCE 9 determinism (byte-identical CSV and reports): PASS")
