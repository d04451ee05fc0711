"""Behavior detection, residual sequences, and proof-machinery inequalities."""

import math

import numpy as np
import pytest

from conftest import random_init, random_spec, symmetric_positive_with_rho

from ratsys import (
    CONVERGED_TO_ZERO,
    EVENTUALLY_PERIODIC,
    UNBOUNDED,
    UNDETERMINED,
    InitialConditions,
    SystemSpec,
    Tolerances,
    analyze,
    construct_period2k_seed,
    construct_periodic_seed,
    construct_unbounded_seed,
    detect_period,
    detect_unbounded,
    detect_zero_limit,
    domination_check,
    envelope_check,
    perron_pair,
    residual_linear,
    residual_shift,
    simulate,
)
from ratsys.analysis import residue_limits


def tail_max(seq, fraction=0.2):
    n = max(int(len(seq) * fraction), 1)
    return float(np.max(seq[-n:]))


@pytest.fixture(scope="module")
def contracting_run():
    rng = np.random.default_rng(71)
    spec = SystemSpec(
        k=2, A=[[0.3, 0.2], [0.2, 0.3]], denom=rng.uniform(0.2, 0.8, (2, 1, 2))
    )
    return spec, simulate(spec, random_init(rng, 2, 2), 200)


@pytest.fixture(scope="module")
def positive_unit_run():
    rng = np.random.default_rng(73)
    spec = random_spec(rng, 3, 3, 1.0, positive=True)
    return spec, simulate(spec, random_init(rng, 3, 3), 10_000)


@pytest.fixture(scope="module")
def case3_run():
    spec = SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]], denom=np.full((2, 1, 2), 0.3))
    seed = construct_period2k_seed(spec, 1.0, 0.0)
    return spec, simulate(spec, seed, 2000)


class TestDetectZeroLimit:
    def test_contracting_run(self, contracting_run):
        _, traj = contracting_run
        assert detect_zero_limit(traj, 1e-8)

    def test_constant_solution(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        traj = simulate(spec, InitialConditions(np.ones((2, 2))), 50)
        assert not detect_zero_limit(traj, 1e-8)

    def test_zero_trajectory(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        traj = simulate(spec, InitialConditions.zeros(2, 2), 50)
        assert detect_zero_limit(traj, 1e-8)


class TestDetectPeriod:
    def test_periodic_witness_has_period_k(self):
        spec = SystemSpec(k=3, A=symmetric_positive_with_rho(np.random.default_rng(3), 2, 1.0))
        traj = simulate(spec, construct_periodic_seed(spec), 600)
        assert detect_period(traj, max_period=6, per_tol=1e-7, window=10) == 3

    def test_case3_witness_has_period_2k(self, case3_run):
        _, traj = case3_run
        assert detect_period(traj, max_period=4, per_tol=1e-7, window=10) == 4

    def test_constant_trajectory_period_one(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        traj = simulate(spec, InitialConditions(np.ones((2, 2))), 100)
        assert detect_period(traj, max_period=4, per_tol=1e-7, window=5) == 1

    def test_no_period_returns_none(self):
        spec = SystemSpec(k=2, A=[[0.9, 0.0], [0.0, 0.2]])
        init = InitialConditions(np.array([[5.0, 1.0], [4.0, 1.0]]))
        traj = simulate(spec, init, 60)
        assert detect_period(traj, max_period=4, per_tol=1e-9, window=3) is None

    def test_window_must_fit(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        traj = simulate(spec, InitialConditions.zeros(2, 2), 10)
        with pytest.raises(ValueError, match="horizon"):
            detect_period(traj, max_period=4, per_tol=1e-7, window=5)

    def test_detection_stable_under_half_window(self, positive_unit_run):
        spec, traj = positive_unit_run
        p = detect_period(traj, 2 * spec.k, 1e-7, 20)
        assert p == detect_period(traj, 2 * spec.k, 1e-7, 10)


class TestDetectUnbounded:
    def test_unbounded_seed_exits_fast(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 1.0))
        traj = simulate(spec, construct_unbounded_seed(spec), 100)
        n = detect_unbounded(traj, 1e6)
        assert n is not None and n <= 60

    def test_contracting_run_is_bounded(self, contracting_run):
        _, traj = contracting_run
        assert detect_unbounded(traj, 1e6) is None

    def test_unit_radius_positive_is_bounded(self, positive_unit_run):
        _, traj = positive_unit_run
        assert detect_unbounded(traj, 1e6) is None

    def test_reports_diverged_step(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 4.0))
        traj = simulate(spec, construct_unbounded_seed(spec), 3000)
        assert traj.diverged_at is not None
        assert detect_unbounded(traj, 1e400) == traj.diverged_at


class TestResidualLinear:
    def test_denominator_free_is_exactly_zero(self):
        rng = np.random.default_rng(83)
        spec = SystemSpec(k=3, A=rng.uniform(0.0, 1.0, (2, 2)))
        traj = simulate(spec, random_init(rng, 3, 2), 100)
        r = residual_linear(traj, spec.A)
        assert r.shape == (100,)
        assert (r == 0.0).all()

    def test_unit_radius_tail_vanishes(self, positive_unit_run):
        spec, traj = positive_unit_run
        assert tail_max(residual_linear(traj, spec.A)) <= 1e-6

    def test_contracting_tail_vanishes(self, contracting_run):
        spec, traj = contracting_run
        assert tail_max(residual_linear(traj, spec.A)) <= 1e-8

    def test_dimension_mismatch(self, contracting_run):
        _, traj = contracting_run
        with pytest.raises(ValueError, match="dimension"):
            residual_linear(traj, np.eye(3))


class TestResidualShift:
    def test_exactly_periodic(self, case3_run):
        _, traj = case3_run
        assert (residual_shift(traj, 4) == 0.0).all()

    def test_unit_radius_shift_k(self, positive_unit_run):
        spec, traj = positive_unit_run
        assert tail_max(residual_shift(traj, spec.k)) <= 1e-6

    def test_case3_shift_k_does_not_vanish(self, case3_run):
        spec, traj = case3_run
        assert tail_max(residual_shift(traj, spec.k)) > 1e-2
        assert tail_max(residual_shift(traj, 2 * spec.k)) <= 1e-6

    def test_rejects_nonpositive_shift(self, case3_run):
        _, traj = case3_run
        with pytest.raises(ValueError, match="shift"):
            residual_shift(traj, 0)


class TestEnvelopeCheck:
    def test_holds_on_unit_radius_run(self, positive_unit_run):
        spec, traj = positive_unit_run
        assert envelope_check(traj, spec.A)

    def test_holds_on_contracting_run(self, contracting_run):
        spec, traj = contracting_run
        assert envelope_check(traj, spec.A)

    def test_zero_trajectory(self):
        spec = SystemSpec(k=2, A=0.5 * np.eye(2))
        traj = simulate(spec, InitialConditions.zeros(2, 2), 20)
        assert envelope_check(traj, spec.A)

    def test_rejects_expanding_kernel(self):
        spec = SystemSpec(k=2, A=2.0 * np.eye(2))
        traj = simulate(spec, InitialConditions.zeros(2, 2), 20)
        with pytest.raises(ValueError, match="radius"):
            envelope_check(traj, spec.A)


class TestDominationCheck:
    def test_reflexive(self, positive_unit_run):
        spec, traj = positive_unit_run
        assert domination_check(traj, spec.A, 0, 0)

    def test_single_step(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            spec = random_spec(rng, m, k, float(rng.uniform(0.3, 1.2)))
            traj = simulate(spec, random_init(rng, k, m), 100)
            assert domination_check(traj, spec.A, 1, 0)

    def test_grid_on_unit_radius(self, positive_unit_run):
        spec, traj = positive_unit_run
        for q in (0, 1, 2):
            for el in (0, 1, 2, 3):
                assert domination_check(traj, spec.A, el, q)

    def test_empty_range_rejected(self):
        spec = SystemSpec(k=2, A=0.5 * np.eye(2))
        traj = simulate(spec, InitialConditions.zeros(2, 2), 3)
        with pytest.raises(ValueError, match="kL"):
            domination_check(traj, spec.A, 5, 0)


class TestAnalyze:
    def test_contracting_reports_zero(self, contracting_run):
        spec, traj = contracting_run
        report = analyze(traj, spec)
        assert report.behavior == CONVERGED_TO_ZERO

    def test_unit_radius_reports_period_dividing_k(self, positive_unit_run):
        spec, traj = positive_unit_run
        report = analyze(traj, spec)
        assert report.behavior == EVENTUALLY_PERIODIC
        assert spec.k % report.period == 0
        assert residue_limits(traj, report.period).shape == (report.period, spec.m)

    def test_unbounded_seed_reported(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 1.0))
        traj = simulate(spec, construct_unbounded_seed(spec), 100)
        report = analyze(traj, spec)
        assert report.behavior == UNBOUNDED
        assert report.exit_step is not None

    def test_undetermined_when_horizon_too_short(self):
        # radius 1 with slow transient: 60 steps cannot resolve the tail
        rng = np.random.default_rng(97)
        spec = random_spec(rng, 2, 2, 1.0, positive=True, denom_range=(0.01, 0.02))
        traj = simulate(spec, random_init(rng, 2, 2), 60)
        report = analyze(traj, spec, Tolerances(per_tol=1e-12))
        assert report.behavior == UNDETERMINED

    def test_residue_limits_follow_perron_direction(self, positive_unit_run):
        spec, traj = positive_unit_run
        report = analyze(traj, spec)
        _, w = perron_pair(spec.A)
        for limit in residue_limits(traj, report.period):
            norm = float(np.linalg.norm(limit))
            if norm <= 1e-8:
                continue
            cosine = float(limit @ w) / norm
            assert math.acos(min(cosine, 1.0)) <= 1e-4

    def test_residue_limits_match_scan_of_each_class(self):
        # Reference: the last ten n in 1..horizon with n = a mod p, in order.
        # Horizons that are not multiples of p leave the classes unequal.
        rng = np.random.default_rng(101)
        for m, k, horizon in ((1, 2, 37), (2, 3, 50), (3, 4, 61), (5, 2, 23)):
            spec = random_spec(rng, m, k, 1.0)
            traj = simulate(spec, random_init(rng, k, m), horizon)
            for p in range(1, 2 * k + 1):
                limits = residue_limits(traj, p)
                for a in range(p):
                    ns = [n for n in range(1, horizon + 1) if n % p == a][-10:]
                    rows = traj.values[[traj.index(n) for n in ns]]
                    np.testing.assert_array_equal(limits[a], rows.mean(axis=0))
