"""Behavior detection, residual sequences, and proof-machinery inequalities."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    domination_check,
    envelope_check,
    random_init,
    random_spec,
    residue_limits,
    symmetric_positive_with_rho,
    row_at,
    zero_init,
)

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
    perron_pair,
    residual_linear,
    residual_shift,
    simulate,
)
from ratsys.analysis import _window
from ratsys.model import EXACT_CYCLE, Trajectory


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
        traj = simulate(spec, zero_init(2, 2), 50)
        assert detect_zero_limit(traj, 1e-8)


class TestDetectPeriod:
    def test_periodic_witness_has_period_k(self):
        spec = SystemSpec(k=3, A=symmetric_positive_with_rho(np.random.default_rng(3), 2, 1.0))
        traj = simulate(spec, construct_periodic_seed(spec), 600)
        assert detect_period(traj, per_tol=1e-7) == 3

    def test_case3_witness_has_period_2k(self, case3_run):
        _, traj = case3_run
        assert detect_period(traj, per_tol=1e-7) == 4

    def test_constant_trajectory_period_one(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        traj = simulate(spec, InitialConditions(np.ones((2, 2))), 100)
        assert detect_period(traj, per_tol=1e-7) == 1

    def test_no_period_returns_none(self):
        spec = SystemSpec(k=2, A=[[0.9, 0.0], [0.0, 0.2]])
        init = InitialConditions(np.array([[5.0, 1.0], [4.0, 1.0]]))
        traj = simulate(spec, init, 60)
        assert detect_period(traj, per_tol=1e-9) is None

    def test_run_shorter_than_2k_has_no_window(self):
        spec = SystemSpec(k=3, A=np.eye(2))
        for horizon in (1, 5):
            traj = simulate(spec, InitialConditions(np.ones((3, 2))), horizon)
            assert detect_period(traj, per_tol=1e-7) is None
        assert detect_period(simulate(spec, InitialConditions(np.ones((3, 2))), 6), 1e-7) == 1

    def test_detection_stable_under_half_window(self, positive_unit_run):
        # the run cut at half its horizon has a window half as wide
        spec, traj = positive_unit_run
        half = Trajectory(spec=spec, values=traj.rows(traj.n_first, traj.horizon // 2))
        assert detect_period(traj, 1e-7) == detect_period(half, 1e-7)


def float_window(horizon, k):
    """The reference: the tail window as a float formula, 20% of the horizon in blocks of 2k."""
    blocks = max(math.ceil(0.2 * horizon / (2 * k)), 10)
    return min(blocks, horizon // (2 * k))


class TestWindow:
    def test_integer_rule_matches_the_float_formula(self):
        for k in range(2, 9):
            assert [_window(h, k) for h in range(1, 10**5 + 1)] == [
                float_window(h, k) for h in range(1, 10**5 + 1)]

    def test_integer_rule_matches_the_float_formula_on_large_horizons(self):
        # log-uniform horizons up to 1e15, and each one's nearest multiples of
        # 10k and their neighbours, where the ceiling steps
        rng = random.Random(0)
        for _ in range(20_000):
            k = rng.randint(2, 64)
            h = int(10 ** rng.uniform(5.0, 15.0))
            step = 10 * k
            for horizon in (h, h - h % step - 1, h - h % step, h - h % step + 1):
                assert _window(horizon, k) == float_window(horizon, k), (horizon, k)


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

    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_crossing_found_in_any_block(self, m):
        # the norms are taken a block of rows at a time; the first crossing
        # is the whole run's, before, at and past each block's edge
        block = max(1, 8192 // m)
        spec = SystemSpec(k=2, A=np.eye(m))
        for n in (1, block - 1, block, block + 1, 2 * block + 5, 3 * block):
            values = np.zeros((2 + 3 * block, m))
            values[1 + n] = 1.0  # v_n
            values[1 + n + 7 :: 5] = 2.0  # later crossings only
            traj = Trajectory(spec=spec, values=values)
            assert detect_unbounded(traj, 0.5) == n
        assert detect_unbounded(traj, 2.5 * math.sqrt(m)) is None

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
        r = residual_linear(traj)
        assert r.shape == (100,)
        assert (r == 0.0).all()

    def test_unit_radius_tail_vanishes(self, positive_unit_run):
        _, traj = positive_unit_run
        assert tail_max(residual_linear(traj)) <= 1e-6

    def test_contracting_tail_vanishes(self, contracting_run):
        _, traj = contracting_run
        assert tail_max(residual_linear(traj)) <= 1e-8


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
        traj = simulate(spec, zero_init(2, 2), 20)
        assert envelope_check(traj, spec.A)

    def test_rejects_expanding_kernel(self):
        spec = SystemSpec(k=2, A=2.0 * np.eye(2))
        traj = simulate(spec, zero_init(2, 2), 20)
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
        traj = simulate(spec, zero_init(2, 2), 3)
        with pytest.raises(ValueError, match="kL"):
            domination_check(traj, spec.A, 5, 0)


class TestTolerances:
    @pytest.mark.parametrize("field, value", [
        ("zero_tol", math.nan), ("zero_tol", math.inf), ("zero_tol", -1.0),
        ("per_tol", math.nan), ("per_tol", math.inf), ("per_tol", -1e-9),
        ("growth_threshold", math.nan), ("growth_threshold", math.inf),
        ("growth_threshold", 0.0), ("growth_threshold", -1.0),
        ("zero_tol", -math.inf), ("per_tol", -math.inf),
        ("rho_tol", math.nan), ("rho_tol", math.inf), ("rho_tol", -1.0),
        ("growth_threshold", -math.inf), ("rho_tol", -math.inf), ("zero_tol", -5e-324),
        ("rho_tol", "1e-9"),
        ("growth_threshold", True), ("zero_tol", False), ("zero_tol", "x"), ("per_tol", None),
        ("rho_tol", np.bool_(True)), ("growth_threshold", "1e6"), ("zero_tol", 1j),
    ])
    def test_bad_value_is_refused_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*, got {re.escape(repr(value))}$"):
            Tolerances(**{field: value})

    def test_bools_are_no_numbers(self):
        # True and False were built as a growth threshold of 1 and a zero tolerance of 0
        with pytest.raises(ValueError, match="^zero_tol must be a real number, got False$"):
            Tolerances(growth_threshold=True, zero_tol=False)

    def test_real_values_of_any_type_are_kept(self):
        tol = Tolerances(zero_tol=np.float64(1e-9), per_tol=0, growth_threshold=np.int64(10),
                         rho_tol=Fraction(1, 8))
        kept = (tol.zero_tol, tol.per_tol, tol.growth_threshold, tol.rho_tol)
        assert kept == (1e-9, 0, 10, 0.125)

    def test_edge_values_are_kept(self):
        tol = Tolerances(zero_tol=0.0, per_tol=0.0, growth_threshold=5e-324)
        assert (tol.zero_tol, tol.per_tol, tol.growth_threshold) == (0.0, 0.0, 5e-324)


class TestAnalyze:
    def test_contracting_reports_zero(self, contracting_run):
        spec, traj = contracting_run
        report = analyze(traj)
        assert report.behavior == CONVERGED_TO_ZERO

    def test_unit_radius_reports_period_dividing_k(self, positive_unit_run):
        spec, traj = positive_unit_run
        report = analyze(traj)
        assert report.behavior == EVENTUALLY_PERIODIC
        assert spec.k % report.period == 0
        assert residue_limits(traj, report.period).shape == (report.period, spec.m)

    def test_unbounded_seed_reported(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 1.0))
        traj = simulate(spec, construct_unbounded_seed(spec), 100)
        report = analyze(traj)
        assert report.behavior == UNBOUNDED
        assert report.exit_step is not None

    def test_undetermined_when_horizon_too_short(self):
        # radius 1 with slow transient: 60 steps cannot resolve the tail
        rng = np.random.default_rng(97)
        spec = random_spec(rng, 2, 2, 1.0, positive=True, denom_range=(0.01, 0.02))
        traj = simulate(spec, random_init(rng, 2, 2), 60)
        report = analyze(traj, Tolerances(per_tol=1e-12))
        assert report.behavior == UNDETERMINED

    def test_residue_limits_follow_perron_direction(self, positive_unit_run):
        spec, traj = positive_unit_run
        report = analyze(traj)
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
                    rows = np.array([row_at(traj, n) for n in ns])
                    np.testing.assert_array_equal(limits[a], rows.mean(axis=0))


def _m3_orbit():
    """A positive symmetric 3 x 3 kernel at rho = 1, k = 3: an exact cycle found at step 2368."""
    rng = np.random.default_rng(3)
    spec = SystemSpec(k=3, A=symmetric_positive_with_rho(rng, 3, 1.0), denom=np.full((3, 2, 3), 0.5))
    return spec, rng.uniform(0.0, 5.0, (3, 3))


#: name -> (spec, history, horizon, last stored step) of runs that end in an exact cycle
STORED_ONCE = {
    # v_n = v_{n-2}: period 2 = k from the start, found in the first block
    "m1-first-block": (SystemSpec(k=2, A=[[1.0]]), [[1.0], [2.0]], 5000, 64),
    # v_n = 0.5 v_{n-2} / (1 + 0.5 v_{n-1}) reaches an exact 0; found in the
    # last block checked, with one step not stored
    "m1-last-block": (SystemSpec(k=2, A=[[0.5]], denom=[[[0.5]]]), [[1.0], [2.0]], 2177, 2176),
    # settles in an exact period-2 cycle; analyze's tail window (n = 801 ..)
    # starts before the stored end
    "m2-tail-window": (SystemSpec(k=2, A=[[0.3, 0.7], [0.7, 0.3]], denom=np.full((2, 1, 2), 0.8)),
                       [[3.0, 0.5], [1.0, 7.0]], 1000, 960),
    # v_{n+2} = (2 y, x / 2) for v_n = (x, y): period 2k from the start, and
    # the last k rows of the run (n = 1001, 1002) have max 2 where the last
    # stored ones (n = 63, 64) have max 1
    "m2-period-2k": (SystemSpec(k=2, A=[[0.0, 2.0], [0.5, 0.0]]), np.ones((2, 2)), 1002, 64),
    # the identity: period k = 3 from the start, found in the first block
    "m3-first-block": (SystemSpec(k=3, A=np.eye(3)), np.arange(9.0).reshape(3, 3), 700, 64),
    # found in the last block checked; the final block of 64 steps is not stored
    "m3-last-block": (*_m3_orbit(), 2432, 2368),
}


@pytest.mark.parametrize("name", list(STORED_ONCE))
def test_cycled_runs_read_like_their_expanded_twins(name):
    # A cycled run stores its rows once, up to its cycle; each reader must
    # see the whole run.  Its twin stores every row and ends by "horizon".
    spec, history, horizon, stored = STORED_ONCE[name]
    k = spec.k
    traj = simulate(spec, InitialConditions(history), horizon)
    assert traj.end == (EXACT_CYCLE, horizon) and len(traj.values) == k + stored
    twin = Trajectory(spec=spec, values=traj.rows(traj.n_first, horizon))
    assert twin.end == ("horizon", horizon) and len(twin.values) == k + horizon

    def same(read):
        got, want = read(traj), read(twin)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and (got.view(np.uint64) == want.view(np.uint64)).all()
        else:
            assert got == want

    for tol in (Tolerances(), Tolerances(per_tol=0.0),
                Tolerances(zero_tol=0.0, growth_threshold=1.5)):
        same(lambda t: analyze(t, tol))
    for zero_tol in (1e-8, 0.0, 1.5, 3.0):
        same(lambda t: detect_zero_limit(t, zero_tol))
    for threshold in (1e6, 1.5, 1e-3):
        same(lambda t: detect_unbounded(t, threshold))
    for per_tol in (1e-7, 0.0):
        same(lambda t: detect_period(t, per_tol))
    # reads that start past the stored end, just before it, and at the first row
    for first in (stored + 1, stored - 1, traj.n_first):
        same(lambda t: t.rows(first, horizon))
    for p in range(1, 2 * k + 2):
        same(lambda t: residual_shift(t, p))
        same(lambda t: residue_limits(t, p))
    same(residual_linear)
    if (spec.A == spec.A.T).all():  # the envelope chain needs a symmetric kernel
        same(lambda t: envelope_check(t, spec.A))
    for power_l in range(3):
        for q in range(3):
            same(lambda t: domination_check(t, spec.A, power_l, q))
