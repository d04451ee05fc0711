"""Regime prediction, tolerance policy, and the predict/observe loop."""

import numpy as np
import pytest

from conftest import count_blocks, symmetric_positive_with_rho

from ratsys import (
    BoundaryAmbiguous,
    CONVERGES_TO_ZERO,
    PERIOD_2K,
    PERIOD_K,
    UNBOUNDED_EXISTS,
    SystemSpec,
    Tolerances,
    classify_tetrachotomy,
    classify_trichotomy,
    construct_period2k_seed,
    construct_periodic_seed,
    perron_pair,
    regime_from_spectrum,
    simulate,
    simulate_batch,
    verify_classification,
)
from ratsys.analysis import (
    CONVERGED_TO_ZERO,
    EVENTUALLY_PERIODIC,
    UNBOUNDED,
    UNDETERMINED,
    AnalysisReport,
)
from ratsys.classifier import FAIL, INFO, PASS, _check_status
from ratsys.linalg import RHO_TOL

HALF = np.array([[0.5, 0.5], [0.5, 0.5]])
#: Nonsymmetric kernel with radius 1 and Perron vector (2, 1) / sqrt(5).
SKEW = np.array([[0.5, 1.0], [0.25, 0.5]])


class TestTetrachotomy:
    def test_contracting(self):
        cls = classify_tetrachotomy(SystemSpec(k=2, A=[[0.3, 0.2], [0.2, 0.3]]))
        assert cls.regime == CONVERGES_TO_ZERO
        assert cls.theorem_path == "T4-I"
        assert cls.witness is None

    def test_permutation_is_period_2k(self):
        cls = classify_tetrachotomy(SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]]))
        assert cls.regime == PERIOD_2K
        assert cls.theorem_path == "T4-III"
        np.testing.assert_array_equal(cls.witness.history[0], [1.0, 0.0])

    def test_rank_one_unit_is_period_k(self):
        cls = classify_tetrachotomy(SystemSpec(k=2, A=HALF))
        assert cls.regime == PERIOD_K
        assert cls.theorem_path == "T4-II"
        assert cls.witness is not None

    def test_all_ones_unbounded(self):
        cls = classify_tetrachotomy(SystemSpec(k=2, A=np.full((2, 2), 1.0)))
        assert cls.regime == UNBOUNDED_EXISTS
        assert cls.theorem_path == "T4-IV"
        assert cls.witness is not None

    def test_nonsymmetric_case3_form(self):
        cls = classify_tetrachotomy(SystemSpec(k=2, A=[[0.0, 2.0], [0.5, 0.0]]))
        assert cls.regime == PERIOD_2K
        np.testing.assert_allclose(cls.spectrum.eigenvalues, [1.0, -1.0])

    def test_case3_spectrum_is_the_kernels(self):
        a = np.array([[0.0, 2.0], [0.5000005, 0.0]])
        cls = classify_tetrachotomy(SystemSpec(k=2, A=a), rho_tol=1e-6)
        assert cls.regime == PERIOD_2K
        rho = float(np.abs(np.linalg.eigvals(a)).max())
        assert cls.spectrum.spectral_radius == pytest.approx(rho, rel=1e-15, abs=0)
        s = cls.spectrum.spectral_radius
        np.testing.assert_array_equal(cls.spectrum.eigenvalues, [s, -s])
        assert cls.spectrum.residual(a) <= 1e-15

    @pytest.mark.parametrize("c,regime,path", [
        (0.8, CONVERGES_TO_ZERO, "T4-I"),
        (1.0, PERIOD_K, "T4-II"),
        (1.3, UNBOUNDED_EXISTS, "T4-IV"),
    ])
    def test_nonsymmetric_kernel_family(self, c, regime, path):
        cls = classify_tetrachotomy(SystemSpec(k=2, A=c * SKEW))
        assert (cls.regime, cls.theorem_path) == (regime, path)
        assert cls.spectrum.spectral_radius == c

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_nonsymmetric_witness_has_prime_period_k(self, k):
        spec = SystemSpec(k=k, A=SKEW, denom=np.full((2, k - 1, 2), 0.5))
        cls = classify_tetrachotomy(spec)
        np.testing.assert_allclose(cls.witness.history[0], np.array([2.0, 1.0]) / 5 ** 0.5,
                                   rtol=0, atol=1e-15)
        report = verify_classification(spec, cls, horizon=2000, trials=0)
        assert report.passed
        assert report.checks[0].report.period == k

    @pytest.mark.parametrize("a", [[[1.0, 0.5], [0.0, 0.5]], [[0.5, 0.0], [0.7, 1.0]]])
    def test_triangular_kernels_are_period_k(self, a):
        spec = SystemSpec(k=2, A=a, denom=np.full((2, 1, 2), 0.5))
        cls = classify_tetrachotomy(spec)
        assert cls.regime == PERIOD_K
        assert verify_classification(spec, cls, horizon=2000, trials=0).passed

    @pytest.mark.parametrize("a", [
        [[1.0, 1.0], [0.0, 1.0]],
        [[1.0, 0.0], [1.0, 1.0]],
        [[1.0, 1.0], [1e-20, 1.0]],
    ])
    def test_jordan_block_at_radius_one_is_refused(self, a):
        with pytest.raises(BoundaryAmbiguous, match="Jordan"):
            classify_tetrachotomy(SystemSpec(k=2, A=a))

    def test_jordan_block_off_radius_one_is_classified(self):
        assert classify_tetrachotomy(SystemSpec(k=2, A=[[0.5, 1.0], [0.0, 0.5]])).regime == (
            CONVERGES_TO_ZERO)
        assert classify_tetrachotomy(SystemSpec(k=2, A=[[2.0, 1.0], [0.0, 2.0]])).regime == (
            UNBOUNDED_EXISTS)

    def test_symmetric_kernels_are_never_jordan(self):
        rng = np.random.default_rng(53)
        kernels = [np.eye(2), [[1.0, 1e-200], [1e-200, 1.0]], [[1.0, 1e-12], [1e-12, 1.0]]]
        kernels += [symmetric_positive_with_rho(rng, 2, 1.0) for _ in range(50)]
        for a in kernels:
            assert classify_tetrachotomy(SystemSpec(k=2, A=a)).regime == PERIOD_K, a

    @pytest.mark.parametrize("delta", [3e-9, 1e-8, 1e-7])
    def test_near_double_eigenvalue_is_period_k(self, delta):
        cls = classify_tetrachotomy(SystemSpec(k=2, A=np.diag([1.0, 1.0 - delta])))
        assert cls.regime == PERIOD_K
        assert cls.spectrum.spectral_radius == 1.0

    def test_tiny_off_diagonal_keeps_finite_eigenvectors(self):
        cls = classify_tetrachotomy(SystemSpec(k=2, A=[[1.0, 1e-200], [1e-200, 1.0]]))
        assert cls.regime == PERIOD_K
        assert np.isfinite(cls.spectrum.eigenvectors).all()
        np.testing.assert_allclose(np.abs(cls.spectrum.eigenvectors), 0.5 ** 0.5)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="m = 2"):
            classify_tetrachotomy(SystemSpec(k=2, A=np.eye(3)))

    def test_boundary_band_transitions(self):
        # rho(c * HALF) = c; the period-k band is exactly |c - 1| <= RHO_TOL
        for c, regime in [
            (1.0 - 3e-9, CONVERGES_TO_ZERO),
            (1.0 - 5e-10, PERIOD_K),
            (1.0, PERIOD_K),
            (1.0 + 5e-10, PERIOD_K),
            (1.0 + 3e-9, UNBOUNDED_EXISTS),
        ]:
            cls = classify_tetrachotomy(SystemSpec(k=2, A=c * HALF))
            assert cls.regime == regime, (c, cls.regime)

    def test_minus_one_detection_uses_band(self):
        assert regime_from_spectrum(np.array([1.0, -1.0 + 1e-10]), 0.0) == PERIOD_2K
        assert regime_from_spectrum(np.array([1.0, -0.5]), 0.0) == PERIOD_K

    def test_boundary_ambiguous_on_bad_residual(self):
        with pytest.raises(BoundaryAmbiguous):
            regime_from_spectrum(np.array([1.0, 0.0]), residual=1e-6)

    def test_off_diagonals_beyond_the_float_range(self):
        # sqrt(1e200 * 1e-200) = 1, though 1e-200 / 1e200 underflows to 0
        spec = SystemSpec(k=2, A=[[0.0, 1e200], [1e-200, 0.0]])
        cls = classify_tetrachotomy(spec)
        assert (cls.regime, cls.theorem_path) == (PERIOD_2K, "T4-III")
        assert cls.spectrum.eigenvalues.tolist() == [1.0, -1.0]
        assert construct_period2k_seed(spec, 1.0, 0.0).history.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        cls = classify_tetrachotomy(SystemSpec(k=2, A=[[1.0, 1e160], [1e-170, 1.0]]))
        assert (cls.regime, cls.theorem_path) == (UNBOUNDED_EXISTS, "T4-IV")


class TestTrichotomy:
    def test_all_ones_third_is_period_k(self):
        cls = classify_trichotomy(SystemSpec(k=3, A=np.full((3, 3), 1.0 / 3.0)))
        assert cls.regime == PERIOD_K
        assert cls.theorem_path == "T3-ii"
        r, w = cls.spectrum.perron
        assert abs(r - 1.0) <= 1e-9
        np.testing.assert_allclose(w, np.full(3, 3.0 ** -0.5), atol=1e-10)

    def test_shifted_kernel_unbounded(self):
        cls = classify_trichotomy(SystemSpec(k=2, A=[[2.0, 1.0], [1.0, 2.0]]))
        assert cls.regime == UNBOUNDED_EXISTS
        assert cls.theorem_path == "T3-iii"

    def test_contracting(self):
        cls = classify_trichotomy(SystemSpec(k=2, A=[[0.3, 0.2], [0.2, 0.3]]))
        assert cls.regime == CONVERGES_TO_ZERO
        assert cls.theorem_path == "T3-i"

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="positive"):
            classify_trichotomy(SystemSpec(k=2, A=[[1.0, 0.0], [0.0, 1.0]]))

    def test_perron_pair_is_the_dominant_closed_form_pair(self):
        cls = classify_trichotomy(SystemSpec(k=2, A=[[0.6, 0.4], [0.4, 0.6]]))
        r, w = cls.spectrum.perron
        assert r == cls.spectrum.eigenvalues[0] == 1.0
        np.testing.assert_array_equal(w, cls.spectrum.eigenvectors[0])
        # the power iteration's start vector, so the witness keeps its bits
        np.testing.assert_array_equal(w, [1.0 / np.sqrt(2.0)] * 2)

    def test_agrees_with_tetrachotomy_on_positive_2x2(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            rho = float(rng.uniform(0.3, 2.0))
            if abs(rho - 1.0) < 1e-3:
                rho = 1.0
            a = symmetric_positive_with_rho(rng, 2, rho)
            spec = SystemSpec(k=2, A=a)
            assert classify_trichotomy(spec).regime == classify_tetrachotomy(spec).regime


def _band_edge_kernels(family, rng):
    """Kernels of one family, each rescaled to radius 1 + t * RHO_TOL."""
    if family == "anti-diagonal":
        bases = [np.array([[0.0, g], [h, 0.0]]) for g, h in rng.uniform(0.1, 3.0, (100, 2))]
    elif family == "triangular":
        bases = [np.triu(rng.uniform(0.1, 2.0, (2, 2))) for _ in range(100)]
        bases = [b if i % 2 else b.T for i, b in enumerate(bases)]
    elif family == "jordan":
        bases = [np.array([[1.0, b], [0.0, 1.0]]) for b in rng.uniform(0.1, 2.0, 20)]
    elif family == "positive":
        bases = list(rng.uniform(0.05, 2.0, (200, 2, 2)))
    else:  # positive symmetric, m = 3..5
        bases = [b + b.T for m in (3, 4, 5) for b in rng.uniform(0.05, 1.0, (34, m, m))]
    for base in bases:
        rho = float(np.abs(np.linalg.eigvals(base)).max())
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            yield base / rho * (1.0 + t * RHO_TOL)


class TestBandEdge:
    """One radius decision: every regime the classifier predicts gets its witness."""

    @pytest.mark.parametrize(
        "family", ["anti-diagonal", "triangular", "jordan", "positive", "symmetric"])
    def test_regime_always_has_its_witness(self, family):
        classify = classify_trichotomy if family == "symmetric" else classify_tetrachotomy
        regimes = set()
        for a in _band_edge_kernels(family, np.random.default_rng(5)):
            try:
                cls = classify(SystemSpec(k=2, A=a))
            except BoundaryAmbiguous as exc:
                assert family == "jordan" and "Jordan block" in str(exc), (a, exc)
                regimes.add("refused")
                continue
            regimes.add(cls.regime)
            assert (cls.witness is None) == (cls.regime == CONVERGES_TO_ZERO), a
            if cls.regime == PERIOD_K:
                np.testing.assert_array_equal(cls.witness.history[0], perron_pair(a)[1])
            elif cls.regime == PERIOD_2K:
                np.testing.assert_array_equal(cls.witness.history[0], [1.0, 0.0])
        expected = {"anti-diagonal": PERIOD_2K, "jordan": "refused"}.get(family, PERIOD_K)
        assert expected in regimes

    @pytest.mark.parametrize("a", [
        [[1.000000001, 0.0], [0.0, 0.5]],
        [[1.0, 1.0], [1e-18, 1.0]],
        [[0.0, 1.0], [1.0000000015, 0.0]],
    ])
    def test_constructors_accept_what_the_regime_predicts(self, a):
        spec = SystemSpec(k=2, A=a)
        cls = classify_tetrachotomy(spec)
        if cls.regime == PERIOD_K:
            seed = construct_periodic_seed(spec)
        else:
            assert cls.regime == PERIOD_2K
            seed = construct_period2k_seed(spec, 1.0, 0.0)
        np.testing.assert_array_equal(seed.history, cls.witness.history)


class TestWitnessValidity:
    @pytest.mark.parametrize(
        "a",
        [HALF, np.array([[0.0, 1.0], [1.0, 0.0]]), np.full((2, 2), 1.0)],
    )
    def test_witness_satisfies_constructor_postconditions(self, a):
        spec = SystemSpec(k=2, A=a, denom=np.full((2, 1, 2), 0.25))
        cls = classify_tetrachotomy(spec)
        seed = cls.witness
        assert seed.history[0].any()
        assert not seed.history[1:].any()
        traj = simulate(spec, seed, 400)
        gen = traj.generated
        if cls.regime == PERIOD_K:
            assert np.abs(gen[2:] - gen[:-2]).max() <= 1e-12
        elif cls.regime == PERIOD_2K:
            assert np.abs(gen[4:] - gen[:-4]).max() <= 1e-12
            assert np.abs(gen[2:] - gen[:-2]).max() > 0.1
        else:
            assert traj.diverged_at is not None or (gen > 1e6).any()


class TestVerifyClassification:
    def test_contracting_all_pass(self):
        spec = SystemSpec(k=2, A=[[0.3, 0.2], [0.2, 0.3]], denom=np.full((2, 1, 2), 0.5))
        cls = classify_tetrachotomy(spec)
        report = verify_classification(spec, cls, horizon=300, trials=20, rng_seed=1)
        assert report.passed
        assert len(report.checks) == 20

    def test_case3_witness_prime_period(self):
        spec = SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]], denom=np.full((2, 1, 2), 0.25))
        cls = classify_tetrachotomy(spec)
        report = verify_classification(spec, cls, horizon=2000, trials=5, rng_seed=2)
        assert report.passed
        assert report.checks[0].name.startswith("witness")
        assert "period 4" in report.checks[0].report.describe()

    def test_unbounded_witness_gated_random_informational(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 1.0), denom=np.full((2, 1, 2), 0.5))
        cls = classify_tetrachotomy(spec)
        report = verify_classification(spec, cls, horizon=300, trials=5, rng_seed=3)
        assert report.passed
        gated = [c for c in report.checks if c.status != INFO]
        assert len(gated) == 1 and gated[0].name.startswith("witness")

    def test_wrong_expectation_produces_counterexamples(self):
        # a period-k system checked against a converges-to-zero prediction
        spec = SystemSpec(k=2, A=HALF, denom=np.full((2, 1, 2), 0.25))
        cls = classify_tetrachotomy(spec)
        from dataclasses import replace

        wrong = replace(cls, regime=CONVERGES_TO_ZERO, witness=None)
        report = verify_classification(spec, wrong, horizon=2000, trials=5, rng_seed=4)
        assert not report.passed
        failures = report.failures()
        assert failures and failures[0].init is not None

    @pytest.mark.parametrize("seed", [4, np.int64(4), (4, 1)])
    def test_random_histories_are_the_default_rng_stream(self, seed):
        # every random run fails a wrong prediction, so each check keeps its history
        from dataclasses import replace

        spec = SystemSpec(k=2, A=HALF, denom=np.full((2, 1, 2), 0.25))
        wrong = replace(classify_tetrachotomy(spec), regime=CONVERGES_TO_ZERO, witness=None)
        report = verify_classification(spec, wrong, horizon=200, trials=3, rng_seed=seed,
                                       init_max=5.0)
        rng = np.random.default_rng(np.random.SeedSequence(list(seed)) if isinstance(seed, tuple)
                                    else seed)
        for check in report.checks:
            np.testing.assert_array_equal(check.init, rng.uniform(0.0, 5.0, (2, 2)))

    @pytest.mark.parametrize("seed, error", [(None, TypeError), (True, TypeError),
                                             (1.5, TypeError), ((1, -1), ValueError)])
    def test_seed_that_is_no_nonnegative_int_is_refused(self, seed, error):
        # numpy read None as OS entropy, so two equal calls drew different trials
        spec = SystemSpec(k=2, A=[[0.3, 0.2], [0.2, 0.3]])
        cls = classify_tetrachotomy(spec)
        with pytest.raises(error, match="int|nonnegative"):
            verify_classification(spec, cls, horizon=50, trials=2, rng_seed=seed)

    def test_max_period_zero_is_refused(self):
        # 0 is a limit, not "unset": it must not scan up to 2k, so it is refused when built
        with pytest.raises(ValueError, match="max_period must be >= 1"):
            Tolerances(max_period=0)

    def test_no_gated_check_is_refused(self):
        from dataclasses import replace

        spec = SystemSpec(k=2, A=[[0.0, 0.5], [0.5, 0.0]])
        cls = classify_tetrachotomy(spec)
        assert cls.regime == CONVERGES_TO_ZERO and cls.witness is None
        with pytest.raises(ValueError, match="run.trials"):
            verify_classification(spec, cls, horizon=100, trials=0)
        expected = replace(cls, regime=UNBOUNDED_EXISTS, witness=None)
        with pytest.raises(ValueError, match="verify.expect"):
            verify_classification(spec, expected, horizon=100, trials=3)
        # one gated check is enough
        assert verify_classification(spec, cls, horizon=100, trials=1).passed

    @pytest.mark.parametrize("trials", [4, 40])  # the loop side and the numpy side
    def test_stopped_runs_check_like_full_ones(self, monkeypatch, trials):
        # at rho = 1.02 a random run passes the growth threshold 1e6 near
        # n = 1400 - 100 ln x_0: some inside the horizon, the rest not
        spec = SystemSpec(k=2, A=[[1.02, 0.0], [0.0, 0.5]])
        cls = classify_tetrachotomy(spec)
        assert cls.regime == UNBOUNDED_EXISTS
        batches = []

        def recording(spec, histories, horizon, **kwargs):
            batches.append(simulate_batch(spec, histories, horizon, **kwargs))
            return batches[-1]

        def checks():
            report = verify_classification(spec, cls, horizon=1300, trials=trials, rng_seed=6)
            return [(c.name, c.status, c.report) for c in report.checks]

        monkeypatch.setattr("ratsys.classifier.simulate_batch", recording)
        blocks = count_blocks(monkeypatch)
        stopped = checks()
        stepped = [live for _, live, _, _ in blocks]  # rows in each block of the batch
        kernels = {kernel for kernel, *_ in blocks}
        monkeypatch.setattr("ratsys.classifier.simulate_batch",
                            lambda spec, histories, horizon, **_: recording(
                                spec, histories, horizon))
        assert stopped == checks()
        ends = [traj.horizon for traj in batches[0]]
        assert any(end < 1300 for end in ends) and 1300 in ends
        assert all(traj.horizon == 1300 for traj in batches[1] if traj.diverged_at is None)
        # a stopped row leaves the batch: the kernel steps it no further
        assert kernels == {"_numpy_kernel" if trials == 40 else "_loop_kernel"}
        assert len(batches[0]) == trials + 1 and stepped[0] == trials + 1
        assert stepped == [sum(end > step for end in ends) for step in range(0, 1300, 64)]

    @pytest.mark.parametrize("trials", [4, 40])  # the loop side and the numpy side
    def test_certified_zero_runs_check_like_full_ones(self, monkeypatch, trials):
        # at c = 0.77 a random run falls below zero_tol 1e-8 within about 160
        # steps, but reaches an exact 0 (an exact cycle) only after about 5700
        spec = SystemSpec(k=2, A=[[0.0, 0.77], [0.77, 0.0]])
        cls = classify_tetrachotomy(spec)
        assert cls.regime == CONVERGES_TO_ZERO
        batches = []

        def recording(spec, histories, horizon, **kwargs):
            batches.append(simulate_batch(spec, histories, horizon, **kwargs))
            return batches[-1]

        def checks():
            report = verify_classification(spec, cls, horizon=4000, trials=trials, rng_seed=6)
            return [(c.name, c.status, c.report) for c in report.checks]

        monkeypatch.setattr("ratsys.classifier.simulate_batch", recording)
        blocks = count_blocks(monkeypatch)
        stopped = checks()
        stepped = [live for _, live, _, _ in blocks]  # rows in each block of the batch
        kernels = {kernel for kernel, *_ in blocks}
        monkeypatch.setattr("ratsys.classifier.simulate_batch",
                            lambda spec, histories, horizon, **_: recording(
                                spec, histories, horizon))
        assert stopped == checks()
        assert all(status == PASS for _, status, _ in stopped)
        ends = [traj.horizon for traj in batches[0]]
        assert any(end < 4000 for end in ends)
        assert all(traj.horizon == 4000 for traj in batches[1])
        # a cut row leaves the batch: the kernel steps it no further
        assert kernels == {"_numpy_kernel" if trials == 40 else "_loop_kernel"}
        assert len(batches[0]) == trials and stepped[0] == trials
        live = [sum(end > step for end in ends) for step in range(0, 4000, 64)]
        assert stepped == [n for n in live if n]

    def test_trichotomy_period_k_verified(self):
        rng = np.random.default_rng(47)
        a = symmetric_positive_with_rho(rng, 3, 1.0)
        spec = SystemSpec(k=3, A=a, denom=rng.uniform(0.5, 1.5, (3, 2, 3)))
        cls = classify_trichotomy(spec)
        report = verify_classification(spec, cls, horizon=6000, trials=8, rng_seed=5)
        assert report.passed, report.failures()


def observations(k):
    """Every observed (behaviour, period) a run can report, with periods 1..2k."""
    fixed = [(CONVERGED_TO_ZERO, None), (UNBOUNDED, None), (UNDETERMINED, None)]
    return fixed + [(EVENTUALLY_PERIODIC, p) for p in range(1, 2 * k + 1)]


#: (k, regime, witness run?) -> one status per entry of observations(k): P for
#: PASS, F for FAIL, i for INFO.  Recorded from the separate witness and
#: random-run rules that the single rule replaced, P and F from whether the run
#: matched and i where the check was not gated.
PREDICTION_TABLE = {
    (2, CONVERGES_TO_ZERO, True): "PPPPPPP",
    (2, CONVERGES_TO_ZERO, False): "PFFFFFF",
    (2, PERIOD_K, True): "FFFFPFF",
    (2, PERIOD_K, False): "PFFPPFF",
    (2, PERIOD_2K, True): "FFFFFFP",
    (2, PERIOD_2K, False): "PFFPPFP",
    (2, UNBOUNDED_EXISTS, True): "FPFFFFF",
    (2, UNBOUNDED_EXISTS, False): "iiiiiii",
    (3, CONVERGES_TO_ZERO, True): "PPPPPPPPP",
    (3, CONVERGES_TO_ZERO, False): "PFFFFFFFF",
    (3, PERIOD_K, True): "FFFFFPFFF",
    (3, PERIOD_K, False): "PFFPFPFFF",
    (3, PERIOD_2K, True): "FFFFFFFFP",
    (3, PERIOD_2K, False): "PFFPPPFFP",
    (3, UNBOUNDED_EXISTS, True): "FPFFFFFFF",
    (3, UNBOUNDED_EXISTS, False): "iiiiiiiii",
}
_STATUS_CHAR = {PASS: "P", FAIL: "F", INFO: "i"}


@pytest.mark.parametrize("k,regime,witness", sorted(PREDICTION_TABLE))
def test_prediction_rule_table(k, regime, witness):
    got = "".join(
        _STATUS_CHAR[_check_status(regime, k, AnalysisReport(behavior=b, period=p), witness)]
        for b, p in observations(k)
    )
    assert got == PREDICTION_TABLE[k, regime, witness]
