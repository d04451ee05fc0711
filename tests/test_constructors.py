"""Seed constructions and their simulated postconditions."""

import math

import numpy as np
import pytest

from conftest import random_spec, symmetric_positive_with_rho

from ratsys import (
    InitialConditions,
    SystemSpec,
    construct_period2k_seed,
    construct_periodic_seed,
    construct_unbounded_seed,
    simulate,
)


def max_shift_residual(traj, shift):
    gen = traj.generated
    return float(np.abs(gen[shift:] - gen[:-shift]).max())


class TestPeriodicSeed:
    def test_rank_one_half_kernel(self):
        spec = SystemSpec(k=2, A=[[0.5, 0.5], [0.5, 0.5]], denom=np.full((2, 1, 2), 0.4))
        seed = construct_periodic_seed(spec)
        np.testing.assert_allclose(seed.history[0], [1 / math.sqrt(2)] * 2, atol=1e-10)
        assert not seed.history[1:].any()
        traj = simulate(spec, seed, 2000)
        assert max_shift_residual(traj, 2) <= 1e-12
        assert max_shift_residual(traj, 1) > 0.1  # non-constant: prime period 2

    def test_diagonal_axis_eigenvector(self):
        spec = SystemSpec(k=3, A=np.diag([1.0, 0.5]))
        seed = construct_periodic_seed(spec)
        np.testing.assert_array_equal(seed.history[0], [1.0, 0.0])

    def test_nonsymmetric_kernels(self):
        seed = construct_periodic_seed(SystemSpec(k=2, A=[[0.5, 0.0], [0.7, 1.0]]))
        np.testing.assert_array_equal(seed.history[0], [0.0, 1.0])
        seed = construct_periodic_seed(SystemSpec(k=2, A=[[0.5, 1.0], [0.25, 0.5]]))
        np.testing.assert_array_equal(seed.history[0], np.array([1.0, 0.5]) / math.hypot(1.0, 0.5))

    def test_rejects_wrong_radius(self):
        spec = SystemSpec(k=2, A=0.5 * np.eye(2))
        with pytest.raises(ValueError, match="radius"):
            construct_periodic_seed(spec)

    def test_rejects_unsupported_kernel(self):
        # 3x3 with zero entries: neither strictly positive nor 2x2
        spec = SystemSpec(k=2, A=np.eye(3))
        with pytest.raises(ValueError):
            construct_periodic_seed(spec)

    @pytest.mark.parametrize("m,k", [(2, 2), (3, 3), (4, 2)])
    def test_prime_period_k_postcondition(self, m, k):
        rng = np.random.default_rng(m * 10 + k)
        a = symmetric_positive_with_rho(rng, m, 1.0)
        spec = SystemSpec(k=k, A=a, denom=rng.uniform(0.5, 1.5, (m, k - 1, m)))
        seed = construct_periodic_seed(spec)
        assert seed.history[0].min() > 0
        traj = simulate(spec, seed, 10_000)
        assert max_shift_residual(traj, k) <= 1e-12
        if k > 1:
            assert min(max_shift_residual(traj, s) for s in range(1, k)) > 0.1


class TestPeriod2kSeed:
    def test_prime_period_2k(self):
        spec = SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]], denom=np.full((2, 1, 2), 0.3))
        seed = construct_period2k_seed(spec, 1.0, 0.0)
        np.testing.assert_array_equal(seed.history[0], [1.0, 0.0])
        traj = simulate(spec, seed, 2000)
        # cycle (1,0) -> (0,1) at spacing k: prime period 4
        assert max_shift_residual(traj, 4) <= 1e-12
        assert max_shift_residual(traj, 2) > 0.1
        np.testing.assert_array_equal(traj.value(1), [0.0, 1.0])
        np.testing.assert_array_equal(traj.value(3), [1.0, 0.0])

    def test_general_gamma(self):
        spec = SystemSpec(k=3, A=[[0.0, 2.0], [0.5, 0.0]])
        seed = construct_period2k_seed(spec, 3.0, 1.0)
        traj = simulate(spec, seed, 600)
        assert max_shift_residual(traj, 6) <= 1e-12
        assert max_shift_residual(traj, 3) > 0.1

    def test_rejects_eigenline(self):
        spec = SystemSpec(k=2, A=[[0.0, 2.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="period k"):
            construct_period2k_seed(spec, 2.0, 1.0)

    def test_rejects_equal_components_for_gamma_one(self):
        spec = SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="period k"):
            construct_period2k_seed(spec, 1.0, 1.0)

    @pytest.mark.parametrize("a,b,problem", [
        (math.nan, 1.0, "finite"), (math.inf, 1.0, "finite"), (-1.0, 1.0, "nonnegative"),
        (1.0, -0.5, "nonnegative"),
    ])
    def test_rejects_start_vector_like_initial_conditions(self, a, b, problem):
        spec = SystemSpec(k=2, A=[[0.0, 2.0], [0.5, 0.0]])
        with pytest.raises(ValueError) as exc:
            construct_period2k_seed(spec, a, b)
        assert str(exc.value) == (
            "invalid initial conditions: initial conditions must be " + problem)

    def test_rejects_wrong_kernel_form(self):
        spec = SystemSpec(k=2, A=[[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="form"):
            construct_period2k_seed(spec, 1.0, 0.0)


class TestUnboundedSeed:
    def test_all_ones_kernel_skips_orthogonal_candidate(self):
        # (1,1) is orthogonal to the eigenvector (1,-1)/sqrt(2); fall back to (1,2)
        spec = SystemSpec(k=2, A=np.full((2, 2), 1.0))
        seed = construct_unbounded_seed(spec)
        np.testing.assert_array_equal(seed.history[0], [1.0, 2.0])

    def test_diagonal_accepts_all_ones(self):
        spec = SystemSpec(k=2, A=np.diag([2.0, 3.0]))
        seed = construct_unbounded_seed(spec)
        np.testing.assert_array_equal(seed.history[0], [1.0, 1.0])

    def test_shifted_kernel_fallback(self):
        spec = SystemSpec(k=2, A=[[2.0, 1.0], [1.0, 2.0]])
        seed = construct_unbounded_seed(spec)
        np.testing.assert_array_equal(seed.history[0], [1.0, 2.0])

    def test_nonsymmetric_kernel_projects_on_left_eigenvectors(self):
        # (1, 1) is A's eigenvalue-4 eigenvector, so it has no component on the
        # eigenvalue-1 eigenvector (1, -2): A^T's eigenvector (1, -1) sees that,
        # A's own eigenvectors do not
        spec = SystemSpec(k=2, A=[[3.0, 1.0], [2.0, 2.0]])
        seed = construct_unbounded_seed(spec)
        np.testing.assert_array_equal(seed.history[0], [1.0, 2.0])

    def test_rejects_radius_below_one(self):
        spec = SystemSpec(k=2, A=0.9 * np.eye(2))
        with pytest.raises(ValueError, match="radius"):
            construct_unbounded_seed(spec)

    def test_growth_budget(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            rho = float(rng.uniform(1.2, 3.0))
            spec = random_spec(rng, m, k, rho)
            seed = construct_unbounded_seed(spec)
            start_norm = float(np.linalg.norm(seed.history[0]))
            budget = math.ceil(k * math.log(1e6 / start_norm) / math.log(rho)) + k
            traj = simulate(spec, seed, budget)
            norms = np.sqrt((traj.generated ** 2).sum(axis=1))
            assert traj.diverged_at is not None or norms.max() > 1e6

    def test_single_nonzero_history_vector(self):
        rng = np.random.default_rng(61)
        for maker, args in [
            (construct_periodic_seed, (SystemSpec(k=3, A=symmetric_positive_with_rho(rng, 3, 1.0)),)),
            (construct_period2k_seed, (SystemSpec(k=4, A=[[0.0, 1.0], [1.0, 0.0]]), 2.0, 0.5)),
            (construct_unbounded_seed, (SystemSpec(k=3, A=[[2.0, 1.0], [1.0, 2.0]]),)),
        ]:
            seed = maker(*args)
            assert isinstance(seed, InitialConditions)
            assert seed.history[0].any()
            assert not seed.history[1:].any()
