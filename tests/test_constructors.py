"""Seed constructions and their simulated postconditions."""

import math

import numpy as np
import pytest

from conftest import left_to_right_products, random_spec, symmetric_positive_with_rho

from ratsys import (
    InitialConditions,
    SystemSpec,
    construct_period2k_seed,
    construct_periodic_seed,
    construct_unbounded_seed,
    eig2,
    eig_symmetric,
    simulate,
)
from ratsys import constructors, linalg
from ratsys.constructors import uniform_draws


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

    def test_random_candidate_after_both_fixed_ones_fail(self):
        # The eigenvector (1, -2, 1) is orthogonal to (1, 1, 1) and to (1, 2, 3),
        # so the cascade reaches its first random vector.
        a = np.array([[1.5, 1.0, 0.5], [1.0, 1.0, 1.0], [0.5, 1.0, 1.5]])
        np.testing.assert_array_equal(a @ [1.0, -2.0, 1.0], 0.0)
        seed = construct_unbounded_seed(SystemSpec(k=2, A=a))
        expected = np.random.default_rng(1093).uniform(0.0, 1.0, (3, 3))[0]
        np.testing.assert_array_equal(seed.history, InitialConditions.impulse(2, expected).history)

    @pytest.mark.parametrize("a, tried", [
        ([[1.5, 1.0, 0.5], [1.0, 1.0, 1.0], [0.5, 1.0, 1.5]], 3),
        ([[3.0, 1.0], [2.0, 2.0]], 2),  # projected on eig2's eigenvectors of A^T
    ])
    def test_projections_are_left_to_right_sums(self, monkeypatch, a, tried):
        projected = []

        def recording(rows, x):
            out = linalg.ordered_products(rows, x)
            projected.append((rows, x, out))
            return out

        monkeypatch.setattr(constructors, "ordered_products", recording)
        seed = construct_unbounded_seed(SystemSpec(k=2, A=a))
        a = np.array(a)
        dec = eig2(a.T) if len(a) == 2 else eig_symmetric(a)
        assert len(projected) == tried
        for rows, x, out in projected:
            assert rows == dec.eigenvectors.tolist()
            assert [p.hex() for p in out] == [p.hex() for p in left_to_right_products(rows, x)]
        assert projected[-1][1] == seed.history[0].tolist()

    def test_fixed_candidates_draw_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew random candidates")

        monkeypatch.setattr(constructors, "uniform_draws", refuse)
        seed = construct_unbounded_seed(SystemSpec(k=2, A=[[2.0, 1.0], [1.0, 2.0]]))
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


#: Seeds at the 32- and 64-bit word edges and far past a pool of four words.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 17]
HIGHS = [0.0, 1.0, 10.0, 1e300, 5e-324]


def numpy_draws(entropy, high, count):
    seed = np.random.SeedSequence(list(entropy)) if isinstance(entropy, tuple) else entropy
    return np.random.default_rng(seed).uniform(0.0, high, count).tolist()


class TestUniformDraws:
    """``uniform_draws`` is numpy's ``default_rng(...).uniform(0.0, high, n)`` stream."""

    @pytest.mark.parametrize("high", HIGHS)
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds_match_numpy(self, seed, high):
        assert uniform_draws(seed, high, 20) == numpy_draws(seed, high, 20)

    def test_random_seeds_match_numpy(self):
        rng = np.random.default_rng(127)
        for _ in range(300):
            seed = int.from_bytes(rng.bytes(40), "little") >> int(rng.integers(0, 320))
            high = float(rng.choice(HIGHS))
            assert uniform_draws(seed, high, 7) == numpy_draws(seed, high, 7), seed

    @pytest.mark.parametrize("seed", [0, 3, 2**32, 2**64 + 3])
    def test_sweep_cell_entropy_matches_seed_sequence(self, seed):
        for cell in range(12):
            assert uniform_draws((seed, cell), 10.0, 9) == numpy_draws((seed, cell), 10.0, 9)

    def test_one_call_is_the_sequential_trials(self):
        trials, k, m = 5, 3, 4
        rng = np.random.default_rng(8)
        sequential = np.array([rng.uniform(0.0, 10.0, (k, m)) for _ in range(trials)])
        one_call = np.array(uniform_draws(8, 10.0, trials * k * m)).reshape(trials, k, m)
        np.testing.assert_array_equal(one_call, sequential)

    def test_golden_doubles(self):
        # Fixed here, so the stream stays even if numpy's Generator.uniform changes.
        assert uniform_draws(0, 1.0, 3) == [0.6369616873214543, 0.2697867137638703,
                                            0.04097352393619469]
        assert uniform_draws((3, 11), 10.0, 3) == [6.832464599213415, 0.8836917844028669,
                                                   3.935738326182002]
        assert uniform_draws(2**200 + 17, 1e300, 2) == [1.3682592594543386e+299,
                                                        4.1940827906337774e+299]
        assert uniform_draws(1093, 1.0, 3) == [0.7472665055808757, 0.539840349952322,
                                               0.7667532295079307]

    def test_numpy_integer_seeds(self):
        assert uniform_draws(np.int64(7), 1.0, 5) == uniform_draws(7, 1.0, 5)
        assert uniform_draws((np.uint64(7), np.int32(2)), 1.0, 5) == uniform_draws((7, 2), 1.0, 5)

    @pytest.mark.parametrize("entropy", [None, True, False, np.True_, 1.0, "5", (1, None),
                                         (1, True), (2.0,)])
    def test_non_integers_are_refused(self, entropy):
        with pytest.raises(TypeError, match="int"):
            uniform_draws(entropy, 1.0, 3)

    @pytest.mark.parametrize("entropy", [-1, np.int64(-1), (1, -2), (-1,)])
    def test_negative_ints_are_refused(self, entropy):
        with pytest.raises(ValueError, match="nonnegative"):
            uniform_draws(entropy, 1.0, 3)
