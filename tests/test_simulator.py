"""Forward iteration: hand examples, oracle agreement, and order properties."""

import numpy as np
import pytest

from conftest import oracle_step_from_spec, random_init, random_spec, symmetric_nonneg_with_rho

from ratsys import (
    Diverged,
    InitialConditions,
    SystemSpec,
    construct_unbounded_seed,
    simulate,
    simulate_batch,
    simulate_linear,
    step,
)
from ratsys.simulator import MAX_RUN_BYTES


class TestStep:
    def test_identity_with_empty_denominators(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        out = step(spec, [[2.0, 3.0], [7.0, 7.0]])
        np.testing.assert_array_equal(out, [2.0, 3.0])

    def test_hand_evaluated_example(self):
        # x_n = y_{n-2} / (1 + x_{n-1}), y_n = x_{n-2}; window ((1,1), (1,0))
        spec = SystemSpec(
            k=2,
            A=[[0.0, 1.0], [1.0, 0.0]],
            denom=[[[1.0, 0.0]], [[0.0, 0.0]]],
        )
        out = step(spec, [[1.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(out, [0.5, 1.0])

    def test_zero_window_is_fixed(self):
        rng = np.random.default_rng(2)
        spec = random_spec(rng, 3, 4, 1.0)
        out = step(spec, np.zeros((4, 3)))
        assert not out.any()

    def test_rejects_negative_window(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        with pytest.raises(ValueError, match="nonnegative"):
            step(spec, [[1.0, -1.0], [0.0, 0.0]])

    def test_diverged_on_overflow(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 1e300))
        with pytest.raises(Diverged):
            step(spec, [[1e300, 1e300], [0.0, 0.0]])

    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_simulate_last_row_bit_for_bit(self, m, k):
        rng = np.random.default_rng(100 * m + k)
        for _ in range(20):
            spec = random_spec(rng, m, k, float(rng.uniform(0.5, 2.0)))
            init = random_init(rng, k, m)
            got = step(spec, init.history)
            want = simulate(spec, init, 1).values[-1]
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable

    def test_matches_scalar_oracle_bit_for_bit(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            spec = SystemSpec(
                k=k,
                A=rng.uniform(0.0, 2.0, (2, 2)),
                denom=rng.uniform(0.0, 1.5, (2, k - 1, 2)),
            )
            window = rng.uniform(0.0, 10.0, (k, 2))
            got = step(spec, window)
            want = oracle_step_from_spec(spec, window)
            assert float(got[0]) == want[0]
            assert float(got[1]) == want[1]


class TestSimulate:
    def test_identity_recurrence(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        init = InitialConditions(np.array([[1.0, 2.0], [3.0, 4.0]]))
        traj = simulate(spec, init, 6)
        for n in range(1, 7):
            np.testing.assert_array_equal(traj.value(n), traj.value(n - 2))

    def test_unbounded_seed_zero_pattern(self):
        # all-ones kernel, impulse start: only n = 1 mod 2 survives and runs linearly
        spec = SystemSpec(k=2, A=np.full((2, 2), 1.0), denom=np.full((2, 1, 2), 0.7))
        seed = construct_unbounded_seed(spec)
        traj = simulate(spec, seed, 20)
        linear = simulate_linear(spec.A, spec.k, seed, 20)
        for n in range(1, 21):
            if n % 2 == 1:
                np.testing.assert_array_equal(traj.value(n), linear.value(n))
                assert traj.value(n).all()
            else:
                assert not traj.value(n).any()

    def test_zero_pattern_general_k(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            spec = random_spec(rng, m, k, float(rng.uniform(0.5, 1.5)))
            start = rng.uniform(0.5, 2.0, m)
            init = InitialConditions.impulse(k, start)
            horizon = 6 * k
            traj = simulate(spec, init, horizon)
            linear = simulate_linear(spec.A, k, init, horizon)
            for n in range(1, horizon + 1):
                if n % k == 1 % k:
                    np.testing.assert_array_equal(traj.value(n), linear.value(n))
                else:
                    assert not traj.value(n).any()

    def test_domination_by_linear_system(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(2, 5))
            spec = random_spec(rng, m, k, float(rng.uniform(0.3, 1.2)))
            init = random_init(rng, k, m)
            traj = simulate(spec, init, 200)
            linear = simulate_linear(spec.A, k, init, 200)
            assert (traj.generated <= linear.generated + 1e-12).all()

    def test_nonnegativity_closure(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(2, 5))
            spec = random_spec(rng, m, k, float(rng.uniform(0.3, 2.0)))
            traj = simulate(spec, random_init(rng, k, m), 100)
            assert (traj.values >= 0).all()
            assert np.isfinite(traj.values).all()

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        spec = random_spec(rng, 2, 3, 1.0)
        init = random_init(rng, 3, 2)
        a = simulate(spec, init, 500)
        b = simulate(spec, init, 500)
        np.testing.assert_array_equal(a.values, b.values)

    def test_diverged_returns_partial(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 4.0))
        seed = construct_unbounded_seed(spec)
        traj = simulate(spec, seed, 2000)
        assert traj.diverged_at is not None
        assert traj.horizon == traj.diverged_at - 1
        assert np.isfinite(traj.values).all()

    def test_rejects_invalid_spec(self):
        with pytest.raises(ValueError, match="k"):
            simulate(SystemSpec(k=1, A=np.eye(2)), InitialConditions(np.zeros((1, 2))), 5)

    def test_rejects_bad_init(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        with pytest.raises(ValueError, match="initial"):
            simulate(spec, InitialConditions(np.zeros((3, 2))), 5)


def _same_run(got, want):
    """Bit-for-bit equal values, equal horizon and equal diverged_at."""
    return (
        got.values.shape == want.values.shape
        and (got.values.view(np.uint64) == want.values.view(np.uint64)).all()
        and got.horizon == want.horizon
        and got.diverged_at == want.diverged_at
    )


WILD_SCALES = 10.0 ** np.array([300, 285, 270, 200, 100, 0, -100])


class TestSimulateBatch:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("k", range(2, 6))
    def test_every_row_matches_simulate_bit_for_bit(self, m, k):
        rng = np.random.default_rng(1000 * m + k)
        diverged_steps = []
        for rows in range(8):
            tame = random_spec(rng, m, k, float(rng.uniform(0.3, 2.0)))
            # radius 1e4 and denominators below 1e-250: the rows started
            # near 1e300 overflow at different steps, the small ones never
            wild = SystemSpec(k=k, A=symmetric_nonneg_with_rho(rng, m, 1e4),
                              denom=rng.uniform(0.0, 1e-250, (m, k - 1, m)))
            for spec, scales in ((tame, np.ones(rows)), (wild, WILD_SCALES[:rows])):
                histories = [rng.uniform(0.0, 10.0, (k, m)) * s for s in scales]
                got = simulate_batch(spec, histories, 130)
                assert len(got) == rows
                for history, traj in zip(histories, got):
                    assert _same_run(traj, simulate(spec, InitialConditions(history), 130))
                if spec is wild:
                    diverged_steps.append([t.diverged_at for t in got])
        # some batch mixes rows that overflow at different steps with one that does not
        assert any(None in steps and len(set(steps)) >= 3 for steps in diverged_steps)

    def test_divergence_found_at_every_step_of_a_check_block(self):
        # v_n = 10 v_{n-2}: with v_{1-k} = 1 and v_0 = 10^e the first overflow is at
        # step 2 (309 - e), on both sides of 64-step check blocks and in the last one
        spec = SystemSpec(k=2, A=[[10.0]])
        histories = [[[1.0], [10.0**e]] for e in (308, 277, 276, 245, 244, 243)]
        got = simulate_batch(spec, histories, 130)
        want = [simulate(spec, InitialConditions(h), 130) for h in histories]
        assert [t.diverged_at for t in want] == [2, 64, 66, 128, 130, None]
        assert all(_same_run(g, w) for g, w in zip(got, want))

    def test_empty_batch(self):
        assert simulate_batch(SystemSpec(k=2, A=np.eye(2)), [], 10) == []

    def test_rows_are_contiguous_read_only(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 3, 3, 1.0)
        for traj in simulate_batch(spec, [random_init(rng, 3, 3).history] * 2, 50):
            assert traj.values.flags.c_contiguous and not traj.values.flags.writeable

    @pytest.mark.parametrize(
        "spec,history,horizon",
        [
            (SystemSpec(k=1, A=np.eye(2)), np.zeros((1, 2)), 5),
            (SystemSpec(k=2, A=-np.eye(2)), np.zeros((2, 2)), 5),
            (SystemSpec(k=2, A=np.eye(2)), np.zeros((3, 2)), 5),
            (SystemSpec(k=2, A=np.eye(2)), [[1.0, -1.0], [0.0, 0.0]], 5),
            (SystemSpec(k=2, A=np.eye(2)), [[1.0, np.nan], [0.0, 0.0]], 5),
            (SystemSpec(k=2, A=np.eye(2)), np.zeros((2, 2)), 0),
        ],
    )
    def test_rejects_like_simulate(self, spec, history, horizon):
        with pytest.raises(ValueError) as want:
            simulate(spec, InitialConditions(history), horizon)
        with pytest.raises(ValueError) as got:
            simulate_batch(spec, [np.zeros((spec.k, spec.m)), history], horizon)
        assert str(got.value) == str(want.value)

    def test_refuses_oversize_runs_before_allocating(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        history = np.zeros((2, 2))
        with pytest.raises(ValueError, match="more than the limit"):
            simulate(spec, InitialConditions(history), 10**12)
        with pytest.raises(ValueError, match="more than the limit"):
            simulate_batch(spec, [history], 10**12)
        # the limit counts every row of a batch
        horizon = MAX_RUN_BYTES // (2 * 8) - 2
        with pytest.raises(ValueError, match="2 x .* more than the limit"):
            simulate_batch(spec, [history] * 2, horizon)


class TestSimulateLinear:
    def test_zero_matrix(self):
        traj = simulate_linear(np.zeros((2, 2)), 2, InitialConditions(np.ones((2, 2))), 10)
        assert not traj.generated.any()

    def test_period_four_rotation(self):
        init = InitialConditions(np.array([[1.0, 0.0], [0.0, 0.0]]))
        traj = simulate_linear([[0.0, 1.0], [1.0, 0.0]], 2, init, 8)
        np.testing.assert_array_equal(traj.value(1), [0.0, 1.0])
        np.testing.assert_array_equal(traj.value(3), [1.0, 0.0])
        np.testing.assert_array_equal(traj.value(5), [0.0, 1.0])

    def test_scalar_scaling(self):
        init = InitialConditions(np.array([[4.0, 8.0], [2.0, 2.0]]))
        traj = simulate_linear(0.5 * np.eye(2), 2, init, 10)
        for n in range(1, 11):
            np.testing.assert_allclose(traj.value(n), 0.5 * traj.value(n - 2), rtol=0, atol=0)

    def test_matches_matrix_powers(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            a = rng.uniform(0.0, 1.0, (m, m))
            init = random_init(rng, k, m, 5.0)
            horizon = 5 * k
            traj = simulate_linear(a, k, init, horizon)
            for n in range(1, horizon + 1):
                # u_{kq+b} = A^q u_b with b the residue of n
                q, b = divmod(n - (1 - k), k)
                expected = np.linalg.matrix_power(a, q) @ init.history[b]
                np.testing.assert_allclose(traj.value(n), expected, atol=1e-9)
