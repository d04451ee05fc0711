"""Spec construction, validation, and trajectory indexing."""

import dataclasses

import numpy as np
import pytest

from conftest import generated, row_at

from ratsys import (
    InitialConditions,
    SystemSpec,
    Trajectory,
    from_scalar_params,
    simulate_batch,
    validate,
    validate_initial,
)
from ratsys.model import DIVERGED, EXACT_CYCLE, HORIZON, MAX_RUN_BYTES, RunEnd


class TestFromScalarParams:
    def test_direct_construction(self):
        spec = from_scalar_params(2, 1.0, 0.0, 0.0, 0.0, [0.0], [0.0], [0.0], [0.0])
        assert spec.k == 2 and spec.m == 2
        np.testing.assert_array_equal(spec.A, [[1.0, 0.0], [0.0, 0.0]])
        assert spec.denom.shape == (2, 1, 2)
        assert not spec.denom.any()

    def test_k3_off_diagonal(self):
        spec = from_scalar_params(
            3, 0.0, 1.0, 1.0, 0.0, [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
        )
        np.testing.assert_array_equal(spec.A, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(spec.denom[0, 0], [1.0, 0.0])
        np.testing.assert_array_equal(spec.denom[0, 1], [0.0, 0.0])

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            scalars = rng.uniform(0.0, 3.0, 4)
            lists = rng.uniform(0.0, 2.0, (4, k - 1))
            spec = from_scalar_params(k, *scalars, *lists)
            np.testing.assert_array_equal(
                spec.A, [[scalars[0], scalars[1]], [scalars[2], scalars[3]]]
            )
            np.testing.assert_array_equal(spec.denom[0, :, 0], lists[0])  # B
            np.testing.assert_array_equal(spec.denom[0, :, 1], lists[1])  # C
            np.testing.assert_array_equal(spec.denom[1, :, 0], lists[2])  # D
            np.testing.assert_array_equal(spec.denom[1, :, 1], lists[3])  # E
            assert validate(spec) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=-1.0),
            dict(gamma=-0.5),
            dict(delta=float("nan")),
            dict(epsilon=-2.0),
        ],
    )
    def test_rejects_bad_scalar(self, kwargs):
        base = dict(beta=1.0, gamma=0.0, delta=0.0, epsilon=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            from_scalar_params(2, base["beta"], base["gamma"], base["delta"],
                               base["epsilon"], [0.0], [0.0], [0.0], [0.0])

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValueError, match="B"):
            from_scalar_params(2, 1.0, 0.0, 0.0, 1.0, [-0.1], [0.0], [0.0], [0.0])

    def test_rejects_k1(self):
        with pytest.raises(ValueError, match="k"):
            from_scalar_params(1, 1.0, 0.0, 0.0, 1.0, [], [], [], [])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            from_scalar_params(3, 1.0, 0.0, 0.0, 1.0, [0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])


def _refusal(build):
    """The message of the ValueError that ``build()`` raises."""
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


class TestValidate:
    def test_well_formed(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        assert validate(spec) == []

    def test_k_too_small(self):
        problem = _refusal(lambda: SystemSpec(k=1, A=np.eye(2)))
        assert problem == "invalid system spec: k must be an integer >= 2"

    @pytest.mark.parametrize("k", [2.0, np.float64(3.0), np.int64(3)])
    def test_integral_k_is_stored_as_int(self, k):
        spec = SystemSpec(k=k, A=np.eye(2))
        assert type(spec.k) is int and spec.k == k
        assert validate(spec) == []

    def test_fractional_k_is_not_an_integer(self):
        problem = _refusal(lambda: SystemSpec(k=2.5, A=np.eye(2)))
        assert problem == "invalid system spec: k must be an integer >= 2"

    def test_negative_kernel_entry(self):
        problem = _refusal(lambda: SystemSpec(k=2, A=[[0.5, -0.1], [0.0, 0.5]]))
        assert problem == "invalid system spec: A must be nonnegative"

    def test_bad_denom_shape(self):
        problem = _refusal(lambda: SystemSpec(k=3, A=np.eye(2), denom=np.zeros((2, 1, 2))))
        assert problem == ("invalid system spec: denom must have shape (m, k-1, m) = "
                           "(2, 2, 2), got (2, 1, 2)")

    def test_negative_denom(self):
        problem = _refusal(lambda: SystemSpec(k=2, A=np.eye(2), denom=-np.ones((2, 1, 2))))
        assert problem == "invalid system spec: denom must be nonnegative"


class TestValidOnceBuilt:
    """An invalid spec or history raises when built, so no consumer ever holds one."""

    @pytest.mark.parametrize("kwargs,problem", [
        (dict(k=2, A=[[-0.5, 0.0], [0.0, 0.3]]), "A must be nonnegative"),
        (dict(k=1, A=np.full((3, 3), 1 / 3)), "k must be an integer >= 2"),
        (dict(k=2, A=np.full((3, 3), 1 / 3), denom=-np.ones((3, 1, 3))),
         "denom must be nonnegative"),
        (dict(k=2, A=np.full((3, 3), 1 / 3), denom=np.full((3, 1, 3), np.nan)),
         "denom entries must be finite"),
    ])
    def test_invalid_kernels_raise_when_built(self, kwargs, problem):
        assert _refusal(lambda: SystemSpec(**kwargs)) == "invalid system spec: " + problem

    @pytest.mark.parametrize("k", [float("inf"), float("nan"), None, "2", 2.5, 1])
    def test_k_that_is_not_an_integer_from_2(self, k):
        problem = _refusal(lambda: SystemSpec(k=k, A=np.eye(2)))
        assert problem == "invalid system spec: k must be an integer >= 2"

    def test_huge_k_is_refused_before_its_denominators_are_allocated(self):
        # (2, 10**12 - 1, 2) doubles of default denominators would take 29 TiB
        problem = _refusal(lambda: SystemSpec(k=10**12, A=np.eye(2)))
        assert problem == ("invalid system spec: k = 1000000000000 with m = 2 needs "
                           f"{4 * (10**12 - 1) * 8} bytes of denominator coefficients, "
                           f"more than the limit of {MAX_RUN_BYTES}")

    def test_scalar_params_refuse_infinite_k(self):
        problem = _refusal(lambda: from_scalar_params(float("inf"), 1.0, 0.0, 0.0, 1.0,
                                                      [], [], [], []))
        assert problem == "invalid system spec: k must be an integer >= 2"

    @pytest.mark.parametrize("value,problem", [
        (np.nan, "finite"), (np.inf, "finite"), (-1.0, "nonnegative"), (-5e-324, "nonnegative"),
    ])
    def test_initial_conditions_refuse_bad_values(self, value, problem):
        history = np.ones((2, 2))
        history[1, 0] = value
        assert _refusal(lambda: InitialConditions(history)) == (
            "invalid initial conditions: initial conditions must be " + problem)

    def test_spec_keeps_its_own_arrays(self):
        b = np.array([[0.5, 0.2], [0.2, 0.5]])
        q = np.full((2, 1, 2), 0.1)
        spec = SystemSpec(k=2, A=b[:, :], denom=q)
        b[0, 0], q[0, 0, 0] = -3.0, -1.0
        assert spec.A.tolist() == [[0.5, 0.2], [0.2, 0.5]] and (spec.denom == 0.1).all()
        assert validate(spec) == []
        assert b.flags.writeable and q.flags.writeable
        assert not spec.A.flags.writeable and not spec.denom.flags.writeable

    def test_history_keeps_its_own_array(self):
        h = np.ones((2, 2))
        init = InitialConditions(h)
        (traj,) = simulate_batch(SystemSpec(k=2, A=np.eye(2)), [h], 5)
        h[0, 0] = -1.0
        assert (init.history == 1.0).all() and (traj.initial == 1.0).all()
        assert h.flags.writeable and not init.history.flags.writeable


class TestInitialConditions:
    def test_impulse_layout(self):
        init = InitialConditions.impulse(3, [1.0, 2.0])
        assert init.history.shape == (3, 2)
        np.testing.assert_array_equal(init.history[0], [1.0, 2.0])
        assert not init.history[1:].any()

    def test_validation(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        ok = InitialConditions(np.ones((2, 2)))
        assert validate_initial(ok, spec) == []
        bad_shape = InitialConditions(np.ones((3, 2)))
        assert validate_initial(bad_shape, spec)
        problem = _refusal(lambda: InitialConditions(-np.ones((2, 2))))
        assert problem == "invalid initial conditions: initial conditions must be nonnegative"


class TestTrajectory:
    def test_indexing(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        values = np.arange(10.0).reshape(5, 2)
        traj = Trajectory(spec=spec, values=values)
        assert traj.n_first == -1
        np.testing.assert_array_equal(row_at(traj, -1), values[0])
        np.testing.assert_array_equal(row_at(traj, 0), values[1])
        np.testing.assert_array_equal(row_at(traj, 3), values[4])
        assert generated(traj).shape == (3, 2)
        with pytest.raises(IndexError):
            row_at(traj, 4)
        with pytest.raises(IndexError):
            row_at(traj, -2)

    def test_horizon_is_held_in_the_end_record(self):
        spec = SystemSpec(k=3, A=np.eye(2))
        values = np.arange(20.0).reshape(10, 2)
        traj = Trajectory(spec=spec, values=values)
        assert traj.end == RunEnd(HORIZON, 7) and traj.horizon == 10 - 3
        assert type(traj.horizon) is int and traj.diverged_at is None
        diverged = Trajectory(spec=spec, values=values, end=RunEnd(DIVERGED, 7))
        assert diverged.horizon == 7 and diverged.diverged_at == 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            diverged.diverged_at = 9
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["spec", "values", "end",
                                                                    "held_from"]
        # an exact cycle reads each n past its stored rows as n - 2k j
        cycle = Trajectory(spec=spec, values=values, end=RunEnd(EXACT_CYCLE, 100))
        assert cycle.horizon == 100 and cycle.diverged_at is None and len(cycle.values) == 10
        for n in (8, 9, 13, 14, 99, 100):
            np.testing.assert_array_equal(row_at(cycle, n), row_at(cycle, n - 6))
        np.testing.assert_array_equal([row_at(cycle, n) for n in (7, 8, 13, 100)],
                                      values[[9, 4, 9, 6]])
        np.testing.assert_array_equal(cycle.rows(5, 10), values[[7, 8, 9, 4, 5, 6]])
        np.testing.assert_array_equal(cycle.rows(1, 7), generated(cycle)[:7])
        assert generated(cycle).shape == (100, 2) and np.shares_memory(cycle.rows(-2, 7), values)
        with pytest.raises(IndexError, match="the run's range"):
            row_at(cycle, 101)
        with pytest.raises(IndexError, match="the run's range"):
            cycle.rows(90, 101)
        # a record that does not fit the stored rows is refused
        for end in (RunEnd(HORIZON, 8), RunEnd(DIVERGED, 6), RunEnd(EXACT_CYCLE, 6)):
            with pytest.raises(ValueError, match="does not fit values that end at step 7"):
                Trajectory(spec=spec, values=values, end=end)
        with pytest.raises(ValueError, match="does not fit"):  # fewer than 2k rows to repeat
            Trajectory(spec=spec, values=values[:5], end=RunEnd(EXACT_CYCLE, 100))

    def test_rows_held_from_a_later_n(self):
        spec = SystemSpec(k=3, A=np.eye(2))
        values = np.arange(20.0).reshape(10, 2)
        full = Trajectory(spec=spec, values=values)
        assert full.held_from == full.n_first == -2
        traj = Trajectory(spec=spec, values=values[4:], held_from=2)
        assert traj.end == RunEnd(HORIZON, 7) and traj.horizon == 7
        for n in range(2, 8):
            np.testing.assert_array_equal(row_at(traj, n), row_at(full, n))
        np.testing.assert_array_equal(traj.rows(2, 7), values[4:])
        for read in (lambda: row_at(traj, 1), lambda: row_at(traj, -2), lambda: traj.rows(1, 7),
                     lambda: generated(traj), lambda: traj.initial):
            with pytest.raises(IndexError, match="held from 2"):
                read()
        # a cycle repeats from its held rows
        cycle = Trajectory(spec=spec, values=values[4:], end=RunEnd(EXACT_CYCLE, 100), held_from=2)
        whole = Trajectory(spec=spec, values=values, end=RunEnd(EXACT_CYCLE, 100))
        for n in (8, 9, 13, 100):
            np.testing.assert_array_equal(row_at(cycle, n), row_at(whole, n))
            np.testing.assert_array_equal(row_at(cycle, n), row_at(cycle, n - 6))
        with pytest.raises(ValueError, match="does not fit"):  # fewer than 2k rows to repeat
            Trajectory(spec=spec, values=values[5:], end=RunEnd(EXACT_CYCLE, 100), held_from=3)
        for bad in (-3, 1.5, "0"):
            with pytest.raises(ValueError, match="held_from"):
                Trajectory(spec=spec, values=values, held_from=bad)
