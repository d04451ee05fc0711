"""Forward iteration: hand examples, oracle agreement, and order properties."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    Diverged,
    count_blocks,
    generated,
    oracle_simulate,
    oracle_step_from_spec,
    random_init,
    random_spec,
    row_at,
    step,
    symmetric_nonneg_with_rho,
    symmetric_positive_with_rho,
)

from ratsys import (
    InitialConditions,
    SystemSpec,
    construct_unbounded_seed,
    simulate,
    simulate_batch,
)
from ratsys import classify_tetrachotomy, simulator, verify_classification
from ratsys.analysis import Tolerances, analyze, rows_above, rows_read
from ratsys.model import DIVERGED, EXACT_CYCLE, GROWTH_STOP, HORIZON, ZERO_STOP, RunEnd
from ratsys.simulator import MAX_LOOP_TERMS, MAX_RUN_BYTES, ROW_TERMS


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
            np.testing.assert_array_equal(row_at(traj, n), row_at(traj, n - 2))

    def test_unbounded_seed_zero_pattern(self):
        # all-ones kernel, impulse start: only n = 1 mod 2 survives and runs linearly
        spec = SystemSpec(k=2, A=np.full((2, 2), 1.0), denom=np.full((2, 1, 2), 0.7))
        seed = construct_unbounded_seed(spec)
        traj = simulate(spec, seed, 20)
        linear = simulate(SystemSpec(k=spec.k, A=spec.A), seed, 20)
        for n in range(1, 21):
            if n % 2 == 1:
                np.testing.assert_array_equal(row_at(traj, n), row_at(linear, n))
                assert row_at(traj, n).all()
            else:
                assert not row_at(traj, n).any()

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
            linear = simulate(SystemSpec(k=k, A=spec.A), init, horizon)
            for n in range(1, horizon + 1):
                if n % k == 1 % k:
                    np.testing.assert_array_equal(row_at(traj, n), row_at(linear, n))
                else:
                    assert not row_at(traj, n).any()

    def test_domination_by_linear_system(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(2, 5))
            spec = random_spec(rng, m, k, float(rng.uniform(0.3, 1.2)))
            init = random_init(rng, k, m)
            traj = simulate(spec, init, 200)
            linear = simulate(SystemSpec(k=k, A=spec.A), init, 200)
            assert (generated(traj) <= generated(linear) + 1e-12).all()

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

    def test_integral_float_k_runs_like_int_k(self):
        a, q = [[0.5, 1.0], [0.25, 0.5]], np.full((2, 1, 2), 0.5)
        histories = [[[1.0, 2.0], [3.0, 4.0]]] * 40  # 40 x 8 terms: the numpy side
        want = simulate_batch(SystemSpec(k=2, A=a, denom=q), histories, 5)
        spec = SystemSpec(k=2.0, A=a, denom=q)
        assert all(_same_run(g, w) for g, w in zip(simulate_batch(spec, histories, 5), want))
        traj = simulate(spec, InitialConditions(histories[0]), 5)
        assert _same_run(traj, want[0]) and type(traj.horizon) is int
        cls = classify_tetrachotomy(spec)
        assert verify_classification(spec, cls, horizon=300, trials=2).passed

    def test_fractional_k_is_refused(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            simulate(SystemSpec(k=2.5, A=np.eye(2)), InitialConditions(np.zeros((2, 2))), 5)


def _same_run(got, want):
    """Bit-for-bit equal stored values, equal horizon, equal diverged_at and equal end record."""
    return (
        got.values.shape == want.values.shape
        and (got.values.view(np.uint64) == want.values.view(np.uint64)).all()
        and got.horizon == want.horizon
        and got.diverged_at == want.diverged_at
        and got.end == want.end
    )


def _held_match(got, want):
    """``got``'s held rows are bit for bit ``want``'s rows at the same n."""
    rows = want.rows(got.held_from, got.held_from + len(got.values) - 1)
    return (got.values.view(np.uint64) == rows.view(np.uint64)).all()


def _whole(traj):
    """Every row of the run, n = 1-k .. horizon, stored or not."""
    return traj.rows(traj.n_first, traj.horizon)


def _kernel_batch(kernel, spec, histories, horizon, tolerances=None):
    """``histories`` stepped by the simulator kernel named ``kernel``, whatever their terms."""
    inits = [InitialConditions(h) for h in histories]
    return simulator._drive(getattr(simulator, kernel), spec, inits, horizon, tolerances)


def _numpy_batch(spec, histories, horizon, tolerances=None):
    """The numpy kernel on ``histories``, whatever their number of terms a step."""
    return _kernel_batch("_numpy_kernel", spec, histories, horizon, tolerances)


def _growth_stop(threshold):
    """Tolerances that stop a run only by its growth: a zero_tol of 0 turns the zero stop off."""
    return Tolerances(zero_tol=0.0, growth_threshold=threshold)


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
                want = [simulate(spec, InitialConditions(h), 130) for h in histories]
                got = _numpy_batch(spec, histories, 130)
                assert len(got) == rows
                assert all(_same_run(g, w) for g, w in zip(got, want))
                assert all(_same_run(g, w) for g, w in zip(simulate_batch(spec, histories, 130), want))
                if spec is wild:
                    diverged_steps.append([t.diverged_at for t in got])
        # some batch mixes rows that overflow at different steps with one that does not
        assert any(None in steps and len(set(steps)) >= 3 for steps in diverged_steps)

    def test_divergence_found_at_every_step_of_a_check_block(self):
        # v_n = 10 v_{n-2}: with v_{1-k} = 1 and v_0 = 10^e the first overflow is at
        # step 2 (309 - e), on both sides of 64-step check blocks and in the last one
        spec = SystemSpec(k=2, A=[[10.0]])
        histories = [[[1.0], [10.0**e]] for e in (308, 277, 276, 245, 244, 243)]
        got = _numpy_batch(spec, histories, 130)
        want = [simulate(spec, InitialConditions(h), 130) for h in histories]
        assert [t.diverged_at for t in want] == [2, 64, 66, 128, 130, None]
        assert all(_same_run(g, w) for g, w in zip(got, want))

    def test_empty_batch(self):
        assert simulate_batch(SystemSpec(k=2, A=np.eye(2)), [], 10) == []

    def test_rows_are_contiguous_read_only(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 3, 3, 1.0)
        histories = [random_init(rng, 3, 3).history] * 2
        for traj in simulate_batch(spec, histories, 50) + _numpy_batch(spec, histories, 50):
            assert traj.values.flags.c_contiguous and not traj.values.flags.writeable

    @pytest.mark.parametrize(
        "spec,history,horizon",
        [
            (dict(k=1, A=np.eye(2)), np.zeros((1, 2)), 5),
            (dict(k=2, A=-np.eye(2)), np.zeros((2, 2)), 5),
            (dict(k=2, A=np.eye(2)), np.zeros((3, 2)), 5),
            (dict(k=2, A=np.eye(2)), [[1.0, -1.0], [0.0, 0.0]], 5),
            (dict(k=2, A=np.eye(2)), [[1.0, np.nan], [0.0, 0.0]], 5),
            (dict(k=2, A=np.eye(2)), np.zeros((2, 2)), 0),
        ],
    )
    def test_rejects_like_simulate(self, spec, history, horizon):
        # the specs are built here: an invalid one raises when built
        with pytest.raises(ValueError) as want:
            simulate(SystemSpec(**spec), InitialConditions(history), horizon)
        with pytest.raises(ValueError) as got:
            simulate_batch(SystemSpec(**spec), [np.zeros((spec["k"], 2)), history], horizon)
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


EDGE_COEFFICIENTS = np.array([0.0, 5e-324, 1e308])


#: A child process's RSS growth (bytes) across a 4-row simulate_batch of 10^7 steps.
RSS_PROBE = """
import numpy as np
from ratsys import SystemSpec, simulate_batch

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) * 1024

spec = SystemSpec(k=2, A=[[0.40104798350772575, 0.584714959446296],
                          [0.584714959446296, 0.4291836835235136]],
                  denom=[[[0.8578833008407367, 1.240947186100519]],
                         [[1.0440957016180341, 1.269879853856804]]])
history = np.array([[1.6057962728565267, 3.9161646876546765],
                    [0.5469876739957924, 6.537918848088456]])
simulate_batch(spec, [history] * 4, 2000)  # compile the loop, warm the allocator
before = rss()
runs = simulate_batch(spec, [history] * 4, 10**7)
assert all(t.end.reason == "exact cycle" for t in runs)
print(rss() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc")
def test_unwritten_pages_stay_out_of_memory():
    # 640 MB of values are mapped, but each row cycles within about 960 steps
    # and writes only its first pages; huge pages would fault in 2 MB a row
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE], capture_output=True, text=True,
                          check=True)
    assert int(proc.stdout) < 2 * 2**20


def _shape_id(shape):
    return "x".join(map(str, shape))


def _left_to_right(terms):
    """The sums of ``terms`` along axis 0, added one term at a time."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


class TestOrderedSum:
    """numpy reduces a sum only on the shapes it is probed to add left to right."""

    @pytest.mark.parametrize("shape", [(49, 1, 1), (200, 1, 1), (9, 1, 1, 1), (3, 1, 1),
                                       (49, 5, 16), (49, 1, 2), (49, 2, 1), (200, 1, 3),
                                       (17, 4, 5, 16), (2, 4, 1, 1)], ids=_shape_id)
    def test_probe_matches_left_to_right_sums(self, shape):
        rng = np.random.default_rng(sum(shape))
        in_order = simulator._reduces_in_order(shape)
        same = []
        for _ in range(100):
            terms = rng.uniform(0.0, 1.0, shape)
            reduced = np.empty(shape[1:])
            simulator._ordered_sum(terms, reduced, True)
            same.append((reduced.view(np.uint64) == _left_to_right(terms).view(np.uint64)).all())
        assert all(same) if in_order else not all(same)
        if shape in ((49, 1, 1), (200, 1, 1)):  # one lane: numpy sums it pairwise
            assert not in_order

    @pytest.mark.parametrize("shape", [(49, 1, 1), (49, 5, 16)], ids=_shape_id)
    def test_accumulate_adds_left_to_right_on_any_shape(self, shape):
        rng = np.random.default_rng(7)
        terms = rng.uniform(0.0, 1.0, shape)
        want = _left_to_right(terms)
        out = np.empty(shape[1:])
        simulator._ordered_sum(terms, out, False)
        assert (out.view(np.uint64) == want.view(np.uint64)).all()


class TestGeneratedKernel:
    """A small call runs a step loop generated per spec; it must add like the oracle and numpy."""

    @staticmethod
    def _edge_spec(rng, m, k):
        """Random coefficients with 0.0, 5e-324 and 1e308 mixed in."""
        def draw(shape, high):
            values = rng.uniform(0.0, high, shape)
            pick = rng.integers(0, 6, shape)
            return np.where(pick < 3, EDGE_COEFFICIENTS[pick % 3], values)
        return SystemSpec(k=k, A=draw((m, m), 2.0), denom=draw((m, k - 1, m), 1.5))

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_oracle_and_batch_bit_for_bit(self, m, k):
        rng = np.random.default_rng(10 * m + k)
        horizon = 1 + 10 * k
        runs = []
        for _ in range(3):
            runs.append((random_spec(rng, m, k, float(rng.uniform(0.3, 2.0))),
                         rng.uniform(0.0, 10.0, (k, m)), None))
            runs.append((self._edge_spec(rng, m, k), rng.uniform(0.0, 10.0, (k, m)), "any"))
        # v_n = 10 v_{n-k} / (1 + tiny): a start of 10^e in v_{1-k} first
        # overflows at step 1 + (308 - e) k, here 1, mid-run and the horizon
        growth = SystemSpec(k=k, A=10.0 * np.eye(m),
                            denom=np.where(rng.uniform(size=(m, k - 1, m)) < 0.5, 0.0, 5e-324))
        for e, at in ((308, 1), (303, 1 + 5 * k), (298, horizon), (297, None)):
            history = rng.uniform(0.0, 1.0, (k, m))
            history[0, 0] = 10.0 ** e
            runs.append((growth, history, at))
        for spec, history, at in runs:
            got = simulate(spec, InitialConditions(history), horizon)
            if at != "any":
                assert got.diverged_at == at
            rows, diverged_at = oracle_simulate(spec, history, horizon)
            assert got.diverged_at == diverged_at
            assert got.horizon == len(rows) - k
            assert _whole(got).shape == rows.shape
            assert (_whole(got).view(np.uint64) == rows.view(np.uint64)).all()
            (batch,) = _numpy_batch(spec, [history], horizon)
            assert _same_run(got, batch)

    def test_coefficient_types_give_the_same_bits(self):
        a = [[1, 2], [0, 3]]
        q = [[[1, 0], [2, 5]], [[0, 1], [3, 0]]]
        history = InitialConditions([[1.0, 2.0], [0.5, 0.25], [3.0, 1.0]])
        want = simulate(SystemSpec(k=3, A=np.array(a, dtype=float).tolist(),
                                   denom=np.array(q, dtype=float).tolist()), history, 40)
        for a_in, q_in in ((a, q), (np.array(a, dtype=np.float64), np.array(q, dtype=np.float64)),
                           (np.array(a, dtype=np.int64), np.array(q, dtype=np.int64))):
            assert _same_run(simulate(SystemSpec(k=3, A=a_in, denom=q_in), history, 40), want)

    def test_specs_sharing_a_kernel_get_their_own_loop(self):
        # these specs differ in denom only
        rng = np.random.default_rng(6)
        a = symmetric_nonneg_with_rho(rng, 2, 1.0)
        history = rng.uniform(0.0, 10.0, (3, 2))
        for scale in (0.0, 0.5, 2.0, 0.5):
            spec = SystemSpec(k=3, A=a, denom=np.full((2, 2, 2), scale))
            rows, _ = oracle_simulate(spec, history, 20)
            got = simulate(spec, InitialConditions(history), 20)
            assert (_whole(got).view(np.uint64) == rows.view(np.uint64)).all()

    def test_values_are_contiguous_read_only(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, 3, 3, 1.0)
        for horizon in (1, 200):
            traj = simulate(spec, random_init(rng, 3, 3), horizon)
            assert traj.values.shape == (3 + horizon, 3)
            assert traj.values.flags.c_contiguous and not traj.values.flags.writeable
        diverged = simulate(SystemSpec(k=2, A=[[10.0]]), InitialConditions([[1e308], [1.0]]), 5)
        assert diverged.diverged_at == 1 and diverged.values.shape == (2, 1)
        assert diverged.values.flags.c_contiguous and not diverged.values.flags.writeable

    @pytest.mark.parametrize("m,k,probe_fails", [
        pytest.param(1, 256, False, id="1-256"),
        pytest.param(1, 257, False, id="1-257"),
        pytest.param(1, MAX_LOOP_TERMS - ROW_TERMS, False, id=f"1-{MAX_LOOP_TERMS - ROW_TERMS}"),
        pytest.param(1, MAX_LOOP_TERMS - ROW_TERMS + 1, False,
                     id=f"1-{MAX_LOOP_TERMS - ROW_TERMS + 1}"),
        pytest.param(16, 300, False, id="16-300"),
        pytest.param(16, 300, True, id="16-300-probe-fails"),
    ])
    def test_long_sums_match_oracle_and_batch(self, monkeypatch, m, k, probe_fails):
        # k = 284 at m = 1 is the longest sum a generated loop adds, and 285
        # the shortest that a call of one history leaves to numpy; m = 16,
        # k = 300 has 4784 denominator terms a component, more than CPython
        # compiles as one expression.  The numpy kernel reduces the sums of
        # 16 lanes; with its probe failing, it accumulates them.
        if probe_fails:
            monkeypatch.setattr(simulator, "_reduces_in_order", lambda shape: False)
        rng = np.random.default_rng(m + k)
        spec = SystemSpec(k=k, A=symmetric_nonneg_with_rho(rng, m, 1.0),
                          denom=rng.uniform(0.0, 1e-3, (m, k - 1, m)))
        history = rng.uniform(0.0, 10.0, (k, m))
        got = simulate(spec, InitialConditions(history), 3)
        rows, diverged_at = oracle_simulate(spec, history, 3)
        assert got.diverged_at is diverged_at is None
        assert (_whole(got).view(np.uint64) == rows.view(np.uint64)).all()
        (batch,) = _numpy_batch(spec, [history], 3)
        assert _same_run(got, batch)

    def test_zero_coefficients_write_no_term(self, monkeypatch):
        # 0.0 and -0.0 coefficients, and -0.0 in the history: a term left out
        # changes no bit of the oracle's sums, which add every term
        sources = []
        compiled = simulator._compiled
        monkeypatch.setattr(simulator, "_compiled", lambda source: sources.append(source)
                            or compiled(source))
        rng = np.random.default_rng(12)
        for m, k in ((1, 2), (2, 2), (3, 3), (4, 5)):
            def draw(shape, high):
                pick = rng.integers(0, 4, shape)
                return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0,
                                                         rng.uniform(0.0, high, shape)))

            spec = SystemSpec(k=k, A=draw((m, m), 2.0), denom=draw((m, k - 1, m), 1.5))
            history = np.where(rng.integers(0, 2, (k, m)) == 0, -0.0,
                               rng.uniform(0.0, 10.0, (k, m)))
            sources.clear()
            got = simulate(spec, InitialConditions(history), 200)
            (source,) = sources
            nonzero = np.count_nonzero(spec.A) + np.count_nonzero(spec.denom)
            assert source.count("*x") == nonzero < spec.A.size * k
            rows, diverged_at = oracle_simulate(spec, history, 200)
            assert got.diverged_at == diverged_at and _whole(got).shape == rows.shape
            assert (_whole(got).view(np.uint64) == rows.view(np.uint64)).all()
            (batch,) = _numpy_batch(spec, [history], 200)
            assert _same_run(got, batch)
        # a kernel of zeros and -0.0 leaves each sum its literal alone
        sources.clear()
        spec = SystemSpec(k=2, A=[[0.0, -0.0], [-0.0, 0.0]], denom=[[[-0.0, 0.0]], [[0.0, 0.0]]])
        got = simulate(spec, InitialConditions([[1.0, -0.0], [2.0, 3.0]]), 10)
        assert "*x" not in sources[0]
        rows, _ = oracle_simulate(spec, [[1.0, -0.0], [2.0, 3.0]], 10)
        assert (_whole(got).view(np.uint64) == rows.view(np.uint64)).all()

    def test_large_specs_compile_no_loop(self, monkeypatch):
        # compiling a loop takes about 1.3 kB a term: 100 MB at m = 16, k = 300
        def refuse(spec):
            raise AssertionError(f"generated a loop for m = {spec.m}, k = {spec.k}")

        monkeypatch.setattr(simulator, "_step_loop", refuse)
        spec = SystemSpec(k=300, A=np.full((16, 16), 1 / 16))
        traj = simulate(spec, InitialConditions(np.ones((300, 16))), 3)
        assert traj.values.shape == (303, 16)


class TestKernelChoice:
    """:func:`simulate_batch` loops at B (m^2 k + ROW_TERMS) <= MAX_LOOP_TERMS, else uses numpy."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(simulator, name)

        def counting(spec, *args):
            calls.append(spec)
            return original(spec, *args)

        monkeypatch.setattr(simulator, name, counting)
        return calls

    @staticmethod
    def _refuse(monkeypatch, name):
        def refuse(spec, *args):
            raise AssertionError(f"{name} entered at m = {spec.m}, k = {spec.k}")

        monkeypatch.setattr(simulator, name, refuse)

    def test_at_the_limit_one_loop_and_no_numpy(self, monkeypatch):
        rng = np.random.default_rng(8)
        spec = random_spec(rng, 2, 2, 1.0)
        histories = [rng.uniform(0.0, 10.0, (2, 2)) for _ in range(24)]  # 24 x (8 + 4) = 288
        want = _numpy_batch(spec, histories, 100)
        loops = self._count(monkeypatch, "_step_loop")
        self._refuse(monkeypatch, "_numpy_kernel")
        got = simulate_batch(spec, histories, 100)
        assert loops == [spec]
        assert all(_same_run(g, w) for g, w in zip(got, want))

    def test_past_the_limit_no_loop(self, monkeypatch):
        rng = np.random.default_rng(9)
        spec = random_spec(rng, 2, 2, 1.0)
        histories = [rng.uniform(0.0, 10.0, (2, 2)) for _ in range(25)]
        self._refuse(monkeypatch, "_step_loop")
        batches = self._count(monkeypatch, "_numpy_kernel")
        assert len(simulate_batch(spec, histories, 100)) == 25
        assert batches == [spec]

    @pytest.mark.parametrize("k,rows,kernel", [
        (2, 48, "_step_loop"), (2, 49, "_numpy_kernel"), (2, 65, "_numpy_kernel"),
        (2, 128, "_numpy_kernel"), (4, 36, "_step_loop"), (4, 37, "_numpy_kernel"),
        (4, 49, "_numpy_kernel"),
    ])
    def test_m1_rows_count_toward_the_limit(self, monkeypatch, k, rows, kernel):
        # at m = 1 a step has k terms a history, and each history adds ROW_TERMS:
        # 48 x (2 + 4) = 288 = 36 x (4 + 4) is the limit
        rng = np.random.default_rng(k * rows)
        spec = SystemSpec(k=k, A=[[1.0]], denom=rng.uniform(0.5, 1.5, (1, k - 1, 1)))
        histories = [rng.uniform(0.0, 10.0, (k, 1)) for _ in range(rows)]
        want = [simulate(spec, InitialConditions(h), 100) for h in histories]
        used = self._count(monkeypatch, kernel)
        self._refuse(monkeypatch, ({"_step_loop", "_numpy_kernel"} - {kernel}).pop())
        got = simulate_batch(spec, histories, 100)
        assert used == [spec]
        assert all(_same_run(g, w) for g, w in zip(got, want))

    def test_empty_call_compiles_nothing(self, monkeypatch):
        self._refuse(monkeypatch, "_step_loop")
        self._refuse(monkeypatch, "_numpy_kernel")
        assert simulate_batch(SystemSpec(k=2, A=np.eye(2)), [], 100) == []

    def test_verify_compiles_one_loop(self, monkeypatch):
        spec = SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]], denom=np.full((2, 1, 2), 0.25))
        cls = classify_tetrachotomy(spec)
        loops = self._count(monkeypatch, "_step_loop")
        self._refuse(monkeypatch, "_numpy_kernel")
        report = verify_classification(spec, cls, horizon=500, trials=4, rng_seed=2)
        assert len(report.checks) == 5 and report.passed
        assert loops == [spec]


def _cycle_entry(values, k):
    """First row index from which every row is bitwise the row 2k before it."""
    bits = values.view(np.uint64)
    differ = np.flatnonzero(~(bits[2 * k:] == bits[:-2 * k]).all(axis=1))
    return 2 * k + (int(differ[-1]) + 1 if len(differ) else 0)


class TestExactCycles:
    """Once the k-row state repeats the one 2k rows before, the driver records the cycle and stops."""

    @staticmethod
    def _assert_oracle_prefixes(spec, history, horizons):
        """Each horizon's run is bit for bit the oracle's first rows, on both kernels.

        A run that ends in an exact cycle stores its rows only through the
        block in which its state repeated; every other run stores them all.
        """
        rows, diverged_at = oracle_simulate(spec, history, max(horizons))
        for horizon in horizons:
            want = rows[: spec.k + horizon]
            at = diverged_at if diverged_at is not None and diverged_at <= horizon else None
            loop = simulate(spec, InitialConditions(history), horizon)
            (batch,) = _numpy_batch(spec, [history], horizon)
            for got in (loop, batch):
                assert got.diverged_at == at and got.horizon == len(want) - spec.k
                assert _whole(got).shape == want.shape
                assert (_whole(got).view(np.uint64) == want.view(np.uint64)).all(), horizon
                stored = len(got.values) - spec.k
                if got.end.reason == EXACT_CYCLE:
                    assert stored % 64 == 0 and 2 * spec.k <= stored < got.horizon
                else:
                    assert stored == got.horizon
        return rows

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_periods_1_k_and_2k_match_the_oracle(self, m, k):
        rng = np.random.default_rng(20 * m + k)
        # a cyclic permutation has period m k from step 1: 2k at m = 2, and
        # 3k at m = 3, which 2k rows never repeat, so that run is all stepped
        swap = np.roll(np.eye(m), 1, axis=1)
        history = rng.uniform(0.0, 10.0, (k, m))
        horizons = [1, 2, k, 2 * k, 3 * k - 1, 3 * k, 3 * k + 1, 63, 64, 65, 128, 129, 130, 700,
                    3000]
        cases = [
            # period 1: c < 1 reaches an exact 0
            (SystemSpec(k=k, A=0.1 * np.full((m, m), 1 / m), denom=np.full((m, k - 1, m), 0.5)),
             1),
            # period k: the identity kernel repeats every row k steps on
            (SystemSpec(k=k, A=np.eye(m)), k),
            # [[0, 1], [1, 0]] at m = 2, with zero denominators
            (SystemSpec(k=k, A=swap), m * k),
        ]
        for spec, period in cases:
            rows = self._assert_oracle_prefixes(spec, history, horizons)
            tail = rows[-period:].view(np.uint64)
            assert (tail == rows[-2 * period : -period].view(np.uint64)).all()

    def test_converging_orbit_cycles_exactly(self):
        # a positive kernel at rho = 1 with denominators: the orbit settles in
        # an exact period-k cycle after some hundred steps
        a = np.array([[0.3, 0.7], [0.7, 0.3]])
        spec = SystemSpec(k=2, A=a, denom=np.full((2, 1, 2), 0.8))
        history = np.array([[3.0, 0.5], [1.0, 7.0]])
        rows, _ = oracle_simulate(spec, history, 4000)
        entry = _cycle_entry(rows, spec.k)
        assert 200 < entry < 3000
        # a cycle found in the block it began in, the next one and the last one
        block = (entry - spec.k) // 64 * 64
        horizons = [entry - spec.k + d for d in (-1, 0, 1, 2, 4)] + [block + 64, block + 65,
                                                                    block + 128, 4000]
        self._assert_oracle_prefixes(spec, history, horizons)

    @pytest.mark.parametrize("at", [63, 64, 65, 128, 129])
    def test_divergence_step_is_absolute(self, at):
        # v_n = 10 v_{n-2}: 10^e in v_{-1} overflows at step 2 (309 - e) - 1, in v_0 at 2 (309 - e)
        spec = SystemSpec(k=2, A=[[10.0]])
        history = [[1.0], [1.0]]
        history[(at + 1) % 2][0] = 10.0 ** (309 - (at + 1) // 2)
        traj = simulate(spec, InitialConditions(history), 200)
        assert traj.diverged_at == at
        self._assert_oracle_prefixes(spec, np.array(history), [200])

    def test_negative_zero_history_is_no_repeat(self, monkeypatch):
        # at k = 32 the check after step 64 compares v_33..v_64 with the
        # history; v_n = v_{n-k} turns each -0.0 into 0.0, equal by == but
        # not by bytes, so each kernel steps one more block before it copies
        k = 32
        history = np.where(np.arange(k) % 2 == 0, -0.0, np.arange(k, dtype=float))[:, None]
        blocks = count_blocks(monkeypatch)
        self._assert_oracle_prefixes(SystemSpec(k=k, A=[[1.0]]), history, [500])
        assert blocks == [(kernel, 1, first, first + 63)
                          for kernel in ("_loop_kernel", "_numpy_kernel") for first in (1, 65)]

    def test_cycling_run_stops_stepping(self, monkeypatch):
        blocks = count_blocks(monkeypatch)
        swap = SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]])
        traj = simulate(swap, InitialConditions([[1.0, 2.0], [3.0, 4.0]]), 100_000)
        assert blocks == [("_loop_kernel", 1, 1, 64)] and traj.horizon == 100_000
        assert traj.end == (EXACT_CYCLE, 100_000) and len(traj.values) == 2 + 64
        np.testing.assert_array_equal(traj.rows(99_997, 100_000),
                                      [[2.0, 1.0], [4.0, 3.0], [1.0, 2.0], [3.0, 4.0]])
        self._assert_stored_once(traj)
        blocks.clear()
        spec = SystemSpec(k=2, A=[[0.3, 0.7], [0.7, 0.3]], denom=np.full((2, 1, 2), 0.8))
        traj = simulate(spec, InitialConditions([[3.0, 0.5], [1.0, 7.0]]), 100_000)
        # the rows past the stored ones repeat, so the entry is among the stored rows
        entry = _cycle_entry(traj.values, 2)
        assert traj.horizon == 100_000 and entry < 3000
        assert traj.end == (EXACT_CYCLE, 100_000)
        assert [first for _, _, first, _ in blocks] == list(range(1, 64 * len(blocks), 64))
        assert blocks[-1][3] <= entry + 3 * 64
        self._assert_stored_once(traj)

    @staticmethod
    def _assert_stored_once(traj):
        """``traj`` stores its rows through the block of its cycle, and reads on past them."""
        period = 2 * traj.k
        entry = _cycle_entry(traj.values, traj.k)
        assert len(traj.values) <= entry + period + 64
        stored = len(traj.values) + traj.n_first  # the first n not stored
        for n in [*range(stored, stored + 2 * period), 50_001, 99_999, 100_000]:
            np.testing.assert_array_equal(row_at(traj, n), row_at(traj, n - period))

    # v_n = diag(1e10, 0.5, 1) v_{n-2}: the first component passes 3e150
    # about 2 (15 - log10 x_0) steps on and overflows about 16 steps after
    # that, the second halves, the third has period 2
    MIXED = SystemSpec(k=2, A=np.diag([1e10, 0.5, 1.0]))
    MIXED_HISTORIES = [
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]),  # cycles from the start
        np.full((2, 3), 1e-200) * [1.0, 0.0, 0.0],  # passes at 71, diverges at 101
        np.full((2, 3), 1e-50) * [1.0, 0.0, 0.0],  # passes near 41, stops at 64
        np.array([[0.0, 3.0, 0.0], [0.0, 5.0, 0.0]]),  # halves to the horizon
    ]
    #: (live rows, first, last) of each block of MIXED_HISTORIES's batch
    MIXED_BLOCKS = [(4, 1, 64), (2, 65, 128), (1, 129, 192), (1, 193, 256), (1, 257, 300)]

    def test_numpy_rows_leave_the_batch_as_they_end(self, monkeypatch):
        spec, histories = self.MIXED, self.MIXED_HISTORIES
        blocks = count_blocks(monkeypatch)
        got = _numpy_batch(spec, histories, 300, _growth_stop(3e150))
        assert blocks == [("_numpy_kernel", *block) for block in self.MIXED_BLOCKS]
        assert [(t.horizon, t.diverged_at) for t in got] == [(300, None), (100, 101), (64, None),
                                                              (300, None)]
        assert [t.end.reason for t in got] == [EXACT_CYCLE, DIVERGED, GROWTH_STOP, HORIZON]
        for history, traj in zip(histories, got):
            (alone,) = _numpy_batch(spec, [history], 300, _growth_stop(3e150))
            (loop,) = simulate_batch(spec, [history], 300, tolerances=_growth_stop(3e150))
            assert _same_run(traj, alone) and _same_run(traj, loop)

    def test_kernels_step_a_mixed_batch_alike(self, monkeypatch):
        # the cycling, diverging, stopping and full rows above, forced through
        # each kernel: the same blocks, each with the same rows, and the same bits
        blocks = count_blocks(monkeypatch)
        runs = [_kernel_batch(kernel, self.MIXED, self.MIXED_HISTORIES, 300, _growth_stop(3e150))
                for kernel in ("_loop_kernel", "_numpy_kernel")]
        assert blocks == [(kernel, *block) for kernel in ("_loop_kernel", "_numpy_kernel")
                          for block in self.MIXED_BLOCKS]
        loop, batch = runs
        assert len(loop) == len(batch) == 4
        assert all(_same_run(a, b) for a, b in zip(loop, batch))


#: v_n = 2 v_{n-2} from the history (1, 1.5): v_n is 2, 3, 4, 6, 8, ... for n = 1, 2, ...,
#: each row above the one before it, so a threshold between them is first passed at a set n.
DOUBLING = SystemSpec(k=2, A=[[2.0]])
DOUBLING_HISTORY = np.array([[1.0], [1.5]])


def _doubling(n):
    """v_n of DOUBLING from DOUBLING_HISTORY, n >= -1."""
    return 2.0 ** ((n + 1) // 2) * (1.5 if n % 2 == 0 else 1.0)


def _first_passed_at(n):
    """A threshold DOUBLING_HISTORY's run first passes at step n."""
    return (_doubling(n - 1) + _doubling(n)) / 2


class TestStopAbove:
    """With the growth stop, a run ends at the check block where a row's norm first passes it.

    ``analyze`` must report each stopped run exactly as the full run, on the
    loop side and the numpy side of ``simulate_batch``.
    """

    @staticmethod
    def _runs(monkeypatch, side, spec, histories, horizon, threshold):
        """The stopped and the full runs of ``histories`` on one side of simulate_batch.

        The numpy side gets the histories with zero rows, which never pass a
        threshold, enough to take the call past the loop's limit.
        """
        if side == "numpy":
            histories = list(histories) + [np.zeros((spec.k, spec.m))] * MAX_LOOP_TERMS
        other = "_loop_kernel" if side == "numpy" else "_numpy_kernel"
        TestKernelChoice._refuse(monkeypatch, other)
        stopped = simulate_batch(spec, histories, horizon, tolerances=_growth_stop(threshold))
        full = simulate_batch(spec, histories, horizon)
        tol = Tolerances(growth_threshold=threshold)
        for got, want in zip(stopped, full):
            assert analyze(got, tol) == analyze(want, tol)
            # the rows it holds (all but those before the ones analyze reads) are the full run's
            assert _held_match(got, want)
            if got.horizon == want.horizon:
                assert got.end == want.end
                continue
            # stopped at the end of a block that passed the threshold
            end = got.horizon
            assert got.diverged_at is None and end % 64 == 0
            assert rows_above(got.rows(end - 63, end), threshold).size
            assert got.end.reason == GROWTH_STOP
        return stopped

    @pytest.mark.parametrize("side", ["loop", "numpy"])
    @pytest.mark.parametrize("n,end", [(1, 64), (40, 64), (64, 64), (65, 128), (200, 256)])
    def test_run_ends_with_the_block_it_passes_in(self, monkeypatch, side, n, end):
        threshold = _first_passed_at(n)
        (traj, *_) = self._runs(monkeypatch, side, DOUBLING, [DOUBLING_HISTORY], 300, threshold)
        assert traj.horizon == end and traj.diverged_at is None
        assert traj.end.reason == GROWTH_STOP
        assert analyze(traj, Tolerances(growth_threshold=threshold)).exit_step == n

    @pytest.mark.parametrize("side", ["loop", "numpy"])
    @pytest.mark.parametrize("factor,start,passed,diverged", [(1e100, 1.0, 3, 7),
                                                              (1e10, 1e-200, 71, 101)])
    def test_divergence_in_the_same_block_comes_first(self, monkeypatch, side, factor, start,
                                                      passed, diverged):
        # v_n = factor v_{n-2} from (start, start) passes 3e150 at step
        # `passed` and overflows at step `diverged`, in the same block
        spec = SystemSpec(k=2, A=[[factor]])
        history = np.full((2, 1), start)
        (traj, *_) = self._runs(monkeypatch, side, spec, [history], 300, 3e150)
        assert traj.diverged_at == diverged and traj.horizon == diverged - 1
        assert traj.end.reason == DIVERGED
        assert analyze(traj, Tolerances(growth_threshold=3e150)).exit_step == passed

    @pytest.mark.parametrize("side", ["loop", "numpy"])
    def test_pass_seen_only_in_the_norm(self, monkeypatch, side):
        # both components of v_n are DOUBLING's: the norm sqrt(2) v_n first
        # passes 1.9 * 2^64 at n = 128, while no component does before n = 129;
        # the growth test of every block ends the run with the block of the pass
        spec = SystemSpec(k=2, A=2.0 * np.eye(2))
        threshold = 1.9 * 2.0**64
        history = np.hstack([DOUBLING_HISTORY, DOUBLING_HISTORY])
        (traj, *_) = self._runs(monkeypatch, side, spec, [history], 300, threshold)
        assert _doubling(128) < threshold < _doubling(129)
        assert traj.horizon == 128 and traj.end.reason == GROWTH_STOP
        assert analyze(traj, Tolerances(growth_threshold=threshold)).exit_step == 128

    @pytest.mark.parametrize("side", ["loop", "numpy"])
    def test_components_above_a_tiny_threshold_need_the_norm(self, monkeypatch, side):
        # with a threshold of 1e-200, 1e-190 squares to 0.0: no pass, so no
        # stop, though every component is above the threshold; growing from
        # 1e-190, the squares stop underflowing a few blocks on
        constant, growing = SystemSpec(k=2, A=[[1.0]]), SystemSpec(k=2, A=[[1.5]])
        history = np.full((2, 1), 1e-190)
        (traj, *_) = self._runs(monkeypatch, side, constant, [history], 300, 1e-200)
        assert traj.horizon == 300 and traj.end.reason == EXACT_CYCLE  # v_n = v_{n-2}
        assert analyze(traj, Tolerances(growth_threshold=1e-200)).behavior == (
            "converged-to-zero")
        (traj, *_) = self._runs(monkeypatch, side, growing, [history], 600, 1e-200)
        exit_step = analyze(traj, Tolerances(growth_threshold=1e-200)).exit_step
        assert 128 < exit_step <= traj.horizon < 600 and traj.end.reason == GROWTH_STOP

    @pytest.mark.parametrize("side", ["loop", "numpy"])
    def test_stopped_and_full_rows_mixed(self, monkeypatch, side):
        # scaled by 2^-e, the run passes the threshold about 2e steps later:
        # at 40, 100 and 200 inside the horizon, never for e = 200 or a zero start
        threshold = _first_passed_at(40)
        histories = [DOUBLING_HISTORY * 2.0**-e for e in (0, 30, 80, 200)] + [np.zeros((2, 1))]
        runs = self._runs(monkeypatch, side, DOUBLING, histories, 300, threshold)
        assert [t.horizon for t in runs[:5]] == [64, 128, 256, 300, 300]
        assert [t.end.reason for t in runs[:5]] == [GROWTH_STOP] * 3 + [HORIZON, EXACT_CYCLE]

    @pytest.mark.parametrize("side", ["loop", "numpy"])
    def test_stop_comes_before_the_cycle_copy(self, monkeypatch, side):
        # v_n = v_{n-2} from (1e10, 1e10) repeats its state in the first
        # block and passes 1e3 there: the pass ends the run, nothing is copied
        spec = SystemSpec(k=2, A=[[1.0]])
        (traj, *_) = self._runs(monkeypatch, side, spec, [np.full((2, 1), 1e10)], 300, 1e3)
        assert traj.horizon == 64 and traj.diverged_at is None
        assert traj.end.reason == GROWTH_STOP

    def test_kernels_stop_alike(self):
        rng = np.random.default_rng(31)
        for m, k in ((1, 2), (2, 2), (3, 3)):
            spec = SystemSpec(k=k, A=symmetric_nonneg_with_rho(rng, m, 1.5),
                              denom=rng.uniform(0.0, 0.5, (m, k - 1, m)))
            histories = [rng.uniform(0.0, 10.0, (k, m)) * s for s in (1.0, 1e-3, 1e-6, 0.0)]
            for threshold in (1e3, 1e6, 1e-200):
                loop = simulate_batch(spec, histories, 400, tolerances=_growth_stop(threshold))
                batch = _numpy_batch(spec, histories, 400, _growth_stop(threshold))
                assert all(_same_run(g, w) for g, w in zip(loop, batch))

    def test_plain_calls_run_the_horizon(self):
        traj = simulate(DOUBLING, InitialConditions(DOUBLING_HISTORY), 300)
        assert traj.horizon == 300 and traj.diverged_at is None and traj.end.reason == HORIZON


def _swap(c):
    """c [[0, 1], [1, 0]] with a denominator, k = 2: x = 1 certifies it for c < 1."""
    return SystemSpec(k=2, A=c * np.array([[0.0, 1.0], [1.0, 0.0]]), denom=np.full((2, 1, 2), 0.25))


KERNELS = ["_loop_kernel", "_numpy_kernel"]


class TestStopBelow:
    """With the zero stop, a run ends at the check block after which it is certified to stay below.

    ``analyze`` must report each cut run exactly as the full run, with both
    kernels through the one driver.
    """

    @staticmethod
    def _runs(kernel, spec, histories, horizon, zero_tol, growth_threshold=1e6):
        """The cut runs of ``histories``, each checked against its full run.

        The full run has the growth stop alone; the plain run, no stop, holds
        every row, which the cut run's held rows are checked against.
        """
        tol = Tolerances(zero_tol=zero_tol, growth_threshold=growth_threshold)
        cut = _kernel_batch(kernel, spec, histories, horizon, tol)
        full = _kernel_batch(kernel, spec, histories, horizon, _growth_stop(growth_threshold))
        plain = _kernel_batch(kernel, spec, histories, horizon)
        for got, want, whole in zip(cut, full, plain):
            assert analyze(got, tol) == analyze(want, tol) == analyze(whole, tol)
            assert _held_match(got, whole)
            if got.horizon == want.horizon:
                assert _same_run(got, want)
                continue
            # cut at the end of a block, with its state and every row after it below zero_tol
            end = got.horizon
            assert got.diverged_at is None and end % 64 == 0 and got.end.reason == ZERO_STOP
            assert np.abs(whole.rows(end + whole.n_first, whole.horizon)).max() <= zero_tol
        return cut

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cut_is_a_prefix_that_ends_a_block(self, kernel):
        # at c = 0.77 a run from [0, 10] falls below 1e-8 within about 160
        # steps, but reaches an exact 0 only after about 5700
        rng = np.random.default_rng(3)
        histories = [rng.uniform(0.0, 10.0, (2, 2)) for _ in range(4)] + [np.full((2, 2), 1e-9)]
        runs = self._runs(kernel, _swap(0.77), histories, 4000, 1e-8)
        assert [t.horizon for t in runs] == [192, 192, 192, 192, 64]
        assert [t.end.reason for t in runs] == [ZERO_STOP] * 5
        assert [analyze(t).behavior for t in runs] == ["converged-to-zero"] * 5

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_state_below_only_in_part_is_not_cut(self, kernel):
        # v_n = 0.9 v_{n-2}: the even rows start from v_0 = 1e-12, below 1e-8
        # in every block, but the odd rows v_{2j-1} = 0.9^j first fall below
        # it at n = 349, so the state (v_{n-1}, v_n) is below from n = 349 on
        # and the run ends with that block, at 384
        # (the cut run holds only its last rows; _runs checks them against the plain run's)
        spec, histories = SystemSpec(k=2, A=[[0.9]]), [np.array([[1.0], [1e-12]])]
        (traj,) = self._runs(kernel, spec, histories, 1000, 1e-8)
        (plain,) = _kernel_batch(kernel, spec, histories, 1000)
        assert generated(plain)[:64].min() < 1e-8 < generated(plain)[:64].max()
        assert generated(plain)[346] > 1e-8 >= generated(plain)[348]  # v_347 and v_349
        assert traj.horizon == 384 and traj.end.reason == ZERO_STOP

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stop_comes_before_the_cycle_copy(self, kernel):
        # a zero state repeats and is below zero_tol in the first block: the run ends there
        (traj,) = self._runs(kernel, _swap(0.5), [np.zeros((2, 2))], 300, 1e-8)
        assert traj.horizon == 64 and traj.end.reason == ZERO_STOP

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_growth_stop_comes_before_the_zero_stop(self, kernel):
        # v_n = 1e-3 v_{n-2}, swapped, from 1e12: the norm passes 1e6 at step 1,
        # and the state is below 1e-8 by step 64, so both stops claim the first block
        spec = SystemSpec(k=2, A=[[0.0, 1e-3], [1e-3, 0.0]])
        (traj,) = _kernel_batch(kernel, spec, [np.full((2, 2), 1e12)], 500, Tolerances())
        assert np.abs(traj.rows(63, 64)).max() <= Tolerances().zero_tol
        assert traj.end == RunEnd(GROWTH_STOP, 64)
        assert analyze(traj).describe() == "unbounded (exit step 1)"

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("spec,reasons", [
        (_swap(1.0), [EXACT_CYCLE] * 2),  # row sums exactly 1
        (SystemSpec(k=2, A=np.eye(2)), [EXACT_CYCLE] * 2),
        (SystemSpec(k=2, A=symmetric_positive_with_rho(np.random.default_rng(2), 2, 1.0)),
         [EXACT_CYCLE] * 2),
        (SystemSpec(k=2, A=[[1.0, 1.0], [0.0, 1.0]]), [HORIZON, EXACT_CYCLE]),  # a Jordan block
        (SystemSpec(k=2, A=[[0.0, 3.0], [0.1, 0.0]]), [HORIZON] * 2),  # rho ~ 0.55, row sum 3
    ], ids=["swap", "identity", "positive", "jordan", "row-sum"])
    def test_off_without_row_sums_below_one(self, kernel, spec, reasons):
        # each state is below zero_tol from the start, yet every run gets the horizon
        histories = [np.full((2, 2), 1e-20), np.array([[1e-20, 0.0], [1e-20, 0.0]])]
        runs = self._runs(kernel, spec, histories, 300, 1e-8)
        assert [t.horizon for t in runs] == [300, 300]
        assert [t.end.reason for t in runs] == reasons

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_off_when_zero_tol_nears_the_growth_threshold(self, kernel):
        # 2 m zero_tol = 4e-3 passes a growth threshold of 3e-3 but not one of 4e-3
        spec, history = _swap(0.5), np.full((2, 2), 1e-9)
        (traj,) = self._runs(kernel, spec, [history], 300, 1e-3, growth_threshold=3e-3)
        assert traj.horizon == 300 and traj.end.reason == HORIZON
        (traj,) = self._runs(kernel, spec, [history], 300, 1e-3, growth_threshold=4e-3)
        assert traj.horizon == 64 and traj.end.reason == ZERO_STOP

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_off_when_a_norm_could_overflow(self, kernel):
        # the norm bound 2 m zero_tol = 4e160 squares to inf, though it is below the threshold
        spec, history = _swap(0.5), np.full((2, 2), 1e-9)
        (traj,) = self._runs(kernel, spec, [history], 300, 1e160, growth_threshold=1e300)
        assert traj.horizon == 300 and traj.end.reason == HORIZON
        (traj,) = self._runs(kernel, spec, [history], 300, 1e150, growth_threshold=1e300)
        assert traj.horizon == 64 and traj.end.reason == ZERO_STOP

    def test_drive_defaults_to_no_stop(self):
        # _drive without tolerances
        inits = [InitialConditions(np.full((2, 2), 1e-9))]
        (traj,) = simulator._drive(simulator._loop_kernel, _swap(0.5), inits, 300, None)
        assert traj.horizon == 300 and traj.end.reason == HORIZON

    def test_plain_calls_run_the_horizon(self):
        traj = simulate(_swap(0.5), InitialConditions(np.full((2, 2), 1e-9)), 300)
        assert traj.horizon == 300 and traj.end.reason == HORIZON


def _rho1_batch(seed):
    """A 4 x 4 positive kernel at rho = 1 with denominators, k = 2, and three histories.

    Run to 6000 steps, rng seed 1's first row cycles exactly at step 4928,
    inside the window that analyze reads, its second at 1216 and its third
    reaches the horizon; seed 4's rows cycle at 1600, 1664 and 3520, before
    the window.  Each row approaches a period-2 orbit.
    """
    rng = np.random.default_rng(seed)
    spec = SystemSpec(k=2, A=symmetric_positive_with_rho(rng, 4, 1.0),
                      denom=rng.uniform(0.0, 0.5, (4, 1, 4)))
    return spec, [rng.uniform(0.0, 10.0, (2, 4)) for _ in range(3)]


def _pulse_chain(m=101):
    """v_{n,i+1} = v_{n-2,i} down m - 1 components, the last scaled by 1e300; k = 2.

    A pulse of 1e10 in component 0 reaches the last component at step 199,
    where it overflows: no row before has a norm above 1e300.
    """
    a = np.eye(m, k=-1)
    a[m - 1, m - 2] = 1e300
    history = np.zeros((2, m))
    history[:, 0] = 1e10
    return SystemSpec(k=2, A=a), [history]


class TestHeldRows:
    """A batch given tolerances holds only the rows analyze reads, and analyze reports it unchanged.

    Each case runs on both kernels with and without tolerances.
    """

    # (spec, histories, horizon, tolerances, each run's end reason)
    CASES = {
        "horizon-and-cycles": (*_rho1_batch(1), 6000, Tolerances(),
                               [EXACT_CYCLE, EXACT_CYCLE, HORIZON]),
        "cycles-before-the-window": (*_rho1_batch(4), 6000, Tolerances(), [EXACT_CYCLE] * 3),
        "zero-stop": (_swap(0.99), [np.full((2, 2), 10.0)], 8000, Tolerances(), [ZERO_STOP]),
        # DOUBLING's run scaled by 2^-1000, so 2000 steps later: it first
        # passes its threshold mid-block, at 2100
        "growth-stop": (DOUBLING, [DOUBLING_HISTORY * 2.0**-1000], 3000,
                        Tolerances(growth_threshold=_first_passed_at(100)), [GROWTH_STOP]),
        # test_pass_seen_only_in_the_norm's run 2048 steps later: the norm passes
        # at 2176, the end of a block, and no component does before 2177
        "growth-stop-by-the-norm": (SystemSpec(k=2, A=2.0 * np.eye(2)),
                                    [np.hstack([DOUBLING_HISTORY] * 2) * 2.0**-1024], 3000,
                                    Tolerances(growth_threshold=1.9 * 2.0**64), [GROWTH_STOP]),
        "divergence": (*_pulse_chain(), 300, Tolerances(growth_threshold=1e300), [DIVERGED]),
    }

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_analyze_reads_only_held_rows(self, kernel, case):
        spec, histories, horizon, tol, reasons = self.CASES[case]
        held = _kernel_batch(kernel, spec, histories, horizon, tol)
        full = _kernel_batch(kernel, spec, histories, horizon)
        assert [t.end.reason for t in held] == reasons
        read = rows_read(horizon, spec.k)
        for got, want in zip(held, full):
            assert analyze(got, tol) == analyze(want, tol)
            assert _held_match(got, want)
            # the rows analyze reads, and the last 2k of a cycle, are held
            last = got.held_from + len(got.values) - 1
            assert got.held_from <= min(got.horizon - read + 1, last - 2 * spec.k + 1)
            # and at most an eighth and a block more than those and the cycle test's 3k
            hold = max(read, 3 * spec.k)
            assert read <= len(got.values) <= hold + hold // 8 + 64
        exits = [analyze(t, tol).exit_step for t in held]
        if case == "growth-stop":
            assert exits == [2100] and held[0].horizon == 2112
        if case == "growth-stop-by-the-norm":
            assert _doubling(2176 - 2048) < 1.9 * 2.0**64 < _doubling(2177 - 2048)
            assert exits == [2176] and held[0].horizon == 2176

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rows_before_the_held_ones_raise(self, kernel):
        spec, histories, horizon, tol, *_ = self.CASES["zero-stop"]
        (traj,) = _kernel_batch(kernel, spec, histories, horizon, tol)
        first = traj.held_from
        assert first > traj.n_first and traj.values.shape == (traj.horizon - first + 1, 2)
        np.testing.assert_array_equal(row_at(traj, first), traj.values[0])
        for read in (lambda: row_at(traj, first - 1), lambda: row_at(traj, traj.n_first),
                     lambda: traj.rows(first - 1, first), lambda: generated(traj),
                     lambda: traj.initial):
            with pytest.raises(IndexError, match=f"held from {first}"):
                read()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_horizon_within_the_window_releases_nothing(self, kernel):
        # analyze reads all 88 trailing rows of an 80-step run at k = 4 (a
        # window of 10 blocks of 8 and one before it): every row is held
        rng = np.random.default_rng(7)
        spec = SystemSpec(k=4, A=symmetric_positive_with_rho(rng, 16, 1.0),
                          denom=rng.uniform(0.0, 0.1, (16, 3, 16)))
        histories = [rng.uniform(0.0, 10.0, (4, 16)) for _ in range(5)]
        assert rows_read(80, 4) >= 80 + 4
        for horizon in (80, 2000):
            held = _kernel_batch(kernel, spec, histories, horizon, Tolerances())
            full = _kernel_batch(kernel, spec, histories, horizon)
            for got, want in zip(held, full):
                assert got.end == want.end and _held_match(got, want)
                assert (got.held_from == got.n_first) == (horizon == 80)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_slides_copy_under_eight_rows_a_step(self, kernel):
        # each slide copies the held rows, so slides come at most every eighth of them
        spec, histories = _rho1_batch(1)
        make, blocks = getattr(simulator, kernel), []  # (start, steps) of each block

        def recording(spec, values):
            step_block = make(spec, values)

            def recorded(live, start, steps):
                blocks.append((start, steps))
                return step_block(live, start, steps)

            return recorded

        tol = Tolerances()
        (traj,) = simulator._drive(recording, spec, [InitialConditions(histories[2])], 6000, tol)
        assert traj.end.reason == HORIZON and sum(steps for _, steps in blocks) == 6000
        slides = sum(start < before + steps for (before, steps), (start, _) in zip(blocks, blocks[1:]))
        assert slides > 0 and slides * max(rows_read(6000, 2), 6) < 8 * 6000

    def test_calls_without_tolerances_hold_every_row(self):
        spec, histories, horizon, *_ = self.CASES["horizon-and-cycles"]
        for traj in simulate_batch(spec, histories, horizon):
            assert traj.held_from == traj.n_first


class TestRunSize:
    """A call is refused by the rows it maps: its window given tolerances, else every row."""

    SPEC = SystemSpec(k=2, A=[[0.0, 0.5], [0.5, 0.0]])
    HISTORIES = [np.full((2, 2), float(i)) for i in range(1, 6)]

    def test_a_window_under_the_limit_runs_past_a_full_horizon_over_it(self):
        horizon = 3 * 10**7
        trajs = simulate_batch(self.SPEC, self.HISTORIES, horizon, tolerances=Tolerances())
        assert [t.end for t in trajs] == [RunEnd(ZERO_STOP, 64)] * 5
        # without tolerances the call holds, and is refused by, every row
        with pytest.raises(ValueError) as refused:
            simulate_batch(self.SPEC, self.HISTORIES, horizon)
        assert str(refused.value) == (
            "5 x 30000002 x 2 trajectory values need 2400000160 bytes, "
            f"more than the limit of {MAX_RUN_BYTES}")

    def test_a_window_over_the_limit_is_refused_by_its_rows(self):
        # rows_read's 200 000 000 004 rows and a block per 8 held
        with pytest.raises(ValueError) as refused:
            simulate_batch(self.SPEC, self.HISTORIES, 10**12, tolerances=Tolerances())
        assert str(refused.value) == (
            "5 x 225000000068 x 2 trajectory values need 18000000005440 bytes, "
            f"more than the limit of {MAX_RUN_BYTES}")
        # past the float range too: a fifth of the horizon and 2k, 2 * 10**399 + 4 rows,
        # and a block per 8 held
        width = "225" + "0" * 394 + "068"
        with pytest.raises(ValueError, match=f"5 x {width} x 2 .* more than the limit"):
            simulate_batch(self.SPEC, self.HISTORIES, 10**400, tolerances=Tolerances())


#: History entries of the zero-stop fuzz: signed zeros, subnormals and 1e300 among plain draws.
_SMALL_AND_HUGE = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e300])


@st.composite
def _contracting_batches(draw):
    """(spec, histories, horizon, zero_tol, growth_threshold): m 1-5, k 2-5, row sums below 0.95."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    raw = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=m * m, max_size=m * m)), (m, m))
    rows = raw.sum(axis=1).max()
    a = draw(st.floats(0.05, 0.95)) * (raw / rows if rows > 0.0 else raw)
    q = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), min_size=m * (k - 1) * m,
                      max_size=m * (k - 1) * m))
    spec = SystemSpec(k=k, A=a, denom=np.reshape(q, (m, k - 1, m)))
    entry = st.one_of(_SMALL_AND_HUGE, st.floats(0.0, 10.0))
    histories = draw(st.lists(st.lists(entry, min_size=k * m, max_size=k * m),
                              min_size=1, max_size=4))
    scales = st.sampled_from([1.0, 1e-6, 1e-12])
    histories = [np.reshape(h, (k, m)) * draw(scales) for h in histories]
    horizon = draw(st.integers(1, 400))
    zero_tol = draw(st.sampled_from([1e-8, 1e-3, 1e-300]))
    growth_threshold = draw(st.sampled_from([1e6, 1e-3, 1e300]))
    return spec, histories, horizon, zero_tol, growth_threshold


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_contracting_batches())
def test_cut_runs_analyze_like_full_runs(case):
    loop = TestStopBelow._runs("_loop_kernel", *case)
    numpy = TestStopBelow._runs("_numpy_kernel", *case)
    assert all(_same_run(a, b) for a, b in zip(loop, numpy))


#: Coefficients and history entries of the kernel fuzz: signed zeros and 1.0
#: (which make exact cycles) among plain draws.
_EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0])


@st.composite
def _kernel_batches(draw):
    """(spec, histories, horizon, tolerances) with m 1-4, k 2-5 and starts up to 1e300."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    # 1e10 makes a run overflow within a few dozen steps
    a = draw(st.lists(st.one_of(_EDGE_VALUES, st.floats(0.0, 2.0), st.just(1e10)),
                      min_size=m * m, max_size=m * m))
    q = draw(st.lists(st.one_of(_EDGE_VALUES, st.floats(0.0, 1.5)), min_size=m * (k - 1) * m,
                      max_size=m * (k - 1) * m))
    spec = SystemSpec(k=k, A=np.reshape(a, (m, m)), denom=np.reshape(q, (m, k - 1, m)))
    entry = st.one_of(_EDGE_VALUES, st.floats(0.0, 10.0), st.floats(0.0, 1e300))
    histories = draw(st.lists(st.lists(entry, min_size=k * m, max_size=k * m),
                              min_size=1, max_size=4))
    scales = st.sampled_from([1.0, 1.0, 1e-100, 1e-200])
    histories = [np.reshape(h, (k, m)) * draw(scales) for h in histories]
    horizon = draw(st.integers(1, 200))
    threshold = draw(st.sampled_from([None, 1e3, 1e150, 1e-200]))
    return spec, histories, horizon, threshold and _growth_stop(threshold)


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_kernel_batches())
def test_kernels_agree_on_random_batches(case):
    # both kernels through the one driver, and the oracle on runs with no stop
    spec, histories, horizon, tolerances = case
    loop = _kernel_batch("_loop_kernel", spec, histories, horizon, tolerances)
    numpy = _kernel_batch("_numpy_kernel", spec, histories, horizon, tolerances)
    assert all(_same_run(a, b) for a, b in zip(loop, numpy)) and len(loop) == len(histories)
    if tolerances is None:
        for history, traj in zip(histories, loop):
            rows, diverged_at = oracle_simulate(spec, history, horizon)
            assert traj.diverged_at == diverged_at and traj.horizon == len(rows) - spec.k
            assert (_whole(traj).view(np.uint64) == rows.view(np.uint64)).all()


class TestHorizonType:
    def test_float_horizon_is_refused(self):
        spec = SystemSpec(k=2, A=np.eye(2))
        history = np.ones((2, 2))
        # and a bool, an Integral that is no horizon, as in Tolerances
        for horizon in (5.0, np.float64(5.0), 5.5, True, False, np.True_):
            with pytest.raises(ValueError, match="integer"):
                simulate(spec, InitialConditions(history), horizon)
            with pytest.raises(ValueError, match="integer"):
                simulate_batch(spec, [history] * 40, horizon)  # the numpy side

    def test_numpy_integer_horizon_runs_like_int(self):
        spec = SystemSpec(k=2, A=[[0.5, 0.5], [0.25, 0.5]])
        history = [[1.0, 2.0], [3.0, 4.0]]
        for batch in (1, 40):
            want = simulate_batch(spec, [history] * batch, 200)
            for horizon in (np.int64(200), np.int32(200)):
                got = simulate_batch(spec, [history] * batch, horizon)
                assert all(_same_run(g, w) for g, w in zip(got, want))


class TestSimulateLinear:
    """The comparison system u_n = A u_{n-k}: a spec with no denominator terms."""

    def test_zero_matrix(self):
        init = InitialConditions(np.ones((2, 2)))
        traj = simulate(SystemSpec(k=2, A=np.zeros((2, 2))), init, 10)
        assert not generated(traj).any()

    def test_period_four_rotation(self):
        init = InitialConditions(np.array([[1.0, 0.0], [0.0, 0.0]]))
        traj = simulate(SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]]), init, 8)
        np.testing.assert_array_equal(row_at(traj, 1), [0.0, 1.0])
        np.testing.assert_array_equal(row_at(traj, 3), [1.0, 0.0])
        np.testing.assert_array_equal(row_at(traj, 5), [0.0, 1.0])

    def test_scalar_scaling(self):
        init = InitialConditions(np.array([[4.0, 8.0], [2.0, 2.0]]))
        traj = simulate(SystemSpec(k=2, A=0.5 * np.eye(2)), init, 10)
        for n in range(1, 11):
            np.testing.assert_allclose(row_at(traj, n), 0.5 * row_at(traj, n - 2), rtol=0, atol=0)

    def test_matches_matrix_powers(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            a = rng.uniform(0.0, 1.0, (m, m))
            init = random_init(rng, k, m, 5.0)
            horizon = 5 * k
            traj = simulate(SystemSpec(k=k, A=a), init, horizon)
            for n in range(1, horizon + 1):
                # u_{kq+b} = A^q u_b with b the residue of n
                q, b = divmod(n - (1 - k), k)
                expected = np.linalg.matrix_power(a, q) @ init.history[b]
                np.testing.assert_allclose(row_at(traj, n), expected, atol=1e-9)
