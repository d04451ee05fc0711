"""End-to-end CLI behavior: configs, CSV round-trips, exit codes, determinism."""

import copy
import math
import re

import numpy as np
import pytest
import yaml

from ratsys.cli import CSV_CHUNK_ROWS, main, read_trajectory_csv, write_trajectory_csv
from ratsys import SystemSpec, InitialConditions, Trajectory, simulate, verify_classification
from ratsys.simulator import simulate_batch

IDENTITY_CONF = """
mode: tetrachotomy
rng_seed: 7
system:
  k: 2
  A: [[1.0, 0.0], [0.0, 1.0]]
run:
  horizon: 10
init:
  seed: explicit
  history: [[1.0, 2.0], [3.0, 4.0]]
"""

RANK_ONE_CONF = """
mode: tetrachotomy
rng_seed: 11
system:
  k: 2
  A: [[0.5, 0.5], [0.5, 0.5]]
  denom:
    - {i: 1, j: 1, q: [0.25, 0.25]}
    - {i: 2, j: 1, q: [0.25, 0.25]}
run:
  horizon: 2000
  trials: 6
init:
  seed: periodic
"""

UNBOUNDED_CONF = """
mode: tetrachotomy
rng_seed: 13
system:
  k: 2
  A: [[2.0, 2.0], [2.0, 2.0]]
run:
  horizon: 4000
init:
  seed: unbounded
"""

CASE3_CONF = """
mode: tetrachotomy
rng_seed: 17
system:
  k: 2
  A: [[0.0, 1.0], [1.0, 0.0]]
  denom:
    - {i: 1, j: 1, q: [0.3, 0.3]}
    - {i: 2, j: 1, q: [0.3, 0.3]}
run:
  horizon: 2000
  trials: 5
init:
  seed: period2k
  a: 1.0
  b: 0.0
"""

K1_CONF = """
system:
  k: 1
  A: [[1.0, 0.0], [0.0, 1.0]]
"""

TRICHO_CONF = """
mode: trichotomy
rng_seed: 19
system:
  k: 2
  A: [[0.6, 0.4], [0.4, 0.6]]
  denom:
    - {i: 1, j: 1, q: [0.5, 0.5]}
    - {i: 2, j: 1, q: [0.5, 0.5]}
run:
  horizon: 4000
  trials: 10
"""

WRONG_EXPECT_CONF = RANK_ONE_CONF + """
verify:
  expect: converges-to-zero
"""

SWEEP_CONF = """
mode: tetrachotomy
rng_seed: 23
system:
  k: 2
  A: [[0.5, 0.5], [0.5, 0.5]]
  denom:
    - {i: 1, j: 1, q: [0.25, 0.25]}
    - {i: 2, j: 1, q: [0.25, 0.25]}
run:
  horizon: 1500
  trials: 4
sweep:
  c: [0.5, 1.0, 2.0]
"""

STRADDLE_CONF = """
mode: tetrachotomy
rng_seed: 29
system:
  k: 2
  A: [[0.5, 0.5], [0.5, 0.5]]
run:
  horizon: 1500
  trials: 3
sweep:
  c: [0.999, 1.0, 1.001]
"""


#: A config with every section; each probe below breaks one field of it.
PROBE_BASE = {
    "mode": "tetrachotomy",
    "rng_seed": 3,
    "system": {"k": 2, "A": [[0.5, 0.5], [0.5, 0.5]],
               "denom": [{"i": 1, "j": 1, "q": [0.25, 0.25]}]},
    "run": {"horizon": 100, "trials": 2, "init_max": 10.0},
    "init": {"seed": "periodic"},
    "tolerances": {"zero_tol": 1e-8, "per_tol": 1e-7, "max_period": 4},
    "sweep": {"c": [0.5, 1.0], "denom_scale": [1.0]},
    "verify": {},
}

#: (command, section, key, bad value, dotted field the error must name)
CONFIG_PROBES = [
    ("classify", "system", "A", [[0.5, "x"], [0.5, 0.5]], "system.A"),
    ("classify", "system", "denom", [{"i": 1, "j": 1, "q": [0.25, "x"]}], "system.denom.q"),
    ("classify", "sweep", "c", [0.5, "abc"], "sweep.c"),
    ("classify", "sweep", "denom_scale", ["x"], "sweep.denom_scale"),
    ("classify", "tolerances", "max_period", "four", "tolerances.max_period"),
    ("classify", None, "init", {"seed": "explicit", "history": [[1.0, 2.0], [3.0]]},
     "init.history"),
    ("classify", "run", "init_max", math.nan, "run.init_max"),
    ("classify", "tolerances", "max_period", 0, "tolerances.max_period"),
    ("classify", "tolerances", "per_tol", math.inf, "tolerances.per_tol"),
    ("classify", "tolerances", "zero_tol", -1, "tolerances.zero_tol"),
    ("classify", "run", "trials", True, "run.trials"),
    ("classify", None, "rng_seed", -5, "rng_seed"),
    ("classify", "verify", "expect", "bogus", "verify.expect"),
    ("verify", "sweep", "c", [], "sweep.c"),
]


@pytest.fixture(params=["libyaml", "python"])
def yaml_loader(request, monkeypatch):
    """Run a test with libyaml's loader, then with PyYAML's pure-Python one.

    ``config.load_config`` takes ``yaml.CSafeLoader`` when PyYAML was
    built with libyaml; deleting the attribute makes it fall back.
    """
    if request.param == "python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    return request.param


def write_conf(tmp_path, text, name="conf.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigErrors:
    def test_probe_base_is_valid(self, tmp_path):
        conf = write_conf(tmp_path, yaml.safe_dump(PROBE_BASE))
        assert main(["classify", "--config", conf]) == 0

    @pytest.mark.parametrize("command,section,key,value,field", CONFIG_PROBES)
    def test_bad_field_is_one_line_naming_it(self, tmp_path, capsys, command, section,
                                             key, value, field):
        doc = copy.deepcopy(PROBE_BASE)
        (doc if section is None else doc[section])[key] = value
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main([command, "--config", conf]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} "), err

    def test_yaml_syntax_error_is_one_line(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "system:\n  k: 2\n  A: [[0.5, 0.5]\n run: {}\n")
        assert main(["classify", "--config", conf]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config does not parse: ")
        assert err[0].endswith("at line 4, column 2"), err

    @pytest.mark.parametrize("text,where", [
        (b"system:\n  k: 2\n  A: [[0.5, 0.5]\n run: {}\n", " at line 4, column 2"),
        (b"a: [1, 2", " at line \\d+, column \\d+"),
        (b"a: b: c\n", " at line 1, column 5"),
        (b"- a\nb: 1\n", " at line 2, column 1"),
        (b"a: 'x", " at line 1, column 6"),
        (b"a: \x01\n", ""),
        (b"a: \xff\xfe\n", ""),
    ])
    def test_yaml_errors_are_one_line_under_either_loader(self, tmp_path, capsys, yaml_loader,
                                                          text, where):
        # libyaml words problems differently and may mark another place:
        # "a: [1, 2" is marked at line 2, column 1, not line 1, column 9
        path = tmp_path / "conf.yaml"
        path.write_bytes(text)
        assert main(["classify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1, err
        assert re.fullmatch(f"error: config does not parse: [^\n]+?{where}", err[0]), err


    @pytest.mark.parametrize("argv", [
        ["verify", "--config", "{conf}", "--horizon", "abc"],
        ["verify", "--config", "{conf}", "--horizon", "1.5"],
        ["verify"],
        ["simulate", "--config", "{conf}"],
        ["frobnicate", "--config", "{conf}"],
    ])
    def test_bad_command_line_is_one_line(self, tmp_path, capsys, argv):
        conf = write_conf(tmp_path, yaml.safe_dump(PROBE_BASE))
        assert main([arg.format(conf=conf) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ratsys")


class TestSimulateCommand:
    def test_identity_row_count(self, tmp_path):
        conf = write_conf(tmp_path, IDENTITY_CONF)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,v1,v2"
        assert len(lines) == 1 + 10 + 2  # header + horizon + k initial rows
        assert lines[1].startswith("-1,")

    def test_diverged_partial_csv_with_footer(self, tmp_path):
        conf = write_conf(tmp_path, UNBOUNDED_CONF)
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", conf, "--out", str(out)])
        assert code != 0
        text = out.read_text()
        assert "# diverged at n=" in text

    def test_k1_rejected_with_field_name(self, tmp_path, capsys):
        conf = write_conf(tmp_path, K1_CONF)
        code = main(["simulate", "--config", conf, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "k" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        spec = SystemSpec(k=3, A=rng.uniform(0, 1, (2, 2)) * 0.7,
                          denom=rng.uniform(0, 1, (2, 2, 2)))
        traj = simulate(spec, InitialConditions(rng.uniform(0, 10, (3, 2))), 50)
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj)
        ns, values, diverged = read_trajectory_csv(str(path))
        assert ns[0] == -2 and ns[-1] == 50
        assert diverged is None
        np.testing.assert_array_equal(values, traj.values)


def per_value_csv(traj):
    """A trajectory CSV with one ``format(x, ".17g")`` call per value, as one string."""
    lines = ["n," + ",".join(f"v{i + 1}" for i in range(traj.m))]
    for offset, row in enumerate(traj.values):
        lines.append(f"{traj.n_first + offset}," + ",".join(format(float(x), ".17g") for x in row))
    if traj.diverged_at is not None:
        lines.append(f"# diverged at n={traj.diverged_at}")
    return ("\n".join(lines) + "\n").encode()


class TestTrajectoryCsv:
    @pytest.mark.parametrize("rows", [
        2,  # k rows: with diverged, a run that diverged at its first step
        3,  # fewer than 2k rows
        4,  # exactly 2k rows
        5,  # 2k + 1 rows, the last a repeat of the first
        CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
    ])
    @pytest.mark.parametrize("diverged", [False, True])
    def test_chunked_write_is_the_per_value_format(self, tmp_path, rows, diverged):
        rng = np.random.default_rng(rows)
        m, k = 3, 2
        values = rng.uniform(0.0, 1.0, (rows, m)) * 10.0 ** rng.integers(-320, 308, (rows, m))
        values[0] = [0.0, 5e-324, np.finfo(float).max]
        if rows == 2 * k + 1:
            values[-1] = values[0]
        horizon = rows - k
        traj = Trajectory(spec=SystemSpec(k=k, A=np.eye(m)), values=values, horizon=horizon,
                          diverged_at=horizon + 1 if diverged else None)
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == per_value_csv(traj)
        ns, back, diverged_at = read_trajectory_csv(str(path))
        assert ns.tolist() == list(range(1 - k, horizon + 1))
        assert (back.view(np.uint64) == traj.values.view(np.uint64)).all()
        assert diverged_at == traj.diverged_at

    @staticmethod
    def _repeating(rng, rows, m, k, entry, zeros):
        """Random values in which every row from ``entry`` on repeats the row 2k before it.

        With ``zeros``, some values are 0.0 or -0.0, so rows before ``entry``
        can repeat the row 2k before them too.
        """
        values = rng.uniform(0.0, 1.0, (rows, m)) * 10.0 ** rng.integers(-320, 308, (rows, m))
        if zeros:
            values[rng.uniform(size=(rows, m)) < 0.1] = 0.0
            values[rng.uniform(size=(rows, m)) < 0.05] = -0.0
        for i in range(max(entry, 2 * k), rows):
            values[i] = values[i - 2 * k]
        return values

    @pytest.mark.parametrize("m,k,entry,zeros", [
        (2, 2, 2000, True),  # mid-chunk
        (2, 2, CSV_CHUNK_ROWS - 1, True),
        (2, 2, CSV_CHUNK_ROWS, True),
        (2, 2, CSV_CHUNK_ROWS + 1, True),
        (3, 5, 0, True),  # from the first row that can repeat
        # a period of 4200 rows, longer than a chunk; without zeros the
        # chunks before the entry repeat nothing
        (1, 2100, 5000, True),
        (1, 2100, 2 * CSV_CHUNK_ROWS, False),
        (2, 3, None, True),  # no repeats at all
    ])
    @pytest.mark.parametrize("diverged", [False, True])
    def test_exact_cycles_are_the_per_value_format(self, tmp_path, m, k, entry, zeros, diverged):
        rng = np.random.default_rng(k + (entry or 0))
        rows = 3 * CSV_CHUNK_ROWS + 5 + (4 * k if k > 100 else 0)
        values = self._repeating(rng, rows, m, k, rows if entry is None else entry, zeros)
        if entry is None:
            values[2 * k:] += 1.0  # no row is the row 2k before it
        horizon = rows - k
        traj = Trajectory(spec=SystemSpec(k=k, A=np.eye(m)), values=values, horizon=horizon,
                          diverged_at=horizon + 1 if diverged else None)
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == per_value_csv(traj)

    def test_zero_class_and_drifting_class(self, tmp_path):
        # k = 2: the even rows are exactly 0 and repeat, the odd rows drift
        rows, k = 2 * CSV_CHUNK_ROWS + 7, 2
        values = np.zeros((rows, 2))
        values[1::2] = np.linspace(1.0, 2.0, values[1::2].size).reshape(-1, 2)
        traj = Trajectory(spec=SystemSpec(k=k, A=np.eye(2)), values=values, horizon=rows - k)
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == per_value_csv(traj)

    def test_negative_zero_history_is_not_a_repeat(self, tmp_path):
        # -0.0 == 0.0, but row 2k must read 0,0 where the history row reads -0,-0
        spec = SystemSpec(k=2, A=np.zeros((2, 2)))
        traj = simulate(spec, InitialConditions([[-0.0, -0.0], [1.0, 2.0]]), 10)
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == per_value_csv(traj)
        lines = path.read_text().splitlines()
        assert lines[1] == "-1,-0,-0" and lines[1 + 2 * spec.k] == "3,0,0"


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "conf,expected",
        [
            (RANK_ONE_CONF, ("regime: period-k", "theorem: T4-II")),
            (UNBOUNDED_CONF, ("regime: unbounded-exists", "theorem: T4-IV")),
            (CASE3_CONF, ("regime: period-2k", "theorem: T4-III")),
            (TRICHO_CONF, ("regime: period-k", "theorem: T3-ii")),
        ],
    )
    def test_reports(self, tmp_path, capsys, conf, expected):
        path = write_conf(tmp_path, conf)
        assert main(["classify", "--config", path]) == 0
        out = capsys.readouterr().out
        for token in expected:
            assert token in out
        assert "eigenvalues:" in out

    @pytest.mark.parametrize("command", ["classify", "simulate"])
    @pytest.mark.parametrize(
        "mode,a,rho_tol,seed,regime",
        [
            ("tetrachotomy", [[0.5, 0.5000005], [0.5000005, 0.5]], 1e-6, "periodic",
             "period-k"),
            ("trichotomy", [[0.5000000001, 0.5], [0.5, 0.5]], 1e-12, "unbounded",
             "unbounded-exists"),
        ],
    )
    def test_rho_tol_governs_witness_seed(self, tmp_path, capsys, command, mode, a,
                                          rho_tol, seed, regime):
        doc = {"mode": mode, "system": {"k": 2, "A": a}, "run": {"horizon": 50},
               "init": {"seed": seed}, "tolerances": {"rho_tol": rho_tol}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main([command, "--config", conf, "--out", str(tmp_path / "t.csv")]) == 0
        if command == "classify":
            assert f"regime: {regime}" in capsys.readouterr().out

    def test_power_iteration_stall_is_one_line(self, tmp_path, capsys):
        # a Perron gap of ~1e-8 stalls power iteration, plain and shifted alike
        a = np.full((3, 3), 1e-8)
        np.fill_diagonal(a, 1.0)
        a[0, 0] = 1.0 + 1e-8
        doc = {"mode": "trichotomy", "system": {"k": 2, "A": a.tolist()}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main(["classify", "--config", conf]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: power iteration"), err

    def test_small_perron_gap_2x2_classifies(self, tmp_path, capsys):
        # the closed form needs no iteration, however small the Perron gap
        a = [[1.0 + 1e-8, 1e-8], [1e-8, 1.0]]
        doc = {"mode": "trichotomy", "system": {"k": 2, "A": a}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main(["classify", "--config", conf]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["regime"] == "unbounded-exists"
        got = [float(x) for x in lines["eigenvalues"].split(", ")]
        np.testing.assert_allclose(got, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-15)

    def test_eigenvalue_near_minus_rho_classifies(self, tmp_path, capsys):
        # an eigenvalue is close to -rho, so only the shifted iteration settles
        eps = 1e-4
        a = np.array([[eps, 1.0, 1.0], [1.0, eps, eps], [1.0, eps, eps]])
        a /= np.abs(np.linalg.eigvalsh(a)).max()
        doc = {"mode": "trichotomy", "system": {"k": 2, "A": a.tolist()}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main(["classify", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "regime: period-k" in out and "perron: r=" in out

    def test_case3_radius_is_the_kernels(self, tmp_path, capsys):
        a = [[0.0, 2.0], [0.5000005, 0.0]]
        doc = {"mode": "tetrachotomy", "system": {"k": 2, "A": a},
               "tolerances": {"rho_tol": 1.0e-6}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main(["classify", "--config", conf]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["regime"] == "period-2k"
        rho = float(np.abs(np.linalg.eigvals(np.array(a))).max())
        assert float(lines["rho"]) == pytest.approx(rho, rel=1e-15, abs=0)
        assert [float(x) for x in lines["eigenvalues"].split(", ")] == [
            float(lines["rho"]), -float(lines["rho"])]

    def test_classify_requires_mode(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "system: {k: 2, A: [[0.5, 0.0], [0.0, 0.5]]}\n")
        assert main(["classify", "--config", conf]) == 1
        assert "mode" in capsys.readouterr().err


class TestVerifyCommand:
    def test_period_k_all_pass(self, tmp_path, capsys):
        conf = write_conf(tmp_path, RANK_ONE_CONF)
        assert main(["verify", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "witness" in out and "FAIL" not in out

    def test_trichotomy_pass(self, tmp_path):
        conf = write_conf(tmp_path, TRICHO_CONF)
        assert main(["verify", "--config", conf]) == 0

    def test_case3_pass(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CASE3_CONF)
        assert main(["verify", "--config", conf]) == 0
        assert "period 4" in capsys.readouterr().out

    def test_wrong_expectation_fails_with_counterexample(self, tmp_path, capsys):
        conf = write_conf(tmp_path, WRONG_EXPECT_CONF)
        code = main(["verify", "--config", conf])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out
        assert "counterexample init:" in out
        # the witness was built for the predicted regime, not the expected one
        assert "witness:" not in out

    def test_unbounded_witness_pass(self, tmp_path, capsys):
        conf = write_conf(tmp_path, UNBOUNDED_CONF)
        assert main(["verify", "--config", conf, "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "witness" in out

    @pytest.mark.parametrize(
        "flag,value", [("--trials", "-3"), ("--horizon", "0"), ("--seed", "-5")]
    )
    def test_out_of_range_override_rejected(self, tmp_path, capsys, flag, value):
        conf = write_conf(tmp_path, RANK_ONE_CONF)
        assert main(["verify", "--config", conf, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag[2:] in err[0]


class TestSizeLimit:
    @pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
    def test_huge_horizon_is_one_line(self, tmp_path, capsys, command):
        conf = write_conf(tmp_path, yaml.safe_dump(PROBE_BASE))
        argv = [command, "--config", conf, "--horizon", "1000000000000"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "limit" in err[0], err

    def test_huge_trial_count_is_one_line(self, tmp_path, capsys):
        conf = write_conf(tmp_path, yaml.safe_dump(PROBE_BASE))
        assert main(["verify", "--config", conf, "--trials", "1000000000000"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "limit" in err[0], err

    @pytest.mark.parametrize("system", [
        {"k": 1000000000000, "A": [[0.5, 0.5], [0.5, 0.5]]},
        {"k": 1000000000000, "scalar": {"beta": 0.5, "gamma": 0.5, "delta": 0.5,
                                        "epsilon": 0.5}},
    ])
    def test_huge_k_is_one_line(self, tmp_path, capsys, system):
        doc = dict(PROBE_BASE, system=system)
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main(["classify", "--config", conf]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: system.k ") and "limit" in err[0], err


class TestSweepCommand:
    def test_three_cell_grid_regime_sequence(self, tmp_path):
        conf = write_conf(tmp_path, SWEEP_CONF)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", conf, "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "c,rho,regime,verified,period_observed"
        cells = [line.split(",") for line in lines[1:]]
        assert [c[2] for c in cells] == ["converges-to-zero", "period-k", "unbounded-exists"]
        assert all(c[3] == "true" for c in cells)
        assert cells[1][4] == "2"

    def test_single_cell(self, tmp_path):
        conf = write_conf(tmp_path, SWEEP_CONF.replace("c: [0.5, 1.0, 2.0]", "c: [1.0]"))
        out_dir = tmp_path / "single"
        assert main(["sweep", "--config", conf, "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_each_witness_simulated_once(self, tmp_path, monkeypatch):
        histories = []

        def counting_simulate_batch(spec, batch, horizon):
            histories.extend(batch)
            return simulate_batch(spec, batch, horizon)

        monkeypatch.setattr("ratsys.classifier.simulate_batch", counting_simulate_batch)
        monkeypatch.setattr("ratsys.cli.simulate", None)  # sweep must not simulate run by run
        conf = write_conf(tmp_path, SWEEP_CONF)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", conf, "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        cells = [line.split(",") for line in lines[1:]]
        assert [c[4] for c in cells] == ["", "2", ""]
        witnesses = sum(c[2] != "converges-to-zero" for c in cells)
        assert witnesses == 2
        assert len(histories) == len(cells) * 4 + witnesses  # trials: 4

    def test_empty_grid_rejected(self, tmp_path, capsys):
        conf = write_conf(tmp_path, SWEEP_CONF.replace("c: [0.5, 1.0, 2.0]", "c: []"))
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "s")]) == 1
        assert "grid" in capsys.readouterr().err

    def test_straddle_grid_has_one_period_k_row(self, tmp_path):
        conf = write_conf(tmp_path, STRADDLE_CONF)
        out_dir = tmp_path / "straddle"
        assert main(["sweep", "--config", conf, "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        regimes = [line.split(",")[2] for line in lines[1:]]
        assert regimes.count("period-k") == 1
        assert regimes == ["converges-to-zero", "period-k", "unbounded-exists"]


#: Nonsymmetric kernel c * [[0.5, 1], [0.25, 0.5]]: radius c, Perron vector (2, 1).
SKEW_SWEEP = {
    "mode": "tetrachotomy",
    "rng_seed": 37,
    "system": {"k": 2, "A": [[0.5, 1.0], [0.25, 0.5]]},
    "run": {"horizon": 2000, "trials": 20},
    "sweep": {"c": [0.8, 1.0, 1.3]},
}


class TestNonsymmetricKernels:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sweep_gives_the_tetrachotomy(self, tmp_path, monkeypatch, k):
        doc = copy.deepcopy(SKEW_SWEEP)
        doc["system"]["k"] = k
        doc["system"]["denom"] = [{"i": i, "j": j, "q": [0.5, 0.5]}
                                  for i in (1, 2) for j in range(1, k)]
        reports = []

        def recording_verify(*args, **kwargs):
            reports.append(verify_classification(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr("ratsys.cli.verify_classification", recording_verify)
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "s")]) == 0
        lines = (tmp_path / "s" / "sweep.csv").read_text().strip().splitlines()
        cells = [line.split(",") for line in lines[1:]]
        assert [c[2] for c in cells] == ["converges-to-zero", "period-k", "unbounded-exists"]
        assert [c[4] for c in cells] == ["", str(k), ""]
        assert len(reports) == len(cells)
        for cell, report in zip(cells, reports):
            assert cell[3] == ("true" if report.passed else "false")
            # a run that outlasts the horizon is undetermined, not a contradiction
            assert all(c.observed == "undetermined" for c in report.failures()), cell

    @pytest.mark.parametrize("command", ["classify", "verify", "sweep"])
    @pytest.mark.parametrize("a", [
        [[1.0, 1.0], [0.0, 1.0]],
        [[1.0, 0.0], [1.0, 1.0]],
        [[1.0, 1.0], [1e-20, 1.0]],
    ])
    def test_jordan_block_is_one_error_line(self, tmp_path, capsys, command, a):
        doc = {"mode": "tetrachotomy", "system": {"k": 2, "A": a},
               "run": {"horizon": 50, "trials": 1}, "sweep": {"c": [1.0]}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main([command, "--config", conf, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Jordan" in err[0], err

    @pytest.mark.parametrize("a,regime", [
        ([[1.000000001, 0.0], [0.0, 0.5]], "period-k"),
        ([[1.0, 1.0], [1e-18, 1.0]], "period-k"),
        ([[0.0, 1.0], [1.0000000015, 0.0]], "period-2k"),
    ])
    def test_band_edge_regime_gets_its_witness(self, tmp_path, capsys, a, regime):
        # rho within rho_tol of 1, but |rho - 1| or |g h - 1| computed above it
        doc = {"mode": "tetrachotomy", "system": {"k": 2, "A": a}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main(["classify", "--config", conf]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = dict(line.split(": ", 1) for line in captured.out.splitlines())
        assert lines["regime"] == regime


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        conf = write_conf(tmp_path, RANK_ONE_CONF)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", conf, "--out", str(a)]) == 0
        assert main(["simulate", "--config", conf, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_report_byte_identical(self, tmp_path):
        conf = write_conf(tmp_path, TRICHO_CONF)
        a, b = tmp_path / "ra.txt", tmp_path / "rb.txt"
        assert main(["verify", "--config", conf, "--out", str(a), "--trials", "5"]) == 0
        assert main(["verify", "--config", conf, "--out", str(b), "--trials", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_byte_identical_and_seed_sensitivity(self, tmp_path):
        conf = write_conf(tmp_path, SWEEP_CONF)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", conf, "--out", str(d1)]) == 0
        assert main(["sweep", "--config", conf, "--out", str(d2)]) == 0
        assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
