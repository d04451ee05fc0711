"""End-to-end CLI behavior: configs, CSV round-trips, exit codes, determinism."""

import copy
import gc
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from ratsys import cli
from ratsys.cli import CSV_CHUNK_ROWS, main, write_trajectory_csv
from ratsys import SystemSpec, InitialConditions, Trajectory, simulate, verify_classification
from ratsys.analysis import UNDETERMINED, Tolerances
from ratsys.config import ConfigError, check, load_config
from ratsys.model import DIVERGED, EXACT_CYCLE, RunEnd
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

#: A contracting kernel: converges-to-zero, which has no witness run.
NO_WITNESS_CONF = """
mode: tetrachotomy
system:
  k: 2
  A: [[0, 0.5], [0.5, 0]]
run:
  horizon: 200
  trials: 0
sweep:
  c: [1.0]
"""

#: [[0, 1], [1, 0]] at k = 2 is period-2k: every run has period 4.
SWAP_CONF = """
mode: tetrachotomy
rng_seed: 3
system:
  k: 2
  A: [[0.0, 1.0], [1.0, 0.0]]
run:
  horizon: 400
  trials: 2
sweep:
  c: [1.0]
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

    @pytest.mark.parametrize("section,key,value,field,spelling", [
        ("tolerances", "rho_tol", "1e-9", "tolerances.rho_tol", "1.0e-9"),
        ("tolerances", "growth_threshold", "1.0e6", "tolerances.growth_threshold", "1.0e+6"),
        ("tolerances", "zero_tol", "1E-8", "tolerances.zero_tol", "1.0E-8"),
        ("run", "init_max", "-5e1", "run.init_max", "-5.0e+1"),
        ("system", "A", [[0.5, "1e-3"], [0.5, 0.5]], "system.A", "1.0e-3"),
        ("sweep", "c", [0.5, ".5e0"], "sweep.c", ".5e+0"),
    ])
    def test_number_yaml_reads_as_text_names_the_spelling(self, tmp_path, capsys, yaml_loader,
                                                          section, key, value, field, spelling):
        # PyYAML follows YAML 1.1: a float needs a dot and a signed exponent
        doc = copy.deepcopy(PROBE_BASE)
        doc[section][key] = value
        text = yaml.safe_dump(doc)
        assert "'" not in text  # written unquoted, as a user would
        conf = write_conf(tmp_path, text)
        assert main(["classify", "--config", conf]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} "), err
        assert " as text" in err[0] and err[0].endswith(f": write {spelling}"), err
        number = yaml.safe_load(spelling)
        assert type(number) is float and number == float(spelling)

    @pytest.mark.parametrize("text,digits", [
        ("1e5", "100000"),  # YAML reads it as text
        ("1.0e+5", "100000"),  # YAML reads it as a float
        ("1.5", None),
        ("'1.5e0'", None),
        ("1.0e+300", None),  # past 2**53 a float need not be the integer written
    ])
    def test_integral_number_for_an_int_names_its_digits(self, tmp_path, capsys, yaml_loader,
                                                         text, digits):
        base = yaml.safe_dump(PROBE_BASE)
        assert "horizon: 100\n" in base
        conf = write_conf(tmp_path, base.replace("horizon: 100\n", f"horizon: {text}\n"))
        assert main(["verify", "--config", conf]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run.horizon must be of type int"), err
        assert err[0].endswith(f"; write {digits}") if digits else "write" not in err[0], err

    @pytest.mark.parametrize("key,value", [
        ("zero_tol", -1), ("per_tol", -1e-9), ("growth_threshold", 0), ("growth_threshold", -1),
        ("rho_tol", -1), ("max_period", 0), ("max_period", -2),
    ])
    def test_tolerance_refusal_is_the_types_own(self, tmp_path, key, value):
        # Tolerances states each rule once; the config only names the section
        doc = copy.deepcopy(PROBE_BASE)
        doc["tolerances"][key] = value
        typed = value if key == "max_period" else float(value)
        with pytest.raises(ValueError) as own:
            Tolerances(**{key: typed})
        with pytest.raises(ConfigError) as refused:
            load_config(write_conf(tmp_path, yaml.safe_dump(doc)))
        message = str(refused.value)
        assert message == f"tolerances.{own.value}" and "\n" not in message
        assert message.startswith(f"tolerances.{key} ") and message.endswith(f", got {typed!r}")

    def test_tolerances_left_out_are_the_types_defaults(self, tmp_path):
        doc = copy.deepcopy(PROBE_BASE)
        doc["tolerances"] = {"per_tol": 1.0e-6, "rho_tol": 1.0e-7}
        cfg = load_config(write_conf(tmp_path, yaml.safe_dump(doc)))
        assert cfg.tolerances == Tolerances(per_tol=1.0e-6, rho_tol=1.0e-7)
        del doc["tolerances"]
        assert load_config(write_conf(tmp_path, yaml.safe_dump(doc))).tolerances == Tolerances()

    @pytest.mark.parametrize("section,key,value", [
        ("tolerances", "zero_tol", 10**400),
        ("run", "init_max", -(10**400)),
        ("rng_seed", None, -(10**100)),
        ("run", "horizon", "x" * 100),
    ], ids=["zero_tol-400-digits", "init_max-400-digits", "rng_seed-100-digits", "horizon-text"])
    def test_long_value_is_echoed_cut(self, tmp_path, capsys, section, key, value):
        # a 400-digit zero_tol echoed every digit in a 449-byte line
        doc = copy.deepcopy(PROBE_BASE)
        if key is None:
            doc[section] = value
        else:
            doc[section][key] = value
        assert main(["classify", "--config", write_conf(tmp_path, yaml.safe_dump(doc))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and len(err[0]) < 150, err
        assert err[0].endswith(", got " + repr(value)[:57] + "..."), err

    def test_long_number_text_is_echoed_cut(self, tmp_path, capsys):
        # the value and the spelling to use are cut in the note too
        doc = copy.deepcopy(PROBE_BASE)
        doc["run"]["init_max"] = value = "1" + "0" * 400 + "e5"
        text = yaml.safe_dump(doc)
        assert "'" not in text  # written unquoted, so YAML reads it as text
        assert main(["classify", "--config", write_conf(tmp_path, text)]) == 1
        shown = repr(value)[:57] + "..."
        assert capsys.readouterr().err == (
            f"error: run.init_max must be of type float, got {shown}; YAML read {shown} as text, "
            f"since it reads a float only with a dot and a signed exponent: write {'1' + '0' * 56}...\n")

    @pytest.mark.parametrize("digits", [59, 60, 61])
    def test_echo_cut_starts_past_its_limit(self, digits):
        value = -(10 ** (digits - 2))  # a repr of `digits` characters
        with pytest.raises(ConfigError) as refused:
            check("rng_seed", value)
        shown = repr(value) if digits <= 60 else repr(value)[:57] + "..."
        assert str(refused.value) == f"rng_seed must be >= 0, got {shown}"

    def test_quoted_number_is_named_as_text(self, tmp_path, capsys):
        doc = copy.deepcopy(PROBE_BASE)
        doc["tolerances"]["rho_tol"] = "0.5"
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        assert main(["classify", "--config", conf]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("is quoted: write it without quotes"), err

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

    @pytest.mark.parametrize("argv", [
        ["classify", "--out", "x.txt", "--trials", "5", "--horizon", "7"],
        ["classify", "--out", "x.txt"],
        ["classify", "--trials", "5"],
        ["classify", "--horizon", "7"],
        ["classify", "--seed", "1"],
        ["simulate", "--out", "x.csv", "--trials", "5"],
        ["simulate", "--out", "x.csv", "--seed", "1"],
    ])
    def test_flag_the_command_ignores_is_refused(self, tmp_path, capsys, argv):
        conf = write_conf(tmp_path, yaml.safe_dump(PROBE_BASE))
        paths = [str(tmp_path / a) if a.startswith("x.") else a for a in argv[1:]]
        assert main([argv[0], "--config", conf, *paths]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not list(tmp_path.glob("x.*"))
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unrecognized arguments: --"), err

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


def read_trajectory_csv(path):
    """Read back (indices, values, diverged_at) from a trajectory CSV.

    Only tests read the CSV back, so the reader lives here, not in ``ratsys``.
    """
    ns, rows = [], []
    diverged_at = None
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("n,"):
            raise ValueError(f"{path} is not a trajectory CSV")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "diverged at n=" in line:
                    diverged_at = int(line.split("n=")[1])
                continue
            parts = line.split(",")
            ns.append(int(parts[0]))
            rows.append([float(p) for p in parts[1:]])
    return np.asarray(ns), np.asarray(rows), diverged_at


#: The k at which row CSV_CHUNK_ROWS, the first of the second chunk, has an
#: index n = 1 - k + CSV_CHUNK_ROWS that is a multiple of 10.
K_SPLIT_AT_CHUNK = (CSV_CHUNK_ROWS - 1) % 10 + 2


def per_value_csv(traj):
    """A trajectory CSV with one ``format(x, ".17g")`` call per value, as one string."""
    lines = ["n," + ",".join(f"v{i + 1}" for i in range(traj.m))]
    for offset, row in enumerate(traj.rows(traj.n_first, traj.horizon)):
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
        traj = Trajectory(spec=SystemSpec(k=k, A=np.eye(m)), values=values,
                          end=RunEnd(DIVERGED, horizon) if diverged else None)
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
        traj = Trajectory(spec=SystemSpec(k=k, A=np.eye(m)), values=values,
                          end=RunEnd(DIVERGED, horizon) if diverged else None)
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == per_value_csv(traj)

    def test_zero_class_and_drifting_class(self, tmp_path):
        # k = 2: the even rows are exactly 0 and repeat, the odd rows drift
        rows, k = 2 * CSV_CHUNK_ROWS + 7, 2
        values = np.zeros((rows, 2))
        values[1::2] = np.linspace(1.0, 2.0, values[1::2].size).reshape(-1, 2)
        traj = Trajectory(spec=SystemSpec(k=k, A=np.eye(2)), values=values)
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

    # The rows of an exact cycle from the first n = 10a >= 10 at or past its
    # entry are written ten rows per join; these pin that tail to the
    # per-value format.

    @classmethod
    def _check_cycle(cls, tmp_path, m, k, rows, entry, diverged=False, seed=0):
        """Write a run whose rows from ``entry`` on repeat the row 2k before; compare.

        Unless it diverged, the run ends in an exact cycle that stores only
        its rows before max(entry, 2k), as the simulator stores the rows up
        to its cycle; a run that diverged stores them all.
        """
        values = cls._repeating(np.random.default_rng(seed), rows, m, k, entry, zeros=False)
        horizon, stored = rows - k, max(entry, 2 * k)
        if diverged:
            traj = Trajectory(spec=SystemSpec(k=k, A=np.eye(m)), values=values,
                              end=RunEnd(DIVERGED, horizon))
        else:
            traj = Trajectory(spec=SystemSpec(k=k, A=np.eye(m)), values=values[:stored],
                              end=RunEnd(EXACT_CYCLE, horizon) if stored < rows else None)
            assert (traj.rows(traj.n_first, horizon) == values).all()
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == per_value_csv(traj)

    @pytest.mark.parametrize("m,k,rows,entry", [
        # entering just before or after n = 10, 100 and 1000 (k = 2: row n + 1)
        *[(2, 2, 1234, n + 1) for n in (8, 9, 10, 11, 98, 99, 100, 101, 998, 999, 1000, 1001)],
        # a last decade of 0 .. 9 rows (k = 3: rows n = -2 .. 569 + last)
        *[(2, 3, 572 + last, 40) for last in range(10)],
        # 5 | k: the ten-row pieces repeat every 2k rows; otherwise every 10k rows
        *[(3, k, 25 * k + 301, 6 * k + 1) for k in (5, 15, 10, 3, 7, 12)],
        # a period of 4200 rows, longer than a chunk: 420 ten-row pieces
        *[(1, 2100, 3 * CSV_CHUNK_ROWS + 8405, entry)
          for entry in (4200, 5000, 2 * CSV_CHUNK_ROWS)],
        # entering at a chunk boundary; at k = K_SPLIT_AT_CHUNK that row is the split
        *[(2, k, 3 * CSV_CHUNK_ROWS + 17, entry)
          for k, entry in ((2, CSV_CHUNK_ROWS), (2, 2 * CSV_CHUNK_ROWS),
                           (K_SPLIT_AT_CHUNK, CSV_CHUNK_ROWS),
                           (K_SPLIT_AT_CHUNK, CSV_CHUNK_ROWS - 9))],
        # runs that end before n = 10 (k = 2: 12 rows is the first with n = 10)
        *[(2, 2, rows, 0) for rows in (4, 5, 9, 10, 11, 12)],
    ])
    @pytest.mark.parametrize("diverged", [False, True])
    def test_cycle_tail_is_the_per_value_format(self, tmp_path, m, k, rows, entry, diverged):
        self._check_cycle(tmp_path, m, k, rows, entry, diverged, seed=k + rows + entry)

    def test_cycle_tail_starts_at_the_split(self, tmp_path, monkeypatch):
        # the split is the first n >= 10 past the stored rows that is a
        # multiple of 10: a cycle stored through n = 12 is written ten rows
        # per join from n = 20
        calls = []
        write_cycle = cli._write_cycle
        monkeypatch.setattr(cli, "_write_cycle", lambda fh, texts, n_start, n_end: (
            calls.append((len(texts), n_start, n_end)), write_cycle(fh, texts, n_start, n_end)))
        self._check_cycle(tmp_path, 2, 2, 101, 14)
        k, rows = K_SPLIT_AT_CHUNK, 2 * CSV_CHUNK_ROWS
        self._check_cycle(tmp_path, 1, k, rows, CSV_CHUNK_ROWS - 9)
        assert calls == [(4, 20, 100), (2 * k, CSV_CHUNK_ROWS + 1 - k, rows + 1 - k)]
        # a simulated swap cycles from its first block, which it stores alone;
        # the rows stored by the runs that diverged or ran their horizon are
        # written row by row, whatever repeats they hold
        calls.clear()
        swap = SystemSpec(k=2, A=[[0.0, 1.0], [1.0, 0.0]])
        traj = simulate(swap, InitialConditions([[1.0, 2.0], [3.0, 4.0]]), 1000)
        assert traj.end == (EXACT_CYCLE, 1000) and len(traj.values) == 2 + 64
        path = tmp_path / "swap.csv"
        write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == per_value_csv(traj)
        assert calls == [(4, 70, 1001)]
        calls.clear()
        for end in (None, RunEnd(DIVERGED, 1000)):
            full = Trajectory(spec=swap, values=traj.rows(-1, 1000), end=end)
            write_trajectory_csv(str(path), full)
            assert path.read_bytes() == per_value_csv(full)
        assert calls == []

    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(k=st.integers(2, 12), m=st.integers(1, 3), rows=st.integers(2, 400),
           entry=st.integers(0, 400), diverged=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_any_cycle_is_the_per_value_format(self, tmp_path, k, m, rows, entry, diverged,
                                               seed):
        self._check_cycle(tmp_path, m, k, max(rows, k), entry, diverged, seed)


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
        out = ["--out", str(tmp_path / "t.csv")] if command == "simulate" else []
        assert main([command, "--config", conf, *out]) == 0
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

    @pytest.mark.parametrize("command", ["classify", "verify"])
    @pytest.mark.parametrize("scale", [1e160, 1e200, 5e307, 1e-200])
    def test_kernel_near_the_ends_of_the_float_range(self, tmp_path, capsys, command, scale):
        # Jacobi and power iteration square entries, which overflow or
        # underflow here unless the kernel is rescaled first; at 5e307 the
        # radius passes the largest float and reads inf, as it does at m = 2
        a = (scale * np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 3.0]])).tolist()
        doc = {"mode": "trichotomy", "system": {"k": 2, "A": a},
               "run": {"horizon": 300, "trials": 3}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", conf]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        regime = "converges-to-zero" if scale < 1 else "unbounded-exists"
        if command == "verify":
            assert captured.out.startswith(f"regime: {regime} ")
            assert captured.out.endswith("verdict: all predictions pass\n")
            return
        lines = dict(line.split(": ", 1) for line in captured.out.splitlines())
        assert lines["regime"] == regime
        assert float(lines["rho"]) == pytest.approx((3.0 + math.sqrt(2.0)) * scale, rel=1e-14)
        w = [float(x) for x in lines["perron"].split("w=[")[1].rstrip("]").split(", ")]
        np.testing.assert_allclose(w, [0.5, 0.5, math.sqrt(0.5)], rtol=0, atol=1e-13)

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
    def test_main_freezes_what_is_alive_when_it_starts(self, tmp_path):
        # the objects alive then (numpy's import heap among them) skip every
        # later collection, the interpreter's exit-time passes included
        gc.unfreeze()
        conf = write_conf(tmp_path, RANK_ONE_CONF)
        assert main(["verify", "--config", conf, "--trials", "1"]) == 0
        assert gc.get_freeze_count() > 0

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

    @pytest.mark.parametrize("conf_text,argv,field", [
        (NO_WITNESS_CONF, [], "run.trials"),
        (NO_WITNESS_CONF.replace("trials: 0", "trials: 3"), ["--trials", "0"], "run.trials"),
        (NO_WITNESS_CONF.replace("trials: 0", "trials: 3")
         + "verify:\n  expect: unbounded-exists\n", [], "verify.expect"),
    ], ids=["trials-0", "trials-flag-0", "expect-unbounded"])
    def test_no_gated_check_is_an_error(self, tmp_path, capsys, conf_text, argv, field):
        # no witness and no trials, or informational trials only: nothing to pass
        conf = write_conf(tmp_path, conf_text)
        assert main(["verify", "--config", conf, "--out", str(tmp_path / "r.txt"), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "r.txt").exists()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}"), err

    @pytest.mark.parametrize("conf_text,argv,field", [
        (SWAP_CONF + "tolerances:\n  max_period: 2\n", [], "tolerances.max_period"),
        (SWAP_CONF + "tolerances:\n  max_period: 3\n", [], "tolerances.max_period"),
        (SWAP_CONF, ["--horizon", "3"], "run.horizon"),
        (SWAP_CONF + "tolerances:\n  max_period: 6\n", ["--horizon", "5"], "run.horizon"),
    ], ids=["max-period-2", "max-period-3", "horizon-3", "horizon-5"])
    def test_predicted_period_analyze_cannot_report_is_an_error(self, tmp_path, capsys,
                                                                conf_text, argv, field):
        # analyze reports periods up to max_period (default 2k), and none on
        # a horizon shorter than that: the witness check would always read FAIL
        conf = write_conf(tmp_path, conf_text)
        assert main(["verify", "--config", conf, "--out", str(tmp_path / "r.txt"), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "r.txt").exists()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}: "), err

    def test_random_runs_are_not_refused_for_the_predicted_period(self, tmp_path, capsys):
        # without a witness, a random run passes by converging to zero or by
        # a period dividing the predicted one, which max_period 2 still shows
        conf = write_conf(tmp_path, NO_WITNESS_CONF.replace("trials: 0", "trials: 3")
                          + "verify:\n  expect: period-2k\ntolerances:\n  max_period: 2\n")
        assert main(["verify", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_predicted_period_within_reach_passes(self, tmp_path, capsys):
        # the same system with max_period 4 and horizon 4, both just enough
        conf = write_conf(tmp_path, SWAP_CONF + "tolerances:\n  max_period: 4\n")
        assert main(["verify", "--config", conf, "--horizon", "4"]) == 0
        assert "eventually-periodic (period 4)" in capsys.readouterr().out

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


class TestWindowSize:
    def test_verify_past_a_full_horizon_over_the_limit(self, tmp_path, capsys):
        # 4 x (2 + 3e7) x 2 values would pass the limit; the window is under a quarter of them
        doc = {"mode": "tetrachotomy", "system": {"k": 2, "A": [[0.0, 0.5], [0.5, 0.0]]},
               "run": {"trials": 4}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        argv = ["verify", "--config", conf, "--horizon", "30000000", "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count(" PASS ") == 4 and "FAIL" not in out
        assert out.endswith("verdict: all predictions pass\n")


class TestSweepCommand:
    def test_overflowing_cell_is_one_line(self, tmp_path):
        # c * A overflows in the second cell; the product raises no RuntimeWarning
        doc = {"mode": "tetrachotomy", "system": {"k": 2, "A": [[0.5, 1.0e10], [0.5, 0.5]]},
               "run": {"horizon": 50, "trials": 2}, "sweep": {"c": [0.5, 1.0e300]}}
        conf = write_conf(tmp_path, yaml.safe_dump(doc))
        proc = subprocess.run([sys.executable, "-m", "ratsys", "sweep", "--config", conf,
                               "--out", str(tmp_path / "sweep")], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: invalid system spec: A entries must be finite"]

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

        def counting_simulate_batch(spec, batch, horizon, **kwargs):
            histories.extend(batch)
            return simulate_batch(spec, batch, horizon, **kwargs)

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

    def test_cell_with_no_gated_check_is_an_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, NO_WITNESS_CONF)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", conf, "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out_dir.exists()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run.trials"), err

    def test_cell_predicting_a_period_past_the_horizon_is_an_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, SWAP_CONF)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", conf, "--out", str(out_dir), "--horizon", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out_dir.exists()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run.horizon: "), err

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
            assert all(c.report.behavior == UNDETERMINED for c in report.failures()), cell

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
        out = ["--out", str(tmp_path / "o")] if command != "classify" else []
        assert main([command, "--config", conf, *out]) == 1
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
