"""Edge cases spanning modules: decomposition invariants, signals, config."""

import copy
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from ratsys import (
    BoundaryAmbiguous,
    ConfigError,
    Diverged,
    EIG_TOL,
    InitialConditions,
    SystemSpec,
    UNBOUNDED_EXISTS,
    classify_trichotomy,
    eig_symmetric,
    load_config,
    regime_from_spectrum,
    simulate,
    step,
)
from ratsys.cli import read_trajectory_csv, write_trajectory_csv


class TestDecompositionInvariants:
    def test_residual_method(self):
        a = np.array([[0.4, 0.3, 0.1], [0.3, 0.2, 0.5], [0.1, 0.5, 0.9]])
        dec = eig_symmetric(a)
        assert dec.residual(a) <= EIG_TOL

    def test_zero_matrix_any_size(self):
        dec = eig_symmetric(np.zeros((5, 5)))
        assert not dec.eigenvalues.any()
        assert dec.spectral_radius == 0.0
        np.testing.assert_array_equal(dec.eigenvectors, np.eye(5))

    def test_identity_large(self):
        dec = eig_symmetric(np.eye(4))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4))
        assert dec.residual(np.eye(4)) <= EIG_TOL

    def test_perron_field_consistency(self):
        cls = classify_trichotomy(SystemSpec(k=2, A=[[0.6, 0.4], [0.4, 0.6]]))
        r, w = cls.spectrum.perron
        assert abs(r - cls.spectrum.spectral_radius) <= 1e-9
        assert w.min() > 0


class TestSignals:
    def test_bare_step_diverged_has_no_index(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 1e300))
        with pytest.raises(Diverged) as info:
            step(spec, [[1e300, 1e300], [0.0, 0.0]])
        assert info.value.step is None

    def test_simulate_records_step_index(self):
        spec = SystemSpec(k=2, A=np.full((2, 2), 4.0))
        init = InitialConditions(np.array([[1.0, 1.0], [0.0, 0.0]]))
        traj = simulate(spec, init, 5000)
        assert traj.diverged_at is not None
        assert traj.values.shape[0] == traj.diverged_at - 1 + traj.k

    def test_regime_outside_band_ignores_residual(self):
        # the -1 membership test is only consulted inside the radius-1 band
        assert regime_from_spectrum(np.array([2.0, -1.0]), residual=1e-3) == UNBOUNDED_EXISTS

    def test_boundary_ambiguous_message(self):
        with pytest.raises(BoundaryAmbiguous, match="residual"):
            regime_from_spectrum(np.array([1.0, -1.0]), residual=1e-6)

    def test_near_degenerate_symmetric_kernel_is_ambiguous(self):
        from ratsys import classify_tetrachotomy

        spec = SystemSpec(k=2, A=[[1e-10, 1.0], [1.0, 1e-10]])
        with pytest.raises(BoundaryAmbiguous, match="anti-diagonal"):
            classify_tetrachotomy(spec)


class TestConfigValidation:
    def write(self, tmp_path, text):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        return str(path)

    def test_missing_system(self, tmp_path):
        with pytest.raises(ConfigError, match="system"):
            load_config(self.write(tmp_path, "mode: tetrachotomy\n"))

    def test_nonsquare_kernel(self, tmp_path):
        with pytest.raises(ConfigError, match="square"):
            load_config(self.write(tmp_path, "system:\n  k: 2\n  A: [[1.0, 0.0]]\n"))

    def test_denom_index_out_of_range(self, tmp_path):
        text = (
            "system:\n  k: 2\n  A: [[1.0, 0.0], [0.0, 1.0]]\n"
            "  denom:\n    - {i: 3, j: 1, q: [0.1, 0.1]}\n"
        )
        with pytest.raises(ConfigError, match="i must be"):
            load_config(self.write(tmp_path, text))

    def test_bad_mode(self, tmp_path):
        text = "mode: pentachotomy\nsystem:\n  k: 2\n  A: [[1.0, 0.0], [0.0, 1.0]]\n"
        with pytest.raises(ConfigError, match="mode"):
            load_config(self.write(tmp_path, text))

    def test_bad_seed_directive(self, tmp_path):
        text = (
            "system:\n  k: 2\n  A: [[1.0, 0.0], [0.0, 1.0]]\n"
            "init:\n  seed: sideways\n"
        )
        with pytest.raises(ConfigError, match="init.seed"):
            load_config(self.write(tmp_path, text))

    def test_scalar_form(self, tmp_path):
        text = (
            "system:\n  k: 3\n  scalar: {beta: 0.0, gamma: 1.0, delta: 1.0, epsilon: 0.0,\n"
            "           B: [1.0, 0.0], C: [0.0, 0.0], D: [0.0, 0.0], E: [0.0, 0.0]}\n"
        )
        cfg = load_config(self.write(tmp_path, text))
        np.testing.assert_array_equal(cfg.spec.A, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(cfg.spec.denom[0, :, 0], [1.0, 0.0])


#: Valid configs that between them set every section and field.
VALID_CONFIGS = [
    {
        "mode": "trichotomy",
        "rng_seed": 5,
        "system": {"k": 3, "A": [[0.5, 0.5], [0.5, 0.5]],
                   "denom": [{"i": 1, "j": 2, "q": [0.25, 0.5]}]},
        "run": {"horizon": 50, "trials": 2, "init_max": 10.0},
        "init": {"seed": "explicit", "history": [[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]]},
        "tolerances": {"zero_tol": 1e-8, "per_tol": 1e-7, "growth_threshold": 1e6,
                       "rho_tol": 1e-9, "max_period": 6},
        "sweep": {"c": [0.5, 1.0], "denom_scale": [1.0, 2.0]},
        "verify": {"expect": "period-k"},
    },
    {
        "mode": "tetrachotomy",
        "system": {"k": 2, "scalar": {"beta": 0.0, "gamma": 1.0, "delta": 1.0, "epsilon": 0,
                                      "B": [0.3], "C": [0.3], "D": [0.3], "E": [0.3]}},
        "init": {"seed": "period2k", "a": 1.0, "b": 0.0},
    },
]

HOSTILE = ["x", {}, None, True, False, math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.0,
           [], [[1.0], [1.0, 2.0]]]


def _node_paths(node, prefix=()):
    """Key/index path of every section, field and list entry below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _node_paths(child, prefix + (key,))


MUTATION_SITES = [(n, path) for n, doc in enumerate(VALID_CONFIGS) for path in _node_paths(doc)]


class TestConfigFuzz:
    def test_valid_configs_load(self, tmp_path):
        for doc in VALID_CONFIGS:
            path = tmp_path / "c.yaml"
            path.write_text(yaml.safe_dump(doc))
            load_config(str(path))

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(site=st.sampled_from(MUTATION_SITES), value=st.sampled_from(HOSTILE))
    def test_hostile_leaf_loads_or_raises_config_error(self, tmp_path, site, value):
        n, path = site
        doc = copy.deepcopy(VALID_CONFIGS[n])
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        conf = tmp_path / "c.yaml"
        conf.write_text(yaml.safe_dump(doc))
        try:
            load_config(str(conf))
        except ConfigError:
            pass


class TestReadme:
    def test_yaml_examples_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        assert len(blocks) >= 2
        for n, block in enumerate(blocks):
            path = tmp_path / f"readme{n}.yaml"
            path.write_text(block)
            load_config(str(path))


class TestCsvDivergedRoundTrip:
    def test_footer_round_trip(self, tmp_path):
        spec = SystemSpec(k=2, A=np.full((2, 2), 4.0))
        init = InitialConditions(np.array([[1.0, 1.0], [0.0, 0.0]]))
        traj = simulate(spec, init, 5000)
        path = tmp_path / "d.csv"
        write_trajectory_csv(str(path), traj)
        ns, values, diverged = read_trajectory_csv(str(path))
        assert diverged == traj.diverged_at
        np.testing.assert_array_equal(values, traj.values)
        assert ns[-1] == traj.horizon


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        import subprocess
        import sys

        conf = tmp_path / "c.yaml"
        conf.write_text(
            "mode: tetrachotomy\nsystem:\n  k: 2\n  A: [[0.3, 0.2], [0.2, 0.3]]\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ratsys", "classify", "--config", str(conf)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "converges-to-zero" in proc.stdout


class TestBenchmarkHooks:
    def test_traced_functions_exist(self):
        # The traced benchmark run wraps each of these by name and fails
        # on one that no longer exists.
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "bench" / "child.py"
        spec = importlib.util.spec_from_file_location("bench_child", path)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        missing = [
            f"{module}.{name}"
            for module, names in child.TRACED.values()
            for name in names
            if not callable(getattr(importlib.import_module(module), name, None))
        ]
        assert missing == []
