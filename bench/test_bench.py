"""Self-test of the benchmark: checkers reject corrupted outputs, a tiny run is clean.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SEED = 7


@pytest.fixture(scope="module")
def smoke():
    """One tiny traced run per workload; returns its record and the Job.

    Each run has a fresh driver process: a child's ru_maxrss starts at its
    parent's peak RSS, and the pytest process is larger than the driver.
    """
    out = {}
    code = "import json, run; print(json.dumps(run.run(%r, %d, 0, True, tiny=True)))"
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, "-c", code % (name, SEED)], cwd=run.BENCH_DIR,
                              capture_output=True, text=True, timeout=300, check=True)
        record = json.loads(proc.stdout.splitlines()[-1])
        out[name] = (record, workloads.WORKLOADS[name](SEED, tiny=True))
    return out


def _outputs(name, job):
    """The smoke run's stdout bytes and the path of its output file."""
    work = os.path.join(run.WORK, name)
    with open(os.path.join(work, "stdout"), "rb") as fh:
        stdout = fh.read()
    return stdout, os.path.join(work, job.output_file or "stdout")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(tmp_path, text):
    path = tmp_path / "corrupted"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_is_clean(smoke, name):
    record, job = smoke[name]
    assert record["attempted"] == 3
    assert record["error_rate"] == 0, record["problems"]
    assert record["complete"]
    assert set(record["stats"]) == set(run.PER_LAYER_UNITS)
    stdout, output_path = _outputs(name, job)
    assert job.check(0, stdout, output_path) == []


def test_untraced_tiny_run_reports_end_to_end_metrics():
    code = "import json, run; print(json.dumps(run.run(%r, %d, 0, False, tiny=True)))"
    proc = subprocess.run([sys.executable, "-c", code % ("simulate-m2-long", SEED)],
                          cwd=run.BENCH_DIR,
                          capture_output=True, text=True, timeout=300, check=True)
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["attempted"] == 2
    assert record["error_rate"] == 0, record["problems"]
    assert record["complete"]
    assert set(record["stats"]) == set(run.END_TO_END_UNITS)
    wall, probe = record["raw"]["wall_raw_s"]["median"], record["raw"]["probe_s"]["median"]
    assert record["stats"]["wall_s"]["value"] == pytest.approx(run.PROBE_REF_S * wall / probe)


def test_trace_attributes_work_to_layers(smoke):
    stats = {name: {k: v["value"] for k, v in rec["stats"].items()}
             for name, (rec, _) in smoke.items()}
    assert stats["sweep-m2-tetra"]["simulator.duplicate_steps"] > 0
    assert stats["verify-m16k4"]["simulator.duplicate_steps"] == 0
    assert stats["simulate-m2-long"]["simulator.duplicate_steps"] == 0
    assert stats["sweep-m2-tetra"]["simulator.diverged_runs"] > 0
    assert stats["simulate-m2-long"]["analysis.analyze.calls"] == 0
    assert stats["simulate-m2-long"]["cli.write_csv.bytes"] > 0
    assert stats["verify-m16k4"]["linalg.perron_pair.calls"] > 0


def _bump_last_digit(text):
    """Change the last digit of the first value where that changes the double."""
    lines = text.split("\n")
    for row, line in enumerate(lines[1:-1], start=1):
        head, last = line.rsplit(",", 1)
        mantissa, _, exponent = last.partition("e")
        bumped = mantissa[:-1] + str((int(mantissa[-1]) + 1) % 10)
        bumped += "e" + exponent if exponent else ""
        if float(bumped) != float(last):
            lines[row] = f"{head},{bumped}"
            return "\n".join(lines), row
    pytest.fail("no value whose last digit changes its double")


def test_simulate_checker_rejects_last_digit_change(smoke, tmp_path):
    _, job = smoke["simulate-m2-long"]
    stdout, output_path = _outputs("simulate-m2-long", job)
    corrupted, row = _bump_last_digit(_read(output_path))
    problems = job.check(0, stdout, _write(tmp_path, corrupted))
    n = row - job.config["system"]["k"]
    assert any(p.startswith(f"row n={n} ") for p in problems), problems


def test_sweep_checker_rejects_wrong_regime(smoke, tmp_path):
    _, job = smoke["sweep-m2-tetra"]
    stdout, output_path = _outputs("sweep-m2-tetra", job)
    text = _read(output_path)
    assert ",period-2k,true,4\n" in text
    corrupted = text.replace(",period-2k,true,4\n", ",period-k,true,4\n", 1)
    problems = job.check(0, stdout, _write(tmp_path, corrupted))
    assert any("regime period-k, expected period-2k" in p for p in problems), problems


def test_verify_checker_rejects_fail_line(smoke, tmp_path):
    _, job = smoke["verify-m16k4"]
    stdout, output_path = _outputs("verify-m16k4", job)
    lines = _read(output_path).splitlines(keepends=True)
    assert " PASS " in lines[-2]
    lines[-2] = lines[-2].replace(" PASS ", " FAIL ", 1)
    problems = job.check(0, stdout, _write(tmp_path, "".join(lines)))
    assert any("is FAIL" in p for p in problems), problems


def test_checkers_reject_unexpected_exit_code(smoke):
    for name, (_, job) in smoke.items():
        stdout, output_path = _outputs(name, job)
        assert any("exit code 2" in p for p in job.check(2, stdout, output_path)), name


def test_generator_is_seeded():
    for make in workloads.WORKLOADS.values():
        assert make(SEED).config == make(SEED).config
        assert make(SEED).config != make(SEED + 1).config


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-m2-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
