"""Benchmark the ratsys CLI end to end, and per module with --trace 1.

Usage (from the repository root):

    python3 bench/run.py --workload verify-m16k4 --seed 1 --seconds 30 --trace 0

The workload's config is generated from --seed (see workloads.py).  The
load is a closed loop with one client: this process starts one ``ratsys``
invocation at a time, through bench/child.py, waits for it to exit and
checks its output.  One untimed warm-up invocation comes first; then
invocations repeat while the next one is expected to end within
--seconds.  Every repetition must produce byte-identical output; the
first one is checked in full, later ones are compared with it.

End-to-end metrics (--trace 0):
  wall_s       spawn of the process to its exit
  setup_s      spawn to the return of config.load_config (interpreter
               start, imports, YAML parse)
  peak_rss_mb  the child's maximum resident set, from os.wait4 (10^6 bytes)
The error rate is ``failed / attempted`` of the result line.

wall_s and setup_s are given at a fixed machine speed.  On a shared
2-vCPU VM (Intel Xeon) the same invocation takes anywhere from 1x to 2x
its fastest time: the CPU slows for stretches of seconds, and for eras of
several minutes by up to 50 %, longer than any run.  So right after each
timed invocation this process runs bench/probe.py, a fixed program that
does the same kind of work (interpreter start, numpy and PyYAML imports,
a pure-Python float loop) without any ratsys code.  An invocation's time
divided by the probe's time that follows it no longer depends on the
machine's speed of the moment; wall_s and setup_s are the medians of
these ratios times PROBE_REF_S, a round figure for the probe's median
time on that VM.  A change to ratsys moves them by the same share as it
moves the raw times.  The raw medians, quartiles and sample counts of
the invocation and probe times are printed and kept in --results.
peak_rss_mb is the median over the run.

Per-layer metrics (--trace 1) come from traced invocations interleaved
with untraced ones, and are read from the traced invocation with the
smallest wall time, so that its layers add up.  Counts are the same in
every invocation.  ``.s`` metrics are self times (span duration minus the
time its child spans cover).  ``trace.overhead_s`` is the fastest traced
minus the fastest untraced wall time.

The last line of stdout is the JSON result.  --results FILE also merges
the full statistics and the machine description into FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from workloads import WORKLOADS, Job, write_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
PROBE = os.path.join(BENCH_DIR, "probe.py")
# About bench/probe.py's median time on a 2-vCPU Intel Xeon VM (0.19-0.31 s).
PROBE_REF_S = 0.25
WORK = os.path.join(BENCH_DIR, ".work")
INVOCATION_TIMEOUT_S = 40.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit; the order is the report order.
PER_LAYER_UNITS = {
    "simulator.simulate.calls": "count",
    "simulator.simulate.s": "s",
    "simulator.steps": "count",
    "simulator.steps_per_s": "1/s",
    "simulator.diverged_runs": "count",
    "simulator.duplicate_steps": "count",
    "simulator.useful_ratio": "ratio",
    "analysis.analyze.calls": "count",
    "analysis.residual_linear.s": "s",
    "analysis.residual_shift.s": "s",
    "analysis.detect_unbounded.s": "s",
    "analysis.detect_zero_limit.s": "s",
    "analysis.detect_period.s": "s",
    "analysis.self_s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "bytes",
    "cli.self_s": "s",
    "config.load.s": "s",
    "model.validate.calls": "count",
    "model.validate.s": "s",
    "linalg.eig_symmetric.calls": "count",
    "linalg.eig_symmetric.s": "s",
    "linalg.perron_pair.calls": "count",
    "linalg.perron_pair.s": "s",
    "constructors.seed.calls": "count",
    "constructors.seed.s": "s",
    "classifier.classify.calls": "count",
    "classifier.classify.s": "s",
    "classifier.verify.s": "s",
    "trace.overhead_s": "s",
}

# Per-layer metrics that are a span's call count or self time.
_CALLS = ("simulator.simulate", "analysis.analyze", "model.validate", "linalg.eig_symmetric",
          "linalg.perron_pair", "constructors.seed", "classifier.classify")
_SELF = {
    "simulator.simulate.s": "simulator.simulate",
    "analysis.residual_linear.s": "analysis.residual_linear",
    "analysis.residual_shift.s": "analysis.residual_shift",
    "analysis.detect_unbounded.s": "analysis.detect_unbounded",
    "analysis.detect_zero_limit.s": "analysis.detect_zero_limit",
    "analysis.detect_period.s": "analysis.detect_period",
    "analysis.self_s": "analysis.analyze",
    "cli.write_csv.s": "cli.write_csv",
    "cli.self_s": "cli.main",
    "config.load.s": "config.load",
    "model.validate.s": "model.validate",
    "linalg.eig_symmetric.s": "linalg.eig_symmetric",
    "linalg.perron_pair.s": "linalg.perron_pair",
    "constructors.seed.s": "constructors.seed",
    "classifier.classify.s": "classifier.classify",
    "classifier.verify.s": "classifier.verify",
}


@dataclass
class Invocation:
    traced: bool
    wall_s: float
    setup_s: Optional[float]
    peak_rss_mb: float
    problems: List[str]
    layers: Dict[str, float] = field(default_factory=dict)
    probe_s: Optional[float] = None  # time of the probe run right after it


def layer_metrics(spans: list) -> Dict[str, float]:
    """Per-layer counts and self times of one traced invocation."""
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for name, start, end, parent, _ in spans:
        self_ns[name] = self_ns.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            p_name = spans[parent][0]
            self_ns[p_name] = self_ns.get(p_name, 0) - (end - start)
    out = {f"{name}.calls": float(calls.get(name, 0)) for name in _CALLS}
    out.update({metric: self_ns.get(name, 0) / 1e9 for metric, name in _SELF.items()})
    sims = [attrs for name, *_, attrs in spans if name == "simulator.simulate"]
    steps = sum(a["steps"] for a in sims)
    duplicate = sum(a["steps"] for a in sims if a["duplicate"])
    out["simulator.steps"] = float(steps)
    out["simulator.steps_per_s"] = steps / out["simulator.simulate.s"] if steps else 0.0
    out["simulator.diverged_runs"] = float(sum(a["diverged"] for a in sims))
    out["simulator.duplicate_steps"] = float(duplicate)
    out["simulator.useful_ratio"] = (steps - duplicate) / steps if steps else 1.0
    out["cli.write_csv.bytes"] = float(
        sum(attrs["bytes"] for name, *_, attrs in spans if name == "cli.write_csv"))
    return out


class Runner:
    """Runs one workload's invocations and checks their outputs."""

    def __init__(self, job: Job, work: str):
        self.job = job
        self.work = work
        self.first = None  # (digest, problems) of the first invocation
        self.count = 0
        write_config(job, os.path.join(work, "config.yaml"))

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def invoke(self, traced: bool) -> Invocation:
        self.count += 1
        job = self.job
        for name in (job.out_name, "report.json"):
            if name is None:
                continue
            path = self._path(name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, CHILD, SRC, self._path("report.json"), "1" if traced else "0",
                str(self.count), "--", job.command, "--config", "config.yaml"]
        if job.out_name is not None:
            argv += ["--out", job.out_name]
        driver_peak = own_peak_rss_kb()
        with open(self._path("stdout"), "wb") as out, open(self._path("stderr"), "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(argv, cwd=self.work, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timed_out = wait_with_timeout(proc, INVOCATION_TIMEOUT_S)
            end = time.monotonic_ns()
        problems = ["timed out"] if timed_out else []
        if proc.rusage.ru_maxrss <= driver_peak:
            problems.append("peak RSS is masked by the driver's own peak RSS")
        try:
            with open(self._path("report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {}
        setup_end = report.get("setup_end_ns")
        if report.get("invocation") != self.count:
            problems.append("child wrote no report")
        elif setup_end is None:
            problems.append("config was never loaded")
        problems += self._check(proc.returncode)
        inv = Invocation(
            traced=traced,
            wall_s=(end - start) / 1e9,
            setup_s=(setup_end - start) / 1e9 if setup_end is not None else None,
            peak_rss_mb=proc.rusage.ru_maxrss * 1024 / 1e6,
            problems=problems,
        )
        if traced and report.get("spans"):
            inv.layers = layer_metrics(report["spans"])
        return inv

    def _check(self, exit_code: int) -> List[str]:
        with open(self._path("stdout"), "rb") as fh:
            stdout = fh.read()
        output_path = self._path(self.job.output_file or "stdout")
        try:
            digest = (exit_code, stdout, file_digest(output_path))
        except OSError as exc:
            return [f"no output file: {exc}"]
        if self.first is not None and digest == self.first[0]:
            return list(self.first[1])
        problems = self.job.check(exit_code, stdout, output_path)
        if self.first is None:
            self.first = (digest, problems)
        else:
            problems.append("output differs from the first repetition")
        return problems


def own_peak_rss_kb() -> int:
    """This process's peak RSS in KiB (VmHWM), the floor of a child's ru_maxrss.

    A child's ru_maxrss starts at the peak RSS of the memory image it was
    spawned from.  ru_maxrss of this process itself does not serve: it also
    holds what this process inherited from its own parent.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def file_digest(path: str) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.digest()


def wait_with_timeout(proc: subprocess.Popen, timeout: float) -> bool:
    """Reap ``proc`` and keep its rusage; kill it after ``timeout`` seconds."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        if not ready:
            proc.kill()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.rusage = rusage
    return not ready


def run_probe(cwd: str) -> float:
    """Wall time of one run of bench/probe.py, spawn to exit."""
    start = time.monotonic_ns()
    subprocess.run([sys.executable, PROBE], cwd=cwd, stdin=subprocess.DEVNULL, check=True,
                   timeout=INVOCATION_TIMEOUT_S)
    return (time.monotonic_ns() - start) / 1e9


def summarize(values: List[float]) -> dict:
    """Median, quartiles and sample count; the tail percentile needs 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    stats = {"median": statistics.median(ordered), "n": n,
             "min": ordered[0], "max": ordered[-1]}
    if n >= 2:
        stats["p25"], _, stats["p75"] = statistics.quantiles(ordered, n=4)
    if n >= 20:
        stats[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return stats


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result record with full statistics."""
    job = WORKLOADS[workload](seed, tiny=tiny)
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(job, work)
    warmup = runner.invoke(traced=False)
    if not trace:
        run_probe(work)
    invocations = [warmup]
    timed: List[Invocation] = []
    start = time.monotonic()
    rounds: List[float] = []
    # Stop before a round that would probably end after --seconds.
    while not rounds or time.monotonic() - start + statistics.median(rounds) <= seconds:
        round_start = time.monotonic()
        if trace:
            timed += [runner.invoke(traced=False), runner.invoke(traced=True)]
        else:
            inv = runner.invoke(traced=False)
            inv.probe_s = run_probe(work)
            timed.append(inv)
        rounds.append(time.monotonic() - round_start)
    invocations += timed
    failed = [inv for inv in invocations if inv.problems]
    untraced = [inv for inv in timed if not inv.traced]
    fastest = min(untraced, key=lambda inv: inv.wall_s)
    stats = {}
    raw = {}
    if trace:
        traced_runs = [inv for inv in timed if inv.traced and inv.layers]
        if traced_runs:
            best = min(traced_runs, key=lambda inv: inv.wall_s)
            for name in PER_LAYER_UNITS:
                if name == "trace.overhead_s":
                    stats[name] = {"value": best.wall_s - fastest.wall_s, "n": len(traced_runs)}
                else:
                    values = [inv.layers[name] for inv in traced_runs]
                    stats[name] = {"value": best.layers[name], **summarize(values)}
        units = PER_LAYER_UNITS
    else:
        with_setup = [inv for inv in untraced if inv.setup_s is not None]
        for name, values in (
            ("wall_s", [PROBE_REF_S * inv.wall_s / inv.probe_s for inv in untraced]),
            ("setup_s", [PROBE_REF_S * inv.setup_s / inv.probe_s for inv in with_setup]),
            ("peak_rss_mb", [inv.peak_rss_mb for inv in untraced]),
        ):
            if values:
                stats[name] = summarize(values)
                stats[name]["value"] = stats[name]["median"]
        raw = {
            "wall_raw_s": summarize([inv.wall_s for inv in untraced]),
            "setup_raw_s": summarize([inv.setup_s for inv in with_setup]) if with_setup else {},
            "probe_s": summarize([inv.probe_s for inv in untraced]),
        }
        units = END_TO_END_UNITS
    problems = sorted({p for inv in failed for p in inv.problems})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(invocations),
        "failed": len(failed),
        "error_rate": len(failed) / len(invocations),
        "problems": problems[:20],
        "stats": stats,
        "raw": raw,
        "units": {name: units[name] for name in stats},
        "complete": set(stats) == set(units),
    }


def machine_info() -> dict:
    import platform
    from importlib import metadata

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "pyyaml": metadata.version("PyYAML"),
        "commit": commit,
    }


def merge_results(path: str, record: dict) -> None:
    """Store ``record`` under its workload and mode in the results file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"runs": {}}
    doc["machine"] = machine_info()
    doc["runs"][f"{record['workload']}/trace{record['trace']}"] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="JSON file to merge the full statistics into")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ratsys", "cli.py")):
        print(f"error: no ratsys sources under {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, stats in record["stats"].items():
        shown = " ".join(f"{key}={value:.6g}" for key, value in stats.items() if key != "n")
        print(f"{name} [{record['units'][name]}] n={stats['n']} {shown}")
    for name, stats in record["raw"].items():
        shown = " ".join(f"{key}={value:.6g}" for key, value in stats.items() if key != "n")
        print(f"{name} [s] n={stats.get('n', 0)} {shown}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    if args.results:
        merge_results(args.results, record)
    print(json.dumps({
        "correct": record["failed"] == 0 and record["complete"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": stats["value"], "unit": record["units"][name]}
                    for name, stats in record["stats"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
