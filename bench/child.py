"""Thin child driver: run one ``ratsys`` CLI invocation and report on it.

Usage: child.py SRC_DIR REPORT_PATH TRACE INVOCATION_ID -- RATSYS_ARGS...

It imports ``ratsys.cli`` from SRC_DIR and runs ``ratsys.cli.main`` on
RATSYS_ARGS, exactly what the ``ratsys`` console script does.  From
outside, it wraps ``load_config`` to take the CLOCK_MONOTONIC time at
which the config is loaded; the parent subtracts its spawn time to get
set-up time.  With TRACE = 1 it also wraps the public functions of every
``ratsys`` module (see TRACED) at each module attribute that binds them,
and records one span per call.  Spans stay in memory and are written to
REPORT_PATH, together with the set-up timestamp, when ``main`` returns.
Per-step helpers are never wrapped: at ~1e5 calls per invocation the
wrapper would dominate what it measures.
"""

import os
import sys
import time

# Span name -> (module, function names) whose every binding is wrapped.
TRACED = {
    "config.load": ("ratsys.config", ("load_config",)),
    "model.validate": ("ratsys.model", ("validate", "validate_initial")),
    "linalg.eig_symmetric": ("ratsys.linalg", ("eig_symmetric",)),
    "linalg.perron_pair": ("ratsys.linalg", ("perron_pair",)),
    "constructors.seed": (
        "ratsys.constructors",
        ("construct_periodic_seed", "construct_period2k_seed", "construct_unbounded_seed"),
    ),
    "classifier.classify": ("ratsys.classifier", ("classify_trichotomy", "classify_tetrachotomy")),
    "classifier.verify": ("ratsys.classifier", ("verify_classification",)),
    "simulator.simulate": ("ratsys.simulator", ("simulate",)),
    "analysis.analyze": ("ratsys.analysis", ("analyze",)),
    "analysis.residual_linear": ("ratsys.analysis", ("residual_linear",)),
    "analysis.residual_shift": ("ratsys.analysis", ("residual_shift",)),
    "analysis.detect_unbounded": ("ratsys.analysis", ("detect_unbounded",)),
    "analysis.detect_zero_limit": ("ratsys.analysis", ("detect_zero_limit",)),
    "analysis.detect_period": ("ratsys.analysis", ("detect_period",)),
    "cli.write_csv": ("ratsys.cli", ("write_trajectory_csv",)),
}


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent_index, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.simulated = set()

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[index] = [name, start, end, parent, {}]
            if attrs is not None:
                self.spans[index][4] = attrs(args, kwargs, result)
            return result

        return traced

    def simulate_attrs(self, args, kwargs, traj):
        """Steps run, divergence, and whether this exact run happened before.

        A run repeats an earlier one when spec, initial rows and steps run
        all match; the simulator is deterministic, so its output does too.
        """
        spec = traj.spec
        key = (spec.k, spec.A.tobytes(), spec.denom.tobytes(), traj.initial.tobytes(),
               traj.horizon, traj.diverged_at)
        duplicate = key in self.simulated
        self.simulated.add(key)
        return {"steps": traj.horizon, "diverged": traj.diverged_at is not None,
                "duplicate": duplicate}

    @staticmethod
    def write_attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}

    def install(self):
        """Replace every ratsys module attribute bound to a traced function."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "ratsys" or name.startswith("ratsys.")]
        attrs = {"simulator.simulate": self.simulate_attrs, "cli.write_csv": self.write_attrs}
        for span, (module, names) in TRACED.items():
            for fname in names:
                original = getattr(sys.modules[module], fname)
                wrapper = self.wrap(span, original, attrs.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def main(argv):
    src, report_path, trace, invocation = argv[1:5]
    sys.path.insert(0, src)
    import ratsys.cli as cli

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    setup_end = []
    load_config = cli.load_config

    def timed_load_config(path):
        try:
            return load_config(path)
        finally:
            setup_end.append(time.monotonic_ns())

    cli.load_config = timed_load_config
    run = tracer.wrap("cli.main", cli.main) if tracer is not None else cli.main
    try:
        return run(argv[6:])
    finally:
        import json

        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": int(invocation),
                       "setup_end_ns": setup_end[0] if setup_end else None,
                       "spans": tracer.spans if tracer is not None else []}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
