"""Fixed reference program that gauges the machine's current speed.

The driver runs it as a subprocess right after each timed ``ratsys``
invocation and divides the invocation's times by its time (see run.py).
It does what a ``ratsys`` invocation spends its time on, with none of
ratsys' code: interpreter start, the numpy and PyYAML imports, and a
pure-Python float recurrence that allocates a small list per step.  Its
work never changes, so its time moves only with the speed of the
machine.  It writes nothing.
"""

import numpy  # noqa: F401  (the import is part of the work)
import yaml  # noqa: F401

STEPS = 40_000


def main() -> float:
    a = [[0.35, 0.65], [0.65, 0.35]]
    q = [0.8, 1.1]
    window = [[1.0, 2.0], [2.0, 1.0]]
    total = 0.0
    for _ in range(STEPS):
        out = []
        for i in range(2):
            num = a[i][0] * window[0][0] + a[i][1] * window[0][1]
            den = 1.0 + q[0] * window[1][0] + q[1] * window[1][1]
            out.append(1.5 * num / den + 0.1)
        window = [window[1], out]
        total += out[0]
    return total


if __name__ == "__main__":
    main()
