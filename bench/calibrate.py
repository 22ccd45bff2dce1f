"""Measure how fast the host runs while a pass runs, to rescale the pass's times.

The machines this benchmark runs on share their CPUs with other guests.  A
fixed unit of pure-Python work there takes anywhere between one and two times
its fastest time, in states that change within seconds and shares of them
that change over minutes (see bench/README.md); one catalog pass took from
10.7 s to 14.3 s of CPU time.  So while a pass runs, the benchmark runs this
module beside it, pinned to the same CPU at a lower priority
(``python3 -m bench.calibrate``).  The scheduler gives it a tenth of that CPU,
in slices between the pass's own, so it meets the same host states as the
pass, in the same shares.  It repeats a fixed unit of work until its standard
input closes and prints the number of units done and the CPU seconds they
took.  The benchmark multiplies the pass's CPU times by ``REFERENCE_S`` over
the measured CPU seconds per unit: the result reads as seconds at the
reference speed, and a change of host speed cancels out of it.

The work is the kind the program does, written apart from it: exact
``Fraction`` products summed in nested index loops (the exact kernels of
``liealg``, ``rmatrix`` and ``symplectic``) and float polynomial arithmetic
stepped by RK4 (the compiled fields of ``flow``).  Nothing here imports the
program, so a change to the program cannot change the calibration.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from fractions import Fraction

# CPU seconds of one unit of work at the reference speed: the median over
# the reference runs in bench/README.md.
REFERENCE_S = 0.001

_DIM = 3
_RK4_STEPS = 100


def _table() -> list:
    rng = random.Random(20261018)
    return [[[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(_DIM)]
             for _ in range(_DIM)] for _ in range(_DIM)]


def _exact_work(t, i: int) -> Fraction:
    d = _DIM
    total = Fraction(0)
    for j in range(d):
        for k in range(d):
            for m in range(d):
                acc = Fraction(0)
                for l in range(d):
                    acc += t[i][j][l] * t[l][k][m]
                    acc += t[j][k][l] * t[l][i][m]
                total += abs(acc)
    return total


def _field(x):
    a, b, c, d = x
    return (b * c - 0.5 * a * d, -a * c + 0.25 * b * b * d, a * b - c * d, 0.125 * (a * a - b * b))


def _float_work() -> float:
    x = (0.3, -0.2, 0.1, 0.4)
    h = 1e-3
    for _ in range(_RK4_STEPS):
        k1 = _field(x)
        k2 = _field(tuple(v + 0.5 * h * k for v, k in zip(x, k1)))
        k3 = _field(tuple(v + 0.5 * h * k for v, k in zip(x, k2)))
        k4 = _field(tuple(v + h * k for v, k in zip(x, k3)))
        x = tuple(v + h / 6.0 * (p + 2 * q + 2 * r + s)
                  for v, p, q, r, s in zip(x, k1, k2, k3, k4))
    return sum(x)


def run_until(stop: threading.Event) -> tuple[int, float]:
    """Do units of work, an exact slice and a float run in turn, until ``stop`` is set;
    return the number of units done and the CPU seconds they took."""
    t = _table()
    units, cpu = 0, 0.0
    while not stop.is_set():
        start = time.process_time()
        if units % 2:
            _float_work()
        else:
            _exact_work(t, units // 2 % _DIM)
        cpu += time.process_time() - start
        units += 1
    return units, cpu


def main() -> int:
    stop = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        stop.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    units, cpu = run_until(stop)
    print(json.dumps({"units": units, "cpu_s": cpu}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
