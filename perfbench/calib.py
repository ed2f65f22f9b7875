"""Fixed reference work, timed next to every measured benchmark job.

    python3 perfbench/calib.py

Two halves of plain interpreter work, none of it the package's code, so
no change to the package can change its time: sparse polynomial products
over dicts of Python ints, as in the package's Laurent arithmetic, and
base-p digit tuples compared digit-wise, as in its module-structure
combinatorics.  A slower or busier host slows both as much as the jobs
run next to them.
run.py runs it in a fresh process before, between and after the jobs of
each ladder pass, and an act-stream worker does so around its blocks of
queries; the gated timings are the job's wall time divided by this
reference time.  A fresh process keeps the reference clear of the
caller's heap and its garbage collections.
"""

from __future__ import annotations

import subprocess
import sys
import time

A = {i: (i * 7919) % 1009 + 1 for i in range(-30, 30)}
POLY_ROUNDS = 70
DIGIT_ROUNDS = 14


def digits(i: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        i, d = divmod(i, p)
        out.append(d)
    return tuple(out)


def work() -> int:
    acc: dict[int, int] = {}
    for _ in range(POLY_ROUNDS):
        for i, x in A.items():
            for j, y in A.items():
                acc[i + j] = (acc.get(i + j, 0) + x * y) % 1000003
    hits = 0
    for _ in range(DIGIT_ROUNDS):
        for i in range(81):
            di = digits(i, 3, 4)
            for j in range(0, 81, 3):
                hits += not any(a + b > 2 for a, b in zip(di, digits(j, 3, 4)))
    return len(acc) + hits


def fresh_process_time(timeout: float | None = None) -> float:
    """Wall time of ``work`` in a fresh interpreter, launch to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True, timeout=timeout)
    return time.perf_counter() - t0


if __name__ == "__main__":
    work()
