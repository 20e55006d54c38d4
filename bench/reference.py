"""The reference loop: a fixed unit of pure-Python work to divide times by.

The speed of a small shared VM drifts by 10-25 % over tens of seconds, so a
time in seconds says as much about the machine's moment as about the code.
The benchmark runs this loop between the rounds of every workload and
reports each time as a multiple of the loop's median time in the same run
(the unit ``ref``).  The loop imports nothing from freenil2 and never
changes, and its instruction mix follows the program's: slotted objects
built from converted tuples, zip-sum tuples, nested index loops of small
integer products, and integer row elimination with gcd and floor division.
"""

from __future__ import annotations

import time
from math import gcd

_RANK = 6
_STEPS = 3600
_ROWS = 7
_ELIMINATIONS = 120


class _Pair:
    __slots__ = ("a", "c")

    def __init__(self, a, c):
        self.a = tuple(int(x) for x in a)
        self.c = tuple(int(x) for x in c)


def _product(x: _Pair, y: _Pair, n: int) -> _Pair:
    a, b = x.a, y.a
    c = [p + q for p, q in zip(x.c, y.c)]
    k = 0
    for i in range(n):
        ai = a[i]
        for j in range(i + 1, n):
            if ai:
                c[k] += ai * b[j] - (c[k] & 3)
            k += 1
    return _Pair(tuple(p + q for p, q in zip(a, b)), c)


def _eliminate(rows: list[list[int]]) -> int:
    a = [list(r) for r in rows]
    acc = 0
    for k in range(len(a)):
        for i in range(k + 1, len(a)):
            p, q = a[k][k] or 1, a[i][k]
            g = gcd(p, q) or 1
            a[i] = [(p // g) * u - (q // g) * v for u, v in zip(a[i], a[k])]
            acc ^= a[i][-1] & 0xFFFF
    return acc


def reference_work() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    n = _RANK
    npairs = n * (n - 1) // 2
    x = _Pair(range(1, n + 1), [0] * npairs)
    y = _Pair([(-1) ** k * (k % 3 + 1) for k in range(n)], range(npairs))
    for _ in range(_STEPS):
        x = _product(x, y, n)
        x = _Pair([v % 7 - 3 for v in x.a], [v % 11 - 5 for v in x.c])
    acc = sum(x.a) + sum(x.c)
    rows = [[(3 * i + 5 * j) % 13 + (i == j) for j in range(_ROWS)] for i in range(_ROWS)]
    for _ in range(_ELIMINATIONS):
        acc ^= _eliminate(rows)
    return acc


def time_reference() -> float:
    """Seconds for one run of the reference work."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
