"""A fixed computation that gauges the machine's current speed.

The benchmark's host shares its cores: over tens of seconds the same pass
of aptk jobs runs up to twice as slow, and the reference computation
slows with it.  The benchmark therefore runs this computation between
jobs and reports times scaled to nominal speed: measured seconds times
NOMINAL_S over the reference time measured around them.  The computation
uses only the standard library, so no change to aptk can move it.  Like
aptk's solver and state-space layers it does exact rational elimination
and a breadth-first search over tuples.
"""

from __future__ import annotations

import gc
from collections import deque
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005


def work() -> int:
    n = 8
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    start = (0,) * 9
    seen = {start: None}
    queue = deque([start])
    while queue:
        bits = queue.popleft()
        for i in range(len(bits)):
            flipped = bits[:i] + (1 - bits[i],) + bits[i + 1:]
            if flipped not in seen:
                seen[flipped] = None
                queue.append(flipped)
    return len(seen)


def timed() -> float:
    """Seconds one run of `work` takes now.  The garbage collector is paused
    so that the size of aptk's heap does not change the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
