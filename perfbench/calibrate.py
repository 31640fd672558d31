"""A fixed pure-Python probe that tracks how fast the machine runs now.

The sandbox's speed drifts by up to about 1.5x over minutes, and CPU time
drifts with wall time, so raw seconds from runs minutes apart are not
comparable.  The probe is a fixed mix of loop, dict, big-integer and
tuple-allocation work (the kind of work the library does) that never
calls the library, so a faster library cannot speed up the probe.
A probe runs before every job, so every job starts from the same state
(probing only every 0.2 s gave noisier scaled quantiles); each timing
is scaled by REFERENCE_S / (the median of the WINDOW probes around it),
i.e. reported in seconds of a machine on which the probe takes
REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.006
WINDOW = 9  # probes in the moving median around each job


def probe() -> float:
    """Seconds one fixed unit of work takes right now."""
    t0 = time.perf_counter()
    x, d = 0, {}
    for i in range(9000):
        x = (x * 31 + i) & 0xFFFFFFFF
        d[i & 255] = x
    b = 3 ** 900
    for _ in range(90):
        b = (b * b) % (1 << 2700) + 1
    rows = [(i, (i * 7919) % 1009, str(i)) for i in range(3000)]
    table = {(a, c): s for a, c, s in rows}
    for a, c, _ in rows[::2]:
        table[(a, c)] += "."
    rows.sort(key=lambda row: row[1])
    return time.perf_counter() - t0


def factors(probes, count):
    """Scale factor for each of `count` jobs; job j ran between probes j and j+1."""
    out = []
    half = WINDOW // 2
    for j in range(count):
        lo = max(0, min(j - half + 1, len(probes) - WINDOW))
        out.append(REFERENCE_S / statistics.median(probes[lo:lo + WINDOW]))
    return out
