"""Host-speed correction for every timing the benchmark reports.

The benchmark was written on a shared 2-vCPU VM whose speed drifts: a
fixed pure-Python loop reads anywhere from 0.7x to 1.3x its usual time,
in spells that last from a fraction of a second to minutes, and
graphent's queries slow down with it. Raw times then measure the host as
much as graphent.

So every timed span (one item, one set-up) is bracketed by a fixed
reference loop that imports nothing from graphent, timed just before and
just after it. The span's corrected time is its measured time times
REF_LOOP_S over the mean of the two loop times: the time it would take on
a host where the loop takes REF_LOOP_S (about that VM's usual speed). A
change to graphent cannot move the loop, so every gain or loss it makes
shows in full.

A set-up runs in a fresh process, which may get the other vCPU at another
speed, so that process times the loop itself, at its start and its end.

On that VM, over eight 30-second runs of catalog-tables, the quartile
spread of the median pass time fell from 0.13-0.16 raw to 0.04 corrected.
Over 30 catalog-tables set-ups the spread was 0.15 raw, 0.16 with the
loop timed in the parent process and 0.05 with it timed in the set-up
process.
Loops that also exercise small numpy calls, a 64x128 complex matmul or
cache-missing list reads tracked the drift no better, or worse.
"""

from __future__ import annotations

import time

REF_LOOP_S = 1.0e-3
LOOP_ITERATIONS = 10_000


def reference_loop() -> float:
    """Seconds taken by the fixed pure-Python loop."""
    start = time.perf_counter()
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - start


def corrected(seconds: float, loop_before: float, loop_after: float) -> float:
    """`seconds` rescaled to a host where the reference loop takes REF_LOOP_S."""
    return seconds * REF_LOOP_S * 2.0 / (loop_before + loop_after)
