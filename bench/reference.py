"""A fixed piece of work that measures how fast the machine runs right now.

On a shared host the processor's speed swings by a third, within a second
and from one minute to the next.  The benchmark times this kernel, which
touches no monorev code, beside every operation it measures, and scales the
operation's time to REFERENCE_S.
"""

from __future__ import annotations

import time

# A round figure near the kernel's time on a 2-vCPU Xeon VM under CPython 3.11.
REFERENCE_S = 1.0e-3


def reference_kernel() -> dict:
    """Fixed pure-Python work, dict lookups and integer arithmetic, that touches no monorev code."""
    counts: dict[int, int] = {}
    for i in range(6000):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + (key & 7)
    return counts


def time_reference() -> float:
    """Seconds the reference kernel takes now; an untimed call first warms the caches."""
    reference_kernel()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """A time as it would read where the reference kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S * 2 / (before + after)
