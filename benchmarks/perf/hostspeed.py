"""How fast the host runs Python right now, from fixed reference work.

On a shared host, neighbours slow every process down in bursts of a few
seconds and in drifts over minutes: the same cold rep then takes 0.65 s
or 1.2 s, and CPU time inflates with wall time, so neither helps.  What
does help is timing fixed reference work in the same stretch of the
run: the slowdown shows in both.  So a round reports its best time
scaled by ``reference / best reference time`` -- seconds at the host
speed at which the reference takes its quiet-host time.

There are two references, one per kind of time measured, because load
slows them differently:

* :func:`sample` times an in-process kernel that mimics the program's
  interpreter-bound inner loops (an event heap of small ``__slots__``
  objects, dict updates, list allocation); it scales timed reps.
* :func:`startup_sample` times a fresh interpreter importing a fixed set
  of standard-library modules; it scales set-up probes, which are
  interpreter start-ups too.

Both use only the standard library, never the program under test, so
no change to the program moves them.
"""

from __future__ import annotations

import gc
import heapq
import subprocess
import sys
import time

#: Fixed scales: the best times of the two references on a quiet 2-core
#: x86_64 Xeon container under CPython 3.11.  Normalized times read as
#: seconds on that host only.  On any other host their absolute values
#: mean nothing; only ratios between runs on one host do, and the
#: scales cancel out of those.
REF_S = 0.0214
STARTUP_REF_S = 0.0729

STARTUP_IMPORTS = (
    "import argparse, dataclasses, decimal, email.parser, fractions, "
    "http.client, json, random, statistics, typing, unittest, "
    "xml.etree.ElementTree"
)


class _Event:
    __slots__ = ("t", "key", "data")

    def __init__(self, t, key, data):
        self.t = t
        self.key = key
        self.data = data

    def __lt__(self, other):
        return self.t < other.t


def _kernel(n: int = 20000) -> dict:
    heap, acc, now = [], {}, 0.0
    for i in range(n):
        heapq.heappush(
            heap, _Event(now + (i * 7919 % 1000) * 1e-6, i % 97, [i, i + 1])
        )
        if len(heap) > 64:
            ev = heapq.heappop(heap)
            now = ev.t
            acc[ev.key] = acc.get(ev.key, 0) + ev.data[1] - ev.data[0]
    return acc


def sample() -> float:
    """Seconds the in-process kernel takes now (after a collection)."""
    gc.collect()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def startup_sample() -> float:
    """Seconds a fresh interpreter takes now to import STARTUP_IMPORTS."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], check=True)
    return time.perf_counter() - t0


def normalize(best_s: float, best_ref_s: float, ref_s: float = REF_S) -> float:
    """``best_s`` in seconds at the host speed at which the reference
    whose quiet-host time is ``ref_s`` took ``best_ref_s``."""
    return best_s * ref_s / best_ref_s
