"""How fast the host runs Python right now, from a fixed reference loop.

On a shared host one core's speed drifts by up to a factor of two over tens
of seconds.  CPU time follows wall time through those drifts, so the
slowdown comes from the host, not from descheduling inside the guest.  Raw times from
five runs of one workload then spread by 17-34 % of their median.  The
benchmark therefore times ``reference_loop`` between ops and scales every
time it reports by ``NOMINAL_S / reference time``: the result is the time
the work would take at the speed at which the reference loop takes
``NOMINAL_S``.  The loop does not import ``strata_limits``, so a change to
the package moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import random
from time import perf_counter

# The reference loop's time on a quiet core of the 2.1 GHz host the
# benchmark was written on, under CPython 3.11.
NOMINAL_S = 0.022

ROUNDS = 12

_rng = random.Random(7)
_DATA = [_rng.randrange(1000) for _ in range(3000)]


def reference_loop() -> None:
    """Dict counting, union-find with path halving and small sorts: the
    operations the package's group, coset and graph code is made of."""
    data = _DATA
    counts: dict = {}
    for i, x in enumerate(data):
        key = (i % 97, x % 13)
        counts[key] = counts.get(key, 0) + 1
    parent = list(range(len(data)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, len(data)):
        a, b = find(i), find(data[i] % i)
        if a != b:
            parent[a] = b
    sorted(counts.items())
    [tuple(sorted(data[i : i + 8])) for i in range(0, len(data), 8)]


def probe() -> float:
    """Seconds ``ROUNDS`` runs of ``reference_loop`` take now."""
    start = perf_counter()
    for _ in range(ROUNDS):
        reference_loop()
    return perf_counter() - start
