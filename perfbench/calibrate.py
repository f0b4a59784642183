"""A fixed piece of CPU work that uses no psromix code.

The host this benchmark was written on shares its cores: the same loop ran
up to twice as slow for seconds to minutes at a time. run.py times
this loop before and after each config and reports `wall_s` and `run_s`
scaled by REFERENCE_S / (the mean of those two times), that is, in seconds
on a host where the loop takes REFERENCE_S. A change to psromix moves the
scaled timings as much as the raw ones; a change in host speed moves both
the loop and the commands, and mostly cancels. The work mimics what the
library spends its time on: a tabular Q-update on observation vectors
encoded to bytes keys, and small numpy linear algebra.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

REFERENCE_S = 0.020  # the loop's median time on the host the bounds were set on

# Set-up is mostly interpreter start and imports, which the host slows by
# more than it slows the loop. Set-up is scaled instead by a fresh
# interpreter that imports numpy and no psromix code, timed beside it.
START_SNIPPET = "import time, numpy; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
REFERENCE_START_S = 0.13  # that start's median time on the same host


def _work() -> float:
    rng = random.Random(12345)
    table: dict[bytes, np.ndarray] = {}
    total = 0.0
    for i in range(4000):
        features = np.zeros(30)
        features[rng.randrange(30)] = 1.0
        features[i % 7] = 1.0
        key = bytes(features.astype(np.uint8))
        q = table.get(key)
        if q is None:
            q = table[key] = np.full(3, 0.0)
        action = int(q.argmax())
        q[action] += 0.1 * (rng.random() - q[action])
        total += q[action]
    a = np.full((6, 6), 0.1) + np.eye(6)
    for _ in range(300):
        x = np.linalg.solve(a, a.sum(axis=0))
        a[0, 0] = 1.0 + x.max() * 1e-3
    return total


def sample() -> float:
    """Seconds for one pass of the loop. The garbage collector is off while
    it runs: a collection walks every live object, so with it on the loop
    would slow down as the calling process's heap grows."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
