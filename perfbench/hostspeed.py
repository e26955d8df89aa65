"""Host-speed calibration for the shared host the benchmark runs on.

The benchmark was built on a 2-core VM whose speed changes in regimes of
tens of seconds to minutes: the same ``train`` round ran at about 620 and at
about 1,250 samples/s, and the median rate of ten 30-second runs spread by
32-37 % between runs. :func:`seconds` times a fixed kernel that mixes the
same kinds of work as ``shortlong`` (Python-level token and dict work, small
numpy matrix products and transcendental functions). It touches no
``shortlong`` code, so no change to the program moves it.

The benchmark runs the kernel before and after every round and every set-up
and reports timings at reference speed: a rate is multiplied, and a time
divided, by ``kernel time / REFERENCE_S``. Over 30-second windows of one
long ``train`` series this cut the spread of window medians from 14 % to
5 % (training) and from 21 % to 1.5 % (decoding). The raw figures stay in
the run's ``meta`` record.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the host the benchmark was built on.
REFERENCE_S = 0.021

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((128, 32))
_W = _rng.standard_normal((32, 64))
_WORDS = tuple(f"tok{i}" for i in range(512))
_REPS = 1500


def seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    clock = time.perf_counter
    index: dict[str, int] = {}
    acc = 0.0
    t0 = clock()
    for i in range(_REPS):
        start = (i * 7) % 256
        ids = [index.setdefault(w, len(index))
               for w in " ".join(_WORDS[start:start + 64]).split()]
        hidden = np.tanh(_X[ids[i % 64] % 128] @ _W)
        acc += float(np.logaddexp(0.0, hidden).sum())
    elapsed = clock() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def speed_factor(before: float, after: float) -> float:
    """How much slower than the reference the host ran around a measurement."""
    return (before + after) / (2.0 * REFERENCE_S)
