"""A fixed reference loop that measures how fast the machine runs now.

On a shared machine a neighbour's load can slow every job by a third for
tens of seconds at a time.  Timing this loop between jobs and scaling the
job times by ``REFERENCE_S / loop time`` cancels that: both slow down
together, so their ratio holds steady.  The loop mixes what grovekit
spends its time on (interpreted float arithmetic with scalar random
draws, tiny-matrix numpy calls, float formatting, whole-array numpy
passes) and calls no grovekit code, so a change to the program cannot
change it.  The cyclic garbage collector is paused while it runs, so the
program's live heap does not change its duration either.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: Duration of `loop` on an unloaded 2.0 GHz x86-64 core, in seconds;
#: scaled times are in seconds of that machine.
REFERENCE_S = 0.014

_GRID = np.linspace(-6.0, 6.0, 1 << 15)


def _work() -> float:
    rng = np.random.default_rng(12345)
    total = 0.0
    recent: list[dict] = []
    for i in range(2000):
        x = max(0.0, float(rng.normal(3.0, 0.5)))
        total += x * (1.0 - 0.05 * math.sin(i))
        recent.append({"x": x, "row": (i, x)})
        if len(recent) > 25:
            recent.pop(0)
    for i in range(150):
        g = np.array([[1.0, 0.0], [0.0, 0.5 + 1e-3 * i]])
        total += float(np.linalg.eigvalsh(g)[0]) + float(np.allclose(g, g.T))
    text = ",".join(repr(total * k / 7.0) for k in range(3000))
    f = np.exp(-0.5 * _GRID * _GRID)
    for _ in range(4):
        total += float(np.sum(f * np.gradient(np.log(f + 1e-300)) ** 2))
    return total + len(text)


def loop() -> float:
    """Run the reference work once; return its duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
