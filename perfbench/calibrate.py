"""Host-speed calibration: a fixed kernel timed beside every op.

Shared hosts drift in speed by up to 2x over tens of seconds (other
tenants on the same cores), which moves every wall-clock figure of a
run together.  The benchmark times this kernel, which uses no program
code, between ops while the program is idle, and scales each op's wall
time by ``NOMINAL_S / measured``: the op's duration on a host running
the kernel in ``NOMINAL_S``.

The kernel must not see the program's own work, or a change that left
work running after an op would slow the kernel and read as a speed-up.
So :func:`measure` first waits until no other thread of the process is
runnable (:func:`quiesce`), and runs the kernel with the cyclic garbage
collector off.  The kernel allocates no large blocks either, so neither
the size nor the layout of the program's heap can reach it.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time

import numpy as np

#: The kernel's median time on an idle 2-core x86-64 host (seconds).
NOMINAL_S = 0.0032
#: Longest wait for the process's other threads to go idle (seconds).
QUIESCE_LIMIT_S = 2.0

_rng = np.random.default_rng(0)
_WORDS = _rng.integers(0, 2**63, size=(2000, 27), dtype=np.uint64)
_FLOATS = _rng.random(20000)
_MIXED = np.empty_like(_WORDS)
_SORTED = np.empty_like(_FLOATS)
_TABLE = {i: i for i in range(4096)}
_SHIFT = np.uint64(3)


def _kernel() -> float:
    """Interpreter-bound dict and integer work, then numpy passes over
    packed words and a sort: the same mix of costs as the program."""
    start = time.perf_counter()
    total = 0
    for j in range(20000):
        total += _TABLE.get(j & 4095, 0) * j
    for _ in range(3):
        np.right_shift(_WORDS, _SHIFT, out=_MIXED)
        np.bitwise_xor(_WORDS, _MIXED, out=_MIXED)
        int(_MIXED.sum())
        _SORTED[:] = _FLOATS
        _SORTED.sort()
    return time.perf_counter() - start


def _others_runnable() -> bool:
    """True if a thread of this process other than the caller is
    running or waiting for a CPU (state ``R`` in ``/proc``)."""
    me = str(threading.get_native_id())
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return False  # no procfs: nothing to wait for
    for tid in tids:
        if tid == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue  # the thread has exited
        if stat[stat.rindex(")") + 2] == "R":
            return True
    return False


def quiesce() -> float:
    """Wait until the process's other threads are idle; returns the
    seconds waited (at most ``QUIESCE_LIMIT_S``)."""
    start = time.perf_counter()
    while _others_runnable():
        if time.perf_counter() - start > QUIESCE_LIMIT_S:
            break
        time.sleep(0.0005)
    return time.perf_counter() - start


def measure() -> float:
    """Median of three kernel runs, in seconds, on an idle process."""
    quiesce()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_kernel() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


def corrected(ops, refs):
    """Op durations at nominal host speed.

    ``refs[i]`` was measured just before op ``i`` and ``refs[i + 1]``
    just after it; their mean stands for the host speed during the op.
    """
    return [
        (end - start) * 2.0 * NOMINAL_S / (refs[i] + refs[i + 1])
        for i, (start, end) in enumerate(ops)
    ]
