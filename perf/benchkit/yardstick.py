"""Machine speed, sampled while an operation runs.

The benchmark shares its machine with other tenants, whose load slows
every computation on it by up to 2x, changing within seconds and lasting
for minutes.  A yardstick is a set of small fixed kernels that exercise
the host the way the workloads do and that no change to ``repro`` can
touch: an integer loop, an event heap of slotted objects, small-array
reductions, scattered reads over a large object table, and bundle
reductions over a trace-sized spike array.

:class:`Sampler` runs one kernel, in rotation, every ``PERIOD_S`` of wall
time while its ``with`` block runs, from a ``SIGALRM`` handler, so the
kernels share the machine with the operation itself.  Its ``slowdown``
is the mean ratio of the kernels' times to their reference times, and
``overhead_s`` the time the kernels took, which the caller subtracts
from the operation's time.  Dividing that net time by the slowdown
gives the time at the reference speed.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

import numpy as np

__all__ = ["KERNELS", "PERIOD_S", "Sampler"]

PERIOD_S = 0.05

_SMALL = np.random.default_rng(1).random((64, 256)) > 0.7
# (timesteps, tokens, features) of model1's MLP input, ~15% spiking.
_SPIKES = np.random.default_rng(2).random((10, 64, 1536)) < 0.15


class _Event:
    __slots__ = ("time", "key", "payload")

    def __init__(self, time_s, key, payload):
        self.time = time_s
        self.key = key
        self.payload = payload


_TABLE = [_Event(i * 0.5, i, [i]) for i in range(60_000)]
_SCATTER = random.Random(3).sample(range(len(_TABLE)), 12_000)


def _integer_loop() -> int:
    total = 0
    for i in range(36_000):
        total += i * i
    return total


def _event_heap() -> int:
    rng = random.Random(1)
    heap, busy = [], {}
    for i in range(1_700):
        heapq.heappush(heap, (rng.random(), i, _Event(i * 0.5, i % 97, [i])))
        busy[i % 503] = busy.get(i % 503, 0.0) + 1.5
        if len(heap) > 64:
            when, _, event = heapq.heappop(heap)
            event.payload.append(when)
    return len(heap)


def _small_arrays() -> int:
    total = 0
    for _ in range(200):
        total += int((_SMALL.reshape(8, 8, 256).any(axis=1).sum(axis=0) > 3).sum())
    return total


def _scattered_reads() -> float:
    total = 0.0
    for i in _SCATTER:
        event = _TABLE[i]
        total += event.time
        event.payload[0] = i
    return total


def _bundle_reductions() -> int:
    t, n, d = _SPIKES.shape
    total = 0
    for bs_t, bs_n in ((2, 4), (4, 14), (1, 2), (5, 8)) * 2:
        bt, bn = -(-t // bs_t), -(-n // bs_n)
        padded = np.zeros((bt * bs_t, bn * bs_n, d), dtype=bool)
        padded[:t, :n] = _SPIKES
        active = padded.reshape(bt, bs_t, bn, bs_n, d).any(axis=(1, 3)).sum(axis=(0, 1))
        total += int((active > 3).sum())
    return total


# (kernel, seconds it takes at the reference speed): the 1st percentile
# of a minute of back-to-back timings on a 2-vCPU Intel Xeon VM shared
# with other tenants, Python 3.11, numpy 2.4.
KERNELS = (
    (_integer_loop, 0.0022),
    (_event_heap, 0.0020),
    (_small_arrays, 0.0018),
    (_scattered_reads, 0.0020),
    (_bundle_reductions, 0.0023),
)


class Sampler:
    """Time a block net of the kernels sampled every ``PERIOD_S`` inside it.

    After the block, ``seconds`` is its wall time minus ``overhead_s``,
    the kernels' own time, and ``slowdown`` the mean ratio of kernel time
    to reference time.  If the block ends before every kernel has run
    once, the rest run right after it (outside ``seconds``), so
    ``slowdown`` is always measured.  Must be entered in the main thread.
    """

    def __init__(self):
        self.ratios: list[float] = []
        self.overhead_s = 0.0
        self.seconds = 0.0
        self._next = 0
        self._busy = False
        self._previous = None
        self._began = 0.0

    @property
    def slowdown(self) -> float:
        return sum(self.ratios) / len(self.ratios)

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a tick that lands while a kernel runs is dropped
            return
        self._busy = True
        kernel, reference_s = KERNELS[self._next % len(KERNELS)]
        self._next += 1
        began = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - began
        self.overhead_s += elapsed
        self.ratios.append(elapsed / reference_s)
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        # A tick already delivered is handled as this call returns, so
        # its kernel falls inside the block and inside ``overhead_s``.
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._began - self.overhead_s
        signal.signal(signal.SIGALRM, self._previous)
        while self._next < len(KERNELS):
            self.sample()
