"""Machine-speed probe, and times normalized by it.

On a shared machine the same code runs up to 2x slower for seconds or
minutes at a time, whatever it is: the core is busy with other work. A
timer signal runs a fixed probe kernel (small numpy ops and interpreter
work, like the workloads) every ``INTERVAL`` seconds while the benchmark
measures. A span of wall time is then converted to *reference* time: each
moment counts ``REF_MS / probe_ms``, with ``probe_ms`` the rolling median of
the nearby probes, and the probes' own time is taken out. On a machine where
the probe takes ``REF_MS``, reference time is wall time; when the machine
slows down, wall time and probe time grow together and reference time stays.
The probe is part of the benchmark, so a change to ``latopt`` moves
reference time exactly as it moves wall time.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.05
REF_MS = 1.0
WINDOW = 5  # probes in the rolling median, about 0.25 s

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 32))
_W = _rng.standard_normal((32, 32))
_TABLE = _rng.standard_normal((512, 16))
_IDS = [_rng.integers(0, 512, size=24) for _ in range(16)]


def kernel() -> float:
    acc = 0.0
    for _ in range(10):
        acc += float(np.tanh(_A @ _W).sum())
        acc += float(sum(_TABLE[ids].mean(axis=0)[0] for ids in _IDS))
        acc += sum({k: k * k for k in range(150)}.values())
    return acc


class SpeedProbe:
    """Runs ``kernel`` from a timer signal while active and converts wall
    intervals measured meanwhile to reference milliseconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._prepare()
        return False

    def _prepare(self) -> None:
        if not self.starts:
            raise RuntimeError("speed probe: no probe ran; measure for longer than the probe interval")
        s = np.asarray(self.starts)
        d = np.asarray(self.durations)
        half = WINDOW // 2
        padded = np.pad(d, half, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
        self._weight = REF_MS / (smooth * 1000.0)
        seg = np.diff(s) * self._weight[:-1]
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._probe_cum = np.concatenate([[0.0], np.cumsum(d * self._weight)])

    def reference(self, t: float) -> float:
        """Reference seconds from the first probe to wall time ``t``, less
        the probes that started before ``t``; differences of it are
        reference durations."""
        k = max(bisect.bisect_right(self.starts, t) - 1, 0)
        probes = self._probe_cum[bisect.bisect_left(self.starts, t)]
        return self._cum[k] + (t - self.starts[k]) * self._weight[k] - probes

    def reference_ms(self, start: float, end: float) -> float:
        return (self.reference(end) - self.reference(start)) * 1000.0

    def slowdown(self) -> float:
        """Median probe time over ``REF_MS``: how slow the machine ran."""
        return float(np.median(self.durations)) * 1000.0 / REF_MS
