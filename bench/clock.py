"""Task timing corrected for the host's momentary speed.

On a shared host the speed of cache-heavy Python swings by a third within
seconds and drifts over minutes, so raw task times of one input moved by
20-30% between runs. Each task is therefore also measured against a fixed
calibration kernel (sorting and hashing words, as the learner does) that
runs after every task: ``speed`` is ``REFERENCE_S`` over the mean of the
kernel times on either side of the task, and the task's CPU time scaled by
it is its time at the reference speed.
"""

from __future__ import annotations

import random
import time
from typing import Callable

#: Kernel time that defines the reference speed (about this host's own speed).
REFERENCE_S = 0.02


class TaskClock:
    """Times tasks and the host's speed around each."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._words = [
            tuple(rng.randrange(3) for _ in range(rng.randrange(1, 12))) for _ in range(12_000)
        ]
        self._last: float | None = None

    def _kernel(self) -> float:
        start = time.perf_counter()
        counts: dict[tuple[int, ...], int] = {}
        for word in sorted(self._words, key=lambda w: (len(w), w)):
            counts[word] = counts.get(word, 0) + 1
        return time.perf_counter() - start

    def time(self, fn: Callable, *args) -> tuple[object, float, float]:
        """``fn(*args)``, its time, and the host speed relative to the reference."""
        if self._last is None:
            self._last = self._kernel()
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        before, self._last = self._last, self._kernel()
        return out, elapsed, REFERENCE_S * 2 / (before + self._last)
