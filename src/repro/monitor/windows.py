"""Rolling baselines for the runtime monitor.

The monitor's rules (DESIGN.md §16) are all windowed computations over
an *event-time* axis: timestamps come from the event stream itself (or
an injected clock), never from ``time.time()``, so offline replay of a
recorded trace produces byte-identical observations to the live run.
The time windows are plain deques inside the rules that keep them.
"""

from __future__ import annotations

from collections import deque


class RollingBaseline:
    """A rolling mean over the last ``size`` samples.

    The power-anomaly rule compares each reading against this baseline
    (SNIPPETS 2–3: a reading far above the historical average is
    flagged); bounded so one home's baseline is O(1) memory.
    """

    __slots__ = ("_samples", "_total")

    def __init__(self, size: int = 32) -> None:
        self._samples: deque[float] = deque(maxlen=max(1, int(size)))
        self._total = 0.0

    def push(self, value: float) -> None:
        samples = self._samples
        if len(samples) == samples.maxlen:
            self._total -= samples[0]
        samples.append(value)
        self._total += value

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self._total / len(self._samples)
