"""Sample statistics and the result accumulator shared by every workload."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_MIN_BEYOND` samples above it, but never below the median.

    With ``n`` sorted samples that is the sample at 0-based index
    ``n - 11``, i.e. the ``100 * (n - 10) / n`` percentile.  With 20
    samples or fewer that percentile would not reach the median (or would
    not exist), so the median itself is reported, as percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if 2 * (n - TAIL_MIN_BEYOND) <= n:
        return median(ordered), 50.0
    return (float(ordered[n - TAIL_MIN_BEYOND - 1]),
            round(100.0 * (n - TAIL_MIN_BEYOND) / n, 1))


@dataclass
class Outcome:
    """Everything one benchmark invocation measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: metric name -> sample count (and, for tails, the percentile).
    samples: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable descriptions of every failed check.
    failures: List[str] = field(default_factory=list)
    #: Diagnostics printed and written out but never gated on.
    info: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str,
            samples: Optional[str] = None) -> None:
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = samples

    def put_timing(self, prefix: str, values: Sequence[float],
                   unit: str) -> None:
        """``<prefix>_p50`` and ``<prefix>_tail`` from one sample set."""
        count = len(values)
        self.put(f"{prefix}_p50", median(values), unit, f"n={count}")
        value, pct = tail(values)
        self.put(f"{prefix}_tail", value, unit, f"p{pct:g} of n={count}")

    def attempt(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def result_line(self, names: Sequence[str]) -> Dict[str, object]:
        """The result line printed last, restricted to ``names`` in order."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name][0],
                               "unit": self.metrics[name][1]}
                        for name in names},
        }


class Paced:
    """Runs ``action`` ``total`` times, spread evenly over a run window.

    The host's speed drifts over seconds, so a side measurement taken in
    one burst reflects one moment; paced, its samples see the same drift
    as the main loop's.  Call :meth:`catch_up` between main-loop steps and
    :meth:`finish` once the window has closed.
    """

    def __init__(self, action: Callable[[], None], total: int,
                 seconds: float):
        self.action = action
        self.total = total
        self.seconds = seconds
        self.done = 0
        self.start = time.perf_counter()

    def catch_up(self) -> None:
        elapsed = time.perf_counter() - self.start
        due = (self.total * min(1.0, elapsed / self.seconds)
               if self.seconds > 0 else self.total)
        while self.done < due:
            self.action()
            self.done += 1

    def finish(self) -> None:
        while self.done < self.total:
            self.action()
            self.done += 1
