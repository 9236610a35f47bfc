"""Measurement helpers shared by every workload.

* nearest-rank percentiles, and the tail percentile a sample supports
  (the highest one with at least ten samples beyond it);
* seeded open-loop arrival schedules, and a sender that times each
  request from when it was due and records how late it was sent;
* the held-out seed that gain claims are checked on.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

#: Seed kept out of every tuning run; a claimed gain must also hold on it.
HELD_OUT_SEED = 104729

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``%
    of the samples at or below it.  ``p`` is in (0, 100]."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int) -> float:
    """The highest percentile <= 95 whose nearest rank leaves at least
    :data:`TAIL_BEYOND` of ``n`` samples strictly above it.

    Never below the median: a sample too small for any tail reports the
    median, and the caller reports ``n`` beside it.
    """
    if n <= 0:
        raise ValueError("no samples")
    p = math.floor(min(95.0, 100.0 * (n - TAIL_BEYOND) / n) * 100.0) / 100.0
    # Nearest rank ceil(p n / 100) must not exceed n - TAIL_BEYOND.
    while p > 50.0 and n - math.ceil(p / 100.0 * n) < TAIL_BEYOND:
        p = round(p - 0.01, 2)
    return max(50.0, p)


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile and sample count behind it."""

    p: float
    value: float
    n: int


def tail(samples: Sequence[float]) -> Tail:
    """Tail percentile of ``samples`` under the ten-beyond rule."""
    p = supported_percentile(len(samples))
    return Tail(p=p, value=percentile(samples, p), n=len(samples))


def poisson_schedule(rate: float, duration: float, seed: int) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process of ``rate`` per
    second over ``[0, duration)``.  The same seed gives the same list."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    arrivals: list[float] = []
    t = float(rng.exponential(1.0 / rate))
    while t < duration:
        arrivals.append(t)
        t += float(rng.exponential(1.0 / rate))
    return arrivals


@dataclass
class Sent:
    """One open-loop request: when it was due, sent and answered."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    value: Any = None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its answer."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the sender started after the request was due."""
        return self.sent - self.due


def run_open_loop(
    offsets: Sequence[float],
    send: Callable[[int, int], tuple[bool, Any]],
    senders: int,
) -> list[Sent]:
    """Send request ``i`` at ``offsets[i]`` from ``senders`` threads.

    ``send(i, sender)`` performs request ``i`` on the sender's own
    connection and returns ``(ok, value)``.  A request whose sender is
    still busy goes out late; its latency still counts from its due
    time, so a stall is charged to every request queued behind it.
    """
    start = time.perf_counter() + 0.05
    records = [Sent(i, start + off) for i, off in enumerate(offsets)]
    cursor = iter(records)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def worker(sender: int) -> None:
        while True:
            with lock:
                record = next(cursor, None)
            if record is None:
                return
            wait = record.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            record.sent = time.perf_counter()
            try:
                record.ok, record.value = send(record.index, sender)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                record.ok = False
            record.done = time.perf_counter()

    threads = [
        threading.Thread(target=worker, args=(k,), daemon=True)
        for k in range(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records
