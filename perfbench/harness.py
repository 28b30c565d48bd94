"""Closed-loop op runner with a per-op time limit, and the statistics it reports.

One client in one thread: the next op starts only after the previous one has
returned, raised or hit the time limit. The limit is a real-time interval
timer whose signal raises `OpTimeout` inside the op.

Times are reported at a reference machine speed. On a shared machine the
speed of a single core drifts by tens of percent within minutes, and the
drift swamps what a benchmark wants to see. `SpeedMeter` times a fixed
pure-Python loop every 0.1 s of CPU time, from a profiling-timer signal, so
samples land inside long ops and set-up steps too; an interval's time is its
wall time, less the samples inside it, scaled by how much slower than the
reference the loop ran over that interval.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable

# The loop below takes this long at the reference speed (about the median on
# the 2-vCPU machine the benchmark was written on).
REFERENCE_LOOP_S = 0.002


def _reference_loop() -> int:
    acc = 0
    table = {}
    for i in range(6000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc += (x & (x >> 3)).bit_count()
        table[x & 1023] = acc
    return acc


class SpeedMeter:
    """Samples machine speed; converts wall-time intervals to reference time."""

    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        self.starts = array("d")
        self.ends = array("d")

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _reference_loop()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def reference_s(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] at the reference speed, samples taken inside it excluded.

        The speed is the mean loop time over the samples inside the interval
        and the nearest one on each side.
        """
        first = max(bisect_right(self.ends, t0) - 1, 0)
        last = min(bisect_left(self.starts, t1), len(self.starts) - 1)
        loops = [self.ends[k] - self.starts[k] for k in range(first, last + 1)]
        inside = sum(
            self.ends[k] - self.starts[k]
            for k in range(first, last + 1)
            if self.starts[k] >= t0 and self.ends[k] <= t1
        )
        return (t1 - t0 - inside) * REFERENCE_LOOP_S / statistics.fmean(loops)

    def loop_ms(self) -> dict:
        loops = sorted(e - s for s, e in zip(self.starts, self.ends))
        q = statistics.quantiles(loops, n=4) if len(loops) > 1 else loops * 3
        return {"samples": len(loops), "q1_ms": q[0] * 1e3, "median_ms": q[1] * 1e3,
                "q3_ms": q[2] * 1e3}


class OpTimeout(BaseException):
    """Raised inside an op that outlives the per-op time limit.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


def _raise_timeout(signum, frame):
    raise OpTimeout


@dataclass
class OpRecord:
    item: Any
    start: float
    seconds: float  # wall time
    cpu_s: float  # CPU time of this thread
    result: Any = None
    error: BaseException | None = None
    timed_out: bool = False


@dataclass
class Phase:
    """The ops of one measured phase and its wall time."""

    records: list[OpRecord] = field(default_factory=list)
    wall_s: float = 0.0
    repeats: int = 0


def call_with_limit(op: Callable[[Any], Any], item: Any, limit: float) -> OpRecord:
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    start = time.perf_counter()
    cpu_start = time.thread_time()

    def record(**outcome) -> OpRecord:
        return OpRecord(item, start, time.perf_counter() - start,
                        time.thread_time() - cpu_start, **outcome)

    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            result = op(item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return record(result=result)
    except OpTimeout:
        return record(timed_out=True)
    except Exception as exc:  # any escaping exception is a failed op, not a crash
        return record(error=exc)
    finally:
        signal.signal(signal.SIGALRM, previous)


def run_closed_loop(
    items: list,
    op: Callable[[Any], Any],
    *,
    limit: float,
    seconds: float | None = None,
    min_ops: int = 1,
    count: int | None = None,
    block: int = 1,
) -> Phase:
    """Run ops over items in order, cycling if needed.

    With `seconds`, stop at the first multiple of `block` ops once that much
    wall time has passed and at least `min_ops` ops have run; with `count`,
    run exactly that many ops.
    """
    if not items:
        raise ValueError("no items to run")
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if (
            seconds is not None
            and i >= min_ops
            and i % block == 0
            and time.perf_counter() - start >= seconds
        ):
            break
        if i >= len(items):
            phase.repeats += 1
        phase.records.append(call_with_limit(op, items[i % len(items)], limit))
        i += 1
    phase.wall_s = time.perf_counter() - start
    return phase


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_stats(latencies: list[float], tail_pct: int) -> dict:
    p50 = percentile(latencies, 50)
    tail = percentile(latencies, tail_pct)
    return {
        "samples": len(latencies),
        "p50_ms": p50 * 1e3,
        "tail_pct": tail_pct,
        "tail_ms": tail * 1e3,
        "beyond_tail": sum(1 for v in latencies if v > tail),
    }
