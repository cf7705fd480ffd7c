"""Order statistics, machine-speed calibration and in-memory span
tracing for the benchmark.

Stdlib only.  The runner uses the percentile rule; the workers use the
calibration, and in traced passes the tracer, which records one span
per call the benchmark makes into the library and keeps every span in
memory until the pass ends.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

TAIL_CAP = 90  # op_p90_ms never reports a percentile above 90
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class _Key:
    name: str
    faces: tuple


_KEYS = tuple(_Key(f"e{i % 13}", (i % 7, _Key("f", (i % 3,))))
              for i in range(120))
REFERENCE_CHUNK_S = 130e-6  # one chunk on the machine of the README's numbers
REFERENCE_START_S = 0.044  # one bare_interpreter() there


def _reference_chunk():
    """A fixed piece of pure-Python work of the kind the library spends
    its time on: hashing nested frozen dataclasses and dict lookups."""
    table = {}
    for k in _KEYS:
        table[k] = table.get(k, 0) + 1
    return sum(table[k] for k in _KEYS)


def bare_interpreter():
    """Start an interpreter that does nothing and wait for it: the fixed
    part of the cost of every op that is a process of its own."""
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)


def cpu_seconds():
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        u = resource.getrusage(who)
        total += u.ru_utime + u.ru_stime
    return total


class Calibration:
    """How fast the machine ran during a pass, and around each op.

    After each op a fixed reference unit of work runs for 10% of the
    op's latency (at least once), so the units sample the machine in
    proportion to the time the ops took.  The unit is `_reference_chunk`
    for ops in the benchmark's process and `bare_interpreter` for ops
    that are processes of their own, each with its time on the machine
    of the README's numbers.  On a machine shared with other tenants
    the speed drifts by tens of percent from minute to minute and flips
    between states from one second to the next; dividing a pass's times
    by `slowdown()`, and each op's latency by its `op_slowdowns()`
    entry, removes most of that.
    """

    SHARE = 0.1

    def __init__(self, unit=_reference_chunk, unit_seconds=REFERENCE_CHUNK_S):
        self.unit, self.unit_seconds = unit, unit_seconds
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.units = 0
        self.after_op = []  # slowdown in the units right after each op

    def run_for(self, seconds):
        """Run the reference unit for `seconds` (at least once) and
        return the slowdown of that stretch."""
        cpu = cpu_seconds()
        start = time.perf_counter()
        units = 0
        while True:
            self.unit()
            units += 1
            spent = time.perf_counter() - start
            if spent >= seconds:
                break
        self.seconds += spent
        self.cpu_seconds += cpu_seconds() - cpu
        self.units += units
        return spent / units / self.unit_seconds

    def sample(self, op_seconds):
        self.after_op.append(self.run_for(self.SHARE * op_seconds))

    def slowdown(self):
        return self.seconds / self.units / self.unit_seconds

    def op_slowdowns(self):
        """Per op, the mean slowdown of the chunks just before it (those
        after the previous op) and just after it."""
        after = self.after_op
        return [(after[max(i - 1, 0)] + after[i]) / 2
                for i in range(len(after))]


def tail_percentile(n):
    """The highest whole percentile p <= 90 whose nearest-rank sample
    leaves at least ten samples above it, with that rank.

    Returns (p, rank) with a 1-based rank.  With 100 or more samples
    this is the 90th percentile; with fewer it drops (p75 for 40
    samples), and with too few samples for any percentile it falls back
    to the median.
    """
    if n < 1:
        raise ValueError("no samples")
    for p in range(TAIL_CAP, 50, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100) in integers
        if n - rank >= TAIL_MIN_BEYOND:
            return p, rank
    return 50, -(-n // 2)


def tail_value(samples):
    """(percentile, value) of the tail percentile of `samples`."""
    ordered = sorted(samples)
    p, rank = tail_percentile(len(ordered))
    return p, ordered[rank - 1]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int  # op id shared by every span of one op, -1 outside ops


class _Scope:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.span = Span(name, 0.0, 0.0, -1, tracer.op)

    def __enter__(self):
        tracer, span = self.tracer, self.span
        span.parent = tracer._open[-1] if tracer._open else -1
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(span)
        span.start = time.perf_counter()
        return span

    def __exit__(self, *exc_info):
        self.span.end = time.perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    """Collects spans in memory."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = []

    def span(self, name):
        return _Scope(self, name)

    def dump(self):
        return [asdict(s) for s in self.spans]


class _NullScope:
    __slots__ = ()
    span = Span("", 0.0, 0.0, -1, -1)

    def __enter__(self):
        return self.span

    def __exit__(self, *exc_info):
        return False


class NullTracer:
    """The untraced runs: the same interface, recording nothing."""

    enabled = False
    _scope = _NullScope()

    def __init__(self):
        self.spans = []
        self.op = -1

    def span(self, name):
        return self._scope


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Children of one span may not overlap in a single-threaded trace,
    but their intervals are merged anyway, and clipped to the parent.
    """
    children = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def self_time_by_name(spans):
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals
