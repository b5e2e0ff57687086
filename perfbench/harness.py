"""Closed-loop runner, spans and summary statistics shared by the workloads.

One client sends one operation at a time and waits for it; there is no
queue, so no operation ever waits for another and queueing delay is zero by
construction.
"""

from __future__ import annotations

import json
import resource
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable


class Tracer:
    """Spans around calls into the program, kept in memory until the run ends.

    A span is ``(name, start, end, parent, op_id)``: ``parent`` is the index
    of the enclosing span (or ``None``) and ``op_id`` the operation the span
    belongs to (``"setup"``, ``"probe"`` or the loop index).  A disabled
    tracer only forwards the call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.op_id = "setup"
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op_id")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` names it, equal ``key`` means equal input (so
    equal output), and ``run`` performs it through the given tracer."""

    kind: str
    key: tuple
    run: Callable[[Tracer], object]


@dataclass(frozen=True)
class Failure:
    """An operation that raised instead of returning."""

    error: str


@dataclass
class Loop:
    """What a run of the loop keeps: per operation only its latency and kind;
    per input key the first operation, its whole output, and how often each
    output digest came back.  Memory so stays flat however many operations a
    faster program completes."""

    latencies: array = field(default_factory=lambda: array("d"))
    kinds: list[str] = field(default_factory=list)
    ops: dict = field(default_factory=dict)
    first: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def __len__(self) -> int:
        return len(self.latencies)

    def add(self, op: Op, latency: float, out, digest) -> None:
        self.latencies.append(latency)
        self.kinds.append(op.kind)
        if op.key not in self.first:
            self.ops[op.key], self.first[op.key] = op, out
            self.digests[op.key] = Counter()
        self.digests[op.key][digest] += 1

    def extend(self, other: "Loop") -> None:
        self.latencies.extend(other.latencies)
        self.kinds += other.kinds
        self.elapsed += other.elapsed
        for key, out in other.first.items():
            if key not in self.first:
                self.ops[key], self.first[key] = other.ops[key], out
                self.digests[key] = Counter()
            self.digests[key].update(other.digests[key])

    def occurrences(self):
        """``(op, first output, times run)`` for every distinct input."""
        return [(self.ops[k], out, sum(self.digests[k].values())) for k, out in self.first.items()]


def digest(out, fingerprint: Callable) -> object:
    return None if isinstance(out, Failure) else hash(fingerprint(out))


def run_loop(make_round: Callable[[int], list[Op]], tracer: Tracer, fingerprint: Callable, *,
             seconds: float = 0.0, rounds: int = 0, min_ops: int = 100) -> Loop:
    """Run whole rounds of operations back to back.

    With ``rounds`` set, exactly that many rounds run (fixed work, so counts
    repeat exactly).  Otherwise rounds run until ``seconds`` have passed and
    at least ``min_ops`` operations are done; stopping only between rounds
    keeps the operation mix identical from run to run.
    """
    loop = Loop()
    done = 0
    start = perf_counter()
    while True:
        for op in make_round(done):
            tracer.op_id = len(loop)
            begin = perf_counter()
            try:
                out = tracer.call("op." + op.kind, op.run, tracer)
            except Exception as exc:  # counted as a failed operation, run goes on
                out = Failure(f"{type(exc).__name__}: {exc}")
            loop.add(op, perf_counter() - begin, out, digest(out, fingerprint))
        done += 1
        loop.elapsed = perf_counter() - start
        if (done >= rounds) if rounds else (loop.elapsed >= seconds and len(loop) >= min_ops):
            return loop


def count_failed(loop: Loop, output_ok: Callable, fingerprint: Callable) -> int:
    """Operations that raised or whose output differs from a checked one.

    The first output for each input is checked in full by ``output_ok(op,
    out)``; every later output for that input must have the same digest.
    """
    failed = 0
    for key, out in loop.first.items():
        good = not isinstance(out, Failure) and output_ok(loop.ops[key], out)
        reference = digest(out, fingerprint) if good else None
        failed += sum(n for d, n in loop.digests[key].items() if d is None or d != reference)
    return failed


def deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB
