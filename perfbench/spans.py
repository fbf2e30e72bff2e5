"""Benchmark-side span recorder and its read-back summary.

Spans are recorded around the benchmark's own calls into each layer of
the program (the program is not instrumented for this).  They are kept in
memory while the run measures and written as JSON lines when it ends;
:func:`summarise` reads such a file back and reports, per span name, the
count, total time, self time (duration minus the part of it covered by
child spans), p50 and p99.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from pathlib import Path
from time import perf_counter

from harness import percentile

_NULL = contextlib.nullcontext()


class NullRecorder:
    """The untraced run's recorder: every span is a shared no-op context."""

    def span(self, name: str, **attrs):
        return _NULL


class SpanRecorder:
    """In-memory span recorder for one single-threaded benchmark run.

    Each span gets an id, its parent (the innermost open span) and a
    ``trace_id``: the id of its root span, which every span of one
    operation shares.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[tuple[int, int]] = []  # (span_id, trace_id)
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span_id = next(self._ids)
        parent_id, trace_id = self._open[-1] if self._open else (None, span_id)
        self._open.append((span_id, trace_id))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans.append(
                {
                    "name": name,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "trace_id": trace_id,
                    "start": start,
                    "end": end,
                    "attrs": attrs,
                }
            )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def read_spans(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def summarise(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, total_s, self_s, p50_ms, p99_ms."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record["parent_id"] is not None:
            children.setdefault(record["parent_id"], []).append(
                (record["start"], record["end"])
            )
    grouped: dict[str, list[tuple[float, float]]] = {}
    for record in spans:
        duration = record["end"] - record["start"]
        own = duration - _covered(
            record["start"], record["end"], children.get(record["span_id"], ())
        )
        grouped.setdefault(record["name"], []).append((duration, own))
    summary = {}
    for name, rows in sorted(grouped.items()):
        durations = [duration for duration, _ in rows]
        summary[name] = {
            "count": len(rows),
            "total_s": sum(durations),
            "self_s": sum(own for _, own in rows),
            "p50_ms": percentile(durations, 50) * 1e3,
            "p99_ms": percentile(durations, 99) * 1e3,
        }
    return summary


def format_summary(summary: dict[str, dict]) -> str:
    width = max((len(name) for name in summary), default=4)
    lines = [
        f"{'span':<{width}}  {'count':>6}  {'total_s':>9}  {'self_s':>9}  "
        f"{'p50_ms':>9}  {'p99_ms':>9}"
    ]
    for name, row in summary.items():
        lines.append(
            f"{name:<{width}}  {row['count']:>6}  {row['total_s']:>9.4f}  "
            f"{row['self_s']:>9.4f}  {row['p50_ms']:>9.3f}  {row['p99_ms']:>9.3f}"
        )
    return "\n".join(lines)
