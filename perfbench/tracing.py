"""Call recording for the benchmark: failure accounting plus optional spans.

Every call the benchmark makes into a public fracvol function goes through
`Recorder.call`. Untraced, it counts attempted and failed calls and keeps
each call's duration. Traced, it also keeps one span per call in memory
(id, parent, name, start, end, run id), and `layer_stats` turns the spans
into busy and self time per function and per module. Spans are written out
once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

from fracvol import FracvolError


class Recorder:
    """Counts calls and failures; records spans while `tracing` is true."""

    def __init__(self):
        self.tracing = False
        self.run_id = ""
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []  # seconds per call, in call order
        self.probe = None  # optional timer run just before and after each call
        self.probes: list[tuple[float, float]] = []  # its readings per call
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, label: str | None = None, **kwargs):
        """fn(*args, **kwargs); a FracvolError is counted and gives None.

        name is `<module>.<function>`; label tags a variant of the same
        function (an input size) so the trace can split it out.
        """
        self.attempted += 1
        before = self.probe() if self.probe else 0.0
        start = time.perf_counter()
        try:
            with self.span(name, label) as span:
                try:
                    return fn(*args, **kwargs)
                except FracvolError:
                    self.failed += 1
                    span["failed"] = True
                    return None
        finally:
            self.durations.append(time.perf_counter() - start)
            if self.probe:
                self.probes.append((before, self.probe()))

    @contextmanager
    def span(self, name: str, label: str | None = None):
        """Open a span; calls made inside it become its children."""
        if not self.tracing:
            yield {}
            return
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "label": label, "run": self.run_id,
                  "start": time.perf_counter(), "end": None, "failed": False}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_stats(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Totals per span name and per module over a list of closed spans.

    Keys are `<module>.<function>` (and `<module>.<function>.<label>` for
    labelled spans) with calls, busy_s, self_s and failed, plus `<module>`
    with busy_s (union of its spans) and self_s (busy time not covered by
    child spans). Self time of a span is its duration minus the union of
    its children's intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    stats: dict[str, dict[str, float]] = {}
    module_intervals: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        self_time = duration - _union_length(children.get(s["id"], []))
        keys = [s["name"]]
        if s["label"]:
            keys.append(f"{s['name']}.{s['label']}")
        module = s["name"].split(".", 1)[0]
        module_intervals.setdefault(module, []).append((s["start"], s["end"]))
        for key in keys + [module]:
            entry = stats.setdefault(
                key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
            entry["calls"] += 1
            entry["self_s"] += self_time
            entry["failed"] += int(s["failed"])
            if key != module:
                entry["busy_s"] += duration
    for module, intervals in module_intervals.items():
        stats[module]["busy_s"] = _union_length(intervals)
    return stats
