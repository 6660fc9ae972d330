"""Spans recorded by the benchmark around its calls into the program.

A span has a name (``module.function`` for a call into the program,
``bench.*`` for the benchmark's own work), start and end times, the id of
the span that encloses it and the id of the pass it belongs to.  Spans stay
in memory and are written out once, when the run ends.  With tracing off
the benchmark uses ``NO_TRACE``, which records nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.pass_id = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "pass": self.pass_id, "start": time.perf_counter(),
                  "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def select(self, name: str, **attrs) -> list:
        return [s for s in self.spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    def total(self, name: str, **attrs) -> float:
        return sum(duration(s) for s in self.select(name, **attrs))

    def self_times(self) -> dict:
        """Self time per layer (the part of ``module.function`` before the
        dot): span duration minus the time its child spans cover."""
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += duration(s)
        layers = defaultdict(float)
        for s in self.spans:
            layers[s["name"].split(".")[0]] += duration(s) - covered[s["id"]]
        return dict(layers)

    def write(self, path: str, header: dict):
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh, default=str)


class _NoTrace:
    pass_id = None

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


NO_TRACE = _NoTrace()


def duration(span: dict) -> float:
    return span["end"] - span["start"]
