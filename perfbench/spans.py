"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around each call it makes into a
compodna layer; nothing inside the library is instrumented. Each span has
a name, start and end (perf_counter seconds), the id of the span that was
open when it started, the experiment id of the operation it belongs to,
and a dict of counts recorded at the same boundary.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, ContextManager, Iterator


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "experiment", "counts")

    def __init__(self, span_id: int, name: str, parent: "int | None", experiment: str) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.experiment = experiment
        self.counts: dict[str, float] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "experiment": self.experiment,
            "counts": self.counts,
        }


SpanFactory = Callable[[str], ContextManager[Span]]


class Tracer:
    """Keeps every span in memory; `write` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, experiment: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        rec = Span(len(self.spans), name, parent, experiment)
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def for_experiment(self, experiment: str) -> SpanFactory:
        return lambda name: self.span(name, experiment)

    def seconds_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            totals[rec.name] += rec.seconds
        return totals

    def counts_by_name(self, name: str) -> list[dict[str, float]]:
        return [rec.counts for rec in self.spans if rec.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec.to_json_dict()) + "\n")


class _NullSpan:
    """Stand-in yielded when tracing is off, so counts can still be assigned."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = {}


@contextlib.contextmanager
def untraced(name: str) -> Iterator[_NullSpan]:
    yield _NullSpan()
