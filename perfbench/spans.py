"""In-memory span tracing for the benchmark, installed from outside ``src/``.

The benchmark measures the program's layers without editing them: a
:class:`Probe` names one attribute of a module or class (a function or a
method, at the name its *caller* looks up) and :func:`install` replaces it
with a wrapper that records a span around every call.  :func:`uninstall`
puts back exactly what was there, so a probed process can run untraced
again and a test can check that the patched namespaces are left as found.

A span records its name, start, end, parent span and the id of the
workload repetition it belongs to.  Spans stay in memory until the run
ends (:meth:`Tracer.write_jsonl`).  Counters sit next to the spans and are
fed by probe hooks at the same boundaries (iterations, factorizations,
request counts).

Wrappers only time and count: arguments and results pass through
untouched, so a traced repetition must reproduce the untraced one
bitwise -- the benchmark checks this on every traced run.  Calls made in a
forked child (the game's pool workers inherit the patched classes) are
passed straight through: their spans would be lost with the child anyway.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "Probe",
    "Span",
    "TAIL_PERCENTILES",
    "Tracer",
    "install",
    "patched",
    "self_times",
    "summarize",
    "tail_percentile",
    "uninstall",
]

_MISSING = object()
# Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9, 99.99)


@dataclass(frozen=True)
class Span:
    """One closed span; times are clock readings in nanoseconds."""

    name: str
    start: int
    end: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str


class Tracer:
    """Collects spans and counters of one process in memory.

    Args:
        clock: nanosecond clock (injectable for tests).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[tuple[int, str, int]] = []  # (index, name, start)
        self._pid = os.getpid()

    def owns_process(self) -> bool:
        """False in a forked child, where recording is skipped."""
        return os.getpid() == self._pid

    def open(self, name: str) -> int:
        """Open a span; returns its index (closed by :meth:`close`)."""
        index = len(self.spans)
        self.spans.append(None)  # reserved so children can name their parent
        self._stack.append((index, name, self.clock()))
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        top, name, start = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._stack[-1][0] if self._stack else None
        self.spans[index] = Span(name, start, end, parent, self.run_id)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Context manager form of :meth:`open`/:meth:`close`."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def closed_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        return [span for span in self.spans if span is not None]

    def write_jsonl(self, path: Path) -> Path:
        """Write every span (one JSON object a line) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.closed_spans()):
                record = {"id": index, **asdict(span)}
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
        return path


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap.

    Attributes:
        owner: the module or class holding the attribute.
        attr: attribute name (the name the caller looks up).
        span: span name recorded around each call.
        before: optional ``(tracer, args, kwargs) -> state`` run before the
            call, outside the span.
        after: optional ``(tracer, state, args, kwargs, result) -> None``
            run after the call, outside the span.
    """

    owner: Any
    attr: str
    span: str
    before: Callable[..., Any] | None = None
    after: Callable[..., None] | None = None


def _wrap(tracer: Tracer, probe: Probe, original: Callable[..., Any]) -> Callable[..., Any]:
    before, after, name = probe.before, probe.after, probe.span

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.owns_process():
            return original(*args, **kwargs)
        state = before(tracer, args, kwargs) if before is not None else None
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, state, args, kwargs, result)
        return result

    return wrapper


def _replace(
    owner: Any, attr: str, make: Callable[[Any], Any], undo: list[tuple[Any, str, Any]]
) -> None:
    current = getattr(owner, attr)  # raises if the attribute does not exist
    undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
    setattr(owner, attr, make(current))


def install(tracer: Tracer, probes: list[Probe]) -> list[tuple[Any, str, Any]]:
    """Wrap every probed attribute; returns the undo list for
    :func:`uninstall`.  Raises if an attribute does not exist."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for probe in probes:
            _replace(
                probe.owner,
                probe.attr,
                functools.partial(_wrap, tracer, probe),
                undo,
            )
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple[Any, str, Any]]) -> None:
    """Restore what :func:`install` replaced, newest first."""
    for owner, attr, own in reversed(undo):
        if own is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)
    undo.clear()


@contextlib.contextmanager
def patched(owner: Any, attr: str, make: Callable[[Any], Any]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for the ``with`` body."""
    undo: list[tuple[Any, str, Any]] = []
    _replace(owner, attr, make, undo)
    try:
        yield
    finally:
        uninstall(undo)


def self_times(spans: list[Span]) -> list[int]:
    """Per-span self time: duration minus the part its children cover.

    Children of one span may not overlap in a single-threaded trace, but
    the union is taken anyway, clipped to the parent's interval.
    """
    children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_ms`` and ``self_ms`` totals.

    ``spans`` must be indexed as recorded (parents refer to positions).
    """
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["busy_ms"] += (span.end - span.start) / 1e6
        row["self_ms"] += own / 1e6
    return table


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest of :data:`TAIL_PERCENTILES` with at least ``beyond``
    samples above it.

    Percentiles interpolate linearly between order statistics (numpy's
    default).  Returns ``(value, percentile, count)``.

    Raises:
        ValueError: when not even the 90th percentile has ``beyond``
            samples above it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    best: tuple[float, float, int] | None = None
    for percentile in TAIL_PERCENTILES if count > beyond else ():
        position = (count - 1) * percentile / 100.0
        low = int(position)
        high = min(low + 1, count - 1)
        value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
        if count - bisect.bisect_right(ordered, value) >= beyond:
            best = (value, percentile, count)
    if best is None:
        raise ValueError(f"{count} samples leave fewer than {beyond} above the 90th percentile")
    return best
