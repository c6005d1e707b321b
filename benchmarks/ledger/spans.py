"""Spans recorded from outside: timing wrappers at layer boundaries.

This PR touches nothing under ``src/``, so the traced pass measures each
layer by wrapping the functions other layers call it through.  A span is
``{id, name, layer, start, end, parent, op}``; spans live in memory and
are written out when the pass ends.  A span's *self time* is its duration
minus the part of that interval its child spans cover, so the self times
of one operation's spans add up to the duration of its root span.

Parent links follow the call stack within a thread.  A span that starts
on a thread with an empty stack (an asyncio-backend handler running for a
sender blocked on another thread) is parented to the most recently opened
span still open anywhere — with one closed-loop client that is the span
waiting for it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Mapping

# Span record layout (a list, mutated once at exit).
ID, NAME, START, END, PARENT, OP = range(6)


class Tracer:
    """Collects spans while ``recording``; the harness switches it on
    only inside timed regions, so set-up and oracle checks leave none.
    ``op`` is the index of the client operation in flight."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # index -> (name, layer)
        self.spans: list[list[Any]] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self.op = -1
        self.recording = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._open: list[int] = []

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        size_of: Callable[[tuple, Any], int] | None = None,
    ) -> Callable[..., Any]:
        index = len(self.names)
        self.names.append((name, layer))
        tracer, ids, local = self, self._ids, self._local
        spans, open_spans, sizes = self.spans, self._open, self.sizes

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = open_spans[-1] if open_spans else -1
            record = [span_id, index, 0.0, 0.0, parent, tracer.op]
            stack.append(span_id)
            open_spans.append(span_id)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
                try:
                    open_spans.remove(span_id)
                except ValueError:
                    pass
                spans.append(record)
            if size_of is not None:
                sizes[name] += size_of(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper


@contextmanager
def installed(
    tracer: Tracer,
    targets: Iterable[tuple[str, str, str | None, str]],
    sizes: Mapping[str, Callable[[tuple, Any], int]] | None = None,
) -> Iterator[Tracer]:
    """Wrap every ``(layer, module, owner, attribute)`` target for the
    duration of the block; originals are restored on exit, even on error."""
    sizes = sizes or {}
    saved: list[tuple[Any, str, Any]] = []
    try:
        for layer, module_path, owner_name, attribute in targets:
            module = importlib.import_module(module_path)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attribute]
            name = f"{owner_name}.{attribute}" if owner_name else attribute
            wrapped = tracer.wrap(original, name, layer, sizes.get(attribute))
            setattr(owner, attribute, wrapped)
            saved.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Iterable[list[Any]]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


def write_jsonl(tracer: Tracer, path: Any, max_ops: int) -> int:
    """One JSON object per span of the first ``max_ops`` operations;
    times in seconds from the first span.  Returns the spans written."""
    origin = min((span[START] for span in tracer.spans), default=0.0)
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            if span[OP] >= max_ops:
                continue
            written += 1
            name, layer = tracer.names[span[NAME]]
            handle.write(
                json.dumps(
                    {
                        "id": span[ID],
                        "name": name,
                        "layer": layer,
                        "start": round(span[START] - origin, 7),
                        "end": round(span[END] - origin, 7),
                        "parent": span[PARENT],
                        "op": span[OP],
                    }
                )
                + "\n"
            )
    return written
