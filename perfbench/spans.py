"""In-memory span recorder for the traced run.

The recorder wraps layer functions from the outside: :meth:`SpanRecorder.wrap`
replaces an attribute (a method on a class, or a function on the module
that *uses* it) with a timing wrapper and :meth:`SpanRecorder.unwrap_all`
puts every original back.  Nothing is written while the workload runs;
:meth:`SpanRecorder.layers` aggregates the spans afterwards.

Two kinds of wrapper exist:

* a **span** records ``(name, start, end, parent, window)``.
  Spans nest per thread; spans opened while a window is being
  processed carry that window's id, so one window's spans share it.
* a **tally** is for per-read functions, where a record per call would
  cost more than the call.  It adds its duration to a per-name total
  and to the enclosing span's child coverage, and records nothing else.

A span's *self time* is its duration minus the part of it that child
spans (and tallies) cover, so the self times of a tree add up to the
root span's duration.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``units(args, kwargs, result) -> float`` — work done by one call.
UnitsFn = Callable[[Tuple[Any, ...], Dict[str, Any], Any], float]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: Optional[int] = None
    window: Optional[str] = None
    #: Time covered by tallied (unrecorded) child calls.
    tally_ns: int = 0


@dataclass
class Layer:
    """Aggregate of one span or tally name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    units: float = 0.0
    #: Optional per-name counters (e.g. results that carried an estimate).
    marks: Dict[str, float] = field(default_factory=dict)


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time of every span: duration minus child coverage.

    Child coverage is the union of the children's intervals clipped to
    the parent, plus tallied time, so overlapping children are not
    counted twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns)
            )
    out: List[int] = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end_ns - span.start_ns - covered - span.tally_ns)
    return out


class SpanRecorder:
    """Wraps layer functions and keeps their spans in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: ``[calls, total_ns]`` per (thread, tally name); each thread
        #: updates only its own slots, so tallies take no lock.
        self._tally_slots: Dict[Tuple[int, str], List[int]] = {}
        self.marks: Dict[str, Dict[str, float]] = {}
        self.units: Dict[str, float] = {}
        #: Open spans per thread.  Keyed by thread id rather than held in
        #: a ``threading.local``, whose attribute access costs more than
        #: the per-read calls being tallied.
        self._stacks: Dict[int, List[int]] = {}
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def _stack(self) -> List[int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks[ident] = []
        return stack

    def open(self, name: str, window: Optional[str] = None) -> int:
        """Start a span; returns its index for :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if window is None and parent is not None:
            window = self.spans[parent].window
        span = Span(
            name=name,
            start_ns=self.clock(),
            parent=parent,
            window=window,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end_ns = self.clock()
        self._stack().pop()

    def add(self, name: str, units: float = 0.0, **marks: float) -> None:
        """Count work (and named marks) against ``name``."""
        with self._lock:
            self.units[name] = self.units.get(name, 0.0) + units
            bucket = self.marks.setdefault(name, {})
            for key, value in marks.items():
                bucket[key] = bucket.get(key, 0.0) + value

    def _tally_slot(self, key: Tuple[int, str]) -> List[int]:
        with self._lock:
            slot = self._tally_slots[key] = [0, 0]
        return slot

    # -- patching -----------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        tally: bool = False,
        units: Optional[UnitsFn] = None,
        marks: Optional[Callable[[Any], Dict[str, float]]] = None,
        window: Optional[Callable[[Tuple[Any, ...]], str]] = None,
        when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``units`` computes the work one call did (reads, pairs, bytes),
        ``marks`` derives named counters from the result, ``window``
        names the window a call processes (its spans and their children
        share the id), and ``when`` skips recording for calls it rejects
        (e.g. calls made on another thread).
        """
        original = getattr(owner, attr)
        recorder = self
        clock = self.clock

        if tally:
            spans, stacks, slots = self.spans, self._stacks, self._tally_slots
            get_ident = threading.get_ident

            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                result = original(*args, **kwargs)
                duration = clock() - start
                key = (get_ident(), name)
                slot = slots.get(key) or recorder._tally_slot(key)
                slot[0] += 1
                slot[1] += duration
                stack = stacks.get(key[0])
                if stack:
                    spans[stack[-1]].tally_ns += duration
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if when is not None and not when():
                    return original(*args, **kwargs)
                index = recorder.open(
                    name, None if window is None else window(args)
                )
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(index)
                if units is not None or marks is not None:
                    recorder.add(
                        name,
                        0.0 if units is None else units(args, kwargs, result),
                        **({} if marks is None else marks(result)),
                    )
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def substitute(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr`` outright (undone by :meth:`unwrap_all`)."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def layers(self) -> Dict[str, Layer]:
        """Per-name totals and self times of every span and tally."""
        out: Dict[str, Layer] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            layer = out.setdefault(span.name, Layer())
            layer.calls += 1
            layer.total_ns += span.end_ns - span.start_ns
            layer.self_ns += own
        for (_, name), (calls, total_ns) in self._tally_slots.items():
            layer = out.setdefault(name, Layer())
            layer.calls += calls
            layer.total_ns += total_ns
            layer.self_ns += total_ns
        for name, units in self.units.items():
            out.setdefault(name, Layer()).units += units
        for name, marks in self.marks.items():
            out.setdefault(name, Layer()).marks.update(marks)
        return out

    def self_total_ns(self) -> int:
        """Sum of all self times (spans and tallies)."""
        return sum(self_times(self.spans)) + sum(
            total_ns for _, total_ns in self._tally_slots.values()
        )

    def windows(self) -> int:
        """Distinct window ids seen."""
        return len({span.window for span in self.spans if span.window is not None})
