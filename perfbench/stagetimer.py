"""Stage timer for the traced benchmark run.

A :class:`Tracer` replaces functions on modules and classes with wrappers
that record one span per call (name, start, end, parent) and let a hook add
counts. Spans stay in memory; :meth:`Tracer.write` puts them in a file once
the run ends. Nothing here imports contamkit: callers say what to wrap.

A wrapped generator records one span per item it yields, parented to the
span that pulled the item, so a consumer's self time excludes the producer.
"""

import contextlib
import inspect
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent span index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans.append([name_id, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body of a ``with`` block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _traced_generator(self, gen, name: str):
        while True:
            index = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    # -- installing wrappers -----------------------------------------------

    def wrap(self, owner, attr: str, name, on_call=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper until :meth:`restore`.

        ``name`` is the span name, or a function of the call's arguments that
        returns it. ``on_call(counts, args, kwargs, result)`` may add counts.
        Class and static methods are unwrapped and re-wrapped as such. A name
        the owner no longer has is skipped, so its spans and counts read 0.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_call is not None:
                on_call(tracer.counts, args, kwargs, result)
            if inspect.isgenerator(result):
                return tracer._traced_generator(result, span_name)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put back every original wrapped by this tracer."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive, self) seconds per span name.

        Self time is a span's duration minus the time its child spans cover.
        """
        inclusive: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            inclusive[self.names[name_id]] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            own[self.names[name_id]] += end - start - child[i]
        return inclusive, own

    def write(self, path, meta: dict) -> None:
        """One JSON line of metadata and counts, then one line per span:
        [name, start, end, parent index] with times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({**meta, "counts": dict(self.counts), "span_fields": ["name", "start", "end", "parent"]}))
            f.write("\n")
            for name_id, start, end, parent in self.spans:
                f.write(json.dumps([self.names[name_id], round(start - origin, 7), round(end - origin, 7), parent]))
                f.write("\n")
