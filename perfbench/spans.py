"""Span tracing of crownlab's public functions from outside the package.

A ``Tracer`` replaces each traced function by one wrapper and installs that
wrapper under every module attribute that binds the original object, so a
function imported by name into several modules (``leading_minors_batch``
lives in ``iwasawa`` and is imported into ``growth`` and ``crownlab``) is
recorded once per call whichever name the caller used.  Spans are kept in
memory as ``[name, start, end, parent, item]`` lists and written out by
``dump``; ``parent`` is the index of the enclosing span (-1 for none) and
``item`` the benchmark item the span belongs to.  A span's self time is its
duration minus the durations of its direct children (calls are strictly
nested on one thread, so children never overlap).

Per-target count functions derive work counts (rows, nodes, path points)
from each call's arguments and return value, so they repeat exactly for
fixed inputs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


PACKAGE = "crownlab"


class Tracer:
    """In-memory span recorder with patch/unpatch of module bindings."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = -1
        self._stack: list[int] = []
        self._wrapped: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code (an item root)."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def parent_name(self) -> str | None:
        """Name of the innermost open span, or None outside any span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn, count=None):
        """A wrapper recording a span ``name`` per call of ``fn``.

        ``count(tracer, args, kwargs, result)`` runs after a successful call,
        outside the span, with the caller's span still innermost.
        """
        self._wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets: dict) -> None:
        """Wrap each target in every loaded module of ``PACKAGE`` binding it.

        ``targets`` maps a span name ``module.function`` or
        ``module.Class.method`` (module relative to ``PACKAGE``) to a count
        function or None.  Raises LookupError when a target does not exist.
        """
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, count in targets.items():
            mod_name, *path = name.split(".")
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self.wrap(name, original, count)
            if len(path) > 1:
                self._patch(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding replaced by ``install``."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            calls[rec[0]] += 1
            self_s[rec[0]] += own
        return calls, self_s

    def nested_calls(self) -> dict[str, int]:
        """Calls per span name made from inside a wrapped function's span.

        Benchmark code calls functions through their defining module, whose
        binding ``install`` always replaces; a call nested in another traced
        call went through the caller module's binding, so a non-zero count
        here shows that binding was wrapped too.
        """
        calls: dict[str, int] = defaultdict(int)
        for name, _, _, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] in self._wrapped:
                calls[name] += 1
        return calls

    def dump(self, path) -> None:
        """Write the spans and counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
