"""In-memory span recording around calls into the aeroshm package.

The benchmark never edits the package: it replaces public functions and
methods by thin wrappers for the duration of a run and restores them
afterwards. A span is (name, start, end, parent, op, attrs); `op` is the
index of the benchmark operation the span belongs to (-1 during set-up),
so spans of one operation share an identifier.

Two recording modes share the same wrappers:

* untraced runs install only the wrappers named in `always`, which the
  end-to-end metrics need (for example per-call `train_step` times inside
  `fit`), so nothing else pays any cost;
* traced runs install every wrapper in `instrument`; `enabled` switches
  recording on for the operations being traced.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self, always: frozenset[str] = frozenset()):
        self.spans: list[Span] = []
        self.always = always
        self.enabled = False
        self.op = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _records(self, name: str) -> bool:
        return self.enabled or name in self.always

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around a block (when recording is on)."""
        if not self._records(name):
            yield None
            return
        sp = Span(name, 0.0, parent=self._open[-1] if self._open else -1,
                  op=self.op, attrs=attrs)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    @contextmanager
    def paused(self):
        """Run a block without recording optional spans."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # -- wrapping --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, attrs_of=None) -> None:
        """Replace owner.attr by a recording wrapper until restore().

        attrs_of(args, kwargs, result) may add span attributes computed
        from the call, such as an operation count.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._records(name):
                return original(*args, **kwargs)
            with tracer.span(name) as sp:
                result = original(*args, **kwargs)
            if attrs_of is not None:
                sp.attrs.update(attrs_of(args, kwargs, result))
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------

    def durations_ms(self, name: str, ops=None) -> list[float]:
        """Durations of the spans called name, optionally only those of
        the given operations."""
        return [s.ms for s in self.spans
                if s.name == name and (ops is None or s.op in ops)]

    def self_ms(self) -> np.ndarray:
        """Each span's duration minus the time covered by its children."""
        own = np.array([s.ms for s in self.spans])
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.ms
        return own

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "attrs": s.attrs,
                }) + "\n")
