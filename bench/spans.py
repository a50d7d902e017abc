"""In-memory span tracer that wraps gumbelmap's public functions from outside.

A span target is written ``module:attr`` or ``module:Class.method``.  The
wrapper replaces the target object by identity in every loaded
``gumbelmap.*`` module namespace, so the from-imports between modules are
caught as well (and the class attribute for methods).  ``uninstall``
restores every replaced binding.

Each span is stored with its name, start, end, parent span and phase (the
run id), and self time is accounted on the fly: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "gumbelmap"


def resolve(target: str):
    """(owner object, attribute name, current value) for ``module:attr``."""
    mod_name, attr = target.split(":")
    owner = sys.modules[mod_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span store, one column per field
        self.col_name = array("q")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        self.col_phase = array("q")
        self.phases: list[str] = []
        self.phase = -1
        self.calls = defaultdict(int)      # (phase, name id) -> calls
        self.self_ns = defaultdict(int)    # (phase, name id) -> self time
        self.root_ns = defaultdict(int)    # phase -> time covered by roots
        self.counters = defaultdict(int)   # (phase, counter) -> value
        self.errors = 0
        self._stack: list[list[int]] = []  # [child ns, span index]
        self._undo: list[tuple[object, str, object]] = []

    # -- phases and counters ------------------------------------------------

    def begin_phase(self, name: str) -> None:
        self.phases.append(name)
        self.phase = len(self.phases) - 1

    def count(self, counter: str, value: int = 1) -> None:
        self.counters[(self.phase, counter)] += value

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.col_name)
            self.col_name.append(nid)
            self.col_parent.append(stack[-1][1] if stack else -1)
            self.col_phase.append(self.phase)
            self.col_start.append(0)
            self.col_end.append(0)
            frame = [0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.col_start[idx] = t0
                self.col_end[idx] = t1
                key = (self.phase, nid)
                self.calls[key] += 1
                self.self_ns[key] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_ns[self.phase] += dur

        traced.__wrapped__ = fn
        return traced

    def install(self, target: str, name: str, adapt=None) -> None:
        """Wrap ``target`` as span ``name``.  ``adapt(original)`` may return
        a function that records counters around the original; it runs inside
        the span."""
        owner, attr, original = resolve(target)
        inner = adapt(original) if adapt is not None else original
        traced = self.wrap(inner, name)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, traced)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def span_totals(self, name: str, phases: list[str]) -> tuple[int, int]:
        """(calls, self ns) of span ``name`` summed over ``phases``."""
        nid = self._ids.get(name)
        calls = self_ns = 0
        for i, ph in enumerate(self.phases):
            if nid is not None and ph in phases:
                calls += self.calls[(i, nid)]
                self_ns += self.self_ns[(i, nid)]
        return calls, self_ns

    def counter(self, counter: str, phases: list[str]) -> int:
        return sum(self.counters[(i, counter)]
                   for i, ph in enumerate(self.phases) if ph in phases)

    def phase_self_ns(self, phase: str) -> int:
        i = self.phases.index(phase)
        return sum(v for (ph, _), v in self.self_ns.items() if ph == i)

    def phase_root_ns(self, phase: str) -> int:
        return self.root_ns[self.phases.index(phase)]

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def dump(self, path: str) -> None:
        """Write every span to one file: a JSON header line with the span
        and phase names, then five native-endian int64 columns (name id,
        start ns, end ns, parent index, phase id), each ``count`` long, in
        order of entry."""
        header = {"count": len(self.col_name), "names": self.names,
                  "phases": self.phases,
                  "columns": ["name", "start_ns", "end_ns", "parent",
                              "phase"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.col_name, self.col_start, self.col_end,
                        self.col_parent, self.col_phase):
                col.tofile(fh)
