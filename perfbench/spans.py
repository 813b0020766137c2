"""Spans recorded from outside the program, around calls into its layers.

The traced run patches public functions and methods of the ``repro``
modules with timing wrappers; untraced runs never import this module's
:meth:`SpanRecorder.install`.  Each wrapped call is one span.  Spans nest
per thread, so a span's *self time* is its duration minus the durations of
the spans it directly encloses.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


#: ``note(args, kwargs, result)`` returns a number stored with the span, such
#: as the batch size a forward ran on.
Note = Callable[[tuple, dict, Any], float]


@dataclass
class LayerTimes:
    """Every span recorded under one label."""

    durations: List[float] = field(default_factory=list)
    notes: List[float] = field(default_factory=list)
    self_seconds: float = 0.0


class _Frame:
    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children = 0.0


class SpanRecorder:
    """Collects spans from any thread; read the results after the run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, LayerTimes] = defaultdict(LayerTimes)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, label: str, func: Callable, args: tuple, kwargs: dict, note: Optional[Note] = None):
        """Run ``func(*args, **kwargs)`` as one span under ``label``."""
        stack = self._stack()
        frame = _Frame()
        stack.append(frame)
        start = self.clock()
        try:
            result = func(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1].children += duration
            with self._lock:
                layer = self.layers[label]
                layer.durations.append(duration)
                layer.self_seconds += duration - frame.children
        if note is not None:
            value = note(args, kwargs, result)
            with self._lock:
                self.layers[label].notes.append(value)
        return result

    def value(self, label: str, value: float) -> None:
        """Record one observed number that is not a span (e.g. a server latency)."""
        with self._lock:
            self.values[label].append(value)

    def wrap(self, func: Callable, label: str, note: Optional[Note] = None) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.call(label, func, args, kwargs, note)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, owner: Any, name: str, label: str, note: Optional[Note] = None) -> None:
        """Replace ``owner.name`` (a class method or module function) by a
        timing wrapper; :meth:`uninstall` puts the original back."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._installed.append((owner, name, original))
        setattr(owner, name, self.wrap(original, label, note))

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Replace ``owner.name`` by a hand-written wrapper (restored by :meth:`uninstall`)."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._installed.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-ready copy of every layer's spans."""
        with self._lock:
            return {
                label: {"durations": list(t.durations), "notes": list(t.notes), "self_s": t.self_seconds}
                for label, t in self.layers.items()
            }

    def values_snapshot(self) -> Dict[str, List[float]]:
        with self._lock:
            return {label: list(values) for label, values in self.values.items()}
