"""In-memory span tracer that instruments ``shortlong`` from the outside.

A :class:`Probe` names one public function or method and the span (or
counter) it feeds. :class:`Tracer` wraps each probed function at every name a
caller looks it up by: the defining module, every ``shortlong`` module that
imported it with ``from .x import f``, or the class that owns a method. While
the tracer is active each wrapped call records a span (name, start, end,
parent span, run id); count-only probes just count, so hot leaf helpers such
as ``token_count`` do not pay for a span. :meth:`Tracer.restore` puts every
original object back.

Self time is a span's duration minus the part of it that its direct child
spans cover. The sum of self times over all spans therefore equals the
summed duration of the root spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

SizeFn = Callable[[tuple, dict, Any], float]


@dataclass(frozen=True)
class Probe:
    """One instrumented function: ``owner.attr`` feeds span ``name``.

    ``owner`` is a module path (``"shortlong.policy"``) for a function, or a
    ``"module:Class"`` path for a method. ``timed=False`` counts calls
    without recording a span. Each entry of ``sizes`` maps a quantity name
    to a function of ``(args, kwargs, result)`` whose value is summed over
    calls, such as the number of tokens encoded.
    """

    name: str
    owner: str
    attr: str
    timed: bool = True
    sizes: tuple[tuple[str, SizeFn], ...] = ()


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Patches probed functions in place; keeps spans and counts in memory."""

    def __init__(self, probes: list[Probe], package: str = "shortlong"):
        self.probes = probes
        self.package = package
        self.active = False
        self.run_id = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        # (name, run_id) -> calls / summed size
        self.calls: dict[tuple[str, int], int] = {}
        self.sizes: dict[tuple[str, int], float] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for probe in self.probes:
            owner = _resolve(probe.owner)
            original = owner.__dict__[probe.attr]
            wrapper = self._wrap(probe, original)
            self._patch(owner, probe.attr, wrapper)
            if ":" in probe.owner:
                continue
            # Re-bind every module-level alias made by ``from .x import f``.
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, target: Any, name: str, value: Any) -> None:
        self._patches.append((target, name, target.__dict__[name]))
        setattr(target, name, value)

    def restore(self) -> None:
        """Put back every original binding, newest first."""
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)
        self.active = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ----------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        name, sizes = probe.name, probe.sizes
        name_id = self._name_id(name)
        tracer = self

        if not probe.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    key = (name, tracer.run_id)
                    tracer.calls[key] = tracer.calls.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_run.append(tracer.run_id)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()
            key = (name, tracer.run_id)
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            for size_name, size_fn in sizes:
                skey = (f"{name}.{size_name}", tracer.run_id)
                tracer.sizes[skey] = tracer.sizes.get(skey, 0.0) + size_fn(args, kwargs, result)
            return result
        return traced

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[tuple[str, int], float]:
        """Summed self time per (span name, run id)."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        name = np.frombuffer(self.span_name, dtype=np.int32)
        run = np.frombuffer(self.span_run, dtype=np.int32)
        out: dict[tuple[str, int], float] = {}
        for (n, r), value in zip(zip(name.tolist(), run.tolist()), own.tolist()):
            key = (self.names[n], r)
            out[key] = out.get(key, 0.0) + value
        return out

    def root_time(self, run_id: int) -> float:
        """Summed duration of the spans of ``run_id`` that have no parent."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        run = np.frombuffer(self.span_run, dtype=np.int32)
        return float(dur[(parent < 0) & (run == run_id)].sum())

    def save(self, path: str) -> None:
        """Write every span as parallel arrays (``numpy.savez``)."""
        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 run_id=np.frombuffer(self.span_run, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
