"""Per-layer tracing from outside the program.

`LayerTracer` replaces module attributes (the names `dialogsim.engine`
calls into) with timing wrappers and puts the originals back on `restore`.
Nested wrapped calls are tracked on a stack, so every layer gets both its
inclusive time and its self time (inclusive minus wrapped children).
Spans are aggregated in memory per layer name instead of being stored one
by one: a 1000-dialog batch makes tens of thousands of calls, and keeping
each span alive would change the garbage collector's work that the
benchmark measures.

`GcMonitor` sums collector pauses through `gc.callbacks`.
"""
from __future__ import annotations

import gc
from collections import Counter, defaultdict
from time import perf_counter


class LayerTracer:
    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.args: dict[str, list[tuple]] = defaultdict(list)
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, layer: str, keep_args: bool = False) -> None:
        """Time every call of `module.attr` under `layer`. With `keep_args`,
        each call's positional arguments are kept in `self.args[layer]` for
        counting after the run, outside every timed span."""
        original = getattr(module, attr)
        children = self._children
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls
        kept = self.args[layer] if keep_args else None

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                inclusive[layer] += elapsed
                self_time[layer] += elapsed - inner
                calls[layer] += 1
                if children:
                    children[-1] += elapsed
            if kept is not None:
                kept.append(args)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class GcMonitor:
    """Collector pause time and generation-2 collections while installed."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2_collections = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.pause_s += perf_counter() - self._start
            if info["generation"] == 2:
                self.gen2_collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def collect() -> None:
    """`gc.collect()` that no GcMonitor counts: the benchmark's own
    housekeeping between stages, not the program's collector work."""
    saved = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        gc.collect()
    finally:
        gc.callbacks[:] = saved
