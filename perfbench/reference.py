"""Scale measured times to a fixed machine speed.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to 2x over minutes; wall-clock and CPU time
both follow the drift, so raw medians of back-to-back runs spread by 20-40%.
Each timed stage is therefore bracketed by a fixed reference kernel that
does not depend on dialogsim, and the stage's time is multiplied by
NOMINAL_S / (mean kernel time around it): the time the stage would take on
a machine where the kernel takes NOMINAL_S. A program change moves the
stage but not the kernel, so it shows in full.

The kernel mixes the work dialogsim spends its time on (string building,
regex spans, JSON encoding, small dataclass objects, sorting) and runs with
the garbage collector off, so no change to the program's collector
settings moves it.
"""
from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass
from random import Random
from time import perf_counter

NOMINAL_S = 0.020

_SPAN_RE = re.compile(r"\[([^\[\]|]+)\|([a-z]+\d+)\]")


@dataclass
class _Span:
    surface: str
    var: str
    start: int
    end: int


def _kernel(rounds: int = 1500) -> int:
    rng = Random(7)
    vocab = [f"tok{i}" for i in range(500)]
    spans: list[_Span] = []
    lines = []
    for i in range(rounds):
        words = [vocab[rng.randrange(500)] for _ in range(8)]
        text = " ".join(words[:3]) + f" [{words[3]}|v{i % 7}] " + " ".join(words[4:])
        for m in _SPAN_RE.finditer(text):
            spans.append(_Span(m.group(1), m.group(2), m.start(), m.end()))
        lines.append(json.dumps({"t": text, "n": i, "w": words[:2]}))
        if len(spans) > 2000:
            spans.sort(key=lambda s: (s.var, s.start))
            spans = spans[1000:]
    return sum(len(line) for line in lines)


def reference_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """`with Speed() as speed:` around a timed stage; afterwards multiply the
    stage's raw seconds by `speed.factor`."""

    def __enter__(self):
        self.before = reference_seconds()
        return self

    def __exit__(self, *exc) -> None:
        self.reference_s = (self.before + reference_seconds()) / 2
        self.factor = NOMINAL_S / self.reference_s
