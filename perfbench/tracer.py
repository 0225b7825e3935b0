"""Spans around the calls into each netsignal layer, recorded from outside.

Each traced function is replaced at the module attribute that the program
resolves at call time, so the program itself carries no instrumentation.
A span holds its name, start, end (``perf_counter`` seconds) and the index
of the span that was open when it began (-1 at top level). Spans stay in
memory until the benchmark writes them out.

A keeper may be registered per name. It runs after the span has closed and
must stay cheap, since it still runs inside the parent span: it only picks
the references or small values that the checks and counts need later.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable

# (module, attribute, layer) of every traced call site.
TRACED = (
    ("netsignal.harness", "estimate_turning", "simulation"),
    ("netsignal.harness", "step", "simulation"),
    ("netsignal.harness", "max_pressure", "controllers"),
    ("netsignal.harness", "plan_phases_detailed", "improvement"),
    ("netsignal.harness", "network_order", "ordering"),
    ("netsignal.improvement", "build_cg", "coordination"),
    ("netsignal.improvement", "coordinate", "messaging"),
    ("netsignal.improvement", "local_improvement", "improvement"),
    ("netsignal.prediction", "period_model", "prediction"),
)

LAYER_OF = {name: layer for _, name, layer in TRACED}

Keeper = Callable[[tuple, dict, Any], Any]
Scale = Callable[[float], float]


class Tracer:
    """Spans of one traced run, plus what each keeper picked per call."""

    def __init__(self, keepers: dict[str, Keeper]):
        self.keepers = keepers
        self.spans: list[tuple[str, float, float, int]] = []
        self.kept: dict[str, list] = {name: [] for name in self.keepers}
        self._open: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_stack = self.spans, self._open
        keeper = self.keepers.get(name)
        kept = self.kept.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_stack[-1] if open_stack else -1
            spans.append(None)
            open_stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_stack.pop()
                spans[index] = (name, start, end, parent)
            if keeper is not None:
                kept.append(keeper(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced attribute for the duration of the block."""
        originals = []
        try:
            for module_name, attr, _ in TRACED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    # `scale(t)` turns a duration that starts at time t into the figure
    # reported for it (see probe.py).

    def durations_ms(self, name: str, scale: Scale) -> list[float]:
        return [(end - start) * 1e3 * scale(start) for n, start, end, _ in self.spans if n == name]

    def self_ms(self, name: str, scale: Scale) -> list[float]:
        """Duration of each `name` span minus its direct children."""
        child_s: dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        return [
            (end - start - child_s.get(k, 0.0)) * 1e3 * scale(start)
            for k, (n, start, end, _) in enumerate(self.spans)
            if n == name
        ]

    def top_level_s(self, scale: Scale) -> float:
        return sum((end - start) * scale(start) for _, start, end, parent in self.spans if parent < 0)

    def layers_seen(self) -> set[str]:
        return {LAYER_OF[n] for n, _, _, _ in self.spans}
