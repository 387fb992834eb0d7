"""In-memory spans around the calls into each cfstbc module.

Wrappers are installed where each caller looks a name up: ``cfstbc.simulate``
for the names it imports, ``cfstbc.linalg`` for the calls ``receiver`` makes
through ``linalg.``, and ``cfstbc.cli`` for the sweep entry points. A name a
later version no longer has is skipped, so its layer reports 0 calls. Only
serial runs are traced: a wrapper cannot be sent to a worker process.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# (module the caller reads the name from, attribute, span name). The span
# name's first part is the layer the time is charged to.
CHUNK_TARGETS = (
    ("cfstbc.simulate", "_ber_chunk", "simulate.chunk"),
    ("cfstbc.simulate", "_se_chunk", "simulate.chunk"),
)
TARGETS = CHUNK_TARGETS + (
    ("cfstbc.cli", "run_ber_sweep", "simulate.sweep"),
    ("cfstbc.cli", "run_se_sweep", "simulate.sweep"),
    ("cfstbc.simulate", "trial_rng", "simulate.trial_rng"),
    ("cfstbc.simulate", "draw_large_scale", "channel.draw_large_scale"),
    ("cfstbc.simulate", "draw_small_scale", "channel.draw_small_scale"),
    ("cfstbc.simulate", "draw_noise", "channel.draw_noise"),
    ("cfstbc.simulate", "received_block", "channel.received_block"),
    ("cfstbc.simulate", "encode", "golden.encode"),
    ("cfstbc.simulate", "equivalent_channel", "golden.equivalent_channel"),
    ("cfstbc.simulate", "stack_system", "golden.stack_system"),
    ("cfstbc.simulate", "vec", "golden.vec"),
    ("cfstbc.simulate", "convergence_margin", "linalg.margin"),
    ("cfstbc.linalg", "gram", "linalg.gram"),
    ("cfstbc.linalg", "exact_inverse", "linalg.invert"),
    ("cfstbc.linalg", "neumann_r2", "linalg.invert"),
    ("cfstbc.linalg", "neumann_inverse", "linalg.invert"),
    ("cfstbc.simulate", "zf_matrix", "receiver.decoder"),
    ("cfstbc.simulate", "mmse_matrix", "receiver.decoder"),
    ("cfstbc.simulate", "per_bs_soft", "receiver.detect"),
    ("cfstbc.simulate", "cpu_combine", "receiver.detect"),
    ("cfstbc.simulate", "detect", "receiver.detect"),
    ("cfstbc.simulate", "sinr_streams", "metrics.sinr_streams"),
    ("cfstbc.simulate", "spectral_efficiency", "metrics.spectral_efficiency"),
)

# Spans whose return values the per-layer metrics read: RunResult for the
# FlopCounter totals, SpectralEstimate for convergence.
KEEP_RESULTS = ("simulate.sweep", "linalg.margin")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


@dataclass
class Tracer:
    """Records a span per wrapped call and keeps what some calls return."""

    targets: tuple = TARGETS
    spans: list[Span] = field(default_factory=list)
    results: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    _stack: list[int] = field(default_factory=list)
    _installed: list[tuple] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = name in KEEP_RESULTS

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span.start, span.end = start, end
            if keep:
                self.results[name].append(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own
    return out
