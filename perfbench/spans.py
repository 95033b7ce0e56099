"""In-memory spans around the calls into each greedy_ou module.

Wrappers are installed where each caller looks the callee up (a module
global, a class attribute or the CLI runner table), so the program's own
files stay untouched.  A span records its name, start, end, parent span,
run id, whether the call returned, and one optional size attribute.  Self
time of a span is its duration minus that of its direct children; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the root
    run_id: int
    ok: bool
    size: float | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, size=None):
        """fn recorded as span `name`; size(*args) gives its size attribute."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.run_id, False,
                        size(*args) if size else None)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                span.ok = True
                return out
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def count(self, name, fn):
        """fn with a bare call counter, for calls too small to time."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap the greedy_ou call sites; restore the originals on exit."""
        from greedy_ou import cli, config, eigen, greedy

        patches = []

        def patch(owner, attr, value):
            if isinstance(owner, dict):
                patches.append((owner, attr, owner[attr]))
                owner[attr] = value
            else:
                patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, value)

        assemble = self.wrap("fem.assemble", config.assemble, size=lambda mesh, *a: mesh.n_el)
        normalize = self.wrap("springs.normalize", config.normalize)
        factor_eigens = self.wrap("eigen.solve_factor_eigens", eigen.solve_factor_eigens,
                                  size=lambda mats, *a: mats.ndof)
        energy_rank1 = self.count("greedy.energy_rank1", greedy.energy_rank1)

        for name in ("validate_config", "build_problem", "build_target"):
            patch(cli, name, self.wrap(f"config.{name}", getattr(cli, name)))
        for name in ("fourier_coeffs", "rate_class_report"):
            patch(cli, name, self.wrap(f"diagnostics.{name}", getattr(cli, name)))
        patch(cli, "resolved_factor_eigens",
              self.wrap("eigen.resolved_factor_eigens", cli.resolved_factor_eigens))
        patch(cli, "normalize", normalize)
        for algorithm in ("pga", "oga"):
            patch(cli._RUNNERS, algorithm, self.wrap("greedy.loop", cli._RUNNERS[algorithm]))

        patch(config, "assemble", assemble)
        patch(config, "normalize", normalize)
        patch(config, "solve_factor_eigens", factor_eigens)
        patch(config, "energy_rank1", energy_rank1)
        patch(eigen, "assemble", assemble)
        patch(eigen, "solve_factor_eigens", factor_eigens)

        patch(greedy, "als_best", self.wrap("greedy.als_best", greedy.als_best))
        patch(greedy, "als_rank1", self.wrap("greedy.als_rank1", greedy.als_rank1))
        patch(greedy, "energy_norm", self.wrap("greedy.energy_norm", greedy.energy_norm))
        patch(greedy, "energy_rank1", energy_rank1)
        patch(greedy.Functional, "slot_vector",
              self.wrap("greedy.slot_vector", greedy.Functional.slot_vector,
                        size=lambda functional, *a: len(functional.terms)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.run_id, s.ok, s.size] for s in self.spans]


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, n_runs: int, n_factors: int) -> dict:
    """Per-layer figures per traced command (value, unit), from the spans."""
    by_name: dict[str, list] = {}
    self_s = tracer.self_times()
    for span, own in zip(tracer.spans, self_s):
        by_name.setdefault(span.name, []).append((span, own))

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans(name)) / n_runs

    def busy(name):
        return sum(s.end - s.start for s, _ in spans(name)) / n_runs

    def own(name):
        return sum(o for _, o in spans(name)) / n_runs

    def sizes(name):
        return [s.size for s, _ in spans(name)]

    rank1_ms = [1e3 * (s.end - s.start) for s, _ in spans("greedy.als_rank1")]
    n_rank1 = len(rank1_ms)
    n_slot = len(spans("greedy.slot_vector"))
    return {
        "greedy.slot_vector.calls": (calls("greedy.slot_vector"), "count"),
        "greedy.slot_vector.s": (busy("greedy.slot_vector"), "s"),
        "greedy.slot_vector.rank_mean": (
            statistics.fmean(sizes("greedy.slot_vector")) if n_slot else 0.0, "count"),
        "greedy.als_rank1.calls": (calls("greedy.als_rank1"), "count"),
        "greedy.als_rank1.s": (busy("greedy.als_rank1"), "s"),
        "greedy.als_rank1.p50_ms": (_quantile(rank1_ms, 50), "ms"),
        "greedy.als_rank1.p90_ms": (_quantile(rank1_ms, 90), "ms"),
        "greedy.als_rank1.self_s": (own("greedy.als_rank1"), "s"),
        "greedy.als_rank1.sweeps_mean": (
            n_slot / (n_factors * n_rank1) if n_rank1 else 0.0, "count"),
        "greedy.als_rank1.ok_ratio": (
            sum(s.ok for s, _ in spans("greedy.als_rank1")) / n_rank1 if n_rank1 else 0.0,
            "ratio"),
        "greedy.als_best.calls": (calls("greedy.als_best"), "count"),
        "greedy.als_best.s": (busy("greedy.als_best"), "s"),
        "greedy.energy_norm.calls": (calls("greedy.energy_norm"), "count"),
        "greedy.energy_norm.s": (busy("greedy.energy_norm"), "s"),
        "greedy.energy_rank1.calls": (
            tracer.counts.get("greedy.energy_rank1", 0) / n_runs, "count"),
        "greedy.loop.self_s": (own("greedy.loop"), "s"),
        "config.build_problem.s": (busy("config.build_problem"), "s"),
        "config.build_target.s": (busy("config.build_target"), "s"),
        "springs.normalize.calls": (calls("springs.normalize"), "count"),
        "springs.normalize.s": (busy("springs.normalize"), "s"),
        "fem.assemble.calls": (calls("fem.assemble"), "count"),
        "fem.assemble.s": (busy("fem.assemble"), "s"),
        "fem.assemble.elements": (sum(sizes("fem.assemble")) / n_runs, "count"),
        "eigen.resolved_factor_eigens.s": (busy("eigen.resolved_factor_eigens"), "s"),
        "eigen.solve_factor_eigens.calls": (calls("eigen.solve_factor_eigens"), "count"),
        "eigen.solve_factor_eigens.s": (busy("eigen.solve_factor_eigens"), "s"),
        "eigen.solve_factor_eigens.ndof_max": (
            float(max(sizes("eigen.solve_factor_eigens"), default=0)), "count"),
        "diagnostics.fourier_coeffs.s": (busy("diagnostics.fourier_coeffs"), "s"),
        "diagnostics.rate_class_report.s": (busy("diagnostics.rate_class_report"), "s"),
        "cli.main.s": (busy("cli.main"), "s"),
        "cli.main.self_s": (own("cli.main"), "s"),
    }
