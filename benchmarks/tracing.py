"""Spans around idstat's public entry points, recorded from outside the package.

``Tracer.installed()`` rebinds every entry point in ``ENTRY_POINTS`` on its
module to a wrapper that records a span: name, start, end, the enclosing
span and the id of the op that caused it, plus counts computed from the
call's arguments and result.  Code inside idstat that reaches these
functions through the module (the CLI calling ``balance.relax``, ``relax``
calling ``packet_entropy`` by global name) goes through the wrapper as
well.  Leaving the context restores the originals, so untraced passes run
the unmodified program.  Per-element helpers that an op calls 10^4-10^5
times (``permutation_parity``, overlap providers) are deliberately not
wrapped.
"""

from __future__ import annotations

import importlib
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

ENTRY_POINTS = {
    "balance": ("relax", "packet_entropy", "total_quanta", "scramble",
                "standard_channels", "stationary_population"),
    "symmetry": ("permanent", "symmetrize", "antisymmetrize", "scalar_product"),
    "distributions": ("max_entropy_on_levels", "solve_mu_on_levels", "occupancy"),
    "counting": ("oracle_count", "entropy"),
    "wavepacket": ("evaluate", "norm"),
    "spinstat": ("exchange_phase",),
    "cli": ("run",),
}

PERMANENT_SIZES = (12, 14, 16, 18)


def _relax_counts(args, kwargs, result, exc):
    # NonConvergence carries the partial result, sweeps included
    partial = result if exc is None else getattr(exc, "result", None)
    return {"sweeps": partial.sweeps if partial is not None else 0,
            "converged": exc is None}


def _projector_counts(args, kwargs, result, exc):
    state = args[0]
    return {"terms_in": len(state.terms) * math.factorial(state.n),
            "terms_out": len(result.terms) if exc is None else 0}


COUNTERS = {
    "balance.relax": _relax_counts,
    "symmetry.permanent": lambda args, kwargs, result, exc: {"n": len(args[0])},
    "symmetry.symmetrize": _projector_counts,
    "symmetry.antisymmetrize": _projector_counts,
    "symmetry.scalar_product": lambda args, kwargs, result, exc:
        {"term_pairs": len(args[0].terms) * len(args[1].terms)},
    "distributions.max_entropy_on_levels": lambda args, kwargs, result, exc:
        {"iterations": result.iterations if exc is None else 0},
    "cli.run": lambda args, kwargs, result, exc:
        {"out_bytes": len(args[1].getvalue().encode())},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    counts: dict | None


class Tracer:
    """Records spans in memory while installed; ``take()`` hands them over."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op, None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = perf_counter()
                self._stack.pop()
                if counter:
                    span.counts = counter(args, kwargs, None, exc)
                raise
            span.end = perf_counter()
            self._stack.pop()
            if counter:
                span.counts = counter(args, kwargs, result, None)
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, names in ENTRY_POINTS.items():
                module = importlib.import_module(f"idstat.{module_name}")
                for name in names:
                    fn = getattr(module, name)
                    originals.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{module_name}.{name}", fn))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "balance.relax.self_s": "s",
    "balance.relax.sweeps": "count",
    "balance.relax.sweep_ms": "ms",
    "balance.relax.converged_frac": "ratio",
    "balance.packet_entropy.self_s": "s",
    "balance.total_quanta.self_s": "s",
    "balance.scramble.self_s": "s",
    "balance.standard_channels.self_s": "s",
    "balance.stationary_population.self_s": "s",
    "symmetry.permanent.self_s": "s",
    "symmetry.permanent.calls": "count",
    **{f"symmetry.permanent.n{n}_ms": "ms" for n in PERMANENT_SIZES},
    "symmetry.symmetrize.self_s": "s",
    "symmetry.symmetrize.terms_out": "count",
    "symmetry.symmetrize.kept_frac": "ratio",
    "symmetry.antisymmetrize.self_s": "s",
    "symmetry.antisymmetrize.terms_out": "count",
    "symmetry.antisymmetrize.kept_frac": "ratio",
    "symmetry.scalar_product.self_s": "s",
    "symmetry.scalar_product.term_pairs": "count",
    "distributions.max_entropy_on_levels.self_s": "s",
    "distributions.max_entropy_on_levels.iterations": "count",
    "distributions.solve_mu_on_levels.self_s": "s",
    "distributions.solve_mu_on_levels.calls": "count",
    "distributions.occupancy.self_s": "s",
    "counting.oracle_count.self_s": "s",
    "counting.entropy.self_s": "s",
    "wavepacket.evaluate.self_s": "s",
    "wavepacket.norm.self_s": "s",
    "spinstat.exchange_phase.calls": "count",
    "cli.run.self_s": "s",
    "cli.run.out_bytes": "bytes",
}


def _ratio(num: float, den: float) -> float:
    # a layer the pass never entered reports 0
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every metric in LAYER_METRICS for one pass, from that pass's spans.

    A span's self time is its duration minus its children's durations;
    spans nest strictly because the benchmark runs one op at a time.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    perm_ms = defaultdict(list)
    for span, inner in zip(spans, child):
        duration = span.end - span.start
        self_s[span.name] += duration - inner
        total_s[span.name] += duration
        calls[span.name] += 1
        for key, value in (span.counts or {}).items():
            counts[f"{span.name}.{key}"] += value
        if span.name == "symmetry.permanent":
            perm_ms[span.counts["n"]].append(duration * 1e3)

    metrics = {}
    for name in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            metrics[name] = self_s[layer]
        elif stat == "calls":
            metrics[name] = float(calls[layer])
        else:
            metrics[name] = counts.get(name, 0.0)
    metrics["balance.relax.sweep_ms"] = 1e3 * _ratio(
        total_s["balance.relax"], counts["balance.relax.sweeps"])
    metrics["balance.relax.converged_frac"] = _ratio(
        counts["balance.relax.converged"], calls["balance.relax"])
    for n in PERMANENT_SIZES:
        metrics[f"symmetry.permanent.n{n}_ms"] = (
            statistics.fmean(perm_ms[n]) if perm_ms[n] else 0.0)
    for fn in ("symmetrize", "antisymmetrize"):
        metrics[f"symmetry.{fn}.kept_frac"] = _ratio(
            counts[f"symmetry.{fn}.terms_out"], counts[f"symmetry.{fn}.terms_in"])
    return metrics
