"""Spans recorded at the module boundaries of ``mondrian``.

A traced run replaces the public functions listed in ``WRAPPED`` at the
module attribute where their caller looks them up (``mondrian.cli.solve_m``,
not ``mondrian.tiling.solve_m``), so a call is recorded exactly where it
crosses from one layer into the next.  Spans live in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


def _nodes(args, result) -> dict[str, int]:
    return {
        "nodes": result.nodes_searched,
        "filter_excluded": int(result.verdict.value == "FilterExcluded"),
    }


def _integers(args, result) -> dict[str, int]:
    return {"integers": args[0] - 2}  # the census covers [3, x]


# (module the caller lives in, attribute it looks up, span name, counter).
# The span name is the layer and function the metric is reported under.
WRAPPED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("mondrian.cli", "solve_m", "tiling.solve_m", None),
    ("mondrian.cli", "check_perfect", "tiling.check_perfect", _nodes),
    ("mondrian.cli", "verify_tiling", "tiling.verify_tiling", None),
    ("mondrian.cli", "build_factor_table", "numtheory.build_factor_table", None),
    ("mondrian.cli", "run_chain_census", "census.run_chain_census", _integers),
    ("mondrian.cli", "rough_count", "numtheory.rough_count", None),
    ("mondrian.census", "rough_count", "numtheory.rough_count", None),
    ("mondrian.census", "census_excess_tau", "numtheory.census_excess_tau", None),
    ("mondrian.tiling", "witness_report", "numtheory.witness_report", None),
    ("mondrian.tiling", "verify_tiling", "tiling.verify_tiling", None),
)

ROOT = "cli"  # the span the benchmark opens around each mondrian.cli.main call


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``install`` patches ``WRAPPED`` until ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._op = 0
        self._patched: list[tuple[Any, str, Any]] = []

    def open(self, name: str, op: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if op is not None:
            self._op = op
        span = Span(len(self.spans), name, self._op, parent.id if parent else None, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in ``WRAPPED``; a name the package lacks is noted in ``missing``."""
        for module_name, attr, name, counter in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus its children's.

    The tracer runs on one thread and closes spans in stack order, so the
    children of a span are disjoint and lie inside it.
    """
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_s.get(s.id, 0.0) for s in spans}


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    selfs = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for s in spans:
        t = out.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.total_s += s.duration
        t.self_s += selfs[s.id]
        for k, v in s.counts.items():
            t.counts[k] = t.counts.get(k, 0) + v
    return out


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """The additive quantities behind the per-layer metrics, summed over ``spans``.

    Sums of these over any set of ops give ``layer_metrics`` its input.
    """
    t = totals_by_name(spans)

    def get(name: str) -> LayerTotals:
        return t.get(name, LayerTotals())

    solve = get("tiling.solve_m")
    perfect = get("tiling.check_perfect")
    census = get("census.run_chain_census")
    witness = get("numtheory.witness_report")
    return {
        "tiling.solve_m.self_s": solve.self_s,
        "tiling.solve_m.calls": solve.calls,
        "tiling.verify_tiling.s": get("tiling.verify_tiling").total_s,
        "tiling.check_perfect.self_s": perfect.self_s,
        "tiling.check_perfect.calls": perfect.calls,
        "tiling.check_perfect.nodes": perfect.counts.get("nodes", 0),
        "tiling.check_perfect.filter_excluded": perfect.counts.get("filter_excluded", 0),
        "numtheory.witness_report.s": witness.total_s,
        "numtheory.witness_report.calls": witness.calls,
        "numtheory.build_factor_table.s": get("numtheory.build_factor_table").total_s,
        "numtheory.census_excess_tau.s": get("numtheory.census_excess_tau").total_s,
        "numtheory.rough_count.s": get("numtheory.rough_count").total_s,
        "census.run_chain_census.self_s": census.self_s,
        "census.integers": census.counts.get("integers", 0),
        "cli.self_s": get(ROOT).self_s,
    }


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics by their benchmark names, from summed ``layer_totals``."""
    metrics = dict(totals)
    calls = metrics.pop("tiling.check_perfect.calls")
    excluded = metrics.pop("tiling.check_perfect.filter_excluded")
    integers = metrics.pop("census.integers")
    nodes = totals["tiling.check_perfect.nodes"]
    perfect_s = totals["tiling.check_perfect.self_s"]
    census_s = totals["census.run_chain_census.self_s"]
    metrics["tiling.check_perfect.ns_per_node"] = perfect_s * 1e9 / nodes if nodes else 0.0
    metrics["numtheory.filter_excluded_ratio"] = excluded / calls if calls else 0.0
    metrics["census.integers_per_s"] = integers / census_s if census_s > 0 else 0.0
    return metrics
