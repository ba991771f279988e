"""In-process tracing: wraps wbansim's public functions, from outside, in
the namespaces of ``wbansim.engine`` and ``wbansim.cli``.

Coarse calls (a CLI command, a run, one file read or write) become spans
with a parent, held in memory. Hot leaf calls (a routing decision, a reading
draw, a path-loss evaluation) are only counted and timed, aggregated into
the innermost open span. Every wrapped attribute is put back on exit, even
when the traced code raises.

The program is single-threaded and does no blocking I/O worth separating,
so no layer has wait time; the split below is busy time only.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from time import perf_counter_ns

import wbansim.cli
import wbansim.engine
from wbansim.protocols import RouteAction

# (module, attribute) -> layer name. Spans nest; leaves aggregate.
SPANS = {
    (wbansim.cli, "cmd_sweep"): "cli.cmd_sweep",
    (wbansim.cli, "cmd_compare"): "cli.cmd_compare",
    (wbansim.cli, "cmd_plots"): "cli.cmd_plots",
    (wbansim.cli, "load_config"): "config.load_config",
    (wbansim.cli, "run_simulation"): "engine.run_simulation",
    (wbansim.engine, "run_simulation"): "engine.run_simulation",
    (wbansim.cli, "write_metrics_csv"): "io.write_metrics_csv",
    (wbansim.cli, "read_metrics_csv"): "io.read_metrics_csv",
    (wbansim.cli, "emit_plot_series"): "io.emit_plot_series",
    (wbansim.cli, "write_summary_json"): "io.write_summary_json",
    (wbansim.cli, "read_summary_json"): "io.read_summary_json",
    (wbansim.cli, "compare_runs"): "io.compare_runs",
    (wbansim.cli, "write_comparison"): "io.write_comparison",
}
LEAVES = {
    (wbansim.cli, "validate_config"): "config.validate_config",
    (wbansim.engine, "validate_config"): "config.validate_config",
    (wbansim.engine, "build_topology"): "core.build_topology",
    (wbansim.engine, "path_loss"): "channel.path_loss",
    (wbansim.engine, "poisson_cdf_table"): "events.poisson_cdf_table",
    (wbansim.engine, "invert_poisson"): "events.invert_poisson",
    (wbansim.engine, "sample_reading"): "events.sample_reading",
    (wbansim.engine, "amhrp_select_forwarder"): "protocols.amhrp_select_forwarder",
    (wbansim.engine, "mattempt_build_hopcounts"): "protocols.mattempt_build_hopcounts",
    (wbansim.engine, "mattempt_next_hop"): "protocols.mattempt_next_hop",
    (wbansim.engine, "mattempt_temperature_step"): "protocols.mattempt_temperature_step",
    (wbansim.engine, "simple_select_forwarder"): "protocols.simple_select_forwarder",
    (wbansim.engine, "summarize_run"): "engine.summarize_run",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    leaves: dict[str, list[int]] = field(default_factory=dict)  # name -> [calls, ns]
    counters: dict[str, int] = field(default_factory=dict)
    prev_hops: dict | None = None  # last hop-count table built in this span

    def bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start_ns": self.start_ns, "end_ns": self.end_ns,
                "leaves": self.leaves, "counters": self.counters}


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# Observers run after the clock stops: (enclosing or own span, args, result).
# Counter keys are metric names, summed over all spans.

def _observe_write_csv(span, args, out):
    span.bump("io.write_metrics_csv.bytes", _file_bytes([args[1]]))


def _observe_read_csv(span, args, out):
    span.bump("io.read_metrics_csv.bytes", _file_bytes([args[0]]))


def _observe_plots(span, args, out):
    span.bump("io.emit_plot_series.bytes", _file_bytes(out))


def _observe_run(span, args, out):
    span.bump("engine.rounds", len(out.metrics))


def _observe_decision(span, args, out):
    span.bump("decisions")
    if out.action is RouteAction.HOLD:
        span.bump("holds")


def _observe_hopcounts(span, args, out):
    """Compare each rebuild with the previous one of the same run."""
    if span.prev_hops is not None:
        span.bump("hopcounts_compared")
        if out.hop_counts == span.prev_hops:
            span.bump("hopcounts_unchanged")
    span.prev_hops = out.hop_counts


OBSERVERS = {
    "io.write_metrics_csv": _observe_write_csv,
    "io.read_metrics_csv": _observe_read_csv,
    "io.emit_plot_series": _observe_plots,
    "engine.run_simulation": _observe_run,
    "protocols.amhrp_select_forwarder": _observe_decision,
    "protocols.mattempt_next_hop": _observe_decision,
    "protocols.mattempt_build_hopcounts": _observe_hopcounts,
}


class Tracer:
    """Context manager: wraps on entry, restores on exit.

    Observers run after the layer's clock stops, so their cost is not
    charged to the layer; like the wrappers' own cost, it lands in the
    enclosing span's self time. ``trace.overhead_s`` measures the total."""

    def __init__(self):
        self.root = Span(0, "bench", None, perf_counter_ns())
        self.stack = [self.root]
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, name):
        stack, spans, ids = self.stack, self.spans, self._ids
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            span = Span(next(ids), name, stack[-1].id, perf_counter_ns())
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end_ns = perf_counter_ns()
                stack.pop()
                spans.append(span)
            if observe is not None:
                observe(span, args, out)
            return out
        return wrapper

    def _leaf_wrapper(self, fn, name):
        stack, observe = self.stack, OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            out = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - t0
            cell = stack[-1].leaves.get(name)
            if cell is None:
                cell = stack[-1].leaves[name] = [0, 0]
            cell[0] += 1
            cell[1] += elapsed
            if observe is not None:
                observe(stack[-1], args, out)
            return out
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
                for (module, attr), name in table.items():
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, make(original, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        self.root.end_ns = perf_counter_ns()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reduction to per-layer metrics ----------------------------------------

    def all_spans(self) -> list[Span]:
        return [self.root] + self.spans

    def layer_metrics(self) -> dict[str, float]:
        """Sums over every span: ``<layer>.calls``, ``<layer>.s``, the
        counters, and the derived self times and ratios."""
        calls: dict[str, int] = {}
        ns: dict[str, int] = {}
        counters: dict[str, int] = {}
        child_ns: dict[int, int] = {}  # span id -> time in traced children
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            ns[span.name] = ns.get(span.name, 0) + span.end_ns - span.start_ns
            child_ns[span.parent] = child_ns.get(span.parent, 0) \
                + span.end_ns - span.start_ns
        for span in self.all_spans():
            for name, (c, t) in span.leaves.items():
                calls[name] = calls.get(name, 0) + c
                ns[name] = ns.get(name, 0) + t
                child_ns[span.id] = child_ns.get(span.id, 0) + t
            for key, n in span.counters.items():
                counters[key] = counters.get(key, 0) + n

        def self_s(name: str) -> float:
            return sum(s.end_ns - s.start_ns - child_ns.get(s.id, 0)
                       for s in self.spans if s.name == name) / 1e9

        def ratio(part: str, whole: str) -> float:
            return counters.get(part, 0) / counters[whole] if counters.get(whole) else 0.0

        out: dict[str, float] = {}
        for name in sorted(set(SPANS.values()) | set(LEAVES.values())):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = ns.get(name, 0) / 1e9
        for key in ("io.write_metrics_csv.bytes", "io.read_metrics_csv.bytes",
                    "io.emit_plot_series.bytes", "engine.rounds"):
            out[key] = counters.get(key, 0)
        out["engine.self_s"] = self_s("engine.run_simulation")
        out["cli.plots.self_s"] = self_s("cli.cmd_plots")
        out["protocols.mattempt_build_hopcounts.unchanged_ratio"] = \
            ratio("hopcounts_unchanged", "hopcounts_compared")
        out["protocols.hold_ratio"] = ratio("holds", "decisions")
        return out
