"""Span recording around krflow's public calls, and the per-layer metrics.

The benchmark never edits the package: `Tracer.install` replaces the public
functions and methods listed in `layer_patches` with wrappers that record a
span (id, name, start, end, parent, value) and restores the originals on
exit.  Names imported into `krflow.cli` are patched in that namespace,
because that is where `cmd_simulate` looks them up.  Spans stay in memory;
`layer_metrics` derives every per-layer figure from them, so the figures
and the written trace never disagree.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import time
import tracemalloc

MIB = float(1 << 20)

# span fields, in the order they are stored and written
FIELDS = ("id", "name", "start", "end", "parent", "value")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.record_alloc_peak = None  # bytes, tracemalloc peak of one record

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = time.perf_counter()
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, value=None, alloc=False):
        """`fn` recording one span per call; `value(args, result)` is stored
        on the span.  With `alloc`, the first call runs under tracemalloc."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            measure = alloc and self.record_alloc_peak is None
            if measure:
                tracemalloc.start()
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
                if measure:
                    self.record_alloc_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if value is not None:
                span[5] = value(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def install(self, patches):
        saved = []
        try:
            for owner, attr, name, value in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, value,
                                               alloc=name == "analysis.record"))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _rfft_bytes(args, out):
    return 8 * math.prod(args[0].shape) + out.nbytes


def _irfft_bytes(args, out):
    return args[1].nbytes + out.nbytes


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _steps(args, out):
    return out.total_steps


def layer_patches():
    """(owner, attribute, span name, value function) for each traced call."""
    from krflow import analysis, cli, discretization, flow, geometry, octagon

    return [
        (cli, "cmd_simulate", "cli.cmd_simulate", None),
        (cli, "run_battery", "oracle.run_battery", None),
        (cli, "stationarity_oracle", "oracle.stationarity_oracle", None),
        (geometry.SurrogateGeometry, "__init__", "geometry.SurrogateGeometry", None),
        (discretization.SpectralGrid, "rfft", "discretization.rfft", _rfft_bytes),
        (discretization.SpectralGrid, "irfft", "discretization.irfft", _irfft_bytes),
        (flow.FlowProblem, "run", "flow.run", _steps),
        (flow.FlowProblem, "rhs", "flow.rhs", None),
        (analysis.MonitorEngine, "record", "analysis.record", None),
        (cli, "decay_fit", "analysis.decay_fit", None),
        (cli, "fiber_flatness_rates", "analysis.fiber_flatness_rates", None),
        (cli, "bounded_monitor_check", "analysis.bounded_monitor_check", None),
        (cli, "write_monitor_csv", "persistence.write_monitor_csv", _file_bytes),
        (cli, "write_snapshot", "persistence.write_snapshot", _file_bytes),
        (cli, "write_summary", "persistence.write_summary", _file_bytes),
        (octagon.OctagonGrid, "__init__", "octagon.OctagonGrid", None),
        (octagon, "run_base_flow", "octagon.run_base_flow", _steps),
        (octagon.OctagonGrid, "ghost_fill", "octagon.ghost_fill", None),
        (octagon.OctagonGrid, "dd_bar", "octagon.dd_bar", None),
    ]


# per-layer metric name -> unit; the order is the order they are reported in
LAYER_UNITS = {
    "analysis.record_p50_ms": "ms",
    "analysis.records": "count",
    "analysis.record_fft_calls": "count",
    "analysis.record_peak_alloc_mb": "MB",
    "analysis.summary_s": "s",
    "persistence.write_s": "s",
    "persistence.write_mb": "MB",
    "cli.simulate_s": "s",
    "cli.self_s": "s",
    "oracle.battery_s": "s",
    "oracle.stationarity_s": "s",
    "flow.steps": "count",
    "flow.step_mean_ms": "ms",
    "flow.fft_per_step": "count",
    "flow.sample_rhs_calls": "count",
    "flow.sample_rhs_s": "s",
    "discretization.rfft_calls": "count",
    "discretization.irfft_calls": "count",
    "discretization.fft_s": "s",
    "discretization.fft_gb": "GB",
    "geometry.build_s": "s",
    "octagon.grid_build_s": "s",
    "octagon.steps": "count",
    "octagon.step_mean_ms": "ms",
    "octagon.ghost_fill_calls": "count",
    "octagon.ghost_fill_s": "s",
    "octagon.dd_bar_calls": "count",
    "octagon.dd_bar_s": "s",
    "trace.wall_s": "s",
}

OP_SPAN = "bench.op"


def layer_metrics(spans, record_alloc_peak, traced_wall_s):
    """Every per-layer metric, from the spans of one traced run.

    Work inside `bench.op` spans is reported per operation (run totals
    divided by the number of operations); set-up work is left out of those
    figures.  Build times are the median of one build, wherever it ran.
    """
    root = []
    for s in spans:
        root.append(root[s[4]] if s[4] >= 0 else s[0])
    ops = sum(1 for s in spans if s[1] == OP_SPAN)
    in_op = [s for s in spans if spans[root[s[0]]][1] == OP_SPAN]

    def dur(s):
        return s[3] - s[2]

    def named(*names):
        return [s for s in in_op if s[1] in names]

    def total(*names):
        return sum(dur(s) for s in named(*names))

    def with_parent(names, parent_name):
        return [s for s in named(*names) if spans[s[4]][1] == parent_name]

    def ratio(a, b):
        return a / b if b else 0.0

    def median_build(name):
        builds = [dur(s) for s in spans if s[1] == name]
        return statistics.median(builds) if builds else 0.0

    fft = ("discretization.rfft", "discretization.irfft")
    writes = ("persistence.write_monitor_csv", "persistence.write_snapshot",
              "persistence.write_summary")
    records = named("analysis.record")
    record_ffts = sum(1 for s in named(*fft) if spans[s[4]][1] == "analysis.record")
    flow_steps = sum(s[5] for s in named("flow.run"))
    sample_rhs = with_parent(("flow.rhs",), "flow.run")
    run_children = with_parent(("flow.rhs", "analysis.record"), "flow.run")
    simulate = named("cli.cmd_simulate")
    simulate_children = [s for s in in_op if spans[s[4]][1] == "cli.cmd_simulate"]
    oct_steps = sum(s[5] for s in named("octagon.run_base_flow"))

    m = {
        "analysis.record_p50_ms": 1e3 * statistics.median(dur(s) for s in records)
        if records else 0.0,
        "analysis.records": len(records) / ops,
        "analysis.record_fft_calls": ratio(record_ffts, len(records)),
        "analysis.record_peak_alloc_mb": (record_alloc_peak or 0) / MIB,
        "analysis.summary_s": total("analysis.decay_fit",
                                    "analysis.fiber_flatness_rates",
                                    "analysis.bounded_monitor_check") / ops,
        "persistence.write_s": total(*writes) / ops,
        "persistence.write_mb": sum(s[5] for s in named(*writes)) / MIB / ops,
        "cli.simulate_s": total("cli.cmd_simulate") / ops,
        "cli.self_s": (sum(dur(s) for s in simulate)
                       - sum(dur(s) for s in simulate_children)) / ops,
        "oracle.battery_s": total("oracle.run_battery") / ops,
        "oracle.stationarity_s": total("oracle.stationarity_oracle") / ops,
        "flow.steps": flow_steps / ops,
        "flow.step_mean_ms": 1e3 * ratio(
            total("flow.run") - sum(dur(s) for s in run_children), flow_steps),
        "flow.fft_per_step": ratio(len(with_parent(fft, "flow.run")), flow_steps),
        "flow.sample_rhs_calls": len(sample_rhs) / ops,
        "flow.sample_rhs_s": sum(dur(s) for s in sample_rhs) / ops,
        "discretization.rfft_calls": len(named("discretization.rfft")) / ops,
        "discretization.irfft_calls": len(named("discretization.irfft")) / ops,
        "discretization.fft_s": total(*fft) / ops,
        "discretization.fft_gb": sum(s[5] for s in named(*fft)) / 1e9 / ops,
        "geometry.build_s": median_build("geometry.SurrogateGeometry"),
        "octagon.grid_build_s": median_build("octagon.OctagonGrid"),
        "octagon.steps": oct_steps / ops,
        "octagon.step_mean_ms": 1e3 * ratio(total("octagon.run_base_flow"), oct_steps),
        "octagon.ghost_fill_calls": len(named("octagon.ghost_fill")) / ops,
        "octagon.ghost_fill_s": total("octagon.ghost_fill") / ops,
        "octagon.dd_bar_calls": len(named("octagon.dd_bar")) / ops,
        "octagon.dd_bar_s": total("octagon.dd_bar") / ops,
        "trace.wall_s": traced_wall_s,
    }
    return {name: m[name] for name in LAYER_UNITS}
