"""Command-line driver: config parsing, run orchestration, persistence.

Config files are INI-style: `[section]` headers, `key = value` lines, `#`
comments.  Sections and keys are fixed by the schema below; unknown names,
and on the octagon backend the keys its run does not read, are rejected
with the offending line number so configs stay honest.

Exit codes: 0 success; 1 run/oracle/numerical failure (a machine-readable
`failure_reason = ...` line is emitted); 2 configuration errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

from .analysis import (
    MonitorEngine,
    bounded_monitor_check,
    check_fit_window,
    decay_fit,
    fiber_flatness_rates,
)
from .discretization import SpectralGrid
from .errors import ConfigInvalid, InsufficientSamples, KrflowError
from .flow import FlowOptions, FlowProblem
from .geometry import PSI0_PRESETS, GeometrySpec, SurrogateGeometry
from .octagon import OctagonGrid, run_base_flow
from .oracle import fold_oracle, run_battery, stationarity_oracle
from .persistence import (
    format_summary,
    read_monitor_csv,
    write_csv,
    write_monitor_csv,
    write_snapshot,
    write_summary,
)

BACKENDS = ("torus_surrogate", "bolza_octagon")

# The keys the octagon run reads; an octagon config that sets any other key
# is rejected rather than silently ignored.
_OCTAGON_KEYS = {("geometry", "base_backend"), ("geometry", "base_grid"),
                 ("flow", "t_end"), ("flow", "dt_sample"), ("output", "directory")}


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


# section -> key -> (converter, default)
_SCHEMA = {
    "geometry": {
        "base_backend": (str, "torus_surrogate"),
        "fiber_modulus": (_parse_complex, 1j),
        "twist_level": (float, 1.0),
        "twist_amplitude": (float, 0.02),
        "base_scale": (float, 1.0),
        "fiber_scale": (float, 1.0),
        "initial_potential": (str, "zero"),
        "initial_amplitude": (float, 0.05),
        "base_grid": (int, 32),
        "fiber_grid": (int, 32),
    },
    "flow": {
        "t_end": (float, 8.0),
        "dt_max": (float, 0.00625),
        "dt_sample": (float, 0.05),
        "positivity_threshold": (float, 1e-8),
        "max_halvings": (int, 40),
    },
    "analysis": {
        "fit_t_min": (float, 2.0),
        "fit_t_max": (float, 6.0),
        "fiber_stride": (int, 8),
    },
    "output": {
        "directory": (str, "krflow_out"),
        "snapshot_interval": (float, 2.0),
    },
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, pair):
        section, key = pair
        return self.values[section][key]

    def geometry_spec(self) -> GeometrySpec:
        g = self.values["geometry"]
        return GeometrySpec(
            base_level=g["twist_level"],
            base_ripple=g["twist_amplitude"],
            base_scale=g["base_scale"],
            fiber_scale=g["fiber_scale"],
            psi0_preset=g["initial_potential"],
            psi0_amplitude=g["initial_amplitude"],
        )

    def flow_options(self) -> FlowOptions:
        f = self.values["flow"]
        return FlowOptions(
            t_end=f["t_end"],
            dt_max=f["dt_max"],
            positivity_floor=f["positivity_threshold"],
            max_halvings=f["max_halvings"],
            sample_interval=f["dt_sample"],
        )

    def grid(self) -> SpectralGrid:
        g = self.values["geometry"]
        return SpectralGrid(g["base_grid"], g["fiber_grid"], g["fiber_modulus"])


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; raise ConfigInvalid with diagnostics."""
    values = {sec: dict((k, d) for k, (_, d) in keys.items())
              for sec, keys in _SCHEMA.items()}
    seen = {}  # (section, key) -> line number
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigInvalid(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigInvalid(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise ConfigInvalid(f"line {lineno}: duplicate key {key!r} in [{section}]")
        seen[(section, key)] = lineno
        converter, _ = _SCHEMA[section][key]
        try:
            values[section][key] = converter(value)
        except ValueError:
            raise ConfigInvalid(
                f"line {lineno}: cannot parse value {value!r} for key {key!r}"
            ) from None

    if values["geometry"]["base_backend"] == "bolza_octagon":
        for (section, key), lineno in seen.items():
            if (section, key) not in _OCTAGON_KEYS:
                raise ConfigInvalid(f"line {lineno}: key {key!r} in [{section}] is not "
                                    "read by base_backend = bolza_octagon")
    cfg = RunConfig(values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    g = cfg.values["geometry"]
    if g["base_backend"] not in BACKENDS:
        raise ConfigInvalid(
            f"base_backend must be one of {BACKENDS}, got {g['base_backend']!r}"
        )
    if g["fiber_modulus"].imag <= 0:
        raise ConfigInvalid(f"fiber_modulus needs Im > 0, got {g['fiber_modulus']}")
    if g["twist_amplitude"] < 0:
        raise ConfigInvalid(f"twist_amplitude must be >= 0, got {g['twist_amplitude']}")
    if g["initial_potential"] not in PSI0_PRESETS:
        raise ConfigInvalid(
            f"initial_potential must be one of {sorted(PSI0_PRESETS)}, "
            f"got {g['initial_potential']!r}"
        )
    a = cfg.values["analysis"]
    check_fit_window(a["fit_t_min"], a["fit_t_max"])
    if not (1 <= a["fiber_stride"] <= 64):
        raise ConfigInvalid(f"fiber_stride out of range: {a['fiber_stride']}")
    snap_int = cfg.values["output"]["snapshot_interval"]
    if not (math.isfinite(snap_int) and snap_int >= 0):
        raise ConfigInvalid(f"snapshot_interval must be finite and >= 0, got {snap_int!r}")
    # Constructing the validated objects surfaces any remaining range
    # errors (levels, scales, grid sizes, dt) with their own messages.
    cfg.geometry_spec()
    cfg.flow_options()
    if g["base_backend"] == "torus_surrogate":  # the octagon mesh checks n >= 48
        cfg.grid()


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config("")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


# -- command implementations ----------------------------------------------


def _emit(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _preflight(cfg: RunConfig, geometry, seed, density_scale: float = 1.0):
    """The oracle reports `simulate` and `oracle-check` both run: the
    discretization battery, then stationarity and the fold on `geometry`."""
    g = cfg.values["geometry"]
    reports = run_battery(g["base_grid"], g["fiber_grid"], g["fiber_modulus"],
                          seed=seed)
    reports.append(stationarity_oracle(geometry, density_scale=density_scale))
    reports.append(fold_oracle(geometry, seed=seed))
    return reports


def _record_invariants_ok(records) -> bool:
    normed = ("sup_phi", "sup_phidot", "s_max", "rm2_max", "grad2_max",
              "fiber_dev0", "fiber_dev1", "fiber_dev2", "delta_psi_residual",
              "distance_to_limit")
    for rec in records:
        row = rec.row()
        if not all(math.isfinite(v) for v in row):
            return False
        if any(getattr(rec, name) < 0.0 for name in normed):
            return False
    return True


def cmd_simulate(cfg: RunConfig, out_dir, quiet: bool = False, seed=None) -> int:
    if cfg[("geometry", "base_backend")] == "bolza_octagon":
        return run_octagon_simulation(cfg, out_dir, quiet=quiet)

    os.makedirs(out_dir, exist_ok=True)
    grid = cfg.grid()
    geometry = SurrogateGeometry(grid, cfg.geometry_spec())

    reports = _preflight(cfg, geometry, seed)
    for r in reports:
        _emit(quiet, r.line())
    write_csv(os.path.join(out_dir, "oracles.csv"),
              ["name", "passed", "measured", "tolerance", "detail"],
              ((r.name, r.passed, r.measured, r.tolerance, r.detail) for r in reports))
    if not all(r.passed for r in reports):
        print("failure_reason = OracleFailure: preflight oracle check failed")
        return 1

    problem = FlowProblem(geometry)
    engine = MonitorEngine(problem, n_sample_fibers=cfg[("analysis", "fiber_stride")])
    opts = cfg.flow_options()
    snap_int = cfg[("output", "snapshot_interval")]
    snap_times = []
    if snap_int > 0:
        k = 1
        while k * snap_int <= opts.t_end + 1e-9:
            snap_times.append(round(k * snap_int, 12))
            k += 1

    try:
        result = problem.run(opts, sampler=engine.record, snapshot_times=snap_times)
    except KrflowError as exc:
        print(f"failure_reason = {type(exc).__name__}: {exc}")
        return 1

    write_monitor_csv(os.path.join(out_dir, "monitors.csv"), result.records)
    for t, phi in sorted(result.snapshots.items()):
        name = f"snapshot_{int(round(t * 1000)):07d}.krfl"
        write_snapshot(os.path.join(out_dir, name), t, phi)

    invariants_ok = _record_invariants_ok(result.records)
    summary = _analysis_summary(cfg, result.records)
    summary["invariants_ok"] = invariants_ok
    summary["oracles_ok"] = True
    summary["total_steps"] = result.total_steps
    summary["final_t"] = float(result.final_t)
    write_summary(os.path.join(out_dir, "decay_summary.txt"), summary)
    _emit(quiet, f"wrote {len(result.records)} monitor rows, "
          f"{len(result.snapshots)} snapshots to {out_dir}")

    if not invariants_ok:
        print("failure_reason = MonitorInvariantViolation: "
              "non-finite or negative normed monitor entry")
        return 1
    return 0


def run_octagon_simulation(cfg: RunConfig, out_dir, quiet: bool = False) -> int:
    """`simulate` on the hyperbolic-base backend.

    The base-only run has no fiber, so it emits its own artifact pair
    (series CSV plus key = value summary) instead of the bundle monitor
    table.
    """
    os.makedirs(out_dir, exist_ok=True)
    grid = OctagonGrid(n=cfg[("geometry", "base_grid")])
    result = run_base_flow(grid, t_end=cfg[("flow", "t_end")],
                           sample_interval=cfg[("flow", "dt_sample")])

    write_csv(os.path.join(out_dir, "octagon_series.csv"), ["t", "sup_phi", "rel_dev"],
              zip(result.ts, result.sup_phi, result.rel_dev))
    write_summary(
        os.path.join(out_dir, "octagon_summary.txt"),
        {
            "mesh_points_per_axis": grid.n,
            "final_t": result.ts[-1] if result.ts else 0.0,
            "total_steps": result.total_steps,
            "rhs_evals": result.rhs_evals,
            "final_sup_phi": result.sup_phi[-1] if result.sup_phi else float("nan"),
            "final_rel_dev": result.final_rel_dev,
            "curvature_mean": result.curvature_mean,
            "curvature_spread": result.curvature_spread,
        },
    )
    _emit(quiet, f"octagon run: {result.total_steps} steps, final rel dev "
          f"{result.final_rel_dev:.3e}, curvature {result.curvature_mean:.6f} "
          f"+/- {result.curvature_spread:.2e}")
    return 0


def _analysis_summary(cfg: RunConfig, records) -> dict:
    ts = [r.t for r in records]
    sup = [r.sup_phi for r in records]
    t0 = cfg[("analysis", "fit_t_min")]
    t1 = cfg[("analysis", "fit_t_max")]
    out = {
        "n_records": len(records),
        "sup_phi_max": max(sup, default=float("nan")),
        "sup_phi_final": sup[-1] if sup else float("nan"),
    }
    try:
        fit = decay_fit(ts, sup, t0, t1)
        out.update(
            fit_window_t0=t0, fit_window_t1=t1,
            fit_constant=fit.constant, fit_log_slope=fit.log_slope,
            fit_ratio_min=fit.ratio_min, fit_ratio_max=fit.ratio_max,
            fit_passed=fit.passed,
        )
    except InsufficientSamples:
        out["fit_passed"] = "not_enough_samples"
    try:
        out["delta_psi_residual_max"] = fiber_flatness_rates(records, t0, t1)
    except InsufficientSamples:
        pass
    try:
        _, ok = bounded_monitor_check(records)
        out["bounded_monitors_ok"] = ok
    except InsufficientSamples:
        pass
    return out


def cmd_oracle_check(cfg: RunConfig, seed=None, omega_scale: float = 1.0) -> int:
    if cfg[("geometry", "base_backend")] == "bolza_octagon":
        raise ConfigInvalid("oracle-check runs the torus battery; "
                            "it has no checks for base_backend = bolza_octagon")
    grid = cfg.grid()
    geometry = SurrogateGeometry(grid, cfg.geometry_spec())
    reports = _preflight(cfg, geometry, seed, density_scale=omega_scale)
    for r in reports:
        print(r.line())
    if not all(r.passed for r in reports):
        print("failure_reason = OracleFailure: one or more oracle checks failed")
        return 1
    return 0


def cmd_fit(cfg: RunConfig, csv_path) -> int:
    records = read_monitor_csv(csv_path)
    summary = _analysis_summary(cfg, records)
    print(format_summary(summary), end="")
    return 0 if summary.get("fit_passed") is True else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="krflow",
        description="Collapsing metric-flow simulator on a torus bundle.",
    )
    parser.add_argument("--config", default=None, help="path to an INI config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized oracle test fields")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="run the flow and write monitor artifacts")
    ora = sub.add_parser("oracle-check", help="run the oracle battery standalone")
    ora.add_argument("--inject-omega-scale", type=float, default=1.0,
                     help="corrupt the volume density by this factor "
                          "(fault-injection check)")
    fit = sub.add_parser("fit", help="re-run decay fits on an existing CSV")
    fit.add_argument("csv", help="path to a monitors.csv")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            out_dir = args.out or cfg[("output", "directory")]
            return cmd_simulate(cfg, out_dir, quiet=args.quiet, seed=args.seed)
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg, seed=args.seed,
                                    omega_scale=args.inject_omega_scale)
        return cmd_fit(cfg, args.csv)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KrflowError as exc:
        print(f"failure_reason = {type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
