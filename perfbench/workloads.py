"""The benchmark's workloads: inputs made from a seed, one timed operation,
and checks of the operation's outputs.

Each workload has four methods.  `setup()` builds the operation's inputs
and is timed as set-up; `operation(inputs)` is the work a user waits for
and is timed as one operation; `digest(output)` reduces an output to a
small value that repeated operations must reproduce exactly;
`check(inputs, output)` returns the list of failed checks (empty when the
output is right).  Checks compare against computations made apart from the
timed operation, or against properties the method must have, never against
stored output.

Every call into krflow that the tracer wraps is looked up on its module or
class at call time (`cli.cmd_simulate`, `octagon.run_base_flow`), so the
traced run sees it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re

import numpy as np

from krflow import analysis, cli, flow, octagon, persistence
from krflow.discretization import SpectralGrid
from krflow.flow import FlowOptions, FlowProblem
from krflow.geometry import GeometrySpec, SurrogateGeometry


def _override(text, section, key, value):
    """Replace `key = ...` inside `[section]` of INI text; exactly one match."""
    pattern = re.compile(
        rf"(^\[{section}\][^\[]*?^{key}\s*=\s*)[^\n#]*", re.MULTILINE | re.DOTALL)
    out, n = pattern.subn(lambda m: m.group(1) + value, text)
    if n != 1:
        raise ValueError(f"[{section}] {key} not found exactly once in the config")
    return out


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Generic16:
    """The shipped generic config through `cli.cmd_simulate`, shortened.

    The geometry, the initial potential, `dt_max` and the fit window are
    the shipped ones; `t_end` drops from 8 to 6 and `dt_sample` rises from
    0.1 to 0.2, which keeps 21 records in the [2, 6] fit window (decay_fit
    needs 20) at 30 records per run instead of 80.
    """

    name = "generic16"
    T_END = 6.0
    DT_SAMPLE = 0.2
    # Engine vs generic path, relative.  At 16^4 and t = 6 the two agree to
    # 1.4e-8 (grad2_max); perturbing phi by 1e-15 relative moves the
    # engine's grad2_max by 1.1e-7, so 1e-10 is below the monitors' own
    # rounding sensitivity this late in a run.  3e-7 still rejects a 1e-6
    # error.
    GENERIC_RTOL = 3e-7

    def __init__(self, root, out_dir, seed, tiny=False):
        self.config_path = os.path.join(root, "configs", "generic.ini")
        self.out_dir = os.path.join(out_dir, self.name)
        self.seed = seed
        self.tiny = tiny

    def setup(self):
        with open(self.config_path) as fh:
            text = fh.read()
        text = _override(text, "flow", "t_end", repr(self.T_END))
        text = _override(text, "flow", "dt_sample", repr(self.DT_SAMPLE))
        if self.tiny:
            text = _override(text, "geometry", "base_grid", "8")
            text = _override(text, "geometry", "fiber_grid", "8")
        return cli.parse_config(text)

    def operation(self, cfg):
        return cli.cmd_simulate(cfg, self.out_dir, quiet=True, seed=self.seed)

    def read_outputs(self, cfg):
        """The run's artifacts, parsed: oracle rows, records, last snapshot."""
        with open(os.path.join(self.out_dir, "oracles.csv"), newline="") as fh:
            oracle_rows = list(csv.DictReader(fh))
        records = persistence.read_monitor_csv(
            os.path.join(self.out_dir, "monitors.csv"))
        last = f"snapshot_{int(round(self.T_END * 1000)):07d}.krfl"
        snap = persistence.read_snapshot(os.path.join(self.out_dir, last))
        return {"oracle_rows": oracle_rows, "records": records, "snapshot": snap}

    def digest(self, rc):
        return rc

    def check(self, cfg, rc):
        """Checks the files of the last operation; the run's digests show
        that every operation returned the same code."""
        if rc != 0:
            return [f"cmd_simulate returned {rc}"]
        return self.check_outputs(cfg, self.read_outputs(cfg))

    def check_outputs(self, cfg, out):
        bad = []
        bad += [f"oracle row failed: {r['name']}" for r in out["oracle_rows"]
                if r["passed"] != "True"]
        records = out["records"]
        n = int(round(self.T_END / self.DT_SAMPLE))
        ts = [r.t for r in records]
        if len(records) != n or any(abs(t - self.DT_SAMPLE * (k + 1)) > 1e-9
                                    for k, t in enumerate(ts)):
            bad.append(f"expected {n} records at t = {self.DT_SAMPLE}k, got {ts}")
            return bad
        if not all(math.isfinite(v) for r in records for v in r.row()):
            bad.append("non-finite monitor value")
        fit = analysis.decay_fit(ts, [r.sup_phi for r in records], 2.0, 6.0)
        if not fit.passed:
            bad.append(f"sup_phi misses the (1+t)e^-t envelope on [2, 6]: "
                       f"ratios {fit.ratio_min:.3g}..{fit.ratio_max:.3g}")
        if not all(0.5 < r.rel_eig_min and r.rel_eig_max < 2.0 for r in records):
            bad.append("relative eigenvalues leave (0.5, 2)")
        worst = max(r.delta_psi_residual for r in records)
        if not worst < 1e-8:
            bad.append(f"delta_psi_residual {worst:.3e} >= 1e-8")
        if not analysis.bounded_monitor_check(records)[1]:
            bad.append("bounded_monitor_check failed")
        bad += self._check_snapshot(cfg, out["snapshot"], records[-1])
        return bad

    def _check_snapshot(self, cfg, snap, row):
        """Rebuild the last row's curvature monitors from the snapshot by the
        generic slow path, which shares no derivative code with the engine."""
        bad = []
        if abs(snap.t - row.t) > 1e-12:
            return [f"snapshot t {snap.t} != last record t {row.t}"]
        sup = float(np.max(np.abs(snap.phi)))
        if sup != row.sup_phi:
            bad.append(f"snapshot sup|phi| {sup!r} != CSV sup_phi {row.sup_phi!r}")
        grid = cfg.grid()
        geom = SurrogateGeometry(grid, cfg.geometry_spec())
        problem = FlowProblem(geom)
        eng = analysis.MonitorEngine(problem)
        g = problem.metric(snap.phi, snap.t)
        s_field, _ = analysis.christoffel_deviation(grid, g, geom.gamma_b)
        generic = {
            "s_max": float(np.max(s_field)),
            "rm2_max": float(np.max(analysis.curvature_squared(grid, g))),
            "grad2_max": float(np.max(analysis.covariant_hessian_squared(
                grid, g, geom.gamma_b, eng.dgamma_h, eng.dgamma_a))),
        }
        for key, value in generic.items():
            gap = _rel(getattr(row, key), value)
            if not gap < self.GENERIC_RTOL:
                bad.append(f"{key} at t = {row.t}: engine vs generic path "
                           f"relative gap {gap:.3e} >= {self.GENERIC_RTOL}")
        return bad


class Separable32:
    """`FlowProblem.run` at 32^4 from seeded separable data, no sampler.

    psi_0 = psi_b(base) + psi_f(fiber), each a sum of six cosine modes
    with wavenumbers, phases and amplitudes drawn from the seed.  A mode's
    Hessian is at most 0.4/6, so a factor's is at most 0.4 and the initial
    form stays positive.  The 2D reduced integrator
    `flow.product_reduced_run`, run at a 25 times smaller step, is the
    reference.
    """

    name = "separable32"
    T_END = 0.125
    REF_DT = 2.5e-4
    MODES = 6
    # Bound on sup|phi - reference| in units of dt_max^2.  At 16^4, seeds
    # 1-300 give 0.18-0.72 dt_max^2; with the BDF2 extrapolation cut to
    # first order, seeds 1-140 give 1.15-4.99.  Two modes per factor
    # instead of six spread both ranges until they overlapped.
    GAP_PER_DT2 = 0.9

    def __init__(self, root, out_dir, seed, tiny=False):
        self.n = 8 if tiny else 32
        self.seed = seed
        self.opts = FlowOptions(t_end=self.T_END, sample_interval=self.T_END)

    def _factor(self, rng, x):
        out = np.zeros((x.size, x.size))
        for _ in range(self.MODES):
            kx = ky = 0
            while kx == 0 and ky == 0:
                kx, ky = (int(k) for k in rng.integers(-3, 4, size=2))
            amp = (rng.uniform(0.5, 1.0) * 0.4 / self.MODES
                   / (math.pi ** 2 * (kx * kx + ky * ky)))
            phase = rng.uniform(0.0, 2.0 * math.pi)
            out += amp * np.cos(2.0 * math.pi * (kx * x[:, None] + ky * x[None, :])
                                + phase)
        return out

    def setup(self):
        rng = np.random.default_rng(self.seed)
        x = np.arange(self.n) / self.n
        psi_b, psi_f = self._factor(rng, x), self._factor(rng, x)
        psi0 = psi_b[:, :, None, None] + psi_f[None, None, :, :]
        geom = SurrogateGeometry(SpectralGrid(self.n, self.n), GeometrySpec(),
                                 psi0=psi0)
        return {"psi_b": psi_b, "psi_f": psi_f, "problem": FlowProblem(geom)}

    def operation(self, inputs):
        return inputs["problem"].run(self.opts)

    def digest(self, res):
        return res.final_t, res.total_steps, hashlib.sha256(res.final_phi).hexdigest()

    def check(self, inputs, res):
        ref = flow.product_reduced_run(inputs["problem"].geometry, inputs["psi_b"],
                                       inputs["psi_f"], self.T_END, dt=self.REF_DT)
        return self.check_result(res, ref)

    def check_result(self, res, ref):
        bad = []
        if res.final_t != self.T_END:
            bad.append(f"final_t {res.final_t!r} != t_end {self.T_END!r}")
        gap = float(np.max(np.abs(res.final_phi - ref)))
        bound = self.GAP_PER_DT2 * self.opts.dt_max ** 2
        if not gap <= bound:
            bad.append(f"sup|phi - reduced reference| {gap:.3e} > {bound:.3e} "
                       f"({self.GAP_PER_DT2} dt_max^2)")
        return bad


class Octagon64:
    """`run_base_flow` on `OctagonGrid(64)` from the invariant bump to t = 3.

    The grid and the bump are the inputs; they do not depend on the seed.
    By t = 3 the curvature spread is about 2e-4, inside criterion 9's 1e-3.
    """

    name = "octagon64"
    T_END = 3.0
    TOL = 1e-3

    def __init__(self, root, out_dir, seed, tiny=False):
        self.n = 48 if tiny else 64

    def setup(self):
        grid = octagon.OctagonGrid(self.n)
        return grid, grid.invariant_bump()

    def operation(self, inputs):
        grid, phi0 = inputs
        return octagon.run_base_flow(grid, phi0=phi0, t_end=self.T_END)

    def digest(self, res):
        return (res.total_steps, tuple(res.rel_dev), res.curvature_mean,
                res.curvature_spread)

    def check(self, inputs, res):
        return self.check_result(res)

    def check_result(self, res):
        bad = []
        if not (res.ts and abs(res.ts[-1] - self.T_END) < 1e-12):
            bad.append(f"last sample at {res.ts[-1:]} instead of t = {self.T_END}")
        if not res.final_rel_dev <= self.TOL:
            bad.append(f"final relative deviation {res.final_rel_dev:.3e} > {self.TOL}")
        if not abs(res.curvature_mean + 2.0) <= self.TOL:
            bad.append(f"curvature mean {res.curvature_mean!r} not within "
                       f"{self.TOL} of -2")
        if not res.curvature_spread <= self.TOL:
            bad.append(f"curvature spread {res.curvature_spread:.3e} > {self.TOL}")
        return bad


WORKLOADS = {w.name: w for w in (Generic16, Separable32, Octagon64)}
