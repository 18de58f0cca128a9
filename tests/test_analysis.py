import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from krflow import analysis, discretization, flow, oracle
from krflow.analysis import (
    BOUNDED_MONITOR_FIELDS,
    MonitorEngine,
    MonitorRecord,
    bounded_monitor_check,
    decay_fit,
    drift_stats,
    fiber_flatness_rates,
    log_slope_fit,
)
from krflow.discretization import HermitianField, SpectralGrid
from krflow.errors import ConfigInvalid, InsufficientSamples
from krflow.flow import FlowOptions, FlowProblem
from krflow.geometry import GeometrySpec, SurrogateGeometry
from krflow.oracle import christoffel_deviation, covariant_hessian_squared, curvature_squared


def make_problem(n=16, tau=1j, **kw):
    grid = SpectralGrid(n, n, tau)
    geom = SurrogateGeometry(grid, GeometrySpec(**kw))
    return grid, geom, FlowProblem(geom)


def rel_gap(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def blank_record(t, **kw):
    vals = dict.fromkeys(MonitorRecord.field_names(), 0.0)
    vals.update(t=t, vol_ratio_min=1.0, vol_ratio_max=1.0,
                rel_eig_min=1.0, rel_eig_max=1.0, trace_min=2.0, trace_max=2.0)
    vals.update(kw)
    return MonitorRecord(**vals)


def test_reference_code_lives_in_oracle():
    for name in ("fft_c", "ifft_c", "deriv", "sym_full"):
        assert not hasattr(SpectralGrid, name), name
    assert not hasattr(flow, "rk4_step") and not hasattr(flow, "_Reduced2D")
    assert not hasattr(SurrogateGeometry, "hat") and callable(oracle.hat)
    # perfbench still looks these up on their old modules.
    for module, name in ((analysis, "christoffel_deviation"), (analysis, "curvature_squared"),
                         (analysis, "covariant_hessian_squared"), (flow, "product_reduced_run")):
        assert getattr(module, name) is getattr(oracle, name), name


def test_index_tables_read_the_sorted_derivative_multisets():
    # Mixed partials commute, so each slab component reads the field of its
    # sorted (holo, anti) index multiset.  The tables hold one entry per
    # symmetric slot group, indexed by its number of fiber slots, and every
    # stacked field is read.
    fields = analysis._FIELDS

    def field(holo, anti):
        return fields.index((tuple(sorted(holo)), tuple(sorted(anti))))

    assert len(set(fields)) == len(fields) == 23
    tables = (analysis._D, analysis._DD, analysis._T, analysis._M2)
    assert [t.shape for t in tables] == [(3, 2), (3, 3), (4, 2), (2, 3, 2)]
    assert sum(t.size for t in tables) == 35
    for m, i, q in np.ndindex(2, 2, 2):
        assert analysis._D[m + i, q] == field((m, i), (q,))
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        assert analysis._DD[i + k, j + l] == field((k, i), (l, j))
        assert analysis._T[i + j + k, l] == field((i, j, k), (l,))
        assert analysis._M2[i, j + k, l] == field((j, k), (i, l))
    assert set(np.concatenate([t.ravel() for t in tables]).tolist()) == set(range(23))


def test_stack_rows_store_each_conjugate_pair_once():
    # Of the 23 fields, the three (2, 2) fields with holo = anti are real
    # (one row) and the three with holo after anti read their partner's rows
    # with Im negated: 37 real rows.
    fields, re, im, sign = analysis._FIELDS, analysis._RE, analysis._IM, analysis._IM_SIGN
    assert analysis._ROWS == 37
    own = sorted(np.concatenate([re[sign >= 0], im[sign > 0]]).tolist())
    assert own == list(range(37))
    for index, (holo, anti) in enumerate(fields):
        if len(holo) == len(anti) == 2 and holo != anti:
            partner = fields.index((anti, holo))
            assert (sign[index] == -1.0) == (holo > anti)
            assert (re[index], im[index]) == (re[partner], im[partner])
        else:
            assert sign[index] == (0.0 if holo == anti else 1.0)


def test_slot_groups_move_into_the_frame_as_the_full_tensor():
    # A tensor symmetric within each slot group, moved into the frame slot by
    # slot on all 2**rank components, equals its independent components
    # moved by the groups' closed forms, and has the same sum of squares.
    rng = np.random.default_rng(0)
    e00, e11 = rng.random((2, 5)) + 0.5
    e10 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e = np.array([[e00, 0.0 * e00], [e10, e11]])  # E[a, b] at each of 5 points
    for groups in (("hh", "a"), ("hh", "aa"), ("hhh", "a"), ("a", "hh", "a")):
        shape = [len(g) + 1 for g in groups] + [5]
        ind = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        slots = "".join(groups)
        bounds = np.cumsum([0] + [len(g) for g in groups])

        def counts(idx):
            return tuple(sum(idx[a:b]) for a, b in zip(bounds, bounds[1:]))

        full = np.empty((2,) * len(slots) + (5,), dtype=complex)
        for idx in np.ndindex(full.shape[:-1]):
            full[idx] = ind[counts(idx)]
        for axis, slot in enumerate(slots):
            moved = np.einsum("abp,b...p->a...p", e if slot == "h" else np.conj(e),
                              np.moveaxis(full, axis, 0))
            full = np.moveaxis(moved, 0, axis)
        analysis._to_frame(ind, (e00, e10, e11), "".join(g[0] for g in groups))
        for idx in np.ndindex(full.shape[:-1]):
            assert np.allclose(full[idx], ind[counts(idx)], rtol=1e-13, atol=0.0)
        sq = np.sum(np.abs(full.reshape(-1, 5)) ** 2, axis=0)
        assert np.allclose(analysis._sum_sq(ind, len(groups)), sq, rtol=1e-13, atol=0.0)


def test_symbol_walk_forms_each_field_as_its_product():
    # The depth-first walk over shared prefixes gives every field with rows
    # of its own once, each symbol bit-identical to math.prod of its
    # factors, holo's then anti's.
    grid, _, prob = make_problem(8)
    sh = grid.sym_half
    seen = []
    for index, parity, a, b in MonitorEngine(prob)._symbols():
        holo, anti = analysis._FIELDS[index]
        sym = math.prod([sh[("holo", "bf"[m])] for m in holo]
                        + [sh[("anti", "bf"[q])] for q in anti])
        assert parity == (len(holo) + len(anti)) % 2
        want = (sym.imag, -sym.real) if parity else (sym.real, sym.imag)
        assert a.tobytes() == want[0].tobytes() and b.tobytes() == want[1].tobytes()
        seen.append(index)
    assert sorted(seen) == np.flatnonzero(analysis._IM_SIGN >= 0).tolist()
    assert len(seen) == 20


class TestEngineVsGeneric:
    @staticmethod
    def _input(tau=1j):
        grid, geom, prob = make_problem(
            tau=tau, base_scale=1.3, fiber_scale=1.5, psi0_preset="mixed",
            psi0_amplitude=0.03)
        x, _, u, _ = grid.coords
        phi = np.ascontiguousarray(np.broadcast_to(
            0.01 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * u), grid.shape))
        return grid, geom, phi, prob.metric(phi, 0.7), MonitorEngine(prob)

    @staticmethod
    def _generic(grid, geom, g, eng):
        s_g, _ = christoffel_deviation(grid, g, geom.gamma_b)
        rm2_g = curvature_squared(grid, g)
        grad2_g = covariant_hessian_squared(
            grid, g, geom.gamma_b, eng.dgamma_h, eng.dgamma_a)
        return s_g, rm2_g, grad2_g

    def test_curvature_fields_match_generic_path(self):
        grid, geom, phi, g, eng = self._input()
        s_f, rm2_f, grad2_f = eng.curvature_fields(0.7, phi, g)
        s_g, rm2_g, grad2_g = self._generic(grid, geom, g, eng)
        assert rel_gap(s_f, s_g) < 1e-10
        assert rel_gap(rm2_f, rm2_g) < 1e-10
        assert rel_gap(grad2_f, grad2_g) < 1e-10

    def test_oblique_modulus_matches_generic_path(self):
        # At tau = 0.3 + 1.2i the fiber symbols are not real multiples of
        # kv, so the conjugate-pair fields and the frame's e10 are generic.
        grid, geom, phi, g, eng = self._input(0.3 + 1.2j)
        fast = eng.curvature_fields(0.7, phi, g)
        for f, ref in zip(fast, self._generic(grid, geom, g, eng)):
            assert rel_gap(f, ref) < 1e-10

    def test_generic_path_identical_across_worker_counts(self, monkeypatch):
        # The full-spectrum transforms follow the grid's worker rule: one
        # worker at 16^4.  Splitting them across workers, as every grid did
        # before that rule, must give the same fields bit for bit.
        grid, geom, _, g, eng = self._input()
        assert grid._workers == 1
        shipped = self._generic(grid, geom, g, eng)
        monkeypatch.setattr(discretization, "_ONE_WORKER_MAX_POINTS", 0)
        monkeypatch.setitem(discretization._FFT_KW, "workers",
                            max(2, discretization._FFT_KW["workers"]))
        assert grid._workers >= 2
        for split, one in zip(self._generic(grid, geom, g, eng), shipped):
            assert np.array_equal(split, one)

    def test_strongly_off_diagonal_metric_matches_generic_path(self):
        # A base-fiber cross mode makes |g_bf|^2 / (g_bb g_ff) large, so the
        # off-diagonal entry of the orthonormal frame carries real weight.
        grid, geom, prob = make_problem(
            base_scale=1.3, fiber_scale=2.0, psi0_preset="mixed",
            psi0_amplitude=0.03)
        x, _, u, v = grid.coords
        phi = np.ascontiguousarray(np.broadcast_to(
            0.04 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * (u + v)), grid.shape))
        t = 0.7
        g = prob.metric(phi, t)
        assert np.max(np.abs(g.bf) ** 2 / (g.bb * g.ff)) >= 0.5
        eng = MonitorEngine(prob)
        fast = eng.curvature_fields(t, phi, g)

        s_g, _ = christoffel_deviation(grid, g, geom.gamma_b)
        generic = (
            s_g,
            curvature_squared(grid, g),
            covariant_hessian_squared(grid, g, geom.gamma_b, eng.dgamma_h, eng.dgamma_a),
        )
        for f, ref in zip(fast, generic):
            assert f.shape == grid.shape
            assert np.min(f) >= 0.0
            assert rel_gap(f, ref) < 1e-10

    def test_psi_tensor_symmetric_in_lower_holomorphic_indices(self):
        # The two holomorphic slots of Psi come from d_i g_{k lbar} with the
        # closedness symmetry d_i g_{k lbar} = d_k g_{i lbar}; the generic
        # path differentiates each block independently, so the symmetry is a
        # real check rather than a construction artifact.
        grid, geom, prob = make_problem(psi0_preset="mixed", psi0_amplitude=0.04)
        g = prob.metric(np.zeros(grid.shape), 0.3)
        _, psi = christoffel_deviation(grid, g, geom.gamma_b)
        swap = np.swapaxes(psi, -1, -2)
        assert np.max(np.abs(psi - swap)) < 1e-10 * max(np.max(np.abs(psi)), 1.0)


class TestCurvatureAnchors:
    def test_flat_configuration_everything_vanishes(self):
        grid, geom, prob = make_problem(base_ripple=0.0)
        g = prob.metric(np.zeros(grid.shape), 1.1)
        s, _ = christoffel_deviation(grid, g, geom.gamma_b)
        assert np.max(s) < 1e-22
        assert np.max(curvature_squared(grid, g)) < 1e-22
        assert np.max(covariant_hessian_squared(grid, g, geom.gamma_b)) < 1e-22

    def test_comparison_family_is_covariantly_constant(self):
        # The gamma corrections are built so that the comparison family
        # itself has vanishing first and second covariant derivatives; its
        # curvature stays nonzero.  This pins every correction term.
        grid, geom, prob = make_problem()
        eng = MonitorEngine(prob)
        for t in (0.0, 1.3):
            g = geom.tilde(t)
            s, _ = christoffel_deviation(grid, g, geom.gamma_b)
            grad2 = covariant_hessian_squared(
                grid, g, geom.gamma_b, eng.dgamma_h, eng.dgamma_a)
            rm2 = curvature_squared(grid, g)
            assert np.max(s) < 1e-18
            assert np.max(grad2) < 1e-16
            assert np.max(rm2) > 1e-4

    def test_conformal_base_curvature_closed_form(self):
        # g_bb = exp(q), q a single Fourier mode, fiber part constant: the
        # only curvature component is the base one and |Rm|^2 has the closed
        # form (dd_bar q)^2 exp(-2q) for band-limited log-conformal factor.
        grid = SpectralGrid(16, 16)
        x, y, _, _ = grid.coords
        q2 = 0.1 * np.cos(2 * np.pi * x[:, :, 0, 0]) * np.cos(2 * np.pi * y[:, :, 0, 0])
        lam2 = np.exp(q2)
        g = HermitianField(
            lam2[:, :, None, None],
            np.zeros((1, 1, 1, 1)),
            np.full((1, 1, 1, 1), 0.7),
        )
        rm2 = curvature_squared(grid, g)
        ddbar_q = grid.base_hessian(q2)
        target = (ddbar_q**2 * np.exp(-2.0 * q2))[:, :, None, None]
        target = np.broadcast_to(target, grid.shape)
        assert rel_gap(rm2, target) < 1e-9

    def test_norm_scalings_under_constant_metric_rescale(self):
        grid, geom, prob = make_problem(psi0_preset="mixed", psi0_amplitude=0.03)
        g = prob.metric(np.zeros(grid.shape), 0.4)
        c = 2.5
        gc = HermitianField(c * g.bb, c * g.bf, c * g.ff)
        s1, _ = christoffel_deviation(grid, g, geom.gamma_b)
        s2, _ = christoffel_deviation(grid, gc, geom.gamma_b)
        assert rel_gap(s2, s1 / c) < 1e-11
        r1 = curvature_squared(grid, g)
        r2 = curvature_squared(grid, gc)
        assert rel_gap(r2, r1 / c**2) < 1e-11
        h1 = covariant_hessian_squared(grid, g, geom.gamma_b)
        h2 = covariant_hessian_squared(grid, gc, geom.gamma_b)
        assert rel_gap(h2, h1 / c**2) < 1e-11


class TestMonitorRecords:
    def test_field_order_is_frozen(self):
        assert MonitorRecord.field_names() == [
            "t", "sup_phi", "sup_phidot", "vol_ratio_min", "vol_ratio_max",
            "rel_eig_min", "rel_eig_max", "trace_min", "trace_max",
            "s_max", "rm2_max", "grad2_max",
            "fiber_dev0", "fiber_dev1", "fiber_dev2",
            "delta_psi_residual", "distance_to_limit",
        ]

    def test_stationary_record_hits_exact_values(self):
        grid, geom, prob = make_problem()
        eng = MonitorEngine(prob)
        phi = np.zeros(grid.shape)
        rhs, g = prob.rhs(phi, 0.8)
        rec = eng.record(0.8, phi, rhs, g)
        assert rec.sup_phi == 0.0
        assert rec.sup_phidot < 1e-12
        assert abs(rec.trace_min - 2.0) < 1e-12
        assert abs(rec.trace_max - 2.0) < 1e-12
        assert abs(rec.rel_eig_min - 1.0) < 1e-12
        assert abs(rec.rel_eig_max - 1.0) < 1e-12
        assert abs(rec.vol_ratio_min - 1.0) < 1e-12
        assert abs(rec.vol_ratio_max - 1.0) < 1e-12
        assert rec.s_max < 1e-18
        assert rec.grad2_max < 1e-16
        assert rec.rm2_max > 1e-4
        assert rec.fiber_dev0 == 0.0 and rec.fiber_dev1 == 0.0
        assert rec.delta_psi_residual < 1e-12

    def test_fiber_deviation_against_hand_value(self):
        # psi0 = A cos(2 pi u), tau = i: at t = 0 with phi = 0 the fiber
        # deviation is its fiber Hessian -pi^2 A cos(2 pi u), so the squared
        # sup norm is (pi^2 A)^2 / b0^2.  Each d/dz_f = (d/du - i d/dv) / 2
        # takes a factor pi, so |d1|^2 peaks at pi^6 A^2 and |d2h|^2 +
        # |d2m|^2 at 2 pi^8 A^2, each over the matching power of b0.
        amp, b0 = 0.04, 2.0
        grid, geom, prob = make_problem(
            fiber_scale=b0, psi0_preset="fiber_cos", psi0_amplitude=amp)
        eng = MonitorEngine(prob)
        phi = np.zeros(grid.shape)
        rhs, g = prob.rhs(phi, 0.0)
        rec = eng.record(0.0, phi, rhs, g)
        for value, expect in (
            (rec.fiber_dev0, (math.pi**2 * amp) ** 2 / b0**2),
            (rec.fiber_dev1, 2.0 * math.pi**6 * amp**2 / b0**3),
            (rec.fiber_dev2, 4.0 * math.pi**8 * amp**2 / b0**4),
        ):
            assert abs(value - expect) < 1e-10 * expect
        assert rec.delta_psi_residual < 1e-12

    def test_identity_residual_stays_tiny_along_a_run(self):
        grid, geom, prob = make_problem(
            psi0_preset="mixed", psi0_amplitude=0.03, base_scale=1.2)
        eng = MonitorEngine(prob)
        opts = FlowOptions(t_end=0.6, dt_max=0.02, sample_interval=0.2)
        result = prob.run(opts, sampler=eng.record)
        assert len(result.records) == 3
        for rec in result.records:
            assert rec.delta_psi_residual < 1e-11
            assert np.isfinite(rec.rm2_max) and rec.rm2_max >= 0.0
            assert np.isfinite(rec.grad2_max) and rec.grad2_max >= 0.0

    def test_record_takes_37_inverse_transforms_and_one_forward(self, monkeypatch):
        # One rfft of phi, and one irfft per row of the real stack.  The
        # stack's 23 complex fields are the derivatives of w = e^{-t} psi_0
        # + phi, each conjugate (2, 2) field exactly its partner's
        # conjugate and each diagonal one real.
        grid, geom, prob = make_problem(
            8, tau=0.3 + 1.2j, psi0_preset="mixed", psi0_amplitude=0.03)
        x, _, u, _ = grid.coords
        phi = 0.01 * np.cos(2.0 * np.pi * (x + u)) * np.ones(grid.shape)
        t = 0.5
        rhs, g = prob.rhs(phi, t)
        eng = MonitorEngine(prob)
        calls, stacks = [], []

        def counted(name):
            orig = getattr(SpectralGrid, name)

            def wrapper(self, *args, **kw):
                calls.append(name)
                return orig(self, *args, **kw)
            return wrapper

        def slab_norms(self, rows, *args):
            stacks.append(rows.base)
            return orig_slab_norms(self, rows, *args)

        orig_slab_norms = MonitorEngine._slab_norms
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(SpectralGrid, name, counted(name))
        monkeypatch.setattr(MonitorEngine, "_slab_norms", slab_norms)
        eng.record(t, phi, rhs, g)
        assert calls.count("rfft") == 1 and calls.count("irfft") == 37
        stack = stacks[0]
        assert stack.shape == (37,) + grid.shape
        assert all(s is stack for s in stacks)

        f = stack[analysis._RE] + 1j * (analysis._IM_SIGN[:, None, None, None, None]
                                        * stack[analysis._IM])
        fields = analysis._FIELDS
        w_hat = oracle.fft_c(grid, math.exp(-t) * grid.irfft(geom.psi0_spec) + phi)
        sym = oracle.sym_full(grid)
        for index, (holo, anti) in enumerate(fields):
            if len(holo) == len(anti) == 2:
                if holo == anti:
                    assert np.all(f[index].imag == 0.0)
                else:
                    assert np.array_equal(f[index], np.conj(f[fields.index((anti, holo))]))
            direct = oracle.ifft_c(grid, math.prod(
                [sym[("holo", "bf"[m])] for m in holo]
                + [sym[("anti", "bf"[q])] for q in anti]) * w_hat)
            assert rel_gap(f[index], direct) < 1e-12

    def test_record_working_set(self):
        # Traced from the call, the inputs already allocated, in whole real
        # fields: 51.4 at 16^4 (44.4 at 32^4), where the real stack of 37
        # rows is the one large array.  A complex stack of all 23 fields,
        # with psi_0's field in the spectrum's input, read 63.6.
        grid, geom, prob = make_problem(psi0_preset="mixed")
        eng = MonitorEngine(prob)
        x, _, u, _ = grid.coords
        phi = 0.01 * np.cos(2.0 * np.pi * (x + u)) * np.ones(grid.shape)
        rhs, g = prob.rhs(phi, 0.5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            eng.record(0.5, phi, rhs, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8 * 16**4) <= 52.0


class TestDecayFit:
    def test_exact_envelope_recovers_constant(self):
        ts = np.arange(0.0, 8.01, 0.05)
        fit = decay_fit(ts, 2.0 * (1 + ts) * np.exp(-ts))
        assert abs(fit.constant - 2.0) < 1e-12
        assert fit.passed
        assert abs(fit.ratio_max - fit.ratio_min) < 1e-12

    def test_wrong_rate_fails_bounded_ratio(self):
        ts = np.arange(0.0, 8.01, 0.05)
        fit = decay_fit(ts, np.exp(-ts / 2), 1.0, 8.0)
        assert not fit.passed
        assert fit.ratio_max / fit.ratio_min > 4.0

    def test_zero_series_passes_trivially(self):
        ts = np.arange(0.0, 8.01, 0.05)
        fit = decay_fit(ts, np.zeros_like(ts))
        assert fit.passed
        assert fit.constant == 0.0
        assert math.isnan(fit.log_slope)

    def test_scale_equivariance(self):
        ts = np.arange(0.0, 8.01, 0.05)
        vals = (1 + ts) * np.exp(-ts) * (1.0 + 0.1 * np.sin(ts))
        a = decay_fit(ts, vals)
        b = decay_fit(ts, 7.0 * vals)
        assert abs(b.constant - 7.0 * a.constant) < 1e-12
        assert a.passed == b.passed
        assert abs(b.ratio_max / b.ratio_min - a.ratio_max / a.ratio_min) < 1e-12

    def test_window_validation(self):
        ts = np.arange(0.0, 8.01, 0.05)
        vals = np.exp(-ts)
        with pytest.raises(ConfigInvalid):
            decay_fit(ts, vals, 0.5, 6.0)
        with pytest.raises(ConfigInvalid):
            decay_fit(ts, vals, 3.0, 3.0)

    def test_sparse_window_raises(self):
        ts = np.arange(0.0, 8.01, 0.5)
        with pytest.raises(InsufficientSamples):
            decay_fit(ts, np.exp(-ts), 2.0, 6.0)

    def test_readme_example_prints_existing_fields(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            lines = [ln for ln in fh if ln.startswith("print(fit.")]
        assert len(lines) == 1
        names = re.findall(r"fit\.(\w+)", lines[0])
        assert names
        ts = np.arange(0.0, 8.01, 0.05)
        fit = decay_fit(ts, (1 + ts) * np.exp(-ts))
        for name in names:
            assert hasattr(fit, name), f"README prints fit.{name}, which DecayFit lacks"

    def test_log_slope_fit_recovers_rate(self):
        ts = np.arange(0.0, 8.01, 0.05)
        slope, intercept, n = log_slope_fit(ts, 3.0 * np.exp(-1.7 * ts), 1.0, 7.0)
        assert abs(slope + 1.7) < 1e-10
        assert abs(intercept - math.log(3.0)) < 1e-9
        with pytest.raises(InsufficientSamples):
            log_slope_fit(ts, np.zeros_like(ts), 1.0, 7.0)


class TestFiberFlatnessRates:
    def test_recovers_synthetic_rates(self):
        recs = [
            blank_record(t, fiber_dev0=math.exp(-2.0 * t),
                         fiber_dev1=math.exp(-2.5 * t),
                         fiber_dev2=math.exp(-2.2 * t),
                         delta_psi_residual=1e-14 * t)
            for t in np.arange(0.0, 8.01, 0.1)
        ]
        # the worst residual inside the window, not over the whole run
        assert fiber_flatness_rates(recs, 2.0, 6.0) == pytest.approx(6e-14, rel=1e-12, abs=0.0)

    def test_stationary_series_reports_not_applicable(self):
        recs = [blank_record(t) for t in np.arange(0.0, 8.01, 0.1)]
        assert fiber_flatness_rates(recs, 2.0, 6.0) == 0.0

    def test_too_few_records_raises(self):
        recs = [blank_record(t) for t in (2.0, 3.0, 4.0)]
        with pytest.raises(InsufficientSamples):
            fiber_flatness_rates(recs, 2.0, 6.0)


class TestBoundedMonitors:
    def test_flat_series_passes(self):
        recs = [blank_record(t, sup_phidot=1.0, s_max=2.0, rm2_max=3.0,
                             grad2_max=4.0)
                for t in np.arange(0.0, 8.01, 0.5)]
        results, ok = bounded_monitor_check(recs)
        assert ok
        assert set(results) == set(BOUNDED_MONITOR_FIELDS)

    def test_late_spike_fails(self):
        recs = [blank_record(t, rm2_max=1.0 if t < 5 else 2.5)
                for t in np.arange(0.0, 8.01, 0.5)]
        _, ok = bounded_monitor_check(recs)
        assert not ok

    def test_volume_collapse_detected_through_reciprocal(self):
        recs = [blank_record(t, vol_ratio_min=1.0 if t < 5 else 0.3)
                for t in np.arange(0.0, 8.01, 0.5)]
        results, ok = bounded_monitor_check(recs)
        assert not ok
        early, late, flag = results["vol_ratio_min"]
        assert not flag and late > early

    def test_needs_both_sides_of_split(self):
        recs = [blank_record(t) for t in (2.0, 3.0)]
        with pytest.raises(InsufficientSamples):
            bounded_monitor_check(recs)


class TestDriftStats:
    def test_conditioning_series(self):
        recs = [blank_record(t, rel_eig_min=0.5, rel_eig_max=1.5)
                for t in np.arange(0.0, 8.01, 0.5)]
        cs, ts = drift_stats(recs, 2.0, 8.0)
        assert np.allclose(cs, 2.0)
        assert ts[0] >= 2.0 and ts[-1] <= 8.0
        with pytest.raises(InsufficientSamples):
            drift_stats(recs, 9.0, 10.0)
