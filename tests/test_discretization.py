import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from krflow.discretization import (
    HermitianField,
    SpectralGrid,
    relative_eigen_bounds,
    trace_with,
    wedge_density,
)
from krflow import discretization
from krflow.analysis import MonitorEngine
from krflow.errors import ConfigInvalid
from krflow.flow import FlowOptions, FlowProblem
from krflow.geometry import GeometrySpec, SurrogateGeometry
from krflow import oracle
from krflow.oracle import deriv

TP = 2.0 * np.pi
PI2 = np.pi * np.pi


def band_limited_field(grid, seed=12345, kmax=3, amp=0.5):
    rng = np.random.default_rng(seed)
    x, y, u, v = grid.coords
    f = np.zeros(grid.shape)
    for _ in range(8):
        k = rng.integers(-kmax, kmax + 1, size=4)
        c = rng.normal(size=2)
        phase = TP * (k[0] * x + k[1] * y + k[2] * u + k[3] * v)
        f = f + amp * (c[0] * np.cos(phase) + c[1] * np.sin(phase))
    return f


class TestGridValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigInvalid):
            SpectralGrid(12, 16)

    def test_rejects_too_small(self):
        with pytest.raises(ConfigInvalid):
            SpectralGrid(16, 4)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ConfigInvalid):
            SpectralGrid(16, 16, tau=0.5 - 1j)


class TestHessianAnalytic:
    """Closed-form targets computed by hand for single Fourier modes."""

    def test_base_mode(self):
        grid = SpectralGrid(16, 8)
        x, y, u, v = grid.coords
        h = grid.hessian(np.cos(TP * x) + 0.0 * u)
        target = -PI2 * np.cos(TP * x)
        assert np.max(np.abs(h.bb - target)) < 1e-11
        assert np.max(np.abs(h.bf)) < 1e-12
        assert np.max(np.abs(h.ff)) < 1e-12

    def test_fiber_mode_square_torus(self):
        grid = SpectralGrid(8, 16)
        x, y, u, v = grid.coords
        h = grid.hessian(np.cos(TP * u) + 0.0 * x)
        target = -PI2 * np.cos(TP * u)
        assert np.max(np.abs(h.ff - target)) < 1e-11
        assert np.max(np.abs(h.bb)) < 1e-12

    def test_mixed_mode_real_bf(self):
        grid = SpectralGrid(16, 16)
        x, y, u, v = grid.coords
        phase = np.cos(TP * (x + u))
        h = grid.hessian(phase)
        target = -PI2 * phase
        for block in (h.bb, h.ff):
            assert np.max(np.abs(block - target)) < 1e-10
        assert np.max(np.abs(h.bf - target)) < 1e-10

    def test_mixed_mode_imaginary_bf(self):
        grid = SpectralGrid(16, 16)
        x, y, u, v = grid.coords
        f = np.cos(TP * (x + v))
        h = grid.hessian(f)
        target = -1j * PI2 * np.cos(TP * (x + v))
        assert np.max(np.abs(h.bf - target)) < 1e-10

    def test_fiber_modes_general_modulus(self):
        tau = 0.3 + 1.2j
        grid = SpectralGrid(8, 16, tau)
        x, y, u, v = grid.coords
        a, b = tau.real, tau.imag
        h_u = grid.hessian(np.cos(TP * u) + 0.0 * x)
        h_v = grid.hessian(np.cos(TP * v) + 0.0 * x)
        tgt_u = -PI2 * (1.0 + a * a / (b * b)) * np.cos(TP * u)
        tgt_v = -(PI2 / (b * b)) * np.cos(TP * v)
        assert np.max(np.abs(h_u.ff - tgt_u)) < 1e-10
        assert np.max(np.abs(h_v.ff - tgt_v)) < 1e-10


class TestHessianStructure:
    def test_mean_vanishes_exactly(self):
        grid = SpectralGrid(16, 16, tau=0.25 + 0.9j)
        h = grid.hessian(band_limited_field(grid, seed=7))
        assert abs(grid.mean(h.bb)) < 1e-13
        assert abs(grid.mean(h.ff)) < 1e-13
        assert abs(np.mean(h.bf)) < 1e-13

    def test_real_blocks_are_real_dtype(self):
        grid = SpectralGrid(8, 8)
        h = grid.hessian(band_limited_field(grid, seed=3))
        assert h.bb.dtype == np.float64
        assert h.ff.dtype == np.float64
        assert h.bf.dtype == np.complex128

    def test_rfft_path_matches_full_transform_path(self):
        grid = SpectralGrid(16, 16, tau=0.4 + 1.1j)
        phi = band_limited_field(grid, seed=11)
        h = grid.hessian(phi)
        bb = deriv(grid, deriv(grid, phi, "holo", "b"), "anti", "b")
        ff = deriv(grid, deriv(grid, phi, "holo", "f"), "anti", "f")
        bf = deriv(grid, deriv(grid, phi, "anti", "f"), "holo", "b")
        assert np.max(np.abs(h.bb - bb)) < 1e-11
        assert np.max(np.abs(h.ff - ff)) < 1e-11
        assert np.max(np.abs(h.bf - bf)) < 1e-11

    def test_base_only_field_matches_2d_operator(self):
        grid = SpectralGrid(16, 8)
        xb = np.arange(16) / 16.0
        f2 = np.cos(TP * xb)[:, None] * np.sin(TP * xb)[None, :]
        h = grid.hessian(f2[:, :, None, None])
        bb2 = grid.base_hessian(f2)
        assert np.max(np.abs(h.bb - bb2[:, :, None, None])) < 1e-11
        assert np.max(np.abs(h.ff)) < 1e-12
        assert np.max(np.abs(h.bf)) < 1e-12


class TestFiniteDifferenceHessian:
    def test_fourth_order_truncation_floor_single_mode(self):
        # At n=32 and wavenumber 2*pi the classical fourth-order truncation
        # bound is (2*pi/32)^4 / 90 ~ 1.65e-5 relative; allow modest headroom.
        grid = SpectralGrid(32, 8)
        x, y, u, v = grid.coords
        phi = np.cos(TP * x) + 0.0 * u
        fd = oracle.fd_hessian(grid, phi)
        sp = grid.hessian(phi)
        rel = np.max(np.abs(fd.bb - sp.bb)) / np.max(np.abs(sp.bb))
        assert rel < 2e-5

    def test_mixed_blocks_converge_at_order_four(self):
        errs = []
        for n in (8, 16):
            grid = SpectralGrid(n, n, tau=0.3 + 1.2j)
            x, y, u, v = grid.coords
            phi = np.cos(TP * (x + v)) + np.sin(TP * (y + u))
            fd = oracle.fd_hessian(grid, phi)
            sp = grid.hessian(phi)
            errs.append(max(np.max(np.abs(fd.bf - sp.bf)), np.max(np.abs(fd.ff - sp.ff))))
        order = oracle.refinement_order(errs[0], errs[1])
        assert abs(order - 4.0) < 0.4


class TestWedgeAlgebra:
    def _random_pair(self, seed):
        rng = np.random.default_rng(seed)
        shape = (5, 5, 4, 4)
        ref = HermitianField(
            2.0 + 0.3 * rng.normal(size=shape),
            0.2 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)),
            1.5 + 0.2 * rng.normal(size=shape),
        )
        g = HermitianField(
            1.0 + 0.4 * rng.normal(size=shape),
            0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)),
            0.8 + 0.3 * rng.normal(size=shape),
        )
        return g, ref

    def test_wedge_self_is_twice_det(self):
        g, _ = self._random_pair(21)
        assert np.allclose(wedge_density(g, g), 2.0 * g.det())

    def test_wedge_symmetric(self):
        g, ref = self._random_pair(22)
        assert np.allclose(wedge_density(g, ref), wedge_density(ref, g))

    def test_trace_of_self_is_dimension(self):
        _, ref = self._random_pair(23)
        assert np.allclose(trace_with(ref, ref), 2.0)

    def test_eigen_bounds_match_dense_solver(self):
        from scipy.linalg import eigh

        g, ref = self._random_pair(24)
        lo, hi = relative_eigen_bounds(g, ref)
        idx = [(0, 0, 0, 0), (2, 3, 1, 2), (4, 4, 3, 3)]
        for ix in idx:
            gm = np.array([[g.bb[ix], g.bf[ix]], [np.conj(g.bf[ix]), g.ff[ix]]])
            rm = np.array([[ref.bb[ix], ref.bf[ix]], [np.conj(ref.bf[ix]), ref.ff[ix]]])
            w = eigh(gm, rm, eigvals_only=True)
            assert abs(lo[ix] - w[0]) < 1e-10
            assert abs(hi[ix] - w[1]) < 1e-10

    def test_in_place_helpers_are_the_complex_formulas_on_a_comparison_form(self):
        # Shaped like geometry.tilde: a base-only bb and a zero bf and a
        # constant ff of shape (1, 1, 1, 1), the comparison form every caller
        # passes.  The helpers must give the complex formulas bit for bit.
        g, _ = self._random_pair(26)
        rng = np.random.default_rng(26)
        ref = HermitianField(2.0 + 0.3 * rng.normal(size=(5, 5, 1, 1)),
                             np.zeros((1, 1, 1, 1)) + 0.0j, np.full((1, 1, 1, 1), 0.7))
        a = ref.bb * ref.ff - np.abs(ref.bf) ** 2
        b = g.bb * ref.ff + g.ff * ref.bb - 2.0 * np.real(g.bf * np.conj(ref.bf))
        c = g.bb * g.ff - np.abs(g.bf) ** 2
        root = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        assert np.array_equal(g.det(), c)
        assert np.array_equal(ref.det(), a)
        assert np.array_equal(wedge_density(g, ref), b)
        assert np.array_equal(trace_with(g, ref), b / a)
        lo, hi = relative_eigen_bounds(g, ref)
        assert np.array_equal(lo, (b - root) / (2.0 * a))
        assert np.array_equal(hi, (b + root) / (2.0 * a))

    def test_from_parts_is_re_plus_i_im(self):
        rng = np.random.default_rng(27)
        re, im = rng.normal(size=(2, 5, 5, 4, 4))
        field = HermitianField.from_parts(None, re, im, None)
        assert np.array_equal(field.bf, re + 1j * im)

    def test_eigen_bounds_identity(self):
        _, ref = self._random_pair(25)
        lo, hi = relative_eigen_bounds(ref, ref)
        assert np.allclose(lo, 1.0)
        assert np.allclose(hi, 1.0)


class TestFiberOps:
    def test_poisson_recovers_known_solution(self):
        grid = SpectralGrid(8, 16)
        uf = np.arange(16) / 16.0
        psi_true = np.cos(TP * uf)[:, None] + 0.0 * uf[None, :]
        rhs = grid.fiber_hessian(psi_true)
        psi = grid.fiber_poisson(rhs)
        assert np.max(np.abs(psi - psi_true)) < 1e-12

    def test_poisson_residual_and_mean(self):
        grid = SpectralGrid(8, 16, tau=0.2 + 0.8j)
        rng = np.random.default_rng(31)
        uf = np.arange(16) / 16.0
        rhs = np.cos(TP * uf)[:, None] * np.sin(TP * uf)[None, :] + 0.3 * np.cos(
            TP * 2 * uf
        )[None, :] * np.ones((16, 1))
        psi = grid.fiber_poisson(rhs)
        assert abs(psi.mean()) < 1e-14
        res = grid.fiber_hessian(psi) - (rhs - rhs.mean())
        assert np.max(np.abs(res)) < 1e-12


class TestOracleBattery:
    def test_all_green(self):
        reports = oracle.run_battery(n_base=16, n_fiber=16, tau=0.3 + 1.1j)
        for r in reports:
            assert r.passed, r.line()

    def test_battery_peak_allocation_is_bounded(self):
        # The 16/32 refinement pair alone held ~15 whole 32^4 fields
        # (221 MB traced) when the dense Hessian was formed whole.
        tracemalloc.start()
        try:
            reports = oracle.run_battery(16, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak < 64e6, f"run_battery(16, 16) peaked at {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j])
    def test_blockwise_refinement_error_matches_whole_grid(self, tau):
        for n in (16, 32):
            grid = SpectralGrid(n, n, tau)
            phi = oracle._test_field(grid, seed=3)
            spec_h = grid.hessian(phi)
            dense_h = whole_grid_dense_hessian(grid, phi)
            whole = max(
                float(np.max(np.abs(spec_h.bb - dense_h.bb))),
                float(np.max(np.abs(spec_h.bf - dense_h.bf))),
                float(np.max(np.abs(spec_h.ff - dense_h.ff))),
            )
            blockwise = oracle.hessian_refinement_error(n, tau, seed=3)
            assert blockwise == pytest.approx(whole, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", [None, 3])
    def test_refinement_error_is_the_whole_field_maximum(self, seed):
        # The oracle takes the spectrum of the test field and then evaluates
        # it slab by slab and plane by plane.  Its figure is the maximum over
        # whole fields, bit for bit, and its traced peak is 4.8 whole fields
        # of its 16^4 grid (5.8 when it held the test field throughout).
        tracemalloc.start()
        try:
            err = oracle.hessian_refinement_error(16, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * 16**4) <= 5.0
        grid = SpectralGrid(16, 16)
        phi = oracle._test_field(grid, seed)
        h = grid.hessian(phi)
        bf = np.stack([oracle._bf_plane_oracle(grid, phi[:, :, [(k + 1) % 16, k, (k - 1) % 16]])
                       for k in range(16)], axis=2)
        assert err == max(float(np.max(np.abs(h.bb - oracle._base_hessian_oracle(grid, phi)))),
                          float(np.max(np.abs(h.ff - oracle.fiber_hessian_oracle(grid, phi)))),
                          float(np.max(np.abs(h.bf - bf))))

    def test_fd_check_is_the_whole_grid_gap(self):
        # Check 2 forms the FD Hessian block by block; its figure must be the
        # one the whole-grid FD Hessian gives, bit for bit.
        grid = SpectralGrid(16, 16, 0.3 + 1.1j)
        phi = oracle._test_field(grid, seed=5)
        fd = whole_grid_fd4_hessian(grid, phi)
        sp = grid.hessian(phi)
        gap = max(float(np.max(np.abs(fd.bb - sp.bb))), float(np.max(np.abs(fd.bf - sp.bf))),
                  float(np.max(np.abs(fd.ff - sp.ff))))
        scale = float(np.max(np.abs(sp.bb)) + np.max(np.abs(sp.ff)))
        report = oracle.run_battery(16, 16, 0.3 + 1.1j, seed=5)[1]
        assert report.name == "fourth-order FD vs spectral Hessian"
        assert report.measured == gap / scale
        whole = oracle.fd_hessian(grid, phi)
        for a, b in ((whole.bb, fd.bb), (whole.bf, fd.bf), (whole.ff, fd.ff)):
            assert np.array_equal(a, b)

    def test_package_import_leaves_scipy_integrate_unloaded(self):
        # Only the test-only homogeneous reference integrates with scipy;
        # every run's set-up pays for what `import krflow` loads.
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, krflow; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_fold_oracle_passes_on_scaled_data(self):
        grid = SpectralGrid(8, 8, 0.3 + 1.1j)
        geom = SurrogateGeometry(grid, GeometrySpec(psi0_preset="mixed", psi0_amplitude=0.03,
                                                    base_scale=0.8, fiber_scale=1.3))
        report = oracle.fold_oracle(geom, seed=2)
        assert report.passed, report.line()

    def test_fold_oracle_passes_at_large_scales(self):
        # The twin scales the run's scales up; the two sides' rounding grows
        # with them (an absolute gap of 1.8e-12 here), the relative gap not.
        grid = SpectralGrid(8, 8, 0.3 + 1.1j)
        geom = SurrogateGeometry(grid, GeometrySpec(psi0_preset="mixed", psi0_amplitude=0.03,
                                                    base_scale=4000.0, fiber_scale=6000.0))
        report = oracle.fold_oracle(geom, seed=2)
        assert report.passed, report.line()

    def test_fold_oracle_sees_psi0_left_out(self, monkeypatch):
        grid = SpectralGrid(8, 8)
        geom = SurrogateGeometry(grid, GeometrySpec(psi0_preset="mixed"))
        forcing = FlowProblem._forcing

        def psi0_left_out(self, u, t):
            return forcing(self, u - math.exp(-t) * self.geometry.psi0_spec, t)

        monkeypatch.setattr(FlowProblem, "_forcing", psi0_left_out)
        report = oracle.fold_oracle(geom)
        assert not report.passed
        assert report.measured > 1e-3


class TestInverseTransform:
    @pytest.mark.parametrize("n_base, n_fiber", [(8, 8), (16, 16), (16, 32)])
    def test_overwrite_is_irfftn_and_the_default_keeps_its_input(self, monkeypatch, n_base,
                                                                 n_fiber):
        # (16, 32) lies above _ONE_WORKER_MAX_POINTS: split across two workers.
        monkeypatch.setitem(discretization._FFT_KW, "workers", 2)
        grid = SpectralGrid(n_base, n_fiber, 0.3 + 1.1j)
        spec = grid.rfft(np.random.default_rng(6).standard_normal(grid.shape))
        want = sfft.irfftn(spec, s=grid.shape)
        assert np.array_equal(grid.irfft(spec.copy(), overwrite=True), want)
        kept = spec.copy()
        assert np.array_equal(grid.irfft(spec), want)
        assert np.array_equal(spec, kept)


class TestTransformWorkers:
    """One worker per transform on small grids: same numbers, no thread."""

    @staticmethod
    def _run(monkeypatch, split_workers=None):
        if split_workers is not None:
            monkeypatch.setattr(discretization, "_ONE_WORKER_MAX_POINTS", 0)
            monkeypatch.setitem(discretization._FFT_KW, "workers", split_workers)
        grid = SpectralGrid(8, 8, 0.3 + 1.1j)
        geom = SurrogateGeometry(grid, GeometrySpec(psi0_preset="mixed", psi0_amplitude=0.03,
                                                    base_scale=1.2))
        problem = FlowProblem(geom)
        engine = MonitorEngine(problem)
        result = problem.run(FlowOptions(t_end=0.1, dt_max=0.02, sample_interval=0.05),
                             sampler=engine.record)
        used = grid._workers
        monkeypatch.undo()
        return result, used

    def test_flow_and_records_identical_across_worker_counts(self, monkeypatch):
        shipped, used = self._run(monkeypatch)
        assert used == 1 and len(shipped.records) == 2
        for workers in (max(2, discretization._FFT_KW["workers"]), 1):
            result, used = self._run(monkeypatch, split_workers=workers)
            assert used == workers
            assert np.array_equal(result.final_phi, shipped.final_phi), workers
            assert [r.row() for r in result.records] == [r.row() for r in shipped.records], \
                workers

    def test_hessian_identical_across_workers_above_cutoff(self, monkeypatch):
        grid = SpectralGrid(16, 32, 0.3 + 1.1j)
        assert math.prod(grid.shape) > discretization._ONE_WORKER_MAX_POINTS
        spec = grid.rfft(band_limited_field(grid, seed=4))
        monkeypatch.setitem(discretization._FFT_KW, "workers", 1)
        one = grid.spectral_hessian(spec)
        monkeypatch.setitem(discretization._FFT_KW, "workers", 2)
        assert grid._workers == 2
        two = grid.spectral_hessian(spec)
        for a, b in ((one.bb, two.bb), (one.bf, two.bf), (one.ff, two.ff)):
            assert np.array_equal(a, b)

    def test_no_krflow_call_starts_a_thread(self):
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import threading, krflow\n"
            "print(threading.active_count())\n"
            "krflow.run_base_flow(krflow.OctagonGrid(48), t_end=0.05)\n"
            "print(threading.active_count())\n"
            "from krflow import discretization\n"
            "discretization._FFT_KW['workers'] = 2\n"
            "grid = krflow.SpectralGrid(8, 8)\n"
            "grid.hessian(discretization.np.ones(grid.shape))\n"
            "problem = krflow.FlowProblem(krflow.SurrogateGeometry(\n"
            "    grid, krflow.GeometrySpec(psi0_preset='mixed')))\n"
            "problem.run(krflow.FlowOptions(t_end=0.05, dt_max=0.025, sample_interval=0.05),\n"
            "            sampler=krflow.MonitorEngine(problem).record)\n"
            "print(threading.active_count())\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        assert [int(x) for x in out.stdout.split()] == [1, 1, 1]


def whole_grid_fd4_hessian(grid, phi):
    """The fourth-order FD Hessian with every stencil term formed whole."""

    def d1(f, axis, h):
        fp1, fm1 = np.roll(f, -1, axis), np.roll(f, 1, axis)
        fp2, fm2 = np.roll(f, -2, axis), np.roll(f, 2, axis)
        return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)

    def d2(f, axis, h):
        fp1, fm1 = np.roll(f, -1, axis), np.roll(f, 1, axis)
        fp2, fm2 = np.roll(f, -2, axis), np.roll(f, 2, axis)
        return (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * h * h)

    hb = 1.0 / grid.n_base
    hf = 1.0 / grid.n_fiber
    c, d = grid._fiber_coeffs
    dx = d1(phi, 0, hb)
    dy = d1(phi, 1, hb)
    bb = 0.25 * (d2(phi, 0, hb) + d2(phi, 1, hb))
    ff = ((abs(c) ** 2) * d2(phi, 2, hf) + 2.0 * np.real(c * np.conj(d)) * d1(d1(phi, 2, hf), 3, hf)
          + (abs(d) ** 2) * d2(phi, 3, hf))
    cc, dc = np.conj(c), np.conj(d)
    bf = (0.5 * (cc * d1(dx, 2, hf) + dc * d1(dx, 3, hf))
          - 0.5j * (cc * d1(dy, 2, hf) + dc * d1(dy, 3, hf)))
    return HermitianField(bb, bf, ff)


def whole_grid_dense_hessian(grid, phi):
    """The second-order roll-stencil Hessian formed on the whole grid at once."""

    def d1(f, axis, h):
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)

    def d2(f, axis, h):
        return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / (h * h)

    hb = 1.0 / grid.n_base
    hf = 1.0 / grid.n_fiber
    a, b = grid.tau.real, grid.tau.imag
    c = 0.5 + 0.5j * a / b
    d = -0.5j / b
    dx = d1(phi, 0, hb)
    dy = d1(phi, 1, hb)
    bb = 0.25 * (d2(phi, 0, hb) + d2(phi, 1, hb))
    ff = ((abs(c) ** 2) * d2(phi, 2, hf) + 2.0 * np.real(c * np.conj(d)) * d1(d1(phi, 2, hf), 3, hf)
          + (abs(d) ** 2) * d2(phi, 3, hf))
    cc, dc = np.conj(c), np.conj(d)
    bf = (0.5 * (cc * d1(dx, 2, hf) + dc * d1(dx, 3, hf))
          - 0.5j * (cc * d1(dy, 2, hf) + dc * d1(dy, 3, hf)))
    return HermitianField(bb, bf, ff)
