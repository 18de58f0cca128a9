import math
import tracemalloc
import weakref

import numpy as np
import pytest

from krflow import discretization, flow
from krflow.analysis import MonitorEngine
from krflow.discretization import HermitianField, SpectralGrid, relative_eigen_bounds
from krflow.errors import NonFiniteValue, PositivityLost
from krflow.flow import (
    FlowOptions,
    FlowProblem,
    _Imex2Stepper,
    sample_times,
)
from krflow.geometry import GeometrySpec, SurrogateGeometry
from krflow import oracle
from krflow.oracle import product_reduced_run, rk4_step

TP = 2.0 * np.pi


def problem(n=8, **kw):
    grid = SpectralGrid(n, n)
    return FlowProblem(SurrogateGeometry(grid, GeometrySpec(**kw)))


class TestRightHandSide:
    def test_normalized_data_is_stationary(self):
        p = problem()
        phi0 = np.zeros(p.grid.shape)
        for t in (0.0, 1.0, 5.0):
            rhs, _ = p.rhs(phi0, t)
            assert np.max(np.abs(rhs)) < 1e-12

    def test_scaled_base_gives_logarithmic_forcing(self):
        p = problem(base_scale=1.4)
        phi0 = np.zeros(p.grid.shape)
        for t in (0.0, 0.8, 3.0):
            rhs, _ = p.rhs(phi0, t)
            expected = np.log(1.0 + 0.4 * np.exp(-t))
            assert np.max(np.abs(rhs - expected)) < 1e-12

    def test_unit_density_exposes_fiber_scale(self):
        # Passing the unscaled pinned density instead of the built one makes
        # the initial forcing log(fiber_scale) for pure rescaled data.
        grid = SpectralGrid(8, 8)
        geom = SurrogateGeometry(grid, GeometrySpec(fiber_scale=3.0))
        p = FlowProblem(geom, omega_density=geom.chi * 1.0)
        rhs, _ = p.rhs(np.zeros(grid.shape), 0.0)
        assert np.max(np.abs(rhs - np.log(3.0))) < 1e-12

    def test_folded_reference_form_matches_hat_plus_hessian(self):
        # rhs and metric fold psi_0 into the transformed potential; the
        # reference family hat(t) plus the Hessian of phi is the same form.
        p = problem(psi0_preset="mixed", psi0_amplitude=0.03, base_scale=1.2,
                    fiber_scale=1.5)
        x, _, u, _ = p.grid.coords
        phi = 0.002 * np.cos(TP * x) * np.sin(TP * u) * np.ones(p.grid.shape)
        omega0 = p.geometry.initial_form()
        for t in (0.0, 0.4, 1.1):
            hat, hess = oracle.hat(omega0, p.geometry.chi, t), p.grid.hessian(phi)
            ref_g = HermitianField(hat.bb + hess.bb, hat.bf + hess.bf, hat.ff + hess.ff)
            ref_rhs = t + np.log(ref_g.det()) - p.log_omega - phi
            rhs, g = p.rhs(phi, t)
            assert np.max(np.abs(rhs - ref_rhs)) < 1e-13
            for field in (g, p.metric(phi, t)):
                for block in ("bb", "bf", "ff"):
                    gap = np.abs(getattr(field, block) - getattr(ref_g, block))
                    assert np.max(gap) < 1e-13

    def test_positivity_guard_raises(self):
        p = problem()
        x = p.grid.coords[0]
        bad = 0.2 * np.cos(TP * x) * np.ones(p.grid.shape)  # bb dips below zero
        with pytest.raises(PositivityLost):
            p.rhs(bad, 0.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rhs_and_sample_share_the_finiteness_rule(self, monkeypatch, value):
        # A non-finite entry of F' - phi is NonFiniteValue in both.
        p = problem()
        phi = np.zeros(p.grid.shape)
        forcing, blocks, mu = p._forcing(p.grid.rfft(phi), 0.0)
        forcing[1, 2, 3, 4] = value
        with pytest.raises(NonFiniteValue):
            p.sample_state(0.0, phi, forcing.copy(), blocks, 0, 0.0)
        monkeypatch.setattr(p, "_forcing", lambda u, t: (forcing, blocks, mu))
        with pytest.raises(NonFiniteValue):
            p.rhs(phi, 0.0)

    def test_nan_state_raises_non_finite_on_one_step(self):
        p = problem()
        phi = np.zeros(p.grid.shape)
        phi[1, 2, 3, 4] = np.nan
        stepper = _Imex2Stepper(p)
        stepper.u = p.grid.rfft(phi)
        with pytest.raises(NonFiniteValue):
            stepper(0.0, 0.01)


class TestRk4Step:
    def test_fourth_order_on_a_forced_linear_equation(self):
        # y' = -y + cos t, y(0) = 1: y = (cos t + sin t) / 2 + e^{-t} / 2
        def f(t, y):
            return -y + np.cos(t)

        exact = 0.5 * (np.cos(1.0) + np.sin(1.0)) + 0.5 * np.exp(-1.0)
        errs = []
        for steps in (10, 20):
            h = 1.0 / steps
            y = 1.0
            for k in range(steps):
                y = rk4_step(f, k * h, y, h)
            errs.append(abs(y - exact))
        assert 16.0 * 0.9 <= errs[0] / errs[1] <= 16.0 * 1.1


class TestHomogeneous:
    def test_pde_mean_mode_tracks_scalar_equation(self):
        # On homogeneous data the PDE collapses to the scalar mean-mode
        # equation; the default stepper must stay homogeneous and converge
        # to the accurate scalar reference at its formal (second) order.
        p = problem(base_scale=1.3)
        ref = oracle.homogeneous_potential_oracle(1.3, np.array([1.0]))[0]
        errs = []
        for dt in (0.025, 0.0125, 0.00625):
            res = p.run(FlowOptions(t_end=1.0, dt_max=dt, sample_interval=0.5))
            phi = res.final_phi
            assert np.max(phi) - np.min(phi) < 1e-12  # stays homogeneous
            errs.append(abs(float(phi[0, 0, 0, 0]) - ref))
        assert errs[-1] < 1e-6
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.6 < order < 2.4

    def test_normalized_run_stays_at_zero(self):
        p = problem()
        res = p.run(FlowOptions(t_end=0.5, dt_max=0.01, sample_interval=0.25))
        assert np.max(np.abs(res.final_phi)) < 1e-11


class TestRunMechanics:
    def test_sample_grid_and_snapshots(self):
        p = problem(psi0_preset="mixed", psi0_amplitude=0.02)
        res = p.run(
            FlowOptions(t_end=0.3, dt_max=0.01, sample_interval=0.1),
            snapshot_times=(0.0, 0.2),
        )
        assert [s.t for s in res.states] == pytest.approx([0.1, 0.2, 0.3])
        assert set(res.snapshots) == {0.0, 0.2}
        assert res.states[-1].steps == res.total_steps

    def test_deterministic_reruns(self):
        p = problem(psi0_preset="mixed", psi0_amplitude=0.03)
        opts = FlowOptions(t_end=0.2, dt_max=0.005, sample_interval=0.1)
        r1 = p.run(opts)
        r2 = p.run(opts)
        assert np.array_equal(r1.final_phi, r2.final_phi)
        assert [s.sup_phi for s in r1.states] == [s.sup_phi for s in r2.states]

    def test_halving_exhaustion_propagates(self, monkeypatch):
        p = problem()
        calls = {"n": 0}

        def always_lost(u, t):
            calls["n"] += 1
            raise PositivityLost("forced")

        monkeypatch.setattr(p, "_forcing", always_lost)
        with pytest.raises(PositivityLost):
            p.run(FlowOptions(t_end=0.1, dt_max=0.05, max_halvings=3, sample_interval=0.1))
        assert calls["n"] == 4  # initial try plus three halvings

    def test_nan_state_is_not_retried_by_halving(self, monkeypatch):
        # From the second evaluation on, the metric is NaN; the run must stop
        # at once instead of halving dt max_halvings times.
        p = problem()
        calls = {"n": 0}
        original = p._forcing

        def poisoned(u, t):
            calls["n"] += 1
            return original(u if calls["n"] == 1 else u * np.nan, t)

        monkeypatch.setattr(p, "_forcing", poisoned)
        with pytest.raises(NonFiniteValue):
            p.run(FlowOptions(t_end=0.1, dt_max=0.05, max_halvings=40, sample_interval=0.1))
        assert calls["n"] == 2

    @pytest.mark.parametrize("call, value", [(5, -np.inf), (6, np.inf), (7, np.inf)])
    def test_infinite_block_entry_is_not_retried_by_halving(self, monkeypatch, call, value):
        # irfft calls 1-4 are the start-up blocks, 5-8 the first candidate's
        # bb, ff, Re bf, Im bf.  -inf in bb reaches its minimum; +inf in ff
        # keeps every minimum finite and shows in the transformed rhs; +inf
        # in Re bf drives det to -inf.  Each stops the run on that step.
        p = problem(psi0_preset="mixed", psi0_amplitude=0.02)
        irfft_calls = {"n": 0}
        irfft = p.grid.irfft

        def poisoned_irfft(spec, **kw):
            irfft_calls["n"] += 1
            out = irfft(spec, **kw)
            if irfft_calls["n"] == call:
                out[1, 2, 3, 4] = value
            return out

        forcing_calls = {"n": 0}
        forcing = p._forcing

        def counted(u, t):
            forcing_calls["n"] += 1
            return forcing(u, t)

        monkeypatch.setattr(p.grid, "irfft", poisoned_irfft)
        monkeypatch.setattr(p, "_forcing", counted)
        with pytest.raises(NonFiniteValue):
            p.run(FlowOptions(t_end=0.1, dt_max=0.05, max_halvings=40, sample_interval=0.1))
        assert forcing_calls["n"] == 2

    def test_samples_never_pass_t_end(self):
        res = problem().run(FlowOptions(t_end=1.0, dt_max=0.0125, sample_interval=0.6))
        assert res.final_t == 1.0
        assert [s.t for s in res.states] == [0.6, 1.0]

    def test_commensurate_sample_times_are_the_multiples(self):
        # Every shipped config and benchmark workload samples at multiples
        # that divide t_end; those event lists are the rounded multiples.
        for t_end, interval in ((8.0, 0.1), (6.0, 0.2), (8.0, 0.05), (0.125, 0.125),
                                (3.0, 0.5), (10.0, 0.5), (1.0, 0.5)):
            n = round(t_end / interval)
            expected = [round(k * interval, 12) for k in range(1, n + 1)]
            assert sample_times(t_end, interval) == expected
        assert sample_times(1.0, 0.6) == [0.6, 1.0]
        assert sample_times(0.3, 0.7) == [0.3]

    def test_t_end_within_the_event_slack_of_a_multiple_is_one_event(self):
        # 0.1 and round(t_end, 12) = 0.100000000001 are one point to the run
        # loop; as two events the second sample would take no step and find
        # no F' or blocks from a step that landed on it.
        t_end = 0.1000000000006
        assert sample_times(t_end, 0.05) == [0.05, 0.1]
        res = problem().run(FlowOptions(t_end=t_end, dt_max=0.01, sample_interval=0.05))
        assert [s.t for s in res.states] == [0.05, 0.1]

    def test_sample_within_the_event_slack_of_a_snapshot_takes_its_step(self):
        # The one sample, round(t_end, 12) = 0.100000000001, lies within the
        # event slack of the snapshot at 0.1, so no step lands on it: the step
        # that landed on the snapshot keeps F' and the blocks for it.
        p = problem(psi0_preset="mixed", psi0_amplitude=0.02)
        res = p.run(FlowOptions(t_end=0.100000000001, dt_max=0.01, sample_interval=0.3),
                    snapshot_times=(0.1,))
        ref = p.run(FlowOptions(t_end=0.1, dt_max=0.01, sample_interval=0.3))
        assert res.total_steps == ref.total_steps == 10
        assert list(res.snapshots) == [0.1]
        assert np.array_equal(res.snapshots[0.1], ref.final_phi)
        (state,), (want,) = res.states, ref.states
        assert state.t == 0.100000000001
        assert (state.sup_phi, state.sup_phidot, state.steps) == (
            want.sup_phi, want.sup_phidot, want.steps)
        assert (state.eig_min, state.eig_max) == pytest.approx((want.eig_min, want.eig_max),
                                                               rel=1e-10)

    def test_commensurate_intervals_keep_their_step_counts(self):
        # the separable32 workload's 20 steps; generic16's 32 a sample
        p = problem()
        run = p.run(FlowOptions(t_end=0.125, dt_max=0.00625, sample_interval=0.125))
        assert run.total_steps == 20
        run = p.run(FlowOptions(t_end=0.4, dt_max=0.00625, sample_interval=0.2))
        assert [s.steps for s in run.states] == [32, 64]


class TestWorkingSet:
    # Mixed data.  The state a run keeps is four half spectra.  The limits
    # sit just above the row-block stepper (16^4: 11.9, 6.3 and 1.0 fields;
    # 32^4: 11.4) and below the stepper whose update, forcing and sample
    # formed whole-field temporaries (13.7, 7.4 and 3.1; 13.3).

    def test_run_peak(self, traced_fields):
        p = problem(16, psi0_preset="mixed")
        opts = FlowOptions(t_end=0.05, dt_max=0.00625, sample_interval=0.025)
        assert traced_fields(lambda: p.run(opts))[1] <= 12.0

    def test_run_peak_at_32(self, traced_fields):
        p = problem(32, psi0_preset="mixed")
        opts = FlowOptions(t_end=0.025, dt_max=0.00625, sample_interval=0.0125)
        assert traced_fields(lambda: p.run(opts), (32,) * 4)[1] <= 12.0

    def _monitored_run_peak(self, traced_fields, n):
        p = problem(n, psi0_preset="mixed", base_scale=1.2)
        record = MonitorEngine(p).record
        opts = FlowOptions(t_end=0.025, dt_max=0.00625, sample_interval=0.0125)
        return traced_fields(lambda: p.run(opts, sampler=record), (n,) * 4)[1]

    def test_monitored_run_peak(self, traced_fields):
        # The record sets a monitored run's peak: 32.3 fields with F' let go
        # of and bf formed per block (35.2 with F' and a whole complex bf
        # held through the record).
        assert self._monitored_run_peak(traced_fields, 16) <= 34.0

    def test_monitored_run_peak_at_32(self, traced_fields):
        # 18.6 fields at 32^4 (21.5 with F' and bf held).
        assert self._monitored_run_peak(traced_fields, 32) <= 19.5

    def _stepped(self, keep=True):
        p = problem(16, psi0_preset="mixed")
        stepper = _Imex2Stepper(p)
        stepper(0.0, 0.00625, keep)
        stepper(0.00625, 0.00625, keep)
        return p, stepper

    def test_one_step(self, traced_fields):
        # A step that lands on no sample, as a run takes it: the candidate
        # reuses the buffer of the level that left the history.
        _, stepper = self._stepped(keep=False)
        out, fields = traced_fields(lambda: stepper(0.0125, 0.00625))
        assert fields <= 6.5
        assert out is None

    def test_one_sample(self):
        # The blocks and F' are traced, as in a run, so a sample that lets
        # go of them is credited for it.
        p, stepper = self._stepped()
        tracemalloc.start()
        try:
            forcing, blocks = stepper(0.0125, 0.00625, keep=True)
            phi = stepper.phi()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            p.sample_state(0.01875, phi, forcing, blocks, 3, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8 * 16**4) <= 1.25

    def test_only_steps_that_land_on_a_sample_keep_the_forcing_and_blocks(self, monkeypatch):
        p = problem(psi0_preset="mixed", psi0_amplitude=0.02)
        held = []
        call = _Imex2Stepper.__call__

        def recorded(self, t, dt, keep=False):
            out = call(self, t, dt, keep)
            held.append((round(t + dt, 12), out is not None))
            return out

        monkeypatch.setattr(_Imex2Stepper, "__call__", recorded)
        res = p.run(FlowOptions(t_end=0.1, dt_max=0.01, sample_interval=0.05),
                    snapshot_times=(0.025,))
        assert [s.t for s in res.states] == [0.05, 0.1]
        assert len(held) == res.total_steps == 11  # the snapshot splits 0-0.05 in 3 + 3
        assert [t for t, kept in held if kept] == [0.05, 0.1]
        assert 0.025 in [t for t, _ in held]


def _whole_field_update(stepper, t, dt):
    """The imex2 update of the stepper's state as one whole-field formula."""
    r = 0.0 if stepper.u_prev is None else dt / stepper.h_prev
    r = 0.0 if r > flow._R_MAX else r
    a0, a2 = flow._bdf2_weights(r)
    s_bb, s_ff, _, _ = stepper.problem.grid._half_hessian_syms
    lam = stepper.mu[0] * s_bb + stepper.mu[1] * s_ff
    inv = 1.0 / ((a0 + dt) - dt * lam)
    new = (1.0 - dt * lam) * (1.0 + r) * inv * stepper.u
    new += inv * (dt * (1.0 + r)) * stepper.f
    if r:
        new += (lam * (dt * r) - a2) * inv * stepper.u_prev
        new -= inv * (dt * r) * stepper.f_prev
    return new


def _whole_field_forcing(p, u, t):
    """F', the blocks and the midranges of FlowProblem._forcing as whole-field formulas."""
    grid, geom, e = p.grid, p.geometry, math.exp(-t)
    w = geom.psi0_spec * e + u
    bb, ff, re, im = [grid.irfft(s * w) for s in grid._half_hessian_syms]
    bb += (1.0 + (geom.spec.base_scale - 1.0) * e) * geom.chi
    ff += e * geom.spec.fiber_scale * geom.g_fiber
    det = bb * ff - re * re - im * im
    mu = tuple(0.5 * (float(np.max(c)) + float(np.min(c))) for c in (ff / det, bb / det))
    return np.log(det) + t - p.log_omega, (bb, re, im, ff), mu


class TestRowBlocks:
    # 1600 points make ragged last blocks: 5 + 3 rows of an 8^4 half
    # spectrum (320 points a row) and 3 + 3 + 2 rows of an 8^4 field (512).
    @pytest.fixture(params=[None, 1600], ids=["default", "ragged"])
    def block_points(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(discretization, "_BLOCK_POINTS", request.param)
        return request.param

    def test_ragged_blocks_cover_the_rows(self, monkeypatch):
        row_blocks = discretization.row_blocks
        assert row_blocks((16, 16, 16, 16)) == [slice(i, i + 2) for i in range(0, 16, 2)]
        assert row_blocks((32, 32, 32, 17)) == [slice(i, i + 1) for i in range(32)]
        monkeypatch.setattr(discretization, "_BLOCK_POINTS", 1600)
        assert row_blocks((8, 8, 8, 5)) == [slice(0, 5), slice(5, 10)]
        assert row_blocks((8, 8, 8, 8)) == [slice(0, 3), slice(3, 6), slice(6, 9)]

    def test_update_is_the_whole_field_formula(self, block_points):
        p = spectral_problem(8)
        stepper = _Imex2Stepper(p)
        ratios = []
        for k, dt in enumerate((0.01, 0.01, 0.005, 0.02)):  # r = 0, 1, 0.5, then 4 restarts
            t = 0.01 * k
            if stepper.f is None:
                forcing, _, stepper.mu = p._forcing(stepper.u, t)
                stepper.f = p.grid.rfft(forcing)
            ratios.append(0.0 if stepper.u_prev is None else dt / stepper.h_prev)
            want = _whole_field_update(stepper, t, dt)
            stepper(t, dt)
            assert np.array_equal(stepper.u, want)
        assert ratios == [0.0, 1.0, 0.5, 4.0]

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_forcing_is_the_whole_field_formula(self, block_points, t):
        p = spectral_problem(8)
        x, _, u, v = p.grid.coords
        phi = 0.002 * np.cos(TP * x) * np.sin(TP * (u + 2 * v)) * np.ones(p.grid.shape)
        spec = p.grid.rfft(phi)
        forcing, blocks, mu = p._forcing(spec, t)
        want_forcing, want_blocks, want_mu = _whole_field_forcing(p, spec, t)
        assert np.array_equal(forcing, want_forcing) and mu == want_mu
        assert all(np.array_equal(a, b) for a, b in zip(blocks, want_blocks))

    def test_sample_extrema_are_the_whole_field_ones(self, block_points):
        p = spectral_problem(8)
        stepper = _Imex2Stepper(p)
        rhs, blocks = stepper(0.0, 0.01, keep=True)
        phi = stepper.phi()
        rhs -= phi
        ref = p.geometry.tilde(0.01)
        lo, hi = relative_eigen_bounds(HermitianField.from_parts(*blocks), ref)
        assert discretization.eigen_range(blocks, ref) == (float(np.min(lo)), float(np.max(hi)))
        for x in (phi, rhs, -np.abs(rhs), np.zeros(3), np.array([-0.0, -0.0])):
            assert repr(discretization.sup_abs(x)) == repr(float(np.max(np.abs(x))))
        assert math.isnan(discretization.sup_abs(np.array([1.0, np.nan, -2.0])))

    def test_a_broadcast_density_gives_the_full_shape_results(self, block_points):
        grid = SpectralGrid(8, 8)
        geom = SurrogateGeometry(grid, GeometrySpec(psi0_preset="mixed", psi0_amplitude=0.02))
        x, _, u, _ = grid.coords
        phi = 0.003 * np.sin(TP * (x + u)) * np.ones(grid.shape)
        out = []
        for dens in (np.full((1, 1, 1, 1), 1.3), np.full(grid.shape, 1.3)):
            rhs, g = FlowProblem(geom, omega_density=dens).rhs(phi, 0.4)
            out.append((rhs, g.bb, g.bf, g.ff))
        assert all(np.array_equal(a, b) for a, b in zip(*out))


def _recorded_ratios(monkeypatch):
    """Collect the step ratio of every BDF2 update the stepper forms."""
    ratios = []
    weights = flow._bdf2_weights

    def recording(r):
        ratios.append(r)
        return weights(r)

    monkeypatch.setattr(flow, "_bdf2_weights", recording)
    return ratios


class TestStepRatio:
    R_MAX = 1.0 + math.sqrt(2.0)

    def test_non_commensurate_sample_interval(self, monkeypatch):
        # Clipping dt_max = 0.01 steps to samples 0.0125 apart gave r = 4;
        # equal steps of 0.00625 keep r = 1 up to rounding.
        ratios = _recorded_ratios(monkeypatch)
        p = problem(psi0_preset="mixed", psi0_amplitude=0.02)
        res = p.run(FlowOptions(t_end=0.1, dt_max=0.01, sample_interval=0.0125))
        assert res.total_steps == 16
        assert ratios[0] == 0.0  # the one-step start-up
        assert max(ratios) == pytest.approx(1.0, abs=1e-9)

    def test_long_step_after_short_ones_restarts(self, monkeypatch):
        # A snapshot 0.001 past a sample, then a step of 0.0099: r = 9.9
        # restarts; so does the full step after a twice-halved one (r ~ 4).
        ratios = _recorded_ratios(monkeypatch)
        p = problem(psi0_preset="mixed", psi0_amplitude=0.02)
        calls = {"n": 0}
        forcing = p._forcing

        def twice_lost(u, t):
            calls["n"] += 1
            if calls["n"] in (4, 5):
                raise PositivityLost("forced")
            return forcing(u, t)

        monkeypatch.setattr(p, "_forcing", twice_lost)
        p.run(FlowOptions(t_end=0.2, dt_max=0.01, sample_interval=0.1),
              snapshot_times=(0.101,))
        assert max(ratios) <= self.R_MAX
        restarts = [k for k, r in enumerate(ratios) if r == 0.0]
        # the start-up; the step after the third, which took three attempts
        # (dt, dt/2, dt/4; ratios 2-4); and the step after the snapshot's
        assert restarts[:2] == [0, 5]
        assert ratios[2:5] == pytest.approx([1.0, 0.5, 0.25])
        assert len(restarts) == 3


class SixTransformImex2:
    """The imex2 stepper on a physical state, six transforms a step.

    A transcription of the stepper before it carried rfft(phi): phi is
    transformed back every step, the rhs keeps its -phi and is rfft'd at the
    start of the next step, and the metric is hat(t) plus the Hessian.
    """

    def __init__(self, p):
        self.p = p
        self.omega0 = p.geometry.initial_form()
        self.f_now = self.g_now = self.spec_now = None
        self.spec_prev = self.f_prev_spec = self.h_prev = None

    def rhs_from_spec(self, w, w_spec, t):
        grid = self.p.grid
        s_bb, s_ff, s_re, s_im = grid._half_hessian_syms
        hat = oracle.hat(self.omega0, self.p.geometry.chi, t)
        g = HermitianField(hat.bb + grid.irfft(s_bb * w_spec),
                           hat.bf + (grid.irfft(s_re * w_spec) + 1j * grid.irfft(s_im * w_spec)),
                           hat.ff + grid.irfft(s_ff * w_spec))
        return t + np.log(g.det()) - self.p.log_omega - w, g

    def __call__(self, phi, t, dt):
        grid = self.p.grid
        s_bb, s_ff, _, _ = grid._half_hessian_syms
        if self.spec_now is None:
            self.spec_now = grid.rfft(phi)
        if self.f_now is None:
            self.f_now, self.g_now = self.rhs_from_spec(phi, self.spec_now, t)
        det = self.g_now.det()
        coef_b, coef_f = self.g_now.ff / det, self.g_now.bb / det
        mu_b = 0.5 * (float(np.max(coef_b)) + float(np.min(coef_b)))
        mu_f = 0.5 * (float(np.max(coef_f)) + float(np.min(coef_f)))
        lam = mu_b * s_bb + mu_f * s_ff - 1.0
        u = self.spec_now
        f_now_spec = grid.rfft(self.f_now)
        if self.spec_prev is None:
            new_spec = (u + dt * (f_now_spec - lam * u)) / (1.0 - dt * lam)
        else:
            r = dt / self.h_prev
            a0, a1, a2 = (1.0 + 2.0 * r) / (1.0 + r), -(1.0 + r), r * r / (1.0 + r)
            rem_now = f_now_spec - lam * u
            rem_prev = self.f_prev_spec - lam * self.spec_prev
            new_spec = (-a1 * u - a2 * self.spec_prev
                        + dt * ((1.0 + r) * rem_now - r * rem_prev)) / (a0 - dt * lam)
        phi_new = grid.irfft(new_spec)
        f_new, g_new = self.rhs_from_spec(phi_new, new_spec, t + dt)
        self.spec_prev, self.f_prev_spec, self.h_prev = u, f_now_spec, dt
        self.f_now, self.g_now, self.spec_now = f_new, g_new, new_spec
        return phi_new


def spectral_problem(n):
    # psi_0, base_scale and fiber_scale all enter the folded reference form
    return problem(n, psi0_preset="mixed", psi0_amplitude=0.03, base_scale=1.2,
                   fiber_scale=1.5)


class TestSpectralStepper:
    def test_five_transforms_a_step_and_phi_only_at_events(self, monkeypatch):
        p = spectral_problem(8)
        counts = {"rfft": 0, "irfft": 0}
        for name in counts:
            def counted(arr, _name=name, _fn=getattr(p.grid, name), **kw):
                counts[_name] += 1
                return _fn(arr, **kw)
            monkeypatch.setattr(p.grid, name, counted)
        per_call = []
        call = _Imex2Stepper.__call__

        def recorded(self, t, dt, keep=False):
            before = dict(counts)
            out = call(self, t, dt, keep)
            per_call.append((counts["rfft"] - before["rfft"],
                             counts["irfft"] - before["irfft"]))
            return out

        monkeypatch.setattr(_Imex2Stepper, "__call__", recorded)
        res = p.run(FlowOptions(t_end=0.3, dt_max=0.01, sample_interval=0.1),
                    sampler=lambda *args: None, snapshot_times=(0.15,))
        assert res.total_steps == len(per_call) == 30
        # the first call also evaluates the start-up state
        assert per_call[0] == (2, 8)
        assert set(per_call[1:]) == {(1, 4)}
        events = 4  # samples 0.1, 0.2, 0.3 and the snapshot 0.15
        assert counts == {"rfft": 31, "irfft": 4 * 31 + events}

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_the_six_transform_stepper(self, monkeypatch, n):
        p = spectral_problem(n)
        calls = {"n": 0}
        forcing = p._forcing

        def lost_once(u, t):
            calls["n"] += 1
            if calls["n"] == 10:
                raise PositivityLost("forced")
            return forcing(u, t)

        monkeypatch.setattr(p, "_forcing", lost_once)
        accepted = []
        call = _Imex2Stepper.__call__

        def recorded(self, t, dt, keep=False):
            out = call(self, t, dt, keep)
            accepted.append((t, dt))
            return out

        monkeypatch.setattr(_Imex2Stepper, "__call__", recorded)
        res = p.run(FlowOptions(t_end=0.3, dt_max=0.00625, sample_interval=0.1))
        dts = [dt for _, dt in accepted]
        assert len(accepted) >= 40
        assert min(dts) == pytest.approx(0.00625 / 2)  # the forced halving
        ratios = [b / a for a, b in zip(dts, dts[1:])]
        assert max(ratios) > 1.5  # a variable-ratio BDF2 step follows it

        old = SixTransformImex2(p)
        phi = np.zeros(p.grid.shape)
        for t, dt in accepted:
            phi = old(phi, t, dt)
        assert np.max(np.abs(res.final_phi - phi)) < 1e-13

    def test_sampler_gets_the_problem_rhs_and_metric(self, monkeypatch):
        # The sampler gets the state just appended, whose sup |phi_dot| is
        # that of the problem's rhs, and g's blocks (bb, Re bf, Im bf, ff);
        # the landing step's F' is let go of before the call.
        p = spectral_problem(8)
        forcings = []
        call = _Imex2Stepper.__call__

        def recorded(self, t, dt, keep=False):
            out = call(self, t, dt, keep)
            if out is not None:
                forcings.append(weakref.ref(out[0]))
            return out

        def sampler(state, phi, blocks):
            seen.append((state, phi, blocks, forcings[-1]() is None))

        seen = []
        monkeypatch.setattr(_Imex2Stepper, "__call__", recorded)
        res = p.run(FlowOptions(t_end=0.2, dt_max=0.01, sample_interval=0.05), sampler=sampler)
        assert len(seen) == len(forcings) == 4
        for (state, phi, blocks, released), kept in zip(seen, res.states):
            assert state is kept and released
            ref_rhs, ref_g = p.rhs(phi, state.t)
            assert abs(state.sup_phidot - np.max(np.abs(ref_rhs))) < 1e-13
            for block, ref in zip(blocks, (ref_g.bb, ref_g.bf.real, ref_g.bf.imag, ref_g.ff)):
                assert np.max(np.abs(block - ref)) < 1e-13


class TestSchemeAgreement:
    def test_imex2_matches_rk4_short_run(self):
        # A fixed-step classical RK4 loop over the problem's rhs solves the
        # same equation; at this dt the gap is the semi-implicit scheme's
        # O(dt^2) truncation error.
        p = problem(n=8, psi0_preset="mixed", psi0_amplitude=0.03)
        t_end, steps = 0.25, 125
        r_im = p.run(FlowOptions(t_end=t_end, dt_max=0.002, sample_interval=t_end))
        h = t_end / steps
        phi = np.zeros(p.grid.shape)
        for k in range(steps):
            phi = rk4_step(lambda tt, y: p.rhs(y, tt)[0], k * h, phi, h)
        gap = np.max(np.abs(r_im.final_phi - phi))
        assert gap < 1e-5

    def test_imex2_stable_through_late_collapse(self):
        # The explicit scheme's stability bound decays like e^{-t}; the
        # semi-implicit default must hold a fixed dt deep into the collapse
        # and keep the decaying profile (this run blows up near t ~ 4 with
        # any fixed-dt explicit treatment of the fiber stiffness).
        p = problem(n=8, psi0_preset="mixed", psi0_amplitude=0.05)
        res = p.run(FlowOptions(t_end=8.0, dt_max=0.0125, sample_interval=1.0))
        sups = [s.sup_phi for s in res.states]
        assert all(b < a for a, b in zip(sups[1:], sups[2:]))  # monotone decay past t=2
        assert sups[-1] < 1e-4
        assert res.states[-1].eig_max < 1.001

    def test_separable_data_reduces_to_product_runs(self):
        grid = SpectralGrid(8, 8)
        nb = np.arange(8) / 8.0
        psi_b = 0.01 * np.cos(TP * nb)[:, None] * np.cos(TP * nb)[None, :]
        psi_f = 0.04 * np.cos(TP * nb)[:, None] * np.ones((1, 8))
        psi0 = psi_b[:, :, None, None] + psi_f[None, None, :, :]
        geom = SurrogateGeometry(grid, GeometrySpec(), psi0=psi0)
        p = FlowProblem(geom)
        t_end = 0.5
        res = p.run(FlowOptions(t_end=t_end, dt_max=0.002, sample_interval=t_end))
        ref = product_reduced_run(geom, psi_b, psi_f, t_end, dt=1e-4)
        # gap is the 4D stepper's O(dt^2) truncation error against the
        # tightly stepped reduced reference
        assert np.max(np.abs(res.final_phi - ref)) < 1e-5
