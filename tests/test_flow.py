import numpy as np
import pytest

from krflow.discretization import SpectralGrid
from krflow.errors import ConfigInvalid, NonFiniteValue, PositivityLost
from krflow.flow import (
    FlowOptions,
    FlowProblem,
    HomogeneousCoefficients,
    _Imex2Stepper,
    homogeneous_potential,
    product_reduced_run,
    rk4_step,
    sample_times,
)
from krflow.geometry import GeometrySpec, SurrogateGeometry
from krflow import oracle

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

    def test_positivity_guard_raises(self):
        p = problem()
        x = p.grid.coords[0]
        bad = 0.2 * np.cos(TP * x) * np.ones(p.grid.shape)  # bb dips below zero
        with pytest.raises(PositivityLost):
            p.rhs(bad, 0.0)

    def test_nan_state_raises_non_finite_on_one_step(self):
        p = problem()
        phi = np.zeros(p.grid.shape)
        phi[1, 2, 3, 4] = np.nan
        with pytest.raises(NonFiniteValue):
            _Imex2Stepper(p)(phi, 0.0, 0.01)


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
    def test_coefficients_closed_form(self):
        hc = HomogeneousCoefficients(a0=1.5, b0=2.0)
        t = np.array([0.0, 1.0, 4.0])
        assert np.allclose(hc.a(t), 1.0 + 0.5 * np.exp(-t))
        assert np.allclose(hc.b(t), 2.0 * np.exp(-t))

    def test_potential_integrator_matches_reference(self):
        t_eval = np.array([0.5, 1.0, 2.0, 4.0])
        ours = homogeneous_potential(1.3, t_eval)
        ref = oracle.homogeneous_potential_oracle(1.3, t_eval)
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_pde_mean_mode_tracks_scalar_equation(self):
        # On homogeneous data the PDE collapses to the scalar mean-mode
        # equation; the default stepper must stay homogeneous and converge
        # to the accurate scalar reference at its formal (second) order.
        p = problem(base_scale=1.3)
        ref = homogeneous_potential(1.3, np.array([1.0]), dt=1e-5)[0]
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
    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigInvalid):
            FlowOptions(scheme="euler")

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

        def always_lost(w, spec, t):
            calls["n"] += 1
            raise PositivityLost("forced")

        monkeypatch.setattr(p, "_rhs_from_spec", always_lost)
        with pytest.raises(PositivityLost):
            p.run(FlowOptions(t_end=0.1, dt_max=0.05, max_halvings=3, sample_interval=0.1))
        assert calls["n"] == 4  # initial try plus three halvings

    def test_nan_state_is_not_retried_by_halving(self, monkeypatch):
        # From the second evaluation on, the metric is NaN; the run must stop
        # at once instead of halving dt max_halvings times.
        p = problem()
        calls = {"n": 0}
        original = p._rhs_from_spec

        def poisoned(w, spec, t):
            calls["n"] += 1
            return original(w, spec if calls["n"] == 1 else spec * np.nan, t)

        monkeypatch.setattr(p, "_rhs_from_spec", poisoned)
        with pytest.raises(NonFiniteValue):
            p.run(FlowOptions(t_end=0.1, dt_max=0.05, max_halvings=40, sample_interval=0.1))
        assert calls["n"] == 2

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


class TestSchemeAgreement:
    def test_imex2_matches_rk4_short_run(self):
        # The two steppers solve the same equation; at this dt the gap is
        # the semi-implicit scheme's O(dt^2) truncation error.
        p = problem(n=8, psi0_preset="mixed", psi0_amplitude=0.03)
        t_end = 0.25
        r_im = p.run(FlowOptions(t_end=t_end, dt_max=0.002, sample_interval=t_end))
        r_ex = p.run(
            FlowOptions(t_end=t_end, dt_max=0.002, scheme="rk4", sample_interval=t_end)
        )
        gap = np.max(np.abs(r_im.final_phi - r_ex.final_phi))
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
