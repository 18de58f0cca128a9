"""Tests for the hyperbolic-octagon base backend."""

import math

import numpy as np
import pytest

from krflow.errors import ConfigInvalid, NonFiniteValue
from krflow.oracle import rk4_step
from krflow.octagon import (
    ALPHA,
    BETAS,
    OctagonGrid,
    W0,
    W0_SQ,
    _cosh_dist,
    gauss_curvature,
    hyperbolic_density,
    in_octagon,
    origin_orbit,
    pair_apply,
    pair_derivative,
    reduce_to_fundamental,
    rkc_coefficients,
    rkc_step,
    run_base_flow,
    vertex_radius,
)


def bump_series(z):
    """Closed form of the orbit-sum bump, usable at arbitrary disk points."""
    total = np.zeros_like(np.real(z))
    for w in origin_orbit():
        total = total + np.exp(1.0 - _cosh_dist(z, w))
    return total


def word_by_word_orbit(cosh_cut, max_depth):
    """The breadth-first orbit search one word and one generator at a time:
    prune by the remaining reach, de-duplicate centers on 8 decimals."""
    gens = [np.array([[ALPHA, b], [np.conj(b), ALPHA]]) for b in BETAS]
    step = math.acosh(1.0 + 2.0 * W0_SQ / (1.0 - W0_SQ))
    d_cut = math.acosh(cosh_cut)

    def key(c):
        return (round(c.real, 8), round(c.imag, 8))

    seen = {key(0j)}
    centers = [0j]
    frontier = [np.eye(2, dtype=complex)]
    for depth in range(1, max_depth + 1):
        nxt = []
        budget = d_cut + step * (max_depth - depth)
        for mat in frontier:
            for gen in gens:
                child = gen @ mat
                c = child[0, 1] / child[1, 1]
                d = math.acosh(float(_cosh_dist(c, 0j)))
                if d > budget or key(c) in seen:
                    continue
                seen.add(key(c))
                nxt.append(child)
                if d <= d_cut:
                    centers.append(complex(c))
        frontier = nxt
    return np.array(centers)


def reference_dd_bar(func, z, h=1e-3):
    """Independent (d_xx + d_yy)/4 of an analytic callable via fourth-order
    central differences with a tiny step."""

    def second(shift):
        return (
            -func(z - 2 * shift)
            + 16.0 * func(z - shift)
            - 30.0 * func(z)
            + 16.0 * func(z + shift)
            - func(z + 2 * shift)
        ) / (12.0 * h * h)

    return 0.25 * (second(h) + second(1j * h))


def slice_dd_bar(field, h):
    """The rolled fourth-order stencil (f_xx + f_yy) / 4, written with
    slices; rows and columns within 2 of the box edge stay 0."""
    f = field
    c = f[2:-2, 2:-2]
    fxx = (-f[:-4, 2:-2] + 16.0 * f[1:-3, 2:-2] - 30.0 * c
           + 16.0 * f[3:-1, 2:-2] - f[4:, 2:-2]) / (12.0 * h * h)
    fyy = (-f[2:-2, :-4] + 16.0 * f[2:-2, 1:-3] - 30.0 * c
           + 16.0 * f[2:-2, 3:-1] - f[2:-2, 4:]) / (12.0 * h * h)
    out = np.zeros_like(f)
    out[2:-2, 2:-2] = 0.25 * (fxx + fyy)
    return out


def dense_ghost_values(grid, field):
    """Ghost values from a dense solve of (I - W_gh) q = W_int p, with the
    weights read row by row from the fold/read-off stencils."""
    pos = {int(g): i for i, g in enumerate(grid.ghost_flat)}
    interior = set(grid.interior_flat.tolist())
    flat = field.reshape(-1)
    mat = np.eye(len(pos))
    rhs = np.zeros(len(pos))
    for i, g in enumerate(grid.ghost_flat):
        cols, vals = grid._ghost_row(int(g))
        for col, w in zip(cols, vals):
            if col in pos:
                mat[i, pos[col]] -= w
            else:
                assert col in interior
                rhs[i] += w * flat[col]
    return np.linalg.solve(mat, rhs)


def operator_fields(grid):
    """The invariant bump and a seeded random field, zero off the interior."""
    bump = grid.invariant_bump()
    noise = np.random.default_rng(11).standard_normal((grid.n, grid.n))
    for f in (bump, noise):
        f[~grid.interior] = 0.0
    return [bump, noise]


def random_octagon_points(count, seed=0, r_cap=0.95):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        z = complex(2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0)
        if abs(z) < r_cap and in_octagon(z):
            pts.append(z)
    return np.array(pts)


class TestPairings:
    def test_unit_determinant(self):
        for k in range(8):
            assert abs(ALPHA**2 - abs(BETAS[k]) ** 2 - 1.0) < 1e-14

    def test_opposite_sides_are_inverse_maps(self):
        z = random_octagon_points(25, seed=1)
        for k in range(8):
            back = pair_apply((k + 4) % 8, pair_apply(k, z))
            assert np.max(np.abs(back - z)) < 1e-12

    def test_disk_is_preserved(self):
        rng = np.random.default_rng(2)
        z = 0.98 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        for k in range(8):
            assert np.max(np.abs(pair_apply(k, z))) < 1.0

    def test_pullback_preserves_hyperbolic_density(self):
        # lambda(gamma z) |gamma'(z)|^2 == lambda(z) characterizes isometries
        # of the conformal disk metric
        z = random_octagon_points(40, seed=3)
        lam = hyperbolic_density(z)
        for k in range(8):
            pulled = hyperbolic_density(pair_apply(k, z)) * np.abs(
                pair_derivative(k, z)
            ) ** 2
            assert np.max(np.abs(pulled - lam) / lam) < 1e-10


class TestFundamentalDomain:
    def test_vertex_radius_matches_quarter_power_of_two(self):
        assert vertex_radius() == pytest.approx(2.0 ** (-0.25), abs=1e-14)

    def test_reduction_lands_inside(self):
        rng = np.random.default_rng(4)
        pts = []
        while len(pts) < 150:
            z = complex(1.9 * (rng.random() - 0.5), 1.9 * (rng.random() - 0.5))
            if abs(z) < 0.97:
                pts.append(z)
        reduced = np.array([reduce_to_fundamental(p) for p in pts])
        assert np.all(in_octagon(reduced, tol=1e-10))
        # folding never moves a point farther from the origin
        assert np.all(np.abs(reduced) <= np.abs(np.array(pts)) + 1e-12)

    def test_interior_points_are_fixed(self):
        z = random_octagon_points(30, seed=5)
        for p in z:
            assert reduce_to_fundamental(complex(p)) == pytest.approx(p, abs=1e-14)


class TestOriginOrbit:
    def test_orbit_is_exhausted_at_default_depth(self):
        base = origin_orbit()
        deeper = origin_orbit(900.0, 8)
        assert base.size == deeper.size

    @pytest.mark.parametrize("cut", [(), (900.0, 8)])
    def test_batched_search_matches_the_word_by_word_search(self, cut):
        expected = word_by_word_orbit(*(cut or (900.0, 7)))
        assert np.array_equal(origin_orbit(*cut), expected)

    def test_bump_is_consistent_across_reduction(self):
        # the ghost machinery reads the bump at folded copies of exterior
        # points; the truncated orbit sum must agree across that fold
        from krflow.octagon import side_excess

        rng = np.random.default_rng(6)
        band = []
        while len(band) < 200:
            z = complex(1.9 * (rng.random() - 0.5), 1.9 * (rng.random() - 0.5))
            if abs(z) >= 0.95:
                continue
            if -0.25 < float(np.min(side_excess(z))) < 0.0:
                band.append(z)
        band = np.array(band)
        folded = np.array([reduce_to_fundamental(complex(p)) for p in band])
        defect = np.abs(bump_series(band) - bump_series(folded))
        assert np.max(defect) < 1e-9


class TestGhostLayer:
    def test_mesh_below_minimum_is_rejected(self):
        with pytest.raises(ConfigInvalid):
            OctagonGrid(n=40)

    def test_constants_are_reproduced_exactly(self):
        grid = OctagonGrid(n=48)
        field = np.zeros((grid.n, grid.n))
        field[grid.interior] = 3.5
        filled = grid.ghost_fill(field)
        assert np.max(np.abs(filled.flat[grid.ghost_flat] - 3.5)) < 1e-10

    @pytest.mark.parametrize("n", [48, 64])
    def test_ghost_fill_matches_dense_solve(self, n):
        grid = OctagonGrid(n=n)
        for field in operator_fields(grid):
            filled = grid.ghost_fill(field)
            ref = dense_ghost_values(grid, field)
            gap = np.max(np.abs(filled.flat[grid.ghost_flat] - ref))
            assert gap < 1e-12 * max(1.0, np.max(np.abs(ref)))
            assert np.array_equal(filled[grid.interior], field[grid.interior])

    def test_ghosts_match_invariant_function(self):
        errs = {}
        for n in (64, 128):
            grid = OctagonGrid(n=n)
            safe = np.abs(grid.z) < 0.999
            field = np.zeros((grid.n, grid.n))
            field[safe] = bump_series(grid.z[safe])
            exact_ghost = field.flat[grid.ghost_flat].copy()
            field[~grid.interior] = 0.0
            filled = grid.ghost_fill(field)
            errs[n] = np.max(np.abs(filled.flat[grid.ghost_flat] - exact_ghost))
        assert errs[64] < 1e-4
        assert errs[128] < 1e-5
        assert errs[64] / errs[128] > 4.0


class TestOperators:
    def test_dd_bar_converges_at_fourth_order_in_the_core(self):
        errs = {}
        for n in (64, 128):
            grid = OctagonGrid(n=n)
            safe = np.abs(grid.z) < 0.999
            field = np.zeros((grid.n, grid.n))
            field[safe] = bump_series(grid.z[safe])
            field[~grid.interior] = 0.0
            dd = grid.dd_bar(grid.ghost_fill(field))
            mask = grid.interior & (np.abs(grid.z) <= 0.55)
            ref = reference_dd_bar(bump_series, grid.z[mask])
            errs[n] = np.max(np.abs(dd[mask] - ref))
        assert errs[64] < 1e-3
        assert errs[128] < 5e-5
        # formal ratio is (h_64 / h_128)^4 ~ 24; boundary coupling costs a bit
        assert errs[64] / errs[128] > 12.0

    @pytest.mark.parametrize("n", [48, 64])
    def test_assembled_dd_bar_matches_the_slice_stencil(self, n):
        grid = OctagonGrid(n=n)
        for field in operator_fields(grid):
            filled = grid.ghost_fill(field)
            dd = grid.dd_bar(filled)
            ref = slice_dd_bar(filled, grid.h)[grid.interior]
            gap = np.max(np.abs(dd[grid.interior] - ref))
            assert gap <= 1e-12 * np.max(np.abs(ref))
            assert not np.any(dd[~grid.interior])

    def test_dd_bar_is_bounded_up_to_the_boundary(self):
        grid = OctagonGrid(n=64)
        safe = np.abs(grid.z) < 0.999
        field = np.zeros((grid.n, grid.n))
        field[safe] = bump_series(grid.z[safe])
        field[~grid.interior] = 0.0
        dd = grid.dd_bar(grid.ghost_fill(field))
        ref = reference_dd_bar(bump_series, grid.z[grid.interior])
        assert np.max(np.abs(dd[grid.interior] - ref)) < 2e-2

    def test_einstein_identity_of_the_background(self):
        # dd_bar log(lambda) == lambda for the curvature -2 density,
        # checked against an independent high-accuracy difference
        z = random_octagon_points(60, seed=7, r_cap=0.8)
        lam = hyperbolic_density(z)
        lhs = reference_dd_bar(lambda w: np.log(hyperbolic_density(w)), z)
        assert np.max(np.abs(lhs - lam) / lam) < 1e-8

    def test_curvature_of_the_background_is_exactly_minus_two(self):
        grid = OctagonGrid(n=48)
        k_field = gauss_curvature(grid, np.zeros((grid.n, grid.n)))
        vals = k_field[grid.interior]
        assert np.max(np.abs(vals + 2.0)) < 1e-12

    def test_curvature_of_a_nan_state_raises(self):
        grid = OctagonGrid(n=48)
        phi = grid.invariant_bump()
        phi.flat[grid.interior_flat[grid.interior_flat.size // 2]] = np.nan
        with pytest.raises(NonFiniteValue):
            gauss_curvature(grid, phi)


class TestBaseFlow:
    def test_zero_potential_is_an_exact_fixed_point(self):
        grid = OctagonGrid(n=48)
        result = run_base_flow(
            grid, phi0=np.zeros((grid.n, grid.n)), t_end=0.2, sample_interval=0.1
        )
        assert result.sup_phi[-1] < 1e-15

    def test_flow_decays_toward_the_hyperbolic_metric(self):
        grid = OctagonGrid(n=48)
        result = run_base_flow(grid, t_end=3.0, sample_interval=0.5)
        sups = result.sup_phi
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert result.rel_dev[-1] < 1e-4
        # transient curvature is already nearly constant at coarse mesh
        assert result.curvature_spread < 5e-3

    def test_nan_state_raises_on_the_first_right_hand_side(self):
        grid = OctagonGrid(n=48)
        phi0 = grid.invariant_bump()
        phi0.flat[grid.interior_flat[grid.interior_flat.size // 2]] = np.nan
        fills = []
        ghost_fill = grid.ghost_fill

        def counted(field):
            fills.append(1)
            return ghost_fill(field)

        grid.ghost_fill = counted
        with pytest.raises(NonFiniteValue):
            run_base_flow(grid, phi0=phi0, t_end=0.5)
        assert len(fills) <= 1

    def test_right_hand_sides_are_counted_exactly(self):
        # s rhs a step (s = 5 at n = 48), one fill and one dd_bar for each
        # rhs, one more of each per sample, and two for the curvature
        grid = OctagonGrid(n=48)
        calls = {"ghost_fill": 0, "dd_bar": 0}
        for name in calls:
            def counted(field, _name=name, _fn=getattr(grid, name)):
                calls[_name] += 1
                return _fn(field)
            setattr(grid, name, counted)
        result = run_base_flow(grid, t_end=0.25, sample_interval=0.1)
        assert result.ts == [0.1, 0.2, 0.25]
        assert result.rhs_evals == 5 * result.total_steps == 5 * 25
        expected = result.rhs_evals + len(result.ts) + 2
        assert calls == {"ghost_fill": expected, "dd_bar": expected}

    @pytest.mark.parametrize("kw", [{"cfl": 0.0}, {"dt_max": -0.01}])
    def test_non_positive_step_settings_are_rejected(self, kw):
        # either would leave the stage search or the time loop without end
        with pytest.raises(ConfigInvalid):
            run_base_flow(OctagonGrid(n=48), t_end=0.1, **kw)

    def test_non_commensurate_interval_ends_at_t_end(self):
        grid = OctagonGrid(n=48)
        result = run_base_flow(grid, t_end=1.0, sample_interval=0.6)
        assert result.ts == [0.6, 1.0]

    def test_cli_entry_writes_series_and_summary(self, tmp_path):
        from krflow.cli import parse_config

        cfg = parse_config(
            "[geometry]\n"
            "base_backend = bolza_octagon\n"
            "base_grid = 64\n"
            "[flow]\n"
            "t_end = 1.0\n"
            "dt_sample = 0.5\n"
        )
        from krflow.cli import run_octagon_simulation

        out = tmp_path / "oct"
        code = run_octagon_simulation(cfg, str(out), quiet=True)
        assert code == 0
        series = (out / "octagon_series.csv").read_text().strip().splitlines()
        assert series[0] == "t,sup_phi,rel_dev"
        assert len(series) == 3  # two samples after the header
        summary = (out / "octagon_summary.txt").read_text()
        assert "curvature_mean" in summary
        # 100 steps of 7 stages at n = 64
        assert "total_steps = 100\nrhs_evals = 700\n" in summary

    def test_cli_entry_honours_dt_sample(self, tmp_path):
        from krflow.cli import parse_config
        from krflow.cli import run_octagon_simulation

        cfg = parse_config(
            "[geometry]\n"
            "base_backend = bolza_octagon\n"
            "base_grid = 64\n"
            "[flow]\n"
            "t_end = 1.0\n"
            "dt_sample = 0.1\n"
        )
        out = tmp_path / "oct"
        assert run_octagon_simulation(cfg, str(out), quiet=True) == 0
        rows = (out / "octagon_series.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == pytest.approx(
            [0.1 * k for k in range(1, 11)]
        )


class TestRungeKuttaChebyshev:
    @pytest.mark.parametrize("s", range(2, 11))
    def test_step_is_stable_on_the_real_interval(self, s):
        coeffs = rkc_coefficients(s)
        beta = coeffs[0]
        # the damped interval of Verwer, Hundsdorfer & Sommeijer (1990)
        assert beta == pytest.approx((2.0 / 3.0) * (s * s - 1) * (1.0 - 4.0 / 195.0), rel=0.01)
        z = np.linspace(-beta, 0.0, 20001)
        amp = rkc_step(lambda y: z * y, np.ones_like(z), 1.0, coeffs)
        assert np.max(np.abs(amp)) <= 1.0 + 1e-12

    def test_second_order_at_a_fixed_stage_count(self):
        # error at t = 1 against a fine RK4 reference; cfl moves with dt so
        # that s = 6 throughout (beta(5) < dt * stiff / cfl <= beta(6))
        grid = OctagonGrid(n=64)
        phi0 = grid.invariant_bump()
        idx = grid.interior
        inv_lam = 1.0 / grid.lam_hyp[idx]

        def rhs(_t, p):
            out = np.zeros_like(p)
            out[idx] = np.log(1.0 + grid.dd_bar(grid.ghost_fill(p))[idx] * inv_lam) - p[idx]
            return out

        ref = phi0.copy()
        ref[~idx & ~grid.ghosts] = 0.0
        for k in range(1000):  # RK4 is stable up to dt ~ 1.06e-3 here
            ref = rk4_step(rhs, k * 1e-3, ref, 1e-3)

        stiff = (64.0 / 12.0) * 2.0 / (grid.h * grid.h) / (4.0 * np.min(grid.lam_hyp[idx])) + 1.0
        mid = 0.5 * (rkc_coefficients(5)[0] + rkc_coefficients(6)[0])
        errs = []
        for dt in (0.01, 0.005, 0.0025):
            res = run_base_flow(grid, phi0=phi0, t_end=1.0, sample_interval=1.0,
                                dt_max=dt, cfl=dt * stiff / mid)
            assert res.rhs_evals == 6 * res.total_steps == 6 * round(1.0 / dt)
            errs.append(np.max(np.abs(res.final_phi[idx] - ref[idx])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)
