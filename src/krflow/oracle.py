"""Independent reference implementations used to cross-check the solver.

Everything here is deliberately written against different machinery than the
production code paths: second- and fourth-order roll stencils instead of
spectral symbols, a dense assembled matrix instead of an FFT Poisson solve,
and a generic adaptive ODE integrator instead of the PDE stepper.  Agreement
between the two sides is what the test suite (and the `oracle-check` CLI
subcommand) certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import HermitianField, SpectralGrid


def _roll_d1(f, axis, h):
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)


def _roll_d2(f, axis, h):
    return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / (h * h)


def fiber_hessian_oracle(grid: SpectralGrid, f2: np.ndarray) -> np.ndarray:
    """Second-order ff-block Hessian along the last two axes (u, v) of f2."""
    hf = 1.0 / grid.n_fiber
    c, d = grid._fiber_coeffs
    d2u = _roll_d2(f2, -2, hf)
    d2v = _roll_d2(f2, -1, hf)
    duv = _roll_d1(_roll_d1(f2, -2, hf), -1, hf)
    return (abs(c) ** 2) * d2u + 2.0 * np.real(c * np.conj(d)) * duv + (abs(d) ** 2) * d2v


def _base_hessian_oracle(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    """Second-order bb-block Hessian along the first two axes (x, y) of f."""
    hb = 1.0 / grid.n_base
    return 0.25 * (_roll_d2(f, 0, hb) + _roll_d2(f, 1, hb))


def _bf_plane_oracle(grid: SpectralGrid, phi: np.ndarray, k: int) -> np.ndarray:
    """Second-order bf block of the 4D field phi on its u-plane k.

    The whole-grid roll stencil restricted to the plane: its rolls touch
    every axis, but u only by one cell (in dxu and dyu), so the plane needs
    just its two u-neighbours.
    """
    hb = 1.0 / grid.n_base
    hf = 1.0 / grid.n_fiber
    c, d = grid._fiber_coeffs
    nf = grid.n_fiber
    f = phi[:, :, [(k + 1) % nf, k, (k - 1) % nf]]
    dx = _roll_d1(f, 0, hb)
    dy = _roll_d1(f, 1, hb)
    dxu = (dx[:, :, 0] - dx[:, :, 2]) / (2.0 * hf)
    dyu = (dy[:, :, 0] - dy[:, :, 2]) / (2.0 * hf)
    dxv = _roll_d1(dx[:, :, 1], 2, hf)
    dyv = _roll_d1(dy[:, :, 1], 2, hf)
    cc, dc = np.conj(c), np.conj(d)
    return 0.5 * (cc * dxu + dc * dxv) - 0.5j * (cc * dyu + dc * dyv)


def hessian_refinement_error(n: int, tau: complex = 1j, seed: int | None = None) -> float:
    """max |spectral - dense| over the Hessian blocks of the test field on n^4.

    The dense side is the second-order centered-difference mixed Hessian,
    independent of both production discretizations and convergent at order
    2 to the same operator.  Blocks are taken one at a time: the spectral
    block is one irfft of symbol x spectrum, and the matching roll block is
    built slab by slab along an axis its rolls do not touch (bb over u, ff
    over x) or, for bf, whose rolls touch every axis, on u-planes with their
    two neighbours.  Besides the field and its spectrum, at most two whole
    fields (bf's Re and Im) and one irfft's product and work arrays are
    alive at once; the maximum is the whole-grid one, bit for bit.
    """
    grid = SpectralGrid(n, n, tau)
    phi = _test_field(grid, seed)
    spec = grid.rfft(phi)
    s_bb, s_ff, s_re, s_im = grid._half_hessian_syms

    err = 0.0
    for sym, stencil, axis in ((s_bb, _base_hessian_oracle, 2), (s_ff, fiber_hessian_oracle, 0)):
        block = grid.irfft(sym * spec)
        for k in range(n):
            slab = (slice(None),) * axis + (k,)
            err = max(err, float(np.max(np.abs(block[slab] - stencil(grid, phi[slab])))))
        del block

    re = grid.irfft(s_re * spec)
    spec *= s_im
    im = grid.irfft(spec)
    del spec
    for k in range(n):
        gap = re[:, :, k] + 1j * im[:, :, k] - _bf_plane_oracle(grid, phi, k)
        err = max(err, float(np.max(np.abs(gap))))
    return err


def fd_hessian(grid: SpectralGrid, phi: np.ndarray) -> HermitianField:
    """Fourth-order centered finite-difference mixed Hessian.

    Same operator as grid.hessian() under an independent discretization;
    pure second derivatives use the 5-point fourth-order stencil and mixed
    ones compose fourth-order first-derivative stencils.
    """
    bb, ff, bf = _fd_hessian_blocks(grid, phi)
    return HermitianField(bb, bf, ff)


def _fd_hessian_blocks(grid: SpectralGrid, phi: np.ndarray):
    """Yield fd_hessian's bb, ff and bf blocks, each formed only when asked for.

    A caller that drops each block before asking for the next holds one
    block's stencil terms at a time, not all eleven.
    """
    phi = np.broadcast_to(phi, grid.shape)
    hb = 1.0 / grid.n_base
    hf = 1.0 / grid.n_fiber
    c, d = grid._fiber_coeffs
    yield 0.25 * (_fd_d2(phi, 0, hb) + _fd_d2(phi, 1, hb))

    duv = _fd_d1(_fd_d1(phi, 2, hf), 3, hf)
    yield ((abs(c) ** 2) * _fd_d2(phi, 2, hf) + 2.0 * np.real(c * np.conj(d)) * duv
           + (abs(d) ** 2) * _fd_d2(phi, 3, hf))

    cc, dc = np.conj(c), np.conj(d)
    dx = _fd_d1(phi, 0, hb)
    x_part = 0.5 * (cc * _fd_d1(dx, 2, hf) + dc * _fd_d1(dx, 3, hf))
    del dx
    dy = _fd_d1(phi, 1, hb)
    yield x_part - 0.5j * (cc * _fd_d1(dy, 2, hf) + dc * _fd_d1(dy, 3, hf))


def _fd_d1(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order centered first derivative along a periodic axis.

    (8 (f[+1] - f[-1]) - (f[+2] - f[-2])) / 12h, accumulated in place: at
    most three arrays of f's size are alive at once, where all four shifts
    and their differences would be six.
    """
    out = np.roll(f, -1, axis)
    out -= np.roll(f, 1, axis)
    out *= 8.0
    far = np.roll(f, -2, axis)
    far -= np.roll(f, 2, axis)
    out -= far
    out /= 12.0 * h
    return out


def _fd_d2(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order centered second derivative along a periodic axis.

    (-f[+2] + 16 f[+1] - 30 f + 16 f[-1] - f[-2]) / 12h^2, accumulated in
    place, left to right, with the same rounding: at most three arrays of
    f's size are alive at once besides f.
    """
    out = -np.roll(f, -2, axis)
    out += 16.0 * np.roll(f, -1, axis)
    out -= 30.0 * f
    out += 16.0 * np.roll(f, 1, axis)
    out -= np.roll(f, 2, axis)
    out /= 12.0 * h * h
    return out


def dense_fiber_poisson_oracle(grid: SpectralGrid, rhs2: np.ndarray) -> np.ndarray:
    """Solve the fiber Poisson problem with an assembled dense matrix.

    Builds the second-order Hessian operator column by column, pins the
    mean, and solves with LAPACK.  Small fibers only; this exists to check
    the FFT solve, not to be fast.
    """
    nf = grid.n_fiber
    m = nf * nf
    cols = np.empty((m, m))
    basis = np.zeros((nf, nf))
    for j in range(m):
        basis.flat[j] = 1.0
        cols[:, j] = fiber_hessian_oracle(grid, basis).ravel()
        basis.flat[j] = 0.0
    # Rank-deficient by one (constants); augment with a mean-zero constraint.
    a = np.vstack([cols, np.full((1, m), 1.0 / m)])
    b = np.concatenate([rhs2.ravel() - rhs2.mean(), [0.0]])
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol.reshape(nf, nf)


def homogeneous_potential_oracle(a0: float, t_eval: np.ndarray) -> np.ndarray:
    """Integrate d(phi)/dt = log(1 + (a0-1) e^{-t}) - phi, phi(0)=0.

    Uses an adaptive high-order integrator at tight tolerance; this is the
    reference the PDE stepper is held to on spatially homogeneous data.
    """
    # Imported here so that `import krflow` does not load scipy.integrate.
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return np.log1p((a0 - 1.0) * np.exp(-t)) - y[0]

    t_eval = np.asarray(t_eval, dtype=float)
    sol = solve_ivp(
        rhs,
        (0.0, float(t_eval[-1])),
        [0.0],
        t_eval=t_eval,
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    if not sol.success:
        raise RuntimeError(f"reference ODE integration failed: {sol.message}")
    return sol.y[0]


def refinement_order(err_coarse: float, err_fine: float, ratio: float = 2.0) -> float:
    """Observed convergence order from errors at two resolutions."""
    return float(np.log(err_coarse / err_fine) / np.log(ratio))


@dataclass
class OracleReport:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: measured={self.measured:.3e} tol={self.tolerance:.3e} {self.detail}"


def _test_field(grid: SpectralGrid, seed: int | None = None) -> np.ndarray:
    x, y, u, v = grid.coords
    tp = 2.0 * np.pi
    out = (
        0.3 * np.cos(tp * x) * np.cos(tp * y)
        + 0.2 * np.sin(tp * u) * np.cos(tp * v)
        + 0.15 * np.cos(tp * (x + u))
        + 0.1 * np.sin(tp * (y + 2 * v))
    )
    if seed is not None:
        rng = np.random.default_rng(seed)
        for _ in range(4):
            kx, ky, ku, kv = rng.integers(-2, 3, size=4)
            amp, phase = 0.05 * rng.random(), tp * rng.random()
            out = out + amp * np.cos(tp * (kx * x + ky * y + ku * u + kv * v) + phase)
    return np.ascontiguousarray(np.broadcast_to(out, grid.shape))


# Relative FD-vs-spectral tolerance by grid size.  The fourth-order stencil
# error on the fixed test field shrinks ~16x per refinement; entries carry
# 3-5x headroom over measured gaps (2.0e-2 / 1.5e-3 / 1.0e-4 at 8/16/32).
FD_GAP_TOLERANCES = {8: 8e-2, 16: 6e-3, 32: 5e-4, 64: 5e-5}


def fd_gap_tolerance(n: int) -> float:
    if n in FD_GAP_TOLERANCES:
        return FD_GAP_TOLERANCES[n]
    return 8e-2 * (8.0 / n) ** 4 * 2.0


def ode_coefficient_oracle(a0: float, b0: float, t_end: float = 5.0,
                           dt: float = 1e-3) -> OracleReport:
    """Coefficient closure of the product flow: a' = 1 - a, b' = -b.

    Integrates with fixed-step classical RK4 and compares the trajectory
    against the closed forms a(t) = 1 + (a0-1) e^{-t}, b(t) = b0 e^{-t};
    this pair is the reference for homogeneous PDE runs.
    """
    steps = max(1, int(round(t_end / dt)))
    h = t_end / steps
    a, b = float(a0), float(b0)
    t = 0.0
    worst = 0.0
    for _ in range(steps):
        def fa(av):
            return 1.0 - av

        def fb(bv):
            return -bv

        k1a, k1b = fa(a), fb(b)
        k2a, k2b = fa(a + 0.5 * h * k1a), fb(b + 0.5 * h * k1b)
        k3a, k3b = fa(a + 0.5 * h * k2a), fb(b + 0.5 * h * k2b)
        k4a, k4b = fa(a + h * k3a), fb(b + h * k3b)
        a += h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
        b += h * (k1b + 2 * k2b + 2 * k3b + k4b) / 6.0
        t += h
        ea = abs(a - (1.0 + (a0 - 1.0) * np.exp(-t)))
        eb = abs(b - b0 * np.exp(-t))
        worst = max(worst, ea, eb)
    return OracleReport(
        "coefficient closure vs closed form",
        bool(worst < 1e-10),
        worst,
        1e-10,
        f"a0={a0} b0={b0} t_end={t_end}",
    )


def stationarity_oracle(geometry, density_scale: float = 1.0,
                        ts=(0.0, 1.0, 5.0)) -> OracleReport:
    """The unperturbed reference family must be an exact fixed point.

    Checks max |rhs(phi=0, t)| over the given times for the canonical
    initial form on the supplied geometry's grid (unit scales, no
    potential).  `density_scale` deliberately corrupts the volume density;
    a scale of s must shift the residual to |log s| — used as a fault
    injection to prove the check can fail.
    """
    from .flow import FlowProblem
    from .geometry import GeometrySpec, SurrogateGeometry

    spec = geometry.spec
    twin = SurrogateGeometry(
        geometry.grid,
        GeometrySpec(base_level=spec.base_level, base_ripple=spec.base_ripple),
    )
    problem = FlowProblem(twin, omega_density=density_scale * twin.volume.density)
    zeros = np.zeros(twin.grid.shape)
    devs = []
    for t in ts:
        rhs, _ = problem.rhs(zeros, t)
        devs.append(float(np.max(np.abs(rhs))))
    worst = max(devs)
    return OracleReport(
        "reference family stationarity",
        bool(worst < 1e-12),
        worst,
        1e-12,
        "per-t residuals " + " ".join(f"{d:.2e}" for d in devs),
    )


def fold_oracle(geometry, seed: int | None = None) -> OracleReport:
    """The flow's folded metric must equal hat(t) + H(phi) built the long way.

    FlowProblem never forms the reference family: it folds psi_0 into the
    transformed potential and adds closed-form scalar blocks (see
    FlowProblem._forcing).  This compares metric(phi, t) with hat(t) +
    hessian(phi) at t = 0, 1 and 5, for phi a small multiple of the test
    field, on a twin of the geometry: same grid, base form and psi_0, but
    base and fiber scales off 1 (and at least the run's, so the twin's
    initial form is positive), so that every term of the fold is seen.
    Each block's gap is taken relative to that block's largest entry: the
    two sides round differently by about eps times the scales.
    """
    from .flow import FlowProblem
    from .geometry import GeometrySpec, SurrogateGeometry

    spec = geometry.spec
    twin = SurrogateGeometry(
        geometry.grid,
        GeometrySpec(base_level=spec.base_level, base_ripple=spec.base_ripple,
                     base_scale=1.5 * max(spec.base_scale, 1.0),
                     fiber_scale=2.0 * max(spec.fiber_scale, 1.0)),
        psi0=geometry.psi0,
    )
    problem = FlowProblem(twin)
    phi = 1e-5 * _test_field(twin.grid, seed)
    h = twin.grid.hessian(phi)
    devs = []
    for t in (0.0, 1.0, 5.0):
        got = problem.metric(phi, t)
        want = twin.hat(t)
        gaps = []
        for a, b, hb in ((got.bb, want.bb, h.bb), (got.bf, want.bf, h.bf),
                         (got.ff, want.ff, h.ff)):
            b += hb
            gaps.append(float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
        devs.append(max(gaps))
        del got, want
    worst = max(devs)
    return OracleReport(
        "reference form fold (metric vs hat + hessian)",
        bool(worst < 1e-12),
        worst,
        1e-12,
        "per-t relative gaps " + " ".join(f"{d:.2e}" for d in devs),
    )


def run_battery(n_base: int = 16, n_fiber: int = 16, tau: complex = 1j,
                seed: int | None = None) -> list[OracleReport]:
    """Cross-checks between production operators and the references here.

    Returns one report per check; the CLI prints them and fails the process
    if any is red.  Keep this cheap — it runs as a preflight.  With n_base
    and n_fiber at most 32 its memory is set by check 1's fine grid, 2 *
    min(n_base, 32) points a side, on which hessian_refinement_error keeps
    about five whole fields alive at once.  On larger grids check 2 sets it:
    on the uncapped n_base^2 x n_fiber^2 grid it holds the test field and
    its spectral Hessian (five fields, which check 3 reads too) and forms
    the FD Hessian one block at a time, about 15 whole fields at most:
    127 MB traced at 32^4, so about 2 GB at 64^4.
    """
    reports = []

    # 1. Spectral Hessian vs dense oracle under refinement: order ~ 2.
    # The pair is capped at 32/64; up to 32^4 its fine grid sets the peak.
    # Measured with Python 3.11, numpy 2.4, scipy 1.17 on a 2-core x86-64
    # box: run_battery(32, 32) peaks at 875 MB ru_maxrss in a fresh process
    # (134 MB a real 64^4 field), run_battery(16, 16) at 44 MB traced.
    n_lo = min(n_base, 32)
    errs = [hessian_refinement_error(n, tau, seed) for n in (n_lo, 2 * n_lo)]
    order = refinement_order(errs[0], errs[1])
    reports.append(
        OracleReport(
            "hessian refinement order (spectral vs dense)",
            bool(abs(order - 2.0) < 0.4),
            order,
            0.4,
            f"errors {errs[0]:.3e} -> {errs[1]:.3e}",
        )
    )

    grid = SpectralGrid(n_base, n_fiber, tau)
    phi = _test_field(grid, seed)

    # 2. Spectral vs fourth-order FD Hessian (independent discretizations),
    # one FD block at a time.
    sp = grid.hessian(phi)
    gap = 0.0
    for fd_block, sp_block in zip(_fd_hessian_blocks(grid, phi), (sp.bb, sp.ff, sp.bf)):
        gap = max(gap, float(np.max(np.abs(fd_block - sp_block))))
        del fd_block  # before the generator forms the next block
    scale = float(np.max(np.abs(sp.bb)) + np.max(np.abs(sp.ff)))
    fd_tol = fd_gap_tolerance(n_base)
    reports.append(
        OracleReport(
            "fourth-order FD vs spectral Hessian",
            bool(gap / scale < fd_tol),
            gap / scale,
            fd_tol,
            f"abs gap {gap:.3e}",
        )
    )

    # 3. Hessian of any field has exactly zero grid mean, blockwise.
    mean_mag = max(
        abs(grid.mean(sp.bb)),
        abs(grid.mean(sp.ff)),
        float(np.abs(np.mean(sp.bf))),
    )
    reports.append(OracleReport("hessian grid mean vanishes", bool(mean_mag < 1e-14), mean_mag, 1e-14))

    # 4. FFT fiber Poisson vs dense assembled solve.
    small = SpectralGrid(8, min(n_fiber, 16), tau)
    uu, vv = np.meshgrid(np.arange(small.n_fiber) / small.n_fiber,
                         np.arange(small.n_fiber) / small.n_fiber, indexing="ij")
    rhs2 = np.cos(2 * np.pi * uu) * np.cos(2 * np.pi * vv) + 0.5 * np.sin(2 * np.pi * vv)
    psi_fft = small.fiber_poisson(rhs2)
    psi_dense = dense_fiber_poisson_oracle(small, rhs2)
    # Compare through the operator (discretizations differ; solutions agree
    # after applying each side's own Hessian to its own solution).
    res_fft = float(np.max(np.abs(small.fiber_hessian(psi_fft) - (rhs2 - rhs2.mean()))))
    res_dense = float(
        np.max(np.abs(fiber_hessian_oracle(small, psi_dense) - (rhs2 - rhs2.mean())))
    )
    worst = max(res_fft, res_dense)
    reports.append(
        OracleReport(
            "fiber Poisson residuals (FFT and dense)",
            bool(res_fft < 1e-12 and res_dense < 1e-9),
            worst,
            1e-9,
            f"fft {res_fft:.3e} dense {res_dense:.3e}",
        )
    )

    # 5. Scalar coefficient flow integrates to its closed form.
    reports.append(ode_coefficient_oracle(2.0, 3.0))

    return reports
