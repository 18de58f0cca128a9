"""Independent reference implementations used to cross-check the solver.

Everything here is deliberately written against different machinery than the
production code paths: second- and fourth-order roll stencils instead of
spectral symbols, a dense assembled matrix instead of an FFT Poisson solve,
an adaptive ODE integrator and the RK4 separable product reference
(product_reduced_run) instead of the PDE stepper, the reference family
hat built from omega_0 instead of the flow's spectral fold, and the generic
curvature path (christoffel_deviation, curvature_squared,
covariant_hessian_squared) on full complex transforms (fft_c, ifft_c,
sym_full, deriv) instead of the monitor engine.  Agreement between the two sides is what the test suite
(and the `oracle-check` CLI subcommand) certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .discretization import HermitianField, SpectralGrid, _odd_wavenumbers, row_blocks
from .errors import PositivityLost


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


def _dense_rows_oracle(grid: SpectralGrid, f: np.ndarray, block: str, rows: np.ndarray):
    """Second-order bb, ff or bf block of a 4D field on the y-rows `rows` (an
    index array) of one x-plane, from f = its x-planes k + 1, k and k - 1 (in
    that order, on axis 0).

    The whole-grid roll stencils restricted to those rows: only their x- and
    y-rolls leave them, by one plane or row either way.
    """
    hb = 1.0 / grid.n_base
    nxt, prv = (rows + 1) % grid.n_base, (rows - 1) % grid.n_base
    mid = f[1, rows]
    if block == "ff":
        return fiber_hessian_oracle(grid, mid)
    if block == "bb":
        return 0.25 * ((f[0, rows] - 2.0 * mid + f[2, rows]) / (hb * hb)
                       + (f[1, nxt] - 2.0 * mid + f[1, prv]) / (hb * hb))
    hf = 1.0 / grid.n_fiber
    cc, dc = np.conj(grid._fiber_coeffs)
    dx = (f[0, rows] - f[2, rows]) / (2.0 * hb)
    dy = (f[1, nxt] - f[1, prv]) / (2.0 * hb)
    return (0.5 * (cc * _roll_d1(dx, 1, hf) + dc * _roll_d1(dx, 2, hf))
            - 0.5j * (cc * _roll_d1(dy, 1, hf) + dc * _roll_d1(dy, 2, hf)))


def hessian_refinement_error(n: int, tau: complex = 1j, seed: int | None = None) -> float:
    """max |spectral - dense| over the Hessian blocks of the test field on n^4.

    The dense side is the second-order centered-difference mixed Hessian,
    independent of both production discretizations and convergent at order
    2 to the same operator.  Blocks are taken one at a time, on x-planes: a
    block's symbol multiplies the test field's spectrum in place, which goes
    back along x once and then plane by plane (ifft_x, slab_irfft); the
    dense block is evaluated on the plane's row blocks from its two
    x-neighbours.  bb and ff read those from the test field, kept whole.  bf
    keeps its Re field whole for its Im pass instead, so that pass forms its
    spectrum plane by plane (rfftn's r2c along v on each, then its c2c over
    x, y, u in place) and evaluates the planes in a window that slides one
    plane a step.  At most one spectrum and one real field are whole-grid
    arrays, and the maximum is the whole-grid one, bit for bit.
    """
    grid = SpectralGrid(n, n, tau)
    sh = grid.sym_half
    s_bb = np.real(sh[("holo", "b")] * sh[("anti", "b")])
    s_ff = np.real(sh[("holo", "f")] * sh[("anti", "f")])

    def s_bf(rows):
        return sh[("holo", "b")][rows] * sh[("anti", "f")]

    def test_plane(k):
        return _test_field(grid, seed, 0, [k])[0]

    def product(part, spec):
        """part(rows) times spec, in its place, back along x."""
        for rows in row_blocks(spec.shape):
            spec[rows] *= part(rows)
        return grid.ifft_x(spec)

    def gap(block, spec, plane_of, re=None):
        """max |spectral - dense| of block: spec is its (Im) product, re its
        Re field, plane_of(k) the test field's x-plane k."""
        worst = 0.0
        window = np.stack([plane_of(1), plane_of(0), plane_of(n - 1)])  # planes k + 1, k, k - 1
        for k in range(n):
            plane = grid.slab_irfft(spec[k])
            for ys in row_blocks(plane.shape):
                spectral = plane[ys] if re is None else re[k, ys] + 1j * plane[ys]
                dense = _dense_rows_oracle(grid, window, block, np.arange(n)[ys])
                worst = max(worst, float(np.max(np.abs(spectral - dense))))
            window[1:] = window[:2]  # slide the window one plane on
            window[0] = plane_of((k + 2) % n)
        return worst

    field = _test_field(grid, seed)
    err = max(gap("bb", product(lambda rows: s_bb[rows], grid.rfft(field)), field.__getitem__),
              gap("ff", product(lambda rows: s_ff, grid.rfft(field)), field.__getitem__))
    spec = product(lambda rows: s_bf(rows).real, grid.rfft(field))
    del field
    re = np.empty(grid.shape)
    for k in range(n):
        re[k] = grid.slab_irfft(spec[k])
        spec[k] = sfft.rfft(test_plane(k))  # the Im pass's spectrum, in the place of Re's
    spec = sfft.fftn(spec, axes=(0, 1, 2), overwrite_x=True, workers=grid._workers)
    return max(err, gap("bf", product(lambda rows: s_bf(rows).imag, spec), test_plane, re))


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
    the FFT solve, not to be fast.  The stencil's kernel is the constants
    and its range is mean-free, so adding 1/m to every entry makes the
    matrix nonsingular and leaves the mean-free solution as it is.
    """
    nf = grid.n_fiber
    m = nf * nf
    cols = np.empty((m, m))
    basis = np.zeros((nf, nf))
    for j in range(m):
        basis.flat[j] = 1.0
        cols[:, j] = fiber_hessian_oracle(grid, basis).ravel()
        basis.flat[j] = 0.0
    cols += 1.0 / m
    return np.linalg.solve(cols, rhs2.ravel() - rhs2.mean()).reshape(nf, nf)


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


def refinement_order(err_coarse: float, err_fine: float) -> float:
    """Observed convergence order from errors at resolutions n and 2n."""
    return float(np.log(err_coarse / err_fine) / np.log(2.0))


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


def _test_field(grid: SpectralGrid, seed: int | None = None, axis: int = 0,
                planes=None) -> np.ndarray:
    """The oracles' smooth test field, or only its planes (a list) along axis.

    Filled by row blocks, so no whole-field temporary is formed.
    """
    coords = list(grid.coords)
    if planes is not None:
        coords[axis] = coords[axis].take(planes, axis)
    tp = 2.0 * np.pi
    modes = []
    if seed is not None:
        rng = np.random.default_rng(seed)
        for _ in range(4):
            k = rng.integers(-2, 3, size=4)
            modes.append((k, 0.05 * rng.random(), tp * rng.random()))
    out = np.empty(np.broadcast_shapes(*(c.shape for c in coords)))
    for rows in row_blocks(out.shape):
        x, y, u, v = coords[0][rows], *coords[1:]  # only x spans axis 0
        block = (
            0.3 * np.cos(tp * x) * np.cos(tp * y)
            + 0.2 * np.sin(tp * u) * np.cos(tp * v)
            + 0.15 * np.cos(tp * (x + u))
            + 0.1 * np.sin(tp * (y + 2 * v))
        )
        for (kx, ky, ku, kv), amp, phase in modes:
            block = block + amp * np.cos(tp * (kx * x + ky * y + ku * u + kv * v) + phase)
        out[rows] = block
    return out


# Relative FD-vs-spectral tolerance by grid size.  The fourth-order stencil
# error on the fixed test field shrinks ~16x per refinement; entries carry
# 3-5x headroom over measured gaps (2.0e-2 / 1.5e-3 / 1.0e-4 at 8/16/32).
FD_GAP_TOLERANCES = {8: 8e-2, 16: 6e-3, 32: 5e-4, 64: 5e-5}


def fd_gap_tolerance(n: int) -> float:
    if n in FD_GAP_TOLERANCES:
        return FD_GAP_TOLERANCES[n]
    return 8e-2 * (8.0 / n) ** 4 * 2.0


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta step of dy/dt = f(t, y) from (t, y) by h.

    The coefficient-closure oracle and the separable-product reference use
    it; `y` may be a float or an array.
    """
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ode_coefficient_oracle(a0: float, b0: float) -> OracleReport:
    """Coefficient closure of the product flow: a' = 1 - a, b' = -b.

    Integrates to t = 5 with 5000 fixed steps of classical RK4 and compares
    the trajectory against the closed forms a(t) = 1 + (a0-1) e^{-t},
    b(t) = b0 e^{-t}; this pair is the reference for homogeneous PDE runs.
    """
    t_end = 5.0
    steps = 5000
    h = t_end / steps
    a, b = float(a0), float(b0)
    t = 0.0
    worst = 0.0

    def fa(_, av):
        return 1.0 - av

    def fb(_, bv):
        return -bv

    for _ in range(steps):
        a = rk4_step(fa, t, a, h)
        b = rk4_step(fb, t, b, h)
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


def stationarity_oracle(geometry, density_scale: float = 1.0) -> OracleReport:
    """The unperturbed reference family must be an exact fixed point.

    Checks max |rhs(phi=0, t)| at t = 0, 1 and 5 for the canonical
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
    problem = FlowProblem(twin, omega_density=density_scale * twin.density)
    zeros = np.zeros(twin.grid.shape)
    devs = []
    for t in (0.0, 1.0, 5.0):
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


def hat(omega0: HermitianField, chi: np.ndarray, t: float) -> HermitianField:
    """Reference form e^{-t} omega_0 + (1 - e^{-t}) chi, built the long way."""
    e = float(np.exp(-t))
    return HermitianField(omega0.bb * e + chi * (1.0 - e), omega0.bf * e, omega0.ff * e)


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
        psi0=geometry.grid.irfft(geometry.psi0_spec),
    )
    problem = FlowProblem(twin)
    omega0 = twin.initial_form()
    phi = 1e-5 * _test_field(twin.grid, seed)
    h = twin.grid.hessian(phi)
    devs = []
    for t in (0.0, 1.0, 5.0):
        got = problem.metric(phi, t)
        want = hat(omega0, twin.chi, t)
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
    min(n_base, 32) points a side, on which hessian_refinement_error peaks
    at 2.35 whole fields traced (one spectrum and the test field or bf's Re
    field, x-planes and their row blocks).  On larger grids check 2 sets it:
    on the uncapped n_base^2 x n_fiber^2 grid it holds the test field and
    its spectral Hessian (five fields, which check 3 reads too) and forms
    the FD Hessian one block at a time, about 15 whole fields at most:
    127 MB traced at 32^4, so about 2 GB at 64^4.
    """
    reports = []

    # 1. Spectral Hessian vs dense oracle under refinement: order ~ 2.
    # The pair is capped at 32/64; up to 32^4 its fine grid sets the peak.
    # Measured with Python 3.11, numpy 2.4, scipy 1.17 on a 2-core x86-64
    # box: run_battery(32, 32) peaks at 345 MB ru_maxrss in a fresh process
    # (134 MB a real 64^4 field), run_battery(16, 16) at 20 MB traced and
    # 86 MB ru_maxrss (65 MB after the imports).
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


# -- generic curvature path: full-spectrum transforms, stacked 2x2 tensors -


def sym_full(grid: SpectralGrid) -> dict:
    """Full-spectrum first-derivative symbols, Nyquist-zeroed like sym_half.

    Keys: ('holo','b'), ('holo','f'), ('anti','b'), ('anti','f').
    """
    nb, nf = grid.n_base, grid.n_fiber
    kx = _odd_wavenumbers(nb).reshape(nb, 1, 1, 1)
    ky = _odd_wavenumbers(nb).reshape(1, nb, 1, 1)
    ku = _odd_wavenumbers(nf).reshape(1, 1, nf, 1)
    kv = _odd_wavenumbers(nf).reshape(1, 1, 1, nf)
    s_b, s_bbar, s_f, s_fbar = grid._first_symbols(kx, ky, ku, kv)
    return {
        ("holo", "b"): s_b,
        ("anti", "b"): s_bbar,
        ("holo", "f"): s_f,
        ("anti", "f"): s_fbar,
    }


def fft_c(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    return sfft.fftn(np.broadcast_to(f, grid.shape), workers=grid._workers)


def ifft_c(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    return sfft.ifftn(spec, workers=grid._workers)


def deriv(grid: SpectralGrid, f: np.ndarray, kind: str, direction: str) -> np.ndarray:
    """Complex derivative of f: kind 'holo' or 'anti', direction 'b' or 'f'."""
    return ifft_c(grid, sym_full(grid)[(kind, direction)] * fft_c(grid, f))


def _stack(g: HermitianField, shape) -> np.ndarray:
    out = np.empty(shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = np.broadcast_to(g.bb, shape)
    out[..., 0, 1] = np.broadcast_to(g.bf, shape)
    out[..., 1, 0] = np.conj(out[..., 0, 1])
    out[..., 1, 1] = np.broadcast_to(g.ff, shape)
    return out


def _stack_inv(g: HermitianField, shape) -> np.ndarray:
    det = g.det()
    inv = HermitianField(g.ff / det, -g.bf / det, g.bb / det)
    return _stack(inv, shape)


def _assemble_w(d_stack, g_stack, gamma):
    """Covariant first derivative W[i,k,l] = d_i g_{k lbar} - corrections."""
    w = d_stack.copy()
    for l in range(2):
        w[..., 0, 0, l] -= gamma * g_stack[..., 0, l]
    return w


def _assemble_t(dh, d_stack, w, g_stack, gamma, dgamma):
    """Holomorphic second derivative T[i,j,k,l] = nabla~_i W[j,k,l]."""
    t = np.empty(dh.shape[:-4] + (2, 2, 2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    val = dh[..., i, j, k, l].copy()
                    if j == 0 and k == 0:
                        # d_i of the correction term gamma * g_{0 lbar}
                        if i == 0:
                            val -= dgamma * g_stack[..., 0, l]
                        val -= gamma * d_stack[..., i, 0, l]
                    if i == 0 and j == 0:
                        val -= gamma * w[..., 0, k, l]
                    if i == 0 and k == 0:
                        val -= gamma * w[..., j, 0, l]
                    t[..., i, j, k, l] = val
    return t


def _assemble_m2(da, d_stack, w, g_stack, gamma, dgamma_a):
    """Mixed second derivative M2[i,j,k,l] = nabla~_{ibar} W[j,k,l]."""
    m = np.empty(da.shape[:-4] + (2, 2, 2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    val = da[..., i, j, k, l].copy()
                    if j == 0 and k == 0:
                        if i == 0:
                            val -= dgamma_a * g_stack[..., 0, l]
                        val -= gamma * np.conj(d_stack[..., i, l, 0])
                    if i == 0 and l == 0:
                        val -= np.conj(gamma) * w[..., j, k, 0]
                    m[..., i, j, k, l] = val
    return m


def _contract_s(g_stack, ginv, w):
    psi = np.einsum("...lp,...ikl->...pik", ginv, w, optimize=True)
    s = np.einsum(
        "...pik,...qjl,...ji,...lk,...pq->...",
        psi,
        np.conj(psi),
        ginv,
        ginv,
        g_stack,
        optimize=True,
    )
    return np.real(s), psi


def _contract_rm2(ginv, d_stack, dd):
    quad = np.einsum(
        "...qp,...kiq,...ljp->...ijkl", ginv, d_stack, np.conj(d_stack), optimize=True
    )
    rm = quad - dd
    rm2 = np.einsum(
        "...ijkl,...abcd,...ai,...jb,...ck,...ld->...",
        rm,
        np.conj(rm),
        ginv,
        ginv,
        ginv,
        ginv,
        optimize=True,
    )
    return np.real(rm2), rm


def _contract_hh_norm(ginv, t):
    out = np.einsum(
        "...ijkl,...abcd,...ai,...bj,...ck,...ld->...",
        t,
        np.conj(t),
        ginv,
        ginv,
        ginv,
        ginv,
        optimize=True,
    )
    return np.real(out)


def _contract_ha_norm(ginv, m):
    out = np.einsum(
        "...ijkl,...abcd,...ia,...bj,...ck,...ld->...",
        m,
        np.conj(m),
        ginv,
        ginv,
        ginv,
        ginv,
        optimize=True,
    )
    return np.real(out)


def _generic_stacks(grid: SpectralGrid, g: HermitianField):
    """D, DD, DH, DA stacks via full complex transforms of the g blocks."""
    shape = grid.shape
    g_stack = _stack(g, shape)
    spec = [[fft_c(grid, g_stack[..., k, l]) for l in range(2)] for k in range(2)]
    sym = sym_full(grid)
    sh = sym[("holo", "b")], sym[("holo", "f")]
    sa = sym[("anti", "b")], sym[("anti", "f")]

    d = np.empty(shape + (2, 2, 2), dtype=np.complex128)
    dd = np.empty(shape + (2, 2, 2, 2), dtype=np.complex128)
    dh = np.empty(shape + (2, 2, 2, 2), dtype=np.complex128)
    da = np.empty(shape + (2, 2, 2, 2), dtype=np.complex128)
    for i in range(2):
        for q in range(2):
            for m in range(2):
                d[..., m, i, q] = ifft_c(grid, sh[m] * spec[i][q])
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    dd[..., i, j, k, l] = ifft_c(grid, sh[k] * sa[l] * spec[i][j])
                    dh[..., i, j, k, l] = ifft_c(grid, sh[i] * sh[j] * spec[k][l])
                    da[..., i, j, k, l] = ifft_c(grid, sa[i] * sh[j] * spec[k][l])
    return g_stack, d, dd, dh, da


def _gamma_tables(grid: SpectralGrid, gamma4: np.ndarray, dgamma_h=None, dgamma_a=None):
    """gamma plus its holomorphic and antiholomorphic base derivatives.

    Derivatives default to spectral differentiation of the supplied table;
    callers holding exact (quotient-rule) tables pass them in instead.
    """
    g2 = gamma4[:, :, 0, 0]
    if dgamma_h is None:
        dgamma_h = grid.base_deriv(g2, "holo")[:, :, None, None]
    if dgamma_a is None:
        dgamma_a = grid.base_deriv(g2, "anti")[:, :, None, None]
    return gamma4, dgamma_h, dgamma_a


def christoffel_deviation(grid: SpectralGrid, g: HermitianField, gamma4: np.ndarray):
    """Connection deviation tensor Psi and its squared norm field.

    Generic-path implementation; returns (s_field, psi) with psi stacked as
    [p, i, k] on the trailing axes.
    """
    g_stack, d, _, _, _ = _generic_stacks(grid, g)
    ginv = _stack_inv(g, grid.shape)
    w = _assemble_w(d, g_stack, gamma4)
    s, psi = _contract_s(g_stack, ginv, w)
    return s, psi


def curvature_squared(grid: SpectralGrid, g: HermitianField) -> np.ndarray:
    """|Rm|^2 of the Chern curvature of g, generic path."""
    _, d, dd, _, _ = _generic_stacks(grid, g)
    ginv = _stack_inv(g, grid.shape)
    rm2, _ = _contract_rm2(ginv, d, dd)
    return rm2


def covariant_hessian_squared(
    grid: SpectralGrid,
    g: HermitianField,
    gamma4: np.ndarray,
    dgamma_h=None,
    dgamma_a=None,
) -> np.ndarray:
    """|nabla~^2 g|^2 over both derivative types, generic path."""
    g_stack, d, _, dh, da = _generic_stacks(grid, g)
    ginv = _stack_inv(g, grid.shape)
    gamma, dg_h, dg_a = _gamma_tables(grid, gamma4, dgamma_h, dgamma_a)
    w = _assemble_w(d, g_stack, gamma)
    t = _assemble_t(dh, d, w, g_stack, gamma, dg_h)
    m2 = _assemble_m2(da, d, w, g_stack, gamma, dg_a)
    return 2.0 * (_contract_hh_norm(ginv, t) + _contract_ha_norm(ginv, m2))


# -- separable product reduction ------------------------------------------


class _Reduced2D:
    """Classical-RK4 integrator for one factor of a separable product run.

    kind "base":  d(phi)/dt = log((a(t) chi + e^{-t} H psi_b + H phi)/chi) - phi
    kind "fiber": d(phi)/dt = log((b0 g_E + H psi_f + e^{t} H phi)/(b0 g_E)) - phi

    with H the factor's own 2D mixed Hessian.  Adding the two solutions
    reproduces the 4D flow exactly for additively separable initial data.
    """

    def __init__(self, geometry, kind: str, psi2: np.ndarray):
        self.grid = geometry.grid
        self.kind = kind
        self.geom = geometry
        if kind == "base":
            self.h_psi = self.grid.base_hessian(psi2)
            self.a0 = geometry.spec.base_scale
        else:
            self.h_psi = self.grid.fiber_hessian(psi2)
            self.b0 = geometry.spec.fiber_scale

    def rhs(self, phi2, t):
        if self.kind == "base":
            num = (
                (1.0 + (self.a0 - 1.0) * math.exp(-t)) * self.geom.chi2
                + math.exp(-t) * self.h_psi
                + self.grid.base_hessian(phi2)
            )
            den = self.geom.chi2
        else:
            g_e = self.geom.g_fiber * self.b0
            num = g_e + self.h_psi + math.exp(t) * self.grid.fiber_hessian(phi2)
            den = g_e
        if np.min(num) <= 0.0:
            raise PositivityLost(f"reduced {self.kind} factor degenerated at t={t:.6f}")
        return np.log(num / den) - phi2

    def run(self, t_end: float, dt: float) -> np.ndarray:
        phi = np.zeros_like(self.h_psi)
        t = 0.0
        while t < t_end - 1e-12:
            h = min(dt, t_end - t)
            phi = rk4_step(lambda tt, p: self.rhs(p, tt), t, phi, h)
            t += h
        return phi


def product_reduced_run(
    geometry,
    psi_base2: np.ndarray,
    psi_fiber2: np.ndarray,
    t_end: float,
    dt: float = 2e-4,
) -> np.ndarray:
    """Evolve the two factors separately and return phi_b (+) phi_f as 4D.

    Valid for initial potentials of the form psi_b(base) + psi_f(fiber);
    the full solver must agree with this to discretization accuracy.
    """
    phi_b = _Reduced2D(geometry, "base", psi_base2).run(t_end, dt)
    phi_f = _Reduced2D(geometry, "fiber", psi_fiber2).run(t_end, dt)
    return phi_b[:, :, None, None] + phi_f[None, None, :, :]
