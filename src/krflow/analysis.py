"""Monitors, tensor norms, and decay-rate fits for flow runs.

All curvature-type quantities are computed relative to the product
comparison family: its connection is time-independent, with the single
nonzero Christoffel symbol  gamma = d/dz_b log(chi)  on the base.  Index
convention for stacked arrays: trailing axes of length 2 index (base,
fiber) = (0, 1); for a mixed tensor the positional order in the array name
comments tells which slots are holomorphic and which are conjugated.

Monitored quantities per sample:

* sup |phi|, sup |phi_dot|
* volume ratio  e^t det(g) / Omega  (min / max over the grid)
* eigenvalues of g relative to the comparison form (min / max)
* trace of g against the comparison form (min / max)
* s_max:    sup of |Psi|^2, Psi the connection deviation tensor
            Psi^p_{ik} = g^{lbar p} (nabla~_i g)_{k lbar}
* rm2_max:  sup of |Rm|^2 for the Chern curvature
            R_{i jbar k lbar} = -dd g + g^{qbar p} (d g)(dbar g)
* grad2_max: sup of |nabla~^2 g|^2 over both second-derivative types
            (holomorphic-holomorphic and mixed), doubled for the
            conjugate blocks
* fiber_dev[k], k = 0,1,2: sup over 8 strided sample fibers of the squared
            g_E-norm of nabla_E^k (e^t g|_fiber - g_flat)
* delta_psi_residual: sup over sample fibers of the defect in
            Lap_E psi = tr_E(e^t g|_fiber - g_flat),  psi = e^t phi - rho
* distance_to_limit: sup |g_bb - chi|

The fast per-sample path (MonitorEngine) expresses every derivative of g
through the spectrum of  w = e^{-t} psi_0 + phi  (whose Hessian carries all
non-product content of g), one rfft(phi) of its own plus e^{-t} psi0_spec,
and closed-form derivatives of the base form: 23 distinct fields in 37
real rows (see _stack_rows).  The rows are streamed over base slabs:
(i kx)^p w, p = 0..4, goes back along x once, and each slab's rows are
summed from those five and transformed back in one batch (see
_slab_terms), so no row exists on the whole grid.  The pointwise
algebra then runs on blocks of at most _BLOCK_POINTS grid points (a base
slab, or rows of one), so its working set stays near 7 MiB as slabs grow.
g and the reference are Kahler and the reference's (2, 0) curvature
vanishes, so D and W are symmetric in their
two holomorphic slots, T in its three, M2 in (j, k), and DD and Rm in
(i, k) and in (j, l) (Song & Weinkove, arXiv:1212.3653): a block reads
their 41 independent components, not 64, by integer index tables.  g = L L*
is factored by the closed-form 2x2 Cholesky and every slot group is moved
into the orthonormal frame E = L^{-1} by its closed form: holomorphic slots
take E, antiholomorphic slots conj(E), since g^{-1} = E* E.  Each norm is
then a sum of squared moduli, nonnegative by construction.

A slow generic path in oracle.py (christoffel_deviation,
curvature_squared, covariant_hessian_squared), using full complex
transforms, stacked 2x2 tensors and einsum contractions against g^{-1},
implements the same tensors independently.  It shares no contraction code
with the engine and is the reference the tests cross-check it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .discretization import (
    HermitianField,
    SpectralGrid,
    _odd_wavenumbers,
    row_blocks,
    trace_with,
)
from .errors import ConfigInvalid, InsufficientSamples
# Read by perfbench as analysis.<name> until ROADMAP item 1 imports them from oracle.
from .oracle import christoffel_deviation, covariant_hessian_squared, curvature_squared


# -- orthonormal frame (engine path) ---------------------------------------


def _frame(bb, bf, ff):
    """E = L^{-1} for the closed-form Cholesky factor of g = L L*.

    E is lower triangular with real positive diagonal, so g^{-1} = E* E;
    returns (e00, e10, e11).
    """
    r_bb = np.sqrt(bb)
    r_det = np.sqrt(bb * ff - np.abs(bf) ** 2)
    return 1.0 / r_bb, -np.conj(bf) / (r_bb * r_det), r_bb / r_det


def _to_frame(t, frame, slots):
    """Move every leading slot group of t into the frame, in place.

    Axis n of t holds the components S_0..S_r of a group of r symmetric
    slots by their number of fiber slots; slots[n] is 'h' for a holomorphic
    group (it takes E) or 'a' for an antiholomorphic one (conj(E)).  The
    frame's S'_n = e00^(r-n) sum_m C(n, m) e10^(n-m) e11^m S_m comes from r
    Pascal passes: for a pair, (e00^2 S0, e00 (e10 S0 + e11 S1), e10^2 S0 +
    2 e10 e11 S1 + e11^2 S2).
    """
    e00, e10, e11 = frame
    for axis, slot in enumerate(slots):
        lead = (slice(None),) * axis
        e = e10 if slot == "h" else np.conj(e10)
        r = t.shape[axis] - 1
        for s in range(1, r + 1):
            for m in range(r, s - 1, -1):
                hi = t[lead + (m,)]
                hi *= e11
                hi += e * t[lead + (m - 1,)]
        for n in range(r):
            t[lead + (n,)] *= e00 ** (r - n)
    return t


def _sum_sq(t, groups):
    """Sum of squared moduli over the full tensor whose independent
    components fill t's leading `groups` axes: a component with n fiber
    slots in a group of r occurs C(r, n) times, (1, 2, 1) for a pair."""
    weights = np.ones(())
    for size in t.shape[:groups]:
        weights = np.multiply.outer(weights, [math.comb(size - 1, n) for n in range(size)])
    return np.tensordot(weights, t.real**2 + t.imag**2, axes=groups)


# -- derivative field table (engine path) ----------------------------------

# The distinct derivatives d_{holo} dbar_{anti} w that the slab tensors read,
# as sorted (holo, anti) index multisets, 0 = base and 1 = fiber.  Mixed
# partials commute, so a field is fixed by its (holomorphic, antiholomorphic)
# order and by how many of each kind are fiber derivatives.  D and DD read
# the orders (2, 1) and (2, 2), T the order (3, 1): 6 + 9 + 8 = 23 fields.
_FIELDS = tuple(
    ((0,) * (nh - h) + (1,) * h, (0,) * (na - a) + (1,) * a)
    for nh, na in ((2, 1), (2, 2), (3, 1))
    for h in range(nh + 1)
    for a in range(na + 1)
)


def _stack_rows():
    """Each field's Re and Im row in a record's real stack, the sign its Im
    takes from there, and the number of rows (37, each one irfft).

    w is real, so a (2, 2) field is the conjugate of the one with holo and
    anti swapped: it reads that field's rows, Im negated, when that field
    comes first, and is real (one row, Im times 0) when the two agree.
    """
    rows = []
    for holo, anti in _FIELDS:
        if (anti, holo) in _FIELDS[:len(rows)]:
            rows.append(rows[_FIELDS.index((anti, holo))][:2] + (-1.0,))
        else:
            n = 1 + max((r[1] for r in rows), default=-1)
            rows.append((n, n + (holo != anti), float(holo != anti)))
    re, im, sign = (np.array(c) for c in zip(*rows))
    return re, im, sign, 1 + int(im.max())


def _index_tables():
    """Field index of each independent component of the slab tensors D, DD,
    T, M2, by the number of fiber slots in each symmetric slot group."""
    def field(nh, na, h, a):  # order (nh, na), h and a fiber derivatives
        return _FIELDS.index(((0,) * nh, (0,) * na)) + h * (na + 1) + a

    (i, jk, l) = np.indices((2, 3, 2))
    return (field(2, 1, *np.indices((3, 2))),  # d_m g_{n qbar}: [m + n, q]
            field(2, 2, *np.indices((3, 3))),  # d_k dbar_l g_{i jbar}: [i + k, j + l]
            field(3, 1, *np.indices((4, 2))),  # d_i d_j g_{k lbar}: [i + j + k, l]
            field(2, 2, jk, i + l))            # dbar_i d_j g_{k lbar}: [i, j + k, l]


_D, _DD, _T, _M2 = _index_tables()
_RE, _IM, _IM_SIGN, _ROWS = _stack_rows()


# -- monitor record --------------------------------------------------------


@dataclass
class MonitorRecord:
    t: float
    sup_phi: float
    sup_phidot: float
    vol_ratio_min: float
    vol_ratio_max: float
    rel_eig_min: float
    rel_eig_max: float
    trace_min: float
    trace_max: float
    s_max: float
    rm2_max: float
    grad2_max: float
    fiber_dev0: float
    fiber_dev1: float
    fiber_dev2: float
    delta_psi_residual: float
    distance_to_limit: float

    @classmethod
    def field_names(cls):
        return [f.name for f in fields(cls)]

    def row(self):
        return [getattr(self, n) for n in self.field_names()]


class MonitorEngine:
    """Per-sample monitor evaluation for one FlowProblem.

    Precomputes base-form derivative tables.  A record streams the 37 real
    rows of the 23 derivative fields over base slabs (curvature_maxima):
    each block's 41 independent components of D, DD, T and M2 are
    fancy-indexed out of the slab's rows by _D, _DD, _T and _M2 and
    contracted in the pointwise orthonormal frame of g, and only the
    running maxima are kept.  The only whole-grid arrays it forms are the
    five x-transformed half spectra (i kx)^p w; the trace, volume-ratio and
    distance extrema are taken by row blocks.  The sample fibers' monitors
    take one batch of 2D transforms.
    """

    def __init__(self, problem, n_sample_fibers: int = 8):
        geometry = problem.geometry
        grid: SpectralGrid = geometry.grid
        self.grid = grid
        self.geometry = geometry

        chi2 = geometry.chi2
        self.chi = geometry.chi
        dchi2 = grid.base_deriv(chi2, "holo")
        self.dchi = dchi2[:, :, None, None]
        self.ddbar_chi = np.real(grid.base_deriv(dchi2, "anti"))[:, :, None, None]
        self.dd_chi = grid.base_deriv(dchi2, "holo")[:, :, None, None]

        # gamma = dchi/chi; its derivatives by the quotient rule.  chi's own
        # derivative tables are band-limited, so these are alias-free, unlike
        # a spectral derivative of the (non-band-limited) quotient itself.
        self.gamma = geometry.gamma_b
        self.dgamma_h = self.dd_chi / self.chi - (self.dchi / self.chi) ** 2
        self.dgamma_a = self.ddbar_chi / self.chi - np.abs(self.dchi / self.chi) ** 2

        # Strided fiber sample points (ib, jb), spread over both base axes.
        r = np.arange(n_sample_fibers)
        ib = (r * grid.n_base) // n_sample_fibers
        self.fiber_points = (ib, (ib * 3 + r) % grid.n_base)
        self.rho_slices = geometry.rho[self.fiber_points]
        self.gflat = geometry.g_flat[self.fiber_points]
        # Each fiber's scales g_E^2, g_E^3, g_E^4, g_E of fiber_dev0..2 and
        # delta_psi_residual, g_E its flat coefficient.  Powers of Python
        # floats: numpy's vector power may round them differently.
        self.fiber_scales = np.array(
            [[g**k for g in self.gflat.ravel().tolist()] for k in (2, 3, 4, 1)])

    def _slab_terms(self):
        """Per group of fields with j holomorphic and l antiholomorphic base
        derivatives: q = j + l, the base coefficients b_0..b_q and, per field
        with rows of its own, m % 2 (m its number of fiber derivatives) and
        each of its stack rows' fiber coefficients (c_e, c_o).

        A field's symbol is B F with B = s_b^j sbar_b^l = 2^-q (X + ky)^j
        (X - ky)^l = sum_p X^p b_p, X = i kx and b_p real, and F its product
        of fiber symbols.  A slab of (i kx)^p w's x-transform is Hermitian in
        (ky, ku, kv), b_p is even or odd in ky with q - p, and F even or odd
        with m; so with E and O the sums of b_p times those slabs over the p
        with q - p of m's parity and of the other, the field's Re row is the
        3D irfft of Re F E + i Im F O, and its Im row of Im F E - i Re F O.
        Every array is complex, so no product casts.
        """
        grid = self.grid
        ky = _odd_wavenumbers(grid.n_base).reshape(1, -1, 1, 1) + 0j
        fiber = {"holo": grid.sym_half[("holo", "f")], "anti": grid.sym_half[("anti", "f")]}
        terms = {}
        for index, (holo, anti) in enumerate(_FIELDS):
            if _IM_SIGN[index] < 0:
                continue  # it reads its partner's rows
            j, l = holo.count(0), anti.count(0)
            if (j, l) not in terms:
                b = [np.ones_like(ky)]
                for sign in (0.5,) * j + (-0.5,) * l:  # times (X + sign 2 ky) / 2
                    b = [sign * ky * c + 0.5 * prev for c, prev in zip(b + [0.0], [0.0] + b)]
                terms[j, l] = (j + l, b, [])
            fib = math.prod([fiber["holo"]] * holo.count(1) + [fiber["anti"]] * anti.count(1),
                            start=np.ones_like(fiber["holo"]))
            coefs = ((fib.real + 0j, 1j * fib.imag), (fib.imag + 0j, -1j * fib.real))
            rows = (_RE[index], _IM[index])[:1 + bool(_IM_SIGN[index])]
            m = holo.count(1) + anti.count(1)
            terms[j, l][2].append((m % 2, list(zip(rows, coefs))))
        return list(terms.values())

    # .. per-sample record ................................................

    def curvature_maxima(self, t: float, phi: np.ndarray, blocks):
        """(s_max, rm2_max, grad2_max) of g with blocks (bb, Re bf, Im bf, ff),
        streamed over base slabs.

        The spectrum of w is rfft(phi) + e^{-t} psi0_spec, and (i kx)^p
        times it, p = 0..4, goes back along x.  Per base slab the 37 rows'
        (ky, ku, kv) half spectra are summed from those (see _slab_terms)
        and go back in one batch; _slab_norms takes the slab by row blocks,
        each with its bf formed, and only the running maxima are kept.
        """
        grid = self.grid
        shape = grid.shape
        e = math.exp(-t)
        a_t = 1.0 + (self.geometry.spec.base_scale - 1.0) * e
        w = grid.rfft(phi)
        for rows in row_blocks(w.shape):
            w[rows] += self.geometry.psi0_spec[rows] * e
        ikx = 1j * _odd_wavenumbers(grid.n_base).reshape(-1, 1, 1, 1)
        xw = [w]
        for _ in range(4):
            xw.append(xw[-1] * ikx)
        xw = [grid.ifft_x(s) for s in xw]
        terms = self._slab_terms()
        # The base form a_t * chi enters only the pure-base components.
        base = ((_D[0, 0], a_t * self.dchi), (_DD[0, 0], a_t * self.ddbar_chi),
                (_T[0, 0], a_t * self.dd_chi))
        bb, re, im, ff = blocks

        maxima = np.full(3, -np.inf)
        spec = np.empty((_ROWS, 1) + xw[0].shape[1:], dtype=complex)  # one slab's rows
        for ib in range(shape[0]):
            xs = slice(ib, ib + 1)
            ws = [s[xs] for s in xw]
            for q, b, members in terms:
                sums = [0.0, 0.0]  # E and O by the parity of q - p (see _slab_terms)
                for p, coef in enumerate(b):
                    sums[(q - p) % 2] = sums[(q - p) % 2] + coef * ws[p]
                for m, rows in members:
                    for row, (c_e, c_o) in rows:
                        np.multiply(sums[m], c_e, out=spec[row])
                        spec[row] += c_o * sums[1 - m]
            stack = grid.slab_irfft(spec)
            for ys in row_blocks(shape[1:]):
                at = (xs, ys)
                g = HermitianField.from_parts(bb[at], re[at], im[at], ff[at])
                norms = self._slab_norms(stack[:, :, ys], at, base, g.bb, g.bf, g.ff)
                maxima = np.maximum(maxima, [x.max() for x in norms])
            del stack  # before the next slab's
        return tuple(maxima.tolist())

    def _slab_norms(self, rows, at, base, bb, bf, ff):
        """(s, rm2, grad2) on the block `at` of grid points from its rows of the real stack.

        Each tensor holds its independent components on leading axes, one
        per symmetric slot group, by the group's number of fiber slots.
        """
        f = np.empty((len(_FIELDS),) + rows.shape[1:], dtype=np.complex128)
        f.real = rows[_RE]
        np.multiply(rows[_IM], _IM_SIGN.reshape((-1,) + (1,) * (rows.ndim - 1)), out=f.imag)
        for index, form in base:
            f[index] += form[at]
        gamma, dgamma_h, dgamma_a = self.gamma[at], self.dgamma_h[at], self.dgamma_a[at]
        g0 = np.stack((bb, bf))  # g_{0 lbar}
        d, dd, t, m2 = f[_D], f[_DD], f[_T], f[_M2]

        # gamma corrections, on the components where they are nonzero:
        # W = nabla~ g, T = nabla~ W, M2 = nabla~bar W.
        w = d.copy()
        w[0] -= gamma * g0
        t[0] -= dgamma_h * g0
        t[0] -= gamma * (d[0] + 2.0 * w[0])
        t[1] -= gamma * w[1]
        m2[0, 0] -= dgamma_a * g0
        m2[:, 0] -= gamma * np.conj(d[[[0, 1], [1, 2]], 0])  # d[i + l, 0] at [i, l]
        m2[0, :, 0] -= np.conj(gamma) * w[:, 0]

        frame = _frame(bb, bf, ff)
        _to_frame(w, frame, "ha")
        _to_frame(t, frame, "ha")
        _to_frame(m2, frame, "aha")
        # Rm_{i jbar k lbar} = quad - dd with quad = g^{qbar p} d_k g_{i qbar}
        # conj(d_l g_{j pbar}); in the frame, quad[p, q] = sum_m D'[p, m]
        # conj(D'[q, m]) with D' the frame transform of d.
        _to_frame(d, frame, "ha")
        _to_frame(dd, frame, "ha")
        rm = d[:, None, 0] * np.conj(d[None, :, 0])
        rm += d[:, None, 1] * np.conj(d[None, :, 1])
        rm -= dd
        return _sum_sq(w, 2), _sum_sq(rm, 2), 2.0 * (_sum_sq(t, 2) + _sum_sq(m2, 3))

    def record(self, state, phi: np.ndarray, blocks) -> MonitorRecord:
        """The record at a run's sample from its FlowState, whose first five
        fields it copies, phi and the blocks (bb, Re bf, Im bf, ff) of g."""
        grid = self.grid
        geom = self.geometry
        shape = grid.shape
        t = state.t
        e_t = math.exp(t)

        # The curvature maxima first, then the pointwise extrema by row
        # blocks: no whole-field temporary is alive beside the x-transforms.
        s_max, rm2_max, grad2_max = self.curvature_maxima(t, phi, blocks)
        tilde = geom.tilde(t)
        bb, re, im, ff = blocks
        density = np.broadcast_to(geom.density, shape)
        ext = []
        for rows in row_blocks(shape):
            gr = HermitianField.from_parts(bb[rows], re[rows], im[rows], ff[rows])
            tr = trace_with(gr, HermitianField(tilde.bb[rows], tilde.bf, tilde.ff))
            ratio = e_t * gr.det() / density[rows]
            ext.append([tr.min(), tr.max(), ratio.min(), ratio.max(),
                        np.abs(bb[rows] - self.chi[rows]).max()])
        lo, hi = np.min(ext, axis=0).tolist(), np.max(ext, axis=0).tolist()

        # The sample fibers, stacked on a leading axis: each fiber monitor
        # is a per-fiber sup, scaled, then maximized over the fibers.
        fibers = self.fiber_points
        dev = e_t * ff[fibers] - self.gflat
        d1 = grid.fiber_deriv(dev, "holo")
        d2 = (np.abs(grid.fiber_deriv(d1, "holo")) ** 2
              + np.abs(grid.fiber_deriv(d1, "anti")) ** 2)
        psi = e_t * np.broadcast_to(phi, shape)[fibers] - self.rho_slices
        defect = np.abs(grid.fiber_hessian(psi) - dev)
        sups = np.max(np.stack((dev**2, 2.0 * np.abs(d1) ** 2, 2.0 * d2, defect)),
                      axis=(2, 3))
        dev0, dev1, dev2, resid = np.max(sups / self.fiber_scales, axis=1).tolist()

        return MonitorRecord(
            t=t,
            sup_phi=state.sup_phi,
            sup_phidot=state.sup_phidot,
            vol_ratio_min=lo[2],
            vol_ratio_max=hi[3],
            rel_eig_min=state.eig_min,
            rel_eig_max=state.eig_max,
            trace_min=lo[0],
            trace_max=hi[1],
            s_max=s_max,
            rm2_max=rm2_max,
            grad2_max=grad2_max,
            fiber_dev0=dev0,
            fiber_dev1=dev1,
            fiber_dev2=dev2,
            delta_psi_residual=resid,
            distance_to_limit=hi[4],
        )


# -- decay fitting ---------------------------------------------------------


def log_slope_fit(times, values, t_min: float, t_max: float):
    """Least-squares slope of log(value) against t on [t_min, t_max].

    Returns (slope, intercept, n_points).  Non-positive values cannot enter
    the log and are dropped; fewer than 4 surviving points raises
    InsufficientSamples.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (times >= t_min - 1e-12) & (times <= t_max + 1e-12) & (values > 0.0)
    tt, vv = times[keep], np.log(values[keep])
    if tt.size < 4:
        raise InsufficientSamples(
            f"need at least 4 positive samples in "
            f"[{t_min}, {t_max}], got {tt.size}"
        )
    coeffs = np.polyfit(tt, vv, 1)
    return float(coeffs[0]), float(coeffs[1]), int(tt.size)


@dataclass
class DecayFit:
    """Envelope fit of a sup|phi| series against C (1 + t) e^{-t}."""

    constant: float       # max over the window of value / ((1+t) e^{-t})
    log_slope: float      # least-squares slope of log(value); nan if all zero
    ratio_min: float
    ratio_max: float
    passed: bool          # constant finite and ratio_max / ratio_min <= 4


def check_fit_window(t_min: float, t_max: float) -> None:
    """Raise ConfigInvalid unless the fit window satisfies t_max > t_min >= 1."""
    if not (t_max > t_min >= 1.0):
        raise ConfigInvalid(
            f"fit window must satisfy t_max > t_min >= 1, got [{t_min}, {t_max}]"
        )


def decay_fit(times, values, t_min: float = 2.0, t_max: float = 6.0) -> DecayFit:
    """Fit a monitor series against the decaying envelope (1 + t) e^{-t}.

    The window must satisfy t_max > t_min >= 1 and contain at least 20
    samples (InsufficientSamples otherwise).  The fit passes when the
    constant is finite and the ratios value / envelope of the positive
    samples spread by at most a factor of 4.  A series that is identically
    zero on the window passes trivially with constant 0.  The fit is
    scale-equivariant: scaling the series scales `constant` and leaves the
    ratio spread and the pass flag unchanged.
    """
    check_fit_window(t_min, t_max)
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (times >= t_min - 1e-12) & (times <= t_max + 1e-12)
    tt, vv = times[keep], values[keep]
    if tt.size < 20:
        raise InsufficientSamples(
            f"need at least 20 samples in [{t_min}, {t_max}], got {tt.size}"
        )
    envelope = (1.0 + tt) * np.exp(-tt)
    ratios = vv / envelope
    constant = float(np.max(ratios))
    if np.all(vv <= 0.0):
        # Nothing decaying to rate-fit; the envelope bound holds trivially.
        return DecayFit(constant, float("nan"), 0.0, 0.0, True)
    try:
        slope, _, _ = log_slope_fit(tt, vv, t_min, t_max)
    except InsufficientSamples:
        slope = float("nan")
    pos = ratios[vv > 0.0]
    ratio_min = float(np.min(pos))
    ratio_max = float(np.max(pos))
    passed = bool(np.isfinite(constant) and ratio_max <= 4.0 * ratio_min)
    return DecayFit(constant, slope, ratio_min, ratio_max, passed)


def fiber_flatness_rates(records, t_min: float = 2.0, t_max: float = 6.0) -> float:
    """Worst delta_psi identity residual of the records on [t_min, t_max].

    The fiber deviation monitors themselves get no rate fit: on this window
    they are the stepper's O(dt^2) error, so a log-slope would measure the
    integrator, not the flow.  A window with fewer than 4 records raises
    InsufficientSamples.
    """
    window = [r for r in records if t_min - 1e-12 <= r.t <= t_max + 1e-12]
    if len(window) < 4:
        raise InsufficientSamples(
            f"need at least 4 records in [{t_min}, {t_max}], got {len(window)}"
        )
    return max(r.delta_psi_residual for r in window)


def drift_stats(records, t_min: float, t_max: float):
    """Conditioning C(t) = max(eig_max, 1/eig_min) over a window.

    Returns (c_values, times); boundedness of C certifies uniform
    equivalence of g to the comparison family on the window.
    """
    window = [r for r in records if t_min - 1e-12 <= r.t <= t_max + 1e-12]
    if len(window) < 2:
        raise InsufficientSamples(f"need at least 2 samples in [{t_min}, {t_max}]")
    cs = np.array([max(r.rel_eig_max, 1.0 / r.rel_eig_min) for r in window])
    ts = np.array([r.t for r in window])
    return cs, ts


# Monitors subject to the no-blow-up check; vol_ratio_min guards collapse,
# so it enters through its reciprocal.
BOUNDED_MONITOR_FIELDS = (
    "sup_phidot",
    "vol_ratio_max",
    "vol_ratio_min",
    "s_max",
    "rm2_max",
    "grad2_max",
)


def bounded_monitor_check(records):
    """No-blow-up property: late maxima at most twice the early maxima.

    For each of BOUNDED_MONITOR_FIELDS the max over t >= 1 may be at most
    2 times the max over t <= 1, plus 1e-12; vol_ratio_min, which guards
    collapse, is inverted first.  Returns ({field: (early, late, ok)}, all_ok).
    """
    early = [r for r in records if r.t <= 1.0 + 1e-12]
    late = [r for r in records if r.t >= 1.0 - 1e-12]
    if not early or not late:
        raise InsufficientSamples(
            "need samples on both sides of t = 1.0 for the bound check"
        )
    results = {}
    all_ok = True
    for name in BOUNDED_MONITOR_FIELDS:
        def pick(rec):
            v = getattr(rec, name)
            return 1.0 / v if name == "vol_ratio_min" else v
        e = max(pick(r) for r in early)
        l = max(pick(r) for r in late)
        ok = l <= 2.0 * e + 1e-12
        results[name] = (e, l, ok)
        all_ok = all_ok and ok
    return results, all_ok
