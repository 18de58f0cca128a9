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
through one rfft of  w = e^{-t} psi_0 + phi  (whose Hessian carries all
non-product content of g) plus closed-form derivatives of the base form:
23 distinct whole-grid fields, stacked in one array in _FIELDS order.
Everything after that runs on blocks of at most _BLOCK_POINTS grid points
(a base slab, or rows of one), so the pointwise algebra's working set stays
near 7 MiB as slabs grow.  A block's tensors are read out of the stack by
integer index tables built at import, one field index per component.  On
each block g = L L* is factored by the closed-form 2x2 Cholesky and every
tensor index is moved into the orthonormal frame E = L^{-1}: holomorphic
slots take E, antiholomorphic slots conj(E), since g^{-1} = E* E.  Each
norm is then a plain sum of squared moduli, nonnegative by construction.

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
    relative_eigen_bounds,
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
    """Move every leading tensor index of t into the frame, in place.

    t has shape (2,) * len(slots) + slab; slots[n] is 'h' for a holomorphic
    index (it takes E) or 'a' for an antiholomorphic one (it takes conj(E)).
    """
    e00, e10, e11 = frame
    e10_bar = np.conj(e10)
    for axis, slot in enumerate(slots):
        lead = (slice(None),) * axis
        lo, hi = t[lead + (0,)], t[lead + (1,)]
        hi *= e11
        hi += (e10 if slot == "h" else e10_bar) * lo
        lo *= e00
    return t


def _sum_sq(t, rank):
    """Sum of squared moduli over the leading `rank` tensor axes."""
    t = t.reshape((-1,) + t.shape[rank:])
    return np.sum(t.real**2 + t.imag**2, axis=0)


# -- derivative field table (engine path) ----------------------------------

# The distinct derivatives d_{holo} dbar_{anti} w that the slab tensors read,
# as sorted (holo, anti) index multisets, 0 = base and 1 = fiber.  Mixed
# partials commute, so a field is fixed by its (holomorphic, antiholomorphic)
# order and by how many of each kind are fiber derivatives.  D and DD read
# the orders (2, 1) and (2, 2), T the order (3, 1): 6 + 9 + 8 = 23 fields,
# stacked in this order.
_FIELDS = tuple(
    ((0,) * (nh - h) + (1,) * h, (0,) * (na - a) + (1,) * a)
    for nh, na in ((2, 1), (2, 2), (3, 1))
    for h in range(nh + 1)
    for a in range(na + 1)
)


def _field_index(holo, anti):
    """_FIELDS index of d_{holo} dbar_{anti} w, elementwise over the integer
    index arrays in the sequences holo and anti."""
    first = _FIELDS.index(((0,) * len(holo), (0,) * len(anti)))
    return first + sum(holo) * (len(anti) + 1) + sum(anti)


def _index_tables():
    """Field index of every component of the slab tensors D, DD, T, M2."""
    (m, n, q), (i, j, k, l) = np.indices((2, 2, 2)), np.indices((2, 2, 2, 2))
    return (_field_index((m, n), (q,)),          # d_m g_{n qbar}
            _field_index((k, i), (l, j)),        # d_k dbar_l g_{i jbar}
            _field_index((i, j, k), (l,)),       # d_i d_j g_{k lbar}
            _field_index((j, k), (i, l)))        # dbar_i d_j g_{k lbar}


_D, _DD, _T, _M2 = _index_tables()


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

    Precomputes base-form derivative tables.  A record forms, one field at a
    time, the half-spectrum symbol product that turns a derivative of g into
    two real inverse transforms of the single rfft of  w = e^{-t} psi_0 +
    phi.  Each block's D, DD, T and M2 are fancy-indexed out of the stack of
    the 23 fields by _D, _DD, _T and _M2 and contracted in the pointwise
    orthonormal frame of g: the only whole-grid arrays are that stack, the
    three output fields, one field's product and one path of symbols.  The
    sample fibers' monitors take one batch of 2D transforms.
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

    def _symbols(self):
        """Real symbol pairs (index, parity, a, b) of the fields d_{holo} dbar_{anti} w.

        A product of n first-derivative symbols is even or odd under k -> -k
        with n, so the field is irfft(a * spec) + 1j irfft(b * spec) with
        real a, b: spec = w and (a, b) = (Re, Im) of the symbol when n is
        even (parity 0), spec = 1j w and (a, b) = (Im, -Re) when n is odd.
        A symbol is the product of its factors, holo's then anti's, taken
        from 1 left to right as math.prod takes it; walked depth-first, each
        extends the longest prefix it shares with the last (32 products for
        the 23 fields, not 86), and only that path is held.
        """
        sh = self.grid.sym_half
        seqs = sorted((tuple(("holo", "bf"[m]) for m in holo)
                       + tuple(("anti", "bf"[q]) for q in anti), index)
                      for index, (holo, anti) in enumerate(_FIELDS))
        partial = {(): 1}
        for seq, index in seqs:
            partial = {p: v for p, v in partial.items() if seq[:len(p)] == p}
            for n in range(1, len(seq) + 1):
                if seq[:n] not in partial:
                    partial[seq[:n]] = partial[seq[:n - 1]] * sh[seq[n - 1]]
            sym = partial[seq]
            parity = len(seq) % 2
            a, b = (sym.imag, -sym.real) if parity else (sym.real, sym.imag)
            yield index, parity, a, b

    # .. per-sample record ................................................

    def curvature_fields(self, t: float, phi: np.ndarray, g: HermitianField):
        """Pointwise (s, rm2, grad2) fields, contracted in an orthonormal frame."""
        grid = self.grid
        geom = self.geometry
        shape = grid.shape
        a_t = 1.0 + (geom.spec.base_scale - 1.0) * math.exp(-t)
        w_spec = grid.rfft(math.exp(-t) * geom.psi0 + phi)
        # The 56 components of D, DD, T and M2 read only the 23 fields: 46
        # inverse transforms.
        specs = (w_spec, 1j * w_spec)
        f = np.empty((len(_FIELDS),) + shape, dtype=np.complex128)
        for index, parity, a, b in self._symbols():
            f[index].real = grid.irfft(a * specs[parity], overwrite=True)
            f[index].imag = grid.irfft(b * specs[parity], overwrite=True)
        del w_spec, specs, a, b
        # The base form a_t * chi enters only the pure-base components.
        f[_D[0, 0, 0]] += a_t * self.dchi
        f[_DD[0, 0, 0, 0]] += a_t * self.ddbar_chi
        f[_T[0, 0, 0, 0]] += a_t * self.dd_chi

        s_field, rm2_field, grad2_field = np.empty((3,) + shape)
        bb, bf, ff = (np.broadcast_to(b, shape) for b in (g.bb, g.bf, g.ff))
        for ib in range(shape[0]):
            for rows in row_blocks(shape[1:]):
                at = (ib, rows)
                s_field[at], rm2_field[at], grad2_field[at] = self._slab_norms(
                    f[(slice(None),) + at], at, bb[at], bf[at], ff[at])
        return s_field, rm2_field, grad2_field

    def _slab_norms(self, f, at, bb, bf, ff):
        """(s, rm2, grad2) on the block `at` of grid points from its derivative fields f.

        Tensors hold their components on leading axes of length 2, in the
        index order of the stacked tensors of oracle.py's generic path.
        """
        gamma, dgamma_h, dgamma_a = self.gamma[at], self.dgamma_h[at], self.dgamma_a[at]
        g0 = np.stack((bb, bf))  # g_{0 lbar}
        d, dd, t, m2 = f[_D], f[_DD], f[_T], f[_M2]

        # gamma corrections, on the components where they are nonzero:
        # W = nabla~ g, T = nabla~ W, M2 = nabla~bar W.  A component of T or
        # M2 takes its terms in the order written.
        w = d.copy()
        w[0, 0] -= gamma * g0
        t[0, 0, 0] -= dgamma_h * g0
        t[:, 0, 0] -= gamma * d[:, 0]
        t[0, 0] -= gamma * w[0]
        t[0, :, 0] -= gamma * w[:, 0]
        m2[0, 0, 0] -= dgamma_a * g0
        m2[:, 0, 0] -= gamma * np.conj(d[:, :, 0])
        m2[0, :, :, 0] -= np.conj(gamma) * w[:, :, 0]

        frame = _frame(bb, bf, ff)
        _to_frame(w, frame, "hha")
        _to_frame(t, frame, "hhha")
        _to_frame(m2, frame, "ahha")
        # Rm_{i jbar k lbar} = quad - dd with quad = g^{qbar p} d_k g_{i qbar}
        # conj(d_l g_{j pbar}); in the frame, quad = sum_m D'[k,i,m]
        # conj(D'[l,j,m]) with D' the frame transform of d.
        _to_frame(d, frame, "hha")
        _to_frame(dd, frame, "haha")
        a = d.swapaxes(0, 1)  # a[i, k, m] = D'[k, i, m]
        rm = a[:, None, :, None, 0] * np.conj(a[None, :, None, :, 0])
        rm += a[:, None, :, None, 1] * np.conj(a[None, :, None, :, 1])
        rm -= dd
        return _sum_sq(w, 3), _sum_sq(rm, 4), 2.0 * (_sum_sq(t, 4) + _sum_sq(m2, 4))

    def record(self, t: float, phi: np.ndarray, rhs: np.ndarray,
               g: HermitianField) -> MonitorRecord:
        grid = self.grid
        geom = self.geometry
        shape = grid.shape
        e_t = math.exp(t)

        tilde = geom.tilde(t)
        lo, hi = relative_eigen_bounds(g, tilde)
        tr = trace_with(g, tilde)
        ratio = e_t * g.det() / geom.density

        s_field, rm2_field, grad2_field = self.curvature_fields(t, phi, g)

        # The sample fibers, stacked on a leading axis: each fiber monitor
        # is a per-fiber sup, scaled, then maximized over the fibers.
        fibers = self.fiber_points
        dev = e_t * np.broadcast_to(g.ff, shape)[fibers] - self.gflat
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
            sup_phi=float(np.max(np.abs(phi))),
            sup_phidot=float(np.max(np.abs(rhs))),
            vol_ratio_min=float(np.min(ratio)),
            vol_ratio_max=float(np.max(ratio)),
            rel_eig_min=float(np.min(lo)),
            rel_eig_max=float(np.max(hi)),
            trace_min=float(np.min(tr)),
            trace_max=float(np.max(tr)),
            s_max=float(np.max(s_field)),
            rm2_max=float(np.max(rm2_field)),
            grad2_max=float(np.max(grad2_field)),
            fiber_dev0=dev0,
            fiber_dev1=dev1,
            fiber_dev2=dev2,
            delta_psi_residual=resid,
            distance_to_limit=float(
                np.max(np.abs(np.broadcast_to(g.bb, shape) - self.chi))
            ),
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
