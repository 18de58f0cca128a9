"""Time integration of the normalized collapsing-flow scalar equation.

The evolving potential phi solves

    d(phi)/dt = log( e^t * det(g_hat(t) + Hess(phi)) / Omega ) - phi,
    phi(0) = 0,

where g_hat(t) are the coefficient blocks of the reference family, Hess is
the mixed complex Hessian, and Omega is the pinned volume density (a
base-only field).  All wedge combinatorics are folded into Omega, so the
right-hand side is literally t + log(det g) - log(Omega) - phi.

The stepper is semi-implicit BDF2 ("imex2").  The Fourier-diagonal proxy
M = mu_b * dd_b + mu_f * dd_f - 1, with mu_* the midrange of the current
pointwise inverse-metric coefficients, is solved implicitly (a diagonal
division per mode); the remainder F(phi) - M phi is extrapolated
explicitly to second order.  The remainder is a *relative* perturbation
of the proxy of size rho at most the contrast (max - min)/(max + min) < 1,
uniformly in t, so dt need not shrink as the fiber diffusivity grows like
e^t; an explicit step would shrink like e^{-t}.  A contrast below 1 makes
IMEX Euler stable, but not BDF2: in the stiff limit dt * mu * |k|^2 ->
infinity a mode amplifies by the roots zeta of zeta^2 + rho ((1 + r) zeta
- r) = 0, r the step ratio, which stay inside the unit circle only for
rho in (-1/r, 1/(1 + 2r)), that is (-1, 1/3) at equal steps.  The shipped
twist (twist_amplitude 0.02) gives the base coefficient ff/det a contrast
of 2 pi^2 * 0.02 = 0.395, above 1/3, so high base modes can grow once dt
* mu_b * |k|^2 is large, on fine base grids (README, Known limitations).
An integrating-factor RK4 variant was tried and rejected: with any diagonal
factor the transformed remainder acquires exponentially large cross-mode
entries once dt * mu * k^2 >> 1, and runs with fiber-coupled data went
unstable near t ~ 3 + ln(dt_ref/dt) in practice.

The stepper carries the spectral state rfft(phi), and two identities
keep a step at five transforms (one rfft, four irfft):
- the -phi of F cancels the -1 of M, so the remainder is F' - M' phi
  with F' = t + log det g - log Omega and M' = M + 1; phi itself is
  transformed back only at sample, snapshot and end times;
- g_hat(t) + Hess(phi) = (a_t chi, 0, e^{-t} fiber_scale) + Hess(w) with
  w = phi + e^{-t} psi_0 and a_t = 1 + (base_scale - 1) e^{-t}, since
  omega_0 = base_scale chi + fiber_scale omega_E + Hess(psi_0); so the
  metric blocks are four irfft of rfft(phi) + e^{-t} rfft(psi_0), and no
  reference form is built.
Each interval between events is split into equal steps of at most
dt_max, and the step ratio keeps BDF2's zero-stability bound 1 + sqrt(2).
The stepper halves dt and retries when positivity of the evolving form is
lost, up to max_halvings times.

Working set, in whole real fields (traced at 16^4 and 32^4; a half
spectrum is about one field).  A run keeps four half spectra (u, f and
their previous level) and a fifth that the next candidate reuses.  The
pointwise work of a step and of a sample runs over row blocks, so none of
it forms a whole-field temporary.  A step adds about 6.3: w, one buffer for
the products s * w, the four blocks and det, whose buffer takes F'.  Only
the step that lands on a sample returns F' and the blocks; the run hands
them to the sample, whose rhs reuses the buffer of F', and lets go of them
before it steps on.  A sample adds about one field at 16^4.  A run peaks
at 11.4-11.9 fields (13.3-13.7 with whole-field temporaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import HermitianField, SpectralGrid, relative_eigen_bounds, row_blocks
from .errors import ConfigInvalid, NonFiniteValue, NonPositiveDensity, PositivityLost
from .geometry import SurrogateGeometry
# Read by perfbench as flow.product_reduced_run until ROADMAP item 1 imports it from oracle.
from .oracle import product_reduced_run


def sample_times(t_end: float, interval: float) -> list:
    """Sorted sample times: the multiples k * interval <= t_end, plus t_end.

    A multiple may exceed t_end by 1e-12 (the run's event slack), so a
    commensurate interval ends exactly on its last multiple, and t_end
    joins only if a run would step past the last multiple to reach it;
    times are rounded to 12 decimals.
    """
    times = sorted({round(k * interval, 12) for k in range(1, int(t_end / interval) + 2)
                    if k * interval <= t_end + 1e-12})
    end = round(t_end, 12)
    if not times or times[-1] < end - 1e-12:
        times.append(end)
    return times


@dataclass
class FlowOptions:
    t_end: float = 10.0
    dt_max: float = 0.00625
    positivity_floor: float = 1e-8
    max_halvings: int = 40
    sample_interval: float = 0.05

    def __post_init__(self):
        for name in ("t_end", "dt_max", "sample_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigInvalid(f"{name} must be finite and positive, got {value!r}")
        floor = self.positivity_floor
        if not (math.isfinite(floor) and floor >= 0):
            raise ConfigInvalid(f"positivity_floor must be finite and >= 0, got {floor!r}")
        if not isinstance(self.max_halvings, int) or self.max_halvings < 0:
            raise ConfigInvalid(f"max_halvings must be an integer >= 0, got {self.max_halvings!r}")


# Zero-stability bound of variable-step BDF2 on the step ratio dt / dt_prev
# (Grigorieff, Numer. Math. 42, 1983).
_R_MAX = 1.0 + math.sqrt(2.0)


def _bdf2_weights(r: float):
    """(a0, a2) of variable-step BDF2 at step ratio r = dt / dt_prev.

    The new state solves a0 u_new - (1 + r) u + a2 u_prev = dt * (extrapolated
    remainder); r = 0 is the one-step start-up (semi-implicit Euler).
    """
    assert 0.0 <= r <= _R_MAX, f"BDF2 step ratio {r!r} outside [0, 1 + sqrt(2)]"
    return (1.0 + 2.0 * r) / (1.0 + r), r * r / (1.0 + r)


class _Imex2Stepper:
    """Semi-implicit BDF2 on the spectral state u = rfft(phi).

    At the accepted point it holds u, f = rfft(F') with F' the reduced
    forcing t + log det g - log Omega, and the proxy midranges, plus one
    history level (u, f, dt).  With M' = mu_b dd_b + mu_f dd_f the remainder
    F - M phi equals F' - M' phi (the -phi of F cancels the -1 of M), so a
    step needs phi in no space but the spectral one:

        a0 u_new - (1 + r) u + a2 u_prev
            = dt ((1 + r)(f - M' u) - r (f_prev - M' u_prev)) + dt (M' - 1) u_new,

    solved mode by mode with real weights.  Evaluating the candidate costs
    four irfft (its metric blocks, see FlowProblem._forcing) and one rfft
    (of its F'); phi is transformed back only at events.  Positivity loss
    or a non-finite form raises before any history is rotated, so the
    caller can halve dt and retry cleanly; a non-finite rfft(F') raises
    after it, and ends the run.

    Step ratios r = dt / dt_prev obey the zero-stability bound r <= 1 +
    sqrt(2): a longer step (after a halving) restarts from the one-step
    start-up instead.

    The update runs over row blocks: lam, inv, one coefficient buffer and
    one complex scratch are block-sized, and each block writes into the
    candidate.  A step called with keep returns (F', blocks) at t + dt, the
    blocks (bb, Re bf, Im bf, ff) of g; any other step returns None, and
    lets go of the blocks before rfft(F') and of F' after it.
    """

    def __init__(self, problem: "FlowProblem"):
        self.problem = problem
        s_bb, s_ff, _, _ = problem.grid._half_hessian_syms
        self.u = np.zeros(np.broadcast_shapes(s_bb.shape, s_ff.shape), dtype=complex)
        self.f = None         # rfft(F') at the accepted point, once evaluated
        self.mu = None        # proxy midranges there
        self.u_prev = self.f_prev = self.h_prev = None
        self.spare = None     # the buffer of the level that left the history

    def _transform(self, forcing, t):
        f = self.problem.grid.rfft(forcing)
        # The zero mode is the sum of all entries of F': a +inf block entry
        # keeps every minimum finite but shows up here, on this step.
        if not np.isfinite(f.flat[0]):
            raise NonFiniteValue(f"right-hand side lost finiteness at t={t:.6f}")
        return f

    def __call__(self, t, dt, keep=False):
        if self.f is None:
            forcing, blocks, self.mu = self.problem._forcing(self.u, t)
            del blocks
            self.f = self._transform(forcing, t)
            del forcing

        r = 0.0
        if self.u_prev is not None:
            r = dt / self.h_prev
            if r > _R_MAX:
                r = 0.0  # restart from the one-step start-up
        a0, a2 = _bdf2_weights(r)
        s_bb, s_ff, _, _ = self.problem.grid._half_hessian_syms
        mu_b, mu_f = self.mu
        # Reusing the buffer of the level that left the history keeps the heap
        # top in use: allocated anew, a 16^4 step faulted 219 pages back in.
        new = np.empty_like(self.u) if self.spare is None else self.spare
        # Row blocks of the update, each factor evaluated in the formula's
        # order through one real coefficient buffer and one complex scratch.
        for rows in row_blocks(new.shape):
            lam = mu_b * s_bb[rows] + mu_f * s_ff  # the symbol of M'
            inv = (a0 + dt) - dt * lam
            np.divide(1.0, inv, out=inv)
            coef = 1.0 - dt * lam
            coef *= 1.0 + r
            coef *= inv
            out = np.multiply(coef, self.u[rows], out=new[rows])
            scratch = np.multiply(inv, dt * (1.0 + r), out=coef) * self.f[rows]
            out += scratch
            if r:
                np.multiply(lam, dt * r, out=coef)
                coef -= a2
                coef *= inv
                out += np.multiply(coef, self.u_prev[rows], out=scratch)
                out -= np.multiply(np.multiply(inv, dt * r, out=coef), self.f_prev[rows],
                                   out=scratch)
        del lam, inv, coef, scratch

        forcing, blocks, self.mu = self.problem._forcing(new, t + dt)
        # PositivityLost, the one error retried, is raised by now: the history
        # rotates before the rfft, which then holds two half spectra fewer.
        self.spare = None if keep else self.u_prev  # a sample holds no spare
        self.u_prev, self.f_prev, self.h_prev, self.u = self.u, self.f, dt, new
        if not keep:
            blocks = None
        self.f = self._transform(forcing, t + dt)
        return (forcing, blocks) if keep else None

    def phi(self) -> np.ndarray:
        return self.problem.grid.irfft(self.u)


def _sup_abs(x) -> float:
    """max |x| with no |x| temporary; NaN if x holds one."""
    return abs(float(np.maximum(np.max(x), -np.min(x))))  # abs: a -0.0 maximum reads +0.0


def _eigen_range(blocks, ref: HermitianField):
    """(min, max) of the eigenvalues of the metric blocks relative to ref, by row blocks."""
    lo, hi = np.inf, -np.inf
    for rows in row_blocks(blocks[0].shape):
        rel = relative_eigen_bounds(HermitianField.from_parts(*(b[rows] for b in blocks)),
                                    HermitianField(ref.bb[rows], ref.bf, ref.ff))
        lo, hi = np.minimum(lo, rel[0].min()), np.maximum(hi, rel[1].max())
        del rel  # before the next block's bounds
    return float(lo), float(hi)


@dataclass
class FlowState:
    """Cheap per-sample summary of the evolving solution."""

    t: float
    sup_phi: float
    sup_phidot: float
    eig_min: float
    eig_max: float
    steps: int


@dataclass
class FlowResult:
    states: list
    records: list
    snapshots: dict
    final_phi: np.ndarray
    final_t: float
    total_steps: int


class FlowProblem:
    """Bundles grid, geometry and pinned density; owns the stepper."""

    def __init__(self, geometry: SurrogateGeometry, omega_density: np.ndarray | None = None):
        self.geometry = geometry
        self.grid: SpectralGrid = geometry.grid
        dens = geometry.density if omega_density is None else np.asarray(omega_density)
        if np.min(dens) <= 0.0:
            raise NonPositiveDensity(f"pinned density must be positive: min {np.min(dens):.6g}")
        self.log_omega = np.broadcast_to(np.log(dens), self.grid.shape)  # row blocks slice it

    # -- right-hand side ---------------------------------------------------

    def metric(self, phi: np.ndarray, t: float) -> HermitianField:
        """The evolving form hat(t) + H(phi); raises off the positive cone as rhs does."""
        return self.rhs(phi, t)[1]

    def rhs(self, phi: np.ndarray, t: float):
        """Full right-hand side and the evolving metric blocks at (phi, t).

        The same formula the imex2 stepper steps with (see _forcing).
        """
        rhs, (bb, re, im, ff), _ = self._forcing(self.grid.rfft(phi), t)
        rhs -= phi
        if not np.all(np.isfinite(rhs)):
            raise NonFiniteValue(f"right-hand side lost finiteness at t={t:.6f}")
        return rhs, HermitianField.from_parts(bb, re, im, ff)

    def _forcing(self, u, t):
        """F', the blocks (bb, Re bf, Im bf, ff) of g and the proxy midranges.

        F' = t + log det g - log Omega; the midranges (mu_b, mu_f) are those
        of the inverse-metric coefficients ff / det and bb / det, which
        _Imex2Stepper takes as its proxy.

        g = hat(t) + H(phi) with u = rfft(phi).  hat(t) + H(phi) = (a_t chi, 0,
        e^{-t} fiber_scale) + H(phi + e^{-t} psi_0) with a_t = 1 + (base_scale
        - 1) e^{-t}, because omega_0 = base_scale chi + fiber_scale omega_E +
        H(psi_0) and H is linear; so the blocks are four irfft of u + e^{-t}
        rfft(psi_0) and no reference form is built.

        Raises unless the minima of bb, ff and det are finite and positive.
        A NaN or -inf entry reaches its block's minimum and fails no `<= 0`
        test as a NaN, or reads as lost positivity as -inf; halving dt cannot
        repair either, so both are NonFiniteValue, not PositivityLost.
        """
        grid = self.grid
        geom = self.geometry
        e = math.exp(-t)
        w = geom.psi0_spec * e
        w += u
        sw = np.empty_like(w)
        bb, ff, re, im = [grid.irfft(np.multiply(s, w, out=sw), overwrite=True)
                          for s in grid._half_hessian_syms]
        del w
        base = (1.0 + (geom.spec.base_scale - 1.0) * e) * geom.chi
        fiber = e * geom.spec.fiber_scale * geom.g_fiber
        det = np.empty_like(bb)  # then F', in place
        del sw  # after det took w's place: 1100 page faults a 32^4 step, not 4000
        # Row blocks, each giving the minima of bb, ff and det and the range of
        # ff / det and of bb / det.  A form that fails raises after the loop,
        # so its log and quotients go unwarned.
        ext = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for rows in row_blocks(det.shape):
                b, f, d = bb[rows], ff[rows], det[rows]
                b += base[rows]
                f += fiber
                np.multiply(b, f, out=d)
                d -= re[rows] * re[rows]
                d -= im[rows] * im[rows]
                ext.append([b.min(), f.min(), d.min()])
                for coef in (f / d, b / d):
                    ext[-1] += [coef.min(), coef.max()]
                np.log(d, out=d)
                d += t
                d -= self.log_omega[rows]
        lo, hi = np.min(ext, axis=0).tolist(), np.max(ext, axis=0).tolist()
        mins = lo[:3]
        if any(math.isnan(m) or m == -math.inf for m in mins):
            raise NonFiniteValue(f"evolving form lost finiteness at t={t:.6f}")
        if min(mins) <= 0.0:
            raise PositivityLost(
                f"evolving form left the positive cone at t={t:.6f}: "
                "min bb {:.3e}, min ff {:.3e}, min det {:.3e}".format(*mins)
            )
        # The proxy's midranges.  A +inf entry makes them NaN; it fails the
        # stepper's check on rfft(F') right after.
        return det, (bb, re, im, ff), (0.5 * (hi[4] + lo[3]), 0.5 * (hi[6] + lo[5]))

    # -- stepping ----------------------------------------------------------

    def run(
        self,
        opts: FlowOptions,
        sampler=None,
        snapshot_times=(),
    ) -> FlowResult:
        """Integrate from phi = 0 at t = 0 to t_end.

        Samples land on the multiples of sample_interval up to t_end, plus
        t_end itself (see sample_times), and on any snapshot times; each
        interval between these events is split into equal steps of at most
        dt_max, and the run never passes t_end.  `sampler`, if given, is
        called as sampler(t, phi, rhs, g) at each sample time and
        its return value collected into result.records.
        """
        t = 0.0
        steps = 0

        sample_set = set(sample_times(opts.t_end, opts.sample_interval))
        events = set(sample_set)
        events |= {round(float(s), 12) for s in snapshot_times if 0.0 < s <= opts.t_end}
        event_list = sorted(events)
        snapshot_set = {round(float(s), 12) for s in snapshot_times}

        states, records, snapshots = [], [], {}

        def take_sample(tt, kept):
            cur_phi = stepper.phi()
            if round(tt, 12) in sample_set:
                rhs, blocks = kept
                rhs -= cur_phi  # in the buffer of F'
                sup_phidot = _sup_abs(rhs)
                if not math.isfinite(sup_phidot):
                    raise NonFiniteValue(f"right-hand side lost finiteness at t={tt:.6f}")
                eig_min, eig_max = _eigen_range(blocks, self.geometry.tilde(tt))
                if eig_min < opts.positivity_floor:
                    raise PositivityLost(
                        f"relative eigenvalue {eig_min:.3e} below floor at t={tt:.6f}"
                    )
                states.append(
                    FlowState(tt, _sup_abs(cur_phi), sup_phidot, eig_min, eig_max, steps)
                )
                if sampler is not None:
                    records.append(sampler(tt, cur_phi, rhs, HermitianField.from_parts(*blocks)))
            if round(tt, 12) in snapshot_set:
                snapshots[tt] = cur_phi
            return cur_phi

        if 0.0 in snapshot_set:
            snapshots[0.0] = np.zeros(self.grid.shape)

        stepper = _Imex2Stepper(self)

        for target in event_list:
            # the last event's phi and sample data, not held while stepping
            phi = kept = None
            while t < target - 1e-12:
                # equal steps of at most dt_max over the rest of the
                # interval, so an event never forces a short step
                n = max(1, math.ceil((target - t) / opts.dt_max - 1e-9))
                dt = (target - t) / n
                for halving in range(opts.max_halvings + 1):
                    # only a step that lands on a sample keeps F' and the blocks
                    keep = target in sample_set and abs(t + dt - target) < 1e-10
                    try:
                        kept = stepper(t, dt, keep)
                        break
                    except PositivityLost:
                        if halving == opts.max_halvings:
                            raise
                        dt *= 0.5
                t = t + dt
                steps += 1
                if abs(t - target) < 1e-10:
                    t = target
            phi = take_sample(target, kept)

        return FlowResult(
            states=states,
            records=records,
            snapshots=snapshots,
            final_phi=phi,
            final_t=t,
            total_steps=steps,
        )
