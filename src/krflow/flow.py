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
their previous level), and F' and the four blocks until a sample or the
next step lets go of them.  A step adds at most 7.4: the candidate, w, one
buffer for the products s * w and the four blocks (det and the midranges
share one scratch, and F' takes det's buffer).  A sample adds about 3: bf,
then the eigenvalue bounds; the rhs reuses the buffer of F'.  A run peaks at
13.3-13.7 fields.  The four irfft overwrite their products instead of
making an untraced copy, which put a step one field above these figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import HermitianField, SpectralGrid, relative_eigen_bounds
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
    or a non-finite value raises before any history is rotated, so the
    caller can halve dt and retry cleanly.

    Step ratios r = dt / dt_prev obey the zero-stability bound r <= 1 +
    sqrt(2): a longer step (after a halving) restarts from the one-step
    start-up instead.

    The update holds about 3.9 whole fields (lam, inv and one coefficient
    buffer; the candidate and one complex scratch) and keeps only the
    candidate while evaluating it.
    """

    def __init__(self, problem: "FlowProblem"):
        self.problem = problem
        s_bb, s_ff, _, _ = problem.grid._half_hessian_syms
        self.u = np.zeros(np.broadcast_shapes(s_bb.shape, s_ff.shape), dtype=complex)
        self.f = None         # rfft(F') at the accepted point, once evaluated
        self.mu = None        # proxy midranges there
        self.forcing = None   # F' there, until a sample or the next step
        self.blocks = None    # (bb, Re bf, Im bf, ff) there, likewise
        self.u_prev = self.f_prev = self.h_prev = None

    def _evaluate(self, u, t):
        """(rfft(F'), midranges, F', blocks) of the state u at time t."""
        forcing, blocks, mu = self.problem._forcing(u, t)
        f = self.problem.grid.rfft(forcing)
        # The zero mode is the sum of all entries of F': a +inf block entry
        # keeps every minimum finite but shows up here, on this step.
        if not np.isfinite(f.flat[0]):
            raise NonFiniteValue(f"right-hand side lost finiteness at t={t:.6f}")
        return f, mu, forcing, blocks

    def __call__(self, t, dt):
        if self.f is None:
            self.f, self.mu, self.forcing, self.blocks = self._evaluate(self.u, t)

        r = 0.0
        if self.u_prev is not None:
            r = dt / self.h_prev
            if r > _R_MAX:
                r = 0.0  # restart from the one-step start-up
        a0, a2 = _bdf2_weights(r)
        s_bb, s_ff, _, _ = self.problem.grid._half_hessian_syms
        mu_b, mu_f = self.mu
        lam = mu_b * s_bb + mu_f * s_ff  # the symbol of M'
        # Each factor is evaluated in the formula's order; the four terms go
        # through one real coefficient buffer and one complex scratch.
        inv = (a0 + dt) - dt * lam
        np.divide(1.0, inv, out=inv)
        coef = 1.0 - dt * lam
        coef *= 1.0 + r
        coef *= inv
        new = coef * self.u
        scratch = np.multiply(inv, dt * (1.0 + r), out=coef) * self.f
        new += scratch
        if r:
            np.multiply(lam, dt * r, out=coef)
            coef -= a2
            coef *= inv
            new += np.multiply(coef, self.u_prev, out=scratch)
            new -= np.multiply(np.multiply(inv, dt * r, out=coef), self.f_prev, out=scratch)
        del lam, inv, coef, scratch
        # Only a sample reads F' and the blocks.  Dropped before the update,
        # they left a hole atop the heap that glibc returned to the OS and the
        # step faulted back in (661 page faults a 16^4 step, against 5).
        self.forcing = self.blocks = None

        f, mu, forcing, blocks = self._evaluate(new, t + dt)
        self.u_prev, self.f_prev, self.h_prev = self.u, self.f, dt
        self.u, self.f, self.mu, self.forcing, self.blocks = new, f, mu, forcing, blocks

    def phi(self) -> np.ndarray:
        return self.problem.grid.irfft(self.u)

    def sample_rhs(self, phi):
        """The rhs and metric blocks at the accepted point, with no transform.

        The rhs reuses the buffer of F', and the stepper lets go of F' and the blocks.
        """
        rhs, (bb, re, im, ff) = self.forcing, self.blocks
        self.forcing = self.blocks = None
        rhs -= phi
        return rhs, HermitianField.from_parts(bb, re, im, ff)


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
        self.log_omega = np.log(dens)

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
        bb += (1.0 + (geom.spec.base_scale - 1.0) * e) * geom.chi
        ff += e * geom.spec.fiber_scale * geom.g_fiber
        det = bb * ff
        del sw  # after det took w's place: 1100 page faults a 32^4 step, not 4000
        scratch = np.multiply(re, re)
        det -= scratch
        det -= np.multiply(im, im, out=scratch)
        mins = (float(np.min(bb)), float(np.min(ff)), float(np.min(det)))
        if any(math.isnan(m) or m == -math.inf for m in mins):
            raise NonFiniteValue(f"evolving form lost finiteness at t={t:.6f}")
        if min(mins) <= 0.0:
            raise PositivityLost(
                f"evolving form left the positive cone at t={t:.6f}: "
                "min bb {:.3e}, min ff {:.3e}, min det {:.3e}".format(*mins)
            )
        # The proxy's midranges, before det's buffer takes F'.  A +inf entry
        # makes them NaN; it fails the stepper's check on rfft(F') right after.
        with np.errstate(invalid="ignore"):
            coef = np.divide(ff, det, out=scratch)
            mu_b = 0.5 * (float(np.max(coef)) + float(np.min(coef)))
            np.divide(bb, det, out=coef)
            mu_f = 0.5 * (float(np.max(coef)) + float(np.min(coef)))
        del scratch, coef
        forcing = np.log(det, out=det)
        forcing += t
        forcing -= self.log_omega
        return forcing, (bb, re, im, ff), (mu_b, mu_f)

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

        def take_sample(tt):
            cur_phi = stepper.phi()
            if round(tt, 12) in sample_set:
                rhs, g = stepper.sample_rhs(cur_phi)
                if not np.all(np.isfinite(rhs)):
                    raise NonFiniteValue(f"right-hand side lost finiteness at t={tt:.6f}")
                lo, hi = relative_eigen_bounds(g, self.geometry.tilde(tt))
                eig_min, eig_max = float(np.min(lo)), float(np.max(hi))
                if eig_min < opts.positivity_floor:
                    raise PositivityLost(
                        f"relative eigenvalue {eig_min:.3e} below floor at t={tt:.6f}"
                    )
                states.append(
                    FlowState(tt, float(np.max(np.abs(cur_phi))), float(np.max(np.abs(rhs))),
                              eig_min, eig_max, steps)
                )
                if sampler is not None:
                    records.append(sampler(tt, cur_phi, rhs, g))
            if round(tt, 12) in snapshot_set:
                snapshots[tt] = cur_phi
            return cur_phi

        if 0.0 in snapshot_set:
            snapshots[0.0] = np.zeros(self.grid.shape)

        stepper = _Imex2Stepper(self)

        for target in event_list:
            phi = None  # the last event's phi, not held while stepping
            while t < target - 1e-12:
                # equal steps of at most dt_max over the rest of the
                # interval, so an event never forces a short step
                n = max(1, math.ceil((target - t) / opts.dt_max - 1e-9))
                dt = (target - t) / n
                for halving in range(opts.max_halvings + 1):
                    try:
                        stepper(t, dt)
                        break
                    except PositivityLost:
                        if halving == opts.max_halvings:
                            raise
                        dt *= 0.5
                t = t + dt
                steps += 1
                if abs(t - target) < 1e-10:
                    t = target
            phi = take_sample(target)

        return FlowResult(
            states=states,
            records=records,
            snapshots=snapshots,
            final_phi=phi,
            final_t=t,
            total_steps=steps,
        )
