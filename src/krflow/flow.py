"""Time integration of the normalized collapsing-flow scalar equation.

The evolving potential phi solves

    d(phi)/dt = log( e^t * det(g_hat(t) + Hess(phi)) / Omega ) - phi,
    phi(0) = 0,

where g_hat(t) are the coefficient blocks of the reference family, Hess is
the mixed complex Hessian, and Omega is the pinned volume density (a
base-only field).  All wedge combinatorics are folded into Omega, so the
right-hand side is literally t + log(det g) - log(Omega) - phi.

Two steppers are provided.

* "rk4": classical explicit Runge-Kutta with the parabolic step bound
  dt = min(dt_max, cfl_safety * h^2 / Lambda), Lambda the largest pointwise
  eigenvalue of the inverse metric.  Robust but the bound collapses like
  e^{-t} as the fiber shrinks, so it is only practical for short runs.

* "imex2" (default): semi-implicit BDF2.  The Fourier-diagonal proxy
  M = mu_b * dd_b + mu_f * dd_f - 1, with mu_* the midrange of the current
  pointwise inverse-metric coefficients, is solved implicitly (a diagonal
  division per mode); the remainder F(phi) - M phi is extrapolated
  explicitly to second order.  The remainder is a *relative* perturbation
  of the proxy of size (max - min)/(max + min) < 1 uniformly in t, so the
  step stays stable at fixed dt even though the fiber diffusivity itself
  grows like e^t.  One rhs evaluation per step.  An integrating-factor RK4
  variant was tried and rejected: with any diagonal factor the transformed
  remainder acquires exponentially large cross-mode entries once
  dt * mu * k^2 >> 1, and runs with fiber-coupled data went unstable near
  t ~ 3 + ln(dt_ref/dt) in practice.

Both steppers halve dt and retry when positivity of the evolving form is
lost at any stage, up to max_halvings times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import HermitianField, SpectralGrid, relative_eigen_bounds
from .errors import ConfigInvalid, NonFiniteValue, NonPositiveDensity, PositivityLost
from .geometry import SurrogateGeometry


@dataclass
class HomogeneousCoefficients:
    """Closed-form metric coefficients for spatially homogeneous data.

    With omega_0 = a0 * chi + b0 * omega_E the evolving form stays
    a(t) chi + b(t) omega_E with a(t) = 1 + (a0 - 1) e^{-t} and
    b(t) = b0 e^{-t}; the potential solves the scalar equation
    d(phi)/dt = log a(t) - phi.
    """

    a0: float = 1.0
    b0: float = 1.0

    def a(self, t):
        return 1.0 + (self.a0 - 1.0) * np.exp(-np.asarray(t, dtype=float))

    def b(self, t):
        return self.b0 * np.exp(-np.asarray(t, dtype=float))


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta step of dy/dt = f(t, y) from (t, y) by h.

    The production RK4 loops share it (the verification oracles keep
    their own integrators); `y` may be a float or an array.
    """
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def homogeneous_potential(a0: float, t_eval, dt: float = 1e-3) -> np.ndarray:
    """Integrate d(phi)/dt = log a(t) - phi with fixed-step classical RK4.

    The production-side reference for homogeneous runs; the verification
    module holds an independent adaptive integration of the same equation.
    """
    t_eval = np.asarray(t_eval, dtype=float)

    def f(t, y):
        return math.log1p((a0 - 1.0) * math.exp(-t)) - y

    out = np.empty_like(t_eval)
    t, y = 0.0, 0.0
    for i, target in enumerate(t_eval):
        while t < target - 1e-14:
            h = min(dt, target - t)
            y = rk4_step(f, t, y, h)
            t += h
        out[i] = y
    return out


def sample_times(t_end: float, interval: float) -> list:
    """Sorted sample times: the multiples k * interval <= t_end, plus t_end.

    A multiple may exceed t_end by 1e-12 (the steppers' event slack), so a
    commensurate interval ends exactly on its last multiple; times are
    rounded to 12 decimals.
    """
    times = {round(k * interval, 12) for k in range(1, int(t_end / interval) + 2)
             if k * interval <= t_end + 1e-12}
    times.add(round(t_end, 12))
    return sorted(times)


@dataclass
class FlowOptions:
    t_end: float = 10.0
    dt_max: float = 0.00625
    cfl_safety: float = 0.2
    scheme: str = "imex2"
    positivity_floor: float = 1e-8
    max_halvings: int = 40
    sample_interval: float = 0.05

    def __post_init__(self):
        if self.scheme not in ("imex2", "rk4"):
            raise ConfigInvalid(f"unknown scheme {self.scheme!r}; choose imex2 or rk4")
        if self.t_end <= 0 or self.dt_max <= 0 or self.sample_interval <= 0:
            raise ConfigInvalid("t_end, dt_max and sample_interval must be positive")


class _Imex2Stepper:
    """Per-run state for the semi-implicit BDF2 scheme.

    Holds the rhs/metric at the accepted point plus one level of history.
    A call computes the candidate state AND evaluates its rhs (needed for
    the next step anyway); positivity loss at the candidate raises before
    any history is rotated, so the caller can halve dt and retry cleanly.
    Variable step ratios r = dt/dt_prev are handled by the two-step BDF
    coefficients (zero-stable for r <= 1 + sqrt(2); halving recovery tops
    out at r = 2).
    """

    def __init__(self, problem: "FlowProblem"):
        self.problem = problem
        self.f_now = None        # rhs array at the accepted (phi, t)
        self.g_now = None        # metric blocks there
        self.spec_now = None     # rfft of the accepted phi
        self.spec_prev = None    # one history level for the BDF2 formula
        self.f_prev_spec = None
        self.h_prev = None

    @staticmethod
    def _midrange_mu(g: HermitianField):
        det = g.det()
        coef_b = g.ff / det
        coef_f = g.bb / det
        mu_b = 0.5 * (float(np.max(coef_b)) + float(np.min(coef_b)))
        mu_f = 0.5 * (float(np.max(coef_f)) + float(np.min(coef_f)))
        return mu_b, mu_f

    def __call__(self, phi, t, dt):
        prob = self.problem
        grid = prob.grid
        s_bb, s_ff, _, _ = grid._half_hessian_syms
        if self.spec_now is None:
            self.spec_now = grid.rfft(phi)
        if self.f_now is None:
            self.f_now, self.g_now = prob._rhs_from_spec(phi, self.spec_now, t)

        mu_b, mu_f = self._midrange_mu(self.g_now)
        lam = mu_b * s_bb + mu_f * s_ff - 1.0
        u = self.spec_now
        f_now_spec = grid.rfft(self.f_now)

        if self.spec_prev is None:
            # semi-implicit Euler start-up step
            new_spec = (u + dt * (f_now_spec - lam * u)) / (1.0 - dt * lam)
        else:
            r = dt / self.h_prev
            a0 = (1.0 + 2.0 * r) / (1.0 + r)
            a1 = -(1.0 + r)
            a2 = r * r / (1.0 + r)
            rem_now = f_now_spec - lam * u
            rem_prev = self.f_prev_spec - lam * self.spec_prev
            new_spec = (
                -a1 * u - a2 * self.spec_prev
                + dt * ((1.0 + r) * rem_now - r * rem_prev)
            ) / (a0 - dt * lam)

        phi_new = grid.irfft(new_spec)
        f_new, g_new = prob._rhs_from_spec(phi_new, new_spec, t + dt)

        self.spec_prev, self.f_prev_spec, self.h_prev = u, f_now_spec, dt
        self.f_now, self.g_now, self.spec_now = f_new, g_new, new_spec
        return phi_new


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
    """Bundles grid, geometry and pinned density; owns the steppers."""

    def __init__(self, geometry: SurrogateGeometry, omega_density: np.ndarray | None = None):
        self.geometry = geometry
        self.grid: SpectralGrid = geometry.grid
        dens = geometry.volume.density if omega_density is None else np.asarray(omega_density)
        if np.min(dens) <= 0.0:
            raise NonPositiveDensity(f"pinned density must be positive: min {np.min(dens):.6g}")
        self.log_omega = np.log(dens)

    # -- right-hand side ---------------------------------------------------

    def metric(self, phi: np.ndarray, t: float) -> HermitianField:
        return self.geometry.hat(t) + self.grid.hessian(phi)

    def _hessian_from_spec(self, spec) -> HermitianField:
        g = self.grid
        s_bb, s_ff, s_re, s_im = g._half_hessian_syms
        bb = g.irfft(s_bb * spec)
        ff = g.irfft(s_ff * spec)
        bf = g.irfft(s_re * spec) + 1j * g.irfft(s_im * spec)
        return HermitianField(bb, bf, ff)

    def _rhs_from_spec(self, w, w_spec, t):
        g = self.geometry.hat(t) + self._hessian_from_spec(w_spec)
        det = g.det()
        mins = (float(np.min(g.bb)), float(np.min(g.ff)), float(np.min(det)))
        # A NaN anywhere propagates into its block's minimum, and it fails
        # no `<= 0` test; halving dt cannot repair it, so it is not
        # PositivityLost.
        if any(math.isnan(m) for m in mins):
            raise NonFiniteValue(f"evolving form lost finiteness at t={t:.6f}")
        if min(mins) <= 0.0:
            raise PositivityLost(
                f"evolving form left the positive cone at t={t:.6f}: "
                "min bb {:.3e}, min ff {:.3e}, min det {:.3e}".format(*mins)
            )
        rhs = t + np.log(det) - self.log_omega - w
        return rhs, g

    def rhs(self, phi: np.ndarray, t: float):
        """Full right-hand side and the evolving metric blocks at (phi, t)."""
        rhs, g = self._rhs_from_spec(phi, self.grid.rfft(phi), t)
        if not np.all(np.isfinite(rhs)):
            raise NonFiniteValue(f"right-hand side lost finiteness at t={t:.6f}")
        return rhs, g

    # -- stepping ----------------------------------------------------------

    def _step_rk4(self, phi, t, dt):
        return rk4_step(lambda tt, p: self.rhs(p, tt)[0], t, phi, dt)

    def _rk4_dt(self, phi, t, opts: FlowOptions) -> float:
        _, g = self.rhs(phi, t)
        det = g.det()
        lam = float(np.max(np.maximum(g.ff, g.bb) / det + np.abs(g.bf) / det))
        h = 1.0 / max(self.grid.n_base, self.grid.n_fiber)
        return min(opts.dt_max, opts.cfl_safety * h * h / lam)

    def run(
        self,
        opts: FlowOptions,
        sampler=None,
        snapshot_times=(),
    ) -> FlowResult:
        """Integrate from phi = 0 at t = 0 to t_end.

        Samples land on the multiples of sample_interval up to t_end, plus
        t_end itself (see sample_times), and on any snapshot times; dt is
        clipped to hit them, and the run never passes t_end.  `sampler`,
        if given, is called as sampler(problem, t, phi, rhs, g) at each
        sample time and its return value collected into result.records.
        """
        opts = opts if isinstance(opts, FlowOptions) else FlowOptions(**opts)
        grid = self.grid
        phi = np.zeros(grid.shape)
        t = 0.0
        steps = 0

        sample_set = set(sample_times(opts.t_end, opts.sample_interval))
        events = set(sample_set)
        events |= {round(float(s), 12) for s in snapshot_times if 0.0 < s <= opts.t_end}
        event_list = sorted(events)
        snapshot_set = {round(float(s), 12) for s in snapshot_times}

        states, records, snapshots = [], [], {}

        def take_sample(tt, cur_phi):
            if round(tt, 12) in sample_set:
                rhs, g = self.rhs(cur_phi, tt)
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
                    records.append(sampler(self, tt, cur_phi, rhs, g))
            if round(tt, 12) in snapshot_set:
                snapshots[tt] = cur_phi.copy()

        if 0.0 in snapshot_set:
            snapshots[0.0] = phi.copy()

        stepper = _Imex2Stepper(self) if opts.scheme == "imex2" else self._step_rk4

        for target in event_list:
            while t < target - 1e-12:
                base_dt = (
                    opts.dt_max if opts.scheme == "imex2" else self._rk4_dt(phi, t, opts)
                )
                dt = min(base_dt, target - t)
                for halving in range(opts.max_halvings + 1):
                    try:
                        phi_new = stepper(phi, t, dt)
                        break
                    except PositivityLost:
                        if halving == opts.max_halvings:
                            raise
                        dt *= 0.5
                phi = phi_new
                t = t + dt
                steps += 1
                if abs(t - target) < 1e-10:
                    t = target
            take_sample(target, phi)

        return FlowResult(
            states=states,
            records=records,
            snapshots=snapshots,
            final_phi=phi,
            final_t=t,
            total_steps=steps,
        )


# -- separable product reduction ------------------------------------------


class _Reduced2D:
    """Classical-RK4 integrator for one factor of a separable product run.

    kind "base":  d(phi)/dt = log((a(t) chi + e^{-t} H psi_b + H phi)/chi) - phi
    kind "fiber": d(phi)/dt = log((b0 g_E + H psi_f + e^{t} H phi)/(b0 g_E)) - phi

    with H the factor's own 2D mixed Hessian.  Adding the two solutions
    reproduces the 4D flow exactly for additively separable initial data.
    """

    def __init__(self, geometry: SurrogateGeometry, kind: str, psi2: np.ndarray):
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
    geometry: SurrogateGeometry,
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
