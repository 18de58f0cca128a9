"""Product geometry: bumpy flat base, flat torus fiber, reference families.

The model space is a product of the base torus and a torus fiber of modulus
tau.  The base reference form chi has coefficient

    chi(x, y) = level + (i ddbar of ripple * cos(2 pi x) cos(2 pi y))_bb,

computed with the grid's own base Hessian so that discrete identities
involving chi are exact.  The fiber carries the flat form omega_E with unit
coefficient in the z_f frame.  The initial form is

    omega_0 = base_scale * chi + fiber_scale * omega_E + i ddbar(psi_0),

which must be positive on the grid; SurrogateGeometry.initial_form builds
it on demand and the geometry does not keep it.  Two reference families
interpolate between omega_0 and the base form:

    hat(t)   = e^{-t} omega_0 + (1 - e^{-t}) chi
    tilde(t) = chi + e^{-t} omega_E

For base_scale = fiber_scale = 1 and psi_0 = 0 the two families coincide.
The flow folds hat(t) into its spectral state and never forms it; only the
fold oracle builds it, as oracle.hat.  tilde(t) is the monitors' comparison
form.

The fiberwise flat representative of omega_0 restricted to a fiber has
constant coefficient g_flat(z) (the fiber average); the potential rho with
i ddbar_fiber(rho) = omega_flat - omega_0|_fiber is solved fiberwise in
Fourier space and normalized so its omega_0-weighted fiber mean vanishes.

The pinned volume density is Omega(z) = chi(z) * g_flat(z), a base-only
field; its coefficient absorbs all wedge combinatorics of the flow's
Monge-Ampere ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import HermitianField, SpectralGrid
from .errors import (
    ConfigInvalid,
    NonPositiveDensity,
    SingularFiberMetric,
    SingularMetric,
)

_TP = 2.0 * np.pi


def _preset_zero(x, y, u, v):
    return np.zeros(np.broadcast_shapes(x.shape, y.shape, u.shape, v.shape))


def _preset_base_cos(x, y, u, v):
    return np.cos(_TP * x) * np.cos(_TP * y) + 0.0 * (u + v)


def _preset_fiber_cos(x, y, u, v):
    return np.cos(_TP * u) + 0.0 * (x + y + v)


def _preset_mixed(x, y, u, v):
    return np.cos(_TP * x) * np.cos(_TP * u) + 0.0 * (y + v)


def _preset_product(x, y, u, v):
    return np.cos(_TP * x) * np.cos(_TP * y) * np.cos(_TP * u) * np.cos(_TP * v)


PSI0_PRESETS = {
    "zero": _preset_zero,
    "base_cos": _preset_base_cos,
    "fiber_cos": _preset_fiber_cos,
    "mixed": _preset_mixed,
    "product": _preset_product,
}


@dataclass
class GeometrySpec:
    """Continuum data of the initial geometry (grid-independent).

    base_level / base_ripple set chi; base_scale / fiber_scale are the
    coefficients of chi and omega_E in omega_0; psi0_preset names the
    initial potential shape, scaled by psi0_amplitude.
    """

    base_level: float = 1.0
    base_ripple: float = 0.02
    base_scale: float = 1.0
    fiber_scale: float = 1.0
    psi0_preset: str = "zero"
    psi0_amplitude: float = 0.05

    def __post_init__(self):
        if self.psi0_preset not in PSI0_PRESETS:
            raise ConfigInvalid(
                f"unknown psi0 preset {self.psi0_preset!r}; "
                f"choose from {sorted(PSI0_PRESETS)}"
            )
        for name in ("base_level", "base_ripple", "base_scale", "fiber_scale", "psi0_amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigInvalid(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.fiber_scale <= 0.0:
            raise SingularFiberMetric(f"fiber_scale must be positive, got {self.fiber_scale}")
        if self.base_scale <= 0.0:
            raise SingularMetric(f"base_scale must be positive, got {self.base_scale}")


class SurrogateGeometry:
    """Grid realization of a GeometrySpec on the product torus.

    Everything downstream (flow right-hand side, monitors, fits) reads the
    geometry through this object.  It keeps only the fields a run reads:
    chi, psi_0's spectrum (psi_0 itself is irfft(psi0_spec)), the flat fiber
    data rho and g_flat, the pinned density and the base Christoffel symbol.
    omega_0, which only construction and the fold oracle read, is rebuilt by
    initial_form().
    """

    def __init__(self, grid: SpectralGrid, spec: GeometrySpec, psi0: np.ndarray | None = None):
        self.grid = grid
        self.spec = spec

        nb = grid.n_base
        xb = np.arange(nb) / nb
        base_pot = spec.base_ripple * np.cos(_TP * xb)[:, None] * np.cos(_TP * xb)[None, :]
        self.chi2 = spec.base_level + grid.base_hessian(base_pot)
        if np.min(self.chi2) <= 0.0:
            raise ConfigInvalid(
                "base form is not positive: min coefficient "
                f"{np.min(self.chi2):.6g} (level {spec.base_level}, ripple {spec.base_ripple})"
            )
        self.chi = self.chi2[:, :, None, None]
        self.g_fiber = 1.0  # omega_E coefficient in the z_f frame

        if psi0 is None:
            psi0 = spec.psi0_amplitude * PSI0_PRESETS[spec.psi0_preset](*grid.coords)
        self.psi0_spec = grid.rfft(psi0)  # the flow folds psi_0 in spectrally
        del psi0

        # omega_0's other blocks are gone before the flat-fiber solve.
        self.rho, self.g_flat = self._solve_flat_fiber(_fiber_block(self.initial_form()))

        self.density = self.chi * self.g_flat
        if np.min(self.density) <= 0.0:
            raise NonPositiveDensity(
                f"volume density must be positive: min {np.min(self.density):.6g}"
            )

        # Only nonzero reference Christoffel on the product: the base one,
        # d/dz_b log(chi).  The tilde family's connection is t-independent.
        gamma2 = grid.base_deriv(self.chi2, "holo") / self.chi2
        self.gamma_b = gamma2[:, :, None, None]

    def initial_form(self) -> HermitianField:
        """omega_0 = base_scale * chi + fiber_scale * omega_E + H(psi_0), built anew."""
        form = self.grid.spectral_hessian(self.psi0_spec)
        form.bb += self.spec.base_scale * self.chi
        form.ff += self.spec.fiber_scale * self.g_fiber
        return form

    def _solve_flat_fiber(self, ff0: np.ndarray):
        """(rho, g_flat) of the fiber block ff0 of omega_0."""
        g0_ff = np.broadcast_to(ff0, self.grid.shape)
        g_flat = np.mean(g0_ff, axis=(2, 3), keepdims=True)
        if np.min(g_flat) <= 0.0:
            raise SingularFiberMetric(
                f"fiber-averaged flat coefficient is not positive: min {np.min(g_flat):.6g}"
            )
        # Solve i ddbar_f rho = g_flat - g0_ff on every fiber at once.
        rho = self.grid.fiber_poisson(g_flat - g0_ff)
        # Pin the additive fiber constant: omega_0-weighted fiber mean zero.
        w = g0_ff / np.sum(g0_ff, axis=(2, 3), keepdims=True)
        rho = rho - np.sum(rho * w, axis=(2, 3), keepdims=True)
        return rho, g_flat

    def tilde(self, t: float) -> HermitianField:
        """Product comparison form chi + e^{-t} omega_E (always positive)."""
        zero = np.zeros((1, 1, 1, 1))
        return HermitianField(self.chi, zero + 0.0j, zero + self.g_fiber * float(np.exp(-t)))


def _fiber_block(omega0: HermitianField) -> np.ndarray:
    """omega_0's ff block, after checking that omega_0 is positive."""
    ff_min = float(np.min(omega0.ff))
    if ff_min <= 0.0:
        raise SingularFiberMetric(
            f"fiber block of the initial form degenerates: min {ff_min:.6g}"
        )
    det_min = float(np.min(omega0.det()))
    bb_min = float(np.min(omega0.bb))
    if bb_min <= 0.0 or det_min <= 0.0:
        raise SingularMetric(
            f"initial form is not positive: min bb {bb_min:.6g}, min det {det_min:.6g}"
        )
    return omega0.ff
