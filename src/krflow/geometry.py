"""Product geometry: bumpy flat base, flat torus fiber, reference families.

The model space is a product of the base torus and a torus fiber of modulus
tau.  The base reference form chi has coefficient

    chi(x, y) = level + (i ddbar of ripple * cos(2 pi x) cos(2 pi y))_bb,

computed with the grid's own base Hessian so that discrete identities
involving chi are exact.  The fiber carries the flat form omega_E with unit
coefficient in the z_f frame.  The initial form is

    omega_0 = base_scale * chi + fiber_scale * omega_E + i ddbar(psi_0),

which must be positive on the grid.  Two reference families interpolate
between omega_0 and the base form:

    hat(t)   = e^{-t} omega_0 + (1 - e^{-t}) chi
    tilde(t) = chi + e^{-t} omega_E

For base_scale = fiber_scale = 1 and psi_0 = 0 the two families coincide.

The fiberwise flat representative of omega_0 restricted to a fiber has
constant coefficient g_flat(z) (the fiber average); the potential rho with
i ddbar_fiber(rho) = omega_flat - omega_0|_fiber is solved fiberwise in
Fourier space and normalized so its omega_0-weighted fiber mean vanishes.

The pinned volume density is Omega(z) = chi(z) * g_flat(z), a base-only
field; its coefficient absorbs all wedge combinatorics of the flow's
Monge-Ampere ratio.
"""

from __future__ import annotations

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
        if self.fiber_scale <= 0.0:
            raise SingularFiberMetric(f"fiber_scale must be positive, got {self.fiber_scale}")
        if self.base_scale <= 0.0:
            raise SingularMetric(f"base_scale must be positive, got {self.base_scale}")


@dataclass
class FlatFiberData:
    """Fiberwise flat representative: potential rho and coefficient g_flat."""

    rho: np.ndarray      # (nb, nb, nf, nf)
    g_flat: np.ndarray   # (nb, nb, 1, 1)


@dataclass
class VolumeDensity:
    """Pinned volume density coefficient and its total integral."""

    density: np.ndarray  # (nb, nb, 1, 1), strictly positive
    total_integral: float


class SurrogateGeometry:
    """Grid realization of a GeometrySpec on the product torus.

    Everything downstream (flow right-hand side, monitors, fits) reads the
    geometry through this object; all fields are precomputed once.
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

        x, y, u, v = grid.coords
        if psi0 is None:
            psi0 = spec.psi0_amplitude * PSI0_PRESETS[spec.psi0_preset](x, y, u, v)
        self.psi0 = np.ascontiguousarray(np.broadcast_to(psi0, grid.shape))
        self.psi0_spec = grid.rfft(self.psi0)  # the flow folds psi_0 in spectrally

        zero = np.zeros((1, 1, 1, 1))
        self.chi_form = HermitianField(self.chi, zero + 0.0j, zero)
        self.fiber_form = HermitianField(zero, zero + 0.0j, zero + self.g_fiber)

        self.omega0 = grid.spectral_hessian(self.psi0_spec)
        self.omega0.bb += spec.base_scale * self.chi
        self.omega0.ff += spec.fiber_scale * self.g_fiber
        self._validate_omega0()

        self.flat_fiber = self._solve_flat_fiber()
        self.volume = self._build_volume()

        # Only nonzero reference Christoffel on the product: the base one,
        # d/dz_b log(chi).  The tilde family's connection is t-independent.
        gamma2 = grid.base_deriv(self.chi2, "holo") / self.chi2
        self.gamma_b = gamma2[:, :, None, None]

    # -- construction helpers ---------------------------------------------

    def _validate_omega0(self):
        ff_min = float(np.min(self.omega0.ff))
        if ff_min <= 0.0:
            raise SingularFiberMetric(
                f"fiber block of the initial form degenerates: min {ff_min:.6g}"
            )
        det_min = float(np.min(self.omega0.det()))
        bb_min = float(np.min(self.omega0.bb))
        if bb_min <= 0.0 or det_min <= 0.0:
            raise SingularMetric(
                f"initial form is not positive: min bb {bb_min:.6g}, min det {det_min:.6g}"
            )

    def _solve_flat_fiber(self) -> FlatFiberData:
        g0_ff = np.broadcast_to(self.omega0.ff, self.grid.shape)
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
        return FlatFiberData(rho=rho, g_flat=g_flat)

    def _build_volume(self) -> VolumeDensity:
        density = self.chi * self.flat_fiber.g_flat
        if np.min(density) <= 0.0:
            raise NonPositiveDensity(
                f"volume density must be positive: min {np.min(density):.6g}"
            )
        total = self.grid.mean(density)
        return VolumeDensity(density=density, total_integral=total)

    # -- reference families -----------------------------------------------

    def hat(self, t: float) -> HermitianField:
        """Reference form interpolating omega_0 -> chi (metric completion)."""
        e = float(np.exp(-t))
        return self.omega0 * e + self.chi_form * (1.0 - e)

    def tilde(self, t: float) -> HermitianField:
        """Product comparison form chi + e^{-t} omega_E (always positive)."""
        return self.chi_form + self.fiber_form * float(np.exp(-t))
