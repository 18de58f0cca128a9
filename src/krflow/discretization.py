"""Periodic spectral discretization of the product of two real 2-tori.

Coordinates are (x, y, u, v) on [0,1)^4, axes in that order.  The base torus
carries the complex coordinate z_b = x + i y; the fiber torus carries
z_f = u + tau v with Im(tau) > 0.  Fields are plain numpy arrays over the
(n_base, n_base, n_fiber, n_fiber) grid; broadcastable shapes such as
(n_base, n_base, 1, 1) are accepted everywhere.

Hermitian (1,1)-form fields are stored as the three independent coefficient
blocks of their 2x2 Hermitian matrix: bb (real), bf (complex), ff (real),
with the fb block implied by conjugation.  The wedge pairing of two such
forms and the determinant of one are the only algebra the solver needs; both
are provided here as closed 2x2 formulas.

Derivatives are Fourier-spectral.  First-derivative symbols are zeroed at
the Nyquist frequency of each axis, and every second-order symbol is built
as a product of first-order ones, so the discrete mixed Hessian of any real
field has exactly zero grid mean and maps real fields to Hermitian fields.
Every 4D transform runs on the calling thread: on one worker on small grids
(_ONE_WORKER_MAX_POINTS), split across all workers on larger ones.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from .errors import ConfigInvalid


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_FFT_KW = {"workers": _usable_cpus()}

# Grids of at most this many points run each 4D transform on one worker;
# larger grids split it across _FFT_KW["workers"].  A single-worker
# transform is bit-identical to a split one.  Interleaved medians of one
# imex2 step on a 2-core box, one worker against two: 6.7-7.5 against
# 8.1-8.4 ms at 16^4, with less CPU time; at 16^2*32^2 and 32^2*16^2
# neither wins in every run; at 32^4 two workers win every run, 84-178
# against 111-190 ms.  CHANGES.md has the figures for a monitor record.
_ONE_WORKER_MAX_POINTS = 16**4

# Grid points per block of pointwise algebra: the monitor record's slab
# norms, the imex2 update, forcing and sample.  A 16^4 base slab, 8 rows of a
# 32^4 one (whole 32^4 slabs made a record 2.8-3.0 s, against 2.2-2.5 s).
_BLOCK_POINTS = 8192


def row_blocks(shape):
    """Slices of shape's leading axis, each at most _BLOCK_POINTS points (one row at least)."""
    rows = max(1, _BLOCK_POINTS // math.prod(shape[1:]))
    return [slice(i, i + rows) for i in range(0, shape[0], rows)]


def _wavenumbers(n: int) -> np.ndarray:
    """Angular wavenumbers 2*pi*m for a unit-period grid of n points."""
    return 2.0 * np.pi * sfft.fftfreq(n, d=1.0 / n)


def _odd_wavenumbers(n: int) -> np.ndarray:
    """Wavenumbers with the (sign-ambiguous) Nyquist mode zeroed.

    Used in every first-derivative symbol so that odd-order operators stay
    real-to-real and compositions are symbols of genuine products.
    """
    k = _wavenumbers(n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return k


@dataclass
class HermitianField:
    """Coefficient blocks of a Hermitian 2x2 matrix field: bb, bf, ff.

    bb and ff are real arrays, bf is complex; the fb block is conj(bf).
    Blocks broadcast against each other with numpy's rules.
    """

    bb: np.ndarray
    bf: np.ndarray
    ff: np.ndarray

    @classmethod
    def from_parts(cls, bb, re, im, ff) -> "HermitianField":
        """The field with bf = re + i im, filled in place: no complex temporary."""
        bf = np.empty(re.shape, dtype=complex)
        bf.real = re
        bf.imag = im
        return cls(bb, bf, ff)

    def det(self) -> np.ndarray:
        return self.bb * self.ff - np.abs(self.bf) ** 2


def wedge_density(a: HermitianField, b: HermitianField) -> np.ndarray:
    """Top-degree coefficient of the wedge a ^ b, as a real field.

    Symmetric in its arguments; wedge_density(a, a) == 2 * a.det().
    """
    return a.bb * b.ff + a.ff * b.bb - 2.0 * np.real(a.bf * np.conj(b.bf))


def trace_with(g: HermitianField, ref: HermitianField) -> np.ndarray:
    """Trace of g against ref (contraction with the inverse of ref)."""
    return wedge_density(g, ref) / ref.det()


def relative_eigen_bounds(g: HermitianField, ref: HermitianField):
    """Pointwise generalized eigenvalue fields of g relative to ref.

    Solves det(g - lam * ref) = 0 in closed form; ref must be positive.
    Returns (lam_min, lam_max) as real arrays.
    """
    a = ref.det()
    b = wedge_density(g, ref)
    root = np.sqrt(np.maximum(b * b - 4.0 * a * g.det(), 0.0))
    return (b - root) / (2.0 * a), (b + root) / (2.0 * a)


@dataclass
class SpectralGrid:
    """Fourier discretization data for the product torus.

    Parameters
    ----------
    n_base, n_fiber : points per direction on base/fiber (powers of two, >= 8)
    tau : fiber modulus, Im(tau) > 0
    """

    n_base: int
    n_fiber: int
    tau: complex = 1j

    def __post_init__(self):
        for name, n in (("n_base", self.n_base), ("n_fiber", self.n_fiber)):
            if n < 8 or (n & (n - 1)) != 0:
                raise ConfigInvalid(f"{name} must be a power of two >= 8, got {n}")
        self.tau = complex(self.tau)
        if not (cmath.isfinite(self.tau) and self.tau.imag > 0.0):
            raise ConfigInvalid(f"fiber modulus tau must be finite with Im(tau) > 0, got {self.tau}")

    # -- shapes and coordinates -------------------------------------------

    @property
    def shape(self):
        return (self.n_base, self.n_base, self.n_fiber, self.n_fiber)

    @cached_property
    def coords(self):
        """Broadcastable coordinate arrays (x, y, u, v) on [0,1)."""
        nb, nf = self.n_base, self.n_fiber
        x = (np.arange(nb) / nb).reshape(nb, 1, 1, 1)
        y = (np.arange(nb) / nb).reshape(1, nb, 1, 1)
        u = (np.arange(nf) / nf).reshape(1, 1, nf, 1)
        v = (np.arange(nf) / nf).reshape(1, 1, 1, nf)
        return x, y, u, v

    def mean(self, f: np.ndarray) -> float:
        """Grid mean == integral over the unit-coordinate-volume torus."""
        return float(np.mean(np.broadcast_to(f, self.shape)))

    # -- first-derivative symbols -----------------------------------------

    @cached_property
    def _fiber_coeffs(self):
        # d/dz_f = c d/du + d d/dv in the (u, v) frame for z_f = u + tau v.
        a, b = self.tau.real, self.tau.imag
        c = 0.5 + 0.5j * a / b
        d = -0.5j / b
        return c, d

    def _first_symbols(self, kx, ky, ku, kv):
        c, d = self._fiber_coeffs
        s_b = 0.5 * (1j * kx + ky)
        s_bbar = 0.5 * (1j * kx - ky)
        s_f = c * (1j * ku) + d * (1j * kv)
        s_fbar = np.conj(c) * (1j * ku) + np.conj(d) * (1j * kv)
        return s_b, s_bbar, s_f, s_fbar

    @cached_property
    def sym_half(self):
        """First-derivative symbols on the rfft half-spectrum.

        Keys: ('holo','b'), ('holo','f'), ('anti','b'), ('anti','f').  All
        four symbols are odd under k -> -k with the Nyquist rows zeroed, so
        products of n of them are even/odd according to the parity of n;
        consumers rely on this to split complex-output operators into two
        real irfft passes.
        """
        nb, nf = self.n_base, self.n_fiber
        kx = _odd_wavenumbers(nb).reshape(nb, 1, 1, 1)
        ky = _odd_wavenumbers(nb).reshape(1, nb, 1, 1)
        ku = _odd_wavenumbers(nf).reshape(1, 1, nf, 1)
        kv = _odd_wavenumbers(nf)[: nf // 2 + 1].reshape(1, 1, 1, nf // 2 + 1)
        s_b, s_bbar, s_f, s_fbar = self._first_symbols(kx, ky, ku, kv)
        return {
            ("holo", "b"): s_b,
            ("anti", "b"): s_bbar,
            ("holo", "f"): s_f,
            ("anti", "f"): s_fbar,
        }

    @cached_property
    def _half_hessian_syms(self):
        """Real symbol arrays for the rfft half-spectrum Hessian path.

        Returns (s_bb, s_ff, s_bf_re, s_bf_im); each multiplies rfftn(phi).
        The bf symbol is even under k -> -k (product of two odd symbols),
        so its real and imaginary parts are separately Hermitian-symmetric
        and each yields a real field under irfftn.
        """
        sh = self.sym_half
        s_bf = sh[("holo", "b")] * sh[("anti", "f")]
        return (
            np.real(sh[("holo", "b")] * sh[("anti", "b")]),
            np.real(sh[("holo", "f")] * sh[("anti", "f")]),
            np.real(s_bf),
            np.imag(s_bf),
        )

    # -- spectral operators ------------------------------------------------

    @property
    def _workers(self) -> int:
        if math.prod(self.shape) <= _ONE_WORKER_MAX_POINTS:
            return 1
        return _FFT_KW["workers"]

    def rfft(self, f: np.ndarray) -> np.ndarray:
        return sfft.rfftn(np.broadcast_to(f, self.shape), workers=self._workers)

    def irfft(self, spec: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The real field whose rfft is spec, bit-identical to irfftn (the two
        passes' scalings are powers of two); overwrite=True clobbers spec
        instead of copying it, as irfftn always does."""
        spec = sfft.ifftn(spec, axes=(0, 1, 2), overwrite_x=overwrite, workers=self._workers)
        return sfft.irfft(spec, n=self.shape[-1], axis=-1, workers=self._workers)

    def hessian(self, phi: np.ndarray) -> HermitianField:
        """Mixed complex Hessian of a real field, as a HermitianField.

        This is the coefficient matrix of the (1,1)-form i*ddbar(phi) in the
        stored-block convention; its grid mean vanishes identically.
        """
        return self.spectral_hessian(self.rfft(phi))

    def spectral_hessian(self, spec: np.ndarray) -> HermitianField:
        """hessian() of the real field whose rfft is `spec`."""
        bb, ff, re, im = [self.irfft(s * spec, overwrite=True) for s in self._half_hessian_syms]
        return HermitianField.from_parts(bb, re, im, ff)

    # -- fiber-only operators ---------------------------------------------

    @cached_property
    def _fiber_syms(self):
        nf = self.n_fiber
        ku = _odd_wavenumbers(nf).reshape(nf, 1)
        kv = _odd_wavenumbers(nf).reshape(1, nf)
        _, _, s_f, s_fbar = self._first_symbols(0.0, 0.0, ku, kv)
        return s_f, s_fbar, np.real(s_f * s_fbar)

    def fiber_hessian(self, f2: np.ndarray) -> np.ndarray:
        """ff-block of the mixed Hessian of a real field on one fiber."""
        _, _, s_ff = self._fiber_syms
        return np.real(sfft.ifft2(s_ff * sfft.fft2(f2)))

    def fiber_poisson(self, rhs2: np.ndarray) -> np.ndarray:
        """Solve (mixed fiber Hessian) psi = rhs on every fiber of the last two axes.

        psi has zero mean on each fiber.  The rhs mean is projected out (the
        periodic problem is only solvable up to it); callers that care check
        compatibility themselves.
        """
        _, _, s_ff = self._fiber_syms
        spec = sfft.fft2(rhs2)
        # The discrete operator kills the mean and the Nyquist-corner modes;
        # project the solve onto its range.
        dead = s_ff == 0.0
        out = np.where(dead, 0.0, spec / np.where(dead, 1.0, s_ff))
        return np.real(sfft.ifft2(out))

    def fiber_deriv(self, f2: np.ndarray, kind: str) -> np.ndarray:
        s_f, s_fbar, _ = self._fiber_syms
        sym = s_f if kind == "holo" else s_fbar
        return sfft.ifft2(sym * sfft.fft2(f2))

    # -- base-only operators ----------------------------------------------

    @cached_property
    def _base_syms(self):
        nb = self.n_base
        kx = _odd_wavenumbers(nb).reshape(nb, 1)
        ky = _odd_wavenumbers(nb).reshape(1, nb)
        s_b, s_bbar, _, _ = self._first_symbols(kx, ky, 0.0, 0.0)
        return s_b, s_bbar, np.real(s_b * s_bbar)

    def base_hessian(self, f2: np.ndarray) -> np.ndarray:
        """bb-block of the mixed Hessian of a real field on the base torus."""
        _, _, s_bb = self._base_syms
        return np.real(sfft.ifft2(s_bb * sfft.fft2(f2)))

    def base_deriv(self, f2: np.ndarray, kind: str) -> np.ndarray:
        s_b, s_bbar, _ = self._base_syms
        sym = s_b if kind == "holo" else s_bbar
        return sfft.ifft2(sym * sfft.fft2(f2))

