"""Base-only curvature flow on a genus-2 hyperbolic surface.

The surface is realized as the regular hyperbolic octagon in the Poincaré
disk with opposite sides identified by the standard SU(1,1) pairing maps

    gamma_k = [[alpha, beta_k], [conj(beta_k), alpha]],
    alpha = 1 + sqrt(2),  beta_k = sqrt(2 + 2 sqrt(2)) * e^{i k pi / 4},

for k = 0..7; beta_{k+4} = -beta_k makes gamma_{k+4} the inverse of
gamma_k, so the eight maps pair side k with side k + 4.  The octagon is
the Dirichlet domain centered at the origin: a point is inside iff it is
at least as close (hyperbolically) to 0 as to every gamma_k(0).

Scalar fields on the quotient are exactly the pairing-invariant functions
on the domain, so finite differences near the boundary are closed by
*ghost values*: an exterior stencil point is folded back into the domain
through the group and the field is read there by high-order (tensor
quintic) interpolation.
The fold/interpolate relation is linear, so the ghost layer is solved
exactly once per operator application through a pre-factored sparse
system rather than iterated.  Both kernels of a flow step are built once
with the grid: the ghost system I - W_gh is factored under a minimum-degree
ordering of its symmetrized pattern (its couplings are nearly symmetric,
and this keeps the factor about a third smaller than the default column
ordering does), and the fourth-order dd_bar stencil is assembled as a
sparse matrix with one row per interior point, applied to the flattened
grid.

The evolving metric is conformal, lambda_t = lambda_hyp + dd_bar(phi)
with lambda_hyp = 2 / (1 - |z|^2)^2 (normalized so the Einstein relation
reads dd_bar(log lambda_hyp) = lambda_hyp, i.e. Gauss curvature -2), and
the potential obeys the normalized scalar flow

    d(phi)/dt = log(lambda_t / lambda_hyp) - phi,    phi(0) = phi_0,

whose fixed point phi = 0 is exact on any mesh.  It is stepped with the
damped second-order Runge-Kutta-Chebyshev method: the step is dt_max, set
by accuracy since the flow relaxes to a steady state, and the stage count
s is the smallest whose real stability interval (about 0.65 s^2), scaled
by cfl, covers dt times the Gershgorin bound of the linearized operator.
A step is s right-hand sides, each one ghost_fill and one dd_bar.
Curvature diagnostics
apply finite differences only to the invariant ratio log(lambda_t /
lambda_hyp); the steep hyperbolic factor enters through its closed form,
which keeps the monitor accurate on coarse meshes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigInvalid, NonFiniteValue, OutOfDomain, PositivityLost
from .flow import sample_times

ALPHA = 1.0 + math.sqrt(2.0)
BETA_ABS = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
_PHASES = np.exp(1j * np.arange(8) * (np.pi / 4.0))
BETAS = BETA_ABS * _PHASES
# images of the origin under the eight pairings; |W0|^2 is shared
W0 = BETAS / ALPHA
W0_SQ = float(abs(W0[0]) ** 2)


def pair_apply(k: int, z):
    """Apply the k-th side pairing as a Möbius map of the disk."""
    b = BETAS[k]
    return (ALPHA * z + b) / (np.conj(b) * z + ALPHA)


def pair_derivative(k: int, z):
    """Complex derivative of the k-th pairing (unit determinant)."""
    b = BETAS[k]
    return 1.0 / (np.conj(b) * z + ALPHA) ** 2


def hyperbolic_density(z):
    """Conformal density of the curvature -2 disk metric."""
    return 2.0 / (1.0 - np.abs(z) ** 2) ** 2


def vertex_radius() -> float:
    """Euclidean radius of the octagon's vertices (angle pi/8 rays)."""
    c = math.cos(math.pi / 8.0)
    return (c - math.sqrt(c * c - W0_SQ)) / abs(W0[0])


def side_excess(z):
    """Per-side margin of the Dirichlet condition, stacked on a new axis.

    excess[k] = |z - w_k|^2 / (1 - |w|^2) - |z|^2 is >= 0 for all k exactly
    when z lies in the fundamental octagon (the sign encodes which side of
    the bisector geodesic of {0, w_k} the point is on).
    """
    z = np.asarray(z)
    diff = z[..., None] - W0
    return np.abs(diff) ** 2 / (1.0 - W0_SQ) - (np.abs(z) ** 2)[..., None]


def in_octagon(z, tol: float = 1e-12):
    return np.min(side_excess(z), axis=-1) >= -tol


def reduce_to_fundamental(z: complex):
    """Fold a disk point into the fundamental octagon through the group.

    Repeatedly applies the inverse of the most violated side pairing; each
    application strictly decreases the hyperbolic distance to the origin,
    so the loop terminates for any interior point of the disk.  A point
    that needs more than 64 folds raises OutOfDomain.
    """
    if abs(z) >= 1.0:
        raise OutOfDomain(f"point {z} is not in the open unit disk")
    for _ in range(64):
        exc = side_excess(z)
        k = int(np.argmin(exc))
        if exc[k] >= -1e-12:
            return z
        z = pair_apply((k + 4) % 8, z)  # gamma_k^{-1}
    raise OutOfDomain(f"fundamental-domain reduction did not settle for {z}")


_INTERP_NODES = np.arange(-2.0, 4.0)


def _interp_weights(s: float) -> np.ndarray:
    """Quintic Lagrange weights on nodes at offsets -2..3.

    Sixth-order read-off keeps the ghost-induced error of the second
    derivative at fourth order even right next to the boundary (the
    stencil divides interpolation error by h^2)."""
    w = np.ones(6)
    for j, nj in enumerate(_INTERP_NODES):
        for m, nm in enumerate(_INTERP_NODES):
            if m != j:
                w[j] *= (s - nm) / (nj - nm)
    return w


_GEN_MATS = np.array(
    [[[ALPHA, BETAS[k]], [np.conj(BETAS[k]), ALPHA]] for k in range(8)]
)


_ORBIT_COSH_CUT = 900.0
_ORBIT_DEPTH = 7
_ORBIT_BLOCK = 1024  # words expanded per stacked product


@functools.lru_cache
def origin_orbit(cosh_cut: float = _ORBIT_COSH_CUT, max_depth: int = _ORBIT_DEPTH) -> np.ndarray:
    """Orbit of the origin under the pairing group, out to a distance cut.

    Words in the generators are expanded breadth-first with a pruning bound
    (a child center can approach the origin by at most one translation
    length per letter), and centers are de-duplicated, since many words
    represent the same group element.  A depth is expanded as stacked
    products of blocks of frontier words with the eight generators
    (word-major, generator-minor), with centers and distances taken as
    arrays; only the words that pass the bound are keyed, in that order.
    The default cut keeps every omitted orbit point at distance > 3.8 from
    the entire ghost band of any usable mesh, so sums of exp(1 - cosh d)
    over this orbit agree across the fundamental-domain reduction to
    ~1e-10 everywhere the solver reads them.  Memoized: later calls with
    the same arguments return the same read-only array.
    """
    step = math.acosh(1.0 + 2.0 * W0_SQ / (1.0 - W0_SQ))  # generator reach
    d_cut = math.acosh(cosh_cut)

    seen = {(0.0, 0.0)}
    centers = [0j]
    frontier = np.eye(2, dtype=complex)[None]
    for depth in range(1, max_depth + 1):
        budget = d_cut + step * (max_depth - depth)
        parts = [frontier[:0]]
        # a block of words at a time keeps the temporaries small: the
        # deepest full depth has ~1.2e5 children, of which ~2% survive
        for start in range(0, len(frontier), _ORBIT_BLOCK):
            block = frontier[start:start + _ORBIT_BLOCK, None]
            children = np.matmul(_GEN_MATS[None], block).reshape(-1, 2, 2)
            cs = children[:, 0, 1] / children[:, 1, 1]
            ds = np.arccosh(_cosh_dist(cs, 0j))
            near = np.flatnonzero(ds <= budget)
            keys = zip(np.round(cs.real[near], 8).tolist(), np.round(cs.imag[near], 8).tolist())
            kept = []
            for i, k in zip(near.tolist(), keys):
                if k in seen:
                    continue
                seen.add(k)
                kept.append(i)
                if ds[i] <= d_cut:
                    centers.append(complex(cs[i]))
            parts.append(children[kept])
        frontier = np.concatenate(parts)
    orbit = np.array(centers)
    orbit.flags.writeable = False  # the cache hands it to every caller
    return orbit


class OctagonGrid:
    """Cartesian mesh over the fundamental octagon with group-closed ghosts.

    The box spans the octagon plus five cells on every side.  Interior
    points carry unknowns; exterior points within stencil reach are ghosts
    whose values are linear in the interior values (fold through the group,
    quintic read-off).  The ghost-on-ghost couplings are eliminated by a
    pre-factored sparse solve, making ghost_fill exact to interpolation
    order in a single application.
    """

    def __init__(self, n: int = 64):
        if n < 48:
            # below this the quintic windows through the acute vertex caps
            # turn extrapolative enough to destabilize the ghost closure
            raise ConfigInvalid(f"octagon mesh needs n >= 48, got {n}")
        self.n = int(n)
        margin = 5
        r_v = vertex_radius()
        # h solves half = r_v + margin * h with half = (n - 1) h / 2
        self.h = 2.0 * r_v / (self.n - 1 - 2 * margin)
        self.half = r_v + margin * self.h
        axis = np.linspace(-self.half, self.half, self.n)
        self._axis = axis
        self.z = axis[:, None] + 1j * axis[None, :]

        exc = np.min(side_excess(self.z), axis=-1)
        self.interior = exc >= 0.0
        reach = 4  # covers the FD cross (2) and quintic patch spill (3)
        near = _dilate(self.interior, reach)
        self.ghosts = near & ~self.interior & (np.abs(self.z) < 0.98)

        self.interior_flat = np.flatnonzero(self.interior)
        self.ghost_flat = np.flatnonzero(self.ghosts)
        self.lam_hyp = np.where(
            np.abs(self.z) < 0.995, hyperbolic_density(np.where(np.abs(self.z) < 0.995, self.z, 0.0)), np.nan
        )
        self._build_ghost_system()
        self._build_dd_bar()

    def _ghost_row(self, flat: int):
        """Reduction + tensor-quintic read-off stencil for one exterior point."""
        n, h, half = self.n, self.h, self.half
        zr = reduce_to_fundamental(complex(self.z.flat[flat]))
        fx = (zr.real + half) / h
        fy = (zr.imag + half) / h
        ix = min(max(int(math.floor(fx)), 2), n - 4)
        iy = min(max(int(math.floor(fy)), 2), n - 4)
        # Near the acute vertex caps a centered window can poke out of the
        # unit disk; pull it toward the origin (the folded point stays
        # inside the node hull, so the read-off keeps its order).
        for _ in range(8):
            xa = max(abs(self._axis[ix - 2]), abs(self._axis[ix + 3]))
            yb = max(abs(self._axis[iy - 2]), abs(self._axis[iy + 3]))
            if xa * xa + yb * yb < 0.96 * 0.96:
                break
            if xa >= yb:
                ix += -1 if zr.real > 0 else 1
            else:
                iy += -1 if zr.imag > 0 else 1
            ix = min(max(ix, 2), n - 4)
            iy = min(max(iy, 2), n - 4)
        else:
            raise OutOfDomain(
                "could not fit an interpolation window inside the disk; "
                "increase resolution"
            )
        wx = _interp_weights(fx - ix)
        wy = _interp_weights(fy - iy)
        cols, vals = [], []
        for a in range(6):
            for b in range(6):
                w = wx[a] * wy[b]
                if abs(w) > 1e-14:
                    cols.append((ix - 2 + a) * n + (iy - 2 + b))
                    vals.append(w)
        return cols, vals

    def _build_ghost_system(self):
        # The ghost set must be closed: patches of folded points can spill
        # onto further exterior points (acute vertex slivers), which then
        # become ghosts themselves.  Iterate until no new points appear.
        n = self.n
        stencils = {}
        order = list(self.ghost_flat)
        in_set = set(order)
        interior_set = set(self.interior_flat.tolist())
        queue = list(order)
        while queue:
            fresh = []
            for flat in queue:
                cols, vals = self._ghost_row(flat)
                stencils[flat] = (cols, vals)
                for col in cols:
                    if col in interior_set or col in in_set:
                        continue
                    if abs(self.z.flat[col]) >= 0.98:
                        raise OutOfDomain(
                            "ghost closure escaped the reduction-safe disk; "
                            "increase resolution"
                        )
                    in_set.add(col)
                    order.append(col)
                    fresh.append(col)
            queue = fresh
        self.ghost_flat = np.array(order, dtype=np.intp)
        self.ghosts = np.zeros_like(self.interior)
        self.ghosts.flat[self.ghost_flat] = True

        n_gh = len(order)
        row_of = {flat: i for i, flat in enumerate(order)}
        rows, cols, vals = [], [], []
        for flat in order:
            r = row_of[flat]
            for c, v in zip(*stencils[flat]):
                rows.append(r)
                cols.append(c)
                vals.append(v)
        weight = sp.csr_matrix((vals, (rows, cols)), shape=(n_gh, n * n))
        self._w_int = weight[:, self.interior_flat].tocsr()
        w_gh = weight[:, self.ghost_flat].tocsc()
        ident = sp.identity(n_gh, format="csc")
        self._ghost_lu = spla.splu(
            (ident - w_gh).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            options=dict(SymmetricMode=True),
        )

    def _build_dd_bar(self):
        """Assemble (f_xx + f_yy) / 4 as a CSR matrix, one row per interior
        point, over the flattened grid.  Each axis uses the fourth-order
        centered weights (-1, 16, -30, 16, -1) / (12 h^2); the margin keeps
        every stencil inside the box."""
        n = self.n
        rows = self.interior_flat
        scale = 0.25 / (12.0 * self.h * self.h)
        offsets = [0]
        weights = [2.0 * -30.0 * scale]
        for shift, w in ((1, 16.0), (2, -1.0)):
            for step in (shift, -shift, shift * n, -shift * n):
                offsets.append(step)
                weights.append(w * scale)
        cols = rows[:, None] + np.array(offsets)[None, :]
        vals = np.broadcast_to(np.array(weights), cols.shape)
        indptr = np.arange(0, cols.size + 1, len(offsets))
        self._dd_op = sp.csr_matrix(
            (vals.ravel(), cols.ravel(), indptr), shape=(rows.size, n * n)
        )

    def ghost_fill(self, field: np.ndarray) -> np.ndarray:
        """Return a copy of `field` with the ghost layer made consistent."""
        out = field.copy()
        flat = out.reshape(-1)
        flat[self.ghost_flat] = self._ghost_lu.solve(
            self._w_int @ flat[self.interior_flat]
        )
        return out

    def dd_bar(self, field: np.ndarray) -> np.ndarray:
        """Fourth-order d d-bar = (f_xx + f_yy) / 4 at interior points.

        One product with the stencil matrix assembled at construction; the
        stencil reads interior and ghost values, so pass a ghost-filled
        field.  Entries outside the interior are 0.
        """
        out = np.zeros((self.n, self.n))
        out.reshape(-1)[self.interior_flat] = self._dd_op @ field.reshape(-1)
        return out

    def invariant_bump(self) -> np.ndarray:
        """Smooth pairing-invariant field: 0.2 times a sum of exp(1 - cosh d)
        sources placed on the orbit of the origin (see origin_orbit for the
        truncation guarantee)."""
        out = np.zeros((self.n, self.n))
        safe = np.abs(self.z) < 0.999
        zs = self.z[safe]
        total = np.zeros(zs.shape)
        for w in origin_orbit():
            total += np.exp(1.0 - _cosh_dist(zs, w))
        out[safe] = 0.2 * total
        return out


def _cosh_dist(z, w):
    return 1.0 + 2.0 * np.abs(z - w) ** 2 / (
        (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(w) ** 2)
    )


def _dilate(mask: np.ndarray, cells: int) -> np.ndarray:
    """Chebyshev (8-neighbor) dilation, so diagonal reach is covered."""
    out = mask.copy()
    for _ in range(cells):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        grown[1:, 1:] |= out[:-1, :-1]
        grown[1:, :-1] |= out[:-1, 1:]
        grown[:-1, 1:] |= out[1:, :-1]
        grown[:-1, :-1] |= out[1:, 1:]
        out = grown
    return out


def gauss_curvature(grid: OctagonGrid, phi: np.ndarray) -> np.ndarray:
    """Curvature of lambda_hyp + dd_bar(phi) at interior points.

    Uses K = -2 (dd_bar log u + lambda_hyp) / (u lambda_hyp) with
    u = lambda_t / lambda_hyp; only the invariant ratio u is differenced,
    the hyperbolic factor contributes through the identity
    dd_bar log lambda_hyp = lambda_hyp.
    """
    dd_phi = grid.dd_bar(grid.ghost_fill(phi))
    u = np.ones_like(phi)
    idx = grid.interior
    u[idx] = 1.0 + dd_phi[idx] / grid.lam_hyp[idx]
    low = float(np.min(u[idx]))
    # a NaN fails no `<= 0` test and would spread through the second dd_bar
    if math.isnan(low):
        raise NonFiniteValue("conformal factor lost finiteness")
    if low <= 0.0:
        raise PositivityLost("conformal factor left the positive cone")
    log_u = np.zeros_like(phi)
    log_u[idx] = np.log(u[idx])
    dd_log_u = grid.dd_bar(grid.ghost_fill(log_u))
    k_field = np.full_like(phi, np.nan)
    k_field[idx] = -2.0 * (dd_log_u[idx] + grid.lam_hyp[idx]) / (
        u[idx] * grid.lam_hyp[idx]
    )
    return k_field


# Damping of the second-order Runge-Kutta-Chebyshev method: it keeps the
# stability polynomial strictly inside (-1, 1) along the real interval and
# shortens the interval by a factor of about 1 - 2 eps / 15 (Verwer,
# Hundsdorfer & Sommeijer, Numer. Math. 57, 1990).
_RKC_DAMPING = 2.0 / 13.0


def rkc_coefficients(s: int):
    """Coefficients of the damped s-stage, second-order RKC method.

    The Chebyshev recurrence of Sommeijer, Shampine & Verwer (J. Comput.
    Appl. Math. 88, 1998) with w0 = 1 + eps / s^2, w1 = T_s'(w0) / T_s''(w0),
    b_j = T_j''(w0) / T_j'(w0)^2 (b_0 = b_1 = b_2) and a_j = 1 - b_j T_j(w0).
    Returns (beta, mu1, stages): [-beta, 0] with beta = (1 + w0) / w1
    (about 0.65 s^2) is the real stability interval of h * lambda, mu1 is
    mu~_1, and stages lists (mu_j, nu_j, mu~_j, gamma~_j) for j = 2..s.
    """
    if s < 2:
        raise ValueError(f"RKC needs at least 2 stages, got {s}")
    w0 = 1.0 + _RKC_DAMPING / (s * s)
    cheb, d1, d2 = np.zeros(s + 1), np.zeros(s + 1), np.zeros(s + 1)
    cheb[0], cheb[1], d1[1] = 1.0, w0, 1.0
    for j in range(2, s + 1):
        cheb[j] = 2.0 * w0 * cheb[j - 1] - cheb[j - 2]
        d1[j] = 2.0 * cheb[j - 1] + 2.0 * w0 * d1[j - 1] - d1[j - 2]
        d2[j] = 4.0 * d1[j - 1] + 2.0 * w0 * d2[j - 1] - d2[j - 2]
    w1 = d1[s] / d2[s]
    b = np.empty(s + 1)
    b[2:] = d2[2:] / d1[2:] ** 2
    b[:2] = b[2]
    a = 1.0 - b * cheb
    stages = []
    for j in range(2, s + 1):
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        stages.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_t, -a[j - 1] * mu_t))
    return (1.0 + w0) / w1, b[1] * w1, stages


def rkc_step(f, y, h, coeffs):
    """One RKC step of the autonomous dy/dt = f(y) from y by h.

    `coeffs` is rkc_coefficients(s); the step makes s evaluations of f.
    `y` may be a float or an array.
    """
    _, mu1, stages = coeffs
    f0 = f(y)
    prev2, prev = y, y + (mu1 * h) * f0
    for mu, nu, mu_t, gamma_t in stages:
        prev2, prev = prev, (
            (1.0 - mu - nu) * y + mu * prev + nu * prev2 + (mu_t * h) * f(prev)
            + (gamma_t * h) * f0
        )
    return prev


@dataclass
class BolzaFlowResult:
    ts: list = field(default_factory=list)
    sup_phi: list = field(default_factory=list)
    rel_dev: list = field(default_factory=list)
    final_phi: np.ndarray | None = None
    final_rel_dev: float = float("nan")
    curvature_mean: float = float("nan")
    curvature_spread: float = float("nan")
    total_steps: int = 0
    rhs_evals: int = 0


def run_base_flow(
    grid: OctagonGrid,
    phi0: np.ndarray | None = None,
    t_end: float = 10.0,
    cfl: float = 0.5,
    dt_max: float = 0.01,
    sample_interval: float = 0.5,
) -> BolzaFlowResult:
    """Integrate the base-only conformal flow with second-order RKC.

    The flow relaxes to a steady state, so the step follows accuracy: it is
    dt_max (shortened only to land on a sample time), and stability comes
    from the stage count.  s is the smallest count >= 2 whose real
    stability interval, scaled by cfl, covers dt times the Gershgorin
    bound of the linearized operator (s = 5 at n = 48, 7 at n = 64 with
    the defaults).  A step costs s right-hand sides; each is one
    ghost_fill and one dd_bar, then pointwise work on the interior values
    only.  A NaN there raises NonFiniteValue on the evaluation that meets
    it.  Each sample adds one fill and one dd_bar for rel_dev, and the
    final curvature two more.
    """
    idx = grid.interior
    inside = grid.interior_flat
    inv_lam = 1.0 / grid.lam_hyp.reshape(-1)[inside]

    def rel_dev(p):
        """dd_bar(p) / lambda_hyp at the interior points."""
        return grid.dd_bar(grid.ghost_fill(p)).reshape(-1)[inside] * inv_lam

    def rhs(p):
        ratio = 1.0 + rel_dev(p)
        low = float(np.min(ratio))
        # a NaN fails no `<= 0` test and would otherwise run on to the
        # next sample time
        if math.isnan(low):
            raise NonFiniteValue("octagon flow right-hand side lost finiteness")
        if low <= 0.0:
            raise PositivityLost("evolving conformal density lost positivity")
        out = np.zeros_like(p)
        out.reshape(-1)[inside] = np.log(ratio) - p.reshape(-1)[inside]
        return out

    phi = grid.invariant_bump() if phi0 is None else phi0.copy()
    phi[~idx & ~grid.ghosts] = 0.0

    gersh = (64.0 / 12.0) * 2.0 / (grid.h * grid.h)
    lam_min = float(np.min(grid.lam_hyp[idx]))
    stiff = gersh / (4.0 * lam_min) + 1.0
    if not (cfl > 0.0 and dt_max > 0.0):
        raise ConfigInvalid(f"octagon flow needs cfl, dt_max > 0, got {cfl}, {dt_max}")
    stages = 2
    while rkc_coefficients(stages)[0] * cfl < dt_max * stiff:
        stages += 1
    coeffs = rkc_coefficients(stages)

    result = BolzaFlowResult()
    t = 0.0
    for target in sample_times(t_end, sample_interval):
        while t < target - 1e-12:
            step = min(dt_max, target - t)
            phi = rkc_step(rhs, phi, step, coeffs)
            t += step
            result.total_steps += 1
        if not np.all(np.isfinite(phi[idx])):
            raise NonFiniteValue(f"octagon flow lost finiteness at t={t:.4f}")
        result.ts.append(target)
        result.sup_phi.append(float(np.max(np.abs(phi[idx]))))
        result.rel_dev.append(float(np.max(np.abs(rel_dev(phi)))))

    result.rhs_evals = stages * result.total_steps
    result.final_phi = phi
    result.final_rel_dev = result.rel_dev[-1] if result.rel_dev else float("nan")
    k_field = gauss_curvature(grid, phi)
    k_int = k_field[idx]
    result.curvature_mean = float(np.mean(k_int))
    result.curvature_spread = float(np.max(np.abs(k_int - result.curvature_mean)))
    return result
