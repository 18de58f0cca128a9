import math

import numpy as np
import pytest

from krflow.analysis import MonitorEngine
from krflow.discretization import SpectralGrid
from krflow.errors import ConfigInvalid, SingularFiberMetric, SingularMetric
from krflow.flow import FlowProblem
from krflow.geometry import PSI0_PRESETS, GeometrySpec, SurrogateGeometry
from krflow.oracle import hat

TP = 2.0 * np.pi


def make(n=16, tau=1j, **kw):
    return SurrogateGeometry(SpectralGrid(n, n, tau), GeometrySpec(**kw))


class TestBaseForm:
    def test_chi_closed_form(self):
        geom = make(base_level=1.0, base_ripple=0.02)
        nb = geom.grid.n_base
        xb = np.arange(nb) / nb
        expected = 1.0 - 2.0 * np.pi**2 * 0.02 * np.cos(TP * xb)[:, None] * np.cos(TP * xb)[None, :]
        assert np.max(np.abs(geom.chi2 - expected)) < 1e-13

    def test_chi_positivity_enforced(self):
        with pytest.raises(ConfigInvalid):
            make(base_level=1.0, base_ripple=0.06)

    def test_flat_base_has_no_christoffel(self):
        geom = make(base_ripple=0.0)
        assert np.max(np.abs(geom.gamma_b)) < 1e-14


class TestInitialForm:
    def test_rejects_unknown_preset(self):
        with pytest.raises(ConfigInvalid):
            GeometrySpec(psi0_preset="wiggle")

    def test_rejects_degenerate_fiber_block(self):
        with pytest.raises(SingularFiberMetric):
            make(psi0_preset="fiber_cos", psi0_amplitude=0.2)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(SingularFiberMetric):
            GeometrySpec(fiber_scale=0.0)
        with pytest.raises(SingularMetric):
            GeometrySpec(base_scale=-1.0)

    def test_rejects_indefinite_form(self):
        with pytest.raises(SingularMetric):
            make(psi0_preset="base_cos", psi0_amplitude=0.2)

    def test_mixed_preset_at_default_amplitude_is_positive(self):
        omega0 = make(psi0_preset="mixed", psi0_amplitude=0.05).initial_form()
        assert np.min(omega0.det()) > 0.0
        assert np.min(omega0.bb) > 0.0

    def test_product_preset_amplitudes(self):
        # Both base axes are active in this preset so its Hessian is twice
        # as large; 0.05 breaks positivity while 0.02 keeps a wide margin.
        with pytest.raises(SingularMetric):
            make(psi0_preset="product", psi0_amplitude=0.05)
        geom = make(psi0_preset="product", psi0_amplitude=0.02)
        assert np.min(geom.initial_form().det()) > 0.1


class TestReferenceFamilies:
    def test_hat_starts_at_initial_form(self):
        geom = make(psi0_preset="mixed", base_scale=1.3, fiber_scale=2.0)
        omega0 = geom.initial_form()
        h0 = hat(omega0, geom.chi, 0.0)
        assert np.allclose(h0.bb, np.broadcast_to(omega0.bb, h0.bb.shape))
        assert np.allclose(h0.ff, np.broadcast_to(omega0.ff, h0.ff.shape))

    def test_hat_limits_to_base_form(self):
        geom = make(psi0_preset="mixed", fiber_scale=3.0)
        h = hat(geom.initial_form(), geom.chi, 40.0)
        assert np.max(np.abs(h.bb - geom.chi)) < 1e-15
        assert np.max(np.abs(h.ff)) < 1e-15

    def test_families_coincide_in_normalized_case(self):
        geom = make()  # psi0 zero, unit scales
        omega0 = geom.initial_form()
        for t in (0.0, 0.7, 3.0):
            a, b = hat(omega0, geom.chi, t), geom.tilde(t)
            assert np.max(np.abs(a.bb - b.bb)) < 1e-14
            assert np.max(np.abs(a.ff - b.ff)) < 1e-14
            assert np.max(np.abs(a.bf - b.bf)) < 1e-14

    def test_tilde_fiber_decay(self):
        geom = make(fiber_scale=3.0)
        assert np.allclose(geom.tilde(2.0).ff, np.exp(-2.0))


class TestFlatFiber:
    def test_gflat_is_fiber_scale(self):
        geom = make(psi0_preset="product", psi0_amplitude=0.015, fiber_scale=2.5)
        assert np.max(np.abs(geom.g_flat - 2.5)) < 1e-12

    def test_rho_differs_from_psi0_by_fiber_constant(self):
        geom = make(psi0_preset="mixed", psi0_amplitude=0.05)
        s = geom.rho + 0.05 * PSI0_PRESETS["mixed"](*geom.grid.coords)
        drift = s - s.mean(axis=(2, 3), keepdims=True)
        assert np.max(np.abs(drift)) < 1e-12

    def test_rho_weighted_mean_pinned(self):
        geom = make(psi0_preset="product", psi0_amplitude=0.02)
        g0 = np.broadcast_to(geom.initial_form().ff, geom.grid.shape)
        w = g0 / g0.sum(axis=(2, 3), keepdims=True)
        m = np.sum(geom.rho * w, axis=(2, 3))
        assert np.max(np.abs(m)) < 1e-13

    def test_rho_zero_for_base_only_potential(self):
        geom = make(psi0_preset="base_cos", psi0_amplitude=0.02)
        assert np.max(np.abs(geom.rho)) < 1e-12


class TestVolumeDensity:
    def test_density_closed_form(self):
        geom = make(fiber_scale=3.0, psi0_preset="mixed", psi0_amplitude=0.03)
        assert np.max(np.abs(geom.density - 3.0 * geom.chi)) < 1e-11


def _retained_bytes(obj, owners):
    """nbytes of every array obj holds, through its attributes, lists and
    tuples, by owner."""
    items = enumerate(obj) if isinstance(obj, (list, tuple)) else vars(obj).items()
    for name, value in items:
        if name == "grid":  # shared with the flow, not the geometry's own
            continue
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            owners[id(value)] = value.nbytes
        elif isinstance(value, (list, tuple)) or hasattr(value, "__dict__"):
            _retained_bytes(value, owners)
    return owners


def _fields(nbytes, grid):
    return nbytes / (8 * math.prod(grid.shape))


def test_geometry_keeps_only_what_a_run_reads():
    # psi_0's half spectrum and rho are the whole-grid arrays a run reads
    # (about 2.14 fields); psi_0 itself and omega_0 are not kept.
    geom = make(psi0_preset="mixed")
    assert _fields(sum(_retained_bytes(geom, {}).values()), geom.grid) <= 2.5
    for name in ("psi0", "omega0", "chi_form", "fiber_form", "flat_fiber", "volume"):
        assert not hasattr(geom, name), name


def test_geometry_build_peak(traced_fields):
    # Traced with the grid's symbols cached by a first build: omega_0's bb
    # and bf blocks and psi_0 are dropped before the flat-fiber solve, which
    # reads only the ff block.  Holding them, the build peaked at 13.2
    # whole fields at 16^4.
    grid = SpectralGrid(16, 16)
    spec = GeometrySpec(psi0_preset="mixed")
    SurrogateGeometry(grid, spec)
    assert traced_fields(lambda: SurrogateGeometry(grid, spec), grid.shape)[1] <= 10.5


def test_monitor_engine_keeps_no_whole_grid_array_beyond_the_geometrys():
    # The engine keeps base-only tables and the sample fibers' slices; it
    # forms each derivative symbol during a record.  Its table of 46 symbol
    # arrays held 19 whole fields at 16^4.
    geom = make(psi0_preset="mixed")
    own = _retained_bytes(MonitorEngine(FlowProblem(geom)), {})
    for key in _retained_bytes(geom, {}):
        del own[key]
    assert _fields(sum(own.values()), geom.grid) < 0.25
