"""Collapsing-fiber normalized Kahler-Ricci flow on a torus-fibered product.

The package solves the flow as a scalar parabolic complex Monge-Ampere
equation for the potential on a 4D periodic grid (2D base x 2D flat torus
fiber), monitors every bounded quantity the convergence theory names, and
fits the predicted decay rates.  A second backend runs the base-only flow
on a genus-2 hyperbolic surface built from a side-paired octagon.

Typical use::

    from krflow import (SpectralGrid, GeometrySpec, SurrogateGeometry,
                        FlowProblem, FlowOptions, MonitorEngine, decay_fit)

    grid = SpectralGrid(32, 32, 1j)
    geometry = SurrogateGeometry(grid, GeometrySpec(psi0_preset="mixed"))
    problem = FlowProblem(geometry)
    engine = MonitorEngine(problem)
    result = problem.run(FlowOptions(t_end=8.0), sampler=engine.record)
    fit = decay_fit([r.t for r in result.records],
                    [r.sup_phi for r in result.records])
"""

from .analysis import (
    BOUNDED_MONITOR_FIELDS,
    DecayFit,
    MonitorEngine,
    MonitorRecord,
    bounded_monitor_check,
    decay_fit,
    drift_stats,
    fiber_flatness_rates,
)
from .discretization import HermitianField, SpectralGrid
from .errors import (
    ConfigInvalid,
    InsufficientSamples,
    KrflowError,
    NonFiniteValue,
    OutOfDomain,
    PositivityLost,
    SingularMetric,
)
from .flow import (
    FlowOptions,
    FlowProblem,
    FlowResult,
    FlowState,
)
from .geometry import (
    PSI0_PRESETS,
    GeometrySpec,
    SurrogateGeometry,
)
from .octagon import BolzaFlowResult, OctagonGrid, gauss_curvature, run_base_flow
from .oracle import OracleReport, product_reduced_run, run_battery
from .persistence import (
    read_monitor_csv,
    read_snapshot,
    write_monitor_csv,
    write_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDED_MONITOR_FIELDS",
    "BolzaFlowResult",
    "ConfigInvalid",
    "DecayFit",
    "FlowOptions",
    "FlowProblem",
    "FlowResult",
    "FlowState",
    "GeometrySpec",
    "HermitianField",
    "InsufficientSamples",
    "KrflowError",
    "MonitorEngine",
    "MonitorRecord",
    "NonFiniteValue",
    "OctagonGrid",
    "OracleReport",
    "OutOfDomain",
    "PSI0_PRESETS",
    "PositivityLost",
    "SingularMetric",
    "SpectralGrid",
    "SurrogateGeometry",
    "bounded_monitor_check",
    "decay_fit",
    "drift_stats",
    "fiber_flatness_rates",
    "gauss_curvature",
    "product_reduced_run",
    "read_monitor_csv",
    "read_snapshot",
    "run_base_flow",
    "run_battery",
    "write_monitor_csv",
    "write_snapshot",
    "__version__",
]
