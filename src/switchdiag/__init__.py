"""Structural fault diagnosability analysis of switched modular battery packs.

Core layers:

* :mod:`switchdiag.structural` -- bipartite structural models,
  Dulmage-Mendelsohn decomposition, detectability/isolability calculus.
* :mod:`switchdiag.switched` -- mode-guarded templates, configuration
  flattening, mode-class and configuration reduction.
* :mod:`switchdiag.bimmc` -- generator for the battery-integrated modular
  converter models (sensor setups I-IV) and fault aggregation.
* :mod:`switchdiag.pipeline` -- the setups x configurations sweep with
  compact, table-style reporting.
* :mod:`switchdiag.residuals` -- numerical residual simulation on a
  single-submodule cell plant.  It loads numpy, so its names here are
  imported on first use and the structural layers start without it.
"""

from .bimmc import (
    NOMINAL_CELL,
    CellParameters,
    SensorSetup,
    generate,
    sensor_setup,
)
from .errors import (
    InputError,
    InternalConsistencyError,
    NonStationaryError,
    SimulationDivergedError,
)
from .pipeline import (
    CompactIsolability,
    SweepReport,
    analyze_configuration,
    compact,
    render,
    render_report,
    sweep,
)
from .structural import (
    DmDecomposition,
    IsolabilityReport,
    StructuralModel,
    dm_decompose,
    isolability_partition,
)
from .switched import (
    Configuration,
    GlobalEquation,
    ModeGuardedEquation,
    ReducedConfiguration,
    SubmoduleTemplate,
    SwitchedModel,
    canonicalize,
    enumerate_reduced_configurations,
    instantiate,
    parse_configuration,
    representative_configuration,
    structural_mode_classes,
)

__version__ = "0.1.0"

_RESIDUAL_NAMES = frozenset({
    "FaultStep", "PlantSignals", "ResidualTrace", "SimScenario", "residual_cell_current",
    "residual_redundant_output", "residual_setup1", "simulate_plant", "steady_state_gain",
})


def __getattr__(name: str):
    if name in _RESIDUAL_NAMES:
        from . import residuals

        return getattr(residuals, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
