"""Cold-start engine control lab.

Plant model, cascaded adaptive discrete sliding-mode controllers, a
quantized-loop simulation harness with emission accounting, and RGA-based
coupling analysis with first-order identification.

The submodules are the primary API surface (``coldstart.plant``,
``coldstart.dsmc``, ``coldstart.trajectory``, ``coldstart.looplab``,
``coldstart.rga``, ``coldstart.cli``); the names re-exported here are the
everyday entry points for scripting a run end to end.
"""

# cli is in __all__ but not imported here: ``python -m coldstart.cli`` would
# otherwise find it already imported and warn before running it
from . import dsmc, looplab, plant, rga, trajectory
from .dsmc import ActuatorBounds, CascadeController
from .errors import (
    ColdstartError,
    ConfigError,
    DegenerateInputError,
    IdentificationError,
    SimulationAbort,
    SingularMatrixError,
)
from .looplab import (
    MetricsSummary,
    PhiTrue,
    RunRecord,
    ScenarioConfig,
    compute_metrics,
    euler_step,
    quantize,
    run_scenario,
)
from .plant import ControlInput, EngineState, PlantConstants, PlantConventions
from .rga import FirstOrderTF, TFMatrix, identify_mimo, rga_of_matrix, rga_sweep
from .trajectory import TrajectoryTable, default_table

__version__ = "0.1.0"

__all__ = [
    "ActuatorBounds",
    "CascadeController",
    "ColdstartError",
    "ConfigError",
    "ControlInput",
    "DegenerateInputError",
    "EngineState",
    "FirstOrderTF",
    "IdentificationError",
    "MetricsSummary",
    "PhiTrue",
    "PlantConstants",
    "PlantConventions",
    "RunRecord",
    "ScenarioConfig",
    "SimulationAbort",
    "SingularMatrixError",
    "TFMatrix",
    "TrajectoryTable",
    "cli",
    "compute_metrics",
    "default_table",
    "dsmc",
    "euler_step",
    "identify_mimo",
    "looplab",
    "plant",
    "quantize",
    "rga",
    "rga_of_matrix",
    "rga_sweep",
    "run_scenario",
    "trajectory",
    "__version__",
]
