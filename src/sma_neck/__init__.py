"""SMA-spring actuated continuum neck simulator.

Per-spring electro-thermo-mechanical dynamics, pennate force aggregation and
a quasi-static constant-curvature pose solve, plus scenario IO, plotting and
calibration.
"""

from .backbone import ArcPose, BackboneGeometry, arc_frame, arc_position
from .calibrate import CalibrationResult, NonImprovement, calibrate
from .engine import (
    CurrentProfile,
    NeckSystem,
    NoConvergence,
    PoseOutOfRange,
    Segment,
    SimConfig,
    SimTrace,
    SweepRow,
    residual,
    simulate,
    solve_pose,
    sweep,
)
from .pennate import PennateUnit
from .plots import emit_plots
from .scenario import (
    CalibrationSpec,
    ParseError,
    Scenario,
    ValidationError,
    dump_scenario,
    load_default_scenario,
    load_with_overrides,
)
from .sma import (
    Branch,
    SmaMaterial,
    SpringConstants,
    SpringGeometry,
    SpringState,
    StepTooLarge,
    ThermalEnvironment,
    forward_fraction,
    reverse_fraction,
    shear_stress,
    step_spring,
)
from .traceio import write_trace
from .units import UnitsError

__version__ = "0.1.0"

__all__ = [
    "ArcPose",
    "BackboneGeometry",
    "Branch",
    "CalibrationResult",
    "CalibrationSpec",
    "CurrentProfile",
    "NeckSystem",
    "NoConvergence",
    "NonImprovement",
    "ParseError",
    "PennateUnit",
    "PoseOutOfRange",
    "Scenario",
    "Segment",
    "SimConfig",
    "SimTrace",
    "SmaMaterial",
    "SpringConstants",
    "SpringGeometry",
    "SpringState",
    "StepTooLarge",
    "SweepRow",
    "ThermalEnvironment",
    "UnitsError",
    "ValidationError",
    "arc_frame",
    "arc_position",
    "calibrate",
    "dump_scenario",
    "emit_plots",
    "forward_fraction",
    "load_default_scenario",
    "load_with_overrides",
    "residual",
    "reverse_fraction",
    "shear_stress",
    "simulate",
    "solve_pose",
    "step_spring",
    "sweep",
    "write_trace",
]
