"""Analog fault diagnosis via signature-space fault trajectories.

Pipeline: parse a netlist, enumerate parametric faults, pick test
frequencies whose fault trajectories stay apart (GA over 1/(I+1)),
then classify unknown responses by nearest trajectory segment.
"""

from .acsim import ResponseCurve, log_grid, solve_ac, sweep
from .diagnose import DiagnosisResult, Hypothesis, classify
from .errors import ConfigError, NetlistError, SimulationError, TrajdiagError
from .evolve import (
    Chromosome,
    GaConfig,
    GaLog,
    GaRecord,
    fitness,
    fitness_from_intersections,
    roulette_select,
    run_ga,
    step_generation,
)
from .faultlib import (
    FaultConfig,
    FaultDictionary,
    FaultEnsemble,
    FaultSpec,
    build_dictionary,
    enumerate_faults,
    evaluate_at,
)
from .netlist import (
    Circuit,
    Element,
    ElementKind,
    parse_netlist,
    render_netlist,
)
from .trajectory import (
    IncidenceRecord,
    TestVector,
    Trajectory,
    build_trajectories,
    count_intersections,
    signature,
)

__version__ = "0.1.0"

__all__ = [
    "Chromosome",
    "Circuit",
    "ConfigError",
    "DiagnosisResult",
    "Element",
    "ElementKind",
    "FaultConfig",
    "FaultDictionary",
    "FaultEnsemble",
    "FaultSpec",
    "GaConfig",
    "GaLog",
    "GaRecord",
    "Hypothesis",
    "IncidenceRecord",
    "NetlistError",
    "ResponseCurve",
    "SimulationError",
    "TestVector",
    "Trajectory",
    "TrajdiagError",
    "build_dictionary",
    "build_trajectories",
    "classify",
    "count_intersections",
    "enumerate_faults",
    "evaluate_at",
    "fitness",
    "fitness_from_intersections",
    "log_grid",
    "parse_netlist",
    "render_netlist",
    "roulette_select",
    "run_ga",
    "signature",
    "solve_ac",
    "step_generation",
    "sweep",
    "__version__",
]
