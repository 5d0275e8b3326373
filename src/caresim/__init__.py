"""caresim: co-evolutionary doctor-patient care simulation.

Two model variants share one engine: a classical variant in which
patients judge doctors on credentials, mean ratings, and their own past
experience, and a cognitive-social-system (css) variant in which every
signal is filtered through directed social-tie strengths and doctors
earn confidence from colleague respect.  A microbial genetic algorithm
co-evolves both populations' traits between rounds.
"""

from .agents import Credential, DoctorState, PatientState, init_doctor, init_patient
from .config import (
    ConfigError,
    ModelKind,
    PRESETS,
    SimulationConfig,
    preset_full_scale,
    preset_single_run,
)
from .engine import (
    BatchResult,
    METRIC_FIELDS,
    NetworkSnapshot,
    RoundAggregate,
    RoundMetrics,
    RunResult,
    RunState,
    capture_snapshot,
    init_run_state,
    run_batch,
    run_round,
    run_simulation,
)
from .ratings import RatingLedger
from .reporting import export_metrics_csv, export_network_snapshot
from .rng import RngStream, derive_run_seed

__all__ = [
    "BatchResult",
    "ConfigError",
    "Credential",
    "DoctorState",
    "METRIC_FIELDS",
    "ModelKind",
    "NetworkSnapshot",
    "PRESETS",
    "PatientState",
    "RatingLedger",
    "RngStream",
    "RoundAggregate",
    "RoundMetrics",
    "RunResult",
    "RunState",
    "SimulationConfig",
    "capture_snapshot",
    "derive_run_seed",
    "export_metrics_csv",
    "export_network_snapshot",
    "init_doctor",
    "init_patient",
    "init_run_state",
    "preset_full_scale",
    "preset_single_run",
    "run_batch",
    "run_round",
    "run_simulation",
]

__version__ = "0.1.0"
