"""Joint beamforming energy minimization and energy-terminal group division
for a green C-RAN with simultaneous wireless information and power transfer.

Layout:
    topology  network geometry and per-slot Rayleigh channel draws
    sdp       dense block-SDP interior-point solver
    beamform  optimization instance builder, beamformer recovery, power math
    division  per-draw division evaluator, group-division iteration,
              brute force oracle, fixed baselines
    longterm  training stage and frozen-division long-term stage
    config    experiment configuration parsing and hashing
    validate  invariant suite
    cli       Monte Carlo orchestration, CSV persistence, entry point
"""

from .beamform import (
    BeamformerSet,
    GroupDivision,
    PowerReport,
    SystemParams,
    solve_division,
)
from .config import ExperimentConfig, load_config
from .division import (
    DivisionRunResult,
    Instance,
    Termination,
    algorithm1,
    algorithm2,
    baseline_all_fet,
    baseline_all_met,
    brute_force,
)
from .longterm import TrainingResult, longterm_stage, training_stage
from .topology import (
    ChannelRealization,
    NetworkTopology,
    Position,
    draw_channels,
    generate_topology,
)

__version__ = "0.1.0"

__all__ = [
    "BeamformerSet",
    "ChannelRealization",
    "DivisionRunResult",
    "ExperimentConfig",
    "GroupDivision",
    "Instance",
    "NetworkTopology",
    "Position",
    "PowerReport",
    "SystemParams",
    "Termination",
    "TrainingResult",
    "algorithm1",
    "algorithm2",
    "baseline_all_fet",
    "baseline_all_met",
    "brute_force",
    "draw_channels",
    "generate_topology",
    "load_config",
    "longterm_stage",
    "solve_division",
    "training_stage",
]
