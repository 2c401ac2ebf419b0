"""Two-spin NMR quantum-processor simulator with hyperpolarization-
enhanced initial states: weighted temporal labeling, spectral readout and
a one-query two-qubit search, end to end."""

from .quantum import (
    DensityMatrix,
    Unitary,
    apply_unitary,
    compose,
    populations,
)
from .spins import (
    Channel,
    PermutationId,
    PulseSpec,
    SpinSystemConfig,
    enhanced_deviations,
    enhanced_state,
    permutation_pulse_sequence,
    pulse_unitary,
    thermal_state,
)
from .spinoe import (
    ExperimentSchedule,
    ScheduleMode,
    SpinoeParams,
    enhancement_at,
    make_schedule,
    sample_initial_states,
)
from .labeling import (
    EffectivePureResult,
    LabelingPlan,
    SingularLabelingSystem,
    UnequalizedLabeling,
    assemble_effective_pure,
    choose_ground,
    enhancement_factor,
    label,
    permute_populations,
    solve_weights,
)
from .readout import (
    DetectionSettings,
    Detector,
    PeakTable,
    ReadoutError,
    Spectrum,
    calibrate,
    integrate_peaks,
    probe,
    readout_map,
    reconstruct_diagonal,
)
from .experiments import (
    DecodeError,
    GroverCase,
    grover_circuit,
    grover_diffusion,
    grover_oracle,
    run_effective_pure_pipeline,
    run_grover_pipeline,
)

__version__ = "0.1.0"
