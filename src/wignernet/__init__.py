"""Closed-form Gaussian Wigner dynamics for the 1-D harmonic oscillator and a
from-scratch neural-network emulator of that mapping."""

from .data import (
    Dataset,
    DatasetFormatError,
    EmptyDatasetError,
    SamplingRanges,
    SplitIndices,
    build_dataset,
    load_dataset,
    load_splits,
    sample_inputs,
    save_dataset,
    save_splits,
    split_indices,
)
from .experiments import (
    ConvergenceReport,
    DegenerateWidthError,
    PhaseSpaceResult,
    PhaseSpaceSpec,
    SweepResult,
    SweepSpec,
    convergence_report,
    hbar_sweep,
    oracle_predictor,
    phase_space_grids,
    save_phase_space,
    save_sweep,
)
from .network import (
    Adam,
    ArchitectureSpec,
    BatchNormLayer,
    DenseLayer,
    MlpModel,
    ModelFormatError,
    ModelShapeError,
    ModelVersionError,
    backward,
    init_model,
    load_model,
    mse_loss,
    save_model,
)
from .oscillator import (
    GaussianWigner,
    OscillatorConfig,
    evolve_batch,
    wigner_grid,
    wigner_value,
)
from .training import (
    NonFiniteLossError,
    TrainConfig,
    TrainReport,
    evaluate,
    save_report,
    train,
)

__version__ = "0.1.0"
