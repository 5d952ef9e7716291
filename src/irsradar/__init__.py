"""Monte-Carlo study of reflecting-surface-aided radar parameter estimation."""

from .bounds import CrbReport, crb, fisher_information
from .channel import IrsPanel, compose_paths, read_csi_file
from .errors import (
    CapabilityError,
    DegeneratePathError,
    GenerationError,
    NumericalError,
    SingularModelError,
    UnboundedCrbError,
    UnderdeterminedModelError,
    UndefinedMetricError,
    UsageError,
)
from .estimator import EstimationReport, NoiseModel, blue_estimate, estimator_mse
from .harness import (
    Scenario,
    SweepResult,
    TrialRecord,
    run_trial,
    sweep_gamma,
    sweep_noise,
)
from .model import (
    SensingMatrix,
    Waveform,
    build_sensing_matrix,
    make_random_waveform,
)
from .phaseopt import (
    CertificationRecord,
    certify_optimum,
    optimal_phases,
)

__version__ = "0.1.0"
