"""Monte-Carlo study of reflecting-surface-aided radar parameter estimation."""

from .bounds import CrbReport, crb, fisher_information
from .channel import (
    ChannelRealization,
    IrsPanel,
    compose_nlos_coefficient,
    draw_csi,
    inner_product_form,
    nlos_coefficient,
    normalize_scenario,
    read_csi_file,
)
from .errors import (
    CapabilityError,
    DegenerateDrawError,
    DegeneratePathError,
    GenerationError,
    NumericalError,
    SingularModelError,
    UnboundedCrbError,
    UnderdeterminedModelError,
    UndefinedMetricError,
    UsageError,
)
from .estimator import EstimationReport, NoiseModel, blue_estimate, estimator_mse, nmse
from .harness import (
    Scenario,
    SweepResult,
    TrialRecord,
    run_trial,
    sweep_gamma,
    sweep_noise,
)
from .model import (
    DopplerSteering,
    SensingMatrix,
    Waveform,
    build_sensing_matrix,
    doppler_steering,
    make_random_waveform,
)
from .phaseopt import (
    CertificationRecord,
    PhasePolicy,
    apply_policy,
    certify_optimum,
    optimal_phases,
)

__version__ = "0.1.0"
