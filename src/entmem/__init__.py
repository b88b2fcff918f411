"""Desk-scale simulator and estimator toolkit for a two-color
polarization-entanglement storage experiment.

Synthesizes realistic coincidence-count data from physical models (pair
source, balancing interferometer, EIT storage, photon counting) and
recovers density matrices, fidelity, CHSH, visibility, Cauchy-Schwarz
ratio and heralded autocorrelation with Monte-Carlo error bars.
"""

from .errors import (
    CalibrationError,
    ConfigurationError,
    EntmemError,
    EstimationError,
    ValidationError,
)
from .qstate import bell_psi_plus, fidelity, physical
from .source import SourceParams, tan2_eta_from_detuning, two_photon_state
from .interferometer import AttenuatorSetting, apply_attenuator, balance_attenuation
from .memory import (
    EITParams,
    MemoryDecayParams,
    MemoryNoiseParams,
    apply_memory,
    eit_transmission,
)
from .detection import (
    CountRecord,
    DetectorParams,
    LossBudget,
    TimingConfig,
    born_probabilities,
    heralded_alpha,
    sample_counts,
)
from .estimators import (
    EstimateWithError,
    TomographySettingSet,
    cauchy_schwarz_R,
    chsh_E,
    chsh_S,
    chsh_S_analytic,
    mc_error,
    tomo_counts,
    tomo_linear,
    tomo_mle,
    visibility_fit,
)

__version__ = "0.1.0"
