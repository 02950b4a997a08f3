"""Differentiable modal simulation and inverse modelling of strings,
membranes, and plates."""

__version__ = "0.1.0"

from .model import (
    MaterialParams, String, RectMembrane, RectPlate, ModelSpec, NormalizedParams,
    ValidationError, validate, derive_tau, derive_normalized,
    spec_to_dict, spec_from_dict, spec_to_json, spec_from_json,
)
from .modes import (
    ModeBasis, PointReadout, string_basis, rect_basis, point_readout,
    project_point_excitation, sample_modes,
)
from .coupling import PlateCoupling, simply_supported_tensors, TensionModulation, VkContraction
from .integrators import (
    OscillatorBank, Coefficients, Trajectory,
    InitialCondition, PointForce, raised_cosine_pulse, triangular_pluck,
    OverdampedError, InstabilityError, StabilityBoundError, NyquistError, SchemeError,
    oscillator_bank, bank_from_spec, ftm_coeffs, sv_coeffs, simulate, rk_reference,
)
from .losses import LossWeights, loss_target, loss_total_grad
from .analysis import (
    Spectrogram, LpcModel, stft, lpc, lpc_envelope_at, bark_grid, tf_magnitude,
    hz_to_bark, bark_to_hz,
)
from .audio_io import WavFormatError, wav_read, wav_write
from .fitting import (
    FitConfig, FitResult, FitDivergedError, TimeDomainProblem, FrequencyDomainProblem,
    fit, one_cycle_lr,
)
