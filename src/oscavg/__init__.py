"""Phase-noise averaging circuit simulator.

Wiener-model oscillators, the mixer/divider averaging circuits (two
oscillators, four oscillators, delayed self-averaging), the matching
closed-form autocorrelations and spectra, and Welch-based estimation to
compare the two.
"""

from .analytic import (
    DegenerateModelError,
    DelayedAvgParams,
    bates2_cdf,
    bates2_pdf,
    delayed_avg_autocorr,
    delayed_avg_psd,
    lorentzian_psd,
    phase_shift_autocorr,
    phase_shift_psd,
    psd_by_quadrature,
    to_dbc_hz,
)
from .circuit import (
    ConfigurationError,
    ShapeError,
    SimulationResult,
    SteadyStateResult,
    delay_block,
    demodulate_phase,
    divider_residual,
    divider_steady_state,
    ideal_filter,
    mix,
    simulate_delayed_self_average,
    simulate_mixing_tree,
    simulate_pair_average,
    steady_state_average,
    steady_state_residual,
)
from .config import ExperimentConfig, parse_offset_descriptor
from .spectral import (
    SpectrumEstimate,
    autocorr_per_path,
    psd_of_phase_shift,
    welch_psd,
)
from .stochastic import (
    OffsetDist,
    OscillatorSpec,
    ParameterError,
    PhasePath,
    SamplingError,
    Waveform,
    oscillator_waveform,
    path_rng,
    sample_offset,
    wiener_ensemble,
    wiener_path,
)

__version__ = "0.1.0"
