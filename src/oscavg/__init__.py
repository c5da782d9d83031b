"""Phase-noise averaging circuit simulator.

Wiener-model oscillators, mixer/divider averaging circuits built from taps
(the pair and the delayed self-average among them), the four-oscillator
mixing stage, one closed-form model of weighted, delayed Wiener phases for
their autocorrelations and spectra, and Welch estimates to compare them.
"""

from .analytic import (
    DelayedAvgParams,
    bates2_cdf,
    delayed_avg_autocorr,
    delayed_avg_psd,
    delayed_taps,
    psd_by_quadrature,
    tap_autocorr,
    tap_psd,
    to_dbc_hz,
)
from .circuit import (
    SimulationResult,
    SteadyStateResult,
    delay_block,
    demodulate_phase,
    divider_residual,
    ideal_filter,
    mix,
    simulate_delayed_self_average,
    simulate_mixing_tree,
    simulate_pair_average,
    simulate_taps,
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
    Waveform,
    oscillator_waveform,
    path_rng,
    sample_offset,
    tap_ensemble,
    wiener_ensemble,
    wiener_path,
)

__version__ = "0.1.0"
