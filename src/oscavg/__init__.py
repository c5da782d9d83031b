"""Phase-noise averaging circuit simulator.

Wiener-model oscillators, circuits of one mixer/divide-by-m stage over any
k >= 2 taps of one weight 1/m (the pair and the delayed self-average
average at m = k; the four-oscillator mixing tree sums at m = 1), one
closed-form model of weighted, delayed Wiener phases for their
autocorrelations and spectra, and one Welch estimator, with per-bin
standard errors and its exact expected density, to compare them.
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
from .spectral import EnsembleWelch, SpectrumEstimate, expected_psd
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
