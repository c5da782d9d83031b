"""Oscillator-averaging circuits: mixers, ideal filters, divider loops.

Each circuit exists in two interoperable modes. The symbolic mode applies
the steady-state solution directly to phase paths (`steady_state_average`,
`divider_steady_state`). The waveform mode builds the sampled signal chain
(mix, filter, divider resolved at its fixed point) and is checked against
the symbolic mode through the demodulation oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .stochastic import (
    STREAM_PHASE,
    TWO_PI,
    OscillatorSpec,
    ParameterError,
    PhasePath,
    SamplingError,
    Waveform,
    lag_samples,
    oscillator_waveform,
    sample_offset,
    wiener_ensemble,
    wiener_path,
)


class ShapeError(ValueError):
    """Incompatible waveform lengths or sample rates."""


class ConfigurationError(ValueError):
    """Circuit configuration (cutoffs, delays) inconsistent with the inputs."""


# ---------------------------------------------------------------------------
# elementary blocks


def mix(a: Waveform, b: Waveform) -> Waveform:
    """Pointwise product of two waveforms (ideal mixer)."""
    if a.fs != b.fs:
        raise ShapeError(f"sample rates differ: {a.fs:g} vs {b.fs:g}")
    if len(a) != len(b):
        raise ShapeError(f"lengths differ: {len(a)} vs {len(b)}")
    return Waveform(fs=a.fs, samples=a.samples * b.samples, t0=a.t0)


def ideal_filter(w: Waveform, kind: str, f_cut: float) -> Waveform:
    """Brick-wall high- or low-pass filter: a zero-phase frequency-domain
    mask, 1 in the passband and 0 outside."""
    if kind not in ("highpass", "lowpass"):
        raise ParameterError(f"unknown filter kind {kind!r}")
    if not (0 < f_cut < w.fs / 2):
        raise ParameterError(f"f_cut={f_cut:g} must lie in (0, fs/2={w.fs / 2:g})")
    spec = np.fft.rfft(w.samples)
    freqs = np.fft.rfftfreq(len(w), d=1.0 / w.fs)
    if kind == "lowpass":
        mask = freqs <= f_cut
    else:
        mask = freqs >= f_cut
    out = np.fft.irfft(spec * mask, n=len(w))
    return Waveform(fs=w.fs, samples=out, t0=w.t0)


def delay_block(w: Waveform, delta: float) -> Waveform:
    """Delay by an integer number of samples, zero-padded at the start."""
    lag_i = lag_samples(delta, 1.0 / w.fs)
    out = np.zeros(len(w))
    if lag_i < len(w):
        out[lag_i:] = w.samples[: len(w) - lag_i]
    return Waveform(fs=w.fs, samples=out, t0=w.t0)


def demodulate_phase(w: Waveform, f0: float, f_cut: Optional[float] = None
                     ) -> np.ndarray:
    """Instantaneous phase measurement: complex downconversion at f0 plus a
    brick-wall lowpass.

    Returns the phase deviation: element k is the unwrapped phase of the
    signal relative to the 2*pi*f0*t ramp. A measurement device for tests
    and oracles, not a circuit block. Edge samples carry spectral-leakage
    error; callers should trim.
    """
    if f_cut is None:
        f_cut = f0 / 2.0
    if not (0 < f_cut < w.fs / 2):
        raise ParameterError("demodulation cutoff outside (0, fs/2)")
    k = np.arange(len(w))
    z = w.samples * np.exp(-1j * TWO_PI * f0 * k / w.fs)
    spec = np.fft.fft(z)
    freqs = np.fft.fftfreq(len(w), d=1.0 / w.fs)
    spec[np.abs(freqs) > f_cut] = 0.0
    base = np.fft.ifft(spec)
    return np.unwrap(np.angle(base))


def edge_trim(fs: float, f_cut: float) -> int:
    """Samples to drop at each end before comparing filtered signals: four
    periods of f_cut, capped so that a vanishing cutoff trims everything."""
    return int(min(4.0 / f_cut * fs, sys.maxsize))


# ---------------------------------------------------------------------------
# steady-state (symbolic) mode


@dataclass(frozen=True)
class SteadyStateResult:
    """Fixed-point solution of an averaging loop."""

    omega_prime: float
    phase_path_prime: PhasePath
    amplitude: float


def steady_state_average(phases: Sequence[PhasePath], omegas: Sequence[float]
                         ) -> SteadyStateResult:
    """Fixed point of the n-oscillator averaging chain: the output frequency
    and phase path are the arithmetic means of the inputs; amplitude 1/2."""
    if len(phases) < 2:
        raise ParameterError("need at least 2 oscillators")
    if len(phases) != len(omegas):
        raise ShapeError("phases and omegas length mismatch")
    dt = phases[0].dt
    n = len(phases[0])
    for p in phases[1:]:
        if p.dt != dt or len(p) != n:
            raise ShapeError("phase paths must share dt and length")
    mean_phase = np.mean(np.stack([p.samples for p in phases]), axis=0)
    return SteadyStateResult(
        omega_prime=float(np.mean(omegas)),
        phase_path_prime=PhasePath(dt=dt, samples=mean_phase),
        amplitude=0.5,
    )


def divider_steady_state(omega_in: float, phase_in: PhasePath, n: int
                         ) -> SteadyStateResult:
    """Fixed point of the regenerative n-divider: frequency and phase scale
    by exactly 1/n."""
    if n < 2:
        raise ParameterError("divider ratio must be >= 2")
    return SteadyStateResult(
        omega_prime=omega_in / n,
        phase_path_prime=PhasePath(dt=phase_in.dt, samples=phase_in.samples / n),
        amplitude=0.5,
    )


def steady_state_residual(omega_prime: float, phase_prime: np.ndarray,
                          omega_sum: float, phase_sum: np.ndarray,
                          dt: float) -> float:
    """Max per-sample residual of the divider fixed-point equation
    w'*t + p'_t = (w_sum - w')*t + (p_sum_t - p'_t)."""
    t = np.arange(phase_prime.size) * dt
    lhs = omega_prime * t + phase_prime
    rhs = (omega_sum - omega_prime) * t + (phase_sum - phase_prime)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# waveform-mode simulations


@dataclass(frozen=True)
class SimulationResult:
    """Waveform-mode circuit output plus the symbolic-mode prediction."""

    output: Waveform
    expected: SteadyStateResult
    phases: Tuple[PhasePath, ...]
    omegas: Tuple[float, ...]
    residual: Optional[float]
    measured_total_phase: Optional[np.ndarray] = None
    prefilter: Optional[Waveform] = None


def _draw_oscillator(spec: OscillatorSpec, fs: float, n: int,
                     seed_id: Tuple[int, int]) -> Tuple[Waveform, PhasePath, float]:
    f_i = sample_offset(spec.offset_dist, seed_id)
    path = wiener_path(spec.beta, spec.theta0, 1.0 / fs, n, seed_id)
    wave = oscillator_waveform(spec, f_i, path, fs, n)
    return wave, path, TWO_PI * (spec.f_c + f_i)


def _check_rate(fs: float, f_top: float):
    if fs < 8.0 * f_top:
        raise SamplingError(f"fs={fs:g} too low; need >= {8.0 * f_top:g} "
                            f"to cover products near {f_top:g} Hz")


def divider_residual(summed: Waveform, output: Waveform, f_c: float,
                     settle: int = 0) -> float:
    """Substitution check of the regenerative 2-divider on waveforms.

    Feeds `output` back through the divider loop (mixer with the sum-band
    input `summed`, gain 4, lowpass at 2*f_c) and returns the largest
    deviation of the loop output from `output`. At the fixed point the
    mixer's product near f_c reproduces the output; an output phase off by
    e radians reads about |sin(e)|. The brick-wall filters ring near the
    ends, so the first and last sixteenth (at least edge_trim samples) are
    skipped, and so are the first `settle` samples (start-up).
    """
    loop = ideal_filter(mix(summed, Waveform(fs=output.fs, samples=4.0 * output.samples)),
                        "lowpass", 2.0 * f_c)
    trim = max(edge_trim(output.fs, f_c), len(output) // 16)
    dev = np.abs(loop.samples - output.samples)[settle + trim:len(output) - trim]
    if dev.size == 0:
        raise ParameterError("duration too short to check the divider loop")
    return float(np.max(dev))


def _average_stage(a: Waveform, b: Waveform, f_c: float, settle: int = 0
                   ) -> Tuple[Waveform, np.ndarray, float]:
    """Tail shared by the two-input averagers: mix, highpass at f_c, and the
    regenerative 2-divider resolved at its fixed point (output phase is half
    the measured sum-band phase). Returns the output, its total phase and
    the divider's substitution residual."""
    # sum band near 2*f_c survives; difference band near f1-f2 is removed
    summed = ideal_filter(mix(a, b), "highpass", f_c)
    dev = demodulate_phase(summed, 2.0 * f_c)
    k = np.arange(len(a))
    phase_out_total = 0.5 * (TWO_PI * 2.0 * f_c * k / a.fs + dev)
    out = Waveform(fs=a.fs, samples=0.5 * np.cos(phase_out_total))
    return out, phase_out_total, divider_residual(summed, out, f_c, settle)


def simulate_pair_average(spec1: OscillatorSpec, spec2: OscillatorSpec, fs: float,
                          duration: float, seed: int) -> SimulationResult:
    """Two-oscillator averaging chain: mix, highpass at f_c, regenerative
    2-divider resolved at its steady state. Output ~ (1/2)cos(w't + theta'_t)
    with w' and theta'_t the means of the inputs."""
    if spec1.f_c != spec2.f_c:
        raise ConfigurationError("oscillators must share the nominal frequency")
    f_c = spec1.f_c
    _check_rate(fs, 2.0 * f_c)
    n = int(round(duration * fs))
    if n < 16:
        raise ParameterError("duration too short")
    w1, p1, om1 = _draw_oscillator(spec1, fs, n, (seed, 0))
    w2, p2, om2 = _draw_oscillator(spec2, fs, n, (seed, 1))
    out, phase_out_total, residual = _average_stage(w1, w2, f_c)

    expected = steady_state_average([p1, p2], [om1, om2])
    return SimulationResult(output=out, expected=expected, phases=(p1, p2),
                            omegas=(om1, om2), residual=residual,
                            measured_total_phase=phase_out_total)


def simulate_mixing_tree(specs: Sequence[OscillatorSpec], fs: float,
                         duration: float, seed: int) -> SimulationResult:
    """Four-oscillator mixing stage: two pairwise mixers feeding a third,
    highpass at 3*f_c keeping the component near 4*f_c with phase equal to
    the sum of the input phases and amplitude 1/8."""
    if len(specs) != 4:
        raise ParameterError("mixing tree takes exactly 4 oscillators")
    f_c = specs[0].f_c
    if any(s.f_c != f_c for s in specs):
        raise ConfigurationError("oscillators must share the nominal frequency")
    _check_rate(fs, 4.0 * f_c)
    n = int(round(duration * fs))
    if n < 16:
        raise ParameterError("duration too short")
    waves, paths, omegas = [], [], []
    for i, s in enumerate(specs):
        w, p, om = _draw_oscillator(s, fs, n, (seed, i))
        waves.append(w)
        paths.append(p)
        omegas.append(om)
    pre = mix(mix(waves[0], waves[1]), mix(waves[2], waves[3]))
    out = ideal_filter(pre, "highpass", 3.0 * f_c)
    dev = demodulate_phase(out, 4.0 * f_c, f_cut=f_c)
    k = np.arange(n)
    measured = TWO_PI * 4.0 * f_c * k / fs + dev

    sum_phase = np.sum(np.stack([p.samples for p in paths]), axis=0)
    expected = SteadyStateResult(
        omega_prime=float(np.sum(omegas)),
        phase_path_prime=PhasePath(dt=1.0 / fs, samples=sum_phase),
        amplitude=0.125,
    )
    return SimulationResult(output=out, expected=expected, phases=tuple(paths),
                            omegas=tuple(omegas), residual=None,
                            measured_total_phase=measured, prefilter=pre)


def simulate_delayed_self_average(spec: OscillatorSpec, delta: float, fs: float,
                                  duration: float, seed: int) -> SimulationResult:
    """Average an oscillator with its own output delayed by delta: delay
    block, then the two-input averaging chain. Output phase is
    (theta_t + theta_{t-delta})/2.

    delta must be an integer number of samples; the first delta seconds of
    the output are start-up and excluded from the symbolic comparison window.
    """
    lag_i = lag_samples(delta, 1.0 / fs)
    f_c = spec.f_c
    _check_rate(fs, 2.0 * f_c)
    n = int(round(duration * fs))
    if lag_i >= n // 4:
        raise ParameterError("duration must be much longer than the delay")
    w, p, om = _draw_oscillator(spec, fs, n, (seed, 0))
    out, phase_out_total, residual = _average_stage(w, delay_block(w, delta), f_c,
                                                    settle=lag_i)

    # symbolic mode: delayed samples held at theta[0] before t = delta
    delayed = np.concatenate([np.full(lag_i, p.samples[0]), p.samples[: n - lag_i]]) \
        if lag_i > 0 else p.samples
    avg = 0.5 * (p.samples + delayed)
    expected = SteadyStateResult(
        omega_prime=om,
        phase_path_prime=PhasePath(dt=1.0 / fs, samples=avg),
        amplitude=0.5,
    )
    return SimulationResult(output=out, expected=expected, phases=(p,),
                            omegas=(om, om), residual=residual,
                            measured_total_phase=phase_out_total)


def averaged_phase_ensemble(beta: float, delta: float, dt: float, n: int,
                            master_seed: int, n_paths: int,
                            first_index: int = 0, stream: int = STREAM_PHASE
                            ) -> np.ndarray:
    """Symbolic-mode ensemble of delayed self-averaged phases,
    shape (n_paths, n). Each row is (theta_t + theta_{t-delta})/2 sampled in
    the stationary region (the underlying walk is extended backwards by
    delta so no start-up transient appears). Row i uses the walk of path
    index first_index + i on the given stream tag."""
    lag_i = lag_samples(delta, dt)
    theta = wiener_ensemble(beta, 0.0, dt, n + lag_i, master_seed, n_paths,
                            first_index=first_index, stream=stream)
    return 0.5 * (theta[:, lag_i:] + theta[:, :n])
