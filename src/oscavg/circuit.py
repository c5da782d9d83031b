"""Oscillator-averaging circuits: mixers, ideal filters, divider loops.

`simulate_taps` builds the averaging circuit of any 2^k taps of `analytic`
(source i being input oscillator i) as a tree of averaging stages (mix,
divider resolved at its fixed point), and states its expected output: the
phase sum_j a_j theta^(s_j)_{t - d_j}, the frequency sum_j a_j omega_(s_j).
The pair and the delayed self-average are two such tap sets. Every phase
comes from one read-out, `demodulate_phase`: the unwrapped phase of a
band's analytic signal. `divider_residual` re-feeds a stage's output
through its divider loop, on request, to measure how far it is from the
fixed point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .analytic import delayed_taps
from .stochastic import (
    MAX_SAMPLES,
    TWO_PI,
    OscillatorSpec,
    ParameterError,
    Taps,
    Waveform,
    _add_taps,
    lag_samples,
    oscillator_waveform,
    sample_offset,
    source_lags,
    wiener_path,
)


# ---------------------------------------------------------------------------
# elementary blocks


def mix(a: Waveform, b: Waveform) -> Waveform:
    """Pointwise product of two waveforms (ideal mixer)."""
    if a.fs != b.fs:
        raise ParameterError(f"sample rates differ: {a.fs:g} vs {b.fs:g}")
    if len(a) != len(b):
        raise ParameterError(f"lengths differ: {len(a)} vs {len(b)}")
    return Waveform(fs=a.fs, samples=a.samples * b.samples)


def ideal_filter(w: Waveform, kind: str, f_cut: float) -> Waveform:
    """Brick-wall high- or low-pass filter: a zero-phase frequency-domain
    mask, 1 in the passband and 0 outside."""
    if kind not in ("highpass", "lowpass"):
        raise ParameterError(f"unknown filter kind {kind!r}")
    if not (0 < f_cut < w.fs / 2):
        raise ParameterError(f"f_cut={f_cut:g} must lie in (0, fs/2={w.fs / 2:g})")
    spec, freqs = _spectrum(w)
    if kind == "lowpass":
        spec *= freqs <= f_cut
    else:
        spec *= freqs >= f_cut
    out = np.fft.irfft(spec, n=len(w))
    return Waveform(fs=w.fs, samples=out)


def _spectrum(w: Waveform) -> Tuple[np.ndarray, np.ndarray]:
    """rfft of w and the frequencies (Hz) of its bins."""
    return np.fft.rfft(w.samples), np.fft.rfftfreq(len(w), d=1.0 / w.fs)


def delay_block(w: Waveform, delta: float) -> Waveform:
    """Delay by an integer number of samples, zero-padded at the start."""
    lag_i = lag_samples(delta, 1.0 / w.fs)
    out = np.zeros(len(w))
    if lag_i < len(w):
        out[lag_i:] = w.samples[: len(w) - lag_i]
    return Waveform(fs=w.fs, samples=out)


def demodulate_phase(w: Waveform, f_lo: float, f_hi: float) -> np.ndarray:
    """Total phase of the band [f_lo, f_hi] Hz of w, from its analytic signal
    (Marple, IEEE Trans. Signal Process. 47(9), 1999). The n-point ifft of
    the rfft bins inside the band, every bin outside it zero, is half the
    analytic signal z, as the band holds neither DC nor Nyquist. Element k is
    arg z_k + 2*pi*K_k, with K_0 = 0 and K_k = -sum_(0<j<=k) rint((arg z_j -
    arg z_(j-1))/(2*pi)): whole turns counted as exact integers, so the phase
    does not drift, and each of its steps lies in [-pi, pi]. Edge samples
    carry spectral-leakage error; callers should trim."""
    if not (0 < f_lo < f_hi < w.fs / 2):
        raise ParameterError(f"band [{f_lo:g}, {f_hi:g}] empty or outside (0, fs/2={w.fs / 2:g})")
    spec, freqs = _spectrum(w)
    lo, hi = freqs.searchsorted(f_lo), freqs.searchsorted(f_hi, "right")
    z = np.zeros(len(w), dtype=complex)
    z[lo:hi] = spec[lo:hi]
    wrapped = np.angle(np.fft.ifft(z, out=z))
    # turns[j] = -rint(step j / 2*pi), summed from the 0.0 in turns[0]
    turns = np.empty_like(wrapped)
    turns[0] = 0.0
    np.subtract(wrapped[:-1], wrapped[1:], out=turns[1:])
    turns[1:] /= TWO_PI
    np.rint(turns, out=turns)
    np.cumsum(turns, out=turns)
    turns *= TWO_PI
    turns += wrapped
    return turns


def edge_trim(fs: float, f_cut: float) -> int:
    """Samples to drop at each end before comparing filtered signals: four
    periods of f_cut, capped so that a vanishing cutoff trims everything."""
    return int(min(4.0 / f_cut * fs, sys.maxsize))


# ---------------------------------------------------------------------------
# waveform-mode simulations


@dataclass(frozen=True)
class SteadyStateResult:
    """A circuit's output as its taps state it: angular frequency and phase
    path."""

    omega_prime: float
    phase_path_prime: Waveform


@dataclass(frozen=True)
class SimulationResult:
    """Waveform-mode circuit output, its measured total phase, the output
    its taps predict, and the input oscillators' phase paths and angular
    frequencies."""

    output: Waveform
    expected: SteadyStateResult
    phases: Tuple[Waveform, ...]
    omegas: Tuple[float, ...]
    measured_total_phase: np.ndarray


def _samples(specs: Sequence[OscillatorSpec], fs: float, duration: float,
             f_top: float) -> int:
    """Samples in a simulated waveform, duration * fs rounded: the one place
    that sizes one. The oscillators must share one carrier, fs must be
    finite and cover mixing products up to f_top Hz (fs >= 8*f_top), and the
    duration must be finite and span 16 to MAX_SAMPLES samples."""
    if any(s.f_c != specs[0].f_c for s in specs):
        raise ParameterError("oscillators must share the nominal frequency")
    if not 8.0 * f_top <= fs < math.inf:
        raise ParameterError(f"fs={fs:g} must be finite and >= {8.0 * f_top:g} "
                             f"to cover products near {f_top:g} Hz")
    if not math.isfinite(duration):
        raise ParameterError(f"duration={duration:g} s must be finite")
    samples = duration * fs
    if samples > MAX_SAMPLES:
        raise ParameterError(f"duration * fs = {samples:g} samples exceeds the "
                             f"simulate limit of {MAX_SAMPLES}")
    n = int(round(samples))
    if n < 16:
        raise ParameterError("duration too short")
    return n


def _draw(specs: Sequence[OscillatorSpec], fs: float, duration: float, seed: int,
          f_top: float) -> Tuple[List[Waveform], Tuple[Waveform, ...], Tuple[float, ...]]:
    """Waveforms, phase paths and angular frequencies of a circuit's input
    oscillators, oscillator i drawn on (seed, i), `_samples` long."""
    n = _samples(specs, fs, duration, f_top)
    waves, paths, omegas = [], [], []
    for i, spec in enumerate(specs):
        f_i = sample_offset(spec.offset_dist, (seed, i))
        paths.append(wiener_path(spec.beta, spec.theta0, 1.0 / fs, n, (seed, i)))
        waves.append(oscillator_waveform(spec, f_i, paths[-1], fs, n))
        omegas.append(TWO_PI * (spec.f_c + f_i))
    return waves, tuple(paths), tuple(omegas)


def _expected(taps: Taps, phases: Sequence[Waveform], omegas: Sequence[float]
              ) -> SteadyStateResult:
    """A circuit's output as its taps state it, source s being input s: the
    frequency sum_j a_j omega_(s_j) and the phase sum_j a_j theta^(s_j)_{t - d_j},
    a delayed phase held at its first sample before t = d_j."""
    fs, phase = phases[0].fs, np.zeros(len(phases[0]))
    dt = 1.0 / fs
    # input s from t = -L_s, theta_0 held for the taps' largest lag L_s on it
    held = {}
    for s, L in source_lags([taps], dt).items():
        src = phases[s].samples
        held[s] = np.concatenate((np.full(L, src[0]), src)) if L else src
    _add_taps(phase, taps, held, dt)
    return SteadyStateResult(omega_prime=sum(a * omegas[s] for s, a, _ in taps),
                             phase_path_prime=Waveform(fs=fs, samples=phase))


def _loop_interior(n: int, fs: float, f_c: float, settle: int) -> slice:
    """The samples of an n-sample divider output that its loop check
    compares. The brick-wall filters ring near the ends, so the first and
    last sixteenth (at least edge_trim samples) are skipped, and so are the
    first `settle` samples (start-up). ParameterError if none are left."""
    trim = max(edge_trim(fs, f_c), n // 16)
    if settle + trim >= n - trim:
        raise ParameterError("duration too short: the edge trim covers the whole divider output")
    return slice(settle + trim, n - trim)


def divider_residual(a: Waveform, b: Waveform, output: Waveform, f_c: float,
                     settle: int = 0) -> float:
    """Substitution check of the regenerative 2-divider on waveforms.

    Feeds `output` back through the divider loop (mixer with the sum band
    of a*b, highpassed at f_c, gain 4, lowpass at 2*f_c) and returns the
    largest deviation of the loop output from `output` over the loop
    interior. At the fixed point the mixer's product near f_c reproduces
    the output; an output phase off by e radians reads about |sin(e)|.
    """
    interior = _loop_interior(len(output), output.fs, f_c, settle)
    summed = ideal_filter(mix(a, b), "highpass", f_c)
    loop = ideal_filter(mix(summed, Waveform(fs=output.fs, samples=4.0 * output.samples)),
                        "lowpass", 2.0 * f_c)
    return float(np.max(np.abs(loop.samples[interior] - output.samples[interior])))


def _average_stage(a: Waveform, b: Waveform, f_c: float, settle: int = 0
                   ) -> Tuple[Waveform, np.ndarray]:
    """One averaging stage: mix, and the regenerative 2-divider resolved at
    its fixed point, whose output phase is half the phase of the product's
    sum band [f_c, 3*f_c] (the difference band near f1-f2 lies below it).
    Returns the output and its total phase. Refuses a duration that leaves
    no loop interior for `divider_residual`."""
    _loop_interior(len(a), a.fs, f_c, settle)
    total = demodulate_phase(mix(a, b), f_c, 3.0 * f_c)
    total *= 0.5
    out = np.cos(total)
    out *= 0.5
    return Waveform(fs=a.fs, samples=out), total


def simulate_taps(specs: Sequence[OscillatorSpec], taps: Taps, fs: float, duration: float,
                  seed: int) -> SimulationResult:
    """The averaging circuit of `taps` (s_j, a_j, d_j) on inputs `specs`: a
    tree of averaging stages over leaves input s_j delayed by d_j, every
    stage settling over the largest lag. The taps must be 2^k >= 2 of
    weight 2^-k on sources indexing `specs`, each delay a whole number of
    samples below n/4; they and the stages' loop interior are checked
    before any draw. The output's phase is (sum a_j w_(s_j)) t + sum a_j
    theta^(s_j)_{t-d_j} - sum a_j w_(s_j) d_j, `expected` holding the first
    two terms, up to a multiple of pi/2^(k-1) (each divider's sign is
    free). A cascade of delayed leaves under two stages reads ~5e-4 rad
    rms off its taps, from a cause not yet found."""
    k = len(taps).bit_length() - 1
    if k < 1 or len(taps) != 2**k or any(a != 2.0**-k or s not in range(len(specs))
                                         for s, a, _ in taps):
        raise ParameterError(f"taps {taps!r} need 2^k >= 2 of weight 2^-k, sources < {len(specs)}")
    f_c = specs[0].f_c
    n = _samples(specs, fs, duration, 2.0 * f_c)
    settle = max(source_lags([taps], 1.0 / fs).values())
    if settle >= n // 4:
        raise ParameterError("duration must be much longer than the delay")
    _loop_interior(n, fs, f_c, settle)
    waves, paths, omegas = _draw(specs, fs, duration, seed, 2.0 * f_c)
    level = [delay_block(waves[s], d) if d else waves[s] for s, _, d in taps]
    while len(level) > 1:
        stages = [_average_stage(a, b, f_c, settle) for a, b in zip(level[::2], level[1::2])]
        level = [out for out, _ in stages]
    ((out, total),) = stages
    return SimulationResult(output=out, expected=_expected(taps, paths, omegas),
                            phases=paths, omegas=omegas, measured_total_phase=total)


def simulate_pair_average(spec1: OscillatorSpec, spec2: OscillatorSpec, fs: float,
                          duration: float, seed: int) -> SimulationResult:
    """Two-oscillator averaging chain: mix, sum band above f_c, regenerative
    2-divider resolved at its steady state. Output ~ (1/2)cos(w't + theta'_t)
    with w' and theta'_t the means of the inputs: taps ((0, 1/2, 0), (1, 1/2, 0))."""
    return simulate_taps((spec1, spec2), ((0, 0.5, 0.0), (1, 0.5, 0.0)), fs, duration, seed)


def simulate_mixing_tree(specs: Sequence[OscillatorSpec], fs: float,
                         duration: float, seed: int) -> SimulationResult:
    """Four-oscillator mixing stage: two pairwise mixers feeding a third,
    highpass at 3*f_c keeping the component near 4*f_c, of amplitude 1/8.

    It does not average: the output phase is the *sum* of the input phases
    (four taps of weight 1), not their mean, and it has no divider. It
    stays (the `averaged_n` scenario) because the benchmark's waveform
    workload checks this sum-phase output, until `simulate_taps` replaces it."""
    if len(specs) != 4:
        raise ParameterError("mixing tree takes exactly 4 oscillators")
    f_c = specs[0].f_c
    waves, paths, omegas = _draw(specs, fs, duration, seed, 4.0 * f_c)
    out = ideal_filter(mix(mix(waves[0], waves[1]), mix(waves[2], waves[3])),
                       "highpass", 3.0 * f_c)
    measured = demodulate_phase(out, 3.0 * f_c, 5.0 * f_c)
    return SimulationResult(output=out,
                            expected=_expected(tuple((i, 1.0, 0.0) for i in range(4)),
                                               paths, omegas),
                            phases=paths, omegas=omegas, measured_total_phase=measured)


def simulate_delayed_self_average(spec: OscillatorSpec, delta: float, fs: float,
                                  duration: float, seed: int) -> SimulationResult:
    """Average an oscillator with its own output delayed by delta, a whole
    number of samples: the taps `analytic.delayed_taps(delta)`, output phase
    (theta_t + theta_{t-delta})/2. The first delta seconds are start-up,
    where the expected phase holds theta_0 in place of theta_{t-delta}."""
    return simulate_taps((spec,), delayed_taps(delta), fs, duration, seed)
