"""Oscillator-averaging circuits: mixers, ideal filters, divider loops.

`simulate_taps` builds the circuit of any k >= 2 taps of `analytic` of one
weight 1/m (source i being input oscillator i) as one averaging stage (mix
all k, divide-by-m resolved at its fixed point), and states its expected
output: the phase sum_j a_j theta^(s_j)_{t - d_j}, the frequency sum_j a_j
omega_(s_j). The pair and the delayed self-average are two such tap sets
at m = k, which averages; the four-oscillator mixing tree is four taps at
m = 1, which sums. Every phase comes from one read-out, `demodulate_phase`:
the unwrapped phase of a band's analytic signal. `divider_residual`
re-feeds a 2-input stage's output through its divider loop, on request, to
measure how far it is from the fixed point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
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
    _check_taps,
    _tap_sum,
    oscillator_waveform,
    sample_offset,
    tap_layout,
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
    spec, freqs = np.fft.rfft(w.samples), np.fft.rfftfreq(len(w), d=1.0 / w.fs)
    if kind == "lowpass":
        spec *= freqs <= f_cut
    else:
        spec *= freqs >= f_cut
    out = np.fft.irfft(spec, n=len(w))
    return Waveform(fs=w.fs, samples=out)


def demodulate_phase(w: Waveform, f_lo: float, f_hi: float) -> np.ndarray:
    """Total phase of the band [f_lo, f_hi] Hz of w, from its analytic signal
    (Marple, IEEE Trans. Signal Process. 47(9), 1999). The n-point ifft of
    the rfft bins inside the band, every bin outside it zero, is half the
    analytic signal z, as the band holds neither DC nor Nyquist. Element k is
    arg z_k + 2*pi*K_k, with K_0 = 0 and K_k = -sum_(0<j<=k) rint((arg z_j -
    arg z_(j-1))/(2*pi)): whole turns counted as exact integers, so the phase
    does not drift, and each of its steps lies in [-pi, pi]. Edge samples
    carry spectral-leakage error; callers should trim.

    One n-point complex buffer serves the whole read-out: the rfft is
    written into its first n//2 + 1 bins, every bin outside the band
    (the never-written upper half among them) is zeroed, the ifft runs in
    place, and once arg z is taken the turns are counted in the buffer's
    spent memory. The returned array is the only other one of n samples."""
    if not (0 < f_lo < f_hi < w.fs / 2):
        raise ParameterError(f"band [{f_lo:g}, {f_hi:g}] empty or outside (0, fs/2={w.fs / 2:g})")
    n = len(w)
    freqs = np.fft.rfftfreq(n, d=1.0 / w.fs)
    lo, hi = freqs.searchsorted(f_lo), freqs.searchsorted(f_hi, "right")
    del freqs
    if lo == hi:
        raise ParameterError(f"band [{f_lo:g}, {f_hi:g}] holds no rfft bin of {n} samples")
    z = np.empty(n, dtype=complex)
    np.fft.rfft(w.samples, out=z[:n // 2 + 1])
    z[:lo] = 0.0
    z[hi:] = 0.0
    phase = np.angle(np.fft.ifft(z, out=z))
    # turns[j] = -rint(step j / 2*pi), summed from the 0.0 in turns[0]
    turns = z.view(float)[:n]
    turns[0] = 0.0
    np.subtract(phase[:-1], phase[1:], out=turns[1:])
    turns[1:] /= TWO_PI
    np.rint(turns, out=turns)
    np.cumsum(turns, out=turns)
    turns *= TWO_PI
    phase += turns
    return phase


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
    finite and cover mixing products up to f_top Hz (fs >= 8*f_top), f_top
    being at least every drawn carrier f_c + |f_i| (`_draw`), and the
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
          f_top: float, check_offsets=None
          ) -> Tuple[List[Waveform], Tuple[Waveform, ...], Tuple[float, ...]]:
    """Waveforms, phase paths and angular frequencies of a circuit's input
    oscillators, oscillator i drawn on (seed, i), `_samples` long. The
    offsets f_i are drawn first: `_samples` checks fs >= 8*(f_c + |f_i|) too,
    and check_offsets, if given, is passed them; either raises
    ParameterError before any walk is drawn."""
    offsets = [sample_offset(spec.offset_dist, (seed, i)) for i, spec in enumerate(specs)]
    f_top = max(f_top, *(s.f_c + abs(f) for s, f in zip(specs, offsets)))
    n = _samples(specs, fs, duration, f_top)
    if check_offsets is not None:
        check_offsets(offsets)
    waves, paths, omegas = [], [], []
    for i, (spec, f_i) in enumerate(zip(specs, offsets)):
        paths.append(wiener_path(spec.beta, 0.0, 1.0 / fs, n, (seed, i)))
        waves.append(oscillator_waveform(spec, f_i, paths[-1], fs))
        omegas.append(TWO_PI * (spec.f_c + f_i))
    return waves, tuple(paths), tuple(omegas)


def _zero_start(inputs: Sequence[Waveform], lags: dict) -> dict:
    """{source s: input s after lags[s] zeros}, as a `tap_layout` reads it: a
    tap of lag l reads zeros before t = l. An input without a lag is its
    samples as they are, not a copy."""
    return {s: np.concatenate((np.zeros(lag), inputs[s].samples)) if lag else inputs[s].samples
            for s, lag in lags.items()}


def _expected(lags: dict, layout, phases: Sequence[Waveform], omegas: Sequence[float]
              ) -> SteadyStateResult:
    """A circuit's output as the `tap_layout` of its taps states it, source s
    being input s: the frequency sum_j a_j omega_(s_j) and the phase sum_j
    a_j theta^(s_j)_{t - d_j}, zero (theta_0) before t = d_j, as its leaf is."""
    n = len(phases[0])
    phase = _tap_sum(_zero_start(phases, lags), layout, np.empty(n), np.empty(n))
    return SteadyStateResult(omega_prime=sum(a * omegas[s] for s, a, _ in layout),
                             phase_path_prime=Waveform(fs=phases[0].fs, samples=phase))


def _loop_interior(n: int, fs: float, f_c: float, settle: int) -> slice:
    """The samples of an n-sample stage output that a loop check compares.
    The brick-wall filters ring near the ends, so the first and last
    sixteenth (at least edge_trim samples) are skipped, and so are the
    first `settle` samples (start-up). ParameterError if none are left."""
    trim = max(edge_trim(fs, f_c), n // 16)
    if settle + trim >= n - trim:
        raise ParameterError("duration too short: the edge trim covers the whole stage output")
    return slice(settle + trim, n - trim)


def divider_residual(a: Waveform, b: Waveform, output: Waveform, f_c: float) -> float:
    """Substitution check of the regenerative 2-divider on waveforms.

    Feeds `output` back through the divider loop (mixer with the sum band
    of a*b, highpassed at f_c, gain 4, lowpass at 2*f_c) and returns the
    largest deviation of the loop output from `output` over the loop
    interior. At the fixed point the mixer's product near f_c reproduces
    the output; an output phase off by e radians reads about |sin(e)|.
    """
    interior = _loop_interior(len(output), output.fs, f_c, 0)
    summed = ideal_filter(mix(a, b), "highpass", f_c)
    loop = ideal_filter(mix(summed, Waveform(fs=output.fs, samples=4.0 * output.samples)),
                        "lowpass", 2.0 * f_c)
    return float(np.max(np.abs(loop.samples[interior] - output.samples[interior])))


def _average_stage(product: Waveform, k: int, m: int, f_c: float
                   ) -> Tuple[Waveform, np.ndarray]:
    """One averaging stage of k >= 2 inputs, given their product (the
    mixer's output, `mix` of all k): the regenerative divide-by-m resolved
    at its fixed point (Miller, Proc. IRE 27(7), 1939), whose output phase
    is 1/m of the phase of the product's band [(k-1)*f_c, (k+1)*f_c],
    defined modulo 2*pi/m. m = k averages the inputs; m = 1 has no divider
    and sums them. Taking the product, not the inputs, lets a caller drop
    the inputs before the read-out (`demodulate_phase`), which holds one
    complex buffer and the phase it returns. Returns the output, of
    amplitude 1/2, and its total phase."""
    total = demodulate_phase(product, (k - 1) * f_c, (k + 1) * f_c)
    total /= m
    out = np.cos(total)
    out *= 0.5
    return Waveform(fs=product.fs, samples=out), total


def _check_band(offsets: Sequence[float], f_c: float, k: int):
    """ParameterError unless the band [(k-1)*f_c, (k+1)*f_c] of the product
    of k carriers at f_c + f_i holds its component at k*f_c + sum f_i and
    none at (k-2)*f_c + sum f_i - 2*f_j: unless |sum f_i| < f_c and
    sum f_i - 2*min f_i < f_c. At k = 2 that is |a| + |b| < f_c."""
    total = sum(offsets)
    if not (abs(total) < f_c and total - 2.0 * min(offsets) < f_c):
        raise ParameterError(
            f"drawn offsets {', '.join(f'{f:g}' for f in offsets)} Hz need |sum| < f_c and "
            f"sum - 2*min < f_c = {f_c:g} Hz: the band [{k - 1}*f_c, {k + 1}*f_c] cannot "
            f"separate their mixing products")


def simulate_taps(specs: Sequence[OscillatorSpec], taps: Taps, fs: float, duration: float,
                  seed: int) -> SimulationResult:
    """The circuit of `taps` (s_j, a_j, d_j) on inputs `specs`: one
    averaging stage over k leaves, leaf j input s_j delayed by d_j. The taps
    must be k >= 2 of one weight 1/m, m a whole number from 1 (the stage
    sums) to k (it averages), on sources indexing `specs`, each delay a
    whole number of samples below n/4, and fs >= 8*k*f_c; they and the loop
    interior past the largest lag are checked before any draw. The leaves'
    drawn offsets f_j need |sum f_j| < f_c and sum f_j - 2*min f_j < f_c,
    checked before any walk is drawn (`_check_band`). The output's phase is
    (sum a_j w_(s_j)) t + sum a_j theta^(s_j)_{t-d_j} - sum a_j w_(s_j) d_j,
    `expected` holding the first two terms, up to a multiple of 2*pi/m (the
    divider's phase is free)."""
    _check_taps(taps)
    k, a = len(taps), taps[0][1]
    m = round(1.0 / a) if 1.0 / k <= a <= 1.0 else 0
    if k < 2 or m < 1 or any(w != 1.0 / m or s not in range(len(specs)) for s, w, _ in taps):
        raise ParameterError(f"taps {taps!r} need k >= 2 of one weight 1/m, m a whole number "
                             f"from 1 to k, sources < {len(specs)}")
    f_c = specs[0].f_c
    n = _samples(specs, fs, duration, k * f_c)
    lags, (layout,) = tap_layout([taps], 1.0 / fs)
    settle = max(lags.values())
    if settle >= n // 4:
        raise ParameterError("duration must be much longer than the delay")
    _loop_interior(n, fs, f_c, settle)
    waves, paths, omegas = _draw(
        specs, fs, duration, seed, k * f_c,
        lambda offsets: _check_band([offsets[s] for s, _, _ in taps], f_c, k))
    inputs = _zero_start(waves, lags)
    del waves
    product = reduce(mix, [Waveform(fs=fs, samples=inputs[s][start:start + n])
                           for s, _, start in layout])
    del inputs  # the carriers and their zero-prefixed copies, freed before the read-out
    out, total = _average_stage(product, k, m, f_c)
    del product
    return SimulationResult(output=out, expected=_expected(lags, layout, paths, omegas),
                            phases=paths, omegas=omegas, measured_total_phase=total)


def simulate_pair_average(spec1: OscillatorSpec, spec2: OscillatorSpec, fs: float,
                          duration: float, seed: int) -> SimulationResult:
    """Two-oscillator averaging chain: mix, sum band above f_c, regenerative
    2-divider resolved at its steady state. Output ~ (1/2)cos(w't + theta'_t)
    with w' and theta'_t the means of the inputs: taps ((0, 1/2, 0), (1, 1/2, 0)).
    The drawn offsets need |f_1| + |f_2| < f_c."""
    return simulate_taps((spec1, spec2), ((0, 0.5, 0.0), (1, 0.5, 0.0)), fs, duration, seed)


def simulate_mixing_tree(specs: Sequence[OscillatorSpec], fs: float,
                         duration: float, seed: int) -> SimulationResult:
    """Four-oscillator mixing stage: the stage of four taps of weight 1
    (m = 1, no divider), whose output (1/2)cos(phase) is regenerated from
    the product's band [3*f_c, 5*f_c].

    It does not average: the output phase is the *sum* of the input phases,
    not their mean. It stays (the `averaged_n` scenario) because the
    benchmark's waveform workload checks this sum-phase output. The drawn
    offsets need |sum f_i| < f_c and sum f_i - 2*min f_i < f_c
    (`_check_band`), checked before any walk is drawn."""
    if len(specs) != 4:
        raise ParameterError("mixing tree takes exactly 4 oscillators")
    return simulate_taps(specs, tuple((i, 1.0, 0.0) for i in range(4)), fs, duration, seed)


def simulate_delayed_self_average(spec: OscillatorSpec, delta: float, fs: float,
                                  duration: float, seed: int) -> SimulationResult:
    """Average an oscillator with its own output delayed by delta, a whole
    number of samples: the taps `analytic.delayed_taps(delta)`, output phase
    (theta_t + theta_{t-delta})/2. The first delta seconds are start-up,
    where the expected phase, as the leaf, reads theta_0 = 0 for theta_{t-delta}.
    The drawn offset needs |f| < f_c/2."""
    return simulate_taps((spec,), delayed_taps(delta), fs, duration, seed)
