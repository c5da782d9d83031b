"""Closed-form statistics of weighted, delayed Wiener phases, and a
quadrature cross-check.

A curve is a tuple of taps (source s_j, weight a_j, delay d_j in seconds):
its phase is phi_t = sum_j a_j theta^(s_j)_{t - d_j} over independent
Wiener phases of diffusion rate beta, one per source (the curve's stream
tag; `stochastic.tap_ensemble` samples the same sum). One oscillator is
((s, 1, 0),), the averaged pair ((s, 1/2, 0), (s', 1/2, 0)), the delayed
self-average ((s, 1/2, 0), (s, 1/2, delta)). exp(j*phi) has autocorrelation

    R(tau) = exp(-pi*beta * sum_s sum_{j,k in s} a_j a_k max(0, |tau| - |d_j - d_k|)),

which is exp(c_i - alpha_i*|tau|) on the segment [g_i, g_{i+1}) between
kinks g = |d_j - d_k|. The segment table (kinks, rates, log-coefficients) is
built once per (beta, taps). The PSD is the exact sum of the segment
transforms; grouped by kink, where one segment ends and the next starts, no
two large terms cancel:

    S(w) = 2 alpha_0 / (alpha_0^2 + w^2) + sum_{i>=1} 2 R(g_i) (alpha_i - alpha_{i-1})
           * (cos(w g_i) (w^2 - alpha_{i-1} alpha_i) + w sin(w g_i) (alpha_{i-1} + alpha_i))
           / ((alpha_{i-1}^2 + w^2) (alpha_i^2 + w^2)).

PSDs are two-sided in angular frequency, S(w) = int R(tau) e^{-j w tau} dtau.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Sequence, Tuple, Union

import numpy as np
from scipy import integrate

from .stochastic import ParameterError, Taps, _check_taps


def _like(x, out):
    """out as a float for a scalar x, as an array otherwise."""
    return float(out) if np.isscalar(x) else out


def delayed_taps(delta: float, source: int = 0) -> Taps:
    """Taps of the delayed self-average (theta_t + theta_{t-delta})/2."""
    return ((source, 0.5, 0.0), (source, 0.5, delta))


@lru_cache(maxsize=256)
def _segments(beta: float, taps: Taps) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kinks g_i (ascending, g_0 = 0), rates alpha_i and log-coefficients
    c_i, with R(tau) = exp(c_i - alpha_i*|tau|) on [g_i, g_{i+1})."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ParameterError("beta must be finite and >= 0")
    _check_taps(taps)
    source, weight, delay = (np.array(col, dtype=float) for col in zip(*taps))
    same = source[:, None] == source[None, :]
    gap = np.abs(delay[:, None] - delay[None, :])[same]
    coef = np.multiply.outer(weight, weight)[same]
    kinks, at = np.unique(gap, return_inverse=True)
    a = math.pi * beta
    rates = a * np.cumsum(np.bincount(at, weights=coef))
    logc = a * np.cumsum(np.bincount(at, weights=coef * gap))
    return kinks, rates, logc


def tap_autocorr(beta: float, taps: Taps, tau):
    """Autocorrelation R(tau) of exp(j*phi) for the phase of `taps`."""
    kinks, rates, logc = _segments(beta, taps)
    at = np.abs(np.asarray(tau, dtype=float))
    i = np.searchsorted(kinks, at, side="right") - 1
    out = np.exp(logc[i] - rates[i] * at)
    return _like(tau, out)


def tap_psd(beta: float, taps: Taps, omega):
    """Closed-form PSD of exp(j*phi) for the phase of `taps`, at angular
    frequencies omega."""
    kinks, rates, logc = _segments(beta, taps)
    if not rates[-1] > 0:  # no diffusion left beyond the last kink
        raise ParameterError("beta=0 spectrum is a delta at the carrier" if beta == 0 else
                             "tap weights cancel in every source: the spectrum is a delta")
    w = np.asarray(omega, dtype=float)
    w2 = w**2
    den = rates[0] ** 2 + w2
    out = 2.0 * rates[0] / den
    at_kink = np.exp(logc - rates * kinks)
    for i in range(1, kinks.size):
        a0, a1 = rates[i - 1], rates[i]
        prev, den = den, a1**2 + w2
        c, s = np.cos(w * kinks[i]), np.sin(w * kinks[i])
        out = out + (2.0 * at_kink[i] * (a1 - a0)
                     * (c * (w2 - a0 * a1) + w * s * (a0 + a1)) / (prev * den))
    return _like(omega, out)


# diffusion rate and delay of a delayed self-average
DelayedAvgParams = namedtuple("DelayedAvgParams", "beta delta")


def delayed_avg_autocorr(p: DelayedAvgParams, tau):
    """`tap_autocorr` of the delayed self-average."""
    return tap_autocorr(p.beta, delayed_taps(p.delta), tau)


def delayed_avg_psd(p: DelayedAvgParams, omega):
    """`tap_psd` of the delayed self-average."""
    return tap_psd(p.beta, delayed_taps(p.delta), omega)


def bates2_pdf(f_o: float, x):
    """Density of the mean of two offsets uniform on +-f_o: triangle on
    [-f_o, f_o] (x relative to the nominal frequency)."""
    if f_o <= 0:
        raise ParameterError("f_o must be > 0")
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < f_o, (f_o - np.abs(x)) / f_o**2, 0.0)


def bates2_cdf(f_o: float, x):
    """CDF of the n=2 uniform mean, for distribution tests."""
    if f_o <= 0:
        raise ParameterError("f_o must be > 0")
    x = np.clip(np.asarray(x, dtype=float), -f_o, f_o)
    left = 0.5 * (f_o + x) ** 2 / f_o**2
    right = 1.0 - 0.5 * (f_o - x) ** 2 / f_o**2
    return np.where(x < 0, left, right)


def psd_by_quadrature(autocorr: Callable[[np.ndarray], np.ndarray], omega: float,
                      tail_rate: float,
                      breakpoint: Union[float, Sequence[float]] = 0.0,
                      rel_tail: float = 1e-10) -> float:
    """Numeric Fourier transform of an even, exponentially decaying
    autocorrelation at a single angular frequency.

    `tail_rate` is the known decay rate of the envelope beyond the last
    breakpoint; the integration window [0, T] is sized so the truncated
    tail, bounded by the exponential envelope, contributes less than
    `rel_tail` relative to the zero-frequency scale 2/tail_rate.
    `breakpoint` is a kink (e.g. the delay) or a sequence of kinks (e.g.
    the model's |d_j - d_k|), where the integral is split.
    """
    if tail_rate <= 0:
        raise ParameterError("tail_rate must be > 0")
    probe = np.asarray(autocorr(np.array([0.0])), dtype=float)
    if not np.all(np.isfinite(probe)):
        raise ParameterError("autocorrelation not finite at 0")
    edges = sorted({0.0, *map(float, np.ravel(breakpoint))})
    last = edges[-1]
    # exp tail bound: int_T^inf C e^{-r (t - t0)} dt < rel_tail * 2/r
    T = last + max(1.0, -math.log(rel_tail)) / tail_rate
    if abs(autocorr(np.array([T]))[0]) > 10.0 * math.exp(-tail_rate * (T - last)):
        raise ParameterError("autocorrelation does not decay at the stated rate")

    def f(t):
        return float(autocorr(np.array([t]))[0])

    total = 0.0
    for lo, hi in zip(edges, edges[1:] + [T]):
        val, _ = integrate.quad(f, lo, hi, weight="cos", wvar=omega,
                                limit=400, epsabs=1e-13, epsrel=1e-11)
        total += val
    return 2.0 * total


def to_dbc_hz(psd_linear):
    """10*log10 of a linear density; rejects nonpositive input."""
    arr = np.asarray(psd_linear, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ParameterError("PSD must be positive and finite for dB conversion")
    out = 10.0 * np.log10(arr)
    return _like(psd_linear, out)
