"""Closed-form statistics of weighted, delayed Wiener phases, and a
quadrature cross-check.

A curve is a tuple of taps (source s_j, weight a_j, delay d_j in seconds):
its phase is phi_t = sum_j a_j theta^(s_j)_{t - d_j} over independent
Wiener phases of diffusion rate beta, one per source (a stream tag, which
curves estimated together share; `experiments.estimate_curves` samples
the sum). One oscillator is ((s, 1, 0),), the averaged pair ((s, 1/2, 0),
(s', 1/2, 0)), the delayed self-average ((s, 1/2, 0), (s, 1/2, delta)).
exp(j*phi) has autocorrelation

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
import sys
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .stochastic import ParameterError, Taps, _check_taps


_FLOAT_MAX = sys.float_info.max
# the largest share of the zero-frequency density 2/tail_rate that
# `psd_by_quadrature` leaves out by truncating the integral
REL_TAIL = 1e-10


def _like(x, out):
    """out as a float for a scalar x, as an array otherwise."""
    return float(out) if np.isscalar(x) else out


def delayed_taps(delta: float) -> Taps:
    """Taps of the delayed self-average (theta_t + theta_{t-delta})/2 on source 0."""
    return ((0, 0.5, 0.0), (0, 0.5, delta))


def _key(taps) -> Taps:
    """taps as the key of the cached segment tables: taps that cannot be
    hashed (lists) are checked, then copied into a tuple of tuples, so they
    give the same floats as the tuple taps."""
    try:
        hash(taps)
    except TypeError:
        _check_taps(taps)
        return tuple(map(tuple, taps))
    return taps


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
    # past the last kink the rate is a * sum_s (sum_{j in s} a_j)**2 >= 0, but
    # rounding can leave it a few ulp below 0, where R would grow without bound
    rates[-1] = max(rates[-1], 0.0)
    logc = a * np.cumsum(np.bincount(at, weights=coef * gap))
    return kinks, rates, logc


@lru_cache(maxsize=256)
def _segment_lists(beta: float, taps: Taps) -> Tuple[list, list, list]:
    """_segments(beta, taps) as Python lists, for tap_autocorr's float path."""
    return tuple(col.tolist() for col in _segments(beta, taps))


def tap_autocorr(beta: float, taps: Taps, tau):
    """Autocorrelation R(tau) of exp(j*phi) for the phase of `taps`.

    A Python float tau, the argument QUADPACK passes the integrand, takes a
    path without NumPy scalar wrapping: bisection over the segment table as
    lists and one np.exp, returning a float bit-identical to the array
    path's tap_autocorr(beta, taps, np.array([tau]))[0]. (math.exp differs
    from NumPy's exp in the last bit for some arguments, and quadrature
    would carry that into its result.) Other inputs, np.float64 and 0-d
    arrays too, take the array path.

    Both paths cap |tau| at the largest float, so a zero rate contributes
    nothing at any tau: R(+-inf) is exp(c_last) where no diffusion is left
    beyond the last kink, and 0 where some is. A nan tau gives nan.
    """
    if type(tau) is float:
        # the cache hashes tuple taps once; only list taps, which it cannot
        # hash, are checked and copied by _key
        try:
            kinks, rates, logc = _segment_lists(beta, taps)
        except TypeError:
            kinks, rates, logc = _segment_lists(beta, _key(taps))
        at = abs(tau)
        if at > _FLOAT_MAX:
            at = _FLOAT_MAX
        i = bisect_right(kinks, at) - 1
        return float(np.exp(logc[i] - rates[i] * at))
    kinks, rates, logc = _segments(beta, _key(taps))
    at = np.minimum(np.abs(np.asarray(tau, dtype=float)), _FLOAT_MAX)
    i = kinks.searchsorted(at, "right") - 1
    with np.errstate(over="ignore"):  # rate * |tau| past the largest float: R is 0
        out = np.exp(logc[i] - rates[i] * at)
    return _like(tau, out)


def tap_psd(beta: float, taps: Taps, omega):
    """Closed-form PSD of exp(j*phi) for the phase of `taps`, at angular
    frequencies omega."""
    kinks, rates, logc = _segments(beta, _key(taps))
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


def bates2_cdf(f_o: float, x):
    """CDF of the n=2 uniform mean, for distribution tests."""
    if f_o <= 0:
        raise ParameterError("f_o must be > 0")
    x = np.clip(np.asarray(x, dtype=float), -f_o, f_o)
    left = 0.5 * (f_o + x) ** 2 / f_o**2
    right = 1.0 - 0.5 * (f_o - x) ** 2 / f_o**2
    return np.where(x < 0, left, right)


def psd_by_quadrature(autocorr: Callable[[float], float], omega: float, tail_rate: float,
                      breakpoint: Union[float, Sequence[float]] = 0.0) -> float:
    """Numeric Fourier transform of an even, exponentially decaying
    autocorrelation at a single angular frequency.

    `autocorr` is called with a float t and must return a scalar, R(t), as
    `tap_autocorr` does for a float: at 0 and at T, to check its value and
    its decay, and inside the integrand.
    `tail_rate` is the known decay rate of the envelope beyond the last
    breakpoint; the integration window [0, T] is sized so the truncated
    tail, bounded by the exponential envelope, contributes less than
    REL_TAIL relative to the zero-frequency scale 2/tail_rate. `omega`
    and `tail_rate` must be finite and `tail_rate` > 0.
    `breakpoint` is a kink (e.g. the delay) or a sequence of kinks (e.g.
    the model's |d_j - d_k|), each finite and >= 0, where the integral is
    split. Each piece is QUADPACK's QAWO cosine rule (Piessens et al.,
    QUADPACK, 1983).
    """
    if not math.isfinite(omega):
        raise ParameterError("omega must be finite")
    if not (math.isfinite(tail_rate) and tail_rate > 0):
        raise ParameterError("tail_rate must be finite and > 0")
    kinks = [float(k) for k in np.ravel(breakpoint)]
    if not all(math.isfinite(k) and k >= 0 for k in kinks):
        raise ParameterError("breakpoint kinks must be finite and >= 0")
    if not math.isfinite(autocorr(0.0)):
        raise ParameterError("autocorrelation not finite at 0")
    edges = sorted({0.0, *kinks})
    last = edges[-1]
    # exp tail bound: int_T^inf C e^{-r (t - t0)} dt < REL_TAIL * 2/r
    T = last + -math.log(REL_TAIL) / tail_rate
    if abs(autocorr(T)) > 10.0 * math.exp(-tail_rate * (T - last)):
        raise ParameterError("autocorrelation does not decay at the stated rate")

    # imported here, not with the module: scipy.integrate alone takes longer
    # to load than any command's set-up, and only this cross-check uses it
    from scipy import integrate

    total = 0.0
    for lo, hi in zip(edges, edges[1:] + [T]):
        val, _ = integrate.quad(autocorr, lo, hi, weight="cos", wvar=omega,
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
