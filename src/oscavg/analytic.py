"""Closed-form phase-noise statistics and a quadrature cross-check.

Two Lorentzian conventions coexist in the model and both are exposed:
`lorentzian_psd` is the printed half-width-pi*beta/2 form, while
`phase_shift_psd` is the Fourier transform of the exponential
autocorrelation exp(-pi*beta*|tau|). They differ by a factor of 2 in
width/height; tests document the tension instead of hiding it.

All PSDs are two-sided in angular frequency, S(w) = int R(tau) e^{-j w tau} dtau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .stochastic import ParameterError


class DegenerateModelError(ValueError):
    """The requested spectrum is a delta function (zero diffusion)."""


@dataclass(frozen=True)
class DelayedAvgParams:
    """Parameters of the delayed self-average: diffusion rate and delay."""

    beta: float
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ParameterError("beta must be finite and >= 0")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ParameterError("delta must be finite and >= 0")


def phase_shift_autocorr(beta: float, tau):
    """Autocorrelation of exp(j*theta) for the phase random walk: exp(-pi*beta*|tau|)."""
    if beta < 0:
        raise ParameterError("beta must be >= 0")
    return np.exp(-math.pi * beta * np.abs(tau))


def lorentzian_psd(beta: float, omega):
    """Lorentzian pi*beta / ((pi*beta/2)^2 + omega^2), half-width pi*beta/2.

    This is the transform of exp(-pi*beta*|tau|/2); it integrates to 1
    over dw/(2*pi). See `phase_shift_psd` for the transform of the
    full-rate autocorrelation.
    """
    if beta <= 0:
        raise DegenerateModelError("beta=0 spectrum is a delta at the carrier")
    a = math.pi * beta
    return a / ((a / 2.0) ** 2 + np.asarray(omega, dtype=float) ** 2)


def phase_shift_psd(beta: float, omega):
    """Fourier transform of exp(-pi*beta*|tau|): 2*pi*beta / ((pi*beta)^2 + omega^2)."""
    if beta <= 0:
        raise DegenerateModelError("beta=0 spectrum is a delta at the carrier")
    a = math.pi * beta
    return 2.0 * a / (a**2 + np.asarray(omega, dtype=float) ** 2)


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


def delayed_avg_autocorr(p: DelayedAvgParams, tau):
    """Autocorrelation of exp(j*phi) with phi = (theta_t + theta_{t-delta})/2.

    Piecewise: exp(-pi*beta*|tau|/2) inside the delay window, and
    exp(-pi*beta*(|tau| - delta/2)) beyond it; continuous at |tau| = delta.
    """
    a = math.pi * p.beta
    at = np.abs(np.asarray(tau, dtype=float))
    inner = np.exp(-a * at / 2.0)
    outer = np.exp(-a * (at - p.delta / 2.0))
    out = np.where(at < p.delta, inner, outer)
    if np.isscalar(tau):
        return float(out)
    return out


def delayed_avg_psd(p: DelayedAvgParams, omega):
    """Three-term closed-form PSD of the delayed self-average."""
    if p.beta <= 0:
        raise DegenerateModelError("beta=0 spectrum is a delta at the carrier")
    a = math.pi * p.beta
    w = np.asarray(omega, dtype=float)
    e = math.exp(-a * p.delta / 2.0)
    c = np.cos(w * p.delta)
    s = np.sin(w * p.delta)
    term1 = e / (a**2 + w**2) * (2.0 * a * c - 2.0 * w * s)
    term2 = e / ((a / 2.0) ** 2 + w**2) * (a * c - 2.0 * w * s)
    term3 = a / ((a / 2.0) ** 2 + w**2)
    out = term1 - term2 + term3
    if np.isscalar(omega):
        return float(out)
    return out


def psd_by_quadrature(autocorr: Callable[[np.ndarray], np.ndarray], omega: float,
                      tail_rate: float, breakpoint: float = 0.0,
                      rel_tail: float = 1e-10) -> float:
    """Numeric Fourier transform of an even, exponentially decaying
    autocorrelation at a single angular frequency.

    `tail_rate` is the known decay rate of the envelope; the integration
    window [0, T] is sized so the truncated tail, bounded by the
    exponential envelope, contributes less than `rel_tail` relative to
    the zero-frequency scale 2/tail_rate. `breakpoint` marks a kink
    (e.g. the delay) where the integral is split.
    """
    if tail_rate <= 0:
        raise ParameterError("tail_rate must be > 0")
    probe = np.asarray(autocorr(np.array([0.0])), dtype=float)
    if not np.all(np.isfinite(probe)):
        raise ParameterError("autocorrelation not finite at 0")
    # exp tail bound: int_T^inf C e^{-r (t - t0)} dt < rel_tail * 2/r
    T = breakpoint + max(1.0, -math.log(rel_tail)) / tail_rate
    if abs(autocorr(np.array([T]))[0]) > 10.0 * math.exp(-tail_rate * (T - breakpoint)):
        raise ParameterError("autocorrelation does not decay at the stated rate")

    def f(t):
        return float(autocorr(np.array([t]))[0])

    total = 0.0
    segments = [(0.0, breakpoint), (breakpoint, T)] if breakpoint > 0 else [(0.0, T)]
    for lo, hi in segments:
        if hi <= lo:
            continue
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
    if np.isscalar(psd_linear):
        return float(out)
    return out
