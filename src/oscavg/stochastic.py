"""Wiener phase-noise paths, frequency offsets, and oscillator waveforms.

All randomness is a function of a key, never of generation order, so
ensembles are reproducible whatever order or thread count builds them.
A Wiener path is keyed by (master_seed, path_index) and a stream tag: its
increments come from a PCG64 stream that numpy's SeedSequence derives from
master_seed and the spawn key (path_index, tag). A frequency offset is
counter-based (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11): one keyed BLAKE2b hash of (master_seed, path_index, offset tag)
gives one uniform, which the distribution's inverse CDF maps to the offset.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy.special import ndtri

TWO_PI = 2.0 * np.pi

# Stream tags. A tag is a key word of its own, beside the path index, so
# streams with different tags stay disjoint at any index. STREAM_PHASE
# keys an oscillator's Wiener path, STREAM_OFFSET its offset draw; the
# figure curves and the acceptance battery use tags from 2 up
# (experiments.py).
STREAM_PHASE = 0
STREAM_OFFSET = 1

# offset draws: the key (master, index, STREAM_OFFSET) as three unsigned
# 64-bit words, hashed with BLAKE2b under a fixed personalization tag
_OFFSET_KEY = struct.Struct("<3Q")
_OFFSET_HASH = hashlib.blake2b(digest_size=8, person=b"oscavg-offset")
_TWO53 = 2**53


# (source, weight, delay in seconds) of each term of a phase
# sum_j weight_j * theta^(source_j)_{t - delay_j}; see analytic.py
Taps = Tuple[Tuple[int, float, float], ...]


class ParameterError(ValueError):
    """Invalid model or sampling parameter."""


class SamplingError(ValueError):
    """Requested sample rate cannot represent the signal content."""


def path_rng(seed_id: Tuple[int, int], stream: int = STREAM_PHASE) -> np.random.Generator:
    """Independent generator for one (master seed, path index) pair on one
    stream tag."""
    master, index = seed_id
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=(int(index), int(stream)))
    return np.random.Generator(np.random.PCG64(ss))


def lag_samples(delay: float, dt: float) -> int:
    """The delay as a whole number of steps of dt; ParameterError if it is
    not one."""
    lag = delay / dt
    if not (math.isfinite(lag) and math.isclose(lag, round(lag), abs_tol=1e-6)):
        raise ParameterError(f"delay {delay:g} s is not a multiple of dt={dt:g} s")
    return int(round(lag))


@dataclass(frozen=True)
class OffsetDist:
    """Frequency-offset distribution: fixed value, uniform on +-half_width,
    or zero-mean normal with std sigma (all Hz, relative to nominal)."""

    kind: str  # "delta" | "uniform" | "normal"
    param: float

    def __post_init__(self):
        if self.kind not in ("delta", "uniform", "normal"):
            raise ParameterError(f"unknown offset distribution {self.kind!r}")
        if not np.isfinite(self.param):
            raise ParameterError("offset parameter must be finite")
        if self.kind in ("uniform", "normal") and self.param < 0:
            raise ParameterError(f"{self.kind} offset parameter must be >= 0")

    @classmethod
    def delta(cls, value: float = 0.0) -> "OffsetDist":
        return cls("delta", value)

    @classmethod
    def uniform(cls, half_width: float) -> "OffsetDist":
        return cls("uniform", half_width)

    @classmethod
    def normal(cls, sigma: float) -> "OffsetDist":
        return cls("normal", sigma)

    def variance(self) -> float:
        if self.kind == "delta":
            return 0.0
        if self.kind == "uniform":
            return self.param**2 / 3.0
        return self.param**2


@dataclass(frozen=True)
class OscillatorSpec:
    """Parameters of one oscillator: nominal frequency, offset distribution,
    diffusion rate of the phase random walk, initial phase."""

    f_c: float
    offset_dist: OffsetDist = field(default_factory=OffsetDist.delta)
    beta: float = 0.0
    theta0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.f_c) and self.f_c > 0):
            raise ParameterError("f_c must be finite and > 0")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ParameterError("beta must be finite and >= 0")
        # initial phase stored wrapped to [0, 2*pi); mod can round up to 2*pi
        wrapped = float(np.mod(self.theta0, TWO_PI))
        if wrapped >= TWO_PI:
            wrapped = 0.0
        object.__setattr__(self, "theta0", wrapped)


@dataclass(frozen=True)
class PhasePath:
    """One uniformly sampled phase realization, stored unwrapped (radians)."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ParameterError("dt must be finite and > 0")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ParameterError("samples must be a non-empty 1-d array")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal."""

    fs: float
    samples: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ParameterError("fs must be finite and > 0")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.fs


def wiener_path(beta: float, theta0: float, dt: float, n: int,
                seed_id: Tuple[int, int], stream: int = STREAM_PHASE) -> PhasePath:
    """Sample a phase random walk with diffusion rate beta.

    Increments between consecutive samples are i.i.d. zero-mean Gaussian
    with variance 2*pi*beta*dt, which is exact for this process at any
    step size. samples[0] equals theta0 (unwrapped). They are drawn from
    path_rng(seed_id, stream).
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise ParameterError("beta must be finite and >= 0")
    if not (np.isfinite(dt) and dt > 0):
        raise ParameterError("dt must be finite and > 0")
    if n < 1:
        raise ParameterError("n must be >= 1")
    theta = np.empty(n, dtype=float)
    theta[0] = theta0
    if n > 1:
        if beta == 0.0:
            theta[1:] = theta0
        else:
            rng = path_rng(seed_id, stream)
            incr = rng.normal(0.0, np.sqrt(TWO_PI * beta * dt), size=n - 1)
            theta[1:] = theta0 + np.cumsum(incr)
    return PhasePath(dt=dt, samples=theta)


def _offset_bits(master: int, index: int) -> int:
    """64 hash bits of the offset key of (master, index)."""
    try:
        key = _OFFSET_KEY.pack(master, index, STREAM_OFFSET)
    except struct.error:
        raise ParameterError(
            f"offset seed id {(master, index)!r} must be integers in [0, 2**64)") from None
    h = _OFFSET_HASH.copy()
    h.update(key)
    return int.from_bytes(h.digest(), "little")


def sample_offset(offset_dist: OffsetDist, seed_id: Tuple[int, int]) -> float:
    """Draw one frequency offset (Hz) from the given distribution.

    The draw is a pure function of (distribution, seed_id). The top 53 bits
    k of the key's hash give u = (k + 0.5) * 2**-53 in (0, 1); a uniform
    offset is param * (2u - 1), a normal one param * ndtri(u). Both are
    computed without rounding u: the normal takes the tail nearer to u, so
    the largest k maps to the mirror of the smallest, not to ndtri(1) = inf.
    """
    if offset_dist.kind == "delta":
        return float(offset_dist.param)
    k = _offset_bits(*seed_id) >> 11
    if offset_dist.kind == "uniform":
        return offset_dist.param * ((2 * k + 1 - _TWO53) / _TWO53)
    if 2 * k < _TWO53:
        return offset_dist.param * float(ndtri((k + 0.5) / _TWO53))
    return -offset_dist.param * float(ndtri((_TWO53 - k - 0.5) / _TWO53))


def oscillator_waveform(spec: OscillatorSpec, f_i: float, phase: PhasePath,
                        fs: float, n: int) -> Waveform:
    """Sampled oscillator output cos(2*pi*(f_c + f_i)*t + theta_t).

    Requires fs >= 8*(f_c + |f_i|) so downstream mixing products near
    4*f_c remain representable.
    """
    f_inst = spec.f_c + abs(f_i)
    min_fs = 8.0 * f_inst
    if fs < min_fs:
        raise SamplingError(
            f"fs={fs:g} Hz too low for carrier {f_inst:g} Hz; need fs >= {min_fs:g}")
    if len(phase) < n:
        raise ParameterError("phase path shorter than requested waveform")
    if not np.isclose(phase.dt, 1.0 / fs, rtol=1e-9):
        raise ParameterError("phase path dt inconsistent with fs")
    k = np.arange(n)
    samples = np.cos(TWO_PI * (spec.f_c + f_i) * k / fs + phase.samples[:n])
    return Waveform(fs=fs, samples=samples)


def wiener_ensemble(beta: float, theta0: float, dt: float, n: int,
                    master_seed: int, n_paths: int,
                    first_index: int = 0, stream: int = STREAM_PHASE) -> np.ndarray:
    """Stack of n_paths independent walks, shape (n_paths, n); row i is the
    walk of (master_seed, first_index + i) on the given stream tag."""
    out = np.empty((n_paths, n), dtype=float)
    for i in range(n_paths):
        out[i] = wiener_path(beta, theta0, dt, n, (master_seed, first_index + i),
                             stream).samples
    return out


def _check_taps(taps: Taps):
    if not taps or not all(isinstance(s, (int, np.integer)) and s >= 0 and math.isfinite(a)
                           and 0 <= d < math.inf for s, a, d in taps):
        raise ParameterError(f"taps {taps!r} must be (integer source >= 0, finite "
                             f"weight, finite delay >= 0), at least one")


def tap_ensemble(beta: float, taps: Taps, dt: float, n: int, master_seed: int,
                 n_paths: int, first_index: int = 0) -> np.ndarray:
    """Stack of n_paths phases sum_j a_j theta^(s_j)_{t - d_j}, shape
    (n_paths, n), for taps (s_j, a_j, d_j). Source s is the walk of
    (master_seed, first_index + i) on stream tag s, extended backwards by the
    largest lag L of its taps, so no start-up transient appears; a tap of
    lag l (d_j in whole steps of dt) adds a_j * theta[:, L - l : L - l + n],
    in tap order."""
    _check_taps(taps)
    lags = [lag_samples(delay, dt) for _, _, delay in taps]
    longest = {s: max(lag for (t, _, _), lag in zip(taps, lags) if t == s)
               for s, _, _ in taps}
    walks = {s: wiener_ensemble(beta, 0.0, dt, n + L, master_seed, n_paths,
                                first_index=first_index, stream=s)
             for s, L in longest.items()}
    terms = (weight * walks[s][:, longest[s] - lag:longest[s] - lag + n]
             for (s, weight, _), lag in zip(taps, lags))
    out = next(terms)
    for term in terms:
        out += term
    return out
