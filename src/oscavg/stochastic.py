"""Wiener phase-noise paths, frequency offsets, and oscillator waveforms.

All randomness is a function of a key, never of generation order, so
ensembles are reproducible whatever order or thread count builds them.
A Wiener path is keyed by (master_seed, path_index) and a stream tag: its
increments come from a PCG64 stream seeded as numpy's SeedSequence seeds
one from master_seed and the spawn key (path_index, tag). _seed_words, the
one seeding function, runs that hash for a whole block of paths at once,
so each row of an ensemble is the walk wiener_path draws for its key, bit
for bit. A frequency offset is counter-based (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11): one keyed BLAKE2b hash of
(master_seed, path_index, offset tag) gives one uniform, which the
distribution's inverse CDF maps to the offset.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

import numpy as np

TWO_PI = 2.0 * np.pi

# Stream tags. A tag is a key word of its own, beside the path index, so
# streams with different tags stay disjoint at any index. STREAM_PHASE
# keys an oscillator's Wiener path, STREAM_OFFSET its offset draw; the
# acceptance battery and the figures' second oscillator use tags from 2 up
# (experiments.py).
STREAM_PHASE = 0
STREAM_OFFSET = 1

# Largest input the package accepts, in samples: a simulated waveform
# (duration * fs, `circuit._draw`), and an estimated figure path's Welch
# segment samples or longest walk (`experiments._path_plan`). Arrays of
# that size are held in memory, and a much larger input would fail in
# allocation instead of with a one-line error.
MAX_SAMPLES = 2**24

# offset draws: the key (master, index, STREAM_OFFSET) as three unsigned
# 64-bit words, hashed with BLAKE2b under a fixed tag into one such word
_OFFSET_KEY, _OFFSET_BITS = struct.Struct("<3Q"), struct.Struct("<Q")
_OFFSET_HASH = hashlib.blake2b(digest_size=8, person=b"oscavg-offset")
_TWO53 = 2**53

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx). For a master
# in [0, 2**64) and a spawn key (index, tag) of words below 2**32 it reads
# six entropy words: the master's two little-endian words zero-padded to
# four, then the index, then the tag. Its hashmix call k xors a word with
# INIT * MULT**k and multiplies it by INIT * MULT**(k + 1). Calls 0-15 build
# the pool from the master, which numpy's SeedSequence(master).pool holds;
# calls 16-19 mix in the index and 20-23 the tag, and the output's eight
# calls run under the B constants.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """(xor, multiplier) of hashmix calls first .. first + count - 1, shape
    (2, count, 1) uint32: columns that broadcast along a block's rows."""
    h = [init * pow(mult, k, 2**32) & _M32 for k in range(first, first + count + 1)]
    return np.array([h[:-1], h[1:]], dtype=np.uint32)[..., None]


_INDEX_MIX = _hash_consts(_INIT_A, _MULT_A, 16, 4)
_TAG_MIX = _hash_consts(_INIT_A, _MULT_A, 20, 4)
_OUT_MIX = _hash_consts(_INIT_B, _MULT_B, 0, 8).reshape(2, 2, 4, 1)

# (source, weight, delay in seconds) of each term of a phase
# sum_j weight_j * theta^(source_j)_{t - delay_j}; see analytic.py
Taps = Tuple[Tuple[int, float, float], ...]


class ParameterError(ValueError):
    """Input the model cannot run: an invalid model, sampling, circuit or
    configuration parameter, or incompatible shapes. Every input error of
    the package is one; the CLI reports it with exit 2."""


def _check_key(master, index, rows: int, stream):
    """ParameterError unless the key (master, index, tag) of `rows` streams
    from `index` on is integers, with master in [0, 2**64), rows >= 0 and
    every index and the tag in [0, 2**32)."""
    try:
        # compared as Python ints: a NumPy integer would wrap in index + rows
        m, i, r, s = (operator.index(k) for k in (master, index, rows, stream))
        if 0 <= m < 2**64 and 0 <= i and 0 <= r and i + r <= 2**32 and 0 <= s < 2**32:
            return
    except TypeError:  # not an integer
        pass
    raise ParameterError(f"stream key ({master!r}, {index!r}..+{rows!r}, {stream!r}) must be "
                         f"integers: master in [0, 2**64), rows >= 0, indices and tag in "
                         f"[0, 2**32)")


@lru_cache(maxsize=64)
def _master_pool(master: int) -> np.ndarray:
    """The hash pool after the master's words (hashmix calls 0-15), as
    numpy's SeedSequence(master) holds it: a read-only (4, 1) uint32 column."""
    pool = np.random.SeedSequence(master).pool[:, None]
    pool.flags.writeable = False
    return pool


def _seed_words(master, first_index, n_paths: int, stream) -> np.ndarray:
    """PCG64 seeds of the streams of (master, first_index + i) on a stream
    tag, shape (n_paths, 4), uint64: row i is numpy's
    SeedSequence(master, spawn_key=(first_index + i, stream))
    .generate_state(4, np.uint64), hashed for the whole block in one
    vectorised pass. Keys outside _check_key's range are a ParameterError."""
    _check_key(master, first_index, n_paths, stream)
    pool = _master_pool(int(master))  # (4, rows): each operation runs along the rows
    index = np.arange(first_index, first_index + n_paths, dtype=np.uint32)
    for word, (xor, mult) in ((index, _INDEX_MIX), (np.uint32(stream), _TAG_MIX)):
        y = word ^ xor
        y *= mult
        y ^= y >> _XSHIFT
        y *= _MIX_R
        pool = pool * _MIX_L - y
        pool ^= pool >> _XSHIFT
    # the output cycles twice through the pool
    state = pool ^ _OUT_MIX[0]
    state *= _OUT_MIX[1]
    state ^= state >> _XSHIFT
    # word pairs as little-endian 64-bit words, one contiguous row per path
    words = np.ascontiguousarray(state.reshape(8, n_paths).T)
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Seeded(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose PCG64 seed _seed_words has already hashed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly its four 64-bit words
        return self.words


def path_rng(seed_id: Tuple[int, int], stream: int = STREAM_PHASE) -> np.random.Generator:
    """Independent generator for one (master seed, path index) pair on one
    stream tag."""
    master, index = seed_id
    return np.random.Generator(np.random.PCG64(_Seeded(_seed_words(master, index, 1, stream)[0])))


def _step_rate(dt: float) -> float:
    """1/dt; ParameterError unless dt is finite and > 0 with 1/dt finite."""
    if not (0 < dt < math.inf and 1.0 / float(dt) < math.inf):
        raise ParameterError(f"dt={dt:g} s must be finite and > 0, with 1/dt finite")
    return 1.0 / float(dt)


def lag_samples(delay: float, dt: float) -> int:
    """The delay as a whole number of steps of dt; ParameterError if it is
    negative or not one, or if dt is not a step _step_rate accepts."""
    _step_rate(dt)
    lag = delay / dt
    if lag < 0:
        raise ParameterError(f"delay {delay:g} s must be >= 0")
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
        if not np.isfinite(self.theta0):
            raise ParameterError("theta0 must be finite")
        # initial phase stored wrapped to [0, 2*pi); mod can round up to 2*pi
        wrapped = float(np.mod(self.theta0, TWO_PI))
        if wrapped >= TWO_PI:
            wrapped = 0.0
        object.__setattr__(self, "theta0", wrapped)


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal at fs samples a second: an oscillator
    or circuit output, or a phase path, stored unwrapped (radians)."""

    fs: float
    samples: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ParameterError("fs must be finite and > 0")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ParameterError("samples must be a non-empty 1-d array")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.fs


def _check_walk(beta: float, theta0: float, dt: float, n: int, master, index, rows: int,
                stream):
    """ParameterError for a walk's bad parameters or stream key, whether or
    not the walk has a step to draw."""
    _check_key(master, index, rows, stream)
    if not (np.isfinite(beta) and beta >= 0):
        raise ParameterError("beta must be finite and >= 0")
    if not np.isfinite(theta0):
        raise ParameterError("theta0 must be finite")
    _step_rate(dt)
    if n < 1:
        raise ParameterError("n must be >= 1")


def _fill_walks(out: np.ndarray, beta: float, theta0: float, dt: float, rngs):
    """Fill each row of out, shape (rows, n), with a walk from theta0 whose
    steps are sqrt(2*pi*beta*dt) times the standard normals of one generator
    of rngs(), which is called only if there are steps: none when n = 1 or
    beta = 0, where every sample is theta0."""
    if out.shape[1] > 1 and beta != 0.0:
        out[:, 0] = 0.0
        for row, rng in zip(out, rngs()):
            rng.standard_normal(out=row[1:])
        out *= np.sqrt(TWO_PI * beta * dt)
        # normal(0.0, scale) draws 0.0 + scale * z, never -0.0; summing from
        # the 0.0 in column 0 turns a step of -0.0 into 0.0 the same way, so
        # the sums match theta0 + cumsum(normal(0.0, scale, n - 1)) and are
        # never -0.0, and a theta0 of +-0.0 would change none of them
        np.cumsum(out, axis=1, out=out)
        if theta0 != 0.0:
            out += theta0
    else:
        out.fill(theta0)
    out[:, 0] = theta0


def wiener_path(beta: float, theta0: float, dt: float, n: int,
                seed_id: Tuple[int, int], stream: int = STREAM_PHASE) -> Waveform:
    """Sample a phase random walk with diffusion rate beta.

    Increments between consecutive samples are i.i.d. zero-mean Gaussian
    with variance 2*pi*beta*dt, which is exact for this process at any
    step size. samples[0] equals theta0 (unwrapped), and fs is 1 / dt. They
    are drawn from path_rng(seed_id, stream).
    """
    _check_walk(beta, theta0, dt, n, *seed_id, 1, stream)
    theta = np.empty(n, dtype=float)
    _fill_walks(theta[None, :], beta, theta0, dt, lambda: (path_rng(seed_id, stream),))
    return Waveform(fs=1.0 / dt, samples=theta)


def _ndtri(p):
    """scipy's ndtri for one float, imported on the first normal draw:
    importing scipy.special costs more than a command's whole set-up, and
    nothing else in the package needs it. That call rebinds this module's
    name to scipy.special.cython_special.ndtri, the same Cephes routine as
    the scipy.special.ndtri ufunc without its per-call ufunc overhead, so
    later draws call it directly and get a float."""
    global _ndtri
    from scipy.special.cython_special import ndtri as _ndtri
    return _ndtri(p)


def _offset_bits(master: int, index: int) -> int:
    """64 hash bits of the offset key of (master, index). Packing the key
    refuses anything but integers in [0, 2**64); with an index of 2**32 or
    more, those are the keys _check_key refuses, so they go to it to raise
    its ParameterError."""
    try:
        key = _OFFSET_KEY.pack(master, index, STREAM_OFFSET)
    except struct.error:
        key = None
    if key is None or not index < 2**32:
        _check_key(master, index, 1, STREAM_OFFSET)
    h = _OFFSET_HASH.copy()
    h.update(key)
    return _OFFSET_BITS.unpack(h.digest())[0]


def sample_offset(offset_dist: OffsetDist, seed_id: Tuple[int, int]) -> float:
    """Draw one frequency offset (Hz) from the given distribution.

    The draw is a pure function of (distribution, seed_id), and every kind,
    delta too, refuses the keys _check_key refuses. The top 53 bits
    k of the key's hash give u = (k + 0.5) * 2**-53 in (0, 1); a uniform
    offset is param * (2u - 1), a normal one param * ndtri(u). Both are
    computed without rounding u: the normal takes the tail nearer to u, so
    the largest k maps to the mirror of the smallest, not to ndtri(1) = inf.
    """
    if offset_dist.kind == "delta":
        _check_key(*seed_id, 1, STREAM_OFFSET)
        return float(offset_dist.param)
    k = _offset_bits(*seed_id) >> 11
    if offset_dist.kind == "uniform":
        # |2k + 1 - 2**53| < 2**53: the int converts and scales exactly
        return offset_dist.param * ((2 * k + 1 - _TWO53) * 2.0**-53)
    if 2 * k < _TWO53:
        return offset_dist.param * _ndtri((k + 0.5) / _TWO53)
    return -offset_dist.param * _ndtri((_TWO53 - k - 0.5) / _TWO53)


def oscillator_waveform(spec: OscillatorSpec, f_i: float, phase: Waveform,
                        fs: float, n: int) -> Waveform:
    """Sampled oscillator output cos(2*pi*(f_c + f_i)*t + theta_t).

    Requires fs >= 8*(f_c + |f_i|) so downstream mixing products near
    4*f_c remain representable.
    """
    f_inst = spec.f_c + abs(f_i)
    min_fs = 8.0 * f_inst
    if fs < min_fs:
        raise ParameterError(
            f"fs={fs:g} Hz too low for carrier {f_inst:g} Hz; need fs >= {min_fs:g}")
    if n < 1:
        raise ParameterError("n must be >= 1")
    if len(phase) < n:
        raise ParameterError("phase path shorter than requested waveform")
    if not np.isclose(phase.fs, fs, rtol=1e-9):
        raise ParameterError("phase path fs inconsistent with fs")
    # the operations of cos(2*pi*(f_c + f_i) * k / fs + theta_k), in order
    samples = np.arange(n, dtype=float)
    samples *= TWO_PI * (spec.f_c + f_i)
    samples /= fs
    samples += phase.samples[:n]
    return Waveform(fs=fs, samples=np.cos(samples, out=samples))


def wiener_ensemble(beta: float, theta0: float, dt: float, n: int,
                    master_seed: int, n_paths: int,
                    first_index: int = 0, stream: int = STREAM_PHASE) -> np.ndarray:
    """Stack of n_paths independent walks, shape (n_paths, n); row i is
    wiener_path(beta, theta0, dt, n, (master_seed, first_index + i), stream)
    bit for bit. One _seed_words pass seeds every row's stream, the rows'
    standard normals are drawn straight into the block, and one cumulative
    sum integrates it."""
    _check_walk(beta, theta0, dt, n, master_seed, first_index, n_paths, stream)
    out = np.empty((n_paths, n), dtype=float)
    _fill_walks(out, beta, theta0, dt, lambda: (
        np.random.Generator(np.random.PCG64(_Seeded(words)))
        for words in _seed_words(master_seed, first_index, n_paths, stream)))
    return out


def _check_taps(taps: Taps):
    if not taps or not all(isinstance(s, (int, np.integer)) and s >= 0 and math.isfinite(a)
                           and 0 <= d < math.inf for s, a, d in taps):
        raise ParameterError(f"taps {taps!r} must be (integer source >= 0, finite "
                             f"weight, finite delay >= 0), at least one")


def source_lags(curves, dt: float) -> dict:
    """{source: its largest lag, in steps of dt, over the taps of `curves`};
    ParameterError for taps that are not valid, or for no curve."""
    lags: dict = {}
    for taps in curves:
        _check_taps(taps)
        for s, _, delay in taps:
            lags[s] = max(lags.get(s, 0), lag_samples(delay, dt))
    if not lags:
        raise ParameterError("pass at least one curve's taps")
    return lags


def _add_taps(phase: np.ndarray, taps: Taps, walks: dict, dt: float):
    """Add sum_j a_j theta^(s_j)_{t - d_j} of `taps` to `phase`, whose last
    axis is n samples, in tap order. walks[s] holds theta^(s) from t = -L_s,
    n + L_s samples on its last axis, so a tap of lag l (d_j in whole steps
    of dt) adds a_j * walks[s][..., L_s - l : L_s - l + n]."""
    n = phase.shape[-1]
    for s, weight, delay in taps:
        start = walks[s].shape[-1] - n - lag_samples(delay, dt)
        phase += weight * walks[s][..., start:start + n]


def tap_ensemble(beta: float, curves, dt: float, n: int, master_seed: int,
                 n_paths: int, first_index: int = 0) -> np.ndarray:
    """Phases sum_j a_j theta^(s_j)_{t - d_j} of each curve of taps (s_j, a_j,
    d_j) in `curves`, shape (len(curves), n_paths, n); pass one curve as
    [taps]. Source s is the walk of (master_seed, first_index + i) on stream
    tag s, drawn once, long enough for every curve. A curve whose largest
    lag on s is L reads its first n + L samples, bit for bit the walk of
    n + L samples, so its rows do not depend on the other curves and show no
    start-up transient (see `_add_taps`)."""
    walks = {s: wiener_ensemble(beta, 0.0, dt, n + L, master_seed, n_paths,
                                first_index=first_index, stream=s)
             for s, L in source_lags(curves, dt).items()}
    out = np.zeros((len(curves), n_paths, n))
    for phase, taps in zip(out, curves):
        _add_taps(phase, taps, {s: walks[s][:, :n + L]
                                for s, L in source_lags([taps], dt).items()}, dt)
    return out
