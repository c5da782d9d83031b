"""Wiener phase-noise paths, frequency offsets, and oscillator waveforms.

All randomness is a function of a key, never of generation order, so
ensembles are reproducible whatever order or thread count builds them.
A Wiener path is keyed by (master_seed, path_index) and a stream tag: its
increments come from a PCG64 stream that numpy's SeedSequence derives from
master_seed and the spawn key (path_index, tag). An ensemble seeds the
streams of a whole block of paths with one vectorised pass of that same
hash (seed_words), so each row is the walk wiener_path draws for its key,
bit for bit, without a SeedSequence per path. A frequency offset is
counter-based (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11): one keyed BLAKE2b hash of (master_seed, path_index, offset tag)
gives one uniform, which the distribution's inverse CDF maps to the offset.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Tuple

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

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words mixes the entropy words, which are the master's
# little-endian words zero-padded to four (a spawn key follows), then the
# words of the path index and of the tag; the pool's output is the stream's
# PCG64 seed
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


# (source, weight, delay in seconds) of each term of a phase
# sum_j weight_j * theta^(source_j)_{t - delay_j}; see analytic.py
Taps = Tuple[Tuple[int, float, float], ...]


class ParameterError(ValueError):
    """Input the model cannot run: an invalid model, sampling, circuit or
    configuration parameter, or incompatible shapes. Every input error of
    the package is one; the CLI reports it with exit 2."""


def path_rng(seed_id: Tuple[int, int], stream: int = STREAM_PHASE) -> np.random.Generator:
    """Independent generator for one (master seed, path index) pair on one
    stream tag."""
    master, index = seed_id
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=(int(index), int(stream)))
    return np.random.Generator(np.random.PCG64(ss))


def _words32(value: int) -> List[int]:
    """The little-endian 32-bit words SeedSequence reads from an integer
    >= 0 (one word, 0, for 0)."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


@lru_cache(maxsize=64)
def _block_hash(master: int, index_words: int, stream: int):
    """What the hash of every key (master, index, stream) with an index of
    `index_words` words shares: the pool after the master's words, the
    (xor, multiplier) constants that mix each index word into it, the
    stream tag's mixed words times _MIX_R, and the output constants. The hash
    constants do not depend on the data, so a block of indices reuses them."""
    h = _INIT_A

    def constants(count: int, mult: int = _MULT_A) -> np.ndarray:
        # the (xor, multiplier) pairs of the next `count` hashmix calls, as
        # columns that broadcast along a block's rows
        nonlocal h
        pairs = np.empty((2, count, 1), dtype=np.uint32)
        for i in range(count):
            pairs[0, i] = h
            h = h * mult & _M32
            pairs[1, i] = h
        return pairs

    def hashmix(value: int) -> int:
        [[xor]], [[mult]] = constants(1).tolist()
        value = (value ^ xor) * mult & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> _XSHIFT)

    entropy = _words32(master)
    entropy += [0] * (4 - len(entropy))
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    # each later word meets the four pool words through four hashmix calls
    index_consts = np.array([constants(4) for _ in range(index_words)])
    stream_consts = np.array([[[hashmix(word) * _MIX_R & _M32] for _ in range(4)]
                              for word in _words32(stream)], dtype=np.uint32)
    h = _INIT_B
    shared = (np.array(pool, dtype=np.uint32)[:, None], index_consts, stream_consts,
              constants(8, _MULT_B).reshape(2, 2, 4, 1))
    for array in shared:  # every caller gets these very arrays
        array.flags.writeable = False
    return shared


def seed_words(master: int, first_index: int, n_paths: int,
               stream: int = STREAM_PHASE) -> np.ndarray:
    """PCG64 seeds of the streams of (master, first_index + i) on a stream
    tag, shape (n_paths, 4), uint64: row i is numpy's
    SeedSequence(master, spawn_key=(first_index + i, stream))
    .generate_state(4, np.uint64), computed for the whole block in one
    vectorised pass. Indices below 2**32 are one word and larger ones two,
    so the rows are hashed in those two groups."""
    master, first_index, stream = int(master), int(first_index), int(stream)
    if min(master, first_index, stream) < 0 or first_index + n_paths > 2**64:
        raise ParameterError(f"seed key ({master}, {first_index}..+{n_paths}, {stream}) "
                             f"must be integers >= 0, with path indices below 2**64")
    index = np.arange(first_index, first_index + n_paths, dtype=np.uint64)
    # the pool is (4, rows), so each operation runs along the rows; the
    # output cycles twice through it
    state = np.empty((2, 4, n_paths), dtype=np.uint32)
    one_word = min(max(2**32 - first_index, 0), n_paths)
    for rows, index_words in ((slice(0, one_word), 1), (slice(one_word, n_paths), 2)):
        if rows.start == rows.stop:
            continue
        pool, index_consts, stream_consts, (out_xor, out_mult) = _block_hash(
            master, index_words, stream)
        for shift, (xor, mult) in zip((0, 32), index_consts):
            y = (index[rows] >> np.uint64(shift)).astype(np.uint32) ^ xor
            y *= mult
            y ^= y >> _XSHIFT
            y *= _MIX_R
            pool = pool * _MIX_L - y
            pool ^= pool >> _XSHIFT
        for y in stream_consts:
            pool *= _MIX_L
            pool -= y
            pool ^= pool >> _XSHIFT
        block = state[:, :, rows]
        np.bitwise_xor(pool, out_xor, out=block)
        block *= out_mult
        block ^= block >> _XSHIFT
    # word pairs as little-endian 64-bit words, one contiguous row per path
    words = np.ascontiguousarray(state.reshape(8, n_paths).T)
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Seeded(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose PCG64 seed seed_words has already hashed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly its four 64-bit words
        return self.words


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

    def __post_init__(self):
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ParameterError("fs must be finite and > 0")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.fs


def _check_walk(beta: float, dt: float, n: int):
    if not (np.isfinite(beta) and beta >= 0):
        raise ParameterError("beta must be finite and >= 0")
    if not (np.isfinite(dt) and dt > 0):
        raise ParameterError("dt must be finite and > 0")
    if n < 1:
        raise ParameterError("n must be >= 1")


def wiener_path(beta: float, theta0: float, dt: float, n: int,
                seed_id: Tuple[int, int], stream: int = STREAM_PHASE) -> PhasePath:
    """Sample a phase random walk with diffusion rate beta.

    Increments between consecutive samples are i.i.d. zero-mean Gaussian
    with variance 2*pi*beta*dt, which is exact for this process at any
    step size. samples[0] equals theta0 (unwrapped). They are drawn from
    path_rng(seed_id, stream).
    """
    _check_walk(beta, dt, n)
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
        raise ParameterError(
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
    """Stack of n_paths independent walks, shape (n_paths, n); row i is
    wiener_path(beta, theta0, dt, n, (master_seed, first_index + i), stream)
    bit for bit. One seed_words pass seeds every row's stream, the rows'
    standard normals are drawn straight into the block, and one cumulative
    sum integrates it."""
    _check_walk(beta, dt, n)
    out = np.empty((n_paths, n), dtype=float)
    if n > 1 and beta != 0.0:
        out[:, 0] = 0.0
        for row, words in zip(out, seed_words(master_seed, first_index, n_paths, stream)):
            np.random.Generator(np.random.PCG64(_Seeded(words))).standard_normal(out=row[1:])
        out *= np.sqrt(TWO_PI * beta * dt)
        # wiener_path's steps are normal(0.0, scale) = 0.0 + scale * z, never
        # -0.0; summing from the 0.0 in column 0 turns a step of -0.0 into 0.0
        # the same way, so the sums match theirs and are never -0.0, and a
        # theta0 of +-0.0 would change none of them
        np.cumsum(out, axis=1, out=out)
        if theta0 != 0.0:
            out += theta0
    else:
        out.fill(theta0)
    out[:, 0] = theta0
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
    last_reader = {s: j for j, (s, _, _) in enumerate(taps)}
    out = None
    for j, ((s, weight, _), lag) in enumerate(zip(taps, lags)):
        term = walks[s][:, longest[s] - lag:longest[s] - lag + n]
        if weight != 1.0:
            # a walk no later tap reads is scaled where it lies
            term = np.multiply(term, weight, out=term if j == last_reader[s] else None)
        elif out is None and j != last_reader[s]:
            term = term.copy()  # the sum must not write into a walk still read
        if out is None:
            out = term
        else:
            out += term
    return out
