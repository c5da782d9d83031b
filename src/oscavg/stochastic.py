"""Wiener phase-noise paths, frequency offsets, and oscillator waveforms.

All randomness is a function of a key, never of generation order, so
ensembles are reproducible whatever order or thread count builds them.
A Wiener path is keyed by (master_seed, path_index) and a stream tag. Each
(master_seed, tag) has one PCG64DXSM stream, seeded by numpy's
SeedSequence(master_seed, spawn_key=(tag,)), and path i draws its
increments from that stream advanced by i * 2**64 words, the layout numpy
recommends for many streams from one seed. A path reads far fewer words
(its at most MAX_SAMPLES normals take about one word each), so the paths
of one tag are disjoint stretches of one stream. wiener_ensemble makes a
block's stream once and moves it to each row's start, so each row is the
walk wiener_path draws for its key, bit for bit. A frequency offset is
counter-based (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11): one keyed BLAKE2b hash of (master_seed, path_index, offset
tag) gives one uniform, which the distribution's inverse CDF maps to the
offset.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Real
from typing import Tuple

import numpy as np

TWO_PI = 2.0 * np.pi

# Stream tags. A tag seeds a stream of its own, beside the path index, so
# walks with different tags never share a stream. STREAM_PHASE keys an
# oscillator's Wiener path, STREAM_OFFSET its offset draw; the acceptance
# battery and the figures' second oscillator use tags from 2 up
# (experiments.py).
STREAM_PHASE = 0
STREAM_OFFSET = 1

# Largest input the package accepts, in samples: a simulated waveform
# (duration * fs, `circuit._samples`), and an estimated figure path's Welch
# segment samples or longest walk (`experiments._path_plan`). Arrays of
# that size are held in memory, and a much larger input would fail in
# allocation instead of with a one-line error.
MAX_SAMPLES = 2**24

# offset draws: the key (master, index, STREAM_OFFSET) as three unsigned
# 64-bit little-endian words, hashed with BLAKE2b under a fixed tag into one
# such word; each draw copies this hasher. Bound once: each lookup of
# int.from_bytes builds a new bound method
_pack_offset_key = struct.Struct("<3Q").pack
_OFFSET_HASH = hashlib.blake2b(digest_size=8, person=b"oscavg-offset")
_int_from_bytes = int.from_bytes

# (source, weight, delay in seconds) of each term of a phase
# sum_j weight_j * theta^(source_j)_{t - delay_j}; see analytic.py
Taps = Tuple[Tuple[int, float, float], ...]


class ParameterError(ValueError):
    """Input the model cannot run: an invalid model, sampling, circuit or
    configuration parameter, or incompatible shapes. Every input error of
    the package is one; the CLI reports it with exit 2."""


def _real(x) -> float:
    """x as a float if it is a real number (a bool, an int, a float or a
    NumPy real scalar; inf if too large for a float), else nan, which every
    model parameter's finiteness check refuses."""
    if not isinstance(x, Real):
        return math.nan
    try:
        return float(x)
    except OverflowError:  # an int beyond the largest float
        return math.inf


def _check_key(master, index, rows: int, stream) -> Tuple[int, int, int]:
    """The key (master, index, tag) of `rows` streams from `index` on, as
    Python ints; ParameterError unless they are integers, with master in
    [0, 2**64), rows >= 0 and every index and the tag in [0, 2**32)."""
    try:
        # compared as Python ints: a NumPy integer would wrap in index + rows
        m, i, r, s = (operator.index(k) for k in (master, index, rows, stream))
        if 0 <= m < 2**64 and 0 <= i and 0 <= r and i + r <= 2**32 and 0 <= s < 2**32:
            return m, i, s
    except TypeError:  # not an integer
        pass
    raise ParameterError(f"stream key ({master!r}, {index!r}..+{rows!r}, {stream!r}) must be "
                         f"integers: master in [0, 2**64), rows >= 0, indices and tag in "
                         f"[0, 2**32)")


def _stream(master: int, tag: int) -> np.random.PCG64DXSM:
    """The stream of (master, tag) at its start, where path 0 begins; path i
    begins i * 2**64 words on."""
    return np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=(tag,)))


def path_rng(seed_id: Tuple[int, int], stream: int = STREAM_PHASE) -> np.random.Generator:
    """Independent generator for one (master seed, path index) pair on one
    stream tag: the tag's stream advanced to the path's start."""
    master, index = seed_id
    master, index, stream = _check_key(master, index, 1, stream)
    bits = _stream(master, stream)
    bits.advance(index << 64)
    return np.random.Generator(bits)


def _row_rngs(master: int, first_index: int, n_paths: int, stream: int):
    """The generators of paths first_index .. first_index + n_paths - 1 on
    a tag, in turn, for keys _check_key has passed: one stream, made on the
    first row's turn, reset to its start and advanced to each row's."""
    bits = _stream(master, stream)
    start, rng = bits.state, np.random.Generator(bits)
    for index in range(first_index, first_index + n_paths):
        bits.state = start
        bits.advance(index << 64)
        yield rng


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
        param = _real(self.param)
        if not math.isfinite(param):
            raise ParameterError(f"offset parameter {self.param!r} must be a finite real number")
        if self.kind in ("uniform", "normal") and param < 0:
            raise ParameterError(f"{self.kind} offset parameter must be >= 0")
        # a Python float: every draw returns one
        object.__setattr__(self, "param", param)

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
    diffusion rate of the phase random walk (which starts at 0)."""

    f_c: float
    offset_dist: OffsetDist = field(default_factory=OffsetDist.delta)
    beta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(_real(self.f_c)) and self.f_c > 0):
            raise ParameterError("f_c must be finite and > 0")
        if not isinstance(self.offset_dist, OffsetDist):
            raise ParameterError(f"offset_dist {self.offset_dist!r} must be an OffsetDist")
        if not (math.isfinite(_real(self.beta)) and self.beta >= 0):
            raise ParameterError("beta must be finite and >= 0")


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal at fs samples a second: an oscillator
    or circuit output, or a phase path, stored unwrapped (radians)."""

    fs: float
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(_real(self.fs)) and self.fs > 0):
            raise ParameterError("fs must be finite and > 0")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ParameterError("samples must be a non-empty 1-d array")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.fs


def _check_walk(beta: float, theta0: float, dt: float, n: int):
    """ParameterError for a walk's bad parameters, whether or not the walk
    has a step to draw; its seeding checks its stream key."""
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
    of rngs, an iterable read only if there are steps: none when n = 1 or
    beta = 0, where every sample is theta0."""
    if out.shape[1] > 1 and beta != 0.0:
        out[:, 0] = 0.0
        for row, rng in zip(out, rngs):
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
    _check_walk(beta, theta0, dt, n)
    rng = path_rng(seed_id, stream)
    theta = np.empty(n, dtype=float)
    _fill_walks(theta[None, :], beta, theta0, dt, (rng,))
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


def sample_offset(offset_dist: OffsetDist, seed_id: Tuple[int, int]) -> float:
    """Draw one frequency offset (Hz) from the given distribution.

    The draw is a pure function of (distribution, seed_id). Every kind,
    delta too, hashes the key (master, index) = seed_id, so refuses the keys
    _check_key refuses. The hash is BLAKE2b of the key words (master, index,
    STREAM_OFFSET) packed as "<3Q", with an 8-byte digest and person
    b"oscavg-offset", read as a little-endian word. Its top 53 bits k give
    u = (k + 0.5) * 2**-53 in (0, 1); a uniform offset is param * (2u - 1), a
    normal one param * ndtri(u). Both are computed without rounding u: the
    uniform as param * ((k - 2**52) * 2**-52 + 2**-53), whose steps are all
    exact, and the normal takes the tail nearer to u, so the largest k maps
    to the mirror of the smallest, not to ndtri(1) = inf.
    """
    try:
        master, index = seed_id
    except (TypeError, ValueError):
        raise ParameterError(f"seed_id {seed_id!r} must be a (master, index) pair") from None
    # packing refuses anything but integers in [0, 2**64); with an index of
    # 2**32 or more, those are the keys _check_key refuses, so they go to it
    # to raise its ParameterError
    try:
        key = _pack_offset_key(master, index, STREAM_OFFSET)
    except struct.error:
        key = None
    if key is None or not index < 2**32:
        _check_key(master, index, 1, STREAM_OFFSET)
    h = _OFFSET_HASH.copy()
    h.update(key)
    k = _int_from_bytes(h.digest(), "little") >> 11
    kind = offset_dist.kind
    if kind == "uniform":
        return offset_dist.param * ((k - 2**52) * 2.0**-52 + 2.0**-53)
    if kind == "normal":
        if k < 2**52:
            return offset_dist.param * _ndtri((k + 0.5) * 2.0**-53)
        return -offset_dist.param * _ndtri((2**53 - k - 0.5) * 2.0**-53)
    return offset_dist.param


def oscillator_waveform(spec: OscillatorSpec, f_i: float, phase: Waveform,
                        fs: float) -> Waveform:
    """Sampled oscillator output cos(2*pi*(f_c + f_i)*t + theta_t), as long
    as its phase path.

    Requires fs >= 8*(f_c + |f_i|): eight samples a cycle of the carrier.
    A circuit's k-input stage reads products up to k*f_c, and
    `circuit._samples` holds it to fs >= 8*k*f_c.
    """
    if not math.isfinite(f_i):
        raise ParameterError(f"offset f_i={f_i:g} Hz must be finite")
    f_inst = spec.f_c + abs(f_i)
    min_fs = 8.0 * f_inst
    if fs < min_fs:
        raise ParameterError(
            f"fs={fs:g} Hz too low for carrier {f_inst:g} Hz; need fs >= {min_fs:g}")
    if not np.isclose(phase.fs, fs, rtol=1e-9):
        raise ParameterError("phase path fs inconsistent with fs")
    # the operations of cos(2*pi*(f_c + f_i) * k / fs + theta_k), in order
    samples = np.arange(len(phase), dtype=float)
    samples *= TWO_PI * (spec.f_c + f_i)
    samples /= fs
    samples += phase.samples
    return Waveform(fs=fs, samples=np.cos(samples, out=samples))


def wiener_ensemble(beta: float, theta0: float, dt: float, n: int,
                    master_seed: int, n_paths: int,
                    first_index: int = 0, stream: int = STREAM_PHASE) -> np.ndarray:
    """Stack of n_paths independent walks, shape (n_paths, n); row i is
    wiener_path(beta, theta0, dt, n, (master_seed, first_index + i), stream)
    bit for bit. One stream serves the block (`_row_rngs`), the rows'
    standard normals are drawn straight into it, and one cumulative sum
    integrates it."""
    _check_walk(beta, theta0, dt, n)
    master, first, stream = _check_key(master_seed, first_index, n_paths, stream)
    out = np.empty((n_paths, n), dtype=float)
    # a walk without steps reads no generator, so makes no stream
    _fill_walks(out, beta, theta0, dt, _row_rngs(master, first, n_paths, stream))
    return out


def _is_tap(tap) -> bool:
    """Whether tap is a (source, weight, delay) triple: an integer source
    >= 0, a finite real weight and a finite real delay >= 0."""
    if not (isinstance(tap, Sequence) and len(tap) == 3):
        return False
    s, a, d = tap
    return (isinstance(s, (int, np.integer)) and s >= 0 and isinstance(a, Real)
            and isinstance(d, Real) and math.isfinite(a) and 0 <= d < math.inf)


def _check_taps(taps: Taps):
    """ParameterError unless taps is a non-empty sequence of `_is_tap` triples."""
    if not (isinstance(taps, Sequence) and taps and all(map(_is_tap, taps))):
        raise ParameterError(f"taps {taps!r} must be (integer source >= 0, finite "
                             f"weight, finite delay >= 0), at least one")


def tap_layout(curves, dt: float) -> Tuple[dict, list]:
    """({source: its largest lag, in steps of dt, over every curve}, per
    curve the (source, weight, start) of each of its taps) of `curves`, each
    tap checked and its lag worked out once; ParameterError for taps that
    are not valid, or for no curve. A curve whose largest lag on source s is
    L reads its first n + L samples, with t = 0 at sample L: a tap of lag l
    reads samples start = L - l to start + n."""
    lags, layout = {}, []
    for taps in curves:
        _check_taps(taps)
        taps = [(s, weight, lag_samples(delay, dt)) for s, weight, delay in taps]
        own = {s: max(lag for t, _, lag in taps if t == s) for s, _, _ in taps}
        layout.append(tuple((s, weight, own[s] - lag) for s, weight, lag in taps))
        lags.update({s: max(lags.get(s, 0), lag) for s, lag in own.items()})
    if not lags:
        raise ParameterError("pass at least one curve's taps")
    return lags, layout


def _tap_sum(signals, taps, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Fill out with sum_j weight_j * signals[s_j][..., start_j:start_j + n],
    n = out.shape[-1], over one curve's `tap_layout` taps, of rows of walks
    or single phases alike; each term is built in term, added in tap order."""
    n = out.shape[-1]
    out.fill(0.0)
    for s, weight, start in taps:
        np.multiply(signals[s][..., start:start + n], weight, out=term)
        out += term
    return out

