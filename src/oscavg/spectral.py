"""PSD and autocorrelation estimation from simulated ensembles.

`welch_psd` is a NumPy Welch engine (Welch, IEEE Trans. Audio
Electroacoust. 15(2), 1967). Segments of L samples start every
L - floor(L*overlap) samples, and a trailing part shorter than a segment is
dropped. Each segment is multiplied by a periodic hann window,
w_k = 0.5 - 0.5 cos(2 pi k / L), or by a rect window. One FFT runs over
every segment of every row. The squared magnitudes are averaged over a
row's segments and scaled by 1/(fs * sum(w^2)). That gives a two-sided
density, so unit-variance white noise gives a flat 1/fs. Hann with 50%
overlap is the default.

Both entry points check their arguments in `_plan` and run one kernel,
`_welch_rows`, which works in buffers its caller owns: `welch_psd`
allocates them for its one call, `psd_of_phase_shift` once per ensemble.

`psd_of_phase_shift` takes the phasors exp(j theta) of its phase paths in
single precision: theta is reduced to [-pi, pi] in float64, and cos and sin
of its float32 cast are each within 2**-22 of the exact value for |theta|
up to 1e8 rad. The FFT and every sum after it run in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Tuple

import numpy as np

from .stochastic import TWO_PI, ParameterError


@dataclass(frozen=True)
class SpectrumEstimate:
    """Estimated PSD on a frequency grid (Hz, offset from carrier); `psd`
    holds one density per row when estimated from a (rows, n) ensemble."""

    freqs: np.ndarray
    psd: np.ndarray
    n_segments: int

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "psd", np.asarray(self.psd, dtype=float))
        if self.freqs.shape != self.psd.shape[-1:]:
            raise ParameterError("frequency grid and PSD shape mismatch")

    def total_power(self) -> float:
        return float(np.trapezoid(self.psd, self.freqs))

    def interp(self, freqs) -> np.ndarray:
        return np.interp(freqs, self.freqs, self.psd)


@lru_cache(maxsize=8)
def _window(kind: str, length: int) -> np.ndarray:
    """Read-only periodic hann or rect window, built once per (kind, length)."""
    if kind == "hann":
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    else:
        win = np.ones(length)
    win.flags.writeable = False
    return win


class _Plan(NamedTuple):
    """What a Welch estimate needs besides its data: the window, the step
    between segment starts, the segments per row, and the density scale
    fs * sum(w^2)."""

    win: np.ndarray
    step: int
    segments: int
    scale: float


def _plan(shape, fs: float, segment_len: int, overlap: float, window: str) -> _Plan:
    """Check the arguments of a Welch estimate over data of `shape` and
    return its plan; every Welch entry point checks its arguments here."""
    if not 1 <= len(shape) <= 2 or math.prod(shape) == 0:
        raise ParameterError("pass a non-empty sequence or (rows, n) ensemble")
    n = shape[-1]
    if not 1 <= segment_len <= n:
        raise ParameterError(f"segment_len={segment_len} is not in [1, data length {n}]")
    if not 0 < fs < np.inf:
        raise ParameterError(f"fs={fs} must be finite and > 0")
    if not 0 <= overlap < 1:
        raise ParameterError("overlap must be in [0, 1)")
    if window not in ("hann", "rect"):
        raise ParameterError("window must be 'hann' or 'rect'")
    win = _window(window, segment_len)
    power = np.sum(win**2)
    if power == 0:  # the periodic hann of one sample is [0]
        raise ParameterError(f"the {window} window of segment_len={segment_len} is all "
                             f"zeros, so it has no power")
    return _Plan(win, *_segments(n, segment_len, overlap), fs * power)


def _segments(n: int, segment_len: int, overlap: float) -> Tuple[int, int]:
    """(step between segment starts, segment count) of a Welch estimate over
    n samples, for 1 <= segment_len <= n and 0 <= overlap < 1."""
    step = segment_len - int(segment_len * overlap)
    return step, (n - segment_len) // step + 1


def _take(work: dict, key: str, shape, dtype) -> np.ndarray:
    """A C-contiguous array of `shape` on the front of the flat buffer
    work[key], which is replaced by a larger one when it is too small."""
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _welch_rows(x: np.ndarray, plan: _Plan, work: dict) -> np.ndarray:
    """The Welch densities of the rows of the 2-d array `x`, in FFT order,
    computed in buffers taken from `work` (see `_take`). The result is one
    of those buffers, so it holds only until `work` is used again."""
    segs = np.lib.stride_tricks.sliding_window_view(x, len(plan.win), axis=-1)[:, ::plan.step]
    spec = _take(work, "spec", segs.shape, np.result_type(x.dtype, plan.win.dtype, np.complex64))
    np.multiply(segs, plan.win, out=spec)
    np.fft.fft(spec, axis=-1, out=spec)
    power = _take(work, "power", segs.shape, spec.real.dtype)
    np.square(spec.real, out=power)
    np.square(spec.imag, out=spec.imag)
    power += spec.imag
    psd = _take(work, "psd", (x.shape[0], len(plan.win)), power.dtype)
    np.mean(power, axis=1, out=psd)
    psd /= plan.scale
    return psd


def _estimate(psd: np.ndarray, fs: float, n_segments: int) -> SpectrumEstimate:
    """The estimate of densities `psd` given in FFT order, on the centered grid."""
    segment_len = psd.shape[-1]
    return SpectrumEstimate(freqs=np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / fs)),
                            psd=np.fft.fftshift(psd, axes=-1), n_segments=n_segments)


def welch_psd(x, fs: float, segment_len: int = 1024,
              overlap: float = 0.5, window: str = "hann") -> SpectrumEstimate:
    """Two-sided Welch density estimate of a real or complex sequence
    sampled at `fs`.

    A 2-d array of shape (rows, n) gives one density per row, each equal to
    the estimate of that row alone, and `n_segments` counts the segments of
    all rows. The grid is centered (fftshift order) with frequencies as
    offsets from the carrier for baseband inputs.
    """
    data = np.asarray(x)
    plan = _plan(data.shape, fs, segment_len, overlap, window)
    rows = np.atleast_2d(data)
    psd = _welch_rows(rows, plan, {})
    return _estimate(psd if data.ndim == 2 else psd[0], fs, rows.shape[0] * plan.segments)


def autocorr_per_path(sequences: np.ndarray, lags: Sequence[int]) -> np.ndarray:
    """Per-path time average of x_t conj(x_{t+lag}) at the given lags, one
    complex sequence per row; shape (n_paths, n_lags). The ensemble estimate
    is its mean over rows, and the spread over rows gives its Monte Carlo
    standard error."""
    sequences = np.atleast_2d(np.asarray(sequences))
    if sequences.size == 0:
        raise ParameterError("empty ensemble")
    n = sequences.shape[1]
    out = np.empty((sequences.shape[0], len(lags)), dtype=complex)
    for j, lag in enumerate(lags):
        if not isinstance(lag, (int, np.integer)) or not 0 <= lag < n:
            raise ParameterError(f"lag {lag!r} must be an integer in [0, {n})")
        if lag == 0:
            out[:, j] = np.mean(sequences.real**2 + sequences.imag**2, axis=1)
        else:
            out[:, j] = np.mean(sequences[:, :-lag] * np.conj(sequences[:, lag:]), axis=1)
    return out


def psd_of_phase_shift(blocks: Iterable[np.ndarray], dt: float,
                       segment_len: int = 1024, overlap: float = 0.5,
                       window: str = "hann") -> SpectrumEstimate:
    """Welch PSD of exp(j*theta), averaged over an ensemble of phase paths.

    `blocks` yields 2-d arrays of phase samples, one path per row; pass one
    ensemble as `[ens]`. Each block runs through the Welch kernel in work
    buffers allocated once per call, sized by the largest block so far. The
    row densities are summed in path order and divided once at the end, so
    the result does not depend on how the paths are split into blocks. The
    frequency grid is the offset from the carrier in Hz.

    The phasors are single precision. Each phase is reduced in float64 to
    t = theta - 2 pi rint(theta / 2 pi), clipped to [-pi, pi], and cast to
    float32; cos t and sin t are taken in float32. The clip moves t only
    where rounding leaves it a few float64 steps of theta past +-pi, and for
    |theta| beyond about 2**52 rad, where a float64 phase holds no angle.
    For |theta| up to 1e8 rad each component of a phasor is within 2**-22
    of cos theta and sin theta (0.68 * 2**-22 at most over 2e6 phases; the
    reduction's own error grows as 1.5e-16 |theta|). So a segment's FFT is
    within E = sqrt(2) 2**-22 sum|w| of its float64 value, and each density
    within (2 |X| E + E**2) / (fs sum(w**2)) of the float64 phasors'
    density, averaged over the segments' float64 transforms X. Without the
    float64 reduction the cast alone would cost 5e-4 at |theta| = 1e4.
    """
    fs = 1.0 / dt if dt else np.inf  # dt = 0 is refused as fs = inf
    work: dict = {}
    acc, n_rows, n_segments = None, 0, 0
    for block in blocks:
        theta = np.atleast_2d(np.asarray(block, dtype=float))
        plan = _plan(theta.shape, fs, segment_len, overlap, window)
        turn = _take(work, "turn", theta.shape, float)
        np.divide(theta, TWO_PI, out=turn)
        np.rint(turn, out=turn)
        turn *= TWO_PI
        np.subtract(theta, turn, out=turn)
        reduced = _take(work, "reduced", theta.shape, np.float32)
        np.clip(turn, -np.pi, np.pi, out=reduced, casting="same_kind")
        z = _take(work, "z", theta.shape, complex)
        np.cos(reduced, out=z.real, dtype=np.float32)
        np.sin(reduced, out=z.imag, dtype=np.float32)
        if acc is None:
            acc = np.zeros(segment_len)
        for row in _welch_rows(z, plan, work):
            acc += row
        n_rows += theta.shape[0]
        n_segments += theta.shape[0] * plan.segments
    if acc is None:
        raise ParameterError("empty ensemble")
    return _estimate(acc / n_rows, fs, n_segments)
