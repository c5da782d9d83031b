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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .stochastic import ParameterError


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
    if not 1 <= data.ndim <= 2 or data.size == 0:
        raise ParameterError("pass a non-empty sequence or (rows, n) ensemble")
    n = data.shape[-1]
    if not 1 <= segment_len <= n:
        raise ParameterError(f"segment_len={segment_len} is not in [1, data length {n}]")
    if not 0 < fs < np.inf:
        raise ParameterError(f"fs={fs} must be finite and > 0")
    if not 0 <= overlap < 1:
        raise ParameterError("overlap must be in [0, 1)")
    if window not in ("hann", "rect"):
        raise ParameterError("window must be 'hann' or 'rect'")
    win = _window(window, segment_len)
    noverlap = int(segment_len * overlap)
    step = segment_len - noverlap
    segs = np.lib.stride_tricks.sliding_window_view(data, segment_len, axis=-1)[..., ::step, :]
    spec = np.fft.fft(segs * win, axis=-1)
    power = spec.real**2 + spec.imag**2
    psd = np.fft.fftshift(power.mean(axis=-2), axes=-1) / (fs * np.sum(win**2))
    freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / fs))
    rows = data.shape[0] if data.ndim == 2 else 1
    n_segments = rows * max(1, (n - noverlap) // step)
    return SpectrumEstimate(freqs=freqs, psd=psd, n_segments=n_segments)


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
    ensemble as `[ens]`. Each block takes one Welch call. The row densities
    are summed in path order and divided once at the end, so the result does
    not depend on how the paths are split into blocks. The frequency grid is
    the offset from the carrier in Hz.
    """
    acc, n_rows, n_segments, est = None, 0, 0, None
    for block in blocks:
        theta = np.atleast_2d(np.asarray(block, dtype=float))
        z = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=z.real)
        np.sin(theta, out=z.imag)
        est = welch_psd(z, fs=1.0 / dt, segment_len=segment_len, overlap=overlap,
                        window=window)
        for row in est.psd:
            if acc is None:
                acc = np.array(row)
            else:
                acc += row
        n_rows += est.psd.shape[0]
        n_segments += est.n_segments
    if est is None:
        raise ParameterError("empty ensemble")
    return SpectrumEstimate(freqs=est.freqs, psd=acc / n_rows, n_segments=n_segments)
