"""The ensemble Welch estimate of exp(j theta), and its exact expectation.

`EnsembleWelch` is the one Welch estimator (Welch, IEEE Trans. Audio
Electroacoust. 15(2), 1967). Segments of L samples start every
L - floor(L*overlap) samples, and a trailing part shorter than a segment is
dropped. Each segment is multiplied by a periodic hann window,
w_k = 0.5 - 0.5 cos(2 pi k / L), or by a rect window. One FFT runs over
every segment of every row. The squared magnitudes are averaged over a
row's segments and scaled by 1/(fs * U), U = sum(w^2). That gives a
two-sided density, so unit-variance white noise gives a flat 1/fs. Hann
with 50% overlap is the default. `_plan` checks the arguments, and the
kernel `_welch_rows` runs on one curve of one block of paths at a time, in
work arrays that an `EnsembleWelch` makes once and reuses for every block.
`expected_psd` is the estimate's exact expectation for a curve of taps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .analytic import tap_autocorr
from .stochastic import TWO_PI, ParameterError, Taps, _step_rate


@dataclass(frozen=True)
class SpectrumEstimate:
    """Estimated PSD on a frequency grid (Hz, offset from carrier), with the
    standard error of each bin's mean over paths."""

    freqs: np.ndarray
    psd: np.ndarray
    se: np.ndarray
    n_segments: int

    def __post_init__(self):
        for name in ("freqs", "psd", "se"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not self.freqs.ndim == 1 or not self.freqs.shape == self.psd.shape == self.se.shape:
            raise ParameterError("frequency grid, PSD and standard error shape mismatch")

    def interp(self, freqs) -> np.ndarray:
        return np.interp(freqs, self.freqs, self.psd)


def _window(kind: str, length: int) -> np.ndarray:
    """Periodic hann or rect window of `length` samples."""
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    return np.ones(length)


class _Plan(NamedTuple):
    """What a Welch estimate needs besides its data: the window, the step
    between segment starts, the segments per row, and the density scale
    fs * sum(w^2)."""

    win: np.ndarray
    step: int
    segments: int
    scale: float


def _plan(n: int, fs: float, segment_len: int, overlap: float, window: str) -> _Plan:
    """Check the arguments of a Welch estimate over rows of n samples and
    return its plan."""
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


def _welch_rows(work: EnsembleWelch, rows: int) -> np.ndarray:
    """The Welch densities of the first `rows` rows of work.z, in FFT order."""
    spec = work.spec[:rows]
    np.multiply(work.segs[:rows], work.plan.win, out=spec)
    np.fft.fft(spec, axis=-1, out=spec)
    parts = spec.view(float)  # real and imaginary parts, squared in one pass
    np.square(parts, out=parts)
    power = spec.real
    power += spec.imag
    psd = np.mean(power, axis=1)
    psd /= work.plan.scale
    return psd


def _add_rows(total: np.ndarray, rows: np.ndarray):
    """Add the rows of the 2-d array `rows` to `total` one after another, in
    row order, as a loop `total += row` would: one reduction down the stack
    [total; rows]."""
    np.add.reduce(np.concatenate((total[None], rows)), axis=0, out=total)


def expected_psd(beta: float, taps: Taps, dt: float, segment_len: int,
                 window: str = "hann") -> np.ndarray:
    """The exact expectation of `EnsembleWelch`'s estimate for the
    phase of `taps`, on its centred grid: with R = `analytic.tap_autocorr`
    and c_w(k) = sum_a w_a w_(a-k) the window's autocorrelation,

        E[S](f_m) = 1/(fs U) sum_{|k| < L} R(k dt) c_w(k) e^{-j 2 pi m k / L},

    the 2L - 1 terms folded onto k mod L and transformed by one FFT (Welch,
    1967). exp(j phi) is stationary (`estimate_curves`' phases have no start-up
    transient), so every segment has this expectation, at any overlap."""
    fs = _step_rate(dt)
    plan = _plan(segment_len, fs, segment_len, 0.0, window)
    k = np.arange(1 - segment_len, segment_len)
    terms = tap_autocorr(beta, taps, k * dt) * np.correlate(plan.win, plan.win, "full")
    folded = terms[segment_len - 1:].copy()
    folded[1:] += terms[:segment_len - 1]
    return np.fft.fftshift(np.fft.fft(folded).real / plan.scale)


class EnsembleWelch:
    """The Welch PSD of exp(j*theta) of each of `curves` curves, averaged
    over its ensemble of phase paths of n samples at step dt, with each
    bin's standard error, added a block of at most `rows` paths at a time.

    The plan (`_plan`) and dt are checked, and the work arrays made, once:
    the phases' reduction (float64 turns, float32 angles), their phasors z,
    z's segments (views, laid out once), and the segments' windowed
    transforms, whose real parts then hold their powers. A block of fewer
    rows runs in the arrays' first rows. A curve's row densities, and their
    squares, are summed in path order and divided once at the end, so its
    estimate and its standard error depend on neither the split into
    blocks nor the other curves."""

    def __init__(self, curves: int, rows: int, n: int, dt: float, segment_len: int,
                 overlap: float = 0.5, window: str = "hann"):
        fs = _step_rate(dt)
        self.plan = plan = _plan(n, fs, segment_len, overlap, window)
        self.freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / fs))
        self.turn = np.empty((rows, n))
        self.reduced = np.empty((rows, n), np.float32)
        self.z = np.empty((rows, n), complex)
        self.segs = np.lib.stride_tricks.sliding_window_view(
            self.z, segment_len, axis=-1)[:, ::plan.step]
        self.spec = np.empty(self.segs.shape, complex)
        # per curve, its path densities' sum and their squares', and its paths
        self.sums = np.zeros((curves, 2, segment_len))
        self.paths = [0] * curves

    def add(self, curve: int, theta: np.ndarray):
        """Add the paths of `theta`, one (rows, n) block of phase samples of
        curve number `curve`, to its sums; ParameterError for a block of no
        rows, of more rows than the work arrays hold, or of another length.

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
        theta = np.asarray(theta, dtype=float)
        held, n = self.z.shape
        if theta.ndim != 2 or not 0 < len(theta) <= held or theta.shape[1] != n:
            raise ParameterError(f"a block must be (1 to {held}, {n}) phases, not {theta.shape}")
        rows = len(theta)
        turn, reduced, z = self.turn[:rows], self.reduced[:rows], self.z[:rows]
        np.divide(theta, TWO_PI, out=turn)
        np.rint(turn, out=turn)
        turn *= TWO_PI
        np.subtract(theta, turn, out=turn)
        np.maximum(turn, -np.pi, out=turn)
        np.minimum(turn, np.pi, out=reduced, casting="same_kind")
        np.cos(reduced, out=z.real, dtype=np.float32)
        np.sin(reduced, out=z.imag, dtype=np.float32)
        densities = _welch_rows(self, rows)
        total, square = self.sums[curve]
        _add_rows(total, densities)
        _add_rows(square, np.square(densities))
        self.paths[curve] += rows

    def estimates(self) -> List[SpectrumEstimate]:
        """Each curve's estimate on the centred grid of offsets from the
        carrier in Hz; ParameterError if a curve has no path. The standard
        error is the spread of the path densities about their mean,
        sqrt((sum d^2 - P mean^2) / (P (P - 1))) over the P paths; one path
        has no spread, and its SE is nan."""
        out = []
        for (total, square), paths in zip(self.sums, self.paths):
            if not paths:
                raise ParameterError("empty ensemble")
            mean = total / paths
            var = (np.maximum(square - mean * total, 0.0) / (paths * (paths - 1))
                   if paths > 1 else np.full(len(total), np.nan))
            out.append(SpectrumEstimate(self.freqs, np.fft.fftshift(mean),
                                        np.fft.fftshift(np.sqrt(var)),
                                        paths * self.plan.segments))
        return out
