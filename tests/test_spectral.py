import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oscavg import (
    EnsembleWelch,
    ExperimentConfig,
    ParameterError,
    delayed_taps,
    expected_psd,
    spectral,
    tap_autocorr,
    tap_ensemble,
    tap_psd,
    to_dbc_hz,
    wiener_ensemble,
)
from oscavg.experiments import BASE_TAPS, PAIR_TAPS, estimate_curves

TWO_PI = 2.0 * np.pi


def welch_rows(x, fs, segment_len=1024, overlap=0.5, window="hann"):
    """(centred frequency grid, the Welch density of each row of the 2-d
    array x on it, segments per row), through the kernel that
    EnsembleWelch.add runs on every block, in an EnsembleWelch's work
    arrays. The plan is checked at fs itself first, so a bad fs is refused
    in the plan's own message."""
    x = np.asarray(x)
    plan = spectral._plan(x.shape[-1], fs, segment_len, overlap, window)
    work = EnsembleWelch(1, *x.shape, 1.0 / fs, segment_len, overlap, window)
    work.z[...] = x
    freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / fs))
    return freqs, np.fft.fftshift(spectral._welch_rows(work, len(x)), axes=-1), plan.segments


def ensemble(blocks, dt, segment_len, overlap=0.5, window="hann"):
    """Each curve's estimate from `blocks` of (curves, rows, n) phases, each
    curve's rows of a block added in turn to one EnsembleWelch whose work
    arrays hold the largest block."""
    blocks = [np.asarray(block) for block in blocks]
    curves, _, n = blocks[0].shape
    ests = EnsembleWelch(curves, max(block.shape[1] for block in blocks), n, dt,
                         segment_len, overlap, window)
    for block in blocks:
        for curve, theta in enumerate(block):
            ests.add(curve, theta)
    return ests.estimates()


def lag_products(u, lags):
    """Per-row time average of u_t conj(u_(t+lag)) at each lag, shape
    (rows, lags): the mean over rows estimates the autocorrelation, and
    their spread gives its standard error. Lag 0 is |u_t|^2, real."""
    n = u.shape[1]
    return np.stack([np.mean(u[:, :n - lag] * np.conj(u[:, lag:]) if lag
                             else u.real**2 + u.imag**2, axis=1) for lag in lags], axis=1)


class TestWelchKernel:
    def test_tone_calibration(self):
        # unit complex exponential: one dominant bin, unit integrated power
        fs, n = 1e6, 1 << 15
        k = np.arange(n)
        x = np.exp(1j * TWO_PI * 1.25e5 * k / fs)
        freqs, (psd,), _ = welch_rows(x[None], fs=fs, segment_len=1024)
        peak = freqs[np.argmax(psd)]
        assert abs(peak - 1.25e5) <= fs / 1024
        assert np.trapezoid(psd, freqs) == pytest.approx(1.0, rel=0.01)

    def test_white_noise_density(self):
        fs = 1e6
        rng = np.random.default_rng(7)
        seg = 1024
        n = 64 * seg // 2 + seg  # 64 segments at 50% overlap
        x = rng.normal(size=n)
        _, (psd,), _ = welch_rows(x[None], fs=fs, segment_len=seg)
        assert float(np.mean(psd)) == pytest.approx(np.var(x) / fs, rel=0.02)

    def test_segment_too_long(self):
        with pytest.raises(ParameterError):
            welch_rows(np.zeros((1, 100)), fs=1.0, segment_len=256)

    def test_psd_nonnegative(self):
        rng = np.random.default_rng(8)
        _, psd, _ = welch_rows(rng.normal(size=(1, 4096)), fs=1.0, segment_len=256)
        assert np.all(psd >= 0)

    def test_wiener_phase_shift_matches_analytic(self):
        beta, dt = 1e4, 1e-6
        ens = wiener_ensemble(beta, 0.0, dt, 8192, master_seed=201, n_paths=200)
        est = ensemble([ens[None]], dt, segment_len=1024)[0]
        band = (np.abs(est.freqs) > 2 * 1e6 / 1024) & (np.abs(est.freqs) < 1e5)
        want = tap_psd(beta, ((0, 1.0, 0.0),), TWO_PI * est.freqs[band])
        diff_db = to_dbc_hz(est.psd[band]) - to_dbc_hz(want)
        assert np.max(np.abs(diff_db)) < 1.0

    def test_parseval(self):
        fs = 1e6
        rng = np.random.default_rng(9)
        for x in (rng.normal(size=1 << 14),
                  np.exp(1j * TWO_PI * 0.1 * np.arange(1 << 14)),
                  np.exp(1j * wiener_ensemble(1e4, 0.0, 1 / fs, 1 << 14, 202, 1)[0])):
            freqs, (psd,), _ = welch_rows(x[None], fs=fs, segment_len=1024)
            assert np.trapezoid(psd, freqs) == pytest.approx(
                float(np.mean(np.abs(x) ** 2)), rel=0.02)

    def test_estimator_consistency_sqrt2(self):
        # doubling the segment count shrinks per-bin std by ~sqrt(2)
        fs, seg, m = 1.0, 256, 300
        rng = np.random.default_rng(10)
        n1 = seg * 8
        stds = []
        for n in (n1, 2 * n1):
            ests = welch_rows(rng.normal(size=(m, n)), fs=fs, segment_len=seg, overlap=0.0)[1]
            stds.append(float(np.mean(np.std(ests, axis=0))))
        assert stds[0] / stds[1] == pytest.approx(np.sqrt(2.0), rel=0.15)

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize("window", ["hann", "rect"])
    @pytest.mark.parametrize("segment_len,n", [(256, 2048), (256, 2100), (255, 1999)])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_scipy_welch(self, kind, rows, segment_len, n, window, overlap):
        from scipy.signal import get_window, spectrogram, welch
        fs = 3e6
        rng = np.random.default_rng(11)
        size = (rows, n)
        x = rng.normal(size=size)
        if kind == "complex":
            x = x + 1j * rng.normal(size=size)
        win = get_window("hann", segment_len) if window == "hann" else np.ones(segment_len)
        noverlap = int(segment_len * overlap)
        freqs, psd = welch(x, fs=fs, window=win, nperseg=segment_len,
                           noverlap=noverlap, detrend=False, return_onesided=False,
                           scaling="density", axis=-1)
        got_freqs, got, segments = welch_rows(x, fs=fs, segment_len=segment_len,
                                              overlap=overlap, window=window)
        want = np.fft.fftshift(psd, axes=-1)
        assert got.shape == want.shape
        assert np.array_equal(got_freqs, np.fft.fftshift(freqs))
        assert np.max(np.abs(got - want) / want) <= 1e-12
        times = spectrogram(x, fs=fs, window=win, nperseg=segment_len,
                            noverlap=noverlap, detrend=False, return_onesided=False,
                            axis=-1)[1]
        assert segments == len(times)


# in a fresh interpreter: importing the package and running commands that
# need no quadrature or normal draw load no scipy module; the first normal
# draw imports scipy's ndtri and keeps calling it
SCIPY_FREE = """
import sys
from oscavg import cli, stochastic

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
out, cfg = sys.argv[1:]
cli.main(["figure-linear", "--paths", "4", "--out", out])
cli.main(["simulate", "--config", cfg, "--out", out])
assert not scipy_modules(), scipy_modules()
stochastic.sample_offset(stochastic.OffsetDist.normal(1.0), (1, 2))
import scipy.special
assert stochastic._ndtri is scipy.special.cython_special.ndtri
"""


def test_import_does_not_load_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("scenario = averaged_independent\noffsets = uniform:10\n")
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE, str(tmp_path / "out"), str(cfg)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


class TestEnsembleWelch:
    def test_reduction_order_stable(self):
        # each row of the kernel is the estimate of that row alone, so the
        # ensemble mean does not depend on how paths are ordered or blocked
        beta, dt = 1e4, 1e-6
        ens = wiener_ensemble(beta, 0.0, dt, 2048, master_seed=203, n_paths=16)
        u = np.exp(1j * ens)
        _, rows, segments = welch_rows(u, fs=1 / dt, segment_len=512)
        _, single, _ = welch_rows(u[5:6], fs=1 / dt, segment_len=512)
        assert rows.shape == (16, 512)
        assert np.array_equal(rows[5], single[0])
        assert np.array_equal(welch_rows(u[::-1], fs=1 / dt, segment_len=512)[1], rows[::-1])
        a = ensemble([ens[None]], dt, segment_len=512)[0]
        b = ensemble([ens[None, ::-1]], dt, segment_len=512)[0]
        assert np.max(np.abs(a.psd - b.psd) / np.abs(a.psd)) < 1e-12
        assert np.max(np.abs(a.se - b.se) / np.abs(a.se)) < 1e-9
        blocked = ensemble([ens[None, :3], ens[None, 3:4], ens[None, 4:]], dt,
                           segment_len=512)[0]
        assert np.array_equal(blocked.psd, a.psd)
        assert np.array_equal(blocked.se, a.se)
        assert blocked.n_segments == a.n_segments == 16 * segments

    def test_rows_added_in_row_order(self):
        # the one reduction that adds a block's densities, and their
        # squares, to a curve's sums is the loop over its rows, bit for bit
        rng = np.random.default_rng(214)
        for rows, bins in [(1, 1), (2, 3), (7, 256), (51, 256), (130, 17)]:
            total = rng.random(bins) * 10.0 ** rng.integers(-3, 4)
            block = rng.random((rows, bins)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
            want = total.copy()
            for row in block:
                want += row
            spectral._add_rows(total, block)
            assert np.array_equal(total, want)

    @pytest.mark.parametrize("rows", [[1, 5, 2, 7], [7, 2, 5, 1]])
    def test_work_arrays_reused_across_blocks(self, monkeypatch, rows):
        # blocks whose row counts rise and fall give, bit for bit, the
        # estimate of one block of every path; every block runs in the
        # first rows of the one set of work arrays
        dt, seg = 1e-6, 256
        ens = wiener_ensemble(1e4, 0.0, dt, 1024, master_seed=215, n_paths=sum(rows))
        curves = np.stack([ens, 0.5 * ens + 3.0])
        want = ensemble([curves], dt, segment_len=seg)
        ran = []
        kernel = spectral._welch_rows

        def recorded(work, n):
            ran.append((work.z, n))
            return kernel(work, n)

        monkeypatch.setattr(spectral, "_welch_rows", recorded)
        edges = np.cumsum([0] + rows)
        got = ensemble([curves[:, a:b] for a, b in zip(edges, edges[1:])], dt,
                       segment_len=seg)
        assert [n for _, n in ran] == [n for n in rows for _ in curves]
        assert all(z is ran[0][0] and len(z) == max(rows) for z, _ in ran)
        for est, alone in zip(got, want):
            assert np.array_equal(est.psd, alone.psd)
            assert np.array_equal(est.se, alone.se)
            assert est.n_segments == alone.n_segments

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="empty ensemble"):
            EnsembleWelch(2, 2, 128, 1.0, 64).estimates()
        ests = EnsembleWelch(2, 2, 128, 1.0, 64)
        ests.add(0, np.zeros((2, 128)))
        with pytest.raises(ParameterError, match="empty ensemble"):  # curve 1 has no path
            ests.estimates()

    @pytest.mark.parametrize("shape", [
        (0, 128),      # no row
        (3, 128),      # more rows than the work arrays hold
        (2, 256),      # another length
        (128,),        # one path, not a block of them
        (1, 2, 128)])  # a block of curves
    def test_block_not_of_the_work_arrays_shape_rejected(self, shape):
        ests = EnsembleWelch(1, 2, 128, 1.0, 64)
        with pytest.raises(ParameterError, match=r"a block must be \(1 to 2, 128\) phases"):
            ests.add(0, np.zeros(shape))
        assert ests.paths == [0] and not ests.sums.any()

    @settings(max_examples=30, deadline=None)
    @given(head=st.lists(st.integers(2, 8), min_size=1, max_size=5), data=st.data(),
           overlap=st.sampled_from([0.0, 0.5, 0.75]), window=st.sampled_from(["hann", "rect"]))
    def test_non_increasing_blocks_give_the_one_block_estimate(self, head, data, overlap,
                                                                 window):
        # blocks as the figures' one pass adds them, none of more rows than
        # the one before and the last ragged, against one block of every
        # path: every curve's density, SE and segment count, bit for bit
        head = sorted(head, reverse=True)
        rows = head + [data.draw(st.integers(1, head[-1] - 1), label="last")]
        dt, n, seg = 1e-6, 256, 64
        ens = wiener_ensemble(1e4, 0.0, dt, n, master_seed=216, n_paths=sum(rows))
        curves = np.stack([ens, 0.5 * ens + 3.0])
        edges = np.cumsum([0] + rows)
        blocked = EnsembleWelch(2, rows[0], n, dt, seg, overlap, window)
        for a, b in zip(edges, edges[1:]):
            for c, theta in enumerate(curves[:, a:b]):
                blocked.add(c, theta)
        whole = EnsembleWelch(2, sum(rows), n, dt, seg, overlap, window)
        for c, theta in enumerate(curves):
            whole.add(c, theta)
        for got, want in zip(blocked.estimates(), whole.estimates()):
            assert np.array_equal(got.psd, want.psd)
            assert np.array_equal(got.se, want.se)
            assert got.n_segments == want.n_segments

    def test_each_curve_estimated_as_if_alone(self):
        # two curves in one pass, blocks of both at once, against each alone
        ens = wiener_ensemble(1e4, 0.0, 1e-6, 2048, master_seed=213, n_paths=6)
        pair = np.stack([ens[:3], 1e3 + ens[3:]])
        got = ensemble([pair[:, :2], pair[:, 2:]], 1e-6, segment_len=512)
        for curve, est in zip(pair, got):
            want = ensemble([curve[None]], 1e-6, segment_len=512)[0]
            assert np.array_equal(est.psd, want.psd)
            assert est.n_segments == want.n_segments

    @pytest.mark.parametrize("block_shapes", [
        [(12, 2048), (3, 2048), (1, 2048)],    # shrinking
        [(1, 2048), (3, 2048), (12, 2048)],    # growing in rows
        [(1, 2048)] * 5,                       # one row each
    ])
    def test_matches_reference_written_out(self, block_shapes):
        # the ensemble estimate is, bit for bit, the Welch density of each
        # path's single-precision exp(j theta), summed row by row in path
        # order and divided by the path count, whether the blocks shrink or
        # grow in rows
        dt, seg = 1e-6, 512
        blocks, first = [], 0
        for rows, n in block_shapes:
            blocks.append(wiener_ensemble(1e4, 0.0, dt, n, master_seed=211, n_paths=rows,
                                          first_index=first))
            first += rows
        densities, n_segments = [], 0
        for theta in blocks:
            reduced = (theta - TWO_PI * np.rint(theta / TWO_PI)).astype(np.float32)
            phasor = np.cos(reduced).astype(float) + 1j * np.sin(reduced).astype(float)
            freqs, psd, segments = welch_rows(phasor, fs=1 / dt, segment_len=seg)
            densities.extend(psd)
            n_segments += len(psd) * segments
        total = densities[0].copy()
        for row in densities[1:]:
            total += row
        got = ensemble([b[None] for b in blocks], dt, segment_len=seg)[0]
        assert np.array_equal(got.psd, total / len(densities))
        assert np.array_equal(got.freqs, freqs)
        assert got.n_segments == n_segments
        # the standard error from the squares summed row by row in path
        # order, bit for bit, and it is the spread of the path densities
        square = densities[0] ** 2
        for row in densities[1:]:
            square += row * row
        paths = len(densities)
        mean = total / paths
        assert np.array_equal(got.se, np.sqrt(np.maximum(square - mean * total, 0.0)
                                              / (paths * (paths - 1))))
        se = np.std(densities, axis=0, ddof=1) / np.sqrt(paths)
        assert np.max(np.abs(got.se - se) / se) < 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_single_precision_phasors_within_bound_of_float64(self, seed):
        # every bin of the four default figure-log curves, path by path,
        # against the Welch density of the float64 phasors
        dt, seg = 2.5e-8, 4096
        for taps in (BASE_TAPS, PAIR_TAPS, delayed_taps(1e-6), delayed_taps(1e-7)):
            theta = tap_ensemble(1e4, [taps], dt, 4 * seg, master_seed=seed, n_paths=2)[0]
            want, bound = _float64_phasor_density_and_bound(theta, dt, seg)
            for row, s64, slack in zip(theta, want, bound):
                got = ensemble([row[None, None]], dt, segment_len=seg)[0].psd
                assert np.all(np.abs(got - s64) <= slack)

    def test_bound_fails_without_float64_reduction(self):
        # the float32 cast of theta itself, at |theta| ~ 1e3 rad, is off by
        # half a float32 step there (3e-5 rad), beyond the bound
        dt, seg = 2.5e-8, 4096
        theta = 1e3 + tap_ensemble(1e4, [BASE_TAPS], dt, 4 * seg, master_seed=1, n_paths=3)[0]
        want, bound = _float64_phasor_density_and_bound(theta, dt, seg)
        cast = theta.astype(np.float32)
        got = welch_rows(np.cos(cast).astype(float) + 1j * np.sin(cast).astype(float),
                         fs=1 / dt, segment_len=seg)[1]
        assert np.any(np.abs(got - want) > bound)

    def test_caller_block_not_modified(self):
        theta = wiener_ensemble(1e4, 5e3, 1e-6, 2048, master_seed=212, n_paths=3)
        kept = theta.copy()
        theta.flags.writeable = False
        ensemble([theta[None], theta[None, :1]], 1e-6, segment_len=512)
        assert np.array_equal(theta, kept)

    @pytest.mark.parametrize("phase", [1e17, -1e300, 1.7e308])
    def test_huge_finite_phases_give_finite_estimate(self, phase):
        # beyond ~2**52 rad a float64 phase holds no angle, and the reduced
        # phase can be far outside [-pi, pi] (about -2e292 at 1.7e308)
        theta = phase + np.arange(128.0).reshape(2, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = ensemble([theta[None]], 1e-6, segment_len=16)[0]
        assert np.all(np.isfinite(est.psd))

    @pytest.mark.parametrize("segment_len,fs", [(0, 1.0), (-4, 1.0), (8, 0.0),
                                                (8, float("nan")), (8, float("inf")),
                                                (1, 1.0)])  # a hann of one sample is [0]
    def test_bad_segment_len_or_fs_rejected(self, monkeypatch, segment_len, fs):
        message = _rejected_alike(monkeypatch, segment_len=segment_len, fs=fs)
        if segment_len == 1:
            assert "hann window" in message

    @pytest.mark.parametrize("overlap,window", [(1.0, "hann"), (-0.5, "hann"),
                                                (0.5, "hamming")])
    def test_bad_overlap_or_window_rejected(self, monkeypatch, overlap, window):
        _rejected_alike(monkeypatch, overlap=overlap, window=window)


def _float64_phasor_density_and_bound(theta, dt, seg):
    """Per path of `theta`, the Welch density (hann, 50 % overlap) of its
    float64 phasors cos theta + j sin theta, and the bound on how far the
    density of phasors with components within 2**-22 of them can be: the
    mean over the path's segments of (2 |X| E + E**2) / (fs sum(w**2)),
    with X a segment's float64 transform and E = sqrt(2) 2**-22 sum|w|."""
    fs = 1 / dt
    z = np.cos(theta) + 1j * np.sin(theta)
    win = 0.5 - 0.5 * np.cos(TWO_PI * np.arange(seg) / seg)
    segments = np.lib.stride_tricks.sliding_window_view(z, seg, axis=-1)[:, ::seg // 2]
    x = np.abs(np.fft.fftshift(np.fft.fft(segments * win, axis=-1), axes=-1))
    e = np.sqrt(2) * 2.0**-22 * np.sum(np.abs(win))
    bound = np.mean(2 * x * e + e**2, axis=1) / (fs * np.sum(win**2))
    return welch_rows(z, fs=fs, segment_len=seg)[1], bound


def _rejected_alike(monkeypatch, segment_len=8, fs=1.0, overlap=0.5, window="hann"):
    """EnsembleWelch refuses the arguments as the kernel's plan does, and
    before any FFT runs; so does expected_psd, which takes no overlap.
    Both take dt = 1/fs, so fs = 0 is dt = inf, and fs = inf is dt = 0: a
    bad fs reaches them as a bad dt, refused in the message that names dt.
    Any other refusal of EnsembleWelch has the plan's message. Returns
    the plan's message."""
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran before the arguments were checked")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    args = {"segment_len": segment_len, "overlap": overlap, "window": window}
    dt = np.inf if fs == 0 else 1.0 / fs
    with pytest.raises(ParameterError) as direct:
        welch_rows(np.ones((2, 16)), fs=fs, **args)
    with pytest.raises(ParameterError) as ensemble:
        EnsembleWelch(1, 2, 16, dt, **args)
    if 0 < fs < np.inf:
        assert str(ensemble.value) == str(direct.value)
    else:
        assert str(ensemble.value).startswith("dt=")
    if 0 <= overlap < 1:
        with pytest.raises(ParameterError):
            expected_psd(1e4, BASE_TAPS, dt, segment_len, window)
    return str(direct.value)


def expected_by_double_sum(beta, taps, dt, segment_len, window):
    """E[S](f_m) written out: sum_a sum_b w_a w_b R((a - b) dt)
    e^{-j 2 pi m (a - b) / L} / (fs U), over the centred grid's bins m."""
    w = spectral._window(window, segment_len)
    a = np.arange(segment_len)
    gap = a[:, None] - a[None, :]
    weights = np.outer(w, w) * tap_autocorr(beta, taps, gap * dt)
    m = np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / segment_len))
    phase = np.exp(-2j * np.pi * m[:, None, None] * gap / segment_len)
    return np.sum(weights * phase, axis=(1, 2)).real * dt / np.sum(w**2)


class TestExpectedPsd:
    DT = 1e-5  # pi beta dt = 0.31 at beta = 1e4: R falls to 0.08 over 8 steps
    CURVES = {"base": BASE_TAPS, "pair": PAIR_TAPS, "delayed": delayed_taps(3e-5),
              "cascade": ((0, 0.25, 0.0), (0, 0.25, 2e-5), (1, 0.3, 0.0), (1, 0.2, 5e-5))}

    @pytest.mark.parametrize("segment_len", [8, 16])
    @pytest.mark.parametrize("window", ["hann", "rect"])
    @pytest.mark.parametrize("curve", CURVES)
    def test_matches_double_sum(self, curve, window, segment_len):
        taps = self.CURVES[curve]
        got = expected_psd(1e4, taps, self.DT, segment_len, window)
        want = expected_by_double_sum(1e4, taps, self.DT, segment_len, window)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        # Parseval: the mean density times fs is R(0) = 1
        assert np.mean(got) / self.DT == pytest.approx(1.0, rel=1e-12)

    def test_list_taps_give_the_tuple_taps_floats(self):
        taps = self.CURVES["cascade"]
        got = expected_psd(1e4, [list(tap) for tap in taps], self.DT, 16)
        assert np.array_equal(got, expected_psd(1e4, taps, self.DT, 16))


class TestAutocorrEstimate:
    def test_zero_lag_unit_modulus(self):
        ens = wiener_ensemble(1e4, 0.0, 1e-6, 256, master_seed=204, n_paths=8)
        r = lag_products(np.exp(1j * ens), range(11)).mean(axis=0)
        assert r[0] == 1.0 + 0.0j

    def test_wiener_matches_exponential(self):
        beta, dt = 1e4, 1e-6
        ens = wiener_ensemble(beta, 0.0, dt, 64, master_seed=205, n_paths=8000)
        u = np.exp(1j * ens)
        lags = list(range(1, 21))
        per_path = lag_products(u, lags).real
        est = per_path.mean(axis=0)
        se = per_path.std(axis=0) / np.sqrt(per_path.shape[0])
        want = np.exp(-np.pi * beta * np.array(lags) * dt)
        assert np.all(np.abs(est - want) < 3 * se)

    def test_delayed_average_kink(self):
        # log-autocorr slope roughly doubles across the delay lag
        beta, dt, lag = 1e4, 1e-6, 20
        ens = tap_ensemble(beta, [delayed_taps(lag * dt)], dt, 4096, master_seed=206,
                           n_paths=400)[0]
        r = lag_products(np.exp(1j * ens), range(41)).real.mean(axis=0)
        inner = np.arange(2, 19)
        outer = np.arange(22, 39)
        s_in = np.polyfit(inner * dt, np.log(r[inner]), 1)[0]
        s_out = np.polyfit(outer * dt, np.log(r[outer]), 1)[0]
        assert s_out / s_in == pytest.approx(2.0, rel=0.15)
        assert s_in == pytest.approx(-np.pi * beta / 2.0, rel=0.1)

    def test_cascade_over_two_sources_matches_model(self):
        # both sides of the tap model: the ensemble's autocorrelation against
        # the closed form, within 3 standard errors at every lag
        beta, dt = 1e4, 1e-6
        taps = ((0, 0.25, 0.0), (0, 0.25, 10 * dt), (1, 0.3, 0.0), (1, 0.2, 25 * dt))
        ens = tap_ensemble(beta, [taps], dt, 128, master_seed=210, n_paths=4000)[0]
        lags = list(range(1, 41))
        per_path = lag_products(np.exp(1j * ens), lags).real
        est = per_path.mean(axis=0)
        se = per_path.std(axis=0) / np.sqrt(per_path.shape[0])
        want = tap_autocorr(beta, taps, np.array(lags) * dt)
        assert np.all(np.abs(est - want) < 3 * se)


class TestPsdOfPhaseShift:
    def test_zero_diffusion_spike(self):
        ens = np.zeros((4, 4096))
        est = ensemble([ens[None]], 1e-6, segment_len=1024)[0]
        peak = est.freqs[np.argmax(est.psd)]
        assert abs(peak) <= 1e6 / 1024
        assert np.trapezoid(est.psd, est.freqs) == pytest.approx(1.0, rel=0.01)

    def test_averaged_pair_matches_half_rate_lorentzian(self):
        # the figure commands' estimator and blocks, on 4096-sample paths
        beta, dt = 1e4, 1e-6
        cfg = ExperimentConfig(beta=beta, n_paths=200, segment_len=1024, seed=207)
        est = estimate_curves(cfg, [PAIR_TAPS], dt)[0]
        band = (np.abs(est.freqs) > 2 * 1e6 / 1024) & (np.abs(est.freqs) < 1e5)
        want = tap_psd(beta, PAIR_TAPS, TWO_PI * est.freqs[band])
        diff_db = to_dbc_hz(est.psd[band]) - to_dbc_hz(want)
        assert np.max(np.abs(diff_db)) < 1.0

    def test_delayed_average_notches(self):
        # delay of 10 us: notches at odd multiples of 50 kHz, spacing 1/delta
        beta, dt, delta = 1e4, 1e-6, 1e-5
        cfg = ExperimentConfig(beta=beta, n_paths=200, segment_len=2048, seed=209)
        est = estimate_curves(cfg, [delayed_taps(delta)], dt)[0]
        notch = est.interp(np.array([0.5e5, 1.5e5, 2.5e5]))
        mid = est.interp(np.array([1.0e5, 2.0e5, 3.0e5]))
        assert np.all(notch < mid)
