import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oscavg import (
    ExperimentConfig,
    ParameterError,
    autocorr_per_path,
    delayed_taps,
    psd_of_phase_shift,
    tap_autocorr,
    tap_ensemble,
    tap_psd,
    to_dbc_hz,
    welch_psd,
    wiener_ensemble,
)
from oscavg.experiments import (
    BASE_TAPS,
    PAIR_TAPS,
    TAG_DELAYED,
    estimate_delayed,
    estimate_independent,
)

TWO_PI = 2.0 * np.pi


class TestWelchPsd:
    def test_tone_calibration(self):
        # unit complex exponential: one dominant bin, unit integrated power
        fs, n = 1e6, 1 << 15
        k = np.arange(n)
        x = np.exp(1j * TWO_PI * 1.25e5 * k / fs)
        est = welch_psd(x, fs=fs, segment_len=1024)
        peak = est.freqs[np.argmax(est.psd)]
        assert abs(peak - 1.25e5) <= fs / 1024
        assert est.total_power() == pytest.approx(1.0, rel=0.01)

    def test_white_noise_density(self):
        fs = 1e6
        rng = np.random.default_rng(7)
        seg = 1024
        n = 64 * seg // 2 + seg  # 64 segments at 50% overlap
        x = rng.normal(size=n)
        est = welch_psd(x, fs=fs, segment_len=seg)
        assert float(np.mean(est.psd)) == pytest.approx(np.var(x) / fs, rel=0.02)

    def test_segment_too_long(self):
        with pytest.raises(ParameterError):
            welch_psd(np.zeros(100), fs=1.0, segment_len=256)

    def test_psd_nonnegative(self):
        rng = np.random.default_rng(8)
        est = welch_psd(rng.normal(size=4096), fs=1.0, segment_len=256)
        assert np.all(est.psd >= 0)

    def test_wiener_phase_shift_matches_analytic(self):
        beta, dt = 1e4, 1e-6
        ens = wiener_ensemble(beta, 0.0, dt, 8192, master_seed=201, n_paths=200)
        est = psd_of_phase_shift([ens], dt, segment_len=1024)
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
            est = welch_psd(x, fs=fs, segment_len=1024)
            assert est.total_power() == pytest.approx(
                float(np.mean(np.abs(x) ** 2)), rel=0.02)

    def test_estimator_consistency_sqrt2(self):
        # doubling the segment count shrinks per-bin std by ~sqrt(2)
        fs, seg, m = 1.0, 256, 300
        rng = np.random.default_rng(10)
        n1 = seg * 8
        stds = []
        for n in (n1, 2 * n1):
            ests = np.stack([
                welch_psd(rng.normal(size=n), fs=fs, segment_len=seg,
                          overlap=0.0).psd for _ in range(m)])
            stds.append(float(np.mean(np.std(ests, axis=0))))
        assert stds[0] / stds[1] == pytest.approx(np.sqrt(2.0), rel=0.15)

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize("window", ["hann", "rect"])
    @pytest.mark.parametrize("segment_len,n", [(256, 2048), (256, 2100), (255, 1999)])
    @pytest.mark.parametrize("shape", ["1d", "rows"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_scipy_welch(self, kind, shape, segment_len, n, window, overlap):
        from scipy.signal import get_window, spectrogram, welch
        fs = 3e6
        rng = np.random.default_rng(11)
        size = (n,) if shape == "1d" else (3, n)
        x = rng.normal(size=size)
        if kind == "complex":
            x = x + 1j * rng.normal(size=size)
        win = get_window("hann", segment_len) if window == "hann" else np.ones(segment_len)
        noverlap = int(segment_len * overlap)
        freqs, psd = welch(x, fs=fs, window=win, nperseg=segment_len,
                           noverlap=noverlap, detrend=False, return_onesided=False,
                           scaling="density", axis=-1)
        est = welch_psd(x, fs=fs, segment_len=segment_len, overlap=overlap, window=window)
        want = np.fft.fftshift(psd, axes=-1)
        assert est.psd.shape == want.shape
        assert np.array_equal(est.freqs, np.fft.fftshift(freqs))
        assert np.max(np.abs(est.psd - want) / want) <= 1e-12
        times = spectrogram(x, fs=fs, window=win, nperseg=segment_len,
                            noverlap=noverlap, detrend=False, return_onesided=False,
                            axis=-1)[1]
        assert est.n_segments == (1 if shape == "1d" else 3) * len(times)


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
assert stochastic._ndtri is scipy.special.ndtri
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
        # each row of a 2-d call is the estimate of that row alone, so the
        # ensemble mean does not depend on how paths are ordered or blocked
        beta, dt = 1e4, 1e-6
        ens = wiener_ensemble(beta, 0.0, dt, 2048, master_seed=203, n_paths=16)
        u = np.exp(1j * ens)
        rows = welch_psd(u, fs=1 / dt, segment_len=512)
        single = welch_psd(u[5], fs=1 / dt, segment_len=512)
        assert rows.psd.shape == (16, 512)
        assert np.array_equal(rows.psd[5], single.psd)
        assert rows.n_segments == 16 * single.n_segments
        assert np.array_equal(welch_psd(u[::-1], fs=1 / dt, segment_len=512).psd,
                              rows.psd[::-1])
        a = psd_of_phase_shift([ens], dt, segment_len=512).psd
        b = psd_of_phase_shift([ens[::-1]], dt, segment_len=512).psd
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12
        blocked = psd_of_phase_shift([ens[:3], ens[3:4], ens[4:]], dt, segment_len=512)
        assert np.array_equal(blocked.psd, a)
        assert blocked.n_segments == rows.n_segments

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            welch_psd(np.zeros((0, 128)), fs=1.0, segment_len=64)
        with pytest.raises(ParameterError):
            welch_psd(np.float64(1.0), fs=1.0, segment_len=1)
        with pytest.raises(ParameterError):
            psd_of_phase_shift([], 1.0, segment_len=64)

    @pytest.mark.parametrize("block_shapes", [
        [(12, 2048), (3, 2048), (1, 2048)],    # shrinking
        [(1, 2048), (3, 2048), (12, 2048)],    # growing in rows
        [(2, 1024), (2, 4096), (3, 2560)],     # growing in length: more segments a row
        [(1, 2048)] * 5,                       # one row each
    ])
    def test_matches_reference_written_out(self, block_shapes):
        # the ensemble estimate is, bit for bit, the Welch density of each
        # path's single-precision exp(j theta), summed row by row in path
        # order and divided by the path count; the blocks shrink and grow as
        # the buffers must
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
            est = welch_psd(phasor, fs=1 / dt, segment_len=seg)
            densities.extend(est.psd)
            n_segments += est.n_segments
        total = densities[0].copy()
        for row in densities[1:]:
            total += row
        got = psd_of_phase_shift(blocks, dt, segment_len=seg)
        assert np.array_equal(got.psd, total / len(densities))
        assert np.array_equal(got.freqs, est.freqs)
        assert got.n_segments == n_segments

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_single_precision_phasors_within_bound_of_float64(self, seed):
        # every bin of the four default figure-log curves, path by path,
        # against the Welch density of the float64 phasors
        dt, seg = 2.5e-8, 4096
        for taps in (BASE_TAPS, PAIR_TAPS, delayed_taps(1e-6, TAG_DELAYED),
                     delayed_taps(1e-7, TAG_DELAYED + 1)):
            theta = tap_ensemble(1e4, taps, dt, 4 * seg, master_seed=seed, n_paths=2)
            want, bound = _float64_phasor_density_and_bound(theta, dt, seg)
            for row, s64, slack in zip(theta, want, bound):
                got = psd_of_phase_shift([row[None]], dt, segment_len=seg).psd
                assert np.all(np.abs(got - s64) <= slack)

    def test_bound_fails_without_float64_reduction(self):
        # the float32 cast of theta itself, at |theta| ~ 1e3 rad, is off by
        # half a float32 step there (3e-5 rad), beyond the bound
        dt, seg = 2.5e-8, 4096
        theta = 1e3 + tap_ensemble(1e4, BASE_TAPS, dt, 4 * seg, master_seed=1, n_paths=3)
        want, bound = _float64_phasor_density_and_bound(theta, dt, seg)
        cast = theta.astype(np.float32)
        got = welch_psd(np.cos(cast).astype(float) + 1j * np.sin(cast).astype(float),
                        fs=1 / dt, segment_len=seg).psd
        assert np.any(np.abs(got - want) > bound)

    def test_caller_block_not_modified(self):
        theta = wiener_ensemble(1e4, 5e3, 1e-6, 2048, master_seed=212, n_paths=3)
        kept = theta.copy()
        theta.flags.writeable = False
        psd_of_phase_shift([theta, theta[:1]], 1e-6, segment_len=512)
        assert np.array_equal(theta, kept)

    @pytest.mark.parametrize("phase", [1e17, -1e300, 1.7e308])
    def test_huge_finite_phases_give_finite_estimate(self, phase):
        # beyond ~2**52 rad a float64 phase holds no angle, and the reduced
        # phase can be far outside [-pi, pi] (about -2e292 at 1.7e308)
        theta = phase + np.arange(128.0).reshape(2, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = psd_of_phase_shift([theta], 1e-6, segment_len=16)
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
    return welch_psd(z, fs=fs, segment_len=seg).psd, bound


def _rejected_alike(monkeypatch, segment_len=8, fs=1.0, overlap=0.5, window="hann"):
    """Both Welch entry points refuse the arguments with the same message,
    and before any FFT runs. psd_of_phase_shift takes dt = 1/fs, so fs = 0
    is dt = inf, and fs = inf is dt = 0. Returns the message."""
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran before the arguments were checked")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    args = {"segment_len": segment_len, "overlap": overlap, "window": window}
    with pytest.raises(ParameterError) as direct:
        welch_psd(np.ones((2, 16)), fs=fs, **args)
    with pytest.raises(ParameterError) as ensemble:
        psd_of_phase_shift([np.zeros((2, 16))], np.inf if fs == 0 else 1.0 / fs, **args)
    assert str(ensemble.value) == str(direct.value)
    return str(direct.value)


class TestAutocorrEstimate:
    def test_zero_lag_unit_modulus(self):
        ens = wiener_ensemble(1e4, 0.0, 1e-6, 256, master_seed=204, n_paths=8)
        r = autocorr_per_path(np.exp(1j * ens), range(11)).mean(axis=0)
        assert r[0] == 1.0 + 0.0j

    def test_wiener_matches_exponential(self):
        beta, dt = 1e4, 1e-6
        ens = wiener_ensemble(beta, 0.0, dt, 64, master_seed=205, n_paths=8000)
        u = np.exp(1j * ens)
        lags = list(range(1, 21))
        per_path = autocorr_per_path(u, lags).real
        est = per_path.mean(axis=0)
        se = per_path.std(axis=0) / np.sqrt(per_path.shape[0])
        want = np.exp(-np.pi * beta * np.array(lags) * dt)
        assert np.all(np.abs(est - want) < 3 * se)

    def test_delayed_average_kink(self):
        # log-autocorr slope roughly doubles across the delay lag
        beta, dt, lag = 1e4, 1e-6, 20
        ens = tap_ensemble(beta, delayed_taps(lag * dt), dt, 4096, master_seed=206,
                           n_paths=400)
        r = autocorr_per_path(np.exp(1j * ens), range(41)).real.mean(axis=0)
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
        ens = tap_ensemble(beta, taps, dt, 128, master_seed=210, n_paths=4000)
        lags = list(range(1, 41))
        per_path = autocorr_per_path(np.exp(1j * ens), lags).real
        est = per_path.mean(axis=0)
        se = per_path.std(axis=0) / np.sqrt(per_path.shape[0])
        want = tap_autocorr(beta, taps, np.array(lags) * dt)
        assert np.all(np.abs(est - want) < 3 * se)

    def test_lag_bounds(self):
        with pytest.raises(ParameterError):
            autocorr_per_path(np.ones((2, 16), dtype=complex), [15, 16])
        # a negative lag would average the wrong samples, a fractional one
        # cannot index them
        for lag in (-2, 2.5):
            with pytest.raises(ParameterError):
                autocorr_per_path(np.exp(1j * np.arange(8.0)), [lag])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            autocorr_per_path(np.zeros((0, 8)), [2])


class TestPsdOfPhaseShift:
    def test_zero_diffusion_spike(self):
        ens = np.zeros((4, 4096))
        est = psd_of_phase_shift([ens], 1e-6, segment_len=1024)
        peak = est.freqs[np.argmax(est.psd)]
        assert abs(peak) <= 1e6 / 1024
        assert est.total_power() == pytest.approx(1.0, rel=0.01)

    def test_averaged_pair_matches_half_rate_lorentzian(self):
        # the figure commands' estimator and blocks, on 4096-sample paths
        beta, dt = 1e4, 1e-6
        cfg = ExperimentConfig(beta=beta, n_paths=200, segment_len=1024, seed=207)
        est = estimate_independent(cfg, dt)
        band = (np.abs(est.freqs) > 2 * 1e6 / 1024) & (np.abs(est.freqs) < 1e5)
        want = tap_psd(beta, PAIR_TAPS, TWO_PI * est.freqs[band])
        diff_db = to_dbc_hz(est.psd[band]) - to_dbc_hz(want)
        assert np.max(np.abs(diff_db)) < 1.0

    def test_delayed_average_notches(self):
        # delay of 10 us: notches at odd multiples of 50 kHz, spacing 1/delta
        beta, dt, delta = 1e4, 1e-6, 1e-5
        cfg = ExperimentConfig(beta=beta, n_paths=200, segment_len=2048, seed=209)
        est = estimate_delayed(cfg, delta, dt)
        notch = est.interp(np.array([0.5e5, 1.5e5, 2.5e5]))
        mid = est.interp(np.array([1.0e5, 2.0e5, 3.0e5]))
        assert np.all(notch < mid)
