import os
import subprocess
import sys
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
from oscavg.experiments import PAIR_TAPS, estimate_delayed, estimate_independent
from oscavg.spectral import SpectralShapeError

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
        with pytest.raises(SpectralShapeError):
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


def test_import_does_not_load_scipy_signal():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import oscavg, sys; print('scipy.signal' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "False"


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
            psd_of_phase_shift([], 1.0, segment_len=64)


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
        with pytest.raises(SpectralShapeError):
            autocorr_per_path(np.ones((2, 16), dtype=complex), [15, 16])

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
