import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscavg import (
    OffsetDist,
    OscillatorSpec,
    ParameterError,
    PhasePath,
    SamplingError,
    autocorr_per_path,
    demodulate_phase,
    oscillator_waveform,
    sample_offset,
    stochastic,
    tap_ensemble,
    wiener_ensemble,
    wiener_path,
)

TWO_PI = 2.0 * np.pi


class TestWienerPath:
    def test_zero_diffusion_is_constant(self):
        p = wiener_path(0.0, 1.0, 1e-6, 500, (1, 0))
        assert np.all(p.samples == 1.0)

    def test_first_sample_is_theta0(self):
        p = wiener_path(1e4, 0.7, 1e-6, 10, (1, 0))
        assert p.samples[0] == 0.7

    def test_variance_matches_diffusion_law(self):
        # Var(theta_t - theta_0) = 2*pi*beta*t; one jump to t=1e-4 per path
        beta, t = 1e4, 1e-4
        ens = wiener_ensemble(beta, 0.0, t, 2, master_seed=101, n_paths=100_000)
        var = np.var(ens[:, 1] - ens[:, 0])
        assert var == pytest.approx(TWO_PI * beta * t, rel=0.02)  # ~6.283

    def test_determinism(self):
        a = wiener_path(1e4, 0.0, 1e-6, 1000, (42, 3))
        b = wiener_path(1e4, 0.0, 1e-6, 1000, (42, 3))
        assert np.array_equal(a.samples, b.samples)

    def test_order_independence(self):
        forward = [wiener_path(1e4, 0.0, 1e-6, 64, (7, i)).samples for i in range(4)]
        backward = [wiener_path(1e4, 0.0, 1e-6, 64, (7, i)).samples
                    for i in reversed(range(4))]
        for i in range(4):
            assert np.array_equal(forward[i], backward[3 - i])

    def test_distinct_indices_distinct_paths(self):
        a = wiener_path(1e4, 0.0, 1e-6, 64, (7, 0))
        b = wiener_path(1e4, 0.0, 1e-6, 64, (7, 1))
        assert not np.array_equal(a.samples, b.samples)

    def test_increment_moments(self):
        # standardized increments: near-zero skew and excess kurtosis
        p = wiener_path(1e4, 0.0, 1e-6, 1_000_001, (11, 0))
        inc = np.diff(p.samples)
        z = (inc - inc.mean()) / inc.std()
        skew = np.mean(z**3)
        exkurt = np.mean(z**4) - 3.0
        assert abs(skew) < 0.02
        assert abs(exkurt) < 0.05

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            wiener_path(-1.0, 0.0, 1e-6, 10, (0, 0))
        with pytest.raises(ParameterError):
            wiener_path(np.nan, 0.0, 1e-6, 10, (0, 0))
        with pytest.raises(ParameterError):
            wiener_path(1e4, 0.0, 0.0, 10, (0, 0))
        with pytest.raises(ParameterError):
            wiener_path(1e4, 0.0, 1e-6, 0, (0, 0))


class TestSampleOffset:
    def test_delta_returns_fixed_value(self):
        assert sample_offset(OffsetDist.delta(0.0), (0, 0)) == 0.0
        assert sample_offset(OffsetDist.delta(12.5), (0, 99)) == 12.5

    def test_uniform_variance(self):
        # Var(U(-f_o, f_o)) = f_o^2 / 3
        draws = np.array([sample_offset(OffsetDist.uniform(100.0), (5, i))
                          for i in range(500_000)])
        assert np.var(draws) == pytest.approx(100.0**2 / 3.0, rel=0.01)

    def test_normal_std(self):
        draws = np.array([sample_offset(OffsetDist.normal(50.0), (6, i))
                          for i in range(500_000)])
        assert np.std(draws) == pytest.approx(50.0, rel=0.01)

    @pytest.mark.parametrize("dist", [OffsetDist.uniform(100.0), OffsetDist.normal(50.0)])
    def test_draw_is_a_function_of_its_key(self, dist):
        keys = [(7, i) for i in range(50)] + [(8, 3), (0, 0), (2**64 - 1, 2**64 - 1)]
        first = [sample_offset(dist, k) for k in keys]
        assert [sample_offset(dist, k) for k in reversed(keys)] == first[::-1]
        assert [sample_offset(dist, k) for k in keys] == first

    @pytest.mark.parametrize("dist", [OffsetDist.uniform(100.0), OffsetDist.normal(50.0)])
    def test_neighbouring_keys_draw_distinct_values(self, dist):
        keys = [(m, i) for m in range(40) for i in range(40)]
        draws = [sample_offset(dist, k) for k in keys]
        assert len(set(draws)) == len(keys)

    def test_uniform_draws_within_half_width(self):
        draws = np.array([sample_offset(OffsetDist.uniform(3.0), (11, i))
                          for i in range(20_000)])
        assert np.all((draws >= -3.0) & (draws < 3.0))
        assert draws.min() < -2.99 and draws.max() > 2.99

    @pytest.mark.parametrize("bits", [0, 2**64 - 1])
    def test_extreme_hash_outputs(self, monkeypatch, bits):
        monkeypatch.setattr(stochastic, "_offset_bits", lambda master, index: bits)
        sign = 1.0 if bits else -1.0
        u = sample_offset(OffsetDist.uniform(100.0), (0, 0))
        assert -100.0 <= u < 100.0 and sign * u > 99.99
        z = sample_offset(OffsetDist.normal(1.0), (0, 0))
        # u = 2**-54 or its mirror: |z| is ndtri(2**-54) = 8.29
        assert np.isfinite(z) and sign * z == pytest.approx(8.29, abs=0.01)

    @pytest.mark.parametrize("seed_id", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (1.5, 0)])
    def test_key_outside_packable_range(self, seed_id):
        with pytest.raises(ParameterError):
            sample_offset(OffsetDist.normal(1.0), seed_id)

    def test_bad_descriptor(self):
        with pytest.raises(ParameterError):
            OffsetDist("poisson", 1.0)
        with pytest.raises(ParameterError):
            OffsetDist.uniform(-1.0)


class TestOscillatorWaveform:
    fc = 1e6
    fs = 64e6

    def test_pure_tone_peak_at_carrier(self):
        n = 1 << 14
        spec = OscillatorSpec(f_c=self.fc)
        path = wiener_path(0.0, 0.0, 1.0 / self.fs, n, (0, 0))
        w = oscillator_waveform(spec, 0.0, path, self.fs, n)
        mag = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(n, d=1.0 / self.fs)
        assert abs(freqs[np.argmax(mag)] - self.fc) <= self.fs / n

    def test_initial_phase(self):
        n = 64
        spec = OscillatorSpec(f_c=self.fc, theta0=np.pi / 2)
        path = wiener_path(0.0, np.pi / 2, 1.0 / self.fs, n, (0, 0))
        w = oscillator_waveform(spec, 0.0, path, self.fs, n)
        assert w.samples[0] == pytest.approx(0.0, abs=1e-12)

    def test_demodulation_recovers_phase(self):
        # beta small enough that the out-of-band part of the walk is below
        # the 1e-6 rad RMS oracle tolerance (error ~ sqrt(beta/(pi*f_cut)))
        beta = 1e-6
        n = 1 << 17
        spec = OscillatorSpec(f_c=self.fc, beta=beta)
        path = wiener_path(beta, 0.0, 1.0 / self.fs, n, (3, 0))
        w = oscillator_waveform(spec, 0.0, path, self.fs, n)
        dev = demodulate_phase(w, self.fc)
        trim = n // 16
        err = dev[trim:-trim] - path.samples[trim:-trim]
        err -= TWO_PI * np.round(np.mean(err) / TWO_PI)
        assert np.sqrt(np.mean(err**2)) < 1e-6

    def test_amplitude_bounded(self):
        n = 4096
        spec = OscillatorSpec(f_c=self.fc, beta=1e4)
        path = wiener_path(1e4, 0.0, 1.0 / self.fs, n, (4, 0))
        w = oscillator_waveform(spec, 0.0, path, self.fs, n)
        assert np.max(np.abs(w.samples)) <= 1.0

    def test_undersampling_rejected(self):
        n = 64
        spec = OscillatorSpec(f_c=self.fc)
        path = wiener_path(0.0, 0.0, 1.0 / (4 * self.fc), n, (0, 0))
        with pytest.raises(SamplingError):
            oscillator_waveform(spec, 0.0, path, 4 * self.fc, n)


def phase_shift(paths):
    """exp(j*theta) of a list of phase paths, one path per row."""
    return np.exp(1j * np.stack([p.samples for p in paths]))


class TestPhaseShiftAutocorrMC:
    # the ensemble-and-time average of u_t * conj(u_{t+lag}), u = exp(j*theta),
    # is the mean of autocorr_per_path over the paths
    def test_zero_lag_is_one(self):
        paths = [wiener_path(1e4, 0.0, 1e-6, 32, (0, i)) for i in range(10)]
        assert autocorr_per_path(phase_shift(paths), [0]).mean() == 1.0 + 0.0j

    def test_zero_diffusion_is_one(self):
        paths = [wiener_path(0.0, 0.3, 1e-6, 32, (0, i)) for i in range(4)]
        assert autocorr_per_path(phase_shift(paths), [10]).mean() == pytest.approx(1.0)

    def test_matches_exponential_decay(self):
        # E[u_t conj(u_{t+tau})] = exp(-pi*beta*tau) ~ 0.7304
        beta, tau = 1e4, 1e-5
        ens = wiener_ensemble(beta, 0.0, 1e-6, 50, master_seed=21, n_paths=10_000)
        est = autocorr_per_path(np.exp(1j * ens), [10]).mean()  # lag tau / dt
        assert est.real == pytest.approx(np.exp(-np.pi * beta * tau), rel=0.02)

    def test_stationarity_over_anchor_times(self):
        beta, dt, lag = 1e4, 1e-6, 10
        ens = wiener_ensemble(beta, 0.0, dt, 120, master_seed=22, n_paths=5000)
        u = np.exp(1j * ens)
        anchors = np.arange(0, 100, 10)
        vals = np.array([np.mean((u[:, a] * np.conj(u[:, a + lag])).real)
                         for a in anchors])
        ses = np.array([np.std((u[:, a] * np.conj(u[:, a + lag])).real)
                        / np.sqrt(u.shape[0]) for a in anchors])
        assert np.max(np.abs(vals - vals.mean())) < 3.0 * np.max(ses)


class TestTapEnsemble:
    # the figure curves' former ensemble functions are the oracles, bit for bit
    BETA, DT, N, SEED = 1e4, 1e-6, 64, 31

    def walks(self, stream, n, rows=5, first=3):
        return wiener_ensemble(self.BETA, 0.0, self.DT, n, self.SEED, rows,
                               first_index=first, stream=stream)

    def build(self, taps, rows=5, first=3):
        return tap_ensemble(self.BETA, taps, self.DT, self.N, self.SEED, rows,
                            first_index=first)

    def test_one_tap_is_the_walk(self):
        assert np.array_equal(self.build(((0, 1.0, 0.0),)), self.walks(0, self.N))

    def test_pair_is_the_mean_of_two_streams(self):
        want = 0.5 * (self.walks(4, self.N) + self.walks(5, self.N))
        assert np.array_equal(self.build(((4, 0.5, 0.0), (5, 0.5, 0.0))), want)

    def test_delayed_self_average_reads_the_extended_walk(self):
        lag = 7
        theta = self.walks(6, self.N + lag)
        want = 0.5 * (theta[:, lag:] + theta[:, :self.N])
        got = self.build(((6, 0.5, 0.0), (6, 0.5, lag * self.DT)))
        assert np.array_equal(got, want)

    def test_each_weight_reads_its_own_delay(self):
        # the later tap sees the walk 3 steps earlier: theta[:, :N] of the
        # walk extended by 3, where the undelayed tap sees theta[:, 3:]
        theta = self.walks(2, self.N + 3)
        want = 0.25 * theta[:, 3:] + 0.75 * theta[:, :self.N]
        assert np.array_equal(self.build(((2, 0.25, 0.0), (2, 0.75, 3 * self.DT))), want)

    def test_rows_independent_of_block(self):
        taps = ((2, 0.25, 0.0), (2, 0.75, 3 * self.DT), (3, -0.5, 1 * self.DT))
        whole = self.build(taps, rows=6, first=0)
        assert np.array_equal(np.vstack([self.build(taps, rows=2, first=0),
                                         self.build(taps, rows=4, first=2)]), whole)

    @pytest.mark.parametrize("taps", [(), ((0, 1.0, 0.5e-6),), ((0, 1.0, -1e-6),)])
    def test_bad_taps_rejected(self, taps):
        with pytest.raises(ParameterError):
            self.build(taps)


@given(theta0=st.floats(min_value=-100.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False))
def test_spec_wraps_initial_phase(theta0):
    spec = OscillatorSpec(f_c=1e6, theta0=theta0)
    assert 0.0 <= spec.theta0 < TWO_PI


@given(n=st.integers(min_value=1, max_value=200),
       theta0=st.floats(min_value=-10, max_value=10))
@settings(max_examples=25, deadline=None)
def test_zero_beta_paths_constant(n, theta0):
    p = wiener_path(0.0, theta0, 1e-6, n, (0, 0))
    assert np.all(p.samples == p.samples[0])


def test_phase_path_validation():
    with pytest.raises(ParameterError):
        PhasePath(dt=0.0, samples=np.zeros(4))
    with pytest.raises(ParameterError):
        PhasePath(dt=1e-6, samples=np.zeros(0))
