import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscavg import (
    ConfigurationError,
    DelayedAvgParams,
    OffsetDist,
    OscillatorSpec,
    ParameterError,
    SamplingError,
    ShapeError,
    Waveform,
    delay_block,
    delayed_avg_autocorr,
    demodulate_phase,
    divider_residual,
    divider_steady_state,
    ideal_filter,
    mix,
    simulate_delayed_self_average,
    simulate_mixing_tree,
    simulate_pair_average,
    steady_state_average,
    tap_ensemble,
    wiener_path,
)
from oscavg.analytic import delayed_taps
from oscavg.circuit import edge_trim

TWO_PI = 2.0 * np.pi
FC = 1e6
FS = 32e6


def tone(freq, fs=FS, n=32768, amp=1.0):
    k = np.arange(n)
    return Waveform(fs=fs, samples=amp * np.cos(TWO_PI * freq * k / fs))


def fft_amplitude(w, freq):
    mag = np.abs(np.fft.rfft(w.samples)) / len(w)
    idx = int(round(freq * len(w) / w.fs))
    scale = 1.0 if idx == 0 else 2.0
    return scale * mag[idx]


def dephase(measured, expected):
    """Difference with the 2*pi ambiguity of the demodulator removed."""
    diff = measured - expected
    return diff - TWO_PI * np.round(np.mean(diff) / TWO_PI)


class TestMix:
    def test_product_to_sum(self):
        # n chosen so both tones and their products are bin-aligned
        out = mix(tone(1e6, n=32000), tone(3e5, n=32000))
        assert fft_amplitude(out, 1.3e6) == pytest.approx(0.5, rel=1e-6)
        assert fft_amplitude(out, 0.7e6) == pytest.approx(0.5, rel=1e-6)

    def test_identity_with_unit_input(self):
        b = tone(1e6)
        ones = Waveform(fs=FS, samples=np.ones(len(b)))
        assert np.array_equal(mix(ones, b).samples, b.samples)

    def test_sum_phase_oracle(self):
        # high band of the product carries theta1 + theta2
        beta, n = 1e-4, 1 << 16
        spec = OscillatorSpec(f_c=FC, beta=beta)
        waves, paths = [], []
        for i in range(2):
            p = wiener_path(beta, 0.0, 1.0 / FS, n, (50, i))
            paths.append(p)
            k = np.arange(n)
            waves.append(Waveform(fs=FS, samples=np.cos(TWO_PI * FC * k / FS + p.samples)))
        high = ideal_filter(mix(*waves), "highpass", FC)
        dev = demodulate_phase(high, 2 * FC)
        trim = n // 16
        err = dephase(dev, paths[0].samples + paths[1].samples)[trim:-trim]
        assert np.sqrt(np.mean(err**2)) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mix(tone(1e6, n=128), tone(1e6, n=256))
        with pytest.raises(ShapeError):
            mix(tone(1e6, fs=FS), tone(1e6, fs=2 * FS))


class TestIdealFilter:
    def test_highpass_suppression(self):
        w = Waveform(fs=FS, samples=tone(2 * FC).samples + tone(1e3).samples)
        out = ideal_filter(w, "highpass", FC)
        kept = fft_amplitude(out, 2 * FC)
        removed = fft_amplitude(out, 1e3)
        assert kept == pytest.approx(1.0, rel=1e-6)
        assert removed < kept * 10 ** (-80 / 20)

    def test_lowpass_suppression(self):
        w = Waveform(fs=FS, samples=tone(FC).samples + tone(4 * FC).samples)
        out = ideal_filter(w, "lowpass", 2 * FC)
        assert fft_amplitude(out, FC) == pytest.approx(1.0, rel=1e-6)
        assert fft_amplitude(out, 4 * FC) < 10 ** (-80 / 20)

    def test_cutoff_validation(self):
        with pytest.raises(ParameterError):
            ideal_filter(tone(1e6), "lowpass", FS / 2)
        with pytest.raises(ParameterError):
            ideal_filter(tone(1e6), "bandpass", 1e6)


class TestSteadyState:
    def test_average_idempotent(self):
        p = wiener_path(1e4, 0.0, 1e-6, 100, (60, 0))
        res = steady_state_average([p, p], [TWO_PI * 1e9, TWO_PI * 1e9])
        assert res.omega_prime == TWO_PI * 1e9
        assert np.array_equal(res.phase_path_prime.samples, p.samples)

    def test_symmetric_offsets_cancel(self):
        p1 = wiener_path(1e4, 0.0, 1e-6, 100, (60, 1))
        p2 = wiener_path(1e4, 0.0, 1e-6, 100, (60, 2))
        res = steady_state_average([p1, p2],
                                   [TWO_PI * (1e9 + 100), TWO_PI * (1e9 - 100)])
        assert res.omega_prime == pytest.approx(TWO_PI * 1e9, rel=1e-12)

    def test_variance_halving(self):
        # Var(theta'_t - theta'_0) = pi*beta*t for independent inputs
        beta, dt, n, paths = 1e4, 1e-5, 11, 10_000
        t = (n - 1) * dt
        a = np.stack([wiener_path(beta, 0.0, dt, n, (61, i)).samples
                      for i in range(paths)])
        b = np.stack([wiener_path(beta, 0.0, dt, n, (62, i)).samples
                      for i in range(paths)])
        avg = 0.5 * (a + b)
        var = np.var(avg[:, -1] - avg[:, 0])
        assert var == pytest.approx(np.pi * beta * t, rel=0.03)

    def test_shape_errors(self):
        p1 = wiener_path(1e4, 0.0, 1e-6, 100, (60, 3))
        p2 = wiener_path(1e4, 0.0, 2e-6, 100, (60, 4))
        with pytest.raises(ShapeError):
            steady_state_average([p1, p2], [1.0, 1.0])
        with pytest.raises(ParameterError):
            steady_state_average([p1], [1.0])


class TestDivider:
    def test_divide_by_two(self):
        p = wiener_path(1e4, 0.0, 1e-6, 64, (70, 0))
        res = divider_steady_state(TWO_PI * 4e9, p, 2)
        assert res.omega_prime == TWO_PI * 2e9

    def test_chained_equals_direct(self):
        p = wiener_path(1e4, 0.0, 1e-6, 64, (70, 1))
        direct = divider_steady_state(TWO_PI * 4e9, p, 4)
        step = divider_steady_state(TWO_PI * 4e9, p, 2)
        chained = divider_steady_state(step.omega_prime, step.phase_path_prime, 2)
        assert chained.omega_prime == direct.omega_prime
        assert np.array_equal(chained.phase_path_prime.samples,
                              direct.phase_path_prime.samples)

    @given(n=st.integers(min_value=2, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_linear_scaling(self, n):
        p = wiener_path(1e4, 0.0, 1e-6, 32, (70, 2))
        res = divider_steady_state(TWO_PI * 1e9, p, n)
        assert np.array_equal(res.phase_path_prime.samples, p.samples / n)
        assert res.omega_prime == TWO_PI * 1e9 / n

    def test_ratio_validation(self):
        p = wiener_path(1e4, 0.0, 1e-6, 32, (70, 3))
        with pytest.raises(ParameterError):
            divider_steady_state(TWO_PI * 1e9, p, 1)


class TestPairAverage:
    def test_noiseless_output_is_half_cosine(self):
        spec = OscillatorSpec(f_c=FC)
        res = simulate_pair_average(spec, spec, FS, 1024e-6, seed=80)
        n = len(res.output)
        trim = max(edge_trim(FS, FC), n // 16)
        k = np.arange(n)
        ref = 0.5 * np.cos(TWO_PI * FC * k / FS)
        err = res.output.samples[trim:-trim] - ref[trim:-trim]
        assert np.sqrt(np.mean(err**2)) < 1e-9

    def test_mode_equivalence(self):
        spec = OscillatorSpec(f_c=FC, beta=1e-3,
                              offset_dist=OffsetDist.uniform(50.0))
        res = simulate_pair_average(spec, spec, FS, 2048e-6, seed=81)
        n = len(res.output)
        t = np.arange(n) / FS
        exp_total = 0.5 * (sum(res.omegas) * t
                           + res.phases[0].samples + res.phases[1].samples)
        trim = max(edge_trim(FS, FC), n // 16)
        err = dephase(res.measured_total_phase, exp_total)[trim:-trim]
        assert np.sqrt(np.mean(err**2)) < 1e-4

    def test_output_amplitude(self):
        spec = OscillatorSpec(f_c=FC, beta=1e-3)
        res = simulate_pair_average(spec, spec, FS, 1024e-6, seed=82)
        n = len(res.output)
        trim = n // 16
        amp = np.sqrt(2.0 * np.mean(res.output.samples[trim:-trim] ** 2))
        assert amp == pytest.approx(0.5, abs=1e-3)

    def test_substitution_residual(self):
        spec = OscillatorSpec(f_c=FC, beta=1e-3)
        res = simulate_pair_average(spec, spec, FS, 512e-6, seed=83)
        assert res.residual < 1e-3

    def test_residual_detects_wrong_output_phase(self):
        # the divider loop fed an output 0.3 rad off its fixed point
        # reproduces it with an error of about sin(0.3)
        n = 1 << 14
        k = np.arange(n)
        w = Waveform(fs=FS, samples=np.cos(TWO_PI * FC * k / FS))
        summed = ideal_filter(mix(w, w), "highpass", FC)
        for offset, low, high in ((0.0, 0.0, 1e-9), (0.3, 0.1, 0.31)):
            out = Waveform(fs=FS, samples=0.5 * np.cos(TWO_PI * FC * k / FS + offset))
            assert low <= divider_residual(summed, out, FC) < high

    def test_undersampled_rejected(self):
        spec = OscillatorSpec(f_c=FC)
        with pytest.raises(SamplingError):
            simulate_pair_average(spec, spec, 8e6, 512e-6, seed=0)

    def test_too_short_for_divider_check_rejected(self):
        # 256 samples leave no interior once 128 are trimmed at each end
        spec = OscillatorSpec(f_c=FC)
        with pytest.raises(ParameterError):
            simulate_pair_average(spec, spec, FS, 256 / FS, seed=0)

    def test_mismatched_carriers_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_pair_average(OscillatorSpec(f_c=FC),
                                  OscillatorSpec(f_c=2 * FC), FS, 512e-6, seed=0)


class TestMixingTree:
    FS4 = 64e6

    def test_noiseless_output(self):
        spec = OscillatorSpec(f_c=FC)
        res = simulate_mixing_tree([spec] * 4, self.FS4, 1024e-6, seed=90)
        n = len(res.output)
        trim = max(edge_trim(self.FS4, 3 * FC), n // 16)
        k = np.arange(n)
        ref = 0.125 * np.cos(TWO_PI * 4 * FC * k / self.FS4)
        err = res.output.samples[trim:-trim] - ref[trim:-trim]
        assert np.sqrt(np.mean(err**2)) < 1e-6
        assert res.residual is None  # no divider in the mixing tree

    def test_prefilter_band_structure(self):
        # 8 product terms of amplitude 1/8: 3 near DC, 4 near 2*f_c, 1 at 4*f_c
        spec = OscillatorSpec(f_c=FC)
        res = simulate_mixing_tree([spec] * 4, self.FS4, 1024e-6, seed=91)
        assert fft_amplitude(res.prefilter, 0.0) == pytest.approx(3 / 8, rel=1e-6)
        assert fft_amplitude(res.prefilter, 2 * FC) == pytest.approx(4 / 8, rel=1e-6)
        assert fft_amplitude(res.prefilter, 4 * FC) == pytest.approx(1 / 8, rel=1e-6)

    def test_sum_phase_oracle(self):
        spec = OscillatorSpec(f_c=FC, beta=1e-4)
        res = simulate_mixing_tree([spec] * 4, self.FS4, 1024e-6, seed=92)
        n = len(res.output)
        t = np.arange(n) / self.FS4
        exp_total = sum(res.omegas) * t + res.expected.phase_path_prime.samples
        trim = max(edge_trim(self.FS4, FC), n // 16)
        err = dephase(res.measured_total_phase, exp_total)[trim:-trim]
        assert np.sqrt(np.mean(err**2)) < 1e-4

    def test_wrong_count_rejected(self):
        with pytest.raises(ParameterError):
            simulate_mixing_tree([OscillatorSpec(f_c=FC)] * 3, self.FS4,
                                 512e-6, seed=0)


class TestDelayedSelfAverage:
    def test_zero_delay_identity(self):
        spec = OscillatorSpec(f_c=FC, beta=1e-3)
        res = simulate_delayed_self_average(spec, 0.0, FS, 512e-6, seed=100)
        assert np.array_equal(res.expected.phase_path_prime.samples,
                              res.phases[0].samples)

    def test_direct_average_oracle(self):
        spec = OscillatorSpec(f_c=FC, beta=1e-3)
        delta = 64 / FS
        res = simulate_delayed_self_average(spec, delta, FS, 2048e-6, seed=101)
        n = len(res.output)
        t = np.arange(n) / FS
        om = res.omegas[0]
        theta = res.phases[0].samples
        lag = 64
        delayed_total = np.empty(n)
        delayed_total[lag:] = om * (t[lag:] - delta) + theta[:-lag]
        delayed_total[:lag] = 0.0
        exp_total = 0.5 * (om * t + theta + delayed_total)
        trim = max(edge_trim(FS, FC), n // 16, 4 * lag)
        err = dephase(res.measured_total_phase[trim:-trim], exp_total[trim:-trim])
        assert np.sqrt(np.mean(err**2)) < 1e-4
        assert res.residual < 1e-3

    def test_autocorr_matches_piecewise_form(self):
        # MC autocorrelation at delta/2, delta, 2*delta within 3 standard errors
        beta, dt, lag = 1e4, 1e-6, 20
        delta = lag * dt
        ens = tap_ensemble(beta, delayed_taps(delta), dt, 100, master_seed=102,
                           n_paths=10_000)
        u = np.exp(1j * ens)
        p = DelayedAvgParams(beta, delta)
        for test_lag in (lag // 2, lag, 2 * lag):
            prods = (u[:, :-test_lag] * np.conj(u[:, test_lag:])).real
            per_path = prods.mean(axis=1)
            est, se = per_path.mean(), per_path.std() / np.sqrt(len(per_path))
            want = delayed_avg_autocorr(p, test_lag * dt)
            assert abs(est - want) < 3 * se

    def test_unaligned_delay_rejected(self):
        spec = OscillatorSpec(f_c=FC)
        with pytest.raises(ParameterError):
            simulate_delayed_self_average(spec, 1.37e-7, FS, 512e-6, seed=0)


class TestDelayBlock:
    def test_integer_shift(self):
        w = tone(1e6, n=256)
        out = delay_block(w, 16 / FS)
        assert np.array_equal(out.samples[16:], w.samples[:-16])
        assert np.all(out.samples[:16] == 0.0)

    def test_unaligned_rejected(self):
        with pytest.raises(ParameterError):
            delay_block(tone(1e6, n=64), 1.5 / FS)
        with pytest.raises(ParameterError):
            delay_block(tone(1e6, n=64), float("nan"))
