import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscavg import (
    DelayedAvgParams,
    OffsetDist,
    OscillatorSpec,
    ParameterError,
    Waveform,
    delay_block,
    delayed_avg_autocorr,
    demodulate_phase,
    divider_residual,
    ideal_filter,
    mix,
    simulate_delayed_self_average,
    simulate_mixing_tree,
    simulate_pair_average,
    simulate_taps,
    tap_ensemble,
    wiener_path,
)
from oscavg import circuit
from oscavg.analytic import delayed_taps
from oscavg.circuit import _average_stage, _draw, _expected, edge_trim

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
        total = demodulate_phase(mix(*waves), FC, 3 * FC)
        ramp = TWO_PI * 2 * FC * np.arange(n) / FS
        trim = n // 16
        err = dephase(total, ramp + paths[0].samples + paths[1].samples)[trim:-trim]
        assert np.sqrt(np.mean(err**2)) < 1e-5

    def test_tree_band_structure(self):
        # 8 product terms of amplitude 1/8: 3 near DC, 4 near 2*f_c, 1 at 4*f_c
        fs, n = 64e6, 65536
        w = tone(FC, fs=fs, n=n)
        pre = mix(mix(w, w), mix(w, w))
        assert fft_amplitude(pre, 0.0) == pytest.approx(3 / 8, rel=1e-6)
        assert fft_amplitude(pre, 2 * FC) == pytest.approx(4 / 8, rel=1e-6)
        assert fft_amplitude(pre, 4 * FC) == pytest.approx(1 / 8, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            mix(tone(1e6, n=128), tone(1e6, n=256))
        with pytest.raises(ParameterError):
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


def analytic_phase_reference(w, f_lo, f_hi):
    """The band's phase from a full complex FFT: the one-sided band doubled,
    ifft, np.unwrap. np.unwrap adds a whole number of turns to each sample,
    but its running sum of them drifts (1.7e-9 rad over the tree band's
    64 000 samples), so the turns are rounded."""
    spec = np.fft.fft(w.samples)
    freqs = np.fft.fftfreq(len(w), d=1.0 / w.fs)
    spec = np.where((freqs >= f_lo) & (freqs <= f_hi), 2.0 * spec, 0.0)
    wrapped = np.angle(np.fft.ifft(spec))
    return wrapped + TWO_PI * np.round((np.unwrap(wrapped) - wrapped) / TWO_PI)


def noisy_tone(f0, n, fs=64e6, sigma=0.05, seed=3):
    """A tone at f0 whose phase walks with steps of std sigma rad."""
    walk = np.cumsum(np.random.default_rng(seed).normal(0.0, sigma, n))
    return Waveform(fs=fs, samples=np.cos(TWO_PI * f0 * np.arange(n) / fs + walk))


def conjugate_product_phase(w, f_lo, f_hi):
    """The band's phase as a masked half spectrum, ifft, and the running sum
    of the steps arg(z_j conj(z_(j-1))) rounded to whole turns about arg z:
    the read-out demodulate_phase must reproduce bit for bit."""
    spec = np.fft.rfft(w.samples)
    freqs = np.fft.rfftfreq(len(w), d=1.0 / w.fs)
    spec[(freqs < f_lo) | (freqs > f_hi)] = 0.0
    z = np.fft.ifft(spec, len(w))
    wrapped = np.angle(z)
    z[1:] *= z[:-1].conj()
    return wrapped + TWO_PI * np.round((np.cumsum(np.angle(z)) - wrapped) / TWO_PI)


class TestDemodulatePhase:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(16, 4096), f0=st.floats(0.5e6, 20e6),
           sigma=st.floats(1e-4, 0.5), seed=st.integers(0, 2**32 - 1),
           lo=st.floats(0.05, 0.95), hi=st.floats(1.05, 1.5))
    @example(n=6400, f0=2e6, sigma=0.05, seed=3, lo=0.5, hi=1.5)
    def test_bytes_match_conjugate_product_oracle(self, n, f0, sigma, seed, lo, hi):
        # a noisy tone at f0 and a band [lo*f0, hi*f0] around it
        w = noisy_tone(f0, n, sigma=sigma, seed=seed)
        w = Waveform(fs=w.fs, samples=w.samples
                     + 0.1 * np.random.default_rng(seed).standard_normal(n))
        got = demodulate_phase(w, lo * f0, hi * f0)
        assert got.tobytes() == conjugate_product_phase(w, lo * f0, hi * f0).tobytes()

    def test_band_edges_on_bins_are_inside(self):
        # white noise, so every bin counts; f_lo and f_hi are bin frequencies
        w = Waveform(fs=64e6, samples=np.random.default_rng(8).standard_normal(6400))
        freqs = np.fft.rfftfreq(len(w), d=1.0 / w.fs)
        f_lo, f_hi = freqs[100], freqs[300]
        got = demodulate_phase(w, f_lo, f_hi)
        assert got.tobytes() == conjugate_product_phase(w, f_lo, f_hi).tobytes()
        for lo, hi in ((np.nextafter(f_lo, np.inf), f_hi), (f_lo, np.nextafter(f_hi, 0.0))):
            assert got.tobytes() != demodulate_phase(w, lo, hi).tobytes()

    @pytest.mark.parametrize("f0,n,f_lo,f_hi", [
        (2e6, 64000, 1e6, 3e6),
        (2.0006e6, 64000, 1e6, 3e6),
        (2e6, 63999, 1e6, 3e6),
        (4e6, 64000, 3e6, 5e6),
    ], ids=["on-bin", "between-bins", "odd-length", "tree-band"])
    def test_matches_full_fft_reference(self, f0, n, f_lo, f_hi):
        w = noisy_tone(f0, n)
        expected = analytic_phase_reference(w, f_lo, f_hi)
        assert np.max(np.abs(demodulate_phase(w, f_lo, f_hi) - expected)) <= 1e-9

    def test_tone_phase_does_not_drift(self):
        # the phase of a tone at fs/16 is 2*pi*k/16; a running sum of the
        # steps alone is 2.7e-8 rad off by the end
        k = np.arange(1 << 16)
        w = Waveform(fs=64e6, samples=np.cos(TWO_PI * k / 16))
        assert np.max(np.abs(demodulate_phase(w, 3e6, 5e6) - TWO_PI * k / 16)) <= 1e-9

    @pytest.mark.parametrize("f_lo,f_hi", [
        (0.0, 3e6), (-1e6, 3e6), (1e6, 32e6), (1e6, 40e6), (3e6, 3e6), (3e6, 1e6)])
    def test_band_outside_nyquist_or_empty_rejected(self, f_lo, f_hi):
        with pytest.raises(ParameterError):
            demodulate_phase(noisy_tone(2e6, 1024), f_lo, f_hi)

    @pytest.mark.parametrize("kind", ["lowpass", "highpass"])
    def test_filter_bytes_match_oracle(self, kind):
        w = noisy_tone(2e6, 6401)
        freqs = np.fft.rfftfreq(len(w), d=1.0 / w.fs)
        mask = freqs <= 1e6 if kind == "lowpass" else freqs >= 1e6
        expected = np.fft.irfft(np.fft.rfft(w.samples) * mask, n=len(w))
        assert ideal_filter(w, kind, 1e6).samples.tobytes() == expected.tobytes()


class TestSteadyState:
    def test_average_idempotent(self):
        # two taps of weight 1/2 on one phase give that phase, bit for bit
        p = wiener_path(1e4, 0.0, 1e-6, 100, (60, 0))
        res = _expected(((0, 0.5, 0.0), (1, 0.5, 0.0)), [p, p],
                        [TWO_PI * 1e9, TWO_PI * 1e9])
        assert res.omega_prime == TWO_PI * 1e9
        assert np.array_equal(res.phase_path_prime.samples, p.samples)


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

    def test_symmetric_offsets_cancel(self):
        # expected output: the mean of the inputs' frequencies and phases
        res = simulate_pair_average(OscillatorSpec(f_c=FC, offset_dist=OffsetDist.delta(100.0)),
                                    OscillatorSpec(f_c=FC, offset_dist=OffsetDist.delta(-100.0)),
                                    FS, 512e-6, seed=84)
        assert res.expected.omega_prime == pytest.approx(TWO_PI * FC, rel=1e-12)
        assert np.array_equal(res.expected.phase_path_prime.samples,
                              0.5 * (res.phases[0].samples + res.phases[1].samples))

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
        (a, b), _, _ = _draw((spec, spec), FS, 512e-6, 83, 2 * FC)
        out, _ = _average_stage(a, b, FC)
        assert out.samples.tobytes() == res.output.samples.tobytes()
        assert divider_residual(a, b, out, FC) < 1e-3

    def test_residual_detects_wrong_output_phase(self):
        # the divider loop fed an output 0.3 rad off its fixed point
        # reproduces it with an error of about sin(0.3)
        n = 1 << 14
        k = np.arange(n)
        w = Waveform(fs=FS, samples=np.cos(TWO_PI * FC * k / FS))
        for offset, low, high in ((0.0, 0.0, 1e-9), (0.3, 0.1, 0.31)):
            out = Waveform(fs=FS, samples=0.5 * np.cos(TWO_PI * FC * k / FS + offset))
            assert low <= divider_residual(w, w, out, FC) < high

    def test_undersampled_rejected(self):
        spec = OscillatorSpec(f_c=FC)
        with pytest.raises(ParameterError):
            simulate_pair_average(spec, spec, 8e6, 512e-6, seed=0)

    def test_too_short_for_divider_check_rejected(self, no_draw):
        # 256 samples leave no interior once 128 are trimmed at each end;
        # refused before the inputs are drawn
        spec = OscillatorSpec(f_c=FC)
        with pytest.raises(ParameterError):
            simulate_pair_average(spec, spec, FS, 256 / FS, seed=0)

    def test_mismatched_carriers_rejected(self):
        with pytest.raises(ParameterError):
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

    def test_expected_holds_theta0_before_delay(self):
        spec = OscillatorSpec(f_c=FC, beta=1e-3)
        res = simulate_delayed_self_average(spec, 64 / FS, FS, 512e-6, seed=100)
        theta = res.phases[0].samples
        held = np.concatenate([np.full(64, theta[0]), theta[:-64]])
        assert np.array_equal(res.expected.phase_path_prime.samples, 0.5 * (theta + held))

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
        (w,), _, _ = _draw((spec,), FS, 2048e-6, 101, 2 * FC)
        delayed = delay_block(w, delta)
        out, _ = _average_stage(w, delayed, FC, settle=lag)
        assert out.samples.tobytes() == res.output.samples.tobytes()
        assert divider_residual(w, delayed, out, FC, settle=lag) < 1e-3

    def test_autocorr_matches_piecewise_form(self):
        # MC autocorrelation at delta/2, delta, 2*delta within 3 standard errors
        beta, dt, lag = 1e4, 1e-6, 20
        delta = lag * dt
        ens = tap_ensemble(beta, [delayed_taps(delta)], dt, 100, master_seed=102,
                           n_paths=10_000)[0]
        u = np.exp(1j * ens)
        p = DelayedAvgParams(beta, delta)
        for test_lag in (lag // 2, lag, 2 * lag):
            prods = (u[:, :-test_lag] * np.conj(u[:, test_lag:])).real
            per_path = prods.mean(axis=1)
            est, se = per_path.mean(), per_path.std() / np.sqrt(len(per_path))
            want = delayed_avg_autocorr(p, test_lag * dt)
            assert abs(est - want) < 3 * se

    # unaligned, negative, and a quarter of the 16384 samples
    @pytest.mark.parametrize("delta", [1.37e-7, -64 / FS, 4096 / FS])
    def test_bad_delay_refused_before_draw(self, no_draw, delta):
        with pytest.raises(ParameterError):
            simulate_delayed_self_average(OscillatorSpec(f_c=FC), delta, FS, 512e-6, seed=0)
        with pytest.raises(ParameterError):
            simulate_taps(PAIR, ((0, 0.5, 0.0), (1, 0.5, delta)), FS, 512e-6, seed=0)


PAIR = (OscillatorSpec(f_c=FC),) * 2


@pytest.fixture
def no_draw(monkeypatch):
    """Make drawing an oscillator waveform fail the test."""
    def draw(*args, **kwargs):
        raise AssertionError("a waveform was drawn before the taps were checked")

    monkeypatch.setattr(circuit, "oscillator_waveform", draw)


class TestTapTree:
    """simulate_taps against its taps at beta = 1e-3, uniform +-10 Hz
    offsets, fs = 64 MHz, f_c = 1 MHz, 1 ms."""

    FS = 64e6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_specs,taps", [
        (4, tuple((i, 0.25, 0.0) for i in range(4))),
        (8, tuple((i, 0.125, 0.0) for i in range(8))),
        # a pair, each delay-averaged at 16 samples
        (2, ((0, 0.25, 0.0), (0, 0.25, 16 / 64e6), (1, 0.25, 0.0), (1, 0.25, 16 / 64e6))),
    ], ids=["4-inputs", "8-inputs", "delayed-pair"])
    def test_phase_matches_taps(self, n_specs, taps, seed):
        spec = OscillatorSpec(f_c=FC, beta=1e-3, offset_dist=OffsetDist.uniform(10.0))
        res = simulate_taps((spec,) * n_specs, taps, self.FS, 1e-3, seed)
        n = len(res.output)
        lag = round(max(d for _, _, d in taps) * self.FS)
        t = np.arange(n) / self.FS
        expected = (res.expected.omega_prime * t + res.expected.phase_path_prime.samples
                    - sum(a * res.omegas[s] * d for s, a, d in taps))
        # the output phase is fixed only up to a multiple of pi/2^(k-1),
        # since each divider's output sign is free: after removing the
        # mean offset, compare modulo that step
        step = np.pi / (len(taps) // 2)
        err = res.measured_total_phase - expected
        err -= step * np.round(np.mean(err) / step)
        trim = max(n // 16, 4 * lag)
        assert np.sqrt(np.mean(err[trim:-trim] ** 2)) < 1e-4

    @pytest.mark.parametrize("taps", [
        (), ((0, 1.0, 0.0),),  # 2^0 taps
        ((0, 0.5, 0.0), (1, 0.25, 0.0), (0, 0.25, 0.0)),  # 3 taps
        ((0, 0.75, 0.0), (1, 0.25, 0.0)),  # weights not 2^-k
        ((0, 0.5, 0.0), (2, 0.5, 0.0)), ((0, 0.5, 0.0), (-1, 0.5, 0.0)),  # no such input
        ((0, 0.5, 0.0), (1.0, 0.5, 0.0)),  # not an integer source
    ])
    def test_bad_taps_refused_before_draw(self, no_draw, taps):
        with pytest.raises(ParameterError):
            simulate_taps(PAIR, taps, FS, 512e-6, seed=0)


# the circuits at one oscillator spec, called as circuit(fs, duration)
SIMULATIONS = {
    "pair": lambda fs, duration: simulate_pair_average(
        OscillatorSpec(f_c=FC), OscillatorSpec(f_c=FC), fs, duration, seed=1),
    "tree": lambda fs, duration: simulate_mixing_tree(
        [OscillatorSpec(f_c=FC)] * 4, fs, duration, seed=1),
    "delayed": lambda fs, duration: simulate_delayed_self_average(
        OscillatorSpec(f_c=FC), 1e-6, fs, duration, seed=1),
    "taps": lambda fs, duration: simulate_taps(
        PAIR, ((0, 0.25, 0.0), (1, 0.25, 0.0), (0, 0.25, 1e-6), (1, 0.25, 1e-6)), fs, duration,
        seed=1),
}


class TestWaveformSize:
    @pytest.mark.parametrize("circuit", SIMULATIONS)
    @pytest.mark.parametrize("fs", [0.0, np.inf, np.nan, -FS])
    def test_bad_sample_rate_rejected(self, circuit, fs):
        # fs = inf and nan used to end in OverflowError and ValueError, and
        # the delayed circuit read -FS as a negative delay
        with pytest.raises(ParameterError, match="fs=.* must be finite and >= "):
            SIMULATIONS[circuit](fs, 1e-3)

    @pytest.mark.parametrize("circuit", SIMULATIONS)
    @pytest.mark.parametrize("duration,message", [
        (np.nan, "duration=nan s must be finite"), (-np.inf, "duration=-inf s must be finite"),
        # 3.2e13 samples: numpy used to refuse the allocation with MemoryError
        (1e6, "exceeds the simulate limit of 16777216"),
        (15.49 / FS, "duration too short")])
    def test_bad_duration_rejected(self, circuit, duration, message):
        with pytest.raises(ParameterError, match=message):
            SIMULATIONS[circuit](FS, duration)


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

    def test_negative_delay_rejected(self):
        with pytest.raises(ParameterError):
            delay_block(tone(1e6, n=64), -2 / FS)
