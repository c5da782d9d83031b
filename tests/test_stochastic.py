import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscavg import (
    EnsembleWelch,
    OffsetDist,
    OscillatorSpec,
    ParameterError,
    Waveform,
    demodulate_phase,
    oscillator_waveform,
    sample_offset,
    simulate_taps,
    stochastic,
    tap_autocorr,
    tap_ensemble,
    tap_psd,
    wiener_ensemble,
    wiener_path,
)
from oscavg.experiments import TAG_PARTNER

TWO_PI = 2.0 * np.pi


def reference_bits(master, index):
    """The offset hash of (master, index) as sample_offset's docstring states
    it, written out: BLAKE2b of the key words on the offset tag (1)."""
    key = struct.pack("<3Q", master, index, 1)
    digest = hashlib.blake2b(key, digest_size=8, person=b"oscavg-offset").digest()
    return struct.unpack("<Q", digest)[0]


def reference_draw(dist, k):
    """The draw of dist from the top 53 hash bits k by the docstring's
    formulas: param * (2u - 1) for a uniform, param * ndtri(u) through scipy's
    ndtri ufunc for a normal, the tail nearer to u = (k + 0.5) / 2**53."""
    from scipy.special import ndtri
    if dist.kind == "delta":
        return dist.param
    if dist.kind == "uniform":
        # the odd integer 2k + 1 - 2**53 over 2**53: exact, so one rounding
        return dist.param * ((2 * k + 1 - 2**53) / 2**53)
    if 2 * k < 2**53:
        return dist.param * float(ndtri((k + 0.5) / 2**53))
    return -dist.param * float(ndtri((2**53 - k - 0.5) / 2**53))


class FixedHash:
    """Stands in for sample_offset's module-level hasher: every copy digests
    to the 64-bit word `bits`."""

    def __init__(self, bits):
        self.digest_bytes = struct.pack("<Q", bits)

    def copy(self):
        return self

    def update(self, key):
        pass

    def digest(self):
        return self.digest_bytes


# (beta, theta0, n) of walks checked bit for bit
WALK_CASES = [
    (1e4, 0.0, 64), (1e4, 0.7, 64), (1e4, -2.5, 33), (1e4, -0.0, 17),
    (5e-324, -0.0, 8),  # steps of scale 0: normal(0.0, 0.0) draws +0.0
    (1e4, 0.3, 1), (0.0, 0.3, 9), (0.0, -0.0, 4)]


def walk_oracle(beta, theta0, dt, n, seed_id, stream):
    """theta0, then theta0 plus the running sum of n - 1 draws of
    normal(0.0, sqrt(2*pi*beta*dt)) from path_rng(seed_id, stream)."""
    theta = np.full(n, theta0)
    if n > 1 and beta != 0.0:
        steps = stochastic.path_rng(seed_id, stream).normal(0.0, np.sqrt(TWO_PI * beta * dt), n - 1)
        theta[1:] = theta0 + np.cumsum(steps)
    return theta


class TestWienerPath:
    @pytest.mark.parametrize("beta,theta0,n", WALK_CASES)
    def test_bytes_match_running_sum_oracle(self, beta, theta0, n):
        for index in (0, 2**32 - 1):
            path = wiener_path(beta, theta0, 1e-6, n, (77, index), 5)
            assert path.samples.tobytes() == walk_oracle(beta, theta0, 1e-6, n, (77, index),
                                                         5).tobytes()

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

    @pytest.mark.parametrize("theta0", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta0_rejected(self, theta0):
        # an all-NaN walk would only show up later, as a non-finite table value
        with pytest.raises(ParameterError, match="theta0"):
            wiener_path(1e4, theta0, 1e-6, 10, (0, 0))
        with pytest.raises(ParameterError, match="theta0"):
            wiener_ensemble(1e4, theta0, 1e-6, 10, 0, 2)


class TestEnsembleSeeding:
    # path i on tag s draws from the tag's one PCG64DXSM stream advanced by
    # i * 2**64 words; a stream built and advanced by hand and wiener_path
    # are the oracles, bit for bit, over the whole key range (master below
    # 2**64, path index and tag below 2**32)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(master=st.sampled_from([0, 1, 12345, 2**32 - 1, 2**32, 2**64 - 1])
           | st.integers(0, 2**64 - 1),
           first=st.sampled_from([0, 77, 2**32 - 3]) | st.integers(0, 2**32 - 3),
           rows=st.integers(1, 3),
           stream=st.sampled_from([0, 5, 2**32 - 1]) | st.integers(0, 2**32 - 1))
    @example(master=2**64 - 1, first=2**32 - 3, rows=3, stream=2**32 - 1)  # every key at its top
    @example(master=2**32, first=0, rows=1, stream=0)
    def test_path_i_is_its_tag_stream_advanced_by_i_times_2_64(self, master, first, rows,
                                                                stream):
        ens = wiener_ensemble(1e4, 0.0, 1e-6, 9, master, rows, first_index=first, stream=stream)
        for index, row in enumerate(ens, first):
            bits = np.random.PCG64DXSM(np.random.SeedSequence(master, spawn_key=(stream,)))
            bits.advance(index * 2**64)
            steps = np.random.Generator(bits).normal(0.0, np.sqrt(TWO_PI * 1e4 * 1e-6), 8)
            assert row.tobytes() == np.concatenate(([0.0], np.cumsum(steps))).tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(master=st.integers(0, 2**64 - 1),
           first=st.sampled_from([0, 2**32 - 7]) | st.integers(0, 2**32 - 7))
    def test_blocks_of_any_size_give_the_same_rows(self, master, first):
        whole = wiener_ensemble(1e4, 0.0, 1e-6, 16, master, 7, first_index=first, stream=3)
        for size in (1, 2, 3, 7):
            blocks = [wiener_ensemble(1e4, 0.0, 1e-6, 16, master, min(size, 7 - j),
                                      first_index=first + j, stream=3)
                      for j in range(0, 7, size)]
            assert np.vstack(blocks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("beta,theta0,n", WALK_CASES)
    def test_ensemble_rows_are_wiener_paths(self, beta, theta0, n):
        first = 2**32 - 4  # the last row has the largest index
        ens = wiener_ensemble(beta, theta0, 1e-6, n, 77, 4, first_index=first, stream=5)
        assert ens.shape == (4, n)
        for i, row in enumerate(ens):
            path = wiener_path(beta, theta0, 1e-6, n, (77, first + i), 5)
            assert row.tobytes() == path.samples.tobytes()

    @pytest.mark.parametrize("master,first", [
        (-1, 0), (0, -1), (2**64, -2), (0, 2**64 - 1), (2**64, 0), (0, 2**32), (1.5, 0),
        (0, 1.5),
        # NumPy integers, whose index + rows would wrap
        (0, np.uint64(2**64 - 1)), (0, np.int64(2**63 - 1)), (np.int64(-1), 0)])
    def test_keys_outside_the_hash_rejected(self, master, first):
        with pytest.raises(ParameterError):
            wiener_ensemble(1e4, 0.0, 1e-6, 8, master, 2, first_index=first)
        with pytest.raises(ParameterError):
            stochastic.path_rng((master, first))
        with pytest.raises(ParameterError):
            sample_offset(OffsetDist.normal(1.0), (master, first))

    @pytest.mark.parametrize("beta,n", [(0.0, 16), (1e4, 1)])  # walks without steps
    @pytest.mark.parametrize("master,first", [(-5, 0), (2**70, 0), (0, 2**32), (1.5, 0)])
    def test_keys_checked_without_steps(self, beta, n, master, first):
        # a walk that draws nothing used to skip the key check
        with pytest.raises(ParameterError, match="stream key"):
            wiener_ensemble(beta, 0.0, 1e-8, n, master, 2, first_index=first)
        with pytest.raises(ParameterError, match="stream key"):
            wiener_path(beta, 0.0, 1e-8, n, (master, first))
        with pytest.raises(ParameterError, match="stream key"):
            tap_ensemble(beta, [((0, 1.0, 0.0),)], 1e-8, n, master, 2, first_index=first)

    def test_keys_checked_before_allocation(self):
        # 2**62 samples: allocating first would end in numpy's "array is
        # too big" ValueError, raised before anything is allocated
        with pytest.raises(ParameterError, match="stream key"):
            wiener_path(1e4, 0.0, 1e-6, 2**62, (-1, 0))
        with pytest.raises(ParameterError, match="stream key"):
            wiener_ensemble(1e4, 0.0, 1e-6, 2**62, -1, 2)

    @pytest.mark.parametrize("beta", [0.0, 1e4])
    def test_negative_path_count_rejected(self, beta):
        # used to end in numpy's "negative dimensions" ValueError
        with pytest.raises(ParameterError, match="stream key"):
            wiener_ensemble(beta, 0.0, 1e-8, 16, 0, -1)

    def test_block_reaching_index_2_32_rejected(self):
        assert wiener_ensemble(1e4, 0.0, 1e-6, 8, 0, 1, first_index=2**32 - 1).shape == (1, 8)
        with pytest.raises(ParameterError):
            wiener_ensemble(1e4, 0.0, 1e-6, 8, 0, 2, first_index=2**32 - 1)

    @pytest.mark.parametrize("stream", [-1, 2**32, 1.5])
    def test_tags_outside_the_hash_rejected(self, stream):
        with pytest.raises(ParameterError):
            wiener_ensemble(1e4, 0.0, 1e-6, 8, 0, 2, stream=stream)
        with pytest.raises(ParameterError):
            stochastic.path_rng((0, 0), stream)

    def test_key_range_corners_draw_without_warning(self):
        # the largest master, the block of the five largest indices and the
        # largest tag draw; one step past any of them is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wiener_ensemble(1e4, 0.0, 1e-6, 8, 2**64 - 1, 5, first_index=2**32 - 5,
                                   stream=2**32 - 1).shape == (5, 8)
            stochastic.path_rng((2**64 - 1, 2**32 - 1), 2**32 - 1).standard_normal(4)
            wiener_ensemble(1e4, 0.0, 1e-6, 8, 0, 4, stream=TAG_PARTNER)
        past = [(2**64, 2**32 - 5, 5, 2**32 - 1),      # master
                (2**64 - 1, 2**32 - 5, 6, 2**32 - 1),  # the block's last index is 2**32
                (2**64 - 1, 2**32 - 5, 5, 2**32)]      # tag
        for master, first, rows, tag in past:
            with pytest.raises(ParameterError, match="stream key"):
                wiener_ensemble(1e4, 0.0, 1e-6, 8, master, rows, first_index=first, stream=tag)
            with pytest.raises(ParameterError, match="stream key"):
                stochastic.path_rng((master, first + rows - 1), tag)


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
        keys = [(7, i) for i in range(50)] + [(8, 3), (0, 0), (2**64 - 1, 2**32 - 1)]
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
        monkeypatch.setattr(stochastic, "_OFFSET_HASH", FixedHash(bits))
        sign = 1.0 if bits else -1.0
        u = sample_offset(OffsetDist.uniform(100.0), (0, 0))
        assert -100.0 <= u < 100.0 and sign * u > 99.99
        z = sample_offset(OffsetDist.normal(1.0), (0, 0))
        # u = 2**-54 or its mirror: |z| is ndtri(2**-54) = 8.29
        assert np.isfinite(z) and sign * z == pytest.approx(8.29, abs=0.01)

    def test_normal_is_the_ndtri_ufunc(self):
        for i in range(10_000):
            want = reference_draw(OffsetDist.normal(50.0), reference_bits(13, i) >> 11)
            assert sample_offset(OffsetDist.normal(50.0), (13, i)).hex() == want.hex()

    @pytest.mark.parametrize("k", [0, 2**52 - 1, 2**52, 2**53 - 1])
    def test_normal_at_branch_edges_is_the_ndtri_ufunc(self, monkeypatch, k):
        # 2**52 is the first k of the mirror branch
        monkeypatch.setattr(stochastic, "_OFFSET_HASH", FixedHash(k << 11))
        got = sample_offset(OffsetDist.normal(50.0), (0, 0))
        assert type(got) is float and got.hex() == reference_draw(OffsetDist.normal(50.0), k).hex()

    @pytest.mark.parametrize("k", [0, 2**52 - 1, 2**52, 2**53 - 1])
    def test_uniform_at_the_edges_is_the_reference(self, monkeypatch, k):
        monkeypatch.setattr(stochastic, "_OFFSET_HASH", FixedHash(k << 11))
        got = sample_offset(OffsetDist.uniform(100.0), (0, 0))
        assert type(got) is float and got.hex() == reference_draw(OffsetDist.uniform(100.0), k).hex()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(master=st.integers(0, 2**64 - 1), index=st.integers(0, 2**32 - 1),
           param=st.floats(0.0, 1e300))
    @example(master=0, index=0, param=1.0)
    @example(master=2**64 - 1, index=2**32 - 1, param=1.0)
    def test_draws_are_the_reference_hash_bit_for_bit(self, master, index, param):
        k = reference_bits(master, index) >> 11
        for dist in (OffsetDist.delta(param), OffsetDist.uniform(param),
                     OffsetDist.normal(param)):
            got = sample_offset(dist, (master, index))
            assert type(got) is float and got.hex() == reference_draw(dist, k).hex()

    # (key, hash bits, uniform(100) draw, normal(50) draw), recorded once;
    # (1, 0) and (2**63, 999) take the normal's mirror branch (k >= 2**52)
    PINNED = [
        ((0, 0), 0x455869C5F3177143, "-0x1.6e976aead0ad7p+5", "-0x1.e81f46234b539p+4"),
        ((2**64 - 1, 2**32 - 1), 0x03E8C1902FCEDC85,
         "-0x1.83c8a31d6a999p+6", "-0x1.b099f366e84b6p+6"),
        ((1, 0), 0xECAB3CA20289F30E, "0x1.53971d7a47ef2p+6", "0x1.1f2f4156dbf6ep+6"),
        ((0, 1), 0x5CB7C73323DBFA42, "-0x1.b906c600bfc23p+4", "-0x1.1a1ca3d4d0f21p+4"),
        ((12345, 7), 0x42C2D59D3B675CAF, "-0x1.7ebe48e94cba0p+5", "-0x1.005ecdff77dc7p+5"),
        ((2**32, 2**32 - 2), 0x5471D78DC3DEB00C,
         "-0x1.10387cc9f7d02p+5", "-0x1.603c365110045p+4"),
        ((7, 123456), 0x2782BD5098E356CC, "-0x1.148770642239ap+6", "-0x1.973354740102ap+5"),
        ((2**63, 999), 0xD7CD42C54DBF3402, "0x1.126170a892f58p+6", "0x1.92b495331536ap+5"),
    ]

    @pytest.mark.parametrize("seed_id,bits,uniform,normal", PINNED)
    def test_draws_pinned(self, seed_id, bits, uniform, normal):
        assert reference_bits(*seed_id) == bits
        assert sample_offset(OffsetDist.uniform(100.0), seed_id).hex() == uniform
        assert sample_offset(OffsetDist.normal(50.0), seed_id).hex() == normal

    @pytest.mark.parametrize("seed_id", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (1.5, 0),
                                         (0, 2**32)])
    def test_key_outside_packable_range(self, seed_id):
        with pytest.raises(ParameterError):
            sample_offset(OffsetDist.normal(1.0), seed_id)

    KEY_WORDS = st.sampled_from([
        0, 1, -1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, True, False,
        np.int64(5), np.int64(-1), np.int64(2**63 - 1), np.uint64(7), np.uint64(2**32),
        np.uint64(2**64 - 1), 1.5, np.float64(1.0), None]) | st.integers(-2**65, 2**65)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(master=KEY_WORDS, index=KEY_WORDS)
    def test_refuses_exactly_the_keys_check_key_refuses(self, master, index):
        for dist in (OffsetDist.delta(2.0), OffsetDist.uniform(1.0), OffsetDist.normal(1.0)):
            try:
                stochastic._check_key(master, index, 1, stochastic.STREAM_OFFSET)
            except ParameterError:
                with pytest.raises(ParameterError):
                    sample_offset(dist, (master, index))
            else:
                assert sample_offset(dist, (master, index)) == \
                    sample_offset(dist, (int(master), int(index)))

    @pytest.mark.parametrize("seed_id", [(1,), (1, 2, 3), 5, None, ()])
    def test_seed_id_not_a_pair(self, seed_id):
        # used to end in a TypeError or ValueError naming the unpack
        with pytest.raises(ParameterError, match=r"^seed_id .* must be a \(master, index\) pair$"):
            sample_offset(OffsetDist.uniform(1.0), seed_id)

    def test_bad_descriptor(self):
        with pytest.raises(ParameterError):
            OffsetDist("poisson", 1.0)
        with pytest.raises(ParameterError):
            OffsetDist.uniform(-1.0)

    @pytest.mark.parametrize("param", ["1", 1j, None, [1.0], np.array(1.0), 10**400,
                                       float("nan"), -float("inf")])
    def test_non_real_or_non_finite_parameter(self, param):
        # a string or complex used to end in NumPy's TypeError
        for kind in ("delta", "uniform", "normal"):
            with pytest.raises(ParameterError, match="finite real number"):
                OffsetDist(kind, param)

    @pytest.mark.parametrize("param", [3, True, np.float32(2.5), np.int64(7), np.float64(0.1)])
    def test_parameter_stored_as_a_float(self, param):
        for dist in (OffsetDist.delta(param), OffsetDist.uniform(param), OffsetDist.normal(param)):
            assert type(dist.param) is float and dist.param == float(param)
            assert type(sample_offset(dist, (1, 2))) is float
        assert OffsetDist.uniform(param) == OffsetDist.uniform(float(param))


class TestOscillatorWaveform:
    fc = 1e6
    fs = 64e6

    def test_pure_tone_peak_at_carrier(self):
        n = 1 << 14
        spec = OscillatorSpec(f_c=self.fc)
        path = wiener_path(0.0, 0.0, 1.0 / self.fs, n, (0, 0))
        w = oscillator_waveform(spec, 0.0, path, self.fs)
        mag = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(n, d=1.0 / self.fs)
        assert abs(freqs[np.argmax(mag)] - self.fc) <= self.fs / n

    def test_path_at_another_rate_rejected(self):
        path = wiener_path(0.0, 0.0, 2.0 / self.fs, 64, (0, 0))
        with pytest.raises(ParameterError, match="fs inconsistent"):
            oscillator_waveform(OscillatorSpec(f_c=self.fc), 0.0, path, self.fs)

    @pytest.mark.parametrize("f_i", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected(self, f_i):
        # f_i = nan used to give an all-nan waveform
        path = wiener_path(0.0, 0.0, 1.0 / self.fs, 64, (0, 0))
        with pytest.raises(ParameterError, match="f_i=.* must be finite"):
            oscillator_waveform(OscillatorSpec(f_c=self.fc), f_i, path, self.fs)

    @pytest.mark.parametrize("n", [1, 17, 5000])
    def test_length_follows_phase_path(self, n):
        path = wiener_path(1e4, 0.0, 1.0 / self.fs, n, (6, 0))
        w = oscillator_waveform(OscillatorSpec(f_c=self.fc), 0.0, path, self.fs)
        assert len(w) == n and w.fs == path.fs

    def test_initial_phase(self):
        n = 64
        spec = OscillatorSpec(f_c=self.fc)
        path = wiener_path(0.0, np.pi / 2, 1.0 / self.fs, n, (0, 0))
        w = oscillator_waveform(spec, 0.0, path, self.fs)
        assert w.samples[0] == pytest.approx(0.0, abs=1e-12)

    def test_demodulation_recovers_phase(self):
        # beta small enough that the out-of-band part of the walk is below
        # the 1e-6 rad RMS oracle tolerance (error ~ sqrt(beta/(pi*f_cut)),
        # f_cut the band's half-width)
        beta = 1e-6
        n = 1 << 17
        spec = OscillatorSpec(f_c=self.fc, beta=beta)
        path = wiener_path(beta, 0.0, 1.0 / self.fs, n, (3, 0))
        w = oscillator_waveform(spec, 0.0, path, self.fs)
        ramp = TWO_PI * self.fc * np.arange(n) / self.fs
        dev = demodulate_phase(w, self.fc / 2, 1.5 * self.fc) - ramp
        trim = n // 16
        err = dev[trim:-trim] - path.samples[trim:-trim]
        err -= TWO_PI * np.round(np.mean(err) / TWO_PI)
        assert np.sqrt(np.mean(err**2)) < 1e-6

    def test_amplitude_bounded(self):
        n = 4096
        spec = OscillatorSpec(f_c=self.fc, beta=1e4)
        path = wiener_path(1e4, 0.0, 1.0 / self.fs, n, (4, 0))
        w = oscillator_waveform(spec, 0.0, path, self.fs)
        assert np.max(np.abs(w.samples)) <= 1.0

    def test_bytes_match_cosine_oracle(self):
        # an offset carrier, the waveform as long as its phase path
        n, f_i = 5000, -1234.5
        spec = OscillatorSpec(f_c=self.fc, beta=1e4)
        path = wiener_path(1e4, 0.4, 1.0 / self.fs, n, (5, 0))
        w = oscillator_waveform(spec, f_i, path, self.fs)
        expected = np.cos(TWO_PI * (self.fc + f_i) * np.arange(n) / self.fs + path.samples)
        assert w.samples.tobytes() == expected.tobytes()

    def test_undersampling_rejected(self):
        n = 64
        spec = OscillatorSpec(f_c=self.fc)
        path = wiener_path(0.0, 0.0, 1.0 / (4 * self.fc), n, (0, 0))
        with pytest.raises(ParameterError):
            oscillator_waveform(spec, 0.0, path, 4 * self.fc)


def phase_shift(paths):
    """exp(j*theta) of a list of phase paths, one path per row."""
    return np.exp(1j * np.stack([p.samples for p in paths]))


def lag_product(u, lag):
    """The ensemble-and-time average of u_t conj(u_(t+lag)) over the rows of
    u; at lag 0, of |u_t|^2 = re^2 + im^2."""
    if lag == 0:
        return np.mean(u.real**2 + u.imag**2)
    return np.mean(u[:, :-lag] * np.conj(u[:, lag:]))


class TestPhaseShiftAutocorrMC:
    # the ensemble-and-time average of u_t * conj(u_{t+lag}), u = exp(j*theta)
    def test_zero_lag_is_one(self):
        paths = [wiener_path(1e4, 0.0, 1e-6, 32, (0, i)) for i in range(10)]
        assert lag_product(phase_shift(paths), 0) == 1.0

    def test_zero_diffusion_is_one(self):
        paths = [wiener_path(0.0, 0.3, 1e-6, 32, (0, i)) for i in range(4)]
        assert lag_product(phase_shift(paths), 10) == pytest.approx(1.0)

    def test_matches_exponential_decay(self):
        # E[u_t conj(u_{t+tau})] = exp(-pi*beta*tau) ~ 0.7304
        beta, tau = 1e4, 1e-5
        ens = wiener_ensemble(beta, 0.0, 1e-6, 50, master_seed=21, n_paths=10_000)
        est = lag_product(np.exp(1j * ens), 10)  # lag tau / dt
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
    # walks of wiener_ensemble are the oracles, bit for bit
    BETA, DT, N, SEED = 1e4, 1e-6, 64, 31

    def walks(self, stream, n, rows=5, first=3):
        return wiener_ensemble(self.BETA, 0.0, self.DT, n, self.SEED, rows,
                               first_index=first, stream=stream)

    def build(self, taps, rows=5, first=3):
        return tap_ensemble(self.BETA, [taps], self.DT, self.N, self.SEED, rows,
                            first_index=first)[0]

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

    def test_unit_weight_leaves_the_walk_to_later_taps(self):
        theta = self.walks(2, self.N + 3)
        want = theta[:, 3:] + 0.5 * theta[:, :self.N]
        assert np.array_equal(self.build(((2, 1.0, 0.0), (2, 0.5, 3 * self.DT))), want)

    def test_rows_independent_of_block(self):
        taps = ((2, 0.25, 0.0), (2, 0.75, 3 * self.DT), (3, -0.5, 1 * self.DT))
        whole = self.build(taps, rows=6, first=0)
        assert np.array_equal(np.vstack([self.build(taps, rows=2, first=0),
                                         self.build(taps, rows=4, first=2)]), whole)

    def test_walks_one_per_source_long_enough_for_every_curve(self):
        lags, _ = stochastic.tap_layout([((2, 0.5, 0.0), (2, 0.5, 7 * self.DT)),
                                         ((2, 0.5, 0.0), (4, 0.5, 3 * self.DT))], self.DT)
        walks = stochastic.tap_walks(self.BETA, lags, self.DT, self.N, self.SEED, 5, 3)
        assert sorted(walks) == [2, 4]
        assert np.array_equal(walks[2], self.walks(2, self.N + 7))
        assert np.array_equal(walks[4], self.walks(4, self.N + 3))

    def test_curves_share_walks_and_equal_each_curve_alone(self):
        # one walk per source for every curve, each curve reading the front
        # of it by its own largest lag: the lag-3 curve reads the first
        # N + 3 samples of a walk drawn N + 7 long
        curves = [((2, 0.5, 0.0), (2, 0.5, 7 * self.DT)), ((2, 1.0, 0.0),),
                  ((2, 0.25, 0.0), (2, 0.75, 3 * self.DT)), ((2, 0.5, 0.0), (4, 0.5, 0.0))]
        got = tap_ensemble(self.BETA, curves, self.DT, self.N, self.SEED, 5, first_index=3)
        assert got.shape == (len(curves), 5, self.N)
        for phase, taps in zip(got, curves):
            assert np.array_equal(phase, self.build(taps))
        assert np.array_equal(got[1], self.walks(2, self.N + 7)[:, :self.N])

    @pytest.mark.parametrize("taps", [(), ((0, 1.0, 0.5e-6),), ((0, 1.0, -1e-6),)])
    def test_bad_taps_rejected(self, taps):
        with pytest.raises(ParameterError):
            self.build(taps)
        with pytest.raises(ParameterError):  # beside a good curve
            tap_ensemble(self.BETA, [((0, 1.0, 0.0),), taps], self.DT, self.N, self.SEED, 2)

    # taps of two and four fields used to raise ValueError, a str weight
    # TypeError, wherever taps are taken
    @pytest.mark.parametrize("taps", [
        ((0, 1.0),), ((0, 1.0, 0.0, 0.0),), ((0, 0.5, 0.0), (1, 0.5)),
        ((0, "1.0", 0.0),), ((0, 1.0, "0"),), ((0, 1.0, None),), (None,), 3, "abc"])
    @pytest.mark.parametrize("call", [
        lambda taps: tap_psd(1e4, taps, 1.0), lambda taps: tap_autocorr(1e4, taps, 0.0),
        lambda taps: tap_ensemble(1e4, [taps], 1e-6, 8, 1, 2),
        lambda taps: stochastic.tap_layout([taps], 1e-6),
        lambda taps: simulate_taps((OscillatorSpec(f_c=1e6),) * 2, taps, 64e6, 1e-3, 1)],
        ids=["tap_psd", "tap_autocorr", "tap_ensemble", "tap_layout", "simulate_taps"])
    def test_malformed_taps_rejected(self, taps, call):
        with pytest.raises(ParameterError, match="must be \\(integer source >= 0"):
            call(taps)

    def test_no_curve_rejected(self):
        with pytest.raises(ParameterError):
            tap_ensemble(self.BETA, [], self.DT, self.N, self.SEED, 2)

    @pytest.mark.parametrize("dt", [0.0, -1e-6, np.inf, np.nan, 5e-324])
    def test_bad_step_rejected(self, dt):
        # dt = 0 used to end in ZeroDivisionError, and dt < 0 read as a
        # negative delay; at dt = 5e-324, where 1/dt overflows, wiener_path
        # and the Welch estimator refused an fs, and the ensembles returned walks
        with pytest.raises(ParameterError, match="dt=.* must be finite and > 0"):
            tap_ensemble(self.BETA, [((0, 1.0, 0.0),)], dt, 8, 1, 1)
        with pytest.raises(ParameterError, match="dt=.* must be finite and > 0"):
            wiener_path(1.0, 0.0, dt, 4, (1, 0))
        with pytest.raises(ParameterError, match="dt=.* must be finite and > 0"):
            wiener_ensemble(1.0, 0.0, dt, 4, 1, 1)
        with pytest.raises(ParameterError, match="dt=.* must be finite and > 0"):
            EnsembleWelch(1, 2, 16, dt, segment_len=8)


@given(n=st.integers(min_value=1, max_value=200),
       theta0=st.floats(min_value=-10, max_value=10))
@settings(max_examples=25, deadline=None)
def test_zero_beta_paths_constant(n, theta0):
    p = wiener_path(0.0, theta0, 1e-6, n, (0, 0))
    assert np.all(p.samples == p.samples[0])


@pytest.mark.parametrize("fs,samples", [
    (0.0, np.zeros(4)), (-1e6, np.zeros(4)), (np.inf, np.zeros(4)), (np.nan, np.zeros(4)),
    (1e6, np.zeros(0)), (1e6, np.zeros((2, 4))), (1e6, 0.0),
    # not real numbers: used to end in NumPy's TypeError
    ("1", np.zeros(4)), (1j, np.zeros(4)), (None, np.zeros(4))])
def test_waveform_validation(fs, samples):
    # a phase path and a signal alike: finite fs > 0, a non-empty 1-d array
    with pytest.raises(ParameterError):
        Waveform(fs=fs, samples=samples)


@pytest.mark.parametrize("kwargs,match", [
    ({"f_c": "1e6"}, "f_c must be"), ({"f_c": 1j}, "f_c must be"), ({"f_c": None}, "f_c must be"),
    ({"f_c": 10**400}, "f_c must be"), ({"f_c": 1e6, "beta": None}, "beta must be"),
    ({"f_c": 1e6, "beta": "0"}, "beta must be"),
    # a descriptor string used to be accepted, and to fail inside the draw
    ({"f_c": 1e6, "offset_dist": "uniform:1"}, "offset_dist .* must be an OffsetDist")])
def test_oscillator_spec_refuses_non_real_parameters(kwargs, match):
    with pytest.raises(ParameterError, match=match):
        OscillatorSpec(**kwargs)
