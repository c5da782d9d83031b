import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oscavg import (
    DegenerateModelError,
    DelayedAvgParams,
    ParameterError,
    bates2_cdf,
    bates2_pdf,
    delayed_avg_autocorr,
    delayed_avg_psd,
    lorentzian_psd,
    phase_shift_autocorr,
    phase_shift_psd,
    psd_by_quadrature,
    to_dbc_hz,
)

BETA = 1e4
PI_BETA = math.pi * BETA


class TestPhaseShiftAutocorr:
    def test_zero_lag(self):
        assert phase_shift_autocorr(BETA, 0.0) == 1.0

    def test_point_value(self):
        # exp(-pi * 1e4 * 1e-5) = exp(-0.31416)
        assert phase_shift_autocorr(BETA, 1e-5) == pytest.approx(0.73043, rel=1e-4)

    @given(tau=st.floats(min_value=-1e-3, max_value=1e-3,
                         allow_nan=False, allow_infinity=False))
    def test_even_in_lag(self, tau):
        assert phase_shift_autocorr(BETA, tau) == phase_shift_autocorr(BETA, -tau)


class TestLorentzian:
    def test_peak_value(self):
        # pi*1e4 / (pi*1e4/2)^2 = 4/(pi*1e4)
        assert lorentzian_psd(BETA, 0.0) == pytest.approx(1.2732e-4, rel=1e-4)

    def test_half_width(self):
        hw = PI_BETA / 2.0
        assert lorentzian_psd(BETA, hw) == pytest.approx(lorentzian_psd(BETA, 0.0) / 2)

    def test_unit_power(self):
        # integral over dw/(2*pi) is 1: this form transforms back to
        # exp(-pi*beta*|tau|/2), unit at tau=0
        val, _ = integrate.quad(lambda w: lorentzian_psd(BETA, w), -np.inf, np.inf)
        assert val / (2 * np.pi) == pytest.approx(1.0, rel=1e-8)

    def test_degenerate(self):
        with pytest.raises(DegenerateModelError):
            lorentzian_psd(0.0, 1.0)

    def test_factor_two_tension_with_full_rate_transform(self):
        # the printed Lorentzian is the transform of the half-rate decay;
        # the transform of exp(-pi*beta*|tau|) is a distinct curve
        w = PI_BETA
        assert phase_shift_psd(BETA, 0.0) == pytest.approx(2.0 / PI_BETA)
        assert lorentzian_psd(BETA, w) != pytest.approx(phase_shift_psd(BETA, w))
        # they coincide under beta -> beta/2
        assert phase_shift_psd(BETA / 2, w) == pytest.approx(lorentzian_psd(BETA, w))


class TestBates2:
    F_O = 100.0

    def test_center_density(self):
        assert bates2_pdf(self.F_O, 0.0) == pytest.approx(1.0 / self.F_O)

    def test_support_edges(self):
        assert bates2_pdf(self.F_O, self.F_O) == 0.0
        assert bates2_pdf(self.F_O, -self.F_O) == 0.0
        assert bates2_pdf(self.F_O, 2 * self.F_O) == 0.0

    def test_normalization(self):
        val, _ = integrate.quad(lambda x: bates2_pdf(self.F_O, x),
                                -self.F_O, self.F_O)
        assert abs(val - 1.0) < 1e-9

    def test_variance_is_half_uniform(self):
        # f_o^2/6: half the single-draw f_o^2/3
        val, _ = integrate.quad(lambda x: x * x * bates2_pdf(self.F_O, x),
                                -self.F_O, self.F_O)
        assert val == pytest.approx(self.F_O**2 / 6.0, rel=1e-9)

    def test_matches_histogram_of_uniform_pairs(self):
        rng = np.random.default_rng(1234)
        pairs = rng.uniform(-self.F_O, self.F_O, size=(1_000_000, 2)).mean(axis=1)
        hist, edges = np.histogram(pairs, bins=100,
                                   range=(-self.F_O, self.F_O), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        assert np.max(np.abs(hist - bates2_pdf(self.F_O, centers))) < 1e-2

    def test_cdf_monotone_and_bounded(self):
        xs = np.linspace(-150, 150, 301)
        cdf = bates2_cdf(self.F_O, xs)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0)


class TestDelayedAvgAutocorr:
    def test_zero_lag(self):
        p = DelayedAvgParams(BETA, 1e-6)
        assert delayed_avg_autocorr(p, 0.0) == 1.0

    def test_branch_continuity_at_delay(self):
        p = DelayedAvgParams(BETA, 1e-6)
        inner = math.exp(-PI_BETA * p.delta / 2.0)
        outer = math.exp(-PI_BETA * (p.delta - p.delta / 2.0))
        assert inner == pytest.approx(outer, rel=1e-15)
        assert delayed_avg_autocorr(p, p.delta) == pytest.approx(inner, rel=1e-12)

    def test_point_value(self):
        # beyond the delay: exp(-pi*1e4*(2e-6 - 0.5e-6))
        p = DelayedAvgParams(BETA, 1e-6)
        assert delayed_avg_autocorr(p, 2e-6) == pytest.approx(0.95397, rel=1e-4)

    @given(beta=st.floats(min_value=1.0, max_value=1e6),
           delta=st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=100)
    def test_continuity_randomized(self, beta, delta):
        p = DelayedAvgParams(beta, delta)
        below = math.exp(-math.pi * beta * delta / 2.0)
        at = delayed_avg_autocorr(p, delta)
        assert at == pytest.approx(below, rel=1e-12)


class TestDelayedAvgPsd:
    def test_zero_delay_recovers_base_spectrum(self):
        p = DelayedAvgParams(BETA, 0.0)
        omegas = 2 * np.pi * np.logspace(1, 7, 30)
        got = delayed_avg_psd(p, omegas)
        want = phase_shift_psd(BETA, omegas)
        assert np.allclose(got, want, rtol=1e-12)

    def test_large_delay_gives_half_rate_spectrum(self):
        p = DelayedAvgParams(BETA, 100.0 / PI_BETA)
        omegas = 2 * np.pi * np.logspace(1, 7, 30)
        assert np.allclose(delayed_avg_psd(p, omegas),
                           lorentzian_psd(BETA, omegas), rtol=1e-6)

    def test_even_real_nonnegative(self):
        p = DelayedAvgParams(BETA, 1e-6)
        omegas = 2 * np.pi * np.linspace(1.0, 1e7, 2001)
        pos = delayed_avg_psd(p, omegas)
        neg = delayed_avg_psd(p, -omegas)
        assert np.allclose(pos, neg, rtol=1e-12)
        assert np.all(np.isreal(pos))
        assert np.all(pos >= 0.0)

    def test_matches_quadrature(self):
        p = DelayedAvgParams(BETA, 1e-6)
        for f in (1e3, 2.3e5, 1e6, 7e6):
            om = 2 * np.pi * f
            closed = delayed_avg_psd(p, om)
            quad = psd_by_quadrature(lambda tau: delayed_avg_autocorr(p, tau),
                                     om, tail_rate=PI_BETA, breakpoint=p.delta)
            assert quad == pytest.approx(closed, rel=1e-3)

    def test_degenerate(self):
        with pytest.raises(DegenerateModelError):
            delayed_avg_psd(DelayedAvgParams(0.0, 1e-6), 1.0)


class TestPsdByQuadrature:
    def test_textbook_transform_pair(self):
        # exp(-a|tau|) -> 2a/(a^2 + w^2)
        a = PI_BETA / 2.0
        for f in (0.0, 1e3, 1e5):
            om = 2 * np.pi * f
            got = psd_by_quadrature(lambda tau: np.exp(-a * np.abs(tau)), om,
                                    tail_rate=a)
            assert got == pytest.approx(2 * a / (a**2 + om**2), rel=1e-6)

    def test_zero_frequency_full_rate(self):
        got = psd_by_quadrature(lambda tau: np.exp(-PI_BETA * np.abs(tau)), 0.0,
                                tail_rate=PI_BETA)
        assert got == pytest.approx(2.0 / PI_BETA, rel=1e-6)  # ~6.3662e-5

    def test_non_decaying_rejected(self):
        with pytest.raises(ParameterError):
            psd_by_quadrature(lambda tau: np.ones_like(tau), 1.0, tail_rate=1e4)


class TestDbcHz:
    def test_values(self):
        assert to_dbc_hz(1e-4) == pytest.approx(-40.0)
        assert to_dbc_hz(1e-10) == pytest.approx(-100.0)
        assert to_dbc_hz(1.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            to_dbc_hz(0.0)
        with pytest.raises(ParameterError):
            to_dbc_hz(-1e-3)
