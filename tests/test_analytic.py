import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oscavg import (
    DelayedAvgParams,
    ParameterError,
    bates2_cdf,
    bates2_pdf,
    delayed_avg_autocorr,
    delayed_avg_psd,
    delayed_taps,
    psd_by_quadrature,
    tap_autocorr,
    tap_psd,
    to_dbc_hz,
)

BETA = 1e4
PI_BETA = math.pi * BETA
ONE = ((0, 1.0, 0.0),)                   # one oscillator
PAIR = ((1, 0.5, 0.0), (2, 0.5, 0.0))    # two independent oscillators averaged
# the figure grids (Hz): log sweep and linear band
FIGURE_GRIDS = {"log": np.logspace(3, 7, 200), "lin": np.linspace(-2.5e6, 2.5e6, 501)}


def three_term_psd(beta, delta, omega, dtype=float):
    """Oracle: the closed-form PSD of the delayed self-average as three
    Lorentzian-like terms, evaluated in `dtype`."""
    a = dtype(math.pi) * dtype(beta)
    delta = dtype(delta)
    w = np.asarray(omega, dtype=dtype)
    e = np.exp(-a * delta / 2)
    c = np.cos(w * delta)
    s = np.sin(w * delta)
    term1 = e / (a**2 + w**2) * (2 * a * c - 2 * w * s)
    term2 = e / ((a / 2) ** 2 + w**2) * (a * c - 2 * w * s)
    term3 = a / ((a / 2) ** 2 + w**2)
    return term1 - term2 + term3


def piecewise_autocorr(beta, delta, tau):
    """Oracle: exp(-pi*beta*|tau|/2) inside the delay, exp(-pi*beta*(|tau| - delta/2))
    beyond it."""
    a = math.pi * beta
    at = np.abs(np.asarray(tau, dtype=float))
    with np.errstate(over="ignore"):  # the branch not taken may overflow
        return np.where(at < delta, np.exp(-a * at / 2.0), np.exp(-a * (at - delta / 2.0)))


def direct_autocorr(beta, taps, tau):
    """Oracle: the double sum over same-source tap pairs, term by term."""
    at = np.abs(np.asarray(tau, dtype=float))
    expo = np.zeros_like(at)
    for sj, aj, dj in taps:
        for sk, ak, dk in taps:
            if sj == sk:
                expo += aj * ak * np.maximum(0.0, at - abs(dj - dk))
    return np.exp(-math.pi * beta * expo)


class TestPhaseShiftAutocorr:
    def test_zero_lag(self):
        assert tap_autocorr(BETA, ONE, 0.0) == 1.0

    def test_point_value(self):
        # exp(-pi * 1e4 * 1e-5) = exp(-0.31416)
        assert tap_autocorr(BETA, ONE, 1e-5) == pytest.approx(0.73043, rel=1e-4)

    @given(tau=st.floats(min_value=-1e-3, max_value=1e-3,
                         allow_nan=False, allow_infinity=False))
    def test_even_in_lag(self, tau):
        assert tap_autocorr(BETA, ONE, tau) == tap_autocorr(BETA, ONE, -tau)


class TestLorentzian:
    """The averaged pair's line: the transform of exp(-pi*beta*|tau|/2)."""

    def test_peak_value(self):
        # pi*1e4 / (pi*1e4/2)^2 = 4/(pi*1e4)
        assert tap_psd(BETA, PAIR, 0.0) == pytest.approx(1.2732e-4, rel=1e-4)

    def test_half_width(self):
        hw = PI_BETA / 2.0
        assert tap_psd(BETA, PAIR, hw) == pytest.approx(tap_psd(BETA, PAIR, 0.0) / 2)

    def test_unit_power(self):
        # integral over dw/(2*pi) is R(0) = 1
        val, _ = integrate.quad(lambda w: tap_psd(BETA, PAIR, w), -np.inf, np.inf)
        assert val / (2 * np.pi) == pytest.approx(1.0, rel=1e-8)

    def test_degenerate(self):
        with pytest.raises(ParameterError, match="beta=0 spectrum is a delta"):
            tap_psd(0.0, PAIR, 1.0)

    def test_factor_two_tension_with_full_rate_transform(self):
        # the pair's line is half as wide and twice as high as one
        # oscillator's, and is one oscillator's line at beta/2
        w = PI_BETA
        assert tap_psd(BETA, ONE, 0.0) == pytest.approx(2.0 / PI_BETA)
        assert tap_psd(BETA, PAIR, 0.0) == pytest.approx(4.0 / PI_BETA)
        assert tap_psd(BETA, PAIR, w) != pytest.approx(tap_psd(BETA, ONE, w))
        assert tap_psd(BETA / 2, ONE, w) == tap_psd(BETA, PAIR, w)


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
        assert np.array_equal(delayed_avg_psd(p, omegas), tap_psd(BETA, ONE, omegas))

    def test_large_delay_gives_half_rate_spectrum(self):
        p = DelayedAvgParams(BETA, 100.0 / PI_BETA)
        omegas = 2 * np.pi * np.logspace(1, 7, 30)
        assert np.allclose(delayed_avg_psd(p, omegas),
                           tap_psd(BETA, PAIR, omegas), rtol=1e-6)

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
        with pytest.raises(ParameterError):
            delayed_avg_psd(DelayedAvgParams(0.0, 1e-6), 1.0)


class TestTapModel:
    @pytest.mark.parametrize("grid", FIGURE_GRIDS, ids=str)
    @pytest.mark.parametrize("delta", [1e-6, 1e-7])
    def test_delayed_psd_matches_three_term_oracle_on_figure_grids(self, grid, delta):
        omega = 2 * np.pi * FIGURE_GRIDS[grid]
        got = tap_psd(BETA, delayed_taps(delta), omega)
        want = three_term_psd(BETA, delta, omega)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-11

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @given(beta=st.floats(min_value=1e3, max_value=1e5),
           delta=st.floats(min_value=1e-8, max_value=1e-5))
    @settings(max_examples=100, deadline=None)
    def test_delayed_psd_matches_three_term_oracle_sweep(self, beta, delta):
        # in double precision the three-term form loses up to ~4e-10 to
        # cancellation over this sweep, so the oracle runs in long double
        for grid in FIGURE_GRIDS.values():
            omega = 2 * np.pi * grid
            got = tap_psd(beta, delayed_taps(delta), omega)
            want = three_term_psd(beta, delta, omega, dtype=np.longdouble)
            assert float(np.max(np.abs(got / want - 1.0))) <= 1e-11

    @given(beta=st.floats(min_value=1.0, max_value=1e6),
           delta=st.floats(min_value=0.0, max_value=1e-3))
    @settings(max_examples=100, deadline=None)
    def test_delayed_autocorr_matches_piecewise_oracle(self, beta, delta):
        scale = 1.0 / (math.pi * beta)
        tau = np.concatenate([np.linspace(-20 * scale, 20 * scale, 201),
                              [delta, delta * (1 - 1e-12), delta * (1 + 1e-12)]])
        got = tap_autocorr(beta, delayed_taps(delta), tau)
        assert np.allclose(got, piecewise_autocorr(beta, delta, tau), rtol=1e-11, atol=0)

    def test_sources_at_weight_one_nth_equal_one_tap_at_rate_over_n(self):
        omega = 2 * np.pi * np.concatenate(list(FIGURE_GRIDS.values()))
        tau = np.linspace(-1e-4, 1e-4, 101)
        quad = tuple((s, 0.25, 0.0) for s in range(4))
        for taps, n in ((quad, 4), (PAIR, 2)):
            assert np.array_equal(tap_psd(BETA, taps, omega), tap_psd(BETA / n, ONE, omega))
            assert np.array_equal(tap_autocorr(BETA, taps, tau),
                                  tap_autocorr(BETA / n, ONE, tau))

    def test_cascade_matches_quadrature_split_at_every_kink(self):
        delta = 1e-6
        taps = tuple((0, 0.25, k * delta) for k in range(4))
        kinks = [delta, 2 * delta, 3 * delta]
        for f in (1e3, 1e5, 3e5, 1e6, 2.5e6, 7e6):
            om = 2 * np.pi * f
            quad = psd_by_quadrature(lambda tau: tap_autocorr(BETA, taps, tau), om,
                                     tail_rate=PI_BETA, breakpoint=kinks)
            assert quad == pytest.approx(tap_psd(BETA, taps, om), rel=1e-3)

    @given(beta=st.floats(min_value=1e2, max_value=1e5),
           taps=st.lists(st.tuples(st.integers(0, 2),
                                   st.floats(min_value=-1.0, max_value=1.0),
                                   st.floats(min_value=0.0, max_value=1e-5)),
                         min_size=1, max_size=5).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_autocorr_matches_direct_double_sum(self, beta, taps):
        kinks = [abs(dj - dk) for _, _, dj in taps for _, _, dk in taps]
        tau = np.concatenate([np.linspace(-2e-5, 2e-5, 81), kinks])
        got = tap_autocorr(beta, taps, tau)
        assert np.allclose(got, direct_autocorr(beta, taps, tau), rtol=1e-12, atol=0)

    def test_segment_table_built_once(self):
        from oscavg.analytic import _segments
        taps = delayed_taps(3e-6, source=9)
        before = _segments.cache_info()
        tap_psd(BETA, taps, 1.0)
        tap_autocorr(BETA, taps, np.array([1e-6, 5e-6]))
        after = _segments.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    @pytest.mark.parametrize("taps", [(), ((0, 1.0, -1e-6),), ((-1, 1.0, 0.0),),
                                      ((0, float("nan"), 0.0),), ((0.5, 1.0, 0.0),)])
    def test_bad_taps_rejected(self, taps):
        with pytest.raises(ParameterError):
            tap_autocorr(BETA, taps, 0.0)

    def test_cancelling_weights_rejected(self):
        with pytest.raises(ParameterError, match="cancel"):
            tap_psd(BETA, ((0, 1.0, 0.0), (0, -1.0, 1e-6)), 1.0)


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
