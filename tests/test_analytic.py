import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oscavg import (
    DelayedAvgParams,
    ParameterError,
    bates2_cdf,
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
        # half the mass below the center, where the density is 1/f_o
        assert bates2_cdf(self.F_O, 0.0) == 0.5
        h = 1e-6
        slope = (bates2_cdf(self.F_O, h) - bates2_cdf(self.F_O, -h)) / (2 * h)
        assert slope == pytest.approx(1.0 / self.F_O, rel=1e-6)

    def test_support_edges(self):
        assert bates2_cdf(self.F_O, -self.F_O) == 0.0
        assert bates2_cdf(self.F_O, -2 * self.F_O) == 0.0
        assert bates2_cdf(self.F_O, self.F_O) == 1.0
        assert bates2_cdf(self.F_O, 2 * self.F_O) == 1.0

    def test_variance_is_half_uniform(self):
        # f_o^2/6, half the single-draw f_o^2/3: for a symmetric law
        # E[x^2] = int_0^f_o 2x P(|x| > x) dx = int_0^f_o 4x (1 - F(x)) dx
        val, _ = integrate.quad(lambda x: 4.0 * x * (1.0 - bates2_cdf(self.F_O, x)),
                                0.0, self.F_O)
        assert val == pytest.approx(self.F_O**2 / 6.0, rel=1e-9)

    def test_matches_histogram_of_uniform_pairs(self):
        rng = np.random.default_rng(1234)
        pairs = rng.uniform(-self.F_O, self.F_O, size=(1_000_000, 2)).mean(axis=1)
        counts, edges = np.histogram(pairs, bins=100, range=(-self.F_O, self.F_O))
        # bin masses are at most 0.02, with standard errors of at most 1.4e-4
        mass = np.diff(bates2_cdf(self.F_O, edges))
        assert np.max(np.abs(counts / pairs.size - mass)) < 7e-4

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
        taps = ((9, 0.5, 0.0), (9, 0.5, 3e-6))  # not cached by another test
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

    @pytest.mark.parametrize("taps", [ONE, PAIR, delayed_taps(1e-6),
                                      ((0, 0.25, 0.0), (0, 0.25, 1e-6), (1, 0.5, 3e-6))])
    def test_list_taps_give_the_tuple_taps_floats(self, taps):
        # estimate_curves' block loop accepts taps as lists; so do the closed forms
        as_lists = [list(tap) for tap in taps]
        omega = 2 * math.pi * np.array([0.0, 1e3, 1e5])
        tau = np.array([0.0, 5e-7, 2e-6])
        assert tap_psd(BETA, as_lists, 1e3) == tap_psd(BETA, taps, 1e3)
        assert np.array_equal(tap_psd(BETA, as_lists, omega), tap_psd(BETA, taps, omega))
        assert tap_autocorr(BETA, as_lists, 5e-7) == tap_autocorr(BETA, taps, 5e-7)
        assert np.array_equal(tap_autocorr(BETA, as_lists, tau), tap_autocorr(BETA, taps, tau))
        with pytest.raises(ParameterError):
            tap_psd(BETA, [[0, 1.0, -1e-6]], 1e3)


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

    @pytest.mark.parametrize("beta,taps", [
        (BETA, ONE), (BETA, PAIR), (BETA, delayed_taps(1e-6)), (3e2, delayed_taps(4e-5)),
        (BETA, tuple((0, 0.25, k * 1e-6) for k in range(4)))])  # the 4-tap cascade
    def test_equals_the_array_integrand_sum(self, beta, taps):
        # the integrand as it was: every t wrapped in a one-element array
        from oscavg.analytic import _segments
        kinks, rates, _ = _segments(beta, taps)
        rate = float(rates[-1])
        edges = sorted({0.0, *kinks.tolist()})
        T = edges[-1] + -math.log(1e-10) / rate
        for om in (0.0, 2 * np.pi * 1e4, 2 * np.pi * 3e5, 2 * np.pi * 7e6):
            want = 2.0 * sum(integrate.quad(
                lambda t: float(tap_autocorr(beta, taps, np.array([t]))[0]), lo, hi,
                weight="cos", wvar=om, limit=400, epsabs=1e-13, epsrel=1e-11)[0]
                for lo, hi in zip(edges, edges[1:] + [T]))
            got = psd_by_quadrature(lambda t: tap_autocorr(beta, taps, t), om,
                                    tail_rate=rate, breakpoint=kinks)
            assert got.hex() == want.hex()

    def test_integrand_called_with_floats(self):
        a = PI_BETA
        args = []

        def autocorr(tau):
            args.append(type(tau))
            return np.exp(-a * np.abs(tau))

        psd_by_quadrature(autocorr, 1e5, tail_rate=a)
        assert len(args) > 2 and set(args) == {float}

    def test_non_decaying_rejected(self):
        with pytest.raises(ParameterError):
            psd_by_quadrature(lambda tau: np.ones_like(tau), 1.0, tail_rate=1e4)

    @pytest.mark.parametrize("tail_rate", [math.nan, math.inf])
    def test_non_finite_tail_rate_rejected(self, tail_rate):
        # nan and inf used to return a density of 0.0
        with pytest.raises(ParameterError, match="tail_rate"):
            psd_by_quadrature(lambda tau: np.exp(-PI_BETA * np.abs(tau)), 1e5,
                              tail_rate=tail_rate)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_rejected(self, omega):
        # these used to return nan after an IntegrationWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="omega"):
                psd_by_quadrature(lambda tau: np.exp(-PI_BETA * np.abs(tau)), omega,
                                  tail_rate=PI_BETA)

    # a negative kink used to return 13.7 and [1e-6, -5e-6] 2.9 times the
    # closed form; nan returned nan after an IntegrationWarning
    @pytest.mark.parametrize("breakpoint", [-1e-6, [1e-6, -5e-6], math.nan])
    def test_negative_or_non_finite_breakpoint_rejected(self, breakpoint):
        taps = delayed_taps(1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="breakpoint"):
                psd_by_quadrature(lambda t: tap_autocorr(BETA, taps, t), 2 * np.pi * 1e5,
                                  tail_rate=PI_BETA, breakpoint=breakpoint)


FIVE_TAP_SETS = [(BETA, ONE), (BETA, PAIR), (BETA, delayed_taps(1e-6)),
                 (3e2, delayed_taps(4e-5)), (BETA, tuple((0, 0.25, k * 1e-6) for k in range(4)))]


def float_path_arguments(beta, taps):
    """Signed zeros, every kink and its neighbours on both sides of 0, and
    arguments far beyond the table and outside the reals."""
    from oscavg.analytic import _segments
    taus = [0.0, -0.0, 1e300, -1e300, 1e306, -1e306, sys.float_info.max,
            -sys.float_info.max, math.inf, -math.inf, math.nan]
    for kink in _segments(beta, taps)[0].tolist():
        for t in (kink, float(np.nextafter(kink, -np.inf)), float(np.nextafter(kink, np.inf))):
            taus += [t, -t]
    return taus + np.linspace(-3e-5, 3e-5, 61).tolist()


def assert_float_path_is_array_path(beta, taps, taus):
    for t in taus:
        # neither path warns, also where rate * |tau| overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tap_autocorr(beta, taps, t)
            want = tap_autocorr(beta, taps, np.array([t]))[0]
        assert type(got) is float
        assert got.hex() == float(want).hex(), t


class TestAutocorrFloatPath:
    @pytest.mark.parametrize("beta,taps", FIVE_TAP_SETS)
    def test_equals_the_array_path(self, beta, taps):
        assert_float_path_is_array_path(beta, taps, float_path_arguments(beta, taps))

    @given(beta=st.floats(min_value=1e-3, max_value=1e5),
           taps=st.lists(st.tuples(st.integers(0, 2),
                                   st.floats(min_value=-1.0, max_value=1.0),
                                   st.floats(min_value=0.0, max_value=1e-5)),
                         min_size=1, max_size=5).map(tuple),
           tau=st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_array_path_for_drawn_taps(self, beta, taps, tau):
        assert_float_path_is_array_path(beta, taps, float_path_arguments(beta, taps) + [tau])

    # no diffusion left beyond the last kink: R is exp(c_last) from there on,
    # out to +-inf (where both paths used to give nan); the third set's last
    # rate rounds to -7e-12, which used to make R overflow to inf
    @pytest.mark.parametrize("beta,taps", [
        (0.0, ONE), (BETA, ((0, 1.0, 0.0), (0, -1.0, 1e-6))),
        (BETA, ((0, 0.7, 2e-6), (0, 0.6, 0.0), (0, -1.2999999999999998, 3e-6)))])
    def test_zero_rate_contributes_nothing_at_any_tau(self, beta, taps):
        # R = exp(pi*beta * sum_s sum_{j,k in s} a_j a_k |d_j - d_k|) from the
        # last kink on, when sum_s (sum_{j in s} a_j)**2 is 0
        want = math.exp(math.pi * beta * sum(a * b * abs(d - e) for s, a, d in taps
                                             for t, b, e in taps if s == t))
        last = max(abs(d - e) for _, _, d in taps for _, _, e in taps)
        taus = [last, 1e-5, 1e10, 1e306, sys.float_info.max, math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = [tap_autocorr(beta, taps, t) for t in taus + [-t for t in taus]]
            assert tail == [tail[0]] * len(tail)
            assert tail[0] == pytest.approx(want, rel=1e-12)
            assert np.array_equal(tap_autocorr(beta, taps, np.array(taus)), tail[:len(taus)])
        assert_float_path_is_array_path(beta, taps, float_path_arguments(beta, taps))

    def test_numpy_scalar_and_0d_inputs_unchanged(self):
        taps = delayed_taps(1e-6)
        for t in (0.0, 3e-7, -1e-6, 2.5e-6):
            want = tap_autocorr(BETA, taps, np.array([t]))[0]
            scalar = tap_autocorr(BETA, taps, np.float64(t))
            assert type(scalar) is float and scalar == want
            zero_d = tap_autocorr(BETA, taps, np.array(t))
            assert type(zero_d) is np.float64 and zero_d == want

    # bad taps on this path: test_bad_taps_rejected passes a float tau
    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ParameterError, match="beta"):
            tap_autocorr(beta, ONE, 1e-6)


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
