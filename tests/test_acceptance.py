"""End-to-end acceptance suite.

Each test covers one numbered exit criterion at its stated tolerance and
prints a PASS line with the measured value (run pytest with -s to see them).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from oscavg import (
    DelayedAvgParams,
    OffsetDist,
    OscillatorSpec,
    bates2_cdf,
    delayed_avg_autocorr,
    delayed_avg_psd,
    delayed_taps,
    divider_residual,
    psd_by_quadrature,
    sample_offset,
    simulate_pair_average,
    tap_psd,
    wiener_ensemble,
)
from oscavg import circuit
from oscavg.circuit import _average_stage, _draw, edge_trim, mix
from oscavg.cli import main
from oscavg.config import ExperimentConfig
from oscavg.experiments import run_acceptance, run_figure_linear, run_figure_log
from walk_sums import tap_phases

TWO_PI = 2.0 * np.pi
BETA = 1e4


def lag_products(u, lags):
    """Per-path time average of u_t conj(u_(t+lag)) at each lag > 0, shape
    (paths, lags): their mean over paths estimates the autocorrelation, and
    their spread gives its standard error."""
    return np.stack([np.mean(u[:, :-lag] * np.conj(u[:, lag:]), axis=1) for lag in lags],
                    axis=1)


def report(criterion, measured, tolerance):
    print(f"PASS criterion {criterion}: measured {measured:.4g} "
          f"(tolerance {tolerance:.4g})")


def test_01_wiener_variance_slope():
    # Var(theta_t - theta_0) linear in t with slope 2*pi*beta, rel err < 2%
    dt, n, paths = 1e-6, 100, 100_000
    ens = wiener_ensemble(BETA, 0.0, dt, n, master_seed=1001, n_paths=paths)
    t = np.arange(n) * dt
    var = np.var(ens - ens[:, :1], axis=0)
    slope = np.polyfit(t, var, 1)[0]
    rel = abs(slope - TWO_PI * BETA) / (TWO_PI * BETA)
    assert rel < 0.02
    report(1, rel, 0.02)


def test_02_phase_shift_autocorr_20_lags():
    # MC autocorrelation of exp(j*theta) vs exp(-pi*beta*tau), 3 SE at 20 lags
    dt, paths = 1e-6, 20_000
    ens = wiener_ensemble(BETA, 0.0, dt, 64, master_seed=1002, n_paths=paths)
    u = np.exp(1j * ens)
    lags = list(range(1, 21))
    per_path = lag_products(u, lags).real
    est = per_path.mean(axis=0)
    se = per_path.std(axis=0) / math.sqrt(paths)
    want = np.exp(-np.pi * BETA * np.array(lags) * dt)
    dev_in_se = np.abs(est - want) / se
    assert np.all(dev_in_se < 3.0)
    report(2, float(dev_in_se.max()), 3.0)


def test_03_averaging_gain():
    # centered phase variance: 1/2 at n=2 (3 dB), 1/4 at n=4
    dt, n, paths = 1e-5, 11, 10_000
    t = (n - 1) * dt
    stacks = [wiener_ensemble(BETA, 0.0, dt, n, master_seed=1010 + i,
                              n_paths=paths) for i in range(4)]
    single_var = TWO_PI * BETA * t
    pair = 0.5 * (stacks[0] + stacks[1])
    rel2 = abs(np.var(pair[:, -1] - pair[:, 0]) / single_var - 0.5) / 0.5
    quad = 0.25 * sum(stacks)
    rel4 = abs(np.var(quad[:, -1] - quad[:, 0]) / single_var - 0.25) / 0.25
    assert rel2 < 0.03
    assert rel4 < 0.05
    report(3, max(rel2, rel4), 0.05)


def test_04_pair_circuit_steady_state():
    # waveform simulation demodulates to the mean phase/frequency
    fc, fs = 1e6, 32e6
    spec = OscillatorSpec(f_c=fc, beta=1e-3, offset_dist=OffsetDist.uniform(50.0))
    res = simulate_pair_average(spec, spec, fs, 2048e-6, seed=1004)
    n = len(res.output)
    t = np.arange(n) / fs
    exp_total = 0.5 * (sum(res.omegas) * t
                       + res.phases[0].samples + res.phases[1].samples)
    trim = max(edge_trim(fs, fc), n // 16)
    diff = (res.measured_total_phase - exp_total)[trim:-trim]
    diff -= TWO_PI * np.round(np.mean(diff) / TWO_PI)
    rms = float(np.sqrt(np.mean(diff**2)))
    assert rms < 1e-4
    # divider loop re-fed with the output
    (a, b), _, _ = _draw((spec, spec), fs, 2048e-6, 1004, 2 * fc)
    out, _ = _average_stage(mix(a, b), 2, 2, fc)
    assert out.samples.tobytes() == res.output.samples.tobytes()
    assert divider_residual(a, b, out, fc) < 1e-3

    # output frequency within one bin of the mean input frequency
    mag = np.abs(np.fft.rfft(res.output.samples))
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    peak = freqs[np.argmax(mag)]
    assert abs(peak - res.expected.omega_prime / TWO_PI) <= fs / n
    report(4, rms, 1e-4)


def _divider_check(seed):
    report = run_acceptance(ExperimentConfig(seed=seed, output_dir=""))
    check, = (c for c in report["checks"] if c["name"] == "divider-loop-residual")
    return check


def test_05_divider_exactness(monkeypatch):
    # the battery's divider criterion: the pair stage's output re-fed
    # through its divider loop reproduces itself, within 1e-3
    worst = 0.0
    for seed in (7, 12345):
        check = _divider_check(seed)
        assert check["passed"] and check["tolerance"] == 1e-3
        worst = max(worst, check["measured"])
    # a sum-band phase 0.6 rad off puts the output 0.3 rad off its fixed
    # point: the loop then reads about sin(0.3) and the check fails
    demodulate = circuit.demodulate_phase
    monkeypatch.setattr(circuit, "demodulate_phase",
                        lambda *args, **kw: demodulate(*args, **kw) + 0.6)
    check = _divider_check(7)
    assert not check["passed"]
    assert check["measured"] == pytest.approx(math.sin(0.3), abs=1e-3)
    report(5, worst, 1e-3)


def test_06_delayed_psd_closed_form_vs_quadrature():
    # 200-point randomized (beta, delta, omega) grid, rel tol 1e-3
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(200):
        beta = 10 ** rng.uniform(3, 5)
        delta = 10 ** rng.uniform(-7, -5)
        omega = rng.uniform(-10, 10) * np.pi * beta
        p = DelayedAvgParams(beta, delta)
        closed = delayed_avg_psd(p, omega)
        quad = psd_by_quadrature(lambda tau: delayed_avg_autocorr(p, tau),
                                 omega, tail_rate=np.pi * beta, breakpoint=delta)
        worst = max(worst, abs(quad - closed) / abs(closed))
    assert worst < 1e-3
    report(6, worst, 1e-3)


def test_07_delayed_autocorr_mc_with_kink():
    dt, lag, paths = 1e-6, 20, 20_000
    delta = lag * dt
    ens = tap_phases(BETA, delayed_taps(delta), dt, 2048, master_seed=1007, n_paths=400)
    u = np.exp(1j * ens)
    p = DelayedAvgParams(BETA, delta)
    lags = list(range(1, 2 * lag + 1))
    per_path = lag_products(u, lags).real
    est = per_path.mean(axis=0)
    se = per_path.std(axis=0) / math.sqrt(per_path.shape[0])
    want = delayed_avg_autocorr(p, np.array(lags) * dt)
    dev = np.abs(est - want) / se
    assert np.all(dev < 3.0)

    # slope kink: log-decay rate doubles across tau = delta
    s_in = np.polyfit(np.array(lags[1:lag - 2]) * dt,
                      np.log(est[1:lag - 2]), 1)[0]
    s_out = np.polyfit(np.array(lags[lag + 1:2 * lag - 2]) * dt,
                       np.log(est[lag + 1:2 * lag - 2]), 1)[0]
    assert s_out / s_in == pytest.approx(2.0, rel=0.15)
    report(7, float(dev.max()), 3.0)


def test_08_delayed_psd_limits():
    omegas = TWO_PI * np.logspace(2, 7, 60)
    one = tap_psd(BETA, ((0, 1.0, 0.0),), omegas)
    pair = tap_psd(BETA, ((0, 0.5, 0.0), (1, 0.5, 0.0)), omegas)
    zero = delayed_avg_psd(DelayedAvgParams(BETA, 0.0), omegas)
    rel0 = np.max(np.abs(zero - one) / one)
    assert rel0 < 1e-9
    large = delayed_avg_psd(DelayedAvgParams(BETA, 100.0 / (np.pi * BETA)), omegas)
    rel_inf = np.max(np.abs(large - pair) / pair)
    assert rel_inf < 1e-6
    report(8, max(rel0, rel_inf), 1e-6)


def test_09_offset_statistics():
    from scipy import stats

    f_o, trials = 100.0, 100_000
    dist = OffsetDist.uniform(f_o)
    draws = np.array([sample_offset(dist, (1009, i)) for i in range(2 * trials)])
    pairs = 0.5 * (draws[:trials] + draws[trials:])
    ks = stats.kstest(pairs, lambda x: bates2_cdf(f_o, x)).statistic
    assert ks < 0.01

    sigma = 50.0
    ndist = OffsetDist.normal(sigma)
    ndraws = np.array([sample_offset(ndist, (1019, i)) for i in range(2 * trials)])
    npairs = 0.5 * (ndraws[:trials] + ndraws[trials:])
    rel = abs(np.var(npairs) - sigma**2 / 2.0) / (sigma**2 / 2.0)
    assert rel < 0.02
    report(9, max(ks, rel), 0.02)


def _read_cols(path):
    rows = [l.split() for l in path.read_text().splitlines()
            if l and not l.startswith("#")]
    arr = np.array([[float(a), float(b)] for a, b in rows])
    return arr[:, 0], arr[:, 1]


def test_10_figure_shapes(tmp_path):
    from oscavg import ExperimentConfig

    cfg = ExperimentConfig(beta=BETA, deltas=(1e-6, 1e-7), seed=1010,
                           output_dir=str(tmp_path / "log"))
    run_figure_log(cfg, estimates=False)
    f, base = _read_cols(tmp_path / "log" / "psd_log_base.data")
    _, ind = _read_cols(tmp_path / "log" / "psd_log_ind.data")
    _, d1 = _read_cols(tmp_path / "log" / "psd_log_delta_1em6.data")
    _, d2 = _read_cols(tmp_path / "log" / "psd_log_delta_1em7.data")

    # tail separation is 10*log10(2) = 3.01 dB
    tail = f > 100 * BETA
    sep = base[tail] - ind[tail]
    assert np.max(np.abs(sep - 3.0103)) < 0.3

    # delayed curves sit between base and independent in the tail region
    # approaching the first notch (near the carrier the narrower delayed
    # line peaks above the base curve, and past 1/(4*delta) the notch dips
    # below the independent curve)
    for dvals, delta in ((d1, 1e-6), (d2, 1e-7)):
        band = (f > 13 * BETA) & (f < 0.22 / delta)
        assert band.sum() >= 5
        assert np.all(dvals[band] <= base[band] + 1e-9)
        assert np.all(dvals[band] >= ind[band] - 1e-9)

    cfg_lin = replace(cfg, deltas=(1e-6,), output_dir=str(tmp_path / "lin"))
    run_figure_linear(cfg_lin, estimates=False)
    import json

    summary = json.loads((tmp_path / "lin" / "notches.json").read_text())
    spacing = summary["notches"]["1em6"]["mean_spacing_hz"]
    grid_step = 2 * 2.5e6 / 500
    assert abs(spacing - 1e6) <= grid_step

    # base curve monotone over the positive band (no notches)
    fl, bl = _read_cols(tmp_path / "lin" / "psd_lin_base.data")
    pos = fl > 0
    assert np.all(np.diff(bl[pos]) < 0)
    report(10, spacing, 1e6)


def test_11_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("beta = 1e4\nn_paths = 4\nsegment_len = 256\n"
                   "deltas = 1e-6\nseed = 777\n")
    for d in ("a", "b"):
        assert main(["figure-linear", "--config", str(cfg),
                     "--out", str(tmp_path / d)]) == 0
        assert main(["acceptance", "--config", str(cfg),
                     "--out", str(tmp_path / d)]) == 0
    for name in ("psd_lin_base.data", "psd_lin_base.est.data",
                 "psd_lin_ind.data", "psd_lin_ind.est.data",
                 "psd_lin_delta_1em6.data", "psd_lin_delta_1em6.est.data",
                 "notches.json", "acceptance_report.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    report(11, 0.0, 0.0)
