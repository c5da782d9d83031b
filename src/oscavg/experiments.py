"""Figure-data generation and the self-check battery behind the CLI.

Figure runs emit plot-ready two-column text tables (offset Hz vs dBc/Hz).
Each curve produces an analytic table `<name>.data` and a Welch-estimated
companion `<name>.est.data`. Absolute levels depend on the configured
diffusion rate; the shapes and relative separations are the reproducible
content.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import analytic, circuit, spectral, stochastic
from .config import ExperimentConfig
from .stochastic import STREAM_PHASE, TWO_PI, ParameterError

LOG_GRID = (1e3, 1e7, 200)   # offset range and point count of the log sweep
LIN_BAND = 2.5e6             # half-width of the linear sweep
LIN_POINTS = 501
# Samples per block of paths in the ensemble estimates (one Welch call per
# block, at least one path). Output does not depend on it; it bounds the
# memory one block takes.
BLOCK_SAMPLES = 2**15
# Largest waveform `simulate` accepts, in samples (duration * fs). A table
# row is ~35 bytes, so this is ~0.6 GB of text; a much larger input would
# fail in allocation instead of with a one-line error.
MAX_SIMULATE_SAMPLES = 2**24


def delta_tag(delta: float) -> str:
    """File-name tag for a delay value: 1e-06 -> '1em6'."""
    mant, exp = f"{delta:.6e}".split("e")
    mant = mant.rstrip("0").rstrip(".")
    exp_i = int(exp)
    mant = mant.replace(".", "p").replace("-", "m")
    sign = "m" if exp_i < 0 else "p"
    return f"{mant}e{sign}{abs(exp_i)}"


# Stream tags (see stochastic.STREAM_PHASE) of the acceptance battery's own
# draws and of the estimated curves. Each curve's taps (analytic.py) name
# its sources by these tags, so path i of a curve is built from the walks
# of (seed, i) on them: the base curve on STREAM_PHASE, the pair on both
# TAG_PAIR tags, delay j of a figure on TAG_DELAYED + j (keep it the highest
# tag). So no two curves share a stream at any n_paths.
TAG_WHITE_NOISE = 2      # welch-white-normalization
TAG_DIVIDER = 3          # divider-chaining-exact
TAG_PAIR = (4, 5)
TAG_DELAYED = 6

BASE_TAPS = ((STREAM_PHASE, 1.0, 0.0),)
PAIR_TAPS = tuple((tag, 0.5, 0.0) for tag in TAG_PAIR)


# ---------------------------------------------------------------------------
# estimated curves (Welch over the curves' phase ensembles, built in blocks
# of BLOCK_SAMPLES samples so no curve holds its whole ensemble)


def _estimate(cfg: ExperimentConfig, taps, dt: float) -> spectral.SpectrumEstimate:
    """Welch estimate of the curve of `taps` over cfg.n_paths paths of four
    segments, built in blocks of at most BLOCK_SAMPLES samples (at least one
    path)."""
    n = 4 * cfg.segment_len
    rows = max(1, BLOCK_SAMPLES // n)
    blocks = (stochastic.tap_ensemble(cfg.beta, taps, dt, n, cfg.seed,
                                      min(rows, cfg.n_paths - first), first_index=first)
              for first in range(0, cfg.n_paths, rows))
    return spectral.psd_of_phase_shift(blocks, dt, segment_len=cfg.segment_len,
                                       overlap=cfg.overlap, window=cfg.window)


def estimate_base(cfg: ExperimentConfig, dt: float) -> spectral.SpectrumEstimate:
    return _estimate(cfg, BASE_TAPS, dt)


def estimate_independent(cfg: ExperimentConfig, dt: float) -> spectral.SpectrumEstimate:
    return _estimate(cfg, PAIR_TAPS, dt)


def estimate_delayed(cfg: ExperimentConfig, delta: float, dt: float,
                     stream: int = TAG_DELAYED) -> spectral.SpectrumEstimate:
    return _estimate(cfg, analytic.delayed_taps(delta, stream), dt)


# ---------------------------------------------------------------------------
# table output


def _write_table(path: Path, header: List[str], x: np.ndarray, y: np.ndarray):
    """Write a two-column text table: one `# <line>` per header line, then
    one `f"{x:.10e} {y:.10e}"` row per (x, y) pair, each line ending in a
    newline. Raises ParameterError, before anything is written, if either
    column holds a nan or an infinity."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ParameterError("non-finite value in output table")
    lines = [f"# {h}" for h in header]
    # Python floats format byte-for-byte like np.float64, several times faster
    lines.extend(map("{:.10e} {:.10e}".format, x.tolist(), y.tolist()))
    path.write_text("\n".join(lines) + "\n")


def _emit_curve(out: Path, name: str, cfg_hash: str, grid_hz: np.ndarray,
                analytic_vals: np.ndarray,
                est: Optional[spectral.SpectrumEstimate]) -> List[str]:
    written = []
    header = [f"oscavg table {name}", f"config {cfg_hash}",
              "columns: offset_hz psd_dbc_hz"]
    _write_table(out / f"{name}.data", header + ["kind analytic"],
                 grid_hz, analytic.to_dbc_hz(analytic_vals))
    written.append(f"{name}.data")
    if est is not None:
        vals = np.maximum(est.interp(grid_hz), np.finfo(float).tiny)
        _write_table(out / f"{name}.est.data", header + ["kind estimated"],
                     grid_hz, analytic.to_dbc_hz(vals))
        written.append(f"{name}.est.data")
    return written


def _write_figure(cfg: ExperimentConfig, out: Path, prefix: str, grid: np.ndarray,
                  dt: float, estimates: bool
                  ) -> Tuple[Dict[str, List[str]], List[np.ndarray]]:
    """Write one figure's curves over `grid` (Hz): the base oscillator, the
    averaged independent pair, and one delayed-self curve per configured
    delay. Each curve's taps give its analytic PSD, and its estimate from
    phase paths sampled at step dt. Returns the files written per curve and
    each delay's analytic PSD."""
    tags = [delta_tag(delta) for delta in cfg.deltas]
    if len(set(tags)) < len(tags):
        raise ParameterError(f"deltas {', '.join(map(repr, cfg.deltas))} share a "
                             f"file tag; give delays that differ in 7 digits")
    out.mkdir(parents=True, exist_ok=True)
    omega = TWO_PI * grid
    cfg_hash = cfg.content_hash()
    written: Dict[str, List[str]] = {}

    # (key, file stem, taps, estimator); each curve kind keeps an estimator
    # of its own name, by which the benchmark's tracer times it
    curves = [("base", "base", BASE_TAPS, lambda: estimate_base(cfg, dt)),
              ("independent", "ind", PAIR_TAPS, lambda: estimate_independent(cfg, dt))]
    for j, (tag, delta) in enumerate(zip(tags, cfg.deltas)):
        stream = TAG_DELAYED + j
        curves.append((f"delta_{tag}", f"delta_{tag}", analytic.delayed_taps(delta, stream),
                       partial(estimate_delayed, cfg, delta, dt, stream)))
    psds = []
    for key, stem, taps, estimate in curves:
        psds.append(analytic.tap_psd(cfg.beta, taps, omega))
        est = estimate() if estimates else None
        written[key] = _emit_curve(out, f"psd_{prefix}_{stem}", cfg_hash, grid,
                                   psds[-1], est)
    return written, psds[2:]


def run_figure_log(cfg: ExperimentConfig, out_dir=None, estimates: bool = True
                   ) -> Dict[str, List[str]]:
    """Log-frequency PSD sweep of every curve."""
    lo, hi, npts = LOG_GRID
    grid = np.logspace(np.log10(lo), np.log10(hi), npts)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    # baseband rate covering the top plotted offset
    return _write_figure(cfg, out, "log", grid, 1.0 / (4.0 * hi), estimates)[0]


def find_notches(grid_hz: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Strict local minima of a curve, returned as their grid positions."""
    v = np.asarray(values)
    idx = np.nonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]))[0] + 1
    return np.asarray(grid_hz)[idx]


def run_figure_linear(cfg: ExperimentConfig, out_dir=None, estimates: bool = True
                      ) -> Dict[str, List[str]]:
    """Linear-band PSD sweep over +-2.5 MHz with a notch-position sidecar."""
    if not cfg.deltas:
        raise ParameterError("linear figure requires at least one delay")
    grid = np.linspace(-LIN_BAND, LIN_BAND, LIN_POINTS)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    written, delayed = _write_figure(cfg, out, "lin", grid,
                                     1.0 / (4.0 * LIN_BAND * 2.0), estimates)
    notch_summary = {}
    pos = grid > 0
    for delta, vals in zip(cfg.deltas, delayed):
        notches = find_notches(grid[pos], analytic.to_dbc_hz(vals[pos]))
        notch_summary[delta_tag(delta)] = {
            "delta_s": delta,
            "notch_offsets_hz": [float(x) for x in notches],
            "mean_spacing_hz": float(np.mean(np.diff(notches))) if len(notches) > 1 else None,
        }
    (out / "notches.json").write_text(
        json.dumps({"config": cfg.content_hash(), "notches": notch_summary},
                   indent=2, sort_keys=True) + "\n")
    written["notches"] = ["notches.json"]
    return written


def run_simulate(cfg: ExperimentConfig, out_dir=None) -> List[str]:
    """Raw waveform dump of the configured circuit scenario."""
    samples = cfg.duration * cfg.fs  # may be inf: check before rounding
    if samples > MAX_SIMULATE_SAMPLES:
        raise ParameterError(f"duration * fs = {samples:g} samples exceeds the "
                             f"simulate limit of {MAX_SIMULATE_SAMPLES}")
    n = int(round(samples))
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = stochastic.OscillatorSpec(f_c=cfg.f_c_scaled, offset_dist=cfg.offsets,
                                     beta=cfg.beta)
    if cfg.scenario == "base":
        f_i = stochastic.sample_offset(cfg.offsets, (cfg.seed, 0))
        path = stochastic.wiener_path(cfg.beta, 0.0, 1.0 / cfg.fs, n, (cfg.seed, 0))
        wave = stochastic.oscillator_waveform(spec, f_i, path, cfg.fs, n)
    elif cfg.scenario == "averaged_independent":
        wave = circuit.simulate_pair_average(spec, spec, cfg.fs, cfg.duration,
                                             cfg.seed).output
    elif cfg.scenario == "averaged_n":
        if cfg.n_oscillators != 4:
            raise ParameterError("waveform mode supports n_oscillators=4")
        wave = circuit.simulate_mixing_tree([spec] * 4, cfg.fs, cfg.duration,
                                            cfg.seed).output
    else:
        wave = circuit.simulate_delayed_self_average(spec, cfg.delta, cfg.fs,
                                                     cfg.duration, cfg.seed).output
    path_out = out / f"waveform_{cfg.scenario}.data"
    _write_table(path_out, [f"oscavg waveform {cfg.scenario}",
                            f"config {cfg.content_hash()}",
                            "columns: time_s amplitude"],
                 wave.times(), wave.samples)
    return [path_out.name]


# ---------------------------------------------------------------------------
# acceptance battery (CLI-facing quick checks; the pytest suite runs the
# full-size versions)


def _rel_err(measured: float, target: float) -> float:
    return abs(measured - target) / abs(target)


def run_acceptance(cfg: ExperimentConfig, out_dir=None) -> Dict:
    """Run the property battery and write a machine-readable report.

    Returns the report dict; report['passed'] reflects overall status.
    """
    if cfg.beta <= 0:
        raise ParameterError("acceptance battery requires beta > 0")
    beta, seed = cfg.beta, cfg.seed
    checks: List[Dict] = []

    def record(name: str, measured: float, tolerance: float, ok: bool):
        checks.append({"name": name, "measured": float(measured),
                       "tolerance": float(tolerance), "passed": bool(ok),
                       "seed": seed})

    # one ensemble at the master seed, split into four blocks of 2000 paths,
    # so batteries at neighbouring seeds share no stream
    dt, n = 1e-6, 101
    ens, ens2, ens3, ens4 = np.split(
        stochastic.wiener_ensemble(beta, 0.0, dt, n, seed, 8000), 4)
    t = np.arange(n) * dt
    var = np.var(ens - ens[:, :1], axis=0)
    slope = np.polyfit(t[1:], var[1:], 1)[0]
    err = _rel_err(slope, TWO_PI * beta)
    record("wiener-variance-slope", err, 0.05, err < 0.05)

    lags = np.array([5, 10, 20])
    u = np.exp(1j * ens)
    ac = spectral.autocorr_per_path(u, lags.tolist())
    mean_ac = ac.real.mean(axis=0)
    target = np.exp(-np.pi * beta * lags * dt)
    err = float(np.max(np.abs(mean_ac - target)))
    record("phase-shift-autocorr", err, 0.02, err < 0.02)

    draws = np.array([stochastic.sample_offset(stochastic.OffsetDist.uniform(100.0),
                                               (seed, i)) for i in range(20000)])
    err = _rel_err(np.var(draws), 100.0**2 / 3.0)
    record("uniform-offset-variance", err, 0.05, err < 0.05)

    draws = np.array([stochastic.sample_offset(stochastic.OffsetDist.normal(50.0),
                                               (seed, i)) for i in range(20000)])
    err = _rel_err(np.std(draws), 50.0)
    record("normal-offset-std", err, 0.03, err < 0.03)

    avg = 0.5 * (ens + ens2)
    ratio = np.var(avg[:, -1] - avg[:, 0]) / np.var(ens[:, -1] - ens[:, 0])
    err = _rel_err(ratio, 0.5)
    record("pair-averaging-variance-halving", err, 0.10, err < 0.10)

    avg4 = 0.25 * (ens + ens2 + ens3 + ens4)
    ratio = np.var(avg4[:, -1] - avg4[:, 0]) / np.var(ens[:, -1] - ens[:, 0])
    err = _rel_err(ratio, 0.25)
    record("quad-averaging-variance-quartering", err, 0.10, err < 0.10)

    phase = stochastic.wiener_path(beta, 0.3, dt, 64, (seed, 0), TAG_DIVIDER)
    div = circuit.divider_steady_state(TWO_PI * 4e9, phase, 4)
    chain = circuit.divider_steady_state(
        circuit.divider_steady_state(TWO_PI * 4e9, phase, 2).omega_prime,
        circuit.divider_steady_state(TWO_PI * 4e9, phase, 2).phase_path_prime, 2)
    err = float(np.max(np.abs(div.phase_path_prime.samples
                              - chain.phase_path_prime.samples)))
    record("divider-chaining-exact", err, 1e-12, err < 1e-12)

    delta = 1e-6
    taps = analytic.delayed_taps(delta)
    gap = abs(analytic.tap_autocorr(beta, taps, delta * (1 - 1e-12))
              - analytic.tap_autocorr(beta, taps, delta))
    record("delayed-autocorr-continuity", gap, 1e-9, gap < 1e-9)

    omegas = TWO_PI * np.array([1e3, 1e5, 1e6])
    worst = 0.0
    for om in omegas:
        closed = analytic.tap_psd(beta, taps, om)
        quad = analytic.psd_by_quadrature(
            lambda tau: analytic.tap_autocorr(beta, taps, tau), om,
            tail_rate=np.pi * beta, breakpoint=delta)
        worst = max(worst, _rel_err(quad, closed))
    record("delayed-psd-vs-quadrature", worst, 1e-3, worst < 1e-3)

    om = TWO_PI * 1e4
    err = _rel_err(analytic.tap_psd(beta, analytic.delayed_taps(0.0), om),
                   analytic.tap_psd(beta, BASE_TAPS, om))
    record("delayed-psd-zero-delay-limit", err, 1e-9, err < 1e-9)

    err = _rel_err(analytic.tap_psd(beta, analytic.delayed_taps(100.0 / (np.pi * beta)), om),
                   analytic.tap_psd(beta, PAIR_TAPS, om))
    record("delayed-psd-large-delay-limit", err, 1e-6, err < 1e-6)

    xs = np.linspace(-100.0, 100.0, 20001)
    total = np.trapezoid(analytic.bates2_pdf(100.0, xs), xs)
    err = abs(total - 1.0)
    record("bates2-normalization", err, 1e-6, err < 1e-6)

    om_grid = TWO_PI * np.linspace(-1e7, 1e7, 400001)
    power = np.trapezoid(analytic.tap_psd(beta, PAIR_TAPS, om_grid), om_grid) / TWO_PI
    err = abs(power - 1.0)
    record("lorentzian-unit-power", err, 1e-2, err < 1e-2)

    rng = stochastic.path_rng((seed, 0), TAG_WHITE_NOISE)
    white = rng.normal(size=2**16)
    est = spectral.welch_psd(white, fs=1e6, segment_len=1024)
    err = _rel_err(float(np.mean(est.psd)) * 1e6, float(np.var(white)) * 1.0)
    record("welch-white-normalization", err, 0.05, err < 0.05)

    k = np.arange(2**14)
    tone = np.exp(1j * TWO_PI * 0.1 * k)
    est = spectral.welch_psd(tone, fs=1.0, segment_len=1024)
    err = _rel_err(est.total_power(), 1.0)
    record("welch-tone-power", err, 0.02, err < 0.02)

    report = {
        "config": cfg.content_hash(),
        "seed": seed,
        "n_checks": len(checks),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    if out_dir is not None or cfg.output_dir:
        out = Path(out_dir if out_dir is not None else cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "acceptance_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
