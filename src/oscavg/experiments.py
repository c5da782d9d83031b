"""Figure-data generation and the self-check battery behind the CLI.

Figure runs emit plot-ready two-column text tables (offset Hz vs dBc/Hz).
Each curve produces an analytic table `<name>.data` and a Welch-estimated
companion `<name>.est.data`. Absolute levels depend on the configured
diffusion rate; the shapes and relative separations are the reproducible
content.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import analytic, circuit, spectral, stochastic
from .config import ExperimentConfig
from .stochastic import MAX_SAMPLES, STREAM_PHASE, TWO_PI, ParameterError

LOG_GRID = (1e3, 1e7, 200)   # offset range and point count of the log sweep
LIN_BAND = 2.5e6             # half-width of the linear sweep
LIN_POINTS = 501
# Samples per block of paths in a figure's one estimation pass, at least one
# path. A path counts the larger of its Welch segment samples (segments *
# segment_len), which bound each Welch work array, and its walks (one per
# source: the path and the largest lag on it) and one curve's phases, which
# are built into one array, curve by curve; so every array a block holds is
# bounded. Output does not depend on it. A default figure-log path counts
# 49 192 samples (walks of 16 424 and 16 384, phases of 16 384), so two run
# a block; a segment_len = 256 path counts 3 092 (figure-linear), so 42 run
# a block. With the work arrays made once per estimate, figure-linear at
# that segment_len (256 paths, one CPU) took the same time at 2**17 as at
# 7 * 2**13 and 2**16, and 2**18 took longer: 0.040 against 0.044 reference
# s in `perfbench` mc_short pairs, at 4.4 MB more peak memory; default
# figure-log paths ran 12 % faster two a block than one (mc_long pairs).
# It also bounds the runs of grid intervals in which the acceptance battery
# integrates its power check, so no spectrum there spans the whole grid.
BLOCK_SAMPLES = 2**17
# Rows `_write_table` formats and writes at once. A chunk's temporaries
# (1.0 MB traced at 2**12 rows) fit in a 2 MiB L2 cache, and the allocator
# hands the same memory back chunk after chunk instead of faulting in fresh
# pages. A 64 000-row `simulate` table, median of 150 writes on one CPU of
# a 2-core Xeon (numpy 2.4.6, glibc 2.36): 8.4 ms and no minor fault at
# 2**12; 9.6-11.9 ms at 2**10 and 2**11; 13-14 ms and 3 450-3 600 faults
# at 2**13 and 2**14; 14.5-18.6 ms, 3 789 faults and 15.6 MB traced at
# 2**16, where the whole table was one chunk. Output does not depend on it.
TABLE_CHUNK_ROWS = 2**12


def delta_tag(delta: float) -> str:
    """File-name tag for a delay value: 1e-06 -> '1em6'."""
    mant, exp = f"{delta:.6e}".split("e")
    mant = mant.rstrip("0").rstrip(".")
    exp_i = int(exp)
    mant = mant.replace(".", "p").replace("-", "m")
    sign = "m" if exp_i < 0 else "p"
    return f"{mant}e{sign}{abs(exp_i)}"


# Stream tags (see stochastic.STREAM_PHASE) of the acceptance battery's own
# draws and of the pair's second oscillator. Path i of a curve is built from
# the walks of (seed, i) on its taps' sources (analytic.py): the base and
# every delayed curve read the oscillator on STREAM_PHASE, and the pair
# averages it with the one on TAG_PARTNER. One pass draws each walk once for
# all curves, so they share random numbers; no figure draws a battery tag.
TAG_WELCH = 2            # the Welch checks' curves: their one source
TAG_DIVIDER = 3          # divider-loop-residual
TAG_PARTNER = 4
TAG_WELCH_PARTNER = 5    # the Welch checks' pair: its second source

BASE_TAPS = ((STREAM_PHASE, 1.0, 0.0),)
PAIR_TAPS = ((STREAM_PHASE, 0.5, 0.0), (TAG_PARTNER, 0.5, 0.0))


# ---------------------------------------------------------------------------
# estimated curves (Welch over the curves' phase ensembles, in one pass over
# blocks of BLOCK_SAMPLES samples, so no curve holds its whole ensemble)


def _path_plan(cfg: ExperimentConfig, curves, dt: float) -> Tuple[int, dict, list]:
    """(Welch segment samples of one estimated path of n = 4 * segment_len
    samples, and the `stochastic.tap_layout` (lags, layout) of `curves`).
    Those segments and the longest walk, n and the largest lag, are a path's
    largest arrays: either over MAX_SAMPLES is a ParameterError, as is a
    delay not a whole step. Past those, the Welch plan is checked, so an
    estimate it refuses is refused before any walk is drawn."""
    n = 4 * cfg.segment_len
    welch = spectral._segments(n, cfg.segment_len, cfg.overlap)[1] * cfg.segment_len
    limit = f"over the limit of {MAX_SAMPLES}"
    if welch > MAX_SAMPLES:
        raise ParameterError(f"segment_len = {cfg.segment_len} with overlap = {cfg.overlap} "
                             f"makes estimated paths of {welch} samples, {limit}")
    lags, layout = stochastic.tap_layout(curves, dt)
    longest = n + max(lags.values())
    if longest > MAX_SAMPLES:
        delay = max(d for taps in curves for _, _, d in taps)
        raise ParameterError(f"delay {delay:g} s at dt={dt:g} s makes estimated paths of "
                             f"{longest} samples, {limit}")
    spectral._plan(n, 1.0 / dt, cfg.segment_len, cfg.overlap, cfg.window)
    return welch, lags, layout


def estimate_curves(cfg: ExperimentConfig, curves, dt: float
                    ) -> List[spectral.SpectrumEstimate]:
    """Welch estimates of `curves`, a sequence of taps, over cfg.n_paths
    paths of four segment lengths, in one pass over blocks of at most
    BLOCK_SAMPLES samples (at least one path): the one builder of ensemble
    tap phases. A block draws one `stochastic.wiener_ensemble` per source,
    n + its largest lag long, for all curves; each curve's phases are summed
    (`stochastic._tap_sum`) into one array that every block reuses, then
    added to its Welch sums (`spectral.EnsembleWelch`). Each estimate is,
    bit for bit, its curve's alone."""
    n = 4 * cfg.segment_len
    welch, lags, layout = _path_plan(cfg, curves, dt)
    held = sum(n + lag for lag in lags.values()) + n  # a path's walks and phases
    rows = min(cfg.n_paths, max(1, BLOCK_SAMPLES // max(welch, held)))
    ests = spectral.EnsembleWelch(len(layout), rows, n, dt, cfg.segment_len, cfg.overlap,
                                  cfg.window)
    phase, term = np.empty((2, rows, n))
    for first in range(0, cfg.n_paths, rows):
        r = min(rows, cfg.n_paths - first)
        walks = {s: stochastic.wiener_ensemble(cfg.beta, 0.0, dt, n + lag, cfg.seed, r,
                                               first_index=first, stream=s)
                 for s, lag in lags.items()}
        for c, taps in enumerate(layout):
            ests.add(c, stochastic._tap_sum(walks, taps, phase[:r], term[:r]))
        del walks  # freed before the next block's are drawn, not held beside them
    return ests.estimates()


# ---------------------------------------------------------------------------
# table output


def _make_out_dir(out: Path):
    """Create the output directory `out`. A location that cannot be one (an
    existing regular file, or a path under one) is a ParameterError."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}") from None


def _open_output(path: Path, mode: str = "w"):
    """Open the output file `path` for writing (text unless `mode` says
    "wb"), after making its directory; a path that cannot be opened is a
    ParameterError. Errors while writing are left as they are."""
    _make_out_dir(path.parent)
    try:
        return path.open(mode)
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}") from None


def _words(texts) -> np.ndarray:
    """The ASCII strings `texts`, joined, as little-endian uint32 words of
    four characters each."""
    return np.frombuffer("".join(texts).encode(), "<u4")


# Tables of `_format_rows`: 10**k for k in [-300, 300], correctly rounded
# (int / int rounds correctly), and as 4-byte words the text "d.dd" of the
# leading three significand digits, "dddd" of four more, and "+hto" of an
# exponent, NUL in place of the hundreds digit below 100.
_POW10_MIN = -300
_POW10 = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(_POW10_MIN, 301)])
_LEAD = _words(f"{k // 100}.{k % 100:02d}" for k in range(1000))
_QUAD = _words(["%04d" * 10000 % tuple(range(10000))])
_EXP_MIN = -324
_EXP = _words(("-" if k < 0 else "+") + (f"{abs(k):03d}" if abs(k) >= 100 else f"\0{abs(k):02d}")
              for k in range(_EXP_MIN, 309))


def _format_rows(x: np.ndarray, y: np.ndarray) -> bytes:
    """The bytes of "%.10e %.10e\\n" % (x[i], y[i]) for every row of the
    finite columns x and y.

    Each value is written from its 11-digit significand D and its exponent
    E, |v| ~ D * 10**(E - 10). E is floor(log10|v|), and D is the rint of
    the exact product of |v| and 10**(10 - E). Its floating-point product
    s with the correctly rounded power of ten is within 2 ulp (< 5e-5 at
    1e11) of the exact one, so rint(s) is D unless s is within 1e-3 of a
    tie. A value takes (D, E) from Python's own "%.10e" instead when s is
    inside that 1e-3 window (~0.1 % of a default `simulate` table's
    values, but 15.6 % of a 2**24-row one), when s is below 1e10 or
    its D is 1e11 (E off by one at a decade edge, or a carry into the next
    decade), or when |v| is outside [1e-280, 1e280], where the power of
    ten could overflow (zeros and subnormals among them). The text is
    assembled in 19 bytes a value, NUL where the value has no sign or no
    third exponent digit, and the NULs are dropped."""
    v = np.column_stack((x, y)).ravel().astype(float, copy=False)  # x0 y0 x1 y1 ...
    mag = np.abs(v)
    fast = (mag >= 1e-280) & (mag <= 1e280)
    scale = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(scale))
    scale *= _POW10[(10 - e).astype(np.intp) - _POW10_MIN]
    d = np.rint(scale)
    fast &= (scale >= 1e10) & (d < 1e11) & (np.abs(scale - np.floor(scale) - 0.5) >= 1e-3)
    for i in np.flatnonzero(~fast):
        mant, exp = ("%.10e" % mag[i]).split("e")
        d[i], e[i] = int(mant.replace(".", "")), int(exp)

    text = np.empty((len(v), 19), np.uint8)
    text[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    text[:, 13] = ord("e")
    text[0::2, 18] = ord(" ")
    text[1::2, 18] = ord("\n")
    lead = np.floor(d / 1e8)  # exact: d is an integer below 2**53
    d -= lead * 1e8
    quad = np.floor(d / 1e4)
    d -= quad * 1e4
    for offset, table, index in ((1, _LEAD, lead), (5, _QUAD, quad), (9, _QUAD, d),
                                 (14, _EXP, e - _EXP_MIN)):
        word = np.ndarray((len(v),), "<u4", text, offset, (19,))
        word[:] = table[index.astype(np.intp)]
    return text.tobytes().translate(None, b"\0")


def _write_table(path: Path, header: List[str], x: np.ndarray, y: np.ndarray):
    """Write a two-column text table: one `# <line>` per header line, then
    one `f"{x:.10e} {y:.10e}"` row per (x, y) pair, each line ending in a
    newline. Rows are formatted and written TABLE_CHUNK_ROWS at a time, so
    the text held in memory does not grow with the table. Raises
    ParameterError, before any file or directory is made, if either column
    holds a nan or an infinity."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ParameterError("non-finite value in output table")
    with _open_output(path, "wb") as f:
        f.write("".join(f"# {h}\n" for h in header).encode())
        for start in range(0, len(x), TABLE_CHUNK_ROWS):
            f.write(_format_rows(x[start:start + TABLE_CHUNK_ROWS],
                                 y[start:start + TABLE_CHUNK_ROWS]))


def _emit_curve(out: Path, name: str, cfg_hash: str, grid_hz: np.ndarray,
                analytic_vals: np.ndarray,
                est: Optional[spectral.SpectrumEstimate]) -> List[str]:
    header = [f"oscavg table {name}", f"config {cfg_hash}",
              "columns: offset_hz psd_dbc_hz"]
    _write_table(out / f"{name}.data", header + ["kind analytic"],
                 grid_hz, analytic.to_dbc_hz(analytic_vals))
    if est is None:
        return [f"{name}.data"]
    vals = np.maximum(est.interp(grid_hz), np.finfo(float).tiny)
    _write_table(out / f"{name}.est.data", header + ["kind estimated"],
                 grid_hz, analytic.to_dbc_hz(vals))
    return [f"{name}.data", f"{name}.est.data"]


def _write_figure(cfg: ExperimentConfig, out: Path, prefix: str, grid: np.ndarray,
                  dt: float, estimates: bool
                  ) -> Tuple[Dict[str, List[str]], List[np.ndarray]]:
    """Write one figure's curves over `grid` (Hz): the base oscillator, the
    averaged independent pair, and one delayed-self curve per configured
    delay. Each curve's taps give its analytic PSD, and its estimate from
    phase paths sampled at step dt (all curves in one pass). Returns the
    files written per curve and each delay's analytic PSD. With estimates
    on, every curve's paths and the Welch plan are checked first
    (`_path_plan`)."""
    tags = [delta_tag(delta) for delta in cfg.deltas]
    if len(set(tags)) < len(tags):
        raise ParameterError(f"deltas {', '.join(map(repr, cfg.deltas))} share a "
                             f"file tag; give delays that differ in 7 digits")
    curves = [("base", "base", BASE_TAPS), ("independent", "ind", PAIR_TAPS)]
    curves += [(f"delta_{tag}", f"delta_{tag}", analytic.delayed_taps(delta))
               for tag, delta in zip(tags, cfg.deltas)]
    curve_taps = [taps for _, _, taps in curves]
    if estimates:
        _path_plan(cfg, curve_taps, dt)
    _make_out_dir(out)  # before the estimates, so that a bad location fails fast
    psds = [analytic.tap_psd(cfg.beta, taps, TWO_PI * grid) for taps in curve_taps]
    ests = estimate_curves(cfg, curve_taps, dt) if estimates else [None] * len(curves)
    cfg_hash = cfg.content_hash()
    written = {key: _emit_curve(out, f"psd_{prefix}_{stem}", cfg_hash, grid, psd, est)
               for (key, stem, _), psd, est in zip(curves, psds, ests)}
    return written, psds[2:]


def run_figure_log(cfg: ExperimentConfig, estimates: bool = True) -> Dict[str, List[str]]:
    """Log-frequency PSD sweep of every curve."""
    lo, hi, npts = LOG_GRID
    grid = np.logspace(np.log10(lo), np.log10(hi), npts)
    # baseband rate covering the top plotted offset
    return _write_figure(cfg, Path(cfg.output_dir), "log", grid, 1.0 / (4.0 * hi), estimates)[0]


def find_notches(grid_hz: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Strict local minima of a curve, returned as their grid positions."""
    v = np.asarray(values)
    idx = np.nonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]))[0] + 1
    return np.asarray(grid_hz)[idx]


def run_figure_linear(cfg: ExperimentConfig, estimates: bool = True) -> Dict[str, List[str]]:
    """Linear-band PSD sweep over +-2.5 MHz with a notch-position sidecar."""
    if not cfg.deltas:
        raise ParameterError("linear figure requires at least one delay")
    grid = np.linspace(-LIN_BAND, LIN_BAND, LIN_POINTS)
    out = Path(cfg.output_dir)
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
    with _open_output(out / "notches.json") as f:
        f.write(json.dumps({"config": cfg.content_hash(), "notches": notch_summary},
                           indent=2, sort_keys=True) + "\n")
    written["notches"] = ["notches.json"]
    return written


def run_simulate(cfg: ExperimentConfig) -> List[str]:
    """Raw waveform dump of the configured circuit scenario, whose waveform
    `circuit._draw` sizes and checks. A refused run makes no directory."""
    spec = stochastic.OscillatorSpec(f_c=cfg.f_c_scaled, offset_dist=cfg.offsets,
                                     beta=cfg.beta)
    if cfg.scenario == "base":
        (wave,), _, _ = circuit._draw((spec,), cfg.fs, cfg.duration, cfg.seed, spec.f_c)
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
    path_out = Path(cfg.output_dir) / f"waveform_{cfg.scenario}.data"
    _write_table(path_out, [f"oscavg waveform {cfg.scenario}",
                            f"config {cfg.content_hash()}",
                            "columns: time_s amplitude"],
                 wave.times(), wave.samples)
    return [path_out.name]


# ---------------------------------------------------------------------------
# acceptance battery (CLI-facing quick checks; the pytest suite runs the
# full-size versions)

# Monte Carlo checks pass within Z_GATE standard errors: a two-sided
# false-fail rate of 1e-4 per compared value for a normal estimate
# (Percival & Walden, Spectral Analysis for Physical Applications, 1993).
# It is -scipy.special.ndtri(0.5e-4), written out (0x1.f1feea391d147p+1)
# so that importing the package does not load scipy.
Z_GATE = 3.890591886413094
# The Welch checks compare 768 bins (three curves of 256) and gate the
# largest |z| family-wise at the same 1e-4: -ndtri(0.5e-4 / 768), written
# out the same way (0x1.51d3ce088b7eap+2). That rate is nominal: each z is
# studentized by an SE of the same 256 paths, and as t with 255 degrees of
# freedom it is 2.14e-4 (2.79e-7 a bin); seeds 1-10 000 fail 3 (3e-4).
Z_FAMILY = 5.278552540154104


def _rel_err(measured: float, target: float) -> float:
    """|measured - target| / |target|; ParameterError if the target is 0 or
    not finite, as when a large beta underflows a spectrum to 0."""
    if not (math.isfinite(target) and target != 0.0):
        raise ParameterError(f"an acceptance check's target is {target!r}: the battery "
                             f"cannot run at this beta")
    return abs(measured - target) / abs(target)


def _ensemble_checks(beta: float, seed: int) -> List[Tuple[str, float, float]]:
    """(name, measured, tolerance) of the variance checks on one ensemble of
    four blocks of 2000 paths at the master seed (so batteries at
    neighbouring seeds share no stream). The phase of check k is the mean of
    the first k blocks. Its increments are independent N(0, 2 pi beta dt / k),
    so the mean of their squares has relative standard error
    sqrt(2 / (N (n-1))). The blocks are drawn one at a time, block j on
    paths j * 2000 onwards, and added in block order into one running sum
    (the sum `mean(axis=0)` takes over the stacked blocks), so no more than
    one block is held beside the sum. The squared steps of the sum are
    built in one buffer; for k a power of two, dividing their mean by k**2
    is exact, so it reads mean(diff(sum / k)**2) bit for bit."""
    dt, n, rows = 1e-6, 101, 2000
    tolerance = Z_GATE * math.sqrt(2.0 / (rows * (n - 1)))
    names = {1: "wiener-variance-slope", 2: "pair-averaging-variance-halving",
             4: "quad-averaging-variance-quartering"}
    total, steps, checks = np.zeros((rows, n)), np.empty((rows, n - 1)), []
    for k in range(1, 5):
        total += stochastic.wiener_ensemble(beta, 0.0, dt, n, seed, rows,
                                            first_index=(k - 1) * rows)
        if k in names:
            np.subtract(total[:, 1:], total[:, :-1], out=steps)
            steps *= steps
            checks.append((names[k], _rel_err(np.mean(steps) / (k * k),
                                              TWO_PI * beta * dt / k), tolerance))
    return checks


def _welch_checks(beta: float, seed: int) -> List[Tuple[str, float, float]]:
    """(name, measured, tolerance) of the figures' own estimator,
    `estimate_curves`, on the figure curves' tap shapes (one oscillator, the
    pair, and the delayed self-average 8 steps apart) over 256 paths of the
    battery's own streams at the master seed, 256-sample hann segments at
    50 % overlap. The step dt = 8 / (256 beta) diffuses pi/16 rad^2 at any
    beta, so the walks and both readings do not depend on beta.

    welch-scale: |mean(S) fs - 1|, the largest over the curves. By Parseval
    mean(S) fs is the mean power of the unit phasors, 1 to rounding.
    welch-expected-density: the largest |log(S / E[S])| S / SE over the
    curves and bins, E[S] from `spectral.expected_psd` and SE the
    estimate's own. A low S comes with a low SE, so (S - E[S]) / SE has a
    heavy left tail; S studentized on the log scale, whose standard error
    is SE / S, does not."""
    dt = 8.0 / (256.0 * beta)
    cfg = ExperimentConfig(beta=beta, n_paths=256, segment_len=256, overlap=0.5,
                           window="hann", seed=seed)
    curves = [((TAG_WELCH, 1.0, 0.0),),
              ((TAG_WELCH, 0.5, 0.0), (TAG_WELCH_PARTNER, 0.5, 0.0)),
              ((TAG_WELCH, 0.5, 0.0), (TAG_WELCH, 0.5, 8 * dt))]
    ests = estimate_curves(cfg, curves, dt)
    scale = max(abs(np.mean(est.psd) / dt - 1.0) for est in ests)
    z = max(np.max(np.abs(np.log(est.psd / spectral.expected_psd(
                beta, taps, dt, cfg.segment_len, cfg.window))) * est.psd / est.se)
            for taps, est in zip(curves, ests))
    return [("welch-scale", scale, 1e-6), ("welch-expected-density", z, Z_FAMILY)]


def run_acceptance(cfg: ExperimentConfig) -> Dict:
    """Run the property battery and write a machine-readable report.

    Returns the report dict; report['passed'] reflects overall status. A
    check passes while its measured value is below its tolerance.
    """
    if cfg.beta <= 0:
        raise ParameterError("acceptance battery requires beta > 0")
    beta, seed = cfg.beta, cfg.seed
    checks = _ensemble_checks(beta, seed)

    # sample variance and std of N draws: relative standard errors
    # sqrt((kurtosis - 1) / N), kurtosis 9/5 for a uniform, and sqrt(1/(2N))
    n_draws = 20000
    dist = stochastic.OffsetDist.uniform(100.0)
    draws = np.array([stochastic.sample_offset(dist, (seed, i)) for i in range(n_draws)])
    checks.append(("uniform-offset-variance", _rel_err(np.var(draws), 100.0**2 / 3.0),
                   Z_GATE * math.sqrt(0.8 / n_draws)))
    dist = stochastic.OffsetDist.normal(50.0)
    draws = np.array([stochastic.sample_offset(dist, (seed, i)) for i in range(n_draws)])
    checks.append(("normal-offset-std", _rel_err(np.std(draws), 50.0),
                   Z_GATE * math.sqrt(0.5 / n_draws)))

    # the pair averaging stage's output re-fed through its divider loop, at
    # a fixed beta: at the battery's beta the brick-wall filters cut part of
    # the Lorentzian tail, and the residual would measure that, not the loop
    f_c, fs, n_div = 1e6, 32e6, 4096
    spec = stochastic.OscillatorSpec(f_c=f_c, beta=1e-3)
    w1, w2 = (stochastic.oscillator_waveform(
        spec, 0.0, stochastic.wiener_path(spec.beta, 0.0, 1.0 / fs, n_div, (seed, i), TAG_DIVIDER),
        fs) for i in (0, 1))
    divided, _ = circuit._average_stage(circuit.mix(w1, w2), 2, 2, f_c)
    checks.append(("divider-loop-residual", circuit.divider_residual(w1, w2, divided, f_c), 1e-3))

    # the delay and the offsets scale with 1/beta, so quadrature spans the
    # same few line widths at any beta (delta = 1e-6 s at beta = 1e4)
    delta = 1e-2 / beta
    taps = analytic.delayed_taps(delta)
    autocorr = partial(analytic.tap_autocorr, beta, taps)
    checks.append(("delayed-autocorr-continuity",
                   abs(autocorr(delta * (1 - 1e-12)) - autocorr(delta)), 1e-9))
    worst = max(_rel_err(analytic.psd_by_quadrature(autocorr, om, tail_rate=np.pi * beta,
                                                    breakpoint=delta),
                         analytic.tap_psd(beta, taps, om))
                for om in np.pi * beta * np.array([0.2, 20.0, 200.0]))
    checks.append(("delayed-psd-vs-quadrature", worst, 1e-3))

    # the delay limits against the Lorentzians written out, not the model:
    # one oscillator's (rate a = pi beta) at zero delay, the independent
    # pair's (rate a/2) at a delay where R(delta) = exp(-50)
    om = TWO_PI * 1e4
    a = np.pi * beta  # a * a, not a**2, which raises on overflow
    checks.append(("delayed-psd-zero-delay-limit",
                   _rel_err(analytic.tap_psd(beta, analytic.delayed_taps(0.0), om),
                            2.0 * a / (a * a + om * om)), 1e-9))
    a /= 2.0
    checks.append(("delayed-psd-large-delay-limit",
                   _rel_err(analytic.tap_psd(beta, analytic.delayed_taps(100.0 / (np.pi * beta)),
                                             om), 2.0 * a / (a * a + om * om)), 1e-9))

    # the pair's power within |w| <= 1e4 a: (2/pi) arctan(1e4). The grid
    # scales with the line, so the trapezoid sum is exact to rounding (from
    # beta = 1e-3 to 1e9). It is integrated in runs of BLOCK_SAMPLES
    # intervals that share their edge points, added in grid order, so the
    # spectrum is never held over the whole grid
    om_grid = a * np.linspace(-1e4, 1e4, 400001)
    runs = (om_grid[i:i + BLOCK_SAMPLES + 1] for i in range(0, om_grid.size - 1, BLOCK_SAMPLES))
    power = sum(np.trapezoid(analytic.tap_psd(beta, PAIR_TAPS, w), w) for w in runs) / TWO_PI
    checks.append(("lorentzian-unit-power", _rel_err(power, 2.0 / np.pi * math.atan(1e4)), 1e-9))

    checks += _welch_checks(beta, seed)

    checks = [{"name": name, "measured": float(measured), "tolerance": float(tolerance),
               "passed": bool(measured < tolerance), "seed": seed}
              for name, measured, tolerance in checks]
    report = {
        "config": cfg.content_hash(),
        "seed": seed,
        "n_checks": len(checks),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    if cfg.output_dir:
        with _open_output(Path(cfg.output_dir) / "acceptance_report.json") as f:
            f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
