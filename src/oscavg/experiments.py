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
from .stochastic import STREAM_PHASE, TWO_PI, ParameterError

LOG_GRID = (1e3, 1e7, 200)   # offset range and point count of the log sweep
LIN_BAND = 2.5e6             # half-width of the linear sweep
LIN_POINTS = 501
# Samples per block of paths in the ensemble estimates, at least one path,
# counting per path the larger of its Welch segment samples (segments *
# segment_len) and its longest walk (the path and its taps' largest lag).
# Output does not depend on it. Each estimate allocates one set of Welch
# buffers, sized by its largest block's segment samples, so this bounds them
# whatever the overlap, and each source's walks whatever the delay; a path
# alone can hold up to MAX_SAMPLES. 7 * 2**13 is two default paths (7 segments of
# 4096) and 32 of segment_len 256.
BLOCK_SAMPLES = 7 * 2**13
# Largest input a command accepts, in samples: a `simulate` waveform
# (duration * fs), and an estimated figure path (4 * segment_len), the
# Welch segment samples it makes and a delayed curve's walk. The arrays of
# that size are held in memory, and a much larger input would fail in
# allocation instead of with a one-line error. Tables are written
# TABLE_CHUNK_ROWS rows at a time, so their text (~35 bytes a row, ~0.6 GB
# here) never is.
MAX_SAMPLES = 2**24
# Rows `_write_table` formats and writes at once (~2.5 MB of text). Output
# does not depend on it.
TABLE_CHUNK_ROWS = 2**16


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
TAG_DIVIDER = 3          # divider-loop-residual
TAG_PAIR = (4, 5)
TAG_DELAYED = 6

BASE_TAPS = ((STREAM_PHASE, 1.0, 0.0),)
PAIR_TAPS = tuple((tag, 0.5, 0.0) for tag in TAG_PAIR)


# ---------------------------------------------------------------------------
# estimated curves (Welch over the curves' phase ensembles, built in blocks
# of BLOCK_SAMPLES samples so no curve holds its whole ensemble)


def _estimate(cfg: ExperimentConfig, taps, dt: float) -> spectral.SpectrumEstimate:
    """Welch estimate of the curve of `taps` over cfg.n_paths paths of four
    segment lengths, built in blocks of at most BLOCK_SAMPLES samples (at
    least one path), counting per path the larger of its Welch segment
    samples and its longest walk (the path and its taps' largest lag)."""
    n = 4 * cfg.segment_len
    segments = spectral._segments(n, cfg.segment_len, cfg.overlap)[1]
    walk = n + max(stochastic.lag_samples(delay, dt) for _, _, delay in taps)
    rows = max(1, BLOCK_SAMPLES // max(segments * cfg.segment_len, walk))
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


def _make_out_dir(out: Path):
    """Create the output directory `out`. A location that cannot be one (an
    existing regular file, or a path under one) is a ParameterError."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}") from None


def _open_output(path: Path, mode: str = "w"):
    """Open the output file `path` for writing (text unless `mode` says
    "wb"); a path that cannot be opened is a ParameterError. Errors while
    writing are left as they are."""
    try:
        return path.open(mode)
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}") from None


def _words(texts) -> np.ndarray:
    """The ASCII strings `texts`, joined, as little-endian uint32 words of
    four characters each."""
    return np.frombuffer("".join(texts).encode(), "<u4")


def _pow10_pair(k: int) -> Tuple[float, float]:
    """10**k as hi + lo: hi correctly rounded, and lo the rest correctly
    rounded (int / int rounds correctly)."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """a as hi + lo, each with at most 26 significant bits, so the product
    of two halves is exact (Dekker, Numer. Math. 18, 1971)."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# Tables of `_format_rows`: 10**k for k in [-300, 300] as hi + lo, and as
# 4-byte words the text "d.dd" of the leading three significand digits,
# "dddd" of four more, and "+hto" of an exponent, NUL in place of the
# hundreds digit below 100.
_POW10_MIN = -300
_POW10, _POW10_LO = np.array([_pow10_pair(k) for k in range(_POW10_MIN, 301)]).T
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
    the product T of |v| and 10**(10 - E):
    - The product s of |v| and the correctly rounded power of ten is
      within 2 ulp (< 5e-5 at 1e11) of T, so rint(s) is D unless s is
      within 1e-3 of a tie.
    - Near a tie, T - s is summed from the exact error of that product
      (Dekker's split) and |v| times the power's own rounding error, to
      within 1e-19, which puts T on one side of the tie. That leaves the
      values within 1e-12 of a tie: in practice only exact ties.
    A value takes (D, E) from Python's own "%.10e" instead when it is that
    close to a tie, when s is below 1e10 or its D is 1e11 (E off by one at
    a decade edge, or a carry into the next decade), or when |v| is
    outside [1e-280, 1e280], where the power of ten could overflow (zeros
    and subnormals among them). The text is assembled in 19 bytes a value,
    NUL where the value has no sign or no third exponent digit, and the
    NULs are dropped."""
    v = np.column_stack((x, y)).ravel().astype(float, copy=False)  # x0 y0 x1 y1 ...
    mag = np.abs(v)
    fast = (mag >= 1e-280) & (mag <= 1e280)
    scale = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(scale))
    power = (10 - e).astype(np.intp) - _POW10_MIN
    scale *= _POW10[power]
    d = np.rint(scale)
    near = np.flatnonzero(np.abs(scale - np.floor(scale) - 0.5) < 1e-3)
    a, s, near_power = mag[near], scale[near], power[near]
    (a_hi, a_lo), (p_hi, p_lo) = _split(a), _split(_POW10[near_power])
    s_error = ((a_hi * p_hi - s) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    above_tie = (s - np.floor(s) - 0.5) + (s_error + a * _POW10_LO[near_power])  # T - tie
    d[near] = np.floor(s) + (above_tie > 0)
    fast[near[np.abs(above_tie) < 1e-12]] = False
    fast &= (scale >= 1e10) & (d < 1e11)
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
    ParameterError, before anything is written, if either column holds a
    nan or an infinity."""
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


def _check_path_size(cfg: ExperimentConfig):
    """Raise ParameterError if an estimated curve's path (4 * segment_len
    samples) or its Welch segments' samples exceed MAX_SAMPLES."""
    n = 4 * cfg.segment_len
    if n > MAX_SAMPLES:
        raise ParameterError(f"segment_len = {cfg.segment_len} makes paths of {n} samples, "
                             f"over the limit of {MAX_SAMPLES}")
    segments = spectral._segments(n, cfg.segment_len, cfg.overlap)[1]
    if segments * cfg.segment_len > MAX_SAMPLES:
        raise ParameterError(f"overlap = {cfg.overlap} makes {segments} Welch segments of "
                             f"{cfg.segment_len} samples a path, over the limit of "
                             f"{MAX_SAMPLES} samples")


def _check_delayed_walks(cfg: ExperimentConfig, dt: float):
    """Raise ParameterError if a delay is not a whole number of steps of dt,
    or if its delayed curve's walk (4 * segment_len samples and the delay's
    lag) exceeds MAX_SAMPLES."""
    n = 4 * cfg.segment_len
    for delta in cfg.deltas:
        walk = n + stochastic.lag_samples(delta, dt)
        if walk > MAX_SAMPLES:
            raise ParameterError(f"delay {delta:g} s makes delayed walks of {walk} samples "
                                 f"at dt={dt:g} s, over the limit of {MAX_SAMPLES}")


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
    if estimates:
        _check_path_size(cfg)
        _check_delayed_walks(cfg, dt)
    _make_out_dir(out)
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
    with _open_output(out / "notches.json") as f:
        f.write(json.dumps({"config": cfg.content_hash(), "notches": notch_summary},
                           indent=2, sort_keys=True) + "\n")
    written["notches"] = ["notches.json"]
    return written


def run_simulate(cfg: ExperimentConfig, out_dir=None) -> List[str]:
    """Raw waveform dump of the configured circuit scenario."""
    samples = cfg.duration * cfg.fs  # may be inf: check before rounding
    if samples > MAX_SAMPLES:
        raise ParameterError(f"duration * fs = {samples:g} samples exceeds the "
                             f"simulate limit of {MAX_SAMPLES}")
    n = int(round(samples))
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    _make_out_dir(out)
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

# Monte Carlo checks pass within Z_GATE standard errors: a two-sided
# false-fail rate of 1e-4 per compared value for a normal estimate
# (Percival & Walden, Spectral Analysis for Physical Applications, 1993).
# It is -scipy.special.ndtri(0.5e-4), written out (0x1.f1feea391d147p+1)
# so that importing the package does not load scipy.
Z_GATE = 3.890591886413094


def _rel_err(measured: float, target: float) -> float:
    """|measured - target| / |target|; ParameterError if the target is 0 or
    not finite, as when a large beta underflows a spectrum to 0."""
    if not (math.isfinite(target) and target != 0.0):
        raise ParameterError(f"an acceptance check's target is {target!r}: the battery "
                             f"cannot run at this beta")
    return abs(measured - target) / abs(target)


def _ensemble_checks(beta: float, seed: int) -> List[Tuple[str, float, float]]:
    """(name, measured, tolerance) of the checks on one ensemble of four
    blocks of 2000 paths at the master seed (so batteries at neighbouring
    seeds share no stream). The phase of check k is the mean of the first
    k blocks. Its increments are independent N(0, 2 pi beta dt / k), so the
    mean of their squares has relative standard error sqrt(2 / (N (n-1)))."""
    dt, n, rows = 1e-6, 101, 2000
    blocks = stochastic.wiener_ensemble(beta, 0.0, dt, n, seed, 4 * rows).reshape(4, rows, n)
    out = [(name, _rel_err(np.mean(np.diff(blocks[:k].mean(axis=0)) ** 2), TWO_PI * beta * dt / k),
            Z_GATE * math.sqrt(2.0 / (rows * (n - 1))))
           for k, name in ((1, "wiener-variance-slope"), (2, "pair-averaging-variance-halving"),
                           (4, "quad-averaging-variance-quartering"))]
    # the autocorrelation of exp(j theta): the largest deviation in standard
    # errors of the path mean, at least eps (a tiny beta leaves no spread)
    lags = np.array([5, 10, 20])
    ac = spectral.autocorr_per_path(np.exp(1j * blocks[0]), lags.tolist()).real
    se = np.maximum(ac.std(axis=0) / math.sqrt(rows), np.finfo(float).eps)
    z = np.abs(ac.mean(axis=0) - np.exp(-np.pi * beta * lags * dt)) / se
    out.append(("phase-shift-autocorr", float(np.max(z)), Z_GATE))
    return out


def _white_noise_check(seed: int) -> Tuple[str, float, float]:
    """(name, measured, tolerance) of the Welch density scale on 2^16
    samples of unit white noise at the master seed. mean(psd) * fs is
    sum_t c_t x_t^2, where c_t = sum_s w^2_(t - start_s) / (S U) is sample
    t's share of the S segments' window power U = sum w^2 (the c_t sum to
    1). Against np.var, its relative standard error for Gaussian x is
    sqrt(2 sum_t (c_t - 1/N)^2)."""
    n, welch_args = 2**16, {"fs": 1e6, "segment_len": 1024, "overlap": 0.5, "window": "hann"}
    white = stochastic.path_rng((seed, 0), TAG_WHITE_NOISE).normal(size=n)
    est = spectral.welch_psd(white, **welch_args)
    plan = spectral._plan(white.shape, **welch_args)
    share = np.zeros(n)
    for start in range(0, plan.segments * plan.step, plan.step):
        share[start:start + len(plan.win)] += plan.win**2
    share /= plan.segments * np.sum(plan.win**2)
    return ("welch-white-normalization",
            _rel_err(float(np.mean(est.psd)) * welch_args["fs"], float(np.var(white))),
            Z_GATE * math.sqrt(2.0 * np.sum((share - 1.0 / n) ** 2)))


def run_acceptance(cfg: ExperimentConfig, out_dir=None) -> Dict:
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
        fs, n_div) for i in (0, 1))
    divided, _ = circuit._average_stage(w1, w2, f_c)
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
    # beta = 1e-3 to 1e9)
    om_grid = a * np.linspace(-1e4, 1e4, 400001)
    power = np.trapezoid(analytic.tap_psd(beta, PAIR_TAPS, om_grid), om_grid) / TWO_PI
    checks.append(("lorentzian-unit-power", _rel_err(power, 2.0 / np.pi * math.atan(1e4)), 1e-9))

    checks.append(_white_noise_check(seed))
    tone = np.exp(1j * TWO_PI * 0.1 * np.arange(2**14))
    est = spectral.welch_psd(tone, fs=1.0, segment_len=1024)
    checks.append(("welch-tone-power", _rel_err(est.total_power(), 1.0), 0.02))

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
    if out_dir is not None or cfg.output_dir:
        out = Path(out_dir if out_dir is not None else cfg.output_dir)
        _make_out_dir(out)
        with _open_output(out / "acceptance_report.json") as f:
            f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
