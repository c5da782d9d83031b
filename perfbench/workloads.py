"""The four benchmark workloads and the checks that make each pass count.

A workload is prepared once per run (config files, seeds) and then runs
whole passes. A pass is a fixed list of operations; every operation calls
the program through its public API or CLI and is then checked. Only the
program calls are timed (`Operation.call`); reading results back and
checking them is not.

All passes of one run use the same inputs, so their output bytes must be
identical; the runner checks that too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clock import Clock
from oscavg import analytic, circuit, cli, stochastic
# bound before any tracing is installed, so the KS check is not traced
from oscavg.analytic import bates2_cdf

TWO_PI = 2.0 * math.pi
EST_DEV_GATE_DB = 0.5          # an estimate table further than this from theory fails
PHASE_RMS_GATE_RAD = 1e-4      # as in test_04
KS_GATE, VAR_GATE = 0.01, 0.02  # as in test_09, at its sample size
# Acceptance-battery checks whose measured value is a Monte Carlo estimate
# from the seed. Their tolerances are not tied to their standard errors:
# over seeds 1..300 wiener-variance-slope fails at 52 and
# quad-averaging-variance-quartering at 7. Their verdicts are printed and
# recorded with every result; the run fails only on the deterministic
# checks, and offset statistics are gated on test_09-sized samples below.
MONTE_CARLO_CHECKS = frozenset({
    "wiener-variance-slope", "phase-shift-autocorr", "uniform-offset-variance",
    "normal-offset-std", "pair-averaging-variance-halving",
    "quad-averaging-variance-quartering", "welch-white-normalization"})


class CheckFailed(Exception):
    pass


@dataclass
class Operation:
    """One checked call (or short sequence of calls) into the program."""

    name: str
    clock: Clock
    intervals: list = field(default_factory=list)
    error: str | None = None

    def call(self, fn, *args, **kwargs):
        with self.clock.timing(self.intervals):
            return fn(*args, **kwargs)

    def require(self, ok, message: str):
        if not ok:
            raise CheckFailed(message)


@dataclass
class PassResult:
    clock: Clock
    samples: int = 0
    ops: list[Operation] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    quality: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @contextlib.contextmanager
    def operation(self, name: str):
        op = Operation(name, self.clock)
        self.ops.append(op)
        try:
            yield op
        except Exception as exc:  # a failed operation is counted, the pass goes on
            op.error = f"{name}: {type(exc).__name__}: {exc}"
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)

    @property
    def intervals(self) -> list:
        return [iv for op in self.ops for iv in op.intervals]

    def raw_wall(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.intervals)

    def wall(self) -> float:
        """Timed program calls of this pass, in reference seconds; valid
        once a probe has run after the pass."""
        return sum(self.clock.scaled(iv) for iv in self.intervals)


def run_cli(op: Operation, argv: list[str], ok=(0,)) -> tuple[int, str]:
    """Run `oscavg <argv>` in process; require an exit code in `ok`.
    Returns the exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = op.call(cli.main, argv)
    op.require(rc in ok, f"oscavg {argv[0]} exited {rc}")
    return rc, buf.getvalue()


def read_table(path: Path) -> np.ndarray:
    rows = [line.split() for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    arr = np.array(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{path.name}: not a finite two-column table")
    return arr


class Workload:
    name = ""
    command = ""        # the CLI command whose parsing setup_s measures

    def __init__(self, seed: int, workdir: Path, clock: Clock):
        self.seed = seed
        self.clock = clock
        self.config = workdir / f"{self.name}.cfg"
        self.config.write_text(self.config_text())

    def config_text(self) -> str:
        return ""

    def cli_args(self) -> list[str]:
        """Arguments of the workload's main CLI call (without --out)."""
        return [self.command, "--config", str(self.config), "--seed", str(self.seed)]

    def run_pass(self, out: Path) -> PassResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Monte Carlo figure workloads


class FigureWorkload(Workload):
    paths = 0
    curves = ("base", "ind", "delta_1em6", "delta_1em7")
    band_hz = (0.0, 0.0)   # |offset| range compared with the closed form

    def cli_args(self):
        return super().cli_args() + ["--paths", str(self.paths), "--format", "json"]

    def run_pass(self, out):
        res = PassResult(self.clock)
        with res.operation(self.command) as op:
            summary = json.loads(run_cli(op, self.cli_args() + ["--out", str(out)])[1])
            devs = []
            for curve in self.curves:
                key = "independent" if curve == "ind" else curve
                stem = f"psd_{self.prefix}_{curve}"
                op.require(summary.get(key) == f"{stem}.data {stem}.est.data",
                           f"{stem}: tables not reported")
                exact = read_table(out / f"{stem}.data")
                est = read_table(out / f"{stem}.est.data")
                op.require(np.array_equal(exact[:, 0], est[:, 0]), f"{stem}: grids differ")
                f = np.abs(exact[:, 0])
                band = (f >= self.band_hz[0]) & (f <= self.band_hz[1])
                devs.append(np.abs(est[band, 1] - exact[band, 1]))
                for name in (f"{stem}.data", f"{stem}.est.data"):
                    res.digest.update((out / name).read_bytes())
            dev = float(np.median(np.concatenate(devs)))
            res.quality["est_dev_db"] = dev
            op.require(dev < EST_DEV_GATE_DB, f"est_dev_db {dev:.3f} dB >= {EST_DEV_GATE_DB}")
        # figure paths are 4 segments long
        res.samples = self.paths * 4 * self.segment_len * len(self.curves)
        return res


class McLong(FigureWorkload):
    name = "mc_long"
    command = "figure-log"
    prefix = "log"
    paths = 32
    segment_len = 4096
    band_hz = (3e4, 3e6)

    def config_text(self):
        return "# default figure-log configuration\n"


class McShort(FigureWorkload):
    name = "mc_short"
    command = "figure-linear"
    prefix = "lin"
    paths = 256
    segment_len = 256
    band_hz = (2e5, 2e6)

    def config_text(self):
        return f"segment_len = {self.segment_len}\n"


# ---------------------------------------------------------------------------
# waveform-mode circuits


def _rms_wrapped(measured, expected, trim):
    diff = (measured - expected)[trim:-trim]
    diff = diff - TWO_PI * np.round(np.mean(diff) / TWO_PI)
    return float(np.sqrt(np.mean(diff**2)))


class CircuitWave(Workload):
    name = "circuit_wave"
    command = "simulate"
    F_C, FS, DURATION = 1e6, 64e6, 1e-3
    LAG = 64                          # delayed self-average delay, samples
    BETA, OFFSET_HZ = 1e-3, 10.0
    SEEDS_PER_SCENARIO = 8
    SCENARIOS = {"averaged_independent": "pair", "averaged_n": "tree",
                 "delayed_self": "delayed"}

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        self.spec = stochastic.OscillatorSpec(
            f_c=self.F_C, beta=self.BETA,
            offset_dist=stochastic.OffsetDist.uniform(self.OFFSET_HZ))
        self.configs = {}
        for scenario in self.SCENARIOS:
            path = workdir / f"{self.name}_{scenario}.cfg"
            path.write_text(self.config_text() + f"scenario = {scenario}\n")
            self.configs[scenario] = path

    def config_text(self):
        return (f"beta = {self.BETA}\noffsets = uniform:{self.OFFSET_HZ}\n"
                f"f_c_scaled = {self.F_C}\nfs = {self.FS}\nduration = {self.DURATION}\n"
                f"delta = {self.LAG / self.FS!r}\nn_oscillators = 4\n")

    def sim_seed(self, k: int) -> int:
        return self.seed * 16 + k

    def cli_args(self):
        return ["simulate", "--config", str(self.configs["averaged_independent"]),
                "--seed", str(self.sim_seed(0))]

    def _simulate(self, op, kind, seed):
        fs, n = self.FS, int(round(self.DURATION * self.FS))
        t = np.arange(n) / fs
        trim = max(n // 16, int(4.0 * fs / self.F_C))
        if kind == "pair":
            r = op.call(circuit.simulate_pair_average, self.spec, self.spec, fs,
                        self.DURATION, seed)
            expected = 0.5 * (sum(r.omegas) * t + r.phases[0].samples + r.phases[1].samples)
        elif kind == "tree":
            r = op.call(circuit.simulate_mixing_tree, [self.spec] * 4, fs, self.DURATION, seed)
            expected = sum(r.omegas) * t + r.expected.phase_path_prime.samples
        else:
            lag = self.LAG
            r = op.call(circuit.simulate_delayed_self_average, self.spec, lag / fs, fs,
                        self.DURATION, seed)
            om, theta = r.omegas[0], r.phases[0].samples
            delayed = np.zeros(n)
            delayed[lag:] = om * (t[lag:] - lag / fs) + theta[:-lag]
            expected = 0.5 * (om * t + theta + delayed)
            trim = max(trim, 4 * lag)
        op.require(len(r.output) == n and np.all(np.isfinite(r.output.samples)),
                   "non-finite or short output")
        rms = _rms_wrapped(r.measured_total_phase, expected, trim)
        op.require(rms <= PHASE_RMS_GATE_RAD, f"phase rms {rms:.3e} rad > {PHASE_RMS_GATE_RAD}")
        return r.output.samples, rms

    def run_pass(self, out):
        res = PassResult(self.clock)
        worst = 0.0
        first = {}
        n = int(round(self.DURATION * self.FS))
        for k in range(self.SEEDS_PER_SCENARIO):
            for kind in self.SCENARIOS.values():
                with res.operation(f"{kind}[{k}]") as op:
                    samples, rms = self._simulate(op, kind, self.sim_seed(k))
                    worst = max(worst, rms)
                    res.digest.update(samples.tobytes())
                    res.samples += n
                    if k == 0:
                        first[kind] = samples
        for scenario, kind in self.SCENARIOS.items():
            with res.operation(f"simulate {scenario}") as op:
                run_cli(op, ["simulate", "--config", str(self.configs[scenario]),
                             "--seed", str(self.sim_seed(0)), "--out", str(out)])
                path = out / f"waveform_{scenario}.data"
                table = read_table(path)
                res.digest.update(path.read_bytes())
                res.samples += n
                op.require(table.shape[0] == n, f"{path.name}: {table.shape[0]} rows")
                if kind in first:  # same seed as the API run: same waveform
                    err = float(np.max(np.abs(table[:, 1] - first[kind])))
                    op.require(err < 1e-9, f"{path.name} differs from the API result by {err:.2e}")
        res.quality["phase_rms_rad"] = worst
        return res


# ---------------------------------------------------------------------------
# statistical and closed-form checks


def draw_offsets(dist, master: int, start: int, count: int) -> list[float]:
    return [stochastic.sample_offset(dist, (master, i)) for i in range(start, start + count)]


class Checks(Workload):
    name = "checks"
    command = "acceptance"
    PAIRS = 100_000                                  # per distribution, as in test_09
    CHUNK = 20_000
    DELAYS = tuple(np.logspace(-7, -5, 8))
    FREQS_HZ = tuple(np.logspace(3, 7, 40))

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        from scipy import stats  # loaded before timing; the KS test needs it

        self.stats = stats
        self.beta = 1e4

    def config_text(self):
        return "beta = 1e4\n"

    def cli_args(self):
        return super().cli_args() + ["--format", "json"]

    def _draw(self, op, dist, master) -> np.ndarray:
        """2 * PAIRS draws on streams (master, i), timed in chunks so the
        clock can probe the machine speed between them."""
        draws = []
        for start in range(0, 2 * self.PAIRS, self.CHUNK):
            draws += op.call(draw_offsets, dist, master, start, self.CHUNK)
        return np.array(draws)

    def run_pass(self, out):
        res = PassResult(self.clock)
        with res.operation("acceptance") as op:
            rc, _ = run_cli(op, self.cli_args() + ["--out", str(out)], ok=(0, 1))
            report_path = out / "acceptance_report.json"
            report = json.loads(report_path.read_text())
            res.digest.update(report_path.read_bytes())
            op.require(rc == (0 if report["passed"] else 1), f"exit {rc} disagrees with the report")
            op.require(all(math.isfinite(c["measured"]) for c in report["checks"]),
                       "non-finite acceptance measurement")
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            res.quality["acceptance_failed_checks"] = len(failed)
            if failed:
                res.notes.append(f"acceptance battery verdict FAIL at seed {self.seed}: "
                                 + ", ".join(f"{c['name']} {c['measured']:.4g} > {c['tolerance']:g}"
                                             for c in report["checks"] if not c["passed"]))
            gated = sorted(set(failed) - MONTE_CARLO_CHECKS)
            op.require(not gated, f"acceptance failed: {gated}")

        f_o, sigma = 100.0, 50.0
        with res.operation("uniform offsets") as op:
            draws = self._draw(op, stochastic.OffsetDist.uniform(f_o), self.seed * 16 + 9)
            res.digest.update(draws.tobytes())
            pairs = 0.5 * (draws[:self.PAIRS] + draws[self.PAIRS:])
            ks = self.stats.kstest(pairs, lambda x: bates2_cdf(f_o, x)).statistic
            op.require(ks < KS_GATE, f"KS {ks:.4f} >= {KS_GATE}")
        with res.operation("normal offsets") as op:
            draws = self._draw(op, stochastic.OffsetDist.normal(sigma), self.seed * 16 + 10)
            res.digest.update(draws.tobytes())
            pairs = 0.5 * (draws[:self.PAIRS] + draws[self.PAIRS:])
            rel = abs(np.var(pairs) - sigma**2 / 2.0) / (sigma**2 / 2.0)
            op.require(rel < VAR_GATE, f"variance error {rel:.4f} >= {VAR_GATE}")
        res.samples = 4 * self.PAIRS

        worst = 0.0
        for delta in self.DELAYS:
            with res.operation(f"quadrature delta={delta:.3g}") as op:
                p = analytic.DelayedAvgParams(self.beta, float(delta))
                omega = TWO_PI * np.array(self.FREQS_HZ)
                closed = op.call(analytic.delayed_avg_psd, p, omega)
                quad = op.call(_quadrature_sweep, p, omega, math.pi * self.beta)
                rel = np.abs(quad - closed) / np.abs(closed)
                res.digest.update(quad.tobytes())
                worst = max(worst, float(rel.max()))
                op.require(rel.max() < 1e-3, f"closed form vs quadrature {rel.max():.2e}")
        res.quality["quad_vs_closed_max_rel"] = worst
        return res


def _quadrature_sweep(p, omega, tail_rate):
    return np.array([analytic.psd_by_quadrature(
        lambda tau: analytic.delayed_avg_autocorr(p, tau), float(om),
        tail_rate=tail_rate, breakpoint=p.delta) for om in omega])


WORKLOADS = {w.name: w for w in (McLong, McShort, CircuitWave, Checks)}
