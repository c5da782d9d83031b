"""oscavg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mc_long --seed 1 --seconds 10 --trace 0

Run from the root of an oscavg source tree; the program is imported from
``src/``. With ``--trace 0`` the run measures set-up (several fresh processes,
median) and then repeats whole workload passes for ``--seconds``, reporting
the end-to-end metrics. With ``--trace 1`` it runs untraced passes for half
the time and traced passes for the other half, and reports per-layer
metrics plus the tracing overhead. Human-readable lines come first; the
last line of stdout is one JSON object. Results (with the run environment)
and traced spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}
QUALITY_UNITS = {"est_dev_db": "dB", "phase_rms_rad": "rad", "quad_vs_closed_max_rel": "1",
                 "acceptance_failed_checks": "count", "error_rate": "1"}


def pin_cpu_and_threads():
    """Run on one CPU, so the speed probe and the timed calls share it, and
    cap BLAS/OpenMP thread variables at the CPUs the run may use (set them
    if unset). Must run before numpy is imported."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, cap))
        except ValueError:
            value = cap
        os.environ[var] = str(min(max(value, 1), cap))


def import_program():
    if not (SRC / "oscavg" / "__init__.py").is_file():
        sys.exit(f"error: no oscavg source under {SRC}; run from an oscavg checkout")
    sys.path.insert(0, str(SRC))
    import oscavg

    if Path(oscavg.__file__).resolve().parent != (SRC / "oscavg").resolve():
        sys.exit(f"error: imported oscavg from {oscavg.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "oscavg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload, clock) -> list[tuple[float, float]]:
    """(raw, reference) seconds from process start to ready, for fresh
    interpreters that import oscavg and parse the workload's CLI line and
    config. The speed probe runs before the start and after the child exits."""
    times = []
    for _ in range(SETUP_PROBES):
        clock.probe()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                               *workload.cli_args()],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            t1 = perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line != "ready" or rc != 0:
            sys.exit(f"error: set-up probe failed (exit {rc})")
        clock.probe()
        times.append((t1 - t0, clock.scaled((t0, t1))))
    return times


def run_phase(workload, workdir: Path, seconds: float, min_passes: int, tracer=None):
    """Repeat whole passes until `seconds` have elapsed and at least
    `min_passes` ran. Returns the pass results and, when traced, one span
    segment per pass."""
    passes, segments = [], []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        out = workdir / f"pass{len(passes)}"
        out.mkdir()
        if tracer is not None:
            tracer.reset()
        passes.append(workload.run_pass(out))
        if tracer is not None:
            segments.append(tracer.segment())
        shutil.rmtree(out)
    workload.clock.probe()  # closes the last timed interval
    return passes, segments


def tally(passes, reference) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, counting one determinism check per
    pass: every pass must reproduce the reference output bytes."""
    attempted = failed = 0
    errors = []
    for p in passes:
        attempted += len(p.ops) + 1
        errors += [op.error for op in p.ops if op.error]
        failed += p.failed
        if p.digest.hexdigest() != reference:
            failed += 1
            errors.append("output bytes differ from the first pass")
    return attempted, failed, errors


def traced_metrics(tracer, passes, segments, untraced) -> dict:
    from tracing import layer_metrics

    per_pass = [layer_metrics(seg, tracer.span_names) for seg in segments]
    metrics = {}
    for name in per_pass[0]:
        if per_layer_unit(name) == "s":
            metrics[name] = statistics.median(m[name] for m in per_pass)
        else:  # counts: exact, from the first traced pass
            metrics[name] = per_pass[0][name]
    metrics["analytic.quad_vs_closed_max_rel"] = passes[0].quality.get(
        "quad_vs_closed_max_rel", 0.0)
    traced_wall = statistics.median(p.wall() for p in passes)
    untraced_wall = statistics.median(p.wall() for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


PER_LAYER_UNITS = {"_s": "s", "_calls": "count", ".samples": "count", ".segments": "count",
                   ".fft_flops_computed": "flop", ".fft_samples": "count",
                   ".table_bytes": "B", ".spans": "count", ".samples_per_stream": "count",
                   "_rel": "1"}


def per_layer_unit(name: str) -> str:
    return next(unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_cpu_and_threads()
    import_program()
    from clock import Clock
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    context = {}  # raw figures printed and recorded next to the metrics
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, Clock())
        if args.trace == 0:
            setup = measure_setup(workload, workload.clock)
            passes, _ = run_phase(workload, workdir, args.seconds, min_passes=2)
            wall = statistics.median(p.wall() for p in passes)
            metrics = {
                "setup_s": statistics.median(ref for _, ref in setup),
                "wall_s": wall,
                "samples_per_s": passes[0].samples / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            all_passes = passes
            context["setup_raw_s"] = statistics.median(raw for raw, _ in setup)
            context["setup_probes_raw_ref_s"] = setup
        else:
            untraced, _ = run_phase(workload, workdir, args.seconds / 2, min_passes=1)
            tracer = Tracer()
            tracer.install()
            try:
                passes, segments = run_phase(workload, workdir, args.seconds / 2,
                                             min_passes=1, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = traced_metrics(tracer, passes, segments, untraced)
            units = {name: per_layer_unit(name) for name in metrics}
            all_passes = untraced + passes
            write_spans(OUT / f"spans-{args.workload}.npz", tracer.span_names, segments)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, errors = tally(all_passes, all_passes[0].digest.hexdigest())
    quality = {**all_passes[0].quality, "error_rate": failed / attempted}
    context["wall_raw_s"] = statistics.median(p.raw_wall() for p in all_passes)
    context["pass_walls_raw_ref_s"] = [(p.raw_wall(), p.wall()) for p in all_passes]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(all_passes),
        "samples_per_pass": all_passes[0].samples,
        "attempted": attempted, "failed": failed, "errors": errors,
        "notes": sorted({note for p in all_passes for note in p.notes}),
        "metrics": metrics, "quality": quality, **context,
        "probe_s": workload.clock.probe_s, "environment": environment(),
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(all_passes)}  samples/pass {all_passes[0].samples}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    for name, value in quality.items():
        print(f"  {name:40s} {value:.6g} {QUALITY_UNITS[name]}")
    for name in ("wall_raw_s", "setup_raw_s"):
        if name in context:
            print(f"  {name:40s} {context[name]:.6g} s (unscaled)")
    print(f"  attempted {attempted}  failed {failed}")
    for err in errors[:20]:
        print(f"  FAILED {err}")
    for note in record["notes"]:
        print(f"  NOTE {note}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
