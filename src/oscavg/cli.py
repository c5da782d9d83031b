"""Command-line entry point.

Subcommands:
  figure-log     log-frequency PSD sweep tables
  figure-linear  linear-band PSD tables plus notch summary
  acceptance     property battery with a JSON report (nonzero exit on failure)
  simulate       raw waveform dump for the configured scenario
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .circuit import ConfigurationError, ShapeError
from .config import ExperimentConfig
from .spectral import SpectralShapeError
from .stochastic import ParameterError, SamplingError

# the package's errors for a configuration the model cannot run: exit code 2
_INPUT_ERRORS = (ParameterError, SamplingError, ConfigurationError, ShapeError,
                SpectralShapeError)


def _load_config(args) -> ExperimentConfig:
    try:
        cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    except OSError as exc:
        raise ParameterError(f"cannot read config: {exc}") from None
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.paths is not None:
        overrides["n_paths"] = args.paths
    return cfg.override(**overrides) if overrides else cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscavg",
        description="Phase-noise averaging circuit simulator and analyzer.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("figure-log", "emit log-frequency PSD tables"),
        ("figure-linear", "emit linear-band PSD tables and notch summary"),
        ("acceptance", "run the property battery"),
        ("simulate", "dump the raw waveform of the configured scenario"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value config file (defaults apply otherwise)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--paths", type=int, default=None,
                       help="Monte Carlo path count override")
        p.add_argument("--format", choices=("table", "json"), default="table",
                       help="stdout summary format")
        if name.startswith("figure"):
            p.add_argument("--no-estimates", action="store_true",
                           help="emit analytic tables only (fast)")
    return parser


def _summarize(args, payload: dict):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, val in sorted(payload.items()):
            print(f"{key}: {val}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Floating-point warnings would print before the one-line error: the
    # finite checks on every output (_write_table, to_dbc_hz) report instead.
    with np.errstate(all="ignore"):
        try:
            return _run(args)
        except _INPUT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def _run(args) -> int:
    cfg = _load_config(args)
    if args.command == "figure-log":
        written = experiments.run_figure_log(cfg, estimates=not args.no_estimates)
        _summarize(args, {k: " ".join(v) for k, v in written.items()})
        return 0
    if args.command == "figure-linear":
        written = experiments.run_figure_linear(cfg, estimates=not args.no_estimates)
        _summarize(args, {k: " ".join(v) for k, v in written.items()})
        return 0
    if args.command == "acceptance":
        report = experiments.run_acceptance(cfg)
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for c in report["checks"]:
                flag = "PASS" if c["passed"] else "FAIL"
                print(f"{flag} {c['name']}: measured={c['measured']:.3e} "
                      f"tol={c['tolerance']:.3e}")
            print(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
                  f"({report['n_checks']} checks)")
        return 0 if report["passed"] else 1
    files = experiments.run_simulate(cfg)  # "simulate": the parser allows no other
    _summarize(args, {"written": " ".join(files)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
