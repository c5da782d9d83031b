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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments
from .config import ExperimentConfig, parse_value
from .stochastic import ParameterError

# each setting flag's config key, whose parser reads the flag's text
_FLAG_KEYS = {"seed": "seed", "paths": "n_paths", "out": "output_dir"}


def _load_config(args) -> ExperimentConfig:
    try:
        cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    except OSError as exc:
        raise ParameterError(f"cannot read config: {exc}") from None
    return replace(cfg, **{key: parse_value(key, text) for flag, key in _FLAG_KEYS.items()
                           if (text := getattr(args, flag, None)) is not None})


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as any bad input: one line, exit 2
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        p.add_argument("--config", type=Path,
                       help="key=value config file (defaults apply otherwise)")
        p.add_argument("--seed", help="master seed override")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=("table", "json"), default="table",
                       help="stdout summary format")
        if name.startswith("figure"):
            p.add_argument("--paths", help="Monte Carlo path count override")
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
    # Floating-point warnings would print before the one-line error: the
    # finite checks on every output (_write_table, to_dbc_hz) report instead.
    with np.errstate(all="ignore"):
        try:
            return _run(build_parser().parse_args(argv))
        except ParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def _run(args) -> int:
    cfg = _load_config(args)
    if args.command == "acceptance":
        report = experiments.run_acceptance(cfg)
        if args.format == "json":
            _summarize(args, report)
        else:
            for c in report["checks"]:
                flag = "PASS" if c["passed"] else "FAIL"
                print(f"{flag} {c['name']}: measured={c['measured']:.3e} "
                      f"tol={c['tolerance']:.3e}")
            print(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
                  f"({report['n_checks']} checks)")
        return 0 if report["passed"] else 1
    if args.command == "simulate":
        written = {"written": experiments.run_simulate(cfg)}
    else:  # the figures: the parser allows no other command
        run = (experiments.run_figure_log if args.command == "figure-log"
               else experiments.run_figure_linear)
        written = run(cfg, estimates=not args.no_estimates)
    _summarize(args, {k: " ".join(v) for k, v in written.items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
