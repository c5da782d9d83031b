"""Set-up probe: import oscavg, parse a CLI command line and its config, report ready.

Run as ``python3 setup_probe.py <src dir> <oscavg argv...>``; the parent times
the interval from process start to the "ready" line.
"""

import sys

sys.path.insert(0, sys.argv[1])

from oscavg import cli  # noqa: E402
from oscavg.config import ExperimentConfig  # noqa: E402

args = cli.build_parser().parse_args(sys.argv[2:])
ExperimentConfig.from_file(args.config)
print("ready", flush=True)
