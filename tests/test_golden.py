"""The byte manifest: every output file of a fixed set of runs, pinned.

`golden.json` holds one entry per run: the command line (without
`--config` and `--out`), the config file's lines, and the SHA-256 of each
file the run writes. The test reruns each entry into a fresh directory and
compares the set of files and every hash. A change that moves bytes on
purpose re-pins the entries it moves, never drops one:

    PYTHONPATH=src python tests/test_golden.py

reruns every entry and rewrites its hashes in place.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from oscavg.cli import main

MANIFEST = Path(__file__).with_name("golden.json")
ENTRIES = json.loads(MANIFEST.read_text())


def _id(entry) -> str:
    config = f" [{'; '.join(entry['config'])}]" if entry["config"] else ""
    return " ".join(entry["command"]) + config


def run_entry(entry, tmp: Path) -> dict:
    """{file name: SHA-256} of every file the entry's run writes."""
    cfg, out = tmp / "golden.cfg", tmp / "out"
    cfg.write_text("".join(f"{line}\n" for line in entry["config"]))
    assert main(entry["command"] + ["--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("entry", ENTRIES, ids=map(_id, ENTRIES))
def test_output_bytes_pinned(tmp_path, entry):
    assert run_entry(entry, tmp_path) == entry["files"]


if __name__ == "__main__":
    for entry in ENTRIES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_entry(entry, Path(tmp))
        moved = sorted(name for name in files.keys() | entry["files"].keys()
                       if files.get(name) != entry["files"].get(name))
        for name in moved:
            print(f"{_id(entry)}: {name} {entry['files'].get(name)} -> {files.get(name)}",
                  file=sys.stderr)
        entry["files"] = files
    MANIFEST.write_text(json.dumps(ENTRIES, indent=1) + "\n")
