"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line, `#` comments.
Unknown keys are rejected so typos fail loudly. See README for the schema.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .stochastic import OffsetDist, ParameterError

SCENARIOS = ("base", "averaged_independent", "averaged_n", "delayed_self")

_DEFAULT_DELTAS = (1e-6, 1e-7)


def parse_offset_descriptor(text: str) -> OffsetDist:
    """Parse 'delta:<Hz>' | 'uniform:<half-width Hz>' | 'normal:<std Hz>'."""
    kind, _, value = text.partition(":")
    kind = kind.strip()
    try:
        param = float(value) if value else 0.0
    except ValueError as exc:
        raise ParameterError(f"bad offset parameter {value!r}") from exc
    return OffsetDist(kind, param)


def _format_number(x: float) -> str:
    """x as `:g` where that reads back exactly (so the text and hash of every
    config that round-tripped before stay the same), else as repr."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "base"
    beta: float = 1e4
    delta: Optional[float] = None
    deltas: tuple = _DEFAULT_DELTAS  # delay sweep for the log-frequency figure
    n_oscillators: int = 2
    f_c_scaled: float = 1e6
    offsets: OffsetDist = field(default_factory=OffsetDist.delta)
    fs: float = 64e6
    duration: float = 1e-3
    n_paths: int = 4096
    segment_len: int = 4096
    overlap: float = 0.5
    window: str = "hann"
    seed: int = 12345
    output_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"scenario must be one of {SCENARIOS}")
        for name in ("beta", "delta", "f_c_scaled", "fs", "duration", "overlap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite")
        if self.beta < 0:
            raise ParameterError("beta must be >= 0")
        for name in ("f_c_scaled", "fs", "duration"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0")
        for name, least in (("n_paths", 1), ("segment_len", 1), ("seed", 0),
                            ("n_oscillators", 2)):
            if getattr(self, name) < least:
                raise ParameterError(f"{name} must be >= {least}")
        # the range of a random stream's key (stochastic._check_key)
        if self.seed >= 2**64 or self.n_paths > 2**32:
            raise ParameterError("seed must be < 2**64 and n_paths <= 2**32")
        if self.scenario == "delayed_self" and self.delta is None:
            raise ParameterError("delayed_self scenario requires delta")
        if self.delta is not None and self.delta < 0:
            raise ParameterError("delta must be >= 0")
        if not all(math.isfinite(d) and d >= 0 for d in self.deltas):
            raise ParameterError("deltas must be finite and >= 0")
        if not 0 <= self.overlap < 1:
            raise ParameterError("overlap must be in [0, 1)")
        if self.window not in ("hann", "rect"):
            raise ParameterError("window must be 'hann' or 'rect'")
        # from_text cuts a value at '#', splits lines and strips each value
        d = self.output_dir
        if "#" in d or "".join(d.splitlines()) != d or d != d.strip():
            raise ParameterError(f"output_dir {d!r} cannot hold '#', a line break, "
                                 f"or leading or trailing whitespace")

    # ---- serialization ----

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name == "offsets":
                v = f"{v.kind}:{_format_number(v.param)}"
            elif f.name == "deltas":
                v = ",".join(map(_format_number, v))
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        """Hash of the experiment content; the output location is excluded so
        the same experiment written elsewhere keeps the same tag."""
        lines = [l for l in self.to_text().splitlines()
                 if not l.startswith("output_dir")]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise ParameterError(f"line {lineno}: unknown key {key!r}")
            kwargs[key] = _coerce(key, value)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())


def _coerce(key: str, value: str):
    if key == "offsets":
        return parse_offset_descriptor(value)
    if key in ("scenario", "window", "output_dir"):
        return value
    integer = key in ("n_oscillators", "n_paths", "segment_len", "seed")
    try:
        if key == "deltas":
            return tuple(float(v) for v in value.split(",") if v.strip())
        return int(value) if integer else float(value)
    except ValueError:
        kind = "an integer" if integer else "a number"
        raise ParameterError(f"{key} must be {kind}, got {value!r}") from None
