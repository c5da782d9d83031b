"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line, `#` comments.
Unknown keys, and keys given twice, are rejected so typos fail loudly. See
README for the schema.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path
from typing import Optional, get_type_hints

from .stochastic import OffsetDist, ParameterError, _real

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
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f.name, getattr(self, f.name)))
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
        kwargs, first = {}, {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = key.strip(), value.strip()
            if key not in _KINDS:
                raise ParameterError(f"line {lineno}: unknown key {key!r}")
            if key in first:
                raise ParameterError(f"line {lineno}: key {key!r} given twice (first on "
                                     f"line {first[key]})")
            first[key] = lineno
            kwargs[key] = parse_value(key, value)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())


# Each field's kind, its annotation: what `parse_value` reads the field's text
# as and what `_typed` requires of a value built in Python.
_KINDS = get_type_hints(ExperimentConfig)


def parse_value(key: str, value: str):
    """The text of setting `key`, a config file's value or the CLI flag that
    sets it, as a value of the field's kind; ParameterError if it is none."""
    kind = _KINDS[key]
    if kind is OffsetDist:
        return parse_offset_descriptor(value)
    if kind is str:
        return value
    try:
        if kind is tuple:
            return tuple(float(v) for v in value.split(",") if v.strip())
        return int(value) if kind is int else float(value)
    except ValueError:
        raise ParameterError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                             f"got {value!r}") from None


def _typed(key: str, value):
    """value as field `key` holds it: an integer field's int, a real field's
    float (or None for an Optional one, delta), deltas' tuple of floats,
    offsets' OffsetDist, a text field's str (a real beyond the largest float
    is inf, which the finiteness checks refuse). ParameterError if value is
    not of the field's kind; a bool is no number."""
    kind = _KINDS[key]
    if kind is OffsetDist or kind is str:
        if isinstance(value, kind):
            return value
        wanted = "an OffsetDist" if kind is OffsetDist else "a str"
    elif kind is tuple:
        if isinstance(value, Iterable) and not isinstance(value, (str, bytes)):
            value = tuple(value)
            if all(isinstance(d, Real) and not isinstance(d, bool) for d in value):
                return tuple(map(_real, value))
        wanted = "a sequence of real numbers"
    elif kind is int:
        if isinstance(value, Integral) and not isinstance(value, bool):
            return int(value)
        wanted = "an integer"
    else:
        if value is None and kind == Optional[float]:
            return value
        if isinstance(value, Real) and not isinstance(value, bool):
            return _real(value)
        wanted = "a real number"
    raise ParameterError(f"{key} must be {wanted}, got {value!r}")
