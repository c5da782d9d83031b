"""In-memory span tracer that wraps the oscavg layers from outside.

`Tracer.install()` replaces every public function of the layer modules
(and the few private ones named in EXTRA) with a timing wrapper, in every
oscavg namespace that holds a reference to it, so names imported directly
into other modules (``circuit.wiener_path``, ``circuit.sample_offset``,
the package re-exports) are traced too. `uninstall()` restores the
originals. Nothing under ``src/`` changes.

Each call records one span: name, parent span, start and end (ns). Spans
are kept in compact arrays and written out once, at the end of the run.
Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import Counter
from time import perf_counter_ns
from types import FunctionType

import numpy as np

LAYERS = ("cli", "config", "stochastic", "spectral", "analytic", "circuit", "experiments")

# private functions that carry a per-layer metric
EXTRA = {"experiments": ("_write_table",)}
# config methods that parse or render configuration
CONFIG_METHODS = ("from_file", "from_text", "override", "content_hash", "to_text")
# nested calls inside these spans are not recorded (quadrature evaluates the
# closed-form autocorrelation thousands of times per call)
OPAQUE = {"analytic.psd_by_quadrature"}


def _waveform_len(args, kwargs):
    w = args[0] if args else kwargs.get("w")
    return len(w) if w is not None else 0


def _count_wiener(c, args, kwargs, result):
    c["stochastic.samples"] += len(result)


def _count_offset(c, args, kwargs, result):
    dist = args[0] if args else kwargs.get("offset_dist")
    if getattr(dist, "kind", "delta") != "delta":
        c["stochastic.offset_draws"] += 1


def _count_welch(c, args, kwargs, result):
    seg_len = result.freqs.size
    c["spectral.segments"] += result.n_segments
    c["spectral.fft_flops_computed"] += result.n_segments * 5 * seg_len * np.log2(seg_len)


def _count_filter(c, args, kwargs, result):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "brickwall")
    if mode == "brickwall":  # rfft + irfft of the whole waveform
        c["circuit.fft_samples"] += 2 * _waveform_len(args, kwargs)


def _count_demod(c, args, kwargs, result):
    c["circuit.fft_samples"] += 2 * _waveform_len(args, kwargs)  # fft + ifft


def _count_table(c, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    c["experiments.table_bytes"] += os.path.getsize(path)


COUNTERS = {
    "stochastic.wiener_path": _count_wiener,
    "stochastic.sample_offset": _count_offset,
    "spectral.welch_psd": _count_welch,
    "circuit.ideal_filter": _count_filter,
    "circuit.demodulate_phase": _count_demod,
    "experiments._write_table": _count_table,
}


class Tracer:
    """Records spans and counts for calls into the wrapped layers."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._opaque_depth = 0
        self.reset()

    # ---- recording -------------------------------------------------------

    def reset(self):
        """Start a new segment of spans and counts (one per workload pass)."""
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        nid = self._name_ids[name]
        count = COUNTERS.get(name)
        opaque = name in OPAQUE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._opaque_depth:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(i)
            self._opaque_depth += opaque
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self._opaque_depth -= opaque
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    # ---- installation ----------------------------------------------------

    def install(self):
        """Wrap the layer functions in every oscavg module namespace."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import oscavg
        from oscavg.config import ExperimentConfig

        modules = [importlib.import_module(f"oscavg.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in EXTRA.get(layer, ()))):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for ns in [oscavg, *modules]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)])
        for attr in CONFIG_METHODS:
            raw = ExperimentConfig.__dict__.get(attr)
            if raw is None:
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            new = self._wrap(f"config.ExperimentConfig.{attr}", fn)
            self._restore.append((ExperimentConfig, attr, raw))
            setattr(ExperimentConfig, attr, classmethod(new) if isinstance(raw, classmethod) else new)

    def uninstall(self):
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    # ---- analysis --------------------------------------------------------

    def segment(self) -> dict:
        """Spans and counts recorded since the last reset, as numpy arrays."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "counts": dict(self.counts),
        }


def layer_metrics(seg: dict, names: list[str]) -> dict:
    """Per-layer metrics of one segment of spans (one workload pass)."""
    nid, parent = seg["name_id"], seg["parent"]
    dur = (seg["end"] - seg["start"]) * 1e-9
    span_name = np.array(names)[nid]
    span_layer = np.array([n.split(".", 1)[0] for n in names])[nid]
    has_parent = parent >= 0

    child_cover = np.zeros_like(dur)
    np.add.at(child_cover, parent[has_parent], dur[has_parent])
    self_time = dur - child_cover

    def is_(name):
        return span_name == name

    def total(mask):
        return float(dur[mask].sum())

    # time of estimate spans not covered by their stochastic / spectral children
    sampling = np.isin(span_layer, ("stochastic", "spectral")) & has_parent
    estimate = np.isin(span_name, ("experiments.estimate_base", "experiments.estimate_independent",
                                   "experiments.estimate_delayed"))
    sampled_cover = np.zeros_like(dur)
    np.add.at(sampled_cover, parent[sampling], dur[sampling])

    # closed forms are the analytic functions other than quadrature and dB conversion
    closed = (span_layer == "analytic") & ~np.isin(
        span_name, ("analytic.psd_by_quadrature", "analytic.to_dbc_hz"))
    parsing = np.isin(span_name, ("config.ExperimentConfig.from_file",
                                  "config.ExperimentConfig.from_text",
                                  "config.parse_offset_descriptor"))
    parse_top = parsing & ~(has_parent & parsing[np.maximum(parent, 0)])
    welch = is_("spectral.welch_psd")

    c = seg["counts"]
    rng_calls = int(is_("stochastic.path_rng").sum())
    samples = int(c.get("stochastic.samples", 0))
    sims = {s: is_(f"circuit.{s}") for s in ("simulate_pair_average", "simulate_mixing_tree",
                                             "simulate_delayed_self_average")}
    out = {
        "stochastic.path_rng_calls": rng_calls,
        "stochastic.path_rng_s": total(is_("stochastic.path_rng")),
        "stochastic.samples_per_stream": (
            (samples + c.get("stochastic.offset_draws", 0)) / rng_calls if rng_calls else 0.0),
        "stochastic.wiener_path_calls": int(is_("stochastic.wiener_path").sum()),
        "stochastic.wiener_path_self_s": float(self_time[is_("stochastic.wiener_path")].sum()),
        "stochastic.samples": samples,
        "stochastic.sample_offset_calls": int(is_("stochastic.sample_offset").sum()),
        "stochastic.sample_offset_s": total(is_("stochastic.sample_offset")),
        "spectral.welch_calls": int(welch.sum()),
        "spectral.welch_s": total(welch),
        "spectral.segments": int(c.get("spectral.segments", 0)),
        "spectral.fft_flops_computed": float(c.get("spectral.fft_flops_computed", 0.0)),
        "experiments.estimate_s": total(estimate),
        "experiments.estimate_self_s": float((dur - sampled_cover)[estimate].sum()),
        "experiments.table_write_s": total(is_("experiments._write_table")),
        "experiments.table_bytes": int(c.get("experiments.table_bytes", 0)),
        "circuit.simulate_s": total(np.logical_or.reduce(list(sims.values()))),
        **{f"circuit.{s}_s": total(m) for s, m in sims.items()},
        "circuit.ideal_filter_s": total(is_("circuit.ideal_filter")),
        "circuit.demodulate_phase_s": total(is_("circuit.demodulate_phase")),
        "circuit.mix_s": total(is_("circuit.mix")),
        "circuit.fft_samples": int(c.get("circuit.fft_samples", 0)),
        "analytic.quadrature_calls": int(is_("analytic.psd_by_quadrature").sum()),
        "analytic.quadrature_s": total(is_("analytic.psd_by_quadrature")),
        "analytic.closed_form_s": total(closed),
        "config.parse_s": total(parse_top),
        "cli.main_s": total(is_("cli.main")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())
    out["trace.spans"] = int(nid.size)
    return out


def write_spans(path, names: list[str], segments: list[dict]):
    """Write every recorded segment to one .npz file (pass k -> arrays *_k)."""
    arrays = {"names": np.array(names)}
    for k, seg in enumerate(segments):
        for key in ("name_id", "parent", "start", "end"):
            arrays[f"{key}_{k}"] = seg[key]
    np.savez(path, **arrays)
