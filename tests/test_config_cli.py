import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscavg import (
    ExperimentConfig,
    OffsetDist,
    ParameterError,
    circuit,
    experiments,
    parse_offset_descriptor,
    spectral,
    stochastic,
)
from oscavg.cli import main
from oscavg.config import SCENARIOS
from oscavg.experiments import delta_tag, find_notches


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.beta == 1e4
        assert cfg.f_c_scaled == 1e6

    def test_round_trip(self):
        cfg = ExperimentConfig(scenario="delayed_self", delta=1e-6, beta=2e4,
                               seed=7, deltas=(1e-6,))
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_default_text_unchanged(self):
        # every table header carries the hash of this text
        assert ExperimentConfig().to_text() == (
            "scenario = base\nbeta = 10000.0\ndeltas = 1e-06,1e-07\nn_oscillators = 2\n"
            "f_c_scaled = 1000000.0\noffsets = delta:0\nfs = 64000000.0\nduration = 0.001\n"
            "n_paths = 4096\nsegment_len = 4096\noverlap = 0.5\nwindow = hann\n"
            "seed = 12345\noutput_dir = out\n")

    @settings(max_examples=300, deadline=None)
    @given(deltas=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
           offsets=st.builds(OffsetDist, st.sampled_from(("delta", "uniform", "normal")),
                             st.floats(min_value=0.0, max_value=1e12)),
           beta=st.floats(min_value=0.0, max_value=1e12),
           delta=st.none() | st.floats(min_value=0.0, max_value=1.0))
    def test_text_round_trips_exactly(self, deltas, offsets, beta, delta):
        cfg = ExperimentConfig(deltas=tuple(deltas), offsets=offsets, beta=beta, delta=delta)
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_nearby_delays_and_offsets_hash_apart(self):
        a, b = (ExperimentConfig(deltas=(1e-6, d), offsets=OffsetDist.uniform(f))
                for d, f in ((1.0000001e-6, 100.0000001), (1.0000002e-6, 100.0000002)))
        assert a.content_hash() != b.content_hash()

    def test_parse_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("# comment\nscenario = base\nbeta = 5e3\nseed = 99\n"
                     "offsets = uniform:100\ndeltas = 1e-6,2e-6\n")
        cfg = ExperimentConfig.from_file(p)
        assert cfg.beta == 5e3
        assert cfg.offsets.kind == "uniform"
        assert cfg.deltas == (1e-6, 2e-6)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_text("betta = 1e4\n")

    def test_delayed_self_requires_delta(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(scenario="delayed_self")

    def test_negative_beta_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(beta=-1.0)

    def test_offset_descriptor(self):
        d = parse_offset_descriptor("normal:50")
        assert d.kind == "normal" and d.param == 50.0
        with pytest.raises(ParameterError):
            parse_offset_descriptor("gamma:2")

    def test_hash_changes_with_content(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert a.content_hash() != b.content_hash()

    @pytest.mark.parametrize("line", [
        "seed = -1", "n_paths = abc", "segment_len = 0", "fs = inf",
        "duration = nan", "deltas = 1e-6,-1e-7", "overlap = half"])
    def test_bad_value_rejected(self, line):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_text(line + "\n")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.tuples(st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__)),
                           st.text(alphabet="0123456789.,:-+eEinfatxd_ ", max_size=12)),
                 max_size=6).map(
            lambda kv: "".join(f"{k} = {v}\n" for k, v in kv))))
    def test_parse_returns_config_or_parameter_error(self, text):
        try:
            cfg = ExperimentConfig.from_text(text)
        except ParameterError:
            return
        assert isinstance(cfg, ExperimentConfig)


class TestDeltaTag:
    def test_values(self):
        assert delta_tag(1e-6) == "1em6"
        assert delta_tag(1e-7) == "1em7"
        assert delta_tag(2.5e-6) == "2p5em6"


class TestFindNotches:
    def test_simple_minima(self):
        x = np.linspace(0, 10, 1001)
        y = np.cos(2 * np.pi * x)  # minima at 0.5, 1.5, ...
        pos = find_notches(x, y)
        assert np.allclose(pos, np.arange(0.5, 10, 1.0), atol=0.02)


class TestWriteTable:
    HEADER = ["oscavg table t", "columns: a b"]
    EDGES = [-0.0, 5e-324, 1.7976931348623157e308, -1e-300, 1.0, 123456789.0]

    def test_bytes_match_per_element_format(self, tmp_path):
        x = np.array(self.EDGES)
        y = x[::-1]
        path = tmp_path / "t.data"
        experiments._write_table(path, self.HEADER, x, y)
        expected = "".join(f"# {h}\n" for h in self.HEADER) \
            + "".join(f"{xi:.10e} {yi:.10e}\n" for xi, yi in zip(x, y))
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("row", [0, -1])
    def test_non_finite_rejected_before_writing(self, tmp_path, bad, column, row):
        cols = [np.array(self.EDGES), np.array(self.EDGES)]
        cols[column][row] = bad
        path = tmp_path / "t.data"
        with pytest.raises(ParameterError, match="non-finite value in output table"):
            experiments._write_table(path, self.HEADER, *cols)
        assert not path.exists()


def _read_table(path: Path):
    rows = [l.split() for l in path.read_text().splitlines()
            if l and not l.startswith("#")]
    data = np.array([[float(a), float(b)] for a, b in rows])
    return data[:, 0], data[:, 1]


# Every config key but output_dir (the CLI's --out sets it), with edge values
FUZZ_KEYS = sorted(set(ExperimentConfig.__dataclass_fields__) - {"output_dir"})
FUZZ_NUMBERS = ("nan", "inf", "-inf", "0", "-1", "-1e-6", "5e-324", "1e-300", "1e308",
                str(2**64), "1", "4", "1e-6", "2e-5", "1e4", "1e6", "64e6")


def _fuzz_value(key: str):
    numbers = st.sampled_from(FUZZ_NUMBERS)
    if key == "scenario":
        return st.sampled_from(SCENARIOS + ("none",))
    if key == "window":
        return st.sampled_from(("hann", "rect", "none"))
    if key == "offsets":
        return st.tuples(st.sampled_from(("delta", "uniform", "normal")), numbers).map(":".join)
    if key == "deltas":
        return st.lists(numbers, min_size=1, max_size=3).map(",".join)
    return numbers


def _small_cfg(tmp_path, **extra):
    cfg = tmp_path / "small.cfg"
    lines = ["beta = 1e4", "n_paths = 8", "segment_len = 512",
             "deltas = 1e-6", f"output_dir = {tmp_path / 'out'}"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


class TestFigureCommands:
    def test_figure_log_outputs(self, tmp_path):
        cfg = _small_cfg(tmp_path)
        assert main(["figure-log", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("psd_log_base.data", "psd_log_base.est.data",
                     "psd_log_ind.data", "psd_log_delta_1em6.data"):
            assert (out / name).exists()
        x, y = _read_table(out / "psd_log_base.data")
        assert np.all(np.diff(x) > 0)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_figure_linear_outputs_and_notches(self, tmp_path):
        cfg = _small_cfg(tmp_path)
        assert main(["figure-linear", "--config", str(cfg), "--no-estimates"]) == 0
        out = tmp_path / "out"
        x, y = _read_table(out / "psd_lin_base.data")
        assert np.all(np.diff(x) > 0)
        summary = json.loads((out / "notches.json").read_text())
        spacing = summary["notches"]["1em6"]["mean_spacing_hz"]
        assert spacing == pytest.approx(1e6, rel=0.02)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = _small_cfg(tmp_path)
        main(["figure-linear", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["figure-linear", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("psd_lin_base.data", "psd_lin_base.est.data",
                     "psd_lin_delta_1em6.data", "notches.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta = -5\n")
        assert main(["figure-log", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command,line", [
        ("figure-log", "seed = -1"),
        ("figure-log", "n_paths = abc"),
        ("figure-linear", "segment_len = 0"),
        ("simulate", "fs = inf"),
        ("simulate", "duration = nan"),
        ("simulate", "f_c_scaled = 1e7"),  # fs = 64e6 cannot carry it
        ("simulate", "duration = 1e6"),  # 6.4e13 samples: over the cap
        # a cutoff so low that the divider check's edge trim is infinite
        ("simulate", "scenario = averaged_independent\nf_c_scaled = 1e-300"),
        ("simulate", "scenario = delayed_self\ndelta = 1e-6\nf_c_scaled = 1e-300"),
        # one sample: too short for the mixing tree's filters
        ("simulate", "scenario = averaged_n\nn_oscillators = 4\nduration = 2e-8"),
        # non-finite intermediate values: only the finite check may report
        ("figure-log --no-estimates", "beta = 1e308"),
        ("figure-log --no-estimates", "beta = 1e200"),  # (pi*beta)**2 overflows
        ("figure-linear --no-estimates", "beta = 5e-324"),
        # two delays with one file tag would overwrite each other's tables
        ("figure-linear --no-estimates", "deltas = 1e-6,1.0000001e-6"),
        ("simulate", "beta = 1e308\nduration = 1e-6"),
    ])
    def test_bad_input_one_line_exit_2(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command.split(), "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # a command-line run prints warnings to stderr too
        assert not caught, [str(w.message) for w in caught]

    def test_colliding_delay_tags_write_nothing(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("deltas = 1e-6,1e-6\n")
        out = tmp_path / "out"
        assert main(["figure-log", "--no-estimates", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.lists(
        st.sampled_from(FUZZ_KEYS).flatmap(lambda key: _fuzz_value(key).map(
            lambda value: f"{key} = {value}\n")), max_size=5).map(
        lambda lines: "duration = 2e-5\n" + "".join(lines)))
    def test_main_exits_0_or_2(self, tmp_path_factory, text):
        """Any config through figure-log and figure-linear (analytic tables
        only) and through simulate, where its waveform is at most 4096
        samples or over the cap: exit 0, or exit 2 with exactly one line on
        stderr; no exception escapes."""
        commands = [["figure-log", "--no-estimates"], ["figure-linear", "--no-estimates"]]
        try:
            cfg = ExperimentConfig.from_text(text)
        except ParameterError:
            cfg = None
        if cfg is None or not 4096 < cfg.duration * cfg.fs <= experiments.MAX_SIMULATE_SAMPLES:
            commands.append(["simulate"])
        out = tmp_path_factory.mktemp("fuzz")
        path = out / "fuzz.cfg"
        path.write_text(text)
        for command in commands:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([*command, "--config", str(path), "--out", str(out)])
            err = err.getvalue()
            assert code in (0, 2), (command, text)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, text)
                assert not caught, (command, text, [str(w.message) for w in caught])

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["figure-log", "--config", str(tmp_path / "none.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_estimate_bytes_independent_of_block_size(self, tmp_path, monkeypatch):
        cfg = _small_cfg(tmp_path)
        main(["figure-linear", "--config", str(cfg), "--out", str(tmp_path / "a")])
        monkeypatch.setattr(experiments, "BLOCK_SAMPLES", 1)  # one path per block
        main(["figure-linear", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("psd_lin_base.est.data", "psd_lin_ind.est.data",
                     "psd_lin_delta_1em6.est.data"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("run", [experiments.run_figure_log, experiments.run_figure_linear])
def test_curve_streams_disjoint_at_600k_paths(tmp_path, monkeypatch, run):
    """Every figure curve's Wiener-path keys at n_paths = 600 000, recorded
    by a stand-in for wiener_ensemble (no path is drawn): no key repeats,
    within or across curves."""
    curves, blocks = [], []

    def record(beta, theta0, dt, n, master_seed, n_paths, first_index=0,
               stream=stochastic.STREAM_PHASE):
        blocks.append((master_seed, stream, first_index, n_paths))
        return np.zeros((n_paths, n))

    def consume(phase_blocks, dt, **welch_args):
        start = len(blocks)
        for _ in phase_blocks:
            pass
        curves.append(blocks[start:])

    monkeypatch.setattr(stochastic, "wiener_ensemble", record)
    monkeypatch.setattr(spectral, "psd_of_phase_shift", consume)
    cfg = ExperimentConfig(n_paths=600_000, segment_len=1, deltas=(1e-7, 2e-7, 3e-7),
                           seed=5)
    run(cfg, out_dir=tmp_path)

    assert len(curves) == 5
    assert {b[0] for curve in curves for b in curve} == {cfg.seed}
    keys = np.sort(np.concatenate([np.arange(first, first + rows, dtype=np.int64) + (tag << 32)
                                   for curve in curves for _, tag, first, rows in curve]))
    assert keys.size == 6 * cfg.n_paths  # the pair draws two per path
    repeats = np.count_nonzero(np.diff(keys) == 0)
    assert repeats == 0, f"{repeats} path keys are drawn by two curves"


def test_battery_streams_disjoint_at_neighbouring_seeds(monkeypatch):
    """The (master, index, tag) key of every random stream the acceptance
    battery draws, recorded at seeds 11 and 12: no key is drawn at both."""
    keys = {}
    path_rng = stochastic.path_rng

    def record(seed_id, stream=stochastic.STREAM_PHASE):
        keys[seed].add((*seed_id, stream))
        return path_rng(seed_id, stream)

    monkeypatch.setattr(stochastic, "path_rng", record)
    for seed in (11, 12):
        keys[seed] = set()
        experiments.run_acceptance(ExperimentConfig(seed=seed, output_dir=""))
    assert len(keys[11]) == len(keys[12]) == 8002  # 4 x 2000 paths, divider, noise
    assert not keys[11] & keys[12]


class TestAcceptanceCommand:
    def test_report(self, tmp_path, capsys):
        cfg = _small_cfg(tmp_path)
        code = main(["acceptance", "--config", str(cfg), "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert report["n_checks"] >= 12
        names = {c["name"] for c in report["checks"]}
        assert "wiener-variance-slope" in names
        disk = json.loads((tmp_path / "out" / "acceptance_report.json").read_text())
        assert disk == report

    def test_report_deterministic(self, tmp_path):
        cfg = _small_cfg(tmp_path)
        main(["acceptance", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["acceptance", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "acceptance_report.json").read_bytes() \
            == (tmp_path / "b" / "acceptance_report.json").read_bytes()


class TestSimulateCommand:
    def test_waveform_dump(self, tmp_path):
        cfg = _small_cfg(tmp_path, scenario="averaged_independent",
                         duration="2e-4", fs="32e6")
        assert main(["simulate", "--config", str(cfg)]) == 0
        t, a = _read_table(tmp_path / "out" / "waveform_averaged_independent.data")
        assert np.all(np.diff(t) > 0)
        assert np.max(np.abs(a)) <= 0.5 + 1e-9

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_deterministic_and_equal_to_api_waveform(self, tmp_path, scenario):
        fs, duration, seed = 32e6, 2e-4, 5
        cfg = _small_cfg(tmp_path, scenario=scenario, duration=duration, fs=fs,
                         beta="1e3", offsets="uniform:10", delta="1e-6",
                         n_oscillators=4, seed=seed)
        name = f"waveform_{scenario}.data"
        for out in ("a", "b"):
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

        spec = stochastic.OscillatorSpec(
            f_c=1e6, beta=1e3, offset_dist=stochastic.OffsetDist.uniform(10.0))
        n = int(round(duration * fs))
        if scenario == "base":
            f_i = stochastic.sample_offset(spec.offset_dist, (seed, 0))
            path = stochastic.wiener_path(1e3, 0.0, 1.0 / fs, n, (seed, 0))
            wave = stochastic.oscillator_waveform(spec, f_i, path, fs, n)
        elif scenario == "averaged_independent":
            wave = circuit.simulate_pair_average(spec, spec, fs, duration, seed).output
        elif scenario == "averaged_n":
            wave = circuit.simulate_mixing_tree([spec] * 4, fs, duration, seed).output
        else:
            wave = circuit.simulate_delayed_self_average(spec, 1e-6, fs, duration,
                                                         seed).output
        _, a = _read_table(tmp_path / "a" / name)
        assert len(a) == n
        assert np.max(np.abs(a - wave.samples)) < 1e-9
