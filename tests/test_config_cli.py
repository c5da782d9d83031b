import contextlib
import io
import json
import tracemalloc
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
    analytic,
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
           delta=st.none() | st.floats(min_value=0.0, max_value=1.0),
           output_dir=st.text())
    def test_text_round_trips_exactly(self, deltas, offsets, beta, delta, output_dir):
        try:
            cfg = ExperimentConfig(deltas=tuple(deltas), offsets=offsets, beta=beta,
                                   delta=delta, output_dir=output_dir)
        except ParameterError:
            return  # an output_dir the text cannot carry
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize("out", ["a#b", " out", "out\t", "a\nb", "a\rb", "a\x1cb",
                                     "a\u2028b"])
    def test_output_dir_the_text_cannot_carry_rejected(self, out):
        with pytest.raises(ParameterError):
            ExperimentConfig(output_dir=out)

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

    def test_largest_stream_keys_parse(self):
        cfg = ExperimentConfig.from_text(f"seed = {2**64 - 1}\nn_paths = {2**32}\n")
        assert (cfg.seed, cfg.n_paths) == (2**64 - 1, 2**32)

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

    @staticmethod
    def oracle(header, x, y) -> bytes:
        """The table written one row at a time."""
        return ("".join(f"# {h}\n" for h in header)
                + "".join("{:.10e} {:.10e}\n".format(a, b) for a, b in zip(x, y))).encode()

    # (chunks, extra): a table of chunks * TABLE_CHUNK_ROWS + extra rows
    @pytest.mark.parametrize("chunks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_chunked_bytes_match_per_row_format(self, tmp_path, chunks, extra):
        rows = chunks * experiments.TABLE_CHUNK_ROWS + extra
        edges = self.EDGES + [1e300, -1e300, 1e-300, 2.2250738585072014e-308 / 3, -5e-324]
        x = np.resize(np.array(edges), rows)
        y = np.linspace(-1.0, 1.0, rows) * 1e-300
        path = tmp_path / "t.data"
        experiments._write_table(path, self.HEADER, x, y)
        assert path.read_bytes() == self.oracle(self.HEADER, x, y)

    def assert_rows_match_oracle(self, tmp_path, x, y=None):
        """Columns x and y (by default x negated in reverse) write the
        oracle's bytes; the first mismatched rows are reported."""
        x = np.asarray(x, dtype=float)
        y = -x[::-1] if y is None else y
        path = tmp_path / "t.data"
        experiments._write_table(path, self.HEADER, x, y)
        got = path.read_bytes().split(b"\n")
        want = self.oracle(self.HEADER, x, y).split(b"\n")
        assert len(got) == len(want)
        assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []

    @staticmethod
    def neighbours(values, ulps=2):
        """`values` and their floats up to `ulps` steps below and above."""
        values = np.asarray(values, dtype=float)
        out, down, up = [values], values, values
        with np.errstate(over="ignore"):  # the float above the largest is inf
            for _ in range(ulps):
                down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
                out += [down, up]
        values = np.concatenate(out)
        return values[np.isfinite(values)]

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        self.assert_rows_match_oracle(
            tmp_path, self.neighbours([float(f"1e{k}") for k in range(-308, 309)]))

    def test_carry_into_next_decade(self, tmp_path):
        """The floats nearest 9.99999999995e±k round up to 1e(k+1) or stay
        9.9999999999e±k, the last digit away from a carry."""
        self.assert_rows_match_oracle(tmp_path, self.neighbours(
            [float(f"9.9999999999{last}e{k}") for k in range(-308, 308) for last in (4, 5, 6)],
            ulps=4))

    def test_rounding_ties_at_11_digits(self, tmp_path):
        """Exact ties (D + 1/2) * 10**(E - 10) of 11-digit significands D,
        which a float holds for E in [10, 18] and round half to even, the
        floats nearest the same decimal ties at every exponent, and their
        neighbours; and sample times k / 64e6 near 2**24 samples, about
        half of them within 2e-5 of a tie, and some (k a multiple of 15625)
        exact ties."""
        rng = np.random.default_rng(16)
        digits = rng.integers(10**10, 10**11, 600)
        twice = [(2 * int(d) + 1) * 10**int(k) for d, k in zip(digits, rng.integers(0, 9, 600))]
        exact = [t / 2 for t in twice if t / 2 * 2 == t]
        assert len(exact) > 300
        decimal = [float(f"{d}5e{e}") for d, e in zip(digits, rng.integers(-318, 297, 600))]
        times = np.concatenate([np.arange(2**24 - 2**14, 2**24), np.arange(0, 2**24, 15625)]) / 64e6
        self.assert_rows_match_oracle(tmp_path, np.concatenate([self.neighbours(exact + decimal),
                                                                times]))

    def test_subnormals_zeros_extremes_and_3_digit_exponents(self, tmp_path):
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        rng = np.random.default_rng(17)
        subnormal = rng.integers(1, 2**52, 500, dtype=np.int64).view(np.float64)
        three_digit = rng.uniform(1, 10, 500) * 10.0 ** rng.integers(-307, 308, 500)
        self.assert_rows_match_oracle(tmp_path, np.concatenate([
            [0.0, -0.0, 5e-324, tiny, np.nextafter(tiny, 0), huge, -huge, 1e-100, 1e100,
             9.9999999999e99, 1e-99, 1.7e308, 2.2e-308],
            self.neighbours([5e-324, tiny, huge, 1e-280, 1e280]), subnormal,
            three_digit[np.abs(np.floor(np.log10(three_digit))) >= 100]]))

    def test_random_bit_patterns(self, tmp_path):
        """10**6 random finite doubles of any sign and exponent."""
        bits = np.random.default_rng(18).integers(0, 2**64, 1_100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:10**6]
        assert len(values) == 10**6
        self.assert_rows_match_oracle(tmp_path, values[0::2], values[1::2])

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        def peak(rows):
            x, y = np.arange(rows) / 64e6, np.cos(0.1 * np.arange(rows))
            tracemalloc.start()
            try:
                experiments._write_table(tmp_path / "t.data", self.HEADER, x, y)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk = experiments.TABLE_CHUNK_ROWS
        assert peak(4 * chunk) < 1.5 * peak(chunk)


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
        # outside the range of a random stream's key
        ("figure-log", f"seed = {2**64}"),
        ("figure-log", f"n_paths = {2**32 + 1}"),
        ("figure-linear", "segment_len = 0"),
        # estimate paths over the sample cap, or whose Welch segments are
        ("figure-log --paths 1", "segment_len = 1099511627776"),
        ("figure-log --paths 2", "overlap = 0.9999"),
        # a delayed walk of 16384 + 4e10 samples
        ("figure-log --paths 1", "deltas = 1000"),
        ("simulate", "fs = inf"),
        ("simulate", "duration = nan"),
        ("simulate", "f_c_scaled = 1e7"),  # fs = 64e6 cannot carry it
        ("simulate", "duration = 1e6"),  # 6.4e13 samples: over the cap
        # a cutoff so low that the filters' edge trim is infinite
        ("simulate", "scenario = averaged_independent\nf_c_scaled = 1e-300"),
        ("simulate", "scenario = delayed_self\ndelta = 1e-6\nf_c_scaled = 1e-300"),
        # 512 samples, all of them inside the filters' edge trim
        ("simulate", "scenario = averaged_independent\nduration = 8e-6"),
        # one sample: too short for the mixing tree's filters
        ("simulate", "scenario = averaged_n\nn_oscillators = 4\nduration = 2e-8"),
        # non-finite intermediate values: only the finite check may report
        ("figure-log --no-estimates", "beta = 1e308"),
        ("figure-log --no-estimates", "beta = 1e200"),  # (pi*beta)**2 overflows
        ("figure-linear --no-estimates", "beta = 5e-324"),
        # two delays with one file tag would overwrite each other's tables
        ("figure-linear --no-estimates", "deltas = 1e-6,1.0000001e-6"),
        ("simulate", "beta = 1e308\nduration = 1e-6"),
        # the battery's model spectra are 0 or nan at this beta
        ("acceptance", "beta = 1e200"),
    ])
    def test_bad_input_one_line_exit_2(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command.split(), "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # simulate checks no divider loop, so its messages name none
        if command == "simulate":
            assert "check" not in err
        # a command-line run prints warnings to stderr too
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("command", ["figure-log", "figure-linear"])
    @pytest.mark.parametrize("deltas", ["1e-6,3e-8",   # not a whole number of steps
                                        "1e-6,1000"])  # a walk over the sample cap
    def test_bad_delay_refused_before_any_estimate(self, tmp_path, capsys, monkeypatch,
                                                   command, deltas):
        """A delay the estimates cannot use is refused with one line and
        exit 2 before any curve is estimated or any file written; without
        estimates the analytic curves need no lag, and the run goes on."""
        cfg = tmp_path / "delays.cfg"
        cfg.write_text(f"deltas = {deltas}\n")

        def no_estimate(*args, **kwargs):
            raise AssertionError("a curve was estimated before the delays were checked")

        monkeypatch.setattr(spectral, "psd_of_phase_shift", no_estimate)
        out = tmp_path / "out"
        assert main([command, "--paths", "2", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delay ") and err.count("\n") == 1
        assert not out.exists()
        assert main([command, "--no-estimates", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("out", ["a#b", "out ", "a\nb"])
    def test_out_the_text_cannot_carry_exit_2(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["figure-log", "--no-estimates", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["figure-log", "--no-estimates"], ["figure-linear", "--no-estimates"],
        ["acceptance"], ["simulate"]])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_an_existing_file_exit_2(self, tmp_path, capsys, command, under):
        """An --out that is a regular file, or a path under one, cannot be
        created: one error line and exit 2, not a traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        assert main([*command, "--seed", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command,name", [
        (["figure-linear", "--no-estimates"], "notches.json"),
        (["acceptance"], "acceptance_report.json"),
        (["simulate"], "waveform_base.data")])
    def test_output_file_that_cannot_be_opened_exit_2(self, tmp_path, capsys,
                                                      command, name):
        """A directory where an output file goes: one error line, exit 2."""
        (tmp_path / name).mkdir()
        assert main([*command, "--seed", "3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1

    def test_error_while_writing_keeps_its_traceback(self, tmp_path, monkeypatch):
        """Only the output location is reported as exit 2: an I/O error
        while a table is written (here a full disk) is not a config error."""
        def full_disk(*args):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(experiments, "_write_table", full_disk)
        with pytest.raises(OSError, match="No space left") as info:
            main(["simulate", "--seed", "3", "--out", str(tmp_path)])
        assert not isinstance(info.value, ParameterError)

    @pytest.mark.parametrize("line", ["segment_len = 1099511627776", "overlap = 0.9999"])
    def test_estimate_over_the_cap_writes_nothing(self, tmp_path, line):
        """Estimates whose paths or Welch segments exceed MAX_SAMPLES are
        refused before any table is written; the analytic tables are not."""
        cfg = tmp_path / "big.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        for command in ("figure-log", "figure-linear"):
            assert main([command, "--paths", "1", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["figure-log", "--no-estimates", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("segment_len,overlap,refused", [
        (4096, 0.5, False),           # the default: 7 segments of a 16384-sample path
        (2**22, 0.0, False),          # a path of MAX_SAMPLES, 4 segments of 2**22
        (2**22 + 1, 0.0, True),       # a longer path
        (2**22, 0.25, True),          # 5 segments of 2**22
        (4096, 0.999, False),         # 2458 segments: 10 067 968 samples
        (4096, 0.9999, True)])        # 12289 segments
    def test_path_size_cap(self, segment_len, overlap, refused):
        cfg = ExperimentConfig(segment_len=segment_len, overlap=overlap)
        if refused:
            with pytest.raises(ParameterError, match=f"over the limit of {experiments.MAX_SAMPLES}"):
                experiments._check_path_size(cfg)
        else:
            experiments._check_path_size(cfg)

    @pytest.mark.parametrize("lag,refused", [(2**24 - 2**14, False),  # a walk of MAX_SAMPLES
                                             (2**24 - 2**14 + 1, True)])
    def test_delayed_walk_cap(self, lag, refused):
        cfg = ExperimentConfig(deltas=(1e-6, lag * 1e-8))
        if refused:
            with pytest.raises(ParameterError, match=f"over the limit of {experiments.MAX_SAMPLES}"):
                experiments._check_delayed_walks(cfg, 1e-8)
        else:
            experiments._check_delayed_walks(cfg, 1e-8)

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
        if cfg is None or not 4096 < cfg.duration * cfg.fs <= experiments.MAX_SAMPLES:
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
        # 8 paths of 7 Welch segments of 512 samples: one block, one path per
        # block, and blocks of 3, 3 and 2 paths (a ragged last block)
        cfg = _small_cfg(tmp_path)
        block_samples = (experiments.BLOCK_SAMPLES, 1, 3 * 7 * 512)
        for command, prefix in (("figure-log", "log"), ("figure-linear", "lin")):
            for block in block_samples:
                monkeypatch.setattr(experiments, "BLOCK_SAMPLES", block)
                out = tmp_path / f"{prefix}_{block}"
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            for curve in ("base", "ind", "delta_1em6"):
                name = f"psd_{prefix}_{curve}.est.data"
                want = (tmp_path / f"{prefix}_{block_samples[0]}" / name).read_bytes()
                for block in block_samples[1:]:
                    assert (tmp_path / f"{prefix}_{block}" / name).read_bytes() == want


@pytest.mark.parametrize("segment_len,overlap,delta,rows", [
    # the default figure paths: 7 segments each
    pytest.param(4096, 0.5, None, [2, 2, 1], id="4096-0.5-rows0"),
    # the default delay: a lag of 10 samples
    pytest.param(4096, 0.5, 1e-6, [2, 2, 1], id="4096-0.5-delay1e-06"),
    # 7 segments of 256: 32 paths a block
    pytest.param(256, 0.5, None, [32, 32, 1], id="256-0.5-rows1"),
    # walks of 1024 + 2560 samples: 16 paths a block
    pytest.param(256, 0.5, 2.56e-4, [16, 16, 1], id="256-0.5-delay2.56e-04"),
    # 2458 segments a path: one path a block
    pytest.param(4096, 0.999, None, [1] * 5, id="4096-0.999-rows2")])
def test_estimate_blocks_bounded_by_segment_samples(monkeypatch, segment_len, overlap,
                                                    delta, rows):
    cfg = ExperimentConfig(n_paths=sum(rows), segment_len=segment_len, overlap=overlap)
    seen = []

    def record(beta, taps, dt, n, master_seed, n_paths, first_index=0):
        seen.append(n_paths)
        return np.zeros((n_paths, n))

    monkeypatch.setattr(stochastic, "tap_ensemble", record)
    monkeypatch.setattr(spectral, "psd_of_phase_shift", lambda blocks, dt, **kw: list(blocks))
    if delta is None:
        experiments.estimate_base(cfg, 1e-7)
    else:
        experiments.estimate_delayed(cfg, delta, 1e-7)
    assert seen == rows


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
    battery draws, recorded where every stream is seeded (_seed_words) at
    seeds 11 and 12: no key is drawn at both."""
    keys = {}
    seed_words = stochastic._seed_words

    def record(master, first_index, n_paths, stream):
        keys[seed].update((master, i, stream) for i in range(first_index, first_index + n_paths))
        return seed_words(master, first_index, n_paths, stream)

    monkeypatch.setattr(stochastic, "_seed_words", record)
    for seed in (11, 12):
        keys[seed] = set()
        experiments.run_acceptance(ExperimentConfig(seed=seed, output_dir=""))
    # 4 x 2000 paths, the divider check's two walks, the white noise
    assert len(keys[11]) == len(keys[12]) == 8003
    assert not keys[11] & keys[12]


def test_z_gate_is_scipys_quantile():
    """The battery's gate, written as a literal, is -ndtri(0.5e-4) bit for
    bit, so no check's tolerance moves."""
    from scipy.special import ndtri

    assert experiments.Z_GATE.hex() == float(-ndtri(0.5e-4)).hex()


@pytest.mark.parametrize("name", ["delayed-psd-zero-delay-limit",
                                  "delayed-psd-large-delay-limit", "lorentzian-unit-power"])
def test_zero_delay_limit_check_can_fail(monkeypatch, name):
    """The battery compares the model's delay limits and the pair's power
    with the Lorentzians written out, so a model off by 1e-6 fails each."""
    tap_psd = analytic.tap_psd
    monkeypatch.setattr(analytic, "tap_psd", lambda *args: tap_psd(*args) * (1 + 1e-6))
    report = experiments.run_acceptance(ExperimentConfig(output_dir=""))
    check, = (c for c in report["checks"] if c["name"] == name)
    assert not check["passed"]


def test_ensemble_checks_pass_over_100_seeds():
    """The variance and autocorrelation checks are gated at Z_GATE standard
    errors, a false-fail rate of 1e-4 per compared value: none fails at
    seeds 1..100."""
    failed = [(seed, name, measured) for seed in range(1, 101)
              for name, measured, tolerance in experiments._ensemble_checks(1e4, seed)
              if not measured < tolerance]
    assert not failed


def test_autocorr_check_finite_where_paths_do_not_spread():
    """At beta = 1e-12 every path's exp(j theta) rounds to the same values:
    the standard error is floored at eps, so the check reads 0, not 0/0."""
    checks = {name: (measured, tolerance)
              for name, measured, tolerance in experiments._ensemble_checks(1e-12, 1)}
    measured, tolerance = checks["phase-shift-autocorr"]
    assert measured < tolerance


def test_variance_checks_fail_three_percent_off(monkeypatch):
    """An ensemble whose walks diffuse at 1.03 beta fails all three
    variance checks (each reads about 0.03, against 0.0123)."""
    ensemble = stochastic.wiener_ensemble
    monkeypatch.setattr(stochastic, "wiener_ensemble",
                        lambda *args: ensemble(*args) * np.sqrt(1.03))
    report = experiments.run_acceptance(ExperimentConfig(output_dir=""))
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("wiener-variance-slope", "pair-averaging-variance-halving",
                 "quad-averaging-variance-quartering"):
        assert not checks[name]["passed"]
        assert checks[name]["tolerance"] == pytest.approx(0.0123, abs=1e-4)


def test_white_noise_check_gated_at_its_standard_error(monkeypatch):
    """welch-white-normalization is gated at Z_GATE standard errors of its
    share-weighted sum (about 5.4e-3): no seed of 1..300 fails it, and a
    density scaled by 1/(fs L) in place of 1/(fs sum(w^2)) does."""
    checks = [experiments._white_noise_check(seed) for seed in range(1, 301)]
    assert checks[0][2] == pytest.approx(5.40e-3, abs=1e-5)
    assert all(measured < tolerance for _, measured, tolerance in checks)
    welch = spectral.welch_psd

    def per_segment_length(x, **kwargs):  # hann: sum(w^2) = 3 L / 8
        est = welch(x, **kwargs)
        return spectral.SpectrumEstimate(est.freqs, est.psd * 0.375, est.n_segments)

    monkeypatch.setattr(spectral, "welch_psd", per_segment_length)
    report = experiments.run_acceptance(ExperimentConfig(output_dir=""))
    check, = (c for c in report["checks"] if c["name"] == "welch-white-normalization")
    assert not check["passed"]
    assert check["measured"] == pytest.approx(0.625, abs=0.01)


@pytest.mark.parametrize("beta", ["1e-3", "100", "1e6"])
def test_acceptance_exits_0_across_beta(tmp_path, beta):
    """The battery's checks hold away from the default beta, without a
    warning: the pair's unit power grid and the quadrature check's delay
    and offsets scale with the line."""
    cfg = tmp_path / "beta.cfg"
    cfg.write_text(f"beta = {beta}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["acceptance", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("beta", [1e-3, 1e4])
def test_quadrature_check_can_fail(monkeypatch, beta):
    """delayed-psd-vs-quadrature (gate 1e-3) fails on a model 1 % off."""
    tap_psd = analytic.tap_psd
    monkeypatch.setattr(analytic, "tap_psd", lambda *args: tap_psd(*args) * (1 + 1e-2))
    report = experiments.run_acceptance(ExperimentConfig(beta=beta, output_dir=""))
    check, = (c for c in report["checks"] if c["name"] == "delayed-psd-vs-quadrature")
    assert not check["passed"]


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
