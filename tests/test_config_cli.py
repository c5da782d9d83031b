import contextlib
import io
import json
import math
import tracemalloc
import warnings
import weakref
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
from walk_sums import tap_phases


FIELDS = sorted(ExperimentConfig.__dataclass_fields__)
OFFSET_DISTS = st.builds(OffsetDist, st.sampled_from(("delta", "uniform", "normal")),
                         st.floats(min_value=0.0, max_value=1e12))
# a value of the type of a field's default (delta's is None), and a value of any type
OF_TYPE = {int: st.integers(0, 2**65), float: st.floats(0.0, 1e9),
           type(None): st.floats(0.0, 1.0), tuple: st.lists(st.floats(0.0, 1.0)).map(tuple),
           str: st.sampled_from(SCENARIOS + ("hann", "rect")) | st.text(max_size=6),
           OffsetDist: OFFSET_DISTS}
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=6),
    st.lists(st.floats() | st.integers() | st.booleans(), max_size=3).map(tuple), OFFSET_DISTS)


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

    @pytest.mark.parametrize("kwargs,match", [
        # these used to end in AttributeError or TypeError
        ({"offsets": "uniform:1"}, "offsets must be an OffsetDist"),
        ({"beta": "1"}, "beta must be a real number"),
        ({"seed": "3"}, "seed must be an integer"),
        ({"deltas": 1e-6}, "deltas must be a sequence of real numbers"),
        # and these were accepted, with a text that does not parse back
        ({"n_paths": 2.5}, "n_paths must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"segment_len": 4096.0}, "segment_len must be an integer"),
        ({"beta": True}, "beta must be a real number"),
        ({"deltas": "1e-6"}, "deltas must be a sequence of real numbers"),
        ({"deltas": (1e-6, None)}, "deltas must be a sequence of real numbers"),
        ({"window": None}, "window must be a str"),
        ({"delta": "1e-6"}, "delta must be a real number")])
    def test_field_not_of_its_kind_rejected(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            ExperimentConfig(**kwargs)

    def test_fields_stored_as_their_kind(self):
        cfg = ExperimentConfig(beta=2, deltas=[1, np.float32(0.5)], seed=np.int64(5),
                               n_paths=np.uint8(3))
        assert (cfg.beta, cfg.deltas, cfg.seed, cfg.n_paths) == (2.0, (1.0, 0.5), 5, 3)
        assert [type(v) for v in (cfg.beta, *cfg.deltas, cfg.seed, cfg.n_paths)] == [
            float, float, float, int, int]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_python_built_config_round_trips_or_is_refused(self, data):
        """Whatever a config is built from in Python, fields of their
        defaults' types and at most one of any type, it is refused with a
        ParameterError or its text parses back to it."""
        default = ExperimentConfig()
        kwargs = {name: data.draw(OF_TYPE[type(getattr(default, name))], label=name)
                  for name in data.draw(st.lists(st.sampled_from(FIELDS), unique=True,
                                                 max_size=6))}
        kwargs.update(data.draw(st.dictionaries(st.sampled_from(FIELDS), ANY_VALUE, max_size=1)))
        try:
            cfg = ExperimentConfig(**kwargs)
        except ParameterError:
            return
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

    @pytest.mark.parametrize("text,message", [
        ("beta = 1\nbeta = 2\n", "line 2: key 'beta' given twice (first on line 1)"),
        # the same value, and after comments and blank lines
        ("# run\nseed = 3\n\nn_paths = 8\nseed = 3 # again\n",
         "line 5: key 'seed' given twice (first on line 2)")])
    def test_key_given_twice_rejected(self, text, message):
        # the later line used to win without a word
        with pytest.raises(ParameterError) as info:
            ExperimentConfig.from_text(text)
        assert str(info.value) == message

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

    def test_bytes_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch):
        """One table of mixed signs, 3-digit exponents, subnormals and values
        next to an 11-digit rounding tie, written one row a chunk, seven, and
        TABLE_CHUNK_ROWS: the same bytes, which are the oracle's."""
        rng = np.random.default_rng(20)
        ties = [float(f"{d}5e{e}") for d, e in zip(rng.integers(10**10, 10**11, 40).tolist(),
                                                   rng.integers(-318, 297, 40).tolist())]
        values = np.concatenate([
            self.neighbours(ties), self.neighbours([1e-300, 2.5e300, 5e-324, 1e-310]),
            rng.integers(1, 2**52, 50, dtype=np.int64).view(np.float64),
            rng.uniform(1, 10, 50) * 10.0 ** rng.integers(-307, 308, 50)])
        values *= np.where(rng.random(values.size) < 0.5, -1.0, 1.0)
        x, y = values[0::2], values[1::2][::-1]
        written = []
        for rows in (1, 7, experiments.TABLE_CHUNK_ROWS):
            monkeypatch.setattr(experiments, "TABLE_CHUNK_ROWS", rows)
            experiments._write_table(tmp_path / f"{rows}.data", self.HEADER, x, y)
            written.append((tmp_path / f"{rows}.data").read_bytes())
        assert written == [self.oracle(self.HEADER, x, y)] * 3

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

    def test_values_either_side_of_the_tie_window(self, tmp_path):
        """Values whose product s sits 0.9e-3 and 1.1e-3 below and above an
        11-digit rounding tie, at every decade from 1e-280 to 1e280: inside
        the 1e-3 window Python's "%.10e" writes them, outside it rint(s)
        alone decides."""
        decades = np.arange(-280, 280)
        digits = np.random.default_rng(19).integers(10**10, 10**11 - 1, decades.size)
        fractions = {"4989": False, "4991": True, "5009": True, "5011": False}  # inside?
        values = np.array([float(f"{d}.{f}e{k - 10}")
                           for d, k in zip(digits.tolist(), decades.tolist()) for f in fractions])
        # the formatter's product with its decade's power of ten
        s = values * experiments._POW10[10 - np.repeat(decades, 4) - experiments._POW10_MIN]
        inside = np.abs(s - np.floor(s) - 0.5) < 1e-3
        assert np.array_equal(inside, np.tile(list(fractions.values()), decades.size))
        self.assert_rows_match_oracle(tmp_path, values)

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
        # a default `simulate` table: 15.6 MB when it was one chunk
        assert peak(64000) < 6e6


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
    """A small config file, each key on one line: `extra` replaces the
    defaults' values (a config refuses a key given twice)."""
    cfg = tmp_path / "small.cfg"
    values = {"beta": "1e4", "n_paths": 8, "segment_len": 512, "deltas": "1e-6",
              "output_dir": tmp_path / "out", **extra}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
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
        ("simulate", "fs = 8e6\noffsets = delta:1e5"),  # nor fs = 8e6 the 1.1e6 carrier
        ("simulate", "duration = 1e6"),  # 6.4e13 samples: over the cap
        # a cutoff so low that the filters' edge trim is infinite
        ("simulate", "scenario = averaged_independent\nf_c_scaled = 1e-300"),
        ("simulate", "scenario = delayed_self\ndelta = 1e-6\nf_c_scaled = 1e-300"),
        # 512 samples, all of them inside the filters' edge trim
        ("simulate", "scenario = averaged_independent\nduration = 8e-6"),
        ("simulate", "scenario = averaged_n\nn_oscillators = 4\nduration = 8e-6"),
        # drawn offsets whose mixing products the read-out band cannot separate
        ("simulate", "scenario = averaged_independent\noffsets = delta:6e5"),
        ("simulate", "scenario = delayed_self\ndelta = 1e-6\noffsets = delta:6e5"),
        ("simulate", "scenario = averaged_n\nn_oscillators = 4\noffsets = delta:3e5"),
        # one sample: too short for the mixing tree's stage
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
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # simulate checks no divider loop, so its messages name none, and a
        # refused run makes no output directory
        if command == "simulate":
            assert "check" not in err
            assert not out.exists()
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

        monkeypatch.setattr(spectral.EnsembleWelch, "add", no_estimate)
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

    @pytest.mark.parametrize("command", ["figure-log", "figure-linear"])
    def test_refused_welch_plan_draws_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                        command):
        """The one-sample hann window has no power: the Welch plan is refused
        with one line and exit 2 before any walk is drawn or any directory
        made, not by the estimator after its first block."""
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("segment_len = 1\n")

        def no_walk(*args, **kwargs):
            raise AssertionError("a walk was drawn before the Welch plan was checked")

        monkeypatch.setattr(stochastic, "wiener_ensemble", no_walk)
        out = tmp_path / "out"
        assert main([command, "--paths", "2", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the hann window of segment_len=1 ")
        assert err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def assert_estimates_refused(cfg, tmp_path, cause):
        """A figure with estimates on is refused, naming `cause` and the
        limit, before its output directory is made."""
        out = tmp_path / "out"
        with pytest.raises(ParameterError, match=f"^{cause}.*, over the limit of "
                                                 f"{experiments.MAX_SAMPLES}$"):
            experiments._write_figure(cfg, out, "log", np.array([1e3]), 1e-8, estimates=True)
        assert not out.exists()

    @pytest.mark.parametrize("segment_len,overlap,samples,refused", [
        (4096, 0.5, 7 * 4096, False),             # the default: 7 segments of a 16384-sample path
        (2**22, 0.0, 2**24, False),               # a path of MAX_SAMPLES, 4 segments of 2**22
        (2**22 + 1, 0.0, 4 * (2**22 + 1), True),  # a longer path
        (2**22, 0.25, 5 * 2**22, True),           # 5 segments of 2**22
        (4096, 0.999, 2458 * 4096, False),        # 2458 segments: 10 067 968 samples
        (4096, 0.9999, 12289 * 4096, True)])      # 12289 segments
    def test_path_size_cap(self, tmp_path, segment_len, overlap, samples, refused):
        cfg = ExperimentConfig(segment_len=segment_len, overlap=overlap)
        assert (samples > experiments.MAX_SAMPLES) == refused
        if refused:
            with pytest.raises(ParameterError, match=f" of {samples} samples, "):
                experiments._path_plan(cfg, [experiments.BASE_TAPS], 1e-8)
            self.assert_estimates_refused(cfg, tmp_path, "segment_len = ")
        else:
            plan = experiments._path_plan(cfg, [experiments.BASE_TAPS], 1e-8)
            assert plan == (samples, {stochastic.STREAM_PHASE: 0},
                            [((stochastic.STREAM_PHASE, 1.0, 0),)])

    @pytest.mark.parametrize("lag,refused", [(2**24 - 2**14, False),  # a walk of MAX_SAMPLES
                                             (2**24 - 2**14 + 1, True)])
    def test_delayed_walk_cap(self, tmp_path, lag, refused):
        cfg = ExperimentConfig(deltas=(1e-6, lag * 1e-8))
        curves = [experiments.BASE_TAPS, analytic.delayed_taps(lag * 1e-8)]
        samples = 4 * cfg.segment_len + lag
        assert (samples > experiments.MAX_SAMPLES) == refused
        if refused:
            with pytest.raises(ParameterError, match=f" of {samples} samples, "):
                experiments._path_plan(cfg, curves, 1e-8)
            self.assert_estimates_refused(cfg, tmp_path, f"delay {lag * 1e-8:g} s ")
        else:
            _, lags, _ = experiments._path_plan(cfg, curves, 1e-8)
            assert 4 * cfg.segment_len + lags[stochastic.STREAM_PHASE] == samples

    def test_two_delays_over_the_cap_name_the_longer(self, tmp_path):
        # the paths' longest walk is the one the message counts, so it names
        # the delay of that walk, not the first delay over the limit
        short, long = 2**24 - 2**14 + 1, 2**24
        cfg = ExperimentConfig(deltas=(short * 1e-8, long * 1e-8))
        self.assert_estimates_refused(
            cfg, tmp_path, f"delay {long * 1e-8:g} s at dt=1e-08 s makes estimated paths "
                           f"of {4 * cfg.segment_len + long} samples")

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
        # 8 paths, each holding two walks and one curve's phases of 2048
        # samples (6 184 samples in figure-log, 6 164 in figure-linear): one
        # block of 8 paths (at BLOCK_SAMPLES and at the earlier 7 * 2**13),
        # one path per block, blocks of 3, 3 and 2 paths (a ragged last
        # block), and blocks of 4 and 4 paths
        cfg = _small_cfg(tmp_path, deltas="1e-6,1e-7")
        block_samples = (experiments.BLOCK_SAMPLES, 7 * 2**13, 1, 3 * 6184, 4 * 6184)
        for command, prefix in (("figure-log", "log"), ("figure-linear", "lin")):
            for block in block_samples:
                monkeypatch.setattr(experiments, "BLOCK_SAMPLES", block)
                out = tmp_path / f"{prefix}_{block}"
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            for curve in ("base", "ind", "delta_1em6", "delta_1em7"):
                name = f"psd_{prefix}_{curve}.est.data"
                want = (tmp_path / f"{prefix}_{block_samples[0]}" / name).read_bytes()
                for block in block_samples[1:]:
                    assert (tmp_path / f"{prefix}_{block}" / name).read_bytes() == want

    @pytest.mark.parametrize("command,prefix", [("figure-log", "log"),
                                                ("figure-linear", "lin")])
    def test_curve_bytes_independent_of_the_other_curves(self, tmp_path, command, prefix):
        """A curve's estimate table holds the same rows, byte for byte,
        whichever other curves share its pass: one delay, or that delay
        between two others. Only the header's config hash differs."""
        def rows(path):
            return [line for line in path.read_bytes().splitlines(True)
                    if not line.startswith(b"#")]

        for deltas in ("1e-6", "1e-7,1e-6,3e-6"):
            cfg = tmp_path / f"{deltas}.cfg"
            cfg.write_text(f"beta = 1e4\nn_paths = 8\nsegment_len = 512\ndeltas = {deltas}\n")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / deltas)]) == 0
        for curve in ("base", "ind", "delta_1em6"):
            name = f"psd_{prefix}_{curve}.est.data"
            assert rows(tmp_path / "1e-6" / name) == rows(tmp_path / "1e-7,1e-6,3e-6" / name)


def _figure_curves(deltas):
    return ([experiments.BASE_TAPS, experiments.PAIR_TAPS]
            + [analytic.delayed_taps(delta) for delta in deltas])


@pytest.mark.parametrize("segment_len,overlap,deltas,rows", [
    # the default figure paths, base and pair: two walks and one curve's
    # phases of 16384 samples (49 152), two paths a block
    pytest.param(4096, 0.5, (), [2, 2, 1], id="4096-0.5-rows0"),
    # the default delay, a lag of 10 samples: walks of 16394 and 16384
    # samples and one curve's phases (49 162), two paths a block
    pytest.param(4096, 0.5, (1e-6,), [2, 2, 1], id="4096-0.5-delay1e-06"),
    # segment_len 256: two walks and one curve's phases of 1024, 42 paths a
    # block
    pytest.param(256, 0.5, (), [42, 42, 1], id="256-0.5-rows1"),
    # walks of 1024 + 2560 and 1024 samples and one curve's phases (5 632):
    # 23 paths a block
    pytest.param(256, 0.5, (2.56e-4,), [23, 23, 1], id="256-0.5-delay2.56e-04"),
    # 30 segments of 256 a path (7680 samples) outweigh its walks and phases
    # (3072): 17 paths a block
    pytest.param(256, 0.9, (), [17, 17, 1], id="256-0.9-welch"),
    # 2458 segments a path: one path a block
    pytest.param(4096, 0.999, (), [1] * 5, id="4096-0.999-rows2")])
def test_estimate_blocks_bounded_by_segment_samples(monkeypatch, segment_len, overlap,
                                                    deltas, rows):
    """The one pass's blocks, with every walk drawn (as zeros) and every
    phase built: each holds at most BLOCK_SAMPLES samples of walks and one
    curve's phases, and of Welch segments, unless it is one path; a block's
    walks are freed before the next block's are drawn. Every curve's phases
    are built into one array, which each block reuses."""
    cfg = ExperimentConfig(n_paths=sum(rows), segment_len=segment_len, overlap=overlap)
    curves = _figure_curves(deltas)
    welch = spectral._segments(4 * segment_len, segment_len, overlap)[1] * segment_len
    walks, drawn, earlier, seen, added, first = [], [], [], [], [], []

    def record(beta, theta0, dt, n, master_seed, n_paths, first_index=0,
               stream=stochastic.STREAM_PHASE):
        assert all(walk() is None for walk in earlier), "an earlier block's walks are held"
        walks.append(n_paths * n)
        out = np.zeros((n_paths, n))
        drawn.append(weakref.ref(out))
        return out

    def consume(ests, curve, theta):
        if curve == 0:  # the first curve of a block, whose walks are drawn
            paths = len(theta)
            seen.append(paths)
            held = sum(walks) + theta.size
            walks.clear()
            earlier.extend(drawn)
            drawn.clear()
            assert paths == 1 or max(held, paths * welch) <= experiments.BLOCK_SAMPLES
            # the work arrays hold the first block, the largest
            assert len(ests.z) == seen[0] >= paths
        if not first:
            first.append(theta)
        assert theta.shape == (seen[-1], 4 * segment_len)
        assert np.shares_memory(theta, first[0])
        added.append(curve)

    monkeypatch.setattr(stochastic, "wiener_ensemble", record)
    monkeypatch.setattr(spectral.EnsembleWelch, "add", consume)
    monkeypatch.setattr(spectral.EnsembleWelch, "estimates", lambda ests: [])
    experiments.estimate_curves(cfg, curves, 1e-7)
    assert seen == rows
    assert added == list(range(len(curves))) * len(rows)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("dt", [2.5e-8, 5e-8], ids=["log", "lin"])
def test_one_pass_equals_each_curve_alone(monkeypatch, seed, dt):
    """Every curve's estimate from the one pass over blocks of 3, 3 and 1
    paths (3112 samples a path in figure-log's step, 3092 in
    figure-linear's) is, bit for bit, an EnsembleWelch of that curve alone
    over blocks of 2, 2, 2 and 1 paths of its phases written out from its
    walks (`tap_phases`): its density and its standard error."""
    cfg = ExperimentConfig(n_paths=7, segment_len=256, seed=seed, deltas=(1e-6, 1e-7))
    curves = _figure_curves(cfg.deltas)
    n, seen = 4 * cfg.segment_len, []
    ensemble = stochastic.wiener_ensemble

    def spy(*args, stream=stochastic.STREAM_PHASE, **kwargs):
        if stream == stochastic.STREAM_PHASE:
            seen.append(args[5])
        return ensemble(*args, stream=stream, **kwargs)

    monkeypatch.setattr(stochastic, "wiener_ensemble", spy)
    monkeypatch.setattr(experiments, "BLOCK_SAMPLES", 3 * 3112)
    got = experiments.estimate_curves(cfg, curves, dt)
    assert seen == [3, 3, 1]
    for taps, est in zip(curves, got):
        alone = spectral.EnsembleWelch(1, 2, n, dt, cfg.segment_len)
        for first in range(0, cfg.n_paths, 2):
            alone.add(0, tap_phases(cfg.beta, taps, dt, n, seed, min(2, cfg.n_paths - first),
                                    first_index=first))
        want, = alone.estimates()
        assert np.array_equal(est.psd, want.psd)
        assert np.array_equal(est.se, want.se)
        assert np.array_equal(est.freqs, want.freqs)
        assert est.n_segments == want.n_segments


@pytest.mark.parametrize("run", [experiments.run_figure_log, experiments.run_figure_linear])
def test_figure_draws_each_stream_key_once_at_600k_paths(tmp_path, monkeypatch, run):
    """Every Wiener-path key of a figure at n_paths = 600 000, recorded by a
    stand-in for wiener_ensemble (no path is drawn): each (seed, index,
    tag) key is drawn exactly once, on the figure's two source tags, and
    neither is the offset tag or a battery tag."""
    blocks = []

    def record(beta, theta0, dt, n, master_seed, n_paths, first_index=0,
               stream=stochastic.STREAM_PHASE):
        blocks.append((master_seed, stream, first_index, n_paths))
        return np.zeros((n_paths, n))

    monkeypatch.setattr(stochastic, "wiener_ensemble", record)
    cfg = ExperimentConfig(n_paths=600_000, segment_len=1, window="rect",
                           deltas=(1e-7, 2e-7, 3e-7), seed=5, output_dir=str(tmp_path))
    run(cfg)

    assert {b[0] for b in blocks} == {cfg.seed}
    tags = {b[1] for b in blocks}
    assert tags == {stochastic.STREAM_PHASE, experiments.TAG_PARTNER}
    assert not tags & {stochastic.STREAM_OFFSET, experiments.TAG_WELCH,
                       experiments.TAG_WELCH_PARTNER, experiments.TAG_DIVIDER}
    keys = np.sort(np.concatenate([np.arange(first, first + rows, dtype=np.int64) + (tag << 32)
                                   for _, tag, first, rows in blocks]))
    every = np.concatenate([np.arange(cfg.n_paths, dtype=np.int64) + (tag << 32)
                            for tag in sorted(tags)])
    assert np.array_equal(keys, every)


def test_battery_streams_disjoint_at_neighbouring_seeds(monkeypatch):
    """The (master, index, tag) key of every random stream the acceptance
    battery draws, recorded where every stream is advanced to its path's
    start (the stream of `stochastic._stream`) at seeds 11 and 12: no key
    is drawn at both."""
    keys = {}
    stream = stochastic._stream

    class Recording(np.random.PCG64DXSM):
        def advance(self, delta):
            keys[seed].add((self.master, delta >> 64, self.tag))
            return super().advance(delta)

    def record(master, tag):
        bits = Recording(stream(master, tag).seed_seq)
        bits.master, bits.tag = master, tag
        return bits

    monkeypatch.setattr(stochastic, "_stream", record)
    for seed in (11, 12):
        keys[seed] = set()
        experiments.run_acceptance(ExperimentConfig(seed=seed, output_dir=""))
    # 4 x 2000 paths, the divider check's two walks, the Welch checks' 256
    # paths on each of their two sources
    assert len(keys[11]) == len(keys[12]) == 8514
    assert not keys[11] & keys[12]


def test_z_gates_are_scipys_quantiles():
    """The battery's gates, written as literals, are -ndtri(0.5e-4) and the
    family-wise -ndtri(0.5e-4 / 768) of the Welch checks' 768 bins, bit for
    bit, so no check's tolerance moves."""
    from scipy.special import ndtri

    assert experiments.Z_GATE.hex() == float(-ndtri(0.5e-4)).hex()
    assert experiments.Z_FAMILY.hex() == float(-ndtri(0.5e-4 / 768)).hex()


def test_z_family_counts_the_bins_the_welch_checks_compare(monkeypatch):
    """Z_FAMILY is the family-wise gate over the bins welch-expected-density
    compares: the expected densities the checks ask for, each the size of
    its estimate, total 768 bins, so a change to the checks' curves or
    segment length cannot leave the gate behind."""
    from scipy.special import ndtri

    ests, expected = [], []
    estimate, expectation = experiments.estimate_curves, spectral.expected_psd
    monkeypatch.setattr(experiments, "estimate_curves",
                        lambda *args: ests.extend(estimate(*args)) or ests)
    monkeypatch.setattr(spectral, "expected_psd",
                        lambda *args: expected.append(expectation(*args)) or expected[-1])
    experiments._welch_checks(1e4, 3)
    assert [e.shape for e in expected] == [est.psd.shape for est in ests]
    bins = sum(e.size for e in expected)
    assert bins == 768
    assert experiments.Z_FAMILY.hex() == float(-ndtri(0.5e-4 / bins)).hex()


@pytest.mark.parametrize("seed", [21, 763, 3030])
def test_welch_density_studentized_on_the_log_scale(monkeypatch, seed):
    """At these seeds (beta = 1e4), the three of seeds 1-5000 where it
    happens, a low bin with a low SE puts the linear |S - E[S]| / SE over
    Z_FAMILY while welch-expected-density, which reads |log(S / E[S])| S /
    SE, holds."""
    ests, expected = [], []
    estimate, expectation = experiments.estimate_curves, spectral.expected_psd
    monkeypatch.setattr(experiments, "estimate_curves",
                        lambda *args: ests.extend(estimate(*args)) or ests)
    monkeypatch.setattr(spectral, "expected_psd",
                        lambda *args: expected.append(expectation(*args)) or expected[-1])
    (_, _, _), (name, measured, tolerance) = experiments._welch_checks(1e4, seed)
    linear = max(np.max(np.abs(est.psd - e) / est.se) for est, e in zip(ests, expected))
    log = max(np.max(np.abs(np.log(est.psd / e)) * est.psd / est.se)
              for est, e in zip(ests, expected))
    assert (name, measured, tolerance) == ("welch-expected-density", log, experiments.Z_FAMILY)
    assert linear > experiments.Z_FAMILY > log


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
    """The variance checks are gated at Z_GATE standard errors, a
    false-fail rate of 1e-4 per compared value: none fails at seeds
    1..100."""
    failed = [(seed, name, measured) for seed in range(1, 101)
              for name, measured, tolerance in experiments._ensemble_checks(1e4, seed)
              if not measured < tolerance]
    assert not failed


@pytest.mark.parametrize("beta", [1e4, 1e-3])
@pytest.mark.parametrize("seed", [1, 179, 12345])
def test_streamed_ensemble_is_the_whole_array_ensemble(seed, beta):
    """The variance checks draw their four blocks one at a time into one
    running sum, and read exactly what the means of the first k blocks of
    the whole 8000-path ensemble give."""
    dt = 1e-6
    blocks = stochastic.wiener_ensemble(beta, 0.0, dt, 101, seed, 8000).reshape(4, 2000, 101)
    want = [experiments._rel_err(np.mean(np.diff(blocks[:k].mean(axis=0)) ** 2),
                                 experiments.TWO_PI * beta * dt / k) for k in (1, 2, 4)]
    assert [measured for _, measured, _ in experiments._ensemble_checks(beta, seed)] == want


def test_battery_memory_is_bounded():
    """The battery holds no ensemble or power grid whole: after a warm-up
    call (scipy's lazy imports), a traced call peaks below 9 MiB, where
    the stacked 8000-path ensemble and the spectrum over the whole
    400 001-point grid peaked at 12.5 MiB."""
    experiments.run_acceptance(ExperimentConfig(output_dir=""))
    tracemalloc.start()
    try:
        experiments.run_acceptance(ExperimentConfig(output_dir=""))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


@pytest.mark.parametrize("beta", [1e-3, 1e2, 1e4])
def test_blocked_power_is_the_one_shot_trapezoid(monkeypatch, beta):
    """lorentzian-unit-power integrates its grid in runs of BLOCK_SAMPLES
    intervals: within 1e-15 of the trapezoid over the whole grid at once."""
    target, powers, rel_err = 2.0 / np.pi * math.atan(1e4), [], experiments._rel_err

    def spy(measured, want):
        if want == target:
            powers.append(measured)
        return rel_err(measured, want)

    monkeypatch.setattr(experiments, "_rel_err", spy)
    experiments.run_acceptance(ExperimentConfig(beta=beta, output_dir=""))
    grid = np.pi * beta / 2.0 * np.linspace(-1e4, 1e4, 400001)
    whole = np.trapezoid(analytic.tap_psd(beta, experiments.PAIR_TAPS, grid), grid) / (2 * np.pi)
    assert len(powers) == 1
    assert abs(powers[0] - whole) <= 1e-15 * whole


def test_welch_checks_pass_over_100_seeds():
    """welch-scale holds to 1e-6 and welch-expected-density, the largest
    |z| of 768 bins, stays under the family-wise gate at seeds 1..100."""
    failed = [(seed, name, measured) for seed in range(1, 101)
              for name, measured, tolerance in experiments._welch_checks(1e4, seed)
              if not measured < tolerance]
    assert not failed


def test_welch_checks_read_the_same_at_any_beta():
    """dt = 8 / (256 beta) draws the same walks in units of the line width,
    so both readings agree at beta = 1e4, 1e-3 and 1e-12."""
    readings = [experiments._welch_checks(beta, 3) for beta in (1e4, 1e-3, 1e-12)]
    for checks in readings[1:]:
        for (name, measured, tolerance), (_, want, _) in zip(checks, readings[0]):
            assert measured == pytest.approx(want, rel=1e-9, abs=1e-12), name


def _scaled_plan(monkeypatch, scale):
    """The Welch plan's density scale fs * U replaced by scale(fs, win)."""
    plan = spectral._plan

    def scaled(n, fs, *args):
        faulty = plan(n, fs, *args)
        return faulty._replace(scale=scale(fs, faulty.win))

    monkeypatch.setattr(spectral, "_plan", scaled)


def _changed_rows(monkeypatch, change):
    """Every path density of the Welch kernel passed through change()."""
    rows = spectral._welch_rows
    monkeypatch.setattr(spectral, "_welch_rows", lambda work, n: change(rows(work, n)))


def _rect_expectation(monkeypatch):
    """E[S] built from the rect window's c_w whatever window the data had."""
    expected = spectral.expected_psd
    monkeypatch.setattr(spectral, "expected_psd",
                        lambda beta, taps, dt, segment_len, window: expected(
                            beta, taps, dt, segment_len, "rect"))


def _diffusing_at(monkeypatch, factor):
    """Every walk diffusing at factor * beta."""
    ensemble = stochastic.wiener_ensemble
    monkeypatch.setattr(stochastic, "wiener_ensemble",
                        lambda *args, **kwargs: ensemble(*args, **kwargs) * np.sqrt(factor))


VARIANCE_CHECKS = ("wiener-variance-slope", "pair-averaging-variance-halving",
                   "quad-averaging-variance-quartering")


def test_variance_checks_fail_three_percent_off(monkeypatch):
    """An ensemble whose walks diffuse at 1.03 beta fails all three
    variance checks (each reads about 0.03, against 0.0123)."""
    _diffusing_at(monkeypatch, 1.03)
    report = experiments.run_acceptance(ExperimentConfig(output_dir=""))
    checks = {c["name"]: c for c in report["checks"]}
    for name in VARIANCE_CHECKS:
        assert not checks[name]["passed"]
        assert checks[name]["tolerance"] == pytest.approx(0.0123, abs=1e-4)


@pytest.mark.parametrize("fault,failing", [
    (lambda mp: _scaled_plan(mp, lambda fs, win: fs * np.sum(win)), ["welch-scale"]),
    (lambda mp: _scaled_plan(mp, lambda fs, win: np.sum(win**2)), ["welch-scale"]),
    (lambda mp: _changed_rows(mp, lambda rows: rows * 1.05), ["welch-scale"]),
    (lambda mp: _changed_rows(mp, lambda rows: np.roll(rows, 1, axis=-1)),
     ["welch-expected-density"]),
    (_rect_expectation, ["welch-expected-density"]),
    (lambda mp: _diffusing_at(mp, 1.1), ["welch-expected-density", *VARIANCE_CHECKS]),
    (lambda mp: _diffusing_at(mp, 1.05), VARIANCE_CHECKS),
], ids=["U-as-sum-w", "no-1/fs", "density-x1.05", "one-bin-roll", "rect-c_w",
        "walks-at-1.1-beta", "walks-at-1.05-beta"])
def test_battery_fails_under_each_fault(monkeypatch, fault, failing):
    """Each fault in the Welch scale, the bins, the window or the walks fails
    the battery, through the checks named."""
    fault(monkeypatch)
    report = experiments.run_acceptance(ExperimentConfig(output_dir=""))
    checks = {c["name"]: c for c in report["checks"]}
    assert not report["passed"]
    assert [name for name in failing if checks[name]["passed"]] == []


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


@pytest.mark.parametrize("command", ["acceptance", "simulate"])
def test_paths_refused_where_no_path_is_estimated(tmp_path, capsys, command):
    """--paths sets the figures' estimated path count. acceptance and
    simulate estimate none: they used to take it, run unchanged, and report
    another config hash; now the parser refuses it with one `error:` line,
    exit 2, and nothing runs."""
    assert main([command, "--paths", "5", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "unrecognized arguments: --paths 5" in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["figure-log", "--bogus"], ["simulate", "--format", "xml"], ["simulate", "--seed"], []])
def test_parser_refusals_one_line_exit_2(tmp_path, capsys, argv):
    """An unknown flag, a bad choice, a flag without its value and a missing
    command: one `error:` line, exit 2, no usage text and no directory."""
    out = [] if not argv else ["--out", str(tmp_path / "out")]
    assert main([*argv, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: oscavg simulate")


class TestFlagIsItsKey:
    """--seed, --paths and --out are the keys seed, n_paths and output_dir:
    the config's parser reads the flag's text as it reads the key's value."""

    @pytest.mark.parametrize("command,flags,keys", [
        (["figure-linear"], ["--seed", "7", "--paths", "3"], "seed = 7\nn_paths = 3\n"),
        (["simulate"], ["--seed", "7"], "seed = 7\n")])
    def test_same_files(self, tmp_path, monkeypatch, command, flags, keys):
        """The flags and the same values as keys write the same bytes,
        config hash included; each run writes to `out` under its own
        directory, so output_dir is the same text too."""
        base = "segment_len = 64\nduration = 2e-5\n"
        (tmp_path / "flags").mkdir()
        (tmp_path / "keys").mkdir()
        (tmp_path / "flags.cfg").write_text(base)
        (tmp_path / "keys.cfg").write_text(base + keys + "output_dir = out\n")
        monkeypatch.chdir(tmp_path / "flags")
        assert main([*command, "--config", "../flags.cfg", *flags, "--out", "out"]) == 0
        monkeypatch.chdir(tmp_path / "keys")
        assert main([*command, "--config", "../keys.cfg"]) == 0
        names = sorted(p.name for p in (tmp_path / "flags" / "out").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "keys" / "out").iterdir())
        assert names
        for name in names:
            assert (tmp_path / "flags" / "out" / name).read_bytes() \
                == (tmp_path / "keys" / "out" / name).read_bytes(), name

    @pytest.mark.parametrize("flag,key,value", [
        ("--seed", "seed", "abc"), ("--paths", "n_paths", "1.5"),
        ("--seed", "seed", str(2**64))])
    def test_same_refusal(self, tmp_path, capsys, flag, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["figure-log", "--no-estimates", "--config", str(cfg),
                     "--out", str(out)]) == 2
        from_file = capsys.readouterr().err
        assert main(["figure-log", "--no-estimates", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == from_file
        assert from_file.startswith("error: ") and from_file.count("\n") == 1
        assert not out.exists()


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
            wave = stochastic.oscillator_waveform(spec, f_i, path, fs)
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
