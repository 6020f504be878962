"""Tests for sampling, labeling, splitting, and CSV round-trips."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from wignernet.data import (
    CSV_HEADER,
    Dataset,
    FormatError,
    SamplingRanges,
    SplitIndices,
    _read_header,
    _write_text,
    build_dataset,
    load_dataset,
    load_splits,
    sample_inputs,
    save_dataset,
    save_splits,
    split_indices,
)
from wignernet.experiments import SweepResult, save_sweep
from wignernet.network import ArchitectureSpec, init_model
from wignernet.oscillator import OscillatorConfig, evolve_batch
from wignernet.training import TrainReport, save_report

CFG = OscillatorConfig()


def body(*rows):
    """An (old, new) edit that puts `rows` first in a dataset's body, from line 10."""
    return CSV_HEADER + "\n", CSV_HEADER + "\n" + "".join(row + "\n" for row in rows)


GOOD, NAN, BAD, SHORT = "1,0,1,1,1,0,1,1", "1,0,1,1,nan,0,1,1", "1,0,x,1,1,0,1,1", "1,0,1"


class TestSamplingRanges:
    def test_defaults_are_valid(self):
        SamplingRanges()

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            SamplingRanges(x0=(1.0, -1.0))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            SamplingRanges(sigma_x0=(0.0, 1.0))


class TestSampleInputs:
    def test_degenerate_intervals_give_identical_rows(self):
        ranges = SamplingRanges(
            x0=(2.0, 2.0),
            p0=(-1.0, -1.0),
            sigma_x0=(0.7, 0.7),
            hbar_log10=(-2.0, -2.0),
        )
        inputs = sample_inputs(ranges, 25, seed=0)
        assert np.allclose(inputs, inputs[0])
        assert np.allclose(inputs[0], [2.0, -1.0, 0.7, 0.01])

    def test_default_ranges_cover_and_stay_inside(self):
        ranges = SamplingRanges()
        inputs = sample_inputs(ranges, 10_000, seed=42)
        for col, (lo, hi) in zip(
            inputs.T[:3], (ranges.x0, ranges.p0, ranges.sigma_x0)
        ):
            assert col.min() >= lo and col.max() <= hi
        hbar = inputs[:, 3]
        assert hbar.min() >= 10.0 ** ranges.hbar_log10[0]
        assert hbar.max() <= 10.0 ** ranges.hbar_log10[1]
        assert np.log10(hbar.max() / hbar.min()) >= 5.0  # spans at least five decades

    def test_same_seed_is_bit_identical(self):
        a = sample_inputs(SamplingRanges(), 100, seed=7)
        b = sample_inputs(SamplingRanges(), 100, seed=7)
        assert np.array_equal(a, b)

    def test_column_means_near_interval_midpoints(self):
        """Empirical mean of each uniform column is within 5 standard errors."""
        ranges = SamplingRanges()
        inputs = sample_inputs(ranges, 10_000, seed=42)
        for col, (lo, hi) in zip(
            inputs.T[:3], (ranges.x0, ranges.p0, ranges.sigma_x0)
        ):
            se = (hi - lo) / np.sqrt(12.0) / np.sqrt(10_000)
            assert abs(col.mean() - (lo + hi) / 2.0) < 5.0 * se
        log_hbar = np.log10(inputs[:, 3])
        lo, hi = ranges.hbar_log10
        se = (hi - lo) / np.sqrt(12.0) / np.sqrt(10_000)
        assert abs(log_hbar.mean() - (lo + hi) / 2.0) < 5.0 * se

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_inputs(SamplingRanges(), 0, seed=0)


class TestBuildDataset:
    def test_single_row_probe(self):
        ds = build_dataset(CFG, np.array([[1.0, 0.0, 1.0, 1.0]]), ranges=SamplingRanges(), seed=0)
        assert np.allclose(
            ds.targets[0],
            [0.28366218546322625, 0.9589242746631385, 0.8475635726972683, 0.8475635726972683],
            atol=1e-12,
        )

    def test_t_zero_targets_echo_inputs(self):
        cfg = OscillatorConfig(t=0.0)
        inputs = sample_inputs(SamplingRanges(), 50, seed=1)
        ds = build_dataset(cfg, inputs, ranges=SamplingRanges(), seed=1)
        assert np.allclose(ds.targets[:, 0], inputs[:, 0], rtol=1e-14)
        assert np.allclose(ds.targets[:, 1], inputs[:, 1], rtol=1e-14)
        assert np.allclose(ds.targets[:, 2], inputs[:, 2], rtol=1e-14)
        assert np.allclose(ds.targets[:, 3], inputs[:, 2], rtol=1e-14)  # m = omega = 1

    def test_rebuild_is_identical(self):
        inputs = sample_inputs(SamplingRanges(), 100, seed=2)
        a = build_dataset(CFG, inputs, ranges=SamplingRanges(), seed=2)
        b = build_dataset(CFG, inputs, ranges=SamplingRanges(), seed=2)
        assert np.array_equal(a.targets, b.targets)

    def test_row_error_carries_index(self):
        inputs = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, -1.0]])
        with pytest.raises(ValueError, match="row 1"):
            build_dataset(CFG, inputs, ranges=SamplingRanges(), seed=0)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row count"):
            Dataset(
                inputs=np.zeros((3, 4)),
                targets=np.zeros((2, 4)),
                config=CFG,
                seed=0,
                ranges=SamplingRanges(),
            )


class TestSplitIndices:
    def test_exact_division_at_ten(self):
        s = split_indices(10, seed=0)
        assert (s.train.size, s.validation.size, s.test.size) == (8, 1, 1)

    def test_ten_thousand_row_split(self):
        s = split_indices(10_000, seed=0)
        assert (s.train.size, s.validation.size, s.test.size) == (8000, 1000, 1000)

    def test_partition_property(self):
        for n in (10, 11, 37, 1000):
            s = split_indices(n, seed=3)
            merged = np.concatenate([s.train, s.validation, s.test])
            assert np.array_equal(np.sort(merged), np.arange(n))

    def test_deterministic_per_seed(self):
        a = split_indices(500, seed=11)
        b = split_indices(500, seed=11)
        c = split_indices(500, seed=12)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)
        assert not np.array_equal(a.train, c.train)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            split_indices(9, seed=0)


class TestDatasetRoundTrip:
    def make_dataset(self, n=3, seed=5):
        inputs = sample_inputs(SamplingRanges(), n, seed=seed)
        return build_dataset(CFG, inputs, ranges=SamplingRanges(), seed=seed)

    def test_save_load_is_bit_identical(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.inputs, ds.inputs)
        assert np.array_equal(loaded.targets, ds.targets)
        assert loaded.seed == ds.seed
        assert loaded.config == ds.config
        assert loaded.ranges == ds.ranges

    def test_head_labels_are_the_dataclass_fields(self, tmp_path):
        """The `#` lines are OscillatorConfig's fields, then the seed, then each
        SamplingRanges field with `_range`."""
        path = tmp_path / "ds.csv"
        save_dataset(self.make_dataset(), path)
        labels = [line.split()[1] for line in path.read_text().splitlines() if line[0] == "#"]
        ranges = [f"{f.name}_range" for f in fields(SamplingRanges)]
        assert labels == [f.name for f in fields(OscillatorConfig)] + ["seed"] + ranges

    def test_seed_beyond_float_precision_reads_back_exactly(self, tmp_path):
        ds = self.make_dataset(seed=10**20 + 1)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        assert load_dataset(path).seed == 10**20 + 1

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds = self.make_dataset(n=20)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_regeneration_matches_stored_targets(self, tmp_path):
        ds = self.make_dataset(n=200, seed=8)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        regenerated, _ = evolve_batch(loaded.config, loaded.inputs)
        assert np.allclose(regenerated, loaded.targets, rtol=1e-12)

    def test_wrong_column_count_names_line(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[10] = lines[10].rsplit(",", 1)[0]  # drop a column on the second data row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 11"):
            load_dataset(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[9].split(",")
        cells[3] = "bogus"
        lines[9] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 10"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "lineno, column, value",
        [(11, 5, "nan"), (12, 0, "inf")],  # a target cell, an input cell
    )
    def test_non_finite_cell_names_line(self, tmp_path, lineno, column, value):
        ds = self.make_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[lineno - 1].split(",")
        cells[column] = value
        lines[lineno - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"line {lineno}: non-finite"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "old, new, lineno",
        [
            ("# m 1\n", "# m 1 2\n", 1),
            ("# seed 5\n", "# seed 4.5\n", 4),
            ("# x0_range -5 5\n", "# x0_range -5 5 7\n", 5),
            ("# m 1\n# omega 1\n", "# omega 1\n# m 1\n", 1),
            ("# seed 5\n", "# seed 5\n# n 3\n", 5),
            (CSV_HEADER + "\n", CSV_HEADER + "\n\n", 10),
            ("# m 1\n", "# m -1\n", 1),
            ("# x0_range -5 5\n", "# x0_range 5 -5\n", 5),
            (",0.57313656609075214,", ",-0.57313656609075214,", 12),  # sigma_x0 of row 3
            (",2.5530611089982403e-05,", ",-1,", 12),  # hbar of row 3
            (*body(GOOD, NAN, GOOD, BAD), 11),  # the earliest bad line, whatever fails on it
            (*body(GOOD, BAD, GOOD, NAN), 11),
            (*body(GOOD, NAN, GOOD, SHORT), 11),
        ],
        ids=[
            "extra-value",
            "fractional-seed",
            "three-values",
            "reordered",
            "extra-line",
            "blank",
            "negative-mass",
            "inverted-range",
            "nonpositive-sigma-x0",
            "nonpositive-hbar",
            "nan-before-text",
            "text-before-nan",
            "nan-before-short-row",
        ],
    )
    def test_malformed_line_is_named(self, tmp_path, old, new, lineno):
        path = tmp_path / "ds.csv"
        save_dataset(self.make_dataset(), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(FormatError, match=f"line {lineno}: ") as excinfo:
            load_dataset(path)
        assert str(path) in str(excinfo.value)

    def test_load_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        """Each line is converted on its own: no list of every cell's text."""
        path = tmp_path / "ds.csv"
        save_dataset(self.make_dataset(n=10_000), path)
        tracemalloc.start()
        try:
            load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size

    def test_save_peak_memory_is_below_the_file(self, tmp_path):
        """The body is formatted a block of rows at a time: no text of the whole file at once."""
        path = tmp_path / "ds.csv"
        ds = self.make_dataset(n=10_000)
        tracemalloc.start()
        try:
            save_dataset(ds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_empty_file_raises_distinct_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{path}: line 1: no data rows"

    def test_header_only_file_raises_distinct_error(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:9]) + "\n")  # metadata + header, no rows
        with pytest.raises(FormatError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{path}: line 10: no data rows"

    def test_head_only_read_takes_the_head_and_one_row(self, tmp_path):
        """sweep's read: the rows after the first are not read, and a file without
        rows still fails on line 10."""
        ds = self.make_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10] + ["not a row"] * 3) + "\n")
        reader, cfg, seed, ranges = _read_header(path, head_only=True)
        assert reader.lines == lines[:10] and reader.pos == 9
        assert (cfg, seed, ranges) == (ds.config, ds.seed, ds.ranges)
        path.write_text("\n".join(lines[:9]) + "\n")
        with pytest.raises(FormatError) as excinfo:
            _read_header(path, head_only=True)
        assert str(excinfo.value) == f"{path}: line 10: no data rows"

    @staticmethod
    def set_cell(path, lineno, column, value):
        """Overwrite one cell of a saved file with `value`, written as save_dataset writes."""
        lines = path.read_text().splitlines()
        cells = lines[lineno - 1].split(",")
        cells[column] = f"{value:.17g}"
        lines[lineno - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "column, value, bound",
        [(0, math.nextafter(5.0, math.inf), "[-5, 5]"),
         (1, math.nextafter(-5.0, -math.inf), "[-5, 5]"),
         (2, math.nextafter(0.5, 0.0), "[0.5, 2]"),
         (3, math.nextafter(1.0, math.inf), "[1e-06, 1]")],
        ids=["x0", "p0", "sigma_x0", "hbar"],
    )
    def test_row_just_outside_its_files_range_names_line_column_and_bound(
        self, tmp_path, column, value, bound
    ):
        """A cell inside oscillator.DOMAIN but one ulp outside the file's own `# *_range`
        line fails, naming the file's bound, not the domain's."""
        path = tmp_path / "ds.csv"
        save_dataset(self.make_dataset(n=5), path)
        self.set_cell(path, 12, column, value)
        with pytest.raises(FormatError) as excinfo:
            load_dataset(path)
        name = CSV_HEADER.split(",")[column]
        assert str(excinfo.value) == f"{path}: line 12: {name} {value} is outside {bound}"

    def test_hbar_exactly_at_numpys_power_of_each_range_end_loads(self, tmp_path):
        """hbar's bounds are numpy's power of 10 at the `# hbar_log10_range` ends, as
        sample_inputs draws hbar.  At -11.93 and -6.46 numpy's power differs from
        Python's on some CPUs, so a bound computed another way would reject these cells.
        One ulp beyond, the message prints each bound in full where :g would not read
        back as it, so the value cannot look as if it lay inside the printed interval."""
        ranges = SamplingRanges(hbar_log10=(-11.93, -6.46))
        lo, hi = np.power(10.0, [-11.93, -6.46]).tolist()
        assert ranges.hbar == (lo, hi)
        inputs = sample_inputs(ranges, 4, seed=2)
        inputs[:2, 3] = lo, hi
        path = tmp_path / "ds.csv"
        save_dataset(build_dataset(CFG, inputs, ranges=ranges, seed=2), path)
        assert np.array_equal(load_dataset(path).inputs, inputs)
        below = math.nextafter(lo, 0.0)
        self.set_cell(path, 10, 3, below)
        with pytest.raises(FormatError) as excinfo:
            load_dataset(path)
        assert f"{lo:g}" != repr(lo) and f"{hi:g}" != repr(hi)
        message = f"line 10: hbar {below} is outside [{lo!r}, {hi!r}]"
        assert str(excinfo.value) == f"{path}: {message}"

    def test_save_rejects_an_input_outside_its_ranges(self, tmp_path):
        """save_dataset writes only what load_dataset reads back: a row built under the
        default ranges with sigma_x0 3 (inside oscillator.DOMAIN, outside [0.5, 2]) is
        refused, naming its row, and nothing is written; under ranges that hold it, the
        file round-trips."""
        inputs = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 3.0, 1.0]])
        path = tmp_path / "ds.csv"
        with pytest.raises(ValueError) as excinfo:
            save_dataset(build_dataset(CFG, inputs, ranges=SamplingRanges(), seed=0), path)
        assert str(excinfo.value) == "row 1: sigma_x0 3.0 is outside [0.5, 2]"
        assert not path.exists()
        ds = build_dataset(CFG, inputs, ranges=SamplingRanges(sigma_x0=(0.5, 3.0)), seed=0)
        save_dataset(ds, path)
        assert np.array_equal(load_dataset(path).inputs, inputs)

    def test_wrong_header_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[8] = "a,b,c,d,e,f,g,h"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="header"):
            load_dataset(path)


class TestSplitRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        s = split_indices(57, seed=4)
        path = tmp_path / "splits.csv"
        save_splits(s, path)
        loaded = load_splits(path)
        assert np.array_equal(loaded.train, s.train)
        assert np.array_equal(loaded.validation, s.validation)
        assert np.array_equal(loaded.test, s.test)

    @pytest.mark.parametrize(
        "parts, message",
        [(([0, 1, 2], [3], [2, 4]), "0..5 once; 2 is listed more than once"),
         (([0, 1], [2], [4]), "0..3 once; 3 is in no split"),
         (([-1, 1], [2], [3]), "0..3 once; 0 is in no split")],
        ids=["overlap", "gap", "negative"],
    )
    def test_save_refuses_splits_it_would_not_read_back(self, tmp_path, parts, message):
        """save_splits writes only what load_splits reads back as it was: each of
        0..n-1 in exactly one split; otherwise it names the first index at fault and
        writes nothing."""
        path = tmp_path / "splits.csv"
        with pytest.raises(ValueError) as excinfo:
            save_splits(SplitIndices(*map(np.array, parts)), path)
        assert str(excinfo.value) == f"splits must hold each of {message}"
        assert not path.exists()

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "splits.csv"
        path.write_text("index,split\n0,train\n1,bogus\n")
        with pytest.raises(FormatError, match="line 3"):
            load_splits(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "splits.csv"
        path.write_text("0,train\n")
        with pytest.raises(FormatError):
            load_splits(path)

    @pytest.mark.parametrize("row, count", [("1,train,x", 3), ("1", 1)])
    def test_wrong_cell_count_names_line(self, tmp_path, row, count):
        path = tmp_path / "splits.csv"
        path.write_text(f"index,split\n0,train\n{row}\n2,test\n")
        with pytest.raises(FormatError) as excinfo:
            load_splits(path)
        message = f"line 3: expected 2 comma-separated values, got {count}"
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "rows, lineno",
        [(["0,train", "01,val", "2,test"], 3), (["0,train", "+1,val"], 3),
         (["0,train", " 1,val"], 3), (["0,train", "1,bogus", "3,test"], 3),
         (["0,train", "1,val", "3,test", "3,bogus"], 4)],
        ids=["leading-zero", "sign", "space", "label-first", "index-first"],
    )
    def test_first_bad_index_or_label_is_named_with_its_text(self, tmp_path, rows, lineno):
        """An index must be the text of its row number, and the earliest bad row is
        named, whichever of its index or its label is at fault."""
        path = tmp_path / "splits.csv"
        path.write_text("\n".join(["index,split", *rows]) + "\n")
        with pytest.raises(FormatError) as excinfo:
            load_splits(path)
        k = lineno - 2
        message = f"expected index {k} and a split in ('train', 'val', 'test'), got {rows[k]!r}"
        assert str(excinfo.value) == f"{path}: line {lineno}: {message}"

    @pytest.mark.parametrize("row", ["0,test", "999,train"])  # repeated, out of range
    def test_index_out_of_sequence_names_line(self, tmp_path, row):
        path = tmp_path / "splits.csv"
        save_splits(split_indices(10, seed=0), path)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(FormatError, match="line 12: expected index 10"):
            load_splits(path)


def reference_write_text(path, head, rows=()):
    """_write_text as one f"{v:.17g}" per value, the form its files were first written in."""

    def digits(values):
        return (f"{v:.17g}" for v in values)

    with open(path, "w", encoding="utf-8") as fh:
        for line in head:
            if not isinstance(line, str):
                label, values = line
                line = " ".join([label, *digits(values)])
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(digits(row)) + "\n")


# Extremes, signed zeros, values that need all 17 digits, and the non-finite
# values a sweep's rel_err column can hold.
EDGE = [
    5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 0.0, -0.0,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -2 / 3 * 1e-300, math.pi,
    1e16, 1e17, 123456789012345678.0, 9007199254740993.0, 0.30000000000000004,
    math.nan, math.inf, -math.inf,
]
# Doubles of random bits: every exponent, most needing all 17 digits.
BITS = np.random.default_rng(3).integers(0, 2**64, 400, dtype=np.uint64).view(np.float64)


class TestWriteText:
    """_write_text writes the bytes of the per-value reference writer."""

    def assert_same_bytes(self, tmp_path, head, *rows):
        """Both writers on the same head and, when one is given, the same 2-D array of rows."""
        _write_text(tmp_path / "a.txt", head, *rows)
        reference_write_text(tmp_path / "b.txt", head, *rows)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_edge_and_random_floats(self, tmp_path):
        head = [("# edge", EDGE), ("# edge array", np.array(EDGE)), ("# bits", BITS)]
        self.assert_same_bytes(tmp_path, head, BITS.reshape(-1, 8))
        self.assert_same_bytes(tmp_path, [], BITS.reshape(-1, 20))

    def test_numpy_scalars_ints_and_an_empty_list(self, tmp_path):
        head = [
            "a line as it is",
            ("# float64", [np.float64(v) for v in EDGE]),
            ("# ints", [0, -7, 2**53 + 1, 10**20, np.int64(5), np.int64(-(2**62)), np.uint8(3)]),
            ("# int array", np.arange(-3, 4)),
            ("# empty", []),
            ("# empty array", np.array([])),
        ]
        self.assert_same_bytes(tmp_path, head)
        assert (tmp_path / "a.txt").read_text().splitlines()[-2:] == ["# empty", "# empty array"]

    def test_sweep_and_history_write_the_bytes_of_their_zipped_columns(self, tmp_path):
        """save_report's and save_sweep's column-stacked arrays, int epochs among float losses
        and non-finite values included, give the bytes of their columns zipped into rows."""
        n = 300  # past a block of rows
        rng = np.random.default_rng(5)
        losses = [rng.random(n).tolist(), [*rng.random(n - 1).tolist(), math.nan]]
        save_report(TrainReport(*losses), tmp_path / "a.txt", tmp_path / "summary.txt")
        reference_write_text(tmp_path / "b.txt", ["epoch,train_loss,val_loss"], zip(range(1, n + 1), *losses))
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

        sweep = SweepResult(*(np.roll(EDGE, shift) for shift in range(6)))
        names = [f.name for f in fields(sweep)]
        save_sweep(sweep, tmp_path / "a.txt")
        reference_write_text(tmp_path / "b.txt", [",".join(names)], zip(*(getattr(sweep, k) for k in names)))
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_stock_architecture_model_lines(self, tmp_path):
        """A line per row of each tensor of a stock model, 132k random doubles."""
        model = init_model(ArchitectureSpec(), 1)
        model.state[:] = np.random.default_rng(4).standard_normal(model.state.size)
        lines = [("t", row) for tensor in model.state_arrays() for row in np.atleast_2d(tensor)]
        self.assert_same_bytes(tmp_path, lines)

    @pytest.mark.parametrize("width", [1, 8])
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1023, 1024, 1025, 2049])
    def test_bodies_across_block_boundaries(self, tmp_path, n, width):
        """Random doubles as a 2-D array: each side of a block boundary, for blocks of 256 rows
        (and of any power of two up to 1024 rows)."""
        values = np.random.default_rng(n).integers(0, 2**64, (n, width), dtype=np.uint64).view(np.float64)
        self.assert_same_bytes(tmp_path, ["h"], values)
