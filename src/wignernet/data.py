"""Sampling, labeling, splitting, and CSV persistence of evolution datasets.

A dataset row pairs an input, oscillator.INPUTS (x0, p0, sigma_x0, hbar), with
the closed-form evolved target, oscillator.STATE (xt, pt, sigma_xt, sigma_pt);
the CSV header and the widths of the two matrices are theirs.  x0, p0 and
sigma_x0 are drawn uniformly from their intervals; hbar is drawn log-uniformly
(10^u with u uniform over an interval of log10 values) so that small hbar
values are actually represented when the range spans several decades.  Everything is
deterministic given the seed, and targets are regenerable from inputs plus
the oscillator settings.

Values are serialized with 17 significant digits, which round-trips 64-bit
floats exactly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NoReturn

import numpy as np

from .oscillator import INPUTS, STATE, OscillatorConfig, _outside, check_domain, evolve_batch

CSV_HEADER = ",".join(INPUTS + STATE)
SPLIT_HEADER = "index,split"
_SPLIT_LABELS = ("train", "val", "test")
_MIN_ROWS = 10  # the fewest rows that split 80/10/10 with no split empty
_BLOCK_ROWS = 256  # rows per % call: the block's text and operands stay a small share of the file


class FormatError(ValueError):
    """Raised when a dataset, split or model file does not match the layout it was written in."""


def _write_text(path: str | os.PathLike, head, rows: np.ndarray = np.empty((0, 0))) -> None:
    """Write a text file, making its parent directory: the head lines, then the rows, each
    newline-terminated.

    A head line is a string, written as it is, or a (label, values) pair, written as the label and the
    values joined by spaces.  The rows come as one 2-D array, a row's values joined by commas.  Values
    are written with 17 significant digits, which round-trips 64-bit floats exactly: one `%` call per
    head line and per block of rows, the same `%.17g` conversion and bytes as f"{v:.17g}" per value.
    The head lines are joined and written at once, and each block of rows with one write.
    """
    lines = []
    for line in head:
        if not isinstance(line, str):
            label, values = line
            values = tuple(values.tolist() if isinstance(values, np.ndarray) else values)
            line = label + (" %.17g" * len(values)) % values
        lines.append(line)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([*lines, ""]))  # each line newline-terminated, nothing for no lines
        row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for block in np.split(rows, range(_BLOCK_ROWS, len(rows), _BLOCK_ROWS)):
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _read_lines(path: str | os.PathLike, limit: int | None = None) -> list[str]:
    """The lines of text file `path`, or with a limit only those of its first `limit`."""
    with open(path, "r", encoding="utf-8") as fh:
        return (fh.read() if limit is None else "".join(fh.readline() for _ in range(limit))).splitlines()


class _TextReader:
    """Reads the lines of a file written by _write_text back, in the written order.

    Head lines are `label v1 v2 ...`; floats must be finite and integers
    whole.  Every failure raises FormatError with the path and the 1-based line.
    """

    def __init__(self, path: str | os.PathLike, lines: list[str]):
        self.path, self.lines, self.pos = path, lines, 0  # pos: lines read

    def fail(self, message: str, lineno: int | None = None) -> NoReturn:
        """Raise for line `lineno`, by default the last line read."""
        raise FormatError(f"{self.path}: line {lineno or self.pos}: {message}")

    def line(self, expected: str | None = None) -> str:
        """The next line, which must equal `expected` when one is given."""
        if self.pos == len(self.lines):
            self.fail("unexpected end of file", self.pos + 1)
        self.pos += 1
        line = self.lines[self.pos - 1]
        if expected is not None and line != expected:
            self.fail(f"expected {expected!r}, got {line!r}")
        return line

    def values(self, label: str, count: int | None = None, kind=float) -> np.ndarray:
        """The values of the next line, `label v1 v2 ...`: exactly `count` of
        them when a count is given."""
        line = self.line()
        if line != label and not line.startswith(label + " "):
            self.fail(f"expected a {label!r} line, got {line[:40]!r}")
        tokens = line[len(label) :].split()
        if count is not None and len(tokens) != count:
            self.fail(f"expected {count} values after {label!r}, got {len(tokens)}")
        try:  # ints through Python, so that a seed of any size reads back exactly
            parsed = np.array([int(t) for t in tokens]) if kind is int else np.array(tokens, kind)
        except ValueError as exc:  # the message names the value
            self.fail(str(exc))
        self._finite(parsed[np.newaxis], self.pos)
        return parsed

    def value(self, label: str, kind=float):
        """The one value of the next line, `label v`."""
        return self.values(label, 1, kind).item()

    def rows(self, width: int, kind=float) -> np.ndarray:
        """The remaining lines, each converted once, in order, into its row of an (n, width)
        array of their comma-separated values: finite floats, or with kind=object their text."""
        first = self.pos + 1
        lines = self.lines[self.pos :]
        self.pos = len(self.lines)
        data = np.empty((len(lines), width), dtype=kind)
        for lineno, (row, line) in enumerate(zip(data, lines), first):
            cells = line.split(",")
            try:
                if len(cells) != width:
                    raise ValueError(f"expected {width} comma-separated values, got {len(cells)}")
                row[...] = cells
            except ValueError as exc:  # the rows before it first, so the earliest bad line is named
                self._finite(data[: lineno - first], first)
                self.fail(str(exc), lineno)
        self._finite(data, first)
        return data

    @contextmanager
    def group(self):
        """Raise a ValueError from the block as a FormatError, naming its first line."""
        first = self.pos + 1
        try:
            yield
        except FormatError:
            raise
        except ValueError as exc:
            self.fail(str(exc), first)

    def _finite(self, data: np.ndarray, first: int) -> None:
        """Fail unless float rows `data`, from line `first` on, are finite, naming the earliest."""
        if data.dtype == float and not np.isfinite(data).all():
            self.fail("non-finite value", first + int(np.argmin(np.isfinite(data).all(axis=1))))


@dataclass
class SamplingRanges:
    """Closed sampling intervals for each input column; hbar is given in log10."""

    x0: tuple[float, float] = (-5.0, 5.0)
    p0: tuple[float, float] = (-5.0, 5.0)
    sigma_x0: tuple[float, float] = (0.5, 2.0)
    hbar_log10: tuple[float, float] = (-6.0, 0.0)

    def __post_init__(self):
        for key, (lo, hi) in vars(self).items():
            check_domain((f"{key} min", key, lo), (f"{key} max", key, hi))
            if not lo <= hi:
                raise ValueError(f"{key} must satisfy min <= max, got ({lo}, {hi})")

    @property
    def hbar(self) -> tuple[float, float]:
        """hbar's interval: numpy's power of 10 at hbar_log10's ends, as sample_inputs draws."""
        return tuple(np.power(10.0, self.hbar_log10).tolist())


@dataclass
class Dataset:
    """Input/target matrices plus the metadata needed to regenerate them."""

    inputs: np.ndarray
    targets: np.ndarray
    config: OscillatorConfig
    seed: int
    ranges: SamplingRanges
    clamped: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"inputs and targets disagree on row count: "
                f"{self.inputs.shape[0]} vs {self.targets.shape[0]}"
            )

    @property
    def n_rows(self) -> int:
        return self.inputs.shape[0]


@dataclass
class SplitIndices:
    """Disjoint train/validation/test row indices covering the whole dataset."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def sample_inputs(ranges: SamplingRanges, n: int, seed: int) -> np.ndarray:
    """Draw n input rows; uniform columns except hbar, which is log-uniform."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(*ranges.x0, size=n)
    p0 = rng.uniform(*ranges.p0, size=n)
    sigma_x0 = rng.uniform(*ranges.sigma_x0, size=n)
    hbar = np.power(10.0, rng.uniform(*ranges.hbar_log10, size=n))
    return np.column_stack([x0, p0, sigma_x0, hbar])


def build_dataset(
    cfg: OscillatorConfig, inputs: np.ndarray, *, ranges: SamplingRanges, seed: int
) -> Dataset:
    """Label every input row with its closed-form evolution; `ranges` and `seed` are what
    drew the rows (sample_inputs), which the dataset file records."""
    targets, clamped = evolve_batch(cfg, inputs)
    inputs = np.asarray(inputs, dtype=np.float64)
    return Dataset(inputs, targets, config=cfg, seed=seed, ranges=ranges, clamped=clamped)


def split_indices(n: int, seed: int) -> SplitIndices:
    """Partition 0..n-1 into 80/10/10 train/validation/test via a seeded shuffle.

    Sizes are floor(0.8 n) / floor(0.1 n) / remainder.  The returned index
    arrays are sorted; membership, not order, is the contract.
    """
    if n < _MIN_ROWS:
        raise ValueError(f"need at least {_MIN_ROWS} rows to split 80/10/10, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train, n_val = int(0.8 * n), int(0.1 * n)
    return SplitIndices(*(np.sort(p) for p in np.split(perm, [n_train, n_train + n_val])))


def save_dataset(ds: Dataset, path: str | os.PathLike) -> None:
    """Write the dataset CSV: a `#`-prefixed metadata block, header, then rows.  An input
    cell outside ds.ranges, which load_dataset would reject, raises ValueError naming its row."""
    outside = _first_outside(ds.inputs, ds.ranges)
    if outside:
        raise ValueError("row {}: {}".format(*outside))
    head = [
        *((f"# {key}", [value]) for key, value in vars(ds.config).items()),
        f"# seed {ds.seed}",
        *((f"# {key}_range", value) for key, value in vars(ds.ranges).items()),
        CSV_HEADER,
    ]
    _write_text(path, head, np.hstack([ds.inputs, ds.targets]))


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Parse a dataset CSV written by save_dataset.

    Malformed content, including an input cell outside the file's own `# *_range`
    lines (hbar's is SamplingRanges.hbar; the ranges lie in oscillator.DOMAIN, which
    holds only rows the oracle accepts), is reported with its 1-based line number.
    """
    reader, cfg, seed, ranges = _read_header(path)
    first = reader.pos + 1
    inputs, targets = np.hsplit(reader.rows(len(INPUTS + STATE)), [len(INPUTS)])
    outside = _first_outside(inputs, ranges)
    if outside:
        reader.fail(outside[1], first + outside[0])
    return Dataset(inputs=inputs, targets=targets, config=cfg, seed=seed, ranges=ranges)


def _first_outside(inputs: np.ndarray, ranges: SamplingRanges) -> tuple[int, str] | None:
    """(row, message) of the earliest input cell outside `ranges`, hbar's being ranges.hbar."""
    lo, hi = np.array([getattr(ranges, name) for name in INPUTS]).T
    for row, col in np.argwhere(~((lo <= inputs) & (inputs <= hi)))[:1]:  # row-major: earliest
        return int(row), _outside(INPUTS[col], inputs[row, col], lo[col], hi[col])
    return None


def _read_header(path: str | os.PathLike, head_only: bool = False):
    """(reader at the first data row, oscillator, seed, ranges) of dataset `path` from its `#`
    lines, the one source of its rows' physics and bounds; head_only reads them and one row."""
    osc_keys, range_keys = ([f.name for f in fields(c)] for c in (OscillatorConfig, SamplingRanges))
    head_lines = len(osc_keys) + 1 + len(range_keys) + 1  # + seed and CSV_HEADER
    lines = _read_lines(path, head_lines + 1 if head_only else None)
    reader = _TextReader(path, lines)
    if len(reader.lines) <= head_lines:
        reader.fail("no data rows", len(reader.lines) + 1)
    osc, ranges = {}, {}
    for k in osc_keys:
        with reader.group():  # each line is checked as read, the fields after it at their defaults
            osc[k] = reader.value(f"# {k}")
            cfg = OscillatorConfig(**osc)
    seed = reader.value("# seed", int)
    for k in range_keys:
        with reader.group():
            ranges[k] = tuple(reader.values(f"# {k}_range", 2).tolist())
            sampled = SamplingRanges(**ranges)
    reader.line(CSV_HEADER)
    return reader, cfg, seed, sampled


def save_splits(splits: SplitIndices, path: str | os.PathLike) -> None:
    """Write the split CSV (`index,split`), one row per dataset row, by index.  Splits
    that do not hold each of 0..n-1 once, n being their total size, which load_splits
    would not read back as they are, raise ValueError naming the first index at fault."""
    parts = [np.asarray(p, dtype=np.int64) for p in (splits.train, splits.validation, splits.test)]
    every = np.concatenate(parts)
    n = every.size
    counts = np.bincount(every[(every >= 0) & (every < n)], minlength=n)  # those outside 0..n-1 left out
    if np.any(counts != 1):
        k = int(np.argmax(counts != 1))
        where = "in no split" if counts[k] == 0 else "listed more than once"
        raise ValueError(f"splits must hold each of 0..{n - 1} once; {k} is {where}")
    labels = np.empty(n, dtype=object)
    for name, idx in zip(_SPLIT_LABELS, parts):
        labels[idx] = name
    _write_text(path, [SPLIT_HEADER, *(f"{i},{label}" for i, label in enumerate(labels.tolist()))])


def load_splits(path: str | os.PathLike) -> SplitIndices:
    """Parse a split CSV written by save_splits.

    Rows must list the indices 0, 1, 2, ... in order, one each, so that no
    row can sit in two splits; any other index is reported with its line.
    """
    reader = _TextReader(path, _read_lines(path))
    reader.line(SPLIT_HEADER)
    index, label = reader.rows(2, object).T  # the cells' text
    members = [label == name for name in _SPLIT_LABELS]
    bad = (index != np.arange(index.size).astype(str)) | ~np.any(members, axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        got = reader.lines[k + 1]
        reader.fail(f"expected index {k} and a split in {_SPLIT_LABELS}, got {got!r}", k + 2)
    return SplitIndices(*(np.flatnonzero(m) for m in members))
