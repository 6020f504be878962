"""Sampling, labeling, splitting, and CSV persistence of evolution datasets.

A dataset row pairs an input (x0, p0, sigma_x0, hbar) with the closed-form
evolved target (xt, pt, sigma_xt, sigma_pt).  x0, p0, sigma_x0 are drawn
uniformly from their intervals; hbar is drawn log-uniformly (10^u with u
uniform over an interval of log10 values) so that small hbar values are
actually represented when the range spans several decades.  Everything is
deterministic given the seed, and targets are regenerable from inputs plus
the oscillator settings.

Values are serialized with 17 significant digits, which round-trips 64-bit
floats exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .oscillator import OscillatorConfig, evolve_batch

CSV_HEADER = "x0,p0,sigma_x0,hbar,xt,pt,sigma_xt,sigma_pt"
SPLIT_HEADER = "index,split"


class DatasetFormatError(ValueError):
    """Raised when a dataset or split file does not match the expected layout."""


class EmptyDatasetError(DatasetFormatError):
    """Raised when a dataset file contains no data rows."""


def _write_text(path: str | os.PathLike, head, rows=()) -> None:
    """Write a text file: the head lines, then the rows, each newline-terminated.

    A head line is a string, written as it is, or a (label, values) pair,
    written as the label and the values joined by spaces.  A row is a sequence
    of values joined by commas.  Values are written with 17 significant
    digits, which round-trips 64-bit floats exactly.
    """

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


@dataclass
class SamplingRanges:
    """Closed sampling intervals for each input column; hbar is given in log10."""

    x0_range: tuple[float, float] = (-5.0, 5.0)
    p0_range: tuple[float, float] = (-5.0, 5.0)
    sigma_x0_range: tuple[float, float] = (0.5, 2.0)
    hbar_log10_range: tuple[float, float] = (-6.0, 0.0)

    def __post_init__(self):
        for name in ("x0_range", "p0_range", "sigma_x0_range", "hbar_log10_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} must satisfy min <= max, got ({lo}, {hi})")
        if not self.sigma_x0_range[0] > 0:
            raise ValueError(f"sigma_x0_range must be positive, got {self.sigma_x0_range}")


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
    x0 = rng.uniform(*ranges.x0_range, size=n)
    p0 = rng.uniform(*ranges.p0_range, size=n)
    sigma_x0 = rng.uniform(*ranges.sigma_x0_range, size=n)
    hbar = 10.0 ** rng.uniform(*ranges.hbar_log10_range, size=n)
    return np.column_stack([x0, p0, sigma_x0, hbar])


def build_dataset(
    cfg: OscillatorConfig,
    inputs: np.ndarray,
    *,
    ranges: SamplingRanges | None = None,
    seed: int = 0,
) -> Dataset:
    """Label every input row with its closed-form evolution."""
    targets, clamped = evolve_batch(cfg, inputs)
    return Dataset(
        inputs=np.asarray(inputs, dtype=np.float64),
        targets=targets,
        config=cfg,
        seed=seed,
        ranges=ranges if ranges is not None else SamplingRanges(),
        clamped=clamped,
    )


def split_indices(n: int, seed: int) -> SplitIndices:
    """Partition 0..n-1 into 80/10/10 train/validation/test via a seeded shuffle.

    Sizes are floor(0.8 n) / floor(0.1 n) / remainder.  The returned index
    arrays are sorted; membership, not order, is the contract.
    """
    if n < 10:
        raise ValueError(f"need at least 10 rows to split 80/10/10, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    return SplitIndices(
        train=np.sort(perm[:n_train]),
        validation=np.sort(perm[n_train : n_train + n_val]),
        test=np.sort(perm[n_train + n_val :]),
    )


def save_dataset(ds: Dataset, path: str | os.PathLike) -> None:
    """Write the dataset CSV: a `#`-prefixed metadata block, header, then rows."""
    head = [
        ("# m", [ds.config.m]),
        ("# omega", [ds.config.omega]),
        ("# t", [ds.config.t]),
        f"# seed {ds.seed}",
        ("# x0_range", ds.ranges.x0_range),
        ("# p0_range", ds.ranges.p0_range),
        ("# sigma_x0_range", ds.ranges.sigma_x0_range),
        ("# hbar_log10_range", ds.ranges.hbar_log10_range),
        CSV_HEADER,
    ]
    _write_text(path, head, np.hstack([ds.inputs, ds.targets]))


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Parse a dataset CSV written by save_dataset.

    Malformed content is reported with its 1-based line number; a file with
    no data rows raises EmptyDatasetError.  The clamp flags are recomputed
    from the stored inputs (the oracle is pure, so this is exact).
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    meta: dict[str, list[float]] = {}
    header_line = None
    data_start = None
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) < 2:
                raise DatasetFormatError(f"line {lineno}: malformed metadata line {line!r}")
            try:
                meta[parts[0]] = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise DatasetFormatError(f"line {lineno}: non-numeric metadata in {line!r}") from exc
            continue
        header_line = (lineno, line)
        data_start = lineno + 1
        break

    if header_line is None:
        raise EmptyDatasetError(f"{path}: empty dataset (no header found)")
    if header_line[1].strip() != CSV_HEADER:
        raise DatasetFormatError(
            f"line {header_line[0]}: expected header {CSV_HEADER!r}, got {header_line[1]!r}"
        )
    required = ("m", "omega", "t", "seed", "x0_range", "p0_range", "sigma_x0_range", "hbar_log10_range")
    missing = [key for key in required if key not in meta]
    if missing:
        raise DatasetFormatError(f"{path}: metadata block is missing {', '.join(missing)}")

    rows, linenos = [], []
    for lineno, line in enumerate(raw_lines[data_start - 1 :], start=data_start):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 8:
            raise DatasetFormatError(f"line {lineno}: expected 8 columns, found {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: non-numeric value in {line!r}") from exc
        linenos.append(lineno)

    if not rows:
        raise EmptyDatasetError(f"{path}: empty dataset (no data rows)")

    data = np.array(rows, dtype=np.float64)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise DatasetFormatError(f"line {lineno}: non-finite value in {raw_lines[lineno - 1]!r}")
    cfg = OscillatorConfig(m=meta["m"][0], omega=meta["omega"][0], t=meta["t"][0])
    ranges = SamplingRanges(
        x0_range=tuple(meta["x0_range"]),
        p0_range=tuple(meta["p0_range"]),
        sigma_x0_range=tuple(meta["sigma_x0_range"]),
        hbar_log10_range=tuple(meta["hbar_log10_range"]),
    )
    inputs = data[:, :4]
    _, clamped = evolve_batch(cfg, inputs)
    return Dataset(
        inputs=inputs,
        targets=data[:, 4:],
        config=cfg,
        seed=int(meta["seed"][0]),
        ranges=ranges,
        clamped=clamped,
    )


def save_splits(splits: SplitIndices, path: str | os.PathLike) -> None:
    """Write the split CSV (`index,split`), one row per dataset row, by index."""
    labels = {}
    for name, idx in (("train", splits.train), ("val", splits.validation), ("test", splits.test)):
        for i in idx:
            labels[int(i)] = name
    _write_text(path, [SPLIT_HEADER, *(f"{i},{labels[i]}" for i in sorted(labels))])


def load_splits(path: str | os.PathLike) -> SplitIndices:
    """Parse a split CSV written by save_splits.

    Rows must list the indices 0, 1, 2, ... in order, one each, so that no
    row can sit in two splits; any other index is reported with its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    if not raw_lines or raw_lines[0].strip() != SPLIT_HEADER:
        raise DatasetFormatError(f"{path}: expected header {SPLIT_HEADER!r}")
    buckets: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    expected = 0
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 2 or cells[1] not in buckets:
            raise DatasetFormatError(f"line {lineno}: malformed split row {line!r}")
        try:
            index = int(cells[0])
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: non-integer index in {line!r}") from exc
        if index != expected:
            raise DatasetFormatError(f"line {lineno}: expected index {expected}, got {index}")
        buckets[cells[1]].append(index)
        expected += 1
    return SplitIndices(
        train=np.array(buckets["train"], dtype=np.int64),
        validation=np.array(buckets["val"], dtype=np.int64),
        test=np.array(buckets["test"], dtype=np.int64),
    )
