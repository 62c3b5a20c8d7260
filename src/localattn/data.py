"""Series synthesis, CSV ingestion, standardization, windowing, metrics.

The pipeline is: raw series (synthetic or CSV) -> chronological split ->
per-feature standardization fit on the training region only -> sliding
(input, target) windows that never cross a split boundary. Metrics (the
MSE is the tape's loss, :func:`localattn.tensor.mse`) are computed in
standardized space, comparable across features and datasets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import DimensionError, Tensor

__all__ = [
    "RawSeries",
    "Scaler",
    "WindowedDataset",
    "synth_series",
    "load_csv",
    "slice_windows",
    "standardize_split_window",
    "mae",
    "mean_errors",
    "repeat_last_baseline",
    "baseline_metrics",
    "write_manifest",
]

SINE_PERIODS = (23, 37, 53)
SINE_AMPLITUDES = (1.0, 0.6, 0.4)


@dataclass(frozen=True)
class RawSeries:
    """A numeric series: length x d values plus provenance notes."""

    values: np.ndarray
    feature_names: tuple[str, ...]
    dropped_rows: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DimensionError(f"series must be 2-D, got shape {self.values.shape}")
        if len(self.feature_names) != self.values.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} names for {self.values.shape[1]} columns"
            )

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def synth_series(
    kind: str, length: int, d: int = 1, seed: int = 0, noise: float = 0.1
) -> RawSeries:
    """Deterministic synthetic series of a chosen character.

    kinds:
      sines        - per feature, three sinusoids with pairwise coprime
                     integer periods (23, 37, 53) and seeded phases, plus
                     Gaussian noise; the joint period (45103) far exceeds
                     typical sample counts, so no two windows repeat.
      trend_season - sines plus a linear drift.
      ar_noise     - order-1 autoregression x[t] = 0.8 x[t-1] + noise.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)[:, np.newaxis]
    if kind in ("sines", "trend_season"):
        values = np.zeros((length, d))
        for period, amp in zip(SINE_PERIODS, SINE_AMPLITUDES):
            phases = rng.uniform(0.0, 2.0 * math.pi, size=d)[np.newaxis, :]
            values += amp * np.sin(2.0 * math.pi * t / period + phases)
        if kind == "trend_season":
            slopes = rng.uniform(0.5, 1.5, size=d)[np.newaxis, :]
            values += 3.0 * slopes * t / max(length, 1)
        values += noise * rng.standard_normal((length, d))
    elif kind == "ar_noise":
        shocks = noise * rng.standard_normal((length, d))
        values = np.empty((length, d))
        values[0] = shocks[0]
        for step in range(1, length):
            values[step] = 0.8 * values[step - 1] + shocks[step]
    else:
        raise ValueError(
            f"unknown kind {kind!r}; expected sines, trend_season or ar_noise"
        )
    names = tuple(f"f{i}" for i in range(d))
    return RawSeries(values=values, feature_names=names)


def load_csv(path: str) -> RawSeries:
    """Read a one-header CSV of numeric columns into a series.

    A leading timestamp column is detected (none of its data cells parses
    as a float) and excluded from the features. Rows containing any
    non-finite or unparseable feature cell are dropped and reported in
    ``dropped_rows`` with their 1-based file line numbers. Rows whose
    cell count disagrees with the header (a blank line included) are an
    error, checked before the timestamp detection, as is a file with no
    numeric columns or no surviving rows. Every error is a
    ``ValueError`` naming the file, including an unreadable path (a
    directory too), undecodable text and a malformed CSV field. The text
    is UTF-8; a leading byte-order mark is dropped, not read into the
    first header cell.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path} is not readable CSV text: {exc}") from exc
    if not rows or not rows[0]:
        raise ValueError(f"{path}: empty file or blank header line")
    header, data = rows[0], rows[1:]
    if not data:
        raise ValueError(f"{path}: no data rows")

    def is_float(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    for line, row in enumerate(data, start=2):  # 1-based, after the header line
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {line} has {len(row)} cells, header has {len(header)}"
            )
    first_col_is_time = not any(is_float(row[0]) for row in data)
    start = 1 if first_col_is_time else 0
    names = tuple(name.strip() for name in header[start:])
    if not names:
        raise ValueError(f"{path}: no numeric columns after the timestamp")

    kept: list[list[float]] = []
    dropped: list[tuple[int, str]] = []
    for line, row in enumerate(data, start=2):
        parsed = []
        bad = None
        for name, cell in zip(names, row[start:]):
            try:
                value = float(cell)
            except ValueError:
                bad = f"column {name}: unparseable {cell!r}"
                break
            if not math.isfinite(value):
                bad = f"column {name}: non-finite {cell!r}"
                break
            parsed.append(value)
        if bad is None:
            kept.append(parsed)
        else:
            dropped.append((line, bad))
    if not kept:
        raise ValueError(f"{path}: every data row was dropped")
    return RawSeries(
        values=np.asarray(kept, dtype=np.float64),
        feature_names=names,
        dropped_rows=tuple(dropped),
    )


@dataclass(frozen=True)
class Scaler:
    """Per-feature affine map to zero mean, unit deviation."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "Scaler":
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
            mean = values.mean(axis=0)
            std = values.std(axis=0)
        for index, (mu, s) in enumerate(zip(mean, std)):
            if not (math.isfinite(mu) and math.isfinite(s)):
                raise ValueError(
                    f"feature {index} has mean {mu} and deviation {s} in the fit region, "
                    "not both finite; rescale it before windowing"
                )
            if s == 0.0:
                raise ValueError(
                    f"feature {index} has zero variance in the fit region; "
                    "drop it before windowing"
                )
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


@dataclass(frozen=True)
class WindowedDataset:
    """Standardized (input, target) windows per chronological split.

    Each window is a (Tensor n x d, Tensor m x d) pair. ``split_bounds``
    are the half-open row ranges (train, val, test) in the original
    series; windows never cross them.
    """

    train: tuple
    val: tuple
    test: tuple
    scaler: Scaler
    n: int
    m: int
    stride: int
    split_bounds: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    feature_names: tuple[str, ...]


def slice_windows(
    values: np.ndarray, lo: int, hi: int, n: int, m: int, stride: int
) -> tuple:
    """(input, target) windows fully inside rows [lo, hi) at the stride.

    Yields floor((hi - lo - n - m) / stride) + 1 windows when the region
    is long enough, otherwise none.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    out = []
    start = lo
    while start + n + m <= hi:
        x = Tensor._wrap(values[start : start + n])
        y = Tensor._wrap(values[start + n : start + n + m])
        out.append((x, y))
        start += stride
    return tuple(out)


def standardize_split_window(
    raw: RawSeries,
    n: int,
    m: int,
    stride: int = 1,
    val_fraction: float = 0.15,
) -> WindowedDataset:
    """Chronological split, train-only standardization, window extraction.

    The first 70% of the rows form the training region, the rest the
    test region; ``val_fraction`` of the training region (its
    chronological tail) is set aside for validation. The scaler is fit
    on the remaining training rows only and applied everywhere. Training
    windows use ``stride``; validation and test windows step by m, so
    their forecasts do not overlap.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if raw.length < n + m:
        raise ValueError(
            f"series length {raw.length} < n + m = {n + m}; nothing to window"
        )
    if not 0 <= val_fraction < 1:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")

    total = raw.length
    train_len = int(math.floor(0.7 * total))
    val_len = int(math.floor(val_fraction * train_len))
    core_len = train_len - val_len
    if core_len < n + m:
        raise ValueError(
            f"training region has {core_len} rows, needs at least {n + m}"
        )
    bounds = ((0, core_len), (core_len, train_len), (train_len, total))
    scaler = Scaler.fit(raw.values[0:core_len])
    values = scaler.transform(raw.values)
    return WindowedDataset(
        train=slice_windows(values, *bounds[0], n, m, stride),
        val=slice_windows(values, *bounds[1], n, m, m),
        test=slice_windows(values, *bounds[2], n, m, m),
        scaler=scaler,
        n=n,
        m=m,
        stride=stride,
        split_bounds=bounds,
        feature_names=raw.feature_names,
    )


def mae(pred: Tensor, target: Tensor) -> float:
    """Mean absolute error over all entries."""
    if pred.shape != target.shape:
        raise DimensionError(f"shapes disagree: {pred.shape} vs {target.shape}")
    return float(np.mean(np.abs(pred.data - target.data)))


def mean_errors(pairs) -> tuple[float, float]:
    """Mean MSE / MAE over (prediction, target) pairs; NaN for no pairs."""
    se = ae = 0.0
    count = 0
    for pred, target in pairs:
        se += tensor.mse(pred, target).item()
        ae += mae(pred, target)
        count += 1
    if not count:
        return float("nan"), float("nan")
    return se / count, ae / count


def repeat_last_baseline(x: Tensor, m: int) -> Tensor:
    """Forecast that repeats the last observed row m times."""
    if x.ndim != 2:
        raise DimensionError(f"need rank 2, got shape {x.shape}")
    return Tensor._wrap(np.tile(x.data[-1], (m, 1)))


def baseline_metrics(windows) -> tuple[float, float]:
    """Mean MSE / MAE of the repeat-last baseline over windows."""
    return mean_errors((repeat_last_baseline(x, y.shape[0]), y) for x, y in windows)


def write_manifest(path: str, dataset: WindowedDataset) -> None:
    """Plain-text key=value summary of how the dataset was built."""
    join = ",".join
    lines = [
        f"n={dataset.n}",
        f"m={dataset.m}",
        f"stride={dataset.stride}",
        f"eval_stride={dataset.m}",  # kept so the file format does not change
        f"split_bounds={dataset.split_bounds}",
        f"features={join(dataset.feature_names)}",
        f"scaler_mean={join(f'{float(v)!r}' for v in dataset.scaler.mean)}",
        f"scaler_std={join(f'{float(v)!r}' for v in dataset.scaler.std)}",
        f"windows_train={len(dataset.train)}",
        f"windows_val={len(dataset.val)}",
        f"windows_test={len(dataset.test)}",
    ]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
