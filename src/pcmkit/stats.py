"""Correlation coefficients, empirical quantiles and index-value class binning."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DegenerateDataError",
    "PartitionError",
    "ClassPartition",
    "ClassSummary",
    "batch_pearson",
    "pearson",
    "spearman",
    "quantile",
    "average_ranks",
    "make_partition",
    "assign_classes",
    "summarize_classes",
]


class DegenerateDataError(ValueError):
    """Correlation is undefined: a sequence has zero variance or a non-finite value."""


class PartitionError(ValueError):
    """The sample cannot be split into the requested quantile classes."""


def batch_pearson(x, y) -> np.ndarray:
    """Pearson coefficients of paired rows (last axis); NaN where a row has zero variance."""
    xd = x - x.mean(axis=-1, keepdims=True)
    yd = y - y.mean(axis=-1, keepdims=True)
    denom = np.sqrt((xd * xd).sum(axis=-1) * (yd * yd).sum(axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom == 0, np.nan, (xd * yd).sum(axis=-1) / denom)
    return np.clip(r, -1.0, 1.0)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation coefficient."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise ValueError("need two equally long sequences of length >= 2")
    r = batch_pearson(xa, ya)
    if np.isnan(r):
        raise DegenerateDataError("pearson input has zero variance or is not finite")
    return float(r)


def average_ranks(x) -> np.ndarray:
    """1-based ranks over the last axis, ties receiving the average of their rank range."""
    xa = np.asarray(x, dtype=float)
    n = xa.shape[-1]
    order = np.argsort(xa, axis=-1, kind="stable")
    sorted_x = np.take_along_axis(xa, order, axis=-1)
    # A tie run spans sorted positions first..last; NaN never equals itself,
    # so each NaN is a run of its own.
    starts = np.ones(xa.shape, dtype=bool)
    starts[..., 1:] = sorted_x[..., 1:] != sorted_x[..., :-1]
    ends = np.ones(xa.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    pos = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(xa.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=-1)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: Pearson coefficient of average-rank transforms."""
    return pearson(average_ranks(x), average_ranks(y))


def spearman_or_nan(x: Sequence[float], y: Sequence[float]) -> float:
    """spearman, but NaN instead of an error on degenerate input."""
    try:
        return spearman(x, y)
    except DegenerateDataError:
        return float("nan")


def quantile(sample: Sequence[float], p: float) -> float:
    """Empirical quantile by linear interpolation at h = (N-1)p + 1."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    return float(np.quantile(arr, p))


@dataclass(frozen=True)
class ClassPartition:
    """Split of [0, inf) into n_classes half-open intervals; boundaries increase strictly from 0 to +inf."""

    boundaries: tuple
    n_classes: int

    def __post_init__(self):
        b = tuple(float(v) for v in self.boundaries)
        if len(b) != self.n_classes + 1:
            raise ValueError("need n_classes + 1 boundaries")
        if b[0] != 0.0 or b[-1] != np.inf or not all(lo < hi for lo, hi in zip(b, b[1:])):
            raise ValueError(f"boundaries must increase strictly from 0 to inf: {', '.join(f'{v:g}' for v in b)}")
        object.__setattr__(self, "boundaries", b)


def make_partition(index_values: Sequence[float], n_classes: int) -> ClassPartition:
    """Classes with boundaries equally spaced from the 1/n_classes to the 1 - 1/n_classes sample quantile."""
    if n_classes < 3:
        raise ValueError("need n_classes >= 3")
    arr = np.asarray(index_values, dtype=float)
    if arr.size < n_classes:
        raise PartitionError(f"{arr.size} values cannot fill {n_classes} classes")
    interior = np.linspace(*np.quantile(arr, (1.0 / n_classes, 1.0 - 1.0 / n_classes)), n_classes - 1)
    try:
        return ClassPartition((0.0, *interior, np.inf), n_classes)
    except ValueError as exc:
        raise PartitionError(f"degenerate sample: {exc}") from None


def assign_classes(partition: ClassPartition, values: Sequence[float]) -> np.ndarray:
    """1-based index of the interval [b_i, b_{i+1}) containing each value."""
    arr = np.asarray(values, dtype=float)
    return np.searchsorted(partition.boundaries[1:-1], arr, side="right") + 1


@dataclass(frozen=True)
class ClassSummary:
    """Error-distribution characteristics of one non-empty class."""

    class_index: int
    lower: float
    upper: float
    count: int
    mean_index_value: float
    q10: float
    median: float
    q90: float
    mean_error: float


def summarize_classes(records, index: str, error: str, n_classes: int = 15) -> list:
    """Bin records by one index and summarize one error type per class.

    `records` is any mapping from field name to column (a RecordTable or a
    dict of arrays) holding the named index and error columns.  Raises
    PartitionError when the index values cannot fill every class.
    """
    idx_vals = np.asarray(records[index], dtype=float)
    err_vals = np.asarray(records[error], dtype=float)
    part = make_partition(idx_vals, n_classes)
    classes = assign_classes(part, idx_vals)
    counts = np.bincount(classes, minlength=n_classes + 1)[1:]
    if not counts.all():
        raise PartitionError(f"class(es) {(np.flatnonzero(counts == 0) + 1).tolist()} of {n_classes} are empty")
    # One stable sort by class (a radix sort of the small integer labels)
    # makes each class a slice holding its records in database order, the
    # order a per-class mask gives, so every mean and quantile is the same.
    order = np.argsort(classes.astype(np.min_scalar_type(n_classes)), kind="stable")
    idx_sorted, err_sorted = idx_vals[order], err_vals[order]
    ends = np.cumsum(counts).tolist()
    out = []
    for c, lo, hi in zip(range(1, n_classes + 1), [0, *ends], ends):
        errs = err_sorted[lo:hi]
        q10, median, q90 = np.quantile(errs, (0.1, 0.5, 0.9)).tolist()
        out.append(
            ClassSummary(
                class_index=c,
                lower=part.boundaries[c - 1],
                upper=part.boundaries[c],
                count=hi - lo,
                mean_index_value=float(idx_sorted[lo:hi].mean()),
                q10=q10,
                median=median,
                q90=q90,
                mean_error=float(errs.mean()),
            )
        )
    return out
