"""Correlation coefficients and index-value class binning with per-class quantiles."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DegenerateDataError",
    "PartitionError",
    "ClassPartition",
    "ClassSummary",
    "pearson_pairs",
    "spearman_pairs",
    "pearson",
    "spearman",
    "average_ranks",
    "make_partition",
    "assign_classes",
    "summarize_classes",
]


class DegenerateDataError(ValueError):
    """Correlation is undefined: a sequence has zero variance or a non-finite value."""


class PartitionError(ValueError):
    """The sample cannot be split into the requested quantile classes."""


def _coefficients(numerators, ss, x, y) -> np.ndarray:
    """Pair coefficients from their numerators and each row's sum of squares; NaN where a row has zero variance."""
    denom = np.sqrt(ss[..., x] * ss[..., y])
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom == 0, np.nan, numerators / denom)
    return np.clip(r, -1.0, 1.0)


def pearson_pairs(rows, x, y) -> np.ndarray:
    """Pearson coefficients of the row pairs (x[p], y[p]) of a (..., rows, L) stack, as (..., pairs).

    Each row is centred and normed once, however many pairs it is in, and a
    pair gives what the two rows give alone; NaN where a row has zero variance.
    """
    d = rows - rows.mean(axis=-1, keepdims=True)
    products = np.take(d, x, axis=-2)
    products *= np.take(d, y, axis=-2)
    return _coefficients(products.sum(axis=-1), (d * d).sum(axis=-1), x, y)


def spearman_pairs(rows, x, y) -> np.ndarray:
    """Spearman coefficients of the row pairs (x[p], y[p]) of a (..., rows, L) stack, as (..., pairs).

    Equal, bit for bit, to pearson_pairs(average_ranks(rows), x, y) for
    L <= 2**18.  Average ranks sum to L(L + 1)/2, so (L + 1)/2 is their mean
    exactly.  The centred ranks are multiples of 1/2, so every product and
    every partial sum of the one Gram product d @ d.T (sums of squares on its
    diagonal, the numerators off it) is a multiple of 1/4 no larger in size
    than L(L**2 - 1)/12, which is below 2**51 there: exact, in whatever order
    the sums are taken.
    """
    d = average_ranks(rows)
    d -= (d.shape[-1] + 1) / 2
    gram = d @ d.swapaxes(-1, -2)
    return _coefficients(gram[..., x, y], np.diagonal(gram, axis1=-2, axis2=-1), x, y)


def _one_pair(kernel, name, x, y) -> float:
    """kernel's coefficient of two sequences, raising DegenerateDataError where it is NaN."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise ValueError("need two equally long sequences of length >= 2")
    r = kernel(np.stack([xa, ya]), [0], [1])[0]
    if np.isnan(r):
        raise DegenerateDataError(f"{name} input has zero variance or is not finite")
    return float(r)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation coefficient."""
    return _one_pair(pearson_pairs, "pearson", x, y)


def average_ranks(x) -> np.ndarray:
    """1-based ranks over the last axis, ties receiving the average of their rank range.

    NaN ranks after every number, and each NaN on its own, in position order.
    All rows are sorted at once and ranked on one flat (rows * L) view: a
    tie run starts wherever a sorted value differs from the one before it
    (NaN never equals itself) or a row starts, and each run's average rank is
    scattered back through the flat sort index.  The ranks are exact
    multiples of 1/2.
    """
    xa = np.asarray(x, dtype=float)
    n = xa.shape[-1]
    if n == 0:
        return np.empty(xa.shape)
    flat = xa.reshape(math.prod(xa.shape[:-1]), n)
    size = flat.size
    index = np.argsort(flat, axis=-1)
    index += np.arange(0, size, n)[:, None]
    index = index.ravel()
    sorted_x = flat.ravel()[index]
    starts = np.empty(size + 1, dtype=bool)
    np.not_equal(sorted_x[1:], sorted_x[:-1], out=starts[1:-1])
    starts[::n] = True  # every row starts a run, and the end closes the last one
    first = np.flatnonzero(starts)
    length = np.diff(first)
    ranks = np.empty(size)
    # Sorted positions f .. f + length - 1 of a row average to rank f + (length + 1)/2.
    ranks[index] = ((first[:-1] % n * 2 + length + 1) / 2.0).repeat(length)
    ranks = ranks.reshape(flat.shape)
    # The sort is not stable: give the NaNs of each row their ranks in position order.
    nan = np.isnan(flat)
    if nan.any():
        k = nan.cumsum(axis=-1)
        ranks[nan] = (k + (n - k[:, -1:]))[nan]
    return ranks.reshape(xa.shape)


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: spearman_pairs on the stack of the two sequences (see its exactness bound)."""
    return _one_pair(spearman_pairs, "spearman", x, y)


def spearman_or_nan(x: Sequence[float], y: Sequence[float]) -> float:
    """spearman, but NaN instead of an error on degenerate input."""
    try:
        return spearman(x, y)
    except DegenerateDataError:
        return float("nan")


def _linear_quantiles(values, ordered, starts, counts, q) -> np.ndarray:
    """np.quantile(values[s:s + m], q) of each slice as one (slices, len(q)) array, bit for bit.

    `ordered` holds the same slices, each sorted (NaN last); the steps are
    numpy's "linear" method.
    """
    rank = (counts[:, None] - 1) * np.asarray(q)
    # A rank at or past the last place reads the last value twice, with weight rank + 1.
    top = rank >= counts[:, None] - 1
    prev = np.where(top, -1, np.floor(rank))
    lo = starts[:, None] + np.where(top, counts[:, None] - 1, prev).astype(np.intp)
    a, b, t = ordered[lo], ordered[np.where(top, lo, lo + 1)], rank - prev
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    last = ordered[starts + counts - 1]
    nan = np.isnan(last)
    out[nan] = last[nan][:, None]  # a slice holding NaN has that NaN as every quantile
    # A zero read between zeros takes its sign from where np.quantile's partition puts -0.0 and 0.0.
    for c in np.flatnonzero((out == 0).any(axis=1)):
        out[c] = np.quantile(values[starts[c]:starts[c] + counts[c]], q)
    return out


@dataclass(frozen=True)
class ClassPartition:
    """Split of [0, inf) into len(boundaries) - 1 half-open intervals; boundaries increase strictly from 0 to +inf."""

    boundaries: tuple

    def __post_init__(self):
        b = tuple(float(v) for v in self.boundaries)
        if len(b) < 2:
            raise ValueError(f"need at least 2 boundaries, not {len(b)}")
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
    q = np.array((1.0 / n_classes, 1.0 - 1.0 / n_classes))
    bounds = _linear_quantiles(arr, np.sort(arr), np.zeros(1, np.intp), np.array([arr.size]), q)[0]
    interior = np.linspace(*bounds, n_classes - 1)
    try:
        return ClassPartition((0.0, *interior, np.inf))
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
    idx_grouped, err_grouped = idx_vals[order], err_vals[order]
    err_ordered = err_grouped.copy()
    ends = np.cumsum(counts)
    starts = ends - counts
    means = []
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        # np.add.reduce(x) / x.size is what x.mean() computes
        means.append((np.add.reduce(idx_grouped[lo:hi]) / (hi - lo), np.add.reduce(err_grouped[lo:hi]) / (hi - lo)))
        err_ordered[lo:hi].sort()
    quantiles = _linear_quantiles(err_grouped, err_ordered, starts, counts, (0.1, 0.5, 0.9))
    return [
        ClassSummary(c, part.boundaries[c - 1], part.boundaries[c], count, float(mean_idx), q10, median, q90,
                     float(mean_err))
        for c, count, (mean_idx, mean_err), (q10, median, q90) in zip(
            range(1, n_classes + 1), counts.tolist(), means, quantiles.tolist())
    ]
