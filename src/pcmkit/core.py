"""Core pairwise-comparison matrix (PCM) types, predicates and scale rounding."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PriorityVector",
    "Pcm",
    "SAATY_SCALE",
    "PcmFormatError",
    "is_reciprocal",
    "is_consistent",
    "round_matrix_to_scale",
    "round_pcm",
    "read_pcm",
    "write_pcm",
]


class PcmFormatError(ValueError):
    """Raised when a PCM file cannot be parsed or violates basic shape rules."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PriorityVector:
    """Normalized positive weight vector over n >= 3 alternatives."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.ndim != 1 or w.size < 3:
            raise ValueError("priority vector needs at least 3 components")
        if not (np.isfinite(w) & (w > 0)).all():
            raise ValueError("priority weights must be finite and strictly positive")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"priority weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def normalized(cls, values) -> "PriorityVector":
        """Build from any positive vector by dividing through its sum, which must be finite too."""
        v = np.asarray(values, dtype=float)
        with np.errstate(over="ignore"):
            total = v.sum()
        if not (np.all(np.isfinite(v)) and np.all(v > 0) and np.isfinite(total)):
            raise ValueError("priority weights must be finite and strictly positive")
        return cls(v / total)

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class Pcm:
    """Square positive reciprocal matrix of judged priority ratios with unit diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("PCM must be a square matrix")
        if a.shape[0] < 3:
            raise ValueError("PCM order must be at least 3")
        if not (np.isfinite(a) & (a > 0)).all():
            raise ValueError("PCM entries must be finite and strictly positive")
        if abs(a.diagonal() - 1.0).max() > 1e-12:
            raise ValueError("PCM diagonal entries must equal 1")
        dev = _reciprocity_deviation(a)
        if dev.max() > RECIPROCITY_TOL:
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            raise ValueError(f"PCM is not reciprocal: a[{i + 1},{j + 1}]={a[i, j]:.6g} "
                             f"vs a[{j + 1},{i + 1}]={a[j, i]:.6g}")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _as_matrix(pcm) -> np.ndarray:
    if isinstance(pcm, Pcm):
        return pcm.entries
    return np.asarray(pcm, dtype=float)


# The 17-value judgment scale {1/9, ..., 1/2, 1, 2, ..., 9}, increasing.
SAATY_SCALE = _frozen_array([1.0 / k for k in range(9, 1, -1)] + [float(k) for k in range(1, 10)])


RECIPROCITY_TOL = 1e-9  # the largest |a_ij * a_ji - 1| a Pcm may have


def _reciprocity_deviation(a: np.ndarray) -> np.ndarray:
    """|a_ij * a_ji - 1| for every entry; a product past the float range reads inf."""
    with np.errstate(over="ignore"):
        return np.abs(a * a.T - 1.0)


def is_reciprocal(pcm, tol: float = RECIPROCITY_TOL) -> bool:
    """True iff a_ij * a_ji == 1 within tol for all entries; every Pcm is, at the default tol."""
    return bool(np.max(_reciprocity_deviation(_as_matrix(pcm))) <= tol)


def is_consistent(pcm, tol: float = 1e-9) -> bool:
    """True iff a_ij * a_jk == a_ik within tol for all index triples.

    The full triple sweep subsumes reciprocity (take k == i), so a
    non-reciprocal matrix can never pass.
    """
    a = _as_matrix(pcm)
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range reads inf
        # products[i, k, j] = a_ij * a_jk
        products = a[:, None, :] * a.T[None, :, :]
        return bool(np.max(np.abs(products - a[:, :, None])) <= tol)


def _switch_point(lo: float, hi: float) -> float:
    """The smallest float x with |hi - x| <= |x - lo|, found by ulp steps from the midpoint."""
    x = (lo + hi) / 2
    while abs(hi - x) <= abs(x - lo):
        x = np.nextafter(x, lo)
    while abs(hi - x) > abs(x - lo):
        x = np.nextafter(x, hi)
    return x


# A positive float's bucket, its bit pattern >> _SHIFT (exponent and top mantissa
# bits), increases with it; _BASE[bucket] counts the switch points in lower buckets.
_SHIFT = 49
_SWITCH = np.array([_switch_point(lo, hi) for lo, hi in zip(SAATY_SCALE[:-1], SAATY_SCALE[1:])] + [np.nan])
assert np.all(np.diff(_SWITCH[:-1].view(np.int64) >> _SHIFT) > 0)  # at most one switch point per bucket
_BASE = np.searchsorted(_SWITCH[:-1].view(np.int64) >> _SHIFT, np.arange((np.float64(np.inf).view(np.int64) >> _SHIFT) + 1))


def round_matrix_to_scale(values: np.ndarray) -> np.ndarray:
    """Nearest SAATY_SCALE value to each of an array of positive values, ties broken upward.

    x rounds to scale value k, the number of switch points at or below x.
    The switch point between neighbours lo < hi is the smallest float x with
    |hi - x| <= |x - lo|; at two pairs it lies 1 ulp above the float (lo + hi) / 2.
    """
    arr = np.asarray(values, dtype=float)
    if not np.all(arr > 0):
        raise ValueError("can only round positive values")
    k = np.take(_BASE, arr.view(np.int64) >> _SHIFT)
    k += arr >= np.take(_SWITCH, k)  # the NaN after the last switch point keeps 16 at 16
    return np.take(SAATY_SCALE, k)


_VECTOR_SUMS = 256  # the fewest sums _sum_in_order makes by vector adds


def _sum_in_order(x: np.ndarray, axis: int = -1):
    """Sums of x's entries along axis, added left to right, so a record's sum does not depend on its stack.

    From _VECTOR_SUMS sums on, one vector add per term across all of them;
    below, one np.cumsum call read at its last entry: the same order and bits
    at different costs.  256 lies just above the ~190 sums of 21-56 terms at
    which the two cost the same (2-core Xeon, numpy 2.4.6); fewer terms favour
    vector adds sooner, and one sum of 35 takes 3 us by np.cumsum, 39 by vector
    adds.  (np.sum's order follows the memory layout, which fancy indexing of
    a stack changes.)  A 1-D x gives a numpy float.
    """
    at = (slice(None),) * (axis % x.ndim)
    if x.size < _VECTOR_SUMS * x.shape[axis]:
        return np.cumsum(x, axis=axis)[at + (-1,)]
    total = x[at + (0,)].copy()
    for k in range(1, x.shape[axis]):
        total += x[at + (k,)]
    return total


@functools.cache
def _upper_indices(n: int) -> tuple:
    """Read-only index arrays iu, ju of the pairs i < j, np.triu_indices(n, k=1)."""
    iuju = np.triu_indices(n, k=1)
    for arr in iuju:
        arr.setflags(write=False)
    return iuju


def _from_upper(upper: np.ndarray, n: int) -> np.ndarray:
    """Reciprocal n-by-n matrices over upper's leading axes: unit diagonal, upper
    triangle from upper's last axis in np.triu_indices order, reciprocals below."""
    iu, ju = _upper_indices(n)
    a = np.ones(upper.shape[:-1] + (n, n))
    a[..., iu, ju] = upper
    a[..., ju, iu] = 1.0 / upper
    return a


def round_pcm(pcm) -> Pcm:
    """Round the upper triangle to the scale and reciprocate the lower one."""
    a = _as_matrix(pcm)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("PCM must be a square matrix")
    iu, ju = _upper_indices(n)
    return Pcm(_from_upper(round_matrix_to_scale(a[iu, ju]), n))


def _parse_token(token: str) -> float:
    token = token.strip()
    if "/" in token:
        p, _, q = token.partition("/")
        try:
            # Integer true division rounds p/q correctly however large p and q are; "or 0.0" reads 0/-k as +0.0.
            return int(p) / int(q) or 0.0
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise PcmFormatError(f"bad fraction token {token!r}") from exc
    try:
        return float(token)
    except ValueError as exc:
        raise PcmFormatError(f"bad numeric token {token!r}") from exc


# The float of each of the 17 scale tokens, as _parse_token reads it; read_pcm looks these up.
_SCALE_TOKENS = {t: _parse_token(t) for t in [f"1/{k}" for k in range(2, 10)] + [str(k) for k in range(1, 10)]}
_SCALE_STRINGS = {x: t for t, x in _SCALE_TOKENS.items()}  # and write_pcm looks up the inverse


def _format_entry(x: float) -> str:
    """The token read_pcm reads back as x exactly: a scale token or an integer where x is one, else repr."""
    x = float(x)
    return _SCALE_STRINGS.get(x) or (str(int(x)) if x.is_integer() else repr(x))


def _read_text(path, error=ValueError) -> str:
    """The file's text; a file that is not UTF-8 raises `error` naming it and its first bad byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {data[exc.start]:#04x} at position {exc.start})") from None


def read_pcm(path) -> Pcm:
    """Read a PCM from CSV text; tokens are decimals or exact fractions p/q.

    A bad token is named with its row (counting non-blank lines) and column, from 1.
    """
    rows = []
    for line in _read_text(path, PcmFormatError).splitlines():
        if not line.strip():
            continue
        tokens = line.split(",")
        row = list(map(_SCALE_TOKENS.get, tokens))
        if None in row:
            for c, tok in enumerate(tokens):
                try:
                    row[c] = _parse_token(tok)
                except PcmFormatError as exc:
                    raise PcmFormatError(f"{path}: row {len(rows) + 1}, column {c + 1}: {exc}") from None
        rows.append(row)
    if not rows:
        raise PcmFormatError(f"{path}: empty PCM file")
    n = len(rows)
    for k, row in enumerate(rows, 1):
        if len(row) != n:
            raise PcmFormatError(f"{path}: row {k} has {len(row)} entries, not {n}")
    try:
        return Pcm(np.array(rows))
    except ValueError as exc:
        raise PcmFormatError(f"{path}: {exc}") from exc


def write_pcm(pcm, path) -> None:
    """Write a PCM as CSV text that read_pcm reads back bit for bit."""
    a = _as_matrix(pcm)
    lines = [",".join(_format_entry(x) for x in row) for row in a]
    Path(path).write_text("\n".join(lines) + "\n")
