"""Core pairwise-comparison matrix (PCM) types, predicates and scale rounding."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PriorityVector",
    "Pcm",
    "SaatyScale",
    "SAATY_SCALE",
    "PcmFormatError",
    "is_reciprocal",
    "is_consistent",
    "mpr_from_pv",
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
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("priority weights must be finite and strictly positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"priority weights must sum to 1, got {w.sum()!r}")
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

    def __len__(self) -> int:
        return self.weights.size

    def __iter__(self):
        return iter(self.weights)


@dataclass(frozen=True)
class Pcm:
    """Square positive matrix of judged priority ratios with unit diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("PCM must be a square matrix")
        if a.shape[0] < 3:
            raise ValueError("PCM order must be at least 3")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ValueError("PCM entries must be finite and strictly positive")
        if np.max(np.abs(np.diag(a) - 1.0)) > 1e-12:
            raise ValueError("PCM diagonal entries must equal 1")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _as_matrix(pcm) -> np.ndarray:
    if isinstance(pcm, Pcm):
        return pcm.entries
    return np.asarray(pcm, dtype=float)


_SAATY_DEFAULT = tuple(1.0 / k for k in range(9, 1, -1)) + tuple(
    float(k) for k in range(1, 10)
)


@dataclass(frozen=True)
class SaatyScale:
    """The 17-value judgment scale {1/9, ..., 1/2, 1, 2, ..., 9}."""

    values: tuple = _SAATY_DEFAULT

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("scale values must be strictly increasing")
        for v in vals:
            if v > 1 and not any(abs(u * v - 1.0) < 1e-12 for u in vals):
                raise ValueError(f"scale value {v} lacks its reciprocal")
        object.__setattr__(self, "values", vals)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)

    def __len__(self) -> int:
        return len(self.values)


SAATY_SCALE = SaatyScale()


def is_reciprocal(pcm, tol: float = 1e-9) -> bool:
    """True iff a_ij * a_ji == 1 within tol for all entries."""
    a = _as_matrix(pcm)
    return bool(np.max(np.abs(a * a.T - 1.0)) <= tol)


def is_consistent(pcm, tol: float = 1e-9) -> bool:
    """True iff a_ij * a_jk == a_ik within tol for all index triples.

    The full triple sweep subsumes reciprocity (take k == i), so a
    non-reciprocal matrix can never pass.
    """
    a = _as_matrix(pcm)
    # products[i, k, j] = a_ij * a_jk
    products = a[:, None, :] * a.T[None, :, :]
    return bool(np.max(np.abs(products - a[:, :, None])) <= tol)


def mpr_from_pv(v: PriorityVector) -> Pcm:
    """Perfect ratio matrix m_ij = v_i / v_j; consistent by construction."""
    w = v.weights if isinstance(v, PriorityVector) else np.asarray(v, dtype=float)
    return Pcm(w[:, None] / w[None, :])


def round_matrix_to_scale(values: np.ndarray, scale: SaatyScale = SAATY_SCALE) -> np.ndarray:
    """Nearest scale value to each of an array of positive values, ties broken upward."""
    arr = np.asarray(values, dtype=float)
    if not np.all(arr > 0):
        raise ValueError("can only round positive values")
    vals = scale.as_array()
    # Only the two scale values around x can be nearest (the end pair outside
    # the scale's range); "<=" breaks a tie toward the upper one.
    k = np.clip(np.searchsorted(vals, arr, side="right") - 1, 0, len(vals) - 2)
    return vals[k + (np.abs(vals[k + 1] - arr) <= np.abs(arr - vals[k]))]


def round_pcm(pcm, scale: SaatyScale = SAATY_SCALE) -> Pcm:
    """Round the upper triangle to the scale and reciprocate the lower one."""
    a = _as_matrix(pcm).copy()
    n = a.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    a[iu, ju] = round_matrix_to_scale(a[iu, ju], scale)
    a[ju, iu] = 1.0 / a[iu, ju]
    np.fill_diagonal(a, 1.0)
    return Pcm(a)


_FRACTION_STRINGS = {1.0 / k: f"1/{k}" for k in range(2, 10)}


def _format_entry(x: float) -> str:
    for value, text in _FRACTION_STRINGS.items():
        if abs(x - value) < 1e-12:
            return text
    if abs(x - round(x)) < 1e-12:
        return str(int(round(x)))
    return f"{x:.6g}"


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


def _read_text(path, error=ValueError) -> str:
    """The file's text; a file that is not UTF-8 raises `error` naming it and its first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {data[exc.start]:#04x} at position {exc.start})") from None


def read_pcm(path) -> Pcm:
    """Read a PCM from CSV text; tokens are decimals or exact fractions p/q."""
    rows = []
    for line in _read_text(path, PcmFormatError).splitlines():
        if not line.strip():
            continue
        rows.append([_parse_token(tok) for tok in line.split(",")])
    if not rows:
        raise PcmFormatError(f"{path}: empty PCM file")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PcmFormatError(f"{path}: expected a square matrix, got ragged rows")
    try:
        return Pcm(np.array(rows))
    except ValueError as exc:
        raise PcmFormatError(f"{path}: {exc}") from exc


def write_pcm(pcm, path) -> None:
    a = _as_matrix(pcm)
    lines = [",".join(_format_entry(x) for x in row) for row in a]
    Path(path).write_text("\n".join(lines) + "\n")
