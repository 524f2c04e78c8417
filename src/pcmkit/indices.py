"""Inconsistency indices: SI, CR (via sampled ASI), GI, triad-based KI and ATI."""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import SAATY_SCALE, PriorityVector, _as_matrix, _from_upper, _sum_in_order, _upper_indices
from .prioritize import ConvergenceError, RevResult, batch_rev, gm_estimate, rev_estimate

__all__ = [
    "IndexReport",
    "batch_si",
    "batch_gi",
    "triad_values",
    "batch_ki_ati",
    "batch_indices",
    "estimate_asi",
    "compute_report",
]


@dataclass(frozen=True)
class IndexReport:
    """The five index values for one PCM, and the REV and GM estimates they come from; cr is None without an ASI."""

    si: float
    cr: Optional[float]
    gi: float
    ki: float
    ati: float
    rev: RevResult = field(compare=False, repr=False)
    gm: PriorityVector = field(compare=False, repr=False)

    def as_dict(self) -> dict:
        return {"si": self.si, "cr": self.cr, "gi": self.gi, "ki": self.ki, "ati": self.ati}


def batch_si(lambda_max, n: int):
    """Saaty's index (lambda_max - n) / (n - 1), elementwise."""
    return (lambda_max - n) / (n - 1)


def batch_gi(a: np.ndarray, w: np.ndarray):
    """Geometric consistency index over the last two axes of a, given its GM weights w.

    2 / ((n-1)(n-2)) * sum_{i<j} ln^2(a_ij w_j / w_i), natural logarithm, added
    left to right (`core._sum_in_order`: vector adds from 256 matrices on, else np.cumsum).
    """
    n = a.shape[-1]
    iu, ju = _upper_indices(n)
    terms = np.log(a[..., iu, ju] * w[..., ju] / w[..., iu]) ** 2
    return 2.0 / ((n - 1) * (n - 2)) * _sum_in_order(terms)


@functools.cache
def _triad_indices(n: int) -> tuple:
    """Read-only index arrays i, k, j of the C(n,3) triads i < k < j, in itertools.combinations order."""
    ikj = np.array(list(itertools.combinations(range(n), 3))).T
    ikj.setflags(write=False)
    return tuple(ikj)


def triad_values(pcm) -> np.ndarray:
    """Triad inconsistency over all C(n,3) upper-triangle triads, over the last two axes.

    For i < k < j with alpha = a_ik, beta = a_ij, chi = a_kj the value is
    min(|1 - beta/(alpha chi)|, |1 - alpha chi/beta|), zero iff beta == alpha chi.
    """
    a = _as_matrix(pcm)
    i, k, j = _triad_indices(a.shape[-1])
    # min(|1 - beta/prod|, |1 - prod/beta|), each step written over an array it no longer needs.
    prod = a[..., i, k]
    prod *= a[..., k, j]  # alpha chi
    beta = a[..., i, j]
    out = np.divide(beta, prod)
    np.abs(np.subtract(1.0, out, out=out), out=out)
    np.divide(prod, beta, out=prod)
    np.abs(np.subtract(1.0, prod, out=prod), out=prod)
    return np.minimum(out, prod, out=out)


def batch_ki_ati(pcm):
    """Koczkodaj's index (maximum) and ATI (mean, summed as in batch_gi) of the triad values, over the last two axes."""
    ti = triad_values(pcm)
    return ti.max(axis=-1), _sum_in_order(ti) / ti.shape[-1]


def batch_indices(a: np.ndarray, lambda_max, w_gm) -> dict:
    """SI from REV's lambda_max, GI from the GM weights, KI and ATI over the last two axes; for analyze and simulate."""
    ki, ati = batch_ki_ati(a)
    return {"si": batch_si(lambda_max, a.shape[-1]), "gi": batch_gi(a, w_gm), "ki": ki, "ati": ati}


def estimate_asi(n: int, sample_size: int = 500, seed: int = 0) -> float:
    """Mean SI over random reciprocal matrices with upper triangles drawn from SAATY_SCALE.

    One batch_rev call over the whole sample: its power iteration on A^32
    stops after 2-6 passes at n = 3..15, where A itself takes ~100.  On the
    default 500 matrices the squarings behind A^32 cost more than the
    passes they save from about n = 30.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if sample_size < 1:
        raise ValueError("need sample_size >= 1")
    rng = np.random.default_rng(seed)
    a = _from_upper(rng.choice(SAATY_SCALE, size=(sample_size, n * (n - 1) // 2)), n)
    w, lam, iterations, residual, converged = batch_rev(a)
    if not converged.all():
        k = int(np.argmin(converged))
        raise ConvergenceError(w[k], float(residual[k]), int(iterations[k]))
    return float(np.mean(batch_si(lam, n)))


def _checked_asi(asi) -> float:
    """The ASI as a float, which must be finite and positive for SI / ASI to be a ratio."""
    asi = float(asi)
    if not (math.isfinite(asi) and asi > 0):
        raise ValueError(f"asi must be finite and positive, not {asi}")
    return asi


def compute_report(pcm, asi: Optional[float] = None) -> IndexReport:
    """All five indices from one REV and one GM estimate of the PCM; cr only when an ASI is supplied."""
    if asi is not None:
        asi = _checked_asi(asi)
    a = _as_matrix(pcm)
    rev, gm = rev_estimate(a), gm_estimate(a)
    values = {key: float(x) for key, x in batch_indices(a, rev.lambda_max, gm.weights).items()}
    cr = values["si"] / asi if asi is not None else None
    return IndexReport(cr=cr, rev=rev, gm=gm, **values)
