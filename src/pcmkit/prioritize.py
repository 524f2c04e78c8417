"""Priority vector estimators: principal eigenvector (REV) and row geometric mean (GM)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PriorityVector, _as_matrix

__all__ = ["RevResult", "ConvergenceError", "batch_rev", "batch_gm", "rev_estimate", "gm_estimate"]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, weights: np.ndarray, residual: float, iterations: int):
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.weights = weights
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class RevResult:
    weights: PriorityVector
    lambda_max: float
    iterations: int
    residual: float


def batch_rev(a: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Normalized principal right eigenvectors of a (b, n, n) stack by power iteration.

    Starts from the uniform vector and renormalizes by the component sum at
    each step; a record stops updating the moment its max successive-iterate
    difference is within tol, so its result never depends on the rest of the
    stack.  lambda_max is the mean of the Rayleigh ratios (A w)_i / w_i.
    Returns weights (b, n) and, per record, lambda_max, iterations, the
    residual max |A w - lambda_max w| and whether it converged.
    """
    b, n, _ = a.shape
    w = np.full((b, n), 1.0 / n)
    iterations = np.full(b, max_iter)
    active = np.ones(b, dtype=bool)
    it = 0
    while active.any() and it < max_iter:
        idx = np.flatnonzero(active)
        y = np.einsum("bij,bj->bi", a[idx], w[idx])
        y /= y.sum(axis=1, keepdims=True)
        diff = np.max(np.abs(y - w[idx]), axis=1)
        w[idx] = y
        it += 1
        done = idx[diff <= tol]
        active[done] = False
        iterations[done] = it
    aw = np.einsum("bij,bj->bi", a, w)
    lam = np.mean(aw / w, axis=1)
    residual = np.max(np.abs(aw - lam[:, None] * w), axis=1)
    return w, lam, iterations, residual, ~active


def batch_gm(a: np.ndarray) -> np.ndarray:
    """Row geometric mean weights, normalized to sum 1, over the last two axes."""
    g = np.exp(np.mean(np.log(a), axis=-1))
    return g / g.sum(axis=-1, keepdims=True)


def rev_estimate(pcm, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> RevResult:
    """Principal right eigenvector of one PCM (`batch_rev` on a stack of one)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    w, lam, iterations, residual, converged = batch_rev(_as_matrix(pcm)[None], tol, max_iter)
    if not converged[0]:
        raise ConvergenceError(w[0], float(residual[0]), max_iter)
    return RevResult(PriorityVector(w[0]), float(lam[0]), int(iterations[0]), float(residual[0]))


def gm_estimate(pcm) -> PriorityVector:
    """Row geometric mean weights of one PCM, normalized to sum 1."""
    return PriorityVector(batch_gm(_as_matrix(pcm)))
