"""Priority vector estimators: principal eigenvector (REV) and row geometric mean (GM)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PriorityVector, _as_matrix, _sum_in_order

__all__ = ["RevResult", "ConvergenceError", "batch_rev", "batch_gm", "rev_estimate", "gm_estimate"]

TOL = 1e-12  # batch_rev's relative stopping tolerance; it reads TOL and MAX_ITER at call time
MAX_ITER = 10_000
SQUARINGS = 5  # batch_rev iterates on A^(2^SQUARINGS)


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, weights: np.ndarray, residual: float, iterations: int):
        super().__init__(
            f"power iteration did not converge after {iterations} iteration{'' if iterations == 1 else 's'} "
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


def batch_rev(a: np.ndarray):
    """Normalized principal right eigenvectors of a (b, n, n) stack by power iteration on A^32.

    A^32 has A's Perron vector, and its ratio of second to first eigenvalue
    modulus is A's to the 32nd power, so the iteration stops after 2-6
    passes where A itself takes 15-100.  The stack is squared SQUARINGS
    times, each square scaled by its own (0,0) entry.  That entry is
    invariant under a diagonal similarity D A D^-1, so the scaled powers of
    a matrix whose weights span many decades stay in range.  The squarings
    cost O(n^3) per matrix: on a 500-matrix stack they outweigh the saved
    passes from about n = 30, while a stack of one is still faster at n = 60.

    The iteration starts from the uniform vector and renormalizes by the
    component sum at each step.  Each pass iterates only the records still
    moving, held as a compacted C-contiguous stack: a record stops the
    moment every component of its successive-iterate difference is within
    TOL times that component, so a weight of 1e-20 converges as far as one
    of 0.5.  Its weights and iteration count are written out on that pass,
    so its result never depends on the rest of the stack.  A record still
    moving after MAX_ITER passes keeps its last iterate.  A record whose
    squarings overflow stops, unconverged and with NaN weights, on the pass
    where its normaliser is not finite.  lambda_max is read
    off A itself, as the mean of the Rayleigh ratios (A w)_i / w_i.  Returns
    weights (b, n) and, per record, lambda_max, iterations, the residual
    max |A w - lambda_max w| and whether it converged.

    Every per-record reduction runs on component-major (n, records) copies:
    the normaliser of each pass and lambda_max add the components left to
    right (`core._sum_in_order`: vector adds from 256 records on, else
    np.cumsum), the convergence test ands the n component tests and the
    residual is the maximum of the n component deviations, exact in any
    order.  numpy's row sum from 8 terms on is pairwise, in an order that
    follows the memory layout; so up to n = 7 lambda_max is np.mean of the
    ratios bit for bit, and from n = 8 it may differ from it by a few ulp.  The
    einsums keep their C-contiguous (records, n, n) and (records, n)
    operands, because their summation order also follows the layout.
    """
    a = np.ascontiguousarray(a)
    b, n, _ = a.shape
    p = a
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SQUARINGS):
            p = p @ p
            p /= p[:, :1, :1].copy()  # a view of p itself would send numpy down its slow overlap path
    w = np.full((b, n), 1.0 / n)
    iterations = np.full(b, MAX_ITER)
    converged = np.zeros(b, dtype=bool)
    p_act, w_act, idx = p, w, np.arange(b)
    wt = w.T  # the active iterate, component-major
    it = 0
    while idx.size and it < MAX_ITER:
        it += 1
        yt = np.einsum("bij,bj->bi", p_act, w_act).T.copy()
        total = _sum_in_order(yt, 0)
        yt /= total
        done = np.logical_and.reduce(np.abs(yt - wt) <= TOL * yt, axis=0)
        finite = np.isfinite(total)
        wt = yt
        stop = done | ~finite
        if stop.any():
            yt[:, ~finite] = np.nan
            w[idx[stop]] = yt[:, stop].T
            iterations[idx[stop]] = it
            converged[idx[done & finite]] = True
            keep = ~stop
            idx, wt = idx[keep], yt[:, keep]
            del p_act  # the old active copy goes before the new one is gathered, so at most one exists
            p_act = p[idx]
        w_act = np.ascontiguousarray(wt.T)
    w[idx] = w_act
    awt, wt = np.einsum("bij,bj->bi", a, w).T.copy(), w.T.copy()
    lam = _sum_in_order(awt / wt, 0) / n
    residual = np.max(np.abs(awt - lam * wt), axis=0)
    return w, lam, iterations, residual, converged


def batch_gm(a: np.ndarray) -> np.ndarray:
    """Row geometric mean weights, normalized to sum 1, over the last two axes.

    The row means of log(a) and the normaliser add the n components left to
    right (`core._sum_in_order`: vector adds from 256 sums on, else np.cumsum):
    numpy's row mean bit for bit up to n = 7, and from n = 8 a few ulp from
    it, as numpy's row sum turns pairwise there.
    """
    g = np.exp(_sum_in_order(np.log(a)) / a.shape[-1])
    return g / _sum_in_order(g)[..., None]


def rev_estimate(pcm) -> RevResult:
    """Principal right eigenvector of one PCM (`batch_rev` on a stack of one)."""
    w, lam, iterations, residual, converged = batch_rev(_as_matrix(pcm)[None])
    if not converged[0]:
        raise ConvergenceError(w[0], float(residual[0]), int(iterations[0]))
    return RevResult(PriorityVector(w[0]), float(lam[0]), int(iterations[0]), float(residual[0]))


def gm_estimate(pcm) -> PriorityVector:
    """Row geometric mean weights of one PCM, normalized to sum 1."""
    return PriorityVector(batch_gm(_as_matrix(pcm)))
