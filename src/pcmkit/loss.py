"""Estimation-error loss functions between a true priority vector and an estimate."""
from __future__ import annotations

import numpy as np

from .core import PriorityVector, _sum_in_order

__all__ = ["batch_absolute_error", "batch_relative_error", "batch_losses", "avg_absolute_error", "avg_relative_error"]


def batch_absolute_error(v, w):
    """Mean componentwise absolute difference (1/N) sum |v_i - w_i| over the last axis.

    The N terms are added left to right (`core._sum_in_order`: vector adds from
    256 records on, else np.cumsum): np.mean bit for bit up to N = 7, and a
    few ulp from it from N = 8, where numpy's row sum turns pairwise.
    """
    d = np.abs(v - w)
    return _sum_in_order(d) / d.shape[-1]


def batch_relative_error(v, w):
    """Mean |v_i - w_i| / v_i over the last axis, the TRUE vector v in the denominator.

    Its N terms are added as batch_absolute_error adds them.
    """
    r = np.abs(v - w) / v
    return _sum_in_order(r) / r.shape[-1]


def batch_losses(v, w_rev, w_gm) -> dict:
    """AE and RE of the REV and GM estimates against true vectors v, over the last axis; for analyze and simulate."""
    return {"ae_rev": batch_absolute_error(v, w_rev), "re_rev": batch_relative_error(v, w_rev),
            "ae_gm": batch_absolute_error(v, w_gm), "re_gm": batch_relative_error(v, w_gm)}


def _checked_pair(v, w):
    tv, est = (x.weights if isinstance(x, PriorityVector) else np.asarray(x, float) for x in (v, w))
    if tv.shape != est.shape:
        raise ValueError("vectors must have equal dimension")
    return tv, est


def avg_absolute_error(v, w) -> float:
    """Mean componentwise absolute difference (1/N) sum |v_i - w_i|."""
    return float(batch_absolute_error(*_checked_pair(v, w)))


def avg_relative_error(v, w) -> float:
    """Mean |v_i - w_i| / v_i with the TRUE vector v in the denominator.

    Returned as a fraction; percent formatting belongs to the reporting layer.
    """
    tv, est = _checked_pair(v, w)
    if np.any(tv <= 0):
        raise ValueError("true vector components must be positive")
    return float(batch_relative_error(tv, est))
