"""Batched kernels: a stack gives what each matrix gives alone, bit for bit.

The scalar API calls the same kernels on one matrix, so these tests also pin
the scalar and the Monte Carlo paths to each other.  A plain per-matrix power
iteration loop and a per-sample ASI loop serve as references.
"""

import numpy as np
import pytest

from pcmkit.core import SAATY_SCALE
from pcmkit.indices import batch_gi, batch_ki_ati, batch_si, estimate_asi, triad_values
from pcmkit.loss import batch_absolute_error, batch_relative_error
from pcmkit.prioritize import batch_gm, batch_rev
from pcmkit.stats import average_ranks, batch_pearson

STACK = 48


def random_stack(rng, n, size):
    """Reciprocal matrices; even records scale-valued, odd ones continuous."""
    iu, ju = np.triu_indices(n, k=1)
    upper = rng.uniform(0.2, 5.0, size=(size, iu.size))
    upper[::2] = rng.choice(SAATY_SCALE.as_array(), size=upper[::2].shape)
    a = np.ones((size, n, n))
    a[:, iu, ju] = upper
    a[:, ju, iu] = 1.0 / upper
    return a


def reference_rev(a, tol=1e-12, max_iter=10_000):
    """Power iteration on one matrix, step for step as batch_rev does it."""
    n = a.shape[0]
    w = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        y = a @ w
        y /= y.sum()
        diff = float(np.max(np.abs(y - w)))
        w = y
        if diff <= tol:
            break
    return w, float(np.mean((a @ w) / w)), it


@pytest.mark.parametrize("n", range(3, 10))
def test_stack_equals_each_matrix_alone(n):
    rng = np.random.default_rng(500 + n)
    a = random_stack(rng, n, STACK)
    v = rng.dirichlet(np.ones(n), size=STACK)
    rev = batch_rev(a)
    w_rev, lam = rev[0], rev[1]
    w_gm = batch_gm(a)
    stacked = {
        "gm": w_gm,
        "ti": triad_values(a),
        "ki_ati": np.stack(batch_ki_ati(a), axis=-1),
        "gi": batch_gi(a, w_gm),
        "si": batch_si(lam, n),
        "ae": batch_absolute_error(v, w_rev),
        "re": batch_relative_error(v, w_rev),
    }
    assert rev[4].all()
    for k in range(STACK):
        for whole, alone in zip(rev, batch_rev(a[k : k + 1])):
            assert np.array_equal(whole[k], alone[0])
        alone = {
            "gm": batch_gm(a[k]),
            "ti": triad_values(a[k]),
            "ki_ati": np.stack(batch_ki_ati(a[k])),
            "gi": batch_gi(a[k], w_gm[k]),
            "si": batch_si(lam[k], n),
            "ae": batch_absolute_error(v[k], w_rev[k]),
            "re": batch_relative_error(v[k], w_rev[k]),
        }
        for name, value in alone.items():
            assert np.array_equal(stacked[name][k], value), name


@pytest.mark.parametrize("n", range(3, 10))
def test_rev_matches_scalar_loop(n):
    rng = np.random.default_rng(900 + n)
    a = random_stack(rng, n, STACK)
    w, lam, iterations, residual, converged = batch_rev(a)
    assert converged.all() and np.all(residual <= 1e-9)
    for k in range(STACK):
        w_ref, lam_ref, it_ref = reference_rev(a[k])
        assert np.max(np.abs(w[k] - w_ref)) <= 1e-12
        assert abs(lam[k] - lam_ref) <= 1e-12
        assert iterations[k] == it_ref


@pytest.mark.parametrize("n", range(3, 10))
def test_asi_matches_per_sample_loop(n):
    sample_size = 60
    rng = np.random.default_rng(7)
    iu, ju = np.triu_indices(n, k=1)
    total = 0.0
    for _ in range(sample_size):
        a = np.ones((n, n))
        a[iu, ju] = rng.choice(SAATY_SCALE.as_array(), size=iu.size)
        a[ju, iu] = 1.0 / a[iu, ju]
        total += (reference_rev(a)[1] - n) / (n - 1)
    assert abs(estimate_asi(n, sample_size, seed=7) - total / sample_size) <= 1e-12


def test_correlation_rows_equal_each_row_alone():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 6, size=(12, 25)).astype(float)  # ties
    y = x + rng.normal(size=x.shape)
    y[4] = 2.0  # zero variance gives NaN, not an error
    r = batch_pearson(x, y)
    ranks = average_ranks(x)
    assert np.isnan(r[4])
    for k in range(x.shape[0]):
        assert np.array_equal(r[k], batch_pearson(x[k], y[k]), equal_nan=True)
        assert np.array_equal(ranks[k], average_ranks(x[k]))
