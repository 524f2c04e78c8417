"""Eigenvector and geometric-mean prioritization against closed-form oracles."""

import numpy as np
import pytest

from pcmkit.core import SAATY_SCALE, PriorityVector, mpr_from_pv
from pcmkit.prioritize import ConvergenceError, batch_rev, gm_estimate, rev_estimate

from conftest import random_reciprocal_pcm


def eig_oracle(a: np.ndarray):
    """Principal eigenpair via numpy's general eigensolver."""
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmax(vals.real))
    w = np.abs(vecs[:, k].real)
    return vals[k].real, w / w.sum()


class TestConsistentMatrices:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_recovers_generating_vector(self, n, seed):
        rng = np.random.default_rng(seed)
        v = PriorityVector.normalized(rng.uniform(0.1, 1.0, size=n))
        m = mpr_from_pv(v)
        res = rev_estimate(m)
        assert res.weights.weights == pytest.approx(v.weights, abs=1e-10)
        assert res.lambda_max == pytest.approx(n, abs=1e-10)
        assert gm_estimate(m).weights == pytest.approx(v.weights, abs=1e-12)

    def test_worked_consistent_example(self, rmpr_v2):
        expected = [1 / 3, 1 / 3, 1 / 6, 1 / 6]
        assert rev_estimate(rmpr_v2).weights.weights == pytest.approx(expected, abs=1e-10)
        assert gm_estimate(rmpr_v2).weights == pytest.approx(expected, abs=1e-12)


class TestAgainstEigensolver:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_random_reciprocal_matrices(self, n, seed):
        rng = np.random.default_rng(1000 + seed)
        m = random_reciprocal_pcm(rng, n, SAATY_SCALE)
        lam, w = eig_oracle(np.array(m.entries))
        res = rev_estimate(m)
        assert res.lambda_max == pytest.approx(lam, abs=1e-7)
        assert res.weights.weights == pytest.approx(w, abs=1e-7)
        assert res.lambda_max >= n - 1e-12

    def test_gm_closed_form(self, ra):
        a = np.array(ra.entries)
        g = np.prod(a, axis=1) ** (1.0 / ra.n)
        assert gm_estimate(ra).weights == pytest.approx(g / g.sum(), abs=1e-14)


class TestBehaviour:
    def test_result_fields(self, ra):
        res = rev_estimate(ra)
        assert res.iterations >= 1
        assert res.residual <= 1e-12
        assert isinstance(res.weights, PriorityVector)

    def test_permutation_equivariance(self, ra):
        perm = [2, 0, 3, 1]
        a = np.array(ra.entries)[np.ix_(perm, perm)]
        from pcmkit.core import Pcm

        rw = rev_estimate(ra).weights.weights
        gw = gm_estimate(ra).weights
        assert rev_estimate(Pcm(a)).weights.weights == pytest.approx(rw[perm], abs=1e-9)
        assert gm_estimate(Pcm(a)).weights == pytest.approx(gw[perm], abs=1e-12)

    def test_convergence_error(self, ra):
        with pytest.raises(ConvergenceError):
            rev_estimate(ra, tol=1e-15, max_iter=2)

    @pytest.mark.parametrize("kwargs,message", [
        ({"max_iter": 0}, "max_iter must be at least 1"),
        ({"max_iter": -3}, "max_iter must be at least 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": -1e-12}, "tol must be positive"),
        ({"tol": float("nan")}, "tol must be positive"),
    ])
    def test_rejects_bad_iteration_settings(self, ra, kwargs, message):
        with pytest.raises(ValueError, match=message):
            rev_estimate(ra, **kwargs)
        with pytest.raises(ValueError, match=message):
            batch_rev(np.stack([ra.entries] * 3), **kwargs)
