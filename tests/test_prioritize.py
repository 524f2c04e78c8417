"""Eigenvector and geometric-mean prioritization against closed-form oracles."""

import warnings

import numpy as np
import pytest

from pcmkit import prioritize, simulate
from pcmkit.core import SAATY_SCALE, Pcm, PriorityVector, _from_upper
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
        m = Pcm(v.weights[:, None] / v.weights[None, :])
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

    @staticmethod
    def assert_matches_dense_oracle(a):
        """batch_rev's lambda_max within 1e-12 and weights within 1e-14 of a dense eig, record by record."""
        vals, vecs = np.linalg.eig(a)
        k = np.argmax(vals.real, axis=1)
        rows = np.arange(len(a))
        w = np.abs(vecs[rows, :, k].real)
        w /= w.sum(axis=1, keepdims=True)
        got_w, got_lam, _, _, converged = batch_rev(a)
        assert converged.all()
        assert np.max(np.abs(got_lam - vals[rows, k].real)) <= 1e-12
        assert np.max(np.abs(got_w - w)) <= 1e-14

    @pytest.mark.parametrize("n", range(3, 16))
    def test_saaty_stack_matches_dense_oracle(self, n):
        upper = np.random.default_rng(n).choice(SAATY_SCALE, size=(300, n * (n - 1) // 2))
        self.assert_matches_dense_oracle(_from_upper(upper, n))

    @pytest.mark.parametrize("n", [4, 7])
    def test_msobe_chunk_matches_dense_oracle(self, n):
        """One whole MSOBE-SF stack of rounded, disturbed PCMs: the first chunk of a build that the budget binds."""
        budget = simulate._chunk_records(n)
        a = simulate._msobe_matrices(n, 0, budget, 4 * budget, simulate.BigErrorModel(), 1)[0]
        assert len(a) == budget >= 4096
        self.assert_matches_dense_oracle(a)

    @pytest.mark.parametrize("span", [1.0, 1e20, 1e100, 1e150])
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_diagonal_similarity(self, n, span):
        """D A D^-1 has A's lambda_max and the weights D w, to 1e-13 relative in every component."""
        rng = np.random.default_rng(n)
        a = _from_upper(rng.choice(SAATY_SCALE, size=(200, n * (n - 1) // 2)), n)
        d = np.geomspace(1.0, span, n)[rng.permuted(np.tile(np.arange(n), (len(a), 1)), axis=1)]
        w1, lam1, _, _, _ = batch_rev(a)
        w, lam, _, _, converged = batch_rev(a * d[:, :, None] / d[:, None, :])
        assert converged.all()
        assert np.max(np.abs(lam / lam1 - 1)) <= 1e-13
        dw = d * w1
        dw /= dw.sum(axis=1, keepdims=True)
        assert np.max(np.abs(w / dw - 1)) <= 1e-13

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
        rw = rev_estimate(ra).weights.weights
        gw = gm_estimate(ra).weights
        assert rev_estimate(Pcm(a)).weights.weights == pytest.approx(rw[perm], abs=1e-9)
        assert gm_estimate(Pcm(a)).weights == pytest.approx(gw[perm], abs=1e-12)

    def test_convergence_error(self, ra):
        """One pass cannot stop: it moves the uniform start to ra's first iterate, which the error carries."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prioritize, "MAX_ITER", 1)
            with pytest.raises(ConvergenceError) as caught:
                rev_estimate(ra)
            w, _, iterations, residual, _ = batch_rev(np.array([ra.entries]))
        assert caught.value.iterations == 1 and caught.value.residual == residual[0]
        assert np.array_equal(caught.value.weights, w[0]) and iterations[0] == 1

    def test_overflowing_squares_end_unconverged_without_a_warning(self):
        """Entries 1e200 apart overflow the squarings: the record stops on its first pass, whose
        normaliser is NaN, with NaN weights and no convergence, and numpy warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as caught:
                rev_estimate(Pcm([[1, 1e200, 1], [1e-200, 1, 1], [1, 1, 1]]))
        assert np.isnan(caught.value.weights).all() and caught.value.iterations == 1

    def test_overflowing_record_leaves_its_stack_neighbour_alone(self, ra):
        """A finite record stacked with an overflowing one gets exactly its stack-of-one result."""
        wide = np.array([[1, 1e200, 1, 1], [1e-200, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]])
        w, lam, iterations, residual, converged = stacked = batch_rev(np.array([wide, ra.entries]))
        assert np.isnan(w[0]).all() and iterations[0] == 1 and not converged[0]
        for got, want in zip(stacked, batch_rev(np.array([ra.entries]))):
            assert np.array_equal(got[1:], want)
