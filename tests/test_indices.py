"""Inconsistency indices with frozen hand-worked oracles."""

import math

import numpy as np
import pytest

from pcmkit.core import SAATY_SCALE, Pcm, PriorityVector
from pcmkit.indices import batch_gi, batch_ki_ati, batch_si, compute_report, estimate_asi, triad_values
from pcmkit.prioritize import batch_gm, batch_rev, rev_estimate

from conftest import random_reciprocal_pcm


class TestGoldenValues:
    def test_rounded_example_indices(self, ra, rb):
        a, b = compute_report(ra), compute_report(rb)
        assert a.si == pytest.approx(0.017, abs=5e-4)
        assert b.si == pytest.approx(0.058, abs=5e-4)
        assert a.gi == pytest.approx(0.068, abs=5e-4)
        assert b.gi == pytest.approx(0.228, abs=5e-4)
        assert a.ki == pytest.approx(4 / 9, abs=1e-12)
        assert b.ki == pytest.approx(2 / 3, abs=1e-12)

    def test_consistent_matrices_score_zero(self, mpr_v1, rmpr_v2):
        for m in (mpr_v1, rmpr_v2):
            report = compute_report(m)
            assert report.si == pytest.approx(0.0, abs=1e-10)
            assert report.gi == pytest.approx(0.0, abs=1e-12)
            assert report.ki == pytest.approx(0.0, abs=1e-12)
            assert report.ati == pytest.approx(0.0, abs=1e-12)


def triad_matrix(alpha, beta, chi):
    """The 3x3 reciprocal matrix whose one triad is (a_12, a_13, a_23) = (alpha, beta, chi)."""
    return np.array(
        [[1.0, alpha, beta], [1 / alpha, 1.0, chi], [1 / beta, 1 / chi, 1.0]]
    )


class TestTriads:
    def test_triad_count(self):
        for n in range(3, 9):
            rng = np.random.default_rng(n)
            m = random_reciprocal_pcm(rng, n, SAATY_SCALE)
            assert triad_values(m).size == math.comb(n, 3)

    def test_triad_inconsistency_examples(self):
        # consistent triad: beta = alpha * chi
        assert triad_values(triad_matrix(2.0, 6.0, 3.0)).tolist() == [0.0]
        # beta twice too large: min(|1-2|, |1-1/2|) = 1/2
        assert triad_values(triad_matrix(2.0, 12.0, 3.0))[0] == pytest.approx(0.5)
        # symmetric in the ratio and its reciprocal
        assert triad_values(triad_matrix(2.0, 3.0, 3.0))[0] == pytest.approx(
            triad_values(triad_matrix(2.0, 12.0, 3.0))[0]
        )

    def test_ki_is_max_and_ati_is_mean(self, rb):
        tv, report = triad_values(rb), compute_report(rb)
        assert report.ki == pytest.approx(tv.max(), abs=1e-15)
        assert report.ati == pytest.approx(tv.mean(), abs=1e-15)
        assert report.ati <= report.ki

    def test_triad_values_match_a_loop_over_the_triads(self):
        """At n = 3..9, bit for bit the value of a scalar loop over itertools.combinations, on one
        matrix and on a stack; the cached index arrays behind it are read-only."""
        import itertools

        from pcmkit.indices import _triad_indices

        rng = np.random.default_rng(11)
        for n in range(3, 10):
            stack = np.stack([random_reciprocal_pcm(rng, n, SAATY_SCALE).entries for _ in range(3)])
            for a in stack:
                expected = []
                for i, k, j in itertools.combinations(range(n), 3):
                    prod = a[i, k] * a[k, j]
                    expected.append(min(abs(1.0 - a[i, j] / prod), abs(1.0 - prod / a[i, j])))
                assert triad_values(a).tolist() == expected
            assert np.array_equal(triad_values(stack), np.stack([triad_values(a) for a in stack]))
            indices = _triad_indices(n)
            assert indices is _triad_indices(n) and len(indices) == 3
            for index in indices:
                assert not index.flags.writeable
                with pytest.raises(ValueError):
                    index[0] = 1

    def test_ti_bounded_below_one(self):
        # TI = min of |1-r| and |1-1/r| is always in [0, 1)
        rng = np.random.default_rng(7)
        for n in (4, 6):
            m = random_reciprocal_pcm(rng, n, SAATY_SCALE)
            tv = triad_values(m)
            assert np.all(tv >= 0.0) and np.all(tv < 1.0)


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_indices_invariant(self, seed):
        rng = np.random.default_rng(seed)
        m = random_reciprocal_pcm(rng, 5, SAATY_SCALE)
        perm = rng.permutation(5)
        p = compute_report(Pcm(np.array(m.entries)[np.ix_(perm, perm)]))
        r = compute_report(m)
        assert p.si == pytest.approx(r.si, abs=1e-9)
        assert p.gi == pytest.approx(r.gi, abs=1e-12)
        assert p.ki == pytest.approx(r.ki, abs=1e-12)
        assert p.ati == pytest.approx(r.ati, abs=1e-12)


class TestAsiAndCr:
    def test_asi_deterministic(self):
        a = estimate_asi(4, sample_size=200, seed=42)
        b = estimate_asi(4, sample_size=200, seed=42)
        assert a == b
        assert a > 0

    @pytest.mark.parametrize("args, message", [((2,), "need n >= 3"), ((4, 0), "need sample_size >= 1")])
    def test_asi_rejects_bad_args(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_asi(*args)

    def test_asi_grows_with_order(self):
        asis = [estimate_asi(n, sample_size=300, seed=1) for n in (3, 4, 5, 6, 7)]
        assert all(x < y for x, y in zip(asis, asis[1:]))

    def test_cr_is_si_over_asi(self, rb):
        asi = estimate_asi(4, sample_size=300, seed=5)
        assert compute_report(rb, asi).cr == pytest.approx(compute_report(rb).si / asi, abs=1e-15)

    @pytest.mark.parametrize("n", range(3, 16))
    def test_asi_equals_dense_eigenvalue_mean(self, n):
        """ASI is the mean of (max Re eigvals - n)/(n - 1) over the same 200 draws, to 1e-14."""
        iu, ju = np.triu_indices(n, k=1)
        for seed in range(4):
            upper = np.random.default_rng(seed).choice(SAATY_SCALE, size=(200, iu.size))
            a = np.ones((200, n, n))
            a[:, iu, ju] = upper
            a[:, ju, iu] = 1.0 / upper
            lam = np.linalg.eigvals(a).real.max(axis=1)
            assert abs(estimate_asi(n, 200, seed) - np.mean((lam - n) / (n - 1))) <= 1e-14

    @pytest.mark.parametrize("n", range(3, 16))
    def test_asi_power_iteration_takes_few_passes(self, n, monkeypatch):
        """The sample's eigenvectors converge in a handful of passes, not the ~100 that A itself takes."""
        import pcmkit.indices as indices

        passes = []

        def recording_batch_rev(a):
            result = batch_rev(a)
            passes.append(int(result[2].max()))
            return result

        monkeypatch.setattr(indices, "batch_rev", recording_batch_rev)
        for seed in range(3):
            estimate_asi(n, seed=seed)
        assert len(passes) == 3 and max(passes) <= 6


class TestAsiCheck:
    """compute_report accepts only a finite and positive ASI."""

    @pytest.mark.parametrize("function", [compute_report])
    @pytest.mark.parametrize("asi", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_asi(self, rb, function, asi):
        with pytest.raises(ValueError, match=f"^asi must be finite and positive, not {asi}$"):
            function(rb, asi)


class TestReport:
    def test_report_fields(self, rb):
        rep = compute_report(rb, asi=estimate_asi(4, sample_size=200, seed=0))
        d = rep.as_dict()
        # each index exactly as its kernel gives it: SI from REV's lambda_max, GI from the GM weights
        a = rb.entries
        assert d["si"] == batch_si(rev_estimate(rb).lambda_max, 4)
        assert d["gi"] == batch_gi(a, batch_gm(a))
        assert (d["ki"], d["ati"]) == batch_ki_ati(a)
        assert d["cr"] == pytest.approx(d["si"] / estimate_asi(4, sample_size=200, seed=0))
