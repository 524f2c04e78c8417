"""End-to-end acceptance suite.

One test per shipped acceptance criterion.  Each test gathers every violated
sub-check into a list and fails with the full list, so a single red line
documents exactly which sub-checks broke and by how much.

Two sub-checks are expected to fail and are intentionally left failing
(the README "Testing" section and CHANGES.md give the measured numbers):
  * the equal-error-count sweep cannot reproduce the frozen mean-correlation
    table (its mean KI coefficients are positive here, not near zero),
  * the n=4 big-error database misses perfect class-rank agreement for ATI
    and misses parts of the frozen mean-error column by more than 10%.
"""

import hashlib
import math
from importlib import resources

import numpy as np
import pytest

from pcmkit.acceptance import builtin_table, BUILTIN_DATA_SHA256
from pcmkit.core import SAATY_SCALE, Pcm, PriorityVector
from pcmkit.indices import batch_gi, batch_ki_ati, batch_si, compute_report, triad_values
from pcmkit.loss import avg_absolute_error, avg_relative_error
from pcmkit.prioritize import batch_gm, gm_estimate, rev_estimate
from pcmkit.simulate import (
    ERROR_NAMES,
    INDEX_NAMES,
    run_mse_sf,
    run_msobe_sf,
    run_nee_sf,
)
from pcmkit.stats import spearman, summarize_classes

from conftest import random_reciprocal_pcm


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def _finish(failures):
    assert not failures, "\n" + "\n".join(failures)


# ---------------------------------------------------------------------------
# deterministic golden criteria


def test_worked_example_three_disturbed_entries(v1, matrix_a):
    failures = []
    rev = rev_estimate(matrix_a).weights
    gm = gm_estimate(matrix_a)
    for name, got, want in [
        ("REV weights", rev.weights, [0.495036, 0.208474, 0.219384, 0.0771063]),
        ("GM weights", gm.weights, [0.496284, 0.209004, 0.217993, 0.0767189]),
    ]:
        _check(failures, np.allclose(got, want, atol=5e-4), f"{name}: {got} != {want}")
    for name, got, want in [
        ("AE(REV)", avg_absolute_error(v1, rev), 0.0322),
        ("RE(REV)", avg_relative_error(v1, rev), 0.1565),
        ("AE(GM)", avg_absolute_error(v1, gm), 0.0321),
        ("RE(GM)", avg_relative_error(v1, gm), 0.1558),
    ]:
        _check(failures, abs(got - want) <= 5e-4, f"{name}: {got:.5f} != {want}")
    _finish(failures)


def test_worked_example_four_disturbed_entries(v1, matrix_b):
    failures = []
    rev = rev_estimate(matrix_b).weights
    gm = gm_estimate(matrix_b)
    for name, got, want in [
        ("AE(REV)", avg_absolute_error(v1, rev), 0.0203),
        ("RE(REV)", avg_relative_error(v1, rev), 0.1058),
        ("AE(GM)", avg_absolute_error(v1, gm), 0.0216),
        ("RE(GM)", avg_relative_error(v1, gm), 0.1075),
    ]:
        _check(failures, abs(got - want) <= 5e-4, f"{name}: {got:.5f} != {want}")
    _finish(failures)


def test_rounded_examples_estimates_and_indices(v1, ra, rb):
    failures = []
    cases = [
        ("RA/REV", rev_estimate(ra).weights.weights, [0.480098, 0.204182, 0.242105, 0.0736147], 0.0361, 0.1913),
        ("RA/GM", gm_estimate(ra).weights, [0.47871, 0.204547, 0.243248, 0.0734945], 0.0360, 0.1919),
        ("RB/REV", rev_estimate(rb).weights.weights, [0.476078, 0.247112, 0.204738, 0.0720718], 0.0154, 0.1008),
        ("RB/GM", gm_estimate(rb).weights, [0.47871, 0.243248, 0.204547, 0.0734945], 0.0166, 0.1023),
    ]
    for name, got, want, ae, re in cases:
        _check(failures, np.allclose(got, want, atol=5e-4), f"{name} weights: {got} != {want}")
        _check(
            failures,
            abs(avg_absolute_error(v1, got) - ae) <= 5e-4,
            f"{name} AE: {avg_absolute_error(v1, got):.5f} != {ae}",
        )
        _check(
            failures,
            abs(avg_relative_error(v1, got) - re) <= 5e-4,
            f"{name} RE: {avg_relative_error(v1, got):.5f} != {re}",
        )
    rep_a, rep_b = compute_report(ra), compute_report(rb)
    for name, got, want, tol in [
        ("SI(RA)", rep_a.si, 0.017, 1e-3),
        ("SI(RB)", rep_b.si, 0.058, 1e-3),
        ("GI(RA)", rep_a.gi, 0.068, 2e-3),
        ("GI(RB)", rep_b.gi, 0.228, 2e-3),
        ("KI(RA)", rep_a.ki, 4.0 / 9.0, 1e-12),
        ("KI(RB)", rep_b.ki, 2.0 / 3.0, 1e-12),
    ]:
        _check(failures, abs(got - want) <= tol, f"{name}: {got:.6f} != {want:.6f}")
    _finish(failures)


def test_consistent_rounded_matrix_example(v2, rmpr_v2):
    failures = []
    from pcmkit.core import is_consistent

    _check(failures, is_consistent(rmpr_v2), "matrix should be consistent")
    report = compute_report(rmpr_v2)
    for name, got in [
        ("SI", report.si),
        ("GI", report.gi),
        ("KI", report.ki),
        ("ATI", report.ati),
    ]:
        _check(failures, abs(got) <= 1e-12, f"{name}: {got} not 0")
    expected = [1 / 3, 1 / 3, 1 / 6, 1 / 6]
    rev = rev_estimate(rmpr_v2).weights
    gm = gm_estimate(rmpr_v2)
    _check(failures, np.allclose(rev.weights, expected, atol=1e-10), f"REV {rev.weights}")
    _check(failures, np.allclose(gm.weights, expected, atol=1e-12), f"GM {gm.weights}")
    _check(
        failures,
        abs(avg_absolute_error(v2, rev) - 0.025) <= 1e-12,
        f"AE {avg_absolute_error(v2, rev)} != 0.025",
    )
    _check(
        failures,
        abs(avg_relative_error(v2, rev) - 0.1091) <= 5e-4,
        f"RE {avg_relative_error(v2, rev)} != 0.1091",
    )
    _finish(failures)


# ---------------------------------------------------------------------------
# stochastic reproduction criteria


def test_single_error_sweep_correlations():
    failures = []
    for n in (4, 5, 6, 7):
        s = run_mse_sf(n, n_runs=1000, n_e=25, seed=3)
        for name in INDEX_NAMES + ERROR_NAMES:
            _check(
                failures,
                s.min_spearman[name] == pytest.approx(1.0, abs=1e-12),
                f"n={n}: min per-run Spearman of {name} vs error magnitude is "
                f"{s.min_spearman[name]}, expected exactly 1",
            )
        for index in INDEX_NAMES:
            for error in ERROR_NAMES:
                key = f"{index}:{error}"
                _check(
                    failures,
                    s.pearson[key] > 0.95,
                    f"n={n}: mean Pearson {key} = {s.pearson[key]:.4f} <= 0.95",
                )
    _finish(failures)


# Frozen mean Spearman coefficients for the equal-error-count sweep
# (1000 setups): {target: {quantity: value}} per matrix order.
NEE_EXPECTED = {
    4: {
        "counts": {"si": 0.512, "gi": 0.495, "ki": -0.025, "ati": 0.627},
        "errors_vs_counts": {"ae_rev": 0.812, "re_rev": 0.869, "ae_gm": 0.847, "re_gm": 0.868},
        "ae_rev": {"si": 0.232, "gi": 0.214, "ki": -0.175, "ati": 0.362},
        "re_rev": {"si": 0.297, "gi": 0.280, "ki": -0.139, "ati": 0.423},
        "ae_gm": {"si": 0.285, "gi": 0.249, "ki": -0.135, "ati": 0.396},
        "re_gm": {"si": 0.298, "gi": 0.259, "ki": -0.131, "ati": 0.404},
    },
    7: {
        "counts": {"si": 0.735, "gi": 0.727, "ki": 0.005, "ati": 0.798},
        "errors_vs_counts": {"ae_rev": 0.877, "re_rev": 0.906, "ae_gm": 0.909, "re_gm": 0.927},
        "ae_rev": {"si": 0.538, "gi": 0.529, "ki": -0.068, "ati": 0.611},
        "re_rev": {"si": 0.579, "gi": 0.571, "ki": -0.050, "ati": 0.648},
        "ae_gm": {"si": 0.599, "gi": 0.591, "ki": -0.042, "ati": 0.668},
        "re_gm": {"si": 0.614, "gi": 0.605, "ki": -0.040, "ati": 0.682},
    },
}


def test_equal_error_count_sweep_mean_correlations():
    """EXPECTED TO FAIL: the sweep does not reproduce the frozen table.

    run_nee_sf applies one shared factor eps in [1.1, 1.8] cumulatively over a
    random order of all upper-triangle entries.  Its mean KI-vs-count
    coefficients are 0.170 (n=4) and 0.328 (n=7), where the frozen table
    wants -0.025 and 0.005; single runs do go negative (per-run minimum
    -0.926 at n=4, -0.522 at n=7), only the mean is positive.  39 of the 48
    frozen coefficients miss by more than 0.05.  Five other readings of the
    disturbance scheme (random eps or 1/eps per entry, independent eps per
    entry, a fresh random subset per count, positions drawn with replacement,
    rounding to the scale after each step) miss 32-46 of the 48, so the
    repository does not settle the reference scheme.  Kept red on purpose.

    SI's and GI's coefficients move with last-bit noise through ties.  Since
    batch_rev iterates on A^32, and since every matrix is built with
    a_ji == 1 / a_ij bit for bit (an undisturbed lower entry was v_j / v_i,
    at most 1 ulp away), the 6,000 n=4 records take 3,817 distinct SI values,
    against 4,736 when batch_rev iterated on A.  n=4 SI vs count reads 0.372,
    SI vs ae_rev/re_rev/ae_gm/re_gm 0.140/0.191/0.142/0.202, GI vs count
    0.350 and GI vs the errors 0.129/0.179/0.132/0.189; n=7 SI vs ae_rev and
    re_rev read 0.638 and 0.683.  Every other coefficient is unchanged to
    three decimals by either, and 39 of 48 still miss.
    """
    failures = []
    for n in (4, 7):
        s = run_nee_sf(n, n_r=200, n_p=5, seed=3)
        exp = NEE_EXPECTED[n]
        for index, want in exp["counts"].items():
            got = s.spearman[index]
            _check(failures, abs(got - want) <= 0.05, f"n={n} {index} vs count: {got:.3f} != {want}")
        for error, want in exp["errors_vs_counts"].items():
            got = s.spearman[error]
            _check(failures, abs(got - want) <= 0.05, f"n={n} {error} vs count: {got:.3f} != {want}")
        for error in ERROR_NAMES:
            for index, want in exp[error].items():
                got = s.spearman[f"{index}:{error}"]
                _check(
                    failures, abs(got - want) <= 0.05, f"n={n} {index} vs {error}: {got:.3f} != {want}"
                )
        # structural sub-checks
        targets = [None] + list(ERROR_NAMES)
        for error in targets:
            key = lambda idx: idx if error is None else f"{idx}:{error}"
            label = "count" if error is None else error
            ati = s.spearman[key("ati")]
            for other in ("si", "gi", "ki"):
                _check(
                    failures,
                    ati > s.spearman[key(other)],
                    f"n={n}: ATI ({ati:.3f}) does not dominate {other} "
                    f"({s.spearman[key(other)]:.3f}) for target {label}",
                )
            ki = s.spearman[key("ki")]
            _check(
                failures,
                -0.25 <= ki <= 0.05,
                f"n={n}: KI coefficient vs {label} is {ki:.3f}, outside [-0.25, 0.05]",
            )
    _finish(failures)


def _class_rank_correlations(records, index, error):
    summaries = summarize_classes(records, index, error, n_classes=15)
    means = [s.mean_index_value for s in summaries]
    return {
        stat: spearman(means, [getattr(s, stat) for s in summaries])
        for stat in ("q10", "median", "q90", "mean_error")
    }


# Frozen per-class mean absolute estimation errors (eigenvector method) for
# the 15 ATI classes of the n=4 big-error database.
MSOBE_N4_CLASS_MEAN_AE = [
    0.0191, 0.0223, 0.0256, 0.0280, 0.0294, 0.0344, 0.0358, 0.0373,
    0.0388, 0.0398, 0.0400, 0.0405, 0.0412, 0.0413, 0.0420,
]


def test_big_error_database_order_four():
    """EXPECTED TO FAIL in part: n=4 atomicity and a generator mismatch.

    Measured (block-keyed MSOBE stream): ATI class-mean rank agreement with
    q10 is 0.9821 and with the median 0.9929 (both want 1.0); SI against q10
    is 0.9893 (smoke 0.9714, both want <= 0.85); class mean AE misses by
    30.7%, 14.8%, 10.9% and 31.8% in classes 1, 4, 14 and 15.

    Part of this is intrinsic to n=4: rounded 4x4 matrices have only 4
    triads, so ATI takes 4,804 distinct values over 240,000 records, class 4
    holds 26,554 records, and the error quantiles jump there.  The reference
    n=4 table shows the same bump (q90 0.2762 in class 4, 0.2647 in class 5).

    That is not the whole cause: run_msobe_sf does not reproduce the
    embedded reference tables at any order.  Its 1/15 and 14/15 ATI class
    bounds are 0.175/0.631 at n=4 (table 0.173/0.611) and 0.220/0.504 at n=6
    (table 0.194/0.454), and per-class RE quantiles are off by up to 3x (n=4
    class 4 q90 0.868 against 0.2762).  Kept red on purpose.  These numbers
    are the same to four decimals whether batch_rev iterates on A or, as now,
    on A^32.
    """
    failures = []
    res = run_msobe_sf(4, 240_000, seed=1, workers=4)
    corr = _class_rank_correlations(res.records, "ati", "ae_rev")
    _check(failures, corr["q10"] == 1.0, f"ATI class-mean vs q10 Spearman {corr['q10']:.4f} != 1.0")
    _check(
        failures, corr["median"] == 1.0, f"ATI class-mean vs median Spearman {corr['median']:.4f} != 1.0"
    )
    _check(
        failures,
        corr["mean_error"] >= 0.98,
        f"ATI class-mean vs mean-error Spearman {corr['mean_error']:.4f} < 0.98",
    )
    si_corr = _class_rank_correlations(res.records, "si", "ae_rev")
    _check(
        failures,
        si_corr["q10"] <= 0.85,
        f"SI class-mean vs q10 Spearman {si_corr['q10']:.4f} > 0.85 (expected non-monotone, ~0.73)",
    )
    summaries = summarize_classes(res.records, "ati", "ae_rev", n_classes=15)
    for s, want in zip(summaries, MSOBE_N4_CLASS_MEAN_AE):
        rel = abs(s.mean_error - want) / want
        _check(
            failures,
            rel <= 0.10,
            f"class {s.class_index}: mean AE {s.mean_error:.4f} vs {want} "
            f"(relative deviation {rel:.1%} > 10%)",
        )
    # smoke profile: a tenth of the records must still give near-perfect
    # ATI rank agreement and show the SI weakness
    smoke = run_msobe_sf(4, 24_000, seed=2, workers=4)
    smoke_corr = _class_rank_correlations(smoke.records, "ati", "ae_rev")
    for stat in ("q10", "median", "mean_error"):
        _check(
            failures,
            smoke_corr[stat] >= 0.95,
            f"smoke: ATI vs {stat} Spearman {smoke_corr[stat]:.4f} < 0.95",
        )
    smoke_si = _class_rank_correlations(smoke.records, "si", "ae_rev")
    _check(
        failures,
        smoke_si["q10"] <= 0.85,
        f"smoke: SI vs q10 Spearman {smoke_si['q10']:.4f} > 0.85",
    )
    _finish(failures)


def test_big_error_database_order_six():
    failures = []
    res = run_msobe_sf(6, 240_000, seed=1, workers=4)
    corr = _class_rank_correlations(res.records, "ati", "ae_rev")
    for stat, got in corr.items():
        _check(failures, got == 1.0, f"ATI class-mean vs {stat} Spearman {got:.4f} != 1.0")
    _finish(failures)


# ---------------------------------------------------------------------------
# property criteria


def test_index_properties_random_pcms():
    """Index and estimator properties over random and constructed PCMs.

    Random reciprocal matrices of orders 3..9: ATI <= KI, no negative index,
    REV agrees with the dense eigensolver, and indices and estimators are
    permutation invariant/equivariant.  Each matrix is analysed once, by
    compute_report; on every tenth, the kernels it reads (batch_si of
    rev_estimate's lambda_max, batch_gi of batch_gm, batch_ki_ati),
    rev_estimate and gm_estimate give exactly the report's values.  Consistent matrices score zero on
    every index.  A consistent matrix with exactly one disturbed entry has
    n-2 inconsistent triads of equal value t, so KI (the maximum) is t and
    ATI (the mean over all C(n,3) triads) is (n-2)/C(n,3) * t; the two
    coincide only at n=3.
    """
    failures = []
    rng = np.random.default_rng(2024)
    scale_vals = SAATY_SCALE
    bad_ati_le_ki = bad_nonneg = bad_perm = bad_eig = bad_scalar = 0
    for k in range(10_000):
        n = 3 + k % 7  # orders 3..9
        m = random_reciprocal_pcm(rng, n, scale_vals)
        a = np.array(m.entries)
        # one REV and one GM per matrix; the kernels are checked against them below
        rep = compute_report(m)
        si, gi, ki, ati, res = rep.si, rep.gi, rep.ki, rep.ati, rep.rev
        if not ati <= ki + 1e-15:
            bad_ati_le_ki += 1
        if min(si, gi, ki, ati) < 0:
            bad_nonneg += 1
        # REV against the dense eigensolver
        vals, vecs = np.linalg.eig(a)
        idx = int(np.argmax(vals.real))
        w = np.abs(vecs[:, idx].real)
        w /= w.sum()
        if abs(res.lambda_max - vals[idx].real) > 1e-7 or np.max(
            np.abs(res.weights.weights - w)
        ) > 1e-7:
            bad_eig += 1
        if k % 10 == 0:
            # the kernels and the scalar estimators give exactly the report's values
            rev, gm = rev_estimate(m), gm_estimate(m)
            if (
                (batch_si(rev.lambda_max, n), batch_gi(a, batch_gm(a)), *batch_ki_ati(a))
                != (si, gi, ki, ati)
                or (rev.lambda_max, rev.iterations, rev.residual) != (res.lambda_max, res.iterations, res.residual)
                or not np.array_equal(rev.weights.weights, res.weights.weights)
                or not np.array_equal(gm.weights, rep.gm.weights)
            ):
                bad_scalar += 1
            # permutation invariance of indices and equivariance of estimators
            perm = rng.permutation(n)
            p = compute_report(Pcm(a[np.ix_(perm, perm)]))
            if (
                abs(p.si - si) > 1e-9
                or abs(p.gi - gi) > 1e-12
                or abs(p.ki - ki) > 1e-12
                or abs(p.ati - ati) > 1e-12
            ):
                bad_perm += 1
            if np.max(np.abs(p.rev.weights.weights - res.weights.weights[perm])) > 1e-9:
                bad_perm += 1
            if np.max(np.abs(p.gm.weights - rep.gm.weights[perm])) > 1e-9:
                bad_perm += 1
    _check(failures, bad_ati_le_ki == 0, f"{bad_ati_le_ki} matrices violated ATI <= KI")
    _check(failures, bad_nonneg == 0, f"{bad_nonneg} matrices produced a negative index")
    _check(failures, bad_eig == 0, f"{bad_eig} matrices off the eigensolver oracle by > 1e-7")
    _check(failures, bad_perm == 0, f"{bad_perm} permutation-invariance violations")
    _check(failures, bad_scalar == 0, f"{bad_scalar} matrices where a kernel or estimator differs from compute_report")
    # consistent matrices score zero on every index
    for n in range(3, 10):
        w = PriorityVector.normalized(rng.uniform(0.2, 1.0, size=n)).weights
        m = Pcm(w[:, None] / w[None, :])
        report = compute_report(m)
        worst = max(abs(report.si), report.gi, report.ki, report.ati)
        _check(failures, worst <= 1e-10, f"consistent n={n}: max index {worst} > 1e-10")
    # one disturbed entry: n-2 inconsistent triads, each with TI = 1 - 1/1.5
    for n in range(3, 10):
        w = PriorityVector.normalized(rng.uniform(0.2, 1.0, size=n)).weights
        a = Pcm(w[:, None] / w[None, :]).entries.copy()
        a[0, 1] *= 1.5
        a[1, 0] = 1 / a[0, 1]
        m = Pcm(a)
        inconsistent = int(np.count_nonzero(triad_values(m) > 1e-12))
        report = compute_report(m)
        ati, ki = report.ati, report.ki
        share = (n - 2) / math.comb(n, 3)
        _check(
            failures,
            inconsistent == n - 2,
            f"single error, n={n}: {inconsistent} inconsistent triads != n-2 = {n - 2}",
        )
        _check(
            failures,
            ki == pytest.approx(1.0 / 3.0, abs=1e-12),
            f"single error, n={n}: KI {ki:.15f} != 1 - 1/1.5",
        )
        _check(
            failures,
            ati == pytest.approx(share * ki, abs=1e-12),
            f"single error, n={n}: ATI {ati:.15f} != (n-2)/C(n,3) * KI = {share * ki:.15f}",
        )
    _finish(failures)


def test_builtin_table_integrity():
    failures = []
    data = resources.files("pcmkit.data").joinpath("appendix_tables.csv").read_bytes()
    _check(
        failures,
        hashlib.sha256(data).hexdigest() == BUILTIN_DATA_SHA256,
        "builtin data checksum mismatch",
    )
    for n in (4, 5, 6, 7):
        for method in ("REV", "GM"):
            table = builtin_table(n, method)  # constructor enforces row invariants
            _check(failures, len(table.rows) == 15, f"{n}/{method}: {len(table.rows)} rows")
            for row in table.rows:
                _check(
                    failures,
                    row.q10 <= row.median <= row.q90,
                    f"{n}/{method} class {row.class_index}: quantiles out of order",
                )
            suspects = [r.class_index for r in table.rows if r.suspect_mean]
            if (n, method) == (7, "GM"):
                _check(failures, suspects == [1], f"expected only class 1 suspect, got {suspects}")
            else:
                _check(failures, suspects == [], f"{n}/{method}: unexpected suspects {suspects}")
    _finish(failures)


def test_simulation_determinism(tmp_path):
    from pcmkit.cli import EXIT_OK, main

    failures = []
    out = {}
    for workers in (1, 3):
        path = tmp_path / f"msobe_w{workers}.csv"
        code = main(
            [
                "simulate",
                "msobe",
                "--n",
                "4",
                "--total",
                "8192",
                "--seed",
                "11",
                "--workers",
                str(workers),
                "--out",
                str(path),
            ]
        )
        _check(failures, code == EXIT_OK, f"msobe workers={workers} exit code {code}")
        out[workers] = path.read_bytes()
    _check(failures, out[1] == out[3], "different worker counts changed the database bytes")
    for framework, extra in (("mse", ["--runs", "50"]), ("nee", ["--nr", "10"])):
        blobs = []
        for rep in (1, 2):
            path = tmp_path / f"{framework}_{rep}.csv"
            code = main(
                ["simulate", framework, "--n", "4", "--seed", "11", *extra, "--out", str(path)]
            )
            _check(failures, code == EXIT_OK, f"{framework} run {rep} exit code {code}")
            blobs.append(path.read_bytes())
        _check(failures, blobs[0] == blobs[1], f"{framework}: repeated run differs")
    _finish(failures)
