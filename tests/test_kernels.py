"""Batched kernels: a stack gives what each matrix gives alone, bit for bit.

The scalar API calls the same kernels on one matrix, so these tests also pin
the scalar and the Monte Carlo paths to each other.  A per-matrix power
iteration loop on the same scaled power of A, a per-sample ASI loop, a
broadcast nearest-value rounding and per-run MSE-SF / NEE-SF loops serve as
references.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from pcmkit import prioritize, simulate, stats
from pcmkit.core import _VECTOR_SUMS, SAATY_SCALE, Pcm, _sum_in_order, round_matrix_to_scale
from pcmkit.indices import batch_gi, batch_ki_ati, batch_si, compute_report, estimate_asi, triad_values
from pcmkit.loss import batch_absolute_error, batch_losses, batch_relative_error
from pcmkit.prioritize import SQUARINGS, batch_gm, batch_rev
from pcmkit.stats import average_ranks, pearson_pairs

STACK = 48  # below core._VECTOR_SUMS, so the left-to-right sums over a stack take np.cumsum
BIG_STACK = _VECTOR_SUMS + STACK  # and at or above it, one vector add per term


def random_stack(rng, n, size):
    """Reciprocal matrices; even records scale-valued, odd ones continuous."""
    iu, ju = np.triu_indices(n, k=1)
    upper = rng.uniform(0.2, 5.0, size=(size, iu.size))
    upper[::2] = rng.choice(SAATY_SCALE, size=upper[::2].shape)
    a = np.ones((size, n, n))
    a[:, iu, ju] = upper
    a[:, ju, iu] = 1.0 / upper
    return a


def scaled_powers(a):
    """A squared SQUARINGS times, each square divided by its own (0,0) entry, as batch_rev squares it."""
    p = a
    for _ in range(SQUARINGS):
        p = p @ p
        p /= p[..., :1, :1]
    return p


def reference_rev(a, tol=1e-12, max_iter=10_000):
    """Power iteration on one matrix's scaled power, step for step as batch_rev does it; lambda_max off A."""
    n = a.shape[0]
    p = scaled_powers(a)
    w = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        y = p @ w
        y /= y.sum()
        done = bool(np.all(np.abs(y - w) <= tol * y))
        w = y
        if done:
            break
    return w, float(np.mean((a @ w) / w)), it


@pytest.mark.parametrize("n", range(3, 16))
def test_stack_equals_each_matrix_alone(n):
    """On a stack of STACK and one of BIG_STACK, so each left-to-right sum runs in both its forms."""
    rng = np.random.default_rng(500 + n)
    for size in (STACK, BIG_STACK):
        a = random_stack(rng, n, size)
        v = rng.dirichlet(np.ones(n), size=size)
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
        for k in range(0, size, size // STACK):
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
                assert np.array_equal(stacked[name][k], value), (size, k, name)


def python_sum(x):
    """Sum along the last axis in Python floats, from the first entry to the last."""
    x = np.asarray(x)
    totals = []
    for row in x.reshape(-1, x.shape[-1]).tolist():
        total = row[0]
        for term in row[1:]:
            total += term
        totals.append(total)
    return np.array(totals).reshape(x.shape[:-1])


@pytest.mark.parametrize("axis", [0, -1])
@pytest.mark.parametrize("sums", [1, _VECTOR_SUMS - 1, _VECTOR_SUMS, 1024])
def test_sum_in_order_adds_left_to_right(sums, axis):
    """Both forms of core._sum_in_order, along either axis, are a Python loop's sum bit for bit, NaN and inf included."""
    rng = np.random.default_rng(sums)
    rows = rng.standard_normal((sums, 35)) * 10.0 ** rng.integers(-6, 7, (sums, 35))
    rows[0] = 1.0
    rows[0, 0] = 2.0**53  # added left to right, each 1 rounds away; in any other order some do not
    rows[3::7, 4] = np.nan
    rows[4::7, 9] = np.inf
    rows[5::7, 9:11] = np.inf, -np.inf
    want = python_sum(rows)
    x = rows if axis == -1 else np.ascontiguousarray(rows.T)
    with np.errstate(invalid="ignore"):  # inf + -inf
        got = _sum_in_order(x, axis)
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
    if sums == 1:
        alone = _sum_in_order(rows[0])
        assert type(alone) is np.float64 and alone == want[0] == 2.0**53


@pytest.mark.parametrize("runs", [40, _VECTOR_SUMS])
def test_sum_in_order_on_the_tally_view(runs):
    """The correlation tally's (2, runs + 1, 24) terms, summed along axis 1 and on their strided swapaxes view."""
    terms = np.random.default_rng(runs).standard_normal((2, runs + 1, 24))
    terms[0, :, 0] = 1.0
    terms[0, 0, 0] = 2.0**53
    want = python_sum(terms.swapaxes(1, 2))
    assert want[0, 0] == 2.0**53
    assert np.array_equal(_sum_in_order(terms, axis=1), want)
    assert np.array_equal(_sum_in_order(terms.swapaxes(1, 2)), want)


def component_order_forms(a, v, w_rev, w_gm, row_sum):
    """GM weights, lambda_max and the four losses of a stack, each mean a row_sum over n.

    With numpy's row sum these are the np.mean forms, as np.mean divides that sum by n.
    """
    n = a.shape[-1]
    g = np.exp(row_sum(np.log(a)) / n)
    forms = {"gm": g / row_sum(g)[..., None], "lam": row_sum(np.einsum("bij,bj->bi", a, w_rev) / w_rev) / n}
    for name, w in (("rev", w_rev), ("gm", w_gm)):
        forms["ae_" + name] = row_sum(np.abs(v - w)) / n
        forms["re_" + name] = row_sum(np.abs(v - w) / v) / n
    return forms


@pytest.mark.parametrize("n", range(3, 13))
def test_component_sums_run_left_to_right(n):
    """GM, lambda_max and the losses add the n components left to right, on a stack and on each record alone.

    Up to n = 7 that is also numpy's row mean bit for bit; from 8 on numpy's row sum is pairwise.
    """
    rng = np.random.default_rng(300 + n)
    for size in (STACK, BIG_STACK):
        a = random_stack(rng, n, size)
        v = rng.dirichlet(np.ones(n), size=size)
        w_rev, lam = batch_rev(a)[:2]
        w_gm = batch_gm(a)
        got = {"gm": w_gm, "lam": lam, **batch_losses(v, w_rev, w_gm)}
        want = component_order_forms(a, v, w_rev, w_gm, python_sum)
        for name in want:
            assert np.array_equal(got[name], want[name]), (size, name)
        for k in range(0, size, size // STACK):
            alone = {"gm": batch_gm(a[k]), "lam": batch_rev(a[k : k + 1])[1][0],
                     **batch_losses(v[k], w_rev[k], w_gm[k])}
            for name in want:
                assert np.array_equal(alone[name], want[name][k]), (size, k, name)
        if n <= 7:
            numpy_forms = component_order_forms(a, v, w_rev, w_gm, lambda x: np.sum(x, axis=-1))
            for name in want:
                assert np.array_equal(got[name], numpy_forms[name]), (size, name)


@pytest.mark.parametrize("n", [4, 7])
def test_record_equals_analyze_of_its_matrix(n):
    """A database record's indices and losses are what analyze gives its matrix and true vector, bit for bit."""
    total = simulate._chunk_records(4) + 400  # records of more than one chunk
    records = simulate.run_msobe_sf(n, total, seed=31).records
    a, v = simulate._msobe_matrices(n, 0, total, total, simulate.BigErrorModel(), 31)[:2]
    for k in range(0, len(records["vector_id"]), 13):
        rid = records["vector_id"][k]
        rep = compute_report(Pcm(a[rid]))
        losses = batch_losses(v[rid], rep.rev.weights.weights, rep.gm.weights)
        for name, value in {**rep.as_dict(), **losses}.items():
            if name != "cr":
                assert records[name][k] == value, (rid, name)


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


def saaty_stack(rng, n, size):
    """Reciprocal matrices with every upper entry drawn from the Saaty scale, as estimate_asi draws them."""
    iu, ju = np.triu_indices(n, k=1)
    a = np.ones((size, n, n))
    a[:, iu, ju] = rng.choice(SAATY_SCALE, size=(size, iu.size))
    a[:, ju, iu] = 1.0 / a[:, iu, ju]
    return a


def lazy_stack(rng, n, size):
    """Saaty matrices pulled toward the identity, t A + (1 - t) I with t spread over [1e-3, 1].

    Each keeps A's Perron vector while its eigenvalue gap shrinks with t, so
    even A^32 needs from 2 to over 40 passes across the stack.
    """
    t = np.geomspace(1e-3, 1.0, size)[rng.permutation(size)][:, None, None]
    return t * saaty_stack(rng, n, size) + (1 - t) * np.eye(n)


def cut_rev(a, max_iter):
    """batch_rev with prioritize.MAX_ITER set to max_iter for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prioritize, "MAX_ITER", max_iter)
        return batch_rev(a)


def row_wise_rev(a, normaliser, tol=1e-12, max_iter=10_000):
    """batch_rev with each pass reducing along every record's row: einsum, y / normaliser(y), row-wise all.

    lambda_max is normaliser of the Rayleigh ratios over n, so it adds them in the order the passes do.
    """
    a = np.ascontiguousarray(a)
    b, n, _ = a.shape
    p = scaled_powers(a)
    w = np.full((b, n), 1.0 / n)
    iterations = np.full(b, max_iter)
    converged = np.zeros(b, dtype=bool)
    p_act, w_act, idx = p, w, np.arange(b)
    for it in range(1, max_iter + 1):
        y = np.einsum("bij,bj->bi", p_act, w_act)
        y /= normaliser(y)
        done = (np.abs(y - w_act) <= tol * y).all(axis=1)
        w[idx[done]], iterations[idx[done]], converged[idx[done]] = y[done], it, True
        idx, w_act = idx[~done], y[~done]
        p_act = p[idx]
        if not idx.size:
            break
    w[idx] = w_act
    aw = np.einsum("bij,bj->bi", a, w)
    lam = normaliser(aw / w)[:, 0] / n
    residual = np.max(np.abs(aw - lam[:, None] * w), axis=1)
    return w, lam, iterations, residual, converged


def row_sum(y):
    """numpy's row sum: left to right below 8 terms, pairwise from 8 on."""
    return y.sum(axis=1, keepdims=True)


def left_to_right(y):
    return np.cumsum(y, axis=1)[:, -1:]


def rev_cases(n):
    """Random and Saaty stacks of order n, whole and as one-record stacks, with and without a max_iter cut-off."""
    rng = np.random.default_rng(70 + n)
    for a in (random_stack(rng, n, STACK), saaty_stack(rng, n, 120)):
        cut = max(1, int(np.median(batch_rev(a)[2])) - 1)
        for stack in (a, a[:1], a[-1:]):
            for max_iter in (10_000, cut):
                yield stack, max_iter


@pytest.mark.parametrize(
    "n, normaliser", [(n, row_sum) for n in range(1, 8)] + [(n, left_to_right) for n in range(8, 11)]
)
def test_rev_equals_row_wise_passes(n, normaliser):
    """Up to 7 components batch_rev repeats row-sum passes bit for bit; from 8 on it still adds left to right."""
    for a, max_iter in rev_cases(n):
        for got, want in zip(cut_rev(a, max_iter), row_wise_rev(a, normaliser, max_iter=max_iter)):
            assert np.array_equal(got, want)


def assert_rev_record(rev, k, a, max_iter=10_000):
    """Record k of a batch_rev result is batch_rev of its matrix alone, and follows reference_rev step for step."""
    for whole, alone in zip(rev, cut_rev(a[k : k + 1], max_iter)):
        assert np.array_equal(whole[k], alone[0])
    w_ref, lam_ref, it_ref = reference_rev(a[k], max_iter=max_iter)
    assert np.max(np.abs(rev[0][k] - w_ref)) <= 1e-12 and abs(rev[1][k] - lam_ref) <= 1e-12
    assert rev[2][k] == it_ref


@pytest.mark.parametrize("n", range(3, 10))
def test_rev_on_spread_iteration_counts(n):
    """Lazy Saaty stacks stop records over a wide range of passes; each record is as if alone."""
    a = lazy_stack(np.random.default_rng(40 + n), n, 120)
    rev = batch_rev(a)
    assert rev[4].all() and np.ptp(rev[2]) >= 10
    for k in range(len(a)):
        assert_rev_record(rev, k, a)


def test_rev_cut_off_record_keeps_its_last_iterate():
    a = lazy_stack(np.random.default_rng(3), 6, 64)
    counts = batch_rev(a)[2]
    slowest = int(np.argmax(counts))
    max_iter = int(counts[slowest]) - 1
    assert np.count_nonzero(counts > max_iter) == 1
    rev = cut_rev(a, max_iter)
    assert np.array_equal(rev[4], counts <= max_iter)
    assert rev[2][slowest] == max_iter
    for k in range(len(a)):
        assert_rev_record(rev, k, a, max_iter)


def test_rev_stops_on_its_own_iteration_count():
    a = saaty_stack(np.random.default_rng(4), 5, 1)
    k = int(batch_rev(a)[2][0])
    _, _, iterations, _, converged = cut_rev(a, k)
    assert converged[0] and iterations[0] == k
    _, _, iterations, _, converged = cut_rev(a, k - 1)
    assert not converged[0] and iterations[0] == k - 1


@pytest.mark.parametrize("layout", ["fortran", "strided", "transposed-view"])
def test_rev_of_non_contiguous_stack_equals_contiguous_copy(layout):
    a = saaty_stack(np.random.default_rng(5), 7, 96)
    view = {
        "fortran": lambda: np.asfortranarray(a),
        "strided": lambda: a[::3],
        "transposed-view": lambda: np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1),
    }[layout]()
    assert not view.flags.c_contiguous
    copy = np.ascontiguousarray(view)
    rev = batch_rev(view)
    for got, want in zip(rev, batch_rev(copy)):
        assert np.array_equal(got, want)
    for k in range(len(copy)):
        assert_rev_record(rev, k, copy)


@pytest.mark.parametrize("n", range(3, 10))
def test_asi_matches_per_sample_loop(n):
    sample_size = 60
    rng = np.random.default_rng(7)
    iu, ju = np.triu_indices(n, k=1)
    total = 0.0
    for _ in range(sample_size):
        a = np.ones((n, n))
        a[iu, ju] = rng.choice(SAATY_SCALE, size=iu.size)
        a[ju, iu] = 1.0 / a[iu, ju]
        total += (reference_rev(a)[1] - n) / (n - 1)
    assert abs(estimate_asi(n, sample_size, seed=7) - total / sample_size) <= 1e-12


def reference_round(values, vals):
    """Nearest scale value by a broadcast argmin; on the reversed distances it picks the upper of a tie."""
    d = np.abs(np.asarray(values, dtype=float)[..., None] - vals)
    return vals[(len(vals) - 1) - np.argmin(d[..., ::-1], axis=-1)]


def reference_switch_point(lo, hi, vals):
    """The smallest float the reference rounds to hi, by bisection on the bit patterns between lo and hi."""
    below, above = int(np.float64(lo).view(np.int64)), int(np.float64(hi).view(np.int64))
    while above - below > 1:
        mid = (below + above) // 2
        if reference_round(np.int64(mid).view(np.float64), vals) == hi:
            above = mid
        else:
            below = mid
    return np.int64(above).view(np.float64)


@pytest.mark.parametrize("vals", [SAATY_SCALE], ids=["saaty"])
def test_rounding_equals_argmin_reference(vals):
    rng = np.random.default_rng(11)
    mids = (vals[1:] + vals[:-1]) / 2
    switches = np.array([reference_switch_point(lo, hi, vals) for lo, hi in zip(vals[:-1], vals[1:])])
    uniform = np.exp(rng.uniform(-3.0, 3.0, size=(4096, 21)))
    cases = [
        uniform,
        mids,
        np.nextafter(mids, 0.0),
        np.nextafter(mids, np.inf),
        vals,
        np.array([5e-324, 1e-300, 1e-3, vals[0] / 2, vals[-1] * 2, 1e300, 1.7e308, np.inf]),
        (switches.view(np.int64)[:, None] + np.arange(-64, 65)).view(np.float64),  # +-64 ulps
        np.array(mids[5]),  # 0-d; the float midpoint of 1/4 and 1/3, 1 ulp below their switch point
        uniform.T[::3, ::2],  # non-contiguous
        uniform.astype(">f8"),  # big-endian
        uniform[:192].reshape(32, 6, 21),  # (runs, steps, pairs)
    ]
    for x in cases:
        assert np.array_equal(round_matrix_to_scale(x), reference_round(x, vals))
        assert np.shape(round_matrix_to_scale(x)) == np.shape(x)
    tie = np.abs(vals[1:] - mids) == np.abs(mids - vals[:-1])  # exact in floating point
    assert tie.any() and np.array_equal(round_matrix_to_scale(mids[tie]), vals[1:][tie])


def test_rounding_rejects_nan():
    with pytest.raises(ValueError):
        round_matrix_to_scale([2.0, np.nan])


def test_correlation_rows_equal_each_row_alone():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 6, size=(12, 25)).astype(float)  # ties
    y = x + rng.normal(size=x.shape)
    y[4] = 2.0  # zero variance gives NaN, not an error
    r = pearson_pairs(np.stack([x, y], axis=1), [0], [1])
    ranks = average_ranks(x)
    assert np.isnan(r[4])
    for k in range(x.shape[0]):
        assert np.array_equal(r[k], pearson_pairs(np.stack([x[k], y[k]]), [0], [1]), equal_nan=True)
        assert np.array_equal(ranks[k], average_ranks(x[k]))


def gathered_pearson(x, y):
    """Pearson coefficients of paired rows, each pair centred and normed on its own."""
    xd = x - x.mean(axis=-1, keepdims=True)
    yd = y - y.mean(axis=-1, keepdims=True)
    denom = np.sqrt((xd * xd).sum(axis=-1) * (yd * yd).sum(axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom == 0, np.nan, (xd * yd).sum(axis=-1) / denom)
    return np.clip(r, -1.0, 1.0)


@pytest.mark.parametrize("runs", [1, 40])
def test_pearson_pairs_equal_gathered_pairs(runs):
    """The tally's pairs of tracked rows, values and ranks, with ties and a constant row, as each pair alone."""
    rng = np.random.default_rng(runs)
    x, y = simulate._PAIR_ROWS
    values = rng.integers(0, 6, size=(runs, len(simulate.TRACKED_NAMES) + 1, 25)).astype(float)
    values[:, 4:] += rng.normal(size=values[:, 4:].shape)
    values[0, 2] = 2.0  # zero variance: NaN in every pair that holds the row
    for rows in (values, average_ranks(values)):
        got = pearson_pairs(rows, x, y)
        assert got.shape == (runs, x.size)
        assert np.isnan(got[0, (x == 2) | (y == 2)]).all() and not np.isnan(got[0, (x != 2) & (y != 2)]).any()
        assert np.array_equal(got, gathered_pearson(rows[:, x], rows[:, y]), equal_nan=True)


# ---------------------------------------------------------------------------
# MSE-SF and NEE-SF: block by block against one run at a time

CORRELATED_PAIRS = [(t, "target") for t in simulate.TRACKED_NAMES] + [
    (i, e) for i in simulate.INDEX_NAMES for e in simulate.ERROR_NAMES
]
CORRELATION_KEYS = simulate.TRACKED_NAMES + tuple(f"{i}:{e}" for i, e in CORRELATED_PAIRS[8:])


class ReferenceTally:
    """Per-run coefficients of each pair alone, summed one run after another."""

    def __init__(self):
        self.sums = {kind: dict.fromkeys(CORRELATION_KEYS, 0.0) for kind in ("spearman", "pearson")}
        self.counts = {kind: dict.fromkeys(CORRELATION_KEYS, 0) for kind in ("spearman", "pearson")}
        self.minima = dict.fromkeys(CORRELATION_KEYS, np.inf)

    def add(self, vectors, target):
        rows = {**vectors, "target": target}
        for key, (x, y) in zip(CORRELATION_KEYS, CORRELATED_PAIRS):
            s = float(gathered_pearson(average_ranks(rows[x]), average_ranks(rows[y])))
            p = float(gathered_pearson(rows[x], rows[y]))
            for kind, value in (("spearman", s), ("pearson", p)):
                if not np.isnan(value):
                    self.sums[kind][key] += value
                    self.counts[kind][key] += 1
            if not np.isnan(s):
                self.minima[key] = min(self.minima[key], s)

    def summary(self, runs, skipped):
        means = {
            kind: {k: self.sums[kind][k] / c for k, c in self.counts[kind].items() if c}
            for kind in ("spearman", "pearson")
        }
        minima = {k: self.minima[k] for k, c in self.counts["spearman"].items() if c}
        return dict(runs=runs, skipped=skipped, min_spearman=minima, **means)


BLOCK = 1024  # runs or vectors per generator


def block_rng(seed, key, block):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, block)))


def true_vector(n, seed, vector):
    """Vector `vector` of the stream: a row of its vector block's exponentials, normalised."""
    e = block_rng(seed, 0, vector // BLOCK).standard_exponential((BLOCK, n))[vector % BLOCK]
    return e / e.sum()


def run_uniforms(seed, run, width):
    """Run `run`'s row of its run block's row-major uniforms, drawn only up to that row."""
    row = run % BLOCK
    return block_rng(seed, 1, run // BLOCK).random((row + 1, width))[row]


def perfect_matrix(v, pairs):
    """The ratio matrix of v with the frameworks' one rule: every lower entry is 1 / (v_i / v_j)."""
    m = v[:, None] / v[None, :]
    for i, j in pairs:
        m[j, i] = 1.0 / m[i, j]
    return m


def mse_run(n, n_e, seed, r):
    """Run r of run_mse_sf: its (n_e, n, n) stack, true vector and error magnitudes, one entry set at a time."""
    pairs = list(itertools.combinations(range(n), 2))
    v = true_vector(n, seed, r)
    u = run_uniforms(seed, r, 2)
    i, j = pairs[int(u[0] * len(pairs))]
    lo, hi = simulate.MSE_EPS_RANGE
    eps = lo + (hi - lo) * u[1]
    m = perfect_matrix(v, pairs)
    factors = eps ** np.arange(1, n_e + 1)
    a = np.broadcast_to(m, (n_e, n, n)).copy()
    a[:, i, j] = m[i, j] * factors
    a[:, j, i] = 1.0 / a[:, i, j]
    return a, v, factors


def nee_run(n, n_p, seed, q):
    """Run q of run_nee_sf (vector q // n_p), disturbing one entry per step in a loop."""
    pairs = list(itertools.combinations(range(n), 2))
    k_steps = len(pairs)
    v = true_vector(n, seed, q // n_p)
    u = run_uniforms(seed, q, k_steps + 1)
    lo, hi = simulate.NEE_EPS_RANGE
    eps = lo + (hi - lo) * u[-1]
    m = perfect_matrix(v, pairs)
    a = np.empty((k_steps, n, n))
    cur = m.copy()
    for step, t in enumerate(np.argsort(u[:-1], kind="stable")):
        i, j = pairs[int(t)]
        cur[i, j] = m[i, j] * eps
        cur[j, i] = 1.0 / cur[i, j]
        a[step] = cur
    return a, v, np.arange(1.0, k_steps + 1)


def reference_tally(runs, skip_run):
    """One _batch_metrics call per run of (a, v, target); skip_run is dropped as if it failed."""
    tally, skipped = ReferenceTally(), 0
    for r, (a, v, target) in enumerate(runs):
        vectors, failed = simulate._batch_metrics(a, np.broadcast_to(v, (len(a), len(v))))
        if failed.any() or r == skip_run:
            skipped += 1
            continue
        tally.add(vectors, target)
    return tally.summary(r + 1 - skipped, skipped)


def reference_mse(n, n_runs, n_e, seed=0, skip_run=None):
    """run_mse_sf one run at a time."""
    return reference_tally((mse_run(n, n_e, seed, r) for r in range(n_runs)), skip_run)


def reference_nee(n, n_r, n_p, seed=0, skip_run=None):
    """run_nee_sf one run at a time; run r * n_p + p is order p of vector r."""
    return reference_tally((nee_run(n, n_p, seed, q) for q in range(n_r * n_p)), skip_run)


def assert_same_summary(summary, reference):
    """Equal bit for bit: the blocks keep each run's arithmetic and add the runs in order."""
    got = summary.as_dict()
    assert (got["runs"], got["skipped"]) == (reference["runs"], reference["skipped"])
    for kind in ("spearman", "pearson", "min_spearman"):
        assert got[kind] == reference[kind], kind


# (framework, n, sizes, runs, steps per run): each spans more than one block.
FRAMEWORKS = [
    ("mse", 5, dict(n_runs=400, n_e=25), 400, 25),
    ("nee", 7, dict(n_r=60, n_p=5), 300, 21),
]
RUN_FUNCTIONS = {"mse": (simulate.run_mse_sf, reference_mse), "nee": (simulate.run_nee_sf, reference_nee)}


@pytest.mark.parametrize("framework, n, sizes, runs, steps", FRAMEWORKS)
def test_correlation_frameworks_match_per_run_loop(framework, n, sizes, runs, steps):
    run, reference = RUN_FUNCTIONS[framework]
    assert runs * steps > simulate._stack_matrices(n)
    assert_same_summary(run(n, **sizes, seed=4), reference(n, **sizes, seed=4))


@pytest.mark.parametrize("framework, n, sizes, runs, steps", FRAMEWORKS)
def test_non_converged_record_skips_its_whole_run(monkeypatch, framework, n, sizes, runs, steps):
    run, reference = RUN_FUNCTIONS[framework]
    batch_metrics, stack_sizes = simulate._batch_metrics, []
    flagged_run = 11

    def one_failure(a, v):
        metrics, failed = batch_metrics(a, v)
        if not stack_sizes:
            failed[flagged_run * steps + 3] = True
        stack_sizes.append(len(a))
        return metrics, failed

    # Where each kernel is looked up: the tally calls both correlation kernels, and the Spearman one ranks.
    homes = {"average_ranks": stats, "spearman_pairs": simulate, "pearson_pairs": simulate}
    calls = dict.fromkeys(homes, 0)

    def counted(name):
        function = getattr(homes[name], name)

        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    monkeypatch.setattr(simulate, "_batch_metrics", one_failure)
    for name, module in homes.items():
        monkeypatch.setattr(module, name, counted(name))
    summary = run(n, **sizes, seed=5)
    monkeypatch.undo()
    assert (summary.runs, summary.skipped) == (runs - 1, 1)
    # Per block of whole runs (one stack of at most _stack_matrices(n)): one metrics call,
    # one ranking call and two correlation calls, over the ranks and over the values.
    blocks = len(stack_sizes)
    assert sum(stack_sizes) == runs * steps and blocks >= 2
    assert all(size % steps == 0 for size in stack_sizes)
    assert max(stack_sizes) <= simulate._stack_matrices(n)
    assert calls == dict.fromkeys(homes, blocks)
    assert_same_summary(summary, reference(n, **sizes, seed=5, skip_run=flagged_run))


@pytest.mark.parametrize("framework", ["mse", "nee"])
def test_run_replays_from_its_blocks_generators(framework):
    """Run 1030 of an 1105-run call from its run block's and vector block's generators alone: the stream, pinned."""
    if framework == "mse":
        blocks, want = simulate._mse_stacks(4, n_runs=1105, n_e=3, seed=8), mse_run(4, 3, 8, 1030)
    else:
        blocks, want = simulate._nee_stacks(4, n_r=221, n_p=5, seed=8), nee_run(4, 5, 8, 1030)
    for parts, value in zip(zip(*blocks), want):  # the stack, the true vectors, the driving variable
        assert np.array_equal(np.concatenate(parts)[1030], value)


def test_correlation_memory_does_not_grow_with_runs():
    def peak(n_runs):
        assert n_runs * 25 > simulate._stack_matrices(5)
        tracemalloc.start()
        try:
            simulate.run_mse_sf(5, n_runs=n_runs, n_e=25)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) <= 1.5 * peak(400)
