"""Statistics helpers against scipy/numpy oracles."""

from dataclasses import astuple

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmkit.simulate import ERROR_NAMES, INDEX_NAMES, run_msobe_sf
from pcmkit.stats import (
    ClassPartition,
    ClassSummary,
    DegenerateDataError,
    PartitionError,
    assign_classes,
    average_ranks,
    make_partition,
    pearson,
    pearson_pairs,
    spearman,
    spearman_pairs,
    spearman_or_nan,
    summarize_classes,
)
from pcmkit.stats import _linear_quantiles


def loop_average_ranks(x):
    """The one-dimensional tie loop that average_ranks replaced."""
    xa = np.asarray(x, dtype=float)
    order = np.argsort(xa, kind="stable")
    sorted_x = xa[order]
    ranks = np.empty(xa.size)
    i = 0
    while i < xa.size:
        j = i
        while j + 1 < xa.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestCorrelations:
    @pytest.mark.parametrize("seed", range(10))
    def test_pearson_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=50)
        y = 0.5 * x + rng.normal(size=50)
        assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y).statistic, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_spearman_matches_scipy(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.integers(0, 8, size=60).astype(float)  # plenty of ties
        y = x + rng.integers(0, 5, size=60)
        assert spearman(x, y) == pytest.approx(
            scipy.stats.spearmanr(x, y).statistic, abs=1e-12
        )

    def test_average_ranks_with_ties(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]) == pytest.approx([1.0, 2.5, 2.5, 4.0])
        for empty in (np.empty(0), np.empty((3, 0)), np.empty((0, 4))):
            assert average_ranks(empty).shape == empty.shape

    def test_average_ranks_rows_match_tie_loop(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 5, size=(40, 17)).astype(float)
        x[rng.random(x.shape) < 0.05] = np.nan
        ranks = average_ranks(x)
        for row, got in zip(x, ranks):
            assert np.array_equal(got, loop_average_ranks(row))

    @staticmethod
    def tie_stack(length, runs=3, rows=6, seed=0):
        """(runs, rows, length) values: heavy ties, signed zeros and infinities, NaNs, and a constant row."""
        rng = np.random.default_rng([seed, length])
        x = rng.integers(0, 4, size=(runs, rows, length)).astype(float)
        x[:, 1] += rng.normal(size=(runs, length))  # no ties
        x[:, 3] = rng.choice([-0.0, 0.0, 1.0, np.inf, -np.inf], size=(runs, length))
        x[rng.random(x.shape) < 0.1] = np.nan
        x[:, 4, ::2] = np.nan  # several NaNs in one row
        x[:, 2] = 2.0  # zero variance
        x[0, 5] = np.nan  # all NaN
        return x

    @pytest.mark.parametrize("length", [2, 3, 8, 10, 25, 1000, 4096])
    def test_average_ranks_of_tie_stacks_match_tie_loop(self, length):
        x = self.tie_stack(length)
        ranks = average_ranks(x)
        assert ranks.shape == x.shape
        for row, got in zip(x.reshape(-1, length), ranks.reshape(-1, length)):
            assert np.array_equal(got, loop_average_ranks(row))

    def test_nan_ranks_after_every_number_in_position_order(self):
        assert average_ranks([np.nan, 3.0, np.nan, 1.0, np.nan, 3.0]).tolist() == [4.0, 2.5, 5.0, 1.0, 6.0, 2.5]
        row = np.arange(1000.0)[::-1].copy()
        row[::7] = np.nan
        numbers = ~np.isnan(row)
        ranks = average_ranks(row)
        assert ranks[~numbers].tolist() == list(range(numbers.sum() + 1, row.size + 1))
        assert np.array_equal(ranks[numbers], loop_average_ranks(row[numbers]))

    @pytest.mark.parametrize("length", [2, 3, 8, 10, 25, 1000, 4096])
    def test_spearman_pairs_equal_pearson_pairs_of_ranks(self, length):
        """Bit for bit, on every ordered pair of rows, a row with itself included."""
        x = self.tie_stack(length)
        rows = x.shape[1]
        i, j = np.divmod(np.arange(rows * rows), rows)
        got = spearman_pairs(x, i, j)
        assert got.shape == (x.shape[0], rows * rows)
        assert np.isnan(got[:, (i == 2) | (j == 2)]).all()
        assert np.array_equal(got, pearson_pairs(average_ranks(x), i, j), equal_nan=True)

    def test_spearman_pairs_exact_at_the_length_bound(self):
        rng = np.random.default_rng(5)
        length = 2**18
        x = np.stack([rng.integers(0, 50, length), rng.permutation(length), np.arange(length)]).astype(float)
        i, j = np.array([0, 0, 1, 1, 2]), np.array([1, 2, 2, 0, 2])
        assert np.array_equal(spearman_pairs(x, i, j), pearson_pairs(average_ranks(x), i, j))

    def test_perfect_monotone(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, [2.0, 4.0, 9.0, 100.0]) == pytest.approx(1.0)
        assert spearman(x, [5.0, 4.0, 3.0, 1.0]) == pytest.approx(-1.0)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateDataError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateDataError):
            spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert np.isnan(spearman_or_nan([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
        assert spearman_or_nan([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)


class TestPartition:
    def test_equal_width_between_outer_quantiles(self):
        # 0..1 grid, 4 classes: boundaries anchored at the 1/4 and 3/4 quantiles
        x = np.linspace(0.0, 1.0, 101)
        p = make_partition(x, n_classes=4)
        assert p.boundaries[0] == 0.0
        assert np.isinf(p.boundaries[-1])
        assert p.boundaries[1:-1] == pytest.approx([0.25, 0.5, 0.75], abs=1e-12)

    def test_fifteen_class_boundaries_are_equally_spaced(self):
        rng = np.random.default_rng(11)
        x = rng.gamma(2.0, 1.0, size=5000)
        p = make_partition(x, n_classes=15)
        inner = np.asarray(p.boundaries[1:-1])
        assert inner[0] == pytest.approx(np.quantile(x, 1 / 15), abs=1e-12)
        assert inner[-1] == pytest.approx(np.quantile(x, 14 / 15), abs=1e-12)
        widths = np.diff(inner)
        assert widths == pytest.approx(np.full(13, widths[0]), abs=1e-12)

    def test_assign_classes(self):
        x = np.linspace(0.0, 1.0, 101)
        p = make_partition(x, n_classes=4)
        cls = assign_classes(p, [0.1, 0.3, 0.6, 0.9, 0.25])
        assert list(cls) == [1, 2, 3, 4, 2]
        assert assign_classes(p, [0.6])[0] == 3

    def test_boundary_values_fall_in_upper_class(self):
        x = np.linspace(0.0, 1.0, 101)
        p = make_partition(x, n_classes=4)
        assert assign_classes(p, [0.5])[0] == 3  # intervals are [lo, hi)

    def test_degenerate_partition(self):
        with pytest.raises((PartitionError, DegenerateDataError)):
            make_partition(np.full(100, 0.5), n_classes=15)
        with pytest.raises(PartitionError):  # the 1/4 quantile is 0: class 1 would be [0, 0)
            make_partition([0.0] * 20 + list(np.linspace(1.0, 2.0, 30)), n_classes=4)
        with pytest.raises(PartitionError, match="3 values cannot fill 4 classes"):
            make_partition([0.1, 0.2, 0.3], n_classes=4)

    def test_partition_bounds_run_strictly_from_zero_to_inf(self):
        assert ClassPartition((0.0, np.inf)).boundaries == (0.0, np.inf)
        for bounds in ((), (0.0,)):
            with pytest.raises(ValueError, match=f"need at least 2 boundaries, not {len(bounds)}"):
                ClassPartition(bounds)
        for bounds in ((0.1, 0.5, np.inf), (0.0, 0.5, 9.0), (0.0, 0.5, 0.5, np.inf), (0.0, 0.6, 0.5, np.inf),
                       (0.0, np.nan, np.inf)):
            with pytest.raises(ValueError, match="increase strictly from 0 to inf"):
                ClassPartition(bounds)


class TestSummaries:
    def test_summarize_classes(self):
        rng = np.random.default_rng(21)
        n = 3000
        idx = rng.gamma(2.0, 0.1, size=n)
        err = 0.02 * idx + rng.normal(0, 0.001, size=n)
        records = {"ati": idx, "ae_rev": err}
        summaries = summarize_classes(records, index="ati", error="ae_rev", n_classes=15)
        assert len(summaries) == 15
        assert sum(s.count for s in summaries) == n
        means = [s.mean_index_value for s in summaries]
        assert means == sorted(means)
        # per-class stats agree with a direct recomputation
        p = make_partition(idx, n_classes=15)
        cls = assign_classes(p, idx)
        for s in summaries:
            mask = cls == s.class_index
            assert isinstance(s, ClassSummary)
            assert s.count == int(mask.sum())
            assert s.upper > s.lower
            assert s.mean_error == pytest.approx(err[mask].mean(), abs=1e-12)
            assert s.q10 == pytest.approx(np.quantile(err[mask], 0.1), abs=1e-12)
            assert s.median == pytest.approx(np.quantile(err[mask], 0.5), abs=1e-12)
            assert s.q90 == pytest.approx(np.quantile(err[mask], 0.9), abs=1e-12)

    def test_empty_classes_are_named(self):
        # quartile-anchored bounds 0.1, 0.55, 1.0: classes 1 and 3 stay empty
        records = {"ati": np.array([0.1] * 4 + [1.0] * 4), "ae_rev": np.full(8, 0.01)}
        with pytest.raises(PartitionError, match=r"class\(es\) \[1, 3\] of 4 are empty"):
            summarize_classes(records, "ati", "ae_rev", n_classes=4)


def mask_loop_summaries(records, index, error, n_classes):
    """summarize_classes as a mask, two gathers and three quantile calls per class: the reference for the grouped one."""
    idx_vals = np.asarray(records[index], dtype=float)
    err_vals = np.asarray(records[error], dtype=float)
    if idx_vals.size < n_classes:
        raise PartitionError(f"{idx_vals.size} values cannot fill {n_classes} classes")
    interior = np.linspace(float(np.quantile(idx_vals, 1.0 / n_classes)),
                           float(np.quantile(idx_vals, 1.0 - 1.0 / n_classes)), n_classes - 1)
    try:
        part = ClassPartition((0.0, *interior, np.inf))
    except ValueError as exc:
        raise PartitionError(f"degenerate sample: {exc}") from None
    classes = assign_classes(part, idx_vals)
    counts = np.bincount(classes, minlength=n_classes + 1)[1:]
    if not counts.all():
        raise PartitionError(f"class(es) {(np.flatnonzero(counts == 0) + 1).tolist()} of {n_classes} are empty")
    out = []
    for c in range(1, n_classes + 1):
        mask = classes == c
        errs = err_vals[mask]
        out.append(ClassSummary(c, part.boundaries[c - 1], part.boundaries[c], int(counts[c - 1]),
                                float(idx_vals[mask].mean()), float(np.quantile(errs, 0.1)),
                                float(np.quantile(errs, 0.5)), float(np.quantile(errs, 0.9)), float(errs.mean())))
    return out


def summaries_or_error(summarize, records, index, error, n_classes):
    """Each summary as a tuple (NaN as the string "nan", so that == compares it), or the PartitionError message."""
    try:
        summaries = summarize(records, index, error, n_classes)
    except PartitionError as exc:
        return str(exc)
    return [tuple("nan" if v != v else v for v in astuple(s)) for s in summaries]


def tied_sample(seed):
    """Records of 3-40 classes, both columns rounded to 1-4 decimals (ties, often degenerate or empty classes)
    and about one error in 500 NaN; returned with the class count."""
    rng = np.random.default_rng([13, seed])
    n_classes = int(rng.integers(3, 41))
    size = int(rng.integers(n_classes, 4000))
    decimals = int(rng.integers(1, 5))
    idx = np.round(rng.gamma(2.0, 0.1, size), decimals)
    err = np.round(rng.exponential(0.05, size), decimals)
    err[rng.random(size) < 0.002] = np.nan
    return {"ati": idx, "ae_rev": err}, n_classes


class TestGroupedSummaries:
    """summarize_classes groups records by one stable sort; every value equals the per-class mask loop's."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_samples_match_mask_loop(self, seed):
        records, n_classes = tied_sample(seed)
        expected = summaries_or_error(mask_loop_summaries, records, "ati", "ae_rev", n_classes)
        assert summaries_or_error(summarize_classes, records, "ati", "ae_rev", n_classes) == expected

    def test_random_samples_cover_nan_and_every_partition_error(self):
        """The random samples above reach what they are for: NaN summaries, and each kind of PartitionError."""
        seen = set()
        for seed in range(40):
            records, n_classes = tied_sample(seed)
            result = summaries_or_error(summarize_classes, records, "ati", "ae_rev", n_classes)
            if isinstance(result, str):
                seen.add("degenerate" if result.startswith("degenerate sample") else "empty")
            else:
                seen.add("summary")
                seen.update("nan" for row in result if "nan" in row)
        assert seen == {"summary", "nan", "degenerate", "empty"}

    @pytest.mark.parametrize("values", [[0.1, 0.2], [0.5] * 30])
    def test_small_and_constant_samples_raise_alike(self, values):
        records = {"ati": np.array(values), "ae_rev": np.full(len(values), 0.01)}
        expected = summaries_or_error(mask_loop_summaries, records, "ati", "ae_rev", 3)
        assert isinstance(expected, str)
        assert summaries_or_error(summarize_classes, records, "ati", "ae_rev", 3) == expected

    @pytest.mark.parametrize("n", [4, 7])
    def test_msobe_database_matches_mask_loop_for_every_pair(self, n):
        records = run_msobe_sf(n, 4096, seed=7).records
        for index in INDEX_NAMES:
            for error in ERROR_NAMES:
                for n_classes in (3, 15, 40):
                    expected = summaries_or_error(mask_loop_summaries, records, index, error, n_classes)
                    assert summaries_or_error(summarize_classes, records, index, error, n_classes) == expected


# Values that tie heavily, with both zeros, both infinities and NaN, mixed with any finite float.
SAMPLE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, np.inf, -np.inf, np.nan]),
                          st.floats(allow_nan=False, allow_infinity=False))


def quantile_partition(values, n_classes):
    """make_partition with its bounds from np.quantile: the reference for the sorted read."""
    arr = np.asarray(values, dtype=float)
    if arr.size < n_classes:
        raise PartitionError(f"{arr.size} values cannot fill {n_classes} classes")
    interior = np.linspace(*np.quantile(arr, (1.0 / n_classes, 1.0 - 1.0 / n_classes)), n_classes - 1)
    try:
        return ClassPartition((0.0, *interior, np.inf))
    except ValueError as exc:
        raise PartitionError(f"degenerate sample: {exc}") from None


def partition_or_error(partition, values, n_classes):
    try:
        return partition(values, n_classes).boundaries
    except PartitionError as exc:
        return str(exc)


class TestLinearQuantiles:
    """The one-step quantile read equals np.quantile's "linear" method bit for bit, sign of zero and NaN included."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(SAMPLE_VALUES, min_size=1, max_size=60), min_size=1, max_size=15))
    @example([[-0.0], [0.0], [np.inf], [np.nan], [-0.0, 0.0, 0.0, -0.0, -0.0], [1.0, np.nan, -1.0], [-np.inf, np.inf]])
    def test_classes_match_numpy(self, samples):
        counts = np.array([len(sample) for sample in samples])
        starts = np.cumsum(counts) - counts
        values = np.concatenate([np.array(sample, dtype=float) for sample in samples])
        ordered = values.copy()
        for lo, m in zip(starts, counts):
            ordered[lo:lo + m].sort()
        with np.errstate(invalid="ignore"):
            got = _linear_quantiles(values, ordered, starts, counts, (0.1, 0.5, 0.9))
            for sample, row in zip(samples, got):
                expected = np.quantile(np.array(sample, dtype=float), (0.1, 0.5, 0.9))
                assert np.array_equal(row, expected, equal_nan=True), (sample, row, expected)
                assert (np.signbit(row) == np.signbit(expected)).all(), (sample, row, expected)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(st.one_of(SAMPLE_VALUES, st.floats(0, 1)), max_size=80),
                     st.builds(lambda v, m: [v] * m, SAMPLE_VALUES, st.integers(0, 80))),
           st.integers(3, 20))
    @example([0.1, 0.2, np.nan, 0.4, 0.5, 0.6], 3)
    @example([-0.0, 0.0] * 10, 4)
    def test_partition_matches_numpy_bounds(self, values, n_classes):
        with np.errstate(invalid="ignore"):
            expected = partition_or_error(quantile_partition, values, n_classes)
            assert partition_or_error(make_partition, values, n_classes) == expected
