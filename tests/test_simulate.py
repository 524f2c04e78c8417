"""Monte-Carlo frameworks: error models, determinism, record IO, sanity sweeps."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pcmkit import simulate
from pcmkit.core import round_matrix_to_scale
from pcmkit.prioritize import batch_rev
from pcmkit.simulate import (
    ERROR_NAMES,
    INDEX_NAMES,
    MSE_EPS_RANGE,
    NEE_EPS_RANGE,
    RECORD_FIELDS,
    BigErrorModel,
    ErrorModel,
    MsobeResult,
    RecordTable,
    SMALL_ERROR_SUPPORT,
    default_error_models,
    read_records_csv,
    run_mse_sf,
    run_msobe_sf,
    run_nee_sf,
    write_records_csv,
)


class TestErrorModels:
    def test_defaults_verify(self):
        """Each fixed model has mean 1 and at least 98% of its mass on SMALL_ERROR_SUPPORT."""
        models = default_error_models()
        assert [m.distribution for m in models] == [
            "gamma",
            "log-normal",
            "truncated-normal",
            "uniform",
        ]
        lo, hi = SMALL_ERROR_SUPPORT
        for m in models:
            a, b = m.params
            if m.distribution == "gamma":
                dist = scipy.stats.gamma(a, scale=b)
            elif m.distribution == "log-normal":
                dist = scipy.stats.lognorm(b, scale=math.exp(a))
            elif m.distribution == "truncated-normal":
                dist = scipy.stats.truncnorm((lo - a) / b, (hi - a) / b, loc=a, scale=b)
            else:
                dist = scipy.stats.uniform(a, b - a)
            assert abs(dist.mean() - 1.0) <= 1e-3, m
            assert dist.cdf(hi) - dist.cdf(lo) >= 0.98, m

    @pytest.mark.parametrize("model", default_error_models(), ids=lambda m: m.distribution)
    def test_unit_mean_empirically(self, model):
        rng = np.random.default_rng(17)
        draws = model.draw(rng, 1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=1e-2)
        assert np.all(draws > 0)

    def test_truncated_normal_support(self):
        model = default_error_models()[2]
        draws = model.draw(np.random.default_rng(1), 100_000)
        assert draws.min() >= 0.5 and draws.max() <= 1.5

    @pytest.mark.parametrize(
        "model",
        default_error_models()
        + (
            ErrorModel("gamma", (20.0, 1.0 / 20.0)),
            ErrorModel("gamma", (200.0, 1.0 / 200.0)),
            ErrorModel("gamma", (4.0, 0.25)),
            ErrorModel("log-normal", (-0.1**2 / 2, 0.1)),
            ErrorModel("log-normal", (0.0, 0.8)),
            ErrorModel("truncated-normal", (1.0, 0.1)),
            ErrorModel("truncated-normal", (1.0, 1.0)),
            ErrorModel("truncated-normal", (1.2, 0.3)),
            ErrorModel("uniform", (0.4, 1.6)),
            ErrorModel("uniform", (0.49, 1.51)),
        ),
        ids=lambda m: f"{m.distribution}{m.params}",
    )
    def test_mean_and_mass_match_scipy_stats(self, model):
        """draw's parameter conventions: the sample mean and support mass within 5 standard errors of scipy.stats."""
        size = 200_000
        lo, hi = SMALL_ERROR_SUPPORT
        a, b = model.params
        if model.distribution == "gamma":
            dist = scipy.stats.gamma(a, scale=b)
        elif model.distribution == "log-normal":
            dist = scipy.stats.lognorm(b, scale=math.exp(a))
        elif model.distribution == "truncated-normal":
            dist = scipy.stats.truncnorm((lo - a) / b, (hi - a) / b, loc=a, scale=b)
        else:
            dist = scipy.stats.uniform(a, b - a)
        draws = model.draw(np.random.default_rng(29), size)
        mass = dist.cdf(hi) - dist.cdf(lo)
        assert abs(draws.mean() - dist.mean()) <= 5 * dist.std() / math.sqrt(size)
        assert abs(np.mean((draws >= lo) & (draws <= hi)) - mass) <= 5 * math.sqrt(mass * (1 - mass) / size) + 1e-12

    @pytest.mark.parametrize("p", [7.0, -0.1, float("nan")])
    def test_big_error_model_validation(self, p):
        with pytest.raises(ValueError):
            BigErrorModel(p)


class TestSingleErrorSweep:
    def test_summary_shape_and_determinism(self):
        a = run_mse_sf(4, n_runs=20, n_e=10, seed=9)
        b = run_mse_sf(4, n_runs=20, n_e=10, seed=9)
        assert a == b
        assert a.framework == "mse" and a.n == 4 and a.runs == 20 and a.skipped == 0
        for name in INDEX_NAMES + ERROR_NAMES:
            assert name in a.spearman and name in a.pearson and name in a.min_spearman
        assert "si:ae_rev" in a.spearman

    def test_monotone_single_error_growth(self):
        # every index grows monotonically in the error magnitude here,
        # so all per-run rank correlations are exactly 1
        s = run_mse_sf(5, n_runs=30, n_e=15, seed=4)
        for name in INDEX_NAMES:
            assert s.min_spearman[name] == pytest.approx(1.0, abs=1e-12)

    def test_eps_range(self):
        assert MSE_EPS_RANGE == (1.01, 1.075)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            run_mse_sf(3)
        with pytest.raises(ValueError):
            run_mse_sf(4, n_e=1)


class TestEqualErrorSweep:
    def test_summary_shape_and_determinism(self):
        a = run_nee_sf(4, n_r=10, n_p=2, seed=5)
        b = run_nee_sf(4, n_r=10, n_p=2, seed=5)
        assert a == b
        assert a.framework == "nee" and a.runs == 20
        assert NEE_EPS_RANGE == (1.1, 1.8)

    def test_full_disturbance_is_consistent_again(self):
        # after every entry carries the same factor the matrix is similar to
        # a consistent one only when the factor cancels in each triad; check
        # instead the mechanical invariant that the sweep runs all
        # n(n-1)/2 steps and produces finite correlations
        s = run_nee_sf(4, n_r=5, n_p=1, seed=6)
        for name in INDEX_NAMES + ERROR_NAMES:
            assert np.isfinite(s.spearman[name]) or np.isnan(s.spearman[name])

    @pytest.mark.parametrize(
        "run, sizes",
        [
            (run_mse_sf, dict(n_runs=0)),
            (run_mse_sf, dict(n_runs=-3)),
            (run_nee_sf, dict(n_r=200, n_p=0)),
            (run_nee_sf, dict(n_r=0, n_p=5)),
            (run_nee_sf, dict(n_r=-2, n_p=5)),
        ],
        ids=["mse-0", "mse-negative", "nee-np-0", "nee-nr-0", "nee-nr-negative"],
    )
    def test_run_counts_below_one_raise(self, run, sizes):
        with pytest.raises(ValueError, match=">= 1"):
            run(4, **sizes)

    @pytest.mark.parametrize("run, args", [(run_nee_sf, (3,)), (run_msobe_sf, (3, 4))], ids=["nee", "msobe"])
    def test_order_below_four_raises(self, run, args):
        with pytest.raises(ValueError, match="^need n >= 4$"):
            run(*args)


@pytest.mark.parametrize(
    "run, args, expected",
    [
        (run_mse_sf, (5, 40, 25), "57de5b7ae050563b4cb785944f02f8a5ddd2f076174175e17c2b464adbaa73a5"),
        (run_mse_sf, (4, 30, 10), "768251236e24db62b9665593c853cdfda77b518466adff418b947ac5a86a5d79"),
        (run_mse_sf, (7, 20, 10), "deb90d5e3c9d3e7a9485e0364a727eda54a01806511f6674f6cc5f69bce70e6c"),
        (run_nee_sf, (5, 8, 5), "7b41f800f9c8486ad8c76518957d06d7571070f4c975b51c315b8d927d62056f"),
        (run_nee_sf, (4, 6, 4), "39ed45a591d253e752d4d12cfdeb408e03e838027e005c15f9b61747f593d261"),
        (run_nee_sf, (7, 4, 3), "7f285c6635a88d8610766f2234f421774ab2542244299b5f92054d2729676dba"),
    ],
    ids=["mse-n5", "mse-n4", "mse-n7", "nee-n5", "nee-n4", "nee-n7"],
)
def test_correlation_summary_is_pinned(run, args, expected):
    """Every coefficient of small MSE-SF and NEE-SF calls, to the last bit: the stream, kernels and tally together."""
    text = json.dumps(run(*args, seed=11).as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


@pytest.mark.parametrize(
    "stream",
    [
        lambda: simulate._mse_stacks(5, 40, 25, 7),
        lambda: simulate._nee_stacks(5, 20, 2, 7),
        lambda: [simulate._msobe_matrices(5, 0, 400, 400, BigErrorModel(), 7)],
    ],
    ids=["mse", "nee", "msobe"],
)
def test_every_evaluated_matrix_is_reciprocal_bit_for_bit(stream):
    """Every matrix a framework's stream gives has a unit diagonal and a_ji == 1 / a_ij exactly."""
    stacks = [a for a, *_ in stream()]
    iu, ju = np.triu_indices(5, k=1)
    assert stacks
    for a in stacks:
        assert np.all(np.diagonal(a, axis1=-2, axis2=-1) == 1.0)
        assert np.array_equal(a[..., ju, iu], 1.0 / a[..., iu, ju])


# (run function, sizes, runs, vectors, steps per run) at n=4: more than one run block each.
RUN_CALLS = {
    "mse": (run_mse_sf, dict(n_runs=1100, n_e=2), 1100, 1100, 2),
    "nee": (run_nee_sf, dict(n_r=221, n_p=5), 1105, 221, 6),
}
STREAMS = {run_mse_sf: simulate._mse_stacks, run_nee_sf: simulate._nee_stacks}


def disturbances(monkeypatch, stream, n, **sizes):
    """The factor arrays of every stack of a run stream, concatenated over its stacks, as (hit, factors).

    Every true vector is made uniform, so each upper-triangle ratio v_i / v_j is 1
    and the upper triangles of the stream's matrices are its factor arrays bit
    for bit.  hit = factors != 1 flags the disturbed entries.
    """
    blocks = simulate._blocks

    def uniform_vectors(*args):
        for b_lo, b_hi, rng, v in blocks(*args):
            yield b_lo, b_hi, rng, np.full_like(v, 1.0 / n)

    monkeypatch.setattr(simulate, "_blocks", uniform_vectors)
    iu, ju = np.triu_indices(n, k=1)
    factors = np.concatenate([a[..., iu, ju] for a, _, _ in stream(n, **sizes, seed=31)])
    return factors != 1, factors


def assert_uniform(counts, p):
    """Every cell of a table of counts lies within 5 sigma of a binomial mean with probability p."""
    total = counts.sum(axis=0)
    sigma = np.sqrt(total * p * (1 - p))
    assert np.all(np.abs(counts - total * p) <= 5 * sigma), counts


def true_vectors(seed, count):
    """Vectors 0..count-1 of the order-4 vector stream, read from their vector blocks' generators."""
    e = np.concatenate([
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, vb))).standard_exponential((simulate._BLOCK, 4))
        for vb in range(math.ceil(count / simulate._BLOCK))
    ])[:count]
    return e / e.sum(axis=1, keepdims=True)


def seed_sequences(monkeypatch):
    """The argument tuples of every SeedSequence built from now on."""
    built = []
    seed_sequence = np.random.SeedSequence

    def counted(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    return built


@pytest.mark.parametrize("n", [4, 7, 9])
@pytest.mark.parametrize(
    "lo, hi, per_vector",
    [(0, 40, 1), (0, 40, 5), (0, 2100, 3), (0, 2100, 2), (4096, 8200, 1), (1024, 2048, 1)],
    ids=["mse-40-runs", "nee-8-vectors", "nee-member-blocks-share-a-vector-block", "nee-two-vector-blocks",
         "msobe-tail-chunk", "msobe-one-block-chunk"],
)
def test_blocks_draw_only_the_vectors_a_read_uses(n, lo, hi, per_vector, monkeypatch):
    """Each vector block draws the rows up to the read's last vector, and they equal a full-block draw bit for bit."""
    drawn, rng_for = [], simulate._rng_for

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def standard_exponential(self, size):
            drawn.append(size)
            return self.rng.standard_exponential(size)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(simulate, "_rng_for", lambda *args: Recording(rng_for(*args)))
    blocks = list(simulate._blocks(n, 37, lo, hi, per_vector))
    first, last = lo // per_vector, (hi - 1) // per_vector
    reads = range(first // simulate._BLOCK, last // simulate._BLOCK + 1)
    assert drawn == [(min(simulate._BLOCK, last + 1 - vb * simulate._BLOCK), n) for vb in reads]
    full = {}
    for vb in reads:
        e = rng_for(37, 0, vb).standard_exponential((simulate._BLOCK, n))
        full[vb] = e / e.sum(axis=1, keepdims=True)
    assert [b_lo for b_lo, *_ in blocks] == list(range(lo, hi, simulate._BLOCK))
    for b_lo, b_hi, _, v in blocks:
        ids = np.arange(b_lo, b_hi) // per_vector
        want = np.stack([full[i // simulate._BLOCK][i % simulate._BLOCK] for i in ids])
        assert v.tobytes() == want.tobytes()


def inline_pools(monkeypatch):
    """The max_workers of every pool run_msobe_sf starts from now on; a stub pool runs each chunk inline."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", InlinePool)
    return pools


def chunk_bounds(monkeypatch):
    """The (lo, hi) of every MSOBE chunk from now on, in the order they are mapped; no chunk computes records."""
    bounds = []

    def record_bounds(n, lo, hi, *rest):
        bounds.append((lo, hi))
        return {"rev_iterations": np.ones(hi - lo, int), "rev_residual": np.zeros(hi - lo)}, np.zeros(hi - lo, bool)

    monkeypatch.setattr(simulate, "_msobe_chunk", record_bounds)
    return bounds


class TestRunStreams:
    """MSE-SF and NEE-SF draw every run's inputs from its block's generators."""

    @pytest.mark.parametrize("framework", RUN_CALLS)
    @pytest.mark.parametrize("runs_per_stack", [300, 7])
    def test_stack_budgets_change_nothing(self, framework, runs_per_stack, monkeypatch):
        run, sizes, runs, vectors, steps = RUN_CALLS[framework]
        whole, whole_stacks = run(4, **sizes, seed=30), list(STREAMS[run](4, **sizes, seed=30))
        monkeypatch.setattr(simulate, "_STACK_ENTRIES", runs_per_stack * steps * 4 * 4)
        assert run(4, **sizes, seed=30) == whole
        stacks = list(STREAMS[run](4, **sizes, seed=30))
        lengths = np.array([len(v) for _, v, _ in stacks])
        stops = np.cumsum(lengths)
        starts = stops - lengths
        assert lengths[0] == runs_per_stack and runs % runs_per_stack
        assert lengths.max() <= runs_per_stack and stops[-1] == runs
        assert np.all(starts // simulate._BLOCK == (stops - 1) // simulate._BLOCK)  # each stack in one run block
        assert list(lengths[stops == simulate._BLOCK]) == [simulate._BLOCK % runs_per_stack]  # block 0 ends short
        # The stacks cover the runs in order: the default budget's stacks, and each run's true vector.
        for parts, whole_parts in zip(zip(*stacks), zip(*whole_stacks)):
            assert np.array_equal(np.concatenate(parts), np.concatenate(whole_parts))
        want = true_vectors(30, vectors)[np.arange(runs) // (runs // vectors)]
        assert np.array_equal(np.concatenate([v for _, v, _ in stacks]), want)

    @given(framework=st.sampled_from(sorted(RUN_CALLS)), n=st.integers(4, 6), runs=st.integers(1, 1200),
           size=st.integers(2, 4), runs_per_stack=st.integers(1, simulate._BLOCK + 100), seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=20, deadline=None)
    def test_any_stack_budget_gives_the_default_summary(self, framework, n, runs, size, runs_per_stack, seed):
        """A _STACK_ENTRIES budget from one run per stack to more than a run block leaves the summary as it is."""
        if framework == "mse":
            run, sizes, steps = run_mse_sf, dict(n_runs=runs, n_e=size), size
        else:
            run, sizes, steps = run_nee_sf, dict(n_r=max(1, runs // size), n_p=size), n * (n - 1) // 2
        default = run(n, **sizes, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_STACK_ENTRIES", (runs_per_stack * steps + steps - 1) * n * n)
            assert simulate._stack_matrices(n) // steps == runs_per_stack
            assert run(n, **sizes, seed=seed) == default

    @pytest.mark.parametrize(
        "run, sizes, runs, vectors, steps",
        # The last call's first vector block spans three run blocks.
        [*RUN_CALLS.values(), (run_nee_sf, dict(n_r=1100, n_p=3), 3300, 1100, 6)],
        ids=[*RUN_CALLS, "nee-shared-vector-block"],
    )
    def test_one_seed_sequence_per_block(self, run, sizes, runs, vectors, steps, monkeypatch):
        built = seed_sequences(monkeypatch)
        monkeypatch.setattr(simulate, "_STACK_ENTRIES", 300 * steps * 4 * 4)  # several stacks per block
        run(4, **sizes, seed=32)
        assert len(built) <= math.ceil(runs / simulate._BLOCK) + math.ceil(vectors / simulate._BLOCK)

    def test_nee_orders_are_uniform_permutations(self, monkeypatch):
        k = 6  # entries of an order-4 matrix
        hit, factors = disturbances(monkeypatch, simulate._nee_stacks, 4, n_r=4000, n_p=5)
        assert hit.shape == (20000, k, k)
        assert np.array_equal(hit.sum(axis=2), np.broadcast_to(np.arange(1, k + 1), (20000, k)))
        assert np.all(hit[:, 1:] >= hit[:, :-1])  # a disturbed entry stays disturbed
        step = k - hit.sum(axis=1)  # (run, entry): the step that disturbs the entry
        assert np.array_equal(np.sort(step, axis=1), np.broadcast_to(np.arange(k), (20000, k)))
        assert_uniform(np.stack([np.bincount(step[:, e], minlength=k) for e in range(k)]), 1 / k)
        eps = factors[:, -1, 0]  # the last step disturbs every entry
        assert np.array_equal(factors, np.where(hit, eps[:, None, None], 1.0))  # one shared factor
        assert np.all((NEE_EPS_RANGE[0] <= eps) & (eps < NEE_EPS_RANGE[1]))

    def test_mse_positions_are_uniform(self, monkeypatch):
        pairs = 10  # entries of an order-5 matrix
        hit, factors = disturbances(monkeypatch, simulate._mse_stacks, 5, n_runs=20000, n_e=2)
        assert hit.shape == (20000, 2, pairs) and np.all(hit.sum(axis=2) == 1)
        assert_uniform(np.bincount(hit[:, 0].argmax(axis=1), minlength=pairs), 1 / pairs)
        eps = factors[:, 0][hit[:, 0]]  # step 1 carries eps^1
        assert np.all((MSE_EPS_RANGE[0] <= eps) & (eps < MSE_EPS_RANGE[1]))


class TestBigErrorDatabase:
    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_the_int64_column_raises(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must lie in [0, 2**63), not {seed}")):
            run_msobe_sf(4, 4, seed=seed)

    def test_record_fields_and_quarter_split(self):
        res = run_msobe_sf(4, 800, seed=13)
        assert isinstance(res, MsobeResult)
        assert len(res.records) + res.skipped == 800
        assert res.records.columns.keys() == set(RECORD_FIELDS)
        dist_counts = Counter(res.records["distribution"].tolist())
        names = [m.distribution for m in default_error_models()]
        assert set(dist_counts) == set(names)
        for name in names:
            assert abs(dist_counts[name] - 200) <= res.skipped
        assert np.all(res.records["n"] == 4)

    def test_rows_are_the_columns_as_python_scalars(self, tmp_path):
        """Iterating a table, built or read back, yields one row per record: fields RECORD_FIELDS, values
        each column's tolist() element, as int, str, bool or float."""
        types = {**dict.fromkeys(RECORD_FIELDS, float), "distribution": str, "big_error": bool,
                 **dict.fromkeys(("n", "vector_id", "perturbation_id", "seed"), int)}
        built = run_msobe_sf(4, 40, seed=13).records
        write_records_csv(built, tmp_path / "db.csv")
        for records in (built, read_records_csv(tmp_path / "db.csv")):
            rows = list(records)
            assert len(rows) == len(records) > 0
            for name in RECORD_FIELDS:
                values = [getattr(row, name) for row in rows]
                assert values == records[name].tolist()
                assert {type(value) for value in values} == {types[name]}, name
            assert all(row._fields == RECORD_FIELDS for row in rows)
            assert {row.big_error for row in rows} == {False, True}

    def test_big_error_fraction(self):
        res = run_msobe_sf(4, 8000, seed=14)
        frac = np.mean(res.records["big_error"])
        assert frac == pytest.approx(0.75, abs=0.02)

    def test_big_error_probability_override(self):
        res = run_msobe_sf(4, 400, big=BigErrorModel(apply_probability=0.0), seed=15)
        assert not res.records["big_error"].any()
        res = run_msobe_sf(4, 400, big=BigErrorModel(apply_probability=1.0), seed=15)
        assert res.records["big_error"].all()

    def test_worker_count_does_not_change_output(self, monkeypatch):
        # A budget of two record blocks: four chunks of two blocks for one thread, then eight
        # one-block chunks for three threads, which switch as often as they can.
        monkeypatch.setattr(simulate, "_STACK_ENTRIES", 2 * simulate._BLOCK * 4 * 4)
        a = run_msobe_sf(4, 8192, seed=16, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = run_msobe_sf(4, 8192, seed=16, workers=3)
        finally:
            sys.setswitchinterval(interval)
        assert a.records == b.records
        assert a.skipped == b.skipped and a.rev == b.rev

    def test_pool_is_capped_at_the_chunk_count(self, monkeypatch):
        """A huge --workers starts no more threads than there are chunks (the stub runs each chunk inline)."""
        pools = inline_pools(monkeypatch)
        assert len(run_msobe_sf(4, 8192, seed=16, workers=10**6).records) > 0
        assert len(run_msobe_sf(7, 8192, seed=16, workers=10**6).records) > 0
        assert pools == [8, 8]  # the plan bottoms out at eight one-block chunks at either order

    @pytest.mark.parametrize("n", range(4, 10))
    def test_chunks_are_whole_blocks_within_the_entry_budget(self, n, monkeypatch):
        size = simulate._chunk_records(n)
        assert size % simulate._BLOCK == 0 and size * n * n <= simulate._STACK_ENTRIES
        assert (size + simulate._BLOCK) * n * n > simulate._STACK_ENTRIES  # the most whole blocks that fit
        assert size == {4: 12288, 7: 4096, 9: 2048}.get(n, size)
        bounds = chunk_bounds(monkeypatch)
        total = 8 * size + 100  # four budget chunks per worker and a tail: the budget binds
        run_msobe_sf(n, total, workers=2)
        assert bounds == [(k * size, (k + 1) * size) for k in range(8)] + [(8 * size, total)]

    @pytest.mark.parametrize("workers", [1, 2, 3, 10**6])
    @pytest.mark.parametrize("n", range(4, 10))
    def test_chunk_plan(self, n, workers, monkeypatch):
        """At least four whole-block chunks per worker while the total has the blocks, none above the budget."""
        pools, bounds = inline_pools(monkeypatch), chunk_bounds(monkeypatch)
        budget = simulate._chunk_records(n)
        for total in (4, 1028, 4100, 8192, 240000):
            pools.clear()
            bounds.clear()
            run_msobe_sf(n, total, workers=workers)
            assert bounds[0][0] == 0 and bounds[-1][1] == total
            assert all(lo < hi == next_lo for (lo, hi), (next_lo, _) in zip(bounds, bounds[1:]))
            sizes = [hi - lo for lo, hi in bounds]
            assert all(size % simulate._BLOCK == 0 for size in sizes[:-1]) and max(sizes) <= budget
            assert len(bounds) >= min(4 * workers, total // simulate._BLOCK)
            assert pools == [min(workers, len(bounds))]
            if total == 240000 and workers <= 2:  # large builds keep the budget plan
                stops = list(range(budget, total, budget)) + [total]
                assert bounds == list(zip(range(0, total, budget), stops))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_interrupt_stops_after_at_most_one_chunk_per_thread(self, monkeypatch, workers):
        """A chunk that raises (as Ctrl-C does in the waiting thread) cancels every queued chunk.

        The first chunk raises; each later one takes 0.1 s, time for the caller to cancel the queue.
        """
        started = []

        def interrupted(n, lo, hi, *rest):
            started.append(lo)
            if lo == 0:
                raise KeyboardInterrupt
            time.sleep(0.1)
            return {"rev_iterations": np.ones(hi - lo, int), "rev_residual": np.zeros(hi - lo)}, np.zeros(hi - lo, bool)

        monkeypatch.setattr(simulate, "_STACK_ENTRIES", simulate._BLOCK * 4 * 4)  # eight chunks
        monkeypatch.setattr(simulate, "_msobe_chunk", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_msobe_sf(4, 8192, workers=workers)
        assert 0 in started and len(started) <= 2 * workers

    def test_one_chunk_stays_within_its_memory_budget(self):
        """Traced peak of one n=7 chunk of 4096 records: two threads hold two such stacks in one process."""
        args = (simulate.BigErrorModel(), 1)
        simulate._msobe_chunk(7, 0, 4, 4, *args)  # first-call set-up stays out of the measurement
        tracemalloc.start()
        try:
            simulate._msobe_chunk(7, 0, 4096, 4096, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2**20

    def test_rev_summary_when_every_record_is_skipped(self, monkeypatch):
        def never_converges(a):
            w, lam, iterations, residual, converged = batch_rev(a)
            return w, lam, iterations, residual, np.zeros_like(converged)

        monkeypatch.setattr(simulate, "batch_rev", never_converges)
        res = run_msobe_sf(4, 40, seed=2)
        assert (len(res.records), res.skipped) == (0, 40)
        assert res.rev == dict.fromkeys(("iterations_mean", "iterations_p99", "iterations_max", "residual_max"))

    def test_blocks_do_not_depend_on_workers_or_chunks(self, monkeypatch, tmp_path):
        # 16400 records: the model quarters (4100 records) end inside record
        # blocks, and the last block holds 16 records.  Chunks of four blocks
        # by default (five chunks), then of two blocks (nine) and of one (17).
        a = run_msobe_sf(4, 16400, seed=20, workers=1)
        assert len(a.records) + a.skipped == 16400
        monkeypatch.setattr(simulate, "_STACK_ENTRIES", 2 * simulate._BLOCK * 4 * 4)
        b = run_msobe_sf(4, 16400, seed=20, workers=2)
        c = run_msobe_sf(4, 16400, seed=20, workers=1)
        monkeypatch.setattr(simulate, "_STACK_ENTRIES", simulate._BLOCK * 4 * 4)
        d = run_msobe_sf(4, 16400, seed=20, workers=3)
        for other in (b, c, d):
            assert a.records == other.records and a.skipped == other.skipped

        def written(result):
            write_records_csv(result.records, tmp_path / "db.csv")
            return (tmp_path / "db.csv").read_bytes()

        assert written(a) == written(b) == written(c) == written(d)

    @given(n=st.integers(4, 7), more=st.integers(1, 750).map(lambda k: 4 * k), workers=st.integers(1, 3),
           blocks=st.integers(1, 2), extra=st.integers(0, 16 * simulate._BLOCK - 1), seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_workers_and_stack_budget_give_the_default_run(self, tmp_path_factory, n, more, workers, blocks,
                                                               extra, seed):
        """A _STACK_ENTRIES budget of `blocks` record blocks per chunk, chunks that do not divide the total.

        The total leaves every worker at least four such chunks and gives the
        default one-worker run chunks of at least twice that size, so the budget
        binds and the two runs are cut differently.
        """
        total = 4 * max(workers, 2) * blocks * simulate._BLOCK + more
        assume(total % (blocks * simulate._BLOCK))
        budget = blocks * simulate._BLOCK * n * n + extra  # extra < one block's entries at n >= 4
        first_chunks = []  # the records of each run's first chunk
        msobe_chunk = simulate._msobe_chunk

        def chunk(n, lo, hi, *rest):
            if lo == 0:
                first_chunks.append(hi)
            return msobe_chunk(n, lo, hi, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_msobe_chunk", chunk)
            default = run_msobe_sf(n, total, seed=seed)
            mp.setattr(simulate, "_STACK_ENTRIES", budget)
            assert simulate._chunk_records(n) == blocks * simulate._BLOCK
            other = run_msobe_sf(n, total, seed=seed, workers=workers)
        assert first_chunks[1] == blocks * simulate._BLOCK < first_chunks[0]
        assert default.records == other.records
        assert (default.skipped, default.rev) == (other.skipped, other.rev)
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
            paths = [Path(work) / "default.csv", Path(work) / "other.csv"]
            for result, path in zip((default, other), paths):
                write_records_csv(result.records, path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_record_seed_column_is_the_master_seed(self):
        res = run_msobe_sf(4, 400, seed=21)
        assert res.records["seed"].dtype == np.int64
        assert res.records["seed"].tolist() == [21] * len(res.records)

    def test_record_replays_from_seed_index_and_block(self):
        """Record 3075 of 4100 from its block's stream alone: the stream definition, pinned, and _msobe_matrices
        of its block gives that record's inputs."""
        seed, total, idx = 23, 4100, 3075
        records = run_msobe_sf(4, total, seed=seed).records
        block, row = divmod(idx, simulate._BLOCK)  # block 3 = records 3072..4095
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, block)))
        models = default_error_models()
        # quarter = 1025: records 3072..3074 use model 2, 3075.. use model 3
        for model, k in ((models[2], 3), (models[3], simulate._BLOCK - 3)):
            applied, pos, eps = rng.random(k), rng.integers(6, size=k), rng.uniform(2.0, 4.0, k)
            factors = model.draw(rng, (k, 6))
        applied, pos, eps, factors = applied[0] < 0.75, pos[0], eps[0], factors[0]
        if applied:
            factors[pos] = eps
        e = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, block))).standard_exponential((simulate._BLOCK, 4))
        v = e[row] / e[row].sum()
        iu, ju = np.triu_indices(4, k=1)
        upper = round_matrix_to_scale(v[iu] / v[ju] * factors)
        a = np.ones((1, 4, 4))
        a[0, iu, ju], a[0, ju, iu] = upper, 1.0 / upper
        stream = simulate._msobe_matrices(4, 3072, total, total, BigErrorModel(), seed)
        assert [part[row].tolist() for part in stream] == [a[0].tolist(), v.tolist(), applied, pos, 3]
        assert applied  # so the big position is the one the record uses
        metrics, failed = simulate._batch_metrics(a, v[None])
        assert not failed[0]
        want = dict(n=4, vector_id=idx, perturbation_id=0, distribution="uniform", big_error=bool(applied),
                    **{f: float(metrics[f][0]) for f in INDEX_NAMES + ERROR_NAMES}, seed=seed)
        assert {name: records[name].tolist()[idx] for name in RECORD_FIELDS} == want

    @pytest.mark.parametrize("n", [4, 7])
    def test_stream_does_not_depend_on_how_a_range_is_cut(self, n):
        """_msobe_matrices over [0, total) is its pieces' concatenation, and a chunk is _batch_metrics of its piece.

        The model quarters (4100 records) end inside record blocks; the pieces are one block, several blocks
        and the 16-record tail.
        """
        total, big, seed, cuts = 16400, BigErrorModel(0.6), 24, (0, 1024, 16384, 16400)
        whole = simulate._msobe_matrices(n, 0, total, total, big, seed)
        pieces = [simulate._msobe_matrices(n, lo, hi, total, big, seed) for lo, hi in zip(cuts, cuts[1:])]
        for got, parts in zip(whole, zip(*pieces)):
            assert got.tobytes() == np.concatenate(parts).tobytes()
        lo, hi = cuts[1:3]
        a, v, flags, _, model_ids = pieces[1]
        columns, failed = simulate._msobe_chunk(n, lo, hi, total, big, seed)
        metrics, want_failed = simulate._batch_metrics(a, v)
        assert np.array_equal(failed, want_failed)
        assert all(columns[name].tobytes() == col.tobytes() for name, col in metrics.items())
        assert np.array_equal(columns["big_error"], flags) and np.array_equal(columns["vector_id"], np.arange(lo, hi))
        assert columns["distribution"].tolist() == [simulate.ERROR_DISTRIBUTIONS[m] for m in model_ids]

    def test_no_per_record_seeding(self, monkeypatch):
        built = seed_sequences(monkeypatch)
        run_msobe_sf(4, 8192, seed=22)
        # one record block and one vector block per _BLOCK records
        assert len(built) <= 2 * math.ceil(8192 / simulate._BLOCK) + 2

    def test_total_must_split_across_models(self):
        with pytest.raises(ValueError):
            run_msobe_sf(4, 402)
        with pytest.raises(ValueError):
            run_msobe_sf(4, 0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, not {workers}"):
            run_msobe_sf(4, 8, workers=workers)

    def test_indices_are_plausible(self):
        r = run_msobe_sf(5, 400, seed=18).records
        assert np.all((0.0 <= r["ati"]) & (r["ati"] <= r["ki"]) & (r["ki"] < 1.0))
        assert np.all(r["si"] >= -1e-12)
        assert np.all(r["gi"] >= 0.0)
        assert np.all(r["ae_rev"] >= 0.0) and np.all(r["re_rev"] >= 0.0)

    def test_imports_no_scipy(self):
        """A fresh interpreter runs MSOBE-SF without loading any scipy module."""
        code = "import sys, pcmkit; pcmkit.run_msobe_sf(4, 8); print([m for m in sys.modules if m.startswith('scipy')])"
        env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cli_imports_no_process_pool(self):
        """A fresh interpreter imports the CLI without multiprocessing: --workers runs threads."""
        code = ("import sys, pcmkit.cli; "
                "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestRecordIO:
    @pytest.fixture
    def records(self):
        return run_msobe_sf(4, 120, seed=19).records

    def test_csv_round_trip(self, tmp_path, records):
        path = tmp_path / "db.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert len(back) == len(records)
        assert back != records and back == read_records_csv(path)  # floats are written as %.8g
        for f in ("n", "distribution", "big_error"):
            assert np.array_equal(back[f], records[f])
        for f in INDEX_NAMES + ERROR_NAMES:
            assert back[f] == pytest.approx(records[f], rel=1e-6)

    def test_csv_blank_lines_read_as_the_clean_file(self, tmp_path, records):
        """Empty and whitespace-only lines, between rows and at the end, are skipped; so are CRLF line ends."""
        clean = tmp_path / "clean.csv"
        write_records_csv(records, clean)
        header, *rows = clean.read_text().splitlines()
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join([header, "", rows[0], "  ", "\t", *rows[1:5], "", " ", *rows[5:], "", "   ", ""]))
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(clean.read_bytes().replace(b"\n", b"\r\n"))
        assert read_records_csv(blank) == read_records_csv(crlf) == read_records_csv(clean)

    @pytest.mark.parametrize("fault", [{"extra": "7"}, {"distribution": "bogus"}, {"ati": "x"}])
    def test_csv_bad_row_after_blank_lines_keeps_its_row_number(self, tmp_path, records, fault):
        """Rows count records from 1; blank lines before the bad row do not count."""
        write_records_csv(records, tmp_path / "clean.csv")
        header, *rows = (tmp_path / "clean.csv").read_text().splitlines()
        row = dict(zip(RECORD_FIELDS, rows[2].split(",")))
        row.update(fault)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, rows[0], "", "  ", rows[1], " \t ", ",".join(row.values()), *rows[3:]]) + "\n")
        with pytest.raises(ValueError, match=rf"^{bad}: row 3: "):
            read_records_csv(bad)

    def test_csv_hash_is_data_and_a_clean_file_reads_back_unchanged(self, tmp_path, records):
        """'#' is a value the reader refuses, not a comment; a file without one writes back byte for byte."""
        clean = tmp_path / "clean.csv"
        write_records_csv(records, clean)
        again = tmp_path / "again.csv"
        write_records_csv(read_records_csv(clean), again)
        assert again.read_bytes() == clean.read_bytes()
        header, *rows = clean.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        for text, message in (([header, *rows[:2], rows[2] + " # edited by hand", *rows[3:]],
                               "row 3: bad seed value '19 # edited by hand'"),
                              ([header, *rows[:3], "# a note", *rows[3:]], f"row 4: 1 fields, not {len(RECORD_FIELDS)}")):
            bad.write_text("\n".join(text) + "\n")
            with pytest.raises(ValueError, match=rf"^{bad}: {message}$"):
                read_records_csv(bad)

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n"])
    def test_csv_header_only_reads_no_records_without_warning(self, tmp_path, body):
        path = tmp_path / "db.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_records_csv(path)
        assert len(back) == 0
        assert {name: col.dtype for name, col in back.columns.items()} == {
            name: np.dtype(dtype) for name, dtype in simulate._DTYPES.items()}

    @pytest.mark.parametrize("blocks", [0, 1, 2.5])
    def test_writers_write_blocks_as_all_rows_at_once(self, tmp_path, blocks):
        """Written a block of rows at a time, the CSV file holds the bytes of every row formatted at once."""
        size = int(blocks * simulate._BLOCK)
        whole = run_msobe_sf(4, 2600, seed=5).records
        records = RecordTable({name: col[:size] for name, col in whole.columns.items()})
        assert len(records) == size
        rows = zip(*(records[name].tolist() for name in RECORD_FIELDS))
        text = {float: lambda x: format(x, ".8g"), bool: lambda x: str(int(x))}
        csv = "".join(",".join(text.get(type(x), str)(x) for x in row) + "\n" for row in rows)
        write_records_csv(records, tmp_path / "db.csv")
        assert (tmp_path / "db.csv").read_bytes() == (",".join(RECORD_FIELDS) + "\n" + csv).encode()

    @given(n=st.integers(4, 9), total=st.integers(1, 400).map(lambda k: 4 * k), seed=st.integers(0, 2**63 - 1))
    @example(n=9, total=1028, seed=2**63 - 1)
    @settings(max_examples=12, deadline=None)
    def test_csv_write_read_write_gives_the_same_bytes(self, tmp_path_factory, n, total, seed):
        """A database read back from its CSV file writes the file's bytes again, at any order, size and seed."""
        records = run_msobe_sf(n, total, seed=seed).records
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
            first, second = Path(work) / "first.csv", Path(work) / "second.csv"
            write_records_csv(records, first)
            write_records_csv(read_records_csv(first), second)
            assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "n, total, workers, expected",
        [
            (4, 400, 1, "a525c8536bf6b1b70d56e369fc8538f5afc010bf3084e7d4cb90b18cae96e0ce"),
            # the benchmark's build shape: eight one-block n=7 chunks on two threads
            (7, 8192, 2, "85e6e8d95ad97760ed2b894a69269e1726e9abe41fdee0a15e7f8340c67bee6a"),
        ],
        ids=["n4", "n7-two-workers"],
    )
    def test_written_bytes_are_pinned(self, tmp_path, n, total, workers, expected):
        """Small databases, byte for byte: the stream, kernels and text forms together."""
        records = run_msobe_sf(n, total, seed=3, workers=workers).records
        write_records_csv(records, tmp_path / "db.csv")
        digest = hashlib.sha256((tmp_path / "db.csv").read_bytes()).hexdigest()
        assert digest == expected
