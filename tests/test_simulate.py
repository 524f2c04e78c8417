"""Monte-Carlo frameworks: error models, determinism, record IO, sanity sweeps."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from pcmkit import simulate
from pcmkit.core import Pcm, PriorityVector, mpr_from_pv, round_matrix_to_scale
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
    SimRecord,
    default_error_models,
    perturb_entry,
    random_pv,
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

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            ErrorModel("cauchy", (0.0, 1.0))

    @pytest.mark.parametrize(
        "lo,hi,p",
        [(2.0, 4.0, 7.0), (2.0, 4.0, -0.1), (2.0, 4.0, float("nan")), (4.0, 2.0, 0.5),
         (0.0, 4.0, 0.5), (2.0, float("inf"), 0.5)],
    )
    def test_big_error_model_validation(self, lo, hi, p):
        with pytest.raises(ValueError):
            BigErrorModel(lo, hi, p)


class TestRandomPv:
    def test_is_valid_vector(self):
        pv = random_pv(5, np.random.default_rng(0))
        assert isinstance(pv, PriorityVector)
        assert pv.n == 5

    def test_component_means_are_symmetric(self):
        rng = np.random.default_rng(2)
        draws = np.array([random_pv(4, rng).weights for _ in range(30_000)])
        assert draws.mean(axis=0) == pytest.approx(np.full(4, 0.25), abs=0.01)


class TestPerturbEntry:
    def test_reciprocal_update(self, mpr_v1):
        p = perturb_entry(mpr_v1, 0, 1, 2.0)
        assert isinstance(p, Pcm)
        assert p.entries[0, 1] == pytest.approx(mpr_v1.entries[0, 1] * 2.0)
        assert p.entries[1, 0] == pytest.approx(1.0 / p.entries[0, 1])
        # other entries untouched
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        assert p.entries[mask] == pytest.approx(mpr_v1.entries[mask])


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


class TestBigErrorDatabase:
    def test_record_fields_and_quarter_split(self):
        res = run_msobe_sf(4, 800, seed=13)
        assert isinstance(res, MsobeResult)
        assert len(res.records) + res.skipped == 800
        dist_counts = Counter(r.distribution for r in res.records)
        names = [m.distribution for m in default_error_models()]
        assert set(dist_counts) == set(names)
        for name in names:
            assert abs(dist_counts[name] - 200) <= res.skipped
        for rec in list(res.records)[:5]:
            assert isinstance(rec, SimRecord)
            assert rec.n == 4
            for f in RECORD_FIELDS:
                assert hasattr(rec, f)

    def test_big_error_fraction(self):
        res = run_msobe_sf(4, 8000, seed=14)
        frac = np.mean([r.big_error for r in res.records])
        assert frac == pytest.approx(0.75, abs=0.02)

    def test_big_error_probability_override(self):
        res = run_msobe_sf(4, 400, big=BigErrorModel(apply_probability=0.0), seed=15)
        assert not any(r.big_error for r in res.records)
        res = run_msobe_sf(4, 400, big=BigErrorModel(apply_probability=1.0), seed=15)
        assert all(r.big_error for r in res.records)

    def test_worker_count_does_not_change_output(self, monkeypatch):
        # Chunks of two record blocks: four chunks for three threads, which switch as often as they can.
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
        assert len(run_msobe_sf(4, 8192, seed=16, workers=10**6).records) > 0
        assert len(run_msobe_sf(7, 8192, seed=16, workers=10**6).records) > 0
        assert pools == [1, 2]  # one 12288-record chunk at n=4, two of 4096 at n=7

    @pytest.mark.parametrize("n", range(4, 10))
    def test_chunks_are_whole_blocks_within_the_entry_budget(self, n, monkeypatch):
        size = simulate._chunk_records(n)
        assert size % simulate._BLOCK == 0 and size * n * n <= simulate._STACK_ENTRIES
        assert (size + simulate._BLOCK) * n * n > simulate._STACK_ENTRIES  # the most whole blocks that fit
        assert size == {4: 12288, 7: 4096, 9: 2048}.get(n, size)
        bounds = []

        def record_bounds(n, lo, hi, *rest):
            bounds.append((lo, hi))
            return {"rev_iterations": np.ones(hi - lo, int), "rev_residual": np.zeros(hi - lo)}, np.zeros(hi - lo, bool)

        monkeypatch.setattr(simulate, "_msobe_chunk", record_bounds)
        total = 2 * size + 100
        run_msobe_sf(n, total, workers=2)
        assert bounds == [(0, size), (size, 2 * size), (2 * size, total)]

    def test_one_chunk_stays_within_its_memory_budget(self):
        """Traced peak of one n=7 chunk of 4096 records: two threads hold two such stacks in one process."""
        args = (simulate.BigErrorModel(), 1, 1)
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

    @pytest.mark.parametrize("dpv", [1, 3])
    def test_blocks_do_not_depend_on_workers_or_chunks(self, dpv, monkeypatch, tmp_path):
        # 4100 records: the model quarters (1025 records) end inside record
        # blocks, and the last block holds 4 records.  One chunk by default,
        # then chunks of two blocks (three chunks) and of one block (five).
        a = run_msobe_sf(4, 4100, seed=20, workers=1, disturbances_per_vector=dpv)
        assert len(a.records) + a.skipped == 4100
        monkeypatch.setattr(simulate, "_STACK_ENTRIES", 2 * simulate._BLOCK * 4 * 4)
        b = run_msobe_sf(4, 4100, seed=20, workers=2, disturbances_per_vector=dpv)
        c = run_msobe_sf(4, 4100, seed=20, workers=1, disturbances_per_vector=dpv)
        monkeypatch.setattr(simulate, "_STACK_ENTRIES", simulate._BLOCK * 4 * 4)
        d = run_msobe_sf(4, 4100, seed=20, workers=3, disturbances_per_vector=dpv)
        for other in (b, c, d):
            assert a.records == other.records and a.skipped == other.skipped

        def written(result):
            write_records_csv(result.records, tmp_path / "db.csv")
            return (tmp_path / "db.csv").read_bytes()

        assert written(a) == written(b) == written(c) == written(d)

    def test_record_seed_column_is_the_master_seed(self):
        res = run_msobe_sf(4, 400, seed=21)
        assert {r.seed for r in res.records} == {21}
        assert all(type(r.seed) is int for r in res.records)

    def test_record_replays_from_seed_index_and_block(self):
        """Record 3075 of 4100 from its block's stream alone: the stream definition, pinned."""
        seed, total, idx = 23, 4100, 3075
        rec = list(run_msobe_sf(4, total, seed=seed).records)[idx]
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
        metrics, failed = simulate._batch_metrics(a, v[None])
        assert not failed[0]
        want = SimRecord(4, idx, 0, "uniform", bool(applied), *(float(metrics[f][0]) for f in RECORD_FIELDS[5:13]), seed)
        assert rec == want

    def test_no_per_record_seeding(self, monkeypatch):
        built = []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        run_msobe_sf(4, 8192, seed=22)
        # one record block and one vector block per _BLOCK records
        assert len(built) <= 2 * math.ceil(8192 / simulate._BLOCK) + 2

    def test_shared_vector_groups(self):
        res = run_msobe_sf(4, 400, seed=17, disturbances_per_vector=4)
        ids = [r.vector_id for r in res.records]
        counts = Counter(ids)
        assert max(counts.values()) <= 4
        # perturbation ids cycle within a group
        by_vec = {}
        for r in res.records:
            by_vec.setdefault(r.vector_id, []).append(r.perturbation_id)
        assert any(sorted(v) == [0, 1, 2, 3] for v in by_vec.values())

    def test_total_must_split_across_models(self):
        with pytest.raises(ValueError):
            run_msobe_sf(4, 402)
        with pytest.raises(ValueError):
            run_msobe_sf(4, 0)

    def test_indices_are_plausible(self):
        res = run_msobe_sf(5, 400, seed=18)
        for r in res.records:
            assert 0.0 <= r.ati <= r.ki < 1.0
            assert r.si >= -1e-12
            assert r.gi >= 0.0
            assert r.ae_rev >= 0.0 and r.re_rev >= 0.0

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
        for a, b in zip(records, back):
            assert a.n == b.n and a.distribution == b.distribution
            assert a.big_error == b.big_error
            for f in ("si", "gi", "ki", "ati") + ERROR_NAMES:
                assert getattr(b, f) == pytest.approx(getattr(a, f), rel=1e-6)

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
        rows = [astuple(r) for r in records]
        text = {float: lambda x: format(x, ".8g"), bool: lambda x: str(int(x))}
        csv = "".join(",".join(text.get(type(x), str)(x) for x in row) + "\n" for row in rows)
        write_records_csv(records, tmp_path / "db.csv")
        assert (tmp_path / "db.csv").read_bytes() == (",".join(RECORD_FIELDS) + "\n" + csv).encode()

    def test_written_bytes_are_pinned(self, tmp_path):
        """One small database, byte for byte: the stream, kernels and text forms together."""
        records = run_msobe_sf(4, 400, seed=3).records
        write_records_csv(records, tmp_path / "db.csv")
        digest = hashlib.sha256((tmp_path / "db.csv").read_bytes()).hexdigest()
        assert digest == "a525c8536bf6b1b70d56e369fc8538f5afc010bf3084e7d4cb90b18cae96e0ce"
