"""The three benchmark workloads: inputs from a seed, timed operations, output checks.

Each workload has a primary and a secondary operation, timed one call at a
time in a closed loop with one caller:

  workload    primary operation                    secondary operation
  msobe_db    run_msobe_sf + write_records_csv     read_records_csv + summarize_classes
              (8192 records, n=7, workers=2)       + table_from_records
  corr_sweep  run_mse_sf(n=5, 40 runs, n_e=25)     run_nee_sf(n=5, n_r=8, n_p=5)
  single_pcm  cli.main analyze (one PCM, n=4..7)   cli.main accept (rev/gm x q10/median/q90
                                                   x two thresholds per PCM)

Every operation's output is checked after its timer stops; a failed check
counts the operation's work items as failed.  The program receives only the
generated inputs (sizes, seeds, PCM files); nothing here depends on which
commit of pcmkit is measured.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import pcmkit.acceptance as acceptance
import pcmkit.cli as cli
import pcmkit.simulate as simulate
import pcmkit.stats as stats

_NO_TRACE = contextlib.nullcontext()

# The paper's disturbance of a perfect PCM (MSOBE-SF), copied here so that the
# inputs do not depend on the pcmkit commit measured: one of four unit-mean
# small-error models per upper-triangle entry (gamma with shape 50, log-normal
# with sigma 0.15, normal with sd 0.25 truncated to SMALL_SUPPORT, uniform on
# SMALL_SUPPORT), and with probability BIG_PROBABILITY one entry replaced by a
# big error uniform on BIG_ERROR.
SMALL_SUPPORT = (0.5, 1.5)
LOGNORMAL_SIGMA = 0.15
BIG_ERROR = (2.0, 4.0)
BIG_PROBABILITY = 0.75


class Samples:
    """Per-call wall times (seconds) of one measured phase, with calibration.

    `kernel` holds the calibration kernel's time at every step boundary and
    `*_steps` the step each call ran in (see calibrate.py).
    """

    def __init__(self):
        self.primary: list = []
        self.secondary: list = []
        self.primary_steps: list = []
        self.secondary_steps: list = []
        self.kernel: list = []


class Workload:
    """Common bookkeeping: work items attempted and failed, check problems."""

    name = ""

    def __init__(self, work_dir: Path, seed: int, trace: bool):
        self.work_dir = work_dir
        self.rng = np.random.default_rng(seed)
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def prepare(self) -> None:
        """Write any input files the operations read."""

    def _seed(self) -> int:
        return int(self.rng.integers(2**31))

    def _fail(self, units: int, problem: str) -> None:
        self.failed += units
        if len(self.problems) < 20:
            self.problems.append(problem)

    def _check(self, units: int, checks) -> None:
        """Count `units` attempted; fail them all on the first false check."""
        self.attempted += units
        for ok, problem in checks:
            if not ok:
                self._fail(units, problem)
                return

    def _timed(self, tracer, kind: str, units: int, fn):
        with tracer.op(kind, units) if tracer else _NO_TRACE:
            t0 = perf_counter()
            out = fn()
            elapsed = perf_counter() - t0
        return out, elapsed


# ---------------------------------------------------------------------------


class MsobeDb(Workload):
    """`simulate msobe` then `report`, through the public API."""

    name = "msobe_db"
    N = 7
    TOTAL = 8192  # two of simulate's 4096-record chunks, one per worker
    WORKERS = 2
    primary_label = "generate+write"
    secondary_label = "read+summarize+table"

    def __init__(self, work_dir, seed, trace):
        super().__init__(work_dir, seed, trace)
        # Spans recorded inside pool workers never reach the parent, so the
        # traced run (and its untraced reference half) builds in-process.
        self.workers = 1 if trace else self.WORKERS
        self.db_path = work_dir / "db.csv"
        self.first = None  # (seed, records) of the first build
        self.db_bytes: list = []
        self.pickle_bytes: list = []

    @staticmethod
    def first_call(work_dir: Path, seed: int) -> None:
        simulate.run_msobe_sf(MsobeDb.N, 4, seed=seed)

    def _build(self, seed: int):
        return simulate.run_msobe_sf(
            self.N, self.TOTAL, big=simulate.BigErrorModel(apply_probability=BIG_PROBABILITY),
            seed=seed, workers=self.workers,
        )

    def step(self, samples: Samples, tracer) -> None:
        seed = self._seed()

        def build():
            result = self._build(seed)
            simulate.write_records_csv(result.records, self.db_path)
            return result

        result, t_build = self._timed(tracer, "build", self.TOTAL, build)
        samples.primary.append(t_build)

        def report():
            records = simulate.read_records_csv(self.db_path)
            summary = stats.summarize_classes(records, "ati", "ae_rev", 15)
            table = acceptance.table_from_records(records, self.N, "REV")
            return records, summary, table

        (back, summary, table), t_report = self._timed(tracer, "report", len(result.records), report)
        samples.secondary.append(t_report)

        if self.first is None:
            self.first = (seed, result.records)
        if self.trace:
            self.db_bytes.append(self.db_path.stat().st_size)
            self.pickle_bytes.append(len(pickle.dumps(result)))
        self.attempted += self.TOTAL
        skipped = result.skipped
        if skipped:
            self._fail(skipped, f"{skipped} records skipped (power iteration did not converge)")
        problem = self._problem(result, back, summary, table)
        if problem:
            self._fail(len(result.records), problem)

    def _problem(self, result, back, summary, table):
        records = result.records
        if len(records) + result.skipped != self.TOTAL:
            return f"records {len(records)} + skipped {result.skipped} != {self.TOTAL}"
        models = [m.distribution for m in simulate.default_error_models()]
        quarter = self.TOTAL // len(models)
        ids = [r.vector_id for r in records]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            return "records are not in generation order"
        big = 0
        for r in records:
            if r.n != self.N or r.distribution != models[r.vector_id // quarter]:
                return f"record {r.vector_id}: order or error model out of place"
            values = (r.si, r.gi, r.ki, r.ati, r.ae_rev, r.re_rev, r.ae_gm, r.re_gm)
            if not all(math.isfinite(v) for v in values):
                return f"record {r.vector_id}: non-finite field"
            if r.si < -1e-9 or min(r.gi, r.ki, r.ati) < 0 or r.ki < r.ati - 1e-12:
                return f"record {r.vector_id}: index out of range"
            if min(r.ae_rev, r.re_rev, r.ae_gm, r.re_gm) < 0:
                return f"record {r.vector_id}: negative loss"
            big += r.big_error
        if len(back) != len(records):
            return f"read back {len(back)} of {len(records)} records"
        for a, b in zip(records, back):
            for field in simulate.RECORD_FIELDS:
                x, y = getattr(a, field), getattr(b, field)
                if isinstance(x, float):
                    if float(f"{x:.8g}") != y:
                        return f"record {a.vector_id}: {field} read back as {y!r}, wrote {x!r}"
                elif x != y:
                    return f"record {a.vector_id}: {field} read back as {y!r}, wrote {x!r}"
        if sum(s.count for s in summary) != len(back):
            return "class counts do not sum to the record count"
        if len(table.rows) != 15:
            return "quantile table does not have 15 classes"
        p = BIG_PROBABILITY
        sigma = math.sqrt(p * (1 - p) / len(records))
        if abs(big / len(records) - p) > 5 * sigma:
            return f"big-error share {big / len(records):.4f} is more than 5 sigma from {p}"
        return None

    def determinism(self) -> None:
        """The first build again at the other worker count gives identical records."""
        seed, records = self.first
        other = 1 if self.workers > 1 else self.WORKERS
        saved, self.workers = self.workers, other
        try:
            again = self._build(seed).records
        finally:
            self.workers = saved
        if again != records:
            self._fail(len(records), f"workers={other} records differ from workers={self.workers}")

    def named_metrics(self, samples: Samples) -> list:
        return [
            ("records_per_s", len(samples.primary) * self.TOTAL / sum(samples.primary), "rec/s"),
            ("report_s", float(np.median(samples.secondary)), "s"),
        ]


# ---------------------------------------------------------------------------


class CorrSweep(Workload):
    """MSE-SF and NEE-SF correlation studies at n=5."""

    name = "corr_sweep"
    N = 5
    MSE_RUNS = 40
    N_E = 25
    NEE_VECTORS = 8
    NEE_ORDERS = 5
    primary_label = f"run_mse_sf({MSE_RUNS} runs)"
    secondary_label = f"run_nee_sf({NEE_VECTORS * NEE_ORDERS} orders)"

    def __init__(self, work_dir, seed, trace):
        super().__init__(work_dir, seed, trace)
        self.first = None  # (mse seed, mse summary, nee seed, nee summary)

    @staticmethod
    def first_call(work_dir: Path, seed: int) -> None:
        simulate.run_mse_sf(CorrSweep.N, n_runs=1, n_e=CorrSweep.N_E, seed=seed)
        simulate.run_nee_sf(CorrSweep.N, n_r=1, n_p=1, seed=seed)

    def _mse(self, seed):
        return simulate.run_mse_sf(self.N, n_runs=self.MSE_RUNS, n_e=self.N_E, seed=seed)

    def _nee(self, seed):
        return simulate.run_nee_sf(self.N, n_r=self.NEE_VECTORS, n_p=self.NEE_ORDERS, seed=seed)

    def step(self, samples: Samples, tracer) -> None:
        mse_seed, nee_seed = self._seed(), self._seed()
        mse, t_mse = self._timed(tracer, "mse", self.MSE_RUNS, lambda: self._mse(mse_seed))
        samples.primary.append(t_mse)
        nee_orders = self.NEE_VECTORS * self.NEE_ORDERS
        nee, t_nee = self._timed(tracer, "nee", nee_orders, lambda: self._nee(nee_seed))
        samples.secondary.append(t_nee)
        if self.first is None:
            self.first = (mse_seed, mse, nee_seed, nee)
        for summary, requested in ((mse, self.MSE_RUNS), (nee, nee_orders)):
            failed_before = self.failed
            self._check(requested, self._checks(summary, requested))
            if self.failed == failed_before and summary.skipped:
                self._fail(summary.skipped, f"{summary.framework}: {summary.skipped} runs skipped")

    @staticmethod
    def _checks(summary, requested):
        name = summary.framework
        yield (summary.runs + summary.skipped == requested,
               f"{name}: runs {summary.runs} + skipped {summary.skipped} != {requested}")
        for kind in ("spearman", "pearson", "min_spearman"):
            coeffs = getattr(summary, kind)
            yield (all(-1.0 <= c <= 1.0 for c in coeffs.values()),
                   f"{name}: {kind} coefficient outside [-1, 1]")
        yield (all(summary.min_spearman[k] <= summary.spearman[k] + 1e-12 for k in summary.spearman),
               f"{name}: min spearman above mean spearman")
        yield (len(summary.spearman) > 0, f"{name}: no spearman coefficients")

    def determinism(self) -> None:
        """The first MSE and NEE calls again at their seeds give identical summaries."""
        mse_seed, mse, nee_seed, nee = self.first
        if self._mse(mse_seed) != mse:
            self._fail(self.MSE_RUNS, "run_mse_sf is not reproducible at a fixed seed")
        if self._nee(nee_seed) != nee:
            self._fail(self.NEE_VECTORS * self.NEE_ORDERS, "run_nee_sf is not reproducible at a fixed seed")

    def named_metrics(self, samples: Samples) -> list:
        return [
            ("mse_runs_per_s", len(samples.primary) * self.MSE_RUNS / sum(samples.primary), "1/s"),
            ("nee_orders_per_s",
             len(samples.secondary) * self.NEE_VECTORS * self.NEE_ORDERS / sum(samples.secondary), "1/s"),
        ]


# ---------------------------------------------------------------------------

_SCALE = tuple(Fraction(1, k) for k in range(9, 1, -1)) + tuple(Fraction(k) for k in range(1, 10))
_SCALE_F = np.array([float(v) for v in _SCALE])
_ACCEPT_LINE = re.compile(r"ATI = (\S+) -> class (\d+) of the (\w+) table")
_VERDICT_LINE = re.compile(r"verdict: (ACCEPT|REJECT) \((\w+) vs threshold (\S+)\)")


def _small_errors(rng: np.random.Generator, model: int, size: int) -> np.ndarray:
    """Multiplicative small errors from error model 0-3, in the paper's order."""
    if model == 0:
        return rng.gamma(50.0, 1.0 / 50.0, size)
    if model == 1:
        return rng.lognormal(-LOGNORMAL_SIGMA**2 / 2, LOGNORMAL_SIGMA, size)
    if model == 2:
        out = rng.normal(1.0, 0.25, size)
        bad = (out < SMALL_SUPPORT[0]) | (out > SMALL_SUPPORT[1])
        while bad.any():
            out[bad] = rng.normal(1.0, 0.25, int(bad.sum()))
            bad = (out < SMALL_SUPPORT[0]) | (out > SMALL_SUPPORT[1])
        return out
    return rng.uniform(*SMALL_SUPPORT, size)


def _token(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _reference_si(a: np.ndarray) -> float:
    n = a.shape[0]
    return (float(np.max(np.linalg.eigvals(a).real)) - n) / (n - 1)


def _reference_ati(a: np.ndarray) -> float:
    values = []
    for i, k, j in itertools.combinations(range(a.shape[0]), 3):
        prod = a[i, k] * a[k, j]
        values.append(min(abs(1.0 - a[i, j] / prod), abs(1.0 - prod / a[i, j])))
    return sum(values) / len(values)


class SinglePcm(Workload):
    """`analyze` and `accept` on one matrix at a time, in-process through cli.main."""

    name = "single_pcm"
    ORDERS = (4, 5, 6, 7)
    PER_ORDER = 4  # one PCM per small-error model
    METHODS = ("rev", "gm")
    QUANTILES = ("q10", "median", "q90")
    THRESHOLDS = ("0.1", "0.25")
    primary_label = "analyze"
    secondary_label = "accept"

    def __init__(self, work_dir, seed, trace):
        super().__init__(work_dir, seed, trace)
        self.pcms: list = []  # (path, matrix, true-pv argument)
        self.out_path = work_dir / "analyze.jsonl"
        self.first = None  # (argv, output) of the first analyze
        self.tables: dict = {}
        self.cycles = 0

    def prepare(self) -> None:
        """Scale-rounded PCMs of orders 4-7, disturbed as the paper's MSOBE-SF disturbs them.

        The i-th PCM of each order draws its small errors from the i-th of
        the four error models, and one entry is replaced by a big error with
        probability BIG_PROBABILITY (see _small_errors).
        """
        for n in self.ORDERS:
            iu, ju = np.triu_indices(n, k=1)
            for copy in range(self.PER_ORDER):
                v = self.rng.standard_exponential(n)
                v /= v.sum()
                factors = _small_errors(self.rng, copy, iu.size)
                if self.rng.random() < BIG_PROBABILITY:
                    factors[self.rng.integers(iu.size)] = self.rng.uniform(*BIG_ERROR)
                ratios = v[iu] / v[ju] * factors
                nearest = np.abs(np.log(ratios)[:, None] - np.log(_SCALE_F)).argmin(axis=1)
                upper = [_SCALE[k] for k in nearest]
                tokens = [["1"] * n for _ in range(n)]
                for i, j, value in zip(iu, ju, upper):
                    tokens[i][j], tokens[j][i] = _token(value), _token(1 / value)
                path = self.work_dir / f"pcm_{n}_{copy}.csv"
                path.write_text("\n".join(",".join(row) for row in tokens) + "\n")
                matrix = np.array([[float(Fraction(t)) for t in row] for row in tokens])
                self.pcms.append((path, matrix, ",".join(repr(float(x)) for x in v)))

    @staticmethod
    def first_call(work_dir: Path, seed: int) -> None:
        pcm = sorted(work_dir.glob("pcm_*.csv"))[0]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["accept", str(pcm), "--method", "rev", "--threshold", "0.2"])

    def _analyze_argv(self, path, seed, true_pv):
        return ["analyze", str(path), "--seed", str(seed), "--true-pv", true_pv,
                "--format", "jsonl", "--out", str(self.out_path)]

    def step(self, samples: Samples, tracer) -> None:
        path, matrix, true_pv = self.pcms[self.cycles % len(self.pcms)]
        self.cycles += 1
        argv = self._analyze_argv(path, self._seed(), true_pv)
        code, t = self._timed(tracer, "analyze", 1, lambda: cli.main(argv))
        samples.primary.append(t)
        report = None
        if code == cli.EXIT_OK:
            text = self.out_path.read_text()
            report = json.loads(text)
            if self.first is None:
                self.first = (argv, text)
        self._check(1, self._analyze_checks(code, report, matrix))
        for method, quantile, threshold in itertools.product(
                self.METHODS, self.QUANTILES, self.THRESHOLDS):
            accept_argv = ["accept", str(path), "--method", method,
                           "--threshold", threshold, "--quantile", quantile]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code, t = self._timed(tracer, "accept", 1, lambda: cli.main(accept_argv))
            samples.secondary.append(t)
            self._check(1, self._accept_checks(code, out.getvalue(), report, matrix.shape[0],
                                               method, quantile, float(threshold)))

    @staticmethod
    def _analyze_checks(code, report, matrix):
        yield code == cli.EXIT_OK, f"analyze exited with {code}"
        n = matrix.shape[0]
        yield report["n"] == n, "analyze reports the wrong order"
        si_ref = _reference_si(matrix)
        yield abs(report["si"] - si_ref) <= 1e-9, f"SI {report['si']!r} vs eigvals {si_ref!r}"
        ati_ref = _reference_ati(matrix)
        yield abs(report["ati"] - ati_ref) <= 1e-12, f"ATI {report['ati']!r} vs triad loop {ati_ref!r}"
        yield (all(report[k] >= 0 for k in ("ae_rev", "re_rev", "ae_gm", "re_gm")),
               "negative estimation error")

    def _table_rows(self, n, method):
        key = (n, method)
        if key not in self.tables:
            self.tables[key] = acceptance.builtin_table(n, method).rows
        return self.tables[key]

    def _accept_checks(self, code, text, report, n, method, quantile, threshold):
        yield code in (cli.EXIT_OK, cli.EXIT_REJECT), f"accept exited with {code}"
        yield report is not None, "no analyze report to compare accept with"
        head, verdict = _ACCEPT_LINE.search(text), _VERDICT_LINE.search(text)
        yield head is not None and verdict is not None, f"unparsable accept output {text!r}"
        yield head.group(1) == f"{report['ati']:.4f}", "accept ATI differs from analyze ATI"
        rows = self._table_rows(n, method.upper())
        row = next((r for r in rows[:-1] if r.class_lo <= report["ati"] < r.class_hi), rows[-1])
        yield int(head.group(2)) == row.class_index, "accept chose the wrong ATI class"
        accepted = getattr(row, quantile) <= threshold
        yield (code == (cli.EXIT_OK if accepted else cli.EXIT_REJECT)
               and verdict.group(1) == ("ACCEPT" if accepted else "REJECT")), "wrong verdict"

    def determinism(self) -> None:
        """The first analyze again at its seed writes identical output."""
        argv, text = self.first
        cli.main(argv)
        if self.out_path.read_text() != text:
            self._fail(1, "analyze output is not reproducible at a fixed --seed")

    def named_metrics(self, samples: Samples) -> list:
        out = []
        for label, values, pct, minimum in (("analyze", samples.primary, 90, 100),
                                            ("accept", samples.secondary, 99, 1000)):
            ms = np.array(values) * 1e3
            out.append((f"{label}_p50_ms", float(np.percentile(ms, 50)), "ms"))
            note = "" if ms.size >= minimum else f" (only {ms.size} calls; p{pct} wants {minimum})"
            out.append((f"{label}_p{pct}_ms", float(np.percentile(ms, pct)), "ms" + note))
        return out


WORKLOADS = {w.name: w for w in (MsobeDb, CorrSweep, SinglePcm)}
