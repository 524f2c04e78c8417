"""Random judgment-error models and the three Monte Carlo simulation frameworks.

The frameworks are deterministic functions of a master seed.  Every MSE or
NEE run derives its own generator from ``SeedSequence(seed, spawn_key=...)``;
MSOBE seeds per block of ``_BLOCK`` records (and of ``_BLOCK`` vectors), not
per record, and draws the whole block at once.  MSOBE chunks are unions of
whole blocks and all per-record arithmetic is independent of batch
composition, so results do not depend on chunk or block-of-runs sizes or
worker (thread) counts.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from .core import Pcm, PriorityVector, round_matrix_to_scale, _as_matrix, _read_text
from .indices import batch_gi, batch_ki_ati, batch_si
from .loss import batch_absolute_error, batch_relative_error
from .prioritize import batch_gm, batch_rev
from .stats import average_ranks, batch_pearson

__all__ = [
    "ErrorModel",
    "BigErrorModel",
    "SimRecord",
    "RecordTable",
    "MsobeResult",
    "CorrelationSummary",
    "default_error_models",
    "random_pv",
    "perturb_entry",
    "run_mse_sf",
    "run_nee_sf",
    "run_msobe_sf",
    "write_records_csv",
    "read_records_csv",
    "RECORD_FIELDS",
    "MSOBE_RNG",
]

SMALL_ERROR_SUPPORT = (0.5, 1.5)  # D_S
ERROR_DISTRIBUTIONS = ("gamma", "log-normal", "truncated-normal", "uniform")


@dataclass(frozen=True)
class ErrorModel:
    """Multiplicative small-error distribution with unit mean.

    Parameter conventions per distribution:
      gamma           -> (shape, scale)
      log-normal      -> (mu, sigma)
      truncated-normal-> (mean, sd), restricted to SMALL_ERROR_SUPPORT
      uniform         -> (lo, hi)
    """

    distribution: str
    params: tuple

    def __post_init__(self):
        if self.distribution not in ERROR_DISTRIBUTIONS:
            raise ValueError(f"unknown error distribution {self.distribution!r}")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.distribution == "gamma":
            shape, scale = self.params
            return rng.gamma(shape, scale, size)
        if self.distribution == "log-normal":
            mu, sigma = self.params
            return rng.lognormal(mu, sigma, size)
        if self.distribution == "truncated-normal":
            mean, sd = self.params
            lo, hi = SMALL_ERROR_SUPPORT
            out = rng.normal(mean, sd, size)
            bad = (out < lo) | (out > hi)
            while bad.any():
                out[bad] = rng.normal(mean, sd, int(bad.sum()))
                bad = (out < lo) | (out > hi)
            return out
        lo, hi = self.params  # uniform
        return rng.uniform(lo, hi, size)


_LOGNORMAL_SIGMA = 0.15


def default_error_models() -> tuple:
    """The four standard small-error models in their fixed quarter order."""
    return (
        ErrorModel("gamma", (50.0, 1.0 / 50.0)),
        ErrorModel("log-normal", (-_LOGNORMAL_SIGMA**2 / 2, _LOGNORMAL_SIGMA)),
        ErrorModel("truncated-normal", (1.0, 0.25)),
        ErrorModel("uniform", SMALL_ERROR_SUPPORT),
    )


@dataclass(frozen=True)
class BigErrorModel:
    """One large multiplicative error, uniform on [lo, hi], applied with given probability."""

    lo: float = 2.0
    hi: float = 4.0
    apply_probability: float = 0.75

    def __post_init__(self):
        if not (0 < self.lo < self.hi < math.inf and 0 <= self.apply_probability <= 1):
            raise ValueError(f"need finite 0 < lo < hi and probability in [0, 1]: {self}")


@dataclass(frozen=True)
class SimRecord:
    """One simulated PCM: provenance, index values and estimation errors.

    The field order is the column order of the database files.  ``seed`` is
    the run's master seed: with the record index (``vector_id`` and
    ``perturbation_id``) and the block size ``_BLOCK`` it is the key that
    replays the record from its block's stream.
    """

    n: int
    vector_id: int
    perturbation_id: int
    distribution: str
    big_error: bool
    si: float
    gi: float
    ki: float
    ati: float
    ae_rev: float
    re_rev: float
    ae_gm: float
    re_gm: float
    seed: int


# Column dtypes, from SimRecord's field types (int, str, bool or float), in field order.
_DTYPES = {name: {int: np.int64, str: object, bool: np.bool_, float: np.float64}[typ]
           for name, typ in get_type_hints(SimRecord).items()}
RECORD_FIELDS = tuple(_DTYPES)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Simulation records: ``columns`` maps each SimRecord field to a numpy column of its dtype.

    ``table[name]`` is a column; iterating yields SimRecord rows of Python scalars.
    """

    columns: dict

    def __len__(self):
        return len(self.columns["n"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __iter__(self):
        return itertools.starmap(SimRecord, zip(*(self.columns[name].tolist() for name in RECORD_FIELDS)))

    def __eq__(self, other):
        same = isinstance(other, RecordTable) and self.columns.keys() == other.columns.keys()
        return same and all(np.array_equal(col, other[name]) for name, col in self.columns.items())


@dataclass(frozen=True)
class MsobeResult:
    """Simulation database, the tally of non-converged, excluded records and REV's behaviour on the kept ones.

    ``rev`` holds the mean, 99th percentile (the lower of two neighbours) and
    maximum of the power-iteration counts and the maximum residual
    |A w - lambda_max w| over the kept records (None each when none is kept).
    """

    records: RecordTable
    skipped: int
    rev: dict


@dataclass(frozen=True)
class CorrelationSummary:
    """Mean (and minimum Spearman) correlations over all runs of a framework.

    Keys of the coefficient dicts: a bare tracked-quantity name ("si",
    "ae_rev", ...) denotes its correlation with the framework's driving
    variable (error magnitude for MSE, error count for NEE); "si:ae_rev"
    style keys denote index-versus-estimation-error correlations.
    """

    framework: str
    n: int
    runs: int
    spearman: dict
    pearson: dict
    min_spearman: dict
    skipped: int

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# every quantity of a stack, from the kernels of prioritize, indices and loss


def _batch_metrics(a: np.ndarray, v: np.ndarray):
    """All indices and both estimators' errors for a stack of reciprocal PCMs.

    Returns a dict of per-record vectors, REV's power-iteration counts and
    residuals among them, plus the non-convergence mask.
    """
    n = a.shape[1]
    w_rev, lam, iterations, residual, converged = batch_rev(a)
    w_gm = batch_gm(a)
    ki, ati = batch_ki_ati(a)
    out = {
        "si": batch_si(lam, n),
        "gi": batch_gi(a, w_gm),
        "ki": ki,
        "ati": ati,
        "ae_rev": batch_absolute_error(v, w_rev),
        "re_rev": batch_relative_error(v, w_rev),
        "ae_gm": batch_absolute_error(v, w_gm),
        "re_gm": batch_relative_error(v, w_gm),
        "rev_iterations": iterations,
        "rev_residual": residual,
    }
    return out, ~converged


# ---------------------------------------------------------------------------
# random generation primitives


def _rng_for(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _random_pv_array(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the probability simplex via normalized exponentials."""
    e = rng.standard_exponential(n)
    return e / e.sum()


def random_pv(n: int, rng) -> PriorityVector:
    """Simplex-uniform random priority vector; rng is a Generator or a seed."""
    if n < 3:
        raise ValueError("need n >= 3")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return PriorityVector(_random_pv_array(n, rng))


def perturb_entry(m, i: int, j: int, factor: float) -> Pcm:
    """Multiply the upper-triangle entry (i, j) by factor and reciprocate (j, i)."""
    if i >= j:
        raise ValueError("need an upper-triangle position i < j")
    if factor <= 0:
        raise ValueError("factor must be positive")
    a = _as_matrix(m).copy()
    a[i, j] *= factor
    a[j, i] = 1.0 / a[i, j]
    return Pcm(a)


# ---------------------------------------------------------------------------
# MSE-SF: magnitude of a single error

MSE_EPS_RANGE = (1.01, 1.075)
INDEX_NAMES = ("si", "gi", "ki", "ati")
ERROR_NAMES = ("ae_rev", "re_rev", "ae_gm", "re_gm")
TRACKED_NAMES = INDEX_NAMES + ERROR_NAMES


# Correlated pairs as rows of the stacked TRACKED_NAMES vectors plus the
# driving variable (last row): each tracked quantity against the driving
# variable, then every index against every estimation error.
_CORRELATION_KEYS = TRACKED_NAMES + tuple(f"{i}:{e}" for i in INDEX_NAMES for e in ERROR_NAMES)
_TARGET_ROW = len(TRACKED_NAMES)
_PAIR_ROWS = np.array(
    [(TRACKED_NAMES.index(t), _TARGET_ROW) for t in TRACKED_NAMES]
    + [(TRACKED_NAMES.index(i), TRACKED_NAMES.index(e)) for i in INDEX_NAMES for e in ERROR_NAMES]
).T


# Every stack the frameworks evaluate at once (an MSOBE chunk, an MSE or NEE
# block of runs) holds at most this many matrix entries (4096 matrices at
# n=7), so that its working set, about 6 MB, is the same at every order n.
_STACK_ENTRIES = 4096 * 7 * 7


def _stack_matrices(n: int) -> int:
    """The most n-by-n matrices one stack holds."""
    return _STACK_ENTRIES // (n * n)


def _run_blocks(n_runs: int, steps: int, n: int):
    """Consecutive ranges of run indices, each one stack of at most _stack_matrices(n) matrices (one run at least)."""
    size = max(1, _stack_matrices(n) // steps)
    return (range(lo, min(lo + size, n_runs)) for lo in range(0, n_runs, size))


def _disturbed_stack(v: np.ndarray, hit: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Each run's perfect ratio matrix once per step, some entries disturbed.

    v holds the runs' true vectors (runs, n).  hit and factors broadcast to
    (runs, steps, pairs): hit flags the upper-triangle entries, in
    np.triu_indices order, that are multiplied by their factor and
    reciprocated below the diagonal.  Every other entry keeps its exact ratio
    v_i / v_j, in the lower triangle too.
    """
    iu, ju = np.triu_indices(v.shape[1], k=1)
    m = v[:, :, None] / v[:, None, :]
    a = np.repeat(m[:, None], np.broadcast_shapes(hit.shape, factors.shape)[1], axis=1)
    upper = m[:, None, iu, ju] * factors
    a[..., iu, ju] = np.where(hit, upper, a[..., iu, ju])
    a[..., ju, iu] = np.where(hit, 1.0 / upper, a[..., ju, iu])
    return a


def _correlate_blocks(framework: str, n: int, blocks) -> CorrelationSummary:
    """Mean and minimum per-run correlations of a framework's blocks of runs.

    Each block is a (runs, steps, n, n) stack with the runs' true vectors
    (runs, n) and driving variable (runs, steps).  A run with any
    non-converged record is skipped whole.  Per-run coefficients are folded
    into running sums, counts and minima, so memory does not grow with the
    number of runs.  NaN coefficients (a constant row) are left out.
    """
    k = len(_CORRELATION_KEYS)
    sums = np.zeros((2, k))  # row 0 Spearman, row 1 Pearson
    counts = np.zeros((2, k), dtype=int)
    min_s = np.full(k, np.inf)
    runs = skipped = 0
    x, y = _PAIR_ROWS
    for a, v, target in blocks:
        b, steps = target.shape
        metrics, failed = _batch_metrics(a.reshape(-1, n, n), np.repeat(v, steps, axis=0))
        ok = ~failed.reshape(b, steps).any(axis=1)
        rows = np.stack([metrics[name].reshape(b, steps) for name in TRACKED_NAMES] + [target], axis=1)[ok]
        ranks = average_ranks(rows)
        coeffs = np.stack([batch_pearson(ranks[:, x], ranks[:, y]), batch_pearson(rows[:, x], rows[:, y])])
        valid = ~np.isnan(coeffs)
        # Added left to right, one run after another, so the means do not depend on the block size.
        terms = np.concatenate([sums[:, None], np.where(valid, coeffs, 0.0)], axis=1)
        sums = np.cumsum(terms, axis=1)[:, -1]
        counts += valid.sum(axis=1)
        min_s = np.fmin(min_s, np.fmin.reduce(coeffs[0], axis=0, initial=np.inf))
        kept = int(ok.sum())
        runs += kept
        skipped += b - kept

    def mapping(values, valid_counts):
        return {key: float(val) for key, val, c in zip(_CORRELATION_KEYS, values, valid_counts) if c}

    mean = sums / np.maximum(counts, 1)
    return CorrelationSummary(
        framework, n, runs,
        mapping(mean[0], counts[0]), mapping(mean[1], counts[1]), mapping(min_s, counts[0]),
        skipped,
    )


def run_mse_sf(n: int, n_runs: int = 1000, n_e: int = 25, seed: int = 0) -> CorrelationSummary:
    """Sweep a single judgment error through magnitudes eps^1..eps^n_e.

    For each run: random priority vector and its perfect ratio matrix, one
    random upper-triangle position, eps uniform on [1.01, 1.075]; at step k
    the chosen entry carries the cumulative factor eps^k.  Correlations are
    taken against the error vector (eps, eps^2, ..., eps^n_e).
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if n_e < 2:
        raise ValueError("need n_e >= 2")
    n_pairs = n * (n - 1) // 2
    exponents = np.arange(1, n_e + 1)

    def blocks():
        for block in _run_blocks(n_runs, n_e, n):
            v = np.empty((len(block), n))
            position = np.empty(len(block), dtype=int)
            eps = np.empty(len(block))
            for k, r in enumerate(block):
                rng = _rng_for(seed, r)
                v[k] = _random_pv_array(n, rng)
                position[k] = rng.integers(n_pairs)
                eps[k] = rng.uniform(*MSE_EPS_RANGE)
            factors = eps[:, None] ** exponents
            hit = np.arange(n_pairs) == position[:, None, None]
            yield _disturbed_stack(v, hit, factors[..., None]), v, factors

    return _correlate_blocks("mse", n, blocks())


# ---------------------------------------------------------------------------
# NEE-SF: number of equal errors

NEE_EPS_RANGE = (1.1, 1.8)


def run_nee_sf(n: int, n_r: int = 200, n_p: int = 5, seed: int = 0) -> CorrelationSummary:
    """Cumulatively disturb all upper-triangle entries by one shared factor.

    Each of the n_r random vectors is examined under n_p random disturbance
    orders; the disturbance factor is uniform on [1.1, 1.8].  After each
    disturbed entry the indices and estimate errors are recorded and finally
    correlated against the running error count 1..n(n-1)/2.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    k_steps = n * (n - 1) // 2
    steps = np.arange(k_steps)
    counts = np.arange(1, k_steps + 1, dtype=float)

    def blocks():
        # Run q examines vector q // n_p under its (q % n_p)-th order.
        for block in _run_blocks(n_r * n_p, k_steps, n):
            vector_ids = np.array(block) // n_p
            first = int(vector_ids[0])
            vectors = [_random_pv_array(n, _rng_for(seed, 0, r)) for r in range(first, int(vector_ids[-1]) + 1)]
            v = np.array(vectors)[vector_ids - first]
            disturbed_at = np.empty((len(block), k_steps), dtype=int)  # step that disturbs each entry
            eps = np.empty(len(block))
            for k, q in enumerate(block):
                rng = _rng_for(seed, 1, *divmod(q, n_p))
                disturbed_at[k] = np.argsort(rng.permutation(k_steps))
                eps[k] = rng.uniform(*NEE_EPS_RANGE)
            hit = disturbed_at[:, None, :] <= steps[:, None]
            yield _disturbed_stack(v, hit, eps[:, None, None]), v, np.broadcast_to(counts, hit.shape[:2])

    return _correlate_blocks("nee", n, blocks())


# ---------------------------------------------------------------------------
# MSOBE-SF: many small errors, possibly one big error, scale rounding

# The MSOBE random stream.  Record block b (records b*_BLOCK up to the next
# block or the total) draws from _rng_for(seed, _RECORD_KEY, b): at each
# error-model boundary inside the block it starts a segment of k records and
# draws, in this order, k big-error flags, k big-error positions, k big-error
# factors and the (k, pairs) small-error factors.  Vector block vb draws the
# (_BLOCK, n) exponentials behind vectors vb*_BLOCK onwards from
# _rng_for(seed, _VECTOR_KEY, vb).  Given the run's configuration, a record
# is replayed from the master seed, its index and _BLOCK.
_BLOCK = 1024
_VECTOR_KEY, _RECORD_KEY = 0, 1
MSOBE_RNG = {"stream": "msobe-block", "block": _BLOCK}


def _vector_rows(n: int, seed: int, vector_ids: np.ndarray) -> np.ndarray:
    """The simplex-uniform true vectors of ascending vector ids, read from their vector blocks."""
    first, last = int(vector_ids[0]) // _BLOCK, int(vector_ids[-1]) // _BLOCK
    e = np.concatenate(
        [_rng_for(seed, _VECTOR_KEY, vb).standard_exponential((_BLOCK, n)) for vb in range(first, last + 1)]
    )
    return (e / e.sum(axis=1, keepdims=True))[vector_ids - first * _BLOCK]


def _segments(lo: int, hi: int, quarter: int, n_models: int):
    """Split records [lo, hi) where the error model changes: (start, stop, model index)."""
    while lo < hi:
        model = min(lo // quarter, n_models - 1)
        stop = hi if model == n_models - 1 else min(hi, (model + 1) * quarter)
        yield lo, stop, model
        lo = stop


def _chunk_records(n: int) -> int:
    """Records of one MSOBE chunk: the stack budget rounded down to whole record blocks, one block at least."""
    return max(1, _stack_matrices(n) // _BLOCK) * _BLOCK


def _msobe_chunk(n, lo, hi, total, big, seed, dpv):
    """Columns of records [lo, hi), a union of whole record blocks, and their non-convergence mask.

    Beside the database fields, the columns hold REV's rev_iterations and rev_residual.
    """
    assert lo % _BLOCK == 0, "chunks start on a record block"
    n_pairs = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, k=1)
    idx = np.arange(lo, hi)
    vector_ids = idx // dpv
    factors = np.empty((hi - lo, n_pairs))
    big_flags = np.empty(hi - lo, dtype=bool)
    model_ids = np.empty(hi - lo, dtype=np.intp)
    models = default_error_models()
    quarter = total // len(models)
    for b_lo in range(lo, hi, _BLOCK):
        rng = _rng_for(seed, _RECORD_KEY, b_lo // _BLOCK)
        for s_lo, s_hi, model in _segments(b_lo, min(b_lo + _BLOCK, hi), quarter, len(models)):
            k, rows = s_hi - s_lo, slice(s_lo - lo, s_hi - lo)
            applied = rng.random(k) < big.apply_probability
            big_pos = rng.integers(n_pairs, size=k)
            eps_b = rng.uniform(big.lo, big.hi, k)
            f = models[model].draw(rng, (k, n_pairs))
            f[applied, big_pos[applied]] = eps_b[applied]
            factors[rows] = f
            big_flags[rows] = applied
            model_ids[rows] = model
    v = _vector_rows(n, seed, vector_ids)
    rounded = round_matrix_to_scale(v[:, iu] / v[:, ju] * factors)
    a = np.ones((hi - lo, n, n))
    a[:, iu, ju] = rounded
    a[:, ju, iu] = 1.0 / rounded
    del factors, rounded  # out of the way of the kernels' temporaries
    metrics, failed = _batch_metrics(a, v)
    names = np.array([m.distribution for m in models], dtype=object)
    columns = dict(
        vector_id=vector_ids,
        perturbation_id=idx % dpv,
        distribution=names[model_ids],
        big_error=big_flags,
        **metrics,
    )
    return columns, failed


def _rev_summary(iterations: np.ndarray, residual: np.ndarray) -> dict:
    """Power-iteration counts (mean, p99, max) and largest residual of kept records, as JSON-ready numbers."""
    if not iterations.size:
        return dict.fromkeys(("iterations_mean", "iterations_p99", "iterations_max", "residual_max"))
    return {
        "iterations_mean": float(iterations.mean()),
        "iterations_p99": int(np.percentile(iterations, 99, method="lower")),
        "iterations_max": int(iterations.max()),
        "residual_max": float(residual.max()),
    }


def run_msobe_sf(
    n: int,
    total_matrices: int,
    big: BigErrorModel = BigErrorModel(),
    seed: int = 0,
    workers: int = 1,
    disturbances_per_vector: int = 1,
) -> MsobeResult:
    """Generate the simulation database of rounded, randomly disturbed PCMs.

    Each record: fresh (or group-shared, see disturbances_per_vector) random
    priority vector and perfect ratio matrix; with the configured probability
    one upper-triangle entry is hit by a big error uniform on [big.lo,
    big.hi]; every other upper-triangle entry gets a small multiplicative
    error from the record's distribution; the upper triangle is rounded to
    SAATY_SCALE and the lower triangle reciprocated.  The matrix count is
    split into equal contiguous blocks across default_error_models(), in order.

    The records are generated in chunks of _chunk_records(n); workers > 1
    runs them on up to that many threads in this process, never more
    threads than chunks.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if total_matrices <= 0 or total_matrices % 4:  # one equal block per default error model
        raise ValueError("total_matrices must be a positive multiple of 4")
    if not 0 <= seed < 2**63:  # the int64 seed column of the database
        raise ValueError(f"seed must lie in [0, 2**63), not {seed}")
    if disturbances_per_vector < 1:
        raise ValueError("disturbances_per_vector must be >= 1")
    bounds = list(range(0, total_matrices, _chunk_records(n))) + [total_matrices]

    def chunk(lo, hi):
        return _msobe_chunk(n, lo, hi, total_matrices, big, seed, disturbances_per_vector)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(bounds) - 1)) as pool:
            results = list(pool.map(chunk, bounds, bounds[1:]))
    else:
        results = list(map(chunk, bounds, bounds[1:]))
    kept = ~np.concatenate([failed for _, failed in results])
    columns = {name: np.concatenate([c[name] for c, _ in results])[kept] for name in results[0][0]}
    columns.update(n=np.full(kept.sum(), n), seed=np.full(kept.sum(), seed))
    rev = _rev_summary(columns.pop("rev_iterations"), columns.pop("rev_residual"))
    return MsobeResult(RecordTable(columns), int(kept.size - kept.sum()), rev)


# ---------------------------------------------------------------------------
# database serialization

# Text forms per column dtype: a flag as 1 or 0, a float as its %.8g text.  A file is read as
# _READ_DTYPE (flags as numbers), then checked.
_CSV_ROW = ",".join({np.float64: "%.8g", object: "%s"}.get(dtype, "%d") for dtype in _DTYPES.values()) + "\n"
_READ_DTYPE = np.dtype([(name, np.float64 if dtype is np.bool_ else dtype) for name, dtype in _DTYPES.items()])
# Value rules per field as (what, test); SI is only finite, because float round-off leaves values like -3e-16.
# A distribution column is checked by its distinct values, and masked only to find the row of a bad one.
_CHECKS = {
    "n": ("the order in row 1", lambda col: col == col[:1]),
    **{name: ("non-negative", lambda col: col >= 0) for name in ("vector_id", "perturbation_id", "seed")},
    "distribution": (f"one of {', '.join(ERROR_DISTRIBUTIONS)}",
                     lambda col: set(col.tolist()) <= set(ERROR_DISTRIBUTIONS) or np.isin(col, ERROR_DISTRIBUTIONS)),
    "big_error": ("0 or 1", lambda col: (col == 0) | (col == 1)),
    "si": ("finite", np.isfinite),
    **{name: ("finite and non-negative", lambda col: np.isfinite(col) & (col >= 0))
       for name in ("gi", "ki", "ati", "ae_rev", "re_rev", "ae_gm", "re_gm")},
}


def _cast(values, dtype):
    """values (text or numbers) as an array of dtype, or None if they are not one."""
    try:
        return np.asarray(values, dtype)
    except (ValueError, OverflowError):
        return None


def _checked_table(path, columns: dict) -> RecordTable:
    """The RecordTable of one file's columns (field name -> values), checked value by value.

    Raises ValueError naming the file and the first row at fault (rows count
    records from 1): a value that is not of its field's type, or one that
    breaks its field's rule in _CHECKS.
    """
    cast = {}
    for name, dtype in _DTYPES.items():
        values, read = columns[name], _READ_DTYPE[name]
        col = _cast(values, read)
        if col is None:
            row = next(k for k, x in enumerate(values) if _cast(x, read) is None)
            raise ValueError(f"{path}: row {row + 1}: bad {name} value {values[row]!r}")
        if name in _CHECKS:
            what, check = _CHECKS[name]
            ok = check(col)
            if not np.all(ok):
                row = int(np.argmin(ok))
                value = col[row] if dtype is object else f"{col[row]:g}"
                raise ValueError(f"{path}: row {row + 1}: {name} is {value}, not {what}")
        cast[name] = np.asarray(col, dtype)
    return RecordTable(cast)


def write_records_csv(records: RecordTable, path) -> None:
    """The header, then _BLOCK rows at a time, so the writer holds one block's Python scalars."""
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        for lo in range(0, len(records), _BLOCK):
            columns = [records[name][lo:lo + _BLOCK].tolist() for name in RECORD_FIELDS]
            fh.write("".join([_CSV_ROW % row for row in zip(*columns)]))


def read_records_csv(path) -> RecordTable:
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n").split(",") != list(RECORD_FIELDS):
                raise ValueError(f"{path}: not a simulation database (bad header)")
            lines = fh.readlines()
    except UnicodeDecodeError:  # its position counts from the chunk read; decode the whole file to name the byte
        _read_text(path)
        raise
    if not any(line.strip() for line in lines):  # loadtxt warns on a file with no rows
        rows = np.empty(0, _READ_DTYPE)
    else:
        try:  # loadtxt skips empty lines but not whitespace-only ones
            rows = np.loadtxt(lines, dtype=_READ_DTYPE, delimiter=",", comments=None, ndmin=1)
        except ValueError:  # a row at fault or a whitespace-only line: split the rows as text and check them
            cells = [line.rstrip("\n").split(",") for line in lines if line.strip()]
            for row, values in enumerate(cells, 1):
                if len(values) != len(RECORD_FIELDS):
                    raise ValueError(f"{path}: row {row}: {len(values)} fields, not {len(RECORD_FIELDS)}")
            return _checked_table(path, dict(zip(RECORD_FIELDS, zip(*cells))))
    return _checked_table(path, {name: rows[name] for name in RECORD_FIELDS})
