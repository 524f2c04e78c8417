"""Random judgment-error models and the three Monte Carlo simulation frameworks.

The frameworks are deterministic functions of a master seed.  Every
framework seeds per block of ``_BLOCK`` vectors, records or runs, never per
record or run, and draws what the block's members need at once, so a member's
inputs depend only on the seed, its index and ``_BLOCK``.  All three read
their blocks through one reader, ``_blocks``: MSOBE chunks are unions of
whole record blocks, MSE and NEE cut each run block into stacks of runs, and
all per-record arithmetic is independent of batch composition, so results do
not depend on chunk or stack sizes or worker (thread) counts.

The frameworks differ only in the factors by which they multiply the
upper-triangle ratios v_i / v_j of a perfect ratio matrix, in np.triu_indices
order (MSOBE then rounds the products to the scale).  All three build their
matrices from those upper triangles through core._from_upper, so every matrix
they evaluate has a unit diagonal and a_ji == 1 / a_ij bit for bit.

Each framework is one input stream that _batch_metrics evaluates.
_mse_stacks and _nee_stacks yield a call's runs as stacks of (matrices, true
vectors, driving variable) for _correlate_blocks.  _msobe_matrices returns the
matrices, true vectors, big-error flags and positions and model ids of a
record range for _msobe_chunk.  Record i of a database is replayed from its
manifest (the config's n, total, big_prob and seed; rng is MSOBE_RNG, whose
block is _BLOCK) as row i % block of _msobe_matrices(n, lo, min(lo + block,
total), total, BigErrorModel(big_prob), seed) with lo = i - i % block.
"""
from __future__ import annotations

from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .core import round_matrix_to_scale, _from_upper, _read_text, _sum_in_order, _upper_indices
from .indices import batch_indices
from .loss import batch_losses
from .prioritize import batch_gm, batch_rev
from .stats import pearson_pairs, spearman_pairs

__all__ = [
    "BigErrorModel",
    "RecordTable",
    "MsobeResult",
    "CorrelationSummary",
    "default_error_models",
    "run_mse_sf",
    "run_nee_sf",
    "run_msobe_sf",
    "write_records_csv",
    "read_records_csv",
    "RECORD_FIELDS",
    "MSOBE_RNG",
    "RUN_RNG",
]

SMALL_ERROR_SUPPORT = (0.5, 1.5)  # D_S
BIG_ERROR_RANGE = (2.0, 4.0)  # the big error is uniform on it


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


# The models' names in quarter order: the only values a database's distribution column may hold.
ERROR_DISTRIBUTIONS = tuple(m.distribution for m in default_error_models())


@dataclass(frozen=True)
class BigErrorModel:
    """One large multiplicative error, uniform on BIG_ERROR_RANGE, applied with the given probability."""

    apply_probability: float = 0.75

    def __post_init__(self):
        if not 0 <= self.apply_probability <= 1:
            raise ValueError(f"need probability in [0, 1]: {self}")


# The database columns in file order, each with its dtype and its value rule (what, test).  ``seed`` is
# the run's master seed: with the record index ``vector_id``, the block size ``_BLOCK`` and the run's
# big-error probability (the manifest's ``big_prob``) it is the key that replays the record from its
# block's stream.  ``perturbation_id`` is always 0.  SI is only finite, because float round-off leaves
# values like -3e-16.  A distribution column is checked by its distinct values, and masked only to find
# the row of a bad one.
_NON_NEGATIVE_INT = (np.int64, "non-negative", lambda col: col >= 0)
_NON_NEGATIVE_FLOAT = (np.float64, "finite and non-negative", lambda col: np.isfinite(col) & (col >= 0))
_COLUMNS = {
    "n": (np.int64, "the order in row 1", lambda col: col == col[:1]),
    "vector_id": _NON_NEGATIVE_INT,
    "perturbation_id": _NON_NEGATIVE_INT,
    "distribution": (object, f"one of {', '.join(ERROR_DISTRIBUTIONS)}",
                     lambda col: set(col.tolist()) <= set(ERROR_DISTRIBUTIONS) or np.isin(col, ERROR_DISTRIBUTIONS)),
    "big_error": (np.bool_, "0 or 1", lambda col: (col == 0) | (col == 1)),
    "si": (np.float64, "finite", np.isfinite),
    **dict.fromkeys(("gi", "ki", "ati", "ae_rev", "re_rev", "ae_gm", "re_gm"), _NON_NEGATIVE_FLOAT),
    "seed": _NON_NEGATIVE_INT,
}
RECORD_FIELDS = tuple(_COLUMNS)
_DTYPES = {name: dtype for name, (dtype, _, _) in _COLUMNS.items()}
_Row = namedtuple("_Row", RECORD_FIELDS)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Simulation records: ``columns`` maps each of RECORD_FIELDS to a numpy column of its dtype.

    ``table[name]`` is a column; iterating yields one row per record, a named
    tuple of Python scalars whose fields are RECORD_FIELDS.
    """

    columns: dict

    def __len__(self):
        return len(self.columns["n"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __iter__(self):
        return map(_Row._make, zip(*(self.columns[name].tolist() for name in RECORD_FIELDS)))

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
    w_rev, lam, iterations, residual, converged = batch_rev(a)
    w_gm = batch_gm(a)
    out = {**batch_indices(a, lam, w_gm), **batch_losses(v, w_rev, w_gm),
           "rev_iterations": iterations, "rev_residual": residual}
    return out, ~converged


# ---------------------------------------------------------------------------
# random generation primitives


def _rng_for(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


# The random streams.  Vector block vb draws the (_BLOCK, n) exponentials
# behind vectors vb*_BLOCK onwards from _rng_for(seed, _VECTOR_KEY, vb).
# MSOBE record block b (records b*_BLOCK up to the next block or the total)
# draws from _rng_for(seed, _RECORD_KEY, b): at each error-model boundary
# inside the block it starts a segment of k records and draws, in this order,
# k big-error flags, k big-error positions, k big-error factors and the
# (k, pairs) small-error factors.  MSE or NEE run block rb (runs rb*_BLOCK up
# to the next block or the call's run count) draws one row of uniforms per
# run, as one row-major (runs, width) array, from _rng_for(seed, _RECORD_KEY,
# rb); run q's row does not depend on how many runs follow it.  Given the
# run's configuration, a record or run is replayed from the master seed, its
# index and _BLOCK.  A member block reads exactly one vector block: with
# per_vector members per vector, vector block vb starts at member
# vb*_BLOCK*per_vector, a member block start.
_BLOCK = 1024
_VECTOR_KEY, _RECORD_KEY = 0, 1
MSOBE_RNG = {"stream": "msobe-block", "block": _BLOCK}
RUN_RNG = {"stream": "run-block", "block": _BLOCK}


def _blocks(n: int, seed: int, lo: int, hi: int, per_vector: int):
    """Each block of members (records or runs) in [lo, hi), lo a block start, in order.

    Yields (b_lo, b_hi, the block's generator, its members' true vectors), where
    member i examines vector i // per_vector.  It keeps the last vector block
    read, so each vector block's generator is built once per reader.
    """
    assert lo % _BLOCK == 0, "reads start on a member block"
    vb = -1
    for b_lo in range(lo, hi, _BLOCK):
        b_hi = min(b_lo + _BLOCK, hi)
        vector_ids = np.arange(b_lo, b_hi) // per_vector
        if vector_ids[0] // _BLOCK != vb:
            vb = vector_ids[0] // _BLOCK
            # Only the rows up to the read's last vector: a generator fills an array in order.
            rows = min(_BLOCK, (hi - 1) // per_vector + 1 - vb * _BLOCK)
            e = _rng_for(seed, _VECTOR_KEY, vb).standard_exponential((rows, n))
            vectors = e / e.sum(axis=1, keepdims=True)
        yield b_lo, b_hi, _rng_for(seed, _RECORD_KEY, b_lo // _BLOCK), vectors[vector_ids - vb * _BLOCK]


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
# stack of runs) holds at most this many matrix entries (4096 matrices at
# n=7, a working set of about 6 MB), or one record block or run when that is
# larger: an MSOBE chunk is at least one _BLOCK-record block (230,400 entries
# at n=15, 409,600 at n=20), an MSE or NEE stack at least one whole run (an
# NEE run is 219,700 entries at n=26).  The budget is a cap: a small MSOBE
# build splits into smaller chunks (see run_msobe_sf).
_STACK_ENTRIES = 4096 * 7 * 7


def _stack_matrices(n: int) -> int:
    """The most n-by-n matrices one stack holds."""
    return _STACK_ENTRIES // (n * n)


def _run_stacks(n: int, seed: int, n_runs: int, width: int, steps: int, runs_per_vector: int = 1):
    """An MSE or NEE call's runs in order, as stacks of (true vectors, rows of `width` uniforms).

    Each run block draws its runs' rows as one row-major (runs, width) array
    and is cut into stacks of at most _stack_matrices(n) matrices (one run at
    least), so no stack crosses a run block.
    """
    size = max(1, _stack_matrices(n) // steps)
    for b_lo, b_hi, rng, v in _blocks(n, seed, 0, n_runs, runs_per_vector):
        u = rng.random((b_hi - b_lo, width))
        for lo in range(0, b_hi - b_lo, size):
            yield v[lo:lo + size], u[lo:lo + size]


def _correlate_blocks(framework: str, n: int, blocks) -> CorrelationSummary:
    """Mean and minimum per-run correlations of a framework's blocks of runs.

    Each block is a (runs, steps, n, n) stack with the runs' true vectors
    (runs, n) and driving variable (runs, steps).  A run with any
    non-converged record is skipped whole.  Per-run coefficients are folded
    into running sums, counts and minima, so memory does not grow with the
    number of runs.  NaN coefficients (a constant row) are left out.  The sums
    add each block's runs left to right (`core._sum_in_order`: 48 sums, fewer
    than 256, so np.cumsum), so the means do not depend on the block size.
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
        coeffs = np.stack([spearman_pairs(rows, x, y), pearson_pairs(rows, x, y)])
        valid = ~np.isnan(coeffs)
        terms = np.concatenate([sums[:, None], np.where(valid, coeffs, 0.0)], axis=1)
        sums = _sum_in_order(terms.swapaxes(1, 2))
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


def _mse_stacks(n: int, n_runs: int, n_e: int, seed: int):
    """MSE-SF's runs in order, as stacks of b runs: (b, n_e, n, n) matrices, (b, n) true vectors, (b, n_e) magnitudes.

    Run r examines vector r and reads two uniforms from its run block (see
    RUN_RNG): the first picks the position, the second gives eps.
    """
    n_pairs = n * (n - 1) // 2
    iu, ju = _upper_indices(n)
    exponents = np.arange(1, n_e + 1)
    lo, hi = MSE_EPS_RANGE
    for v, u in _run_stacks(n, seed, n_runs, 2, n_e):
        position = (u[:, 0] * n_pairs).astype(np.intp)
        eps = lo + (hi - lo) * u[:, 1]
        magnitudes = eps[:, None] ** exponents
        factors = np.where(np.arange(n_pairs) == position[:, None, None], magnitudes[..., None], 1.0)
        yield _from_upper((v[:, iu] / v[:, ju])[:, None] * factors, n), v, magnitudes


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
    if n_runs < 1:
        raise ValueError("need n_runs >= 1")
    return _correlate_blocks("mse", n, _mse_stacks(n, n_runs, n_e, seed))


# ---------------------------------------------------------------------------
# NEE-SF: number of equal errors

NEE_EPS_RANGE = (1.1, 1.8)


def _nee_stacks(n: int, n_r: int, n_p: int, seed: int):
    """NEE-SF's runs in order, as stacks of b runs: (b, k, n, n) matrices, (b, n) true vectors, (b, k) counts 1..k.

    k = n(n-1)/2.  Run q examines vector q // n_p and reads k + 1 uniforms
    from its run block (see RUN_RNG): the entries are disturbed in the order
    their uniforms ascend, and the last uniform gives eps.
    """
    k_steps = n * (n - 1) // 2
    iu, ju = _upper_indices(n)
    steps = np.arange(k_steps)
    counts = np.arange(1, k_steps + 1, dtype=float)
    lo, hi = NEE_EPS_RANGE
    for v, u in _run_stacks(n, seed, n_r * n_p, k_steps + 1, k_steps, runs_per_vector=n_p):
        order = np.argsort(u[:, :k_steps], axis=1, kind="stable")
        disturbed_at = np.argsort(order, axis=1)  # step that disturbs each entry
        eps = lo + (hi - lo) * u[:, k_steps]
        factors = np.where(disturbed_at[:, None, :] <= steps[:, None], eps[:, None, None], 1.0)
        a = _from_upper((v[:, iu] / v[:, ju])[:, None] * factors, n)
        yield a, v, np.broadcast_to(counts, factors.shape[:2])


def run_nee_sf(n: int, n_r: int = 200, n_p: int = 5, seed: int = 0) -> CorrelationSummary:
    """Cumulatively disturb all upper-triangle entries by one shared factor.

    Each of the n_r random vectors is examined under n_p random disturbance
    orders; the disturbance factor is uniform on [1.1, 1.8].  After each
    disturbed entry the indices and estimate errors are recorded and finally
    correlated against the running error count 1..n(n-1)/2.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if min(n_r, n_p) < 1:
        raise ValueError("need n_r >= 1 and n_p >= 1")
    return _correlate_blocks("nee", n, _nee_stacks(n, n_r, n_p, seed))


# ---------------------------------------------------------------------------
# MSOBE-SF: many small errors, possibly one big error, scale rounding


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


def _msobe_matrices(n, lo, hi, total, big, seed):
    """MSOBE-SF's records [lo, hi) of a `total`-record build, lo a record-block start.

    Returns the (hi - lo, n, n) rounded reciprocal matrices, the true vectors,
    the big-error flags, the big error's upper-triangle index (drawn for every
    record, used where its flag is set) and the indices into default_error_models().
    """
    n_pairs = n * (n - 1) // 2
    iu, ju = _upper_indices(n)
    v = np.empty((hi - lo, n))
    factors = np.empty((hi - lo, n_pairs))
    big_flags = np.empty(hi - lo, dtype=bool)
    big_positions = np.empty(hi - lo, dtype=np.intp)
    model_ids = np.empty(hi - lo, dtype=np.intp)
    models = default_error_models()
    quarter = total // len(models)
    for b_lo, b_hi, rng, block_v in _blocks(n, seed, lo, hi, 1):
        v[b_lo - lo:b_hi - lo] = block_v
        for s_lo, s_hi, model in _segments(b_lo, b_hi, quarter, len(models)):
            k, rows = s_hi - s_lo, slice(s_lo - lo, s_hi - lo)
            applied = big_flags[rows] = rng.random(k) < big.apply_probability
            big_pos = big_positions[rows] = rng.integers(n_pairs, size=k)
            eps_b = rng.uniform(*BIG_ERROR_RANGE, k)
            f = models[model].draw(rng, (k, n_pairs))
            f[applied, big_pos[applied]] = eps_b[applied]
            factors[rows] = f
            model_ids[rows] = model
    a = _from_upper(round_matrix_to_scale(v[:, iu] / v[:, ju] * factors), n)
    return a, v, big_flags, big_positions, model_ids


def _msobe_chunk(n, lo, hi, total, big, seed):
    """Columns of records [lo, hi), a union of whole record blocks, and their non-convergence mask.

    Beside the database fields, the columns hold REV's rev_iterations and rev_residual.
    """
    # The stream's small-error factors are freed on its return, out of the way of the kernels' temporaries.
    a, v, big_flags, _, model_ids = _msobe_matrices(n, lo, hi, total, big, seed)
    metrics, failed = _batch_metrics(a, v)
    columns = dict(
        vector_id=np.arange(lo, hi),
        perturbation_id=np.zeros(hi - lo, dtype=np.int64),
        distribution=np.array(ERROR_DISTRIBUTIONS, dtype=object)[model_ids],
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
) -> MsobeResult:
    """Generate the simulation database of rounded, randomly disturbed PCMs.

    Each record: a fresh random priority vector and its perfect ratio matrix
    (vector_id is the record index, perturbation_id is 0); with probability
    big.apply_probability one upper-triangle entry is hit by a big error
    uniform on BIG_ERROR_RANGE; every other upper-triangle entry gets a small
    multiplicative error from the record's distribution; the upper triangle
    is rounded to SAATY_SCALE and the lower triangle reciprocated.  The
    matrix count is split into equal contiguous blocks across
    default_error_models(), in order.

    The records are generated in chunks of whole record blocks on up to
    `workers` threads in this process, never more threads than chunks.  A
    chunk holds at most _chunk_records(n) records, and fewer when that leaves
    the total at least four chunks per worker, down to one block.  The
    records do not depend on the chunks or the worker count.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if total_matrices <= 0 or total_matrices % 4:  # one equal block per default error model
        raise ValueError("total_matrices must be a positive multiple of 4")
    if not 0 <= seed < 2**63:  # the int64 seed column of the database
        raise ValueError(f"seed must lie in [0, 2**63), not {seed}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    # A small build holds smaller stacks: at least four chunks per worker while the total
    # has the blocks, never above the stack budget, one block at least.
    size = max(_BLOCK, min(_chunk_records(n), total_matrices // (4 * workers) // _BLOCK * _BLOCK))
    bounds = list(range(0, total_matrices, size)) + [total_matrices]

    def chunk(lo, hi):
        return _msobe_chunk(n, lo, hi, total_matrices, big, seed)

    with ThreadPoolExecutor(max_workers=min(workers, len(bounds) - 1)) as pool:
        results = list(pool.map(chunk, bounds, bounds[1:]))
    kept = ~np.concatenate([failed for _, failed in results])
    columns = {name: np.concatenate([c[name] for c, _ in results])[kept] for name in results[0][0]}
    columns.update(n=np.full(kept.sum(), n), seed=np.full(kept.sum(), seed))
    rev = _rev_summary(columns.pop("rev_iterations"), columns.pop("rev_residual"))
    return MsobeResult(RecordTable(columns), int(kept.size - kept.sum()), rev)


# ---------------------------------------------------------------------------
# database serialization

# Text forms per column dtype: a flag as 1 or 0, a float as its %.8g text.  A file is read as
# _READ_DTYPE (flags as numbers), then checked by each column's rule.
_CSV_ROW = ",".join({np.float64: "%.8g", object: "%s"}.get(dtype, "%d") for dtype in _DTYPES.values()) + "\n"
_READ_DTYPE = np.dtype([(name, np.float64 if dtype is np.bool_ else dtype) for name, dtype in _DTYPES.items()])


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
    breaks its field's rule in _COLUMNS.
    """
    cast = {}
    for name, (dtype, what, check) in _COLUMNS.items():
        values, read = columns[name], _READ_DTYPE[name]
        col = _cast(values, read)
        if col is None:
            row = next(k for k, x in enumerate(values) if _cast(x, read) is None)
            raise ValueError(f"{path}: row {row + 1}: bad {name} value {values[row]!r}")
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
    """The RecordTable of a database file: a header of RECORD_FIELDS, then one row per record.

    Blank lines (empty or whitespace only) are skipped and do not count as
    rows.  Every fault (a bad header, a row of the wrong field count, a value
    that is not of its column's type or breaks its rule) raises one
    ValueError naming the file and, for a row, the row (from 1); ``report``
    exits 2 on it.
    """
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
