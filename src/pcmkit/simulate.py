"""Random judgment-error models and the three Monte Carlo simulation frameworks.

The frameworks are deterministic functions of a master seed: every record
derives its own generator from ``SeedSequence(seed, spawn_key=...)`` and all
per-record arithmetic is independent of batch composition, so results do not
depend on chunk sizes or worker counts.
"""
from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import SAATY_SCALE, Pcm, PriorityVector, SaatyScale, round_matrix_to_scale, _as_matrix
from .indices import batch_gi, batch_ki_ati, batch_si
from .loss import batch_absolute_error, batch_relative_error
from .prioritize import batch_gm, batch_rev
from .stats import average_ranks, batch_pearson

__all__ = [
    "ErrorModel",
    "BigErrorModel",
    "SimRecord",
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
    "write_records_jsonl",
    "read_records_jsonl",
    "RECORD_FIELDS",
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

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
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

    def verify(self) -> None:
        """Check the unit-mean and support-mass contracts; raise on violation."""
        from scipy import stats as sps

        lo, hi = SMALL_ERROR_SUPPORT
        if self.distribution == "gamma":
            shape, scale = self.params
            mean = shape * scale
            dist = sps.gamma(shape, scale=scale)
            mass = dist.cdf(hi) - dist.cdf(lo)
        elif self.distribution == "log-normal":
            mu, sigma = self.params
            mean = float(np.exp(mu + sigma**2 / 2))
            dist = sps.lognorm(sigma, scale=np.exp(mu))
            mass = dist.cdf(hi) - dist.cdf(lo)
        elif self.distribution == "truncated-normal":
            m, sd = self.params
            dist = sps.truncnorm((lo - m) / sd, (hi - m) / sd, loc=m, scale=sd)
            mean = float(dist.mean())
            mass = 1.0
        else:  # uniform
            a, b = self.params
            mean = (a + b) / 2
            mass = 1.0 if a >= lo and b <= hi else 0.0
        if abs(mean - 1.0) > 1e-3:
            raise ValueError(f"{self.distribution}: expected value {mean} is not 1")
        if mass < 0.98:
            raise ValueError(
                f"{self.distribution}: mass {mass:.4f} on {SMALL_ERROR_SUPPORT} is below 0.98"
            )


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


RECORD_FIELDS = (
    "n",
    "vector_id",
    "perturbation_id",
    "distribution",
    "big_error",
    "si",
    "gi",
    "ki",
    "ati",
    "ae_rev",
    "re_rev",
    "ae_gm",
    "re_gm",
    "seed",
)


@dataclass(frozen=True)
class SimRecord:
    """One simulated PCM: provenance, index values and estimation errors."""

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


@dataclass(frozen=True)
class MsobeResult:
    """Simulation database plus the tally of non-converged, excluded records."""

    records: list
    skipped: int

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


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

    Returns a dict of per-record vectors plus the non-convergence mask.
    """
    n = a.shape[1]
    w_rev, lam, _, _, converged = batch_rev(a)
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


class _CorrelationTally:
    """Running sums of per-run correlation coefficients, NaN-tolerant."""

    def __init__(self):
        k = len(_CORRELATION_KEYS)
        self.sum_s = np.zeros(k)
        self.cnt_s = np.zeros(k, dtype=int)
        self.min_s = np.full(k, np.inf)
        self.sum_p = np.zeros(k)
        self.cnt_p = np.zeros(k, dtype=int)

    def add(self, vectors, target):
        rows = np.stack([vectors[name] for name in TRACKED_NAMES] + [target])
        ranks = average_ranks(rows)
        x, y = _PAIR_ROWS
        s = batch_pearson(ranks[x], ranks[y])
        p = batch_pearson(rows[x], rows[y])
        ok_s, ok_p = ~np.isnan(s), ~np.isnan(p)
        self.sum_s[ok_s] += s[ok_s]
        self.cnt_s += ok_s
        self.min_s = np.fmin(self.min_s, s)
        self.sum_p[ok_p] += p[ok_p]
        self.cnt_p += ok_p

    def summary(self, framework, n, runs, skipped) -> CorrelationSummary:
        def mapping(values, counts):
            return {k: float(v) for k, v, c in zip(_CORRELATION_KEYS, values, counts) if c}

        return CorrelationSummary(
            framework, n, runs,
            mapping(self.sum_s / np.maximum(self.cnt_s, 1), self.cnt_s),
            mapping(self.sum_p / np.maximum(self.cnt_p, 1), self.cnt_p),
            mapping(self.min_s, self.cnt_s),
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
    pairs = list(itertools.combinations(range(n), 2))
    tally = _CorrelationTally()
    skipped = 0
    for r in range(n_runs):
        rng = _rng_for(seed, r)
        v = _random_pv_array(n, rng)
        i, j = pairs[int(rng.integers(len(pairs)))]
        eps = rng.uniform(*MSE_EPS_RANGE)
        m = v[:, None] / v[None, :]
        factors = eps ** np.arange(1, n_e + 1)
        a = np.broadcast_to(m, (n_e, n, n)).copy()
        a[:, i, j] = m[i, j] * factors
        a[:, j, i] = 1.0 / a[:, i, j]
        vectors, failed = _batch_metrics(a, np.broadcast_to(v, (n_e, n)))
        if failed.any():
            skipped += 1
            continue
        tally.add(vectors, factors)
    return tally.summary("mse", n, n_runs - skipped, skipped)


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
    pairs = list(itertools.combinations(range(n), 2))
    k_steps = len(pairs)
    counts_vec = np.arange(1, k_steps + 1, dtype=float)
    tally = _CorrelationTally()
    skipped = 0
    total = n_r * n_p
    for r in range(n_r):
        rng_v = _rng_for(seed, 0, r)
        v = _random_pv_array(n, rng_v)
        m = v[:, None] / v[None, :]
        for p in range(n_p):
            rng = _rng_for(seed, 1, r, p)
            perm = rng.permutation(k_steps)
            eps = rng.uniform(*NEE_EPS_RANGE)
            a = np.empty((k_steps, n, n))
            cur = m.copy()
            for step, t in enumerate(perm):
                i, j = pairs[int(t)]
                cur[i, j] = m[i, j] * eps
                cur[j, i] = 1.0 / cur[i, j]
                a[step] = cur
            vectors, failed = _batch_metrics(a, np.broadcast_to(v, (k_steps, n)))
            if failed.any():
                skipped += 1
                continue
            tally.add(vectors, counts_vec)
    return tally.summary("nee", n, total - skipped, skipped)


# ---------------------------------------------------------------------------
# MSOBE-SF: many small errors, possibly one big error, scale rounding

_CHUNK = 4096


def _record_seed(seed: int, idx: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(1, idx))
    return int(ss.generate_state(1, np.uint64)[0])


def _msobe_chunk(args):
    (n, lo, hi, total, scale_values, models, big, seed, dpv) = args
    n_pairs = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, k=1)
    count = hi - lo
    v = np.empty((count, n))
    factors = np.empty((count, n_pairs))
    big_flags = np.empty(count, dtype=bool)
    seeds = np.empty(count, dtype=np.uint64)
    dist_tags = []
    vec_ids = np.empty(count, dtype=np.int64)
    pert_ids = np.empty(count, dtype=np.int64)
    quarter = total // len(models)
    for k, idx in enumerate(range(lo, hi)):
        vector_id = idx // dpv
        vec_ids[k] = vector_id
        pert_ids[k] = idx % dpv
        v[k] = _random_pv_array(n, _rng_for(seed, 0, vector_id))
        rng = _rng_for(seed, 1, idx)
        seeds[k] = _record_seed(seed, idx)
        model = models[min(idx // quarter, len(models) - 1)]
        dist_tags.append(model.distribution)
        applied = rng.random() < big.apply_probability
        big_pos = int(rng.integers(n_pairs))
        eps_b = rng.uniform(big.lo, big.hi)
        f = model.draw(rng, n_pairs)
        if applied:
            f[big_pos] = eps_b
        big_flags[k] = applied
        factors[k] = f
    m_upper = v[:, iu] / v[:, ju] * factors
    scale = SaatyScale(tuple(scale_values))
    rounded = round_matrix_to_scale(m_upper, scale)
    a = np.ones((count, n, n))
    a[:, iu, ju] = rounded
    a[:, ju, iu] = 1.0 / rounded
    metrics, failed = _batch_metrics(a, v)
    records = []
    skipped = 0
    for k in range(count):
        if failed[k]:
            skipped += 1
            continue
        records.append(
            SimRecord(
                n=n,
                vector_id=int(vec_ids[k]),
                perturbation_id=int(pert_ids[k]),
                distribution=dist_tags[k],
                big_error=bool(big_flags[k]),
                si=float(metrics["si"][k]),
                gi=float(metrics["gi"][k]),
                ki=float(metrics["ki"][k]),
                ati=float(metrics["ati"][k]),
                ae_rev=float(metrics["ae_rev"][k]),
                re_rev=float(metrics["re_rev"][k]),
                ae_gm=float(metrics["ae_gm"][k]),
                re_gm=float(metrics["re_gm"][k]),
                seed=int(seeds[k]),
            )
        )
    return records, skipped


_VERIFIED_MODELS = set()


def run_msobe_sf(
    n: int,
    total_matrices: int,
    scale: SaatyScale = SAATY_SCALE,
    error_models: Optional[Sequence[ErrorModel]] = None,
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
    the scale and the lower triangle reciprocated.  The matrix count is split
    into equal contiguous blocks across the error models.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    models = tuple(error_models) if error_models is not None else default_error_models()
    if total_matrices % len(models):
        raise ValueError(f"total_matrices must be divisible by {len(models)}")
    if disturbances_per_vector < 1:
        raise ValueError("disturbances_per_vector must be >= 1")
    for model in models:
        if model not in _VERIFIED_MODELS:
            model.verify()
            _VERIFIED_MODELS.add(model)
    bounds = list(range(0, total_matrices, _CHUNK)) + [total_matrices]
    chunks = [
        (n, lo, hi, total_matrices, tuple(scale.values), models, big, seed, disturbances_per_vector)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    records: list = []
    skipped = 0
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_msobe_chunk, chunks))
    else:
        results = [_msobe_chunk(c) for c in chunks]
    for recs, skip in results:
        records.extend(recs)
        skipped += skip
    return MsobeResult(records, skipped)


# ---------------------------------------------------------------------------
# database serialization


def _format_real(x: float) -> str:
    return f"{x:.8g}"


def _record_to_row(rec: SimRecord) -> list:
    return [
        str(rec.n),
        str(rec.vector_id),
        str(rec.perturbation_id),
        rec.distribution,
        "1" if rec.big_error else "0",
        _format_real(rec.si),
        _format_real(rec.gi),
        _format_real(rec.ki),
        _format_real(rec.ati),
        _format_real(rec.ae_rev),
        _format_real(rec.re_rev),
        _format_real(rec.ae_gm),
        _format_real(rec.re_gm),
        str(rec.seed),
    ]


def _record_from_parts(parts: dict) -> SimRecord:
    return SimRecord(
        n=int(parts["n"]),
        vector_id=int(parts["vector_id"]),
        perturbation_id=int(parts["perturbation_id"]),
        distribution=str(parts["distribution"]),
        big_error=parts["big_error"] in (True, "1", 1),
        si=float(parts["si"]),
        gi=float(parts["gi"]),
        ki=float(parts["ki"]),
        ati=float(parts["ati"]),
        ae_rev=float(parts["ae_rev"]),
        re_rev=float(parts["re_rev"]),
        ae_gm=float(parts["ae_gm"]),
        re_gm=float(parts["re_gm"]),
        seed=int(parts["seed"]),
    )


def write_records_csv(records, path) -> None:
    lines = [",".join(RECORD_FIELDS)]
    lines += [",".join(_record_to_row(r)) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def read_records_csv(path) -> list:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].split(",") != list(RECORD_FIELDS):
        raise ValueError(f"{path}: not a simulation database (bad header)")
    out = []
    for line in lines[1:]:
        if not line.strip():
            continue
        out.append(_record_from_parts(dict(zip(RECORD_FIELDS, line.split(",")))))
    return out


def write_records_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            row = dict(zip(RECORD_FIELDS, _record_to_row(rec)))
            row.update(n=rec.n, vector_id=rec.vector_id, perturbation_id=rec.perturbation_id,
                       big_error=rec.big_error, seed=rec.seed)
            fh.write(json.dumps(row) + "\n")


def read_records_jsonl(path) -> list:
    out = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            out.append(_record_from_parts(json.loads(line)))
    return out
