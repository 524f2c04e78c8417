"""ATI-based PCM acceptance against tabulated error-quantile estimates."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Pcm, _read_text
from .indices import compute_ati
from .stats import ClassPartition, assign_classes, summarize_classes

__all__ = [
    "QuantileRow",
    "QuantileTable",
    "AcceptanceVerdict",
    "UnsupportedOrderError",
    "builtin_table",
    "locate_class",
    "assess_pcm",
    "table_from_records",
    "read_table",
    "write_table",
]

BUILTIN_DATA_SHA256 = "bcfa8b548bf55758ea4842484c1cea528be8b9f971dd556dd55ac8b0a3be3b32"

# Printed mean in the n=7 GM table, first class, contradicts its own q90;
# kept verbatim but flagged so the engine never uses it.
_SUSPECT_MEANS = {(7, "GM", 1)}

QUANTILE_CHOICES = ("q10", "median", "q90")


class UnsupportedOrderError(ValueError):
    """No builtin table for this matrix order."""


@dataclass(frozen=True)
class QuantileRow:
    class_index: int  # 1-based
    class_lo: float
    class_hi: float  # inf for the last class
    mean_ati: float
    q10: float
    median: float
    q90: float
    mean_err: float
    suspect_mean: bool = False


def _check_method_and_loss(method: str, loss: str) -> None:
    if method not in ("REV", "GM") or loss not in ("AE", "RE"):
        raise ValueError(f"method must be 'REV' or 'GM' and loss 'AE' or 'RE', not {method!r} and {loss!r}")


@dataclass(frozen=True)
class QuantileTable:
    """Per-ATI-class error statistics for one (order, method, loss) setting; row k is class k."""

    n: int
    method: str  # "REV" or "GM"
    loss: str  # "RE" for the builtin data, "AE" or "RE" for user tables
    rows: tuple
    partition: ClassPartition = field(init=False, repr=False, compare=False)  # the rows' class bounds

    def __post_init__(self):
        _check_method_and_loss(self.method, self.loss)
        rows = tuple(self.rows)
        for k, row in enumerate(rows, 1):
            if row.class_index != k:
                raise ValueError(f"row {k}: class_index is {row.class_index}, not {k}")
            if k < len(rows) and row.class_hi != rows[k].class_lo:
                raise ValueError(f"row {k}: ends at {row.class_hi:g}, row {k + 1} begins at {rows[k].class_lo:g}")
            if not 0 <= row.q10 <= row.median <= row.q90 < math.inf:
                raise ValueError(f"row {k}: quantiles are not 0 <= q10 <= median <= q90 < inf")
            if not 0 <= row.mean_err < math.inf:
                raise ValueError(f"row {k}: mean_err is {row.mean_err:g}, not finite and non-negative")
        bounds = [row.class_lo for row in rows] + [row.class_hi for row in rows[-1:]]
        object.__setattr__(self, "partition", ClassPartition(tuple(bounds), len(rows)))
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class AcceptanceVerdict:
    ati: float
    class_index: int
    estimated_q10: float
    estimated_median: float
    estimated_q90: float
    estimated_mean: Optional[float]
    threshold: float
    quantile_choice: str
    accepted: bool


def _parse_tables(lines, loss_column: bool = False) -> dict:
    """QuantileRows of `_TABLE_HEADER` lines, grouped by (n, method, loss) and numbered from 1 in each group.

    With `loss_column` each line ends in its loss cell (`_LOSS_HEADER`); without it the loss is RE.
    Raises ValueError naming the first row (counted from 1, blank lines skipped) that does not parse.
    """
    tables: dict = {}
    for k, line in enumerate((line for line in lines if line.strip()), 1):
        try:
            cells = line.split(",")
            loss = cells.pop() if loss_column else "RE"
            n_s, method, lo, hi, mean_ati, q10, med, q90, mean_err = cells
            rows = tables.setdefault((int(n_s), method, loss), [])
            rows.append(QuantileRow(len(rows) + 1, float(lo), float(hi), float(mean_ati),
                                    float(q10), float(med), float(q90), float(mean_err)))
        except ValueError as exc:
            raise ValueError(f"row {k}: {exc}") from None
    return tables


def _load_builtin() -> dict:
    data = resources.files("pcmkit.data").joinpath("appendix_tables.csv").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != BUILTIN_DATA_SHA256:
        raise RuntimeError(f"builtin table data corrupted (sha256 {digest})")
    return {
        (n, method): QuantileTable(n=n, method=method, loss=loss, rows=tuple(
            replace(row, suspect_mean=(n, method, row.class_index) in _SUSPECT_MEANS) for row in rows
        ))
        for (n, method, loss), rows in _parse_tables(data.decode().splitlines()[1:]).items()
    }


_BUILTIN_CACHE: dict = {}


def builtin_table(n: int, method: str) -> QuantileTable:
    """Verbatim appendix data (relative-error loss) for n in 4..7."""
    if method not in ("REV", "GM"):
        raise ValueError("method must be 'REV' or 'GM'")
    if not _BUILTIN_CACHE:
        _BUILTIN_CACHE.update(_load_builtin())
    try:
        return _BUILTIN_CACHE[(n, method)]
    except KeyError:
        if n < 4:
            raise UnsupportedOrderError(f"no builtin table for n={n}; MSOBE-SF needs n >= 4 to make one") from None
        raise UnsupportedOrderError(
            f"no builtin table for n={n}; make one: `pcmkit simulate msobe --n {n} --out db.csv`, then in Python "
            f"`write_table(table_from_records(read_records_csv(\"db.csv\"), {n}, \"{method}\"), \"table.csv\")`, "
            f"then run accept again with `--table table.csv`"
        ) from None


def locate_class(table: QuantileTable, ati: float) -> int:
    """1-based index of the half-open class interval containing the ATI value."""
    if ati < 0:
        raise ValueError("ati must be nonnegative")
    return int(assign_classes(table.partition, [ati])[0])


def assess_pcm(
    pcm: Pcm,
    method: str,
    threshold: float,
    quantile_choice: str = "q90",
    table: Optional[QuantileTable] = None,
) -> AcceptanceVerdict:
    """Accept the PCM iff the chosen error quantile at its ATI class is within threshold.

    The default q90 choice guards against accepting a bad matrix; it is a
    policy default, not a statistical necessity.
    """
    if quantile_choice not in QUANTILE_CHOICES:
        raise ValueError(f"quantile_choice must be one of {QUANTILE_CHOICES}")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError("threshold must be finite and nonnegative")
    if table is None:
        table = builtin_table(pcm.n, method)
    if table.n != pcm.n:
        raise ValueError(f"table is for n={table.n} but the PCM has order {pcm.n}")
    if table.method != method:
        raise ValueError(f"table is for the {table.method} estimate, not {method}")
    ati = compute_ati(pcm)
    row = table.rows[locate_class(table, ati) - 1]
    chosen = getattr(row, quantile_choice)
    return AcceptanceVerdict(
        ati=ati,
        class_index=row.class_index,
        estimated_q10=row.q10,
        estimated_median=row.median,
        estimated_q90=row.q90,
        estimated_mean=None if row.suspect_mean else row.mean_err,
        threshold=threshold,
        quantile_choice=quantile_choice,
        accepted=bool(chosen <= threshold),
    )


def table_from_records(records, n: int, method: str, loss: str = "RE", n_classes: int = 15) -> QuantileTable:
    """Build a QuantileTable from a simulation database of order-n records (ATI binning)."""
    _check_method_and_loss(method, loss)
    orders = np.asarray(records["n"])
    if (orders != n).any():
        raise ValueError(f"records of order {np.unique(orders).tolist()} cannot make a table for n={n}")
    error = f"{loss.lower()}_{method.lower()}"
    rows = tuple(
        QuantileRow(s.class_index, s.lower, s.upper, s.mean_index_value, s.q10, s.median, s.q90, s.mean_error)
        for s in summarize_classes(records, "ati", error, n_classes)
    )
    return QuantileTable(n=n, method=method, loss=loss, rows=rows)


_TABLE_HEADER = "n,method,class_lo,class_hi,mean_ati,q10,median,q90,mean_err"  # the builtin's columns
_LOSS_HEADER = _TABLE_HEADER + ",loss"


def write_table(table: QuantileTable, path) -> None:
    lines = [_LOSS_HEADER]
    for row in table.rows:
        lines.append(
            f"{table.n},{table.method},{row.class_lo:.8g},{row.class_hi:.8g},{row.mean_ati:.8g},"
            f"{row.q10:.8g},{row.median:.8g},{row.q90:.8g},{row.mean_err:.8g},{table.loss}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path) -> QuantileTable:
    """Read a `write_table` file; a file in the builtin's nine columns, without the loss, holds RE."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0] not in (_TABLE_HEADER, _LOSS_HEADER):
        raise ValueError(f"{path}: not a quantile table (bad header)")
    try:
        tables = _parse_tables(lines[1:], loss_column=lines[0] == _LOSS_HEADER)
        if not tables:
            raise ValueError("empty quantile table")
        if len(tables) > 1:
            raise ValueError("rows of more than one (n, method, loss) table")
        ((n, method, loss), rows), = tables.items()
        return QuantileTable(n=n, method=method, loss=loss, rows=tuple(rows))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
