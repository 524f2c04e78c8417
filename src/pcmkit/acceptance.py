"""ATI-based PCM acceptance against tabulated error-quantile estimates."""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Pcm, _read_text
from .indices import batch_ki_ati
from .stats import ClassPartition, assign_classes, summarize_classes

__all__ = [
    "QuantileRow",
    "QuantileTable",
    "AcceptanceVerdict",
    "UnsupportedOrderError",
    "builtin_table",
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
        object.__setattr__(self, "partition", ClassPartition(tuple(bounds)))
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class AcceptanceVerdict:
    """The PCM's ATI, the table and the row of its class, and whether the chosen quantile is within threshold."""

    ati: float
    table: QuantileTable
    row: QuantileRow
    threshold: float
    quantile_choice: str
    accepted: bool


def _parse_tables(lines, loss_column: bool = False) -> dict:
    """QuantileRows of `_TABLE_HEADER` lines, grouped by (n, method, loss) and numbered from 1 in each group.

    With `loss_column` each line ends in its loss cell (`_LOSS_HEADER`); without it the loss is RE.
    Raises ValueError naming the first row (counted from 1, blank lines skipped) that does not parse.
    """
    tables: dict = {}
    width = 10 if loss_column else 9
    for k, line in enumerate((line for line in lines if line.strip()), 1):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"row {k}: {len(cells)} fields, not {width}")
        try:
            loss = cells.pop() if loss_column else "RE"
            n_s, method, lo, hi, mean_ati, q10, med, q90, mean_err = cells
            rows = tables.setdefault((int(n_s), method, loss), [])
            rows.append(QuantileRow(len(rows) + 1, float(lo), float(hi), float(mean_ati),
                                    float(q10), float(med), float(q90), float(mean_err)))
        except ValueError as exc:
            raise ValueError(f"row {k}: {exc}") from None
    return tables


@functools.cache
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


def builtin_table(n: int, method: str) -> QuantileTable:
    """Verbatim appendix data (relative-error loss) for n in 4..7."""
    if method not in ("REV", "GM"):
        raise ValueError("method must be 'REV' or 'GM'")
    try:
        return _load_builtin()[(n, method)]
    except KeyError:
        if n < 4:
            raise UnsupportedOrderError(f"no builtin table for n={n}; MSOBE-SF needs n >= 4 to make one") from None
        raise UnsupportedOrderError(
            f"no builtin table for n={n}; make one: `pcmkit simulate msobe --n {n} --out db.csv`, then in Python "
            f"`write_table(table_from_records(read_records_csv(\"db.csv\"), {n}, \"{method}\"), \"table.csv\")`, "
            f"then run accept again with `--table table.csv`"
        ) from None


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
    ati = float(batch_ki_ati(pcm.entries)[1])
    row = table.rows[assign_classes(table.partition, [ati])[0] - 1]
    accepted = bool(getattr(row, quantile_choice) <= threshold)
    return AcceptanceVerdict(ati, table, row, threshold, quantile_choice, accepted)


def table_from_records(records, n: int, method: str, loss: str = "RE") -> QuantileTable:
    """Build a QuantileTable from a simulation database of order-n records (15 ATI classes)."""
    _check_method_and_loss(method, loss)
    orders = np.asarray(records["n"])
    if (orders != n).any():
        raise ValueError(f"records of order {np.unique(orders).tolist()} cannot make a table for n={n}")
    error = f"{loss.lower()}_{method.lower()}"
    rows = tuple(
        QuantileRow(s.class_index, s.lower, s.upper, s.mean_index_value, s.q10, s.median, s.q90, s.mean_error)
        for s in summarize_classes(records, "ati", error)
    )
    return QuantileTable(n=n, method=method, loss=loss, rows=rows)


_TABLE_HEADER = "n,method,class_lo,class_hi,mean_ati,q10,median,q90,mean_err"  # the builtin's columns
_LOSS_HEADER = _TABLE_HEADER + ",loss"


def write_table(table: QuantileTable, path) -> None:
    """Write the table so that read_table reads it back exactly: each float as repr(float(x)), not "np.float64(...)"."""
    lines = [_LOSS_HEADER]
    for row in table.rows:
        cells = (row.class_lo, row.class_hi, row.mean_ati, row.q10, row.median, row.q90, row.mean_err)
        lines.append(",".join([str(table.n), table.method, *(repr(float(x)) for x in cells), table.loss]))
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
