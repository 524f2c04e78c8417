"""Pairwise-comparison matrix toolkit: prioritization, inconsistency indices,
Monte Carlo error studies and ATI-based PCM acceptance."""

from .acceptance import (
    AcceptanceVerdict,
    QuantileRow,
    QuantileTable,
    UnsupportedOrderError,
    assess_pcm,
    builtin_table,
    table_from_records,
)
from .core import (
    SAATY_SCALE,
    Pcm,
    PcmFormatError,
    PriorityVector,
    is_consistent,
    is_reciprocal,
    read_pcm,
    round_pcm,
    write_pcm,
)
from .indices import IndexReport, compute_report, estimate_asi
from .loss import avg_absolute_error, avg_relative_error
from .prioritize import ConvergenceError, RevResult, gm_estimate, rev_estimate
from .simulate import (
    BigErrorModel,
    CorrelationSummary,
    MsobeResult,
    RecordTable,
    default_error_models,
    read_records_csv,
    run_mse_sf,
    run_msobe_sf,
    run_nee_sf,
    write_records_csv,
)
from .stats import (
    ClassPartition,
    ClassSummary,
    DegenerateDataError,
    PartitionError,
    make_partition,
    pearson,
    spearman,
    summarize_classes,
)

__version__ = "0.1.0"
