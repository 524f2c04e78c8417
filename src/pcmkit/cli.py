"""Command-line surface: analyze, simulate, report, accept.

Exit codes: 0 success/accept, 1 usage error, 2 data error (or out of memory), 3 reject.
For analyze, report and accept, main alone maps an OSError, a ValueError or a non-converging
power iteration to exit 2 with one line; simulate exits 1 itself on a bad value or out of memory.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import secrets
import sys
from pathlib import Path

import numpy as np

from . import acceptance as acc
from . import simulate as sim
from .core import PriorityVector, read_pcm
from .indices import compute_report, estimate_asi
from .loss import batch_losses
from .prioritize import ConvergenceError
from .stats import PartitionError, pearson_pairs, spearman_pairs, summarize_classes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REJECT = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, requirement):
    """An argparse type= that converts the value, then raises ArgumentTypeError unless ok(value)."""
    def check(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, not {text}")
        return value
    check.__name__ = convert.__name__  # argparse names it in "invalid int value: 'x'"
    return check


# The range a database's int64 seed column can record, shared by analyze and every framework.
_SEED = _checked(int, lambda v: 0 <= v < 2**63, "an integer in [0, 2**63)")
_COUNT = _checked(int, lambda v: v > 0, "a positive integer")


def _true_pv(text) -> PriorityVector:
    """An argparse type= for --true-pv: comma-separated weights, normalized, each a normal float (RE divides by it)."""
    try:
        v = PriorityVector.normalized([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    smallest = v.weights.min()
    if smallest < np.finfo(float).tiny:
        raise argparse.ArgumentTypeError(f"normalized weight {smallest:.3g} is below the smallest normal float")
    return v


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use; parse_args leaves it unchanged, so calls share it.

    Its `commands` attribute maps each subcommand's name to that subcommand's own parser.
    """
    parser = _Parser(prog="pcmkit", description="Pairwise-comparison matrix toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="indices and estimates for a PCM file")
    p_an.add_argument("pcm_path")
    p_an.add_argument("--true-pv", type=_true_pv, help="comma-separated true priority vector for error reporting")
    # A value that begins like a negative number ("-1,2,3") is a value here, as "--true-pv=-1,2,3" is, so the
    # type= reports it; argparse's own pattern takes only a lone number, and analyze has no option like one.
    p_an._negative_number_matcher = re.compile(r"-\.?\d")
    p_an.add_argument("--seed", type=_SEED, default=None, help="seed for the ASI sample behind CR")
    p_an.add_argument("--format", choices=("table", "jsonl"), default="table")
    p_an.add_argument("--out", default=None)

    shared = _Parser(add_help=False)
    shared.add_argument("--n", type=_checked(int, lambda v: v >= 4, "at least 4"), required=True)
    shared.add_argument("--seed", type=_SEED, default=None)
    shared.add_argument("--out", required=True)
    shared.add_argument("--manifest", default=None,
                        help="manifest path (default: <out>.manifest.json when --out is a regular file)")
    p_sim = sub.add_parser("simulate", help="run a Monte Carlo framework")
    frameworks = p_sim.add_subparsers(dest="framework", required=True)
    p_mse = frameworks.add_parser("mse", parents=[shared], help="MSE-SF: error size vs estimation error")
    p_mse.add_argument("--runs", type=_COUNT, default=1000, help="MSE runs")
    p_mse.add_argument("--ne", type=_checked(int, lambda v: v >= 2, "at least 2"), default=25,
                       help="MSE error increments")
    p_nee = frameworks.add_parser("nee", parents=[shared], help="NEE-SF: error count vs estimation error")
    p_nee.add_argument("--nr", type=_COUNT, default=200, help="NEE random vectors")
    p_nee.add_argument("--np", type=_COUNT, default=5, help="NEE permutations per vector")
    p_msobe = frameworks.add_parser("msobe", parents=[shared], help="MSOBE-SF: the simulation database")
    p_msobe.add_argument("--total", type=_checked(int, lambda v: v > 0 and v % 4 == 0, "a positive multiple of 4"),
                         default=240_000, help="MSOBE record count")
    p_msobe.add_argument("--big-prob", type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]"), default=0.75,
                         help="probability that a record gets one big error")
    p_msobe.add_argument("--workers", type=_COUNT, default=1, help="threads generating record stacks")

    p_rep = sub.add_parser("report", help="class-summary table and correlation grid")
    p_rep.add_argument("database_path")
    p_rep.add_argument("--index", choices=sim.INDEX_NAMES, default="ati")
    p_rep.add_argument("--error", choices=sim.ERROR_NAMES, default="ae_rev")
    p_rep.add_argument("--classes", type=_checked(int, lambda v: v >= 3, "at least 3"), default=15)
    p_rep.add_argument("--format", choices=("table", "csv"), default="table")
    p_rep.add_argument("--out", default=None)

    p_acc = sub.add_parser("accept", help="ATI-based acceptance verdict for a PCM file")
    p_acc.add_argument("pcm_path")
    p_acc.add_argument("--method", choices=("rev", "gm"), default="rev")
    p_acc.add_argument("--threshold", type=_checked(float, lambda v: math.isfinite(v) and v >= 0,
                                                    "finite and nonnegative"), required=True)
    p_acc.add_argument("--quantile", choices=acc.QUANTILE_CHOICES, default="q90")
    p_acc.add_argument("--table", default=None, help="custom quantile table CSV")

    parser.commands = sub.choices
    return parser


def _emit(text: str, out_path):
    if out_path:
        try:
            Path(out_path).write_text(text if text.endswith("\n") else text + "\n")
        except (OSError, ValueError) as exc:  # ValueError: a path the OS cannot name, such as one with a NUL
            raise DataError(f"cannot write output: {exc}") from exc
    else:
        print(text)


def cmd_analyze(args) -> int:
    pcm = read_pcm(args.pcm_path)
    if args.true_pv is not None and args.true_pv.n != pcm.n:
        raise UsageError("--true-pv dimension does not match the PCM order")
    seed = secrets.randbits(32) if args.seed is None else args.seed
    asi = estimate_asi(pcm.n, seed=seed)
    report = compute_report(pcm, asi)
    rev, gm = report.rev, report.gm
    payload = {
        "n": pcm.n,
        "asi_seed": seed,
        "asi": asi,
        "lambda_max": rev.lambda_max,
        "rev_estimate": list(rev.weights.weights),
        "gm_estimate": list(gm.weights),
        **report.as_dict(),
    }
    if args.true_pv is not None:
        payload.update(batch_losses(args.true_pv.weights, rev.weights.weights, gm.weights))
    if args.format == "jsonl":
        _emit(json.dumps(payload), args.out)
        return EXIT_OK
    lines = [f"PCM {args.pcm_path} (n={pcm.n})"]
    lines.append(f"  lambda_max = {rev.lambda_max:.6f}")
    for key in ("si", "cr", "gi", "ki", "ati"):
        lines.append(f"  {key.upper():<3} = {payload[key]:.6f}")
    lines.append(f"  (ASI = {asi:.4f}, sample seed {seed}; CR is informational only)")
    lines.append("  REV estimate: " + ", ".join(f"{w:.6f}" for w in payload["rev_estimate"]))
    lines.append("  GM  estimate: " + ", ".join(f"{w:.6f}" for w in payload["gm_estimate"]))
    if "ae_rev" in payload:
        lines.append(
            f"  errors vs true PV: AE(REV)={payload['ae_rev']:.4f} "
            f"RE(REV)={payload['re_rev']:.4f} ({payload['re_rev'] * 100:.2f}%)"
        )
        lines.append(
            f"                     AE(GM)={payload['ae_gm']:.4f} "
            f"RE(GM)={payload['re_gm']:.4f} ({payload['re_gm'] * 100:.2f}%)"
        )
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _write_manifest(args, config: dict, skipped: int, **extra):
    """Write the manifest to --manifest, else beside --out once that is a regular file.

    A pipe, a device or a link (such as /dev/stdout) gets no manifest beside it.
    """
    path = args.manifest
    if path is None:
        if not os.path.isfile(args.out) or os.path.islink(args.out):
            print(f"pcmkit: {args.out} is a pipe, device or link; no manifest written (see --manifest)", file=sys.stderr)
            return
        path = str(args.out) + ".manifest.json"
    manifest = {"config": config, "skipped": skipped, **extra}
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_simulate(args) -> int:
    # n, seed and out, then the framework's own options in the order its parser declares them.
    config = {"subcommand": f"simulate {args.framework}"}
    config.update((key, value) for key, value in vars(args).items() if key not in ("command", "framework", "manifest"))
    seed = config["seed"] = secrets.randbits(32) if args.seed is None else args.seed
    try:
        if args.framework == "msobe":
            big = sim.BigErrorModel(apply_probability=args.big_prob)
            result = sim.run_msobe_sf(args.n, args.total, big=big, seed=seed, workers=args.workers)
            sim.write_records_csv(result.records, args.out)
            _write_manifest(args, config, result.skipped, rng=sim.MSOBE_RNG, rev=result.rev)
        else:
            if args.framework == "mse":
                summary = sim.run_mse_sf(args.n, n_runs=args.runs, n_e=args.ne, seed=seed)
            else:
                summary = sim.run_nee_sf(args.n, n_r=args.nr, n_p=args.np, seed=seed)
            _emit(json.dumps(summary.as_dict(), indent=2), args.out)
            _write_manifest(args, config, summary.skipped, rng=sim.RUN_RNG)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise DataError(f"cannot write output: {exc}") from exc
    except MemoryError:
        size = " ".join(f"--{key.replace('_', '-')} {value}" for key, value in config.items()
                        if key not in ("subcommand", "seed", "out"))
        raise UsageError(f"simulate {args.framework} ran out of memory at {size}; try a smaller size") from None
    return EXIT_OK


def cmd_report(args) -> int:
    records = sim.read_records_csv(args.database_path)
    try:
        summaries = summarize_classes(records, args.index, args.error, args.classes)
    except PartitionError as exc:
        raise DataError(f"cannot split the {args.index} values into classes: {exc}") from exc
    # Correlations of the class-mean index values (row 0) with each error statistic; NaN where one is constant.
    stats = ("q10", "median", "q90", "mean_error")
    rows = np.array([[getattr(s, field) for s in summaries] for field in ("mean_index_value", *stats)])
    x, y = [0, 0, 0, 0], [1, 2, 3, 4]
    corr = list(zip(stats, spearman_pairs(rows, x, y), pearson_pairs(rows, x, y)))
    if args.format == "csv":
        lines = ["class,lo,hi,count,mean_index,q10,median,q90,mean_error"]
        for s in summaries:
            cells = [str(s.class_index), f"{s.lower:.8g}", f"{s.upper:.8g}", str(s.count)]
            for v in (s.mean_index_value, s.q10, s.median, s.q90, s.mean_error):
                cells.append(f"{v:.8g}")
            lines.append(",".join(cells))
        lines.append("")
        lines.append("statistic,spearman,pearson")
        for stat, *coeffs in corr:
            lines.append(",".join([stat] + ["" if np.isnan(r) else f"{r:.6f}" for r in coeffs]))
        _emit("\n".join(lines), args.out)
        return EXIT_OK
    lines = [
        f"index {args.index} vs error {args.error} over {len(records)} records, "
        f"{args.classes} classes"
    ]
    lines.append(f"{'i':>3} {'class':>21} {'count':>7} {'mean idx':>10} "
                 f"{'q10':>10} {'median':>10} {'q90':>10} {'mean':>10}")
    for s in summaries:
        lines.append(
            f"{s.class_index:>3} {f'{s.lower:.4f} - {s.upper:.4f}':>21} {s.count:>7}"
            f"{s.mean_index_value:11.4f}{s.q10:11.4f}{s.median:11.4f}{s.q90:11.4f}{s.mean_error:11.4f}"
        )
    lines.append("")
    lines.append("correlation of class-mean index values with error statistics:")
    for stat, *coeffs in corr:
        sp, pe = ("undefined" if np.isnan(r) else f"{r:.4f}" for r in coeffs)
        lines.append(f"  {stat:<11} spearman {sp:>10}   pearson {pe:>10}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_accept(args) -> int:
    pcm = read_pcm(args.pcm_path)
    table = acc.read_table(args.table) if args.table else None
    verdict = acc.assess_pcm(pcm, args.method.upper(), args.threshold, args.quantile, table)
    row, table = verdict.row, verdict.table
    mean_s = "suspect, unused" if row.suspect_mean else f"{row.mean_err:.4f}"
    print(f"ATI = {verdict.ati:.4f} -> class {row.class_index} of the {table.method} table")
    print(f"estimated {table.loss} quantiles: q10={row.q10:.4f} median={row.median:.4f} "
          f"q90={row.q90:.4f} mean={mean_s}")
    print(
        f"verdict: {'ACCEPT' if verdict.accepted else 'REJECT'} "
        f"({verdict.quantile_choice} vs threshold {verdict.threshold:g})"
    )
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        # A known subcommand goes straight to its own parser, which gives the same namespace
        # and messages without the full parser's pass over argv; the full parser answers the rest.
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
            args.command = argv[0]
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "report":
            return cmd_report(args)
        return cmd_accept(args)
    except UsageError as exc:
        print(f"pcmkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, ValueError, ConvergenceError) as exc:  # a file, its contents or what they compute
        print(f"pcmkit: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:  # simulate names its size and exits 1; the other commands' input is too large
        print(f"pcmkit: {argv[0]} ran out of memory on this input", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
