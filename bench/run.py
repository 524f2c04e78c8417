"""pcmkit benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {msobe_db,corr_sweep,single_pcm} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  pcmkit is imported from ``src/`` beside this
directory, never from an installed copy; without it the run exits non-zero
and prints no result.  Scratch files go to ``.bench_work/`` and are removed at
the end.

``--trace 0`` times the workload's primary and secondary operations for S
seconds (see workloads.py), then measures set-up time in fresh interpreters.
It prints set-up time and the two operations' median latencies, each scaled
by the host-speed calibration of calibrate.py, and the peak RSS.
``--trace 1`` measures S/2 seconds untraced and S/2 seconds with spans
recorded around pcmkit's public functions, and prints the per-layer metrics
plus the tracing overhead.  The metric names and units come from
BENCHMARK.json.  Human-readable lines come first; the last line of standard
output is the JSON result.  The exit code is 1 when an output check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Exact counts of the program this benchmark was defined on, by the workload
# that produces them; the traced run of that workload prints whether they
# still hold, as a check on where the tracer records.  A count of 0 there
# means a wrapper is no longer on the call path.
REFERENCE_COUNTS = {
    "msobe_db": ("simulate.seed_sequences_per_record", 3),
    "single_pcm": ("prioritize.rev_estimate.calls_per_analyze", 502),
    "corr_sweep": ("stats.average_ranks.calls_per_mse_run", 48),
}


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pcmkit
    except ImportError as exc:
        sys.exit(f"bench: cannot import pcmkit from {src}: {exc}")
    if Path(pcmkit.__file__).resolve().parent != (src / "pcmkit").resolve():
        sys.exit(f"bench: pcmkit was imported from {pcmkit.__file__}, not from {src}")


def _host_line() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"host: cores={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')}")


def _measure(workload, seconds: float, tracer=None):
    from workloads import Samples

    samples = Samples()
    deadline = perf_counter() + seconds
    step = 0
    while True:
        samples.kernel.append(calibrate.kernel_seconds())
        done = len(samples.primary), len(samples.secondary)
        workload.step(samples, tracer)
        samples.primary_steps += [step] * (len(samples.primary) - done[0])
        samples.secondary_steps += [step] * (len(samples.secondary) - done[1])
        step += 1
        if perf_counter() >= deadline:
            samples.kernel.append(calibrate.kernel_seconds())
            return samples


def _setup_seconds(workload, work_dir: Path, seed: int) -> tuple:
    """Wall times of fresh interpreters that import pcmkit and make the first call.

    Returns the raw times and the calibrated ones.
    """
    argv = [sys.executable, str(ROOT / "bench" / "probe.py"), str(ROOT), workload.name,
            str(work_dir), str(seed)]
    times, kernel = [], [calibrate.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - t0)
        kernel.append(calibrate.kernel_seconds())
    return times, calibrate.normalized(times, range(SETUP_REPEATS), kernel)


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3


def _calibrated_p50_ms(samples, which: str) -> float:
    times = calibrate.normalized(getattr(samples, which), getattr(samples, f"{which}_steps"),
                                 samples.kernel)
    return _p50_ms(times)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (a pool worker).

    A proxy, not the run's true peak: forked workers count the pages they
    share with this process a second time, and of two concurrent workers
    only the larger is counted.  A change to how the pool starts its
    workers moves it even when the program's memory use does not change.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _per_layer(workload, tracer, plain, traced) -> dict:
    spans = tracer.summary()

    def entry(label):
        return spans.get(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "first_s": 0.0, "by_kind": {}})

    def per_call(label, field="s"):
        e = entry(label)
        return e[field] / e["calls"] if e["calls"] else 0.0

    def per_unit(label, kind):
        units = tracer.units(kind)
        return entry(label)["by_kind"].get(kind, 0) / units if units else 0.0

    records = tracer.units("build")
    rounds = entry("core.round_matrix_to_scale")["calls"]
    iterations = sorted(tracer.samples.get("prioritize.rev_estimate.iterations", [0]))
    plain_ms = _calibrated_p50_ms(plain, "primary")
    overhead_ms = _calibrated_p50_ms(traced, "primary") - plain_ms
    return {
        "simulate.seed_sequences_per_record":
            tracer.counts.get(("simulate.seed_sequences", "build"), 0) / records if records else 0.0,
        "simulate.run_msobe_sf.self_s": per_call("simulate.run_msobe_sf", "self_s"),
        "core.round_matrix_to_scale.s": per_call("core.round_matrix_to_scale"),
        "core.round_matrix_to_scale.values":
            tracer.counts.get(("core.round_matrix_to_scale.values", "build"), 0) / rounds if rounds else 0.0,
        "simulate.write_records_csv.s": per_call("simulate.write_records_csv"),
        "simulate.read_records_csv.s": per_call("simulate.read_records_csv"),
        "simulate.db_bytes": _mean(getattr(workload, "db_bytes", [])),
        "simulate.result_pickle_bytes": _mean(getattr(workload, "pickle_bytes", [])),
        "stats.summarize_classes.s": per_call("stats.summarize_classes"),
        "acceptance.table_from_records.s": per_call("acceptance.table_from_records"),
        "stats.spearman_or_nan.calls_per_mse_run": per_unit("stats.spearman_or_nan", "mse"),
        "stats.spearman_or_nan.s": per_call("stats.spearman_or_nan"),
        "stats.pearson.calls_per_mse_run": per_unit("stats.pearson", "mse"),
        "stats.pearson.s": per_call("stats.pearson"),
        "stats.average_ranks.calls_per_mse_run": per_unit("stats.average_ranks", "mse"),
        "stats.average_ranks.s": per_call("stats.average_ranks"),
        "simulate.run_mse_sf.self_s": per_call("simulate.run_mse_sf", "self_s"),
        "simulate.run_nee_sf.self_s": per_call("simulate.run_nee_sf", "self_s"),
        "indices.estimate_asi.s": per_call("indices.estimate_asi"),
        "prioritize.rev_estimate.calls_per_analyze": per_unit("prioritize.rev_estimate", "analyze"),
        "prioritize.rev_estimate.iterations_mean": _mean(iterations),
        "prioritize.rev_estimate.iterations_p99": iterations[int(0.99 * (len(iterations) - 1))],
        "prioritize.gm_estimate.calls_per_analyze": per_unit("prioritize.gm_estimate", "analyze"),
        "indices.compute_report.s": per_call("indices.compute_report"),
        "loss.avg_absolute_error.s": per_call("loss.avg_absolute_error"),
        "loss.avg_relative_error.s": per_call("loss.avg_relative_error"),
        "acceptance.assess_pcm.s": per_call("acceptance.assess_pcm"),
        "core.read_pcm.s": per_call("core.read_pcm"),
        "cli.main.self_s": per_call("cli.main", "self_s"),
        "acceptance.builtin_table.first_s": entry("acceptance.builtin_table")["first_s"],
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_frac": overhead_ms / plain_ms,
    }


def _run(args, work_dir: Path) -> tuple:
    """Measure one workload; returns (workload, metrics, human-readable lines)."""
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](work_dir, args.seed, bool(args.trace))
    workload.prepare()
    lines = []
    if not args.trace:
        # Lazy first-call set-up (model verification, table load) is measured
        # by setup_s; keep it out of the timed steps.
        type(workload).first_call(work_dir, args.seed)
        samples = _measure(workload, args.seconds)
        # Read before any set-up probe exits, so that only pool workers count
        # among the children.
        metrics = {
            "peak_rss_mb": _peak_rss_mb(),
            "primary_p50_ms": _calibrated_p50_ms(samples, "primary"),
            "secondary_p50_ms": _calibrated_p50_ms(samples, "secondary"),
        }
        workload.determinism()
        setup, setup_calibrated = _setup_seconds(workload, work_dir, args.seed)
        metrics["setup_s"] = statistics.median(setup_calibrated)
        lines.append("set-up wall s: " + " ".join(f"{t:.4f}" for t in setup)
                     + "; calibrated: " + " ".join(f"{t:.4f}" for t in setup_calibrated))
        lines.append(f"calibration kernel: p50 {_p50_ms(samples.kernel):.3f} ms over "
                     f"{len(samples.kernel)} steps (reference {calibrate.REFERENCE_S * 1e3:g} ms)")
    else:
        # The first call of the workload's set-up runs traced, so that lazy
        # set-up (table load, model verification) shows as its first span.
        tracer = Tracer()
        tracer.install()
        try:
            type(workload).first_call(work_dir, args.seed)
        finally:
            tracer.uninstall()
        samples = _measure(workload, args.seconds / 2)
        tracer.install()
        try:
            traced = _measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        workload.determinism()
        metrics = _per_layer(workload, tracer, samples, traced)
        if args.workload == "msobe_db":
            lines.append("trace: msobe_db builds with workers=1 in both halves, because spans "
                         "recorded in pool workers are lost")
        lines.append(f"trace: {len(tracer.start)} spans over {len(tracer.op_kinds)} operations; "
                     f"overhead {metrics['trace.overhead_ms']:.3f} ms per {workload.primary_label}")
        name, expected = REFERENCE_COUNTS[args.workload]
        value = metrics[name]
        state = "matches" if value == expected else "differs from"
        lines.append(f"trace: {name} = {value:g} {state} {expected} at the defining commit")
    lines.append(
        f"{args.workload} (wall clock): {len(samples.primary)} x {workload.primary_label} "
        f"p50 {_p50_ms(samples.primary):.3f} ms, {len(samples.secondary)} x "
        f"{workload.secondary_label} p50 {_p50_ms(samples.secondary):.3f} ms")
    for name, value, unit in workload.named_metrics(samples):
        lines.append(f"{args.workload}: {name} = {value:.6g} {unit}")
    return workload, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("msobe_db", "corr_sweep", "single_pcm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print(_host_line())
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload, metrics, lines = _run(args, work_dir)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run's files are still there
            pass

    for line in lines:
        print(line)
    attempted = max(workload.attempted, 1)
    print(f"{args.workload}: fail_frac = {workload.failed / attempted:.6g} "
          f"({workload.failed} of {attempted} work items)")
    for problem in workload.problems:
        print(f"check failed: {problem}")
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    correct = not workload.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": workload.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
