"""Command-line interface: exit codes, outputs, manifests."""

import json
import os
import subprocess
import sys
import threading
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from pcmkit import simulate as sim
from pcmkit.cli import EXIT_DATA, EXIT_OK, EXIT_REJECT, EXIT_USAGE, main
from pcmkit.core import Pcm, write_pcm
from pcmkit.prioritize import batch_rev
from pcmkit.simulate import (
    RECORD_FIELDS,
    RecordTable,
    SimRecord,
    read_records_csv,
    write_records_csv,
)

from pcmkit.stats import pearson, spearman, summarize_classes

from conftest import BAD_TABLES, RA, RB


@pytest.fixture
def ra_file(tmp_path, ra):
    path = tmp_path / "ra.csv"
    write_pcm(ra, path)
    return str(path)


@pytest.fixture
def rb_file(tmp_path, rb):
    path = tmp_path / "rb.csv"
    write_pcm(rb, path)
    return str(path)


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("pcmkit: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def write_database(path, ati_values):
    """A database whose records differ only in their vector ids and ATI values."""
    template = SimRecord(4, 0, 0, "gamma", False, 0.1, 0.1, 0.5, 0.1, 0.01, 0.05, 0.01, 0.05, 1)
    columns = {name: np.full(len(ati_values), value) for name, value in zip(RECORD_FIELDS, astuple(template))}
    columns.update(vector_id=np.arange(len(ati_values)), ati=np.asarray(ati_values, dtype=float))
    write_records_csv(RecordTable(columns), path)
    return str(path)


# Faults in one database row, as field -> new CSV text (None drops the field).
BAD_ROWS = (
    {"extra": "7"},
    {"re_gm": None, "seed": None},
    {"big_error": "yes"},
    {"big_error": "2"},
    {"ati": "nan"},
    {"ae_rev": "inf"},
    {"n": "9"},
    {"ati": "-0.5"},
    {"gi": "-0.1"},
    {"re_gm": "-0.01"},
    {"distribution": "bogus"},
    {"vector_id": "1.5"},
    {"vector_id": "true"},
    {"vector_id": '"7"'},
    {"vector_id": "-3"},
    {"perturbation_id": "-1"},
    {"seed": "-1"},
)

def assert_bad_row_3_is_named(tmp_path, capsys):
    """Each BAD_ROWS fault in row 3 of an otherwise valid database: report exits 2 naming file and row."""
    good = write_database(tmp_path / "db.csv", np.linspace(0.1, 1.0, 30))
    assert main(["report", good, "--classes", "3"]) == EXIT_OK
    capsys.readouterr()
    lines = (tmp_path / "db.csv").read_text().splitlines()
    for fault in BAD_ROWS:
        row = dict(zip(RECORD_FIELDS, lines[3].split(",")))  # line 0 is the header
        for field, text in fault.items():
            if text is None:
                del row[field]
            else:
                row[field] = text
        bad = tmp_path / "bad-db.csv"
        bad.write_text("\n".join(lines[:3] + [",".join(row.values())] + lines[4:]))
        assert main(["report", str(bad), "--classes", "3"]) == EXIT_DATA, fault
        assert assert_one_line_error(capsys).startswith(f"pcmkit: {bad}: row 3: "), fault


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_simulate_requires_out(self, capsys):
        assert main(["simulate", "mse", "--n", "4"]) == EXIT_USAGE
        capsys.readouterr()

    def test_accept_requires_threshold(self, ra_file, capsys):
        assert main(["accept", ra_file]) == EXIT_USAGE
        capsys.readouterr()

    def test_nonpositive_counts(self, tmp_path, capsys):
        out = str(tmp_path / "db.csv")
        assert main(["simulate", "mse", "--n", "4", "--runs", "0", "--out", out]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_accept_rejects_bad_threshold(self, rb_file, capsys, threshold):
        assert main(["accept", rb_file, "--threshold", threshold]) == EXIT_USAGE
        assert_one_line_error(capsys)

    def test_big_error_probability_out_of_range(self, tmp_path, capsys):
        out = str(tmp_path / "db.csv")
        argv = ["simulate", "msobe", "--n", "4", "--total", "8", "--big-prob", "7", "--out", out]
        assert main(argv) == EXIT_USAGE
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("framework, runner, size", [("mse", "run_mse_sf", "--n 300"),
                                                         ("nee", "run_nee_sf", "--n 300"),
                                                         ("msobe", "run_msobe_sf", "--n 300 --total 240000")])
    def test_simulate_out_of_memory(self, tmp_path, capsys, monkeypatch, framework, runner, size):
        """A run too big for memory exits 1 with one line naming the framework and its size, not a traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(sim, runner, exhausted)
        out = tmp_path / "out"
        assert main(["simulate", framework, "--n", "300", "--seed", "1", "--out", str(out)]) == EXIT_USAGE
        assert assert_one_line_error(capsys) == (
            f"pcmkit: simulate {framework} ran out of memory at {size}; try a smaller size\n")
        assert not out.exists()

    def test_report_too_few_classes(self, database, capsys):
        assert main(["report", database, "--classes", "2"]) == EXIT_USAGE
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [["analyze", "{pcm}"], ["simulate", "mse", "--n", "4"],
                                      ["simulate", "nee", "--n", "4"], ["simulate", "msobe", "--n", "4"]])
    def test_negative_seed(self, ra_file, tmp_path, capsys, argv):
        argv = [a.format(pcm=ra_file) for a in argv] + ["--seed", "-1", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        assert assert_one_line_error(capsys) == "pcmkit: --seed must be a non-negative integer, not -1\n"
        assert not (tmp_path / "out").exists()

    def test_bad_true_pv(self, ra_file, capsys):
        assert main(["analyze", ra_file, "--true-pv", "0.5,x,0.2,0.1"]) == EXIT_USAGE
        assert main(["analyze", ra_file, "--true-pv", "0.5,0.3,0.2"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("true_pv", ["0,0,0,0", "inf,1,1,1", "1e308,1e308,1e308,1e308"])
    def test_true_pv_that_cannot_be_normalized(self, ra_file, true_pv):
        """A zero, infinite or overflowing sum is one error line on stderr, with no numpy warning before it."""
        env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).parents[1])}
        argv = [sys.executable, "-m", "pcmkit.cli", "analyze", ra_file, "--seed", "1", "--true-pv", true_pv]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == EXIT_USAGE and run.stdout == ""
        assert run.stderr == "pcmkit: bad --true-pv: priority weights must be finite and strictly positive\n"


class TestDataErrors:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.csv"]) == EXIT_DATA
        capsys.readouterr()

    def test_unwritable_out(self, ra_file, database, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x")
        for argv in (["analyze", ra_file, "--seed", "1"], ["report", database]):
            assert main(argv + ["--out", out]) == EXIT_DATA
            assert assert_one_line_error(capsys).startswith("pcmkit: cannot write output: ")

    def test_file_that_is_not_utf8_is_named(self, tmp_path, rb_file, capsys):
        """100 random bytes as a PCM, a table or a database: exit 2 with one line naming the file and the byte."""
        data = np.random.default_rng(5).bytes(100)
        with pytest.raises(UnicodeDecodeError):
            data.decode()
        path = tmp_path / "noise.csv"
        path.write_bytes(data)
        for argv in (["analyze", str(path)], ["accept", rb_file, "--threshold", "1", "--table", str(path)],
                     ["report", str(path)]):
            assert main(argv) == EXIT_DATA, argv
            assert assert_one_line_error(capsys).startswith(f"pcmkit: {path}: not UTF-8 text (byte 0x"), argv

    def test_oversized_fraction_token(self, tmp_path, capsys):
        """A p/q too large for a float is a bad token, as 1/0 is."""
        big = "1" + "0" * 400 + "/1"
        path = tmp_path / "big.csv"
        path.write_text(f"1,2,{big}\n0.5,1,2\n1/3,0.5,1\n")
        for argv in (["analyze", str(path)], ["accept", str(path), "--threshold", "1"]):
            assert main(argv) == EXIT_DATA
            assert assert_one_line_error(capsys).startswith(f"pcmkit: bad fraction token '{big}'")

    def test_malformed_pcm(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n0.5,1\n")
        assert main(["analyze", str(path)]) == EXIT_DATA
        capsys.readouterr()

    def test_nonreciprocal_pcm(self, tmp_path, capsys):
        path = tmp_path / "nr.csv"
        path.write_text("1,2,3\n0.6,1,2\n1/3,0.5,1\n")
        assert main(["analyze", str(path)]) == EXIT_DATA
        assert main(["accept", str(path), "--threshold", "1"]) == EXIT_DATA
        capsys.readouterr()

    def test_accept_unsupported_order(self, tmp_path, capsys):
        # order 8 has no builtin quantile table
        path = tmp_path / "m8.csv"
        rows = [",".join("1" for _ in range(8)) for _ in range(8)]
        path.write_text("\n".join(rows) + "\n")
        assert main(["accept", str(path), "--threshold", "1"]) == EXIT_DATA
        capsys.readouterr()

    def test_accept_order_three_names_no_command(self, tmp_path, capsys):
        # no table exists for n=3, and MSOBE-SF cannot make one
        path = tmp_path / "m3.csv"
        write_pcm(Pcm(np.ones((3, 3))), path)
        assert main(["accept", str(path), "--threshold", "0.2"]) == EXIT_DATA
        message = assert_one_line_error(capsys)
        assert "n >= 4" in message and "simulate msobe" not in message

    def test_report_on_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_text("not,a,database\n")
        assert main(["report", str(path)]) == EXIT_DATA
        capsys.readouterr()
        assert_bad_row_3_is_named(tmp_path, capsys)

    def test_report_on_json_lines_that_are_not_records(self, tmp_path, capsys):
        """JSON lines are not a simulation database, records among them too (one object per record, floats as
        their text): report exits 2 with one line naming the file, and prints no table."""
        record = SimRecord(4, 0, 0, "gamma", False, 0.1, 0.1, 0.5, 0.1, 0.01, 0.05, 0.01, 0.05, 1)
        row = {name: format(x, ".8g") if type(x) is float else x for name, x in zip(RECORD_FIELDS, astuple(record))}
        path = tmp_path / "db.jsonl"
        for text in ('{"a": 1}\n', "".join(json.dumps({**row, "vector_id": k}) + "\n" for k in range(30))):
            path.write_text(text)
            for fmt in ("table", "csv"):
                assert main(["report", str(path), "--classes", "3", "--format", fmt]) == EXIT_DATA
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"pcmkit: {path}: not a simulation database (bad header)\n"

    def test_report_reads_hash_as_data(self, tmp_path, capsys):
        """'#' starts no comment in a database: a row ending in one, or a note line between rows, is a bad row."""
        lines = Path(write_database(tmp_path / "db.csv", np.linspace(0.1, 1.0, 8))).read_text().splitlines()
        bad = tmp_path / "bad.csv"
        for text in ([*lines[:4], lines[4] + " # edited by hand", *lines[5:]], [*lines[:4], "# a note", *lines[4:]]):
            bad.write_text("\n".join(text) + "\n")
            assert main(["report", str(bad), "--classes", "3"]) == EXIT_DATA
            assert assert_one_line_error(capsys).startswith(f"pcmkit: {bad}: row 4: ")

    def test_report_degenerate_partition(self, tmp_path, capsys):
        path = write_database(tmp_path / "flat.csv", [0.3] * 20)
        assert main(["report", path, "--classes", "3"]) == EXIT_DATA
        assert_one_line_error(capsys)
        path = write_database(tmp_path / "few.csv", [0.1, 0.2, 0.3])
        assert main(["report", path, "--classes", "4"]) == EXIT_DATA
        assert "3 values cannot fill 4 classes" in assert_one_line_error(capsys)
        # over a quarter of the values are 0, so the first class would be [0, 0)
        path = write_database(tmp_path / "zeros.csv", [0.0] * 15 + list(np.linspace(0.1, 1.0, 30)))
        assert main(["report", path, "--classes", "4"]) == EXIT_DATA
        assert "boundaries must increase strictly from 0 to inf: 0, 0, " in assert_one_line_error(capsys)

    def test_report_empty_class(self, tmp_path, capsys):
        # quartile-anchored bounds 0.1, 0.55, 1.0: classes 1 and 3 stay empty
        path = write_database(tmp_path / "gap.csv", [0.1] * 4 + [1.0] * 4)
        assert main(["report", path, "--classes", "4"]) == EXIT_DATA
        assert "class(es) [1, 3] of 4 are empty" in assert_one_line_error(capsys)

    def test_accept_names_the_table_file_and_row(self, tmp_path, rb_file, capsys):
        header = "n,method,class_lo,class_hi,mean_ati,q10,median,q90,mean_err\n"
        for k, (rows, at) in enumerate(BAD_TABLES):
            path = tmp_path / f"table{k}.csv"
            path.write_text(header + "".join(r + "\n" for r in rows))
            assert main(["accept", rb_file, "--threshold", "1", "--table", str(path)]) == EXIT_DATA, rows
            assert assert_one_line_error(capsys).startswith(f"pcmkit: {path}: row {at}: "), rows


class TestAnalyze:
    def test_table_output(self, ra_file, capsys):
        assert main(["analyze", ra_file, "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "SI" in out and "ATI" in out and "lambda_max" in out

    def test_jsonl_golden_values(self, rb_file, capsys):
        assert (
            main(
                [
                    "analyze",
                    rb_file,
                    "--seed",
                    "1",
                    "--format",
                    "jsonl",
                    "--true-pv",
                    "0.46,0.25,0.19,0.10",
                ]
            )
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 4
        assert payload["si"] == pytest.approx(0.058, abs=5e-4)
        assert payload["gi"] == pytest.approx(0.228, abs=5e-4)
        assert payload["ki"] == pytest.approx(2 / 3, abs=1e-9)
        assert payload["rev_estimate"] == pytest.approx(
            [0.476078, 0.247112, 0.204738, 0.0720718], abs=1e-6
        )
        assert payload["ae_rev"] == pytest.approx(0.0154, abs=5e-5)
        assert payload["re_gm"] == pytest.approx(0.1023, abs=5e-4)
        assert payload["cr"] == pytest.approx(payload["si"] / payload["asi"])

    def test_out_file(self, tmp_path, ra_file):
        out = tmp_path / "report.txt"
        assert main(["analyze", ra_file, "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert "lambda_max" in out.read_text()

    def test_seed_reproducibility(self, ra_file, capsys):
        main(["analyze", ra_file, "--seed", "7", "--format", "jsonl"])
        first = capsys.readouterr().out
        main(["analyze", ra_file, "--seed", "7", "--format", "jsonl"])
        assert capsys.readouterr().out == first


class TestSimulate:
    def test_msobe_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "db.csv"
        code = main(
            ["simulate", "msobe", "--n", "4", "--total", "400", "--seed", "3", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        records = read_records_csv(out)
        assert len(records) >= 399  # allows rare non-convergence skips
        manifest = json.loads((tmp_path / "db.csv.manifest.json").read_text())
        assert manifest["config"]["n"] == 4
        assert manifest["config"]["seed"] == 3
        assert "format" not in manifest["config"]
        assert manifest["skipped"] == 400 - len(records)
        assert manifest["rng"] == {"stream": "msobe-block", "block": 1024} == sim.MSOBE_RNG

    def test_msobe_manifest_reports_power_iteration(self, tmp_path, capsys, monkeypatch):
        argv = ["simulate", "msobe", "--n", "5", "--total", "5000", "--seed", "8"]
        monkeypatch.setattr(sim, "_STACK_ENTRIES", 2 * sim._BLOCK * 5 * 5)  # three chunks
        manifests = []
        for workers in ("1", "2"):
            out = tmp_path / f"db{workers}.csv"
            assert main(argv + ["--workers", workers, "--out", str(out)]) == EXIT_OK
            manifests.append(json.loads((tmp_path / f"db{workers}.csv.manifest.json").read_text())["rev"])
        capsys.readouterr()
        assert manifests[0] == manifests[1]
        assert (tmp_path / "db1.csv").read_bytes() == (tmp_path / "db2.csv").read_bytes()
        # The same records' matrices, caught on their way into the kernel, through one direct batch_rev.
        stacks = []
        monkeypatch.setattr(sim, "batch_rev", lambda a: stacks.append(a.copy()) or batch_rev(a))
        sim.run_msobe_sf(5, 5000, seed=8)
        _, _, iterations, residual, converged = batch_rev(np.concatenate(stacks))
        kept = iterations[converged]
        assert manifests[0] == {
            "iterations_mean": kept.mean(),
            "iterations_p99": int(np.sort(kept)[int(0.99 * (kept.size - 1))]),
            "iterations_max": kept.max(),
            "residual_max": residual[converged].max(),
        }

    @pytest.mark.parametrize("framework", ["msobe", "mse"])
    def test_no_manifest_beside_a_pipe_or_link(self, tmp_path, capsys, framework):
        """--out a named pipe or a link: no <out>.manifest.json beside it; --manifest writes where it is told."""
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        argv = ["simulate", framework, "--n", "4", "--total", "40", "--runs", "3", "--seed", "2", "--out", str(fifo)]
        received = []
        for extra in ([], ["--manifest", str(tmp_path / "run.json")]):
            reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
            reader.start()
            code = main(argv + extra)
            reader.join(timeout=60)
            assert code == EXIT_OK and not reader.is_alive()
        err = capsys.readouterr().err
        assert err == f"pcmkit: {fifo} is a pipe, device or link; no manifest written (see --manifest)\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "run.json"]
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["config"]["out"] == str(fifo) and manifest["config"]["seed"] == 2
        assert received[0] == received[1] and received[0]
        out = tmp_path / "out.txt"
        assert main(argv[:-1] + [str(out), "--manifest", str(tmp_path / "other.json")]) == EXIT_OK
        assert out.read_bytes() == received[0]
        assert json.loads((tmp_path / "other.json").read_text())["skipped"] == manifest["skipped"]
        assert not (tmp_path / "out.txt.manifest.json").exists()
        link = tmp_path / "link"  # a link to a regular file, as /dev/stdout is when redirected to one
        link.symlink_to(out)
        assert main(argv[:-1] + [str(link)]) == EXIT_OK
        assert capsys.readouterr().err == f"pcmkit: {link} is a pipe, device or link; no manifest written (see --manifest)\n"
        assert out.read_bytes() == received[0] and not (tmp_path / "link.manifest.json").exists()

    def test_msobe_seed_beyond_int64_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "db.csv"
        argv = ["simulate", "msobe", "--n", "4", "--total", "8", "--seed", str(2**63), "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_msobe_largest_seed_round_trips(self, tmp_path, capsys):
        out = tmp_path / "db.csv"
        argv = ["simulate", "msobe", "--n", "4", "--total", "400", "--seed", str(2**63 - 1), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert main(["report", str(out), "--classes", "3"]) == EXIT_OK
        capsys.readouterr()
        assert set(read_records_csv(out)["seed"].tolist()) == {2**63 - 1}

    @pytest.mark.parametrize("framework", ["mse", "nee", "msobe"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_format_is_for_msobe_only(self, tmp_path, capsys, framework, fmt):
        """simulate has no --format: msobe writes CSV only, mse and nee one JSON summary."""
        out = tmp_path / "out"
        argv = ["simulate", framework, "--n", "4", "--runs", "3", "--nr", "3", "--total", "40", "--seed", "1"]
        assert main(argv + ["--format", fmt, "--out", str(out)]) == EXIT_USAGE
        assert assert_one_line_error(capsys) == f"pcmkit: unrecognized arguments: --format {fmt}\n"
        assert not out.exists()

    @pytest.mark.parametrize("framework", ["mse", "nee"])
    def test_summary_manifest_has_no_format(self, tmp_path, capsys, framework):
        out = tmp_path / "summary.json"
        assert main(["simulate", framework, "--n", "4", "--runs", "3", "--nr", "3", "--seed", "1", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((tmp_path / "summary.json.manifest.json").read_text())
        assert "format" not in manifest["config"] and "rng" not in manifest
        assert json.loads(out.read_text())["framework"] == framework

    def test_mse_summary(self, tmp_path, capsys):
        out = tmp_path / "mse.csv"
        code = main(
            ["simulate", "mse", "--n", "4", "--runs", "20", "--ne", "10", "--seed", "2", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert out.exists()

    def test_nee_summary(self, tmp_path, capsys):
        out = tmp_path / "nee.csv"
        code = main(
            ["simulate", "nee", "--n", "4", "--nr", "5", "--np", "2", "--seed", "2", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert out.exists()


@pytest.fixture(scope="module")
def database(tmp_path_factory):
    out = tmp_path_factory.mktemp("db") / "db.csv"
    main(["simulate", "msobe", "--n", "4", "--total", "2000", "--seed", "4", "--out", str(out)])
    return str(out)


class TestReportAndAccept:
    def test_report_table(self, database, capsys):
        assert main(["report", database]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ati" in out and "ae_rev" in out
        assert "spearman" in out

    def test_report_correlation_grid(self, database, tmp_path, capsys):
        """The grid holds the scalar spearman and pearson of each statistic; a constant one reads as undefined."""
        summaries = summarize_classes(read_records_csv(database), "ati", "ae_rev", 15)
        x = [s.mean_index_value for s in summaries]
        want = []
        for stat in ("q10", "median", "q90", "mean_error"):
            y = [getattr(s, stat) for s in summaries]
            want.append(f"{stat},{spearman(x, y):.6f},{pearson(x, y):.6f}")
        assert main(["report", database, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-4:] == want
        flat = write_database(tmp_path / "flat.csv", np.linspace(0.1, 1.0, 30))  # one error value throughout
        assert main(["report", flat, "--classes", "3", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-4:] == ["q10,,", "median,,", "q90,,", "mean_error,,"]
        assert main(["report", flat, "--classes", "3"]) == EXIT_OK
        assert capsys.readouterr().out.count("undefined") == 8

    def test_report_csv_to_file(self, database, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = main(["report", database, "--index", "si", "--error", "re_gm", "--format", "csv", "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        text = out.read_text()
        assert "spearman" in text

    def test_accept_and_reject_exit_codes(self, rb_file, capsys):
        assert main(["accept", rb_file, "--threshold", "1", "--quantile", "median"]) == EXIT_OK
        assert "verdict: ACCEPT" in capsys.readouterr().out
        assert main(["accept", rb_file, "--threshold", "0.001"]) == EXIT_REJECT
        assert "verdict: REJECT" in capsys.readouterr().out

    def test_accept_with_custom_table(self, database, rb_file, tmp_path, capsys):
        from pcmkit.acceptance import table_from_records, write_table

        records = read_records_csv(database)
        table_path = tmp_path / "table.csv"
        write_table(table_from_records(records, 4, "REV", loss="AE"), table_path)
        code = main(
            ["accept", rb_file, "--threshold", "1", "--table", str(table_path)]
        )
        assert "estimated AE quantiles" in capsys.readouterr().out
        assert code == EXIT_OK

    def test_accept_refuses_a_table_of_the_other_method(self, database, rb_file, tmp_path, capsys):
        from pcmkit.acceptance import table_from_records, write_table

        table_path = tmp_path / "gm.csv"
        write_table(table_from_records(read_records_csv(database), 4, "GM"), table_path)
        argv = ["accept", rb_file, "--threshold", "1", "--table", str(table_path)]
        assert main(argv + ["--method", "gm"]) == EXIT_OK
        capsys.readouterr()
        assert main(argv + ["--method", "rev"]) == EXIT_DATA
        assert "GM" in assert_one_line_error(capsys)

    def test_order_eight_path_named_by_the_no_table_message(self, tmp_path, monkeypatch, capsys):
        from pcmkit.acceptance import table_from_records, write_table

        monkeypatch.chdir(tmp_path)
        path = tmp_path / "m8.csv"
        write_pcm(Pcm(np.ones((8, 8))), path)
        assert main(["accept", str(path), "--threshold", "0.2"]) == EXIT_DATA
        message = assert_one_line_error(capsys)
        for step in ("`pcmkit simulate msobe --n 8 --out db.csv`",
                     '`write_table(table_from_records(read_records_csv("db.csv"), 8, "REV"), "table.csv")`',
                     "run accept again with `--table table.csv`"):
            assert step in message
        assert main(["simulate", "msobe", "--n", "8", "--total", "2000", "--seed", "8", "--out", "db.csv"]) == EXIT_OK
        write_table(table_from_records(read_records_csv("db.csv"), 8, "REV"), "table.csv")
        assert main(["accept", str(path), "--threshold", "0.2", "--table", "table.csv"]) in (EXIT_OK, EXIT_REJECT)
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_accept_gm_method(self, rb_file, capsys):
        assert main(["accept", rb_file, "--method", "gm", "--threshold", "1", "--quantile", "median"]) == EXIT_OK
        capsys.readouterr()


class TestOneProcess:
    def test_mixed_calls_match_a_fresh_parser(self, database, rb_file, tmp_path, capsys, monkeypatch):
        """main() parses every call with one cached parser, and each call of a mixed sequence
        gives the exit code, output and files a freshly built parser gives: no option value
        (--table, --quantile, --out) leaks into the next call."""
        from pcmkit import cli
        from pcmkit.acceptance import table_from_records, write_table

        assert cli._build_parser() is cli._build_parser()
        table = tmp_path / "ae.csv"
        write_table(table_from_records(read_records_csv(database), 4, "REV", loss="AE"), table)
        out = tmp_path / "out.txt"
        summary = tmp_path / "mse.json"
        calls = (
            ["accept", rb_file, "--table", str(table)],  # usage error: no --threshold
            ["analyze", rb_file, "--seed", "1", "--out", str(out)],
            ["accept", rb_file, "--threshold", "0.05", "--table", str(table), "--quantile", "median"],
            ["accept", rb_file, "--threshold", "0.05"],
            ["analyze", rb_file, "--seed", "1", "--format", "jsonl"],
            ["report", database, "--format", "csv", "--out", str(out)],
            ["report", database],
            ["simulate", "mse", "--n", "4", "--runs", "3", "--ne", "3", "--seed", "2", "--out", str(summary)],
            ["accept", rb_file, "--threshold", "0.05", "--method", "gm"],
        )

        def run_all():
            results = []
            for argv in calls:
                for path in (out, summary):
                    path.unlink(missing_ok=True)
                code = main(argv)
                captured = capsys.readouterr()
                files = [path.read_bytes() if path.exists() else None for path in (out, summary)]
                results.append((code, captured.out, captured.err, files))
            return results

        cached = run_all()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cli._build_parser() is not cli._build_parser()
        assert run_all() == cached

        codes, stdout, stderr, files = zip(*cached)
        assert codes == (EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_REJECT, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_REJECT)
        assert stderr[0].startswith("pcmkit: ") and stderr[0].count("\n") == 1
        assert stdout[1] == "" and b"lambda_max" in files[1][0]
        assert "estimated AE quantiles" in stdout[2] and "(median vs threshold 0.05)" in stdout[2]
        assert all(s in stdout[3] for s in ("of the REV table", "estimated RE quantiles", "(q90 vs threshold 0.05)"))
        assert json.loads(stdout[4])["asi_seed"] == 1 and files[4] == [None, None]
        assert files[5][0].startswith(b"class,lo,hi,") and "spearman" in stdout[6] and files[6] == [None, None]
        assert json.loads(files[7][1])["framework"] == "mse"
        assert "of the GM table" in stdout[8] and "estimated RE quantiles" in stdout[8]
