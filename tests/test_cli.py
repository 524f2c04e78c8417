"""Command-line interface: exit codes, outputs, manifests."""

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pcmkit import cli, prioritize
from pcmkit import simulate as sim
from pcmkit.acceptance import builtin_table, write_table
from pcmkit.cli import EXIT_DATA, EXIT_OK, EXIT_REJECT, EXIT_USAGE, main
from pcmkit.core import Pcm, PriorityVector, round_pcm, write_pcm
from pcmkit.prioritize import batch_rev
from pcmkit.simulate import (
    RECORD_FIELDS,
    RecordTable,
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


# One valid record, field by field in file order.
RECORD = dict(n=4, vector_id=0, perturbation_id=0, distribution="gamma", big_error=False, si=0.1, gi=0.1, ki=0.5,
              ati=0.1, ae_rev=0.01, re_rev=0.05, ae_gm=0.01, re_gm=0.05, seed=1)


def write_database(path, ati_values):
    """A database whose records differ only in their vector ids and ATI values."""
    columns = {name: np.full(len(ati_values), value) for name, value in RECORD.items()}
    columns.update(vector_id=np.arange(len(ati_values)), ati=np.asarray(ati_values, dtype=float))
    write_records_csv(RecordTable(columns), path)
    return str(path)


# Faults in one database row, as field -> new CSV text (None drops the field).
BAD_ROWS = (
    {"extra": "7"},
    {"re_gm": None, "seed": None},
    {"big_error": "yes"},
    {"big_error": "2"},
    {"si": "inf"},
    {"ki": "-1"},
    {"ati": "nan"},
    {"ae_rev": "inf"},
    {"re_rev": "nan"},
    {"ae_gm": "-0.5"},
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
    """Each BAD_ROWS fault in row 3 of an otherwise valid database: report exits 2 naming file, row and, unless
    the field count is wrong, the column.  SI float noise around 0 in that row still reads."""
    good = write_database(tmp_path / "db.csv", np.linspace(0.1, 1.0, 30))
    assert main(["report", good, "--classes", "3"]) == EXIT_OK
    capsys.readouterr()
    lines = (tmp_path / "db.csv").read_text().splitlines()
    bad = tmp_path / "bad-db.csv"

    def with_row_3(fault):
        row = dict(zip(RECORD_FIELDS, lines[3].split(",")))  # line 0 is the header
        for field, text in fault.items():
            if text is None:
                del row[field]
            else:
                row[field] = text
        bad.write_text("\n".join(lines[:3] + [",".join(row.values())] + lines[4:]))
        return len(row)

    for fault in BAD_ROWS:
        fields = with_row_3(fault)
        assert main(["report", str(bad), "--classes", "3"]) == EXIT_DATA, fault
        message = assert_one_line_error(capsys)
        assert message.startswith(f"pcmkit: {bad}: row 3: "), fault
        detail = message.removeprefix(f"pcmkit: {bad}: row 3: ")
        if fields != len(RECORD_FIELDS):
            assert detail == f"{fields} fields, not {len(RECORD_FIELDS)}\n", fault
        else:
            (field,) = fault
            assert detail.startswith((f"{field} is ", f"bad {field} value ")), fault
    with_row_3({"si": "-3e-16"})
    assert main(["report", str(bad), "--classes", "3"]) == EXIT_OK
    capsys.readouterr()


# Each simulate framework's own options, with a valid value each.
FRAMEWORK_OPTIONS = {
    "mse": ["--runs", "3", "--ne", "3"],
    "nee": ["--nr", "3", "--np", "2"],
    "msobe": ["--total", "40", "--big-prob", "0.5", "--workers", "2"],
}


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
        """The error names the flag and its value, not the error model's repr; nothing is written."""
        out = tmp_path / "db.csv"
        for value in ("7", "2", "-0.5", "nan"):
            argv = ["simulate", "msobe", "--n", "4", "--total", "8", "--big-prob", value, "--out", str(out)]
            assert main(argv) == EXIT_USAGE
            assert assert_one_line_error(capsys) == f"pcmkit: argument --big-prob: must be in [0, 1], not {value}\n"
            assert not out.exists()

    @pytest.mark.parametrize("framework, runner, size", [("mse", "run_mse_sf", "--n 300"),
                                                         ("nee", "run_nee_sf", "--n 300"),
                                                         ("msobe", "run_msobe_sf", "--n 300 --total 240000")])
    def test_simulate_out_of_memory(self, tmp_path, capsys, monkeypatch, framework, runner, size):
        """A run too big for memory exits 1 with one line naming the framework, its size and its other
        own options, not a traceback."""
        size += {"mse": " --runs 1000 --ne 25", "nee": " --nr 200 --np 5",
                 "msobe": " --big-prob 0.75 --workers 1"}[framework]
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

    @pytest.mark.parametrize("argv, message", [
        (["accept", "missing.csv", "--threshold", "nan"], "argument --threshold: must be finite and nonnegative, not nan"),
        (["report", "missing.csv", "--classes", "2"], "argument --classes: must be at least 3, not 2"),
        (["analyze", "missing.csv", "--seed", "-3"], "argument --seed: must be an integer in [0, 2**63), not -3"),
        (["analyze", "missing.csv", "--true-pv", "abc"], "argument --true-pv: could not convert string to float: 'abc'"),
    ])
    def test_usage_error_before_any_file_is_read(self, tmp_path, capsys, monkeypatch, argv, message):
        """A bad option value exits 1 although the file is missing too: the parser checks it first."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        assert assert_one_line_error(capsys) == f"pcmkit: {message}\n"

    @pytest.mark.parametrize("argv, foreign", [
        (["simulate", framework, "--n", "4", *FRAMEWORK_OPTIONS[framework][:2], "--seed", "1", *options[i:i + 2]],
         options[i:i + 2])
        for framework in FRAMEWORK_OPTIONS
        for other, options in FRAMEWORK_OPTIONS.items() if other != framework
        for i in range(0, len(options), 2)
    ] + [(["simulate", "mse", "--n", "4", "--runs", "2", "--ne", "2", "--seed", "1",
           "--big-prob", "nan", "--total", "5", "--workers", "9"], ["--big-prob", "nan", "--total", "5", "--workers", "9"])])
    def test_foreign_option_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, foreign):
        """simulate <framework> takes only its own options: another framework's is unrecognized, nothing is written."""
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "s.json"]) == EXIT_USAGE
        assert assert_one_line_error(capsys) == f"pcmkit: unrecognized arguments: {' '.join(foreign)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["analyze", "{pcm}"], ["simulate", "mse", "--n", "4"],
                                      ["simulate", "nee", "--n", "4"], ["simulate", "msobe", "--n", "4"]])
    def test_negative_seed(self, ra_file, tmp_path, capsys, argv):
        argv = [a.format(pcm=ra_file) for a in argv] + ["--seed", "-1", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        assert assert_one_line_error(capsys) == "pcmkit: argument --seed: must be an integer in [0, 2**63), not -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["analyze", "{pcm}", "--format", "jsonl"]] + [
        ["simulate", framework, "--n", "4", *FRAMEWORK_OPTIONS[framework][:2]] for framework in FRAMEWORK_OPTIONS],
        ids=["analyze", *FRAMEWORK_OPTIONS])
    def test_seed_domain(self, ra_file, tmp_path, capsys, argv):
        """Every subcommand takes the seeds an int64 seed column can record: [0, 2**63)."""
        out = tmp_path / "out"
        argv = [a.format(pcm=ra_file) for a in argv] + ["--out", str(out)]
        assert main(argv + ["--seed", str(2**63)]) == EXIT_USAGE
        assert assert_one_line_error(capsys) == (
            "pcmkit: argument --seed: must be an integer in [0, 2**63), not 9223372036854775808\n")
        assert list(tmp_path.iterdir()) == [Path(ra_file)]
        assert main(argv + ["--seed", str(2**63 - 1)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        if argv[0] == "analyze":
            assert json.loads(out.read_text())["asi_seed"] == 2**63 - 1
        else:
            assert json.loads((tmp_path / "out.manifest.json").read_text())["config"]["seed"] == 2**63 - 1

    @pytest.mark.parametrize("framework, option, value", [
        *[(framework, "--n", value) for framework in FRAMEWORK_OPTIONS for value in ("3", "2", "-4")],
        *[("mse", "--ne", value) for value in ("1", "0")],
        *[("msobe", "--total", value) for value in ("5", "6", "0", "-4")],
    ])
    def test_simulate_size_names_the_flag(self, tmp_path, capsys, monkeypatch, framework, option, value):
        """A size the framework cannot run exits 1 naming the flag and the value, not the library's parameter."""
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", framework, "--n", "4", *FRAMEWORK_OPTIONS[framework][:2], option, value, "--out", "o"]
        assert main(argv) == EXIT_USAGE
        requirement = {"--n": "at least 4", "--ne": "at least 2", "--total": "a positive multiple of 4"}[option]
        assert assert_one_line_error(capsys) == f"pcmkit: argument {option}: must be {requirement}, not {value}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_true_pv(self, ra_file, capsys, monkeypatch):
        # Each is refused before the ASI sample is drawn, a vector of the wrong length too.
        monkeypatch.setattr(cli, "estimate_asi", lambda *args, **kwargs: pytest.fail("drew the ASI sample"))
        assert main(["analyze", ra_file, "--true-pv", "0.5,x,0.2,0.1"]) == EXIT_USAGE
        assert main(["analyze", ra_file, "--true-pv", "0.5,0.3,0.2"]) == EXIT_USAGE
        capsys.readouterr()
        # An empty vector is unparsable too, not the same as leaving --true-pv out.
        assert main(["analyze", ra_file, "--seed", "1", "--true-pv", ""]) == EXIT_USAGE
        assert assert_one_line_error(capsys) == "pcmkit: argument --true-pv: could not convert string to float: ''\n"

    @pytest.mark.parametrize("true_pv", ["0,0,0,0", "inf,1,1,1", "1e308,1e308,1e308,1e308", "-1,2,3,4"])
    def test_true_pv_that_cannot_be_normalized(self, ra_file, true_pv):
        """A zero, infinite or overflowing sum, or a negative weight, is one error line on stderr, with no
        numpy warning before it; a vector that begins with a minus sign is a value, not an option."""
        env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).parents[1])}
        argv = [sys.executable, "-m", "pcmkit.cli", "analyze", ra_file, "--seed", "1", "--true-pv", true_pv]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == EXIT_USAGE and run.stdout == ""
        assert run.stderr == "pcmkit: argument --true-pv: priority weights must be finite and strictly positive\n"

    @pytest.mark.parametrize("fmt", ["table", "jsonl"])
    @pytest.mark.parametrize("true_pv, weight", [("1,1,1,1e-320", "3.33e-321"), ("1,1,1,1e308", "1e-308")])
    def test_true_pv_with_subnormal_weight(self, ra_file, fmt, true_pv, weight):
        """A normalized weight below the smallest normal float would overflow RE to inf: one error line."""
        env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).parents[1])}
        argv = [sys.executable, "-m", "pcmkit.cli", "analyze", ra_file, "--seed", "1", "--format", fmt,
                "--true-pv", true_pv]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == EXIT_USAGE and run.stdout == ""
        assert run.stderr == (
            f"pcmkit: argument --true-pv: normalized weight {weight} is below the smallest normal float\n"
        )


class TestDataErrors:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.csv"]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("command, module, name", [("analyze", cli, "estimate_asi"),
                                                        ("report", sim, "read_records_csv"),
                                                        ("accept", cli, "read_pcm")])
    def test_out_of_memory(self, ra_file, capsys, monkeypatch, command, module, name):
        """An input too large for memory exits 2 with one line naming the command, not a traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(module, name, exhausted)
        argv = {"analyze": [ra_file, "--seed", "1"], "report": ["db.csv"],
                "accept": [ra_file, "--threshold", "0.1"]}[command]
        assert main([command, *argv]) == EXIT_DATA
        assert assert_one_line_error(capsys) == f"pcmkit: {command} ran out of memory on this input\n"

    def test_unwritable_out(self, ra_file, database, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x")
        for argv in (["analyze", ra_file, "--seed", "1"], ["report", database]):
            assert main(argv + ["--out", out]) == EXIT_DATA
            assert assert_one_line_error(capsys).startswith("pcmkit: cannot write output: ")

    def test_out_path_with_a_null_byte(self, ra_file, database, capsys):
        """Path.write_text rejects the path with a ValueError, which reads as an unwritable one."""
        for argv in (["analyze", ra_file, "--seed", "1"], ["report", database]):
            assert main(argv + ["--out", "a\0b"]) == EXIT_DATA
            assert capsys.readouterr() == ("", "pcmkit: cannot write output: embedded null byte\n")

    def test_asi_that_does_not_converge(self, ra_file, capsys, monkeypatch):
        """One power-iteration pass cannot stop, so the ASI sample behind CR fails: one line, nothing on stdout."""
        monkeypatch.setattr(prioritize, "MAX_ITER", 1)
        assert main(["analyze", ra_file, "--seed", "1"]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("pcmkit: power iteration did not converge")

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
            assert assert_one_line_error(capsys) == f"pcmkit: {path}: row 1, column 3: bad fraction token '{big}'\n"

    @pytest.mark.parametrize("text, cell, token", [
        ("\ufeff1,2,3\n0.5,1,2\n1/3,0.5,1\n", "row 1, column 1", "bad numeric token '\\ufeff1'"),
        ("1,2,3\n\n0.5,1,1/0\n1/3,0.5,1\n", "row 2, column 3", "bad fraction token '1/0'"),
        ("1,2,3\n0.5,1,2,\n1/3,0.5,1\n", "row 2, column 4", "bad numeric token ''"),
    ])
    def test_bad_token_names_file_and_cell(self, tmp_path, capsys, text, cell, token):
        """A byte-order mark, a zero denominator or a trailing comma: exit 2 naming the file, row and column."""
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        for argv in (["analyze", str(path)], ["accept", str(path), "--threshold", "1"]):
            assert main(argv) == EXIT_DATA
            assert assert_one_line_error(capsys) == f"pcmkit: {path}: {cell}: {token}\n"

    def test_malformed_pcm(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n0.5,1\n")
        assert main(["analyze", str(path)]) == EXIT_DATA
        capsys.readouterr()

    def test_nonreciprocal_pcm(self, tmp_path, capsys):
        """RA with a21 = 3: one line naming the file and the pair, exit 2, for both commands."""
        path = tmp_path / "nr.csv"
        path.write_text("1,3,2,5\n3,1,1,3\n1/2,1,1,4\n1/5,1/3,1/4,1\n")
        for argv in (["analyze", str(path)], ["accept", str(path), "--threshold", "0.4"]):
            assert main(argv) == EXIT_DATA
            assert assert_one_line_error(capsys) == f"pcmkit: {path}: PCM is not reciprocal: a[1,2]=3 vs a[2,1]=3\n"

    def test_overflowing_pcm_is_one_line_without_a_warning(self, tmp_path, capsys):
        """REV's squarings overflow on entries 1e200 apart: exit 2 with the convergence line, and no numpy warning."""
        path = tmp_path / "wide.csv"
        path.write_text("1,1e200,1\n1e-200,1,1\n1,1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path), "--seed", "1"]) == EXIT_DATA
        assert assert_one_line_error(capsys) == (
            "pcmkit: power iteration did not converge after 1 iteration (residual nan)\n")

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
        row = {name: format(x, ".8g") if type(x) is float else x for name, x in RECORD.items()}
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

    def test_table_row_of_the_wrong_width_names_its_field_count(self, tmp_path, rb_file, capsys):
        """A row with a cell too few or too many, in the ten-column format and in the builtin's nine."""
        path = tmp_path / "t.csv"
        write_table(builtin_table(4, "REV"), path)
        header, *rows = path.read_text().splitlines()
        nine = [line.rpartition(",")[0] for line in (header, *rows)]
        for lines, message in (
            ([header, rows[0].rpartition(",")[0], *rows[1:]], "row 1: 9 fields, not 10"),
            ([header, rows[0], rows[1] + ",RE", *rows[2:]], "row 2: 11 fields, not 10"),
            ([nine[0], nine[1].rpartition(",")[0], *nine[2:]], "row 1: 8 fields, not 9"),
            ([*nine[:3], rows[2], *nine[4:]], "row 3: 10 fields, not 9"),
        ):
            path.write_text("\n".join(lines) + "\n")
            assert main(["accept", rb_file, "--threshold", "1", "--table", str(path)]) == EXIT_DATA, message
            assert assert_one_line_error(capsys) == f"pcmkit: {path}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("1,2,3,4\n0.5,1,2\n1/3,0.5,1\n", "row 1 has 4 entries, not 3"),
        ("1,2,3\n\n0.5,1\n1/3,0.5,1\n", "row 2 has 2 entries, not 3"),
        ("1,2\n0.5,1\n1/3,0.5\n", "row 1 has 2 entries, not 3"),
    ])
    def test_ragged_pcm_names_the_row(self, tmp_path, capsys, text, message):
        """The first row (counting non-blank lines) whose entry count is not the row count."""
        path = tmp_path / "rag.csv"
        path.write_text(text)
        for argv in (["analyze", str(path)], ["accept", str(path), "--threshold", "1"]):
            assert main(argv) == EXIT_DATA
            assert assert_one_line_error(capsys) == f"pcmkit: {path}: {message}\n"


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

    @pytest.mark.parametrize(
        "n, expected",
        [
            (4, "158f04f12a2f5ad2dba9c3466ef756e7c579791426b4734fb1e0c91b7169320c"),
            (5, "973ca7e3f9923aebeb48a3377e994f97fd71df7548e390ccd791d52ff1ccbdd3"),
            (6, "418dfaf8a2df372d7fa2836e5729a5b591589c18fdf0b2260842af1fd453daae"),
            (7, "80ae35ab93a1b743f93c28ebc1667f8fa05b9b427bce056acd918bce136b3872"),
        ],
    )
    def test_jsonl_bytes_are_pinned(self, tmp_path, capsys, n, expected):
        """One rounded, disturbed PCM of order n with its true vector: indices, estimates and losses byte for byte."""
        rng = np.random.default_rng(100 + n)
        v = rng.standard_exponential(n)
        v /= v.sum()
        path = tmp_path / "pcm.csv"
        write_pcm(round_pcm(Pcm(v[:, None] / v[None, :]).entries * rng.uniform(0.5, 2.0, (n, n))), path)
        true_pv = ",".join(map(repr, v.tolist()))
        assert main(["analyze", str(path), "--format", "jsonl", "--seed", "7", "--true-pv", true_pv]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected

    def test_table_with_true_pv_is_pinned(self, tmp_path, capsys, monkeypatch):
        """The n=4 PCM of the jsonl pin as a table, with the AE and RE lines that --true-pv adds."""
        rng = np.random.default_rng(104)
        v = rng.standard_exponential(4)
        v /= v.sum()
        monkeypatch.chdir(tmp_path)
        write_pcm(round_pcm(Pcm(v[:, None] / v[None, :]).entries * rng.uniform(0.5, 2.0, (4, 4))), "pcm.csv")
        assert main(["analyze", "pcm.csv", "--seed", "7", "--true-pv", ",".join(map(repr, v.tolist()))]) == EXIT_OK
        assert capsys.readouterr().out == (
            "PCM pcm.csv (n=4)\n"
            "  lambda_max = 4.010363\n"
            "  SI  = 0.003454\n"
            "  CR  = 0.004056\n"
            "  GI  = 0.013793\n"
            "  KI  = 0.250000\n"
            "  ATI = 0.125000\n"
            "  (ASI = 0.8516, sample seed 7; CR is informational only)\n"
            "  REV estimate: 0.085927, 0.159488, 0.159488, 0.595098\n"
            "  GM  estimate: 0.085832, 0.159752, 0.159752, 0.594664\n"
            "  errors vs true PV: AE(REV)=0.0438 RE(REV)=0.3086 (30.86%)\n"
            "                     AE(GM)=0.0439 RE(GM)=0.3087 (30.87%)\n"
        )

    def test_out_file(self, tmp_path, ra_file):
        out = tmp_path / "report.txt"
        assert main(["analyze", ra_file, "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert "lambda_max" in out.read_text()

    def test_consistent_matrix_file(self, tmp_path, capsys):
        """A consistent matrix off the scale, written by write_pcm, reads back reciprocal and scores zero."""
        path = tmp_path / "m.csv"
        w = PriorityVector.normalized([0.41, 0.27, 0.19, 0.13]).weights
        write_pcm(Pcm(w[:, None] / w[None, :]), path)
        assert main(["analyze", str(path), "--seed", "1", "--format", "jsonl"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ki"] == pytest.approx(0.0, abs=1e-12)
        assert main(["accept", str(path), "--threshold", "1"]) == EXIT_OK

    def test_weights_over_forty_decades(self, tmp_path, capsys):
        """v = (1e20, 1, 1e-20, 2) with a_01 doubled: SI is that of the same error on v = (1, 1, 1, 1)."""
        v = np.array([1e20, 1.0, 1e-20, 2.0])
        a = v[:, None] / v[None, :]
        a[0, 1], a[1, 0] = 2 * a[0, 1], a[1, 0] / 2
        path = tmp_path / "wide.csv"
        write_pcm(a, path)
        assert main(["analyze", str(path), "--seed", "1", "--format", "jsonl"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        balanced = np.ones((4, 4))
        balanced[0, 1], balanced[1, 0] = 2.0, 0.5
        si = (np.linalg.eigvals(balanced).real.max() - 4) / 3
        assert si == pytest.approx(0.0202157, abs=1e-7)
        assert abs(payload["si"] - si) <= 1e-12

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
        argv = ["simulate", "msobe", "--n", "5", "--total", "5000", "--seed", "8"]  # five one-block chunks
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
        own = FRAMEWORK_OPTIONS[framework][:2]  # --total 40 or --runs 3
        argv = ["simulate", framework, "--n", "4", *own, "--seed", "2", "--out", str(fifo)]
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
        argv = ["simulate", framework, "--n", "4", *FRAMEWORK_OPTIONS[framework][:2], "--seed", "1"]
        assert main(argv + ["--format", fmt, "--out", str(out)]) == EXIT_USAGE
        assert assert_one_line_error(capsys) == f"pcmkit: unrecognized arguments: --format {fmt}\n"
        assert not out.exists()

    @pytest.mark.parametrize("framework", ["mse", "nee"])
    def test_summary_manifest_has_no_format(self, tmp_path, capsys, framework):
        out = tmp_path / "summary.json"
        argv = ["simulate", framework, "--n", "4", *FRAMEWORK_OPTIONS[framework][:2], "--seed", "1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((tmp_path / "summary.json.manifest.json").read_text())
        assert "format" not in manifest["config"]
        assert manifest["rng"] == {"stream": "run-block", "block": 1024} == sim.RUN_RNG
        assert json.loads(out.read_text())["framework"] == framework

    @pytest.mark.parametrize("argv, own", [
        (["mse", "--runs", "7", "--seed", "5", "--ne", "4"], {"runs": 7, "ne": 4}),
        (["nee", "--np", "2", "--nr", "3", "--seed", "5"], {"nr": 3, "np": 2}),
        (["msobe", "--workers", "2", "--seed", "5", "--total", "400", "--big-prob", "0.5"],
         {"total": 400, "big_prob": 0.5, "workers": 2}),
    ])
    def test_manifest_config_is_what_the_framework_read(self, tmp_path, capsys, argv, own):
        """subcommand, n, seed, out, then the framework's own options in declaration order, and nothing else."""
        out = tmp_path / "out"
        assert main(["simulate", *argv, "--out", str(out), "--n", "4"]) == EXIT_OK
        capsys.readouterr()
        config = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
        expected = {"subcommand": f"simulate {argv[0]}", "n": 4, "seed": 5, "out": str(out), **own}
        assert list(config.items()) == list(expected.items())

    @pytest.mark.parametrize("n, total", [(4, 4100), (7, 5000)])
    def test_manifest_rebuilds_the_database(self, tmp_path, capsys, n, total):
        """run_msobe_sf on exactly the manifest's config, at another worker count, writes the same bytes:
        no generation setting lives outside the manifest."""
        out = tmp_path / "db.csv"
        argv = ["simulate", "msobe", "--n", str(n), "--total", str(total), "--big-prob", "0.5", "--seed", "9"]
        assert main(argv + ["--workers", "2", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        config = json.loads((tmp_path / "db.csv.manifest.json").read_text())["config"]
        assert list(inspect.signature(sim.run_msobe_sf).parameters) == ["n", "total_matrices", "big", "seed", "workers"]
        assert [field.name for field in dataclasses.fields(sim.BigErrorModel)] == ["apply_probability"]
        result = sim.run_msobe_sf(config["n"], config["total"], big=sim.BigErrorModel(config["big_prob"]),
                                  seed=config["seed"], workers=config["workers"] - 1)
        write_records_csv(result.records, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()

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

    @pytest.mark.parametrize("argv, expected", [
        ([], "cc9480d0f0c905b4c3b5ba16d8149c81ffd56f13b919d645fbd383719adff11e"),
        (["--format", "csv"], "24d37302b7ff9991dced0c36d556beaeae63315018cfd449e3577312f528eb90"),
        (["--index", "si", "--error", "re_gm", "--classes", "7"],
         "d0892e76327da4d23ba47ce59e8a895aaad80c9ebac7228abfa8095136e994b3"),
        (["--index", "si", "--error", "re_gm", "--classes", "7", "--format", "csv"],
         "ff65641c3ba939384d59681d252fecaf562f9588b453e29759a6e591c62292a3"),
    ])
    def test_report_bytes_are_pinned(self, database, capsys, argv, expected):
        """The class table and the correlation grid, byte for byte, in both formats."""
        assert main(["report", database, *argv]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == expected, out

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

    def test_accept_prints_the_suspect_mean_as_unused(self, tmp_path, capsys):
        """A matrix of ones (ATI 0) lands in the first class of the n=7 GM table, whose printed mean is suspect."""
        path = tmp_path / "ones7.csv"
        write_pcm(Pcm(np.ones((7, 7))), path)
        assert main(["accept", str(path), "--method", "gm", "--threshold", "0.2"]) == EXIT_OK
        assert capsys.readouterr() == (
            "ATI = 0.0000 -> class 1 of the GM table\n"
            "estimated RE quantiles: q10=0.0424 median=0.0723 q90=0.1225 mean=suspect, unused\n"
            "verdict: ACCEPT (q90 vs threshold 0.2)\n", "")


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


class TestDispatch:
    """main() parses a known subcommand with that subcommand's own parser; the full parser gives
    the same exit code, output and files for every argv, and still answers the rest."""

    ARGVS = (
        ["analyze", "{pcm}", "--seed", "1"],
        ["analyze", "--seed=1", "--format=jsonl", "--true-pv", "0.4,0.3,0.2,0.1", "{pcm}"],
        ["analyze", "{pcm}", "--seed", "1", "--out", "{out}"],
        ["simulate", "mse", "--n", "4", "--runs", "3", "--ne", "3", "--seed", "2", "--out", "{out}"],
        ["simulate", "nee", "--n=4", "--nr=2", "--np=2", "--seed=2", "--out", "{out}"],
        ["simulate", "--n=4", "--nr=2", "--np=2", "--seed=2", "--out", "{out}", "nee"],  # options before the framework
        ["simulate", "msobe", "--n", "4", "--total", "8", "--seed", "3", "--out", "{out}"],
        ["report", "{db}"],
        ["report", "--format=csv", "--classes", "5", "{db}"],
        ["accept", "{pcm}", "--threshold", "0.05"],
        ["accept", "--method=gm", "--quantile", "median", "--threshold=0.5", "{pcm}"],
        ["accept", "--threshold", "1", "--", "{pcm}"],
        ["accept", "{pcm}", "--threshold", "1", "--bogus"],  # unknown option
        ["accept", "{pcm}", "extra", "--threshold", "1"],  # extra positional
        ["accept", "{pcm}"],  # missing required option
        ["accept", "{pcm}", "--threshold"],  # option without its value
        ["simulate", "mse", "--out", "{out}"],
        ["simulate", "mse", "--n", "four", "--out", "{out}"],  # bad type
        ["report", "{db}", "--index", "xx"],  # bad choice
        ["simulate", "bogus", "--n", "4", "--out", "{out}"],
        ["simulate", "mse", "--n", "4", "--total", "8", "--out", "{out}"],  # another framework's option
        ["simulate", "mse", "--n", "4", "--runs", "0", "--out", "{out}"],
        ["simulate"],
        ["accept", "{pcm}", "--threshold", "-1"],  # negative threshold
        ["accept", "{pcm}", "--threshold=-0.5"],
        ["bogus", "{pcm}"],  # unknown command
        ["--bogus", "accept"],
        [],
        ["-h"],
        ["--help"],
        ["accept", "-h"],
        ["simulate", "mse", "--help"],
        ["simulate", "-h"],
        ["simulate", "msobe", "-h"],
    )

    def run(self, argv, parser, out, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    def test_subcommand_parser_matches_the_full_parser(self, database, rb_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        fast = cli._build_parser.__wrapped__()
        full = cli._build_parser.__wrapped__()
        full.commands = {}  # every argv through the full parser
        top_level = []
        parse_args = fast.parse_args
        fast.parse_args = lambda argv: top_level.append(argv) or parse_args(argv)
        for template in self.ARGVS:
            argv = [a.format(pcm=rb_file, db=database, out=out) for a in template]
            del top_level[:]
            result = self.run(argv, fast, out, monkeypatch, capsys)
            assert result == self.run(argv, full, out, monkeypatch, capsys), argv
            assert bool(top_level) == (not argv or argv[0] not in fast.commands), argv
            code, stdout, stderr, _ = result
            if argv and argv[-1] in ("-h", "--help"):
                assert code == ("exit", 0) and stdout.startswith("usage: pcmkit") and stderr == "", argv
            elif code == EXIT_USAGE:
                assert stderr.startswith("pcmkit: ") and stderr.count("\n") == 1, argv

    def test_readme_commands_parse(self):
        """Every `pcmkit ...` line of README's shell blocks parses with the CLI's parser (nothing runs)."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = readme.split("```sh\n")[1:]
        lines = [line for block in blocks for line in block.split("```")[0].splitlines() if line.startswith("pcmkit ")]
        assert len(lines) >= 7
        for line in lines:
            args = cli._build_parser().parse_args(line.split()[1:])
            assert args.command == line.split()[1], line

    def test_main_without_argv_reads_sys_argv(self, rb_file, capsys, monkeypatch):
        expected = main(["accept", rb_file, "--threshold", "0.05"]), capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["pcmkit", "accept", rb_file, "--threshold", "0.05"])
        assert (main(), capsys.readouterr()) == expected
        assert expected[0] == EXIT_REJECT and "verdict: REJECT" in expected[1].out


# Arbitrary argv from a bounded vocabulary: every subcommand and option, a few values of each kind,
# and file paths that exist, are missing, hold garbage or are not files. Each argv starts from a
# subcommand's required arguments, its input file either a valid one or any of those paths ("{in}"),
# then adds options: mostly the subcommand's own, sometimes any.
# Size options take small values only, and a framework's own size options always come first, so
# that no example runs a framework at its default sizes.
_SIZES = ["-1", "0", "2", "4", "8", "x", "nan", ""]
_NUMBERS = ["-1", "0", "0.5", "2", "4", "x", "nan", "inf", str(2**63), str(2**63 - 1)]
_OUT_PATHS = ["{out}", "{dir}", "{nodir}", "{pcm}.out"]
_IN_PATHS = ["{pcm}", "{db}", "{missing}", "{garbage}", "{dir}"]
_OPTION_VALUES = {
    **dict.fromkeys(["--n", "--runs", "--ne", "--nr", "--np", "--total", "--workers", "--classes"], _SIZES),
    **dict.fromkeys(["--seed", "--threshold", "--big-prob"], _NUMBERS),
    "--true-pv": ["0.4,0.3,0.2,0.1", "1,1,1", "0.4,x,0.2,0.1", "nan,1,1,1", "0,0,0,0", f"{2**63},1,1,1", ""],
    "--format": ["table", "jsonl", "csv", "x"],
    "--index": ["ati", "si", "gi", "ki", "x"],
    "--error": ["ae_rev", "re_gm", "x"],
    "--method": ["rev", "gm", "x"],
    "--quantile": ["q10", "median", "q90", "mean", "x"],
    **dict.fromkeys(["--out", "--manifest"], _OUT_PATHS),
    "--table": _IN_PATHS,
}
_SIMULATE = ["--n", "--seed", "--out", "--manifest"]
# (required arguments, the subcommand's own options)
_HEADS = [
    *[(["analyze", path], ["--true-pv", "--seed", "--format", "--out"]) for path in ("{pcm}", "{in}")],
    *[(["report", path, "--classes", "3"], ["--index", "--error", "--classes", "--format", "--out"])
      for path in ("{db}", "{in}")],
    *[(["accept", path, "--threshold", "0.1"], ["--method", "--threshold", "--quantile", "--table"])
      for path in ("{pcm}", "{in}")],
    (["simulate", "mse", "--runs", "2", "--ne", "2", "--n", "4", "--out", "{out}"], _SIMULATE + ["--runs", "--ne"]),
    (["simulate", "nee", "--nr", "2", "--np", "2", "--n", "4", "--out", "{out}"], _SIMULATE + ["--nr", "--np"]),
    (["simulate", "msobe", "--total", "8", "--n", "4", "--out", "{out}"],
     _SIMULATE + ["--total", "--big-prob", "--workers"]),
    (["simulate"], []),
    (["bogus"], []),
    ([], []),
]


def _option_with_value(options):
    return st.sampled_from(sorted(options)).flatmap(
        lambda option: st.sampled_from(_OPTION_VALUES[option]).map(lambda value: [option, value]))


def _argv_from(head, own):
    items = [
        _option_with_value(_OPTION_VALUES),
        st.sampled_from(sorted(_OPTION_VALUES)).map(lambda option: [option]),  # an option without its value
        st.sampled_from(["mse", "nee", "msobe", "analyze", "--", *_IN_PATHS]).map(lambda word: [word]),
    ]
    if own:
        items = [_option_with_value(own)] * 6 + items
    return st.tuples(st.sampled_from(_IN_PATHS), st.lists(st.one_of(items), max_size=4)).map(
        lambda drawn: [t.replace("{in}", drawn[0]) for t in head] + [t for item in drawn[1] for t in item])


_ARGVS = st.sampled_from(_HEADS).flatmap(lambda head: _argv_from(*head))


@given(argv=_ARGVS)
@settings(max_examples=300, deadline=None)
def test_arbitrary_argv_ends_in_a_documented_exit_code(tmp_path_factory, argv):
    """main never raises; it returns 0-3, and exit 1 or 2 comes with exactly one `pcmkit:` line on stderr."""
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        work = Path(work)
        paths = {"pcm": work / "pcm.csv", "db": work / "db.csv", "missing": work / "missing.csv",
                 "garbage": work / "garbage.csv", "dir": work, "out": work / "out", "nodir": work / "no" / "out"}
        write_pcm(Pcm(RB), paths["pcm"])
        write_database(paths["db"], np.linspace(0.1, 1.0, 30))
        paths["garbage"].write_bytes(b"\xff\x00not,a\npcm\n")
        argv = [token.format(**paths) for token in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)  # a drawn bare `--out nee` writes its file and manifest here, not where pytest runs
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_REJECT), argv
    err = stderr.getvalue()
    if code in (EXIT_USAGE, EXIT_DATA):
        assert err.startswith("pcmkit: ") and err.count("\n") == 1 and "Traceback" not in err, (argv, err)
    elif code == EXIT_REJECT:
        assert err == "" and "verdict: REJECT" in stdout.getvalue(), argv


# Garbled input files: a valid PCM, quantile table (ten or nine columns) or database, then edits to its
# cells, characters and bytes. Each edit's place is drawn as an integer and taken modulo the length it
# indexes, so every edit applies to whatever the earlier ones left.
_TOKENS = ["", "x", "inf", "-inf", "nan", "1/0", "0/0", "-1", "0", "1e999", "9/2", " 3 ", "\x00", "1\r", "\t2"]
_CHARS = ["\r", "\t", "\x00", "\n", ",", " ", "/", "#", '"']
_BYTES = [b"\xff", b"\xc3", b"\x80", b"\xef\xbb\xbf", b"\xed\xa0\x80"]
_EDITS = st.one_of(
    st.tuples(st.just("delete cell"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("replace cell"), st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(_TOKENS)),
    st.tuples(st.just("extra comma"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("delete line"), st.integers(0, 10**6)),
    st.tuples(st.just("repeat line"), st.integers(0, 10**6)),
    st.tuples(st.just("insert char"), st.integers(0, 10**6), st.sampled_from(_CHARS)),
    st.tuples(st.just("insert bytes"), st.integers(0, 10**6), st.sampled_from(_BYTES)),
)


def _garble(data: bytes, edits) -> bytes:
    for edit in edits:
        kind, at = edit[0], edit[1]
        if kind == "insert bytes":
            at %= len(data) + 1
            data = data[:at] + edit[2] + data[at:]
            continue
        text = data.decode("utf-8", "surrogateescape")
        if kind == "insert char":
            at %= len(text) + 1
            text = text[:at] + edit[2] + text[at:]
        else:
            lines = text.split("\n")
            row = at % len(lines)
            if kind == "delete line":
                del lines[row]
            elif kind == "repeat line":
                lines.insert(row, lines[row])
            else:
                cells = lines[row].split(",")
                col = edit[2] % (len(cells) + (kind == "extra comma"))
                if kind == "delete cell":
                    del cells[col]
                elif kind == "replace cell":
                    cells[col] = edit[3]
                else:
                    cells.insert(col, "")
                lines[row] = ",".join(cells)
            text = "\n".join(lines)
        data = text.encode("utf-8", "surrogateescape")
    return data


# (command, the kind of valid file it reads)
_INPUTS = [("analyze", "pcm"), ("analyze", "pcm3"), ("accept", "pcm"), ("accept", "pcm3"),
           ("accept --table", "table"), ("accept --table", "table9"), ("report", "db")]


@given(command_and_base=st.sampled_from(_INPUTS), edits=st.lists(_EDITS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_arbitrary_file_contents_end_in_a_documented_exit_code(tmp_path_factory, command_and_base, edits):
    """main never raises on a garbled input file; it returns 0-3, and exit 1 or 2 comes with exactly
    one `pcmkit:` line on stderr."""
    command, base = command_and_base
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        work = Path(work)
        files = {name: work / f"{name}.csv" for name in ("pcm", "pcm3", "table", "table9", "db")}
        write_pcm(Pcm(RB), files["pcm"])
        w = PriorityVector.normalized([0.5, 0.3, 0.2]).weights
        write_pcm(Pcm(w[:, None] / w[None, :]), files["pcm3"])
        write_table(builtin_table(4, "REV"), files["table"])
        files["table9"].write_text("".join(line.rpartition(",")[0] + "\n"
                                           for line in files["table"].read_text().splitlines()))
        write_database(files["db"], np.linspace(0.1, 1.0, 30))
        path = work / "input.csv"
        path.write_bytes(_garble(files[base].read_bytes(), edits))
        argv = {
            "analyze": ["analyze", str(path), "--seed", "1"],
            "accept": ["accept", str(path), "--threshold", "0.1"],
            "accept --table": ["accept", str(files["pcm"]), "--threshold", "0.1", "--table", str(path)],
            "report": ["report", str(path), "--classes", "3"],
        }[command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    event(f"{command}: exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_REJECT), (argv, edits)
    err = stderr.getvalue()
    if code in (EXIT_USAGE, EXIT_DATA):
        assert err.startswith("pcmkit: ") and err.count("\n") == 1 and "Traceback" not in err, (edits, err)
    elif code == EXIT_REJECT:
        assert err == "" and "verdict: REJECT" in stdout.getvalue(), edits
