"""Quantile-table acceptance engine: builtin data, class lookup, verdicts, IO."""

import math
import re

import numpy as np
import pytest

from pcmkit import acceptance
from pcmkit.acceptance import (
    BUILTIN_DATA_SHA256,
    QUANTILE_CHOICES,
    AcceptanceVerdict,
    QuantileRow,
    QuantileTable,
    UnsupportedOrderError,
    assess_pcm,
    builtin_table,
    read_table,
    table_from_records,
    write_table,
)
from pcmkit.core import Pcm, PriorityVector, round_pcm
from pcmkit.indices import compute_report
from pcmkit.simulate import BIG_ERROR_RANGE, default_error_models, run_msobe_sf
from pcmkit.stats import assign_classes

from conftest import BAD_TABLES


class TestBuiltinTables:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("method", ["REV", "GM"])
    def test_available_orders(self, n, method):
        table = builtin_table(n, method)
        assert table.n == n and table.method == method and table.loss == "RE"
        assert len(table.rows) == 15

    def test_row_invariants(self):
        for n in (4, 5, 6, 7):
            for method in ("REV", "GM"):
                rows = builtin_table(n, method).rows
                assert rows[0].class_lo == 0.0
                assert math.isinf(rows[-1].class_hi)
                for prev, cur in zip(rows, rows[1:]):
                    assert cur.class_lo == prev.class_hi
                    assert cur.mean_ati > prev.mean_ati
                for r in rows:
                    assert r.q10 <= r.median <= r.q90

    def test_frozen_first_and_last_row_n4_rev(self):
        rows = builtin_table(4, "REV").rows
        first, last = rows[0], rows[-1]
        assert (first.class_lo, first.class_hi) == (0.0, 0.173)
        assert first.mean_ati == pytest.approx(0.1111)
        assert (first.q10, first.median, first.q90) == (0.0322, 0.0714, 0.1765)
        assert first.mean_err == pytest.approx(0.1248)
        assert last.class_lo == 0.611
        assert (last.q10, last.median, last.q90) == (0.1496, 0.5685, 4.9532)
        assert last.mean_err == pytest.approx(2.6707)

    def test_interior_class_widths_equal(self):
        for n in (4, 5, 6, 7):
            rows = builtin_table(n, "REV").rows
            widths = [r.class_hi - r.class_lo for r in rows[1:-1]]
            assert widths == pytest.approx([widths[0]] * len(widths), abs=2e-3)

    def test_suspect_mean_is_flagged_and_excluded(self):
        rows = builtin_table(7, "GM").rows
        assert rows[0].suspect_mean  # printed mean exceeds the row's own q90
        assert rows[0].mean_err > rows[0].q90
        assert not any(r.suspect_mean for r in rows[1:])
        for n in (4, 5, 6):
            assert not any(r.suspect_mean for r in builtin_table(n, "GM").rows)
        assert not any(
            r.suspect_mean for nn in (4, 5, 6, 7) for r in builtin_table(nn, "REV").rows
        )

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            builtin_table(3, "REV")
        with pytest.raises(UnsupportedOrderError):
            builtin_table(8, "GM")
        with pytest.raises(ValueError):
            builtin_table(4, "rev")

    def test_checksum_constant_matches_shipped_data(self):
        import hashlib
        from importlib import resources

        data = resources.files("pcmkit.data").joinpath("appendix_tables.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == BUILTIN_DATA_SHA256

    def test_corrupted_data_is_refused(self, monkeypatch):
        """Data whose digest is not the pinned one raises, naming the digest it has; the cache keeps no failure."""
        acceptance._load_builtin.cache_clear()
        monkeypatch.setattr(acceptance, "BUILTIN_DATA_SHA256", "0" * 64)
        try:
            with pytest.raises(RuntimeError, match=re.escape(f"builtin table data corrupted (sha256 {BUILTIN_DATA_SHA256})")):
                acceptance._load_builtin()
        finally:
            acceptance._load_builtin.cache_clear()


def loop_locate_class(table, ati):
    """The row loop that the partition's class rule replaced."""
    if ati < 0:
        raise ValueError("ati must be nonnegative")
    for row in table.rows[:-1]:
        if row.class_lo <= ati < row.class_hi:
            return row.class_index
    return table.rows[-1].class_index


class TestLocateClass:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("method", ["REV", "GM"])
    def test_matches_the_row_loop_at_every_bound(self, n, method):
        table = builtin_table(n, method)
        assert table.partition.boundaries == tuple(r.class_lo for r in table.rows) + (math.inf,)
        atis = [float(ati) for bound in table.partition.boundaries
                for ati in (np.nextafter(bound, -math.inf), bound, np.nextafter(bound, math.inf)) if ati >= 0]
        assert assign_classes(table.partition, atis).tolist() == [loop_locate_class(table, ati) for ati in atis]

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("method", ["REV", "GM"])
    def test_assess_pcm_matches_the_row_loop_at_every_bound(self, n, method, monkeypatch):
        """assess_pcm's class and statistics at each finite bound and its neighbouring floats, the
        PCM's ATI set to that value, are the row loop's."""
        table = builtin_table(n, method)
        for bound in table.partition.boundaries[:-1]:
            for ati in (np.nextafter(bound, -math.inf), bound, np.nextafter(bound, math.inf)):
                if ati >= 0:
                    monkeypatch.setattr(acceptance, "batch_ki_ati", lambda a, ati=ati: (ati, ati))
                    verdict = assess_pcm(Pcm(np.ones((n, n))), method, threshold=0.2, table=table)
                    k = loop_locate_class(table, float(ati))
                    assert (verdict.ati, verdict.row.class_index) == (float(ati), k), (bound, ati)
                    assert type(verdict.row.class_index) is int
                    assert verdict.row.q90 == table.rows[k - 1].q90

    def test_boundaries_are_half_open(self):
        table = builtin_table(4, "REV")
        atis = [0.0, 0.172999, 0.173, 0.611, 5.0]
        assert assign_classes(table.partition, atis).tolist() == [1, 1, 2, 15, 15]


class TestTableValidation:
    def _row(self, idx, lo, hi, **kw):
        base = dict(mean_ati=(lo + min(hi, lo + 0.05)) / 2, q10=0.01, median=0.02, q90=0.03, mean_err=0.02)
        base.update(kw)
        return QuantileRow(idx, lo, hi, **base)

    def test_rejects_bad_first_class(self):
        with pytest.raises(ValueError):
            QuantileTable(4, "REV", "RE", (self._row(1, 0.1, float("inf")),))

    def test_rejects_unordered_quantiles(self):
        rows = (
            self._row(1, 0.0, 0.2),
            self._row(2, 0.2, float("inf"), mean_ati=0.5, q10=0.05, median=0.04, q90=0.06),
        )
        with pytest.raises(ValueError):
            QuantileTable(4, "REV", "RE", rows)
        for stats in (dict(q10=-0.01), dict(q90=math.inf), dict(median=math.nan), dict(mean_err=math.nan),
                      dict(mean_err=-0.1)):
            with pytest.raises(ValueError, match="row 2: "):
                QuantileTable(4, "REV", "RE", (rows[0], self._row(2, 0.2, math.inf, **stats)))

    def test_rejects_an_empty_table(self):
        with pytest.raises(ValueError, match="need at least 2 boundaries, not 0"):
            QuantileTable(4, "REV", "RE", ())

    def test_rejects_bounded_last_class(self):
        with pytest.raises(ValueError):
            QuantileTable(4, "REV", "RE", (self._row(1, 0.0, 0.5),))

    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            QuantileTable(4, "avg", "RE", (self._row(1, 0.0, float("inf")),))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((1, 0.0, 0.2), (2, 0.3, math.inf)), "row 1: ends at 0.2, row 2 begins at 0.3"),  # gap
            (((1, 0.0, 0.3), (2, 0.2, math.inf)), "row 1: ends at 0.3, row 2 begins at 0.2"),  # overlap
            (((1, 0.0, math.inf), (2, 0.5, math.inf)), "row 1: ends at inf, row 2 begins at 0.5"),  # two unbounded classes
            (((1, 0.0, 0.2), (3, 0.2, math.inf)), "row 2: class_index is 3, not 2"),
            (((2, 0.0, 0.2), (1, 0.2, math.inf)), "row 1: class_index is 2, not 1"),
            (((1, 0.0, 0.5), (2, 0.5, 0.4), (3, 0.4, math.inf)), "increase strictly from 0 to inf"),
        ],
    )
    def test_rejects_classes_that_do_not_tile_zero_to_inf(self, rows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QuantileTable(4, "REV", "RE", tuple(self._row(*r) for r in rows))

    def test_partition_is_derived_not_compared(self):
        rows = (self._row(1, 0.0, 0.2), self._row(2, 0.2, math.inf))
        table = QuantileTable(4, "REV", "RE", rows)
        assert table.partition.boundaries == (0.0, 0.2, math.inf)
        assert table == QuantileTable(4, "REV", "RE", list(rows))
        assert "partition" not in repr(table)
        with pytest.raises(TypeError):
            QuantileTable(4, "REV", "RE", rows, table.partition)


class TestAssessPcm:
    def test_consistent_matrix_lands_in_class_one(self, rmpr_v2):
        verdict = assess_pcm(rmpr_v2, "REV", threshold=0.2)
        assert isinstance(verdict, AcceptanceVerdict)
        assert verdict.ati == 0.0
        assert verdict.row.class_index == 1
        assert verdict.accepted  # q90 of class 1 is 0.1765 <= 0.2

    def test_threshold_flips_verdict(self, rmpr_v2):
        assert not assess_pcm(rmpr_v2, "REV", threshold=0.1).accepted
        assert assess_pcm(rmpr_v2, "REV", threshold=0.1, quantile_choice="median").accepted

    def test_reports_class_statistics(self, rb):
        table = builtin_table(4, "REV")
        verdict = assess_pcm(rb, "REV", threshold=0.5)
        ati = compute_report(rb).ati
        row = table.rows[assign_classes(table.partition, [ati])[0] - 1]
        assert verdict.ati == ati
        assert (verdict.row.q10, verdict.row.median, verdict.row.q90) == (row.q10, row.median, row.q90)
        assert verdict.row.mean_err == row.mean_err and not verdict.row.suspect_mean

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("method", ["REV", "GM"])
    def test_ati_and_class_are_analyzes(self, n, method):
        """accept and analyze read one ATI: for a PCM disturbed as MSOBE-SF disturbs one (small errors
        from one of the four models, one big error, scale rounding), assess_pcm's ATI is bit for bit
        compute_report's, and its class is the row loop's."""
        rng = np.random.default_rng(n)
        w = PriorityVector.normalized(rng.uniform(0.1, 1.0, size=n)).weights
        a = np.array(Pcm(w[:, None] / w[None, :]).entries)
        iu, ju = np.triu_indices(n, k=1)
        factors = default_error_models()[n % 4].draw(rng, iu.size)
        factors[rng.integers(iu.size)] = rng.uniform(*BIG_ERROR_RANGE)
        a[iu, ju] *= factors
        pcm = round_pcm(a)
        verdict = assess_pcm(pcm, method, threshold=0.2)
        ati = compute_report(pcm).ati
        assert verdict.ati == ati > 0
        assert verdict.row.class_index == loop_locate_class(builtin_table(n, method), ati)
        assert verdict.table is builtin_table(n, method)
        assert verdict.row is verdict.table.rows[verdict.row.class_index - 1]

    def test_suspect_mean_is_flagged_and_unused(self):
        """A consistent 7x7 matrix falls into the first GM class, whose printed mean is flagged suspect;
        the verdict follows the chosen quantile alone, at its value and the float below it."""
        first = builtin_table(7, "GM").rows[0]
        for choice in QUANTILE_CHOICES:
            value = getattr(first, choice)
            for threshold in (value, float(np.nextafter(value, 0.0))):
                verdict = assess_pcm(Pcm(np.ones((7, 7))), "GM", threshold, quantile_choice=choice)
                assert verdict.row is first and verdict.row.suspect_mean
                assert verdict.accepted == (threshold == value), (choice, threshold)

    def test_quantile_choice_validation(self, rb):
        assert QUANTILE_CHOICES == ("q10", "median", "q90")
        with pytest.raises(ValueError):
            assess_pcm(rb, "REV", threshold=0.5, quantile_choice="q95")

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_threshold_must_be_finite_and_nonnegative(self, rb, threshold):
        with pytest.raises(ValueError):
            assess_pcm(rb, "REV", threshold=threshold)

    def test_order_mismatch_with_explicit_table(self, rb):
        with pytest.raises(ValueError):
            assess_pcm(rb, "REV", threshold=0.5, table=builtin_table(5, "REV"))

    def test_unsupported_order_without_table(self):
        m = Pcm(np.ones((8, 8)))
        with pytest.raises(UnsupportedOrderError):
            assess_pcm(m, "REV", threshold=0.5)


@pytest.fixture(scope="module")
def records():
    return run_msobe_sf(4, 4000, seed=23).records


class TestCustomTables:
    def test_table_from_records(self, records):
        table = table_from_records(records, 4, "REV", loss="RE")
        assert table.n == 4 and table.loss == "RE" and len(table.rows) == 15
        errs = [r.mean_err for r in table.rows]
        assert errs[0] < errs[-1]  # error grows with the ATI class overall

    def test_table_round_trip(self, tmp_path, records):
        table = table_from_records(records, 4, "GM", loss="AE")
        path = tmp_path / "table.csv"
        write_table(table, path)
        back = read_table(path)
        assert back == table  # n, method, loss and every bound and statistic, exactly

    def test_written_table_classifies_records_as_built(self, tmp_path):
        """A table read back from its file puts every record of its database in the class it was built with.

        With eight significant digits, 201 of these 240,000 ATI values fell in another class.
        """
        records = run_msobe_sf(4, 240_000, seed=1, workers=2).records
        table = table_from_records(records, 4, "REV")
        write_table(table, tmp_path / "table.csv")
        back = read_table(tmp_path / "table.csv")
        ati = np.asarray(records["ati"])
        moved = assign_classes(back.partition, ati) != assign_classes(table.partition, ati)
        assert int(moved.sum()) == 0

    def test_nine_column_table_reads_as_re(self, tmp_path, records):
        """A file in the builtin's nine columns holds RE; rows of two losses are two tables."""
        path = tmp_path / "table.csv"
        write_table(table_from_records(records, 4, "REV", loss="AE"), path)
        lines = path.read_text().splitlines()
        path.write_text("".join(line.rpartition(",")[0] + "\n" for line in lines))
        assert read_table(path).loss == "RE"
        path.write_text("".join(line.replace(",AE", ",RE") + "\n" if k > 1 else line + "\n"
                                for k, line in enumerate(lines)))
        with pytest.raises(ValueError, match=r"rows of more than one \(n, method, loss\) table"):
            read_table(path)

    def test_read_table_rejects_garbage(self, tmp_path):
        header = "n,method,class_lo,class_hi,mean_ati,q10,median,q90,mean_err\n"
        row = "{},REV,0,inf,0.5,0.1,0.2,0.3,0.2\n"
        path = tmp_path / "bad.csv"
        short_row = "4,REV,0,inf,0.5,0.1,0.2,0.3\n"
        two_tables = row.format(4) + row.format(5)
        for text in ("nope\n1,2,3\n", header, header + short_row, header + two_tables):
            path.write_text(text)
            with pytest.raises(ValueError):
                read_table(path)
        # each a two-class table with a fault in the named row
        for rows, at in BAD_TABLES:
            path.write_text(header + "".join(r + "\n" for r in rows))
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row {at}: "):
                read_table(path)

    def test_table_refuses_records_of_another_order(self, records):
        with pytest.raises(ValueError, match=r"records of order \[4\] cannot make a table for n=8"):
            table_from_records(records, 8, "REV")

    @pytest.mark.parametrize("method,loss", [("avg", "RE"), ("REV", "XE"), ("rev", "RE")])
    def test_table_refuses_unknown_method_or_loss_before_binning(self, records, monkeypatch, method, loss):
        monkeypatch.setattr(acceptance, "summarize_classes", lambda *args: pytest.fail("binned before checking"))
        with pytest.raises(ValueError, match="method must be 'REV' or 'GM' and loss 'AE' or 'RE'"):
            table_from_records(records, 4, method, loss=loss)

    def test_read_table_refuses_unknown_loss(self, tmp_path, records):
        path = tmp_path / "table.csv"
        write_table(table_from_records(records, 4, "REV", loss="AE"), path)
        path.write_text(path.read_text().replace(",AE\n", ",XE\n"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: method must be 'REV' or 'GM' and loss 'AE' "
                                             "or 'RE', not 'REV' and 'XE'"):
            read_table(path)

    def test_assess_with_custom_table(self, records, rb):
        table = table_from_records(records, 4, "REV", loss="AE")
        verdict = assess_pcm(rb, "REV", threshold=1.0, table=table)
        assert verdict.accepted
        assert verdict.table is table
