"""Core types, scale rounding and PCM file round-trips."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmkit.core import (
    SAATY_SCALE,
    Pcm,
    PcmFormatError,
    PriorityVector,
    _upper_indices,
    is_consistent,
    is_reciprocal,
    read_pcm,
    round_pcm,
    round_matrix_to_scale,
    write_pcm,
)

from conftest import MPR_V1, RMPR_V1, random_reciprocal_pcm


class TestPriorityVector:
    def test_valid_vector(self):
        pv = PriorityVector((0.5, 0.3, 0.2))
        assert pv.n == 3
        assert pv.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_are_frozen(self):
        pv = PriorityVector((0.5, 0.3, 0.2))
        with pytest.raises(ValueError):
            pv.weights[0] = 0.9

    def test_normalized_constructor(self):
        pv = PriorityVector.normalized((2.0, 1.0, 1.0))
        assert pv.weights == pytest.approx([0.5, 0.25, 0.25])

    @pytest.mark.parametrize(
        "bad",
        [
            (0.5, 0.5),  # too short
            (0.5, 0.3, 0.3),  # does not sum to 1
            (0.5, 0.5, 0.0),  # non-positive component
            (0.5, 0.6, -0.1),
            (0.5, 0.5, float("nan")),
        ],
    )
    def test_invalid_vectors(self, bad):
        with pytest.raises(ValueError):
            PriorityVector(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((0.5, float("nan")), "priority vector needs at least 3 components"),
            ([[0.5, 0.3, 0.2]], "priority vector needs at least 3 components"),
            ((0.5, 0.5, float("nan")), "priority weights must be finite and strictly positive"),
            ((0.5, 0.5, float("inf")), "priority weights must be finite and strictly positive"),
            ((0.5, 0.5, 0.0), "priority weights must be finite and strictly positive"),
            ((0.5, 0.6, -0.1), "priority weights must be finite and strictly positive"),
            ((0.5, 0.3, 0.3), "priority weights must sum to 1, got np.float64(1.1)"),
        ],
    )
    def test_messages_keep_their_precedence(self, bad, message):
        """Each failed check has its own message, and the first check in this order that fails names it."""
        with pytest.raises(ValueError) as info:
            PriorityVector(bad)
        assert str(info.value) == message


class TestPcm:
    def test_valid_pcm(self, mpr_v1):
        assert mpr_v1.n == 4

    def test_entries_are_frozen(self, mpr_v1):
        with pytest.raises(ValueError):
            mpr_v1.entries[0, 1] = 9.0

    @pytest.mark.parametrize(
        "bad",
        [
            [[1, 2], [0.5, 1]],  # order below 3
            [[1, 2, 3], [0.5, 1, 2]],  # not square
            [[1, 2, 3], [0.5, 2, 2], [1 / 3, 0.5, 1]],  # diagonal not 1
            [[1, 2, -3], [0.5, 1, 2], [-1 / 3, 0.5, 1]],  # non-positive entry
        ],
    )
    def test_invalid_pcm(self, bad):
        with pytest.raises(ValueError):
            Pcm(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[1, float("nan"), 3], [0.5, 1, 2]], "PCM must be a square matrix"),
            ([1, 2, 3], "PCM must be a square matrix"),
            ([[1, float("nan")], [0.5, 0]], "PCM order must be at least 3"),
            ([[1, 2, float("nan")], [0.5, 7, 2], [1, 0.5, 1]], "PCM entries must be finite and strictly positive"),
            ([[1, 2, 3], [0.5, 7, 2], [1 / 3, float("inf"), 1]], "PCM entries must be finite and strictly positive"),
            ([[1, 2, 3], [0.5, 7, 2], [1 / 3, 0, 1]], "PCM entries must be finite and strictly positive"),
            ([[1, 2, 3], [0.5, 7, 2], [-1 / 3, 0.5, 1]], "PCM entries must be finite and strictly positive"),
            ([[float("nan"), 2, 3], [0.5, 1, 2], [1 / 3, 0.5, 1]], "PCM entries must be finite and strictly positive"),
            ([[1, 2, 3], [0.5, 1, 2], [1 / 3, 0.5, 1 + 1e-11]], "PCM diagonal entries must equal 1"),
            ([[1, 2, 3], [0.5, 0.5, 2], [1 / 3, 0.5, 1]], "PCM diagonal entries must equal 1"),
        ],
    )
    def test_messages_keep_their_precedence(self, bad, message):
        """Each failed check has its own message, and the first check in this order that fails names it."""
        with pytest.raises(ValueError) as info:
            Pcm(bad)
        assert str(info.value) == message

    def test_reciprocity_predicate(self, mpr_v1, ra):
        assert is_reciprocal(mpr_v1)
        assert is_reciprocal(ra)
        tweaked = np.array(mpr_v1.entries)
        tweaked[0, 1] = 1.85
        assert not is_reciprocal(tweaked)
        with pytest.raises(ValueError, match="not reciprocal"):
            Pcm(tweaked)

    def test_non_reciprocal_matrix_is_no_pcm(self, ra):
        """RA with a21 = 3 says alternative 1 beats 2 by 3 and 2 beats 1 by 3; the largest deviation is named."""
        a = np.array(ra.entries)
        a[1, 0] = 3.0
        with pytest.raises(ValueError) as info:
            Pcm(a)
        assert str(info.value) == "PCM is not reciprocal: a[1,2]=3 vs a[2,1]=3"
        a[1, 0], a[3, 2] = 0.35, 2.0  # a[3,4] * a[4,3] = 8 now deviates most
        with pytest.raises(ValueError, match=r"^PCM is not reciprocal: a\[3,4\]=4 vs a\[4,3\]=2$"):
            Pcm(a)

    def test_reciprocity_tolerance_is_1e9(self, ra):
        a = np.array(ra.entries)
        for dev, ok in ((9e-10, True), (2e-9, False)):
            a[1, 0] = (1 + dev) / 3
            assert is_reciprocal(a) == ok
            if ok:
                assert Pcm(a).entries[1, 0] == a[1, 0]
            else:
                with pytest.raises(ValueError, match="not reciprocal"):
                    Pcm(a)

    def test_consistency_predicate(self, mpr_v1, ra, rmpr_v2):
        assert is_consistent(mpr_v1)
        assert is_consistent(rmpr_v2)
        assert not is_consistent(ra)

    def test_consistency_of_entries_past_the_float_range_is_false_without_a_warning(self):
        """a_12 * a_23 = 1e400 overflows: the triple product reads inf, and numpy warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_consistent(Pcm([[1, 1e200, 1e300], [1e-200, 1, 1e200], [1e-300, 1e-200, 1]]))

    def test_perfect_ratio_matrix(self, v1, mpr_v1):
        m = Pcm(v1.weights[:, None] / v1.weights[None, :])
        assert m.entries == pytest.approx(mpr_v1.entries, abs=1e-12)
        assert is_consistent(m)


class TestScaleRounding:
    def test_default_scale_contents(self):
        expected = sorted([1 / k for k in range(2, 10)] + [float(k) for k in range(1, 10)])
        assert list(SAATY_SCALE) == pytest.approx(expected)
        assert len(SAATY_SCALE) == 17
        with pytest.raises(ValueError):
            SAATY_SCALE[0] = 2.0  # read-only
        assert np.all(np.diff(SAATY_SCALE) > 0)
        # every value's reciprocal is on the scale too
        assert np.abs(1.0 / SAATY_SCALE[:, None] - SAATY_SCALE).min(axis=1).max() < 1e-12

    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.84, 2.0),
            (2.421, 2.0),
            (4.6, 5.0),
            (1.316, 1.0),
            (1.9, 2.0),
            (0.217, 1 / 5),
            (12.0, 9.0),  # clamps above the scale
            (0.05, 1 / 9),  # clamps below the scale
            (2.5, 3.0),  # midpoint ties go to the larger value
            (1.5, 2.0),
            (0.75, 1.0),  # midpoint of 1/2 and 1
        ],
    )
    def test_round_to_scale(self, x, expected):
        assert round_matrix_to_scale(x) == pytest.approx(expected, abs=1e-12)

    def test_round_to_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_matrix_to_scale(0.0)
        with pytest.raises(ValueError):
            round_matrix_to_scale([[2.0, 3.0], [-1.0, 4.0]])

    def test_round_pcm_matches_handworked_example(self, mpr_v1, rmpr_v1):
        assert round_pcm(mpr_v1).entries == pytest.approx(rmpr_v1.entries, abs=1e-12)

    def test_round_pcm_rounds_upper_triangle_then_reciprocates(self):
        # 1.9 rounds to 2; its reciprocal becomes exactly 1/2 even though
        # rounding 1/1.9 = 0.526... directly would give 1/2 as well; use an
        # asymmetric case: 2.4 -> 2 upper, so lower must be 1/2, not
        # round(1/2.4) = round(0.4167) = 1/2 ... pick 6.5 -> 7 (tie upward),
        # lower 1/6.5 = 0.1538 would round to 1/6 on its own.
        m = Pcm([[1, 6.5, 2], [1 / 6.5, 1, 2], [0.5, 0.5, 1]])
        r = round_pcm(m)
        assert r.entries[0, 1] == 7.0
        assert r.entries[1, 0] == pytest.approx(1 / 7, abs=1e-15)
        assert is_reciprocal(r, tol=1e-15)
        with pytest.raises(ValueError, match="square"):
            round_pcm(np.full((3, 4), 2.0))


class TestPcmIO:
    def test_round_trip(self, tmp_path, ra):
        path = tmp_path / "ra.csv"
        write_pcm(ra, path)
        back = read_pcm(path)
        assert back.entries == pytest.approx(ra.entries, abs=1e-12)

    def test_fraction_tokens(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,3,5\n1/3,1,2\n1/5,1/2,1\n")
        m = read_pcm(path)
        assert m.entries[1, 0] == pytest.approx(1 / 3, abs=1e-15)
        assert m.entries[2, 0] == pytest.approx(1 / 5, abs=1e-15)

    @pytest.mark.parametrize(
        "text",
        [
            "1,2\n0.5,1\n",  # order 2
            "1,2,3\n0.5,1\n",  # ragged
            "1,2,x\n0.5,1,2\n1/3,0.5,1\n",  # bad token
            "1,2,1/0\n0.5,1,2\n0,0.5,1\n",  # zero denominator
        ],
    )
    def test_bad_files(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(PcmFormatError):
            read_pcm(path)

    def test_non_reciprocal_file_names_the_file_and_the_pair(self, tmp_path):
        path = tmp_path / "nr.csv"
        path.write_text("1,3,2,5\n3,1,1,3\n1/2,1,1,4\n1/5,1/3,1/4,1\n")
        with pytest.raises(PcmFormatError) as info:
            read_pcm(path)
        assert str(info.value) == f"{path}: PCM is not reciprocal: a[1,2]=3 vs a[2,1]=3"

    @pytest.mark.parametrize("pad", ["", " ", "\t ", "  "])
    def test_scale_tokens_read_as_parse_token_reads_them(self, tmp_path, pad):
        """Every scale token, bare or between blanks, reads as the float _parse_token gives it."""
        from pcmkit.core import _parse_token

        # The 10 upper cells hold 2..9, 1 and 1/2, the lower cells their reciprocals: all 17 tokens.
        upper = [str(k) for k in range(2, 10)] + ["1", "1/2"]
        reciprocal = {**{str(k): f"1/{k}" for k in range(2, 10)}, "1": "1", "1/2": "2"}
        n = 5
        cells = [["1"] * n for _ in range(n)]
        for (i, j), token in zip(zip(*np.triu_indices(n, k=1)), upper):
            cells[i][j], cells[j][i] = token, reciprocal[token]
        assert len({t for row in cells for t in row}) == 17
        path = tmp_path / "scale.csv"
        path.write_text("\n".join(",".join(pad + t + pad[::-1] for t in row) for row in cells) + "\n")
        entries = read_pcm(path).entries
        for i in range(n):
            for j in range(n):
                assert entries[i, j].hex() == _parse_token(cells[i][j]).hex(), (i, j, cells[i][j])

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=7))
    @settings(max_examples=25, deadline=None)
    def test_write_read_round_trip_random(self, seed, n):
        """Scale-valued and off-scale reciprocal matrices read back bit for bit."""
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        off_scale = np.exp(rng.uniform(-5.0, 5.0, size=n))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "m.csv"
            for m in (random_reciprocal_pcm(rng, n, SAATY_SCALE), random_reciprocal_pcm(rng, n, off_scale)):
                write_pcm(m, path)
                assert np.array_equal(read_pcm(path).entries, m.entries)

    def test_consistent_matrices_round_trip_exactly(self, tmp_path):
        """Perfect ratio matrices, whose entries are off the scale, read back bit for bit and stay consistent."""
        rng = np.random.default_rng(5)
        path = tmp_path / "m.csv"
        vectors = [[0.41, 0.27, 0.19, 0.13]] + [rng.uniform(0.05, 1.0, size=n) for n in range(3, 10) for _ in range(20)]
        for values in vectors:
            w = PriorityVector.normalized(values).weights
            m = Pcm(w[:, None] / w[None, :])
            write_pcm(m, path)
            back = read_pcm(path)
            assert np.array_equal(back.entries, m.entries)
            assert is_reciprocal(back) and is_consistent(back)


@given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_round_to_scale_is_nearest(x):
    vals = SAATY_SCALE
    r = round_matrix_to_scale(x)
    best = np.min(np.abs(vals - x))
    assert abs(r - x) == pytest.approx(best, abs=1e-12)
    # among equally close values the larger one is chosen
    ties = vals[np.abs(np.abs(vals - x) - best) < 1e-12]
    assert r == pytest.approx(ties.max(), abs=1e-12)


def test_parse_token_matches_the_fraction_float():
    """p/q tokens read as float(Fraction(p, q)), sign of zero included; a zero or oversized q-quotient is a bad token."""
    import random
    from fractions import Fraction

    from pcmkit.core import _parse_token

    rng = random.Random(12)
    pairs = [(1, k) for k in range(1, 10)] + [(k, 1) for k in range(1, 10)] + [(0, k) for k in (1, 7, -1, -7)]
    for bound in (10, 10**15, 10**30):
        pairs += [(rng.randint(-bound, bound), rng.choice([-1, 1]) * rng.randint(1, bound)) for _ in range(500)]
    for p, q in pairs:
        assert _parse_token(f"{p}/{q}").hex() == float(Fraction(p, q)).hex(), (p, q)
    for token in ("1/0", "1" + "0" * 400 + "/1", "-1" + "0" * 400 + "/3"):
        with pytest.raises(PcmFormatError, match="^bad fraction token"):
            _parse_token(token)


@pytest.mark.parametrize("n", range(1, 16))
def test_upper_indices_are_read_only_triu_indices(n):
    """The cached pair indices are np.triu_indices(n, k=1), empty below n = 3, and cannot be written.

    Building them at n = 600 peaks below 1.5 times their own bytes, so no
    Python object per pair is made on the way.
    """
    got = _upper_indices(n)
    assert got is _upper_indices(n)
    for arr, want in zip(got, np.triu_indices(n, k=1), strict=True):
        assert np.array_equal(arr, want) and arr.dtype == want.dtype and arr.size == n * (n - 1) // 2
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    tracemalloc.start()
    try:
        iu, ju = _upper_indices.__wrapped__(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (iu.nbytes + ju.nbytes)
