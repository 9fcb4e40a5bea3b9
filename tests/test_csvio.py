"""The (t,value) codec behind write/read_path_csv and write/read_grid_csv."""

import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracbm import _csvio
from fracbm._csvio import _BLOCK, read_csv, write_csv


def reference_bytes(t, v, header):
    """The row-at-a-time format: one f-string per value at 17 significant digits."""
    text = "".join(f"# {key}={val}\n" for key, val in header.items()) + "t,value\n"
    return (text + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, v))).encode()


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3]


def twin(x):
    """The neighbouring grid end: -x for a zero, so 0.0 and -0.0 are told apart."""
    return -x if x == 0.0 else np.nextafter(x, np.inf)


class TestWrite:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
        a=st.sampled_from([-2.0, 0.0, -0.0]),
        b=st.sampled_from([3.0, 0.0, -0.0, 5e-324]),
        step=st.sampled_from([-1, 1]),
        seed=st.integers(0, 2**32 - 1),
        ends=st.tuples(*[st.sampled_from([np.inf, -np.inf, 0.0, -0.0, 5e-324])] * 2),
        header=st.dictionaries(st.sampled_from(["hurst", "seed", "generator"]), st.text("abc0123./=-", max_size=8)),
    )
    def test_bytes_equal_the_row_at_a_time_format(self, tmp_path_factory, rows, a, b, step, seed, ends, header):
        # two writes on one grid, then grids that differ from it only in a, b
        # or the row count, then the first grid again: kept rows or fresh ones
        rng = np.random.default_rng(seed)
        dest = tmp_path_factory.mktemp("csv") / "f.csv"
        grids = [(a, b, rows), (a, b, rows), (twin(a), b, rows), (a, twin(b), rows), (a, b, rows + step), (a, b, rows)]
        for a, b, rows in grids:
            wide = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            v = np.where(rng.random(rows) < 0.3, rng.choice(SPECIAL, rows), wide)
            if rows:
                v[0], v[-1] = ends
            write_csv(dest, a, b, v, header)
            assert dest.read_bytes() == reference_bytes(np.linspace(a, b, rows), v, header)


def formatted(x):
    """The values of x as the block formatter writes them."""
    text = b"".join(_csvio._words(x[i : i + _BLOCK]).tobytes() for i in range(0, len(x), _BLOCK))
    return [row[1:] for row in text.translate(None, b"\0").decode().splitlines()]


def near_powers_of_ten(powers, ulps):
    """The floats within `ulps` steps of each power of ten 10^k, k in powers."""
    x = np.array([float(f"1e{k}") for k in powers])
    return np.concatenate([x] + [np.nextafter(x, side * np.inf) for side in (-1, 1) for _ in range(ulps)])


class TestFormatter:
    """Each value is written as f"{x:.17g}", with no dtoa call for most values."""

    def test_random_bit_patterns(self):
        x = np.random.default_rng(29).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(float)
        assert formatted(x) == [f"{v:.17g}" for v in x.tolist()]

    def test_powers_of_ten_and_their_neighbours(self):
        x = near_powers_of_ten(range(-323, 309), 1)
        x = np.concatenate([x, -x])
        assert formatted(x) == [f"{v:.17g}" for v in x.tolist()]

    def test_the_switch_points_of_g(self):
        # fixed notation for exponents -4 to 16, exponential outside
        x = near_powers_of_ten([-5, -4, 16, 17], 3)
        x = np.concatenate([x, -x, [9.99999999999999995e-5, 9.9999999999999995e16]])
        got = formatted(x)
        assert got == [f"{v:.17g}" for v in x.tolist()]
        assert {"1.0000000000000001e-05", "0.0001", "10000000000000000", "1e+17"} <= set(got)

    def test_subnormals_zeros_and_non_finite_values(self):
        tiny = np.random.default_rng(30).integers(1, 2**52, 2000, dtype=np.uint64).view(float)
        x = np.concatenate([tiny, -tiny, [5e-324, 2.2250738585072009e-308, 0.0, -0.0, np.inf, -np.inf, np.nan]])
        assert formatted(x) == [f"{v:.17g}" for v in x.tolist()]

    def test_exact_ties_round_to_even_by_the_fallback(self):
        x = np.array([1000000000000000.25, 1000000000000000.75])
        assert formatted(x) == ["1000000000000000.2", "1000000000000000.8"]
        # odd multiples of 2^-(k+1) in [10^(16-k), 10^(17-k)) end in a 5 at digit 18
        rng = np.random.default_rng(31)
        for k in range(1, 12):
            odd = 2 * rng.integers(10 ** (16 - k) << k, min(10 ** (17 - k) << k, 2**52), 200) + 1
            x = odd / 2.0 ** (k + 1)
            f, e = np.frexp(x)
            assert _csvio._scaled(f, e, np.full(x.size, 16 - k))[1].all()  # so the fallback formats them
            assert formatted(x) == [f"{v:.17g}" for v in x.tolist()]


class Unformattable:
    def __format__(self, spec):
        raise RuntimeError("no text for this value")


class TestRewrite:
    """write_csv overwrites an existing file in place, with no O_TRUNC on open."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from([1, 3, _BLOCK + 1]),
        old=st.sampled_from(["empty", "shorter", "equal", "longer"]),
        data=st.data(),
    )
    def test_bytes_equal_a_write_to_a_fresh_path(self, tmp_path_factory, rows, old, data):
        v = np.sin(7.0 * np.linspace(0.0, 1.0, rows)) * 10.0 ** data.draw(st.integers(-300, 300), label="exponent")
        fresh = tmp_path_factory.mktemp("csv") / "fresh.csv"
        write_csv(fresh, 0.0, 1.0, v, {"hurst": "0.7"})
        want = fresh.read_bytes()
        size = {
            "empty": 0,
            "shorter": data.draw(st.integers(1, len(want) - 1), label="size"),
            "equal": len(want),
            "longer": data.draw(st.integers(len(want) + 1, 3 * len(want)), label="size"),
        }[old]
        dest = tmp_path_factory.mktemp("csv") / "f.csv"
        dest.write_bytes((b"t,value\n" + b"9,9\n" * size)[:size])  # stale rows that would parse
        write_csv(dest, 0.0, 1.0, v, {"hurst": "0.7"})
        assert dest.read_bytes() == want

    @pytest.mark.parametrize(
        "header, second_block_raises",
        [({"hurst": 0.7, "seed": Unformattable()}, False), ({}, True)],
        ids=["header-value-that-will-not-format", "rows-past-the-first-block"],
    )
    def test_a_write_that_raises_leaves_the_file_empty(self, tmp_path, monkeypatch, header, second_block_raises):
        dest = tmp_path / "f.csv"
        write_csv(dest, 0.0, 1.0, np.ones(3 * _BLOCK))
        text, blocks = _csvio._text, []

        def first_block_only(t, v):  # the first block's rows are written, the second raises
            blocks.append(len(v))
            if len(blocks) > 1:
                raise RuntimeError("no text for this block")
            return text(t, v)

        if second_block_raises:
            monkeypatch.setattr(_csvio, "_text", first_block_only)
        with pytest.raises(RuntimeError):
            write_csv(dest, 0.0, 1.0, np.ones(2 * _BLOCK), header)
        assert blocks == ([_BLOCK, _BLOCK] if second_block_raises else [])
        assert dest.read_bytes() == b""

    def test_an_existing_file_keeps_its_inode_and_mode(self, tmp_path):
        dest = tmp_path / "f.csv"
        write_csv(dest, 0.0, 99.0, np.ones(100))
        dest.chmod(0o640)
        before = dest.stat()
        write_csv(dest, 0.0, 9.0, np.zeros(10))
        after = dest.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
        assert read_csv(dest, "grid", 2)[2].tolist() == [0.0] * 10

    def test_a_pipe_is_written_and_never_truncated(self, tmp_path):
        # a pipe has no offset and no length, as in `fracbm fracint --out /dev/stdout | ...`
        r, w = os.pipe()
        try:
            write_csv(f"/dev/fd/{w}", 0.0, 4.0, np.ones(5))
        finally:
            os.close(w)
        with os.fdopen(r, "rb") as fh:
            piped = fh.read()
        write_csv(tmp_path / "f.csv", 0.0, 4.0, np.ones(5))
        assert piped == (tmp_path / "f.csv").read_bytes()


class TestRead:
    @settings(max_examples=60, deadline=None)
    @given(
        fields=st.lists(
            st.floats(allow_nan=False, allow_infinity=False).map(repr)
            | st.from_regex(r"\A[+-]?[0-9]{1,40}(\.[0-9]{0,40})?([eE][+-]?[0-9]{1,3})?\Z")
            | st.sampled_from(["inf", "-inf", "nan", "Infinity", " 1.5 ", "2.4703282292062328e-324", "1e400"]),
            min_size=2,
            max_size=60,
        )
    )
    def test_values_are_bitwise_python_float(self, tmp_path_factory, fields):
        dest = tmp_path_factory.mktemp("csv") / "f.csv"
        dest.write_text("t,value\n" + "".join(f"{k},{s}\n" for k, s in enumerate(fields)))
        _, t, v = read_csv(dest, "grid", 2)
        assert t.tobytes() == np.arange(len(fields), dtype=float).tobytes()
        assert v.tobytes() == np.array([float(s) for s in fields]).tobytes()

    def test_header_lines_comments_and_blank_lines(self, tmp_path):
        dest = tmp_path / "f.csv"
        dest.write_text("\n# hurst = 0.7\n# free text\n\nT,Value\n\n0,1\n# note\n\n1,2\n2,3\n")
        header, t, v = read_csv(dest, "grid", 3)
        assert header == {"hurst": "0.7"}
        assert t.tolist() == [0.0, 1.0, 2.0] and v.tolist() == [1.0, 2.0, 3.0]

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-1e6, 1e6),
        span=st.floats(1e-6, 1e6),
        rows=st.sampled_from([2, 3, 1000, _BLOCK + 1]),
    )
    def test_every_written_grid_reads_back(self, tmp_path_factory, a, span, rows):
        dest = tmp_path_factory.mktemp("csv") / "f.csv"
        write_csv(dest, a, a + span, np.zeros(rows))
        assert read_csv(dest, "grid", 2)[1].tobytes() == np.linspace(a, a + span, rows).tobytes()

    @pytest.mark.parametrize(
        "times, uniform",
        [
            (["0", "1e-10", "5e-10"], False),
            (["1e6", "1000000.001", "1000000.002"], True),
            ([f"{t:.10g}" for t in np.linspace(0.0, 1.0, 4097)], True),
        ],
        ids=["steps-far-below-unit-spacing", "steps-near-the-rounding-of-t", "t-at-10-significant-digits"],
    )
    def test_spacing_is_checked_relative_to_the_step(self, tmp_path, times, uniform):
        dest = tmp_path / "f.csv"
        dest.write_text("t,value\n" + "".join(f"{t},0\n" for t in times))
        if uniform:
            assert read_csv(dest, "grid", 3)[1].tolist() == [float(t) for t in times]
        else:
            with pytest.raises(ValueError, match="uniformly spaced"):
                read_csv(dest, "grid", 3)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # as a spreadsheet's UTF-8 export begins; a bad row is still named by its line
        dest = tmp_path / "f.csv"
        dest.write_text("\ufeff# hurst=0.7\nt,value\n0,1\n1,2\n2,3\n", encoding="utf-8")
        header, t, v = read_csv(dest, "grid", 3)
        assert header == {"hurst": "0.7"} and t.tolist() == [0.0, 1.0, 2.0] and v.tolist() == [1.0, 2.0, 3.0]
        dest.write_text("\ufeffx,1\n0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape("malformed CSV at line 1: 'x,1\\n'")):
            read_csv(dest, "grid", 2)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("# a=b\n\n# c\nt,value\n\n0,0\n\n1,oops\n2,2\n", 8),
            ("t,value\n0,0\n1,1,1\n2,2\n", 3),
            ("t,value,x\n0,0,0\n1,1,1\n", 2),
            ("t,value\n" + "".join(f"{k},{k}\n" for k in range(_BLOCK + 10)) + "\n# c\nx,1\n", _BLOCK + 14),
        ],
        ids=["after-comments-and-blanks", "three-columns", "three-columns-throughout", "past-the-first-block"],
    )
    def test_malformed_row_names_its_line(self, tmp_path, text, lineno):
        dest = tmp_path / "bad.csv"
        dest.write_text(text)
        bad = text.splitlines(keepends=True)[lineno - 1]
        with pytest.raises(ValueError, match=re.escape(f"malformed CSV at line {lineno}: {bad!r}")):
            read_csv(dest, "grid", 2)
