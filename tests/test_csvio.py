"""The (t,value) codec behind write/read_path_csv and write/read_grid_csv."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracbm._csvio import _BLOCK, read_csv, write_csv


def reference_bytes(t, v, header):
    """The row-at-a-time format: one f-string per value at 17 significant digits."""
    text = "".join(f"# {key}={val}\n" for key, val in header.items()) + "t,value\n"
    return (text + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, v))).encode()


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3]


class TestWrite:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
        ends=st.tuples(*[st.sampled_from([np.inf, -np.inf, 0.0, -0.0, 5e-324])] * 2),
        header=st.dictionaries(st.sampled_from(["hurst", "seed", "generator"]), st.text("abc0123./=-", max_size=8)),
    )
    def test_bytes_equal_the_row_at_a_time_format(self, tmp_path_factory, rows, seed, ends, header):
        rng = np.random.default_rng(seed)
        t = np.linspace(-2.0, 3.0, rows)
        wide = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        v = np.where(rng.random(rows) < 0.3, rng.choice(SPECIAL, rows), wide)
        v[0], v[-1] = ends
        dest = tmp_path_factory.mktemp("csv") / "f.csv"
        write_csv(dest, t, v, header)
        assert dest.read_bytes() == reference_bytes(t, v, header)


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
