"""The (t,value) CSV format shared by grid functions and sample paths.

A file holds optional `# key=value` header lines, a `t,value` column header
and one row per grid node, written at 17 significant digits so every float
survives a round trip bitwise.  Header lines come before the first row;
other `#` lines, text after a `#` and blank lines are skipped.

Rows are formatted a block at a time and the body is parsed by numpy's
`loadtxt`, so neither direction loops over rows in Python; a malformed file
is scanned again, on the error path only, to name its first bad line.

A grid's t column is formatted once, into row templates that each write on
the grid fills with its values alone; those of the last _KEPT_GRIDS grids
written are kept, at 20 to 30 bytes per row (1.9 MiB for 2^12 to 2^16 steps).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os

import numpy as np

from ._validate import finite

_BLOCK = 4096  # rows per formatted write; bounds the text held at once
_KEPT_GRIDS = 4  # grids whose t column stays formatted; a path and its operators share one


@contextlib.contextmanager
def rewrite(dest):
    """A UTF-8 text handle that overwrites dest in place, as open(dest, "w") would.

    Truncating on open makes ext4 wait for the writeback of a file it has
    just written (auto_da_alloc).  Instead, once the handle has closed, a
    stale tail is cut to the written end, or to 0 if the write raised.  A
    file no longer than that end, as after a same-length rewrite or on a
    pipe, is not truncated at all.
    """
    fd = os.open(dest, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        end = 0
        try:
            with open(fd, "w", encoding="utf-8", closefd=False) as fh:
                yield fh
            end = os.lseek(fd, 0, os.SEEK_CUR) if os.fstat(fd).st_size else 0
        finally:
            if os.fstat(fd).st_size > end:
                os.ftruncate(fd, end)
    finally:
        os.close(fd)


@functools.lru_cache(maxsize=_KEPT_GRIDS)
def _row_templates(a: str, b: str, rows: int) -> tuple[str, ...]:
    """`t_k,%.17g` rows of linspace(a, b, rows), _BLOCK to a string; a and b
    come as float.hex, which keeps 0.0 and -0.0 apart."""
    t = np.linspace(float.fromhex(a), float.fromhex(b), rows)
    blocks = (t[i : i + _BLOCK].tolist() for i in range(0, rows, _BLOCK))  # Python floats for one block, not the grid
    return tuple("%.17g,%%.17g\n" * len(block) % tuple(block) for block in blocks)


def write_csv(dest, a: float, b: float, v, header: dict | None = None) -> None:
    """Writes v at the nodes of linspace(a, b, len(v))."""
    templates = _row_templates(float(a).hex(), float(b).hex(), len(v))
    with rewrite(dest) as fh:
        for key, val in (header or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("t,value\n")
        for i, template in enumerate(templates):
            fh.write(template % tuple(v[i * _BLOCK : (i + 1) * _BLOCK].tolist()))


def _parse(lines) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)


def _skip_header(lines, header: dict) -> tuple[int, str] | None:
    """Consumes `#` lines, blank lines and the column header from (lineno, line)
    pairs, filling header; returns the first data line, or None at the end."""
    for lineno, raw in lines:
        line = raw.strip()
        if line.startswith("#"):
            key, eq, val = line[1:].partition("=")
            if eq:
                header[key.strip()] = val.strip()
        elif line and line.split(",")[0].strip().lower() != "t":
            return lineno, raw
    return None


def _first_bad_line(fh) -> ValueError:
    """Error naming the first data line of fh that is not two numbers."""
    lines = enumerate(fh, start=1)
    for lineno, raw in itertools.chain([_skip_header(lines, {})], lines):
        if raw.partition("#")[0].strip():
            try:
                ok = _parse([raw]).shape == (1, 2)
            except ValueError:
                ok = False
            if not ok:
                return ValueError(f"malformed CSV at line {lineno}: {raw!r}")
    return ValueError("malformed CSV")


def read_csv(source, what: str, min_samples: int):
    """Returns (header dict, t, v); the t column must be finite and uniformly spaced."""
    header: dict[str, str] = {}
    with open(source, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is no data
        first = _skip_header(enumerate(fh, start=1), header)
        try:
            rows = _parse(itertools.chain([first[1]], fh)) if first else np.empty((0, 2))
        except ValueError:
            rows = None
        if rows is None or rows.shape[1] != 2:
            fh.seek(0)
            raise _first_bad_line(fh)
    if len(rows) < min_samples:
        raise ValueError(f"{what} CSV must hold at least {min_samples} samples")
    # contiguous copies: BLAS dot products round differently on strided columns
    t, v = finite(rows[:, 0].copy(), f"{what} CSV column 't'"), rows[:, 1].copy()
    h = (t[-1] - t[0]) / (t.size - 1)
    # each step within 1e-9 of h, plus 1e-9 of max|t| for t written at 10 significant digits
    if h <= 0 or np.max(np.abs(np.diff(t) - h)) > 1e-9 * (h + np.max(np.abs(t))):
        raise ValueError(f"{what} CSV must be uniformly spaced in t")
    return header, t, v
