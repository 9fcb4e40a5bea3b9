"""The (t,value) CSV format shared by grid functions and sample paths.

A file holds optional `# key=value` header lines, a `t,value` column header
and one row per grid node, written at 17 significant digits so every float
survives a round trip bitwise.  Header lines come before the first row;
other `#` lines, text after a `#` and blank lines are skipped.

Rows are formatted a block at a time and the body is parsed by numpy's
`loadtxt`, so neither direction loops over rows in Python; a malformed file
is scanned again, on the error path only, to name its first bad line.

Each value is written as '%.17g' % x would write it, but by numpy
arithmetic on a whole block: a double-double product with a tabled power of
ten, exact to about 2^-100, scales it to its 17-digit integer, and its row is
gathered from tabled 4-digit groups and masked to C's %g layout.  Non-finite
values, zeros and the rare values within 1e-6 of a rounding tie go through
'%.17g' one at a time, so the bytes are dtoa's by construction.  The tables
(190 KB) are built on the first write, not on import.  A grid's t column is
formatted once; those of the last _KEPT_GRIDS grids written are kept, at 14
to 18 bytes per row (1.4 MiB for 2^12 to 2^16 steps).
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
_P10 = -300  # the first tabled power of ten; 650 of them reach every float's scale
_PLACES = np.array([[10**12], [10**8], [10**4], [1]])  # place value of each 4-digit group of n


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


@functools.cache
def _tables():
    """The formatter's tables, built on the first write.

    10^k = (hi + lo) 2^g for k in [_P10, _P10 + 650), as hi, lo and hi in two
    26-bit halves, with g + 1023 apart; the words of _words: 10 leading
    digits, 10,000 4-digit groups as they are and 10,000 with trailing zeros
    cut, and 633 exponents; and per sign and notation the AND and OR words
    that lay a row of them out as %g.
    """
    ks = np.arange(_P10, _P10 + 650)
    exps = np.floor(ks * np.log2(10.0)).astype(np.int64)  # g: 10^k / 2^g = num / den lies in [1, 2)
    pow10 = np.empty((650, 4))
    for i, (k, g) in enumerate(zip(ks.tolist(), exps.tolist())):
        num, den = 10 ** max(k, 0) << max(-g, 0), 10 ** max(-k, 0) << max(g, 0)
        hi = num / den  # int / int is correctly rounded, and so is lo
        p, q = hi.as_integer_ratio()
        pow10[i, :2] = hi, (num * q - p * den) / (den * q)
    pow10[:, 2] = (pow10[:, 0] + 2.0**27) - 2.0**27
    pow10[:, 3] = pow10[:, 0] - pow10[:, 2]
    exps += 1023
    group = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
    kept = np.logical_or.accumulate(group[:, ::-1] != 0, axis=1)[:, ::-1]
    words = np.zeros((20010 + 633, 8), np.uint8)
    words[:10, 7] = np.arange(48, 58)
    words[10:20010, 1::2] = np.vstack([group + 48, (group + 48) * kept])
    words[10:20010, ::2] = np.vstack([np.full_like(group, 255), 255 * kept])
    for x in range(-324, 309):
        words[20334 + x, :5] = np.frombuffer(f"e{x:+03d}".encode().ljust(5, b"\0"), np.uint8)
    masks = np.zeros((2, 2, 22, 48), np.uint8)  # AND/OR, sign, notation: -4..16 fixed, 17 exponential
    masks[1, :, :, 0], masks[1, 1, :, 1], masks[1, :, :, 45] = ord(","), ord("-"), ord("\n")
    masks[0, :, :, 7:40:2] = 255
    for x in range(-4, 18):
        if x == 17:
            masks[0, :, 21, 8], masks[0, :, 21, 40:45] = ord("."), 255
        elif x < 0:
            masks[1, :, x + 4, 2 : 3 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
        else:
            masks[0, :, x + 4, 8 + 2 * x] = ord(".") if x < 16 else 0
            masks[1, :, x + 4, 9 : 9 + 2 * x : 2] = ord("0")
    return pow10, exps, words.view(np.uint64).ravel(), masks.view(np.uint64).reshape(2, 44, 6)


def _scaled(f, e, x):
    """round(f * 2^e * 10^(16 - x)) and whether it lies within 1e-6 of a tie, for
    f in [0.5, 1): a Dekker product with 10^k as hi + lo, exact to about 2^-100."""
    pow10, exps = _tables()[:2]
    k = 16 - _P10 - x
    hi, lo, head, tail = np.take(pow10, k, axis=0).T
    p = f * hi
    fh = (f + 67108864.0) - 67108864.0  # f to a multiple of 2^-26
    fl = f - fh
    err = ((fh * head - p) + fh * tail + fl * head) + fl * tail + f * lo
    scale = ((np.take(exps, k) + e) << 52).view(np.float64)  # 2^(e + g), about 2^56
    err *= scale
    whole = np.rint(err)
    return (p * scale).astype(np.int64) + whole.astype(np.int64), np.abs(err - whole) > 0.5 - 1e-6


def _words(v):
    """`,%.17g\\n` of each value of v as 48 NUL-padded bytes: 6 uint64 words a row.

    Byte 0 is the comma, 1 the sign, 2-6 the "0.000" before small values, 7
    the leading digit, 8-39 a point slot before each of the other 16 digits,
    40-44 the exponent and 45 the newline.  A value is scaled to its 17-digit
    integer n; the exponent that log10 gives is corrected where n leaves
    [10^16, 10^17).  Non-finite values, zeros and values within 1e-6 of a
    rounding tie are formatted by '%.17g' one at a time.
    """
    words, masks = _tables()[2:]
    odd = ~np.isfinite(v) | (v == 0)
    a = np.where(odd, 1.0, np.abs(v))
    f, e = np.frexp(a)
    x = np.floor(np.log10(a)).astype(np.intp)
    n, tie = _scaled(f, e, x)
    while (bad := np.flatnonzero(off := (n >= 10**17).astype(np.intp) - (n < 10**16))).size:
        x[bad] += off[bad]
        n[bad], tie[bad] = _scaled(f[bad], e[bad], x[bad])
    edge = np.flatnonzero(n == 10**16)
    if edge.size:  # rounded up to 10^16, n may have the exponent below, unless that rounds to 10^17
        n2, tie2 = _scaled(f[edge], e[edge], x[edge] - 1)
        below = (n2 < 10**17) | tie2
        x[edge[below]] -= 1
        n[edge[below]], tie[edge[below]] = n2[below], tie2[below]
    prefix = np.array([n // 10**16, n // 10**12, n // 10**8, n // 10**4, n])  # the first 1, 5, 9, 13, 17 digits
    group = prefix[1:] - prefix[:-1] * 10**4 + 10 + 10000 * (prefix[1:] * _PLACES == n)  # cut if only 0s follow
    idx = np.column_stack([prefix[0], *group, x + 20334])  # words: 10 digits, groups, cut groups, exponents
    notation = np.where(np.abs(x - 6) <= 10, x + 4, 21) + 22 * np.signbit(v)  # -4..16 fixed, exponential
    out = np.take(words, idx)
    out &= np.take(masks[0], notation, axis=0)
    out |= np.take(masks[1], notation, axis=0)
    text = out.view(np.uint8)
    for i in np.flatnonzero(odd | tie):
        value = ("%.17g" % v[i]).encode()
        text[i, 1:45] = 0
        text[i, 1 : 1 + len(value)] = np.frombuffer(value, np.uint8)
    return out


@functools.lru_cache(maxsize=_KEPT_GRIDS)
def _t_column(a: str, b: str, rows: int) -> tuple[np.ndarray, ...]:
    """linspace(a, b, rows) formatted, _BLOCK rows to a uint8 array, each row's
    bytes first and NUL after; a and b come as float.hex, which keeps 0.0 and
    -0.0 apart."""
    t = np.linspace(float.fromhex(a), float.fromhex(b), rows)
    blocks = []
    for i in range(0, rows, _BLOCK):
        text = _words(t[i : i + _BLOCK]).view(np.uint8)[:, 1:45]  # no comma, no newline
        text = np.take_along_axis(text, np.argsort(text == 0, axis=1, kind="stable"), axis=1)
        blocks.append(text[:, : np.count_nonzero(text, axis=1).max()].copy())
        blocks[-1].flags.writeable = False
    return tuple(blocks)


def _text(t, v) -> str:
    """The rows of one block: its kept t column, then v."""
    return np.concatenate((t, _words(v).view(np.uint8)), axis=1).tobytes().translate(None, b"\0").decode()


def write_csv(dest, a: float, b: float, v, header: dict | None = None) -> None:
    """Writes v at the nodes of linspace(a, b, len(v))."""
    t_column = _t_column(float(a).hex(), float(b).hex(), len(v))
    with rewrite(dest) as fh:
        for key, val in (header or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("t,value\n")
        for i, t in enumerate(t_column):
            fh.write(_text(t, v[i * _BLOCK : (i + 1) * _BLOCK]))


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


def read_csv(source, what: str, min_samples: int, build=lambda header, t, v: (header, t, v)):
    """build(header, t, v), by default the triple, of the CSV at source, whose t column must be finite and
    uniformly spaced; every ValueError, from the format, a header or build's checks of the samples, names source."""
    try:
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
        return build(header, t, v)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc
