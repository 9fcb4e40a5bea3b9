"""The (t,value) CSV format shared by grid functions and sample paths.

A file holds optional `# key=value` header lines, a `t,value` column header
and one row per grid node, written at 17 significant digits so every float
survives a round trip bitwise.  Other `#` lines and blank lines are skipped.
"""

from __future__ import annotations

import numpy as np


def write_csv(dest, t, v, header: dict | None = None) -> None:
    with open(dest, "w", encoding="utf-8") as fh:
        for key, val in (header or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("t,value\n")
        for tk, vk in zip(t, v):
            fh.write(f"{tk:.17g},{vk:.17g}\n")


def read_csv(source, what: str, min_samples: int):
    """Returns (header dict, t, v); the t column must be uniformly spaced."""
    header: dict[str, str] = {}
    times: list[float] = []
    vals: list[float] = []
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    header[key.strip()] = val.strip()
                continue
            parts = line.split(",")
            if not line or parts[0].strip().lower() == "t":
                continue
            if len(parts) != 2:
                raise ValueError(f"malformed CSV at line {lineno}: {raw!r}")
            try:
                times.append(float(parts[0]))
                vals.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"malformed CSV at line {lineno}: {raw!r}") from exc
    if len(times) < min_samples:
        raise ValueError(f"{what} CSV must hold at least {min_samples} samples")
    t = np.asarray(times)
    h = (t[-1] - t[0]) / (t.size - 1)
    if h <= 0 or np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(abs(h), 1.0):
        raise ValueError(f"{what} CSV must be uniformly spaced in t")
    return header, t, np.asarray(vals)
