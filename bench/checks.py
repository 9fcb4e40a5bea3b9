"""Correctness checks for the benchmark's workloads.

Every target here is computed apart from fracbm: closed forms through
`math.gamma`, covariances and Monte Carlo bands from the formulas of the
laws, quadrature through numpy and scipy, and file hashes through
`hashlib`.  A check never compares against stored program output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def close(name: str, estimate: float, target: float, tol: float) -> Check:
    err = abs(float(estimate) - float(target))
    return Check(name, bool(err <= tol), f"|{estimate:.6g} - {target:.6g}| = {err:.3g} vs {tol:.3g}")


def sup_close(name: str, values, reference, tol: float) -> Check:
    err = float(np.max(np.abs(np.asarray(values) - np.asarray(reference))))
    return Check(name, bool(err <= tol), f"sup error {err:.3g} vs {tol:.3g}")


def in_band(name: str, value: float, lo: float, hi: float) -> Check:
    return Check(name, bool(lo <= value <= hi), f"{value:.4f} in [{lo:.4f}, {hi:.4f}]")


def bitwise(name: str, a, b) -> Check:
    a, b = np.asarray(a), np.asarray(b)
    same = a.shape == b.shape and a.tobytes() == b.tobytes()
    return Check(name, same, "bitwise equal" if same else "differs")


# -- closed forms and oracles -------------------------------------------------


def power_integral(t: np.ndarray, beta: float, alpha: float) -> np.ndarray:
    """Left Riemann-Liouville integral of t**beta: Gamma(b+1)/Gamma(b+1+a) t**(b+a)."""
    return math.gamma(beta + 1.0) / math.gamma(beta + 1.0 + alpha) * t ** (beta + alpha)


def power_derivative(t: np.ndarray, beta: float, alpha: float) -> np.ndarray:
    """Left fractional derivative of t**beta: Gamma(b+1)/Gamma(b+1-a) t**(b-a)."""
    return math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - alpha) * t ** (beta - alpha)


def fbm_covariance(t: np.ndarray, H: float) -> np.ndarray:
    """1/2 (s^2H + t^2H - |t - s|^2H) on all node pairs; min(s, t) at H = 1/2."""
    p = 2.0 * H
    tp = t**p
    return 0.5 * (tp[:, None] + tp[None, :] - np.abs(t[:, None] - t[None, :]) ** p)


def telescoping_allowance(values: np.ndarray) -> float:
    """3 eps_last max|dg|/h for the default ladder, whose last epsilon is 2h."""
    return 6.0 * float(np.max(np.abs(np.diff(values))))


def square_identity(values: np.ndarray) -> float:
    """1/2 B_T^2 - 1/2 sum (dB)^2 on the nodes given: the left sum of B dB."""
    return 0.5 * float(values[-1]) ** 2 - 0.5 * float(np.sum(np.diff(values) ** 2))


# -- Monte Carlo bands --------------------------------------------------------


def covariance_band(name: str, emp: np.ndarray, t: np.ndarray, H: float, reps: int,
                    z: float, bias: float = 0.0) -> Check:
    """Every entry within z standard errors (plus a stated bias) of the fBm covariance.

    For a centred Gaussian vector the product X_s X_t has variance
    C_ss C_tt + C_st^2, which sets each entry's standard error.
    """
    ref = fbm_covariance(t, H)
    d = np.diag(ref)
    se = np.sqrt((np.outer(d, d) + ref**2) / reps)
    excess = np.abs(emp - ref) - (z * se + bias)
    worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(excess)), excess.shape))
    return Check(
        name, bool(np.all(excess <= 0.0)),
        f"worst entry {worst}: |{emp[worst]:.4f} - {ref[worst]:.4f}| vs {z:g} se {se[worst]:.4f} + {bias:g}",
    )


# -- verify-suite output directory ---------------------------------------------


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_exit(code: int) -> Check:
    return Check("cli-exit-code", code == 0, f"exit code {code}")


def verify_records(out_dir: str, ids) -> Check:
    verdicts = {}
    for eid in ids:
        path = os.path.join(out_dir, f"{eid}.json")
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                verdicts[eid] = json.load(fh)["verdict"]
    bad = {e: verdicts.get(e, "missing") for e in ids if verdicts.get(e) != "pass"}
    return Check("records-pass", not bad, f"{len(verdicts)} records; not passing: {bad or 'none'}")


def verify_manifest(out_dir: str) -> Check:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["artifacts"]
    on_disk = sorted(n for n in os.listdir(out_dir)
                     if n != "manifest.json" and os.path.isfile(os.path.join(out_dir, n)))
    wrong = [n for n in on_disk if listed.get(n) != _sha256(os.path.join(out_dir, n))]
    extra = sorted(set(listed) - set(on_disk))
    return Check("manifest-hashes", not wrong and not extra,
                 f"{len(on_disk)} files; mismatched {wrong or 'none'}; listed but absent {extra or 'none'}")


def verify_summary(out_dir: str, ids) -> Check:
    expected = []
    for eid in ids:
        with open(os.path.join(out_dir, f"{eid}.json"), encoding="utf-8") as fh:
            expected += [(eid, c["name"]) for c in json.load(fh)["checks"]]
    with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8", newline="") as fh:
        rows = [(r["experiment"], r["check"]) for r in csv.DictReader(fh)]
    return Check("summary-rows", rows == expected, f"{len(rows)} rows for {len(expected)} checks")
