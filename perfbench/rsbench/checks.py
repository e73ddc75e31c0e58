"""Per-call output checks, computed without calling the program.

Each check returns the names of the checks that failed (an empty list when
all hold).  References are built here from the model's definition: speeds,
band widths and the central-difference Laplacian stencil.  Thresholds are
the acceptance criteria's.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

SPEED_TOKENS = {"pi/20": math.pi / 20.0, "e/7": math.e / 7.0, "1/sqrt2": 1.0 / math.sqrt(2.0)}

EIG_TOL = 1e-10           # spectrum CSV against the reference eigenvalues
LHAT_TOL = 1e-10          # first-order terms and oracle eigenvalue differences
VEC_TOL = 1e-8            # oracle projective vector distance
SLOPE1_TOL = 0.1          # |slope1 - 2|
SLOPE2_MIN = 2.3
SLOPE_VEC_MIN = 1.3
FOOTER_TOL = 1e-9         # recomputed slopes against the CSV footer
CYCLE_ARG_TOL = 0.05
CYCLE_MASS_MIN = 0.8
ROW_SUM_TOL = 1e-12


def speeds(tokens) -> list[float]:
    return [SPEED_TOKENS[t] if isinstance(t, str) else float(t) for t in tokens]


def laplacian(n: int) -> np.ndarray:
    """Tridiagonal stencil: diagonal (-1/2, -1, ..., -1, -1/2), off-diagonals 1/2."""
    w = -np.eye(n) + 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    w[0, 0] = w[-1, -1] = -0.5
    return w


def sinc(k: int, delta: float) -> float:
    x = 2.0 * math.pi * k * delta
    return 1.0 if x == 0.0 else math.sin(x) / x


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, key) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def reference_lhat(beta, L, k: int) -> np.ndarray:
    """Limit eigenvalues: band phase times the band block's eigenvalues, descending."""
    wdot = laplacian(sum(L))
    out, start = [], 0
    for b, width in zip(beta, L):
        block = wdot[start:start + width, start:start + width]
        rho = np.sort(np.linalg.eigvalsh(block))[::-1]
        out.append(np.exp(-2j * np.pi * k * b) * rho)
        start += width
    return np.concatenate(out)


def check_spectrum_csv(path, beta, L, k: int, eps: float, delta: float) -> list[str]:
    """Eigenvalues, target distances and per-band counts of one spectrum table."""
    path = Path(path)
    if not path.is_file():
        return ["spectrum.missing"]
    rows = _rows(path)
    n = sum(L)
    if len(rows) != n:
        return ["spectrum.rows"]
    failed = []
    s = sinc(k, delta)
    alpha = np.repeat(beta, L)
    block = np.exp(-2j * np.pi * k * alpha)[:, None] * (np.eye(n) + eps * laplacian(n))
    ref = s * np.linalg.eigvals(block)
    lam = _floats(rows, "re") + 1j * _floats(rows, "im")
    dist = np.abs(lam[:, None] - ref[None, :])
    if max(dist.min(axis=1).max(), dist.min(axis=0).max()) > EIG_TOL:
        failed.append("spectrum.eigvals")
    radius = 2.0 * eps * s                    # 2 max|Wdot_jj| eps, times the sinc factor
    centres = s * np.exp(-2j * np.pi * k * np.asarray(beta))
    band = np.array([int(r["band"]) for r in rows]) - 1
    reported = _floats(rows, "dist_to_target")
    if (np.any(reported > _floats(rows, "gersh_radius"))
            or np.any(np.abs(lam - centres[band]) > radius * (1 + 1e-8) + 1e-13)):
        failed.append("spectrum.dist_to_target")
    in_disk = [int(np.sum(np.abs(lam - c) <= radius + 1e-12)) for c in centres]
    labelled = [int(np.sum(band == b)) for b in range(len(L))]
    if in_disk != list(L) or labelled != list(L):
        failed.append("spectrum.band_counts")
    return failed


def fit_slope(eps, values) -> float:
    x = np.log10(eps)
    y = np.log10(np.maximum(values, 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def check_ordercheck_csv(path) -> list[str]:
    """Order-check slopes, refitted from the table's own residual ladders."""
    path = Path(path)
    if not path.is_file():
        return ["ordercheck.missing"]
    rows = _rows(path)
    if len(rows) < 5 or rows[-1]["k"] != "slopes":
        return ["ordercheck.rows"]
    body, footer = rows[:-1], rows[-1]
    eps = _floats(body, "eps")
    fitted = {key: fit_slope(eps, _floats(body, key)) for key in ("r1", "r2", "vec_r")}
    failed = []
    if any(abs(fitted[key] - float(footer[key])) > FOOTER_TOL for key in fitted):
        failed.append("ordercheck.footer")
    if abs(fitted["r1"] - 2.0) > SLOPE1_TOL:
        failed.append("ordercheck.slope1")
    if not fitted["r2"] >= SLOPE2_MIN:
        failed.append("ordercheck.slope2")
    if not fitted["vec_r"] >= SLOPE_VEC_MIN:
        failed.append("ordercheck.slope_vec")
    return failed


def check_oracle_csv(path, beta, L, k: int) -> list[str]:
    """Oracle differences within tolerance; numeric eigenvalues match the reference."""
    path = Path(path)
    if not path.is_file():
        return ["oracle.missing"]
    rows = _rows(path)
    if len(rows) != sum(L):
        return ["oracle.rows"]
    failed = []
    if np.max(_floats(rows, "abs_diff")) > LHAT_TOL:
        failed.append("oracle.lhat_diff")
    if np.max(_floats(rows, "vec_proj_dist")) > VEC_TOL:
        failed.append("oracle.vec_dist")
    numeric = np.array([complex(r["lhat_numeric"]) for r in rows])
    closed = np.array([complex(r["lhat_closed"]) for r in rows])
    ref = reference_lhat(beta, L, k)
    if max(np.max(np.abs(numeric - ref)), np.max(np.abs(closed - ref))) > LHAT_TOL:
        failed.append("oracle.reference")
    return failed


def check_response_csv(path, beta, L, k: int) -> list[str]:
    """First-order terms of the response table match the reference limit eigenvalues."""
    path = Path(path)
    if not path.is_file():
        return ["response.missing"]
    rows = _rows(path)
    if len(rows) != sum(L):
        return ["response.rows"]
    lhat = _floats(rows, "lhat_re") + 1j * _floats(rows, "lhat_im")
    if np.max(np.abs(lhat - reference_lhat(beta, L, k))) > LHAT_TOL:
        return ["response.lhat_reference"]
    return []


def halfturn(angle: float) -> float:
    a = angle % (2 * math.pi)
    return min(a, 2 * math.pi - a)


def check_cycles(cycles, beta, top_m: int, prefix: str) -> list[str]:
    """Cycles as ``(arg, band 0-based, band_masses)``; args sit on band phases."""
    if len(cycles) != top_m:
        return [f"{prefix}.count"]
    failed = []
    for arg, band, masses in cycles:
        if abs(abs(arg) - halfturn(2 * math.pi * beta[band])) > CYCLE_ARG_TOL:
            failed.append(f"{prefix}.arg")
        if masses[band] < CYCLE_MASS_MIN or int(np.argmax(masses)) != band:
            failed.append(f"{prefix}.band_mass")
    return sorted(set(failed))


def check_cycles_json(path, beta, top_m: int) -> list[str]:
    path = Path(path)
    if not path.is_file():
        return ["cycles.missing"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    cycles = [(c["arg"], c["band"] - 1, c["band_masses"]) for c in doc.get("cycles", [])]
    return check_cycles(cycles, beta, top_m, "cycles")


def check_empirical(j, x, matrix, n: int, M: int) -> list[str]:
    """Every cell of the path data has an outgoing transition; rows sum to 1.

    ``j`` (0-based fibres) and ``x`` are the simulated paths, one row each;
    ``matrix`` is the empirical cell matrix.
    """
    bins = np.minimum((np.asarray(x) * M).astype(np.int64), M - 1)
    cells = np.asarray(j, dtype=np.int64) * M + bins
    failed = []
    if np.unique(cells[:, :-1]).size != n * M:
        failed.append("empirical.empty_rows")
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    if sums.size != n * M or np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
        failed.append("empirical.row_sums")
    return failed


def check_trajectory_csv(path, paths: int, steps: int, n: int) -> list[str]:
    """Row count, path/step numbering and state ranges of the trajectory table."""
    path = Path(path)
    if not path.is_file():
        return ["trajectories.missing"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (paths * (steps + 1), 4):
        return ["trajectories.rows"]
    p, t, j, x = data.T
    ok = (np.array_equal(p, np.repeat(np.arange(paths), steps + 1))
          and np.array_equal(t, np.tile(np.arange(steps + 1), paths))
          and np.all((j >= 1) & (j <= n)) and np.all((x >= 0) & (x < 1)))
    return [] if ok else ["trajectories.format"]
