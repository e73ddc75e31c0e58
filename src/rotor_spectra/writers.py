"""CSV and JSON writers for every documented file format.

All CSVs are UTF-8 with a header row and '.' decimal separator; label and
fibre indices (ell, j, band) are written 1-based to match the mathematical
convention, while the library is 0-based internally.  Complex-valued single
columns (oracle report) use Python complex syntax ``a+bj``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def _fmt(x) -> str:
    if isinstance(x, (complex, np.complexfloating)):
        return f"{complex(x).real:.17g}{complex(x).imag:+.17g}j"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_spectrum_csv(path, spec):
    rows = []
    for ell in range(len(spec.lam)):
        lam, tgt = spec.lam[ell], spec.target[ell]
        rows.append([spec.k, ell + 1, int(spec.band[ell]) + 1,
                     lam.real, lam.imag, abs(lam), np.angle(lam),
                     tgt.real, tgt.imag, abs(lam - tgt),
                     spec.gersh_radius, spec.residual[ell]])
    _write(path, ["k", "ell", "band", "re", "im", "abs", "arg",
                  "target_re", "target_im", "dist_to_target",
                  "gersh_radius", "residual"], rows)


def write_vectors_csv(path, k, vectors, ells=None):
    """Shared layout for eigenvector and response-vector tables."""
    vectors = np.asarray(vectors)
    ells = range(vectors.shape[1]) if ells is None else ells
    rows = []
    for ell in ells:
        for j in range(vectors.shape[0]):
            v = complex(vectors[j, ell])
            rows.append([k, ell + 1, j + 1, v.real, v.imag, abs(v)])
    _write(path, ["k", "ell", "j", "re", "im", "abs"], rows)


def write_circles_csv(path, model, k, sinc, radius, samples=256):
    """Unit-circle and per-band Gershgorin-circle samples for plotting."""
    t = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    rows = [["unit", 0, float(np.cos(a)), float(np.sin(a))] for a in t]
    for s, b in enumerate(model.beta):
        c = sinc * np.exp(-2j * np.pi * k * b)
        for a in t:
            rows.append(["gersh", s + 1,
                         float(c.real + radius * np.cos(a)),
                         float(c.imag + radius * np.sin(a))])
    _write(path, ["kind", "idx", "x", "y"], rows)


def write_limit_csv(path, basis):
    rows = []
    n = len(basis.lambda_hat)
    for ell in range(n):
        lh = basis.lambda_hat[ell]
        for j in range(n):
            rows.append([basis.k, ell + 1, int(basis.band[ell]) + 1,
                         lh.real, lh.imag, j + 1, float(basis.vectors[j, ell])])
    _write(path, ["k", "ell", "band", "lambda_hat_re", "lambda_hat_im", "j", "f_j"], rows)


def write_convergence_csv(path, rows):
    """rows: (k, ell 0-based, eps, proj_distance, projector_gap, mass_outside)."""
    _write(path, ["k", "ell", "eps", "proj_distance", "projector_gap",
                  "mass_outside_band"],
           [[k, ell + 1, eps, pd, pg, mo] for (k, ell, eps, pd, pg, mo) in rows])


def write_response_csv(path, resp):
    rows = []
    for ell in range(len(resp.lambda_hat)):
        lh, lhh = resp.lambda_hat[ell], resp.lambda_hathat[ell]
        rows.append([resp.k, ell + 1, int(resp.band[ell]) + 1,
                     lh.real, lh.imag, lhh.real, lhh.imag])
    _write(path, ["k", "ell", "band", "lhat_re", "lhat_im", "lhathat_re", "lhathat_im"], rows)


def write_ordercheck_csv(path, oc):
    rows = [[oc.k, oc.ell + 1, oc.eps_grid[i], oc.r0[i], oc.r1[i], oc.r2[i], oc.vec_r[i]]
            for i in range(len(oc.eps_grid))]
    rows.append(["slopes", "", "", oc.slope0, oc.slope1, oc.slope2, oc.slope_vec])
    _write(path, ["k", "ell", "eps", "r0", "r1", "r2", "vec_r"], rows)


def write_oracle_csv(path, report):
    rows = []
    for ell in range(len(report.abs_diff)):
        rows.append([report.k, ell + 1, int(report.band[ell]) + 1, report.case[ell],
                     report.lhat_closed[ell], report.lhat_numeric[ell],
                     report.abs_diff[ell], report.vec_proj_dist[ell]])
    _write(path, ["k", "ell", "band", "case", "lhat_closed", "lhat_numeric",
                  "abs_diff", "vec_proj_dist"], rows)


def write_cycles_json(path, report):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "M": report.M,
        "top_m": report.top_m,
        "solver": report.solver,
        "max_residual": report.max_residual,
        "cycles": [
            {
                "eigenvalue": [c.eigenvalue.real, c.eigenvalue.imag],
                "magnitude": c.magnitude,
                "arg": c.arg,
                "period_steps": c.period_steps,
                "band_masses": list(c.band_masses),
                "band": c.band + 1,
            }
            for c in report.cycles
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_trajectory_csv(path, batch):
    rows = []
    for p in range(batch.n_paths):
        for t in range(batch.n_steps + 1):
            rows.append([p, t, int(batch.j[p, t]) + 1, float(batch.x[p, t])])
    _write(path, ["path", "step", "j", "x"], rows)


def write_grid_csv(path, k, vectors, ells, x_res=256):
    """Full-cylinder eigenfunction samples |f(j) e^{2 pi i k x}| and arguments."""
    vectors = np.asarray(vectors)
    xs = np.arange(x_res) / x_res
    rows = []
    for ell in ells:
        f = vectors[:, ell]
        for j in range(vectors.shape[0]):
            for x in xs:
                val = complex(f[j]) * np.exp(2j * np.pi * k * x)
                rows.append([ell + 1, j + 1, float(x), abs(val), float(np.angle(val))])
    _write(path, ["ell", "j", "x", "abs", "arg"], rows)


def write_admissibility_json(path, report):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "row_sum_defect": report.row_sum_defect,
        "symmetry_defect": report.symmetry_defect,
        "min_offdiag": report.min_offdiag,
        "min_eigen_gap_full": report.min_eigen_gap_full,
        "min_eigen_gap_blocks": None if report.min_eigen_gap_blocks == float("inf")
        else report.min_eigen_gap_blocks,
        "eps_max": None if report.eps_max == float("inf") else report.eps_max,
        "item_stochastic": report.item_stochastic,
        "item_distinct_full": report.item_distinct_full,
        "item_distinct_blocks": report.item_distinct_blocks,
        "passed": report.passed,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
