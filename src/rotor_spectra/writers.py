"""CSV and JSON writers for every documented file format.

Each CSV writer states its row format once, as a ``%`` format, and hands
``_write`` whole columns.  CSVs are UTF-8 with a header row, '.' decimal
separator and CRLF row ends.  Reals are written ``%.17g``; label and fibre
indices (ell, j, band) are 1-based, while the library is 0-based internally;
the oracle's complex columns use Python's ``a+bj`` syntax.

Columns round as scalar arithmetic does, to the last bit: a modulus is
``np.hypot(re, im)``, equal to ``abs(complex)`` where a vectorised ``np.abs``
may differ, and complex products are spelt out in real and imaginary parts,
because numpy's vectorised complex product may round differently.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: samples per plotted circle
CIRCLE_SAMPLES = 256


def _open(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def _write(path, header, fmt, columns, footer=()):
    """Write the header, one ``fmt`` row per element of the broadcast
    ``columns`` (arrays or scalars, in C order), then the ``footer`` lines."""
    cols = [c.ravel().tolist() for c in np.broadcast_arrays(*map(np.asarray, columns))]
    row = fmt + "\r\n"
    with _open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % values for values in zip(*cols))
        fh.writelines(line + "\r\n" for line in footer)


def _write_json(path, doc) -> None:
    with _open(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _abs(z):
    return np.hypot(z.real, z.imag)


def _labels(n):
    return np.arange(1, n + 1)


def write_spectrum_csv(path, spec):
    lam, tgt = spec.lam, spec.target
    _write(path, ["k", "ell", "band", "re", "im", "abs", "arg",
                  "target_re", "target_im", "dist_to_target", "gersh_radius", "residual"],
           "%d,%d,%d" + ",%.17g" * 9,
           [spec.k, _labels(len(lam)), spec.band + 1, lam.real, lam.imag, _abs(lam),
            np.angle(lam), tgt.real, tgt.imag, _abs(lam - tgt), spec.gersh_radius,
            spec.residual])


def write_vectors_csv(path, k, vectors):
    """Shared layout for eigenvector and response-vector tables."""
    v = np.asarray(vectors).T                    # row ell, column j
    _write(path, ["k", "ell", "j", "re", "im", "abs"], "%d,%d,%d,%.17g,%.17g,%.17g",
           [k, _labels(v.shape[0])[:, None], _labels(v.shape[1]), v.real, v.imag, _abs(v)])


def write_circles_csv(path, model, k, sinc, radius):
    """Unit-circle and per-band Gershgorin-circle samples for plotting."""
    t = np.linspace(0.0, 2 * np.pi, CIRCLE_SAMPLES, endpoint=False)
    centre = sinc * np.exp(-2j * np.pi * k * np.asarray(model.beta))[:, None]
    S = len(model.beta)
    _write(path, ["kind", "idx", "x", "y"], "%s,%d,%.17g,%.17g",
           [np.repeat(["unit", "gersh"], [CIRCLE_SAMPLES, S * CIRCLE_SAMPLES]),
            np.repeat(np.arange(S + 1), CIRCLE_SAMPLES),
            np.concatenate([np.cos(t), (centre.real + radius * np.cos(t)).ravel()]),
            np.concatenate([np.sin(t), (centre.imag + radius * np.sin(t)).ravel()])])


def write_limit_csv(path, basis):
    lh = basis.lambda_hat[:, None]
    n = len(basis.lambda_hat)
    _write(path, ["k", "ell", "band", "lambda_hat_re", "lambda_hat_im", "j", "f_j"],
           "%d,%d,%d,%.17g,%.17g,%d,%.17g",
           [basis.k, _labels(n)[:, None], basis.band[:, None] + 1, lh.real, lh.imag,
            _labels(n), basis.vectors.T])


def write_convergence_csv(path, rows):
    """rows: (k, ell 0-based, eps, proj_distance, projector_gap, mass_outside)."""
    k, ell, *rest = np.reshape(np.asarray(rows, dtype=float), (-1, 6)).T
    _write(path, ["k", "ell", "eps", "proj_distance", "projector_gap", "mass_outside_band"],
           "%d,%d" + ",%.17g" * 4, [k, ell + 1, *rest])


def write_response_csv(path, resp):
    lh, lhh = resp.lambda_hat, resp.lambda_hathat
    _write(path, ["k", "ell", "band", "lhat_re", "lhat_im", "lhathat_re", "lhathat_im"],
           "%d,%d,%d" + ",%.17g" * 4,
           [resp.k, _labels(len(lh)), resp.band + 1, lh.real, lh.imag, lhh.real, lhh.imag])


def write_ordercheck_csv(path, oc):
    _write(path, ["k", "ell", "eps", "r0", "r1", "r2", "vec_r"], "%d,%d" + ",%.17g" * 5,
           [oc.k, oc.ell + 1, oc.eps_grid, oc.r0, oc.r1, oc.r2, oc.vec_r],
           ["slopes,,,%.17g,%.17g,%.17g,%.17g"
            % (oc.slope0, oc.slope1, oc.slope2, oc.slope_vec)])


def write_oracle_csv(path, report):
    closed, numeric = report.lhat_closed, report.lhat_numeric
    _write(path, ["k", "ell", "band", "case", "lhat_closed", "lhat_numeric",
                  "abs_diff", "vec_proj_dist"],
           "%d,%d,%d,%s" + ",%.17g%+.17gj" * 2 + ",%.17g,%.17g",
           [report.k, _labels(len(report.abs_diff)), report.band + 1, report.case,
            closed.real, closed.imag, numeric.real, numeric.imag,
            report.abs_diff, report.vec_proj_dist])


def write_cycles_json(path, report):
    _write_json(path, {
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
    })


def write_trajectory_csv(path, batch):
    """Path and step are 0-based; the fibre j is 1-based."""
    _write(path, ["path", "step", "j", "x"], "%d,%d,%d,%.17g",
           [np.arange(batch.n_paths)[:, None], np.arange(batch.n_steps + 1),
            batch.j + 1, batch.x])


def write_grid_csv(path, k, vectors, ells, x_res=256):
    """Full-cylinder eigenfunction samples |f(j) e^{2 pi i k x}| and arguments."""
    f = np.asarray(vectors)[:, list(ells)].T[:, :, None]    # (ell, j, 1)
    xs = np.arange(x_res) / x_res
    e = np.exp(2j * np.pi * k * xs)
    re = f.real * e.real - f.imag * e.imag
    im = f.real * e.imag + f.imag * e.real
    _write(path, ["ell", "j", "x", "abs", "arg"], "%d,%d,%.17g,%.17g,%.17g",
           [(np.asarray(ells) + 1)[:, None, None], _labels(f.shape[1])[:, None], xs,
            np.hypot(re, im), np.arctan2(im, re)])


def write_admissibility_json(path, report):
    _write_json(path, {
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
    })
