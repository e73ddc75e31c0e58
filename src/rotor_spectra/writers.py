"""CSV and JSON writers for every documented file format.

Each CSV writer states its row format once, as a ``%`` format, and hands
``_write`` whole columns, each at its natural shape: the columns broadcast
against one another to the table's shape, whose elements in C order are the
rows.  A column with fewer elements than the table has rows (a label, a
per-vector modulus, a sample point) is formatted once per element of its own
shape, so a value that repeats down the table is converted once.  The rows
run along the table's last axis (along its trailing axes where that one is
short), and a column constant along a run (a label, a fibre, a modulus |f(j)|)
is pasted into the row template of the run, so a row interpolates only the
fields that vary along its run.  A run's rows are formatted a block at a
time, by one ``%`` of its template repeated over the block's values laid out
flat in row order, and written once per block, so a table costs little
beyond its conversions, the reals' ``%.17g`` above all.  A varying column
stays an array, a view of its broadcast wherever the strides allow, and only
the block being formatted is converted to Python values: a table holds its
numpy columns and at most one block of Python values, however long it is.
CSVs are UTF-8 with a header row, '.' decimal separator and CRLF row ends.
Reals are written ``%.17g``; label and fibre indices (ell, j, band) are
1-based, while the library is 0-based internally; the oracle's complex columns
use Python's ``a+bj`` syntax.

Columns round as scalar arithmetic does, to the last bit: a modulus is
``np.hypot(re, im)``, equal to ``abs(complex)`` where a vectorised ``np.abs``
may differ, and complex products are spelt out in real and imaginary parts,
because numpy's vectorised complex product may round differently.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import _check_count, _check_labels, _check_layout

#: samples per plotted circle
CIRCLE_SAMPLES = 256
#: one ``%`` conversion of a row format (compiled on first use, not at import)
_CONVERSION = r"%[-+ #0]*\d*(?:\.\d+)?[a-zA-Z]"
#: rows formatted by one ``%``: a block, not the table, is flattened, so the
#: flat list stays small however long the table is.  Blocks of 1024 rows wrote
#: no faster, and their larger strings raised the peak RSS of a process making
#: repeated ``simulate`` runs by about 2 MB
_BLOCK = 128
#: fewest rows a row template serves: a table whose last axis is shorter runs
#: along its trailing axes together, so a tall table of short rows (a
#: trajectory of one step per path) is not written a template per row
_MIN_RUN = 32


def _open(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def _formatted(conv, col, escape=False):
    """``conv % v`` for each element v of ``col``, as strings of its shape, each
    ``%`` doubled if ``escape``."""
    strings = [conv % v for v in col.ravel().tolist()]
    if escape:
        strings = [s.replace("%", "%%") for s in strings]
    return np.array(strings, dtype=object).reshape(col.shape)


def _write(path, header, fmt, columns, footer=(), one_based=()):
    """Write the header, one ``fmt`` row per element of the broadcast
    ``columns`` (arrays or scalars, in C order), then the ``footer`` lines.

    ``fmt`` holds one ``%`` conversion per column, in column order.  Rows run
    along the table's last axis, and along the axes before it while a run is
    shorter than ``_MIN_RUN`` rows.  A column constant along a run (a scalar,
    or of length 1 on the run's axes) is fixed: converted once per element, its
    strings are pasted, ``%`` escaped, into the row template of each run.  Only
    the other columns are converted per row; one with fewer elements than the
    table has rows is formatted once per element, its strings broadcast as
    ``%s``.  Each block of at most ``_BLOCK`` rows of a run is formatted by one
    ``%`` of the run's template and written at once.  The varying columns stay
    arrays, one row per run, and only a block's slice of them becomes Python
    values, just before its ``%``: beyond its arrays, the table holds at most
    one block of Python values.  The columns at the positions ``one_based``
    hold 0-based indices and are written 1-based: a column converted whole
    (fixed, or shorter than the table) is shifted at once, a varying
    full-size one a block at a time, so it is never copied.
    """
    cols = list(map(np.asarray, columns))
    shape = np.broadcast_shapes(*(c.shape for c in cols)) or (1,)
    tail = 1                # the trailing axes a run spans
    while tail < len(shape) and math.prod(shape[-tail:]) < _MIN_RUN:
        tail += 1
    rows, run = math.prod(shape), math.prod(shape[-tail:])
    runs = rows and rows // run         # 0 for an empty table, whose run may be 0 rows
    # ``template % fields`` is a run's row format: the literal text and the
    # varying columns' conversions escaped, a %s for each fixed column
    texts = [t.replace("%", "%%") for t in re.split(_CONVERSION, fmt)]
    fixed, varying, shifts = [], [], []
    for i, (col, conv) in enumerate(zip(cols, re.findall(_CONVERSION, fmt), strict=True)):
        constant = all(d == 1 for d in col.shape[-tail:])
        shift = int(i in one_based)
        if shift and (constant or col.size < rows):     # converted whole: shifted at once
            col, shift = col + 1, 0
        if constant:
            fields = _formatted(conv, col, escape=True)
            fixed.append(np.broadcast_to(fields, shape[:-tail] + (1,) * tail).ravel().tolist())
            texts[i] += "%s"
            continue
        if col.size < rows:
            col, conv = _formatted(conv, col), "%s"
        varying.append(np.broadcast_to(col, shape).reshape(runs, run))
        shifts.append(shift)
        texts[i] += conv.replace("%", "%%")
    template = "".join(texts) + "\r\n"
    with _open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for r in range(runs):
            row = template % tuple(col[r] for col in fixed)
            for start in range(0, run, _BLOCK):
                n = min(_BLOCK, run - start)
                flat = [None] * (n * len(varying))
                for i, (col, shift) in enumerate(zip(varying, shifts)):
                    block = col[r, start:start + n]
                    flat[i::len(varying)] = (block + shift if shift else block).tolist()
                fh.write((row * n) % tuple(flat))
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
           [spec.k, _labels(len(lam)), spec.model.band_index + 1, lam.real, lam.imag, _abs(lam),
            np.angle(lam), tgt.real, tgt.imag, _abs(lam - tgt), spec.gersh_radius,
            spec.residual])


def write_vectors_csv(path, k, vectors):
    """Shared layout for eigenvector and response-vector tables."""
    v = np.asarray(vectors).T                    # row ell, column j
    _write(path, ["k", "ell", "j", "re", "im", "abs"], "%d,%d,%d,%.17g,%.17g,%.17g",
           [k, _labels(v.shape[0])[:, None], _labels(v.shape[1]), v.real, v.imag, _abs(v)])


def write_circles_csv(path, spec):
    """Unit-circle and per-band Gershgorin-circle samples of a labelled spectrum."""
    t = np.linspace(0.0, 2 * np.pi, CIRCLE_SAMPLES, endpoint=False)
    centre = spec.sinc * spec.model.phases(spec.k)[:, None]
    radius, S = spec.gersh_radius, spec.model.S
    _write(path, ["kind", "idx", "x", "y"], "%s,%d,%.17g,%.17g",
           [np.array(["unit"] + ["gersh"] * S)[:, None], np.arange(S + 1)[:, None],
            np.vstack([np.cos(t), centre.real + radius * np.cos(t)]),
            np.vstack([np.sin(t), centre.imag + radius * np.sin(t)])])


def write_limit_csv(path, basis):
    lh = basis.lambda_hat[:, None]
    n = len(basis.lambda_hat)
    _write(path, ["k", "ell", "band", "lambda_hat_re", "lambda_hat_im", "j", "f_j"],
           "%d,%d,%d,%.17g,%.17g,%d,%.17g",
           [basis.k, _labels(n)[:, None], basis.model.band_index[:, None] + 1, lh.real, lh.imag,
            _labels(n), basis.vectors.T])


def write_convergence_csv(path, rows):
    """rows: (k, ell 0-based, eps, proj_distance, projector_gap, mass_outside)."""
    k, ell, *rest = np.reshape(np.asarray(rows, dtype=float), (-1, 6)).T
    _write(path, ["k", "ell", "eps", "proj_distance", "projector_gap", "mass_outside_band"],
           "%d,%d" + ",%.17g" * 4, [k, ell + 1, *rest])


def write_response_csv(path, resp):
    basis, lh, lhh = resp.basis, resp.basis.lambda_hat, resp.lambda_hathat
    _write(path, ["k", "ell", "band", "lhat_re", "lhat_im", "lhathat_re", "lhathat_im"],
           "%d,%d,%d" + ",%.17g" * 4,
           [basis.k, _labels(len(lh)), basis.model.band_index + 1, lh.real, lh.imag,
            lhh.real, lhh.imag])


def write_ordercheck_csv(path, oc):
    _write(path, ["k", "ell", "eps", "r0", "r1", "r2", "vec_r", "path"],
           "%d,%d" + ",%.17g" * 5 + ",%s",
           [oc.k, oc.ell + 1, oc.eps_grid, oc.r0, oc.r1, oc.r2, oc.vec_r, oc.path],
           ["slopes,,," + ",".join("" if s is None else "%.17g" % s
                                   for s in (oc.slope0, oc.slope1, oc.slope2, oc.slope_vec))
            + ","])


def write_oracle_csv(path, report):
    closed, numeric = report.closed.lambda_hat, report.numeric.lambda_hat
    _write(path, ["k", "ell", "band", "case", "lhat_closed", "lhat_numeric",
                  "abs_diff", "vec_proj_dist"],
           "%d,%d,%d,%s" + ",%.17g%+.17gj" * 2 + ",%.17g,%.17g",
           [report.closed.k, _labels(len(closed)), report.closed.model.band_index + 1, report.case,
            closed.real, closed.imag, numeric.real, numeric.imag,
            report.abs_diff, report.vec_proj_dist])


def write_cycles_json(path, report):
    """The report's fields in order; each eigenvalue as [re, im], each band 1-based."""
    doc = asdict(report)
    for cycle in doc["cycles"]:
        z = cycle["eigenvalue"]
        cycle["eigenvalue"], cycle["band"] = [z.real, z.imag], cycle["band"] + 1
    _write_json(path, doc)


def write_trajectory_csv(path, batch):
    """Path and step are 0-based; the fibre j is 1-based."""
    _write(path, ["path", "step", "j", "x"], "%d,%d,%d,%.17g",
           [np.arange(len(batch.j))[:, None], np.arange(batch.j.shape[1]), batch.j, batch.x],
           one_based=(2,))


def write_grid_csv(path, spec, ells, x_res):
    """Full-cylinder samples |f(j) e^{2 pi i k x}| and arguments of the
    eigenfunctions ``ells`` of a labelled spectrum at ``x_res`` points per
    circle.  The labels pass the label rule (DimensionMismatch), x_res the
    count rule with a least value of 1 (ConfigError), and the (ell, j, x)
    table the size rule (ConfigError), all of model."""
    ells = _check_labels(spec.model, ells)
    x_res = _check_count(x_res, 1, "x_res", ConfigError)
    _check_layout((len(ells), spec.model.N, x_res), "x_res", ConfigError)
    f = spec.vectors[:, ells].T[:, :, None]                 # (ell, j, 1)
    # k x mod 1 at x = i / x_res, reduced exactly in integers before any rounding
    e = np.exp(2j * np.pi * ((spec.k % x_res) * np.arange(x_res) % x_res / x_res))
    real = f.real * e.real - f.imag * e.imag
    imag = f.real * e.imag + f.imag * e.real
    _write(path, ["ell", "j", "x", "abs", "arg"], "%d,%d,%.17g,%.17g,%.17g",
           [(np.asarray(ells) + 1)[:, None, None], _labels(f.shape[1])[:, None],
            np.arange(x_res) / x_res, _abs(f), np.arctan2(imag, real)])


def write_admissibility_json(path, report):
    """The report's fields in order, then ``passed``; non-finite floats are
    written as null, since strict JSON has no such numbers."""
    doc = {key: None if isinstance(v, float) and not math.isfinite(v) else v
           for key, v in asdict(report).items()}
    _write_json(path, {**doc, "passed": report.passed})
