"""Closed-form eigendata for the Laplacian generator.

Each band block of the Laplacian's limit matrix is the tridiagonal Toeplitz
matrix (W x)_i = (x_{i-1} - 2 x_i + x_{i+1}) / 2 with a ghost value beyond
each end: the end value where the end reflects (a global end of the stencil,
on top in band 0 and at the bottom in band S - 1; diagonal -1/2), zero where
it absorbs (a band boundary, whose coupling the limit drops; diagonal -1).
x_i = cos(theta (i - 1/2)) meets a reflecting top end and x_i = sin(theta i)
an absorbing one, either with eigenvalue rho = -1 + cos(theta), and the
bottom end quantises theta: with r reflecting ends,

    theta_m = (m - r/2) pi / (L + 1 - r/2),    m = 1..L.

theta rises through [0, pi), so rho descends in m (the label order of
:func:`rotor_spectra.zero_noise.limit_eigenbasis`) and each column's first
entry, cos(theta/2) or sin(theta), is positive, as that function's sign gauge
has it.  The closed forms are an oracle independent of the numerical limit
basis; every pair is certified by its residual against the assembled limit
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MismatchBeyondTolerance, NotLaplacian
from .model import BandModel, NoiseGenerator, _freeze, check_dimension, laplacian_generator
from .zero_noise import (LimitBasis, _band_basis, assemble_limit_matrix, limit_eigenbasis,
                         projective_distance)

#: the case label of a band block, by whether its (top, bottom) end reflects
CASES = {(True, False): "first", (False, False): "interior", (False, True): "last",
         (True, True): "single"}

#: largest eigenvalue difference and projective vector distance the cross-check accepts
ORACLE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Per-label comparison of the closed-form and the numerical limit basis.

    Its inputs are the two bases; derived from them once are each label's
    closed-form pair's ``residual`` against the limit matrix assembled from
    ``numeric``'s model, generator and k, the eigenvalue difference
    ``abs_diff`` and the projective vector distance ``vec_proj_dist``.
    """

    closed: LimitBasis
    numeric: LimitBasis
    residual: np.ndarray = field(init=False)
    abs_diff: np.ndarray = field(init=False)
    vec_proj_dist: np.ndarray = field(init=False)

    def __post_init__(self):
        numeric, f, lam = self.numeric, self.closed.vectors, self.closed.lambda_hat
        # one expression, so the limit matrix is freed before the norm's temporaries
        residual = np.linalg.norm(
            assemble_limit_matrix(numeric.model, numeric.gen, numeric.k) @ f - lam * f, axis=0)
        vdist = [projective_distance(f[:, i], numeric.vectors[:, i]) for i in range(len(lam))]
        for name, value in dict(residual=residual, abs_diff=np.abs(lam - numeric.lambda_hat),
                                vec_proj_dist=np.array(vdist)).items():
            object.__setattr__(self, name, _freeze(value))

    @property
    def case(self) -> tuple[str, ...]:
        model = self.closed.model
        return tuple(CASES[s == 0, s == model.S - 1] for s in model.band_index.tolist())

    @property
    def max_abs_diff(self) -> float:
        return float(np.max(self.abs_diff))

    @property
    def max_vec_dist(self) -> float:
        return float(np.max(self.vec_proj_dist))


def _block_closed_form(L: int, top: bool, bottom: bool):
    """Eigenvalues rho (descending) and unit eigenvectors of one band block
    whose top and bottom ends reflect as flagged (module docstring)."""
    r = top + bottom
    theta = (np.arange(1, L + 1) - r / 2) * np.pi / (L + 1 - r / 2)
    i = np.arange(1, L + 1)[:, None]
    vec = np.cos(theta * (i - 0.5)) if top else np.sin(theta * i)
    return -1.0 + np.cos(theta), vec / np.linalg.norm(vec, axis=0)


def closed_form_eigendata(model: BandModel, k: int) -> LimitBasis:
    """All N closed-form pairs for the Laplacian generator, as a limit basis of
    ``laplacian_generator(model.N)`` (DimensionTooSmall for a one-fibre model).

    Labels, band support and sign gauge are those of
    :func:`rotor_spectra.zero_noise.limit_eigenbasis`;
    :func:`oracle_crosscheck` certifies each pair by its residual against the
    assembled limit matrix.
    """
    return _band_basis(model, laplacian_generator(model.N), k,
                       (_block_closed_form(model.L[s], s == 0, s == model.S - 1)
                        for s in range(model.S)))


def oracle_crosscheck(model: BandModel, gen: NoiseGenerator, k: int) -> OracleReport:
    """Compare closed-form against numerical limit eigendata.

    Raises DimensionMismatch unless ``gen`` has the model's size, NotLaplacian
    unless it is exactly the central-difference stencil, and
    MismatchBeyondTolerance when a closed-form pair's residual against the
    assembled limit matrix, or any eigenvalue or (projective) eigenvector
    discrepancy, exceeds ``ORACLE_TOL``.
    """
    check_dimension(model, gen)
    if not np.array_equal(gen.wdot, laplacian_generator(model.N).wdot):
        raise NotLaplacian("closed forms require the central-difference Laplacian generator")
    report = OracleReport(closed=closed_form_eigendata(model, k),
                          numeric=limit_eigenbasis(model, gen, k))
    worst = float(np.max(report.residual))
    if max(worst, report.max_abs_diff, report.max_vec_dist) > ORACLE_TOL:
        raise MismatchBeyondTolerance(
            f"oracle mismatch at k={k}: max closed-form residual {worst:.3e}, "
            f"max eigenvalue diff {report.max_abs_diff:.3e}, "
            f"max vector distance {report.max_vec_dist:.3e} (tol {ORACLE_TOL:.1e})")
    return report
