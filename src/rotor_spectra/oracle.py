"""Closed-form eigendata for the Laplacian generator.

For the central-difference Laplacian stencil, each band block of the limit
matrix is a tridiagonal Toeplitz matrix with known cosine eigenvalues and
sine eigenvectors: the first block sees a reflecting top end and an absorbing
bottom end, interior blocks are absorbing on both ends, and the last block
mirrors the first.  These closed forms act as an exact independent oracle for
the numerical limit basis.

Index conventions of the eigenvector formulas were fixed by residual-testing
the candidate conventions on small blocks; every returned pair is certified
by its residual against the assembled limit matrix.  The single-band case
(reflecting at both ends) has no closed form here and falls back to a
numerical solve, flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MismatchBeyondTolerance, NotLaplacian
from .model import BandModel, NoiseGenerator, _freeze, laplacian_generator
from .zero_noise import (assemble_limit_matrix, limit_eigenbasis, projective_distance,
                         sign_gauge, sorted_eigenbasis)

CASE_FIRST = "first"
CASE_INTERIOR = "interior"
CASE_LAST = "last"
CASE_FALLBACK = "fallback"

#: largest eigenvalue difference and projective vector distance the cross-check accepts
ORACLE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ClosedFormEigen:
    """Closed-form limit eigendata, ordered like the numerical limit basis."""

    k: int
    lambda_hat: np.ndarray
    vectors: np.ndarray
    band: np.ndarray
    case: tuple[str, ...]
    residual: np.ndarray
    model: BandModel


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Per-label comparison between closed-form and numerical eigendata."""

    k: int
    band: np.ndarray
    case: tuple[str, ...]
    lhat_closed: np.ndarray
    lhat_numeric: np.ndarray
    abs_diff: np.ndarray
    vec_proj_dist: np.ndarray

    @property
    def max_abs_diff(self) -> float:
        return float(np.max(self.abs_diff))

    @property
    def max_vec_dist(self) -> float:
        return float(np.max(self.vec_proj_dist))


def _block_closed_form(L: int, case: str):
    """Eigenvalues rho (descending) and sine eigenvectors of one band block."""
    m = np.arange(1, L + 1)
    i = np.arange(1, L + 1)
    if case == CASE_INTERIOR:
        rho = -1.0 + np.cos(m * np.pi / (L + 1))
        vec = np.sin(np.outer(i, m) * np.pi / (L + 1))
    elif case == CASE_FIRST:
        rho = -1.0 + np.cos((2 * m - 1) * np.pi / (2 * L + 1))
        vec = np.sin(np.outer(L + 1 - i, 2 * m - 1) * np.pi / (2 * L + 1))
    elif case == CASE_LAST:
        rho = -1.0 + np.cos((2 * m - 1) * np.pi / (2 * L + 1))
        vec = np.sin(np.outer(i, 2 * m - 1) * np.pi / (2 * L + 1))
    else:
        raise ValueError(case)
    vec = vec / np.linalg.norm(vec, axis=0, keepdims=True)
    # rho is already descending in m for every case
    return rho, vec


def closed_form_eigendata(model: BandModel, k: int) -> ClosedFormEigen:
    """All N closed-form pairs for the Laplacian generator, band-supported.

    Within each band, labels are ordered by descending rho like
    :func:`rotor_spectra.zero_noise.limit_eigenbasis`.  Residuals are measured
    against the assembled limit matrix and certify each pair.
    """
    gen = laplacian_generator(model.N)
    lam_hat = np.zeros(model.N, dtype=complex)
    vectors = np.zeros((model.N, model.N))
    cases: list[str] = []
    if model.S == 1:
        # reflecting at both ends: no closed form, numerical fallback
        rho, v = sorted_eigenbasis(gen.wdot)
        lam_hat[:] = model.phases(k)[0] * rho
        vectors[:, :] = v
        cases = [CASE_FALLBACK] * model.N
    else:
        for s in range(model.S):
            sl = model.band_slice(s)
            case = CASE_FIRST if s == 0 else CASE_LAST if s == model.S - 1 else CASE_INTERIOR
            rho, v = _block_closed_form(model.L[s], case)
            lam_hat[sl] = model.phases(k)[s] * rho
            vectors[sl, sl] = v
            cases += [case] * model.L[s]
        vectors = sign_gauge(vectors)
    phat = assemble_limit_matrix(model, gen, k).phat
    residual = np.linalg.norm(phat @ vectors - lam_hat[None, :] * vectors, axis=0)
    return ClosedFormEigen(k=int(k), lambda_hat=_freeze(lam_hat), vectors=_freeze(vectors),
                           band=model.band_index, case=tuple(cases),
                           residual=_freeze(residual), model=model)


def oracle_crosscheck(model: BandModel, gen: NoiseGenerator, k: int) -> OracleReport:
    """Compare closed-form against numerical limit eigendata.

    Raises NotLaplacian unless ``gen`` is exactly the central-difference
    stencil, and MismatchBeyondTolerance when any eigenvalue or (projective)
    eigenvector discrepancy exceeds ``ORACLE_TOL``.
    """
    ref = laplacian_generator(model.N)
    if gen.N != model.N or not np.array_equal(gen.wdot, ref.wdot):
        raise NotLaplacian("closed forms require the central-difference Laplacian generator")
    closed = closed_form_eigendata(model, k)
    numeric = limit_eigenbasis(assemble_limit_matrix(model, gen, k))
    diff = np.abs(closed.lambda_hat - numeric.lambda_hat)
    vdist = np.array([projective_distance(closed.vectors[:, i], numeric.vectors[:, i])
                      for i in range(model.N)])
    report = OracleReport(k=int(k), band=model.band_index, case=closed.case,
                          lhat_closed=closed.lambda_hat, lhat_numeric=numeric.lambda_hat,
                          abs_diff=_freeze(diff), vec_proj_dist=_freeze(vdist))
    if report.max_abs_diff > ORACLE_TOL or report.max_vec_dist > ORACLE_TOL:
        raise MismatchBeyondTolerance(
            f"oracle mismatch at k={k}: max eigenvalue diff {report.max_abs_diff:.3e}, "
            f"max vector distance {report.max_vec_dist:.3e} (tol {ORACLE_TOL:.1e})")
    return report
