"""The limiting eigenproblem of the zero-noise limit.

As eps -> 0, the mode-k eigenvalues cluster at the band phases
exp(-2 pi i k beta_s) and the eigenvectors converge (projectively) to an
orthonormal basis of the block-diagonal matrix D_{k,beta,L} What_L, whose
block s is the band phase times the real symmetric band block What_s of
Wdot.  The limit vectors are therefore real up to a global phase and exactly
band-supported.

Convergence claims require the band phases to be pairwise distinct at this
Fourier index (the per-k slice of the incommensurability set); when they
coincide the functions here refuse rather than assert.  A per-k pass does
not certify the full all-k condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlock, DimensionMismatch, GammaViolated, InvalidEpsGrid, ZeroVector
from .model import (BandModel, NoiseGenerator, _freeze, _real, check_dimension,
                    sorted_eigenbasis, spectral_gap)
from .spectra import _band_diagonal, spectrum


@dataclass(frozen=True, eq=False)
class LimitBasis:
    """Orthonormal limiting eigenbasis, band-supported with exact zeros, of
    the generator ``gen`` on ``model``.

    Column ell of ``vectors`` is the real unit vector for label ell, on the
    fibres of band s = ``model.band_index[ell]``; its eigenvalue is
    lambda_hat[ell] = exp(-2 pi i k beta_s) * rho with rho <= 0.  Within each
    band, labels are ordered by descending rho, matching the band-internal
    order of the finite-eps labelled spectrum.
    """

    k: int
    lambda_hat: np.ndarray
    vectors: np.ndarray
    model: BandModel
    gen: NoiseGenerator


def check_gamma(model: BandModel, k: int) -> bool:
    """True iff the band phases exp(-2 pi i k beta_s) are pairwise distinct.

    Distinctness is the simple-spectrum rule
    :func:`rotor_spectra.model.spectral_gap` applied to the phases: phases no
    more than ``GAP_TOL`` apart count as equal.  Always true for a single
    band; always false for k = 0 with S > 1.
    """
    return spectral_gap([model.phases(k)])[2]


def assemble_limit_matrix(model: BandModel, gen: NoiseGenerator, k: int) -> np.ndarray:
    """The dense limit matrix D_{k,beta,L} What_L at k: off-band couplings
    dropped (exact +0), block s equal to exp(-2 pi i k beta_s) * What_s."""
    check_dimension(model, gen)
    same_band = model.band_index[:, None] == model.band_index
    return _freeze(np.where(same_band, _band_diagonal(model, model.phases(k), gen.wdot), 0))


def _band_basis(model: BandModel, gen: NoiseGenerator, k: int, blocks) -> LimitBasis:
    """The limit basis at k of ``blocks``, the band blocks of ``gen``: one
    eigenbasis (rho, v) per band in band order, rho descending and v real unit.
    lambda_hat is the fibre phase times rho, and each v sits on its band's
    fibres, exact zeros elsewhere."""
    vectors = np.zeros((model.N, model.N))
    rhos = []
    for s, (rho, v) in enumerate(blocks):
        sl = model.band_slice(s)
        vectors[sl, sl] = v
        rhos.append(rho)
    lam_hat = model.phases(k)[model.band_index] * np.concatenate(rhos)
    return LimitBasis(k=int(k), lambda_hat=_freeze(lam_hat), vectors=_freeze(vectors),
                      model=model, gen=gen)


def limit_eigenbasis(model: BandModel, gen: NoiseGenerator, k: int) -> LimitBasis:
    """Solve each real symmetric band block and embed into fibre coordinates.

    Vectors are kept real and sign-gauged; the unitary band phase multiplies
    only the eigenvalue.  Raises DegenerateBlock unless the block spectra are
    simple by the rule admissibility applies (:func:`rotor_spectra.model.spectral_gap`)
    to the same solves (:func:`rotor_spectra.model.sorted_eigenbasis`).
    """
    check_dimension(model, gen)
    blocks = [sorted_eigenbasis(gen.wdot[sl, sl]) for sl in map(model.band_slice, range(model.S))]
    gap, radius, simple = spectral_gap([rho for rho, _ in blocks])
    if not simple:
        raise DegenerateBlock(f"the band-block spectra are not simple: eigenvalue gap "
                              f"{gap:.3e} is not above GAP_TOL times the spectral "
                              f"radius {radius:.3e}")
    return _band_basis(model, gen, k, blocks)


def limit_basis(model: BandModel, gen: NoiseGenerator, k: int) -> LimitBasis:
    """The limit eigenbasis at k, from the band blocks (no dense limit matrix).

    The band phases must be pairwise distinct at this k, otherwise
    GammaViolated is raised (no convergence claim exists there).
    """
    if not check_gamma(model, k):
        raise GammaViolated(f"band phases coincide at k={k}")
    return limit_eigenbasis(model, gen, k)


def _line_distances(u, v, gap):
    """(projective distance, projector gap) of the lines through u and v, the
    gap None unless ``gap``, from one check, normalisation and inner product.

    ZeroVector if either vector is zero, DimensionMismatch if their lengths
    differ.
    """
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    if u.shape != v.shape:
        raise DimensionMismatch(f"vectors of lengths {u.size} and {v.size} span no common space")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ZeroVector("the line through the zero vector is undefined")
    u, v = u / nu, v / nv
    ip = np.vdot(v, u)           # <u, v>
    dist = np.sqrt(2.0) if abs(ip) == 0.0 else np.linalg.norm(u - (ip / abs(ip)) * v)
    return float(dist), float(min(1.0, np.linalg.norm(u - ip * v))) if gap else None


def projective_distance(u, v) -> float:
    """Phase-minimised distance between the complex lines through u and v.

    Equals sqrt(2 - 2|<u, v>|) for unit vectors, but is evaluated as the
    norm of the optimally phase-aligned difference: the cosine form
    quantises at sqrt(2 eps_machine) ~ 2e-8 while this stays accurate to
    machine precision near zero.  ZeroVector for a zero vector,
    DimensionMismatch for vectors of different lengths.
    """
    return _line_distances(u, v, gap=False)[0]


def projector_gap(f_eps, f_limit) -> float:
    """Operator-norm distance of the rank-1 orthogonal projectors onto two lines.

    sqrt(1 - |<u, v>|^2) for unit vectors, evaluated as the norm of the
    component of u orthogonal to v for accuracy near zero.  ZeroVector for a
    zero vector, DimensionMismatch for vectors of different lengths.
    """
    return _line_distances(f_eps, f_limit, gap=True)[1]


def _eps_points(eps_grid) -> list[float]:
    """The points of an eps grid as floats, the one conversion of
    spectrum_convergence and response.check_eps_grid: InvalidEpsGrid unless
    the grid is a sequence of real numbers (model._real: a string or a bool is
    none) within the float range."""
    points = list(eps_grid) if np.iterable(eps_grid) else None
    if points is None or not all(map(_real, points)):
        raise InvalidEpsGrid(f"an eps grid is a sequence of real numbers, got {eps_grid!r}")
    try:
        return [float(e) for e in points]
    except OverflowError as exc:
        raise InvalidEpsGrid(f"an eps grid point lies beyond the float range: {exc}") from exc


def spectrum_convergence(basis: LimitBasis, eps_list):
    """Convergence of finite-eps eigendata to the limit basis.

    The model, generator and Fourier index are the basis's own.  Returns one row
    (k, ell, eps, proj_distance, projector_gap, mass_outside) per label and
    eps, with labels paired through the shared ordering convention
    (band-internal descending rho).  InvalidEpsGrid, before any solve,
    unless every eps is a positive real number: at eps = 0 each band's
    eigenvalue is L_s-fold, so the solver's vectors are an arbitrary basis
    of its eigenspace.
    """
    model, gen, k = basis.model, basis.gen, basis.k
    eps_list = _eps_points(eps_list)
    if not all(eps > 0 for eps in eps_list):
        raise InvalidEpsGrid(f"convergence eps points must be positive, got {eps_list}")
    rows = []
    for eps in eps_list:
        spec = spectrum(model, gen, k, eps)
        mass = support_mass_outside_band(spec).tolist()
        for ell in range(model.N):
            rows.append((k, ell, eps,
                         *_line_distances(spec.vectors[:, ell], basis.vectors[:, ell], gap=True),
                         mass[ell]))
    return rows


def support_mass_outside_band(spec) -> np.ndarray:
    """Per-label squared mass outside the label's own band, for a labelled
    spectrum or a limit basis: column ell of ``spec.vectors`` against band
    ``spec.model.band_index[ell]``."""
    vec, model = np.asarray(spec.vectors), spec.model
    # row ell is |column ell|^2 in contiguous memory, so each row sum adds
    # the terms of one column in the order a sum of that column alone does
    mass = np.ascontiguousarray((np.abs(vec) ** 2).T)
    out = np.empty(vec.shape[1])
    for s in range(model.S):
        labels = model.band_slice(s)
        own = mass[labels]
        # summed directly so exact zeros outside the band give exactly 0
        out[labels] = np.delete(own, labels, axis=1).sum(axis=1) / own.sum(axis=1)
    return out
