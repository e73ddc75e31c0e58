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

from .errors import DegenerateBlock, GammaViolated, ZeroVector
from .model import GAP_TOL, BandModel, NoiseGenerator, _freeze

#: band phases closer than this count as equal (check_gamma)
PHASE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LimitMatrix:
    """D_{k,beta,L} What_L: block s equals exp(-2 pi i k beta_s) * What_s."""

    k: int
    model: BandModel
    gen: NoiseGenerator

    @property
    def phat(self) -> np.ndarray:
        """The dense N x N matrix, built on every read."""
        model = self.model
        phat = np.zeros((model.N, model.N), dtype=complex)
        for s, phase in enumerate(model.phases(self.k)):
            sl = model.band_slice(s)
            phat[sl, sl] = phase * self.gen.wdot[sl, sl]
        return _freeze(phat)


@dataclass(frozen=True, eq=False)
class LimitBasis:
    """Orthonormal limiting eigenbasis, band-supported with exact zeros.

    Column ell of ``vectors`` is the real unit vector for label ell; its
    eigenvalue is lambda_hat[ell] = exp(-2 pi i k beta_s) * rho with rho <= 0.
    Within each band, labels are ordered by descending rho, matching the
    band-internal order of the finite-eps labelled spectrum.
    """

    k: int
    lambda_hat: np.ndarray
    vectors: np.ndarray
    band: np.ndarray
    model: BandModel


def check_gamma(model: BandModel, k: int) -> bool:
    """True iff the band phases exp(-2 pi i k beta_s) are pairwise distinct.

    Distinctness is tested numerically: phases closer than ``PHASE_TOL`` count
    as equal.  Always true for a single band; always false for k = 0 with S > 1.
    """
    return model.phase_gap(k) >= PHASE_TOL


def sign_gauge(vectors) -> np.ndarray:
    """Copy of real ``vectors`` with each column's first nonzero entry positive.

    Entries below 1e-12 of the column's largest magnitude count as zero.
    """
    v = np.array(vectors, dtype=float)
    mag = np.abs(v)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = v[first, np.arange(v.shape[1])] < 0
    v[:, flip] = -v[:, flip]
    return v


def sorted_eigenbasis(sym):
    """Eigenpairs (rho, v) of a real symmetric matrix, rho descending, v sign-gauged."""
    rho, v = np.linalg.eigh(sym)
    order = np.argsort(-rho)
    return rho[order], sign_gauge(v[:, order])


def assemble_limit_matrix(model: BandModel, gen: NoiseGenerator, k: int) -> LimitMatrix:
    """The limit matrix at k: off-band couplings dropped, band blocks phase-scaled."""
    return LimitMatrix(k=int(k), model=model, gen=gen)


def limit_eigenbasis(lim: LimitMatrix) -> LimitBasis:
    """Solve each real symmetric band block and embed into fibre coordinates.

    Vectors are kept real (see :func:`sign_gauge`); the unitary band
    phase multiplies only the eigenvalue.  Raises DegenerateBlock when a block
    eigenvalue gap falls below ``GAP_TOL`` times the block spectral radius.
    """
    model, gen = lim.model, lim.gen
    lam_hat = np.zeros(model.N, dtype=complex)
    vectors = np.zeros((model.N, model.N))
    for s, phase in enumerate(model.phases(lim.k)):
        sl = model.band_slice(s)
        wh = gen.wdot[sl, sl]
        rho, v = sorted_eigenbasis(0.5 * (wh + wh.T))   # rho descending, as the labels
        if len(rho) > 1:
            gap = float(np.min(-np.diff(rho)))
            if gap <= GAP_TOL * float(np.max(np.abs(rho))):
                raise DegenerateBlock(
                    f"band {s} eigenvalue gap {gap:.3e} below tolerance")
        lam_hat[sl] = phase * rho
        vectors[sl, sl] = v
    return LimitBasis(k=lim.k, lambda_hat=_freeze(lam_hat), vectors=_freeze(vectors),
                      band=model.band_index, model=model)


def limit_basis(model: BandModel, gen: NoiseGenerator, k: int) -> LimitBasis:
    """Convenience wrapper: assemble the limit matrix and solve it.

    The band phases must be pairwise distinct at this k, otherwise
    GammaViolated is raised (no convergence claim exists there).
    """
    if model.S > 1 and not check_gamma(model, k):
        raise GammaViolated(f"band phases coincide at k={k}")
    return limit_eigenbasis(assemble_limit_matrix(model, gen, k))


def projective_distance(u, v) -> float:
    """Phase-minimised distance between the complex lines through u and v.

    Equals sqrt(2 - 2|<u, v>|) for unit vectors, but is evaluated as the
    norm of the optimally phase-aligned difference: the cosine form
    quantises at sqrt(2 eps_machine) ~ 2e-8 while this stays accurate to
    machine precision near zero.
    """
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ZeroVector("projective distance of the zero vector is undefined")
    u, v = u / nu, v / nv
    ip = np.vdot(v, u)           # <u, v>
    if abs(ip) == 0.0:
        return float(np.sqrt(2.0))
    return float(np.linalg.norm(u - (ip / abs(ip)) * v))


def projector_gap(f_eps, f_limit) -> float:
    """Operator-norm distance of the rank-1 orthogonal projectors onto two lines.

    sqrt(1 - |<u, v>|^2) for unit vectors, evaluated as the norm of the
    component of u orthogonal to v for accuracy near zero.
    """
    u = np.asarray(f_eps, dtype=complex).ravel()
    v = np.asarray(f_limit, dtype=complex).ravel()
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    r = u - np.vdot(v, u) * v
    return float(min(1.0, np.linalg.norm(r)))


def spectrum_convergence(model: BandModel, gen: NoiseGenerator, k: int, eps_list,
                         basis: LimitBasis | None = None):
    """Convergence of finite-eps eigendata to the limit basis.

    Returns one row (k, ell, eps, proj_distance, projector_gap, mass_outside)
    per label and eps, with labels paired through the shared ordering
    convention (band-internal descending rho).
    """
    from .spectra import spectrum as _spectrum
    if basis is None:
        basis = limit_basis(model, gen, k)
    rows = []
    for eps in eps_list:
        spec = _spectrum(model, gen, k, eps)
        mass = support_mass_outside_band(spec, model)
        for ell in range(model.N):
            rows.append((k, ell, float(eps),
                         projective_distance(spec.vectors[:, ell], basis.vectors[:, ell]),
                         projector_gap(spec.vectors[:, ell], basis.vectors[:, ell]),
                         float(mass[ell])))
    return rows


def support_mass_outside_band(spec, model: BandModel) -> np.ndarray:
    """Per-label squared mass outside the label's own band.

    Accepts any object exposing unit-norm columns ``vectors`` and a per-label
    ``band`` array (labelled spectra and limit bases both qualify).
    """
    vec = np.asarray(spec.vectors)
    band = np.asarray(spec.band)
    out = np.empty(vec.shape[1])
    for ell in range(vec.shape[1]):
        outside = np.ones(vec.shape[0], dtype=bool)
        outside[model.band_slice(int(band[ell]))] = False
        # summed directly so exact zeros outside the band give exactly 0
        out[ell] = float(np.sum(np.abs(vec[outside, ell]) ** 2)) \
            / float(np.sum(np.abs(vec[:, ell]) ** 2))
    return out
