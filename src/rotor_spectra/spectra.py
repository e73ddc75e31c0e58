"""Fourier-block matrices and their labelled complex eigenspectra.

The transfer operator acts on circular Fourier mode k through the N x N
matrix D_{k,alpha} W_eps, with D_{k,alpha} = Diag(exp(-2 pi i k alpha_j)).
Eigenvalues are labelled by their nearest band phase exp(-2 pi i k beta_s),
band s taking L_s of them, and validated against the Gershgorin radius.
Uniform fibre noise of radius delta only rescales mode-k eigenvalues by
sin(2 pi k delta) / (2 pi k delta); eigenvectors are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousLabelling, InvalidMatrix, NoConvergence
from .model import BandModel, NoiseGenerator, _freeze, w_epsilon

#: relative eigensolver residual ||A v - lambda v|| / ||A||_2 a converged pair meets
RESIDUAL_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class FourierBlock:
    """The matrix D_{k,alpha} W_eps for one Fourier index k."""

    k: int
    eps: float
    matrix: np.ndarray
    model: BandModel
    gen: NoiseGenerator


@dataclass(frozen=True, eq=False)
class EigResult:
    """Raw eigenpairs with per-pair residuals ||A v - lambda v||."""

    values: np.ndarray
    vectors: np.ndarray          # column i pairs with values[i], unit norm
    residuals: np.ndarray
    converged: np.ndarray        # residual <= RESIDUAL_TOL * ||A||_2


@dataclass(frozen=True, eq=False)
class LabelledSpectrum:
    """Eigenpairs ordered by label ell: lam[ell] -> target[ell] as eps -> 0.

    Within each band, members are ordered by descending Re(lam * conj(e_s)),
    e_s the band phase: about 1 + eps*rho, so the order of descending rho of
    the limit basis.  Vectors are
    unit norm with the largest-magnitude entry made real positive.  When a
    delta factor was applied, ``sinc`` records it and both ``lam`` and
    ``target`` carry the scaling.
    """

    k: int
    eps: float
    delta: float
    sinc: float
    lam: np.ndarray
    target: np.ndarray
    vectors: np.ndarray          # column ell
    residual: np.ndarray
    band: np.ndarray
    gersh_radius: float


def assemble_fourier_block(model: BandModel, gen: NoiseGenerator, k: int, eps: float) -> FourierBlock:
    """Build D_{k,alpha} (Id + eps*Wdot)."""
    w = w_epsilon(gen, eps)
    phases = model.phases(k)[model.band_index]
    return FourierBlock(k=int(k), eps=float(eps), matrix=_freeze(phases[:, None] * w),
                        model=model, gen=gen)


def eig_dense_complex(matrix: np.ndarray) -> EigResult:
    """Dense non-Hermitian eigendecomposition with residual certificates.

    Delegates to the platform solver (LAPACK via numpy); the contract is only
    the relative residual bound ``RESIDUAL_TOL``, reported per pair in
    ``converged``.  Raises NoConvergence if the QR iteration fails outright.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"need a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    residuals = np.linalg.norm(a @ vectors - values[None, :] * vectors, axis=0)
    scale = np.linalg.norm(a, 2)
    converged = residuals <= RESIDUAL_TOL * max(scale, 1e-300)
    return EigResult(values=values, vectors=_freeze(vectors),
                     residuals=_freeze(residuals), converged=_freeze(converged))


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, i])))
        p = out[j, i]
        if p != 0:
            out[:, i] *= np.abs(p) / p
    return out


def gershgorin_bound(gen: NoiseGenerator, eps: float) -> float:
    """Radius 2 * max_j |Wdot_jj| * eps of the eigenvalue inclusion disks."""
    return 2.0 * float(np.max(np.abs(np.diag(gen.wdot)))) * float(eps)


def nearest_assignment(cost: np.ndarray, room) -> np.ndarray:
    """Column of each row, taking the (row, column) pairs cheapest first.

    Each row takes one column, column c at most ``room[c]`` rows; ties go to
    the lower row, then the lower column.  If every row's nearest column has
    room for all the rows that prefer it, each row gets it: that is the
    minimum-cost assignment.
    """
    col, room, flat = [-1] * len(cost), list(room), cost.ravel()
    # every row's nearest pair costs at most ``cut``, so the pairs up to it
    # mostly place every row; dearer pairs are sorted only for rows left over
    cut = cost.min(axis=1).max()
    for part in (flat <= cut, flat > cut):
        pairs = np.flatnonzero(part)
        for pair in pairs[np.argsort(flat[pairs], kind="stable")].tolist():
            r, c = divmod(pair, cost.shape[1])
            if col[r] < 0 and room[c] > 0:
                col[r], room[c] = c, room[c] - 1
        if min(col) >= 0:
            break
    return np.array(col)


def label_spectrum(block: FourierBlock, eig: EigResult) -> LabelledSpectrum:
    """Label raw eigenpairs by their nearest band phase exp(-2 pi i k beta_s).

    Pairs are taken cheapest first, band s holding L_s eigenvalues, and labels
    run by descending Re(lam * conj(e_s)) within band s, e_s its phase (at
    k = 0, descending lam).  With pairwise disjoint band
    Gershgorin disks this is the minimum-cost assignment to the targets, and
    it is validated against the disk radius; AmbiguousLabelling signals eps
    too large for the asymptotic labelling.
    """
    model = block.model
    if not np.all(eig.converged):
        raise NoConvergence(
            f"{int(np.sum(~eig.converged))} eigenpairs exceed the residual tolerance",
            partial=eig)
    phases = model.phases(block.k)
    band = nearest_assignment(np.abs(eig.values[:, None] - phases[None, :]), model.L)
    along = (eig.values * np.conj(phases[band])).real   # about 1 + eps*rho
    order = np.lexsort((-along, band))                  # eigenpair index of label ell
    lam, targets = eig.values[order], phases[model.band_index]

    radius = gershgorin_bound(block.gen, block.eps)
    worst = float(np.max(np.abs(lam - targets)))
    if model.phase_gap(block.k) > 2 * radius and worst > radius * (1 + 1e-8) + 1e-13:
        raise AmbiguousLabelling(
            f"assignment cost {worst:.3e} exceeds Gershgorin radius {radius:.3e} "
            f"at k={block.k}, eps={block.eps}")

    return LabelledSpectrum(
        k=block.k, eps=block.eps, delta=0.0, sinc=1.0,
        lam=_freeze(lam), target=_freeze(targets), residual=_freeze(eig.residuals[order]),
        vectors=_freeze(_phase_fix(eig.vectors[:, order])), band=model.band_index,
        gersh_radius=radius)


def delta_factor(k: int, delta: float) -> float:
    """sin(2 pi k delta) / (2 pi k delta), with the 0/0 limit defined as 1.

    Exactly zero at nonzero integer arguments 2*k*delta, where floating-point
    sin(pi*n) would leave an O(1e-16) remnant.
    """
    x = 2.0 * float(k) * float(delta)
    if x == 0.0:
        return 1.0
    if float(x).is_integer():
        return 0.0
    return math.sin(math.pi * x) / (math.pi * x)


def spectrum(model: BandModel, gen: NoiseGenerator, k: int, eps: float,
             delta: float = 0.0) -> LabelledSpectrum:
    """Labelled spectrum of one Fourier block, with the delta factor applied."""
    block = assemble_fourier_block(model, gen, k, eps)
    spec = label_spectrum(block, eig_dense_complex(block.matrix))
    if delta == 0.0:
        return spec
    s = delta_factor(k, delta)
    return LabelledSpectrum(
        k=spec.k, eps=spec.eps, delta=float(delta), sinc=s,
        lam=_freeze(s * spec.lam), target=_freeze(s * spec.target),
        vectors=spec.vectors, residual=spec.residual, band=spec.band,
        gersh_radius=s * spec.gersh_radius)

