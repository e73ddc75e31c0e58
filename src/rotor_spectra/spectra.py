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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AmbiguousLabelling, DimensionMismatch, NoConvergence
from .model import (BandModel, NoiseGenerator, _check_eps, _check_index, _freeze,
                    _square_matrix, check_delta, check_dimension, spectral_gap, w_epsilon)

#: relative eigensolver residual ||A v - lambda v|| / ||A||_2 a converged pair meets
RESIDUAL_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class EigResult:
    """Raw eigenpairs with per-pair residuals ||A v - lambda v||."""

    values: np.ndarray
    vectors: np.ndarray          # column i pairs with values[i], unit norm
    residuals: np.ndarray
    converged: np.ndarray        # residual <= RESIDUAL_TOL * (a lower bound of ||A||_2)


@dataclass(frozen=True, eq=False)
class LabelledSpectrum:
    """Eigenpairs ordered by label ell: lam[ell] -> target[ell] as eps -> 0.

    Label ell lies in band ``model.band_index[ell]``.  Within each band,
    members are ordered by descending Re(lam * conj(e_s)), e_s the band
    phase: about 1 + eps*rho, so the order of descending rho of the limit
    basis.  Vectors are unit norm with the largest-magnitude entry made real
    positive.  ``sinc`` is the delta factor :func:`spectrum` applied (1.0 for
    none), carried by ``lam``, ``gersh_radius`` and the derived ``target``,
    ``sinc * model.phases(k)[model.band_index]``; eps and delta stay with the caller.
    """

    k: int
    sinc: float
    lam: np.ndarray
    target: np.ndarray = field(init=False)
    vectors: np.ndarray          # column ell
    residual: np.ndarray
    model: BandModel
    gersh_radius: float

    def __post_init__(self):
        phases = self.model.phases(self.k)[self.model.band_index]
        object.__setattr__(self, "target", _freeze(self.sinc * phases))


def _band_diagonal(model: BandModel, centres, x: np.ndarray) -> np.ndarray:
    """Diag(c) x for the fibre diagonal c of the per-band ``centres``: the one
    product through which a band-constant diagonal (band phases, an exact Ulam
    sector's kernel transform) enters a matrix."""
    return np.asarray(centres)[model.band_index][:, None] * x


def assemble_fourier_block(model: BandModel, gen: NoiseGenerator, k: int,
                           eps: float) -> np.ndarray:
    """The read-only matrix D_{k,alpha} (Id + eps*Wdot) of Fourier index k."""
    check_dimension(model, gen)
    w = w_epsilon(gen, eps)
    return _freeze(_band_diagonal(model, model.phases(k), w))


def _certified(residuals, scale):
    """The eigenpair certificate: each residual ||A v - lambda v|| (unit v) at
    most RESIDUAL_TOL times ``scale``, which is ||A||_2 or a lower bound of it."""
    return residuals <= RESIDUAL_TOL * max(scale, 1e-300)


def eig_dense_complex(matrix: np.ndarray) -> EigResult:
    """Dense non-Hermitian eigendecomposition with residual certificates.

    Delegates to the platform solver (LAPACK via numpy); the contract is only
    the relative residual bound ``RESIDUAL_TOL``, reported per pair in
    ``converged``.  Its scale is the larger of the largest column 2-norm and
    the spectral radius: both bound ||A||_2 from below, and neither needs an
    SVD.  The matrix passes the generator's rule, model._square_matrix
    (InvalidMatrix), read as complex.  Raises NoConvergence if the QR
    iteration fails outright.
    """
    a = _square_matrix(matrix, complex, "matrix")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    residuals = np.linalg.norm(a @ vectors - values[None, :] * vectors, axis=0)
    scale = max(np.linalg.norm(a, axis=0).max(), np.abs(values).max())
    converged = _certified(residuals, scale)
    return EigResult(values=values, vectors=_freeze(vectors),
                     residuals=_freeze(residuals), converged=_freeze(converged))


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive (the
    first such entry where moduli tie; a zero column stays zero), as a C-order
    copy."""
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    phase = np.divide(np.abs(top), top, out=np.ones_like(top), where=top != 0)
    return np.multiply(vectors, phase, order="C")


def gershgorin_bound(gen: NoiseGenerator, eps: float) -> float:
    """Radius 2 * max_j |Wdot_jj| * eps of the eigenvalue inclusion disks;
    eps scales the diagonal first, so a finite radius cannot overflow.  eps
    passes the noise-level rule of w_epsilon (model._check_eps: EpsOutOfRange
    unless finite and >= 0)."""
    _check_eps(eps)
    return 2.0 * (float(np.max(np.abs(np.diag(gen.wdot)))) * float(eps))


def nearest_assignment(cost: np.ndarray, room) -> np.ndarray:
    """Column of each row, taking the (row, column) pairs cheapest first.

    Each row takes one column, column c at most ``room[c]`` rows (rows left
    when the room runs out keep -1); ties go to the lower row, then the
    lower column.  If every row's nearest column has
    room for all the rows that prefer it, each row gets it: that is the
    minimum-cost assignment.
    """
    col, room, unplaced = [-1] * len(cost), list(room), len(cost)
    for pair in np.argsort(cost, axis=None, kind="stable").tolist():
        r, c = divmod(pair, cost.shape[1])
        if col[r] < 0 and room[c] > 0:
            col[r], room[c], unplaced = c, room[c] - 1, unplaced - 1
            if not unplaced:
                break
    return np.array(col)


def label_spectrum(model: BandModel, gen: NoiseGenerator, k: int, eps: float,
                   eig: EigResult) -> LabelledSpectrum:
    """Label the eigenpairs ``eig`` of the block D_{k,alpha} W_eps by their
    nearest band phase exp(-2 pi i k beta_s).

    Pairs are taken cheapest first, band s holding L_s eigenvalues, and labels
    run by descending Re(lam * conj(e_s)) within band s, e_s its phase (at
    k = 0, descending lam).  With pairwise disjoint band
    Gershgorin disks this is the minimum-cost assignment to the targets, and
    it is validated against the disk radius; where the disks overlap (large
    eps) the check is skipped.  For a generator with zero row sums and
    nonnegative off-diagonals (validate's stochastic item), row j's Gershgorin
    disk lies in the disk of radius 2 eps |Wdot_jj| about its band phase, so
    each disjoint band disk holds its L_s eigenvalues (Gershgorin's theorem)
    and the check holds up to rounding.  AmbiguousLabelling therefore signals
    a generator outside that item, such as one with a zero diagonal, whose
    radius is 0.  A generator or an ``eig`` not of the model's size N raises
    DimensionMismatch.
    """
    check_dimension(model, gen)
    if eig.values.shape != (model.N,):
        raise DimensionMismatch(f"{eig.values.size} eigenpairs for a model of N={model.N}")
    if not np.all(eig.converged):
        raise NoConvergence(
            f"{int(np.sum(~eig.converged))} eigenpairs exceed the residual tolerance",
            partial=eig)
    phases = model.phases(k)
    band = nearest_assignment(np.abs(eig.values[:, None] - phases[None, :]), model.L)
    along = (eig.values * np.conj(phases[band])).real   # about 1 + eps*rho
    order = np.lexsort((-along, band))                  # eigenpair index of label ell
    lam, targets = eig.values[order], phases[model.band_index]

    radius = gershgorin_bound(gen, eps)
    worst = float(np.max(np.abs(lam - targets)))
    if spectral_gap([phases])[0] > 2 * radius and worst > radius * (1 + 1e-8) + 1e-13:
        raise AmbiguousLabelling(
            f"assignment cost {worst:.3e} exceeds Gershgorin radius {radius:.3e} "
            f"at k={k}, eps={eps}")

    return LabelledSpectrum(
        k=int(k), sinc=1.0, lam=_freeze(lam), residual=_freeze(eig.residuals[order]),
        vectors=_freeze(_phase_fix(eig.vectors[:, order])), model=model,
        gersh_radius=radius)


def delta_factor(k: int, delta: float) -> float:
    """sin(2 pi k delta) / (2 pi k delta), with the 0/0 limit defined as 1.

    Exactly zero at nonzero integer arguments 2*k*delta, where floating-point
    sin(pi*n) would leave an O(1e-16) remnant, and where 2*k*delta overflows:
    delta is then an integer, so 2*k*delta is an even one.  k must pass the
    Fourier-index rule of BandModel.phases (ConfigError), and delta
    model.check_delta.
    """
    _check_index(k)
    check_delta(delta)
    x = 2.0 * float(k) * float(delta)
    if x == 0.0:
        return 1.0
    if math.isinf(x) or x.is_integer():
        return 0.0
    return math.sin(math.pi * x) / (math.pi * x)


def spectrum(model: BandModel, gen: NoiseGenerator, k: int, eps: float,
             delta: float = 0.0) -> LabelledSpectrum:
    """Labelled spectrum of one Fourier block, with the delta factor applied."""
    eig = eig_dense_complex(assemble_fourier_block(model, gen, k, eps))
    spec = label_spectrum(model, gen, k, eps, eig)
    s = delta_factor(k, delta)
    return replace(spec, sinc=s, lam=_freeze(s * spec.lam), gersh_radius=s * spec.gersh_radius)

