"""Banded rotation models and admissible noise families.

The phase space is {1..N} x S^1: N circular fibres, fibre j rotating by
alpha_j revolutions per time step.  Fibres are grouped into S contiguous
bands of widths L_1..L_S with pairwise distinct band speeds beta_1..beta_S.
Noise couples fibres through the symmetric random-walk family
W_eps = Id + eps * Wdot.

All indices are 0-based inside the library; CSV outputs use 1-based indices.
All container types are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, DimensionTooSmall, DuplicateSpeed, EmptyBand,
                     EpsOutOfRange, InvalidMatrix, InvalidSpeeds, NonBandable)

#: largest symmetry, row-sum and negative off-diagonal defect of an admissible generator
DEFECT_TOL = 1e-12
#: a spectrum counts as simple when every eigenvalue gap exceeds this times
#: its spectral radius (admissibility, and the band blocks of the limit basis)
GAP_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class BandModel:
    """S-banded speed profile: alpha_j = beta[s] on band s.

    ``cum`` holds the cumulative offsets (0 = N_0 < N_1 < ... < N_S = N);
    band s occupies indices ``cum[s]:cum[s+1]``.
    """

    beta: tuple[float, ...]
    L: tuple[int, ...]
    N: int
    cum: tuple[int, ...]
    alpha: np.ndarray

    @property
    def S(self) -> int:
        return len(self.beta)

    def band_slice(self, s: int) -> slice:
        return slice(self.cum[s], self.cum[s + 1])

    def band_of(self, j: int) -> int:
        """Band index containing fibre j (0-based)."""
        return int(np.searchsorted(np.asarray(self.cum), j, side="right") - 1)

    @property
    def band_index(self) -> np.ndarray:
        """Length-N array mapping fibre index to band index."""
        return _freeze(np.repeat(np.arange(self.S), self.L))

    def phases(self, k: int) -> np.ndarray:
        """Band phases exp(-2 pi i k beta_s); the fibre phases are ``phases(k)[band_index]``."""
        return np.exp(-2j * np.pi * k * np.asarray(self.beta))

    def phase_gap(self, k: int) -> float:
        """Smallest distance between two band phases; inf for one band."""
        phases = self.phases(k)
        gaps = np.abs(phases[:, None] - phases[None, :])
        np.fill_diagonal(gaps, np.inf)
        return float(gaps.min())


@dataclass(frozen=True, eq=False)
class NoiseGenerator:
    """Wraps the symmetric generator Wdot of the family W_eps = Id + eps*Wdot.

    No validity checks happen here; run :func:`validate_admissibility` to test
    the admissibility hypotheses.
    """

    wdot: np.ndarray
    N: int

    @staticmethod
    def from_matrix(wdot) -> "NoiseGenerator":
        w = np.asarray(wdot, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidMatrix(f"generator must be square, got shape {w.shape}")
        return NoiseGenerator(wdot=_freeze(w), N=w.shape[0])

    @property
    def eps_max(self) -> float:
        """Largest eps keeping all entries of Id + eps*Wdot inside [0, 1]."""
        m = float(np.max(np.abs(np.diag(self.wdot))))
        return math.inf if m == 0.0 else 1.0 / m


@dataclass(frozen=True)
class AdmissibilityReport:
    """Measured defects and per-hypothesis verdicts for a generator.

    ``item_stochastic`` covers symmetry, nonnegative off-diagonals and zero
    row sums; ``item_distinct_full`` / ``item_distinct_blocks`` cover simple
    spectra of Wdot and of each band block.
    """

    row_sum_defect: float
    symmetry_defect: float
    min_offdiag: float
    min_eigen_gap_full: float
    min_eigen_gap_blocks: float
    eps_max: float
    item_stochastic: bool
    item_distinct_full: bool
    item_distinct_blocks: bool

    @property
    def passed(self) -> bool:
        return self.item_stochastic and self.item_distinct_full and self.item_distinct_blocks


def build_band_model(beta, L) -> BandModel:
    """Assemble a BandModel from band speeds and widths.

    Speeds are compared exactly (they are model inputs, not measurements).
    """
    beta = tuple(float(b) for b in beta)
    L = tuple(int(x) for x in L)
    if len(beta) != len(L):
        raise DimensionMismatch(f"beta and L length mismatch: {len(beta)} vs {len(L)}")
    if len(beta) == 0:
        raise EmptyBand("model needs at least one band")
    if any(x < 1 for x in L):
        raise EmptyBand(f"band widths must be >= 1, got {L}")
    if len(set(beta)) != len(beta):
        raise DuplicateSpeed(f"band speeds must be pairwise distinct, got {beta}")
    cum = (0,) + tuple(np.cumsum(L).tolist())
    alpha = np.repeat(beta, L).astype(float)
    return BandModel(beta=beta, L=L, N=int(cum[-1]), cum=cum, alpha=_freeze(alpha))


def detect_bands(alpha) -> BandModel:
    """Group maximal runs of equal speeds into bands.

    Raises NonBandable when a speed recurs in non-adjacent runs, because band
    speeds must be pairwise distinct.  Round-trips with build_band_model.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise InvalidSpeeds("alpha must be a nonempty 1-d array")
    beta, L = [], []
    for v in a:
        if beta and v == beta[-1]:
            L[-1] += 1
        else:
            beta.append(float(v))
            L.append(1)
    if len(set(beta)) != len(beta):
        raise NonBandable(f"speed recurs in non-adjacent runs: {beta}")
    return build_band_model(beta, L)


def laplacian_generator(N: int) -> NoiseGenerator:
    """Central-difference Laplacian stencil with reflecting ends.

    Tridiagonal with diagonal (-1/2, -1, ..., -1, -1/2) and off-diagonals 1/2.
    """
    if N < 2:
        raise DimensionTooSmall(f"laplacian generator needs N >= 2, got {N}")
    w = np.diag(np.full(N, -1.0)) + 0.5 * (np.eye(N, k=1) + np.eye(N, k=-1))
    w[0, 0] = -0.5
    w[N - 1, N - 1] = -0.5
    return NoiseGenerator(wdot=_freeze(w), N=N)


def validate_admissibility(gen: NoiseGenerator, model: BandModel) -> AdmissibilityReport:
    """Check the three admissibility hypotheses; failures are reported, not raised.

    Stochasticity allows defects up to ``DEFECT_TOL``; distinctness needs
    every eigenvalue gap above ``GAP_TOL`` times the spectral radius of the
    matrix under test.
    """
    if gen.N != model.N:
        raise DimensionMismatch(f"generator dimension {gen.N} != model dimension {model.N}")
    w = gen.wdot
    sym = float(np.max(np.abs(w - w.T))) if w.size else 0.0
    row = float(np.max(np.abs(w.sum(axis=1))))
    off = w[~np.eye(gen.N, dtype=bool)]
    min_off = float(off.min()) if off.size else 0.0

    def min_gap(mat):
        ev = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        if ev.size < 2:
            return math.inf, float(np.max(np.abs(ev))) if ev.size else 0.0
        return float(np.min(np.diff(np.sort(ev)))), float(np.max(np.abs(ev)))

    gap_full, rad_full = min_gap(w)
    gap_blocks, rad_blocks = math.inf, 0.0
    for s in range(model.S):
        sl = model.band_slice(s)
        g, r = min_gap(w[sl, sl])
        gap_blocks = min(gap_blocks, g)
        rad_blocks = max(rad_blocks, r)

    item1 = sym <= DEFECT_TOL and row <= DEFECT_TOL and min_off >= -DEFECT_TOL
    item2 = gap_full > GAP_TOL * rad_full
    # width-1 blocks have trivially simple spectra; their min gap stays inf
    item3 = gap_blocks > GAP_TOL * rad_blocks
    return AdmissibilityReport(
        row_sum_defect=row, symmetry_defect=sym, min_offdiag=min_off,
        min_eigen_gap_full=gap_full, min_eigen_gap_blocks=gap_blocks,
        eps_max=gen.eps_max,
        item_stochastic=item1, item_distinct_full=item2, item_distinct_blocks=item3)


def w_epsilon(gen: NoiseGenerator, eps: float) -> np.ndarray:
    """The random-walk matrix Id + eps*Wdot; symmetric doubly stochastic."""
    if eps < 0:
        raise EpsOutOfRange(f"eps must be nonnegative, got {eps}")
    w = np.eye(gen.N) + eps * gen.wdot
    # small slack for accumulated rounding in eps * wdot
    if w.min() < -1e-14 or w.max() > 1.0 + 1e-14:
        raise EpsOutOfRange(
            f"Id + eps*Wdot leaves [0, 1] at eps={eps} "
            f"(entry range [{w.min():.6g}, {w.max():.6g}], eps_max={gen.eps_max:.6g})")
    return w
