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

import itertools
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import (ConfigError, DimensionMismatch, DimensionTooSmall, DuplicateSpeed,
                     EmptyBand, EpsOutOfRange, InvalidMatrix, InvalidSimulationInput,
                     InvalidSpeeds)

#: largest symmetry, row-sum and negative off-diagonal defect of an admissible generator
DEFECT_TOL = 1e-12
#: spectra count as simple when every eigenvalue gap exceeds this times their
#: largest |eigenvalue| (spectral_gap)
GAP_TOL = 1e-9
#: the largest |k| of a Fourier index (phases), the config and ``--k``
MAX_INDEX = 2 ** 32
#: the most bytes numpy lays out in one array: the bound of the size rule
MAX_SIZE = int(np.iinfo(np.intp).max)


def _shown(value) -> str:
    """``repr(value)``, or a short stand-in where Python refuses to print it
    (an integer of more than 4300 digits, or a container holding one): the
    one way a refusal prints the value it refuses."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool: the type rule of every
    count and index, so ``True`` is refused rather than read as 1."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _real(value) -> bool:
    """Whether ``value`` is a real number and not a bool: the type rule of band
    speeds and eps points, so ``True``, a string or None is refused rather
    than read as a number."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_index(k) -> None:
    """The Fourier-index rule of BandModel.phases and delta_factor: ConfigError
    unless k is an integer, not a bool, with |k| <= MAX_INDEX."""
    if not _integer(k) or abs(k) > MAX_INDEX:
        raise ConfigError("a Fourier index must be an integer within +-2**32")


def _check_count(value, low: int, what: str, error) -> int:
    """The count rule of every count and resolution (simulate's seed, paths and
    steps, bins, top_m, N, grid samples): ``value`` as an int; ``error``
    unless it is an integer >= ``low``, not a bool."""
    if not (_integer(value) and value >= low):
        raise error(f"{what} must be >= {low} and an integer, got {what}={_shown(value)}")
    return int(value)


def _check_layout(shape, what: str, error) -> None:
    """The size rule of every array a run input sizes (simulate's paths and
    steps, ulam_analytic's bins, the Laplacian's N, the grid's samples, a
    model's fibres): ``error``, naming ``what`` and printing no count,
    unless ``shape`` fits in MAX_SIZE bytes at 16 bytes an entry.  complex128
    is the widest dtype the package allocates, so numpy can lay out each
    array of a shape it passes, which may still exceed memory.  As numpy
    does, it multiplies the nonzero extents only: an empty array of a
    too-long shape is refused too."""
    if math.prod(filter(None, shape)) * 16 > MAX_SIZE:
        raise error(f"{what} too large for numpy to lay out")


def _check_labels(model: BandModel, ells) -> list[int]:
    """The label rule of order_checks, alpha_response and writers.write_grid_csv:
    the labels ``ells`` as ints; DimensionMismatch unless they are a sequence
    of integers in [0, N)."""
    if not np.iterable(ells):
        raise DimensionMismatch(f"labels must be a sequence, got {_shown(ells)}")
    ells = list(ells)
    bad = [ell for ell in ells if not (_integer(ell) and 0 <= ell < model.N)]
    if bad:
        raise DimensionMismatch(f"labels {_shown(bad)} are not integers in [0, {model.N})")
    return [int(ell) for ell in ells]


def _finite_nonnegative(value) -> bool:
    """Whether ``value`` is a finite number >= 0: the range rule of eps and delta.
    A bool is no number here, as for counts; NaN fails every comparison, and a
    value that does not compare with numbers (None, a string) or lies beyond
    the float range (an int such as 10**400) is refused rather than raising
    TypeError or OverflowError."""
    try:
        return (not isinstance(value, (bool, np.bool_)) and bool(0 <= value < math.inf)
                and float(value) < math.inf)
    except (TypeError, ValueError, OverflowError):
        return False


def _check_eps(eps) -> None:
    """The noise-level rule of w_epsilon and the config: EpsOutOfRange unless
    eps is a finite number >= 0."""
    if not _finite_nonnegative(eps):
        raise EpsOutOfRange(f"eps must be finite and nonnegative, got {_shown(eps)}")


def check_delta(delta) -> None:
    """The fibre-noise rule of spectrum, simulate, ulam_analytic and the
    config: InvalidSimulationInput unless delta is a finite number >= 0."""
    if not _finite_nonnegative(delta):
        raise InvalidSimulationInput(f"delta must be finite and >= 0, got {_shown(delta)}")


def _finite_array(value, dtype, name: str, error) -> np.ndarray:
    """``value`` read by numpy as ``dtype``: the entry rule of every caller
    array (a generator, an eigensolver matrix, a speed direction).  ``error``
    unless numpy reads it as a numeric array of finite entries: a ragged or
    non-numeric value, a string entry, which numpy would parse, a complex
    entry read as real, whose imaginary part numpy would drop, and an integer
    beyond the float range are none."""
    try:
        raw = np.asarray(value)
        if raw.dtype.kind in "OSU" and any(isinstance(v, (str, bytes)) for v in raw.flat):
            raise TypeError(f"{name} has string entries")   # refused as numpy's own misreads
        if raw.dtype.kind == "c" and np.dtype(dtype).kind != "c":
            raise TypeError(f"{name} has complex entries")
        a = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(str(exc)) from exc
    if not np.all(np.isfinite(a)):
        raise error(f"{name} has non-finite entries")
    return a


def _square_matrix(value, dtype, name: str) -> np.ndarray:
    """``value`` read by numpy as ``dtype``: the one matrix rule of
    NoiseGenerator and spectra.eig_dense_complex.  InvalidMatrix unless it
    passes the entry rule :func:`_finite_array` and is a nonempty square
    matrix."""
    a = _finite_array(value, dtype, name, InvalidMatrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class BandModel:
    """S-banded speed profile: alpha_j = beta[s] on band s.

    Its inputs are the band speeds ``beta``, stored as floats, and widths
    ``L``, stored as ints; the constructor checks them.  Speeds must be
    finite real numbers, a bool or a string being none (InvalidSpeeds), and
    are compared exactly (DuplicateSpeed: they are model inputs, not
    measurements).  There is one width per speed (DimensionMismatch) and at
    least one band, and each width is a positive integer of an integer type
    (EmptyBand): a float width is refused, not truncated, and so are widths
    whose N fibres numpy cannot lay out (:func:`_check_layout`).  Derived
    from them once are ``N``, the offsets ``cum`` (exact ints, 0 = N_0 <
    N_1 < ... < N_S = N; band s occupies ``cum[s]:cum[s+1]``), ``alpha`` and
    each fibre's band ``band_index``.
    """

    beta: tuple[float, ...]
    L: tuple[int, ...]
    N: int = field(init=False)
    cum: tuple[int, ...] = field(init=False)
    alpha: np.ndarray = field(init=False)
    band_index: np.ndarray = field(init=False)

    def __post_init__(self):
        try:                                           # read once: beta may be an iterator
            beta = tuple(self.beta)
            beta = tuple(map(float, beta)) if all(map(_real, beta)) else None
        except (TypeError, OverflowError):             # not iterable, or beyond the float range
            beta = None
        if beta is None:
            raise InvalidSpeeds(f"band speeds must be real numbers, got {_shown(self.beta)}")
        L = tuple(self.L)
        if len(beta) != len(L):
            raise DimensionMismatch(f"beta and L length mismatch: {len(beta)} vs {len(L)}")
        if len(beta) == 0:
            raise EmptyBand("model needs at least one band")
        if not all(_integer(x) and x >= 1 for x in L):
            raise EmptyBand(f"band widths must be positive integers, got {_shown(L)}")
        if not all(map(math.isfinite, beta)):
            raise InvalidSpeeds(f"band speeds must be finite, got {beta}")
        if len(set(beta)) != len(beta):
            raise DuplicateSpeed(f"band speeds must be pairwise distinct, got {beta}")
        L = tuple(map(int, L))
        cum = tuple(itertools.accumulate(L, initial=0))
        _check_layout((cum[-1],), "band widths", EmptyBand)
        band = np.repeat(np.arange(len(beta)), L)
        for name, value in dict(beta=beta, L=L, N=cum[-1], cum=cum,
                                band_index=_freeze(band),
                                alpha=_freeze(np.asarray(beta)[band])).items():
            object.__setattr__(self, name, value)

    @property
    def S(self) -> int:
        return len(self.beta)

    def band_slice(self, s: int) -> slice:
        return slice(self.cum[s], self.cum[s + 1])

    def phases(self, k: int) -> np.ndarray:
        """Band phases exp(-2 pi i k beta_s); the fibre phases are ``phases(k)[band_index]``.

        ``k beta_s`` is reduced mod 1 exactly, on the speed's integer ratio
        p / q, before the exponent, so the phases keep full precision at
        every index.  ConfigError unless k is an integer, not a bool, with
        |k| <= MAX_INDEX.
        """
        _check_index(k)                                # int(k): a numpy integer would wrap in p * k
        turns = [(p * int(k) % q) / q for p, q in map(float.as_integer_ratio, self.beta)]
        return np.exp(-2j * np.pi * np.asarray(turns))


@dataclass(frozen=True, eq=False)
class NoiseGenerator:
    """Wraps the symmetric generator Wdot of the family W_eps = Id + eps*Wdot.

    ``wdot`` is stored as a read-only float array, and ``N`` is ``len(wdot)``.
    The constructor applies the matrix rule of :func:`_square_matrix`:
    InvalidMatrix unless numpy reads ``wdot`` as a nonempty square matrix of
    finite floats.
    :func:`validate_admissibility` tests admissibility.
    """

    wdot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "wdot", _freeze(_square_matrix(self.wdot, float, "generator")))

    @property
    def N(self) -> int:
        return len(self.wdot)

    @property
    def eps_max(self) -> float:
        """Largest eps keeping all entries of Id + eps*Wdot inside [0, 1]."""
        m = float(np.max(np.abs(np.diag(self.wdot))))
        return math.inf if m == 0.0 else 1.0 / m


@dataclass(frozen=True)
class AdmissibilityReport:
    """Measured defects and per-hypothesis verdicts for a generator.

    ``item_stochastic`` covers symmetry, nonnegative off-diagonals and zero
    row sums, each within ``DEFECT_TOL``, and is derived from the three
    defects; ``item_distinct_full`` / ``item_distinct_blocks`` cover simple
    spectra of Wdot and of each band block.
    """

    row_sum_defect: float
    symmetry_defect: float
    min_offdiag: float
    min_eigen_gap_full: float
    min_eigen_gap_blocks: float
    eps_max: float
    item_stochastic: bool = field(init=False)
    item_distinct_full: bool
    item_distinct_blocks: bool

    def __post_init__(self):
        object.__setattr__(self, "item_stochastic", self.symmetry_defect <= DEFECT_TOL and
                           self.row_sum_defect <= DEFECT_TOL and self.min_offdiag >= -DEFECT_TOL)

    @property
    def passed(self) -> bool:
        return self.item_stochastic and self.item_distinct_full and self.item_distinct_blocks


#: BandModel under its older name, kept for its callers: the class checks its own inputs
build_band_model = BandModel


def laplacian_generator(N: int) -> NoiseGenerator:
    """Central-difference Laplacian stencil with reflecting ends.

    Tridiagonal with diagonal (-1/2, -1, ..., -1, -1/2) and off-diagonals 1/2.
    DimensionTooSmall unless N is an integer of at least two fibres
    (:func:`_check_count`) and numpy can lay out the N x N matrix
    (:func:`_check_layout`).
    """
    _check_count(N, 2, "N", DimensionTooSmall)
    _check_layout((N, N), "N", DimensionTooSmall)
    w = np.diag(np.full(N, -1.0)) + 0.5 * (np.eye(N, k=1) + np.eye(N, k=-1))
    w[0, 0] = -0.5
    w[N - 1, N - 1] = -0.5
    return NoiseGenerator(w)


def spectral_gap(spectra) -> tuple[float, float, bool]:
    """The simple-spectrum rule: (gap, radius, simple) of real or complex spectra.

    ``gap`` is the smallest |a - b| over two values of one spectrum (inf when
    no spectrum has two), ``radius`` the largest |value| over all of them (0
    when they are empty), and ``simple`` is ``gap > GAP_TOL * radius``; a
    spectrum holding a non-finite value gives (nan, nan, False).  It judges
    band phases, Wdot, its band blocks and alpha_response's spectra.  On real
    spectra the gap is the smallest sorted-neighbour difference, bit for bit,
    as rounding is monotone.
    """
    gap, radius = math.inf, 0.0
    for ev in map(np.asarray, spectra):
        if not np.all(np.isfinite(ev)):
            return math.nan, math.nan, False
        if ev.size:
            radius = max(radius, float(np.max(np.abs(ev))))
        if ev.size > 1:
            dist = np.abs(ev[:, None] - ev[None, :])
            np.fill_diagonal(dist, np.inf)
            gap = min(gap, float(dist.min()))
    return gap, radius, gap > GAP_TOL * radius


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


def sorted_eigenbasis(w):
    """Eigenpairs (rho, v) of the symmetric part of ``w``, rho descending, v sign-gauged.

    The one eigensolver for Wdot and its band blocks: admissibility, the
    limit basis and the response layer's global basis all read its output,
    so their simple-spectrum verdicts agree bit for bit.
    """
    rho, v = np.linalg.eigh(0.5 * w + 0.5 * w.T)      # w + w.T may overflow
    order = np.argsort(-rho)
    return rho[order], sign_gauge(v[:, order])


def check_dimension(model: BandModel, gen: NoiseGenerator) -> None:
    """The size rule of every function taking a model and a generator:
    DimensionMismatch unless the generator has the model's N fibres."""
    if gen.N != model.N:
        raise DimensionMismatch(f"generator dimension {gen.N} != model dimension {model.N}")


def validate_admissibility(gen: NoiseGenerator, model: BandModel) -> AdmissibilityReport:
    """Check the three admissibility hypotheses; failures are reported, not raised.

    Stochasticity allows defects up to ``DEFECT_TOL``; distinctness applies
    :func:`spectral_gap` to the spectrum of Wdot and, jointly, to the
    spectra of its band blocks, both from :func:`sorted_eigenbasis`.
    """
    check_dimension(model, gen)
    w = gen.wdot
    with np.errstate(over="ignore"):          # an overflowing defect reads inf
        sym = float(np.max(np.abs(w - w.T)))
        row = float(np.max(np.abs(w.sum(axis=1))))
    off = w[~np.eye(gen.N, dtype=bool)]
    min_off = float(off.min()) if off.size else 0.0
    gap_full, _, item2 = spectral_gap([sorted_eigenbasis(w)[0]])
    gap_blocks, _, item3 = spectral_gap(
        [sorted_eigenbasis(w[sl, sl])[0] for sl in map(model.band_slice, range(model.S))])
    return AdmissibilityReport(
        row_sum_defect=row, symmetry_defect=sym, min_offdiag=min_off,
        min_eigen_gap_full=gap_full, min_eigen_gap_blocks=gap_blocks,
        eps_max=gen.eps_max, item_distinct_full=item2, item_distinct_blocks=item3)


def w_epsilon(gen: NoiseGenerator, eps: float) -> np.ndarray:
    """The random-walk matrix Id + eps*Wdot; symmetric doubly stochastic.

    EpsOutOfRange unless eps is a finite nonnegative number and every entry
    lies in [0, 1] up to a 1e-14 slack.
    """
    _check_eps(eps)
    # an overflowing product makes infinite entries, which the range test
    # below refuses, so numpy need not warn about them
    with np.errstate(over="ignore"):
        w = np.eye(gen.N) + eps * gen.wdot
    lo, hi = w.min(), w.max()
    # small slack for accumulated rounding in eps * wdot
    if not (lo >= -1e-14 and hi <= 1.0 + 1e-14):
        raise EpsOutOfRange(
            f"Id + eps*Wdot leaves [0, 1] at eps={eps} "
            f"(entry range [{lo:.6g}, {hi:.6g}], eps_max={gen.eps_max:.6g})")
    return w
