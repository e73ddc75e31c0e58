"""Random dynamics on the discretised cylinder and Ulam cycle detection.

One step maps (j, x) to (j + gamma, x + alpha_j + eta): gamma performs the
symmetric random walk with row probabilities of W_eps (reflecting ends are
built into the stencil), and eta is uniform on [-delta, delta].  The transfer
operator is estimated on an N x M grid of cells (fibre, circle bin) either
exactly (analytic mode: bin-to-bin overlap of the translated, noise-smeared
bin, a piecewise-quadratic CDF computed in closed form) or by pooling the
transition counts of simulated paths.

A path's next fibre is the first column of its fibre's cumulative W_eps row
that exceeds its walk uniform.  simulate finds it for every path at once,
one step at a time, by comparisons only: where W_eps has few distinct
cumulative sums (a banded generator such as the Laplacian) it ranks the
uniforms among them and reads the next fibre from a (fibre, rank) table,
and otherwise it runs one lexicographic search over a complex table of the
rows.  Either way every fibre equals an argmax over the row, bit for bit.

Dominant nonreal eigenvalues of the cell matrix signal approximately cyclic
motion: 2 pi / |arg| estimates the period in steps (modulo the usual
sampled-rotation aliasing for speeds above half a revolution per step), and
the eigenvector mass locates the cycle's bands.

The exact cell matrix is blockdiag_j(C_j) (W_eps x I_M) with circulant C_j,
so the circle-bin DFT splits it into M blocks Diag(qhat(m)) W_eps of size
N x N, where qhat_j(m) = sum_d q_j[d] e^{2 pi i m d / M} and q_j is the
kernel row of fibre j's band.  Counted operators pool every observed step
(j, b) -> (j', b') into the shift kernel K[j, j', (b' - b) mod M], so they
commute with circle-bin shifts as well, and their sector m is the N x N
block sum_d K[:, :, d] e^{2 pi i m d / M}.  Sector m's eigenvector u gives the
cell eigenvector u_j e^{2 pi i m a / M}.  Sector M - m is the conjugate of
sector m, so detect_cycles works on sectors 0..M/2 only ("sector" path), for
both operator kinds.  No eigenvalue of sector m exceeds its block's largest
absolute row sum b(m) (max_j |qhat_j(m)| times row j's sum of |W_eps| for
exact operators), so it solves the sectors in descending b(m) and stops once
no unsolved sector can change the reported cycles (usually after 2 of the
M/2 + 1).  Each solved sector is decomposed once by spectra.eig_dense_complex,
the certificate of the Fourier-block spectra, so a cycle's eigenvalue, vector
and residual come from one solve.  Neither kind stores its cell
matrix; UlamOperator.matrix builds it on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, InsufficientData, InvalidSimulationInput,
                     NoComplexEigenvalues, NoConvergence)
from .model import (BandModel, NoiseGenerator, _check_count, _check_layout, _freeze, _real,
                    _shown, check_delta, check_dimension, w_epsilon)
from .spectra import _band_diagonal, eig_dense_complex

#: |imag| above which an eigenvalue counts as nonreal, relative to its sector bound b(m)
IMAG_TOL = 1e-9
#: largest share of cells that no counted step may leave (ulam_empirical)
MAX_EMPTY_FRACTION = 0.01
#: step keys formed and counted at once by ulam_empirical; bincount copies
#: them to intp, 2^16 keys to 512 KiB
_COUNT_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Simulated paths: j and x have shape (paths, steps + 1).

    Reproducible: path p consumes only its own counter-based stream keyed by
    (seed, p), so results do not depend on scheduling or batch splits; the
    seed, eps and delta of :func:`simulate` stay with the caller.  The
    constructor checks the paths and freezes ``j`` and ``x`` in place,
    copying neither: j and x that are ragged or do not share one 2-D shape,
    a j that is not an integer array of fibres in [0, N), and an x that is
    not real or lies outside [0, 1] (1.0 counts in the last circle bin)
    raise InvalidSimulationInput.
    """

    j: np.ndarray
    x: np.ndarray
    model: BandModel

    def __post_init__(self):
        try:
            j, x = np.asarray(self.j), np.asarray(self.x)
        except ValueError as exc:          # a ragged nested sequence
            raise InvalidSimulationInput(f"fibres and positions must be arrays: {exc}") from exc
        n = self.model.N
        if j.ndim != 2 or j.shape != x.shape:
            raise InvalidSimulationInput(f"fibres and positions must share one (paths, steps + 1) "
                                         f"shape, got {j.shape} and {x.shape}")
        if not np.issubdtype(j.dtype, np.integer):
            raise InvalidSimulationInput(f"fibres must be integers, got dtype {j.dtype}")
        if x.dtype.kind not in "biuf":
            raise InvalidSimulationInput(f"positions must be real, got dtype {x.dtype}")
        if j.size and not (0 <= j.min() and j.max() < n):
            raise InvalidSimulationInput(f"fibres must lie in [0, {n})")
        # NaN fails every comparison, so this range test refuses it too
        if x.size and not (0 <= x.min() and x.max() <= 1):
            raise InvalidSimulationInput("positions must be finite and lie in [0, 1]")
        for name, a in dict(j=j, x=x).items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class UlamOperator:
    """Row-stochastic cell transition operator on N*M cells, fibre-major.

    Cell (j, a) moves to cell (j', a + d mod M) with a probability that does
    not depend on the bin a.  Analytic operators keep it factorised as
    ``w_eps[j, j'] * kernel_rows[s(j), d]``: ``kernel_rows`` (S, M) holds
    band s's landing-bin probabilities from bin 0, s(j) = ``model.band_index``,
    and ``w_eps`` (N, N) is W_eps.  Counted operators keep the pooled shift
    ``kernel`` (N, N, M) instead.  ``flagged_rows`` lists the cells that no
    counted step left.  The bin count M is the last axis of either kernel.
    An operator is one kind, with its model's shapes: any other combination
    of kernels, or shapes other than these, raise InvalidSimulationInput.
    """

    model: BandModel
    flagged_rows: tuple[int, ...] = ()
    kernel_rows: np.ndarray | None = None
    w_eps: np.ndarray | None = None
    kernel: np.ndarray | None = None

    def __post_init__(self):
        rows, kernel = self.kernel_rows, self.kernel
        if (rows is None) == (kernel is None) or (rows is None) != (self.w_eps is None):
            raise InvalidSimulationInput(
                "an Ulam operator holds kernel_rows with w_eps, or kernel alone")
        n, m = self.model.N, np.shape(rows if kernel is None else kernel)[-1:]
        shapes = (dict(kernel_rows=(self.model.S, *m), w_eps=(n, n)) if kernel is None
                  else dict(kernel=(n, n, *m)))
        for name, shape in shapes.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise InvalidSimulationInput(f"{name} has shape {got}; the model needs {shape}")

    @property
    def M(self) -> int:
        return (self.kernel_rows if self.kernel is None else self.kernel).shape[-1]

    @property
    def mode(self) -> str:
        return "analytic" if self.kernel is None else "empirical"

    @property
    def size(self) -> int:
        return self.model.N * self.M

    @property
    def matrix(self):
        """Cell matrix as a scipy CSR matrix, built on every read."""
        import scipy.sparse as sp

        kernel = self.kernel
        if kernel is None:
            kernel = self.w_eps[:, :, None] * self.kernel_rows[self.model.band_index, None, :]
        size, a = self.size, np.arange(self.M)
        src, dst, shift = np.nonzero(kernel)
        rows = src[:, None] * self.M + a
        cols = dst[:, None] * self.M + (a + shift[:, None]) % self.M
        mat = sp.csr_matrix((np.repeat(kernel[src, dst, shift], self.M),
                             (rows.ravel(), cols.ravel())), shape=(size, size))
        mat.sort_indices()
        return mat


@dataclass(frozen=True)
class Cycle:
    """One detected cycle (a conjugate eigenvalue pair, reported once).

    Its inputs are the ``eigenvalue`` and the per-band ``band_masses``;
    derived from them are ``magnitude`` |eigenvalue|, ``arg``, the period
    2 pi / |arg| in steps and the ``band`` of largest mass.  An eigenvalue
    that is not a finite number or has argument 0 (no period), no band, and
    band masses that are not finite real numbers raise
    InvalidSimulationInput.  The field order is the key order of each cycle
    in ``cycles.json``.
    """

    eigenvalue: complex
    magnitude: float = field(init=False)
    arg: float = field(init=False)
    period_steps: float = field(init=False)
    band_masses: tuple[float, ...]
    band: int = field(init=False)

    def __post_init__(self):
        ev, masses = self.eigenvalue, self.band_masses
        # TypeError: a value np.isfinite cannot test (a non-number, an int beyond
        # float) or masses that are no sequence; ValueError: an array eigenvalue
        try:
            arg = float(np.angle(ev)) if np.isfinite(ev) else 0.0
            valid = arg != 0 and len(masses) > 0 and all(
                _real(m) and np.isfinite(m) for m in masses)
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise InvalidSimulationInput(
                f"a cycle needs a period and a band: a finite eigenvalue of nonzero argument and "
                f"finite real band masses, got eigenvalue {_shown(ev)} over band masses "
                f"{_shown(masses)}")
        for name, value in dict(magnitude=float(abs(ev)), arg=arg,
                                period_steps=float(2 * np.pi / abs(arg)),
                                band=int(np.argmax(masses))).items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CycleReport:
    """Detected cycles, the solver path (always "sector"), the number of sectors
    decomposed, out of M // 2 + 1, and the worst eigenpair residual
    ||B v - lam v|| (unit v) over the reported cycles, each of which met
    RESIDUAL_TOL times the larger of its sector block B's largest column
    2-norm and spectral radius, a lower bound of ||B||_2.  The field order is
    the key order of ``cycles.json``."""

    M: int
    top_m: int
    solver: str = field(init=False, default="sector")
    sectors_solved: int
    max_residual: float
    cycles: tuple[Cycle, ...]


def _walk_table(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted search keys of a walk step and the table that turns a
    search count into the next state.

    Let c be the running maximum of W_eps's cumulative rows, with the last
    column guarded at 1 + 1e-12 so that every uniform lands inside the row.
    From fibre j at uniform u the next fibre is the number of c[j] at or
    below u: the first column whose cumulative weight exceeds u, as an
    argmax over the row finds it.  The running maximum leaves that column
    unchanged where w_epsilon's rounding slack makes a row's sums dip.

    Lookup plan, when width = len(G) + 1 <= N for G the sorted distinct
    values of c (every Laplacian W_eps from N = 8 up: len(G) <= 7).  The
    keys are G and a walk state is s = j * width; s steps to
    table[s + rank(u)], where rank(u) counts the G at or below u and
    table[j * width + r] is width times the number of c[j] at or below
    G[r - 1] (0 at r = 0).  The table has N * width <= N^2 int32 entries.

    Complex plan, otherwise.  The keys are the N^2 entries r + 1j * c[r];
    numpy orders complex numbers lexicographically, so the keys at or below
    j + 1j * u number j * N plus the next fibre, and the table holds each
    key's column.

    Both plans compare u with c and do no arithmetic on either, so both give
    the argmax's fibre bit for bit.
    """
    n = len(w)
    cum = np.cumsum(w, axis=1)
    cum[:, -1] = 1.0 + 1e-12     # guard rounding: every uniform draw must land
    c = np.maximum.accumulate(cum, axis=1)
    thresholds, rank = np.unique(c, return_inverse=True)
    width = len(thresholds) + 1
    if width <= n and n * width < 2 ** 31:     # the states fit the int32 fibres
        # the c[j] at or below G[r - 1] are those whose index into G is below r
        below = np.bincount(np.repeat(np.arange(n) * width, n) + rank.reshape(-1) + 1,
                            minlength=n * width)
        table = below.reshape(n, width).cumsum(axis=1) * width
        return thresholds, table.astype(np.int32).ravel()
    keys = np.empty(n * n, dtype=complex)
    keys.real = np.repeat(np.arange(n), n)
    keys.imag = c.ravel()
    return keys, np.tile(np.arange(n, dtype=np.int32), n)


def _walk(j: np.ndarray, u_walk: np.ndarray, keys: np.ndarray, table: np.ndarray) -> None:
    """Fill the fibres j[1:] from j[0], one exact search per step over the
    keys of :func:`_walk_table`, whose dtype names the plan.  The states are
    in range, so ``mode="clip"`` only spares ``take`` a buffered copy."""
    search = keys.searchsorted
    if keys.dtype == complex:
        key = np.empty(j.shape[1], dtype=complex)
        for j_now, j_next, u in zip(j[:-1], j[1:], u_walk):
            key.real, key.imag = j_now, u
            table.take(search(key, side="right"), out=j_next, mode="clip")
        return
    width = len(keys) + 1
    key = np.empty(j.shape[1], dtype=np.intp)
    j[0] *= width                # j holds the states j * width until the last step
    for s_now, s_next, u in zip(j[:-1], j[1:], u_walk):
        np.add(s_now, search(u, side="right"), out=key)
        table.take(key, out=s_next, mode="clip")
    j //= width


def _rotate(x: np.ndarray, turn: np.ndarray, noise: np.ndarray) -> None:
    """Fill the positions x[1:] from x[0]: x[t + 1] = (x[t] + turn[t] + noise[t]) % 1."""
    for x_now, x_next, a, e in zip(x[:-1], x[1:], turn, noise):
        np.add(x_now, a, out=x_next)
        x_next += e
        x_next %= 1.0


def check_counts(seed: int, n_paths: int, n_steps: int) -> None:
    """The counts of :func:`simulate`: seed, paths and steps pass the count rule
    (model._check_count) with a least value of 0, and the (steps + 1, paths)
    buffers they size pass the size rule (model._check_layout)."""
    for what, value in dict(seed=seed, n_paths=n_paths, n_steps=n_steps).items():
        _check_count(value, 0, what, InvalidSimulationInput)
    _check_layout((n_steps + 1, n_paths), "n_paths and n_steps", InvalidSimulationInput)


def simulate(model: BandModel, gen: NoiseGenerator, eps: float, delta: float,
             n_paths: int, n_steps: int, seed: int) -> TrajectoryBatch:
    """Run the random dynamics; reproducible given the seed.

    Per path the stream order is: two initial-state uniforms, the walk
    uniforms for all steps, then the noise uniforms for all steps.  Two
    passes over time-major buffers follow: the fibre walk, then the
    rotation.  Each walk step is exact (:func:`_walk_table`): one search of
    the uniforms among W_eps's distinct cumulative sums and one lookup in a
    (fibre, rank) table where the sums are few, as for the Laplacian, and
    otherwise one lexicographic search over a complex table.
    """
    check_counts(seed, n_paths, n_steps)
    check_dimension(model, gen)
    check_delta(delta)
    keys, table = _walk_table(w_epsilon(gen, eps))
    # allocated before the seeds are spawned, so a size numpy refuses fails at once
    u_init = np.empty((n_paths, 2))
    u_walk = np.empty((n_steps, n_paths))
    u_noise = np.empty((n_steps, n_paths))
    children = np.random.SeedSequence(seed).spawn(n_paths)
    for p, child in enumerate(children):
        g = np.random.Generator(np.random.Philox(child))
        u_init[p] = g.random(2)
        u_walk[:, p] = g.random(n_steps)
        u_noise[:, p] = g.random(n_steps)

    j = np.empty((n_steps + 1, n_paths), dtype=np.int32)
    j[0] = np.minimum((u_init[:, 0] * model.N).astype(np.int32), model.N - 1)
    _walk(j, u_walk, keys, table)
    # the walk draws are spent: their buffer takes each step's turn alpha_j (the
    # fibres are in range, and "clip" writes into ``out`` without a buffered copy)
    turn = np.take(np.asarray(model.alpha), j[:-1], out=u_walk, mode="clip")
    u_noise *= 2.0
    u_noise -= 1.0
    u_noise *= delta             # (2 u - 1) delta, rounded as the one expression is
    x = np.empty((n_steps + 1, n_paths))
    x[0] = u_init[:, 1]
    _rotate(x, turn, u_noise)
    # free the draws, and each time-major buffer once its copy is made
    del turn, u_walk, u_noise
    return TrajectoryBatch(j=np.ascontiguousarray(j.T), x=np.ascontiguousarray(x.T), model=model)


def _sum_cdf(t: np.ndarray, h: float, delta: float) -> np.ndarray:
    """CDF of U[0, h) + U[-delta, delta] (a trapezoid), in closed form."""
    t = np.asarray(t, dtype=float)
    if delta == 0.0:
        return np.clip(t / h, 0.0, 1.0)

    def ramp_integral(s):
        # antiderivative of clip(s/h, 0, 1)
        return np.where(s <= 0, 0.0, np.where(s <= h, s * s / (2 * h), s - h / 2))

    return (ramp_integral(t + delta) - ramp_integral(t - delta)) / (2 * delta)


def _fibre_kernel_row(alpha_j: float, delta: float, M: int) -> np.ndarray:
    """Landing-bin probabilities from bin 0 under rotation alpha_j and noise delta.

    Circulant generator row: starting uniformly in bin b gives the same row
    shifted by b.  Exact (piecewise-quadratic CDF differences), no quadrature.
    Noise of half-width delta >= 1/2 is split so that the work does not grow
    with delta: its floor(2 delta) full turns land uniformly, and the rest is
    noise of half-width delta mod 1/2 centred floor(2 delta) / 2 turns on.
    """
    if delta >= 0.5:
        rest = delta % 0.5               # exact, as is whole = floor(2 delta) / 2
        whole = delta - rest
        return (whole / M + rest * _fibre_kernel_row(alpha_j + whole % 1.0, rest, M)) / delta
    h = 1.0 / M
    s = alpha_j % 1.0
    edges = np.arange(M + 1) * h
    lo = int(np.floor(-delta - s)) - 1
    hi = int(np.ceil(h + delta - s)) + 1
    q = np.zeros(M)
    for n in range(lo, hi + 1):
        c = _sum_cdf(n + edges - s, h, delta)
        q += np.diff(c)
    return q


def ulam_analytic(model: BandModel, gen: NoiseGenerator, eps: float, delta: float,
                  M: int) -> UlamOperator:
    """Exact cell transition operator of the annealed dynamics, kept as one
    kernel row per band (the fibres of a band share its speed) and W_eps.
    The bin count M passes the count rule (model._check_count) with a least
    value of 2, and the (S, M + 1) kernel rows it sizes the size rule
    (model._check_layout)."""
    M = _check_count(M, 2, "M", InvalidSimulationInput)
    _check_layout((model.S, M + 1), "M", InvalidSimulationInput)
    check_dimension(model, gen)
    check_delta(delta)
    w = w_epsilon(gen, eps)
    rows = np.array([_fibre_kernel_row(beta, delta, M) for beta in model.beta])
    return UlamOperator(model, kernel_rows=_freeze(rows), w_eps=_freeze(w))


def ulam_empirical(batch: TrajectoryBatch, M: int) -> UlamOperator:
    """Shift kernel pooled from the transition counts of every path.

    Each step (j, b) -> (j', b') counts towards K[j, j', (b' - b) mod M]:
    the exact operator's transition probabilities depend on the bin shift
    only, so every source bin of a fibre estimates the same kernel entry.
    Counts are normalised per source fibre; a fibre that no step leaves
    becomes a self-loop.  Cells that no step leaves are flagged, and more
    than ``MAX_EMPTY_FRACTION`` of them raises InsufficientData.

    The step key (j N + j') M + (b' - b) mod M is built in place in one
    int32 buffer with no integer modulo: j' M + b' - b, plus M where the bin
    wrapped (b' < b), plus j N M.  Keys are formed and counted in blocks of
    whole paths, about ``_COUNT_BLOCK`` steps each, so no temporary is of the
    batch's size.
    N^2 M must stay below 2^31, and is refused before anything of the
    operator's size is allocated; the batch checked its own paths, and M
    passes the count rule (model._check_count) with a least value of 2.
    """
    M = _check_count(M, 2, "M", InvalidSimulationInput)
    n, j, x = batch.model.N, batch.j, batch.x
    size = n * M
    if n * size >= 2 ** 31:
        raise InvalidSimulationInput(
            f"N^2 M = {_shown(n * size)} step keys exceed the int32 range "
            f"(N={n}, M={_shown(M)})")
    if j[:, 1:].size == 0:
        raise InsufficientData("empty trajectory batch")
    # x M truncated into int32 as astype would, with no float copy of the batch
    bins = np.multiply(x, M, out=np.empty_like(x, dtype=np.int32), casting="unsafe")
    np.minimum(bins, M - 1, out=bins)
    cell = j.astype(np.int32)
    cell *= M
    cell += bins
    # an int32 index marks the cells in buffered chunks; bincount would first
    # copy every key to intp
    left = np.zeros(size, dtype=bool)
    left[cell[:, :-1]] = True
    empty = np.flatnonzero(~left)
    if len(empty) > MAX_EMPTY_FRACTION * size:
        raise InsufficientData(
            f"{len(empty)} of {size} rows have no transitions "
            f"(limit {MAX_EMPTY_FRACTION:.0%})")
    per = max(1, _COUNT_BLOCK // (j.shape[1] - 1))
    counts = np.zeros(n * size, dtype=np.intp)
    for a in range(0, j.shape[0], per):
        c, b = cell[a:a + per], bins[a:a + per]
        steps = np.subtract(c[:, 1:], b[:, :-1], out=c[:, 1:])
        steps += np.multiply(b[:, 1:] < b[:, :-1], M, dtype=np.int32)
        steps += np.multiply(j[a:a + per, :-1], size, dtype=np.int32)
        counts += np.bincount(steps.ravel("K"), minlength=n * size)
    counts = counts.reshape(n, n, M)
    totals = counts.sum(axis=(1, 2))
    kernel = counts / np.maximum(totals, 1)[:, None, None]
    idle = np.flatnonzero(totals == 0)
    kernel[idle, idle, 0] = 1.0
    return UlamOperator(batch.model, flagged_rows=tuple(map(int, empty)), kernel=_freeze(kernel))


def _nonreal(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Mask of the values whose |imag| exceeds IMAG_TOL times their sector bound b(m)."""
    return np.abs(values.imag) > IMAG_TOL * bounds


def _pick_cycles(values: np.ndarray, bounds: np.ndarray, top_m: int) -> list:
    """(lower-half-plane representative, index into values) of the top_m cycles.

    ``bounds[i]`` is the bound b(m) of the sector that ``values[i]`` comes
    from, and both cuts are relative to it: a value is nonreal when its
    |imag| exceeds IMAG_TOL * b(m) (:func:`_nonreal`), and a representative
    within 1e-9 * b(m) of a picked one is dropped, so each conjugate pair
    counts once.  Nonreal eigenvalues are folded into the lower half plane
    and sorted by decreasing magnitude rounded to a relative 1e-12 (ties by
    real, then imaginary part, so equal magnitudes are not ordered by
    roundoff).
    """
    nonreal = np.nonzero(_nonreal(values, bounds))[0]
    if len(nonreal) == 0:
        raise NoComplexEigenvalues("spectrum is numerically real")
    reps = sorted(((values[i] if values[i].imag < 0 else np.conj(values[i]), i)
                   for i in nonreal),
                  key=lambda t: (-float(f"{abs(t[0]):.12e}"), t[0].real, t[0].imag))
    picked = []
    for rep, i in reps:
        if any(abs(rep - r) <= 1e-9 * bounds[i] for r, _ in picked):
            continue
        picked.append((rep, i))
        if len(picked) == top_m:
            break
    return picked


def detect_cycles(op: UlamOperator, model: BandModel, top_m: int) -> CycleReport:
    """Report the top_m largest-magnitude nonreal eigenvalues as cycles.

    Conjugate pairs are reported once, by their lower-half-plane member.  A
    cycle's per-band mass comes from the squared magnitudes of its eigenvector
    summed over each band of ``op.model``'s cells; the band with the largest
    mass is the attributed support.  ``model`` is only checked: band widths
    other than ``op.model``'s raise DimensionMismatch.

    Both operator kinds are solved by bin-DFT sector.  Sector m's block B_m
    holds no eigenvalue above its largest absolute row sum b(m), so sectors
    0..M/2 are solved in descending b(m) (ties in ascending m) until the
    top_m-th pick exceeds every unsolved b(m) by a relative 1e-9, far above
    _pick_cycles' 1e-12 magnitude rounding: no unsolved eigenvalue can then
    rank before a pick.  Each solved sector is decomposed once by
    eig_dense_complex; the candidates are the solved sectors' values in
    ascending m, so ties break as in a sweep of every sector, and a cycle
    reads its vector and residual from the same solve.  Both cuts of
    _pick_cycles, and the count of nonreal values above the stop cut that
    gates it, are relative to each value's own b(m), so a spectrum that is
    small throughout (a delta factor near 0) keeps its cycles.  Each cycle's
    eigenpair must pass the certificate of eig_dense_complex, residual
    ``||B v - lam v||`` (unit v) at most RESIDUAL_TOL times the larger of
    its sector block B's largest column 2-norm and spectral radius, both
    lower bounds of ``||B||_2``; otherwise NoConvergence is raised,
    ``partial`` holding the cycles.
    """
    top_m = _check_count(top_m, 1, "top_m", InvalidSimulationInput)
    if model.L != op.model.L:
        raise DimensionMismatch(f"band widths {model.L} differ from the operator's {op.model.L}")
    if op.kernel is not None:
        khat = np.fft.rfft(op.kernel, axis=2).conj()              # (N, N, M//2 + 1)
        bounds = np.abs(khat).sum(axis=1).max(axis=0)

        def block(m):
            return khat[:, :, m]
    else:
        qhat = np.fft.rfft(op.kernel_rows, axis=1).conj()          # (S, M//2 + 1)
        bounds = (np.abs(qhat)[op.model.band_index]
                  * np.abs(op.w_eps).sum(axis=1)[:, None]).max(axis=0)

        def block(m):
            return _band_diagonal(op.model, qhat[:, m], op.w_eps)   # Diag(qhat(m)) W_eps
    order = np.argsort(-bounds, kind="stable")
    cuts = (1 + 1e-9) * np.append(bounds[order[1:]], -np.inf)   # next unsolved b(m)
    solved, n = {}, op.model.N
    for m, cut in zip(order, cuts):
        solved[m] = eig_dense_complex(block(m))
        sectors = sorted(solved)
        values = np.concatenate([solved[s].values for s in sectors])
        scales = np.repeat(bounds[sectors], n)
        # a stop needs top_m nonreal values above the cut: count them before sorting
        if np.count_nonzero(_nonreal(values, scales) & (np.abs(values) > cut)) >= top_m:
            picked = _pick_cycles(values, scales, top_m)
            if len(picked) == top_m and abs(picked[-1][0]) > cut:
                break
    else:   # every sector solved: the picks may run short, or be none
        picked = _pick_cycles(values, scales, top_m)
    cycles, residuals, failed = [], [], []
    for rep, i in picked:
        eig, c = solved[sectors[i // n]], i % n
        # |u_j e^{2 pi i m a / M}|^2 = |u_j|^2 in every bin of fibre j
        mass = np.abs(eig.vectors[:, c]) ** 2
        mass = mass / mass.sum()
        band_masses = tuple(float(mass[op.model.band_slice(s)].sum())
                            for s in range(op.model.S))
        cycles.append(Cycle(complex(rep), band_masses))
        residuals.append(float(eig.residuals[c]))
        if not eig.converged[c]:
            failed.append(residuals[-1])
    if failed:
        raise NoConvergence(f"sector eigenpair residual {max(failed):.3e} exceeds "
                            f"RESIDUAL_TOL times the sector norm", partial=tuple(cycles))
    return CycleReport(M=op.M, top_m=top_m, sectors_solved=len(solved),
                       max_residual=max(residuals), cycles=tuple(cycles))
