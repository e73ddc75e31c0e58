"""Random dynamics on the discretised cylinder and Ulam cycle detection.

One step maps (j, x) to (j + gamma, x + alpha_j + eta): gamma performs the
symmetric random walk with row probabilities of W_eps (reflecting ends are
built into the stencil), and eta is uniform on [-delta, delta].  The transfer
operator is estimated on an N x M grid of cells (fibre, circle bin) either
exactly (analytic mode: bin-to-bin overlap of the translated, noise-smeared
bin, a piecewise-quadratic CDF computed in closed form) or by pooling the
transition counts of simulated paths.

Dominant nonreal eigenvalues of the cell matrix signal approximately cyclic
motion: 2 pi / |arg| estimates the period in steps (modulo the usual
sampled-rotation aliasing for speeds above half a revolution per step), and
the eigenvector mass locates the cycle's bands.

The exact cell matrix is blockdiag_j(C_j) (W_eps x I_M) with circulant C_j,
so the circle-bin DFT splits it into M blocks Diag(qhat(m)) W_eps of size
N x N, where qhat_j(m) = sum_d q_j[d] e^{2 pi i m d / M} and q_j is fibre
j's kernel row.  Counted operators pool every observed step (j, b) ->
(j', b') into the shift kernel K[j, j', (b' - b) mod M], so they commute
with circle-bin shifts as well, and their sector m is the N x N block
sum_d K[:, :, d] e^{2 pi i m d / M}.  Sector m's eigenvector u gives the
cell eigenvector u_j e^{2 pi i m a / M}.  Sector M - m is the conjugate of
sector m, so detect_cycles solves sectors 0..M/2 only ("sector" path), for
both operator kinds.  Neither kind stores its cell matrix;
UlamOperator.matrix builds it on read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InsufficientData, InvalidSimulationInput,
                     NoComplexEigenvalues, NoConvergence)
from .model import BandModel, NoiseGenerator, _freeze, w_epsilon

#: |imag| above which an eigenvalue counts as nonreal
IMAG_TOL = 1e-9
#: worst relative eigenpair residual ||A v - lam v|| / ||v|| a cycle report accepts
RESIDUAL_TOL = 1e-10
#: largest share of cells that no counted step may leave (ulam_empirical)
MAX_EMPTY_FRACTION = 0.01


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Simulated paths: j and x have shape (n_paths, n_steps + 1).

    Reproducible: path p consumes only its own counter-based stream keyed by
    (seed, p), so results do not depend on scheduling or batch splits.
    """

    seed: int
    n_paths: int
    n_steps: int
    j: np.ndarray
    x: np.ndarray
    eps: float
    delta: float
    model: BandModel


@dataclass(frozen=True, eq=False)
class UlamOperator:
    """Row-stochastic cell transition operator on N*M cells, fibre-major.

    Cell (j, a) moves to cell (j', a + d mod M) with a probability that does
    not depend on the bin a.  Analytic operators keep it factorised as
    ``w_eps[j, j'] * kernel_rows[j, d]``: ``kernel_rows`` (N, M) holds fibre
    j's landing-bin probabilities from bin 0 and ``w_eps`` (N, N) is W_eps.
    Counted operators keep the pooled shift ``kernel`` (N, N, M) instead.
    ``flagged_rows`` lists the cells that no counted step left.
    """

    M: int
    mode: str                    # "analytic" | "empirical"
    model: BandModel
    flagged_rows: tuple[int, ...] = ()
    kernel_rows: np.ndarray | None = None
    w_eps: np.ndarray | None = None
    kernel: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.model.N * self.M

    @property
    def matrix(self):
        """Cell matrix as a scipy CSR matrix, built on every read."""
        import scipy.sparse as sp

        kernel = self.kernel
        if kernel is None:
            kernel = self.w_eps[:, :, None] * self.kernel_rows[:, None, :]
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
    """One detected cycle (a conjugate eigenvalue pair, reported once)."""

    eigenvalue: complex
    magnitude: float
    arg: float
    period_steps: float
    band_masses: tuple[float, ...]
    band: int


@dataclass(frozen=True)
class CycleReport:
    """Detected cycles, the solver path ("sector") and the worst relative
    eigenpair residual over the reported cycles."""

    cycles: tuple[Cycle, ...]
    M: int
    top_m: int
    solver: str
    max_residual: float


def simulate(model: BandModel, gen: NoiseGenerator, eps: float, delta: float,
             n_paths: int, n_steps: int, seed: int, init=None) -> TrajectoryBatch:
    """Run the random dynamics; reproducible given the seed.

    Per path the stream order is: two initial-state uniforms, the walk
    uniforms for all steps, then the noise uniforms for all steps.  ``init``
    optionally fixes the initial states as a pair (j0, x0) of one or n_paths
    fibres in [0, N) and positions in [0, 1); the stream layout does not change.
    """
    if seed < 0 or n_paths < 0 or n_steps < 0:
        raise InvalidSimulationInput(
            f"seed, path and step counts must be >= 0, got seed={seed}, "
            f"n_paths={n_paths}, n_steps={n_steps}")
    _check_delta(delta)
    w = w_epsilon(gen, eps)
    cum = np.cumsum(w, axis=1)
    cum[:, -1] = 1.0 + 1e-12     # guard rounding: every uniform draw must land
    children = np.random.SeedSequence(seed).spawn(n_paths)
    u_init = np.empty((n_paths, 2))
    u_walk = np.empty((n_paths, n_steps))
    u_noise = np.empty((n_paths, n_steps))
    for p, child in enumerate(children):
        g = np.random.Generator(np.random.Philox(child))
        u_init[p] = g.random(2)
        u_walk[p] = g.random(n_steps)
        u_noise[p] = g.random(n_steps)

    j = np.empty((n_paths, n_steps + 1), dtype=np.int32)
    x = np.empty((n_paths, n_steps + 1))
    if init is None:
        j[:, 0] = np.minimum((u_init[:, 0] * model.N).astype(np.int32), model.N - 1)
        x[:, 0] = u_init[:, 1]
    else:
        j0, x0 = (np.asarray(v) for v in init)
        # NaN fails every comparison, so the range test refuses NaN and inf too
        if (j0.dtype.kind not in "iu" or x0.dtype.kind not in "iuf"
                or {j0.shape, x0.shape} - {(), (1,), (n_paths,)}
                or not (np.all((0 <= j0) & (j0 < model.N)) and np.all((0 <= x0) & (x0 < 1)))):
            raise InvalidSimulationInput(f"initial states need one or {n_paths} integer fibres "
                                         f"in [0, {model.N}) and positions in [0, 1)")
        j[:, 0], x[:, 0] = j0, x0
    alpha = np.asarray(model.alpha)
    for t in range(n_steps):
        jt = j[:, t]
        x[:, t + 1] = (x[:, t] + alpha[jt] + (2.0 * u_noise[:, t] - 1.0) * delta) % 1.0
        j[:, t + 1] = np.argmax(cum[jt] > u_walk[:, t][:, None], axis=1)
    return TrajectoryBatch(seed=int(seed), n_paths=int(n_paths), n_steps=int(n_steps),
                           j=_freeze(j), x=_freeze(x), eps=float(eps),
                           delta=float(delta), model=model)


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
    """
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


def _check_bins(M: int) -> None:
    if M < 2:
        raise InvalidSimulationInput(f"need at least 2 bins, got M={M}")


def _check_delta(delta: float) -> None:
    # NaN fails every comparison, so the range test refuses NaN and inf too
    if not 0 <= delta < np.inf:
        raise InvalidSimulationInput(f"delta must be finite and >= 0, got {delta}")


def ulam_analytic(model: BandModel, gen: NoiseGenerator, eps: float, delta: float,
                  M: int) -> UlamOperator:
    """Exact cell transition operator of the annealed dynamics, kept as kernel rows and W_eps."""
    _check_bins(M)
    _check_delta(delta)
    w = w_epsilon(gen, eps)
    # fibres of a band share alpha, hence their kernel row
    band_rows = np.array([_fibre_kernel_row(float(model.alpha[c]), delta, M)
                          for c in model.cum[:-1]])
    return UlamOperator(M=int(M), mode="analytic", model=model,
                        kernel_rows=_freeze(band_rows[model.band_index]), w_eps=_freeze(w))


def ulam_empirical(batch: TrajectoryBatch, M: int) -> UlamOperator:
    """Shift kernel pooled from the transition counts of every path.

    Each step (j, b) -> (j', b') counts towards K[j, j', (b' - b) mod M]:
    the exact operator's transition probabilities depend on the bin shift
    only, so every source bin of a fibre estimates the same kernel entry.
    Counts are normalised per source fibre; a fibre that no step leaves
    becomes a self-loop.  Cells that no step leaves are flagged, and more
    than ``MAX_EMPTY_FRACTION`` of them raises InsufficientData.
    """
    _check_bins(M)
    if batch.n_paths == 0 or batch.n_steps == 0:
        raise InsufficientData("empty trajectory batch")
    n = batch.model.N
    size = n * M
    j = batch.j.astype(np.int64)
    bins = np.minimum((batch.x * M).astype(np.int64), M - 1)
    empty = np.flatnonzero(np.bincount((j * M + bins)[:, :-1].ravel(), minlength=size) == 0)
    if len(empty) > MAX_EMPTY_FRACTION * size:
        raise InsufficientData(
            f"{len(empty)} of {size} rows have no transitions "
            f"(limit {MAX_EMPTY_FRACTION:.0%})")
    steps = (j[:, :-1] * n + j[:, 1:]) * M + (bins[:, 1:] - bins[:, :-1]) % M
    counts = np.bincount(steps.ravel(), minlength=n * n * M).reshape(n, n, M)
    totals = counts.sum(axis=(1, 2))
    kernel = counts / np.maximum(totals, 1)[:, None, None]
    idle = np.flatnonzero(totals == 0)
    kernel[idle, idle, 0] = 1.0
    return UlamOperator(M=int(M), mode="empirical", model=batch.model,
                        kernel=_freeze(kernel), flagged_rows=tuple(int(r) for r in empty))


def _pick_cycles(values: np.ndarray, top_m: int) -> list:
    """(lower-half-plane representative, index into values) of the top_m cycles.

    Nonreal eigenvalues are folded into the lower half plane, sorted by
    decreasing magnitude rounded to a relative 1e-12 (ties by real, then
    imaginary part, so equal magnitudes are not ordered by roundoff), and
    representatives within 1e-9 relative of a picked one are dropped, so each
    conjugate pair counts once.
    """
    nonreal = np.nonzero(np.abs(values.imag) > IMAG_TOL)[0]
    if len(nonreal) == 0:
        raise NoComplexEigenvalues("spectrum is numerically real")
    reps = sorted(((values[i] if values[i].imag < 0 else np.conj(values[i]), i)
                   for i in nonreal),
                  key=lambda t: (-float(f"{abs(t[0]):.12e}"), t[0].real, t[0].imag))
    picked = []
    for rep, i in reps:
        if any(abs(rep - r) <= 1e-9 * max(1.0, abs(rep)) for r, _ in picked):
            continue
        picked.append((rep, i))
        if len(picked) == top_m:
            break
    return picked


def _residual(a, lam: complex, v: np.ndarray) -> float:
    return float(np.linalg.norm(a @ v - lam * v) / np.linalg.norm(v))


def _sector_cycles(op: UlamOperator, top_m: int) -> list:
    """(rep, per-fibre mass, residual) per cycle from the bin-DFT sectors 0..M/2."""
    if op.kernel is not None:
        blocks = np.moveaxis(np.fft.rfft(op.kernel, axis=2).conj(), 2, 0)
    else:
        qhat = np.fft.rfft(op.kernel_rows, axis=1).conj()  # (N, M//2 + 1)
        blocks = qhat.T[:, :, None] * op.w_eps               # Diag(qhat(m)) W_eps
    values = np.linalg.eigvals(blocks)
    eigs, out = {}, []
    for rep, i in _pick_cycles(values.ravel(), top_m):
        m, lam = i // op.model.N, values.flat[i]
        if m not in eigs:
            eigs[m] = np.linalg.eig(blocks[m])
        vals, vecs = eigs[m]
        u = vecs[:, np.argmin(np.abs(vals - lam))]
        # |u_j e^{2 pi i m a / M}|^2 = |u_j|^2 in every bin of fibre j
        out.append((rep, np.abs(u) ** 2, _residual(blocks[m], lam, u)))
    return out


def detect_cycles(op: UlamOperator, model: BandModel, top_m: int) -> CycleReport:
    """Report the top_m largest-magnitude nonreal eigenvalues as cycles.

    Conjugate pairs are reported once, by their lower-half-plane member.  A
    cycle's per-band mass comes from the squared magnitudes of its eigenvector
    summed over each band's cells; the band with the largest mass is the
    attributed support.  Both operator kinds are solved by bin-DFT sector
    (see the module docstring).  Band widths other than ``op.model``'s raise
    DimensionMismatch, and a reported eigenpair with relative residual above
    RESIDUAL_TOL raises NoConvergence.
    """
    if top_m < 1:
        raise InvalidSimulationInput(f"top_m must be >= 1, got {top_m}")
    if model.L != op.model.L:
        raise DimensionMismatch(f"band widths {model.L} differ from the operator's {op.model.L}")
    found = _sector_cycles(op, top_m)
    worst = max(res for _, _, res in found)
    if worst > RESIDUAL_TOL:
        raise NoConvergence(
            f"sector eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:g}", partial=found)

    cycles = []
    for rep, per_fibre, _ in found:
        per_fibre = per_fibre / per_fibre.sum()
        band_masses = tuple(float(per_fibre[model.band_slice(s)].sum())
                            for s in range(model.S))
        arg = float(np.angle(rep))
        cycles.append(Cycle(
            eigenvalue=complex(rep), magnitude=float(abs(rep)), arg=arg,
            period_steps=float(2 * np.pi / abs(arg)),
            band_masses=band_masses, band=int(np.argmax(band_masses))))
    return CycleReport(cycles=tuple(cycles), M=op.M, top_m=int(top_m), solver="sector",
                       max_residual=worst)
