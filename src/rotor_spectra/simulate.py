"""Random dynamics on the discretised cylinder and Ulam cycle detection.

One step maps (j, x) to (j + gamma, x + alpha_j + eta): gamma performs the
symmetric random walk with row probabilities of W_eps (reflecting ends are
built into the stencil), and eta is uniform on [-delta, delta].  The transfer
operator is estimated on an N x M grid of cells (fibre, circle bin) either
exactly (analytic mode: bin-to-bin overlap of the translated, noise-smeared
bin, a piecewise-quadratic CDF computed in closed form) or by transition
counting from simulated paths.

Dominant nonreal eigenvalues of the cell matrix signal approximately cyclic
motion: 2 pi / |arg| estimates the period in steps (modulo the usual
sampled-rotation aliasing for speeds above half a revolution per step), and
the eigenvector mass locates the cycle's bands.

The exact cell matrix is blockdiag_j(C_j) (W_eps x I_M) with circulant C_j,
so the circle-bin DFT splits it into M blocks Diag(qhat(m)) W_eps of size
N x N, where qhat_j(m) = sum_d q_j[d] e^{2 pi i m d / M} and q_j is fibre
j's kernel row; sector m's eigenvector u gives the cell eigenvector
u_j e^{2 pi i m a / M}.  Sector M - m is the conjugate of sector m, so
detect_cycles solves sectors 0..M/2 only ("sector" path).  Counted
operators have no such structure: their eigenvalues come from a dense
solve and each reported cycle's eigenvector from inverse iteration
("dense" path), or from Arnoldi above DENSE_EIG_LIMIT cells ("arnoldi").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (InsufficientData, InvalidSimulationInput, NoComplexEigenvalues,
                     NoConvergence)
from .model import BandModel, NoiseGenerator, _freeze, w_epsilon

#: cell count above which detect_cycles switches a counted operator from dense to Arnoldi
DENSE_EIG_LIMIT = 4096
#: worst relative eigenpair residual ||A v - lam v|| / ||v|| a cycle report accepts
RESIDUAL_TOL = 1e-10
#: inverse-iteration solves per targeted eigenvector on the dense path
INVERSE_STEPS = 3


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
    """Row-stochastic cell transition matrix on N*M cells, fibre-major.

    Analytic operators also keep the circulant structure the matrix is built
    from: ``kernel_rows`` (N, M), fibre j's landing-bin probabilities from
    bin 0, and ``w_eps`` (N, N).  detect_cycles solves their bin-DFT sectors
    instead of the cell matrix.
    """

    M: int
    matrix: sp.csr_matrix
    mode: str                    # "analytic" | "empirical"
    model: BandModel
    flagged_rows: tuple[int, ...] = ()
    kernel_rows: np.ndarray | None = None
    w_eps: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


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
    """Detected cycles, the solver path ("sector", "dense" or "arnoldi") and the
    worst relative eigenpair residual over the reported cycles."""

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
    optionally fixes the initial states as a pair of arrays (j0, x0) with
    0-based fibre indices; the stream layout does not change with it.
    """
    if seed < 0 or n_paths < 0 or n_steps < 0:
        raise InvalidSimulationInput(
            f"seed, path and step counts must be >= 0, got seed={seed}, "
            f"n_paths={n_paths}, n_steps={n_steps}")
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
        j0, x0 = init
        j[:, 0] = np.broadcast_to(np.asarray(j0, dtype=np.int32), (n_paths,))
        x[:, 0] = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths,))
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


def ulam_analytic(model: BandModel, gen: NoiseGenerator, eps: float, delta: float,
                  M: int) -> UlamOperator:
    """Exact cell transition matrix of the annealed dynamics."""
    _check_bins(M)
    w = w_epsilon(gen, eps)
    n = model.N
    # fibres of a band share alpha, hence their kernel row
    band_rows = np.array([_fibre_kernel_row(float(model.alpha[c]), delta, M)
                          for c in model.cum[:-1]])
    kernel = band_rows[model.band_index]
    rows, cols, data = [], [], []
    a = np.arange(M)
    for j in range(n):
        q = kernel[j]
        supp = np.nonzero(q)[0]
        dest_bins = (a[:, None] + supp[None, :]) % M          # (M, |supp|)
        src = np.repeat(j * M + a, len(supp))
        for j2 in np.nonzero(w[j])[0]:
            rows.append(src)
            cols.append((j2 * M + dest_bins).ravel())
            data.append(np.tile(w[j, j2] * q[supp], M))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * M, n * M)).tocsr()
    return UlamOperator(M=int(M), matrix=mat, mode="analytic", model=model,
                        kernel_rows=_freeze(kernel), w_eps=_freeze(w))


def ulam_empirical(batch: TrajectoryBatch, M: int,
                   max_empty_fraction: float = 0.01) -> UlamOperator:
    """Row-normalised transition counts between cells.

    Rows never visited become self-loops and are flagged; more than
    ``max_empty_fraction`` empty rows raises InsufficientData.
    """
    _check_bins(M)
    if batch.n_paths == 0 or batch.n_steps == 0:
        raise InsufficientData("empty trajectory batch")
    n = batch.model.N
    size = n * M
    bins = np.minimum((batch.x * M).astype(np.int64), M - 1)
    cells = batch.j.astype(np.int64) * M + bins
    src = cells[:, :-1].ravel()
    dst = cells[:, 1:].ravel()
    counts = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=(size, size)).tocsr()
    row_tot = np.asarray(counts.sum(axis=1)).ravel()
    empty = np.nonzero(row_tot == 0)[0]
    if len(empty) > max_empty_fraction * size:
        raise InsufficientData(
            f"{len(empty)} of {size} rows have no transitions "
            f"(limit {max_empty_fraction:.0%})")
    inv = np.ones(size)
    inv[row_tot > 0] = 1.0 / row_tot[row_tot > 0]
    mat = sp.diags(inv) @ counts
    if len(empty):
        mat = (mat + sp.coo_matrix(
            (np.ones(len(empty)), (empty, empty)), shape=(size, size))).tocsr()
    return UlamOperator(M=int(M), matrix=sp.csr_matrix(mat), mode="empirical",
                        model=batch.model, flagged_rows=tuple(int(r) for r in empty))


def _pick_cycles(values: np.ndarray, top_m: int, imag_tol: float) -> list:
    """(lower-half-plane representative, index into values) of the top_m cycles.

    Nonreal eigenvalues are folded into the lower half plane, sorted by
    decreasing magnitude rounded to a relative 1e-12 (ties by real, then
    imaginary part, so equal magnitudes are not ordered by roundoff), and
    representatives within 1e-9 relative of a picked one are dropped, so each
    conjugate pair counts once.
    """
    nonreal = np.nonzero(np.abs(values.imag) > imag_tol)[0]
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


def _sector_cycles(op: UlamOperator, top_m: int, imag_tol: float) -> list:
    """(rep, per-fibre mass, residual) per cycle from the bin-DFT sectors 0..M/2."""
    qhat = np.fft.rfft(op.kernel_rows, axis=1).conj()      # (N, M//2 + 1)
    blocks = qhat.T[:, :, None] * op.w_eps                   # Diag(qhat(m)) W_eps
    values = np.linalg.eigvals(blocks)
    n = op.w_eps.shape[0]
    eigs, out = {}, []
    for rep, i in _pick_cycles(values.ravel(), top_m, imag_tol):
        m, lam = i // n, values.flat[i]
        if m not in eigs:
            eigs[m] = np.linalg.eig(blocks[m])
        vals, vecs = eigs[m]
        u = vecs[:, np.argmin(np.abs(vals - lam))]
        # |u_j e^{2 pi i m a / M}|^2 = |u_j|^2 in every bin of fibre j
        out.append((rep, np.abs(u) ** 2, _residual(blocks[m], lam, u)))
    return out


def _inverse_iteration(matrix, lam: complex) -> np.ndarray:
    """Unit eigenvector of ``matrix`` for the computed eigenvalue ``lam``."""
    n = matrix.shape[0]

    def factor(shift):
        return spla.splu((matrix - shift * sp.identity(n)).tocsc())

    try:
        lu = factor(lam)
    except RuntimeError:        # lam is exactly an eigenvalue of the stored matrix
        lu = factor(lam + 1e-13 * max(1.0, abs(lam)))
    rng = np.random.default_rng(0)        # fixed start: deterministic runs
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for _ in range(INVERSE_STEPS):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
    return x


def _cell_cycles(op: UlamOperator, top_m: int, imag_tol: float) -> tuple[str, list]:
    """Solver path and (rep, per-fibre mass, residual) per cycle from the cell matrix."""
    size, mat = op.size, op.matrix
    if size <= DENSE_EIG_LIMIT:
        values = np.linalg.eigvals(mat.toarray())
        picked = [(rep, _inverse_iteration(mat, rep)) for rep, _ in
                  _pick_cycles(values, top_m, imag_tol)]
        solver = "dense"
    else:
        k = min(max(2 * top_m + 10, 24), size - 2)
        v0 = np.full(size, 1.0 / np.sqrt(size))     # fixed start: deterministic runs
        values, vectors = spla.eigs(mat, k=k, which="LM", v0=v0)
        # for a real matrix, rep = conj(lam) has eigenvector conj(v)
        picked = [(rep, vectors[:, i] if values[i].imag < 0 else vectors[:, i].conj())
                  for rep, i in _pick_cycles(values, top_m, imag_tol)]
        solver = "arnoldi"
    return solver, [(rep, (np.abs(v) ** 2).reshape(-1, op.M).sum(axis=1),
                     _residual(mat, rep, v)) for rep, v in picked]


def detect_cycles(op: UlamOperator, model: BandModel, top_m: int,
                  imag_tol: float = 1e-9) -> CycleReport:
    """Report the top_m largest-magnitude nonreal eigenvalues as cycles.

    Conjugate pairs are reported once, by their lower-half-plane member.  A
    cycle's per-band mass comes from the squared magnitudes of its eigenvector
    summed over each band's cells; the band with the largest mass is the
    attributed support.  Analytic operators are solved by bin-DFT sector,
    others by their cell matrix (see the module docstring).  A reported
    eigenpair with relative residual above RESIDUAL_TOL raises NoConvergence.
    """
    if top_m < 1:
        raise InvalidSimulationInput(f"top_m must be >= 1, got {top_m}")
    if op.kernel_rows is not None:
        solver, found = "sector", _sector_cycles(op, top_m, imag_tol)
    else:
        solver, found = _cell_cycles(op, top_m, imag_tol)
    worst = max(res for _, _, res in found)
    if worst > RESIDUAL_TOL:
        raise NoConvergence(
            f"{solver} eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:g}", partial=found)

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
    return CycleReport(cycles=tuple(cycles), M=op.M, top_m=int(top_m), solver=solver,
                       max_residual=worst)
