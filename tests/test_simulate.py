import hashlib
import importlib
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rotor_spectra import (Cycle, NoiseGenerator, TrajectoryBatch, build_band_model,
                           case_study_config, detect_cycles, laplacian_generator, simulate,
                           spectra, spectrum, ulam_analytic, ulam_empirical, w_epsilon)
from rotor_spectra.cli import main
from rotor_spectra.config import CASE_STUDY_JSON
from rotor_spectra.errors import (DimensionMismatch, EpsOutOfRange, InsufficientData,
                                  InvalidSimulationInput, NoComplexEigenvalues, NoConvergence,
                                  RotorSpectraError)
from rotor_spectra.simulate import UlamOperator, _fibre_kernel_row, _pick_cycles
from conftest import traced_peak

# the package re-exports the function simulate over its submodule
simulate_module = importlib.import_module("rotor_spectra.simulate")
RANK_BLOCK = simulate_module._RANK_BLOCK


def single_fibre_model(speed):
    return build_band_model([speed], [1]), NoiseGenerator([[0.0]])


def one_fibre_batch(model, x):
    """Paths (rows of ``x``) that stay in fibre 0 at the given positions."""
    x = np.asarray(x, dtype=float)
    return TrajectoryBatch(j=np.zeros(x.shape, dtype=np.int32), x=x, model=model)


def coo_cell_matrix(kernel, w):
    """Reference: the cell matrix assembled entry by entry from its kernel rows and W_eps."""
    n, M = kernel.shape
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
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * M, n * M)).tocsr()


def sector_blocks(op):
    """Reference: the bin-DFT sector blocks B_m, m = 0..M/2, stacked, an exact
    operator's from its band rows expanded to one row per fibre."""
    if op.kernel is not None:
        return np.moveaxis(np.fft.rfft(op.kernel, axis=2).conj(), 2, 0)
    qhat = np.fft.rfft(op.kernel_rows[op.model.band_index], axis=1).conj()
    return qhat.T[:, :, None] * op.w_eps


def sector_bounds(op):
    """Reference: each sector's bound b(m) = ||B_m||_inf, its largest absolute row sum."""
    return np.abs(sector_blocks(op)).sum(axis=2).max(axis=1)


def full_eig_cycles(op, model, top_m):
    """Reference: every eigenpair of the dense cell matrix, ranked by the shared rule.

    Cell eigenvector u_j e^{2 pi i m a / M} comes from sector m, its dominant
    bin frequency, folded to 0..M/2 (sector M - m is the conjugate of m).
    Returns the values, their sector bounds and (rep, band masses) per pick.
    """
    values, vectors = np.linalg.eig(op.matrix.toarray())
    power = np.abs(np.fft.fft(vectors.reshape(model.N, op.M, -1), axis=1)) ** 2
    m = power.sum(axis=0).argmax(axis=0)
    bounds = sector_bounds(op)[np.minimum(m, op.M - m)]
    out = []
    for rep, i in _pick_cycles(values, bounds, top_m):
        mass = (np.abs(vectors[:, i]) ** 2).reshape(model.N, op.M).sum(axis=1)
        mass /= mass.sum()
        out.append((rep, [mass[model.band_slice(s)].sum() for s in range(model.S)]))
    return values, bounds, out


def counted_operator(batch, M, max_empty_fraction):
    """ulam_empirical with MAX_EMPTY_FRACTION set to ``max_empty_fraction``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_module, "MAX_EMPTY_FRACTION", max_empty_fraction)
        return ulam_empirical(batch, M)


def int64_kernel(batch, M):
    """Reference: the counted kernel and flagged cells from int64 keys and an integer modulo."""
    n = batch.model.N
    j = batch.j.astype(np.int64)
    bins = np.minimum((batch.x * M).astype(np.int64), M - 1)
    empty = np.flatnonzero(np.bincount((j * M + bins)[:, :-1].ravel(), minlength=n * M) == 0)
    steps = (j[:, :-1] * n + j[:, 1:]) * M + (bins[:, 1:] - bins[:, :-1]) % M
    counts = np.bincount(steps.ravel(), minlength=n * n * M).reshape(n, n, M)
    totals = counts.sum(axis=(1, 2))
    kernel = counts / np.maximum(totals, 1)[:, None, None]
    idle = np.flatnonzero(totals == 0)
    kernel[idle, idle, 0] = 1.0
    return kernel, tuple(int(r) for r in empty)


def assert_same_csr(a, b):
    """Bitwise-equal CSR: shape, row pointers, column indices and value bits."""
    assert a.format == b.format == "csr" and a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


def dense_generator(n):
    """A generator whose off-diagonal rates are all at least 0.05 (fixed seed)."""
    rates = np.random.default_rng(4).uniform(0.05, 1.0, size=(n, n))
    wdot = np.triu(rates, 1) + np.triu(rates, 1).T
    return NoiseGenerator(wdot - np.diag(wdot.sum(axis=1)))


def draw_admissible(data, widths, max_cells, sparse=False):
    """A random admissible model, generator, eps, delta and bin count M <= max_cells / N.

    The generator's off-diagonal rates are at least 0.05; with ``sparse`` it
    may instead be the Laplacian, or rates with a random zero pattern.
    """
    n = sum(widths)
    M = data.draw(st.integers(2, max_cells // n), label="M")
    beta = data.draw(st.lists(st.floats(-1, 1), min_size=len(widths),
                              max_size=len(widths), unique=True), label="beta")
    kind = data.draw(st.sampled_from(["dense", "laplacian", "pattern"] if sparse else ["dense"]),
                     label="generator")
    rates = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2), label="rates")
    if kind == "pattern":
        rates = np.multiply(rates, data.draw(st.lists(st.booleans(), min_size=len(rates),
                                                      max_size=len(rates)), label="pattern"))
    wdot = np.zeros((n, n))
    wdot[np.triu_indices(n, 1)] = rates
    wdot += wdot.T
    wdot -= np.diag(wdot.sum(axis=1))
    gen = NoiseGenerator(wdot)
    if kind == "laplacian" and n > 1:
        gen = laplacian_generator(n)
    eps = data.draw(st.floats(0.0, 1.0), label="eps_fraction") * min(gen.eps_max, 1.0)
    delta = data.draw(st.floats(0.0, 0.3), label="delta")
    return build_band_model(beta, widths), gen, eps, delta, M


def simulate_reference(model, gen, eps, delta, n_paths, n_steps, seed):
    """Reference: (j, x) of one path-major loop over the steps, whose walk
    takes the first column of each path's cumulative W_eps row above its
    uniform by an argmax over the row."""
    w = w_epsilon(gen, eps)
    cum = np.cumsum(w, axis=1)
    cum[:, -1] = 1.0 + 1e-12
    u_init = np.empty((n_paths, 2))
    u_walk = np.empty((n_paths, n_steps))
    u_noise = np.empty((n_paths, n_steps))
    for p, child in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
        g = np.random.Generator(np.random.Philox(child))
        u_init[p] = g.random(2)
        u_walk[p] = g.random(n_steps)
        u_noise[p] = g.random(n_steps)
    j = np.empty((n_paths, n_steps + 1), dtype=np.int32)
    x = np.empty((n_paths, n_steps + 1))
    j[:, 0] = np.minimum((u_init[:, 0] * model.N).astype(np.int32), model.N - 1)
    x[:, 0] = u_init[:, 1]
    alpha = np.asarray(model.alpha)
    for t in range(n_steps):
        jt = j[:, t]
        x[:, t + 1] = (x[:, t] + alpha[jt] + (2.0 * u_noise[:, t] - 1.0) * delta) % 1.0
        j[:, t + 1] = np.argmax(cum[jt] > u_walk[:, t][:, None], axis=1)
    return j, x


def assert_same_bits(batch, reference):
    """The batch's j and x carry the reference's bits, C-contiguous and read-only."""
    for got, want in zip((batch.j, batch.x), reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and not got.flags.writeable
        assert got.tobytes() == want.tobytes()


def all_sector_cycles(op, top_m):
    """Reference: every sector 0..M/2 decomposed by eig_dense_complex, and the
    shared pick rule over their values in ascending m.

    Returns (rep, per-fibre mass, residual, converged) per pick.
    """
    eigs = [spectra.eig_dense_complex(b) for b in sector_blocks(op)]
    bounds = np.repeat(sector_bounds(op), op.model.N)
    out = []
    for rep, i in _pick_cycles(np.concatenate([eig.values for eig in eigs]), bounds, top_m):
        eig, c = eigs[i // op.model.N], i % op.model.N
        mass = np.abs(eig.vectors[:, c]) ** 2
        out.append((rep, mass / mass.sum(), float(eig.residuals[c]), bool(eig.converged[c])))
    return out


def assert_same_as_all_sectors(op, model, top_m):
    """The pruned report equals the all-sector reference field for field."""
    try:
        ref = all_sector_cycles(op, top_m)
    except NoComplexEigenvalues:
        with pytest.raises(NoComplexEigenvalues):
            detect_cycles(op, model, top_m)
        return None
    if not all(converged for *_, converged in ref):
        with pytest.raises(NoConvergence):
            detect_cycles(op, model, top_m)
        return None
    report = detect_cycles(op, model, top_m)
    assert [c.eigenvalue for c in report.cycles] == [complex(rep) for rep, *_ in ref]
    for c, (_, mass, *_) in zip(report.cycles, ref):
        assert c.band_masses == tuple(float(mass[model.band_slice(s)].sum())
                                      for s in range(model.S))
    assert report.max_residual == max(res for _, _, res, _ in ref)
    assert 1 <= report.sectors_solved <= op.M // 2 + 1
    return report


def assert_matches_full_eig(report, op, model):
    *_, ref = full_eig_cycles(op, model, report.top_m)
    assert len(report.cycles) == len(ref)
    for c, (rep, masses) in zip(report.cycles, ref):
        assert abs(c.eigenvalue - rep) <= 1e-12 * abs(rep)
        assert_allclose(c.band_masses, masses, rtol=0, atol=1e-12)
        assert masses[c.band] >= max(masses) - 1e-12
    assert report.max_residual <= spectra.RESIDUAL_TOL


class TestSimulate:
    def test_quarter_rotation_orbit(self):
        m, g = single_fibre_model(0.25)
        batch = simulate(m, g, 0.0, 0.0, 4, 8, seed=1)
        assert_allclose(np.diff(batch.x, axis=1) % 1.0, 0.25, rtol=0, atol=1e-15)
        assert np.all(batch.j == 0)

    def test_eps0_freezes_fibre(self, case_model, case_gen):
        batch = simulate(case_model, case_gen, 0.0, 0.3, 16, 50, seed=3)
        assert np.all(batch.j == batch.j[:, :1])

    def test_reproducible(self, case_model, case_gen):
        a = simulate(case_model, case_gen, 0.1, 0.1, 8, 40, seed=42)
        b = simulate(case_model, case_gen, 0.1, 0.1, 8, 40, seed=42)
        assert np.array_equal(a.j, b.j) and np.array_equal(a.x, b.x)
        c = simulate(case_model, case_gen, 0.1, 0.1, 8, 40, seed=43)
        assert not np.array_equal(a.j, c.j)

    def test_batch_is_path_major(self, case_model, case_gen):
        # ulam_empirical counts in blocks of whole paths, the rows of this layout
        batch = simulate(case_model, case_gen, 0.1, 0.1, 5, 30, seed=7)
        for a in (batch.j, batch.x):
            assert a.shape == (5, 31) and a.flags.c_contiguous

    def test_paths_have_independent_streams(self, case_model, case_gen):
        # prefix of a bigger batch matches the smaller batch path-for-path
        a = simulate(case_model, case_gen, 0.1, 0.1, 4, 30, seed=7)
        b = simulate(case_model, case_gen, 0.1, 0.1, 8, 30, seed=7)
        assert np.array_equal(a.j, b.j[:4]) and np.array_equal(a.x, b.x[:4])

    def test_fibre_occupancy_near_uniform(self, case_model, case_gen):
        batch = simulate(case_model, case_gen, 0.1, 0.1, 4000, 60, seed=5)
        counts = np.bincount(batch.j[:, -1], minlength=33)
        p = counts / 4000
        se = np.sqrt((1 / 33) * (1 - 1 / 33) / 4000)
        assert np.max(np.abs(p - 1 / 33)) <= 3 * se

    @settings(max_examples=80, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
    def test_equals_the_argmax_loop_bit_for_bit(self, widths, data):
        model, gen, eps, _, _ = draw_admissible(data, widths, max_cells=24, sparse=True)
        if data.draw(st.booleans(), label="at eps_max") and np.isfinite(gen.eps_max):
            # just above eps_max, W_eps's diagonal may dip into [-1e-14, 0)
            eps = gen.eps_max * (1 + data.draw(st.floats(0.0, 4e-15), label="slack"))
        eps = data.draw(st.sampled_from([eps, 0.0]), label="eps")
        delta = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.5, 3.0)),
                          label="delta")
        n_paths = data.draw(st.integers(0, 6), label="n_paths")
        # past two blocks of the lookup plan's rank search
        n_steps = data.draw(st.integers(0, 2 * RANK_BLOCK + 10), label="n_steps")
        seed = data.draw(st.integers(0, 2 ** 32), label="seed")
        assert_same_bits(simulate(model, gen, eps, delta, n_paths, n_steps, seed),
                         simulate_reference(model, gen, eps, delta, n_paths, n_steps, seed))

    @pytest.mark.parametrize("eps_scale, delta, n_paths, n_steps", [
        (1 + 4e-15, 0.1, 3, 200),    # W_eps entries in [-1e-14, 0)
        (0.0, 0.1, 3, 50), (0.5, 0.0, 3, 50), (0.5, 0.5, 3, 50), (0.5, 0.7, 3, 50),
        (0.5, 0.1, 3, 0), (0.5, 0.1, 1, 50), (0.5, 0.1, 0, 50)])
    def test_edge_cases_equal_the_argmax_loop(self, eps_scale, delta, n_paths, n_steps):
        gen = dense_generator(5)
        model = build_band_model([0.1, -0.35], [2, 3])
        eps = eps_scale * gen.eps_max
        if eps_scale > 1:
            assert -1e-14 <= w_epsilon(gen, eps).min() < 0
        assert_same_bits(simulate(model, gen, eps, delta, n_paths, n_steps, 11),
                         simulate_reference(model, gen, eps, delta, n_paths, n_steps, 11))

    @pytest.mark.parametrize("n_paths", [1, 7])
    @pytest.mark.parametrize("n_steps", [RANK_BLOCK - 1, RANK_BLOCK, RANK_BLOCK + 1,
                                         2 * RANK_BLOCK + 1])
    @pytest.mark.parametrize("dense", [False, True])
    def test_rank_block_edges_equal_the_argmax_loop(self, case_model, case_gen, dense,
                                                    n_steps, n_paths):
        # the lookup plan ranks a block of steps at once; the complex plan
        # searches per step, and both must end each block where the next begins
        model, gen = ((build_band_model([0.1, -0.35], [2, 3]), dense_generator(5)) if dense
                      else (case_model, case_gen))
        eps = 0.5 * gen.eps_max if dense else 0.1
        assert (simulate_module._walk_table(w_epsilon(gen, eps))[0].dtype == complex) == dense
        assert_same_bits(simulate(model, gen, eps, 0.7, n_paths, n_steps, 5),
                         simulate_reference(model, gen, eps, 0.7, n_paths, n_steps, 5))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40))
    @example(values=[-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     -2.2250738585072009e-308, 2.0 ** 52 - 0.5, 2.0 ** 52, 2.0 ** 52 + 1,
                     -(2.0 ** 52) - 0.5, -(2.0 ** 52) + 0.5, -(2.0 ** 52), -1e-17, -1.0,
                     1.0, 1.5, -1.5, 1e300, -1e300, np.nextafter(1.0, 0), -np.nextafter(1.0, 0)])
    def test_wrap_equals_numpy_remainder_bit_for_bit(self, values):
        # a turn and a noise of -0.0 add nothing to any value, -0.0 included,
        # so x[1] is the wrap of x[0] itself
        y = np.array(values)
        x = np.stack([y, np.full_like(y, np.nan)])
        zero = np.full((1, len(y)), -0.0)
        simulate_module._rotate(x, zero, zero)
        assert x[1].tobytes() == np.remainder(y, 1.0).tobytes()

    def test_no_paths_return_at_once(self, case_model, case_gen):
        # the counts, the dimensions, delta and eps are checked first
        for args, error in [((0.1, -0.1, 0, 5, 1), InvalidSimulationInput),
                            ((-1.0, 0.1, 0, 5, 1), EpsOutOfRange),
                            ((0.1, 0.1, 0, -5, 1), InvalidSimulationInput)]:
            with pytest.raises(error):
                simulate(case_model, case_gen, *args)
        with pytest.raises(DimensionMismatch):
            simulate(case_model, laplacian_generator(5), 0.1, 0.1, 0, 5, 1)
        start = time.perf_counter()
        batch = simulate(case_model, case_gen, 0.1, 0.1, 0, 10 ** 12, seed=1)
        assert time.perf_counter() - start < 0.5
        assert batch.j.shape == batch.x.shape == (0, 10 ** 12 + 1)
        assert batch.j.dtype == np.int32 and batch.x.dtype == np.float64
        for a in (batch.j, batch.x):
            assert a.flags.c_contiguous and not a.flags.writeable

    def test_peak_holds_one_rank_block(self, case_model, case_gen):
        block = RANK_BLOCK * 200 * np.dtype(np.intp).itemsize
        # 5.41 MiB: the batch's buffers, as they were with one search per step.
        # Ranks of every step would tie with the rotation's positions (8 bytes
        # a step each) and pass this bound, so the walk is held to one block too
        assert traced_peak(simulate, case_model, case_gen, 0.1, 0.1, 200, 1000, 1) \
            <= 5.41 * 2 ** 20 + block
        keys, table = simulate_module._walk_table(w_epsilon(case_gen, 0.1))
        assert keys.dtype == float
        j = np.zeros((1001, 200), dtype=np.int32)
        u = np.random.default_rng(1).random((1000, 200))
        assert traced_peak(simulate_module._walk, j, u, keys, table) <= block + (8 << 10)

    @pytest.mark.parametrize("dense", [False, True])
    def test_walk_step_at_ties_and_dips(self, dense):
        # uniforms at and next to every cumulative sum of W_eps: the search
        # takes the first column above u where sums tie (a Laplacian row's
        # zero columns) and where they dip (W_eps just above eps_max)
        gen = dense_generator(6) if dense else laplacian_generator(6)
        w = w_epsilon(gen, gen.eps_max * (1 + 4e-15 if dense else 0.5))
        assert (w.min() < 0) == dense
        cum = np.cumsum(w, axis=1)
        cum[:, -1] = 1.0 + 1e-12
        rows, u = np.nonzero(np.ones_like(cum, dtype=bool))[0], cum.ravel()
        rows, u = np.tile(rows, 3), np.concatenate([np.nextafter(u, -1), u, np.nextafter(u, 2)])
        rows, u = rows[(0 <= u) & (u < 1)], u[(0 <= u) & (u < 1)]
        j = np.stack([rows, rows]).astype(np.int32)
        keys, table = simulate_module._walk_table(w)
        assert (keys.dtype == complex) == dense           # the Laplacian takes the lookup
        simulate_module._walk(j, u[None, :], keys, table)
        assert np.array_equal(j[1], np.argmax(cum[rows] > u[:, None], axis=1))

    @pytest.mark.parametrize("n", [7, 8, 33, 99, 500])
    def test_laplacian_walks_take_the_lookup(self, n):
        # a Laplacian W_eps's cumulative rows hold at most 7 distinct values
        # (1e-6 eps_max gives 7), so from N = 8 up every eps takes the lookup
        gen = laplacian_generator(n)
        for eps in gen.eps_max * np.array([0.0, 1e-6, 1e-3, 0.1, 0.37, 0.5, 0.9, 1.0]):
            w = w_epsilon(gen, eps)
            cum = np.cumsum(w, axis=1)
            cum[:, -1] = 1.0 + 1e-12
            distinct = len(np.unique(np.maximum.accumulate(cum, axis=1)))
            assert distinct <= 7
            keys, table = simulate_module._walk_table(w)
            assert (keys.dtype == float) == (distinct < n)
            assert keys.dtype == float or n < 8
            if keys.dtype == float:
                assert len(keys) == distinct
                assert table.dtype == np.int32 and len(table) == n * (distinct + 1) <= n * n

    def test_dense_walk_keeps_the_complex_table(self):
        gen = dense_generator(33)
        keys, table = simulate_module._walk_table(w_epsilon(gen, 0.5 * gen.eps_max))
        assert keys.dtype == complex and len(keys) == len(table) == 33 * 33

    def test_benchmark_batch_equals_the_argmax_loop(self, case_model, case_gen):
        # the empirical batch of the ulam-cycles benchmark: 200 paths x 1000 steps
        assert simulate_module._walk_table(w_epsilon(case_gen, 0.1))[0].dtype == float
        assert_same_bits(simulate(case_model, case_gen, 0.1, 0.1, 200, 1000, 1),
                         simulate_reference(case_model, case_gen, 0.1, 0.1, 200, 1000, 1))

    def test_cli_files_are_pinned(self, tmp_path):
        # simulate --paths 20 --steps 1000 --seed 3 on the case study: the
        # bytes of the path-major argmax loop that the two passes replaced
        cfg = tmp_path / "case.json"
        cfg.write_text(CASE_STUDY_JSON, encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--paths", "20", "--steps", "1000", "--seed", "3"]) == 0
        digests = {name: hashlib.sha256((tmp_path / "sim" / name).read_bytes()).hexdigest()
                   for name in ("trajectories.csv", "cycles.json")}
        assert digests == {
            "trajectories.csv": "4bbc9e132f8c892c9a1c0b71b05ef49b2869237b3cb6784a91b8666bd135eafc",
            "cycles.json": "86969507396f6237d81c1962b97e7ba06962d7f1c49dc9832ebb6ee75882e94f"}

    def test_fibre_transitions_follow_walk_rows(self, two_band_model, two_band_gen):
        batch = simulate(two_band_model, two_band_gen, 0.5, 0.0, 2000, 20, seed=9)
        # empirical off-diagonal frequency ~ eps/2 = 0.25
        moves = np.mean(batch.j[:, :-1] != batch.j[:, 1:])
        assert moves == pytest.approx(0.25, abs=0.02)


CELL_MATRIX_CASES = {
    # name: (beta, widths, eps [None: eps_max], delta, M)
    "three-bins": ([0.25], [2], None, 0.0, 3),
    "no-noise": ([0.1, 0.3, 0.45], [2, 1, 2], 0.2, 0.0, 15),
    "eps-max": ([0.1, 0.3], [2, 2], None, 0.05, 16),
}


class TestUlamAnalytic:
    @pytest.mark.parametrize("name", sorted(CELL_MATRIX_CASES))
    def test_cell_matrix_matches_coo_reference(self, name):
        beta, widths, eps, delta, M = CELL_MATRIX_CASES[name]
        m = build_band_model(beta, widths)
        g = laplacian_generator(m.N)
        op = ulam_analytic(m, g, g.eps_max if eps is None else eps, delta, M)
        assert_same_csr(op.matrix, coo_cell_matrix(op.kernel_rows[op.model.band_index],
                                                   op.w_eps))

    def test_case_study_cell_matrix_matches_coo_reference(self, case_model, case_gen):
        op = ulam_analytic(case_model, case_gen, 0.1, 0.1, 128)
        assert op.size == 33 * 128 and op.kernel is None
        assert_same_csr(op.matrix, coo_cell_matrix(op.kernel_rows[op.model.band_index],
                                                   op.w_eps))

    def test_rational_rotation_is_permutation(self):
        m, g = single_fibre_model(0.25)
        op = ulam_analytic(m, g, 0.0, 0.0, 4)
        dense = op.matrix.toarray()
        want = np.zeros((4, 4))
        for a in range(4):
            want[a, (a + 1) % 4] = 1.0
        assert_allclose(dense, want, atol=1e-15)

    def test_wide_noise_gives_uniform_rows(self):
        m, g = single_fibre_model(0.3)
        op = ulam_analytic(m, g, 0.0, 0.5, 8)
        assert_allclose(op.matrix.toarray(), 1 / 8, atol=1e-14)

    def test_rows_sum_to_one(self, case_model, case_gen):
        op = ulam_analytic(case_model, case_gen, 0.1, 0.1, 32)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1)) <= 1e-12

    def test_kernel_row_is_exact_overlap(self):
        # delta=0: bin overlap of a pure rotation, checked against geometry
        q = _fibre_kernel_row(0.3, 0.0, 10)
        want = np.zeros(10)
        want[3] = 1.0          # shift 0.3 maps [0, .1) onto [.3, .4)
        assert_allclose(q, want, atol=1e-12)
        q = _fibre_kernel_row(0.25, 0.0, 10)
        assert_allclose(q[[2, 3]], [0.5, 0.5], atol=1e-12)

    @staticmethod
    def loop_row(alpha_j, delta, M):
        # every integer translate of the noise interval that meets the circle
        h = 1.0 / M
        s = alpha_j % 1.0
        edges = np.arange(M + 1) * h
        q = np.zeros(M)
        for n in range(int(np.floor(-delta - s)) - 1, int(np.ceil(h + delta - s)) + 2):
            q += np.diff(simulate_module._sum_cdf(n + edges - s, h, delta))
        return q

    @pytest.mark.parametrize("M", [2, 7, 128])
    def test_wide_noise_row_matches_every_translate(self, M):
        for delta in [0.5, 0.7, 1.0, 1.25, 3.3, 10.0, 37.3]:
            for alpha_j in [0.0, 0.15, 0.3883, 0.7071]:
                assert_allclose(_fibre_kernel_row(alpha_j, delta, M),
                                self.loop_row(alpha_j, delta, M), rtol=0, atol=1e-14)
        for delta in [0.0, 0.1, 0.25, 0.4999]:   # below half a turn: the same bits
            assert np.array_equal(_fibre_kernel_row(0.3883, delta, M),
                                  self.loop_row(0.3883, delta, M))

    def test_huge_delta_row(self):
        # 2e8 full turns and 0.6 of one: within 1 / (2 delta) of uniform
        delta, M = 1e8 + 0.3, 128
        q = _fibre_kernel_row(0.3883, delta, M)
        assert abs(q.sum() - 1) <= 1e-14
        assert np.max(np.abs(q - 1 / M)) <= 1 / (2 * delta)
        assert np.ptp(q) > 0
        op = ulam_analytic(*single_fibre_model(0.3883), 0.0, 1e300, M)
        assert_allclose(op.kernel_rows, 1 / M, rtol=0, atol=1e-15)

    def test_sector_decomposition_matches_full_spectrum(self):
        # the analytic matrix is circulant per fibre pair: the fibre-wise DFT
        # block-diagonalises it exactly
        m = build_band_model([0.1, 0.3], [1, 1])
        g = laplacian_generator(2)
        M, eps = 8, 0.05
        op = ulam_analytic(m, g, eps, 0.0, M)
        full = np.sort_complex(np.round(np.linalg.eigvals(op.matrix.toarray()), 9))
        w = np.eye(2) + eps * np.asarray(g.wdot)
        sector_eigs = []
        for kappa in range(M):
            chat = []
            for j in range(2):
                q = _fibre_kernel_row(m.alpha[j], 0.0, M)
                chat.append(np.sum(q * np.exp(2j * np.pi * kappa * np.arange(M) / M)))
            sector_eigs.extend(np.linalg.eigvals(np.diag(chat) @ w))
        sectors = np.sort_complex(np.round(np.asarray(sector_eigs), 9))
        assert_allclose(full, sectors, atol=1e-8)

    def test_k1_sector_args_near_rotation_angles(self):
        m = build_band_model([0.1, 0.3], [1, 1])
        g = laplacian_generator(2)
        op = ulam_analytic(m, g, 0.01, 0.0, 64)
        report = detect_cycles(op, m, top_m=2)
        args = sorted(abs(c.arg) for c in report.cycles)
        assert abs(args[0] - 2 * np.pi * 0.1) <= 1e-2
        assert abs(args[1] - 2 * np.pi * 0.3) <= 1e-2


    def test_one_kernel_row_per_band(self, case_model, case_gen, monkeypatch):
        calls = []
        real = simulate_module._fibre_kernel_row

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(simulate_module, "_fibre_kernel_row", counted)
        op = ulam_analytic(case_model, case_gen, 0.1, 0.1, 16)
        assert len(calls) == case_model.S
        assert op.kernel_rows.shape == (case_model.S, 16)
        for j in (0, 10, 11, 32):
            assert_allclose(op.kernel_rows[case_model.band_index[j]],
                            real(case_model.alpha[j], 0.1, 16), atol=0)
        assert_allclose(op.w_eps, np.eye(33) + 0.1 * np.asarray(case_gen.wdot), atol=0)

    def test_bad_bin_counts_are_typed(self, two_band_model, two_band_gen):
        batch = simulate(two_band_model, two_band_gen, 0.1, 0.1, 4, 10, seed=1)
        for M in (1, 0, -3):
            with pytest.raises(InvalidSimulationInput, match="M must be >= 2 and an integer"):
                ulam_analytic(two_band_model, two_band_gen, 0.1, 0.1, M)
            with pytest.raises(InvalidSimulationInput, match="M must be >= 2 and an integer"):
                ulam_empirical(batch, M)
        assert issubclass(InvalidSimulationInput, RotorSpectraError)
        assert issubclass(InvalidSimulationInput, ValueError)

    @pytest.mark.parametrize("delta", [-0.1, np.nan, np.inf])
    def test_bad_delta_is_typed(self, two_band_model, two_band_gen, delta):
        with pytest.raises(InvalidSimulationInput, match="delta must be finite and >= 0"):
            ulam_analytic(two_band_model, two_band_gen, 0.1, delta, 8)
        with pytest.raises(InvalidSimulationInput, match="delta must be finite and >= 0"):
            simulate(two_band_model, two_band_gen, 0.1, delta, 2, 5, seed=1)

    def test_negative_counts_are_typed(self, two_band_model, two_band_gen):
        for paths, steps in ((-1, 10), (2, -5)):
            with pytest.raises(InvalidSimulationInput):
                simulate(two_band_model, two_band_gen, 0.1, 0.1, paths, steps, seed=1)

    def test_numpy_integer_counts_are_accepted(self, two_band_model, two_band_gen):
        # the integer checks accept every numbers.Integral, numpy's included
        batch = simulate(two_band_model, two_band_gen, 0.1, 0.1, np.int32(50), np.int64(50),
                         np.uint8(3))
        ulam_empirical(batch, np.int64(2))
        ulam_analytic(two_band_model, two_band_gen, 0.1, 0.1, np.int16(4))


class TestUlamEmpirical:
    def test_recovers_permutation(self):
        m, g = single_fibre_model(0.25)
        batch = simulate(m, g, 0.0, 0.0, 8, 50, seed=2)
        op = ulam_empirical(batch, 4)
        analytic = ulam_analytic(m, g, 0.0, 0.0, 4)
        assert (op.mode, analytic.mode) == ("empirical", "analytic")
        assert_allclose(op.matrix.toarray(), analytic.matrix.toarray(), atol=0)
        assert op.flagged_rows == ()

    def test_rows_sum_exactly(self, two_band_model, two_band_gen):
        batch = simulate(two_band_model, two_band_gen, 0.3, 0.2, 300, 200, seed=11)
        op = ulam_empirical(batch, 16)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1)) <= 1e-12

    def test_tv_distance_shrinks_with_data(self, two_band_model, two_band_gen):
        analytic = ulam_analytic(two_band_model, two_band_gen, 0.3, 0.2, 8).matrix.toarray()

        def mean_tv(paths):
            batch = simulate(two_band_model, two_band_gen, 0.3, 0.2, paths, 100, seed=13)
            emp = ulam_empirical(batch, 8).matrix.toarray()
            return np.mean(0.5 * np.abs(emp - analytic).sum(axis=1))

        small, big = mean_tv(100), mean_tv(400)
        # 4x data should shrink mean row TV by about 2, within a factor 3
        assert big < small
        assert small / big < 6.0

    def test_million_transition_accuracy(self, two_band_model, two_band_gen):
        analytic = ulam_analytic(two_band_model, two_band_gen, 0.3, 0.2, 8).matrix.toarray()
        batch = simulate(two_band_model, two_band_gen, 0.3, 0.2, 2000, 500, seed=17)
        emp = ulam_empirical(batch, 8).matrix.toarray()
        tv = 0.5 * np.abs(emp - analytic).sum(axis=1)
        assert np.max(tv) < 0.02

    def test_kernel_counts_fibre_moves_and_bin_shifts(self, two_band_model, two_band_gen):
        batch = simulate(two_band_model, two_band_gen, 0.3, 0.2, 5, 40, seed=3)
        M = 6
        counts = np.zeros((2, 2, M))
        bins = np.minimum((batch.x * M).astype(int), M - 1)
        for p in range(5):
            for t in range(40):
                counts[batch.j[p, t], batch.j[p, t + 1], (bins[p, t + 1] - bins[p, t]) % M] += 1
        op = counted_operator(batch, M, 1.0)
        assert_allclose(op.kernel, counts / counts.sum(axis=(1, 2))[:, None, None],
                        rtol=0, atol=1e-15)

    def test_idle_fibre_becomes_self_loop(self, two_band_model):
        # the path leaves every bin of fibre 0, and no step leaves fibre 1
        batch = one_fibre_batch(two_band_model, [[0.1, 0.35, 0.6, 0.85, 0.1]])
        op = counted_operator(batch, 4, 0.5)
        assert op.flagged_rows == (4, 5, 6, 7)
        want = np.zeros((2, 4))
        want[1, 0] = 1.0
        assert_allclose(op.kernel[1], want, atol=0)
        assert_allclose(op.matrix.toarray()[4:, 4:], np.eye(4), atol=0)
        with pytest.raises(InsufficientData, match="4 of 8 rows"):
            counted_operator(batch, 4, 0.49)

    def test_empty_batch(self, two_band_model, two_band_gen):
        batch = simulate(two_band_model, two_band_gen, 0.1, 0.1, 3, 0, seed=1)
        with pytest.raises(InsufficientData):
            ulam_empirical(batch, 8)

    def test_insufficient_coverage(self):
        m, _ = single_fibre_model(0.0)      # no rotation, no noise: stuck in one bin
        batch = one_fibre_batch(m, np.zeros((2, 6)))
        with pytest.raises(InsufficientData):
            ulam_empirical(batch, 64)

    # -0.1 once failed as a bare bincount ValueError, and 1.5 was counted in
    # bin M - 1 without a word
    @pytest.mark.parametrize("x", [-0.1, 1.5, np.nan, np.inf])
    def test_positions_outside_the_circle_are_typed(self, two_band_model, x):
        positions = np.array([[0.1, 0.35, 0.6, 0.85, 0.1]])
        positions[0, 2] = x
        with pytest.raises(InvalidSimulationInput, match="positions must be finite"):
            counted_operator(one_fibre_batch(two_band_model, positions), 4, 1.0)

    def test_complex_positions_are_typed(self, two_band_model):
        # x + 0.3j once only warned, then counted the real parts
        x = np.array([[0.1, 0.35, 0.6, 0.85, 0.1]]) + 0.3j
        with pytest.raises(InvalidSimulationInput, match="positions must be real"):
            TrajectoryBatch(j=np.zeros(x.shape, dtype=np.int32), x=x, model=two_band_model)

    @pytest.mark.parametrize("fibre", [2, -1])
    def test_fibres_outside_the_model_are_typed(self, two_band_model, fibre):
        # fibre N once failed as a bare ValueError at the kernel's reshape
        batch = one_fibre_batch(two_band_model, [[0.1, 0.35, 0.6, 0.85, 0.1]])
        j = batch.j.copy()
        j[0, 3] = fibre
        with pytest.raises(InvalidSimulationInput, match=r"fibres must lie in \[0, 2\)"):
            ulam_empirical(TrajectoryBatch(j=j, x=batch.x, model=two_band_model), 4)

    def test_fibres_must_be_integers_and_shapes_agree(self, two_band_model):
        x = np.array([[0.1, 0.35, 0.6, 0.85, 0.1]])
        with pytest.raises(InvalidSimulationInput, match="fibres must be integers"):
            ulam_empirical(TrajectoryBatch(j=np.zeros(x.shape), x=x, model=two_band_model), 4)
        for j in (np.zeros((1, 4), dtype=np.int32), np.zeros(5, dtype=np.int32)):
            with pytest.raises(InvalidSimulationInput, match="share one"):
                ulam_empirical(TrajectoryBatch(j=j, x=x, model=two_band_model), 4)

    def test_unit_position_counts_in_the_last_bin(self, two_band_model):
        # simulate's % 1.0 can round up to 1.0: it stays in bin M - 1
        at_one = counted_operator(one_fibre_batch(two_band_model, [[0.1, 0.35, 0.6, 1.0]]), 4, 1.0)
        below = counted_operator(one_fibre_batch(two_band_model, [[0.1, 0.35, 0.6, 0.9]]), 4, 1.0)
        assert np.array_equal(at_one.kernel, below.kernel)
        assert at_one.flagged_rows == below.flagged_rows

    def test_int32_key_range_is_refused_before_allocating(self, case_model):
        # N^2 M = 33^2 * 2e6 >= 2^31; the refusal allocates nothing of the
        # operator's size (a counted kernel of 2.2e9 cells)
        batch = one_fibre_batch(case_model, [[0.1, 0.35, 0.6, 0.85, 0.1]])

        def refuse():
            with pytest.raises(InvalidSimulationInput, match="int32"):
                ulam_empirical(batch, 2_000_000)

        assert traced_peak(refuse) < 1 << 20

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernel_equals_the_int64_formula_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 4), label="N")
        M = data.draw(st.integers(2, 9), label="M")
        paths = data.draw(st.integers(1, 4), label="paths")
        steps = data.draw(st.integers(1, 25), label="steps")
        shape = (steps + 1, paths) if data.draw(st.booleans(), label="time-major") \
            else (paths, steps + 1)
        size = shape[0] * shape[1]
        j = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size),
                               label="j")).reshape(shape)
        # bin edges k / M and 1.0 beside arbitrary positions
        x = np.array(data.draw(st.lists(st.one_of(st.integers(0, M).map(lambda k: k / M),
                                                  st.floats(0, 1)),
                                        min_size=size, max_size=size), label="x")).reshape(shape)
        if shape[0] != paths:        # a hand-built transposed batch: a time-major buffer
            j, x = j.T, x.T
        model = build_band_model([0.1], [n])
        batch = TrajectoryBatch(j=j.astype(np.int32), x=x, model=model)
        op = counted_operator(batch, M, 1.0)
        kernel, flagged = int64_kernel(batch, M)
        assert np.array_equal(op.kernel.view(np.uint64), kernel.view(np.uint64))
        assert op.flagged_rows == flagged

    @pytest.mark.parametrize("time_major", [False, True])
    @pytest.mark.parametrize("block", [1, 64, 100])
    def test_blocked_count_equals_the_int64_formula(self, monkeypatch, time_major, block):
        # 9 paths of 30 steps: blocks of 1, 2 or 3 paths, none dividing the
        # batch, in simulate's layout and as strided slabs of a hand-built
        # transposed batch
        rng = np.random.default_rng(block)
        shape = (31, 9) if time_major else (9, 31)
        j, x = rng.integers(0, 5, size=shape, dtype=np.int32), rng.uniform(size=shape)
        if time_major:
            j, x = j.T, x.T
        batch = TrajectoryBatch(j=j, x=x, model=build_band_model([0.1, 0.4], [2, 3]))
        monkeypatch.setattr(simulate_module, "_COUNT_BLOCK", block)
        op = counted_operator(batch, 6, 1.0)
        kernel, flagged = int64_kernel(batch, 6)
        assert np.array_equal(op.kernel.view(np.uint64), kernel.view(np.uint64))
        assert op.flagged_rows == flagged

    def test_key_temporaries_are_block_sized(self, case_model, case_gen):
        # the int32 buffers of bins and keys take 8 bytes a step; a bincount
        # of every key at once would copy them to intp, 8 bytes a step more
        batch = simulate(case_model, case_gen, 0.1, 0.1, 2000, 1000, 77)
        assert traced_peak(ulam_empirical, batch, 32) < 8 * batch.j.size + (2 << 20)


#: the (typical, stray) elements of each dtype a hand-built batch may carry,
#: about the range a batch of 3 fibres accepts
BATCH_ELEMENTS = {
    np.int8: (st.integers(0, 2), st.sampled_from([-1, 3])),
    np.int64: (st.integers(0, 2), st.sampled_from([-1, 3])),
    np.uint16: (st.integers(0, 1), st.just(3)),
    np.float64: (st.floats(0, 1), st.sampled_from([-0.25, 1.25, math.nan, math.inf])),
    np.bool_: (st.booleans(), st.booleans()),
    np.complex128: (st.complex_numbers(max_magnitude=1), st.just(0.5j)),
    object: (st.integers(0, 1) | st.floats(0, 1), st.none() | st.text(max_size=2)),
}


@st.composite
def batch_array(draw, shape):
    """An array of the given shape and a drawn dtype, one entry perhaps stray."""
    dtype = draw(st.sampled_from(list(BATCH_ELEMENTS)), label="dtype")
    typical, stray = BATCH_ELEMENTS[dtype]
    size = math.prod(shape)
    values = draw(st.lists(typical, min_size=size, max_size=size), label="values")
    if size and draw(st.booleans(), label="stray"):
        values[draw(st.integers(0, size - 1), label="at")] = draw(stray, label="stray value")
    return np.array(values, dtype=dtype).reshape(shape)


#: mostly (paths, steps + 1) shapes, some of another dimension
SHAPES = st.sampled_from([2] * 7 + [0, 1, 3]).flatmap(
    lambda ndim: st.tuples(*[st.integers(0, 4)] * ndim))


class TestTrajectoryBatch:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_batch_builds_or_refuses(self, data):
        shape = data.draw(SHAPES, label="shape")
        other = shape if data.draw(st.integers(0, 3), label="x shape kind") else data.draw(
            SHAPES, label="x shape")
        j, x = data.draw(batch_array(shape), label="j"), data.draw(batch_array(other), label="x")
        model = build_band_model([0.1, 0.4], [1, 2])
        try:
            batch = TrajectoryBatch(j=j, x=x, model=model)
        except RotorSpectraError:
            return
        assert batch.j.ndim == 2 and batch.j.shape == batch.x.shape
        assert np.issubdtype(batch.j.dtype, np.integer) and batch.x.dtype.kind in "biuf"
        assert np.all((0 <= batch.j) & (batch.j < model.N))
        assert np.all((0 <= batch.x) & (batch.x <= 1))
        assert not (batch.j.flags.writeable or batch.x.flags.writeable)
        # a batch that builds is counted, or refused for too few steps
        try:
            ulam_empirical(batch, 4)
        except InsufficientData:
            pass

    @pytest.mark.parametrize("j, x", [
        ([[0, 1, 2]], [[0.1, 0.2, 0.3]]),
        ([[0, -1, 1]], [[0.1, 0.2, 0.3]]),
        ([[0.0, 1.5, 1.0]], [[0.1, 0.2, 0.3]]),
        ([0, 1, 1], [0.1, 0.2, 0.3]),
        ([[0, 1, 1]], [[0.1, 7.0, 0.3]]),
        ([[0, 1, 1]], [[0.1, math.nan, 0.3]]),
    ], ids=["fibre_N", "fibre_negative", "float_fibres", "one_dimensional", "x_seven", "x_nan"])
    def test_bad_paths_are_refused_when_built(self, two_band_model, tmp_path, j, x):
        # the trajectory writer once wrote fibres N + 1 and -1 (1-based), truncated
        # float fibres, 7.0 and nan, or a 1-D batch failed as a bare IndexError
        with pytest.raises(InvalidSimulationInput):
            TrajectoryBatch(j=np.array(j), x=np.array(x), model=two_band_model)

    def test_ragged_paths_are_refused_when_built(self, two_band_model):
        # numpy's bare ValueError (an inhomogeneous shape) once ended the build
        with pytest.raises(InvalidSimulationInput, match="must be arrays"):
            TrajectoryBatch(j=[[0, 1], [0]], x=[[0.1, 0.2]], model=two_band_model)
        with pytest.raises(InvalidSimulationInput, match="must be arrays"):
            TrajectoryBatch(j=[[0, 1]], x=[[0.1, 0.2], [0.3]], model=two_band_model)

    def test_batch_is_frozen_in_place(self, two_band_model):
        # a transposed view keeps its strides: no copy of either array is made
        j = np.zeros((5, 2), dtype=np.int32).T
        x = np.full((5, 2), 0.5).T
        batch = TrajectoryBatch(j=j, x=x, model=two_band_model)
        assert batch.j is j and batch.x is x and not j.flags.writeable

    @pytest.mark.parametrize("paths, steps", [(0, 5), (3, 0), (0, 0)])
    def test_empty_batches_build(self, two_band_model, two_band_gen, paths, steps):
        batch = simulate(two_band_model, two_band_gen, 0.1, 0.1, paths, steps, 1)
        assert batch.j.shape == batch.x.shape == (paths, steps + 1)


class TestCycle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(re=st.floats(-2, 2), im=st.floats(-2, 2).filter(lambda v: v != 0),
           masses=st.lists(st.floats(0, 1), min_size=1, max_size=4))
    def test_derived_fields_are_the_detector_formulas(self, re, im, masses):
        # the formulas detect_cycles applied to its numpy representative
        rep = np.complex128(complex(re, im))
        arg = float(np.angle(rep))
        want = [float(abs(rep)), arg, float(2 * np.pi / abs(arg))]
        cycle = Cycle(complex(rep), tuple(masses))
        assert [v.hex() for v in (cycle.magnitude, cycle.arg, cycle.period_steps)] == [
            v.hex() for v in want]
        assert cycle.band == int(np.argmax(masses))

    @pytest.mark.parametrize("eigenvalue, masses", [
        (0.5 + 0j, (1.0,)), (0j, (0.5, 0.5)), (0.5 - 0.5j, ())],
        ids=["positive_real", "zero", "no_band"])
    def test_no_period_or_no_band_is_refused(self, eigenvalue, masses):
        # a bare ZeroDivisionError (2 pi / 0) or ValueError (argmax of nothing) once
        with pytest.raises(InvalidSimulationInput, match="needs a period and a band"):
            Cycle(eigenvalue, masses)

    @pytest.mark.parametrize("eigenvalue, masses", [
        ("a", (1.0,)), (None, (1.0,)), (complex("nan+1j"), (1.0,)), (complex(1, math.inf), (1.0,)),
        (10 ** 400, (1.0,)), (1j, ("a",)), (1j, (None,)), (1j, (math.nan, 1.0)),
        (1j, (True,)), (1j, (1j,)), (1j, None), (1j, (10 ** 400,))],
        ids=["eigenvalue_string", "eigenvalue_none", "eigenvalue_nan", "eigenvalue_inf",
             "eigenvalue_int_overflow", "mass_string", "mass_none", "mass_nan", "mass_bool",
             "mass_complex", "masses_none", "mass_int_overflow"])
    def test_non_finite_or_non_numeric_inputs_are_refused(self, eigenvalue, masses):
        # a bare TypeError or AttributeError once, or a cycle of NaN magnitude,
        # arg and period, or of band 0 for a string mass
        with pytest.raises(InvalidSimulationInput, match="finite real band masses"):
            Cycle(eigenvalue, masses)


class TestDetectCycles:
    def test_quarter_rotation_cycle(self):
        m, g = single_fibre_model(0.25)
        op = ulam_analytic(m, g, 0.0, 0.0, 4)
        report = detect_cycles(op, m, top_m=1)
        c = report.cycles[0]
        assert_allclose(c.eigenvalue, -1j, atol=1e-12)
        assert c.period_steps == pytest.approx(4.0, abs=1e-10)
        assert c.band == 0
        assert_allclose(c.band_masses, [1.0], atol=0)

    def test_identity_has_no_cycles(self, two_band_model):
        kernel = np.zeros((2, 2, 4))
        kernel[[0, 1], [0, 1], 0] = 1.0
        op = UlamOperator(model=two_band_model, kernel=kernel)
        assert_allclose(op.matrix.toarray(), np.eye(8), atol=0)
        with pytest.raises(NoComplexEigenvalues):
            detect_cycles(op, two_band_model, top_m=1)

    def test_model_must_match_operator(self, case_model, case_gen, two_band_model,
                                       two_band_gen):
        op = ulam_analytic(case_model, case_gen, 0.1, 0.1, 16)
        with pytest.raises(DimensionMismatch):
            detect_cycles(op, two_band_model, top_m=3)
        # same fibre count, different band widths
        regrouped = build_band_model(list(case_model.beta), [7, 11, 15])
        with pytest.raises(DimensionMismatch):
            detect_cycles(op, regrouped, top_m=3)
        batch = simulate(two_band_model, two_band_gen, 0.1, 0.1, 20, 50, seed=1)
        with pytest.raises(DimensionMismatch):
            detect_cycles(counted_operator(batch, 4, 1.0), case_model, 1)

    def test_conjugate_pairs_reported_once(self):
        m, g = single_fibre_model(0.25)
        op = ulam_analytic(m, g, 0.0, 0.0, 8)
        report = detect_cycles(op, m, top_m=3)
        reps = [c.eigenvalue for c in report.cycles]
        assert all(z.imag < 0 for z in reps)
        assert len(set(np.round(reps, 9))) == len(reps)

    def test_band_attribution_two_bands(self):
        m = build_band_model([0.1, 0.3], [2, 2])
        g = laplacian_generator(4)
        op = ulam_analytic(m, g, 0.05, 0.05, 32)
        report = detect_cycles(op, m, top_m=2)
        bands = sorted(c.band for c in report.cycles)
        assert bands == [0, 1]
        for c in report.cycles:
            assert c.band_masses[c.band] >= 0.8

    def test_arg_error_shrinks_with_bin_refinement(self):
        # fibre noise keeps the fundamentals dominant over harmonics; the
        # per-doubling factor oscillates with frac(alpha*M), so compare
        # across two doublings where the mean decay dominates
        m = build_band_model([0.1, 0.3], [1, 1])
        g = laplacian_generator(2)

        def worst_arg_error(M):
            op = ulam_analytic(m, g, 1e-3, 0.05, M)
            report = detect_cycles(op, m, top_m=2)
            errs = []
            for c in report.cycles:
                target = 2 * np.pi * m.beta[c.band]
                errs.append(abs(abs(c.arg) - target))
            return max(errs)

        e16, e64 = worst_arg_error(16), worst_arg_error(64)
        assert e64 <= e16 / 2

    def test_small_spectrum_keeps_its_cycles(self, case_model, case_gen):
        # 1e8 extra full turns of noise scale every sector m >= 1 by about
        # 0.05 / (1e8 + 0.05); the realness and conjugate cuts scale with b(m)
        def report(delta):
            return detect_cycles(ulam_analytic(case_model, case_gen, 0.1, delta, 128),
                                 case_model, 3)

        near, far = report(0.05), report(1e8 + 0.05)
        assert [c.band for c in far.cycles] == [c.band for c in near.cycles] == [2, 0, 2]
        assert_allclose([c.arg for c in far.cycles], [c.arg for c in near.cycles],
                        rtol=0, atol=1e-9)
        assert_allclose([c.magnitude * 0.05 for c in near.cycles],
                        [c.magnitude * (1e8 + 0.05) for c in far.cycles], rtol=1e-6)
        assert far.sectors_solved == near.sectors_solved == 2

    def test_half_turn_noise_is_real(self, case_model, case_gen):
        # noise of half-width 1/2 lands uniformly: every sector m >= 1 is exactly 0
        op = ulam_analytic(case_model, case_gen, 0.1, 0.5, 128)
        with pytest.raises(NoComplexEigenvalues):
            detect_cycles(op, case_model, 3)

    def test_top_m_below_one_is_typed(self, two_band_model, two_band_gen):
        op = ulam_analytic(two_band_model, two_band_gen, 0.1, 0.1, 8)
        with pytest.raises(InvalidSimulationInput, match="top_m"):
            detect_cycles(op, two_band_model, top_m=0)


HAND_MODELS = {
    # name: (beta, widths, eps, delta, M, top_m)
    "quarter-rotation": ([0.25], [1], 0.0, 0.0, 8, 3),
    "sector-identity": ([0.1, 0.3], [1, 1], 0.05, 0.0, 8, 3),
    "k1-args": ([0.1, 0.3], [1, 1], 0.01, 0.0, 64, 2),
    "arg-refinement": ([0.1, 0.3], [1, 1], 1e-3, 0.05, 16, 2),
    "two-bands": ([0.1, 0.3], [2, 2], 0.05, 0.05, 32, 2),
    "odd-bins": ([0.1, 0.3, 0.45], [2, 1, 2], 0.2, 0.02, 15, 3),
    # W_eps indefinite: cycles in the real sector m = M/2
    "half-turn-sector": ([0.0, 0.5], [2, 1], 0.8, 0.0, 2, 1),
    "quarter-turn-sectors": ([0.0, 0.5, 0.25], [1, 1, 1], 0.8, 0.0, 4, 3),
}


class TestSectorPath:
    @pytest.mark.parametrize("name", sorted(HAND_MODELS))
    def test_matches_full_eig_on_hand_models(self, name):
        beta, widths, eps, delta, M, top_m = HAND_MODELS[name]
        m = build_band_model(beta, widths)
        g = laplacian_generator(m.N) if m.N > 1 else NoiseGenerator([[0.0]])
        op = ulam_analytic(m, g, eps, delta, M)
        report = detect_cycles(op, m, top_m)
        assert report.solver == "sector"
        assert_matches_full_eig(report, op, m)

    def test_matches_full_eig_on_case_study(self, case_model, case_gen):
        op = ulam_analytic(case_model, case_gen, 0.1, 0.1, 8)
        assert_matches_full_eig(detect_cycles(op, case_model, 3), op, case_model)

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
    def test_random_admissible_models(self, widths, data):
        model, gen, eps, delta, M = draw_admissible(data, widths, max_cells=300)
        top_m = data.draw(st.integers(1, 3), label="top_m")
        op = ulam_analytic(model, gen, eps, delta, M)
        try:
            values, bounds, ref = full_eig_cycles(op, model, top_m)
        except NoComplexEigenvalues:
            with pytest.raises(NoComplexEigenvalues):
                detect_cycles(op, model, top_m)
            return
        # the comparison is meaningful where the top_m picks, their order and
        # their eigenvectors are well defined: simple eigenvalues, no candidate
        # near the realness cut, and distinct magnitudes down to the next
        # candidate (symmetric models tie exactly, and roundoff breaks the tie)
        for rep, _ in ref:
            others = np.abs(values - rep) > 1e-12 * abs(rep)
            near = np.abs(values - rep) <= 1e-3
            assume(not np.any(near & others) and np.sum(~others) == 1)
            assume(abs(rep.imag) > 1e-6)
        mags = [abs(rep) for rep, _ in _pick_cycles(values, bounds, top_m + 1)]
        assume(all(a - b > 1e-9 * a for a, b in zip(mags, mags[1:])))
        report = detect_cycles(op, model, top_m)
        assert report.solver == "sector"
        assert_matches_full_eig(report, op, model)

    def test_equal_magnitudes_ordered_by_real_part(self):
        # -0.125-0.6495j and +0.125-0.6495j have the same magnitude; the sector
        # path and the full spectrum must break that tie the same way
        m = build_band_model([0.25], [2])
        g = laplacian_generator(2)
        op = ulam_analytic(m, g, g.eps_max, 0.0, 3)
        _, _, [(rep, _)] = full_eig_cycles(op, m, 1)
        report = detect_cycles(op, m, top_m=1)
        assert report.solver == "sector"
        assert abs(report.cycles[0].eigenvalue - rep) <= 1e-12
        assert rep.real < 0

    def test_exact_path_never_builds_cell_matrix(self, case_model, case_gen, monkeypatch,
                                                 tmp_path):
        def refuse(self):
            raise AssertionError("cell matrix built on the sector path")

        monkeypatch.setattr(UlamOperator, "matrix", property(refuse))
        op = ulam_analytic(case_model, case_gen, 0.1, 0.1, 128)
        report = detect_cycles(op, case_model, top_m=3)
        assert report.solver == "sector" and len(report.cycles) == 3
        cfg = tmp_path / "case.json"
        cfg.write_text(CASE_STUDY_JSON, encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--bins", "128", "--paths", "2", "--steps", "5"]) == 0


class TestSectorPruning:
    """Sectors solved in descending row-sum bound give the all-sector report."""

    def test_case_study_solves_two_of_65_sectors(self, case_model, case_gen, monkeypatch):
        op = ulam_analytic(case_model, case_gen, 0.1, 0.1, 128)
        assert assert_same_as_all_sectors(op, case_model, 3).sectors_solved == 2
        shapes, eig = [], spectra.eig_dense_complex

        def counted(a):
            shapes.append(np.shape(a))
            return eig(a)

        monkeypatch.setattr(simulate_module, "eig_dense_complex", counted)
        assert detect_cycles(op, case_model, 3).sectors_solved == 2
        assert shapes == [(33, 33)] * 2

    def test_counted_operator_solves_two_of_17_sectors(self):
        cfg = case_study_config()
        batch = simulate(cfg.model, cfg.gen, 0.1, 0.1, 200, 1000, seed=1)
        op = ulam_empirical(batch, 32)
        assert assert_same_as_all_sectors(op, cfg.model, 3).sectors_solved == 2

    def test_short_picks_solve_every_sector(self):
        # a quarter turn on 8 bins: the nonreal sector values are i and -i, one
        # cycle, so no top_m = 3 stop exists
        m, g = single_fibre_model(0.25)
        op = ulam_analytic(m, g, 0.0, 0.0, 8)
        report = assert_same_as_all_sectors(op, m, 3)
        assert len(report.cycles) == 1 and report.sectors_solved == 5

    @pytest.mark.parametrize("delta, M", [(0.1, 32), (0.0, 256), (0.1, 1024)])
    @pytest.mark.parametrize("top_m", [1, 5])
    def test_case_study_grid(self, case_model, case_gen, delta, M, top_m):
        op = ulam_analytic(case_model, case_gen, 0.1, delta, M)
        assert assert_same_as_all_sectors(op, case_model, top_m).sectors_solved < M // 2 + 1

    @pytest.mark.parametrize("delta, M", [(0.0, 7), (0.05, 32), (0.7, 16)])
    def test_band_rows_give_the_fibre_rows_blocks(self, case_model, case_gen, monkeypatch,
                                                  delta, M):
        # every sector solved: its block and bound equal, bit for bit, those
        # of the band rows expanded to one row per fibre
        op = ulam_analytic(case_model, case_gen, 0.1, delta, M)
        qhat = np.fft.rfft(op.kernel_rows[case_model.band_index], axis=1).conj()
        bounds = (np.abs(qhat) * np.abs(op.w_eps).sum(axis=1)[:, None]).max(axis=0)
        blocks, scales, eig, pick = [], [], spectra.eig_dense_complex, _pick_cycles

        def solve(a):
            blocks.append(a)
            return eig(a)

        def picks(values, sector_scales, top_m):
            scales.append(sector_scales)
            return pick(values, sector_scales, top_m)

        monkeypatch.setattr(simulate_module, "eig_dense_complex", solve)
        monkeypatch.setattr(simulate_module, "_pick_cycles", picks)
        assert detect_cycles(op, case_model, 10 ** 6).sectors_solved == M // 2 + 1
        want = sector_blocks(op)[np.argsort(-bounds, kind="stable")]
        assert np.array_equal(np.array(blocks).view(float), want.view(float))
        assert np.array_equal(scales[-1], np.repeat(bounds, case_model.N))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
    def test_random_exact_operators(self, widths, data):
        model, gen, eps, delta, M = draw_admissible(data, widths, max_cells=300)
        top_m = data.draw(st.integers(1, 4), label="top_m")
        assert_same_as_all_sectors(ulam_analytic(model, gen, eps, delta, M), model, top_m)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
    def test_random_counted_operators(self, widths, data):
        model, gen, eps, delta, M = draw_admissible(data, widths, max_cells=160)
        batch = simulate(model, gen, eps, delta, data.draw(st.integers(1, 20), label="paths"),
                         data.draw(st.integers(1, 200), label="steps"),
                         seed=data.draw(st.integers(0, 2**32), label="seed"))
        top_m = data.draw(st.integers(1, 4), label="top_m")
        assert_same_as_all_sectors(counted_operator(batch, M, 1.0), model, top_m)


class TestCellMatrixPath:
    """Counted operators: the sector solve checked against their cell matrix."""

    @pytest.fixture(scope="class")
    def empirical(self):
        cfg = case_study_config()
        batch = simulate(cfg.model, cfg.gen, 0.1, 0.1, 100, 400, seed=5)
        return counted_operator(batch, 8, 0.2), cfg.model

    def test_targeted_eigenvectors_match_full_eig(self, empirical):
        op, model = empirical
        report = detect_cycles(op, model, top_m=3)
        assert report.solver == "sector"
        assert_matches_full_eig(report, op, model)

    def test_counted_path_never_builds_cell_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("cell matrix built on the sector path")

        monkeypatch.setattr(UlamOperator, "matrix", property(refuse))
        cfg = case_study_config()
        batch = simulate(cfg.model, cfg.gen, 0.1, 0.1, 200, 1000, seed=1)
        report = detect_cycles(ulam_empirical(batch, 32), cfg.model, top_m=3)
        assert report.solver == "sector" and len(report.cycles) == 3

    def test_unconverged_eigenvector_raises(self, empirical, monkeypatch):
        op, model = empirical
        eig = np.linalg.eig

        def rough_eig(a):
            values, vectors = eig(a)
            return values, vectors + 1e-6

        monkeypatch.setattr(np.linalg, "eig", rough_eig)
        with pytest.raises(NoConvergence, match="sector eigenpair residual") as exc:
            detect_cycles(op, model, top_m=3)
        assert len(exc.value.partial) == 3

    def test_one_residual_bound_certifies_blocks_and_sectors(self, empirical, monkeypatch):
        # Fourier-block spectra and sector eigenpairs read the same binding
        op, model = empirical
        monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NoConvergence, match="exceed the residual tolerance"):
            spectrum(model, laplacian_generator(model.N), 1, 0.1)
        with pytest.raises(NoConvergence, match="sector eigenpair residual") as exc:
            detect_cycles(op, model, top_m=3)
        assert len(exc.value.partial) == 3

    def test_shift_at_an_exact_eigenvalue(self):
        # a quarter turn per step: the sector eigenvalues are exactly the
        # fourth roots of unity, and the cycle's eigenpair is exact
        m, _ = single_fibre_model(0.25)
        kernel = np.zeros((1, 1, 4))
        kernel[0, 0, 1] = 1.0
        op = UlamOperator(model=m, kernel=kernel)
        report = detect_cycles(op, m, top_m=1)
        assert report.cycles[0].eigenvalue == -1j
        assert report.max_residual <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
    def test_sector_spectrum_matches_cell_matrix(self, widths, data):
        model, gen, eps, delta, M = draw_admissible(data, widths, max_cells=160)
        n = model.N
        paths = data.draw(st.integers(1, 20), label="paths")
        steps = data.draw(st.integers(1, 200), label="steps")
        batch = simulate(model, gen, eps, delta, paths, steps,
                         seed=data.draw(st.integers(0, 2**32), label="seed"))
        op = counted_operator(batch, M, 1.0)
        cells = op.matrix.toarray()
        assert_allclose(cells.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        # the unitary bin DFT takes the cell matrix to the block diagonal of
        # the sectors, so the two spectra are equal
        blocks = np.moveaxis(np.fft.fft(op.kernel, axis=2).conj(), 2, 0)
        want = np.zeros((n, M, n, M), dtype=complex)
        want[:, np.arange(M), :, np.arange(M)] = blocks
        got = np.fft.ifft(np.fft.fft(cells.reshape(n, M, n, M), axis=1), axis=3)
        assert_allclose(got, want, rtol=0, atol=1e-13)
        # sectors M - m for 0 < m < M/2 are the conjugates of sectors m
        sectors = np.linalg.eigvals(blocks[:M // 2 + 1])
        values = np.concatenate([sectors.ravel(), sectors[1:(M + 1) // 2].conj().ravel()])
        dense = np.linalg.eigvals(cells)
        assert len(values) == len(dense) == n * M
        # defective eigenvalues spread by sqrt(rounding) in both solves: match
        # the isolated ones
        gaps = np.abs(dense[:, None] - dense[None, :]) + np.diag(np.full(n * M, np.inf))
        for z in dense[gaps.min(axis=1) > 1e-3]:
            assert np.min(np.abs(values - z)) <= 1e-10 * max(1.0, abs(z))
