import importlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rotor_spectra import (NoiseGenerator, build_band_model, case_study_config,
                           detect_cycles, laplacian_generator, simulate, spectrum,
                           ulam_analytic, ulam_empirical)
from rotor_spectra.cli import main
from rotor_spectra.config import CASE_STUDY_JSON
from rotor_spectra.errors import (DimensionMismatch, InsufficientData, InvalidSimulationInput,
                                  NoComplexEigenvalues, NoConvergence, RotorSpectraError)
from rotor_spectra.simulate import UlamOperator, _fibre_kernel_row, _pick_cycles

# the package re-exports the function simulate over its submodule
simulate_module = importlib.import_module("rotor_spectra.simulate")


def single_fibre_model(speed):
    return build_band_model([speed], [1]), NoiseGenerator.from_matrix([[0.0]])


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


def full_eig_cycles(op, model, top_m):
    """Reference: every eigenpair of the dense cell matrix, ranked by the shared rule."""
    values, vectors = np.linalg.eig(op.matrix.toarray())
    out = []
    for rep, i in _pick_cycles(values, top_m):
        mass = (np.abs(vectors[:, i]) ** 2).reshape(model.N, op.M).sum(axis=1)
        mass /= mass.sum()
        out.append((rep, [mass[model.band_slice(s)].sum() for s in range(model.S)]))
    return values, out


def counted_operator(batch, M, max_empty_fraction):
    """ulam_empirical with MAX_EMPTY_FRACTION set to ``max_empty_fraction``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_module, "MAX_EMPTY_FRACTION", max_empty_fraction)
        return ulam_empirical(batch, M)


def assert_same_csr(a, b):
    """Bitwise-equal CSR: shape, row pointers, column indices and value bits."""
    assert a.format == b.format == "csr" and a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


def draw_admissible(data, widths, max_cells):
    """A random admissible model, generator, eps, delta and bin count M <= max_cells / N."""
    n = sum(widths)
    M = data.draw(st.integers(2, max_cells // n), label="M")
    beta = data.draw(st.lists(st.floats(-1, 1), min_size=len(widths),
                              max_size=len(widths), unique=True), label="beta")
    rates = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2), label="rates")
    wdot = np.zeros((n, n))
    wdot[np.triu_indices(n, 1)] = rates
    wdot += wdot.T
    wdot -= np.diag(wdot.sum(axis=1))
    gen = NoiseGenerator.from_matrix(wdot)
    eps = data.draw(st.floats(0.0, 1.0), label="eps_fraction") * min(gen.eps_max, 1.0)
    delta = data.draw(st.floats(0.0, 0.3), label="delta")
    return build_band_model(beta, widths), gen, eps, delta, M


def assert_matches_full_eig(report, op, model):
    _, ref = full_eig_cycles(op, model, report.top_m)
    assert len(report.cycles) == len(ref)
    for c, (rep, masses) in zip(report.cycles, ref):
        assert abs(c.eigenvalue - rep) <= 1e-12 * abs(rep)
        assert_allclose(c.band_masses, masses, rtol=0, atol=1e-12)
        assert masses[c.band] >= max(masses) - 1e-12
    assert report.max_residual <= 1e-10


class TestSimulate:
    def test_quarter_rotation_orbit(self):
        m, g = single_fibre_model(0.25)
        batch = simulate(m, g, 0.0, 0.0, 1, 8, seed=1, init=([0], [0.0]))
        assert_allclose(batch.x[0], [0, 0.25, 0.5, 0.75, 0, 0.25, 0.5, 0.75, 0], atol=1e-15)
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

    def test_fibre_transitions_follow_walk_rows(self, two_band_model, two_band_gen):
        batch = simulate(two_band_model, two_band_gen, 0.5, 0.0, 2000, 20, seed=9)
        # empirical off-diagonal frequency ~ eps/2 = 0.25
        moves = np.mean(batch.j[:, :-1] != batch.j[:, 1:])
        assert moves == pytest.approx(0.25, abs=0.02)

    @pytest.mark.parametrize("init", [
        ([33], [0.0]),          # one past the last fibre
        ([-1], [0.5]),          # would wrap to fibre 32
        ([0.0], [0.5]),         # not an integer index
        ([0], [np.nan]),
        ([0], [1.7]),
        ([0], [-0.25]),
        ([0, 1, 2], [0.5]),     # three states for two paths
    ])
    def test_bad_initial_states_are_typed(self, case_model, case_gen, init):
        with pytest.raises(InvalidSimulationInput, match="initial states"):
            simulate(case_model, case_gen, 0.1, 0.1, 2, 5, seed=1, init=init)

    def test_initial_states_broadcast(self, case_model, case_gen):
        batch = simulate(case_model, case_gen, 0.1, 0.1, 3, 2, seed=1, init=(32, [0.0, 0.5, 0.75]))
        assert np.array_equal(batch.j[:, 0], [32, 32, 32])
        assert np.array_equal(batch.x[:, 0], [0.0, 0.5, 0.75])


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
        assert_same_csr(op.matrix, coo_cell_matrix(op.kernel_rows, op.w_eps))

    def test_case_study_cell_matrix_matches_coo_reference(self, case_model, case_gen):
        op = ulam_analytic(case_model, case_gen, 0.1, 0.1, 128)
        assert op.size == 33 * 128 and op.kernel is None
        assert_same_csr(op.matrix, coo_cell_matrix(op.kernel_rows, op.w_eps))

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
        for j in (0, 10, 11, 32):
            assert_allclose(op.kernel_rows[j], real(case_model.alpha[j], 0.1, 16), atol=0)
        assert_allclose(op.w_eps, np.eye(33) + 0.1 * np.asarray(case_gen.wdot), atol=0)

    def test_bad_bin_counts_are_typed(self, two_band_model, two_band_gen):
        batch = simulate(two_band_model, two_band_gen, 0.1, 0.1, 4, 10, seed=1)
        for M in (1, 0, -3):
            with pytest.raises(InvalidSimulationInput, match="at least 2 bins"):
                ulam_analytic(two_band_model, two_band_gen, 0.1, 0.1, M)
            with pytest.raises(InvalidSimulationInput, match="at least 2 bins"):
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


class TestUlamEmpirical:
    def test_recovers_permutation(self):
        m, g = single_fibre_model(0.25)
        batch = simulate(m, g, 0.0, 0.0, 8, 50, seed=2)
        op = ulam_empirical(batch, 4)
        analytic = ulam_analytic(m, g, 0.0, 0.0, 4)
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
        # eps = 0 keeps every path in fibre 0: no step leaves fibre 1
        batch = simulate(two_band_model, NoiseGenerator.from_matrix([[-1.0, 1.0], [1.0, -1.0]]),
                         0.0, 0.1, 4, 50, seed=2, init=(0, [0.1, 0.3, 0.6, 0.9]))
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
        m, g = single_fibre_model(0.0)      # no rotation, no noise: stuck in one bin
        batch = simulate(m, g, 0.0, 0.0, 2, 5, seed=1, init=([0, 0], [0.0, 0.0]))
        with pytest.raises(InsufficientData):
            ulam_empirical(batch, 64)


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
        op = UlamOperator(M=4, mode="empirical", model=two_band_model, kernel=kernel)
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
        g = laplacian_generator(m.N) if m.N > 1 else NoiseGenerator.from_matrix([[0.0]])
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
        values, ref = None, None
        try:
            values, ref = full_eig_cycles(op, model, top_m)
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
        mags = [abs(rep) for rep, _ in _pick_cycles(values, top_m + 1)]
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
        (rep, _), = _pick_cycles(np.linalg.eigvals(op.matrix.toarray()), 1)
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

    def test_shift_at_an_exact_eigenvalue(self):
        # a quarter turn per step: the sector eigenvalues are exactly the
        # fourth roots of unity, and the cycle's eigenpair is exact
        m, _ = single_fibre_model(0.25)
        kernel = np.zeros((1, 1, 4))
        kernel[0, 0, 1] = 1.0
        op = UlamOperator(M=4, mode="empirical", model=m, kernel=kernel)
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
