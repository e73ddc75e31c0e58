import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rotor_spectra import (assemble_fourier_block, build_band_model, delta_factor,
                           eig_dense_complex, gershgorin_bound, label_spectrum,
                           laplacian_generator, spectrum, w_epsilon)
from rotor_spectra.cli import main
from rotor_spectra.config import CASE_STUDY_JSON
from rotor_spectra.errors import AmbiguousLabelling, NoConvergence
from rotor_spectra.model import NoiseGenerator, spectral_gap
from rotor_spectra.response import first_order_basis
from rotor_spectra.spectra import EigResult, _phase_fix, nearest_assignment
from conftest import random_banded_model


def permuted(eig, perm):
    """The same eigenpairs in another output order."""
    return EigResult(values=eig.values[perm], vectors=eig.vectors[:, perm],
                     residuals=eig.residuals[perm], converged=eig.converged[perm])


def loop_phase_fix(vectors):
    """Reference: the per-column loop of the phase fix, as it was before the
    one broadcast multiply."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, i])))
        p = out[j, i]
        if p != 0:
            out[:, i] *= np.abs(p) / p
    return out


#: matrix entries: zero, of unit modulus (tied), tiny or arbitrary; none so
#: small that the pivot's |p| / p loses its phase
ENTRIES = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, -1j, 0.6 + 0.8j, -0.8 - 0.6j, 3e-300j]),
    st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False))


class TestAssemble:
    def test_k0_is_walk_matrix(self, case_model, case_gen):
        block = assemble_fourier_block(case_model, case_gen, 0, 0.3)
        assert_allclose(block, w_epsilon(case_gen, 0.3), atol=0)
        assert np.max(np.abs(block.imag)) == 0.0

    def test_eps0_is_phase_diagonal(self, case_model, case_gen):
        block = assemble_fourier_block(case_model, case_gen, 2, 0.0)
        assert_allclose(block, np.diag(np.exp(-2j * np.pi * 2 * case_model.alpha)),
                        atol=1e-15)

    def test_rows_are_scaled_walk_rows(self, case_model, case_gen):
        block = assemble_fourier_block(case_model, case_gen, 1, 0.1)
        w = w_epsilon(case_gen, 0.1)
        phases = np.exp(-2j * np.pi * case_model.alpha)
        for j in [0, 10, 11, 18, 32]:
            assert_allclose(block[j], phases[j] * w[j], atol=1e-15)

    def test_spectral_norm_at_most_one(self, case_model, case_gen):
        block = assemble_fourier_block(case_model, case_gen, 1, 0.1)
        assert np.linalg.norm(block, 2) <= 1 + 1e-10


class TestEigDenseComplex:
    def test_identity(self):
        res = eig_dense_complex(np.eye(3))
        assert_allclose(res.values, 1.0)
        assert np.all(res.converged)

    def test_diag_imaginary(self):
        res = eig_dense_complex(np.diag([1j, -1j]))
        assert set(np.round(res.values, 12)) == {1j, -1j}
        assert_allclose(np.abs(res.vectors), np.eye(2), atol=1e-15)

    def test_first_block_cosine_formula(self):
        # 5-wide leading block of the stencil: reflecting top, absorbing bottom
        block = laplacian_generator(8).wdot[:5, :5]
        res = eig_dense_complex(block)
        want = np.sort([-1 + np.cos((2 * m - 1) * np.pi / 11) for m in range(1, 6)])
        assert_allclose(np.sort(res.values.real), want, atol=1e-12)
        assert_allclose(res.values.imag, 0.0, atol=1e-12)

    def test_residual_certificates(self, case_model, case_gen):
        a = assemble_fourier_block(case_model, case_gen, 1, 0.1)
        res = eig_dense_complex(a)
        for i in range(33):
            r = np.linalg.norm(a @ res.vectors[:, i] - res.values[i] * res.vectors[:, i])
            assert r == pytest.approx(res.residuals[i], abs=1e-16)
            assert r <= 1e-11 * np.linalg.norm(a, 2)

    def test_solver_failure_is_typed(self, tmp_path, capsys, monkeypatch):
        # a failed QR iteration ends in NoConvergence, and the CLI in exit 1
        # with no output directory, not in a bare LinAlgError
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        with pytest.raises(NoConvergence, match="eigensolver failed: Eigenvalues did not"):
            eig_dense_complex(np.eye(3))
        config, out = tmp_path / "case.json", tmp_path / "spec"
        config.write_text(CASE_STUDY_JSON, encoding="utf-8")
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: eigensolver failed")
        assert not out.exists()

    def test_certificate_scale_is_a_lower_bound_of_the_2_norm(self, monkeypatch):
        # A = u v^T with u orthogonal to v: ||A||_2 = 1, every column norm is
        # 1/2 and the spectral radius 0, so the certificate's scale is 1/2.  A
        # pair whose residual lies between RESIDUAL_TOL / 2 and RESIDUAL_TOL
        # would pass against ||A||_2, and must fail against the lower bound
        a = np.outer([1, -1, 1, -1], [1, 1, 1, 1]) / 4.0
        exact = np.linalg.eig

        def shifted_eig(m):
            values, vectors = exact(m)
            return values + 0.75e-11, vectors

        monkeypatch.setattr(np.linalg, "eig", shifted_eig)
        res = eig_dense_complex(a)
        assert np.linalg.norm(a, 2) == pytest.approx(1.0)
        assert np.all((res.residuals > 0.5e-11) & (res.residuals <= 1e-11))
        assert not np.any(res.converged)


class TestNearestAssignment:
    def test_nearest_column_when_it_has_room(self):
        cost = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7]])
        assert nearest_assignment(cost, [2, 1]).tolist() == [0, 1, 0]

    def test_full_column_passes_rows_on_cheapest_first(self):
        cost = np.array([[0.1, 0.9, 0.5], [0.2, 0.3, 0.4], [0.15, 0.6, 0.35]])
        # column 0 holds one row: row 0 takes it, then row 1 and row 2 take the rest
        assert nearest_assignment(cost, [1, 1, 1]).tolist() == [0, 1, 2]

    def test_equal_costs_go_to_the_lower_row_then_column(self):
        assert nearest_assignment(np.ones((3, 2)), [1, 2]).tolist() == [0, 1, 1]

    def test_rows_beyond_the_room_keep_minus_one(self):
        cost = np.array([[0.1, 0.2], [0.3, 0.05], [0.2, 0.4]])
        assert nearest_assignment(cost, [1, 0]).tolist() == [0, -1, -1]

    def test_matches_the_greedy_over_every_pair(self):
        # the greedy loop over every pair is the reference for the early exit
        # once every row is placed; with fewer places than rows it never exits
        rng = np.random.default_rng(1)
        for _ in range(200):
            rows, cols = rng.integers(1, 9, size=2)
            cost = rng.integers(0, 4, size=(rows, cols)).astype(float)   # many ties
            for places in (rows, rng.integers(0, rows)):
                room = rng.multinomial(places, np.ones(cols) / cols)
                col, left = [-1] * rows, list(room)
                for pair in np.argsort(cost, axis=None, kind="stable"):
                    r, c = divmod(int(pair), cols)
                    if col[r] < 0 and left[c] > 0:
                        col[r], left[c] = c, left[c] - 1
                assert nearest_assignment(cost, room).tolist() == col
                assert col.count(-1) == rows - places

    def test_is_the_minimum_cost_assignment_when_nearest_fits(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cost = rng.uniform(size=(5, 5))
            cost[np.arange(5), rng.permutation(5)] -= 1.0     # distinct nearest columns
            best = min(itertools.permutations(range(5)),
                       key=lambda p: cost[np.arange(5), list(p)].sum())
            assert nearest_assignment(cost, [1] * 5).tolist() == list(best)


class TestLabelSpectrum:
    def test_eps0_exact_targets(self, case_model, case_gen):
        spec = spectrum(case_model, case_gen, 1, 0.0)
        assert_allclose(spec.lam, spec.target, atol=1e-14)

    def test_case_study_cluster_counts(self, case_model, case_gen):
        spec = spectrum(case_model, case_gen, 1, 0.1)
        radius = gershgorin_bound(case_gen, 0.1)
        targets = np.exp(-2j * np.pi * np.asarray(case_model.beta))
        counts = [int(np.sum(np.abs(spec.lam - t) <= radius + 1e-12)) for t in targets]
        assert counts == [11, 7, 15]
        # labelled bands agree with the nearest cluster
        for ell in range(33):
            assert abs(spec.lam[ell] - targets[spec.model.band_index[ell]]) <= radius + 1e-12

    def test_two_band_small_eps(self, two_band_model, two_band_gen):
        spec = spectrum(two_band_model, two_band_gen, 1, 0.01)
        # frozen from the 2x2 brute-force eigensolve
        assert_allclose(np.abs(spec.lam - spec.target), 0.005012578716, atol=1e-9)
        assert abs(spec.lam[0] - 1) <= 0.01 and abs(spec.lam[1] + 1j) <= 0.01

    def test_band_internal_magnitude_order(self, case_model, case_gen):
        spec = spectrum(case_model, case_gen, 1, 0.1)
        for s in range(3):
            mags = np.abs(spec.lam[case_model.band_slice(s)])
            assert np.all(np.diff(mags) <= 1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_phase_fix_equals_the_column_loop_bit_for_bit(self, data):
        # square, as eigenvector matrices are
        n = data.draw(st.integers(1, 7), label="n")
        v = np.array(data.draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n),
                               label="entries")).reshape(n, n)
        v[:, data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="zero")] = 0
        if data.draw(st.booleans(), label="fortran"):       # eig's own column layout
            v = np.asfortranarray(v)
        fixed = _phase_fix(v)
        assert fixed.flags.c_contiguous
        assert np.array_equal(fixed.view(np.uint64), loop_phase_fix(v).view(np.uint64))

    def test_phase_fix(self, case_model, case_gen):
        spec = spectrum(case_model, case_gen, 1, 0.1)
        for ell in range(33):
            top = spec.vectors[np.argmax(np.abs(spec.vectors[:, ell])), ell]
            assert abs(top.imag) <= 1e-14 and top.real > 0

    def test_ambiguous_labelling(self, two_band_model, two_band_gen):
        # pairs from a far-away operator exceed the tiny Gershgorin radius
        wrong = eig_dense_complex(np.diag([0.5 + 0.1j, -0.3j]))
        with pytest.raises(AmbiguousLabelling):
            label_spectrum(two_band_model, two_band_gen, 1, 1e-6, wrong)

    def test_zero_diagonal_generator_is_ambiguous(self, case_model, case_gen):
        # a generator outside validate's stochastic item: radius 0, yet the
        # off-diagonals move every eigenvalue off its phase
        w = 0.5 * (np.eye(33, k=1) + np.eye(33, k=-1))
        gen = NoiseGenerator(w)
        assert gershgorin_bound(gen, 0.1) == 0.0
        with pytest.raises(AmbiguousLabelling, match="exceeds Gershgorin radius 0.000e"):
            spectrum(case_model, gen, 1, 0.1)
        # the stochastic Laplacian of the same size labels the same block
        spectrum(case_model, case_gen, 1, 0.1)


class TestGershgorin:
    def test_values(self, case_gen):
        assert gershgorin_bound(case_gen, 0.1) == pytest.approx(0.2)
        assert gershgorin_bound(case_gen, 0.0) == 0.0
        zero = NoiseGenerator(np.zeros((3, 3)))
        assert gershgorin_bound(zero, 0.7) == 0.0

    def test_containment_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            m = random_banded_model(rng)
            if m.N < 2:
                continue
            g = laplacian_generator(m.N)
            eps = float(rng.uniform(0, 0.2))
            k = int(rng.integers(-3, 4))
            radius = gershgorin_bound(g, eps)
            if spectral_gap([m.phases(k)])[0] <= 2 * radius:
                continue
            spec = spectrum(m, g, k, eps)
            assert np.max(np.abs(spec.lam - spec.target)) <= radius + 1e-12


class TestDeltaFactor:
    def test_defined_limit(self):
        assert delta_factor(0, 0.3) == 1.0
        assert delta_factor(7, 0.0) == 1.0

    def test_value(self):
        assert delta_factor(1, 0.1) == pytest.approx(0.935489283788639, abs=1e-12)

    def test_sinc_zero_exact(self):
        assert delta_factor(5, 0.1) == 0.0


class TestFullSpectrum:
    def test_delta_zero_matches_plain(self, case_model, case_gen):
        a = spectrum(case_model, case_gen, 1, 0.1)
        b = spectrum(case_model, case_gen, 1, 0.1, 0.0)
        assert_allclose(a.lam, b.lam, atol=0)
        assert_allclose(a.vectors, b.vectors, atol=0)

    def test_delta_scales_eigenvalues_only(self, case_model, case_gen):
        plain = spectrum(case_model, case_gen, 2, 0.05)
        scaled = spectrum(case_model, case_gen, 2, 0.05, 0.1)
        s = delta_factor(2, 0.1)
        assert_allclose(scaled.lam, s * plain.lam, atol=1e-15)
        assert_allclose(scaled.vectors, plain.vectors, atol=0)

    def test_sinc_annihilates_k5(self, case_model, case_gen):
        spec = spectrum(case_model, case_gen, 5, 0.1, 0.1)
        assert np.all(spec.lam == 0.0)

    def test_case_study_magnitude_cap(self, case_model, case_gen):
        spec = spectrum(case_model, case_gen, 1, 0.1, 0.1)
        assert np.max(np.abs(spec.lam)) <= 0.935489283788639 + 0.2


class TestSpectrumInvariants:
    def test_unit_disk(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = random_banded_model(rng)
            if m.N < 2:
                continue
            g = laplacian_generator(m.N)
            spec = spectrum(m, g, int(rng.integers(-4, 5)), float(rng.uniform(0, 1.0)))
            assert np.max(np.abs(spec.lam)) <= 1 + 1e-10

    def test_conjugation_symmetry(self, case_model, case_gen):
        plus = spectrum(case_model, case_gen, 3, 0.07)
        minus = spectrum(case_model, case_gen, -3, 0.07)
        assert_allclose(minus.lam, np.conj(plus.lam), atol=1e-12)
        assert_allclose(minus.target, np.conj(plus.target), atol=1e-15)

    def test_k0_real_spectrum(self, case_model, case_gen):
        spec = spectrum(case_model, case_gen, 0, 0.2)
        assert np.max(np.abs(spec.lam.imag)) <= 1e-12
        mu = np.linalg.eigvalsh(np.asarray(case_gen.wdot))
        assert_allclose(np.sort(spec.lam.real), np.sort(1 + 0.2 * mu), atol=1e-12)
        assert int(np.sum(np.abs(spec.lam - 1) <= 1e-12)) == 1

    def test_k0_labels_follow_descending_eigenvalue(self, case_model, case_gen):
        # every band phase is 1 at k = 0, so labels must not rest on the
        # eigensolver's output order; they match the k = 0 limit basis, also
        # past eps ~ 0.5, where the lowest eigenvalues turn negative
        lam_hat = first_order_basis(case_model, case_gen, 0).lambda_hat
        for eps in (0.6, 1.0):
            spec = spectrum(case_model, case_gen, 0, eps)
            assert np.min(spec.lam.real) < 0
            assert np.max(np.abs(spec.lam - (1 + eps * lam_hat))) <= 1e-13
        eig = eig_dense_complex(assemble_fourier_block(case_model, case_gen, 0, 0.2))
        spec = label_spectrum(case_model, case_gen, 0, 0.2, eig)
        assert np.max(np.abs(spec.lam - (1 + 0.2 * lam_hat))) <= 1e-13
        rng = np.random.default_rng(0)
        for _ in range(5):
            again = label_spectrum(case_model, case_gen, 0, 0.2,
                                   permuted(eig, rng.permutation(case_model.N)))
            assert np.array_equal(again.lam, spec.lam)
            assert np.array_equal(again.vectors, spec.vectors)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 8), min_size=1, max_size=4), data=st.data())
    def test_labels_of_random_admissible_models(self, widths, data):
        assume(sum(widths) >= 2)
        beta = data.draw(st.lists(st.integers(-99, 99), min_size=len(widths),
                                  max_size=len(widths), unique=True), label="beta")
        model = build_band_model([b / 100 for b in beta], widths)
        gen = laplacian_generator(model.N)
        k = data.draw(st.integers(1, 3), label="k")
        # the band disks stay disjoint up to eps = phase gap / (2 * radius per eps)
        limit = spectral_gap([model.phases(k)])[0] / (2 * gershgorin_bound(gen, 1.0))
        assume(limit > 1e-3)
        eps = data.draw(st.floats(1e-4, min(limit / 2, gen.eps_max)), label="eps")
        eig = eig_dense_complex(assemble_fourier_block(model, gen, k, eps))
        spec = label_spectrum(model, gen, k, eps, eig)
        perm = data.draw(st.permutations(range(model.N)), label="perm")
        again = label_spectrum(model, gen, k, eps, permuted(eig, np.asarray(perm)))
        assert np.array_equal(again.lam, spec.lam)
        assert np.array_equal(again.vectors, spec.vectors)
        minus = spectrum(model, gen, -k, eps)
        assert_allclose(minus.lam, np.conj(spec.lam), rtol=0, atol=1e-12)
        assert_allclose(minus.target, np.conj(spec.target), rtol=0, atol=1e-15)
        # fibre noise only rescales: |lam| <= |sinc| since ||D W_eps||_2 = 1
        delta = data.draw(st.floats(0, 1), label="delta")
        sinc = delta_factor(k, delta)
        noisy = spectrum(model, gen, k, eps, delta)
        assert np.max(np.abs(noisy.lam)) <= abs(sinc) * (1 + 1e-12)
        assert np.array_equal(noisy.lam, sinc * spec.lam)
        assert np.array_equal(noisy.vectors, spec.vectors)

    def test_bilinear_orthogonality(self, case_model, case_gen):
        # <f_l, D conj(f_m)> vanishes for l != m while eigenvalues stay distinct
        for eps in (1e-2, 1e-3):
            spec = spectrum(case_model, case_gen, 1, eps)
            phases = np.exp(2j * np.pi * case_model.alpha)
            gram = spec.vectors.T @ (phases[:, None] * spec.vectors)
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-8

    def test_asymptotic_near_orthogonality(self, case_model, case_gen):
        worst = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            spec = spectrum(case_model, case_gen, 1, eps)
            gram = np.abs(spec.vectors.conj().T @ spec.vectors - np.eye(33))
            worst.append(np.max(gram))
        assert all(b < a for a, b in zip(worst, worst[1:]))
        assert worst[-1] < 1e-3
