import math
from types import SimpleNamespace as NS

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rotor_spectra import (NoiseGenerator, assemble_limit_matrix, build_band_model,
                           check_gamma, laplacian_generator, limit_basis,
                           limit_eigenbasis, projective_distance, projector_gap,
                           response_data, spectrum, spectrum_convergence,
                           support_mass_outside_band, validate_admissibility)
from rotor_spectra import zero_noise
from rotor_spectra.errors import (DegenerateBlock, DimensionMismatch, GammaViolated,
                                  InvalidEpsGrid, ZeroVector)
from rotor_spectra.response import first_order_basis
from conftest import random_banded_model


class TestCheckGamma:
    def test_rational_coincidence(self):
        m = build_band_model([0.0, 0.5], [1, 1])
        assert check_gamma(m, 2) is False
        assert check_gamma(m, 1) is True

    def test_case_study_nonzero_k(self, case_model):
        for k in (1, 2, 3, -1, 7):
            assert check_gamma(case_model, k) is True

    def test_k0_multiband_false(self, case_model):
        assert check_gamma(case_model, 0) is False

    def test_single_band_vacuous(self):
        m = build_band_model([0.3], [4])
        assert check_gamma(m, 0) is True


def block_loop_limit_matrix(m, g, k):
    """Reference: the limit matrix assembled band block by band block."""
    ref = np.zeros((m.N, m.N), dtype=complex)
    for s, phase in enumerate(m.phases(k)):
        sl = m.band_slice(s)
        ref[sl, sl] = phase * g.wdot[sl, sl]
    return ref


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestAssembleLimitMatrix:
    def test_single_band_whole_matrix(self):
        m = build_band_model([0.3], [4])
        g = laplacian_generator(4)
        phat = assemble_limit_matrix(m, g, 2)
        assert_allclose(phat, np.exp(-2j * np.pi * 2 * 0.3) * g.wdot, atol=1e-15)

    def test_two_singleton_bands(self):
        m = build_band_model([0.1, 0.3], [1, 1])
        g = laplacian_generator(2)
        phat = assemble_limit_matrix(m, g, 1)
        want = np.diag([-0.5 * np.exp(-2j * np.pi * 0.1), -0.5 * np.exp(-2j * np.pi * 0.3)])
        assert_allclose(phat, want, atol=1e-15)

    def test_case_study_blocks(self, case_model, case_gen):
        phat = assemble_limit_matrix(case_model, case_gen, 1)
        for s in range(3):
            sl = case_model.band_slice(s)
            phase = np.exp(-2j * np.pi * case_model.beta[s])
            assert_allclose(phat[sl, sl], phase * case_gen.wdot[sl, sl], atol=1e-15)
        # exact block-diagonal: off-band entries are exact zeros
        mask = np.ones((33, 33), dtype=bool)
        for s in range(3):
            sl = case_model.band_slice(s)
            mask[sl, sl] = False
        assert np.all(phat[mask] == 0)

    @pytest.mark.parametrize("k", [-3, 0, 1, 7, 2 ** 31])
    def test_equals_block_loop_bit_for_bit(self, k):
        # the masked product is the block loop to the bit, and off band it is
        # +0 exactly, never -0.0
        rng = np.random.default_rng(k % 1000)
        for _ in range(60):
            m = random_banded_model(rng)
            w = rng.standard_normal((m.N, m.N)) * (rng.random((m.N, m.N)) < 0.7)
            g = NoiseGenerator(w + w.T)
            phat = assemble_limit_matrix(m, g, k)
            assert np.array_equal(bits(phat), bits(block_loop_limit_matrix(m, g, k)))
            off = m.band_index[:, None] != m.band_index[None, :]
            assert not np.any(np.signbit(phat.real[off]) | np.signbit(phat.imag[off]))


class TestLimitEigenbasis:
    def test_interior_width2_block(self):
        # hand eigensolve of [[-1, 1/2], [1/2, -1]]
        m = build_band_model([0.1, 0.2, 0.3], [1, 2, 1])
        g = laplacian_generator(4)
        basis = limit_eigenbasis(m, g, 1)
        sl = m.band_slice(1)
        rho = (basis.lambda_hat[sl] * np.exp(2j * np.pi * 1 * 0.2)).real
        assert_allclose(np.sort(rho), [-1.5, -0.5], atol=1e-12)
        assert_allclose(np.abs(basis.vectors[sl, 1]), [1, 1] / np.sqrt(2), atol=1e-12)
        assert_allclose(np.abs(basis.vectors[sl, 2]), [1, 1] / np.sqrt(2), atol=1e-12)

    def test_singleton_bands(self):
        m = build_band_model([0.1, 0.3], [1, 1])
        g = laplacian_generator(2)
        basis = limit_eigenbasis(m, g, 1)
        assert_allclose(basis.lambda_hat,
                        [-0.5 * np.exp(-2j * np.pi * 0.1), -0.5 * np.exp(-2j * np.pi * 0.3)],
                        atol=1e-15)
        assert_allclose(basis.vectors, np.eye(2), atol=0)

    def test_single_band_k0_is_wdot_basis(self):
        m = build_band_model([0.3], [5])
        g = laplacian_generator(5)
        basis = limit_eigenbasis(m, g, 0)
        rho, v = np.linalg.eigh(np.asarray(g.wdot))
        assert_allclose(np.sort(basis.lambda_hat.real), np.sort(rho), atol=1e-12)
        assert np.max(np.abs(basis.lambda_hat.imag)) == 0.0

    def test_orthonormal_band_supported_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = random_banded_model(rng)
            if m.N < 2:
                continue
            k = int(rng.integers(-3, 4))
            if m.S > 1 and not check_gamma(m, k):
                continue
            g = laplacian_generator(m.N)
            basis = limit_eigenbasis(m, g, k)
            v = np.asarray(basis.vectors)
            assert np.max(np.abs(v.T @ v - np.eye(m.N))) <= 1e-12
            assert np.max(support_mass_outside_band(basis)) == 0.0
            resid = assemble_limit_matrix(m, g, k) @ v - basis.lambda_hat[None, :] * v
            assert np.max(np.abs(resid)) <= 1e-12

    def test_arg_shift_by_pi(self, case_model, case_gen):
        basis = limit_eigenbasis(case_model, case_gen, 1)
        for ell in range(33):
            lh = basis.lambda_hat[ell]
            assert abs(lh) > 1e-12
            target_arg = np.angle(np.exp(-2j * np.pi * case_model.beta[basis.model.band_index[ell]]))
            shift = (np.angle(lh) - target_arg - np.pi) % (2 * np.pi)
            assert min(shift, 2 * np.pi - shift) <= 1e-10

    def test_degenerate_block(self):
        m = build_band_model([0.1, 0.2], [2, 1])
        w = np.zeros((3, 3))
        with pytest.raises(DegenerateBlock):
            limit_eigenbasis(m, NoiseGenerator(w), 1)

    def test_gamma_refusal(self, case_model, case_gen):
        with pytest.raises(GammaViolated):
            limit_basis(case_model, case_gen, 0)


class TestSimpleSpectrumRule:
    """Admissibility and the limit basis judge band blocks by one rule."""

    def test_admissibility_verdict_is_the_limit_basis_verdict(self):
        verdicts = set()

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(widths=st.lists(st.integers(1, 3), min_size=2, max_size=3), data=st.data())
        def check(widths, data):
            # symmetric band blocks Q diag(rho) Q^T with drawn eigenvalues
            # and per-block scales 1 .. 1e-8; no off-band coupling
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            model = build_band_model([0.1, 0.35, 0.7][:len(widths)], widths)
            wdot = np.zeros((model.N, model.N))
            for s, width in enumerate(widths):
                steps = [10.0 ** -data.draw(st.integers(0, 12)) for _ in range(width - 1)]
                rho = 10.0 ** -data.draw(st.integers(0, 8)) * -(1 + np.cumsum([0.0, *steps]))
                q, _ = np.linalg.qr(rng.normal(size=(width, width)))
                sl = model.band_slice(s)
                block = q @ np.diag(rho) @ q.T
                wdot[sl, sl] = 0.5 * (block + block.T)
            gen = NoiseGenerator(wdot)
            passed = validate_admissibility(gen, model).item_distinct_blocks
            try:
                limit_basis(model, gen, 1)
                raised = False
            except DegenerateBlock:
                raised = True
            assert passed == (not raised)
            verdicts.add(passed)

        check()
        assert verdicts == {True, False}

    def test_small_degenerate_block_beside_a_large_one(self):
        # a 2x2 block of radius 1.5 and one of radius 1e-6 whose eigenvalues
        # lie 2e-12 apart: simple within its own radius, not within the global one
        wdot = [[-1, 0.5, 0, 0, 0.5],
                [0.5, -1, 0, 0, 0.5],
                [0, 0, -9.99999e-07, 1e-12, 9.99998e-07],
                [0, 0, 1e-12, -9.99999e-07, 9.99998e-07],
                [0.5, 0.5, 9.99998e-07, 9.99998e-07, -1.000001999996]]
        model = build_band_model([0.1, 0.35, 0.7], [2, 2, 1])
        gen = NoiseGenerator(wdot)
        report = validate_admissibility(gen, model)
        assert report.item_stochastic and report.item_distinct_full
        assert not report.item_distinct_blocks
        with pytest.raises(DegenerateBlock):
            limit_basis(model, gen, 1)
        with pytest.raises(DegenerateBlock):
            response_data(model, gen, 1)

    @pytest.mark.parametrize("family, lo, hi", [
        # two bands: a near-double eigenvalue of the 3-fibre block, radius 1 + t
        (lambda t: ([0.1, 0.3], [3, 1], [[-0.50001, 1e-5, 0, 0.5],
                                         [1e-5, -(t + 2e-5), 1e-5, t],
                                         [0, 1e-5, -0.50001, 0.5],
                                         [0.5, t, 0.5, -(1 + t)]]), 0.55, 1.0),
        # one band: two eigenvalues of Wdot cross near a = 2.8828350048
        (lambda a: ([0.1], [5], [[-(a + 0.3), a, 0, 0, 0.3], [a, -(a + 1), 1, 0, 0],
                                 [0, 1, -2, 1, 0], [0, 0, 1, -(a + 1), a],
                                 [0.3, 0, 0, a, -(a + 0.3)]]), 2.8828350048, 2.9),
    ], ids=["two-bands", "one-band"])
    def test_verdicts_agree_across_the_cut(self, family, lo, hi):
        # bisect a one-parameter family to the GAP_TOL cut, where rounding of
        # the eigensolve decides the verdict, and scan 301 consecutive floats
        # around it: admissibility and both basis builders judge one solve
        def verdicts(t):
            beta, widths, wdot = family(t)
            model, gen = build_band_model(beta, widths), NoiseGenerator(wdot)
            report = validate_admissibility(gen, model)
            accepted = []
            for build, k in ((limit_basis, 1), (first_order_basis, 0)):
                try:
                    build(model, gen, k)
                    accepted.append(True)
                except DegenerateBlock:
                    accepted.append(False)
            return report.item_distinct_blocks, report.item_distinct_full, *accepted

        below = verdicts(lo)[0]
        assert verdicts(hi)[0] != below
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if verdicts(mid)[0] == below else (lo, mid)
        scan = [verdicts(t) for t in lo + np.spacing(lo) * np.arange(-150, 151)]
        assert [(blocks, full) for blocks, full, *_ in scan] == [tuple(v[2:]) for v in scan]
        assert {v[0] for v in scan} == {True, False}


class TestProjectiveDistance:
    def test_identical(self):
        assert projective_distance([1, 2j, -1], [1, 2j, -1]) == 0.0

    def test_phase_invariance(self):
        v = np.array([0.3, -0.4j, 0.5])
        assert projective_distance(v, 1j * v) <= 1e-15

    def test_orthogonal(self):
        assert projective_distance([1, 0], [0, 1]) == pytest.approx(np.sqrt(2))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            projective_distance([0, 0], [1, 0])

    def test_matches_cosine_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.normal(size=6) + 1j * rng.normal(size=6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            c = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert projective_distance(u, v) == pytest.approx(np.sqrt(2 - 2 * c), abs=1e-7)


class TestProjectorGap:
    def test_identical_and_orthogonal(self):
        assert projector_gap([1, 0], [1, 0]) == 0.0
        assert projector_gap([1, 0], [0, 1]) == 1.0

    def test_matches_projector_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = rng.normal(size=5) + 1j * rng.normal(size=5)
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            pu = np.outer(u, u.conj())
            pv = np.outer(v, v.conj())
            want = np.linalg.norm(pu - pv, 2)
            assert projector_gap(u, v) == pytest.approx(want, abs=1e-10)


class TestRefusals:
    @pytest.mark.parametrize("pair", [([0, 0], [1, 0]), ([1j, 0], [0, 0])])
    def test_projector_gap_of_a_zero_vector(self, pair):
        # as projective_distance refuses it; it used to return 1.0 after a warning
        with pytest.raises(ZeroVector):
            projector_gap(*pair)

    @pytest.mark.parametrize("distance", [projective_distance, projector_gap])
    def test_lengths_must_agree(self, distance):
        with pytest.raises(DimensionMismatch, match="lengths 2 and 3"):
            distance([1, 0], [1, 0, 0])


def loop_mass_outside_band(spec):
    """Reference: the per-label loop of the band mass, as it was before the
    per-band row sums."""
    vec, model = np.asarray(spec.vectors), spec.model
    out = np.empty(vec.shape[1])
    for ell, s in enumerate(model.band_index.tolist()):
        outside = np.ones(vec.shape[0], dtype=bool)
        outside[model.band_slice(s)] = False
        out[ell] = float(np.sum(np.abs(vec[outside, ell]) ** 2)) \
            / float(np.sum(np.abs(vec[:, ell]) ** 2))
    return out


class TestConvergence:
    def test_mass_outside_band_equals_the_label_loop_bit_for_bit(self):
        # labelled spectra of random models under the Laplacian, and random
        # complex matrices in both layouts
        rng = np.random.default_rng(37)
        for i in range(40):
            m = random_banded_model(rng, max_bands=4, max_width=12)
            if m.N < 2:
                continue
            k, eps = int(rng.integers(1, 4)), float(10 ** rng.uniform(-4, -0.6))
            spec = spectrum(m, laplacian_generator(m.N), k, eps)
            v = rng.standard_normal((m.N, m.N)) + 1j * rng.standard_normal((m.N, m.N))
            for record in (spec, NS(vectors=v if i % 2 else np.asfortranarray(v), model=m)):
                assert np.array_equal(bits(support_mass_outside_band(record)),
                                      bits(loop_mass_outside_band(record)))

    def test_spectrum_convergence_rows_equal_separate_calls(self, case_model, case_gen):
        basis = limit_basis(case_model, case_gen, 2)
        grid = [1e-1, 1e-3]
        want = []
        for eps in grid:
            spec = spectrum(case_model, case_gen, 2, eps)
            mass = loop_mass_outside_band(spec)
            for ell in range(case_model.N):
                u, v = spec.vectors[:, ell], basis.vectors[:, ell]
                want.append((2, ell, eps, projective_distance(u, v), projector_gap(u, v),
                             float(mass[ell])))
        assert list(map(repr, spectrum_convergence(basis, grid))) == list(map(repr, want))

    def test_mass_outside_band_case_study(self, case_model, case_gen):
        masses = []
        for eps in (1e-1, 1e-2, 1e-3):
            spec = spectrum(case_model, case_gen, 1, eps)
            masses.append(support_mass_outside_band(spec))
        assert 0 < masses[0][0] < 0.5
        for a, b in zip(masses, masses[1:]):
            assert np.all(b < a)

    def test_single_band_mass_zero(self):
        m = build_band_model([0.3], [5])
        g = laplacian_generator(5)
        spec = spectrum(m, g, 1, 0.1)
        assert np.max(support_mass_outside_band(spec)) == 0.0

    def test_projector_gap_decreases(self, case_model, case_gen):
        basis = limit_basis(case_model, case_gen, 1)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            spec = spectrum(case_model, case_gen, 1, eps)
            gaps.append(projector_gap(spec.vectors[:, 0], basis.vectors[:, 0]))
        assert gaps[0] > gaps[1] > gaps[2] > 0 or gaps[2] < 1e-12

    @pytest.mark.parametrize("grid", [[0.0, 0.1], [0.1, -1.0], [0.1, math.nan]])
    def test_spectrum_convergence_refuses_nonpositive_eps(self, two_band_model, two_band_gen,
                                                           monkeypatch, grid):
        # at eps = 0 each band's eigenvalue is L_s-fold, so eig's vectors are an
        # arbitrary basis of its eigenspace: no point is solved before the refusal
        basis = limit_basis(two_band_model, two_band_gen, 1)
        monkeypatch.setattr(zero_noise, "spectrum", None)
        with pytest.raises(InvalidEpsGrid, match="must be finite and positive"):
            spectrum_convergence(basis, grid)

    def test_spectrum_convergence_rows(self, two_band_model, two_band_gen):
        basis = limit_basis(two_band_model, two_band_gen, 1)
        rows = spectrum_convergence(basis, [1e-2, 1e-3])
        assert len(rows) == 4
        by_ell = {}
        for k, ell, eps, pd, pg, mo in rows:
            assert k == 1
            by_ell.setdefault(ell, []).append((eps, pd, pg, mo))
        for ell, entries in by_ell.items():
            (e1, pd1, pg1, mo1), (e2, pd2, pg2, mo2) = entries
            assert e1 > e2 and pd1 > pd2 and pg1 > pg2 and mo1 > mo2
