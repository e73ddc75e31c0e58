import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rotor_spectra import (NoiseGenerator, alpha_response, build_band_model, detect_bands,
                           eig_dense_complex, laplacian_generator, validate_admissibility,
                           w_epsilon)
from rotor_spectra.errors import (DimensionMismatch, DimensionTooSmall, DuplicateSpeed,
                                  EmptyBand, EpsOutOfRange, InvalidMatrix, InvalidSpeeds,
                                  NonBandable, RotorSpectraError)
from conftest import CASE_BETA, random_banded_model


class TestBuildBandModel:
    def test_case_study_layout(self, case_model):
        assert case_model.N == 33
        assert case_model.cum == (0, 11, 18, 33)
        assert case_model.S == 3
        assert_allclose(case_model.alpha[:11], CASE_BETA[0])
        assert_allclose(case_model.alpha[11:18], CASE_BETA[1])
        assert_allclose(case_model.alpha[18:], CASE_BETA[2])

    def test_single_band(self):
        m = build_band_model([0.3], [5])
        assert m.N == 5
        assert_array_equal(m.alpha, [0.3] * 5)

    def test_minimal_two_band(self):
        m = build_band_model([0.1, 0.2], [1, 1])
        assert m.N == 2
        assert m.band_slice(0) == slice(0, 1)
        assert m.band_slice(1) == slice(1, 2)

    def test_duplicate_speed(self):
        with pytest.raises(DuplicateSpeed):
            build_band_model([0.1, 0.1], [1, 1])

    def test_empty_band(self):
        with pytest.raises(EmptyBand):
            build_band_model([0.1, 0.2], [1, 0])

    def test_phase_gap(self):
        m = build_band_model([0.0, 0.25, 0.6], [1, 2, 1])
        assert m.phase_gap(1) == pytest.approx(abs(1 - np.exp(-2j * np.pi * 0.25)))
        assert m.phase_gap(4) == pytest.approx(0.0, abs=1e-15)   # 0 and 0.25 coincide
        assert m.phase_gap(0) == 0.0
        assert build_band_model([0.3], [4]).phase_gap(1) == np.inf

    def test_immutable(self, case_model):
        with pytest.raises(ValueError):
            case_model.alpha[0] = 99.0


class TestDetectBands:
    def test_run_length_grouping(self):
        m = detect_bands([0.1, 0.1, 0.5])
        assert m.beta == (0.1, 0.5)
        assert m.L == (2, 1)

    def test_non_bandable(self):
        with pytest.raises(NonBandable):
            detect_bands([0.1, 0.5, 0.1])

    def test_case_study_roundtrip(self, case_model):
        m = detect_bands(case_model.alpha)
        assert m.beta == case_model.beta
        assert m.L == case_model.L
        assert m.cum == case_model.cum

    def test_roundtrip_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_banded_model(rng)
            back = detect_bands(m.alpha)
            assert back.beta == m.beta and back.L == m.L and back.cum == m.cum


class TestLaplacianGenerator:
    def test_n3_stencil(self):
        g = laplacian_generator(3)
        assert_array_equal(g.wdot, [[-0.5, 0.5, 0.0], [0.5, -1.0, 0.5], [0.0, 0.5, -0.5]])

    def test_n2_stencil(self):
        g = laplacian_generator(2)
        assert_array_equal(g.wdot, [[-0.5, 0.5], [0.5, -0.5]])

    def test_max_diagonal(self):
        g = laplacian_generator(33)
        assert np.max(np.abs(np.diag(g.wdot))) == 1.0
        assert g.eps_max == 1.0

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            laplacian_generator(1)


class TestAdmissibility:
    def test_case_study_passes(self, case_model, case_gen):
        rep = validate_admissibility(case_gen, case_model)
        assert rep.item_stochastic and rep.item_distinct_full and rep.item_distinct_blocks
        assert rep.passed
        assert rep.row_sum_defect <= 1e-12
        assert rep.symmetry_defect == 0.0

    def test_zero_generator_fails_distinctness(self):
        m = build_band_model([0.1, 0.2], [2, 1])
        g = NoiseGenerator.from_matrix(np.zeros((3, 3)))
        rep = validate_admissibility(g, m)
        assert rep.item_stochastic          # zero matrix is stochastic-compatible
        assert not rep.item_distinct_full   # all eigenvalues equal 0
        assert not rep.passed

    def test_eps_max_four_fibres(self):
        m = build_band_model([0.1, 0.2], [2, 2])
        g = laplacian_generator(4)
        rep = validate_admissibility(g, m)
        assert rep.passed
        assert rep.eps_max == 1.0

    def test_asymmetric_fails(self):
        m = build_band_model([0.1, 0.2], [1, 1])
        w = np.array([[-0.5, 0.5], [0.2, -0.2]])
        rep = validate_admissibility(NoiseGenerator.from_matrix(w), m)
        assert not rep.item_stochastic

    def test_negative_offdiagonal_fails(self):
        m = build_band_model([0.1, 0.2], [1, 1])
        w = np.array([[0.5, -0.5], [-0.5, 0.5]])
        rep = validate_admissibility(NoiseGenerator.from_matrix(w), m)
        assert not rep.item_stochastic

    def test_block_eigenvalues_nonpositive(self):
        # zero row sums with nonnegative off-diagonals push all block spectra <= 0
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_banded_model(rng)
            g = laplacian_generator(m.N) if m.N >= 2 else None
            if g is None:
                continue
            for s in range(m.S):
                sl = m.band_slice(s)
                ev = np.linalg.eigvalsh(g.wdot[sl, sl])
                assert np.all(ev <= 1e-12)


class TestWEpsilon:
    def test_direct_substitution(self):
        g = laplacian_generator(3)
        w = w_epsilon(g, 0.1)
        assert_allclose(w, [[0.95, 0.05, 0.0], [0.05, 0.9, 0.05], [0.0, 0.05, 0.95]],
                        rtol=0, atol=1e-15)

    def test_eps_zero_identity(self):
        g = laplacian_generator(4)
        assert_array_equal(w_epsilon(g, 0.0), np.eye(4))

    def test_eps_out_of_range(self):
        g = laplacian_generator(3)
        with pytest.raises(EpsOutOfRange):
            w_epsilon(g, 1.5)
        with pytest.raises(EpsOutOfRange):
            w_epsilon(g, -0.1)

    def test_doubly_stochastic_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_banded_model(rng)
            if m.N < 2:
                continue
            g = laplacian_generator(m.N)
            eps = float(rng.uniform(0, g.eps_max))
            w = w_epsilon(g, eps)
            assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
            assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
            assert w.min() >= 0.0 and w.max() <= 1.0


@pytest.mark.parametrize("error, call", [
    (InvalidMatrix, lambda: NoiseGenerator.from_matrix([[0.0, 1.0]])),
    (DimensionMismatch, lambda: build_band_model([0.1, 0.2], [1])),
    (InvalidSpeeds, lambda: detect_bands([])),
    (DimensionMismatch, lambda: validate_admissibility(laplacian_generator(3),
                                                       build_band_model([0.1], [2]))),
    (InvalidMatrix, lambda: eig_dense_complex(np.ones((2, 3)))),
    (InvalidMatrix, lambda: eig_dense_complex([[1.0, np.nan], [0.0, 1.0]])),
    (DimensionMismatch, lambda: alpha_response(build_band_model([0.0, 0.25], [1, 1]),
                                              laplacian_generator(2), 1, 0.01, 0, [1.0])),
], ids=["from_matrix", "band_lengths", "detect_bands", "admissibility_dimension",
        "eig_not_square", "eig_non_finite", "alpha_direction"])
def test_boundary_errors_are_typed(error, call):
    # typed library errors that still satisfy callers catching ValueError
    assert issubclass(error, RotorSpectraError) and issubclass(error, ValueError)
    with pytest.raises(error):
        call()
