import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotor_spectra import (NoiseGenerator, assemble_limit_matrix, build_band_model,
                           closed_form_eigendata, laplacian_generator, oracle,
                           oracle_crosscheck)
from rotor_spectra.errors import MismatchBeyondTolerance, NotLaplacian


class TestClosedForm:
    def test_interior_width2(self):
        m = build_band_model([0.1, 0.2, 0.3], [1, 2, 1])
        data = closed_form_eigendata(m, 1)
        sl = m.band_slice(1)
        rho = (data.lambda_hat[sl] * np.exp(2j * np.pi * 0.2)).real
        assert_allclose(np.sort(rho), [-1.5, -0.5], atol=1e-14)
        assert data.case[1] == "interior"

    def test_case_study_first_block_leader(self, case_model):
        data = closed_form_eigendata(case_model, 1)
        want = np.exp(-2j * np.pi * case_model.beta[0]) * (-1 + np.cos(np.pi / 23))
        assert_allclose(data.lambda_hat[0], want, atol=1e-15)
        assert data.lambda_hat[0] == pytest.approx(
            np.exp(-2j * np.pi * case_model.beta[0]) * -0.009314053963669244, abs=1e-12)
        assert data.case[0] == "first"

    def test_case_study_last_block_leader(self, case_model):
        data = closed_form_eigendata(case_model, 1)
        # label 18 (0-based) opens band 3: smallest-|rho| member of the block
        want = np.exp(-2j * np.pi * case_model.beta[2]) * (-1 + np.cos(np.pi / 31))
        assert_allclose(data.lambda_hat[18], want, atol=1e-15)
        assert data.lambda_hat[18] == pytest.approx(
            np.exp(-2j * np.pi * case_model.beta[2]) * -0.005130676608104845, abs=1e-12)
        assert data.case[18] == "last"

    def test_residual_self_certification(self, case_model):
        for k in (0, 1, 2, 5):
            data = closed_form_eigendata(case_model, k)
            assert np.max(data.residual) <= 1e-10

    def test_band_support_and_unit_norm(self, case_model):
        data = closed_form_eigendata(case_model, 1)
        v = np.asarray(data.vectors)
        assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-14)
        for ell in range(33):
            outside = np.ones(33, dtype=bool)
            outside[case_model.band_slice(int(data.band[ell]))] = False
            assert np.all(v[outside, ell] == 0.0)

    def test_eigenvalue_multiset_matches_numeric(self, case_model, case_gen):
        data = closed_form_eigendata(case_model, 1)
        lim = assemble_limit_matrix(case_model, case_gen, 1)
        numeric = np.linalg.eigvals(np.asarray(lim.phat))
        a = np.sort_complex(np.round(data.lambda_hat, 12))
        b = np.sort_complex(np.round(numeric, 12))
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_single_band_fallback(self):
        m = build_band_model([0.3], [5])
        data = closed_form_eigendata(m, 2)
        assert set(data.case) == {"fallback"}
        assert np.max(data.residual) <= 1e-12
        rho = np.sort((data.lambda_hat * np.exp(2j * np.pi * 2 * 0.3)).real)
        # reflecting ends at both sides: cosine ladder -1 + cos(m pi / N)
        want = np.sort([-1 + np.cos(mm * np.pi / 5) for mm in range(5)])
        assert_allclose(rho, want, atol=1e-12)


class TestCrosscheck:
    def test_case_study(self, case_model, case_gen):
        report = oracle_crosscheck(case_model, case_gen, 1)
        assert report.max_abs_diff <= 1e-10
        assert report.max_vec_dist <= 1e-8
        assert len(report.abs_diff) == 33

    def test_small_two_band(self):
        m = build_band_model([0.1, 0.3], [2, 2])
        report = oracle_crosscheck(m, laplacian_generator(4), 1)
        assert report.max_abs_diff <= 1e-12
        assert report.max_vec_dist <= 1e-10

    def test_not_laplacian(self, case_model):
        w = np.zeros((33, 33))
        with pytest.raises(NotLaplacian):
            oracle_crosscheck(case_model, NoiseGenerator.from_matrix(w), 1)

    def test_mismatch_raised_at_absurd_tolerance(self, case_model, case_gen, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_TOL", 1e-18)
        with pytest.raises(MismatchBeyondTolerance):
            oracle_crosscheck(case_model, case_gen, 1)
