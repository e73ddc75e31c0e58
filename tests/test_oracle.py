import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rotor_spectra
from rotor_spectra import (LimitBasis, NoiseGenerator, assemble_limit_matrix, build_band_model,
                           closed_form_eigendata, laplacian_generator, oracle,
                           oracle_crosscheck, zero_noise)
from rotor_spectra.errors import DimensionTooSmall, MismatchBeyondTolerance, NotLaplacian
from rotor_spectra.oracle import ORACLE_TOL


def explicit_block(L, top, bottom):
    """The band block (W x)_i = (x_{i-1} - 2 x_i + x_{i+1})/2 with reflecting
    ends as flagged: diagonal -1, -1/2 at a reflecting end, off-diagonals 1/2."""
    w = np.diag(np.full(L, -1.0)) + 0.5 * (np.eye(L, k=1) + np.eye(L, k=-1))
    w[0, 0] += 0.5 * top
    w[L - 1, L - 1] += 0.5 * bottom
    return w


class TestClosedForm:
    def test_interior_width2(self):
        m = build_band_model([0.1, 0.2, 0.3], [1, 2, 1])
        data = closed_form_eigendata(m, 1)
        sl = m.band_slice(1)
        rho = (data.lambda_hat[sl] * np.exp(2j * np.pi * 0.2)).real
        assert_allclose(np.sort(rho), [-1.5, -0.5], atol=1e-14)
        assert oracle_crosscheck(m, laplacian_generator(4), 1).case[1] == "interior"

    def test_case_study_first_block_leader(self, case_model, case_gen):
        data = closed_form_eigendata(case_model, 1)
        want = np.exp(-2j * np.pi * case_model.beta[0]) * (-1 + np.cos(np.pi / 23))
        assert_allclose(data.lambda_hat[0], want, atol=1e-15)
        assert data.lambda_hat[0] == pytest.approx(
            np.exp(-2j * np.pi * case_model.beta[0]) * -0.009314053963669244, abs=1e-12)
        assert oracle_crosscheck(case_model, case_gen, 1).case[0] == "first"

    def test_case_study_last_block_leader(self, case_model, case_gen):
        data = closed_form_eigendata(case_model, 1)
        # label 18 (0-based) opens band 3: smallest-|rho| member of the block
        want = np.exp(-2j * np.pi * case_model.beta[2]) * (-1 + np.cos(np.pi / 31))
        assert_allclose(data.lambda_hat[18], want, atol=1e-15)
        assert data.lambda_hat[18] == pytest.approx(
            np.exp(-2j * np.pi * case_model.beta[2]) * -0.005130676608104845, abs=1e-12)
        assert oracle_crosscheck(case_model, case_gen, 1).case[18] == "last"

    def test_residual_self_certification(self, case_model, case_gen):
        for k in (0, 1, 2, 5):
            report = oracle_crosscheck(case_model, case_gen, k)
            assert np.max(report.residual) <= 1e-10

    def test_band_support_and_unit_norm(self, case_model):
        data = closed_form_eigendata(case_model, 1)
        v = np.asarray(data.vectors)
        assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-14)
        for ell in range(33):
            outside = np.ones(33, dtype=bool)
            outside[case_model.band_slice(int(data.model.band_index[ell]))] = False
            assert np.all(v[outside, ell] == 0.0)

    def test_eigenvalue_multiset_matches_numeric(self, case_model, case_gen):
        data = closed_form_eigendata(case_model, 1)
        numeric = np.linalg.eigvals(assemble_limit_matrix(case_model, case_gen, 1))
        a = np.sort_complex(np.round(data.lambda_hat, 12))
        b = np.sort_complex(np.round(numeric, 12))
        assert np.max(np.abs(a - b)) <= 1e-10

    @pytest.mark.parametrize("top, bottom", [(True, False), (False, False), (False, True),
                                             (True, True)])
    def test_block_matches_eigvalsh(self, top, bottom):
        for L in range(1, 41):
            if top and bottom and L == 1:
                continue        # a one-fibre model has no Laplacian (N >= 2)
            w = explicit_block(L, top, bottom)
            rho, v = oracle._block_closed_form(L, top, bottom)
            assert np.all(np.diff(rho) < 0)
            assert np.max(np.abs(rho - np.linalg.eigvalsh(w)[::-1])) <= 1e-13
            assert np.max(np.linalg.norm(w @ v - v * rho, axis=0)) <= 1e-13
            assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-14)
            assert np.all(v[0] > 0)     # already in the limit basis's sign gauge

    def test_single_band_closed_form(self, monkeypatch):
        def unused(*args):
            raise AssertionError("the closed form must not call the numerical solver")

        monkeypatch.setattr(oracle, "limit_eigenbasis", unused)
        # nor through the band-block embedding it shares with the numerical basis
        monkeypatch.setattr(zero_noise, "sorted_eigenbasis", unused)
        m = build_band_model([0.3], [5])
        data = closed_form_eigendata(m, 2)
        # reflecting ends at both sides: cosine ladder -1 + cos(m pi / L), descending
        want = np.exp(-2j * np.pi * 2 * 0.3) * (-1 + np.cos(np.arange(5) * np.pi / 5))
        assert_allclose(data.lambda_hat, want, atol=1e-15)
        monkeypatch.undo()
        report = oracle_crosscheck(m, laplacian_generator(5), 2)
        assert report.case == ("single",) * 5
        assert np.max(report.residual) <= 1e-12


class TestCrosscheck:
    def test_case_study(self, case_model, case_gen):
        report = oracle_crosscheck(case_model, case_gen, 1)
        assert report.max_abs_diff <= 1e-10
        assert report.max_vec_dist <= 1e-8
        assert len(report.abs_diff) == 33

    def test_closed_form_is_a_limit_basis(self, case_model, case_gen):
        report = oracle_crosscheck(case_model, case_gen, 2)
        closed, numeric = report.closed, report.numeric
        assert isinstance(closed, LimitBasis) and isinstance(numeric, LimitBasis)
        assert (closed.k, closed.model) == (numeric.k, numeric.model) == (2, case_model)
        # each basis carries the generator it is a basis of
        assert numeric.gen is case_gen and np.array_equal(closed.gen.wdot, case_gen.wdot)
        assert "ClosedFormEigen" not in rotor_spectra.__all__

    def test_small_two_band(self):
        m = build_band_model([0.1, 0.3], [2, 2])
        report = oracle_crosscheck(m, laplacian_generator(4), 1)
        assert report.max_abs_diff <= 1e-12
        assert report.max_vec_dist <= 1e-10

    def test_one_fibre_model_is_refused(self):
        # no Laplacian generator has one fibre, so there is no closed form to compare
        m = build_band_model([0.3], [1])
        with pytest.raises(DimensionTooSmall):
            closed_form_eigendata(m, 1)
        with pytest.raises(DimensionTooSmall):
            oracle_crosscheck(m, NoiseGenerator([[0.0]]), 1)

    def test_not_laplacian(self, case_model):
        w = np.zeros((33, 33))
        with pytest.raises(NotLaplacian):
            oracle_crosscheck(case_model, NoiseGenerator(w), 1)

    def test_mismatch_raised_at_absurd_tolerance(self, case_model, case_gen, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_TOL", 1e-18)
        with pytest.raises(MismatchBeyondTolerance):
            oracle_crosscheck(case_model, case_gen, 1)

    @pytest.mark.parametrize("beta, L", [([0.3], [6]), ([0.3], [2]),
                                         ([0.1, 0.35, 0.6], [3, 2, 4])])
    def test_perturbed_solver_is_caught(self, monkeypatch, beta, L):
        # the closed form is independent of limit_eigenbasis, one band included
        real = oracle.limit_eigenbasis

        def perturbed(*args):
            basis = real(*args)
            return dataclasses.replace(basis, lambda_hat=basis.lambda_hat * (1 + 1e-6))

        monkeypatch.setattr(oracle, "limit_eigenbasis", perturbed)
        m = build_band_model(beta, L)
        with pytest.raises(MismatchBeyondTolerance):
            oracle_crosscheck(m, laplacian_generator(m.N), 1)

    def test_residual_certificate_is_enforced(self, case_model, case_gen, monkeypatch):
        # the closed form and limit_eigenbasis still agree; only the limit
        # matrix that certifies the closed form's residuals is off
        real = oracle.assemble_limit_matrix

        def perturbed(*args):
            return real(*args) + 1e-6 * np.eye(case_model.N)

        monkeypatch.setattr(oracle, "assemble_limit_matrix", perturbed)
        with pytest.raises(MismatchBeyondTolerance, match="closed-form residual 1.000e-06"):
            oracle_crosscheck(case_model, case_gen, 1)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 6), min_size=1, max_size=4)
           .filter(lambda w: sum(w) >= 2),
           k=st.integers(-3, 3), data=st.data())
    def test_random_laplacian_models(self, widths, k, data):
        beta = data.draw(st.lists(st.floats(-1, 1, allow_subnormal=False), unique=True,
                                  min_size=len(widths), max_size=len(widths)))
        m = build_band_model(beta, widths)
        report = oracle_crosscheck(m, laplacian_generator(m.N), k)   # raises on a mismatch
        assert np.max(report.residual) <= ORACLE_TOL
