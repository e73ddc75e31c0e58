import dataclasses
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rotor_spectra import (NoiseGenerator, alpha_response, build_band_model,
                           eigenvector_response, laplacian_generator, limit_basis,
                           order_check, order_checks, projective_distance, response,
                           response_data, second_order_eigenvalue, spectrum,
                           validate_admissibility, w_epsilon, zero_noise)
from rotor_spectra.errors import (DegenerateBlock, EigsNotSimple, EpsZero, GammaViolated,
                                  InvalidEpsGrid, InvalidSpeeds, NoConvergence)
from rotor_spectra.model import sorted_eigenbasis, spectral_gap
from rotor_spectra.response import first_order_basis
from rotor_spectra.spectra import (_certified, assemble_fourier_block, eig_dense_complex,
                                   label_spectrum)
from conftest import traced_peak


def exact_phases(model, k):
    """Reference band phases exp(-2 pi i k beta_s), with k beta_s reduced mod 1
    in exact rational arithmetic."""
    return np.exp(-2j * np.pi * np.array([float(Fraction(b) * k % 1) for b in model.beta]))


def loop_second_order(model, gen, k, ell, basis):
    """Reference: the per-label sum over bands of the module docstring."""
    phases = exact_phases(model, k)
    d = phases[model.band_index]
    s_l = int(basis.model.band_index[ell])
    f = basis.vectors[:, ell].astype(complex)
    a = d * (gen.wdot @ f)
    b = gen.wdot @ (np.conj(d) * f)
    acc = 0.0 + 0.0j
    for s in range(model.S):
        if s != s_l:
            sl = model.band_slice(s)
            acc += np.vdot(b[sl], a[sl]) / (phases[s_l] - phases[s])
    return acc


def loop_eigenvector_response(model, gen, k, ell, basis):
    """Reference: fhat of one label as a loop over the other labels."""
    phases = exact_phases(model, k)
    d = phases[model.band_index]
    s_l = int(basis.model.band_index[ell])
    f = basis.vectors[:, ell].astype(complex)
    lam_hat = basis.lambda_hat
    a = d * (gen.wdot @ f)
    out = np.zeros(model.N, dtype=complex)
    for r in range(model.N):
        if r == ell:
            continue
        fr = basis.vectors[:, r].astype(complex)
        s_r = int(basis.model.band_index[r])
        if s_r == s_l:
            br = gen.wdot @ (np.conj(d) * fr)
            c = 0.0 + 0.0j
            for s in range(model.S):
                if s != s_l:
                    sl = model.band_slice(s)
                    c += np.vdot(br[sl], a[sl]) / (phases[s_l] - phases[s])
            c /= (lam_hat[ell] - lam_hat[r])
        else:
            c = np.vdot(fr, a) / (phases[s_l] - phases[s_r])
        out += c * fr
    return out


def assert_matches_loop_reference(resp, model, gen, k, atol):
    for ell in range(model.N):
        assert abs(resp.lambda_hathat[ell]
                   - loop_second_order(model, gen, k, ell, resp.basis)) <= atol
        assert_allclose(resp.f_hat[:, ell],
                        loop_eigenvector_response(model, gen, k, ell, resp.basis),
                        rtol=0, atol=atol)


def rates_generator(n, rates):
    """The symmetric generator of n fibres with upper-triangle rates ``rates``
    (row by row) and zero row sums."""
    wdot = np.zeros((n, n))
    wdot[np.triu_indices(n, 1)] = rates
    wdot += wdot.T
    wdot -= np.diag(wdot.sum(axis=1))
    return NoiseGenerator(wdot)


def draw_generator(data, n, low=0.05):
    """A random symmetric generator with off-diagonal rates in [low, 1] and zero row sums."""
    rates = data.draw(st.lists(st.floats(low, 1.0), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2), label="rates")
    return rates_generator(n, rates)


def draw_separated_model(data, widths):
    """A random admissible model of at most 12 fibres, its generator and a k in
    [1, 3], with band phases and in-band first-order eigenvalues 1e-2 apart."""
    n = sum(widths)
    assume(n <= 12)
    beta = data.draw(st.lists(st.floats(-1, 1), min_size=len(widths),
                              max_size=len(widths), unique=True), label="beta")
    k = data.draw(st.integers(1, 3), label="k")
    gen = draw_generator(data, n)
    model = build_band_model(beta, widths)
    phases = np.exp(-2j * np.pi * k * np.asarray(beta))
    assume(min(abs(p - q) for i, p in enumerate(phases) for q in phases[i + 1:]) > 1e-2)
    gaps = [np.min(np.diff(np.linalg.eigvalsh(gen.wdot[sl, sl])))
            for sl in map(model.band_slice, range(model.S)) if sl.stop - sl.start > 1]
    assume(min(gaps, default=1.0) > 1e-2)
    return model, gen, k


def fd_eigendata(model, gen, k, eps, pred):
    """Independent finite-difference oracle: eig + assignment to predictions."""
    d = np.diag(np.exp(-2j * np.pi * k * model.alpha))
    lam, vec = np.linalg.eig(d @ (np.eye(model.N) + eps * np.asarray(gen.wdot)))
    order = []
    used = set()
    for p in pred:
        cand = sorted(range(model.N), key=lambda i: abs(lam[i] - p))
        nxt = next(i for i in cand if i not in used)
        used.add(nxt)
        order.append(nxt)
    vec = vec[:, order] / np.linalg.norm(vec[:, order], axis=0, keepdims=True)
    return lam[order], vec


def fd_vector_response(model, gen, k, ell, basis, eps):
    """(aligned f_eps - f)/eps, projected onto the complement of f."""
    pred = np.exp(-2j * np.pi * k * model.alpha) + eps * basis.lambda_hat
    _, vec = fd_eigendata(model, gen, k, eps, pred)
    f = basis.vectors[:, ell].astype(complex)
    v = vec[:, ell]
    ip = np.vdot(f, v)
    v = v * abs(ip) / ip
    w = (v - f) / eps
    return w - np.vdot(f, w) * f


class TestEigenvectorResponse:
    def test_single_band_zero(self):
        m = build_band_model([0.3], [4])
        g = laplacian_generator(4)
        assert np.all(eigenvector_response(m, g, 3, 1) == 0)

    def test_k0_zero(self, case_model, case_gen):
        assert np.all(eigenvector_response(case_model, case_gen, 0, 5) == 0)

    def test_two_band_hand_value(self, two_band_model, two_band_gen):
        # finite-difference verified: the limit of (aligned f_eps - e1)/eps
        fhat = eigenvector_response(two_band_model, two_band_gen, 1, 0)
        assert_allclose(fhat, [0.0, -(1 + 1j) / 4], atol=1e-14)

    def test_matches_fd_oracle_width2_bands(self):
        m = build_band_model([0.1, 0.35], [2, 1])
        g = laplacian_generator(3)
        basis = limit_basis(m, g, 1)
        for ell in range(3):
            fhat = eigenvector_response(m, g, 1, ell)
            fd1 = fd_vector_response(m, g, 1, ell, basis, 1e-4)
            fd2 = fd_vector_response(m, g, 1, ell, basis, 5e-5)
            assert_allclose(2 * fd2 - fd1, fhat, atol=1e-6)

    def test_gauge_orthogonality_sweep(self, case_model, case_gen):
        basis = limit_basis(case_model, case_gen, 1)
        for ell in (0, 5, 11, 18, 32):
            fhat = eigenvector_response(case_model, case_gen, 1, ell)
            f = basis.vectors[:, ell].astype(complex)
            assert abs(np.vdot(f, fhat)) <= 1e-12

    def test_support_structure(self, case_model, case_gen):
        # in-band part lies in span{f_r: r in band, r != ell}, rest outside
        basis = limit_basis(case_model, case_gen, 1)
        ell = 0
        fhat = eigenvector_response(case_model, case_gen, 1, ell)
        coeffs = basis.vectors.T @ fhat
        assert abs(coeffs[ell]) <= 1e-12

    def test_gamma_violated(self):
        m = build_band_model([0.0, 0.5], [1, 1])
        g = laplacian_generator(2)
        with pytest.raises(GammaViolated):
            eigenvector_response(m, g, 2, 0)

    def test_two_band_matches_true_projector(self, two_band_model, two_band_gen):
        eps = 1e-3
        basis = limit_basis(two_band_model, two_band_gen, 1)
        fhat = eigenvector_response(two_band_model, two_band_gen, 1, 0)
        v = spectrum(two_band_model, two_band_gen, 1, eps).vectors[:, 0]
        assert projective_distance(v, basis.vectors[:, 0] + eps * fhat) < eps ** 1.5


class TestSecondOrderEigenvalue:
    def test_single_band_zero(self):
        m = build_band_model([0.3], [4])
        assert second_order_eigenvalue(m, laplacian_generator(4), 2, 0) == 0

    def test_two_band_hand_value(self, two_band_model, two_band_gen):
        # Richardson-extrapolation verified second-order Taylor coefficient
        lhh = second_order_eigenvalue(two_band_model, two_band_gen, 1, 0)
        assert_allclose(lhh, -(1 + 1j) / 8, atol=1e-14)

    def test_matches_richardson_width2(self):
        m = build_band_model([0.1, 0.35], [2, 1])
        g = laplacian_generator(3)
        basis = limit_basis(m, g, 1)
        lam0 = np.exp(-2j * np.pi * m.alpha)
        for ell in range(3):
            lhh = second_order_eigenvalue(m, g, 1, ell)
            vals = []
            for eps in (1e-3, 5e-4):
                pred = lam0 + eps * basis.lambda_hat
                lam, _ = fd_eigendata(m, g, 1, eps, pred)
                vals.append((lam[ell] - lam0[ell] - eps * basis.lambda_hat[ell]) / eps ** 2)
            assert abs((2 * vals[1] - vals[0]) - lhh) <= 1e-6


class TestResponseData:
    def test_case_study_table(self, case_model, case_gen):
        resp = response_data(case_model, case_gen, 1)
        assert resp.basis.lambda_hat.shape == (33,)
        assert np.all(np.abs(resp.lambda_hathat) > 0)
        # fhat of a band-1 label is supported on bands 2, 3 plus the band-1
        # complement of its own vector
        fhat0 = resp.f_hat[:, 0]
        assert np.linalg.norm(fhat0[11:]) > 0

    def test_s1_all_zero(self):
        m = build_band_model([0.3], [4])
        resp = response_data(m, laplacian_generator(4), 2)
        assert np.all(resp.lambda_hathat == 0)
        assert np.all(resp.f_hat == 0)

    def test_ray_preservation(self, case_model, case_gen):
        # first order only shrinks magnitude: argument of e + eps*lhat is fixed
        resp = response_data(case_model, case_gen, 1)
        eps = 1e-3
        for ell in (0, 11, 18):
            e = np.exp(-2j * np.pi * case_model.beta[resp.basis.model.band_index[ell]])
            z = e + eps * resp.basis.lambda_hat[ell]
            assert abs(z) < 1.0
            d = (np.angle(z) - np.angle(e)) % (2 * np.pi)
            assert min(d, 2 * np.pi - d) <= 1e-12


class TestVectorisedTerms:
    """response_data's matrix form against the per-label loops it replaced."""

    @pytest.mark.parametrize("which", ["case", "two_band", "width2"])
    def test_matches_loop_reference(self, which, case_model, case_gen,
                                    two_band_model, two_band_gen):
        model, gen = {
            "case": (case_model, case_gen),
            "two_band": (two_band_model, two_band_gen),
            "width2": (build_band_model([0.1, 0.35], [2, 1]), laplacian_generator(3)),
        }[which]
        # summation order differs from the loops: a few ulps of the O(1) terms
        assert_matches_loop_reference(response_data(model, gen, 1), model, gen, 1, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=2, max_size=4),
           data=st.data())
    def test_random_admissible_models(self, widths, data):
        model, gen, k = draw_separated_model(data, widths)
        resp = response_data(model, gen, k)
        scale = 1.0 + float(np.max(np.abs(resp.f_hat)))
        assert_matches_loop_reference(resp, model, gen, k, atol=1e-13 * scale)
        f = np.asarray(resp.basis.vectors)
        assert np.max(np.abs(np.diag(f.T @ resp.f_hat))) <= 1e-12 * scale


def replaced_response_terms(model, gen, k):
    """Reference: response_data's lhathat and fhat with D spelt per fibre, as
    before the band-diagonal helper, for a model whose expansion does not terminate."""
    n, basis = model.N, first_order_basis(model, gen, k)
    f, lam_hat = basis.vectors, basis.lambda_hat
    d = model.phases(k)[model.band_index]
    across = d[:, None] != d[None, :]
    within = ~across & ~np.eye(n, dtype=bool)
    gap = lam_hat[None, :] - lam_hat[:, None]
    inv = np.zeros((n, n), dtype=complex)
    np.divide(1.0, d[None, :] - d[:, None], out=inv, where=across)
    a = d[:, None] * (gen.wdot @ f)
    b = gen.wdot @ (np.conj(d)[:, None] * f)
    h = b.conj().T @ (a * inv)
    coeff = (f.T @ a) * inv + h / np.where(within, gap, np.inf)
    return np.diag(h), f @ coeff


def assert_same_bits(got, want):
    """Equal bit for bit, signed zeros included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(float), want.view(float))


class TestBandDiagonal:
    """Every Diag(c[band]) X goes through spectra._band_diagonal; each product
    equals the per-fibre spelling it replaced, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 4), min_size=2, max_size=4), data=st.data())
    def test_matches_the_replaced_spellings(self, widths, data):
        model, gen, k = draw_separated_model(data, widths)
        lhh, fhat = replaced_response_terms(model, gen, k)
        resp = response_data(model, gen, k)
        assert_same_bits(resp.lambda_hathat, lhh)
        assert_same_bits(resp.f_hat, fhat)
        # the blocks at any index and noise level, the limit matrix at any index
        kb = data.draw(st.integers(-6, 6), label="k_block")
        eps = data.draw(st.floats(0, gen.eps_max), label="eps")
        d = model.phases(kb)[model.band_index]
        assert_same_bits(assemble_fourier_block(model, gen, kb, eps),
                         d[:, None] * w_epsilon(gen, eps))
        same_band = model.band_index[:, None] == model.band_index[None, :]
        assert_same_bits(zero_noise.assemble_limit_matrix(model, gen, kb),
                         np.where(same_band, d[:, None] * gen.wdot, 0))


class TestOrderCheck:
    def test_exactness_single_band(self):
        # first order is the whole expansion when S = 1
        m = build_band_model([0.3], [5])
        g = laplacian_generator(5)
        oc = order_check(m, g, 3, 2, [1e-1, 1e-2, 1e-3, 1e-4])
        assert np.max(oc.r1) <= 1e-12
        assert np.max(oc.r2) <= 1e-12
        # the ladders beyond r0 are rounding: no slope is fitted to them
        assert (oc.slope1, oc.slope2, oc.slope_vec) == (None, None, None)

    def test_exactness_k0(self, case_model, case_gen):
        oc = order_check(case_model, case_gen, 0, 4, [1e-1, 1e-2, 1e-3, 1e-4])
        assert np.max(oc.r1) <= 1e-12
        assert (oc.slope1, oc.slope2, oc.slope_vec) == (None, None, None)

    def test_two_band_slopes(self, two_band_model, two_band_gen):
        oc = order_check(two_band_model, two_band_gen, 1, 0, [1e-2, 1e-3, 1e-4, 1e-5])
        assert oc.slope0 == pytest.approx(1.0, abs=0.05)
        assert oc.slope1 == pytest.approx(2.0, abs=0.05)
        assert oc.slope2 >= 2.5
        assert oc.slope_vec > 1.0

    def test_case_study_vec_slope(self, case_model, case_gen):
        oc = order_check(case_model, case_gen, 1, 0, [1e-2, 1e-3, 1e-4, 1e-5])
        assert oc.slope_vec > 1.0

    def test_grid_validation(self, two_band_model, two_band_gen):
        with pytest.raises(ValueError):
            order_check(two_band_model, two_band_gen, 1, 0, [1e-2, 1e-3, 1e-4])
        with pytest.raises(ValueError):
            order_check(two_band_model, two_band_gen, 1, 0, [5.0, 1e-2, 1e-3, 1e-4])

    def test_grid_errors_are_typed(self, two_band_model, two_band_gen):
        for grid in ([1e-2, 1e-3, 1e-4, 1e-4], [5.0, 1e-2, 1e-3, 1e-4],
                     [1e-2, 1e-3, 1e-4, 0.0], [1e-2, 1e-3, np.nan, 1e-4]):
            with pytest.raises(InvalidEpsGrid):
                order_check(two_band_model, two_band_gen, 1, 0, grid)

    @pytest.mark.parametrize("k, ell", [(1, 0), (1, 11), (0, 4)])
    def test_precomputed_response_gives_identical_ladders(self, case_model, case_gen, k, ell):
        # one precomputed response, used twice, gives the ladders order_check computes itself
        grid = [1e-2, 1e-3, 1e-4, 1e-5]
        resp = response_data(case_model, case_gen, k)
        own = order_check(case_model, case_gen, k, ell, grid)
        for _ in range(2):
            (given_resp,) = order_checks(resp, [ell], grid)
            for field in dataclasses.fields(own):
                a, b = getattr(given_resp, field.name), getattr(own, field.name)
                assert (a is None and b is None) or np.array_equal(a, b), field.name

    @pytest.mark.parametrize("model, k, ells", [("case", 1, [0, 11, 18]),
                                                ("case", 0, [0, 11, 18]),
                                                ("one-band", 1, [0, 2, 4])],
                             ids=["case-k1", "case-k0", "one-band-k1"])
    def test_shared_sweep_equals_per_label_checks(self, case_model, case_gen, model, k, ells):
        # one eigensolve per eps for all labels gives every label's check bit for bit
        m, g = ((case_model, case_gen) if model == "case"
                else (build_band_model([0.3], [5]), laplacian_generator(5)))
        grid = [1e-2, 1e-3, 1e-4, 1e-5]
        shared = order_checks(response_data(m, g, k), ells, grid)
        assert [oc.ell for oc in shared] == ells
        for ell, got in zip(ells, shared):
            own = order_check(m, g, k, ell, grid)
            for field in dataclasses.fields(own):
                a, b = getattr(got, field.name), getattr(own, field.name)
                assert (a is None and b is None) or np.array_equal(a, b), (ell, field.name)

    def test_order_checks_read_the_generator_of_their_record(self, case_model, case_gen):
        # a response record at half of Wdot checks half of Wdot: a second
        # generator beside the record used to be taken without a word, and
        # Wdot's terms against half of it gave dense ladders of slope1 1.00
        half = NoiseGenerator(0.5 * case_gen.wdot)
        grid = [1e-2, 1e-3, 1e-4, 1e-5]
        checks = order_checks(response_data(case_model, half, 1), [0, 11, 18], grid)
        for ell, got in zip([0, 11, 18], checks):
            own = order_check(case_model, half, 1, ell, grid)
            for field in dataclasses.fields(own):
                a, b = getattr(got, field.name), getattr(own, field.name)
                assert (a is None and b is None) or np.array_equal(a, b), (ell, field.name)
            assert got.slope1 == pytest.approx(2.0, abs=0.1)


class TestLabelDisks:
    """The row-disk certificate of order_checks against the dense eigensolve."""

    @staticmethod
    def disks(resp, gen, eps):
        f, f_hat = resp.basis.vectors, resp.f_hat
        cf = (f.T @ f_hat) @ f.T
        p = assemble_fourier_block(resp.basis.model, gen, resp.basis.k, eps)
        return p, response._label_disks(f, f_hat, cf, (f.T @ f_hat) @ cf, p, eps)

    @staticmethod
    def assert_reported_pairs_are_dense_eigenvalues(model, gen, k, eps):
        # every pair order_checks reports, on either path, is within 1e-10 of
        # the dense eigenvalue; a certified disk holds exactly that one
        resp = response_data(model, gen, k)
        grid = eps * 2.0 ** -np.arange(4)
        polished, real = [], response._refine_eigenpair

        def recording(a, basis, own, shift):
            pair = real(a, basis, own, shift)
            polished.append((a.copy(), pair))      # a is reused for the next label
            return pair

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(response, "_refine_eigenpair", recording)
            checks = order_checks(resp, range(model.N), grid)
        d = model.phases(k)[model.band_index]
        polished = iter(polished)
        for i, e in enumerate(grid):
            p, (_, centre, radius, isolated) = TestLabelDisks.disks(resp, gen, e)
            values = eig_dense_complex(p).values
            for oc in checks:
                # per label: one polish on the disk path, a second where the
                # dense path takes over from it, one where no disk is isolated
                calls = 2 if isolated[oc.ell] and oc.path[i] == "dense" else 1
                a, (mu, _, _) = [next(polished) for _ in range(calls)][-1]
                assert np.array_equal(a, np.diag(d - d[oc.ell]) + e * (d[:, None] * gen.wdot))
                assert oc.r0[i] == abs(mu)
                nearest = np.argmin(np.abs(values - d[oc.ell] - mu))
                assert abs(values[nearest] - d[oc.ell] - mu) <= 1e-10, (oc.ell, e, oc.path[i])
                if oc.path[i] == "disk":
                    assert isolated[oc.ell]
                    inside = np.flatnonzero(np.abs(values - centre[oc.ell]) <= radius[oc.ell])
                    assert list(inside) == [nearest], oc.ell
        assert next(polished, None) is None
        return checks

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=2, max_size=4),
           scale=st.sampled_from([1.0, 0.5, 0.1, 1e-2, 1e-3, 1e-5]), data=st.data())
    def test_reported_pairs_are_dense_eigenvalues(self, widths, scale, data):
        model, gen, k = draw_separated_model(data, widths)
        eps = scale * gen.eps_max
        try:
            self.assert_reported_pairs_are_dense_eigenvalues(model, gen, k, eps)
        except NoConvergence:
            # refused only where some eigenvalue on the grid is nearly defective:
            # the left eigenvector of (lam, v) is W_eps v, so its condition
            # number is ||W_eps v|| / |v^T W_eps v| for unit v
            conditions = []
            for e in eps * 2.0 ** -np.arange(4):
                w = w_epsilon(gen, e)
                _, v = np.linalg.eig(assemble_fourier_block(model, gen, k, e))
                y = w @ v
                conditions.extend(np.linalg.norm(y, axis=0) / np.abs(np.sum(v * y, axis=0)))
            assert max(conditions) > 1e6

    def test_defective_eigenvalue_is_refused(self):
        # at eps = 1 the Fourier block [[1, 1], [-1, -1]] / 2 is nilpotent: no
        # polish certifies a pair, so order_checks raises instead of reporting
        # a diverged one
        model = build_band_model([0.0, 0.5], [1, 1])
        gen = laplacian_generator(2)
        with pytest.raises(NoConvergence, match="polished eigenpair of label 0 at eps=1.0"):
            order_checks(response_data(model, gen, 1), [0, 1], [2.0, 1.0, 0.5, 0.25])

    @pytest.mark.parametrize("widths, rates, scale", [
        ([1, 2], [1.0, 0.125, 0.125], 0.5),
        ([4, 1], [1.0, 0.25, 1.0, 0.625, 0.5, 0.5, 0.75, 1.0, 0.625, 0.5], 1.0)])
    def test_unconverged_disk_polish_takes_the_dense_path(self, widths, rates, scale):
        # correction steps from an isolated disk's centre converge only as
        # fast as the basis F is close to the eigenbasis: here, at the grid's
        # largest eps, four cells (labels 0, 1 and 2 of the first model,
        # label 0 of the second) stop short of the eigenpair, with eigenvalue
        # errors of 2e-13 to 7e-10 and residuals above the certificate; such
        # a label takes the dense path
        gen = rates_generator(sum(widths), rates)
        checks = self.assert_reported_pairs_are_dense_eigenvalues(
            build_band_model([0.0, 0.5], widths), gen, 1, scale * gen.eps_max)
        assert "dense" in [path for oc in checks for path in oc.path]

    def test_one_polish_from_an_isolated_disk_converges(self):
        # one polish from each certified disk's centre and basis column meets
        # the residual certificate on this admissible model at eps_max: twelve
        # correction steps leave residuals below 1e-15 times ||P||, where six
        # leave 8e-11 to 5e-9 times ||P|| for three of the four labels
        model = build_band_model([-0.3, 0.37], [3, 1])
        gen = rates_generator(4, [0.54, 0.98, 0.22, 0.76, 0.08, 0.1])
        assert validate_admissibility(gen, model).passed
        eps = gen.eps_max
        p, (fe, centre, _, isolated) = self.disks(response_data(model, gen, 1), gen, eps)
        assert isolated.all()
        d = model.phases(1)[model.band_index]
        scale = np.sqrt(np.max(np.sum(np.abs(p) ** 2, axis=0)))
        for ell in range(model.N):
            a = np.diag(d - d[ell]) + eps * (d[:, None] * gen.wdot)
            disks = response._eigenbasis(d, centre, fe)
            mu, vec, _ = response._refine_eigenpair(a, disks, ell, d[ell])
            assert _certified(np.linalg.norm(a @ vec - mu * vec), scale), ell

    def test_rounding_term_decides_at_the_disk_edge(self, case_model, case_gen, monkeypatch):
        # at eps = 1e-12 neighbouring centres lie about 1e-13 apart: beyond
        # the radius the products' rounding leaves out (about 7e-15 here),
        # within the one it adds (4e-13), so the rounding term alone refuses
        # the disks, and those labels take the dense path
        grid, ells = [1e-8, 1e-9, 1e-10, 1e-12], [0, 11, 18]
        resp = response_data(case_model, case_gen, 1)
        assert [list(oc.path) for oc in order_checks(resp, ells, grid)] == [
            ["disk", "disk", "disk", "dense"]] * 3
        monkeypatch.setattr(response, "UNIT_ROUNDOFF", 0.0)
        assert [list(oc.path) for oc in order_checks(resp, ells, grid)] == [
            ["disk"] * 4] * 3

    def test_unconverged_dense_pair_is_refused(self, case_model, case_gen, monkeypatch):
        # eps = 0.1 certifies no disk for label 16, which takes the dense path;
        # a matched pair above the residual certificate raises NoConvergence
        resp = response_data(case_model, case_gen, 1)
        ell, eps = 16, 0.1
        _, (_, _, _, isolated) = self.disks(resp, case_gen, eps)
        assert not isolated[ell]
        real = response.eig_dense_complex
        target = (case_model.phases(1)[case_model.band_index[ell]]
                  + eps * resp.basis.lambda_hat[ell] + eps ** 2 * resp.lambda_hathat[ell])

        def one_unconverged(matrix):
            eig = real(matrix)
            converged = np.ones(eig.values.shape, dtype=bool)
            converged[np.argmin(np.abs(eig.values - target))] = False
            return dataclasses.replace(eig, converged=converged)

        monkeypatch.setattr(response, "eig_dense_complex", one_unconverged)
        with pytest.raises(NoConvergence) as info:
            order_checks(resp, [ell], [eps, 1e-2, 1e-3, 1e-4])
        assert int(np.sum(~info.value.partial.converged)) == 1
        # labels certified by their disks never read the dense solve
        (oc,) = order_checks(resp, [11], [eps, 1e-2, 1e-3, 1e-4])
        assert list(oc.path) == ["disk"] * 4


def mpmath_r2(model, gen, k, ell, eps, resp, dps=45):
    """Reference (r2, vec_r): bordered Newton at ``dps`` digits on D(Id + eps*Wdot) - d_ell Id.

    The matrix is built from the stored doubles of d, Wdot and eps; Newton
    starts from the double eigenpair nearest the second-order prediction and
    converges quadratically, so two full steps reach the working precision.
    vec_r is sqrt(2 - 2 |<w, v>|) for the unit vectors v and w along the
    polished vector and f + eps*fhat (whose doubles are taken as exact).
    """
    n = model.N
    d = np.exp(-2j * np.pi * k * model.alpha)
    lhat, lhh = resp.basis.lambda_hat[ell], resp.lambda_hathat[ell]
    lam, vec = np.linalg.eig(d[:, None] * (np.eye(n) + eps * np.asarray(gen.wdot))
                             - d[ell] * np.eye(n))
    i = int(np.argmin(np.abs(lam - eps * lhat - eps ** 2 * lhh)))
    with mpmath.workdps(dps):
        e = mpmath.mpf(eps)
        a = mpmath.matrix(n, n)
        for r in range(n):
            for c in range(n):
                a[r, c] = mpmath.mpc(d[r]) * (int(r == c) + e * mpmath.mpf(gen.wdot[r, c]))
            a[r, r] -= mpmath.mpc(d[ell])
        mu = mpmath.mpc(lam[i])
        v = mpmath.matrix([mpmath.mpc(x) for x in vec[:, i]])
        anchor = [mpmath.conj(x) for x in v]
        for _ in range(2):
            jac = mpmath.matrix(n + 1, n + 1)
            for r in range(n):
                for c in range(n):
                    jac[r, c] = a[r, c] - (mu if r == c else 0)
                jac[r, n] = -v[r]
                jac[n, r] = anchor[r]
            av = a * v
            rhs = mpmath.matrix([mu * v[r] - av[r] for r in range(n)]
                                + [1 - mpmath.fsum(anchor[r] * v[r] for r in range(n))])
            step = mpmath.lu_solve(jac, rhs)
            v = mpmath.matrix([v[r] + step[r] for r in range(n)])
            mu += step[n]
        w = [mpmath.mpc(x) for x in resp.basis.vectors[:, ell] + eps * resp.f_hat[:, ell]]
        ip = mpmath.fsum(mpmath.conj(w[r]) * v[r] for r in range(n))
        ip /= mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in w)) * mpmath.norm(v)
        return (float(abs(mu - e * mpmath.mpc(lhat) - e * e * mpmath.mpc(lhh))),
                float(mpmath.sqrt(2 - 2 * abs(ip))))


class TestRefineEigenpair:
    @pytest.mark.parametrize("ell", [0, 11, 18])
    def test_r2_matches_mpmath_reference(self, case_model, case_gen, ell):
        # r2 at eps = 1e-5 is 6e-20 to 2e-18 here: below any absolute floor of
        # an unshifted polish, resolved by the shifted complex128 one, which
        # starts from the label's certified row disk
        grid = [1e-2, 1e-3, 1e-4, 1e-5]
        resp = response_data(case_model, case_gen, 1)
        oc = order_check(case_model, case_gen, 1, ell, grid)
        assert oc.path[-1] == "disk"
        ref_r2, ref_vec = mpmath_r2(case_model, case_gen, 1, ell, 1e-5, resp)
        assert abs(oc.r2[-1] - ref_r2) <= 1e-2 * ref_r2
        assert abs(oc.vec_r[-1] - ref_vec) <= 1e-2 * ref_vec

    def test_r2_matches_mpmath_reference_at_n99(self, case_model):
        # N=99 (L = 33, 21, 45), the leading label of band 2: r2 at eps = 1e-5
        # is about 3e-21, vec_r about 2e-13; the 40-digit reference agrees to
        # 5% and 1e-15
        model = build_band_model(case_model.beta, [33, 21, 45])
        gen = laplacian_generator(model.N)
        resp = response_data(model, gen, 1)
        (oc,) = order_checks(resp, [54], [1e-2, 1e-3, 1e-4, 1e-5])
        assert oc.path[-1] == "disk"
        ref_r2, ref_vec = mpmath_r2(model, gen, 1, 54, 1e-5, resp, dps=40)
        assert abs(oc.r2[-1] - ref_r2) <= 5e-2 * ref_r2
        assert abs(oc.vec_r[-1] - ref_vec) <= 1e-15

    def test_no_extended_precision_lu_in_the_package(self):
        assert not hasattr(response, "_solve_xd")

    def test_no_longdouble_in_the_package(self):
        package = Path(response.__file__).parent
        for source in sorted(package.glob("*.py")):
            assert "longdouble" not in source.read_text(), source.name


class TestWorkingSet:
    """Traced peaks of the response layer on the N = 99 model (L = 33, 21, 45,
    the case-study speeds, k = 1, the CLI's order-check grid), in units of
    one N x N complex array, 16 N^2 bytes.  Forming every term in a fresh
    array, they were about 8.7 and 15.4 units; in place about 5.4 and 7.8."""

    GRID = [1e-2, 1e-3, 1e-4, 1e-5]

    @pytest.fixture(scope="class")
    def scaled(self, case_model):
        model = build_band_model(case_model.beta, [33, 21, 45])
        gen = laplacian_generator(model.N)
        resp = response_data(model, gen, 1)
        labels = [model.cum[s] for s in range(model.S)]
        order_checks(resp, labels, self.GRID)      # a first call's one-off allocations
        return model, gen, resp, labels, 16 * model.N ** 2

    def test_response_data_holds_under_7_square_arrays(self, scaled):
        model, gen, _, _, unit = scaled
        assert traced_peak(response_data, model, gen, 1) < 7 * unit

    def test_order_checks_hold_under_10_square_arrays(self, scaled):
        _, _, resp, labels, unit = scaled
        assert traced_peak(order_checks, resp, labels, self.GRID) < 10 * unit


class TestTerminatingExpansion:
    """One band, or k = 0: the expansion stops at first order."""

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=4), data=st.data())
    def test_exact_zeros_on_the_global_basis(self, widths, data):
        n = sum(widths)
        if data.draw(st.booleans(), label="one band"):
            widths = [n]
        beta = data.draw(st.lists(st.floats(-1, 1), min_size=len(widths),
                                  max_size=len(widths), unique=True), label="beta")
        k = data.draw(st.integers(-3, 3), label="k") if len(widths) == 1 else 0
        # rates may vanish: the simple-spectrum rule refuses a degenerate Wdot,
        # whose limit vectors are not unique
        gen = draw_generator(data, n, low=0.0)
        model = build_band_model(beta, widths)
        if not spectral_gap([sorted_eigenbasis(gen.wdot)[0]])[2]:
            with pytest.raises(DegenerateBlock):
                response_data(model, gen, k)
            return
        resp = response_data(model, gen, k)
        assert resp.basis.vectors.tobytes() == sorted_eigenbasis(gen.wdot)[1].tobytes()
        assert resp.lambda_hathat.tobytes() == np.zeros(n, dtype=complex).tobytes()
        assert resp.f_hat.tobytes() == np.zeros((n, n), dtype=complex).tobytes()
        for ell in range(n):
            assert second_order_eigenvalue(model, gen, k, ell) == resp.lambda_hathat[ell]
            assert np.array_equal(eigenvector_response(model, gen, k, ell), resp.f_hat[:, ell])

    def test_stationary_label_gets_no_slope0(self, case_model, case_gen):
        # lhat = 0: the eigenvalue does not move with eps, so r0 is rounding
        # (the one-band fit read -5.54); every moving label keeps a slope near 1
        grid = [1e-1, 1e-2, 1e-3, 1e-4]
        for model, gen, k in [(build_band_model([0.3], [6]), laplacian_generator(6), 1),
                              (case_model, case_gen, 0)]:
            resp = response_data(model, gen, k)
            checks = order_checks(resp, range(4), grid)
            assert abs(resp.basis.lambda_hat[0]) <= 1e-15 and checks[0].slope0 is None
            assert np.max(checks[0].r0) <= 1e-15
            for oc in checks[1:]:
                assert oc.slope0 == pytest.approx(1.0, abs=1e-6)
        resp = response_data(case_model, case_gen, 1)
        assert all(oc.slope0 is not None
                   for oc in order_checks(resp, [0, 11, 18], grid))

    def test_limit_basis_never_builds_the_dense_limit_matrix(self, case_model, case_gen,
                                                             monkeypatch):
        def refuse(*args):
            raise AssertionError("dense limit matrix built by limit_basis")

        monkeypatch.setattr(zero_noise, "assemble_limit_matrix", refuse)
        one_band = build_band_model([0.3], [6])
        for model, gen, k in [(case_model, case_gen, 1), (case_model, case_gen, 3),
                              (one_band, laplacian_generator(6), 0),
                              (one_band, laplacian_generator(6), 2)]:
            assert limit_basis(model, gen, k).vectors.shape == (model.N, model.N)
            response_data(model, gen, k)


def test_only_the_model_computes_phases():
    package = Path(response.__file__).parent
    for source in sorted(package.glob("*.py")):
        if source.name != "model.py":
            assert "np.exp(-2j * np.pi" not in source.read_text(), source.name


class TestFirstOrderBasis:
    def test_k0_uses_full_generator(self, case_model, case_gen):
        basis = first_order_basis(case_model, case_gen, 0)
        v, lam_hat = basis.vectors, basis.lambda_hat
        rho = np.linalg.eigvalsh(np.asarray(case_gen.wdot))
        assert_allclose(np.sort(lam_hat.real), np.sort(rho), atol=1e-12)
        # vectors diagonalise Wdot globally, no band support here
        resid = np.asarray(case_gen.wdot) @ v - lam_hat.real[None, :] * v
        assert np.max(np.abs(resid)) <= 1e-12

    def test_global_basis_is_the_shared_sorted_gauged_one(self, case_model, case_gen):
        basis = first_order_basis(case_model, case_gen, 0)
        v, lam_hat = basis.vectors, basis.lambda_hat
        rho, ref = sorted_eigenbasis(case_gen.wdot)
        assert np.array_equal(v, ref)
        assert np.all(np.diff(lam_hat.real) <= 0)
        first = np.argmax(np.abs(v) > 1e-12 * np.abs(v).max(axis=0), axis=0)
        assert np.all(v[first, np.arange(v.shape[1])] > 0)


def assert_dlam_matches_inverse_row(model, gen, k, eps, ell, u):
    """alpha_response's dlam against the left eigenvector taken as a row of V^{-1}."""
    dlam, _ = alpha_response(model, gen, k, eps, ell, u)
    block = assemble_fourier_block(model, gen, k, eps)
    eig = eig_dense_complex(block)
    spec = label_spectrum(model, gen, k, eps, eig)
    lam, f = spec.lam[ell], spec.vectors[:, ell]
    i = int(np.argmin(np.abs(eig.values - lam)))
    left = np.linalg.inv(eig.vectors)[i]
    dp = (-2j * np.pi * k * np.asarray(u))[:, None] * block
    want = (left @ dp @ f) / (left @ f)
    # both contract the same computed f, whose error is about
    # eps_mach / (separation of lam from the other eigenvalues)
    sep = np.min(np.abs(np.delete(eig.values, i) - lam), initial=np.inf)
    kappa = np.linalg.norm(left) * np.linalg.norm(f) / abs(left @ f)
    tol = 100 * np.finfo(float).eps * np.linalg.norm(dp, 2) * kappa * (1 + 1 / sep)
    assert abs(dlam - want) <= tol


class TestAlphaResponse:
    def test_zero_direction(self, two_band_model, two_band_gen):
        dlam, df = alpha_response(two_band_model, two_band_gen, 1, 0.01, 0,
                                  np.zeros(2))
        assert dlam == 0
        assert_allclose(df, 0.0, atol=1e-14)

    def test_scalar_case(self):
        m = build_band_model([0.37], [1])
        g = NoiseGenerator([[0.0]])
        dlam, df = alpha_response(m, g, 2, 0.5, 0, [1.0])
        want = -2j * np.pi * 2 * np.exp(-2j * np.pi * 2 * 0.37)
        assert_allclose(dlam, want, atol=1e-14)
        assert_allclose(df, 0.0, atol=1e-14)

    def test_matches_central_differences(self, two_band_model, two_band_gen):
        m, g = two_band_model, two_band_gen
        eps, k = 0.01, 1
        u = np.array([1.0, 0.0])
        dlam, df = alpha_response(m, g, k, eps, 0, u)
        w = w_epsilon(g, eps)
        for h in (1e-5, 1e-6):
            def eig_at(shift):
                a = m.alpha + shift * u
                lam, vec = np.linalg.eig(np.diag(np.exp(-2j * np.pi * k * a)) @ w)
                i = int(np.argmin(np.abs(lam - 1)))
                v = vec[:, i] / np.linalg.norm(vec[:, i])
                return lam[i], v
            lp, vp = eig_at(h)
            lm, vm = eig_at(-h)
            fd_lam = (lp - lm) / (2 * h)
            assert abs(fd_lam - dlam) <= 1e-4 * abs(dlam)
            _, f0 = eig_at(0.0)
            align = lambda v: v * abs(np.vdot(f0, v)) / np.vdot(f0, v)
            fd_df = (align(vp) - align(vm)) / (2 * h)
            fd_df = fd_df - np.vdot(f0, fd_df) * f0
            # df is gauge-fixed to <f, df> = 0 with f phase-fixed by the library;
            # compare the gauge-free components
            f = spectrum(m, g, k, eps).vectors[:, 0]
            df_perp = df - np.vdot(f, df) * f
            fd_perp = fd_df - np.vdot(f, fd_df) * f
            assert np.linalg.norm(fd_perp - df_perp) <= 1e-4 * np.linalg.norm(df_perp)

    def test_linear_system_residual(self, case_model, case_gen):
        u = np.zeros(33)
        u[4] = 1.0
        eps, k, ell = 0.05, 1, 0
        dlam, df = alpha_response(case_model, case_gen, k, eps, ell, u)
        spec = spectrum(case_model, case_gen, k, eps)
        p = np.diag(np.exp(-2j * np.pi * k * case_model.alpha)) @ w_epsilon(case_gen, eps)
        dp = np.diag(-2j * np.pi * k * u * np.exp(-2j * np.pi * k * case_model.alpha)) \
            @ w_epsilon(case_gen, eps)
        f = spec.vectors[:, ell]
        resid = (p - spec.lam[ell] * np.eye(33)) @ df + (dp - dlam * np.eye(33)) @ f
        assert np.linalg.norm(resid) <= 1e-10 * (np.linalg.norm(dp, 2) + abs(dlam))

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
    def test_left_vector_matches_inverse_row(self, widths, data):
        n = sum(widths)
        beta = data.draw(st.lists(st.floats(-1, 1), min_size=len(widths),
                                  max_size=len(widths), unique=True), label="beta")
        gen = draw_generator(data, n)
        eps = data.draw(st.floats(1e-3, 1.0), label="eps_fraction") * min(gen.eps_max, 1.0)
        k = data.draw(st.integers(1, 3), label="k")
        ell = data.draw(st.integers(0, n - 1), label="ell")
        u = data.draw(st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=n, max_size=n),
                      label="direction")
        try:
            assert_dlam_matches_inverse_row(build_band_model(beta, widths), gen, k, eps, ell, u)
        except EigsNotSimple:
            assume(False)

    def test_left_vector_at_zero_eigenvalue(self):
        # eps = 1 makes W_eps = [[.5, .5], [.5, .5]] singular: lam = 0 has W_eps f = 0
        m = build_band_model([-0.7034338027445681, 0.5], [1, 1])
        g = NoiseGenerator([[-0.5, 0.5], [0.5, -0.5]])
        assert_dlam_matches_inverse_row(m, g, 1, 1.0, 0, [0.25, -0.5])

    @pytest.mark.parametrize("k, eps", [(1, 0.1), (2, 0.02)])
    def test_dlam_matches_mpmath_reference(self, k, eps):
        # dlam = lam sum_j y_j c_j f_j / sum_j y_j f_j, c = -2 pi i k u, from the
        # left and right eigenvectors y, f of the same double matrix at 40 digits
        model = build_band_model([0.1, 0.37, 0.71], [3, 4, 5])
        gen = laplacian_generator(model.N)
        u = np.linspace(-1, 1, model.N)
        c = -2j * np.pi * k * u
        p = assemble_fourier_block(model, gen, k, eps)
        lam = spectrum(model, gen, k, eps).lam
        with mpmath.workdps(40):
            values, left, right = mpmath.eig(mpmath.matrix(p.tolist()), left=True, right=True)
            for ell in (0, 4, 7, 11):
                i = min(range(model.N), key=lambda i: abs(complex(values[i]) - lam[ell]))
                y, f = left[i, :], right[:, i]
                ref = complex(values[i] * mpmath.fsum(y[j] * c[j] * f[j] for j in range(model.N))
                              / mpmath.fsum(y[j] * f[j] for j in range(model.N)))
                dlam, _ = alpha_response(model, gen, k, eps, ell, u)
                assert abs(dlam - ref) <= 1e-11 * abs(ref), ell

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_direction_refused(self, two_band_model, two_band_gen, bad):
        with pytest.raises(InvalidSpeeds, match="direction must be finite"):
            alpha_response(two_band_model, two_band_gen, 1, 0.01, 0, [bad, 0.0])

    def test_eps_zero_refused(self, two_band_model, two_band_gen):
        with pytest.raises(EpsZero):
            alpha_response(two_band_model, two_band_gen, 1, 0.0, 0, [1.0, 0.0])

    def test_eigs_not_simple(self):
        m = build_band_model([0.1, 0.2], [1, 1])
        g = NoiseGenerator(np.zeros((2, 2)))
        with pytest.raises(EigsNotSimple):
            alpha_response(m, g, 0, 0.5, 0, [1.0, 0.0])

    def test_near_double_eigenvalue_refused_by_spectral_gap(self):
        # the phases sit 2 pi 1e-11 ~ 6.3e-11 apart: above 1e-12 of the
        # spectral radius, not above GAP_TOL (1e-9) of it
        m = build_band_model([0.1, 0.1 + 1e-11], [1, 1])
        g = NoiseGenerator(np.zeros((2, 2)))
        gap = abs(np.diff(m.phases(1)))[0]
        assert 1e-12 < gap < 1e-9
        with pytest.raises(EigsNotSimple, match="GAP_TOL"):
            alpha_response(m, g, 1, 0.5, 0, [1.0, 0.0])
