"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Expected values follow the frozen independent oracles (brute-force
eigensolves, finite differences with Richardson extrapolation, closed-form
block eigendata); tolerances are pinned to the stated criteria.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import rotor_spectra as rs

SINC_01 = 0.935489283788639          # sin(0.2 pi) / (0.2 pi)


@contextmanager
def criterion(number, name, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s over {budget_seconds}s budget"


@pytest.fixture(scope="module")
def case():
    model = rs.build_band_model([np.pi / 20, np.e / 7, 1 / np.sqrt(2)], [11, 7, 15])
    return model, rs.laplacian_generator(33)


@pytest.fixture(scope="module")
def two_band():
    return rs.build_band_model([0.0, 0.25], [1, 1]), rs.laplacian_generator(2)


def wrap_to_halfturn(angle):
    """Distance of an angle from 0 on the circle, in [0, pi]."""
    a = angle % (2 * np.pi)
    return min(a, 2 * np.pi - a)


def test_01_gershgorin_clustering(case):
    model, gen = case
    with criterion(1, "gershgorin clustering", 1.0):
        spec = rs.spectrum(model, gen, 1, 0.1, 0.1)
        assert abs(spec.sinc - 0.93549) <= 1e-5
        bound = spec.sinc * 0.2
        assert np.max(np.abs(spec.lam - spec.target)) <= bound
        centres = spec.sinc * np.exp(-2j * np.pi * np.asarray(model.beta))
        counts = [int(np.sum(np.abs(spec.lam - c) <= bound + 1e-12)) for c in centres]
        assert counts == [11, 7, 15]


def test_02_distinctness(case):
    model, gen = case
    with criterion(2, "distinct eigenvalues", 5.0):
        for k in (1, 2, 3):
            for eps in (1e-1, 1e-2, 1e-3):
                spec = rs.spectrum(model, gen, k, eps)
                gaps = np.abs(spec.lam[:, None] - spec.lam[None, :])
                np.fill_diagonal(gaps, np.inf)
                assert gaps.min() > 1e-12 * np.max(np.abs(spec.lam)), (k, eps)


def test_03_oracle_equivalence(case):
    model, gen = case
    with criterion(3, "closed-form oracle equivalence", 1.0):
        report = rs.oracle_crosscheck(model, gen, 1)
        assert report.max_abs_diff <= 1e-10
        assert report.max_vec_dist <= 1e-8
        assert len(report.abs_diff) == 33


def test_04_support_localisation(case):
    model, gen = case
    with criterion(4, "support localisation", 5.0):
        basis = rs.limit_basis(model, gen, 1)
        assert np.max(rs.support_mass_outside_band(basis, model)) == 0.0
        masses = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            spec = rs.spectrum(model, gen, 1, eps)
            masses.append(rs.support_mass_outside_band(spec, model))
        for a, b in zip(masses, masses[1:]):
            assert np.all(b < a)
        assert np.max(masses[-1]) < 1e-4


GRID = (1e-2, 1e-3, 1e-4, 1e-5)


def test_05_eigenvalue_response_orders(case, two_band):
    model, gen = case
    m2, g2 = two_band
    with criterion(5, "eigenvalue response orders", 10.0):
        for mm, gg, ells in ((m2, g2, [0]), (model, gen, [0, 11, 18])):
            for ell in ells:
                oc = rs.order_check(mm, gg, 1, ell, GRID)
                assert abs(oc.slope1 - 2.0) <= 0.1, (mm.N, ell, oc.slope1)
                assert oc.slope2 >= 2.3, (mm.N, ell, oc.slope2)
        # exactness when the phase diagonal is scalar
        m1 = rs.build_band_model([0.3], [5])
        oc = rs.order_check(m1, rs.laplacian_generator(5), 3, 0, GRID)
        assert np.max(oc.r1) <= 1e-12
        oc = rs.order_check(model, gen, 0, 0, GRID)
        assert np.max(oc.r1) <= 1e-12


def test_06_eigenvector_response(case, two_band):
    model, gen = case
    m2, g2 = two_band
    with criterion(6, "eigenvector response", 5.0):
        for mm, gg, ells in ((m2, g2, [0]), (model, gen, [0, 11, 18])):
            basis = rs.limit_basis(mm, gg, 1)
            for ell in ells:
                oc = rs.order_check(mm, gg, 1, ell, GRID)
                assert oc.slope_vec >= 1.3, (mm.N, ell, oc.slope_vec)
                fhat = rs.eigenvector_response(mm, gg, 1, ell)
                f = basis.vectors[:, ell].astype(complex)
                assert abs(np.vdot(f, fhat)) <= 1e-12
        # hand-derived reference for the two-band model, up to the joint
        # (f, fhat) phase gauge
        fhat = rs.eigenvector_response(m2, g2, 1, 0)
        ref = np.array([0.0, (1 + 1j) / 4])
        z = np.vdot(ref, fhat)
        aligned = fhat * abs(z) / z
        assert np.linalg.norm(aligned - ref) <= 1e-10


def test_07_arg_shift_law(case):
    model, gen = case
    with criterion(7, "first-order argument shift", 1.0):
        basis = rs.limit_basis(model, gen, 1)
        for ell in range(33):
            lh = basis.lambda_hat[ell]
            assert abs(lh) > 1e-12
            ray = np.angle(np.exp(-2j * np.pi * model.beta[basis.band[ell]]))
            assert wrap_to_halfturn(np.angle(lh) - ray - np.pi) <= 1e-10


def test_08_bilinear_orthogonality(case):
    model, gen = case
    with criterion(8, "bilinear orthogonality", 2.0):
        phases = np.exp(2j * np.pi * model.alpha)
        for eps in (1e-2, 1e-3):
            spec = rs.spectrum(model, gen, 1, eps)
            gram = spec.vectors.T @ (phases[:, None] * spec.vectors)
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-8, eps


def test_09_alpha_response(two_band):
    m2, g2 = two_band
    with criterion(9, "speed-profile response", 1.0):
        eps, k, h = 0.01, 1, 1e-6
        w = rs.w_epsilon(g2, eps)
        for u in (np.array([1.0, 0.0]), np.array([0.7, -0.3])):
            dlam, df = rs.alpha_response(m2, g2, k, eps, 0, u)

            def eig_at(shift):
                a = m2.alpha + shift * u
                lam, vec = np.linalg.eig(np.diag(np.exp(-2j * np.pi * k * a)) @ w)
                i = int(np.argmin(np.abs(lam - 1)))
                return lam[i], vec[:, i] / np.linalg.norm(vec[:, i])

            lp, vp = eig_at(h)
            lm, vm = eig_at(-h)
            assert abs((lp - lm) / (2 * h) - dlam) <= 1e-4 * abs(dlam)
            _, f0 = eig_at(0.0)
            align = lambda v: v * abs(np.vdot(f0, v)) / np.vdot(f0, v)
            fd = (align(vp) - align(vm)) / (2 * h)
            f = rs.spectrum(m2, g2, k, eps).vectors[:, 0]
            fd_perp = fd - np.vdot(f, fd) * f
            df_perp = df - np.vdot(f, df) * f
            assert np.linalg.norm(fd_perp - df_perp) <= 1e-4 * np.linalg.norm(df_perp)


def test_10_ulam_cycle_detection(case):
    model, gen = case
    with criterion(10, "ulam cycle detection", 60.0):
        # Discretisation is measured against the exact operator: the k=1
        # Fourier block at the same eps and delta, folded into the lower half
        # plane where detect_cycles reports each conjugate pair.
        exact = rs.spectrum(model, gen, 1, 0.1, 0.1)
        exact_low = np.where(exact.lam.imag > 0, np.conj(exact.lam), exact.lam)
        reports = {}
        for M in (128, 256):
            op = rs.ulam_analytic(model, gen, 0.1, 0.1, M)
            reports[M] = rs.detect_cycles(op, model, top_m=3)
        worst = {}
        for M, report in reports.items():
            errs, ray_offsets, bin_args = [], [], []
            for c in report.cycles:
                target = wrap_to_halfturn(2 * np.pi * model.beta[c.band])
                err = abs(abs(c.arg) - target)
                assert err <= 0.05, (M, c.band, err)
                assert c.band_masses[c.band] >= 0.80, (M, c.band)
                i = int(np.argmin(np.abs(exact_low - c.eigenvalue)))
                assert exact.band[i] == c.band, (M, c.band, exact.band[i])
                errs.append(abs(c.eigenvalue - exact_low[i]))
                ray_offsets.append(abs(abs(np.angle(exact_low[i])) - target))
                bin_args.append(abs(np.angle(c.eigenvalue) - np.angle(exact_low[i])))
            worst[M] = max(errs)
            print(f"  criterion 10: M={M} top-3 cycles detected, all arg errors <= 0.05, "
                  f"all masses >= 0.80; worst |lambda_M - lambda_exact| {worst[M]:.3e}, "
                  f"arg split: exact-operator ray offset {max(ray_offsets):.3e}, "
                  f"binning {max(bin_args):.3e}")
        # The arg distance to the zero-noise ray is not a discretisation
        # error: the exact operator itself sits 1.1e-6 to 9.9e-6 off the ray
        # at eps = delta = 0.1, whatever M is, while the binning part of the
        # arg is below 1e-7 at M=128 and oscillates with frac(alpha*M) because
        # the bin-averaging factor sinc^2(pi/M) is real.  What decays with M
        # is the eigenvalue error itself: 1.886e-4 at M=128, 4.701e-5 at M=256.
        assert worst[256] <= worst[128] / 2, (
            f"halving clause: |lambda_M - lambda_exact| did not halve "
            f"(M=128 -> {worst[128]:.3e}, M=256 -> {worst[256]:.3e}); measured "
            f"against spectrum(k=1, eps, delta) this is the Ulam binning error "
            f"alone (expected about 1.9e-4 -> 4.7e-5, ratio 0.25)")


def test_11_delta_factor_law(case):
    model, gen = case
    with criterion(11, "delta factor law", 2.0):
        eps, delta = 0.1, 0.1
        w = rs.w_epsilon(gen, eps)
        for k in range(1, 7):
            scaled = rs.spectrum(model, gen, k, eps, delta)
            s = rs.delta_factor(k, delta)
            # independent route: raw eigensolve of the Fourier block
            raw = np.linalg.eigvals(np.diag(np.exp(-2j * np.pi * k * model.alpha)) @ w)
            a = np.sort_complex(np.round(scaled.lam, 13))
            b = np.sort_complex(np.round(s * raw, 13))
            assert np.max(np.abs(a - b)) <= 1e-12, k
            plain = rs.spectrum(model, gen, k, eps)
            for ell in range(33):
                d = rs.projective_distance(scaled.vectors[:, ell], plain.vectors[:, ell])
                assert d <= 1e-10
        k5 = rs.spectrum(model, gen, 5, eps, delta)
        assert np.all(k5.lam == 0.0)
