"""First- and second-order response of eigendata to the noise level.

For banded models the mode-k eigenvalues expand as

    lam_eps = exp(-2 pi i k alpha_ell) + eps * lhat + eps^2 * lhathat + o(eps^2)

and the eigenvector lines as [f + eps * fhat + o(eps)], with fhat orthogonal
to f.  lhat comes from the limit matrix; lhathat and fhat couple the limit
basis through Wdot across band boundaries:

    lhathat = sum_{s != s_ell} <pi_s D Wdot f, pi_s Wdot D* f> / (e_{s_ell} - e_s)

    fhat    = sum_{r in band, r != ell} c_r f_r  +  sum_{r outside band} c_r f_r,
    c_r (in band)  = sum_{s != s_ell} <pi_s D Wdot f, pi_s Wdot D* f_r>
                     / ((lhat_ell - lhat_r) (e_{s_ell} - e_s))
    c_r (outside)  = <D Wdot f, f_r> / (e_{s_ell} - e_{s_r})

where e_s = exp(-2 pi i k beta_s), D = D_{k,beta,L} and pi_s restricts to
band s.  Both formulas are validated here against central finite differences
of the exact eps-parametrised spectrum (see order_check), which also fixes
their sign and normalisation conventions.  When S = 1 or k = 0 the expansion
terminates: lhathat = 0, fhat = 0 and the first order is exact.

The module also provides the response to perturbations of the speed profile
alpha at fixed eps > 0 (alpha_response); the eps = 0 speed response is
discontinuous and refused by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateFirstOrder, EigsNotSimple, EpsZero, GammaViolated,
                     InvalidEpsGrid, NonOrthogonal, ResponseMismatch)
from .model import BandModel, NoiseGenerator, _freeze, w_epsilon
from .spectra import (assemble_fourier_block, eig_dense_complex, label_spectrum,
                      nearest_assignment)
from .zero_noise import (LimitBasis, check_gamma, limit_basis, projective_distance,
                         sorted_eigenbasis)


def _inner(u, v):
    """<u, v> = sum_j u_j conj(v_j), linear in the first argument."""
    return np.vdot(v, u)


@dataclass(frozen=True, eq=False)
class ResponseData:
    """Per-label response terms at one Fourier index."""

    k: int
    lambda_hat: np.ndarray
    lambda_hathat: np.ndarray
    f_hat: np.ndarray            # column ell
    band: np.ndarray
    basis: LimitBasis


@dataclass(frozen=True, eq=False)
class OrderCheck:
    """Residual ladders of the eigenvalue/eigenvector expansions on an eps grid.

    r0 = |lam_eps - lam_0|, r1 = |lam_eps - lam_0 - eps*lhat|,
    r2 = |lam_eps - lam_0 - eps*lhat - eps^2*lhathat|, and vec_r is the
    projective distance between f_eps and f + eps*fhat.  Slopes are
    least-squares fits on the log-log grid.  Ladder cells are exact only
    down to the clongdouble floor (ulp 1.08e-19); see order_check.
    """

    k: int
    ell: int
    eps_grid: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    vec_r: np.ndarray
    slope0: float
    slope1: float
    slope2: float
    slope_vec: float


def first_order_basis(model: BandModel, gen: NoiseGenerator, k: int):
    """Limit vectors f and first-order terms lhat for every label.

    For S = 1 or k = 0 the basis diagonalises the full Wdot (the limit
    problem is global, not band-blocked); otherwise it is the band-blocked
    limit basis, which requires distinct band phases at this k.
    """
    if model.S == 1 or k == 0:
        rho, v = sorted_eigenbasis(gen.wdot)
        phase = np.exp(-2j * np.pi * k * model.alpha[0])
        return v, phase * rho, model.band_index
    basis = limit_basis(model, gen, k)
    return np.asarray(basis.vectors), np.asarray(basis.lambda_hat), np.asarray(basis.band)


def _expansion_terms(model: BandModel, gen: NoiseGenerator, k: int,
                     basis: LimitBasis | None, checked=(), gap_tol: float = 1e-9):
    """lhathat and the fhat columns of every label, from one limit basis.

    With A = D Wdot F, B = Wdot D* F, d = diag(D) (so d_j = e_{s_j}) and
    inv[j, ell] = 1/(d_ell - d_j) off the own band of ell (0 on it), the
    module-docstring sums become
    H = B^H (A * inv), lhathat = diag(H), the in-band coefficients
    H[r, ell] / (lhat_ell - lhat_r) and the out-of-band ones (F^T A) * inv.
    Raises DegenerateFirstOrder when a label in ``checked`` shares its
    first-order eigenvalue with another label of its band.
    """
    if basis is None:
        basis = limit_basis(model, gen, k)
    elif not check_gamma(model, k):
        raise GammaViolated(f"band phases coincide at k={k}")
    f = np.asarray(basis.vectors)
    band = np.asarray(basis.band)
    lam_hat = np.asarray(basis.lambda_hat)
    d = np.exp(-2j * np.pi * k * model.alpha)
    across = band[:, None] != band[None, :]
    within = ~across & ~np.eye(model.N, dtype=bool)      # [r, ell]: r != ell, same band
    gap = lam_hat[None, :] - lam_hat[:, None]            # [r, ell]: lhat_ell - lhat_r
    checked = list(checked)
    degenerate = within & (np.abs(gap) <= gap_tol * float(np.max(np.abs(lam_hat))))
    bad = np.argwhere(degenerate[:, checked].T)
    if len(bad):
        raise DegenerateFirstOrder(f"first-order eigenvalues coincide for labels "
                                   f"{checked[bad[0][0]]} and {bad[0][1]} at k={k}")
    inv = np.zeros((model.N, model.N), dtype=complex)
    np.divide(1.0, d[None, :] - d[:, None], out=inv, where=across)
    a = d[:, None] * (gen.wdot @ f)                      # D Wdot F
    b = gen.wdot @ (np.conj(d)[:, None] * f)             # Wdot D* F
    h = b.conj().T @ (a * inv)
    coeff = (f.T @ a) * inv + h / np.where(within, gap, np.inf)
    return np.diag(h), f @ coeff


def second_order_eigenvalue(model: BandModel, gen: NoiseGenerator, k: int, ell: int,
                            basis: LimitBasis | None = None) -> complex:
    """The eps^2 coefficient of the eigenvalue expansion for label ell."""
    if model.S == 1 or k == 0:
        return 0.0 + 0.0j
    return complex(_expansion_terms(model, gen, k, basis)[0][ell])


def eigenvector_response(model: BandModel, gen: NoiseGenerator, k: int, ell: int,
                         basis: LimitBasis | None = None,
                         gap_tol: float = 1e-9) -> np.ndarray:
    """First-order eigenvector term fhat for label ell; orthogonal to f."""
    if model.S == 1 or k == 0:
        return np.zeros(model.N, dtype=complex)
    return _expansion_terms(model, gen, k, basis, [ell], gap_tol)[1][:, ell]


def response_data(model: BandModel, gen: NoiseGenerator, k: int) -> ResponseData:
    """lhat, lhathat and fhat for every label at Fourier index k, from one limit basis."""
    n = model.N
    if model.S == 1 or k == 0:
        v, lam_hat, band = first_order_basis(model, gen, k)
        basis = LimitBasis(k=int(k), lambda_hat=_freeze(lam_hat.astype(complex)),
                           vectors=_freeze(v), band=_freeze(np.asarray(band)), model=model)
        lhh = np.zeros(n, dtype=complex)
        fh = np.zeros((n, n), dtype=complex)
    else:
        basis = limit_basis(model, gen, k)
        lhh, fh = _expansion_terms(model, gen, k, basis, range(n))
    return ResponseData(k=int(k), lambda_hat=basis.lambda_hat, lambda_hathat=_freeze(lhh),
                        f_hat=_freeze(fh), band=basis.band, basis=basis)


def projection_expansion(f_limit, f_hat, eps: float, tol: float = 1e-10) -> np.ndarray:
    """First-order expansion f f* + eps (fhat f* + f fhat*) of the eigenprojector."""
    f = np.asarray(f_limit, dtype=complex).ravel()
    fh = np.asarray(f_hat, dtype=complex).ravel()
    ip = abs(_inner(f, fh))
    if ip > tol * max(1.0, float(np.linalg.norm(fh))):
        raise NonOrthogonal(f"<f, fhat> = {ip:.3e} exceeds tolerance {tol:.1e}")
    proj = np.outer(f, np.conj(f))
    return proj + eps * (np.outer(fh, np.conj(f)) + np.outer(f, np.conj(fh)))


def _fit_slope(eps_grid, values, floor=1e-300):
    x = np.log10(np.asarray(eps_grid, dtype=float))
    y = np.log10(np.maximum(np.asarray(values, dtype=float), floor))
    return float(np.polyfit(x, y, 1)[0])


#: refinement steps per eigenpair; each shrinks the error by about the
#: complex128 roundoff times the Jacobian's condition number
REFINE_STEPS = 3


def _refine_eigenpair(a_xd, lam, vec):
    """Polish one simple eigenpair to the 80-bit extended-precision floor.

    Double-precision eigenvalues carry ~1e-15 absolute error, which buries
    the second-order expansion remainders measured on fine eps grids.
    Mixed-precision iterative refinement (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 12) removes it: the bordered Jacobian
    [[A - lam0 I, -v0], [v0^H, 0]] of the dense eigenpair (lam0, v0) is
    formed once in complex128, every residual (A v - lam v, 1 - v0^H v) in
    clongdouble, and each correction is solved in complex128.
    """
    n = a_xd.shape[0]
    anchor = vec.conj()
    jac = np.zeros((n + 1, n + 1), dtype=complex)
    jac[:n, :n] = a_xd.astype(complex) - lam * np.eye(n)
    jac[:n, n] = -vec
    jac[n, :n] = anchor
    lam = np.clongdouble(lam)
    v = vec.astype(np.clongdouble)
    for _ in range(REFINE_STEPS):
        rhs = np.concatenate([lam * v - a_xd @ v, [1 - anchor @ v]])
        step = np.linalg.solve(jac, rhs.astype(complex))
        v = v + step[:n]
        lam = lam + step[n]
    return lam, v / np.sqrt(np.abs(v @ v.conj()))


def check_eps_grid(gen: NoiseGenerator, eps_grid) -> np.ndarray:
    """The distinct points of an order-check grid, descending.

    Raises InvalidEpsGrid unless there are at least 4 of them, all finite and
    positive, and none above ``gen.eps_max``.
    """
    grid = np.asarray(sorted(set(float(e) for e in eps_grid), reverse=True))
    if len(grid) < 4:
        raise InvalidEpsGrid("eps grid needs at least 4 distinct points")
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise InvalidEpsGrid(f"eps grid points must be finite and positive, got {grid.tolist()}")
    if grid[0] > gen.eps_max:
        raise InvalidEpsGrid(f"eps grid exceeds eps_max={gen.eps_max:.3g}")
    return grid


def order_check(model: BandModel, gen: NoiseGenerator, k: int, ell: int,
                eps_grid, resp: ResponseData | None = None) -> OrderCheck:
    """Validate the expansion orders against the exact spectrum on an eps grid.

    Eigenvalues at each eps are labelled by nearest second-order prediction,
    one per label (nearest_assignment), which keeps the ladder consistent
    across the grid.  The matched eigenpair is polished to the
    extended-precision floor (_refine_eigenpair), so the residual ladders
    resolve below the double-precision eigensolver's ~1e-15 but not below
    the clongdouble ulp of 1.08e-19.  On the default grid r2 at eps = 1e-5
    can lie under that floor (2.4e-20 to 8.3e-20 for the leading labels at
    N = 99, k = 1), and the eigenvector there is only good to about 1e-13,
    so the last cells and the slope2 and slope_vec fits through them carry
    rounding noise: swapping this polish for 2 or 4 clongdouble Newton
    steps moves slope2 by up to 0.38, slope_vec by up to 0.08 and r1 by up
    to 1.9e-5 relative (k = 1, 2, 3, every label of the case study and of
    N = 99).  ``resp`` is the response_data of (model, gen, k), computed
    here when not given.
    """
    eps_grid = check_eps_grid(gen, eps_grid)
    if resp is None:
        resp = response_data(model, gen, k)
    elif resp.k != k or resp.basis.model is not model:
        raise ResponseMismatch(
            f"response data (k={resp.k}) do not belong to this model at k={k}")
    lam_hat, lhh = resp.lambda_hat, resp.lambda_hathat
    f = resp.basis.vectors[:, ell].astype(complex)
    fhat = resp.f_hat[:, ell]
    alpha_xd = model.alpha.astype(np.longdouble)
    lam0_xd = np.exp(np.clongdouble(-2j) * np.pi * k * alpha_xd)
    lam0 = lam0_xd.astype(complex)
    wdot_xd = np.asarray(gen.wdot, dtype=np.longdouble)

    r0, r1, r2, vec_r = [], [], [], []
    for eps in eps_grid:
        block = assemble_fourier_block(model, gen, k, eps)
        eig = eig_dense_complex(block.matrix)
        pred = lam0 + eps * lam_hat + eps ** 2 * lhh
        label = nearest_assignment(np.abs(eig.values[:, None] - pred[None, :]), [1] * model.N)
        i = int(np.argmax(label == ell))
        a_xd = lam0_xd[:, None] * (np.eye(model.N, dtype=np.longdouble)
                                   + np.clongdouble(eps) * wdot_xd)
        lam, vec = _refine_eigenpair(a_xd, eig.values[i], eig.vectors[:, i])
        e = np.clongdouble(eps)
        r0.append(float(np.abs(lam - lam0_xd[ell])))
        r1.append(float(np.abs(lam - lam0_xd[ell] - e * np.clongdouble(lam_hat[ell]))))
        r2.append(float(np.abs(lam - lam0_xd[ell] - e * np.clongdouble(lam_hat[ell])
                               - e * e * np.clongdouble(lhh[ell]))))
        vec_r.append(projective_distance(vec.astype(complex), f + eps * fhat))

    return OrderCheck(
        k=int(k), ell=int(ell), eps_grid=_freeze(eps_grid),
        r0=_freeze(np.asarray(r0)), r1=_freeze(np.asarray(r1)),
        r2=_freeze(np.asarray(r2)), vec_r=_freeze(np.asarray(vec_r)),
        slope0=_fit_slope(eps_grid, r0), slope1=_fit_slope(eps_grid, r1),
        slope2=_fit_slope(eps_grid, r2), slope_vec=_fit_slope(eps_grid, vec_r))


def alpha_response(model: BandModel, gen: NoiseGenerator, k: int, eps: float,
                   ell: int, direction, gap_tol: float = 1e-12):
    """Directional derivative (dlam, df) of one eigenpair w.r.t. the speeds.

    The derivative of the phase diagonal in direction u is
    Diag(-2 pi i k u_j exp(-2 pi i k alpha_j)); dlam contracts it against the
    left/right eigenvectors of the simple eigenvalue, and df solves the
    differentiated eigenvalue equation on the complement of span{f} under the
    gauge <f, df> = 0.
    """
    if eps == 0:
        raise EpsZero("the eps=0 speed response is discontinuous; refused by design")
    u = np.asarray(direction, dtype=float).ravel()
    if u.shape != (model.N,):
        raise ValueError(f"direction must have shape ({model.N},)")
    w = w_epsilon(gen, eps)
    block = assemble_fourier_block(model, gen, k, eps)
    p = np.asarray(block.matrix)
    eig = eig_dense_complex(p)
    gaps = np.abs(eig.values[:, None] - eig.values[None, :])
    np.fill_diagonal(gaps, np.inf)
    if model.N > 1 and float(gaps.min()) <= gap_tol * float(np.max(np.abs(eig.values))):
        raise EigsNotSimple(
            f"minimum eigenvalue gap {gaps.min():.3e} below tolerance at eps={eps}")
    # identify label ell through the labelled ordering
    spec = label_spectrum(block, eig)
    lam = spec.lam[ell]
    f = spec.vectors[:, ell]

    lam_left, vec_left = np.linalg.eig(p.conj().T)
    mu = vec_left[:, int(np.argmin(np.abs(lam_left - np.conj(lam))))]

    d_diag = -2j * np.pi * k * u * np.exp(-2j * np.pi * k * model.alpha)
    dp = d_diag[:, None] * w
    dlam = _inner(dp @ f, mu) / _inner(f, mu)

    # (P - lam) df = -(dP - dlam) f on the complement of span{f}, <f, df> = 0
    aug = np.vstack([p - lam * np.eye(model.N), np.conj(f)[None, :]])
    rhs = np.concatenate([-(dp @ f - dlam * f), [0.0]])
    df, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return complex(dlam), df
