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

from .errors import (DegenerateFirstOrder, DimensionMismatch, EigsNotSimple, EpsZero,
                     InvalidEpsGrid, NonOrthogonal, ResponseMismatch)
from .model import BandModel, NoiseGenerator, _freeze
from .spectra import (assemble_fourier_block, eig_dense_complex, label_spectrum,
                      nearest_assignment)
from .zero_noise import LimitBasis, limit_basis, projective_distance, sorted_eigenbasis

#: same-band first-order eigenvalues at most this times max |lhat| apart are degenerate
FIRST_ORDER_GAP_TOL = 1e-9
#: largest |<f, fhat>| / max(1, |fhat|) that projection_expansion accepts
ORTHOGONALITY_TOL = 1e-10
#: alpha_response needs eigenvalues more than this times the spectral radius apart
SIMPLE_GAP_TOL = 1e-12


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
    least-squares fits on the log-log grid.  When S = 1 or k = 0 the first
    order is exact, so r1, r2 and vec_r are rounding only; see order_check.
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


def first_order_basis(model: BandModel, gen: NoiseGenerator, k: int) -> LimitBasis:
    """Limit vectors f and first-order terms lhat for every label.

    For S = 1 or k = 0 all band phases coincide: the expansion terminates at
    first order and the basis diagonalises the full Wdot (the limit problem
    is global, not band-blocked).  Otherwise it is the band-blocked limit
    basis, which requires distinct band phases at this k.
    """
    if model.S == 1 or k == 0:
        rho, v = sorted_eigenbasis(gen.wdot)
        return LimitBasis(k=int(k), lambda_hat=_freeze(model.phases(k)[0] * rho),
                          vectors=_freeze(v), band=model.band_index, model=model)
    return limit_basis(model, gen, k)


def _expansion_terms(model: BandModel, gen: NoiseGenerator, k: int, checked=()):
    """The first-order basis, lhathat and the fhat columns of every label.

    With A = D Wdot F, B = Wdot D* F, d = diag(D) (so d_j = e_{s_j}) and
    inv[j, ell] = 1/(d_ell - d_j) off the own band of ell (0 on it), the
    module-docstring sums become
    H = B^H (A * inv), lhathat = diag(H), the in-band coefficients
    H[r, ell] / (lhat_ell - lhat_r) and the out-of-band ones (F^T A) * inv.
    Every sum runs over label pairs of distinct phases; where there are none
    (see first_order_basis) both terms are exact zeros.  Raises
    DegenerateFirstOrder when a label in ``checked`` shares its first-order
    eigenvalue with another label of its band.
    """
    n = model.N
    basis = first_order_basis(model, gen, k)
    f, lam_hat = basis.vectors, basis.lambda_hat
    d = model.phases(k)[model.band_index]
    across = d[:, None] != d[None, :]                    # [r, ell]: distinct phases
    if not across.any():
        return basis, np.zeros(n, dtype=complex), np.zeros((n, n), dtype=complex)
    within = ~across & ~np.eye(n, dtype=bool)            # [r, ell]: r != ell, same band
    gap = lam_hat[None, :] - lam_hat[:, None]            # [r, ell]: lhat_ell - lhat_r
    checked = list(checked)
    degenerate = within & (np.abs(gap) <= FIRST_ORDER_GAP_TOL * float(np.max(np.abs(lam_hat))))
    bad = np.argwhere(degenerate[:, checked].T)
    if len(bad):
        raise DegenerateFirstOrder(f"first-order eigenvalues coincide for labels "
                                   f"{checked[bad[0][0]]} and {bad[0][1]} at k={k}")
    inv = np.zeros((n, n), dtype=complex)
    np.divide(1.0, d[None, :] - d[:, None], out=inv, where=across)
    a = d[:, None] * (gen.wdot @ f)                      # D Wdot F
    b = gen.wdot @ (np.conj(d)[:, None] * f)             # Wdot D* F
    h = b.conj().T @ (a * inv)
    coeff = (f.T @ a) * inv + h / np.where(within, gap, np.inf)
    return basis, np.diag(h), f @ coeff


def second_order_eigenvalue(model: BandModel, gen: NoiseGenerator, k: int, ell: int) -> complex:
    """The eps^2 coefficient of the eigenvalue expansion for label ell."""
    return complex(_expansion_terms(model, gen, k)[1][ell])


def eigenvector_response(model: BandModel, gen: NoiseGenerator, k: int, ell: int) -> np.ndarray:
    """First-order eigenvector term fhat for label ell; orthogonal to f."""
    return _expansion_terms(model, gen, k, [ell])[2][:, ell]


def response_data(model: BandModel, gen: NoiseGenerator, k: int) -> ResponseData:
    """lhat, lhathat and fhat for every label at Fourier index k, from one limit basis."""
    basis, lhh, fh = _expansion_terms(model, gen, k, range(model.N))
    return ResponseData(k=int(k), lambda_hat=basis.lambda_hat, lambda_hathat=_freeze(lhh),
                        f_hat=_freeze(fh), band=basis.band, basis=basis)


def projection_expansion(f_limit, f_hat, eps: float) -> np.ndarray:
    """First-order expansion f f* + eps (fhat f* + f fhat*) of the eigenprojector."""
    f = np.asarray(f_limit, dtype=complex).ravel()
    fh = np.asarray(f_hat, dtype=complex).ravel()
    ip = abs(np.vdot(f, fh))
    if ip > ORTHOGONALITY_TOL * max(1.0, float(np.linalg.norm(fh))):
        raise NonOrthogonal(
            f"<f, fhat> = {ip:.3e} exceeds tolerance {ORTHOGONALITY_TOL:.1e}")
    proj = np.outer(f, np.conj(f))
    return proj + eps * (np.outer(fh, np.conj(f)) + np.outer(f, np.conj(fh)))


def _fit_slope(eps_grid, values):
    x = np.log10(np.asarray(eps_grid, dtype=float))
    y = np.log10(np.maximum(np.asarray(values, dtype=float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


#: refinement steps per eigenpair; each shrinks the error by about the
#: complex128 roundoff times the Jacobian's condition number
REFINE_STEPS = 3


def _refine_eigenpair(a, mu, vec):
    """Polish one simple eigenpair (mu, vec) of the shifted matrix ``a``.

    Newton refinement on the bordered Jacobian [[a - mu0 I, -v0], [v0^H, 0]]
    of the dense eigenpair (mu0, v0), formed once; residuals
    (a v - mu v, 1 - v0^H v) and corrections are all complex128.  Raises
    EigsNotSimple when the Jacobian is singular, as it is at a multiple
    eigenvalue.
    """
    n = a.shape[0]
    anchor = vec.conj()
    jac = np.zeros((n + 1, n + 1), dtype=complex)
    jac[:n, :n] = a - mu * np.eye(n)
    jac[:n, n] = -vec
    jac[n, :n] = anchor
    v = vec
    for _ in range(REFINE_STEPS):
        try:
            step = np.linalg.solve(jac, np.concatenate([mu * v - a @ v, [1 - anchor @ v]]))
        except np.linalg.LinAlgError as exc:
            raise EigsNotSimple("the matched eigenvalue is not simple: "
                                "its bordered Newton system is singular") from exc
        v = v + step[:n]
        mu = mu + step[n]
    return mu, v / np.linalg.norm(v)


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
    across the grid.  The matched eigenpair is then polished
    (_refine_eigenpair) as an eigenpair of the shifted matrix
    D (Id + eps*Wdot) - lam_0 Id = Diag(d - d_ell) + eps D Wdot, d = diag(D),
    whose diagonal is exactly 0 on the band of ell.  Its eigenvalue
    mu = lam_eps - lam_0 is O(eps) and no entry of size 1 is rounded, so the
    ladders carry complex128's relative precision down the grid instead of
    an absolute floor.  When S = 1 or k = 0 the expansion terminates and the
    r1, r2 and vec_r ladders (and their slopes) are rounding only.  ``resp``
    is the response_data of (model, gen, k), computed here when not given.
    """
    eps_grid = check_eps_grid(gen, eps_grid)
    if resp is None:
        resp = response_data(model, gen, k)
    elif resp.k != k or resp.basis.model is not model:
        raise ResponseMismatch(
            f"response data (k={resp.k}) do not belong to this model at k={k}")
    lhat, lhh = resp.lambda_hat[ell], resp.lambda_hathat[ell]
    f = resp.basis.vectors[:, ell].astype(complex)
    fhat = resp.f_hat[:, ell]
    d = model.phases(k)[model.band_index]
    shift = np.diag(d - d[ell])                          # exactly 0 on the band of ell

    r0, r1, r2, vec_r = [], [], [], []
    for eps in eps_grid:
        block = assemble_fourier_block(model, gen, k, eps)
        eig = eig_dense_complex(block.matrix)
        pred = d + eps * resp.lambda_hat + eps ** 2 * resp.lambda_hathat
        label = nearest_assignment(np.abs(eig.values[:, None] - pred[None, :]), [1] * model.N)
        i = int(np.argmax(label == ell))
        a = shift + eps * (d[:, None] * gen.wdot)
        mu, vec = _refine_eigenpair(a, eig.values[i] - d[ell], eig.vectors[:, i])
        r0.append(abs(mu))
        r1.append(abs(mu - eps * lhat))
        r2.append(abs(mu - eps * lhat - eps ** 2 * lhh))
        vec_r.append(projective_distance(vec, f + eps * fhat))

    return OrderCheck(
        k=int(k), ell=int(ell), eps_grid=_freeze(eps_grid),
        r0=_freeze(np.asarray(r0)), r1=_freeze(np.asarray(r1)),
        r2=_freeze(np.asarray(r2)), vec_r=_freeze(np.asarray(vec_r)),
        slope0=_fit_slope(eps_grid, r0), slope1=_fit_slope(eps_grid, r1),
        slope2=_fit_slope(eps_grid, r2), slope_vec=_fit_slope(eps_grid, vec_r))


def alpha_response(model: BandModel, gen: NoiseGenerator, k: int, eps: float,
                   ell: int, direction):
    """Directional derivative (dlam, df) of one eigenpair w.r.t. the speeds.

    The derivative of the phase diagonal in direction u is
    Diag(-2 pi i k u_j exp(-2 pi i k alpha_j)); dlam contracts it against the
    left/right eigenvectors of the simple eigenvalue (the left one is
    exp(2 pi i k alpha) f, as W_eps is real symmetric), and df solves the
    differentiated eigenvalue equation on the complement of span{f} under the
    gauge <f, df> = 0.
    """
    if eps == 0:
        raise EpsZero("the eps=0 speed response is discontinuous; refused by design")
    u = np.asarray(direction, dtype=float).ravel()
    if u.shape != (model.N,):
        raise DimensionMismatch(f"direction must have shape ({model.N},)")
    block = assemble_fourier_block(model, gen, k, eps)
    p = np.asarray(block.matrix)
    eig = eig_dense_complex(p)
    gaps = np.abs(eig.values[:, None] - eig.values[None, :])
    np.fill_diagonal(gaps, np.inf)
    if model.N > 1 and float(gaps.min()) <= SIMPLE_GAP_TOL * float(np.max(np.abs(eig.values))):
        raise EigsNotSimple(
            f"minimum eigenvalue gap {gaps.min():.3e} below tolerance at eps={eps}")
    # identify label ell through the labelled ordering
    spec = label_spectrum(block, eig)
    lam = spec.lam[ell]
    f = spec.vectors[:, ell]
    # y^T P = f^T W_eps = lam y^T; unlike W_eps f = lam y, y is nonzero when lam = 0
    left = np.conj(model.phases(k)[model.band_index]) * f

    dp = (-2j * np.pi * k * u)[:, None] * p
    dlam = (left @ dp @ f) / (left @ f)

    # (P - lam) df = -(dP - dlam) f on the complement of span{f}, <f, df> = 0
    aug = np.vstack([p - lam * np.eye(model.N), np.conj(f)[None, :]])
    rhs = np.concatenate([-(dp @ f - dlam * f), [0.0]])
    df, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return complex(dlam), df
