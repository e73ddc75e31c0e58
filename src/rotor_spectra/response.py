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
band s.  Both formulas are validated here against residual ladders of the
exact eps-parametrised spectrum (order_checks), which also fix their sign and
normalisation conventions.  When S = 1 or k = 0 the expansion terminates:
lhathat = 0, fhat = 0 and the first order is exact.

The module also provides the response to perturbations of the speed profile
alpha at fixed eps > 0 (alpha_response); the eps = 0 speed response is
discontinuous and refused by design.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as band_models
from .errors import (DimensionMismatch, EigsNotSimple, EpsZero, InvalidEpsGrid, InvalidSpeeds,
                     NoConvergence)
from .model import (BandModel, NoiseGenerator, _check_labels, _finite_array, _freeze,
                    spectral_gap)
from .spectra import (_band_diagonal, _certified, assemble_fourier_block, eig_dense_complex,
                      nearest_assignment, spectrum)
from .zero_noise import LimitBasis, _eps_points, limit_basis, limit_eigenbasis, projective_distance


@dataclass(frozen=True, eq=False)
class ResponseData:
    """Every label's response terms at one Fourier index: the first-order
    basis (k, lhat, f, model and generator) and the terms lhathat and fhat it yields."""

    basis: LimitBasis
    lambda_hathat: np.ndarray
    f_hat: np.ndarray            # column ell


@dataclass(frozen=True, eq=False)
class OrderCheck:
    """Residual ladders of the eigenvalue/eigenvector expansions on an eps grid.

    r0 = |lam_eps - lam_0|, r1 = |lam_eps - lam_0 - eps*lhat|,
    r2 = |lam_eps - lam_0 - eps*lhat - eps^2*lhathat|, and vec_r is the
    projective distance between f_eps and f + eps*fhat.  ``path`` says, per
    eps, how the eigenpair was found: ``disk`` where its row disk certified
    it (:func:`_label_disks`), ``dense`` where the dense eigensolve did.
    Slopes are least-squares fits on the log-log grid.  When S = 1 or k = 0
    the expansion terminates, so r1, r2 and vec_r are rounding only and
    slope1, slope2 and slope_vec are None (empty cells in the CSV footer).
    slope0 is None for a stationary label, whose lhat is 0 by the
    simple-spectrum rule (|lhat| at most GAP_TOL times the largest |lhat|):
    its eigenvalue does not move with eps, so r0 is rounding only.
    """

    k: int
    ell: int
    eps_grid: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    vec_r: np.ndarray
    path: np.ndarray             # "disk" or "dense" per eps
    slope0: float | None
    slope1: float | None
    slope2: float | None
    slope_vec: float | None


def _terminates(model: BandModel, k: int) -> bool:
    """Every fibre phase is equal (S = 1 or k = 0), so the expansion terminates
    at first order; limit_basis refuses equal band phases anywhere else."""
    return model.S == 1 or k == 0


def first_order_basis(model: BandModel, gen: NoiseGenerator, k: int) -> LimitBasis:
    """Limit vectors f and first-order terms lhat for every label.

    Where the expansion terminates (:func:`_terminates`: S = 1 or k = 0) the
    limit problem is global, not band-blocked: the basis is the limit basis
    of one band over all N fibres, which diagonalises the full Wdot and
    raises DegenerateBlock unless its spectrum is simple, the rule and the
    solve of validate's distinct-spectrum verdict.  Otherwise it is the
    band-blocked limit basis, which requires distinct band phases at this k.
    """
    if _terminates(model, k):
        # every fibre has band 0's phase here, so one band of N fibres has the same matrix
        one_band = BandModel(model.beta[:1], (model.N,))
        return replace(limit_eigenbasis(one_band, gen, k), model=model)
    return limit_basis(model, gen, k)


def response_data(model: BandModel, gen: NoiseGenerator, k: int) -> ResponseData:
    """lhat, lhathat and fhat for every label at Fourier index k, from one limit basis.

    With A = D Wdot F, B = Wdot D* F, d = diag(D) (so d_j = e_{s_j}) and
    inv[j, ell] = 1/(d_ell - d_j) off the own band of ell (0 on it), the
    module-docstring sums become
    H = B^H (A * inv), lhathat = diag(H), the in-band coefficients
    H[r, ell] / (lhat_ell - lhat_r) and the out-of-band ones (F^T A) * inv.
    Every sum runs over label pairs of distinct phases; where there are none
    (:func:`_terminates`) both terms are exact zeros.  The in-band gaps
    lhat_ell - lhat_r are band-block eigenvalue gaps times a phase, which
    limit_basis has already judged simple.
    """
    n = model.N
    basis = first_order_basis(model, gen, k)
    if _terminates(model, k):
        return ResponseData(basis=basis, lambda_hathat=_freeze(np.zeros(n, dtype=complex)),
                            f_hat=_freeze(np.zeros((n, n), dtype=complex)))
    f, lam_hat, phases = basis.vectors, basis.lambda_hat, model.phases(k)
    d = phases[model.band_index]
    across = d[:, None] != d[None, :]                    # [r, ell]: distinct phases
    # at most four N x N complex arrays at once: each term is formed in place
    # in an array this function already holds, and dropped once read; a
    # difference is tiled, then taken in place, as a broadcast one into a new
    # array would also buffer both of its operands
    b = gen.wdot @ _band_diagonal(model, np.conj(phases), f)    # Wdot D* F
    np.conj(b, out=b)
    a = _band_diagonal(model, phases, gen.wdot @ f)             # D Wdot F
    coeff = f.T @ a
    inv = np.tile(d, (n, 1))
    inv -= d[:, None]                                    # exactly 0 on the own band
    np.divide(1.0, inv, out=inv, where=across)
    coeff *= inv                                         # out-of-band coefficients
    a *= inv
    del inv
    h = b.T @ a
    del a, b
    lam_hh = h.diagonal().copy()
    gap = np.tile(lam_hat, (n, 1))
    gap -= lam_hat[:, None]                              # [r, ell]: lhat_ell - lhat_r
    np.copyto(gap, np.inf, where=across)
    np.fill_diagonal(gap, np.inf)                        # finite for r != ell in ell's band
    h /= gap
    del gap
    coeff += h
    return ResponseData(basis=basis, lambda_hathat=_freeze(lam_hh), f_hat=_freeze(f @ coeff))


def second_order_eigenvalue(model: BandModel, gen: NoiseGenerator, k: int, ell: int) -> complex:
    """The eps^2 coefficient of the eigenvalue expansion for label ell."""
    return complex(response_data(model, gen, k).lambda_hathat[ell])


def eigenvector_response(model: BandModel, gen: NoiseGenerator, k: int, ell: int) -> np.ndarray:
    """First-order eigenvector term fhat for label ell; orthogonal to f."""
    return response_data(model, gen, k).f_hat[:, ell]


def _fit_slope(eps_grid, values):
    x = np.log10(np.asarray(eps_grid, dtype=float))
    y = np.log10(np.maximum(np.asarray(values, dtype=float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def _eigenbasis(d, values, right):
    """(values, right, left) of P = Diag(d) W, W real symmetric, |d| = 1: the left row
    of column v is conj(d) * v (no conjugate), scaled to meet v once; a zero scale gives inf."""
    left = np.conj(d)[:, None] * right
    with np.errstate(all="ignore"):
        left /= np.sum(left * right, axis=0)
    return values, right, left.T


def _eigenbasis_solve(basis, own, mu, rhs):
    """The linearised eigen-equation (P - mu) x = rhs, solved off the own
    direction in an eigenbasis (values, right, left) of P:
    x = right ((left rhs) / (values - mu)), entry ``own`` dropped."""
    gap = basis[0] - mu
    gap[own] = np.inf
    return basis[1] @ ((basis[2] @ rhs) / gap)


#: correction steps per eigenpair polish
REFINE_STEPS = 12


def _refine_eigenpair(a, basis, own, shift):
    """Polish the eigenpair of ``a`` = P - shift Id near column ``own`` of an
    eigenbasis of P (:func:`_eigenbasis`) by REFINE_STEPS steps v <- v - x,
    (a - mu) x = a v - mu v solved in the basis (:func:`_eigenbasis_solve`),
    and mu <- left_own a v / left_own v, each shrinking the error by about the
    basis' error over its gaps.  Returns (mu, unit v, ||a v - mu v||); a
    vanishing gap or scale gives NaN, which fails any certificate, unwarned."""
    mu, v, left = basis[0][own] - shift, basis[1][:, own], basis[2][own]
    with np.errstate(all="ignore"):
        av = a @ v
        for _ in range(REFINE_STEPS):
            v = v - _eigenbasis_solve(basis, own, mu + shift, av - mu * v)
            av = a @ v
            mu = (left @ av) / (left @ v)
        v = v / np.linalg.norm(v)
        return mu, v, np.linalg.norm(a @ v - mu * v)


def check_eps_grid(gen: NoiseGenerator, eps_grid) -> np.ndarray:
    """The distinct points of an order-check grid, descending; InvalidEpsGrid
    unless they pass the grid-point rule (zero_noise._eps_points), there are
    at least 4 and none is above ``gen.eps_max``."""
    grid = np.asarray(sorted(set(_eps_points(eps_grid)), reverse=True))
    if len(grid) < 4:
        raise InvalidEpsGrid("eps grid needs at least 4 distinct points")
    if grid[0] > gen.eps_max:
        raise InvalidEpsGrid(f"eps grid exceeds eps_max={gen.eps_max:.3g}")
    return grid


#: unit roundoff u = 2**-53 of float64 and complex128 arithmetic, in which
#: the rounding term of the order checks' disk certificate is stated
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _label_disks(f, f_hat, cf, ccf, p, eps):
    """Row disks that certify each label's eigenvalue of ``p`` at ``eps``.

    fhat = f C with C = f^T fhat (f is real orthonormal), so F = f + eps fhat
    = f (Id + eps C) has the approximate inverse X = f^T - eps C f^T +
    eps^2 C^2 f^T (``cf`` = C f^T, ``ccf`` = C^2 f^T), and with M = X p F and
    G = Id - X F, B = (Id - G)^-1 M is similar to ``p``.  So B's row disk l
    lies in M's, widened by ||B - M|| <= g/(1 - g) ||M|| (infinity norms,
    g >= ||G||), plus the rounding of the products: with gamma =
    2 (N + 2) UNIT_ROUNDOFF, a complex inner product of length N errs by at
    most gamma times the one of the moduli, so fl(X (p F)) errs by at most
    3 gamma ||X|| ||p|| ||F|| and fl(X F) by gamma ||X|| ||F||; sums of
    moduli are read up, and distances down, by the factor 1 + gamma.  A
    widened disk disjoint from every other holds exactly one eigenvalue of
    ``p`` (Gershgorin); where g >= 1 none is certified.  Returns F, the
    centres M_ll, the widened radii and which disks are isolated.
    """
    def norm(z):
        return np.max(np.sum(np.abs(z), axis=1))

    n = len(f)
    gamma = 2 * (n + 2) * UNIT_ROUNDOFF
    fe = np.multiply(eps, f_hat)
    np.add(f, fe, out=fe)                                # F
    x = np.multiply(eps, cf)
    np.subtract(f.T, x, out=x)
    x += eps ** 2 * ccf                                  # X
    norm_x, norm_fe = norm(x), norm(fe)
    rounding = 3 * gamma * norm_x * norm(p) * norm_fe
    m = x @ fe
    np.negative(m, out=m)
    m.flat[::n + 1] += 1                                 # G, up to signs of zeros: read by norm
    g = (norm(m) + gamma * norm_x * norm_fe) * (1 + gamma)
    del m
    m = x @ (p @ fe)
    del x
    spread = g / (1 - g) * (norm(m) + rounding) if g < 1 else np.inf
    centre = m.diagonal().copy()
    off = np.abs(m)
    del m
    np.fill_diagonal(off, 0)
    radius = (np.sum(off, axis=1) + spread + rounding) * (1 + gamma)
    del off
    clear = (1 - gamma) * np.abs(centre[:, None] - centre[None, :]) > radius[:, None] + radius
    np.fill_diagonal(clear, True)
    return fe, centre, radius, np.all(clear, axis=1)


def order_checks(resp: ResponseData, ells, eps_grid) -> tuple[OrderCheck, ...]:
    """Validate the expansion orders of labels ``ells`` at the model, generator
    and k of ``resp``.

    At each eps a label whose row disk in the basis F = f + eps*fhat is
    isolated (:func:`_label_disks`) is polished from its centre and F's
    column, in the eigenbasis of the centres and F; the pair must stay in
    the disk and meet eig_dense_complex's residual certificate, with P's
    largest column norm (a lower bound of ||P||_2) for ||P||_2.  Any other
    label takes the dense path: one eigensolve per eps, shared by those
    labels, matched to the second-order predictions one eigenvalue per label
    (nearest_assignment) and polished in its own eigenbasis.  It raises
    NoConvergence where the prediction lies within gamma ||P||_inf (gamma of
    _label_disks) of another label's, which the match cannot tell apart, or
    the matched pair or its polish fails the certificate (as at a defective
    eigenvalue).  A label's path depends only on the model, k, eps and the
    label; ``path`` records it.  Each polish (_refine_eigenpair) works on
    P - lam_0 Id = Diag(d - d_ell) + eps D Wdot, d = diag(D), exactly 0 on
    the band of ell, so mu = lam_eps - lam_0 is O(eps), no entry of size 1
    is rounded, and the ladders keep complex128's relative precision down
    the grid.  Slopes as in OrderCheck.  Beside C f^T and C^2 f^T it holds one
    eps's arrays at a time: P, F, the disk basis, one shifted matrix reused
    for every label and, where a label goes dense, the eigensolve's pairs.
    """
    basis = resp.basis
    model, gen, k = basis.model, basis.gen, basis.k
    ells = _check_labels(model, ells)
    eps_grid = check_eps_grid(gen, eps_grid)
    phases = model.phases(k)
    d = phases[model.band_index]
    f, f_hat = basis.vectors, resp.f_hat
    c = f.T @ f_hat
    cf = c @ f.T                                         # C f^T
    ccf = c @ cf
    del c
    ladders = [[] for _ in ells]                         # per label: (r0, r1, r2, vec_r, path)
    for eps in eps_grid:
        p = assemble_fourier_block(model, gen, k, eps)
        fe, centre, radius, isolated = _label_disks(f, f_hat, cf, ccf, p, eps)
        scale = np.sqrt(np.max(np.sum(np.abs(p) ** 2, axis=0)))    # <= ||p||_2
        disks = _eigenbasis(d, centre, fe) if isolated[ells].any() else None
        del fe                                           # kept only as the disk basis
        # eps D Wdot, then each label's P - lam_0 Id in turn; an off-diagonal
        # zero may be -0 where 0 + eps D Wdot gave +0, which no sum a @ v sees
        a = _band_diagonal(model, phases, gen.wdot)
        a *= eps
        a_diag = a.diagonal().copy()
        eig = dense = None
        for ell, rows in zip(ells, ladders):
            lhat, lhh = basis.lambda_hat[ell], resp.lambda_hathat[ell]
            np.fill_diagonal(a, d - d[ell] + a_diag)     # exactly 0 on the band of ell
            path = "disk" if isolated[ell] else "dense"
            if path == "disk":
                mu, vec, res = _refine_eigenpair(a, disks, ell, d[ell])
                if not (abs(mu + d[ell] - centre[ell]) <= radius[ell] and _certified(res, scale)):
                    path = "dense"
            if path == "dense":
                if eig is None:
                    eig = eig_dense_complex(p)
                    dense = _eigenbasis(d, eig.values, eig.vectors)
                    pred = d + eps * basis.lambda_hat + eps ** 2 * resp.lambda_hathat
                    label = nearest_assignment(np.abs(eig.values[:, None] - pred[None, :]),
                                               [1] * model.N)
                    tie = 2 * (model.N + 2) * UNIT_ROUNDOFF * np.max(np.sum(np.abs(p), axis=1))
                    near = np.abs(pred[:, None] - pred) + np.diag(np.full(model.N, np.inf))
                if near[ell].min() <= tie:
                    raise NoConvergence(f"labels {ell} and {np.argmin(near[ell])} have second-"
                                        f"order predictions within rounding at eps={eps}",
                                        partial=eig)
                i = int(np.argmax(label == ell))
                if not eig.converged[i]:
                    raise NoConvergence(f"the eigenpair of label {ell} at eps={eps} exceeds "
                                        "the residual tolerance", partial=eig)
                mu, vec, res = _refine_eigenpair(a, dense, i, d[ell])
                if not _certified(res, scale):
                    raise NoConvergence(f"the polished eigenpair of label {ell} at eps={eps} "
                                        "exceeds the residual tolerance", partial=eig)
            rows.append((abs(mu), abs(mu - eps * lhat), abs(mu - eps * lhat - eps ** 2 * lhh),
                         projective_distance(vec, f[:, ell] + eps * f_hat[:, ell]), path))
        del p, disks, a, eig, dense                      # freed before the next eps's

    terminates = _terminates(model, k)
    stationary = np.abs(basis.lambda_hat) <= band_models.GAP_TOL * np.max(np.abs(basis.lambda_hat))
    checks = []
    for ell, rows in zip(ells, ladders):
        r0, r1, r2, vec_r, path = (_freeze(np.asarray(col)) for col in zip(*rows))
        fit0 = None if stationary[ell] else _fit_slope(eps_grid, r0)
        fits = [None] * 3 if terminates else [_fit_slope(eps_grid, r) for r in (r1, r2, vec_r)]
        checks.append(OrderCheck(int(k), ell, _freeze(eps_grid), r0, r1, r2, vec_r, path,
                                 fit0, *fits))
    return tuple(checks)


def order_check(model: BandModel, gen: NoiseGenerator, k: int, ell: int, eps_grid) -> OrderCheck:
    """The order check of one label ``ell``; see order_checks."""
    return order_checks(response_data(model, gen, k), [ell], eps_grid)[0]


def alpha_response(model: BandModel, gen: NoiseGenerator, k: int, eps: float,
                   ell: int, direction):
    """Directional derivative (dlam, df) of one eigenpair w.r.t. the speeds.

    The derivative of the phase diagonal in direction u is
    Diag(-2 pi i k u_j exp(-2 pi i k alpha_j)), so dP = that times W_eps, and
    (dlam, df) solve the differentiated eigen-equation
    (P - lam) df - dlam f = -dP f under the gauge <f, df> = 0: in P's
    eigenbasis (:func:`_eigenbasis`), taken in label order from
    :func:`rotor_spectra.spectra.spectrum`, dlam = left_ell dP f, and df is
    the solve of :func:`_eigenbasis_solve` projected onto the gauge.  A
    direction that fails the entry rule of caller arrays
    (model._finite_array: finite real numbers) raises InvalidSpeeds, a
    spectrum that cannot be labelled the labelling's error, and a labelled
    spectrum that is not simple by :func:`rotor_spectra.model.spectral_gap`
    EigsNotSimple.
    """
    if eps == 0:
        raise EpsZero("the eps=0 speed response is discontinuous; refused by design")
    u = _finite_array(direction, float, "direction", InvalidSpeeds).ravel()
    if u.shape != (model.N,):
        raise DimensionMismatch(f"direction must have shape ({model.N},)")
    ell, = _check_labels(model, [ell])
    spec = spectrum(model, gen, k, eps)                 # P's eigenbasis in label order
    gap, radius, simple = spectral_gap([spec.lam])
    if not simple:
        raise EigsNotSimple(f"minimum eigenvalue gap {gap:.3e} is not above GAP_TOL "
                            f"times the spectral radius {radius:.3e} at eps={eps}")
    basis = _eigenbasis(model.phases(k)[model.band_index], spec.lam, spec.vectors)
    f = spec.vectors[:, ell]
    dpf = -2j * np.pi * k * u * (assemble_fourier_block(model, gen, k, eps) @ f)
    dlam = basis[2][ell] @ dpf
    df = _eigenbasis_solve(basis, ell, spec.lam[ell], dlam * f - dpf)
    return complex(dlam), df - f * np.vdot(f, df)
