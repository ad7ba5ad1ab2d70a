"""Dual augmented Lagrangian solver with semismooth Newton inner iterations.

The dualized problem is min p*(z) + h*(y) subject to vb^T y + z = 0.
Each outer iteration drives the multiplier lam and penalty sigma; the
inner problem is reduced (via Moreau's identity) to the nonlinear
measurement-space equation

    F(y) = y + u_b - vb @ prox_p(-lam - sigma * vb^T y, sigma) = 0,

whose generalized Jacobian I + c * V_A V_A^T, c = sigma/(1+sigma*alpha0),
is symmetric with eigenvalues >= 1; V_A holds the columns of vb on the
active set A of the prox.  The source is recovered in closed form from
the converged dual variable.

Each Newton step costs three products with vb: vb^T y at the loop head,
vb @ prox(...) in the residual, and vb^T d for the direction (the
Lagrangian along y + t*d needs no further products, being a function of
y and vb^T y only).  The linear solve is a Cholesky of the 2M x 2M Gram
matrix when |A| >= 2M, and otherwise of the |A| x |A| matrix
V_A^T V_A + I/c through Sherman-Morrison-Woodbury (second-order
sparsity, as in SSNAL: Li, Sun & Toh, SIAM J. Optim. 28 (2018) 433-458).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .prox import (
    RegParams,
    SolveResult,
    check_problem,
    dual_objective,
    h_star,
    p_star,
    primal_objective,
    prox_p,
    soft_threshold,
)


@dataclass
class AlmOptions:
    """Outer/inner loop parameters.

    Defaults: sigma0 = 1 with sixfold growth capped at sigma_max, Armijo
    parameters beta = 0.3 and c = 1e-4.  The inner tolerance schedule is
    eps_k = eps0/(k+1)^2 (summable) combined with the relative criterion
    delta'_k = delta_prime0/(k+1); see `solve_alm`.
    """

    sigma0: float = 1.0
    sigma_growth: float = 6.0
    sigma_max: float = 1e8
    beta: float = 0.3
    armijo_c: float = 1e-4
    eps0: float = 1e-2
    delta_prime0: float = 1.0
    max_outer: int = 12
    max_inner: int = 50
    max_backtracks: int = 30
    lam_tol: float = 1e-7
    gap_tol: float = 1e-8

    def __post_init__(self):
        if self.sigma_growth < 1:
            raise ValueError("penalty growth factor must be >= 1")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if self.armijo_c <= 0:
            raise ValueError("armijo constant must be positive")
        if self.max_inner < 0:
            raise ValueError("max_inner must be nonnegative")


@dataclass
class AlmResult(SolveResult):
    """`SolveResult` with the dual iterate, multiplier, z, last gap and outer count."""

    y: np.ndarray
    lam: np.ndarray
    z: np.ndarray
    gap: float
    outer_iters: int
    lam_history: list = field(repr=False)


def residual_F(y, lam, sigma, vb, u_b, reg, vt_y=None):
    """Nonlinear measurement-space residual F(y)."""
    if vt_y is None:
        vt_y = vb.T @ y
    return y + u_b - vb @ prox_p(-lam - sigma * vt_y, sigma, reg)


def _active_set(lam, sigma, vt_y, reg):
    """Mask of the components where |lam + sigma*vb^T y| exceeds sigma*alpha."""
    return np.abs(lam + sigma * vt_y) > sigma * reg.alpha


def _cholesky_solve(matrix, rhs):
    try:
        factor = cho_factor(matrix, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - signals NaN contamination
        raise RuntimeError("Newton matrix factorization failed") from exc
    return cho_solve(factor, rhs)


def newton_matrix(y, lam, sigma, vb, reg, vt_y=None):
    """Generalized Jacobian I + sigma/(1+sigma*alpha0) * vb X vb^T.

    X is diagonal with unit entries exactly where |lam + sigma*vb^T y|
    exceeds sigma*alpha (ties count as inactive, keeping the matrix
    minimal); the result is symmetric positive definite with eigenvalues
    bounded below by 1.  The active columns are gathered with np.compress.
    """
    if vt_y is None:
        vt_y = vb.T @ y
    active = _active_set(lam, sigma, vt_y, reg)
    nmat = np.eye(vb.shape[0])
    if np.any(active):
        va = np.compress(active, vb, axis=1)
        nmat += (sigma / (1.0 + sigma * reg.alpha0)) * (va @ va.T)
    return nmat


def newton_step(y, lam, sigma, vb, u_b, reg, residual=None, vt_y=None):
    """Solve N(y) d = -F(y) with N = I + c * V_A V_A^T, c = sigma/(1+sigma*alpha0).

    Given vt_y = vb^T y and the residual, a step needs no product with the
    whole of vb; in `solve_alm` it costs three products in all (vb^T y,
    vb @ prox(...) in the residual, and vb^T d for the line search).  The
    solve itself depends on the active-set size against 2M = vb.shape[0]:

    - |A| >= 2M: Cholesky of the 2M x 2M matrix from `newton_matrix`;
    - 0 < |A| < 2M: Cholesky of the |A| x |A| matrix V_A^T V_A + I/c and
      Sherman-Morrison-Woodbury, d = -F + V_A (V_A^T V_A + I/c)^{-1} V_A^T F;
    - A empty: N = I and d = -F.
    """
    if vt_y is None:
        vt_y = vb.T @ y
    if residual is None:
        residual = residual_F(y, lam, sigma, vb, u_b, reg, vt_y=vt_y)
    active = _active_set(lam, sigma, vt_y, reg)
    n_active = np.count_nonzero(active)
    if n_active >= vb.shape[0]:
        return _cholesky_solve(newton_matrix(y, lam, sigma, vb, reg, vt_y=vt_y), -residual)
    if n_active == 0:
        return -residual
    va = np.compress(active, vb, axis=1)
    small = va.T @ va
    small[np.diag_indices_from(small)] += (1.0 + sigma * reg.alpha0) / sigma
    return va @ _cholesky_solve(small, va.T @ residual) - residual


def lagrangian_value(y, lam, sigma, vb, u_b, reg, vt_y=None):
    """Augmented Lagrangian L_sigma(y, z; lam) with z eliminated via the Moreau split."""
    if vt_y is None:
        vt_y = vb.T @ y
    z = recover_z(y, lam, sigma, vb, reg, vt_y=vt_y)
    feas = vt_y + z
    return p_star(z, reg) + h_star(y, u_b) + float(lam @ feas) + 0.5 * sigma * float(feas @ feas)


def armijo_search(y, d, lam, sigma, vb, u_b, reg, beta=0.3, c=1e-4, max_backtracks=30,
                  vt_y=None, vt_d=None):
    """Backtracking line search on the reduced augmented Lagrangian.

    Returns (step, accepted): the first step beta^t whose objective drops
    by at least c * beta^t * ||d||^2.  When no such t <= max_backtracks
    exists the smallest trial step is returned with accepted=False; the
    caller may still take it (descent holds for small steps in exact
    arithmetic, failures signal rounding noise near convergence).  The
    trials use vb^T (y + t*d) = vt_y + t*vt_d, so given vt_y = vb^T y and
    vt_d = vb^T d the search makes no product with vb.
    """
    dd = float(d @ d)
    if dd == 0.0:
        raise ValueError("line search requires a nonzero direction")
    if vt_y is None:
        vt_y = vb.T @ y
    if vt_d is None:
        vt_d = vb.T @ d
    base = lagrangian_value(y, lam, sigma, vb, u_b, reg, vt_y=vt_y)
    step = 1.0
    for _ in range(max_backtracks + 1):
        trial = lagrangian_value(y + step * d, lam, sigma, vb, u_b, reg, vt_y=vt_y + step * vt_d)
        if trial <= base - c * step * dd:
            return step, True
        step *= beta
    return step / beta, False


def recover_z(y, lam, sigma, vb, reg, vt_y=None):
    """Auxiliary variable z = M(y) from the Moreau complement of the prox."""
    if vt_y is None:
        vt_y = vb.T @ y
    x = -sigma * vt_y - lam
    return (x - prox_p(x, sigma, reg)) / sigma


def recover_mu(y, vb, reg, vt_y=None):
    """Primal source from the dual variable: soft-threshold of -vb^T y / alpha0."""
    if reg.alpha0 <= 0:
        raise ValueError("primal recovery needs alpha0 > 0")
    if vt_y is None:
        vt_y = vb.T @ y
    return soft_threshold(-vt_y / reg.alpha0, reg.alpha / reg.alpha0)


def solve_alm(vb, u_b, reg, options=None):
    """Run the full outer/inner iteration and recover the primal source.

    Inner Newton iterations terminate when ||F(y)|| <= eps_k/sqrt(sigma_k)
    (surrogate for the summable-accuracy criterion, valid because the
    reduced objective is 1-strongly convex) and additionally
    ||F(y)|| <= (delta'_k/sigma_k)*||sigma_k(vb^T y + z)|| (surrogate for
    the relative criterion), or at machine-precision residuals.  Outer
    iterations stop on a small relative multiplier change or a small
    primal-dual gap.  The multiplier step lam += sigma*(vb^T y + z), the
    source and the gap reuse vb^T y and z from the last inner loop head.
    """
    vb, u_b = check_problem(vb, u_b)
    options = options or AlmOptions()
    m2, n2 = vb.shape
    y = np.zeros(m2)
    lam = np.zeros(n2)
    sigma = options.sigma0
    floor = 1e-13 * (1.0 + np.linalg.norm(u_b))

    records = []
    lam_history = [lam.copy()]
    inner_total = 0
    converged = False
    stop_reason = "max_outer"
    gap = np.inf
    z = np.zeros(n2)

    for k in range(options.max_outer):
        tol_a = options.eps0 / (k + 1) ** 2 / np.sqrt(sigma)
        delta_k = options.delta_prime0 / (k + 1)
        inner_stop = "max_inner"
        for l in range(options.max_inner + 1):
            vt_y = vb.T @ y
            resid = residual_F(y, lam, sigma, vb, u_b, reg, vt_y=vt_y)
            norm_f = np.linalg.norm(resid)
            z = recover_z(y, lam, sigma, vb, reg, vt_y=vt_y)
            feas = vt_y + z
            lam_step = sigma * np.linalg.norm(feas)
            tol_b2 = delta_k / sigma * lam_step
            if norm_f <= floor:
                inner_stop = "floor"
                break
            if norm_f <= tol_a and norm_f <= tol_b2:
                inner_stop = "tolerance"
                break
            if l == options.max_inner:
                break
            d = newton_step(y, lam, sigma, vb, u_b, reg, residual=resid, vt_y=vt_y)
            vt_d = vb.T @ d
            step, accepted = armijo_search(
                y, d, lam, sigma, vb, u_b, reg,
                beta=options.beta, c=options.armijo_c, max_backtracks=options.max_backtracks,
                vt_y=vt_y, vt_d=vt_d,
            )
            if not accepted:
                warnings.warn("line search exhausted; taking smallest trial step", RuntimeWarning)
            y = y + step * d
            inner_total += 1
            records.append({
                "solver": "alm", "kind": "inner", "outer": k, "inner": l,
                "residual": float(norm_f),
                "objective": lagrangian_value(y, lam, sigma, vb, u_b, reg, vt_y=vt_y + step * vt_d),
                "step": float(step), "sigma": float(sigma),
            })
        lam_new = lam + sigma * feas
        if reg.alpha0 > 0:
            mu = recover_mu(y, vb, reg, vt_y=vt_y)
            primal = primal_objective(mu, vb, u_b, reg)
            gap = primal + dual_objective(y, vb, u_b, reg, vt_y=vt_y)
        else:
            mu = -lam_new
            primal = primal_objective(mu, vb, u_b, reg)
            gap = np.inf
        lam_change = np.linalg.norm(lam_new - lam) / max(1.0, np.linalg.norm(lam))
        records.append({
            "solver": "alm", "kind": "outer", "outer": k,
            "sigma": float(sigma), "gap": float(gap),
            "feasibility": float(np.linalg.norm(feas)),
            "lambda_change": float(lam_change),
            "primal": float(primal),
            "mu_plus_lambda": float(np.linalg.norm(mu + lam_new)),
            "inner_stop": inner_stop,
            "final_residual": float(norm_f),
            "tol_a": float(tol_a),
            "tol_b2": float(tol_b2),
            "floor": float(floor),
        })
        lam = lam_new
        lam_history.append(lam.copy())
        sigma = min(options.sigma_growth * sigma, options.sigma_max)
        if lam_change <= options.lam_tol:
            converged, stop_reason = True, "multiplier_change"
            break
        if gap <= options.gap_tol * (1.0 + abs(primal)):
            converged, stop_reason = True, "duality_gap"
            break

    mu = recover_mu(y, vb, reg) if reg.alpha0 > 0 else -lam
    return AlmResult(
        mu=mu, converged=converged, stop_reason=stop_reason, iterations=inner_total,
        records=records, y=y, lam=lam, z=z, gap=gap, outer_iters=len(lam_history) - 1,
        lam_history=lam_history,
    )
