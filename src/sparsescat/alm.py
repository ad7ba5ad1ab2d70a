"""Dual augmented Lagrangian solver with semismooth Newton inner iterations.

The dualized problem is min p*(z) + h*(y) subject to vb^T y + z = 0.
Each outer iteration drives the multiplier lam and penalty sigma; the
inner problem is reduced (via Moreau's identity) to the nonlinear
measurement-space equation

    F(y) = y + u_b - vb prox_p(-lam - sigma * vb^T y, sigma) = 0,

whose generalized Jacobian I + c * V_A V_A^T, c = sigma/(1+sigma*alpha0),
is symmetric with eigenvalues >= 1; V_A holds the columns of vb on the
active set A of the prox.  The source is recovered in closed form from
the converged dual variable.

Each Newton step costs three products with vb: vb prox(...) in the
residual (a sum over the active columns once A is small), vb^T d for the
direction, and vb^T y after the step, the only place y changes.
`solve_alm` passes them down and no helper forms one itself: the
Lagrangian along y + t*d is a function of y and vb^T y = vt_y + t*vt_d
only, the line search returns its value at the accepted point for the
inner record, and the outer step reuses the last loop head's vb^T y.
The linear solve is a Cholesky of I + c * G, with G = V_A V_A^T the
2M x 2M Gram matrix built afresh from the active columns, when |A| >= 2M,
and otherwise of the |A| x |A| matrix V_A^T V_A + I/c through
Sherman-Morrison-Woodbury (second-order sparsity, as in SSNAL: Li, Sun &
Toh, SIAM J. Optim. 28 (2018) 433-458).

The first penalty comes from the problem: sigma_0 = max(1, 0.01/alpha0),
1 when alpha0 = 0 and at most SIGMA_MAX.  ALM is the proximal point
method on the dual, whose rate improves as sigma grows (Rockafellar,
Math. Oper. Res. 1 (1976) 97-116), and a large sigma keeps the active
set small, so the steps take the Sherman-Morrison-Woodbury path.

vb is a `realfield.MeasurementOperator`, which holds the complex matrix
T: the full products vb x and vb^T y are its `zgemv` products, and the
active columns come out of `vb.columns` as a realified block, so the
active set, the Gram matrices and the Newton step stay real.  Every
product goes through `realfield`, so through scipy's BLAS like the
Cholesky (see there).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import check_finite, check_integer
from .prox import (SolveResult, certificate, certified, cholesky_solve, h_star, p_star, primal_objective, prox_p,
                   soft_threshold)
from .realfield import check_problem, gram, matvec, rmatvec


# Loop constants: the penalty's growth factor and its cap, the Armijo
# constant, the inner tolerance schedule eps_k = EPS0/(k+1)^2 (summable)
# with the relative criterion delta'_k = DELTA_PRIME0/(k+1), and the caps
# on Newton steps per outer iteration and on backtracks per line search.
SIGMA_GROWTH = 6.0
SIGMA_MAX = 1e8
ARMIJO_C = 1e-4
EPS0 = 1e-2
DELTA_PRIME0 = 1.0
MAX_INNER = 50
MAX_BACKTRACKS = 30


@dataclass
class AlmOptions:
    """Armijo backtracking factor, outer-step cap and the multiplier tolerance of the stop.

    The penalty starts at max(1, 0.01/alpha0) (1 when alpha0 = 0) and grows
    sixfold per outer step, both capped at SIGMA_MAX; the other loop
    constants are module constants.
    """

    beta: float = 0.3
    max_outer: int = 20
    lam_tol: float = 1e-7

    def __post_init__(self):
        check_finite("beta", self.beta, "positive", below=1)
        check_integer("max_outer", self.max_outer, 1)
        check_finite("lam_tol", self.lam_tol, "nonnegative")


@dataclass
class AlmResult(SolveResult):
    """`SolveResult` with the dual iterate, multiplier, z and the multiplier of every outer step."""

    y: np.ndarray
    lam: np.ndarray
    z: np.ndarray
    lam_history: list = field(repr=False)

    @property
    def outer_iters(self):
        """Outer steps taken: `lam_history` holds the first multiplier and one more per step."""
        return len(self.lam_history) - 1


def residual_F(y, lam, sigma, vb, u_b, reg, vt_y):
    """Nonlinear measurement-space residual F(y), given vt_y = vb^T y.

    The prox is nonzero only on the active set, so `matvec` sums the
    active columns once the set is small.
    """
    return y + u_b - vb.matvec(prox_p(-lam - sigma * vt_y, sigma, reg))


def _active_set(lam, sigma, vt_y, reg):
    """Mask of the components where |lam + sigma*vb^T y| exceeds sigma*alpha."""
    return np.abs(lam + sigma * vt_y) > sigma * reg.alpha


def newton_matrix(y, lam, sigma, vb, reg, *, vt_y):
    """Generalized Jacobian I + sigma/(1+sigma*alpha0) * vb X vb^T at y, given vt_y = vb^T y.

    X is diagonal with unit entries exactly where |lam + sigma*vb^T y|
    exceeds sigma*alpha (ties count as inactive, keeping the matrix
    minimal); the result is symmetric positive definite with eigenvalues
    bounded below by 1.  The matrix depends on y only through vt_y.
    vb X vb^T is the Gram V_A V_A^T of the active columns.
    """
    nmat = (sigma / (1.0 + sigma * reg.alpha0)) * gram(vb.columns(_active_set(lam, sigma, vt_y, reg)))
    nmat[np.diag_indices_from(nmat)] += 1.0
    return nmat


def newton_step(y, lam, sigma, vb, reg, *, residual, vt_y):
    """Solve N(y) d = -F(y) with N = I + c * V_A V_A^T, c = sigma/(1+sigma*alpha0).

    Given vt_y = vb^T y and the residual F(y), a step makes no product
    with the whole of vb.  The solve depends on the active-set size
    against 2M = vb.shape[0]:

    - |A| >= 2M: Cholesky of the 2M x 2M matrix from `newton_matrix`;
    - 0 < |A| < 2M: Cholesky of the |A| x |A| matrix V_A^T V_A + I/c and
      Sherman-Morrison-Woodbury, d = -F + V_A (V_A^T V_A + I/c)^{-1} V_A^T F;
    - A empty: N = I and d = -F.
    """
    active = _active_set(lam, sigma, vt_y, reg)
    n_active = np.count_nonzero(active)
    if n_active >= vb.shape[0]:
        return cholesky_solve(newton_matrix(y, lam, sigma, vb, reg, vt_y=vt_y), -residual)
    if n_active == 0:
        return -residual
    va = vb.columns(active)
    small = gram(va, trans=True)  # V_A^T V_A
    small[np.diag_indices_from(small)] += (1.0 + sigma * reg.alpha0) / sigma
    return matvec(va, cholesky_solve(small, rmatvec(va, residual))) - residual


def lagrangian_value(y, lam, sigma, vt_y, u_b, reg):
    """Augmented Lagrangian L_sigma(y, z; lam), given vt_y = vb^T y, with z eliminated via the Moreau split."""
    z = recover_z(vt_y, lam, sigma, reg)
    feas = vt_y + z
    return p_star(z, reg) + h_star(y, u_b) + float(lam @ feas) + 0.5 * sigma * float(feas @ feas)


def armijo_search(y, d, lam, sigma, vt_y, vt_d, u_b, reg, beta, c=ARMIJO_C, max_backtracks=MAX_BACKTRACKS):
    """Backtracking line search on the reduced augmented Lagrangian.

    Returns (step, accepted, value): the first step beta^t whose objective
    drops by at least c * beta^t * ||d||^2, and the objective there.  When
    no such t <= max_backtracks exists the smallest trial step is returned
    with accepted=False; the caller may still take it (descent holds for
    small steps in exact arithmetic, failures signal rounding noise near
    convergence).  The trials use vb^T (y + t*d) = vt_y + t*vt_d, with
    vt_y = vb^T y and vt_d = vb^T d.
    """
    dd = float(d @ d)
    if dd == 0.0:
        raise ValueError("line search requires a nonzero direction")
    base = lagrangian_value(y, lam, sigma, vt_y, u_b, reg)
    step = 1.0
    for t in range(max_backtracks + 1):
        if t:
            step *= beta
        trial = lagrangian_value(y + step * d, lam, sigma, vt_y + step * vt_d, u_b, reg)
        if trial <= base - c * step * dd:
            return step, True, trial
    return step, False, trial


def recover_z(vt_y, lam, sigma, reg):
    """Auxiliary variable z = M(y) from the Moreau complement of the prox, given vt_y = vb^T y."""
    x = -sigma * vt_y - lam
    return (x - prox_p(x, sigma, reg)) / sigma


def recover_mu(vt_y, reg):
    """Primal source from the dual variable: soft-threshold of -vb^T y / alpha0, given vt_y = vb^T y."""
    if reg.alpha0 <= 0:
        raise ValueError("primal recovery needs alpha0 > 0")
    return soft_threshold(-vt_y / reg.alpha0, reg.alpha / reg.alpha0)


def solve_alm(vb, u_b, reg, options=None):
    """Run the full outer/inner iteration and recover the primal source.

    Inner Newton iterations terminate when ||F(y)|| <= eps_k/sqrt(sigma_k)
    (surrogate for the summable-accuracy criterion, valid because the
    reduced objective is 1-strongly convex) and additionally
    ||F(y)|| <= (delta'_k/sigma_k)*||sigma_k(vb^T y + z)|| (surrogate for
    the relative criterion), or at machine-precision residuals.  Each
    outer record holds the `certificate` (gap and bound) of its source
    and y.  Where alpha0 > 0 the outer iterations stop on "certified"
    once that source is `certified` and the relative multiplier change
    is at most lam_tol, both at once: the certificate bounds the source,
    the multiplier test ends the proximal-point run (Rockafellar 1976).
    Where alpha0 = 0 there is no certificate, and they stop on
    "multiplier_change" at the multiplier test alone.  The multiplier
    step lam += sigma*(vb^T y + z), the source and the gap reuse vb^T y
    and z from the last inner loop head, and the returned source is that
    of the last outer step.
    """
    vb, u_b = check_problem(vb, u_b)
    options = options or AlmOptions()
    m2, n2 = vb.shape
    y = np.zeros(m2)
    lam = np.zeros(n2)
    sigma = min(max(1.0, 0.01 / reg.alpha0), SIGMA_MAX) if reg.alpha0 > 0 else 1.0
    floor = 1e-13 * (1.0 + np.linalg.norm(u_b))

    records = []
    lam_history = [lam.copy()]
    inner_total = 0
    stop_reason = "max_outer"
    vt_y = np.zeros(n2)  # vb^T y at y = 0

    for k in range(options.max_outer):
        tol_a = EPS0 / (k + 1) ** 2 / np.sqrt(sigma)
        delta_k = DELTA_PRIME0 / (k + 1)
        inner_stop = "max_inner"
        for l in range(MAX_INNER + 1):
            resid = residual_F(y, lam, sigma, vb, u_b, reg, vt_y)
            norm_f = np.linalg.norm(resid)
            z = recover_z(vt_y, lam, sigma, reg)
            feas = vt_y + z
            lam_step = sigma * np.linalg.norm(feas)
            tol_b2 = delta_k / sigma * lam_step
            if norm_f <= floor:
                inner_stop = "floor"
                break
            if norm_f <= tol_a and norm_f <= tol_b2:
                inner_stop = "tolerance"
                break
            if l == MAX_INNER:
                break
            d = newton_step(y, lam, sigma, vb, reg, residual=resid, vt_y=vt_y)
            vt_d = vb.rmatvec(d)
            step, accepted, objective = armijo_search(y, d, lam, sigma, vt_y, vt_d, u_b, reg, options.beta,
                                                      max_backtracks=MAX_BACKTRACKS)
            if not accepted:
                warnings.warn("line search exhausted; taking smallest trial step", RuntimeWarning)
            y = y + step * d
            vt_y = vb.rmatvec(y)
            inner_total += 1
            records.append({
                "solver": "alm", "kind": "inner", "outer": k, "inner": l,
                "residual": float(norm_f), "objective": objective,
                "step": float(step), "accepted": accepted, "sigma": float(sigma),
            })
        lam_new = lam + sigma * feas
        mu = recover_mu(vt_y, reg) if reg.alpha0 > 0 else -lam_new
        primal = primal_objective(mu, vb, u_b, reg)
        gap, bound = certificate(primal, y, vt_y, u_b, reg)
        lam_change = np.linalg.norm(lam_new - lam) / max(1.0, np.linalg.norm(lam))
        records.append({
            "solver": "alm", "kind": "outer", "outer": k,
            "sigma": float(sigma), "gap": gap, "bound": bound,
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
        sigma = min(SIGMA_GROWTH * sigma, SIGMA_MAX)
        if lam_change <= options.lam_tol and (reg.alpha0 <= 0 or certified(mu, gap, bound, reg)):
            stop_reason = "certified" if reg.alpha0 > 0 else "multiplier_change"
            break

    return AlmResult(mu=mu, stop_reason=stop_reason, iterations=inner_total, records=records,
                     y=y, lam=lam, z=z, lam_history=lam_history, gap=gap, bound=bound)
