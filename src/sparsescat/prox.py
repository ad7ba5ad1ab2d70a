"""Proximal calculus shared by all solvers.

The regularizer is p(mu) = alpha0/2 ||mu||^2 + alpha ||mu||_1, applied
componentwise to realified vectors (anisotropic thresholding).  The data
term conjugate is h*(y) = 1/2 ||y||^2 + <y, u_b>.  `SolveResult` is
what every solver returns, and `cholesky_solve` is the factor-and-solve
of both Newton solvers, in scipy's BLAS like every product with vb (see
`realfield`).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .realfield import matvec


@dataclass
class SolveResult:
    """What `solve_alm`, `solve_ssn` and `solve_pda`, each called as (vb, u_b, reg, options), return.

    `iterations` counts innermost-loop steps: Newton solves for ALM and
    SSN, primal-dual steps for PDA.  `stop_reason` names the exit that
    ended the run, and `converged` is true exactly when it is a
    convergence exit:

    - ALM: "multiplier_change" or "duality_gap" (converged), "max_outer";
    - SSN: "path_end" (converged), "cycling" (some stage kept its iterate
      with active sets still changing);
    - PDA: "certified" (converged: the duality gap bounds ||mu - mu*|| by
      1e-5 ||mu||, possible only for alpha0 > 0), "max_iters".
    """

    mu: np.ndarray
    converged: bool
    stop_reason: str
    iterations: int
    records: list = field(repr=False)


@dataclass(frozen=True)
class RegParams:
    """Regularization weights: alpha for the L1 term, alpha0 for the L2 term."""

    alpha: float
    alpha0: float

    def __post_init__(self):
        # a NaN fails every comparison, so `not 0 <= x < inf` rejects it with inf and the negatives
        for name, value in (("alpha", self.alpha), ("alpha0", self.alpha0)):
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def soft_threshold(z, sigma):
    """Componentwise soft thresholding: 0 where |z_i| <= sigma, else z_i - sigma*sign(z_i).

    Ties |z_i| == sigma map to 0.
    """
    if sigma < 0:
        raise ValueError("threshold must be nonnegative")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - sigma, 0.0)


def prox_p(mu, sigma, reg):
    """Resolvent (I + sigma * dp)^{-1}(mu) of the combined L1+L2 regularizer.

    Closed form: soft_threshold(mu / (1 + sigma*alpha0), sigma*alpha / (1 + sigma*alpha0)).
    """
    if sigma <= 0:
        raise ValueError("step must be positive")
    scale = 1.0 + sigma * reg.alpha0
    return soft_threshold(np.asarray(mu, dtype=float) / scale, sigma * reg.alpha / scale)


def h_star(y, u_b):
    """Conjugate of h(y) = 1/2||y - u_b||^2, namely 1/2||y||^2 + <y, u_b>."""
    y = np.asarray(y, dtype=float)
    return 0.5 * float(y @ y) + float(y @ np.asarray(u_b, dtype=float))


def p_star(z, reg):
    """Conjugate of the regularizer p.

    For alpha0 > 0 this is sum_i max(|z_i| - alpha, 0)^2 / (2*alpha0); for
    alpha0 == 0 it is the indicator of the box ||z||_inf <= alpha (evaluated
    with a small relative slack so feasible-by-construction points stay finite).
    """
    z = np.asarray(z, dtype=float)
    excess = np.maximum(np.abs(z) - reg.alpha, 0.0)
    if reg.alpha0 > 0:
        return float(excess @ excess) / (2.0 * reg.alpha0)
    if np.max(excess, initial=0.0) <= 1e-12 * max(reg.alpha, 1.0):
        return 0.0
    return np.inf


def primal_objective(mu, vb, u_b, reg):
    """P(mu) = 1/2||vb@mu - u_b||^2 + alpha0/2 ||mu||^2 + alpha ||mu||_1, with vb@mu from `matvec`."""
    mu = np.asarray(mu, dtype=float)
    r = matvec(vb, mu) - u_b
    return (
        0.5 * float(r @ r)
        + 0.5 * reg.alpha0 * float(mu @ mu)
        + reg.alpha * float(np.sum(np.abs(mu)))
    )


def dual_objective(y, vt_y, u_b, reg):
    """D(y) = p*(-vb^T y) + h*(y), given vt_y = vb^T y; the dual problem minimizes D, and min P = max -D."""
    return p_star(-vt_y, reg) + h_star(y, u_b)


def cholesky_solve(matrix, rhs):
    """Solve matrix @ x = rhs for symmetric positive definite `matrix`, given by its lower triangle.

    The strict upper triangle is never read, and the matrix is not scanned
    for NaN or inf: the solvers' operands are checked by `realfield.check_problem`.
    RuntimeError is raised when the factorization fails, and when the
    solution is not finite, since OpenBLAS's potrf carries a NaN entry
    into the factor without reporting it.
    """
    try:
        factor = cho_factor(matrix, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("Newton matrix is not numerically positive definite") from exc
    x = cho_solve(factor, rhs, check_finite=False)
    if not np.isfinite(x).all():
        raise RuntimeError("Newton solve is not finite")
    return x
