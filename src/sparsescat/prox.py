"""Proximal calculus shared by all solvers.

The regularizer is p(mu) = alpha0/2 ||mu||^2 + alpha ||mu||_1, applied
componentwise to realified vectors (anisotropic thresholding).  The data
term conjugate is h*(y) = 1/2 ||y||^2 + <y, u_b>.  `check_problem` is
the entry check that every solver applies to (vb, u_b), and `SolveResult`
is what every solver returns.
"""

from dataclasses import dataclass, field

import numpy as np


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
    - PDA: "duality_gap" (converged), "max_iters".
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
        if self.alpha < 0 or self.alpha0 < 0:
            raise ValueError("regularization weights must be nonnegative")


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
    """P(mu) = 1/2||vb@mu - u_b||^2 + alpha0/2 ||mu||^2 + alpha ||mu||_1."""
    mu = np.asarray(mu, dtype=float)
    r = vb @ mu - u_b
    return (
        0.5 * float(r @ r)
        + 0.5 * reg.alpha0 * float(mu @ mu)
        + reg.alpha * float(np.sum(np.abs(mu)))
    )


def dual_objective(y, vb, u_b, reg, vt_y=None):
    """D(y) = p*(-vb^T y) + h*(y); the dual problem minimizes D, and min P = max -D.

    `vt_y`, when given, is vb^T y and saves the product.
    """
    y = np.asarray(y, dtype=float)
    if vt_y is None:
        vt_y = vb.T @ y
    return p_star(-vt_y, reg) + h_star(y, u_b)


def check_problem(vb, u_b):
    """Solver-entry check of the realified operator and data; returns both as float arrays.

    Raises ValueError naming the argument when vb is not a 2-D array with
    even dimensions, when u_b does not have shape (vb.shape[0],), or when
    either holds NaN or inf.
    """
    vb = np.asarray(vb, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    if vb.ndim != 2 or vb.shape[0] % 2 or vb.shape[1] % 2:
        raise ValueError(f"vb must be a 2-D array with even dimensions, got shape {vb.shape}")
    if u_b.shape != (vb.shape[0],):
        raise ValueError(f"u_b must have shape ({vb.shape[0]},) to match vb, got {u_b.shape}")
    if not np.isfinite(vb).all():
        raise ValueError("vb contains NaN or inf")
    if not np.isfinite(u_b).all():
        raise ValueError("u_b contains NaN or inf")
    return vb, u_b
