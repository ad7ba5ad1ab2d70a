"""Primal-side semismooth Newton solver with Moreau-Yosida path following.

Works in the source space: with B = vb^T vb + alpha0*I, the constraint
||B y||_inf <= alpha of the predual problem is replaced by a quadratic
penalty with weight gamma, and gamma is driven to infinity along a
schedule.  For each gamma the active sets

    A+ = {i : (B y)_i >= alpha},   A- = {i : (B y)_i <= -alpha}

induce the linear Newton system

    (B + gamma * B X B) y = -vb^T u_b + gamma*alpha*B (chi+ - chi-) 1,

iterated until the active sets repeat.  B and its Cholesky factor are
formed once per instance; this O(N^3) cost in the source dimension is
exactly what the measurement-space ALM avoids.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .prox import SolveResult, check_problem


@dataclass
class SsnOptions:
    gammas: tuple = tuple(10.0**i for i in range(0, 9))  # 1, 10, ..., 1e8
    max_inner: int = 50

    def __post_init__(self):
        if not all(b > a for a, b in zip(self.gammas, self.gammas[1:])):
            raise ValueError("gamma schedule must be strictly increasing")


@dataclass
class BOperator:
    """Dense B = vb^T vb + alpha0*I with its Cholesky factor."""

    matrix: np.ndarray = field(repr=False)
    factor: tuple = field(repr=False)

    def solve(self, rhs):
        return cho_solve(self.factor, rhs)


def build_b_operator(vb, reg):
    if reg.alpha0 <= 0:
        raise ValueError("B is positive definite only for alpha0 > 0")
    b = vb.T @ vb
    b[np.diag_indices_from(b)] += reg.alpha0
    return BOperator(matrix=b, factor=cho_factor(b, lower=True))


def active_sets(y, b, alpha):
    """Boolean masks (chi+, chi-, chi) of the penalized constraint components.

    The upper set is inclusive at +alpha, the lower at -alpha; for
    alpha > 0 the two cannot overlap.
    """
    w = b.matrix @ y
    plus = w >= alpha
    minus = w <= -alpha
    return plus, minus, plus | minus


def ssn_newton_solve(plus, minus, b, vt_ub, alpha, gamma, binv_c=None):
    """Newton solve (B + gamma*B X B) y = -vt_ub + gamma*alpha*B(chi+ - chi-)1.

    Left-multiplying by B^{-1} (whose factor is formed once per instance)
    turns the system into (I + gamma*X B) y = w with w = -B^{-1} vt_ub +
    gamma*alpha*(chi+ - chi-)1: inactive components are read off directly
    and the active block (B_AA + I/gamma) y_A = w_A/gamma - B_AI y_I is
    solved by Cholesky.  The active block stays well conditioned uniformly
    in gamma, unlike the unreduced 2N x 2N matrix.  `plus` and `minus` are
    the masks chi+ and chi- of `active_sets`.
    """
    if binv_c is None:
        binv_c = b.solve(vt_ub)
    if gamma == 0:
        return -binv_c
    signs = plus.astype(float) - minus.astype(float)
    active = plus | minus
    w = -binv_c + gamma * alpha * signs
    y = w.copy()
    if np.any(active):
        inactive = ~active
        baa = b.matrix[np.ix_(active, active)].copy()
        baa[np.diag_indices_from(baa)] += 1.0 / gamma
        rhs = w[active] / gamma - b.matrix[np.ix_(active, inactive)] @ w[inactive]
        try:
            factor = cho_factor(baa, lower=True)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("indefinite Newton system; alpha0 must be positive") from exc
        y[active] = cho_solve(factor, rhs)
    return y


def penalty_gradient(y, b, vt_ub, alpha, gamma):
    """Gradient of the penalized dual objective (no B^{-1} terms appear)."""
    bm = b.matrix
    w = bm @ y
    return w + vt_ub + gamma * (bm @ np.maximum(0.0, w - alpha)) + gamma * (
        bm @ np.minimum(0.0, w + alpha)
    )


def penalty_objective(y, b, vt_ub, alpha, gamma):
    """Penalized dual objective 1/2 y^T B y + y^T vt_ub + gamma/2 * violations^2."""
    w = b.matrix @ y
    up = np.maximum(0.0, w - alpha)
    lo = np.minimum(0.0, w + alpha)
    return 0.5 * float(y @ w) + float(y @ vt_ub) + 0.5 * gamma * (float(up @ up) + float(lo @ lo))


def path_follow(b, vt_ub, alpha, options=None):
    """Drive gamma along the schedule from y = 0, warm-starting each stage.

    Each stage iterates active-set detection and Newton solves until the
    sets repeat after a full step (the settled solve is then exact for the
    induced piecewise-linear system) or the Newton increment becomes
    negligible relative to the iterate.  The Newton direction satisfies
    H d = -grad E with H positive definite, so steps that fail to decrease
    the penalized objective are damped by an Armijo backtrack on the
    directional derivative; that keeps each stage monotone and rules out
    permanent active-set cycling.  Exceeding the inner cap keeps the
    current iterate with a warning.

    Returns (y, records, solves, converged): the final iterate, one record
    per Newton step taken (a solve whose direction is not a descent
    direction ends its stage unrecorded), the number of Newton solves, and
    whether every stage settled.
    """
    options = options or SsnOptions()
    y = np.zeros(b.matrix.shape[0])
    binv_c = b.solve(vt_ub)
    records = []
    solves = 0
    converged = True
    for gamma in options.gammas:
        prev = None
        full_step = False
        settled = False
        energy = penalty_objective(y, b, vt_ub, alpha, gamma)
        for it in range(options.max_inner):
            plus, minus, _ = active_sets(y, b, alpha)
            if (
                full_step
                and prev is not None
                and np.array_equal(plus, prev[0])
                and np.array_equal(minus, prev[1])
            ):
                settled = True
                break
            y_next = ssn_newton_solve(plus, minus, b, vt_ub, alpha, gamma, binv_c=binv_c)
            solves += 1
            d = y_next - y
            step = 1.0
            if np.linalg.norm(d) <= 1e-8 * (1.0 + np.linalg.norm(y)):
                # negligible Newton increment: floating-point fixed point even
                # if boundary components keep flickering between the sets
                y = y_next
                settled = True
            else:
                trial = penalty_objective(y_next, b, vt_ub, alpha, gamma)
                # full steps require strict decrease: an equal-energy plateau
                # would let two active-set configurations trade places forever
                if trial < energy:
                    y, energy, full_step = y_next, trial, True
                else:
                    grad = penalty_gradient(y, b, vt_ub, alpha, gamma)
                    slope = float(grad @ d)  # -d^T H d < 0 for the exact solve
                    full_step = False
                    if slope >= 0:
                        break  # numerically not a descent direction; keep iterate
                    step = 0.5
                    for _ in range(60):
                        cand = y + step * d
                        trial = penalty_objective(cand, b, vt_ub, alpha, gamma)
                        if trial <= energy + 1e-4 * step * slope:
                            break
                        step *= 0.5
                    y, energy = cand, trial
            prev = (plus, minus)
            records.append({
                "solver": "ssn", "kind": "inner", "gamma": float(gamma), "inner": it,
                "active": int(np.count_nonzero(plus) + np.count_nonzero(minus)),
                "step": 1.0 if full_step else float(step),
                "residual": float(np.linalg.norm(penalty_gradient(y, b, vt_ub, alpha, gamma))),
            })
            if settled:
                break
        if not settled:
            warnings.warn(f"active sets cycling at gamma={gamma:g}; keeping current iterate", RuntimeWarning)
            converged = False
    return y, records, solves, converged


def ssn_recover_mu(y, b, vt_ub):
    """Primal source mu = y + B^{-1} vb^T u_b via the stored factor."""
    return y + b.solve(vt_ub)


def solve_ssn(vb, u_b, reg, options=None):
    """Assemble B, run the gamma path, and recover the source.

    Stops on "path_end" (converged) when every stage settled, else on "cycling".
    """
    vb, u_b = check_problem(vb, u_b)
    b = build_b_operator(vb, reg)
    vt_ub = vb.T @ u_b
    y, records, solves, converged = path_follow(b, vt_ub, reg.alpha, options=options)
    return SolveResult(mu=ssn_recover_mu(y, b, vt_ub), converged=converged,
                       stop_reason="path_end" if converged else "cycling", iterations=solves, records=records)
