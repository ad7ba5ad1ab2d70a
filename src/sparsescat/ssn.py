"""Primal-side semismooth Newton solver with Moreau-Yosida path following.

Works in the source space on the source mu itself.  With
B = vb^T vb + alpha0*I and c = vb^T u_b, the source solves

    min 1/2 mu^T B mu   subject to   ||B mu - c||_inf <= alpha,

the predual problem shifted by B^{-1} c, whose multiplier is -mu.  The
constraint is replaced by a quadratic penalty with weight gamma, and
gamma is driven to infinity along a schedule.  For each gamma the active
sets

    A+ = {i : w_i >= alpha},   A- = {i : w_i <= -alpha},   w = B mu - c,

induce the Newton system

    mu_I = 0,   (B_AA + I/gamma) mu_A = (c + alpha*(chi+ - chi-))_A,

iterated until the active sets repeat.  The dense 2N x 2N matrix B is
formed once per instance, an O(M N^2) product and 8(2N)^2 bytes in the
source dimension, about half of them resident (`realfield.normal`);
that cost is exactly what the measurement-space ALM avoids.
`realfield.normal` writes B's lower triangle, and B is read only
through its active blocks: each Newton solve gathers B_AA and
factors that block's lower triangle, and B itself is never factored.
Every product B x is two products with vb, vb^T (vb x) + alpha0*x.
The path starts at the ridge solution mu0 = B^{-1} c, where w = 0,
solved once in the measurement space by the push-through identity

    (vb^T vb + alpha0*I)^{-1} vb^T = vb^T (vb vb^T + alpha0*I)^{-1},

that is one Cholesky of the 2M x 2M Gram matrix G = vb vb^T + alpha0*I.
w is carried beside mu, so an undamped Newton step makes one product
B x: w = B mu - c for the new iterate, which the active sets and the
penalized objective read.  The penalty gradient is formed only for the
slope of a damped step; the record's residual is ||B^{-1} grad E||,
which needs no product.

Every product goes through `realfield`, in scipy's BLAS, the library of
the Cholesky factors: `realfield.normal` forms B, `realfield.gram` G,
and `realfield.matvec` and `realfield.rmatvec` give vb^T u_b, the start
and every B x, the same product path as ALM and PDA.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .prox import SolveResult, cholesky_solve
from .realfield import check_problem, gram, matvec, normal, rmatvec


MAX_INNER = 50  # Newton solves per gamma stage before the stage keeps its iterate


@dataclass
class SsnOptions:
    gammas: tuple = tuple(10.0**i for i in range(0, 9))  # 1, 10, ..., 1e8

    def __post_init__(self):
        self.gammas = tuple(self.gammas)
        if len(self.gammas) == 0:
            raise ValueError("gamma schedule must not be empty")
        if not all(0 <= gamma < np.inf for gamma in self.gammas):
            raise ValueError(f"gamma schedule gammas must be finite and nonnegative, got {self.gammas}")
        if not all(b > a for a, b in zip(self.gammas, self.gammas[1:])):
            raise ValueError("gamma schedule must be strictly increasing")


@dataclass
class BOperator:
    """Dense B = vb^T vb + alpha0*I, the Cholesky factor of G = vb vb^T + alpha0*I, and vb and alpha0 themselves.

    `matrix` is the source-space cost: 8(2N)^2 bytes, about half of them
    resident (`realfield.normal`), formed once by an O(M N^2) product and
    read only through the active blocks B_AA of `ssn_newton_solve`.
    `factor` is the (lower) `cho_factor` of the 2M x 2M Gram matrix G,
    8(2M)^2 bytes and O(M^3) flops, which gives
    the path's start B^{-1} vb^T u_b = vb^T cho_solve(factor, u_b).

    `matrix` is C-ordered and holds B in its lower triangle, diagonal
    included; its strict upper triangle is unspecified and never read.
    C order keeps the row gather of B_AA contiguous, which is several
    times slower on a Fortran-ordered B.
    """

    matrix: np.ndarray = field(repr=False)
    factor: tuple = field(repr=False)
    vb: np.ndarray = field(repr=False)
    alpha0: float

    def dot(self, x):
        """B x = vb^T (vb x) + alpha0*x, by `realfield`'s products with vb: `matrix` is not read."""
        return rmatvec(self.vb, matvec(self.vb, x)) + self.alpha0 * x


def build_b_operator(vb, reg):
    if reg.alpha0 <= 0:
        raise ValueError("B is positive definite only for alpha0 > 0")
    b = normal(vb)
    b[np.diag_indices_from(b)] += reg.alpha0
    g = gram(vb)
    g[np.diag_indices_from(g)] += reg.alpha0
    return BOperator(matrix=b, factor=cho_factor(g, lower=True), vb=vb, alpha0=reg.alpha0)


def active_sets(w, alpha):
    """Boolean masks (chi+, chi-) of the penalized constraint components, given w = B mu - vb^T u_b.

    The upper set is inclusive at +alpha, the lower at -alpha; for
    alpha > 0 the two cannot overlap.
    """
    return w >= alpha, w <= -alpha


def ssn_newton_solve(plus, minus, b, vt_ub, alpha, gamma):
    """Newton solve mu_I = 0, (B_AA + I/gamma) mu_A = (vt_ub + alpha*(chi+ - chi-))_A.

    This is the stationarity condition mu + gamma*X (B mu - vt_ub -
    alpha*(chi+ - chi-)) = 0 of the penalized objective with the active
    sets frozen, X the diagonal mask of A = A+ | A-.  Inactive components
    vanish, and only the active block, which stays well conditioned
    uniformly in gamma, is gathered and solved by Cholesky; the gather
    keeps the index order, so B_AA's lower triangle comes from B's.
    `plus` and `minus` are the masks chi+ and chi- of `active_sets`;
    gamma = 0 or an empty A gives mu = 0.
    """
    mu = np.zeros(b.matrix.shape[0])
    active = plus | minus
    if gamma == 0 or not np.any(active):
        return mu
    baa = b.matrix[np.ix_(active, active)]
    baa[np.diag_indices_from(baa)] += 1.0 / gamma
    rhs = vt_ub[active] + alpha * (plus[active].astype(float) - minus[active].astype(float))
    mu[active] = cholesky_solve(baa, rhs)
    return mu


def violation(w, alpha):
    """max(0, w - alpha) + min(0, w + alpha): the two violations of |w| <= alpha, disjoint for alpha >= 0."""
    return np.maximum(0.0, w - alpha) + np.minimum(0.0, w + alpha)


def penalty_gradient(w, b, vt_ub, alpha, gamma):
    """Gradient B mu + gamma*B*violations of the penalized objective, given w = B mu - vt_ub.

    The two violations make one product with B: for alpha >= 0 they have
    disjoint supports.
    """
    return w + vt_ub + gamma * b.dot(violation(w, alpha))


def penalty_objective(mu, w, vt_ub, alpha, gamma):
    """Penalized objective 1/2 mu^T B mu + gamma/2 * violations^2, given w = B mu - vt_ub."""
    v = violation(w, alpha)
    return 0.5 * float(mu @ (w + vt_ub)) + 0.5 * gamma * float(v @ v)


def path_follow(b, vt_ub, mu0, alpha, options=None):
    """Drive gamma along the schedule from mu0 = B^{-1} vt_ub, warm-starting each stage.

    Each stage iterates active-set detection and Newton solves until the
    sets repeat after a full step (the settled solve is then exact for the
    induced piecewise-linear system) or the Newton increment becomes
    negligible relative to the iterate.  The Newton direction satisfies
    H d = -grad E with H positive definite, so steps that fail to decrease
    the penalized objective are damped by an Armijo backtrack on the
    directional derivative; that keeps each stage monotone and rules out
    permanent active-set cycling.  Exceeding the inner cap keeps the
    current iterate with a warning.

    w = B mu - vt_ub is carried beside mu: it is 0 at mu0, and formed by
    one product `b.dot` per Newton solve and per backtracking trial.  A
    damped step makes one more, the penalty gradient for its slope.  Each
    product is two `realfield` products with vb, vb^T (vb x) + alpha0*x;
    the dense B is formed once, by `build_b_operator`, and read only
    through the active blocks B_AA of `ssn_newton_solve`.

    Each record's "residual" is ||mu + gamma*violation(w, alpha)||.  The
    gradient of the penalized objective is B times that vector, so the
    residual is ||B^{-1} grad E||: it needs no product with B and is zero
    exactly where the gradient is.

    Returns (mu, records, solves, converged): the final iterate, one record
    per Newton step taken (a solve whose direction is not a descent
    direction ends its stage unrecorded), the number of Newton solves, and
    whether every stage settled.
    """
    options = options or SsnOptions()
    mu = mu0
    w = np.zeros_like(mu0)
    records = []
    solves = 0
    converged = True
    for gamma in options.gammas:
        prev = None
        full_step = False
        settled = False
        energy = penalty_objective(mu, w, vt_ub, alpha, gamma)
        for it in range(MAX_INNER):
            plus, minus = active_sets(w, alpha)
            if full_step and np.array_equal(plus, prev[0]) and np.array_equal(minus, prev[1]):
                settled = True
                break
            mu_next = ssn_newton_solve(plus, minus, b, vt_ub, alpha, gamma)
            solves += 1
            w_next = b.dot(mu_next) - vt_ub
            d = mu_next - mu
            step = 1.0
            if np.linalg.norm(d) <= 1e-8 * (1.0 + np.linalg.norm(mu)):
                # negligible Newton increment: floating-point fixed point even
                # if boundary components keep flickering between the sets
                mu, w = mu_next, w_next
                settled = True
            else:
                trial = penalty_objective(mu_next, w_next, vt_ub, alpha, gamma)
                # full steps require strict decrease: an equal-energy plateau
                # would let two active-set configurations trade places forever
                if trial < energy:
                    mu, w, energy, full_step = mu_next, w_next, trial, True
                else:
                    grad = penalty_gradient(w, b, vt_ub, alpha, gamma)
                    slope = float(grad @ d)  # -d^T H d < 0 for the exact solve
                    full_step = False
                    if slope >= 0:
                        break  # numerically not a descent direction; keep iterate
                    step = 0.5
                    for _ in range(60):
                        cand = mu + step * d
                        w_cand = b.dot(cand) - vt_ub
                        trial = penalty_objective(cand, w_cand, vt_ub, alpha, gamma)
                        if trial <= energy + 1e-4 * step * slope:
                            break
                        step *= 0.5
                    mu, w, energy = cand, w_cand, trial
            prev = (plus, minus)
            records.append({
                "solver": "ssn", "kind": "inner", "gamma": float(gamma), "inner": it,
                "active": int(np.count_nonzero(plus) + np.count_nonzero(minus)),
                "step": 1.0 if full_step else float(step),
                "residual": float(np.linalg.norm(mu + gamma * violation(w, alpha))),
            })
            if settled:
                break
        if not settled:
            warnings.warn(f"active sets cycling at gamma={gamma:g}; keeping current iterate", RuntimeWarning)
            converged = False
    return mu, records, solves, converged


def solve_ssn(vb, u_b, reg, options=None):
    """Assemble B and follow the gamma path from mu0 = B^{-1} vb^T u_b to the source.

    mu0 is vb^T G^{-1} u_b, from the factor of the Gram matrix G.  Stops
    on "path_end" (converged) when every stage settled, else on "cycling".
    """
    vb, u_b = check_problem(vb, u_b)
    b = build_b_operator(vb, reg)
    mu0 = rmatvec(vb, cho_solve(b.factor, u_b))
    mu, records, solves, converged = path_follow(b, rmatvec(vb, u_b), mu0, reg.alpha, options=options)
    return SolveResult(mu=mu, converged=converged,
                       stop_reason="path_end" if converged else "cycling", iterations=solves, records=records)
