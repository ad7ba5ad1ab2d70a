"""Primal-side semismooth Newton solver with Moreau-Yosida path following.

Works in the source space on the source mu itself.  With
B = vb^T vb + alpha0*I and c = vb^T u_b, the source solves

    min 1/2 mu^T B mu   subject to   ||B mu - c||_inf <= alpha,

the predual problem shifted by B^{-1} c, whose multiplier is -mu.  The
constraint is replaced by a quadratic penalty with weight gamma, and
gamma grows stage by stage (Moreau-Yosida path following: Hintermueller
& Kunisch, SIAM J. Optim. 17 (2006) 159-187) until the source
certifies: after each stage the dual point y = vb mu - u_b bounds
||mu - mu*|| by the duality gap (`prox.certificate`, as in the Gap Safe
rules of Ndiaye et al., JMLR 18 (2017)).  For each gamma the active
sets

    A+ = {i : w_i >= alpha},   A- = {i : w_i <= -alpha},   w = B mu - c,

induce the Newton system

    mu_I = 0,   (B_AA + I/gamma) mu_A = (c + alpha*(chi+ - chi-))_A,

iterated until the active sets repeat.  The dense 2N x 2N matrix B is
formed once per instance, an O(M N^2) product and 8(2N)^2 bytes in the
source dimension, about half of them resident (`realfield.normal`);
that cost is exactly what the measurement-space ALM avoids.  B and the
Gram matrix G below are formed from one transient realified copy of the
operator (`MeasurementOperator.dense`), which is dropped before the path.
`realfield.normal` writes B's lower triangle, and B is read only
through its active blocks: each Newton solve gathers B_AA and
factors that block's lower triangle, and B itself is never factored.
Every product B x is two products with vb, vb^T (vb x) + alpha0*x, each
one `zgemv` on the complex matrix T.
The path starts at the ridge solution mu0 = B^{-1} c, where w = 0,
solved once in the measurement space by the push-through identity

    (vb^T vb + alpha0*I)^{-1} vb^T = vb^T (vb vb^T + alpha0*I)^{-1},

that is one Cholesky of the 2M x 2M Gram matrix G = vb vb^T + alpha0*I.
w is carried beside mu, so an undamped Newton step makes one product
B x: w = B mu - c for the new iterate, which the active sets and the
penalized objective read.  A damped step adds one per backtracking
trial and none for its slope, which reads B d from the two carried w;
the record's residual is ||B^{-1} grad E||, which needs no product.

Every product goes through `realfield`, in scipy's BLAS, the library of
the Cholesky factors: `realfield.normal` forms B, `realfield.gram` G,
and the operator's `matvec` and `rmatvec` give vb^T u_b, the start and
every B x, the same product path as ALM and PDA.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .prox import CERTIFY_RTOL, SolveResult, certificate, cholesky_solve, primal_objective
from .realfield import MeasurementOperator, check_problem, gram, normal


MAX_INNER = 50  # Newton solves per gamma stage before the stage keeps its iterate
# The gamma path grows x100 per stage from 1, up to MAX_GAMMA.  On the benchmark's m64 instance (64
# receivers, 64^2 nodes) it certifies at 1e14 after 18 Newton solves; at x10 it needs 29, since its
# stage at 1e12 bounds ||mu - mu*|| by 1.0003e-5 ||mu||, just above CERTIFY_RTOL.
GAMMA_GROWTH = 100.0
MAX_GAMMA = 1e16


@dataclass
class SsnOptions:
    """SSN has no options: the gamma path runs until the source certifies (see `path_follow`)."""


@dataclass
class BOperator:
    """Dense B = vb^T vb + alpha0*I, the Cholesky factor of G = vb vb^T + alpha0*I, and the operator vb and alpha0.

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
    vb: MeasurementOperator = field(repr=False)
    alpha0: float

    def dot(self, x):
        """B x = vb^T (vb x) + alpha0*x, by the operator's zgemv products: `matrix` is not read."""
        return self.vb.rmatvec(self.vb.matvec(x)) + self.alpha0 * x


def build_b_operator(vb, reg):
    """B and G's factor from one realified copy of the `MeasurementOperator` vb, which dies on return."""
    if reg.alpha0 <= 0:
        raise ValueError("B is positive definite only for alpha0 > 0")
    dense = vb.dense()
    b = normal(dense)
    b[np.diag_indices_from(b)] += reg.alpha0
    g = gram(dense)
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


def penalty_objective(mu, w, vt_ub, alpha, gamma):
    """Penalized objective 1/2 mu^T B mu + gamma/2 * violations^2, given w = B mu - vt_ub."""
    v = violation(w, alpha)
    return 0.5 * float(mu @ (w + vt_ub)) + 0.5 * gamma * float(v @ v)


def ssn_stage(b, vt_ub, mu, w, alpha, gamma):
    """One gamma stage of the path: Newton solves at fixed gamma from mu, with w = B mu - vt_ub.

    The stage iterates active-set detection and Newton solves until the
    sets repeat after a full step (the settled solve is then exact for the
    induced piecewise-linear system) or the Newton increment becomes
    negligible relative to the iterate.  The Newton direction satisfies
    H d = -grad E with H positive definite, so steps that fail to decrease
    the penalized objective are damped by an Armijo backtrack on the
    directional derivative; that keeps the stage monotone and rules out
    active sets that trade places forever.  Exceeding the inner cap keeps
    the current iterate with a warning.

    w is carried beside mu, formed by one product `b.dot` per Newton solve
    and per backtracking trial.  The slope of a damped step,
    grad E . d = (mu + gamma*violation(w)) . B d, makes none: B d is
    w_next - w, the two carried w of mu and of the Newton iterate mu + d.
    Each product is two `realfield` products with vb, vb^T (vb x) + alpha0*x;
    the dense B is read only through the active blocks B_AA of
    `ssn_newton_solve`.

    Each inner record's "residual" is ||mu + gamma*violation(w, alpha)||.
    The gradient of the penalized objective is B times that vector, so the
    residual is ||B^{-1} grad E||: it needs no product with B and is zero
    exactly where the gradient is.

    Returns (mu, w, solves, records): the stage's last iterate and its w,
    the number of Newton solves, one "inner" record per Newton step taken
    (a solve whose direction is not a descent direction ends the stage
    unrecorded), and last a "stage" record: whether it settled, and the
    size of its last active set.
    """
    records = []
    solves = 0
    prev = None
    full_step = settled = False
    energy = penalty_objective(mu, w, vt_ub, alpha, gamma)
    for it in range(MAX_INNER):
        plus, minus = active_sets(w, alpha)
        active = int(np.count_nonzero(plus) + np.count_nonzero(minus))
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
                # grad E . d with B d = w_next - w; -d^T H d < 0 for the exact solve
                slope = float((mu + gamma * violation(w, alpha)) @ (w_next - w))
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
            "active": active, "step": float(step),
            "residual": float(np.linalg.norm(mu + gamma * violation(w, alpha))),
        })
        if settled:
            break
    records.append({"solver": "ssn", "kind": "stage", "gamma": float(gamma), "settled": settled, "active": active})
    if not settled:
        warnings.warn(f"gamma stage {gamma:g} did not settle; keeping current iterate", RuntimeWarning)
    return mu, w, solves, records


def path_follow(b, u_b, mu0, reg):
    """Drive gamma from 1 up by GAMMA_GROWTH per stage, warm-starting each `ssn_stage`, until the source certifies.

    w = B mu - vt_ub is carried from stage to stage: it is 0 at
    mu0 = B^{-1} vt_ub, with vt_ub = vb^T u_b.  After each stage the
    dual point y = vb mu - u_b gives the `certificate` of mu, and the
    stage record holds its gap and bound.  vb^T y is formed by its own
    product: w - alpha0*mu equals it in exact arithmetic, but carries the
    rounding of the two large terms of w, which cancel, and near the
    minimizer that rounding can exceed the certificate's allowance (on a
    12 x 48 test instance it gave a gap of -1.7e-17 against an allowance
    of 9e-19, so a bound of 0).  The path stops on "certified" once the
    bound is at most CERTIFY_RTOL * ||mu||, and on "max_gamma" when the
    next gamma would pass MAX_GAMMA.  Returns the `SolveResult`, whose
    `iterations` counts the Newton solves of every stage.
    """
    vt_ub = b.vb.rmatvec(u_b)
    mu, w = mu0, np.zeros_like(mu0)
    records, solves = [], 0
    gamma, stop_reason = 1.0, "max_gamma"
    while gamma <= MAX_GAMMA:
        mu, w, stage_solves, stage_records = ssn_stage(b, vt_ub, mu, w, reg.alpha, gamma)
        solves += stage_solves
        y = b.vb.matvec(mu) - u_b
        gap, bound = certificate(primal_objective(mu, b.vb, u_b, reg), y, b.vb.rmatvec(y), u_b, reg)
        stage_records[-1].update(gap=gap, bound=bound)
        records += stage_records
        if bound <= CERTIFY_RTOL * np.linalg.norm(mu):
            stop_reason = "certified"
            break
        gamma *= GAMMA_GROWTH
    return SolveResult(mu=mu, stop_reason=stop_reason, iterations=solves, records=records, gap=gap, bound=bound)


def solve_ssn(vb, u_b, reg, options=None):
    """Assemble B and follow the gamma path from mu0 = B^{-1} vb^T u_b until the source certifies.

    mu0 is vb^T G^{-1} u_b, from the factor of the Gram matrix G.  Stops
    on "certified" (converged) or "max_gamma" (see `path_follow`).
    `SsnOptions` has no fields: the gamma path is set by the certificate.
    """
    vb, u_b = check_problem(vb, u_b)
    b = build_b_operator(vb, reg)
    return path_follow(b, u_b, vb.rmatvec(cho_solve(b.factor, u_b)), reg)
