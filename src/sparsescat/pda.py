"""First-order primal-dual (Chambolle-Pock) iteration on the saddle form.

Serves both as a baseline reconstruction method and as a high-accuracy
oracle for cross-validating the Newton-based solvers.  Both resolvents
are closed-form: the dual step is an affine shrink toward the data, the
primal step is the combined L1+L2 prox.

The oracle certifies itself.  For alpha0 > 0 the primal P is
alpha0-strongly convex, so any dual point p bounds the distance of the
iterate to the minimizer: ||mu - mu*|| <= sqrt(2 (P(mu) + D(p)) / alpha0).
The run stops once that bound, with the gap computed from PDA's own
iterates plus a rounding allowance, falls to CERTIFY_RTOL * ||mu||.
"""

from dataclasses import dataclass

import numpy as np

from .prox import SolveResult, check_problem, dual_objective, primal_objective, prox_p

CERTIFY_RTOL = 1e-5  # certified stop: distance bound <= CERTIFY_RTOL * ||mu||
GAP_ULPS = 4  # rounding allowance of the computed gap, in ulps of |P| + |D|


@dataclass
class PdaOptions:
    """Dual step sigma (the primal step tau follows from it by `default_steps`), the
    iteration cap, and the record interval, which is also how often the certificate is checked."""

    sigma: float = 0.5
    iters: int = 5000
    record_every: int = 50

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass
class PdaResult(SolveResult):
    """`SolveResult` with the final dual iterate p."""

    p: np.ndarray


def default_steps(vb, sigma=0.5):
    """Step sizes sigma = 0.5 and tau = 1/((||vb||^2 + 1e-6) * sigma).

    ||vb||^2 is the largest eigenvalue of the smaller Gram matrix, so
    sigma*tau*||vb||^2 <= 1, the standard convergence condition.
    """
    gram = vb @ vb.T if vb.shape[0] <= vb.shape[1] else vb.T @ vb
    norm_sq = float(np.linalg.eigvalsh(gram)[-1])
    tau = 1.0 / ((norm_sq + 1e-6) * sigma)
    return sigma, tau


def pda_dual_step(p, mu_bar, vb, u_b, sigma):
    """Resolvent of the data-term conjugate: (p + sigma*(vb@mu_bar - u_b)) / (1+sigma)."""
    return (p + sigma * (vb @ mu_bar) - sigma * u_b) / (1.0 + sigma)


def pda_primal_step(mu, p_next, vb, tau, reg):
    """Prox step on the regularizer at mu - tau * vb^T p_next."""
    return prox_p(mu - tau * (vb.T @ p_next), tau, reg)


def solve_pda(vb, u_b, reg, options=None):
    """Run the three-line loop with extrapolation mu_bar = 2*mu_next - mu.

    Every `record_every` steps (and at the last) it records the primal
    objective and its running minimum, since the per-iterate objective is
    not monotone.  For alpha0 > 0 the record also holds the duality gap
    P(mu) + D(p) and the bound sqrt(2*(gap + allowance)/alpha0) on
    ||mu - mu*|| (see the module docstring); the run stops with reason
    "certified" (converged) once that bound is <= CERTIFY_RTOL * ||mu||.
    A run that does not certify within `iters` steps stops on "max_iters";
    so does every run with alpha0 = 0, whose dual is an indicator that
    bounds nothing.
    """
    vb, u_b = check_problem(vb, u_b)
    options = options or PdaOptions()
    sigma, tau = default_steps(vb, options.sigma)
    p = np.zeros(vb.shape[0])
    mu = np.zeros(vb.shape[1])
    mu_bar = mu.copy()
    records = []
    best = np.inf
    converged = False
    for it in range(1, options.iters + 1):
        p = pda_dual_step(p, mu_bar, vb, u_b, sigma)
        mu_next = pda_primal_step(mu, p, vb, tau, reg)
        mu_bar = mu_next + (mu_next - mu)
        mu = mu_next
        if it % options.record_every == 0 or it == options.iters:
            primal = primal_objective(mu, vb, u_b, reg)
            best = min(best, primal)
            rec = {"solver": "pda", "kind": "inner", "inner": it,
                   "objective": float(primal), "best_objective": float(best)}
            records.append(rec)
            if reg.alpha0 > 0:
                dual = dual_objective(p, vb.T @ p, u_b, reg)
                # the gap is computed in floating point: allow GAP_ULPS ulps of |P| + |D| for its rounding
                allowance = GAP_ULPS * np.spacing(abs(primal) + abs(dual))
                rec["gap"] = float(primal + dual)
                rec["bound"] = float(np.sqrt(2.0 * max(rec["gap"] + allowance, 0.0) / reg.alpha0))
                if rec["bound"] <= CERTIFY_RTOL * np.linalg.norm(mu):
                    converged = True
                    break
    return PdaResult(mu=mu, converged=converged, stop_reason="certified" if converged else "max_iters",
                     iterations=it, records=records, p=p)
