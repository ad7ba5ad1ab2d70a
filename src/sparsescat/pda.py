"""First-order primal-dual (Chambolle-Pock) iteration on the saddle form.

Serves both as a baseline reconstruction method and, run long enough on
small instances, as a high-accuracy oracle for cross-validating the
Newton-based solvers.  Both resolvents are closed-form: the dual step is
an affine shrink toward the data, the primal step is the combined L1+L2
prox.
"""

from dataclasses import dataclass

import numpy as np

from .prox import SolveResult, check_problem, dual_objective, primal_objective, prox_p


@dataclass
class PdaOptions:
    """Steps sigma and tau (None: `default_steps`), iteration count, extrapolation
    theta, record interval, and the relative duality-gap tolerance (None: no gap exit)."""

    sigma: float = 0.5
    tau: float = None
    iters: int = 5000
    theta: float = 1.0
    record_every: int = 50
    gap_tol: float = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass
class PdaResult(SolveResult):
    """`SolveResult` with the final dual iterate p."""

    p: np.ndarray


def spectral_norm(vb, iters=50):
    """Largest singular value of vb estimated by power iteration on vb^T vb."""
    vb = np.asarray(vb, dtype=float)
    x = np.full(vb.shape[1], 1.0 / np.sqrt(vb.shape[1]))
    s = 0.0
    for _ in range(iters):
        y = vb.T @ (vb @ x)
        s = np.linalg.norm(y)
        if s == 0.0:
            return 0.0
        x = y / s
    return float(np.sqrt(s))


def default_steps(vb, sigma=0.5):
    """Step sizes sigma = 0.5 and tau = 1/((||vb||^2 + 1e-6) * sigma).

    The squared spectral norm makes sigma*tau*||vb||^2 <= 1, the standard
    convergence condition.
    """
    tau = 1.0 / ((spectral_norm(vb) ** 2 + 1e-6) * sigma)
    return sigma, tau


def pda_dual_step(p, mu_bar, vb, u_b, sigma):
    """Resolvent of the data-term conjugate: (p + sigma*(vb@mu_bar - u_b)) / (1+sigma)."""
    return (p + sigma * (vb @ mu_bar) - sigma * u_b) / (1.0 + sigma)


def pda_primal_step(mu, p_next, vb, tau, reg):
    """Prox step on the regularizer at mu - tau * vb^T p_next."""
    return prox_p(mu - tau * (vb.T @ p_next), tau, reg)


def solve_pda(vb, u_b, reg, options=None):
    """Run the three-line loop with extrapolation theta (default 1).

    Records the primal objective trajectory every `record_every` steps;
    the per-iterate objective is not monotone, so its running minimum is
    also tracked.  An optional duality-gap early exit applies only when
    alpha0 > 0 (otherwise the dual value is an indicator); the result is
    `converged`, with stop reason "duality_gap", only when that exit
    fired, and otherwise stops on "max_iters".
    """
    vb, u_b = check_problem(vb, u_b)
    options = options or PdaOptions()
    sigma, tau = options.sigma, options.tau
    if tau is None:
        sigma, tau = default_steps(vb, sigma)
    p = np.zeros(vb.shape[0])
    mu = np.zeros(vb.shape[1])
    mu_bar = mu.copy()
    records = []
    best = np.inf
    converged = False
    for it in range(1, options.iters + 1):
        p = pda_dual_step(p, mu_bar, vb, u_b, sigma)
        mu_next = pda_primal_step(mu, p, vb, tau, reg)
        mu_bar = mu_next + options.theta * (mu_next - mu)
        mu = mu_next
        if it % options.record_every == 0 or it == options.iters:
            primal = primal_objective(mu, vb, u_b, reg)
            best = min(best, primal)
            rec = {"solver": "pda", "kind": "inner", "inner": it,
                   "objective": float(primal), "best_objective": float(best)}
            if options.gap_tol is not None and reg.alpha0 > 0:
                gap = primal + dual_objective(p, vb, u_b, reg)
                rec["gap"] = float(gap)
                records.append(rec)
                if gap <= options.gap_tol * (1.0 + abs(primal)):
                    converged = True
                    break
            else:
                records.append(rec)
    return PdaResult(mu=mu, converged=converged, stop_reason="duality_gap" if converged else "max_iters",
                     iterations=it, records=records, p=p)
