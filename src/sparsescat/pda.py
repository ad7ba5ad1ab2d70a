"""First-order primal-dual (Chambolle-Pock) iteration on the saddle form.

Serves both as a baseline reconstruction method and as a high-accuracy
oracle for cross-validating the Newton-based solvers.  Both resolvents
are closed-form: the dual step is an affine shrink toward the data, the
primal step is the combined L1+L2 prox.

Each step reads only the columns of vb that can matter, and every
product goes through `realfield` (see there for the BLAS rule):

- The dual step needs vb @ mu_bar, which `realfield.matvec` sums over
  supp mu_bar once it is small; the iterate is sparse (at most 32 of
  8192 entries on the 64-receiver desk-geometry instance).
- The primal step needs (vb^T p)_j only where the prox can be nonzero.
  A safe screen (after El Ghaoui, Viallon & Rabbani, 2012) keeps a
  reference dual point p_ref with |vb^T p_ref|.  By Cauchy-Schwarz,
  |(vb^T p)_j| <= |(vb^T p_ref)_j| + ||vb_j|| ||p - p_ref||, and any
  computed inner product of length 2M is within gamma_2M ||vb_j|| ||p||
  of the exact one, whatever the summation order.  A j with mu_j = 0 at
  which this bound (with rounding slack) is <= alpha has a computed
  |(vb^T p)_j| <= alpha, so its prox is exactly 0 however the product is
  formed.  Only the other indices, the candidates, are computed; when
  there are more than 2M of them the product is dense and its point
  becomes the new reference.  The iterates are those of the dense loop
  up to the rounding of the products.  With alpha = 0 every index is a
  candidate (barring zero columns, or p = 0), and every product is dense.
  On an operator with fewer than SCREEN_MIN_ENTRIES entries the test
  costs more than the dense product it could save, so it is not run and
  every adjoint is dense.

The oracle certifies itself.  For alpha0 > 0 the primal P is
alpha0-strongly convex, so any dual point p bounds the distance of the
iterate to the minimizer: ||mu - mu*|| <= sqrt(2 (P(mu) + D(p)) / alpha0).
The run stops once that bound, with the gap computed from PDA's own
iterates plus a rounding allowance, falls to CERTIFY_RTOL * ||mu||.
D(p) needs all of vb^T p, so each record makes the dense product, and
the step at a record uses it (and refreshes the screen from it): the
certificate is computed exactly as without screening.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh

from .prox import SolveResult, dual_objective, primal_objective, prox_p
from .realfield import check_problem, column_norms, columns, gram, matvec, rmatvec

CERTIFY_RTOL = 1e-5  # certified stop: distance bound <= CERTIFY_RTOL * ||mu||
GAP_ULPS = 4  # rounding allowance of the computed gap, in ulps of |P| + |D|
# Rounding slack of the adjoint screen, in eps per term of its 2M-term inner products.  A computed
# entry of vb^T p is within gamma_2M ||vb_j|| ||p|| of the exact one, gamma_2M ~ (2M/2) eps for any
# summation order, and the norms, products and sums of the screen's own test round by about as much
# again; slack = SCREEN_EPS_PER_TERM * (2M + 4) eps covers both with room.
SCREEN_EPS_PER_TERM = 2
# The screen's candidate test costs about 15-25 us per step whatever the size (a dozen numpy calls), and
# a dense vb^T p over fewer than 2^16 entries of vb costs less than that (2 cores, OpenBLAS: 2 us at
# 12 x 48, 14-15 us at 2^16 entries, 226 us at 128 x 8192); on such operators every adjoint is dense.
SCREEN_MIN_ENTRIES = 2**16


@dataclass
class PdaOptions:
    """Dual step sigma (the primal step tau follows from it by `default_steps`), the
    iteration cap, and the record interval, which is also how often the certificate is checked."""

    sigma: float = 0.5
    iters: int = 5000
    record_every: int = 50

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


class AdjointScreen:
    """Safe screen of vb^T p for the primal step (see the module docstring).

    Holds vb, the column norms ||vb_j||, and the reference point p_ref
    with |vb^T p_ref|, which starts at p_ref = 0.  `limit` is the most
    candidates a screened product may have, 2M, or 0 where the test is
    not run (fewer than SCREEN_MIN_ENTRIES entries).  `dense` counts the
    dense products; where the screen runs, each of them refreshes the
    reference.
    """

    def __init__(self, vb, alpha):
        m2 = vb.shape[0]
        self.vb = vb
        self.col_norms = column_norms(vb)
        self.slack = SCREEN_EPS_PER_TERM * (m2 + 4) * np.finfo(float).eps
        self.threshold = alpha * (1.0 - self.slack)  # so that a rounded "<=" still means "<= alpha"
        self.limit = m2 if m2 * vb.shape[1] >= SCREEN_MIN_ENTRIES else 0
        self.dense = 0
        self.p_ref, self.abs_ref, self.ref_norm = np.zeros(m2), np.zeros(vb.shape[1]), 0.0

    def adjoint(self, p, mu, vt_p=None):
        """vb^T p where the prox step may be nonzero: (idx, (vb^T p)[idx]), or (None, vb^T p).

        The product is dense when `vt_p`, the dense product, is given, when
        the screen does not run, and when there are more than 2M
        candidates; where the screen runs, a dense product becomes the new
        reference.
        """
        if vt_p is None:
            if self.limit:
                r = np.linalg.norm(p - self.p_ref) + self.slack * (np.linalg.norm(p) + self.ref_norm)
                idx = np.flatnonzero((self.abs_ref + r * self.col_norms > self.threshold) | (mu != 0))
                if idx.size <= self.limit:
                    return idx, rmatvec(columns(self.vb, idx), p) if idx.size else np.zeros(0)
            vt_p = rmatvec(self.vb, p)
        if self.limit:
            self.p_ref, self.abs_ref, self.ref_norm = p, np.abs(vt_p), np.linalg.norm(p)
        self.dense += 1
        return None, vt_p


def default_steps(vb, sigma=0.5):
    """Step sizes sigma (as given) and tau = 1/((||vb||^2 + 1e-6) * sigma).

    ||vb||^2 is the largest eigenvalue of the smaller Gram matrix, so
    sigma*tau*||vb||^2 <= 1, the standard convergence condition.
    """
    norm_sq = float(eigvalsh(gram(vb, trans=vb.shape[0] > vb.shape[1]), lower=False, check_finite=False)[-1])
    tau = 1.0 / ((norm_sq + 1e-6) * sigma)
    return sigma, tau


def pda_dual_step(p, mu_bar, vb, u_b, sigma):
    """Resolvent of the data-term conjugate: (p + sigma*(vb@mu_bar - u_b)) / (1+sigma), vb@mu_bar by `matvec`."""
    return (p + sigma * matvec(vb, mu_bar) - sigma * u_b) / (1.0 + sigma)


def pda_primal_step(mu, p_next, screen, tau, reg, vt_p=None):
    """Prox step on the regularizer at mu - tau * vb^T p_next.

    The adjoint is computed on the `AdjointScreen`'s candidates only, and
    the step is exactly 0 elsewhere; `vt_p` is the dense vb^T p_next when
    the caller has it.
    """
    idx, g = screen.adjoint(p_next, mu, vt_p)
    if idx is None:
        return prox_p(mu - tau * g, tau, reg)
    out = np.zeros_like(mu)
    out[idx] = prox_p(mu[idx] - tau * g, tau, reg)
    return out


def solve_pda(vb, u_b, reg, options=None):
    """Run the three-line loop with extrapolation mu_bar = 2*mu_next - mu.

    Every `record_every` steps (and at the last) it records the primal
    objective and its running minimum, since the per-iterate objective is
    not monotone, and `dense_adjoints`, the number of steps so far whose
    adjoint product was dense (see the module docstring).  For
    alpha0 > 0 the record also holds the duality gap P(mu) + D(p) and the
    bound sqrt(2*(gap + allowance)/alpha0) on ||mu - mu*||; the run stops
    with reason "certified" (converged) once that bound is
    <= CERTIFY_RTOL * ||mu||.  A run that does not certify within `iters`
    steps stops on "max_iters"; so does every run with alpha0 = 0, whose
    dual is an indicator that bounds nothing.
    """
    vb, u_b = check_problem(vb, u_b)
    options = options or PdaOptions()
    sigma, tau = default_steps(vb, options.sigma)
    screen = AdjointScreen(vb, reg.alpha)
    p = np.zeros(vb.shape[0])
    mu = np.zeros(vb.shape[1])
    mu_bar = mu.copy()
    records = []
    best = np.inf
    converged = False
    for it in range(1, options.iters + 1):
        p = pda_dual_step(p, mu_bar, vb, u_b, sigma)
        record = it % options.record_every == 0 or it == options.iters
        vt_p = rmatvec(vb, p) if record else None
        mu_next = pda_primal_step(mu, p, screen, tau, reg, vt_p)
        mu_bar = mu_next + (mu_next - mu)
        mu = mu_next
        if record:
            primal = primal_objective(mu, vb, u_b, reg)
            best = min(best, primal)
            rec = {"solver": "pda", "kind": "inner", "inner": it, "objective": float(primal),
                   "best_objective": float(best), "dense_adjoints": screen.dense}
            records.append(rec)
            if reg.alpha0 > 0:
                dual = dual_objective(p, vt_p, u_b, reg)
                # the gap is computed in floating point: allow GAP_ULPS ulps of |P| + |D| for its rounding
                allowance = GAP_ULPS * np.spacing(abs(primal) + abs(dual))
                rec["gap"] = float(primal + dual)
                rec["bound"] = float(np.sqrt(2.0 * max(rec["gap"] + allowance, 0.0) / reg.alpha0))
                if rec["bound"] <= CERTIFY_RTOL * np.linalg.norm(mu):
                    converged = True
                    break
    return SolveResult(mu=mu, converged=converged, stop_reason="certified" if converged else "max_iters",
                       iterations=it, records=records)
