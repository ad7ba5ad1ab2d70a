"""First-order primal-dual (Chambolle-Pock) iteration on the saddle form.

Serves both as a baseline reconstruction method and as a high-accuracy
oracle for cross-validating the Newton-based solvers.  Both resolvents
are closed-form: the dual step is an affine shrink toward the data, the
primal step is the combined L1+L2 prox.

Between dense products the iteration runs in block coordinates, and
every product goes through `realfield` (see there for the BLAS rule):

- A safe screen (after El Ghaoui, Viallon & Rabbani, 2012, and Ndiaye
  et al., JMLR 18, 2017) bounds vb^T p from a reference dual point p_ref
  with a known vb^T p_ref.  By Cauchy-Schwarz,
  |(vb^T p)_j| <= |(vb^T p_ref)_j| + ||vb_j|| ||p - p_ref||, and any
  computed inner product of length 2M is within gamma_2M ||vb_j|| ||p||
  of the exact one, whatever the summation order.  So with
  r = ||p - p_ref|| plus a rounding slack, a j with mu_j = 0 and
  r <= t_j = (alpha - |vb^T p_ref|_j) / ||vb_j|| (alpha shrunk by the
  slack) has a computed |(vb^T p)_j| <= alpha, and its prox step is
  exactly 0 however the product is formed.  j is a candidate when
  r > t_j or mu_j != 0.
- At each dense product (each record, and each step that leaves the
  block) p becomes the reference, the t_j are formed and shrunk by a
  rounding margin, and one realified column-major block of vb is
  gathered from the operator's complex matrix T (`columns`): first the
  head, the columns on supp mu U supp mu_bar, then the 2M columns with
  the smallest t_j, in increasing t.  The dense products themselves are
  the operator's `zgemv` on T.
- A step inside the block keeps mu and mu_bar on its first k columns.
  Its candidates lie in the head and the columns after it with t_j < r,
  a prefix of the block; k grows to cover them and never shrinks, so
  the iterates stay on the first k columns, and both products read only
  that contiguous slice, by `dgemv`.  Outside the block mu_j = 0, and
  t_j is at least the smallest t_j left out, so while r stays at or
  below it no column outside can be a candidate.  Once r passes it, the
  step is dense (mu and mu_bar are scattered back), and the next block
  is formed from that product.
- The iterates are those of the dense loop up to the rounding of the
  products: a column the loop does not compute has a zero step either
  way.  With alpha = 0 every column is a candidate, so no block is
  formed and every step is dense.  On an operator with fewer than
  SCREEN_MIN_ENTRIES entries the dense step is the cheaper one, so no
  block is formed there either.

The oracle certifies itself.  For alpha0 > 0 the primal P is
alpha0-strongly convex, so any dual point p bounds the distance of the
iterate to the minimizer: ||mu - mu*|| <= sqrt(2 (P(mu) + D(p)) / alpha0).
The run stops once that bound (`prox.certificate`), with the gap
computed from PDA's own iterates plus a rounding allowance, certifies
mu (`prox.certified`).
D(p) needs all of vb^T p, so each record makes the dense product, and
the step at a record uses it (and forms the next block from it): the
certificate is computed exactly as without the block.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.linalg import eigvalsh

from .grid import check_finite, check_integer
from .prox import SolveResult, certificate, certified, primal_objective, prox_p
from .realfield import check_problem, matvec, rmatvec

# Rounding slack of the adjoint screen, in eps per term of its 2M-term inner products.  A computed
# entry of vb^T p is within gamma_2M ||vb_j|| ||p|| of the exact one, gamma_2M ~ (2M/2) eps for any
# summation order, and the norms, products and sums of the screen's own test round by about as much
# again; slack = SCREEN_EPS_PER_TERM * (2M + 4) eps covers both with room.
SCREEN_EPS_PER_TERM = 2
# Below about 2^15 entries of vb a dense step is cheaper than a step in the block, whose bookkeeping (the
# radius test, and the blocks formed anew when the candidates leave them) costs a few us whatever the size.
# Per step, best of 3 solves, 2 cores, OpenBLAS: on the criterion-4 batch (at most 12 x 48) 13-14 us dense
# against 19 us in blocks; 18-19 against 21 us at 32 x 256; 21-23 against 21 us at 32 x 512; 27-28 against
# 22 us at 32 x 1024 (2^15 entries); 38-39 against 22-23 us at 32 x 2048.  On smaller operators every
# step is dense.
SCREEN_MIN_ENTRIES = 2**15


@dataclass
class PdaOptions:
    """Dual step sigma (the primal step tau follows from it by `default_steps`), the
    iteration cap, and the record interval, which is also how often the certificate is checked."""

    sigma: float = 0.5
    iters: int = 5000
    record_every: int = 50

    def __post_init__(self):
        check_finite("sigma", self.sigma, "positive")
        check_integer("iters", self.iters, 1)
        check_integer("record_every", self.record_every, 1)


class AdjointScreen:
    """Safe screen of vb^T p in block coordinates (see the module docstring).

    Holds the operator vb, the column norms ||vb_j|| and the current block:
    `cols`, the columns of vb it holds, head first, and `v`, their
    realified column-major copy (both None in full coordinates); `t`, the
    shrunk t_j of the columns after the head, increasing; `t_out`, the
    smallest t_j left out of the block; `s`, the head's size; and `k`, how
    many of its columns the iterates reach.  Blocks are formed only where
    `blocks` holds: alpha > 0 and at least SCREEN_MIN_ENTRIES entries.
    """

    def __init__(self, vb, alpha):
        m2 = vb.shape[0]
        self.vb = vb
        self.col_norms = vb.column_norms()
        self.slack = SCREEN_EPS_PER_TERM * (m2 + 4) * np.finfo(float).eps
        self.threshold = alpha * (1.0 - self.slack)  # so that a rounded "<=" still means "<= alpha"
        self.blocks = alpha > 0 and m2 * vb.shape[1] >= SCREEN_MIN_ENTRIES
        self.cols = self.v = None

    def form(self, p, vt_p, mu, mu_bar):
        """Form the block at the dense product vt_p = vb^T p; returns mu and mu_bar in its coordinates."""
        if not self.blocks:
            return mu, mu_bar
        head = np.flatnonzero((mu != 0) | (mu_bar != 0))
        with np.errstate(divide="ignore"):  # a zero column is never a candidate: t_j = inf
            t = (self.threshold - np.abs(vt_p)) / self.col_norms
        # the computed t_j has the sign of the exact quotient and is within 2 ulps of it: shrinking the
        # positive ones by the slack covers that, and a t_j <= 0 is a candidate at every r > 0 anyway
        t *= 1.0 - self.slack
        t[head] = -np.inf
        width = head.size + self.vb.shape[0]
        if width < t.size:
            order = np.argpartition(t, width)
            self.t_out = t[order[width]]
            order = order[:width]
        else:
            order, self.t_out = np.arange(t.size), np.inf
        self.cols = order[np.argsort(t[order], kind="stable")]
        self.t = t[self.cols[head.size:]]
        self.s = self.k = head.size
        self.v = self.vb.columns(self.cols)
        self.p_ref, self.ref_norm = p, sqrt(p @ p)
        return mu[self.cols[:self.k]], mu_bar[self.cols[:self.k]]

    def prefix(self, p):
        """How many block columns the step at p reaches (k, grown to cover the candidates), or None to go dense."""
        if self.cols is None:
            return None
        d = p - self.p_ref
        r = sqrt(d @ d) + self.slack * (sqrt(p @ p) + self.ref_norm)  # norms as np.linalg.norm forms them
        if r > self.t_out:
            return None
        self.k = max(self.k, self.s + int(np.searchsorted(self.t, r)))
        return self.k

    def release(self, mu, mu_bar):
        """mu and mu_bar scattered back from block coordinates; the screen is in full coordinates after."""
        if self.cols is None:
            return mu, mu_bar
        full = np.zeros((2, self.vb.shape[1]))
        full[:, self.cols[:mu.size]] = mu, mu_bar
        self.cols = self.v = None
        return full[0], full[1]

    def matvec(self, x):
        """vb @ x for x in the screen's coordinates: the operator's product, or the block's first x.size columns'."""
        if self.cols is None:
            return self.vb.matvec(x)
        return matvec(self.v[:, :x.size], x) if x.size else np.zeros(self.vb.shape[0])


def default_steps(vb, sigma=0.5):
    """Step sizes sigma (as given) and tau = 1/((||vb||^2 + 1e-6) * sigma).

    ||vb||^2 = ||T||^2 is the largest eigenvalue of the operator's smaller
    complex Gram matrix, so sigma*tau*||vb||^2 <= 1, the standard
    convergence condition.
    """
    norm_sq = float(eigvalsh(vb.gram(), lower=False, check_finite=False)[-1])
    tau = 1.0 / ((norm_sq + 1e-6) * sigma)
    return sigma, tau


def pda_dual_step(p, mu_bar, screen, u_b, sigma):
    """Resolvent of the data-term conjugate: (p + sigma*(vb@mu_bar - u_b)) / (1+sigma).

    mu_bar is in the coordinates of the `AdjointScreen`, whose `matvec`
    forms vb@mu_bar.
    """
    return (p + sigma * screen.matvec(mu_bar) - sigma * u_b) / (1.0 + sigma)


def pda_primal_step(mu, p_next, screen, tau, reg, vt_p=None):
    """Prox step on the regularizer at mu - tau * vb^T p_next.

    With `vt_p`, the dense vb^T p_next, mu and the step are full vectors.
    Without, they are in the coordinates of the `AdjointScreen`'s block:
    mu lives on its first mu.size columns, and only those are computed.
    """
    if vt_p is None:
        vt_p = rmatvec(screen.v[:, :mu.size], p_next) if mu.size else mu
    return prox_p(mu - tau * vt_p, tau, reg)


def solve_pda(vb, u_b, reg, options=None):
    """Run the three-line loop with extrapolation mu_bar = 2*mu_next - mu.

    Every `record_every` steps (and at the last) it records the primal
    objective and its running minimum, since the per-iterate objective is
    not monotone, and `dense_adjoints`, the number of steps so far whose
    adjoint product was dense (see the module docstring).  The record
    also holds the `certificate` of mu and p, the duality gap
    P(mu) + D(p) and the bound sqrt(2*(gap + allowance)/alpha0) on
    ||mu - mu*|| (both None where alpha0 = 0); the run stops with reason
    "certified" (converged) once they certify mu (`prox.certified`).
    A run that does not certify within `iters` steps stops on
    "max_iters"; so does every run with alpha0 = 0, whose dual is an
    indicator that bounds nothing.
    """
    vb, u_b = check_problem(vb, u_b)
    options = options or PdaOptions()
    sigma, tau = default_steps(vb, options.sigma)
    screen = AdjointScreen(vb, reg.alpha)
    p = np.zeros(vb.shape[0])
    mu = np.zeros(vb.shape[1])
    mu_bar = mu.copy()
    vt_p = np.zeros(vb.shape[1])  # vb^T p at p = 0, the first reference
    records = []
    best = np.inf
    dense = 0
    stop_reason = "max_iters"
    for it in range(1, options.iters + 1):
        if vt_p is not None:  # the last step was dense: a new block from its product
            mu, mu_bar = screen.form(p, vt_p, mu, mu_bar)
        p = pda_dual_step(p, mu_bar, screen, u_b, sigma)
        record = it % options.record_every == 0 or it == options.iters
        k = None if record else screen.prefix(p)
        if k is None:
            mu, mu_bar = screen.release(mu, mu_bar)
            vt_p = vb.rmatvec(p)
            dense += 1
        else:
            vt_p = None
            if k > mu.size:
                mu = np.concatenate((mu, np.zeros(k - mu.size)))
        mu_next = pda_primal_step(mu, p, screen, tau, reg, vt_p)
        mu_bar = mu_next + (mu_next - mu)
        mu = mu_next
        if record:
            primal = primal_objective(mu, vb, u_b, reg)
            best = min(best, primal)
            gap, bound = certificate(primal, p, vt_p, u_b, reg)
            records.append({"solver": "pda", "kind": "inner", "inner": it, "objective": float(primal),
                            "best_objective": float(best), "dense_adjoints": dense, "gap": gap, "bound": bound})
            if certified(mu, gap, bound, reg):
                stop_reason = "certified"
                break
    return SolveResult(mu=mu, stop_reason=stop_reason, iterations=it, records=records, gap=gap, bound=bound)
