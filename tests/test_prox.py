import tracemalloc

import numpy as np
import pytest
from conftest import conjugate_resolvent, moreau_complement, random_instance

from sparsescat.alm import solve_alm
from sparsescat.prox import (
    RegParams,
    cholesky_solve,
    dual_objective,
    h_star,
    p_star,
    primal_objective,
    prox_p,
    soft_threshold,
)
from sparsescat.realfield import SUPPORT_SUM_DIVISOR, check_problem, matvec, realify_matrix, rmatvec
from sparsescat.ssn import solve_ssn


def brute_force_soft(z, sigma, levels=6, width=None, points=201):
    """Componentwise grid + refinement minimization of 1/2 (w-z)^2 + sigma |w|.

    Runs in extended precision: pure value comparison in float64 stalls near
    sqrt(eps), above the 1e-8 accuracy this oracle certifies.
    """
    z = np.asarray(z, dtype=np.longdouble)
    sigma = np.longdouble(sigma)
    center = z.copy()
    width = (np.abs(z) + sigma + 1.0) if width is None else width
    ticks = np.linspace(-1.0, 1.0, points).astype(np.longdouble)
    for _ in range(levels):
        grid = center[:, None] + ticks[None, :] * width[:, None]
        vals = 0.5 * (grid - z[:, None]) ** 2 + sigma * np.abs(grid)
        center = grid[np.arange(z.size), np.argmin(vals, axis=1)]
        width = width * (2.0 / (points - 1)) * 2.0
    return center.astype(float)


def candidate_prox(mu, sigma, reg):
    """Candidate enumeration: w > 0, w < 0, w == 0 regimes of the prox objective."""
    mu = np.asarray(mu, dtype=float)
    scale = 1.0 + sigma * reg.alpha0
    cand_pos = np.maximum((mu - sigma * reg.alpha) / scale, 0.0)
    cand_neg = np.minimum((mu + sigma * reg.alpha) / scale, 0.0)
    out = np.empty_like(mu)
    for i, m in enumerate(mu):
        best, best_val = None, np.inf
        for w in (cand_pos[i], cand_neg[i], 0.0):
            val = 0.5 * (w - m) ** 2 + sigma * (0.5 * reg.alpha0 * w * w + reg.alpha * abs(w))
            if val < best_val:
                best, best_val = w, val
        out[i] = best
    return out


def test_soft_threshold_definition():
    assert np.array_equal(soft_threshold([3.0, -1.0, 5.0], 2.0), [1.0, 0.0, 3.0])


def test_soft_threshold_zero_sigma(rng):
    z = rng.standard_normal(20)
    assert np.array_equal(soft_threshold(z, 0.0), z)


def test_soft_threshold_tie_maps_to_zero():
    assert soft_threshold(np.array([2.0, -2.0]), 2.0).tolist() == [0.0, 0.0]


def test_soft_threshold_against_brute_force(rng):
    z = 5.0 * rng.standard_normal(500)
    sigma = 1.3
    assert np.max(np.abs(soft_threshold(z, sigma) - brute_force_soft(z, sigma))) < 1e-8


def test_soft_threshold_sup_norm_bound(rng):
    for _ in range(20):
        z = 3.0 * rng.standard_normal(50)
        sigma = float(rng.uniform(0, 4))
        out = soft_threshold(z, sigma)
        assert np.max(np.abs(out)) <= max(0.0, np.max(np.abs(z)) - sigma) + 1e-15


def test_prox_reduces_to_soft_threshold(rng):
    mu = rng.standard_normal(30)
    reg = RegParams(alpha=0.7, alpha0=0.0)
    assert np.allclose(prox_p(mu, 2.0, reg), soft_threshold(mu, 1.4), atol=0)


def test_prox_reduces_to_quadratic(rng):
    mu = rng.standard_normal(30)
    reg = RegParams(alpha=0.0, alpha0=0.5)
    assert np.allclose(prox_p(mu, 2.0, reg), mu / 2.0, atol=1e-15)


def test_prox_against_candidate_enumeration(rng):
    for _ in range(10):
        mu = 4.0 * rng.standard_normal(64)
        sigma = float(rng.uniform(0.1, 5.0))
        reg = RegParams(alpha=float(rng.uniform(0, 1)), alpha0=float(rng.uniform(0, 1)))
        assert np.max(np.abs(prox_p(mu, sigma, reg) - candidate_prox(mu, sigma, reg))) < 1e-12


def test_prox_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        prox_p(np.zeros(3), 0.0, RegParams(alpha=1.0, alpha0=0.0))


def test_moreau_zero():
    reg = RegParams(alpha=0.5, alpha0=0.1)
    assert np.array_equal(moreau_complement(np.zeros(5), 1.0, reg), np.zeros(5))


def test_moreau_degenerate_regularizer_flagged():
    with pytest.raises(ValueError):
        moreau_complement(np.ones(3), 1.0, RegParams(alpha=0.0, alpha0=0.0))


def test_moreau_identity_exact(rng):
    for _ in range(50):
        x = 5.0 * rng.standard_normal(40)
        sigma = float(rng.uniform(0.01, 10.0))
        reg = RegParams(alpha=float(rng.uniform(0, 2)), alpha0=float(rng.uniform(1e-4, 2)))
        resid = prox_p(x, sigma, reg) + moreau_complement(x, sigma, reg) - x
        assert np.max(np.abs(resid)) <= 1e-14


def test_moreau_matches_conjugate_resolvent(rng):
    # x - prox_p(x, s) == s * (I + (1/s) dp*)^{-1}(x/s), with the right side
    # evaluated from the closed form of p* rather than through prox_p
    for _ in range(25):
        x = 5.0 * rng.standard_normal(30)
        sigma = float(rng.uniform(0.1, 5.0))
        reg = RegParams(alpha=float(rng.uniform(0.1, 2)), alpha0=float(rng.uniform(1e-3, 2)))
        lhs = moreau_complement(x, sigma, reg)
        rhs = sigma * conjugate_resolvent(x / sigma, 1.0 / sigma, reg)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_prox_firmly_nonexpansive(rng):
    reg = RegParams(alpha=0.8, alpha0=0.05)
    for _ in range(30):
        a = 3.0 * rng.standard_normal(20)
        b = 3.0 * rng.standard_normal(20)
        pa, pb = prox_p(a, 1.7, reg), prox_p(b, 1.7, reg)
        lhs = float(np.sum((pa - pb) ** 2))
        rhs = float((pa - pb) @ (a - b))
        assert lhs <= rhs + 1e-12


def test_hstar_grad_matches_finite_differences(rng):
    # the gradient of h* is y + u_b in closed form
    y = rng.standard_normal(10)
    u_b = rng.standard_normal(10)
    grad = y + u_b
    eps = 1e-6
    for j in range(10):
        e = np.zeros(10)
        e[j] = eps
        fd = (h_star(y + e, u_b) - h_star(y - e, u_b)) / (2 * eps)
        assert abs(fd - grad[j]) < 1e-6


def test_p_star_closed_form(rng):
    # p* evaluated against its definition sup_w <z, w> - p(w) via dense scan
    reg = RegParams(alpha=0.6, alpha0=0.3)
    z = np.array([0.2, -0.8, 1.4])
    w = np.linspace(-30, 30, 600001)
    expected = sum(np.max(zi * w - 0.5 * reg.alpha0 * w**2 - reg.alpha * np.abs(w)) for zi in z)
    assert abs(p_star(z, reg) - expected) < 1e-6


def test_p_star_indicator_when_alpha0_zero():
    reg = RegParams(alpha=1.0, alpha0=0.0)
    assert p_star(np.array([0.5, -1.0]), reg) == 0.0
    assert p_star(np.array([1.5]), reg) == np.inf


def test_weak_duality(rng):
    # P(mu) + D(y) >= 0 for arbitrary mu, y
    from conftest import random_instance

    vb, u_b, reg = random_instance(5)
    for _ in range(20):
        mu = rng.standard_normal(vb.shape[1])
        y = rng.standard_normal(vb.shape[0])
        assert primal_objective(mu, vb, u_b, reg) + dual_objective(y, vb.T @ y, u_b, reg) >= -1e-10


def test_primal_objective_matches_dense_formula(rng):
    # the sum over supp mu (at most 2N/64 = 16 nonzeros here) and the dense product differ only by rounding
    vb = realify_matrix(rng.standard_normal((4, 512)) + 1j * rng.standard_normal((4, 512)))
    u_b = rng.standard_normal(vb.shape[0])
    reg = RegParams(alpha=0.1, alpha0=0.01)
    for size in (0, 3, vb.shape[1] // SUPPORT_SUM_DIVISOR, vb.shape[1] // SUPPORT_SUM_DIVISOR + 1, vb.shape[1]):
        mu = np.zeros(vb.shape[1])
        mu[rng.choice(vb.shape[1], size=size, replace=False)] = rng.standard_normal(size)
        r = vb @ mu - u_b
        dense = 0.5 * float(r @ r) + 0.5 * reg.alpha0 * float(mu @ mu) + reg.alpha * float(np.sum(np.abs(mu)))
        assert abs(primal_objective(mu, vb, u_b, reg) - dense) <= 1e-14 * dense


@pytest.mark.parametrize("vb, u_b, match", [
    (np.zeros(6), np.zeros(6), "vb must be a 2-D array"),
    (np.zeros((5, 8)), np.zeros(5), "vb must be a 2-D array"),
    (np.zeros((6, 7)), np.zeros(6), "vb must be a 2-D array"),
    (np.zeros((6, 8)), np.zeros((6, 1)), "u_b must have shape"),
    (np.full((6, 8), np.inf), np.zeros(6), "vb contains NaN or inf"),
    (np.zeros((6, 8)), np.full(6, -np.inf), "u_b contains NaN or inf"),
])
def test_check_problem_names_bad_argument(vb, u_b, match):
    with pytest.raises(ValueError, match=match):
        check_problem(vb, u_b)


def test_check_problem_returns_float_arrays():
    vb, u_b = check_problem([[1, 2], [3, 4]], [1, 2])
    assert vb.dtype == float and u_b.dtype == float and vb.shape == (2, 2)


def test_check_problem_keeps_a_column_major_operator():
    vb = np.asfortranarray(np.ones((4, 6)))
    checked, _ = check_problem(vb, np.ones(4))
    assert checked is vb
    for layout in (np.ascontiguousarray(vb), np.ones((4, 12))[:, ::2]):
        checked, _ = check_problem(layout, np.ones(4))
        assert checked.flags["F_CONTIGUOUS"] and np.array_equal(checked, vb)


@pytest.mark.parametrize("solve", [solve_alm, solve_ssn])
def test_solvers_agree_on_every_operator_layout(solve):
    vb, u_b, reg = random_instance(3, m=6, n=40)
    wide = np.zeros((vb.shape[0], 2 * vb.shape[1]))
    wide[:, ::2] = vb
    reference = solve(vb, u_b, reg).mu
    assert np.any(reference)
    for layout in (np.asfortranarray(vb), wide[:, ::2]):
        mu = solve(layout, u_b, reg).mu
        assert np.linalg.norm(mu - reference) <= 1e-12 * np.linalg.norm(reference)


def test_matvec_and_rmatvec_do_not_copy_the_operator(rng):
    # f2py copies an operand that is not column-major; the operator as check_problem returns it is, and
    # so is the block of columns that the support sum gathers, so the products allocate only that block
    # (at most 2N/SUPPORT_SUM_DIVISOR of the 32 MB of vb) and their vectors, under vb.nbytes / 64
    vb, _ = check_problem(rng.standard_normal((512, 8192)), np.zeros(512))
    x, y = rng.standard_normal(vb.shape[1]), rng.standard_normal(vb.shape[0])
    sparse = np.zeros(vb.shape[1])
    support = rng.choice(vb.shape[1], size=vb.shape[1] // SUPPORT_SUM_DIVISOR, replace=False)
    sparse[support] = rng.standard_normal(support.size)
    block = support.size * vb.shape[0] * vb.itemsize
    for product, vector, gathered in ((matvec, x, 0), (matvec, sparse, block), (rmatvec, y, 0)):
        tracemalloc.start()
        try:
            product(vb, vector)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gathered + vb.nbytes / 64, (product.__name__, peak)


@pytest.mark.parametrize("lower, match", [
    ([[4.0, 0.0], [2.0, -3.0]], "not numerically positive definite"),
    ([[4.0, 0.0], [np.nan, 5.0]], "not finite"),  # a factorization that does not report the NaN
], ids=["indefinite", "nan"])
def test_cholesky_solve_fails_explicitly(lower, match):
    # no finiteness scan of the matrix: what it would have caught still raises
    with pytest.raises(RuntimeError, match=match):
        cholesky_solve(np.array(lower), np.ones(2))


def test_cholesky_solve_reads_the_lower_triangle():
    matrix = np.array([[4.0, np.nan], [2.0, 5.0]])
    got = cholesky_solve(matrix, np.array([1.0, 2.0]))
    assert np.allclose(got, np.linalg.solve([[4.0, 2.0], [2.0, 5.0]], [1.0, 2.0]), rtol=1e-14)
