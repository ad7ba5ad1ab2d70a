import numpy as np
import pytest
from conftest import random_instance

from sparsescat.alm import AlmOptions, solve_alm
from sparsescat.prox import RegParams, primal_objective
from sparsescat.ssn import (
    SsnOptions,
    active_sets,
    build_b_operator,
    path_follow,
    penalty_gradient,
    ssn_newton_solve,
    ssn_recover_mu,
    solve_ssn,
)

LONG_GAMMAS = tuple(10.0**i for i in range(0, 13))


def test_b_operator_requires_alpha0():
    vb, _, _ = random_instance(1)
    with pytest.raises(ValueError):
        build_b_operator(vb, RegParams(alpha=0.1, alpha0=0.0))


def test_b_operator_definition():
    vb, _, reg = random_instance(2)
    b = build_b_operator(vb, reg)
    assert np.allclose(b.matrix, vb.T @ vb + reg.alpha0 * np.eye(vb.shape[1]), atol=0)


def test_active_sets_empty_at_zero():
    vb, _, reg = random_instance(3)
    b = build_b_operator(vb, reg)
    plus, minus, both = active_sets(np.zeros(vb.shape[1]), b, 0.5)
    assert not plus.any() and not minus.any() and not both.any()


def test_active_sets_boundary_inclusive():
    # exact threshold values: >= alpha joins the upper set, <= -alpha the lower
    from scipy.linalg import cho_factor

    from sparsescat.ssn import BOperator

    b = BOperator(matrix=np.eye(3), factor=cho_factor(np.eye(3), lower=True))
    alpha = 0.7
    y = np.array([alpha, -alpha, 0.5 * alpha])
    plus, minus, both = active_sets(y, b, alpha)
    assert plus.tolist() == [True, False, False]
    assert minus.tolist() == [False, True, False]
    assert both.tolist() == [True, True, False]


def test_active_sets_match_brute_force(rng):
    vb, _, reg = random_instance(5)
    b = build_b_operator(vb, reg)
    alpha = 0.3
    for _ in range(10):
        y = rng.standard_normal(vb.shape[1])
        plus, minus, both = active_sets(y, b, alpha)
        w = b.matrix @ y
        for i in range(len(w)):
            assert plus[i] == (w[i] >= alpha)
            assert minus[i] == (w[i] <= -alpha)
            assert both[i] == (plus[i] or minus[i])


def test_newton_solve_gamma_zero():
    vb, u_b, reg = random_instance(6)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    none = np.zeros(vb.shape[1], bool)
    y = ssn_newton_solve(none, none, b, c, 0.5, 0.0)
    assert np.allclose(y, -np.linalg.solve(b.matrix, c), atol=1e-10)


def test_newton_solve_empty_active_set_matches_gamma_zero():
    vb, u_b, reg = random_instance(7)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    none = np.zeros(vb.shape[1], bool)
    y = ssn_newton_solve(none, none, b, c, 0.5, 10.0)
    assert np.allclose(y, -np.linalg.solve(b.matrix, c), atol=1e-10)


def test_newton_solve_matches_unreduced_system(rng):
    # the block elimination must solve the full 2N x 2N system exactly
    vb, u_b, reg = random_instance(8, m=4, n=9)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    n2 = vb.shape[1]
    gamma, alpha = 100.0, 0.2
    y0 = rng.standard_normal(n2)
    plus, minus, both = active_sets(y0, b, alpha)
    y = ssn_newton_solve(plus, minus, b, c, alpha, gamma)
    bm = b.matrix
    chi = np.diag(both.astype(float))
    full = bm + gamma * bm @ chi @ bm
    rhs = -c + gamma * alpha * bm @ (plus.astype(float) - minus.astype(float))
    resid = full @ y - rhs
    scale = np.linalg.norm(full) * np.linalg.norm(y) + np.linalg.norm(rhs)
    assert np.linalg.norm(resid) <= 1e-11 * scale


def test_fixed_point_residual():
    # at a settled iterate the active sets reproduce themselves, so the
    # penalized gradient equals the linear-system residual; at moderate gamma
    # it vanishes absolutely, at large gamma up to backward-error scaling
    vb, u_b, reg = random_instance(9, m=4, n=11, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    y, _, _, converged = path_follow(b, c, reg.alpha, options=SsnOptions(gammas=(1.0, 10.0, 100.0)))
    assert converged
    grad = penalty_gradient(y, b, c, reg.alpha, 100.0)
    assert np.linalg.norm(grad) <= 1e-9 * max(1.0, np.linalg.norm(c))

    y, _, _, converged = path_follow(b, c, reg.alpha, options=SsnOptions())
    gamma = SsnOptions().gammas[-1]
    assert converged
    grad = penalty_gradient(y, b, c, reg.alpha, gamma)
    scale = (1.0 + gamma) * np.linalg.norm(b.matrix) ** 2 * np.linalg.norm(y) + np.linalg.norm(c)
    assert np.linalg.norm(grad) <= 1e-12 * scale


def test_path_follow_zero_data():
    vb, _, reg = random_instance(10)
    b = build_b_operator(vb, reg)
    y, records, _, _ = path_follow(b, np.zeros(vb.shape[1]), 0.5)
    assert not np.any(y)


def test_constraint_violation_nonincreasing_along_path():
    vb, u_b, reg = random_instance(11, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    options = SsnOptions()
    violations = []
    y = None
    for i in range(1, len(options.gammas) + 1):
        partial = SsnOptions(gammas=options.gammas[:i])
        y, _, _, _ = path_follow(b, c, reg.alpha, options=partial)
        w = b.matrix @ y
        violations.append(max(0.0, np.max(np.abs(w)) - reg.alpha))
    assert all(b2 <= a * (1 + 1e-9) + 1e-15 for a, b2 in zip(violations, violations[1:]))


def test_final_feasibility_at_large_gamma():
    vb, u_b, reg = random_instance(12, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    y, _, _, _ = path_follow(b, c, reg.alpha)
    w = b.matrix @ y
    assert np.max(np.maximum(0.0, np.abs(w) - reg.alpha)) <= reg.alpha * 1e-4


def test_recover_mu_zero():
    vb, _, reg = random_instance(13)
    b = build_b_operator(vb, reg)
    assert not np.any(ssn_recover_mu(np.zeros(vb.shape[1]), b, np.zeros(vb.shape[1])))


def test_recover_mu_gamma_zero_cancellation():
    # y = -B^{-1} vb^T u_b makes mu vanish identically
    vb, u_b, reg = random_instance(14)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    y = -b.solve(c)
    assert np.max(np.abs(ssn_recover_mu(y, b, c))) < 1e-10


def test_cross_agreement_with_alm():
    vb, u_b, reg = random_instance(15, m=4, n=12, alpha=0.08, alpha0=0.01)
    alm = solve_alm(vb, u_b, reg, options=AlmOptions(lam_tol=1e-10, gap_tol=1e-12, max_outer=25))
    ssn = solve_ssn(vb, u_b, reg, options=SsnOptions(gammas=LONG_GAMMAS))
    assert np.linalg.norm(ssn.mu - alm.mu) <= 1e-4 * np.linalg.norm(alm.mu)
    p_alm = primal_objective(alm.mu, vb, u_b, reg)
    p_ssn = primal_objective(ssn.mu, vb, u_b, reg)
    assert abs(p_alm - p_ssn) <= 1e-4 * abs(p_alm)


def test_gamma_schedule_must_increase():
    with pytest.raises(ValueError):
        SsnOptions(gammas=(1.0, 1.0, 10.0))


@pytest.mark.parametrize("u_b, match", [
    (np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0]), "u_b contains NaN"),
    (np.zeros(5), "u_b must have shape"),
])
def test_solve_rejects_bad_data(u_b, match):
    vb, _, reg = random_instance(29, m=3, n=8)
    with pytest.raises(ValueError, match=match):
        solve_ssn(vb, u_b, reg)
