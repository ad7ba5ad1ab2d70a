import tracemalloc

import numpy as np
import pytest
from conftest import random_instance
from scipy.linalg import cho_solve

from sparsescat import ssn
from sparsescat.alm import AlmOptions, solve_alm
from sparsescat.prox import RegParams, primal_objective
from sparsescat.ssn import (
    SsnOptions,
    active_sets,
    build_b_operator,
    path_follow,
    penalty_gradient,
    ssn_newton_solve,
    solve_ssn,
)

LONG_GAMMAS = tuple(10.0**i for i in range(0, 13))


def dense_b(b):
    """The dense B, mirrored from the lower triangle that `b.matrix` stores."""
    return np.tril(b.matrix) + np.tril(b.matrix, -1).T


def binv_vt(vb, b, u_b):
    """B^{-1} vb^T u_b by the push-through identity, as solve_ssn forms it."""
    return vb.T @ cho_solve(b.factor, u_b)


def test_b_operator_requires_alpha0():
    vb, _, _ = random_instance(1)
    with pytest.raises(ValueError):
        build_b_operator(vb, RegParams(alpha=0.1, alpha0=0.0))


def test_b_operator_definition():
    # the absolute floor covers B's structural zeros (the diagonal of the imaginary
    # block), where products that cancel exactly leave a few ulps of max|B|
    vb, _, reg = random_instance(2)
    b = build_b_operator(vb, reg)
    ref = vb.T @ vb + reg.alpha0 * np.eye(vb.shape[1])
    # only the lower triangle is stored
    assert np.allclose(np.tril(b.matrix), np.tril(ref), rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))


def test_b_operator_is_c_ordered():
    # C order keeps the B_AA row gather fast
    vb, _, reg = random_instance(31, m=8, n=300)
    b = build_b_operator(vb, reg)
    assert b.matrix.flags.c_contiguous


def test_upper_triangle_of_b_is_never_read():
    # NaN in B's strict upper triangle leaves the path bitwise unchanged: the
    # active-block gathers and their Cholesky factors read the lower triangle
    vb, u_b, reg = random_instance(17, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c, mu0 = vb.T @ u_b, binv_vt(vb, b, u_b)
    options = SsnOptions(gammas=LONG_GAMMAS)
    mu, records, solves, converged = path_follow(b, c, mu0, reg.alpha, options=options)
    b.matrix[np.triu_indices_from(b.matrix, 1)] = np.nan
    poisoned = path_follow(b, c, mu0, reg.alpha, options=options)
    assert converged and max(r["active"] for r in records) > 1
    assert np.array_equal(poisoned[0], mu)
    assert poisoned[1:] == (records, solves, converged)


def test_b_dot_reads_vb_never_b(rng):
    # B x = vb^T (vb x) + alpha0 x: a B filled with NaN leaves the product unchanged
    vb, _, reg = random_instance(34, m=4, n=12)
    b = build_b_operator(vb, reg)
    bm = dense_b(b)
    b.matrix[...] = np.nan
    for _ in range(3):
        x = rng.standard_normal(vb.shape[1])
        ref = bm @ x
        assert np.linalg.norm(b.dot(x) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_b_dot_does_not_copy_b(rng):
    # at 2N = 2048 a copy of B is 32 MB; one product, two products with the 16 x 2048 vb,
    # allocates only its 2M intermediate and 2N result
    vb, _, reg = random_instance(32, m=8, n=1024)
    b = build_b_operator(vb, reg)
    x = rng.standard_normal(vb.shape[1])
    tracemalloc.start()
    try:
        got = b.dot(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < b.matrix.nbytes / 8
    bm = dense_b(b)
    assert np.linalg.norm(got - bm @ x) <= 1e-12 * np.linalg.norm(bm) * np.linalg.norm(x)


@pytest.mark.parametrize("m, n", [(4, 15), (12, 5)], ids=["wide", "tall"])
def test_push_through_matches_dense_solve(monkeypatch, m, n):
    # (vb^T vb + alpha0 I)^{-1} vb^T = vb^T (vb vb^T + alpha0 I)^{-1} for either shape of vb
    vb, u_b, reg = random_instance(18, m=m, n=n)
    b = build_b_operator(vb, reg)
    assert b.factor[0].shape == (2 * m, 2 * m)
    oracle = np.linalg.solve(dense_b(b), vb.T @ u_b)
    assert np.linalg.norm(binv_vt(vb, b, u_b) - oracle) <= 1e-10 * np.linalg.norm(oracle)

    seen = []
    path = ssn.path_follow

    def path_spy(b, vt_ub, mu0, *args, **kwargs):
        seen.append(mu0)
        return path(b, vt_ub, mu0, *args, **kwargs)

    monkeypatch.setattr(ssn, "path_follow", path_spy)
    solve_ssn(vb, u_b, reg)
    assert np.linalg.norm(seen[0] - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_solve_holds_one_source_space_matrix():
    # B is the only 2N x 2N array solve_ssn keeps: no factor of B, and small active blocks
    vb, u_b, reg = random_instance(19, m=8, n=1024, alpha=0.05)
    source_square = 8 * vb.shape[1] ** 2
    tracemalloc.start()
    try:
        result = solve_ssn(vb, u_b, reg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged
    assert max(r["active"] for r in result.records) <= 64  # active blocks of a few hundred kB
    assert peak < 1.5 * source_square


def test_active_sets_empty_at_zero():
    vb, _, reg = random_instance(3)
    b = build_b_operator(vb, reg)
    plus, minus = active_sets(dense_b(b) @ np.zeros(vb.shape[1]), 0.5)
    assert not plus.any() and not minus.any()


def test_active_sets_boundary_inclusive():
    # exact threshold values: >= alpha joins the upper set, <= -alpha the lower
    alpha = 0.7
    b = build_b_operator(np.zeros((2, 3)), RegParams(alpha=alpha, alpha0=1.0))  # B = I
    y = np.array([alpha, -alpha, 0.5 * alpha])
    plus, minus = active_sets(dense_b(b) @ y, alpha)
    assert plus.tolist() == [True, False, False]
    assert minus.tolist() == [False, True, False]


def test_active_sets_match_brute_force(rng):
    vb, _, reg = random_instance(5)
    b = build_b_operator(vb, reg)
    alpha = 0.3
    for _ in range(10):
        y = rng.standard_normal(vb.shape[1])
        w = dense_b(b) @ y
        plus, minus = active_sets(w, alpha)
        for i in range(len(w)):
            assert plus[i] == (w[i] >= alpha)
            assert minus[i] == (w[i] <= -alpha)


def test_newton_solve_gamma_zero():
    # mu = 0 is y = -B^{-1} vb^T u_b
    vb, u_b, reg = random_instance(6)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    none = np.zeros(vb.shape[1], bool)
    mu = ssn_newton_solve(none, none, b, c, 0.5, 0.0)
    assert np.allclose(mu - binv_vt(vb, b, u_b), -np.linalg.solve(dense_b(b), c), atol=1e-10)


def test_newton_solve_empty_active_set_matches_gamma_zero():
    vb, u_b, reg = random_instance(7)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    none = np.zeros(vb.shape[1], bool)
    mu = ssn_newton_solve(none, none, b, c, 0.5, 10.0)
    assert np.allclose(mu - binv_vt(vb, b, u_b), -np.linalg.solve(dense_b(b), c), atol=1e-10)


def test_newton_solve_matches_unreduced_system(rng):
    # the active-block solve must solve the full 2N x 2N system
    # (B + gamma B X B) y = -vb^T u_b + gamma alpha B (chi+ - chi-) 1 in y = mu - B^{-1} vb^T u_b
    vb, u_b, reg = random_instance(8, m=4, n=9)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    n2 = vb.shape[1]
    gamma, alpha = 100.0, 0.2
    y0 = rng.standard_normal(n2)
    bm = dense_b(b)
    plus, minus = active_sets(bm @ y0, alpha)
    y = ssn_newton_solve(plus, minus, b, c, alpha, gamma) - binv_vt(vb, b, u_b)
    chi = np.diag((plus | minus).astype(float))
    full = bm + gamma * bm @ chi @ bm
    rhs = -c + gamma * alpha * bm @ (plus.astype(float) - minus.astype(float))
    resid = full @ y - rhs
    scale = np.linalg.norm(full) * np.linalg.norm(y) + np.linalg.norm(rhs)
    assert np.linalg.norm(resid) <= 1e-11 * scale


def test_newton_solve_gathers_only_the_active_block():
    # |A| = 64 of 2N = 2048: the solve holds the 64 x 64 block and a few
    # 2N vectors, well below a quarter of the |A| x |I| block of B
    vb, u_b, reg = random_instance(30, m=8, n=1024)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    n2 = vb.shape[1]
    plus = np.zeros(n2, bool)
    minus = np.zeros(n2, bool)
    plus[:32] = True
    minus[1000:1032] = True
    gathered = 8 * 64 * (n2 - 64)
    tracemalloc.start()
    try:
        mu = ssn_newton_solve(plus, minus, b, c, reg.alpha, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < gathered / 4
    assert np.count_nonzero(mu) == 64


def test_fixed_point_residual():
    # at a settled iterate the active sets reproduce themselves, so the
    # penalized gradient equals the linear-system residual; at moderate gamma
    # it vanishes absolutely, at large gamma up to backward-error scaling
    vb, u_b, reg = random_instance(9, m=4, n=11, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c, mu0 = vb.T @ u_b, binv_vt(vb, b, u_b)
    bm = dense_b(b)
    mu, _, _, converged = path_follow(b, c, mu0, reg.alpha, options=SsnOptions(gammas=(1.0, 10.0, 100.0)))
    assert converged
    grad = penalty_gradient(bm @ mu - c, b, c, reg.alpha, 100.0)
    assert np.linalg.norm(grad) <= 1e-9 * max(1.0, np.linalg.norm(c))

    mu, _, _, converged = path_follow(b, c, mu0, reg.alpha, options=SsnOptions())
    gamma = SsnOptions().gammas[-1]
    assert converged
    grad = penalty_gradient(bm @ mu - c, b, c, reg.alpha, gamma)
    scale = (1.0 + gamma) * np.linalg.norm(bm) ** 2 * np.linalg.norm(mu - mu0) + np.linalg.norm(c)
    assert np.linalg.norm(grad) <= 1e-12 * scale


def test_penalty_gradient_matches_separate_products(rng):
    # one product with B (max(0, w - alpha) + min(0, w + alpha)) against a product per term
    vb, u_b, reg = random_instance(16, m=4, n=10)
    b = build_b_operator(vb, reg)
    c, bm = vb.T @ u_b, dense_b(b)
    for alpha in (0.0, 0.3):
        for _ in range(5):
            y = rng.standard_normal(vb.shape[1])
            w = bm @ y
            ref = w + c + 10.0 * (bm @ np.maximum(0.0, w - alpha)) + 10.0 * (
                bm @ np.minimum(0.0, w + alpha))
            got = penalty_gradient(w, b, c, alpha, 10.0)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_path_follow_carries_b_times_y(monkeypatch):
    # every objective reads w = B mu - vb^T u_b of its mu, bit for bit (at the start
    # mu0 = B^{-1} vb^T u_b, w is 0 by definition), and the last record's residual
    # is that of the returned mu
    vb, u_b, reg = random_instance(17, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    mu0 = binv_vt(vb, b, u_b)
    objectives = []
    objective = ssn.penalty_objective

    def objective_spy(mu, w, *args):
        objectives.append((mu, w, np.array_equal(w, b.dot(mu) - c)))
        return objective(mu, w, *args)

    monkeypatch.setattr(ssn, "penalty_objective", objective_spy)
    # the long schedule ends stages on negligible increments; this instance also takes damped steps
    mu, records, _, _ = path_follow(b, c, mu0, reg.alpha, options=SsnOptions(gammas=LONG_GAMMAS))
    assert any(r["step"] < 1.0 for r in records)
    start_mu, start_w, _ = objectives[0]
    assert start_mu is mu0 and not np.any(start_w)
    assert len(objectives) > 1 and all(exact for _, _, exact in objectives[1:])
    w = b.dot(mu) - c
    gamma = records[-1]["gamma"]
    expected = np.linalg.norm(mu + gamma * (np.maximum(0.0, w - reg.alpha) + np.minimum(0.0, w + reg.alpha)))
    assert records[-1]["residual"] == float(expected)


def test_path_follow_counts_b_products(monkeypatch):
    # one product per Newton solve, per backtracking trial and per damped-step
    # gradient; the records add none
    vb, u_b, reg = random_instance(17, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    counts = {"dot": 0, "gradient": 0}
    dot, gradient = ssn.BOperator.dot, ssn.penalty_gradient

    def dot_spy(self, x):
        counts["dot"] += 1
        return dot(self, x)

    def gradient_spy(*args):
        counts["gradient"] += 1
        return gradient(*args)

    monkeypatch.setattr(ssn.BOperator, "dot", dot_spy)
    monkeypatch.setattr(ssn, "penalty_gradient", gradient_spy)
    _, records, solves, _ = path_follow(b, c, binv_vt(vb, b, u_b), reg.alpha, options=SsnOptions(gammas=LONG_GAMMAS))
    damped = [r["step"] for r in records if r["step"] < 1.0]
    trials = sum(round(np.log2(1.0 / s)) for s in damped)  # halvings from 1 to the accepted step
    assert damped and counts["gradient"] == len(damped)
    assert counts["dot"] == solves + trials + counts["gradient"]


def test_record_residual_is_preconditioned_gradient(monkeypatch):
    # residual = ||B^{-1} grad E|| at the recorded iterate; one Newton step per
    # stage makes the returned mu the recorded one
    vb, u_b, reg = random_instance(33, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    monkeypatch.setattr(ssn, "MAX_INNER", 1)
    for gamma in (1.0, 10.0, 100.0):
        with pytest.warns(RuntimeWarning, match="cycling"):
            mu, records, _, _ = path_follow(b, c, binv_vt(vb, b, u_b), reg.alpha, options=SsnOptions(gammas=(gamma,)))
        (record,) = records
        grad = penalty_gradient(b.dot(mu) - c, b, c, reg.alpha, gamma)
        expected = np.linalg.norm(np.linalg.solve(dense_b(b), grad))
        assert expected > 0
        assert abs(record["residual"] - expected) <= 1e-10 * expected


def test_path_follow_zero_data():
    vb, _, reg = random_instance(10)
    b = build_b_operator(vb, reg)
    zeros = np.zeros(vb.shape[1])
    mu, records, _, _ = path_follow(b, zeros, binv_vt(vb, b, np.zeros(vb.shape[0])), 0.5)
    assert not np.any(mu)


def test_constraint_violation_nonincreasing_along_path():
    vb, u_b, reg = random_instance(11, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    options = SsnOptions()
    violations = []
    for i in range(1, len(options.gammas) + 1):
        partial = SsnOptions(gammas=options.gammas[:i])
        mu, _, _, _ = path_follow(b, c, binv_vt(vb, b, u_b), reg.alpha, options=partial)
        w = dense_b(b) @ mu - c
        violations.append(max(0.0, np.max(np.abs(w)) - reg.alpha))
    assert all(b2 <= a * (1 + 1e-9) + 1e-15 for a, b2 in zip(violations, violations[1:]))


def test_final_feasibility_at_large_gamma():
    vb, u_b, reg = random_instance(12, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.T @ u_b
    mu, _, _, _ = path_follow(b, c, binv_vt(vb, b, u_b), reg.alpha)
    w = dense_b(b) @ mu - c
    assert np.max(np.maximum(0.0, np.abs(w) - reg.alpha)) <= reg.alpha * 1e-4


def test_cross_agreement_with_alm():
    vb, u_b, reg = random_instance(15, m=4, n=12, alpha=0.08, alpha0=0.01)
    alm = solve_alm(vb, u_b, reg, options=AlmOptions(lam_tol=1e-10, gap_tol=1e-12, max_outer=25))
    ssn = solve_ssn(vb, u_b, reg, options=SsnOptions(gammas=LONG_GAMMAS))
    assert np.linalg.norm(ssn.mu - alm.mu) <= 1e-4 * np.linalg.norm(alm.mu)
    p_alm = primal_objective(alm.mu, vb, u_b, reg)
    p_ssn = primal_objective(ssn.mu, vb, u_b, reg)
    assert abs(p_alm - p_ssn) <= 1e-4 * abs(p_alm)


def test_gamma_schedule_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        SsnOptions(gammas=(1.0, 1.0, 10.0))
    with pytest.raises(ValueError, match="must not be empty"):  # no stage would run, yet read as converged
        SsnOptions(gammas=())
    with pytest.raises(ValueError, match="nonnegative"):
        SsnOptions(gammas=(-1.0, 1.0, 10.0))


@pytest.mark.parametrize("u_b, match", [
    (np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0]), "u_b contains NaN"),
    (np.zeros(5), "u_b must have shape"),
])
def test_solve_rejects_bad_data(u_b, match):
    vb, _, reg = random_instance(29, m=3, n=8)
    with pytest.raises(ValueError, match=match):
        solve_ssn(vb, u_b, reg)
