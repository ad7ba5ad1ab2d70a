import tracemalloc

import numpy as np
import pytest
from conftest import random_instance
from scipy.linalg import cho_solve
from scipy.linalg.blas import dsyrk

from sparsescat import ssn
from sparsescat.alm import AlmOptions, solve_alm
from sparsescat.prox import RegParams, certificate, certified, primal_objective
from sparsescat.realfield import MeasurementOperator
from sparsescat.ssn import (
    GAMMA_GROWTH,
    MAX_GAMMA,
    SsnOptions,
    active_sets,
    build_b_operator,
    path_follow,
    ssn_newton_solve,
    ssn_stage,
    solve_ssn,
    violation,
)


def dense_b(b):
    """The dense B, mirrored from the lower triangle that `b.matrix` stores."""
    return np.tril(b.matrix) + np.tril(b.matrix, -1).T


def dense_gradient(bm, mu, c, alpha, gamma):
    """Gradient B (mu + gamma*violation(B mu - c)) of the penalized objective, from the dense B."""
    return bm @ (mu + gamma * violation(bm @ mu - c, alpha))


def binv_vt(vb, b, u_b):
    """B^{-1} vb^T u_b by the push-through identity, as solve_ssn forms it."""
    return vb.dense().T @ cho_solve(b.factor, u_b)


def run_stages(b, c, mu0, alpha, gammas):
    """`ssn_stage` at each gamma in turn from mu0, carrying mu and w; returns mu after each stage and all records."""
    mu, w = mu0, np.zeros_like(mu0)
    mus, records = [], []
    for gamma in gammas:
        mu, w, _, stage_records = ssn_stage(b, c, mu, w, alpha, gamma)
        mus.append(mu)
        records += stage_records
    return mus, records


def test_b_operator_requires_alpha0():
    vb, _, _ = random_instance(1)
    with pytest.raises(ValueError):
        build_b_operator(vb, RegParams(alpha=0.1, alpha0=0.0))


def test_b_operator_definition():
    # the absolute floor covers B's structural zeros (the diagonal of the imaginary
    # block), where products that cancel exactly leave a few ulps of max|B|
    vb, _, reg = random_instance(2)
    b = build_b_operator(vb, reg)
    ref = vb.dense().T @ vb.dense() + reg.alpha0 * np.eye(vb.shape[1])
    # only the lower triangle is stored
    assert np.allclose(np.tril(b.matrix), np.tril(ref), rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))


def test_b_is_bitwise_the_dsyrk_of_the_realified_operator():
    # build_b_operator forms B from the one realified copy of the operator by the dsyrk of that array
    vb, _, reg = random_instance(35, m=5, n=40)
    b = build_b_operator(vb, reg)
    ref = dsyrk(1.0, vb.dense(), trans=1).T  # the upper triangle of the column-major product, read in C order
    ref[np.diag_indices_from(ref)] += reg.alpha0
    assert np.array_equal(np.tril(b.matrix), np.tril(ref))


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
    mu0 = binv_vt(vb, b, u_b)
    result = path_follow(b, u_b, mu0, reg)
    b.matrix[np.triu_indices_from(b.matrix, 1)] = np.nan
    poisoned = path_follow(b, u_b, mu0, reg)
    assert result.stop_reason == "certified" and max(r["active"] for r in result.records) > 1
    assert np.array_equal(poisoned.mu, result.mu)
    assert (poisoned.records, poisoned.iterations, poisoned.stop_reason, poisoned.gap, poisoned.bound) == (
        result.records, result.iterations, result.stop_reason, result.gap, result.bound)


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
    oracle = np.linalg.solve(dense_b(b), vb.dense().T @ u_b)
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


def test_realified_copy_dies_before_the_path(monkeypatch):
    # build_b_operator forms B and G from one realified copy of the operator, twice T's bytes (B itself
    # lives in its own mapping, which tracemalloc does not see); the path starts without that copy
    vb, u_b, reg = random_instance(19, m=8, n=1024, alpha=0.05)
    path = ssn.path_follow
    alive = []

    def path_spy(*args, **kwargs):
        alive.append(tracemalloc.get_traced_memory()[0])
        return path(*args, **kwargs)

    monkeypatch.setattr(ssn, "path_follow", path_spy)
    tracemalloc.start()
    try:
        solve_ssn(vb, u_b, reg)
    finally:
        tracemalloc.stop()
    assert alive[0] < vb.nbytes / 2, alive


def test_active_sets_empty_at_zero():
    vb, _, reg = random_instance(3)
    b = build_b_operator(vb, reg)
    plus, minus = active_sets(dense_b(b) @ np.zeros(vb.shape[1]), 0.5)
    assert not plus.any() and not minus.any()


def test_active_sets_boundary_inclusive():
    # exact threshold values: >= alpha joins the upper set, <= -alpha the lower
    alpha = 0.7
    b = build_b_operator(MeasurementOperator(np.zeros((1, 2), dtype=complex)), RegParams(alpha=alpha, alpha0=1.0))
    y = np.array([alpha, -alpha, 0.5 * alpha, 0.0])  # B = I
    plus, minus = active_sets(dense_b(b) @ y, alpha)
    assert plus.tolist() == [True, False, False, False]
    assert minus.tolist() == [False, True, False, False]


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
    c = vb.dense().T @ u_b
    none = np.zeros(vb.shape[1], bool)
    mu = ssn_newton_solve(none, none, b, c, 0.5, 0.0)
    assert np.allclose(mu - binv_vt(vb, b, u_b), -np.linalg.solve(dense_b(b), c), atol=1e-10)


def test_newton_solve_empty_active_set_matches_gamma_zero():
    vb, u_b, reg = random_instance(7)
    b = build_b_operator(vb, reg)
    c = vb.dense().T @ u_b
    none = np.zeros(vb.shape[1], bool)
    mu = ssn_newton_solve(none, none, b, c, 0.5, 10.0)
    assert np.allclose(mu - binv_vt(vb, b, u_b), -np.linalg.solve(dense_b(b), c), atol=1e-10)


def test_newton_solve_matches_unreduced_system(rng):
    # the active-block solve must solve the full 2N x 2N system
    # (B + gamma B X B) y = -vb^T u_b + gamma alpha B (chi+ - chi-) 1 in y = mu - B^{-1} vb^T u_b
    vb, u_b, reg = random_instance(8, m=4, n=9)
    b = build_b_operator(vb, reg)
    c = vb.dense().T @ u_b
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
    c = vb.dense().T @ u_b
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
    c, mu0 = vb.dense().T @ u_b, binv_vt(vb, b, u_b)
    bm = dense_b(b)
    (*_, mu), records = run_stages(b, c, mu0, reg.alpha, (1.0, 10.0, 100.0))
    assert all(r["settled"] for r in records if r["kind"] == "stage")
    grad = dense_gradient(bm, mu, c, reg.alpha, 100.0)
    assert np.linalg.norm(grad) <= 1e-9 * max(1.0, np.linalg.norm(c))

    result = path_follow(b, u_b, mu0, reg)
    mu, gamma = result.mu, result.records[-1]["gamma"]
    assert result.converged
    grad = dense_gradient(bm, mu, c, reg.alpha, gamma)
    scale = (1.0 + gamma) * np.linalg.norm(bm) ** 2 * np.linalg.norm(mu - mu0) + np.linalg.norm(c)
    assert np.linalg.norm(grad) <= 1e-12 * scale


def test_path_follow_carries_b_times_y(monkeypatch):
    # every objective reads w = B mu - vb^T u_b of its mu, bit for bit (at the start
    # mu0 = B^{-1} vb^T u_b, w is 0 by definition), and the last record's residual
    # is that of the returned mu
    vb, u_b, reg = random_instance(17, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.rmatvec(u_b)  # as path_follow forms vb^T u_b
    mu0 = binv_vt(vb, b, u_b)
    objectives = []
    objective = ssn.penalty_objective

    def objective_spy(mu, w, *args):
        objectives.append((mu, w, np.array_equal(w, b.dot(mu) - c)))
        return objective(mu, w, *args)

    monkeypatch.setattr(ssn, "penalty_objective", objective_spy)
    # this instance takes damped steps, and w is carried from stage to stage
    result = path_follow(b, u_b, mu0, reg)
    mu = result.mu
    records = [r for r in result.records if r["kind"] == "inner"]
    assert len({r["gamma"] for r in records}) > 1
    assert any(r["step"] < 1.0 for r in records)
    start_mu, start_w, _ = objectives[0]
    assert start_mu is mu0 and not np.any(start_w)
    assert len(objectives) > 1 and all(exact for _, _, exact in objectives[1:])
    w = b.dot(mu) - c
    gamma = records[-1]["gamma"]
    expected = np.linalg.norm(mu + gamma * (np.maximum(0.0, w - reg.alpha) + np.minimum(0.0, w + reg.alpha)))
    assert records[-1]["residual"] == float(expected)


def test_path_follow_counts_b_products(monkeypatch):
    # one product per Newton solve and per backtracking trial: the slope of a
    # damped step reads B d from the carried w, and the records add none
    vb, u_b, reg = random_instance(17, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    count = 0
    dot = ssn.BOperator.dot

    def dot_spy(self, x):
        nonlocal count
        count += 1
        return dot(self, x)

    monkeypatch.setattr(ssn.BOperator, "dot", dot_spy)
    result = path_follow(b, u_b, binv_vt(vb, b, u_b), reg)
    damped = [r["step"] for r in result.records if r["kind"] == "inner" and r["step"] < 1.0]
    trials = sum(round(np.log2(1.0 / s)) for s in damped)  # halvings from 1 to the accepted step
    assert damped
    assert count == result.iterations + trials


def test_stage_records_close_each_gamma():
    # after each gamma's inner records comes one stage record; a settled stage's last active set is
    # that of its last Newton step
    vb, u_b, reg = random_instance(17, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    result = path_follow(b, u_b, binv_vt(vb, b, u_b), reg)
    records = result.records
    stages = [r for r in records if r["kind"] == "stage"]
    assert result.converged and all(r["settled"] for r in stages)
    assert [r["gamma"] for r in stages] == [GAMMA_GROWTH**i for i in range(len(stages))]
    for last, stage in zip(records, records[1:]):
        if stage["kind"] == "stage":
            assert (last["kind"], last["gamma"], last["active"]) == ("inner", stage["gamma"], stage["active"])


def test_path_stops_at_the_first_certified_stage():
    # each stage record holds the certificate of its mu and y = vb mu - u_b; the path ends at the
    # first stage whose mu it certifies, and the result reports that certificate
    vb, u_b, reg = random_instance(10)
    b = build_b_operator(vb, reg)
    mu0 = binv_vt(vb, b, u_b)
    result = path_follow(b, u_b, mu0, reg)
    stages = [r for r in result.records if r["kind"] == "stage"]
    mus, _ = run_stages(b, vb.rmatvec(u_b), mu0, reg.alpha, [r["gamma"] for r in stages])
    assert np.array_equal(mus[-1], result.mu)
    for mu, stage in zip(mus, stages):
        # the certificate from the dense products: the same gap up to the rounding of the products
        y = vb.dense() @ mu - u_b
        primal = primal_objective(mu, vb, u_b, reg)
        gap, bound = certificate(primal, y, vb.dense().T @ y, u_b, reg)
        scale = primal + abs(gap)  # about |P| + |D|
        assert abs(stage["gap"] - gap) <= 1e-12 * scale
        assert stage["bound"] > 0 and abs(stage["bound"] ** 2 - bound**2) * reg.alpha0 / 2 <= 1e-12 * scale
        assert certified(mu, stage["gap"], stage["bound"], reg) == (stage is stages[-1])
    assert len(stages) > 1 and result.stop_reason == "certified" and result.converged
    assert (result.gap, result.bound) == (stages[-1]["gap"], stages[-1]["bound"])


def test_record_residual_is_preconditioned_gradient(monkeypatch):
    # residual = ||B^{-1} grad E|| at the recorded iterate; one Newton step per
    # stage makes the returned mu the recorded one, and the stage record says it did not settle
    vb, u_b, reg = random_instance(33, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.dense().T @ u_b
    monkeypatch.setattr(ssn, "MAX_INNER", 1)
    mu0 = binv_vt(vb, b, u_b)
    for gamma in (1.0, 10.0, 100.0):
        with pytest.warns(RuntimeWarning, match="did not settle"):
            mu, _, _, (record, stage) = ssn_stage(b, c, mu0, np.zeros_like(mu0), reg.alpha, gamma)
        assert (record["kind"], stage["kind"], stage["settled"]) == ("inner", "stage", False)
        bm = dense_b(b)
        expected = np.linalg.norm(np.linalg.solve(bm, dense_gradient(bm, mu, c, reg.alpha, gamma)))
        assert expected > 0
        assert abs(record["residual"] - expected) <= 1e-10 * expected


def test_path_follow_zero_data():
    vb, _, reg = random_instance(10)
    b = build_b_operator(vb, reg)
    zeros = np.zeros(vb.shape[0])
    result = path_follow(b, zeros, binv_vt(vb, b, zeros), RegParams(alpha=0.5, alpha0=reg.alpha0))
    assert not np.any(result.mu)
    # the zero answer's gap is zero, within the rounding allowance: certified after the first stage
    assert result.stop_reason == "certified" and [r["gamma"] for r in result.records if r["kind"] == "stage"] == [1.0]


def test_constraint_violation_nonincreasing_along_path():
    vb, u_b, reg = random_instance(11, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.dense().T @ u_b
    violations = []
    mus, _ = run_stages(b, c, binv_vt(vb, b, u_b), reg.alpha, [10.0**i for i in range(9)])
    for mu in mus:
        w = dense_b(b) @ mu - c
        violations.append(max(0.0, np.max(np.abs(w)) - reg.alpha))
    assert all(b2 <= a * (1 + 1e-9) + 1e-15 for a, b2 in zip(violations, violations[1:]))


def test_final_feasibility_at_large_gamma():
    vb, u_b, reg = random_instance(12, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    c = vb.dense().T @ u_b
    mu = path_follow(b, u_b, binv_vt(vb, b, u_b), reg).mu
    w = dense_b(b) @ mu - c
    assert np.max(np.maximum(0.0, np.abs(w) - reg.alpha)) <= reg.alpha * 1e-4


def test_cross_agreement_with_alm():
    vb, u_b, reg = random_instance(15, m=4, n=12, alpha=0.08, alpha0=0.01)
    alm = solve_alm(vb, u_b, reg, options=AlmOptions(lam_tol=1e-10, max_outer=25))
    ssn = solve_ssn(vb, u_b, reg, options=SsnOptions())
    assert ssn.stop_reason == "certified"
    assert np.linalg.norm(ssn.mu - alm.mu) <= 1e-4 * np.linalg.norm(alm.mu)
    p_alm = primal_objective(alm.mu, vb, u_b, reg)
    p_ssn = primal_objective(ssn.mu, vb, u_b, reg)
    assert abs(p_alm - p_ssn) <= 1e-4 * abs(p_alm)


def test_gamma_schedule_must_increase(monkeypatch):
    # gamma grows GAMMA_GROWTH-fold from 1; a path that never certifies stops on max_gamma, not
    # converged, after its stage at the last gamma within MAX_GAMMA
    vb, u_b, reg = random_instance(17, m=4, n=12, alpha=0.05, alpha0=0.01)
    b = build_b_operator(vb, reg)
    monkeypatch.setattr(ssn, "certified", lambda *args: False)
    result = path_follow(b, u_b, binv_vt(vb, b, u_b), reg)
    gammas = [r["gamma"] for r in result.records if r["kind"] == "stage"]
    assert gammas == [GAMMA_GROWTH**i for i in range(len(gammas))]
    assert gammas[-1] <= MAX_GAMMA < GAMMA_GROWTH * gammas[-1]
    assert result.stop_reason == "max_gamma" and not result.converged
    with pytest.raises(TypeError):  # no schedule to set: SsnOptions has no fields
        SsnOptions(gammas=(1.0, 10.0))


@pytest.mark.parametrize("u_b, match", [
    (np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0]), "u_b contains NaN"),
    (np.zeros(5), "u_b must have shape"),
])
def test_solve_rejects_bad_data(u_b, match):
    vb, _, reg = random_instance(29, m=3, n=8)
    with pytest.raises(ValueError, match=match):
        solve_ssn(vb, u_b, reg)
