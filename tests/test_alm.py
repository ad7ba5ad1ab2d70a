import numpy as np
import pytest
from conftest import desk_config, random_instance

from sparsescat import alm
from sparsescat.alm import (
    AlmOptions,
    armijo_search,
    lagrangian_value,
    newton_matrix,
    newton_step,
    recover_mu,
    recover_z,
    residual_F,
    solve_alm,
)
from sparsescat.harness import run_experiment
from sparsescat.pda import PdaOptions, solve_pda
from sparsescat.prox import RegParams, dual_objective, primal_objective
from sparsescat.realfield import MeasurementOperator


def three_regime_resolvent(x, sigma, reg):
    """Independent componentwise reimplementation of (I + sigma dp)^{-1}."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    scale = 1.0 + sigma * reg.alpha0
    hi = x > sigma * reg.alpha
    lo = x < -sigma * reg.alpha
    out[hi] = (x[hi] - sigma * reg.alpha) / scale
    out[lo] = (x[lo] + sigma * reg.alpha) / scale
    return out


def test_residual_saturation_root(rng):
    # a huge threshold zeroes the resolvent, so F(y) = y + u_b with root -u_b
    vb, u_b, _ = random_instance(1, m=3, n=8)
    reg = RegParams(alpha=1e9, alpha0=0.0)
    y = rng.standard_normal(len(u_b))
    assert np.allclose(residual_F(y, np.zeros(vb.shape[1]), 1.0, vb, u_b, reg, vb.dense().T @ y), y + u_b, atol=0)
    assert np.max(np.abs(residual_F(-u_b, np.zeros(vb.shape[1]), 1.0, vb, u_b, reg, vb.dense().T @ -u_b))) == 0.0


def test_residual_affine_when_alpha_zero(rng):
    vb, u_b, _ = random_instance(2, m=3, n=8)
    reg = RegParams(alpha=0.0, alpha0=0.05)
    sigma = 2.5
    lam = rng.standard_normal(vb.shape[1])
    y = rng.standard_normal(vb.shape[0])
    scale = 1.0 + sigma * reg.alpha0
    expected = y + u_b + (vb.dense() @ lam + sigma * (vb.dense() @ (vb.dense().T @ y))) / scale
    got = residual_F(y, lam, sigma, vb, u_b, reg, vb.dense().T @ y)
    assert np.max(np.abs(got - expected)) < 1e-13


def test_residual_against_independent_resolvent(rng):
    vb, u_b, reg = random_instance(3, m=3, n=8)
    sigma = 3.7
    for _ in range(20):
        y = rng.standard_normal(vb.shape[0])
        lam = rng.standard_normal(vb.shape[1])
        direct = y + u_b - vb.dense() @ three_regime_resolvent(-lam - sigma * (vb.dense().T @ y), sigma, reg)
        got = residual_F(y, lam, sigma, vb, u_b, reg, vb.dense().T @ y)
        assert np.max(np.abs(got - direct)) <= 1e-14 * max(1.0, np.max(np.abs(direct)))


def test_newton_matrix_all_inactive(rng):
    vb, u_b, _ = random_instance(4, m=4, n=10)
    reg = RegParams(alpha=1e9, alpha0=0.1)
    y = rng.standard_normal(vb.shape[0])
    nmat = newton_matrix(y, np.zeros(vb.shape[1]), 1.0, vb, reg, vt_y=vb.dense().T @ y)
    assert np.array_equal(nmat, np.eye(vb.shape[0]))


def test_newton_matrix_all_active(rng):
    vb, u_b, _ = random_instance(5, m=4, n=10)
    reg = RegParams(alpha=0.0, alpha0=0.0)
    sigma = 2.0
    y = rng.standard_normal(vb.shape[0])
    lam = 1e-3 + np.abs(rng.standard_normal(vb.shape[1]))  # strictly away from the kink
    expected = np.eye(vb.shape[0]) + sigma * (vb.dense() @ vb.dense().T)
    y = y * 0
    assert np.max(np.abs(newton_matrix(y, lam, sigma, vb, reg, vt_y=vb.dense().T @ y) - expected)) < 1e-13


def test_newton_matrix_matches_finite_differences(rng):
    vb, u_b, reg = random_instance(6, m=4, n=10)
    sigma = 1.8
    eps = 1e-8
    for _ in range(5):
        y = rng.standard_normal(vb.shape[0])
        lam = rng.standard_normal(vb.shape[1])
        w = lam + sigma * (vb.dense().T @ y)
        if np.min(np.abs(np.abs(w) - sigma * reg.alpha)) < 1e-6:
            continue
        nmat = newton_matrix(y, lam, sigma, vb, reg, vt_y=vb.dense().T @ y)
        fd = np.empty_like(nmat)
        for j in range(vb.shape[0]):
            e = np.zeros(vb.shape[0])
            e[j] = eps
            fd[:, j] = (
                residual_F(y + e, lam, sigma, vb, u_b, reg, vb.dense().T @ (y + e))
                - residual_F(y - e, lam, sigma, vb, u_b, reg, vb.dense().T @ (y - e))
            ) / (2 * eps)
        assert np.linalg.norm(fd - nmat) <= 1e-5 * np.linalg.norm(nmat)


def test_newton_matrix_eigenvalue_floor(rng):
    from scipy.linalg import eigvalsh

    for seed in range(5):
        vb, u_b, reg = random_instance(40 + seed)
        y = rng.standard_normal(vb.shape[0])
        lam = rng.standard_normal(vb.shape[1])
        nmat = newton_matrix(y, lam, 4.0, vb, reg, vt_y=vb.dense().T @ y)
        assert eigvalsh(nmat)[0] >= 1.0 - 1e-10


def test_newton_step_zero_residual(rng):
    vb, u_b, reg = random_instance(7, m=3, n=9)
    y = rng.standard_normal(vb.shape[0])
    d = newton_step(y, np.zeros(vb.shape[1]), 1.0, vb, reg, residual=np.zeros(vb.shape[0]), vt_y=vb.dense().T @ y)
    assert not np.any(d)


def test_newton_step_identity_matrix(rng):
    vb, u_b, _ = random_instance(8, m=3, n=9)
    reg = RegParams(alpha=1e9, alpha0=0.0)  # all-inactive: N == I
    y = rng.standard_normal(vb.shape[0])
    resid = residual_F(y, np.zeros(vb.shape[1]), 1.0, vb, u_b, reg, vb.dense().T @ y)
    d = newton_step(y, np.zeros(vb.shape[1]), 1.0, vb, reg, residual=resid, vt_y=vb.dense().T @ y)
    assert np.max(np.abs(d + resid)) < 1e-14


def test_newton_step_matches_dense_solve(rng):
    vb, u_b, reg = random_instance(9)
    sigma = 2.2
    y = rng.standard_normal(vb.shape[0])
    lam = rng.standard_normal(vb.shape[1])
    nmat = newton_matrix(y, lam, sigma, vb, reg, vt_y=vb.dense().T @ y)
    resid = residual_F(y, lam, sigma, vb, u_b, reg, vb.dense().T @ y)
    d = newton_step(y, lam, sigma, vb, reg, residual=resid, vt_y=vb.dense().T @ y)
    oracle = np.linalg.solve(nmat, -resid)  # LU path
    assert np.linalg.norm(nmat @ d + resid) <= 1e-12 * np.linalg.norm(resid)
    assert np.max(np.abs(d - oracle)) < 1e-11


def _newton_direction(y, lam, sigma, vb, u_b, reg):
    """The Newton step at y with its products formed from scratch."""
    resid = residual_F(y, lam, sigma, vb, u_b, reg, vb.dense().T @ y)
    return newton_step(y, lam, sigma, vb, reg, residual=resid, vt_y=vb.dense().T @ y)


def test_armijo_full_step_on_affine_residual(rng):
    # alpha == 0 makes the residual affine, so the Newton step is exact and
    # the unit step must pass the descent test immediately
    vb, u_b, _ = random_instance(10, m=4, n=9)
    reg = RegParams(alpha=0.0, alpha0=0.01)
    sigma = 1.5
    lam = rng.standard_normal(vb.shape[1])
    y = rng.standard_normal(vb.shape[0])
    d = _newton_direction(y, lam, sigma, vb, u_b, reg)
    step, ok, _ = armijo_search(y, d, lam, sigma, vb.dense().T @ y, vb.dense().T @ d, u_b, reg, beta=0.3, c=1e-4)
    assert ok and step == 1.0


def test_armijo_accepts_newton_direction(rng):
    vb, u_b, reg = random_instance(11)
    sigma = 2.0
    lam = rng.standard_normal(vb.shape[1])
    y = rng.standard_normal(vb.shape[0])
    d = _newton_direction(y, lam, sigma, vb, u_b, reg)
    step, ok, value = armijo_search(y, d, lam, sigma, vb.dense().T @ y, vb.dense().T @ d, u_b, reg, beta=0.3, c=1e-12)
    assert ok
    base = lagrangian_value(y, lam, sigma, vb.dense().T @ y, u_b, reg)
    after = lagrangian_value(y + step * d, lam, sigma, vb.dense().T @ (y + step * d), u_b, reg)
    assert after <= base - 1e-12 * step * float(d @ d)
    assert abs(value - after) <= 1e-12 * abs(after)


def test_armijo_fails_on_ascent_direction(rng):
    vb, u_b, reg = random_instance(12)
    sigma = 2.0
    lam = rng.standard_normal(vb.shape[1])
    y = rng.standard_normal(vb.shape[0])
    ascent = residual_F(y, lam, sigma, vb, u_b, reg, vb.dense().T @ y)  # F is the reduced gradient
    assert np.linalg.norm(ascent) > 1e-8
    step, ok, value = armijo_search(y, ascent, lam, sigma, vb.dense().T @ y, vb.dense().T @ ascent, u_b, reg,
                                    beta=0.5, c=1e-4, max_backtracks=12)
    assert not ok
    assert step == 0.5**12  # the smallest trial step, and the objective there
    assert abs(value - lagrangian_value(y + step * ascent, lam, sigma, vb.dense().T @ (y + step * ascent), u_b, reg)) \
        <= 1e-12 * abs(value)


def test_armijo_requires_nonzero_direction(rng):
    vb, u_b, reg = random_instance(13)
    zeros = np.zeros(vb.shape[1])
    with pytest.raises(ValueError):
        armijo_search(np.zeros(vb.shape[0]), np.zeros(vb.shape[0]), zeros, 1.0, zeros, zeros, u_b, reg, beta=0.3)


def test_recover_z_zero():
    vb, u_b, reg = random_instance(14)
    z = recover_z(vb.dense().T @ np.zeros(vb.shape[0]), np.zeros(vb.shape[1]), 1.0, reg)
    assert not np.any(z)


def test_recover_z_saturation(rng):
    vb, u_b, _ = random_instance(15, m=3, n=8)
    reg = RegParams(alpha=1e12, alpha0=0.0)
    sigma = 2.0
    y = rng.standard_normal(vb.shape[0])
    lam = rng.standard_normal(vb.shape[1])
    expected = -(vb.dense().T @ y) - lam / sigma
    assert np.max(np.abs(recover_z(vb.dense().T @ y, lam, sigma, reg) - expected)) < 1e-14


def test_multiplier_update_feasible_point():
    # y = 0, lam = 0 is feasible for zero data: z stays 0 and lam never moves
    vb, _, reg = random_instance(16, m=3, n=8)
    result = solve_alm(vb, np.zeros(vb.shape[0]), reg, options=AlmOptions(max_outer=3))
    assert not np.any(result.z)
    assert all(not np.any(lam) for lam in result.lam_history)


def test_multiplier_update_maintains_z_invariant():
    # the run stopped after outer iteration k ends with the y of that iteration,
    # so each multiplier step lam_{k+1} = lam_k + sigma_k (vb^T y + z) is checked
    # on its own run, with z the Moreau recovery at the pre-update multiplier
    # (vb^T y is the solver's own product, the operator's rmatvec)
    vb, u_b, reg = random_instance(33, m=3, n=8)
    for k in range(4):
        result = solve_alm(vb, u_b, reg, options=AlmOptions(max_outer=k + 1, lam_tol=0.0, gap_tol=0.0))
        assert result.outer_iters == k + 1
        lam_k = result.lam_history[k]
        sigma_k = [r["sigma"] for r in result.records if r["kind"] == "outer"][k]
        vt_y = vb.rmatvec(result.y)
        assert np.array_equal(result.z, recover_z(vt_y, lam_k, sigma_k, reg))
        assert np.array_equal(result.lam_history[k + 1], lam_k + sigma_k * (vt_y + result.z))


def test_sigma_growth_capped(monkeypatch):
    # the first penalty is max(1, 0.01/alpha0), 1 when alpha0 = 0; then sixfold per step; both capped at SIGMA_MAX
    monkeypatch.setattr(alm, "SIGMA_MAX", 1000.0)
    options = AlmOptions(max_outer=6, lam_tol=0.0, gap_tol=0.0)

    def sigmas(alpha0):
        vb, u_b, reg = random_instance(17, m=3, n=8, alpha0=alpha0)
        return [r["sigma"] for r in solve_alm(vb, u_b, reg, options=options).records if r["kind"] == "outer"]

    sigma0 = 0.01 / random_instance(17, m=3, n=8)[2].alpha0
    assert sigma0 > 1.0  # the instance draws alpha0 from [1e-4, 1e-2]
    expected = [min(sigma0 * 6.0**k, 1000.0) for k in range(6)]
    assert sigmas(None) == pytest.approx(expected, rel=1e-15, abs=0) and expected[-2:] == [1000.0, 1000.0]
    assert sigmas(0.0) == [1.0, 6.0, 36.0, 216.0, 1000.0, 1000.0]
    assert set(sigmas(1e-6)) == {1000.0}  # 0.01/alpha0 = 1e4: every step, the first too, at the cap


def test_recover_mu_zero_dual():
    vb, u_b, reg = random_instance(18)
    assert not np.any(recover_mu(vb.dense().T @ np.zeros(vb.shape[0]), reg))


def test_recover_mu_requires_alpha0():
    vb, u_b, _ = random_instance(19)
    with pytest.raises(ValueError):
        recover_mu(vb.dense().T @ np.zeros(vb.shape[0]), RegParams(alpha=0.1, alpha0=0.0))


def tight_options(**kw):
    base = dict(lam_tol=1e-10, gap_tol=1e-12, max_outer=25)
    base.update(kw)
    return AlmOptions(**base)


def test_solve_zero_data():
    vb, _, reg = random_instance(20)
    result = solve_alm(vb, np.zeros(vb.shape[0]), reg)
    assert not np.any(result.mu) and not np.any(result.y)


def test_solve_matches_long_run_pda():
    vb, u_b, reg = random_instance(21, m=4, n=12, alpha=0.1, alpha0=0.01)
    alm = solve_alm(vb, u_b, reg, options=tight_options())
    pda = solve_pda(vb, u_b, reg, options=PdaOptions(iters=10**6, record_every=200))
    assert pda.stop_reason == "certified"
    p_alm = primal_objective(alm.mu, vb, u_b, reg)
    p_pda = primal_objective(pda.mu, vb, u_b, reg)
    assert abs(p_alm - p_pda) <= 1e-6 * abs(p_alm)


def test_solve_multiplies_by_vb_transpose_twice_per_newton_step(monkeypatch):
    # vb^T d for the line search and vb^T y after the step; a loop head reuses the last vb^T y
    vb, u_b, reg = random_instance(22, m=4, n=12, alpha=0.05, alpha0=0.005)
    calls = 0
    product = MeasurementOperator.rmatvec

    def counted(op, y):  # the SMW branch multiplies column blocks by dgemv, never the whole of vb
        nonlocal calls
        calls += 1
        return product(op, y)

    monkeypatch.setattr(MeasurementOperator, "rmatvec", counted)
    result = solve_alm(vb, u_b, reg, options=tight_options())
    assert result.iterations > 0
    assert calls == 2 * result.iterations


def test_solve_duality_and_multiplier_identities():
    vb, u_b, reg = random_instance(22, m=4, n=12, alpha=0.05, alpha0=0.005)
    result = solve_alm(vb, u_b, reg, options=tight_options())
    p = primal_objective(result.mu, vb, u_b, reg)
    assert result.gap <= 1e-6 * (1.0 + abs(p))
    assert np.linalg.norm(result.mu + result.lam) <= 1e-5
    # feasibility of the dualized constraint at termination
    assert np.linalg.norm(vb.dense().T @ result.y + result.z) <= 1e-8


def test_solve_kkt_componentwise():
    vb, u_b, reg = random_instance(23, m=5, n=14, alpha=0.08, alpha0=0.01)
    result = solve_alm(vb, u_b, reg, options=tight_options())
    grad = -(vb.dense().T @ result.y)
    mu = result.mu
    on = np.abs(mu) > 1e-12
    assert np.max(np.abs(grad[on] - reg.alpha * np.sign(mu[on]) - reg.alpha0 * mu[on])) < 1e-6
    assert np.max(np.abs(grad[~on])) <= reg.alpha * (1.0 + 1e-6)


def test_solve_dual_objective_monotone():
    vb, u_b, reg = random_instance(24, m=4, n=12, alpha=0.05, alpha0=0.01)
    result = solve_alm(vb, u_b, reg, options=tight_options())
    outer = [r for r in result.records if r["kind"] == "outer"]
    dvals = []
    lam = np.zeros(vb.shape[1])
    # recompute D(y) per outer iteration from the record stream is not
    # possible without y; assert monotone decrease of the recorded gap instead
    gaps = [r["gap"] for r in outer]
    assert all(g2 <= g1 * (1 + 1e-6) + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))


def test_solve_multiplier_converges_geometrically():
    vb, u_b, reg = random_instance(25, m=4, n=12, alpha=0.05, alpha0=0.01)
    result = solve_alm(vb, u_b, reg, options=tight_options(lam_tol=1e-13, max_outer=10))
    lam_hist = result.lam_history
    lam_star = lam_hist[-1]
    dists = [np.linalg.norm(l - lam_star) for l in lam_hist[:-1]]
    ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 1e-13]
    assert ratios and all(r < 1.0 for r in ratios[-3:])


def test_inner_termination_tolerance():
    # the residual at every inner termination obeys the active surrogate
    # tolerance recorded by the solver
    vb, u_b, reg = random_instance(26, m=4, n=12, alpha=0.05, alpha0=0.01)
    result = solve_alm(vb, u_b, reg, options=tight_options())
    outers = [r for r in result.records if r["kind"] == "outer"]
    assert outers
    for rec in outers:
        if rec["inner_stop"] == "tolerance":
            assert rec["final_residual"] <= rec["tol_a"]
            assert rec["final_residual"] <= rec["tol_b2"]
        elif rec["inner_stop"] == "floor":
            assert rec["final_residual"] <= rec["floor"]
    assert any(r["inner_stop"] in ("tolerance", "floor") for r in outers)


def _instance_with_active_set(seed, n_active, sigma=1.7):
    """Random (y, lam) whose active set has exactly n_active components."""
    vb, u_b, reg = random_instance(seed, m=4, n=10, alpha=0.1, alpha0=0.01)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(vb.shape[0])
    vt_y = vb.dense().T @ y
    active = np.zeros(vb.shape[1], dtype=bool)
    active[rng.choice(vb.shape[1], size=n_active, replace=False)] = True
    # |lam + sigma*vb^T y| is 2*sigma*alpha on the active set and 0 off it
    lam = -sigma * vt_y + np.where(active, 2.0 * sigma * reg.alpha * rng.choice([-1.0, 1.0], vb.shape[1]), 0.0)
    return vb, u_b, reg, y, lam, sigma


@pytest.mark.parametrize("n_active", [0, 1, 7, 8, 13])  # 2M = 8, 2N = 20
def test_newton_step_smw_matches_dense_solve(n_active):
    for seed in range(3):
        vb, u_b, reg, y, lam, sigma = _instance_with_active_set(60 + seed, n_active)
        assert np.count_nonzero(np.abs(lam + sigma * (vb.dense().T @ y)) > sigma * reg.alpha) == n_active
        nmat = newton_matrix(y, lam, sigma, vb, reg, vt_y=vb.dense().T @ y)
        resid = residual_F(y, lam, sigma, vb, u_b, reg, vb.dense().T @ y)
        oracle = np.linalg.solve(nmat, -resid)
        d = newton_step(y, lam, sigma, vb, reg, residual=resid, vt_y=vb.dense().T @ y)
        assert np.linalg.norm(d - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_desk_run_takes_no_gram_step(monkeypatch):
    # from its first penalty 0.01/alpha0 = 1e5 the criterion-7 homogeneous desk run keeps every active set
    # below 2M = 512, so each Newton step is a Sherman-Morrison-Woodbury or identity step
    built = []
    build = alm.newton_matrix

    def spy(*args, **kwargs):
        built.append(args[2])
        return build(*args, **kwargs)

    monkeypatch.setattr(alm, "newton_matrix", spy)
    solved = run_experiment(desk_config("alm", False)).solved
    assert built == []
    assert solved.stop_reason == "duality_gap"
    assert 0 < solved.iterations <= 15


def _armijo_from_scratch(y, d, lam, sigma, vb, u_b, reg, beta, c, max_backtracks):
    """The line search with every trial objective recomputed from y + t*d."""
    base = lagrangian_value(y, lam, sigma, vb.dense().T @ y, u_b, reg)
    step = 1.0
    for t in range(max_backtracks + 1):
        step = step * beta if t else step
        value = lagrangian_value(y + step * d, lam, sigma, vb.dense().T @ (y + step * d), u_b, reg)
        if value <= base - c * step * float(d @ d):
            return step, True, value
    return step, False, value


def test_armijo_reused_products_match(rng):
    for seed in range(5):
        vb, u_b, reg = random_instance(70 + seed)
        sigma = 2.0
        lam = rng.standard_normal(vb.shape[1])
        y = rng.standard_normal(vb.shape[0])
        newton = _newton_direction(y, lam, sigma, vb, u_b, reg)
        ascent = residual_F(y, lam, sigma, vb, u_b, reg, vb.dense().T @ y)
        for d, kw in ((newton, dict(beta=0.3, c=1e-4, max_backtracks=30)),
                      (ascent, dict(beta=0.5, c=1e-4, max_backtracks=12))):
            step, accepted, value = armijo_search(y, d, lam, sigma, vb.dense().T @ y, vb.dense().T @ d, u_b, reg, **kw)
            ref_step, ref_accepted, ref_value = _armijo_from_scratch(y, d, lam, sigma, vb, u_b, reg, **kw)
            assert (step, accepted) == (ref_step, ref_accepted)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)


def test_inner_records_objective_from_scratch(monkeypatch):
    vb, u_b, reg = random_instance(27, m=4, n=12, alpha=0.05, alpha0=0.01)
    calls = []
    search = alm.armijo_search

    def spy(y, d, lam, sigma, *args, **kwargs):
        step, accepted, value = search(y, d, lam, sigma, *args, **kwargs)
        calls.append((y + step * d, lam, sigma))
        return step, accepted, value

    monkeypatch.setattr(alm, "armijo_search", spy)
    result = solve_alm(vb, u_b, reg, options=tight_options())
    inner = [r for r in result.records if r["kind"] == "inner"]
    assert inner and len(inner) == len(calls)
    for rec, (y, lam, sigma) in zip(inner, calls):
        ref = lagrangian_value(y, lam, sigma, vb.dense().T @ y, u_b, reg)
        assert abs(rec["objective"] - ref) <= 1e-12 * abs(ref)


def test_exhausted_line_search_warns_and_is_recorded(monkeypatch):
    # with no backtracks a full step that misses the Armijo decrease exhausts the search
    vb, u_b, reg = random_instance(0)
    monkeypatch.setattr(alm, "MAX_BACKTRACKS", 0)
    with pytest.warns(RuntimeWarning, match="line search exhausted") as warned:
        result = solve_alm(vb, u_b, reg)
    accepted = [r["accepted"] for r in result.records if r["kind"] == "inner"]
    assert accepted.count(False) == len(warned) > 0
    assert all(r["step"] == 1.0 for r in result.records if r["kind"] == "inner")


def test_outer_records_gap_from_scratch():
    # the run stopped after outer iteration k ends with the y of that iteration
    vb, u_b, reg = random_instance(28, m=4, n=12, alpha=0.05, alpha0=0.01)
    for k in range(6):
        result = solve_alm(vb, u_b, reg, options=AlmOptions(max_outer=k + 1, lam_tol=0.0, gap_tol=0.0))
        rec = [r for r in result.records if r["kind"] == "outer"][k]
        primal = primal_objective(recover_mu(vb.dense().T @ result.y, reg), vb, u_b, reg)
        dual = dual_objective(result.y, vb.dense().T @ result.y, u_b, reg)
        assert abs(rec["gap"] - (primal + dual)) <= 1e-12 * (abs(primal) + abs(dual))


@pytest.mark.parametrize("seed", [300, 301, 302])
def test_lasso_without_alpha0_meets_optimality_conditions(seed):
    # alpha0 = 0 takes the source from the multiplier, mu = -lam; with
    # g = vb^T (vb mu - u_b) the LASSO conditions are |g| <= alpha everywhere
    # and g_i = -alpha sign(mu_i) on the support
    vb, u_b, reg = random_instance(seed, alpha0=0.0)
    result = solve_alm(vb, u_b, reg)
    assert result.converged and result.stop_reason == "multiplier_change"
    mu = result.mu
    g = vb.dense().T @ (vb.dense() @ mu - u_b)
    support = np.abs(mu) > 1e-8 * np.linalg.norm(mu)
    assert support.any()
    assert np.max(np.abs(g)) <= reg.alpha * (1.0 + 1e-8)
    assert np.max(np.abs(g[support] + reg.alpha * np.sign(mu[support]))) <= 1e-8 * reg.alpha
    assert np.max(np.abs(mu[~support])) <= 1e-12


@pytest.mark.parametrize("u_b, match", [
    (np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0]), "u_b contains NaN"),
    (np.zeros(5), "u_b must have shape"),
])
def test_solve_rejects_bad_data(u_b, match):
    vb, _, reg = random_instance(29, m=3, n=8)
    with pytest.raises(ValueError, match=match):
        solve_alm(vb, u_b, reg)
