from dataclasses import fields

import numpy as np
import pytest
from conftest import random_instance

from sparsescat.alm import AlmOptions, solve_alm
from sparsescat.pda import (
    PdaOptions,
    default_steps,
    pda_dual_step,
    pda_primal_step,
    solve_pda,
    spectral_norm,
)
from sparsescat.prox import RegParams, primal_objective, prox_p


def test_dual_step_cancellation():
    u_b = np.array([1.0, -2.0, 0.5, 3.0])
    p = u_b.copy()
    vb = np.zeros((4, 6))
    out = pda_dual_step(p, np.zeros(6), vb, u_b, sigma=1.0)
    assert np.array_equal(out, np.zeros(4))


def test_dual_step_geometric_decay(rng):
    p = rng.standard_normal(8)
    vb = np.zeros((8, 10))
    out = pda_dual_step(p, np.zeros(10), vb, np.zeros(8), sigma=0.5)
    assert np.allclose(out, p / 1.5, atol=0)


def test_primal_step_zero_argument():
    vb = np.zeros((4, 6))
    out = pda_primal_step(np.zeros(6), np.zeros(4), vb, 0.7, RegParams(alpha=0.3, alpha0=0.1))
    assert not np.any(out)


def test_primal_step_alpha_zero(rng):
    vb, u_b, _ = random_instance(1, m=3, n=8)
    reg = RegParams(alpha=0.0, alpha0=0.4)
    mu = rng.standard_normal(vb.shape[1])
    p = rng.standard_normal(vb.shape[0])
    tau = 0.9
    expected = (mu - tau * (vb.T @ p)) / (1.0 + tau * reg.alpha0)
    assert np.max(np.abs(pda_primal_step(mu, p, vb, tau, reg) - expected)) < 1e-15


def test_primal_step_equals_prox(rng):
    vb, u_b, reg = random_instance(2)
    for _ in range(10):
        mu = rng.standard_normal(vb.shape[1])
        p = rng.standard_normal(vb.shape[0])
        tau = float(rng.uniform(0.1, 3.0))
        lhs = pda_primal_step(mu, p, vb, tau, reg)
        rhs = prox_p(mu - tau * (vb.T @ p), tau, reg)
        assert np.array_equal(lhs, rhs)


def test_spectral_norm_power_iteration(rng):
    a = rng.standard_normal((6, 15))
    est = spectral_norm(a, iters=200)
    ref = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(est - ref) < 1e-8 * ref


def test_default_steps_satisfy_convergence_condition():
    vb, _, _ = random_instance(3)
    sigma, tau = default_steps(vb)
    assert sigma * tau * spectral_norm(vb) ** 2 <= 1.0 + 1e-12


def test_solve_zero_data():
    vb, _, reg = random_instance(4)
    result = solve_pda(vb, np.zeros(vb.shape[0]), reg, options=PdaOptions(iters=200))
    assert not np.any(result.mu)


def test_fixed_point_saddle_relation():
    # at the saddle point the dual variable equals the data residual
    vb, u_b, reg = random_instance(5, m=4, n=10, alpha=0.05, alpha0=0.01)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=300000, record_every=100000))
    resid = vb @ result.mu - u_b
    assert np.linalg.norm(result.p - resid) <= 1e-6 * max(1.0, np.linalg.norm(resid))


def test_long_run_matches_alm_objective():
    vb, u_b, reg = random_instance(6, m=4, n=12, alpha=0.1, alpha0=0.01)
    alm = solve_alm(vb, u_b, reg, options=AlmOptions(lam_tol=1e-10, gap_tol=1e-12, max_outer=25))
    pda = solve_pda(vb, u_b, reg, options=PdaOptions(iters=10**6, record_every=2 * 10**5))
    p_alm = primal_objective(alm.mu, vb, u_b, reg)
    p_pda = primal_objective(pda.mu, vb, u_b, reg)
    assert abs(p_pda - p_alm) <= 1e-8 * max(1.0, abs(p_alm))


def test_running_minimum_nonincreasing():
    vb, u_b, reg = random_instance(7, m=4, n=12)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=5000, record_every=100))
    best = [r["best_objective"] for r in result.records]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    # the recorded best lower-bounds every recorded objective up to that point
    objs = [r["objective"] for r in result.records]
    assert all(b <= o for b, o in zip(best, objs))


def test_gap_based_early_exit():
    vb, u_b, reg = random_instance(8, m=4, n=10, alpha=0.05, alpha0=0.01)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=10**6, record_every=1000, gap_tol=1e-9))
    assert result.iterations < 10**6
    assert result.converged and result.stop_reason == "duality_gap"
    assert result.records[-1]["gap"] <= 1e-9 * (1.0 + abs(result.records[-1]["objective"]))


def test_fixed_iteration_run_not_converged():
    vb, u_b, reg = random_instance(8, m=4, n=10, alpha=0.05, alpha0=0.01)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=2000, record_every=1000))
    assert not result.converged and result.stop_reason == "max_iters"
    # a gap exit that never fires does not count either
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=2000, record_every=1000, gap_tol=1e-30))
    assert not result.converged and result.stop_reason == "max_iters"


@pytest.mark.parametrize("u_b, match", [
    (np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0]), "u_b contains NaN"),
    (np.zeros(5), "u_b must have shape"),
])
def test_solve_rejects_bad_data(u_b, match):
    vb, _, reg = random_instance(29, m=3, n=8)
    with pytest.raises(ValueError, match=match):
        solve_pda(vb, u_b, reg)


def test_options_defaults():
    defaults = {f.name: f.default for f in fields(PdaOptions)}
    assert defaults == dict(sigma=0.5, tau=None, iters=5000, theta=1.0, record_every=50, gap_tol=None)


@pytest.mark.parametrize("bad, match", [
    (dict(record_every=0), "record_every"),
    (dict(iters=0), "iters"),
    (dict(sigma=0.0), "sigma"),
    (dict(sigma=-1.0), "sigma"),
    (dict(tau=0.0), "tau"),
    (dict(tau=-0.5), "tau"),
])
def test_options_reject_bad_values(bad, match):
    with pytest.raises(ValueError, match=match):
        PdaOptions(**bad)
