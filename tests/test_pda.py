import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from conftest import random_instance

from sparsescat import pda
from sparsescat.alm import AlmOptions, solve_alm
from sparsescat.pda import (
    CERTIFY_RTOL,
    SCREEN_MIN_ENTRIES,
    AdjointScreen,
    PdaOptions,
    default_steps,
    pda_dual_step,
    pda_primal_step,
    solve_pda,
)
from sparsescat.prox import RegParams, primal_objective, prox_p
from sparsescat.realfield import MeasurementOperator


def zero_screen(m, n):
    """The screen, in full coordinates, of the zero operator of a complex m x n matrix."""
    return AdjointScreen(MeasurementOperator(np.zeros((m, n), dtype=complex)), 0.0)


def test_dual_step_cancellation():
    u_b = np.array([1.0, -2.0, 0.5, 3.0])
    p = u_b.copy()
    out = pda_dual_step(p, np.zeros(6), zero_screen(2, 3), u_b, sigma=1.0)
    assert np.array_equal(out, np.zeros(4))


def test_dual_step_geometric_decay(rng):
    p = rng.standard_normal(8)
    out = pda_dual_step(p, np.zeros(10), zero_screen(4, 5), np.zeros(8), sigma=0.5)
    assert np.allclose(out, p / 1.5, atol=0)


def test_primal_step_zero_argument():
    vb = MeasurementOperator(np.zeros((2, 3), dtype=complex))
    p = np.zeros(4)
    reg = RegParams(alpha=0.3, alpha0=0.1)
    out = pda_primal_step(np.zeros(6), p, AdjointScreen(vb, reg.alpha), 0.7, reg, vt_p=vb.rmatvec(p))
    assert not np.any(out)


def test_primal_step_alpha_zero(rng):
    vb, u_b, _ = random_instance(1, m=3, n=8)
    reg = RegParams(alpha=0.0, alpha0=0.4)
    mu = rng.standard_normal(vb.shape[1])
    p = rng.standard_normal(vb.shape[0])
    tau = 0.9
    expected = (mu - tau * (vb.dense().T @ p)) / (1.0 + tau * reg.alpha0)
    step = pda_primal_step(mu, p, AdjointScreen(vb, reg.alpha), tau, reg, vt_p=vb.dense().T @ p)
    assert np.max(np.abs(step - expected)) < 1e-15


def test_primal_step_equals_prox(rng):
    vb, u_b, reg = random_instance(2)
    for _ in range(10):
        mu = rng.standard_normal(vb.shape[1])
        p = rng.standard_normal(vb.shape[0])
        tau = float(rng.uniform(0.1, 3.0))
        lhs = pda_primal_step(mu, p, AdjointScreen(vb, reg.alpha), tau, reg, vt_p=vb.dense().T @ p)
        rhs = prox_p(mu - tau * (vb.dense().T @ p), tau, reg)
        assert np.array_equal(lhs, rhs)


def test_default_steps_satisfy_convergence_condition(rng):
    # a complex Gaussian 64 x 1024 operator (vb is 128 x 2048), wide and tall, whose norm a 50-step power
    # iteration reads 1% low
    gauss = rng.standard_normal((64, 1024)) + 1j * rng.standard_normal((64, 1024))
    for vb in (random_instance(3)[0], MeasurementOperator(gauss), MeasurementOperator(gauss.T)):
        sigma, tau = default_steps(vb)
        assert sigma * tau * np.linalg.norm(vb.dense(), 2) ** 2 <= 1.0 + 1e-12


def test_solve_zero_data():
    vb, _, reg = random_instance(4)
    result = solve_pda(vb, np.zeros(vb.shape[0]), reg, options=PdaOptions(iters=200))
    assert not np.any(result.mu)


def test_long_run_matches_alm_objective():
    vb, u_b, reg = random_instance(6, m=4, n=12, alpha=0.1, alpha0=0.01)
    alm = solve_alm(vb, u_b, reg, options=AlmOptions(lam_tol=1e-10, gap_tol=1e-12, max_outer=25))
    pda = solve_pda(vb, u_b, reg, options=PdaOptions(iters=10**6, record_every=200))
    assert pda.stop_reason == "certified"
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
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=10**6, record_every=100))
    assert result.iterations < 10**6
    assert result.converged and result.stop_reason == "certified"
    last = result.records[-1]
    assert last["inner"] == result.iterations
    assert last["bound"] <= CERTIFY_RTOL * np.linalg.norm(result.mu)
    # the bound is the strong-convexity one, from the recorded gap
    assert last["bound"] >= np.sqrt(2.0 * max(last["gap"], 0.0) / reg.alpha0)
    assert all("bound" in r for r in result.records)  # every record carries the certificate


def test_fixed_iteration_run_not_converged():
    vb, u_b, reg = random_instance(8, m=4, n=10, alpha=0.05, alpha0=0.01)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=20, record_every=10))
    assert not result.converged and result.stop_reason == "max_iters"
    assert result.iterations == 20
    assert result.records[-1]["bound"] > CERTIFY_RTOL * np.linalg.norm(result.mu)


def test_alpha0_zero_runs_to_max_iters():
    # with alpha0 = 0 the dual is an indicator and the gap certifies no distance
    vb, u_b, _ = random_instance(8, m=4, n=10)
    reg = RegParams(alpha=0.05, alpha0=0.0)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=3000, record_every=100))
    assert not result.converged and result.stop_reason == "max_iters"
    assert result.iterations == 3000 and len(result.records) == 30
    assert all(r["gap"] is None and r["bound"] is None for r in result.records)
    assert (result.gap, result.bound) == (None, None)


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
    assert defaults == dict(sigma=0.5, iters=5000, record_every=50)


@pytest.mark.parametrize("bad, match", [
    (dict(record_every=0), "record_every"),
    (dict(iters=0), "iters"),
    (dict(sigma=0.0), "sigma"),
    (dict(sigma=-1.0), "sigma"),
])
def test_options_reject_bad_values(bad, match):
    with pytest.raises(ValueError, match=match):
        PdaOptions(**bad)


def wide_instance(seed, alpha_frac, alpha0=1e-3):
    """The operator of a complex Gaussian 16 x 1024 matrix and noisy data of a 3-sparse source.

    alpha is `alpha_frac` of ||vb^T u_b||_inf, the smallest alpha at which the minimizer is 0.
    """
    rng = np.random.default_rng(seed)
    vb = MeasurementOperator(rng.standard_normal((16, 1024)) + 1j * rng.standard_normal((16, 1024)))
    dense = vb.dense()
    mu = np.zeros(vb.shape[1])
    mu[rng.choice(vb.shape[1], size=3, replace=False)] = 2.0 * rng.standard_normal(3)
    u_b = dense @ mu + 0.01 * rng.standard_normal(vb.shape[0])
    return vb, u_b, RegParams(alpha=alpha_frac * float(np.max(np.abs(dense.T @ u_b))), alpha0=alpha0)


def screened_run(monkeypatch, vb, u_b, reg, iters):
    """solve_pda with one record, at the last step, and the iterate of every step in full coordinates."""
    steps = []
    step = pda.pda_primal_step

    def spy(mu, p_next, screen, tau, reg, vt_p=None):
        out = step(mu, p_next, screen, tau, reg, vt_p)
        if vt_p is None:  # a step in the block: out lives on its first out.size columns
            full = np.zeros(vb.shape[1])
            full[screen.cols[:out.size]] = out
            steps.append(full)
        else:
            steps.append(out)
        return out

    monkeypatch.setattr(pda, "pda_primal_step", spy)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=iters, record_every=iters))
    return result, steps


def test_screened_steps_match_dense_loop(monkeypatch):
    vb, u_b, reg = wide_instance(11, alpha_frac=0.1)
    result, steps = screened_run(monkeypatch, vb, u_b, reg, iters=2000)
    assert result.iterations == len(steps) == 2000
    # the same loop with both products dense, on the realified matrix
    sigma, tau = default_steps(vb, PdaOptions().sigma)
    dense = vb.dense()
    p = np.zeros(vb.shape[0])
    mu = np.zeros(vb.shape[1])
    mu_bar = mu.copy()
    for it, screened in enumerate(steps, start=1):
        p = (p + sigma * (dense @ mu_bar) - sigma * u_b) / (1.0 + sigma)
        mu_next = prox_p(mu - tau * (dense.T @ p), tau, reg)
        assert np.array_equal(screened != 0, mu_next != 0), f"support differs at step {it}"
        assert np.linalg.norm(screened - mu_next) <= 1e-12 * np.linalg.norm(mu_next), f"step {it}"
        mu_bar = mu_next + (mu_next - mu)
        mu = mu_next
    assert 0 < np.count_nonzero(mu) < 20
    # the only record is the last step, whose product is dense; so the block was formed anew after a
    # dense product on some steps (dense >= 2) and most of the others stayed in it
    dense = result.records[-1]["dense_adjoints"]
    assert 2 <= dense < result.iterations // 2


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_block_certifies_where_the_dense_loop_does(monkeypatch, seed):
    # the dense loop is the same solve with no block formed; both certify at the same record
    vb, u_b, reg = wide_instance(seed, alpha_frac=0.1)
    options = PdaOptions(iters=10**5, record_every=50)
    blocked = solve_pda(vb, u_b, reg, options=options)
    monkeypatch.setattr(pda, "SCREEN_MIN_ENTRIES", vb.shape[0] * vb.shape[1] + 1)
    dense = solve_pda(vb, u_b, reg, options=options)
    assert blocked.stop_reason == dense.stop_reason == "certified"
    assert blocked.iterations == dense.iterations
    assert np.array_equal(blocked.mu != 0, dense.mu != 0)
    assert np.linalg.norm(blocked.mu - dense.mu) <= 1e-12 * np.linalg.norm(dense.mu)
    assert dense.records[-1]["dense_adjoints"] == dense.iterations
    assert blocked.records[-1]["dense_adjoints"] < dense.iterations // 10


def test_screen_is_dense_at_alpha_zero():
    # every coordinate is a candidate for the L1 weight 0 (alpha0 = 0: the run does not certify)
    vb, u_b, reg = wide_instance(11, alpha_frac=0.0, alpha0=0.0)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=300, record_every=100))
    assert [r["dense_adjoints"] for r in result.records] == [100, 200, 300]


def test_screen_runs_only_on_operators_where_it_can_pay():
    # a block is formed only on an operator with at least SCREEN_MIN_ENTRIES entries; on a smaller one the
    # iterates stay in full coordinates and every step is dense
    small, wide = random_instance(511)[0], wide_instance(11, alpha_frac=0.1)[0]
    assert small.shape[0] * small.shape[1] < SCREEN_MIN_ENTRIES <= wide.shape[0] * wide.shape[1]
    for vb, blocked in ((small, False), (wide, True)):
        screen = AdjointScreen(vb, 0.1)
        p, mu = np.zeros(vb.shape[0]), np.zeros(vb.shape[1])
        mu_b, mu_bar_b = screen.form(p, np.zeros(vb.shape[1]), mu, mu)
        if not blocked:
            assert mu_b is mu and mu_bar_b is mu and screen.cols is None and screen.v is None
            assert screen.prefix(p) is None
            continue
        # at p = p_ref = 0 with mu = 0: an empty head, the 2M columns of largest norm (t_j = alpha/||vb_j||),
        # and no candidate
        assert mu_b.size == mu_bar_b.size == 0 and screen.v.shape == (vb.shape[0], vb.shape[0])
        dense = vb.dense()
        norms = np.linalg.norm(dense, axis=0)
        assert np.array_equal(np.sort(screen.cols), np.sort(np.argsort(-norms)[:vb.shape[0]]))
        assert np.array_equal(screen.v, dense[:, screen.cols]) and screen.v.flags.f_contiguous
        assert screen.prefix(p) == 0
    small_run = solve_pda(*random_instance(511), options=PdaOptions(iters=300, record_every=100))
    assert [r["dense_adjoints"] for r in small_run.records] == [100, 200, 300]


def test_screen_excludes_only_zero_steps(monkeypatch):
    # whenever a step stays in the block, every column outside the ones it computes has mu_j = 0 and a
    # computed |vb^T p|_j <= alpha, so its step is exactly 0
    vb, u_b, reg = wide_instance(12, alpha_frac=0.1)
    step = pda.pda_primal_step
    last = np.zeros(vb.shape[1])  # the iterate, in full coordinates
    in_block = []

    def spy(mu, p_next, screen, tau, reg_, vt_p=None):
        nonlocal last
        out = step(mu, p_next, screen, tau, reg_, vt_p)
        if vt_p is None:
            outside = np.ones(vb.shape[1], dtype=bool)
            outside[screen.cols[:mu.size]] = False
            assert not np.any(last[outside])
            assert np.max(np.abs(vb.dense().T @ p_next)[outside]) <= reg.alpha
            in_block.append(mu.size)
            last = np.zeros(vb.shape[1])
            last[screen.cols[:out.size]] = out
        else:
            last = out
        return out

    monkeypatch.setattr(pda, "pda_primal_step", spy)
    result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=3000, record_every=100))
    assert len(in_block) > result.iterations // 2  # most steps stay in the block


def test_solve_pda_does_not_copy_the_operator(rng):
    # every product reads T itself, as the operator holds it: a few steps on a 256 x 4096 T (a 512 x 8192 vb),
    # screened adjoints and records included, allocate far less than the 16 MB of T
    vb = MeasurementOperator(rng.standard_normal((256, 4096)) + 1j * rng.standard_normal((256, 4096)))
    u_b = vb.columns(np.arange(3)).sum(axis=1)  # the data of a 3-sparse source
    reg = RegParams(alpha=0.5 * float(np.max(np.abs(vb.rmatvec(u_b)))), alpha0=1e-3)
    tracemalloc.start()
    try:
        result = solve_pda(vb, u_b, reg, options=PdaOptions(iters=6, record_every=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.records[-1]["dense_adjoints"] < result.iterations  # the screen ran
    assert peak < vb.nbytes / 2, peak
