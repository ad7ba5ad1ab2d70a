"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared expensive artifacts (the 20-instance cross-solver batch, the desk
reconstruction experiments) are computed once per session.
"""

import os
import time

import numpy as np
import pytest
from conftest import ALIGNED_192_64, desk_config, moreau_complement, random_instance, volume_potential_dense

from sparsescat.alm import AlmOptions, newton_matrix, residual_F, solve_alm
from sparsescat.forward import (
    assemble_vb,
    fundamental_solution,
    ls_solve,
    source_to_measurement,
    volume_potential_fft,
)
from sparsescat.grid import Grid, boundary_receivers
from sparsescat.harness import add_noise, run_experiment
from sparsescat.pda import PdaOptions, solve_pda
from sparsescat.phantoms import PhantomSpec, make_medium
from sparsescat.prox import RegParams, primal_objective, prox_p, soft_threshold
from sparsescat.ssn import SsnOptions, solve_ssn

N_CROSS = 20
# multiplier-keyed stopping: ||mu + lambda|| tracks the last multiplier step,
# so the batch runs until the relative lambda change is tiny
TIGHT_ALM = dict(lam_tol=1e-9, gap_tol=1e-16, max_outer=30)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1


def brute_force_soft(z, sigma, levels=6, points=201):
    # extended precision: float64 value comparison stalls near sqrt(eps)
    z = np.asarray(z, dtype=np.longdouble)
    sigma = np.longdouble(sigma)
    center = z.copy()
    width = np.abs(z) + sigma + 1.0
    ticks = np.linspace(-1.0, 1.0, points).astype(np.longdouble)
    for _ in range(levels):
        grid = center[:, None] + ticks[None, :] * width[:, None]
        vals = 0.5 * (grid - z[:, None]) ** 2 + sigma * np.abs(grid)
        center = grid[np.arange(z.size), np.argmin(vals, axis=1)]
        width = width * (2.0 / (points - 1)) * 2.0
    return center.astype(float)


def enumerate_prox(mu, sigma, alpha, alpha0):
    # three-regime candidates of argmin 1/2(w-mu)^2 + sigma(alpha0/2 w^2 + alpha |w|)
    scale = 1.0 + sigma * alpha0
    cands = np.stack([
        np.maximum((mu - sigma * alpha) / scale, 0.0),
        np.minimum((mu + sigma * alpha) / scale, 0.0),
        np.zeros_like(mu),
    ])
    vals = 0.5 * (cands - mu) ** 2 + sigma * (0.5 * alpha0 * cands**2 + alpha * np.abs(cands))
    return cands[np.argmin(vals, axis=0), np.arange(mu.size)]


def test_criterion_1_prox_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10**4
    z = 10.0 * rng.standard_normal(n)
    sigma = 1.7
    err_soft = np.max(np.abs(soft_threshold(z, sigma) - brute_force_soft(z, sigma)))

    mu = 10.0 * rng.standard_normal(n)
    sigmas = rng.uniform(0.05, 5.0, size=4)
    err_prox = 0.0
    for s in sigmas:
        alpha = float(rng.uniform(0.0, 2.0))
        alpha0 = float(rng.uniform(0.0, 2.0))
        got = prox_p(mu, s, RegParams(alpha=alpha, alpha0=alpha0))
        ref = enumerate_prox(mu, s, alpha, alpha0)
        err_prox = max(err_prox, float(np.max(np.abs(got - ref))))
    dt = time.perf_counter() - t0
    ok = err_soft <= 1e-8 and err_prox <= 1e-8 and dt < 5.0
    report(1, ok, f"soft-threshold oracle err {err_soft:.2e}, prox oracle err {err_prox:.2e}, {dt:.2f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_moreau_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10**3):
        x = 10.0 * rng.standard_normal(16)
        sigma = float(rng.uniform(0.01, 10.0))
        reg = RegParams(alpha=float(rng.uniform(0, 2)), alpha0=float(rng.uniform(1e-6, 2)))
        resid = prox_p(x, sigma, reg) + moreau_complement(x, sigma, reg) - x
        worst = max(worst, float(np.max(np.abs(resid))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-14 and dt < 1.0
    report(2, ok, f"max Moreau residual {worst:.2e} over 1000 tuples, {dt:.2f}s")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_newton_derivative():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    vb, u_b, _ = random_instance(103, m=5, n=16)
    reg = RegParams(alpha=0.08, alpha0=0.01)
    sigma = 2.0
    eps = 1e-8
    margin = 1e-6
    worst = 0.0
    checked = 0
    while checked < 100:
        y = rng.standard_normal(vb.shape[0])
        lam = rng.standard_normal(vb.shape[1])
        w = lam + sigma * (vb.dense().T @ y)
        if np.min(np.abs(np.abs(w) - sigma * reg.alpha)) < margin:
            continue
        checked += 1
        nmat = newton_matrix(y, lam, sigma, vb, reg, vt_y=vb.dense().T @ y)
        fd = np.empty_like(nmat)
        for j in range(vb.shape[0]):
            e = np.zeros(vb.shape[0])
            e[j] = eps
            fd[:, j] = (
                residual_F(y + e, lam, sigma, vb, u_b, reg, vb.dense().T @ (y + e))
                - residual_F(y - e, lam, sigma, vb, u_b, reg, vb.dense().T @ (y - e))
            ) / (2 * eps)
        worst = max(worst, float(np.linalg.norm(fd - nmat) / np.linalg.norm(nmat)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 10.0
    report(3, ok, f"max FD Jacobian deviation {worst:.2e} at 100 off-kink points, {dt:.2f}s")


# ------------------------------------------------------- criteria 4, 5 and 9


@pytest.fixture(scope="module")
def cross_solver_batch():
    batch = []
    for trial in range(N_CROSS):
        vb, u_b, reg = random_instance(500 + trial)
        alm = solve_alm(vb, u_b, reg, options=AlmOptions(**TIGHT_ALM))
        ssn = solve_ssn(vb, u_b, reg, options=SsnOptions())
        pda = solve_pda(vb, u_b, reg, options=PdaOptions(iters=10**6, record_every=200))
        # the oracle counts only when it certified its own distance to the minimizer, and SSN's path
        # ends only on a certified answer
        assert pda.stop_reason == "certified", f"PDA did not certify on instance {trial}"
        assert ssn.stop_reason == "certified", f"SSN did not certify on instance {trial}"
        batch.append((vb, u_b, reg, alm, ssn, pda))
    return batch


def test_criterion_4_cross_solver_agreement(cross_solver_batch):
    t0 = time.perf_counter()
    worst_obj, worst_mu = 0.0, 0.0
    for vb, u_b, reg, alm, ssn, pda in cross_solver_batch:
        p = [primal_objective(r.mu, vb, u_b, reg) for r in (alm, ssn, pda)]
        scale = abs(p[0])
        worst_obj = max(worst_obj, (max(p) - min(p)) / scale)
        mu_scale = np.linalg.norm(alm.mu)
        assert mu_scale > 0  # instances are built so the minimizer is nonzero
        for other in (ssn.mu, pda.mu):
            worst_mu = max(worst_mu, float(np.linalg.norm(alm.mu - other) / mu_scale))
    dt = time.perf_counter() - t0
    ok = worst_obj <= 1e-6 and worst_mu <= 1e-4
    report(4, ok, f"20 instances: objective spread {worst_obj:.2e}, mu spread {worst_mu:.2e}, +{dt:.1f}s")


def test_criterion_5_duality_and_multiplier(cross_solver_batch):
    worst_gap, worst_ml = 0.0, 0.0
    for vb, u_b, reg, alm, _, _ in cross_solver_batch:
        p = primal_objective(alm.mu, vb, u_b, reg)
        worst_gap = max(worst_gap, alm.gap / (1.0 + abs(p)))
        worst_ml = max(worst_ml, float(np.linalg.norm(alm.mu + alm.lam)))
    ok = worst_gap <= 1e-6 and worst_ml <= 1e-5
    report(5, ok, f"max scaled gap {worst_gap:.2e}, max ||mu + lambda|| {worst_ml:.2e}")


def test_criterion_9_linear_multiplier_convergence(cross_solver_batch):
    worst = 0.0
    for vb, u_b, reg, alm, _, _ in cross_solver_batch:
        lam_star = alm.lam_history[-1]
        dists = [np.linalg.norm(l - lam_star) for l in alm.lam_history[:-1]]
        scale = max(np.linalg.norm(lam_star), 1.0)
        ratios = [
            b / a for a, b in zip(dists, dists[1:]) if a > 1e-13 * scale
        ]
        # exact convergence within machine precision counts as rate 0
        for r in ratios[-3:]:
            worst = max(worst, r)
    ok = worst < 1.0 and worst <= 0.95
    report(9, ok, f"max tail contraction ratio {worst:.3f} (< 1 required)")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_forward_analytics():
    t0 = time.perf_counter()
    # delta source vs analytic kernel on 64^2
    g = Grid(dim=2, n_per_axis=64)
    med = make_medium(g, 6.0)
    delta = np.zeros(g.num_nodes, dtype=complex)
    src = 20 * 64 + 30
    delta[src] = 1.0 / g.cell_volume()
    out = volume_potential_dense(g, med, delta)
    nodes = g.nodes()
    r = np.linalg.norm(nodes - nodes[src], axis=1)
    far = r >= 3 * g.spacing
    ref = 36.0 * fundamental_solution(6.0, r[far], 2)
    delta_err = float(np.max(np.abs(out[far] - ref) / np.abs(ref)))

    # FFT vs dense on 32^2
    g2 = Grid(dim=2, n_per_axis=32)
    med2 = make_medium(g2, 5.0)
    rng = np.random.default_rng(106)
    f = rng.standard_normal(g2.num_nodes) + 1j * rng.standard_normal(g2.num_nodes)
    dense = volume_potential_dense(g2, med2, f)
    fft_err = float(np.max(np.abs(dense - volume_potential_fft(g2, med2, f))) / np.max(np.abs(dense)))

    # ls_solve vs 10-term Neumann series at small contrast
    g3 = Grid(dim=2, n_per_axis=24)
    from test_forward import small_bump_medium

    med3 = small_bump_medium(g3, 1.0, strength=0.1)
    rhs = rng.standard_normal(g3.num_nodes) + 1j * rng.standard_normal(g3.num_nodes)
    sol = ls_solve(g3, med3, rhs, tol=1e-12)
    acc = rhs.copy()
    term = rhs.copy()
    ratio = 0.0
    for _ in range(10):
        prev = np.linalg.norm(term)
        term = volume_potential_fft(g3, med3, med3.contrast * term)
        ratio = max(ratio, np.linalg.norm(term) / prev)
        acc += term
    combined_tol = 1e-12 * np.linalg.norm(rhs) + np.linalg.norm(term) * ratio / (1 - ratio)
    neumann_err = float(np.linalg.norm(sol - acc))

    dt = time.perf_counter() - t0
    ok = delta_err <= 0.02 and fft_err <= 1e-10 and neumann_err <= combined_tol and dt < 60.0
    report(6, ok, f"delta {delta_err:.2e} (<=2%), fft-vs-dense {fft_err:.2e}, "
                  f"neumann {neumann_err:.2e} (tol {combined_tol:.2e}), {dt:.1f}s")


# --------------------------------------------------- criteria 7, 8 and 11


def test_criterion_7_desk_scale_reconstruction(tmp_path):
    t0 = time.perf_counter()
    errs = {}
    for inhom in (False, True):
        out = str(tmp_path / ("bump" if inhom else "homo"))
        alm = run_experiment(desk_config("alm", inhom, output_dir=out))
        pda = run_experiment(desk_config(
            "pda", inhom, alpha=9e-5, alpha0=1e-12, output_dir=out,
            solver_options={"sigma": 0.005, "iters": 20000, "record_every": 5000},
        ))
        errs[("alm", inhom)] = alm.n_error
        errs[("pda", inhom)] = pda.n_error
    dt = time.perf_counter() - t0
    ok = (
        errs[("alm", False)] <= 0.15 and errs[("alm", True)] <= 0.15
        and errs[("pda", False)] <= 0.2 and errs[("pda", True)] <= 0.2
        and dt < 600.0
    )
    report(7, ok, "N-Error alm homo {:.3f} / bump {:.3f} (<=0.15), pda homo {:.3f} / bump {:.3f} (<=0.2), {:.0f}s".format(
        errs[("alm", False)], errs[("alm", True)], errs[("pda", False)], errs[("pda", True)], dt))


def best_time(solve, *args, calls=3):
    """Shortest wall time of `calls` calls: a single call can be slowed several-fold by the machine."""
    times = []
    for _ in range(calls):
        t1 = time.perf_counter()
        solve(*args)
        times.append(time.perf_counter() - t1)
    return min(times)


def test_criterion_8_measurement_space_efficiency():
    t0 = time.perf_counter()
    # 2N/2M = 8192/128 = 64
    f = ALIGNED_192_64
    fine = Grid(dim=2, n_per_axis=192, half_width=3.0)
    coarse = Grid(dim=2, n_per_axis=64, half_width=3.0)
    recv = boundary_receivers(coarse, 64)
    med_f = make_medium(fine, 6.0, False)
    med_c = make_medium(coarse, 6.0, False)
    from sparsescat.phantoms import make_phantom

    mu = make_phantom(PhantomSpec(kind="peaks", count=1, amplitude=4.0, dirac_scaling=True,
                                  positions=((f, f),)), fine)
    u_b = add_noise(source_to_measurement(fine, med_f, recv, mu), 0.01, 7)
    vb = assemble_vb(coarse, med_c, recv)
    reg = RegParams(alpha=9e-4, alpha0=1e-7)
    t_alm = best_time(solve_alm, vb, u_b, reg)
    t_ssn = best_time(solve_ssn, vb, u_b, reg)
    dt = time.perf_counter() - t0
    ok = t_alm <= 0.5 * t_ssn and dt < 900.0
    report(8, ok, f"ALM {t_alm:.2f}s vs SSN {t_ssn:.2f}s, best of 3 calls each "
                  f"(ratio {t_ssn / max(t_alm, 1e-9):.1f}x, need >= 2x), {dt:.0f}s")


@pytest.mark.skipif(not os.environ.get("SPARSESCAT_RUN_3D"), reason="opt-in 3D timing check (SPARSESCAT_RUN_3D=1)")
def test_criterion_8_optional_3d_timing():
    # informational only: prints the 3D solve-time ratio, no hard assertion
    fine = Grid(dim=3, n_per_axis=48, half_width=3.0)
    coarse = Grid(dim=3, n_per_axis=16, half_width=3.0)
    recv = boundary_receivers(coarse, 64)
    med_f = make_medium(fine, 6.0, False)
    med_c = make_medium(coarse, 6.0, False)
    from sparsescat.phantoms import make_phantom

    mu = make_phantom(PhantomSpec(kind="balls3d", amplitude=4.0, dirac_scaling=True), fine)
    u_b = add_noise(source_to_measurement(fine, med_f, recv, mu), 0.01, 7)
    vb = assemble_vb(coarse, med_c, recv)
    reg = RegParams(alpha=5e-7, alpha0=2e-8)
    t1 = time.perf_counter()
    solve_alm(vb, u_b, reg)
    t_alm = time.perf_counter() - t1
    t1 = time.perf_counter()
    solve_ssn(vb, u_b, reg)
    t_ssn = time.perf_counter() - t1
    print(f"\n3D timing (16^3 reconstruction, M=64): ALM {t_alm:.2f}s vs SSN {t_ssn:.2f}s "
          f"(ratio {t_ssn / max(t_alm, 1e-9):.1f}x; no hard assertion)")


def test_criterion_11_determinism(tmp_path):
    config_a = desk_config("alm", False, fine_n=96, coarse_n=32, half_width=1.5,
                           receivers=128, alpha=2e-4, alpha0=1e-9,
                           phantom=PhantomSpec(kind="peaks", count=1, amplitude=4.0,
                                               dirac_scaling=True,
                                               positions=((46.5 / 96, 46.5 / 96),)),
                           output_dir=str(tmp_path / "a"))
    config_b = desk_config("alm", False, fine_n=96, coarse_n=32, half_width=1.5,
                           receivers=128, alpha=2e-4, alpha0=1e-9,
                           phantom=PhantomSpec(kind="peaks", count=1, amplitude=4.0,
                                               dirac_scaling=True,
                                               positions=((46.5 / 96, 46.5 / 96),)),
                           output_dir=str(tmp_path / "b"))
    run_experiment(config_a)
    run_experiment(config_b)
    bytes_a = (tmp_path / "a" / "mu_rec.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "mu_rec.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    report(11, ok, f"mu_rec.csv byte-identical across reruns ({len(bytes_a)} bytes)")


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_noise_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    m = 12
    u_b = rng.standard_normal(2 * m)
    delta = 0.03
    draws = 10**4
    acc = 0.0
    for seed in range(draws):
        d = add_noise(u_b, delta, seed) - u_b
        acc += float(d @ d)
    mean = acc / draws
    expected = 2 * m * delta**2 * float(u_b @ u_b)
    rel = abs(mean - expected) / expected
    dt = time.perf_counter() - t0
    ok = rel <= 0.05 and dt < 30.0
    report(10, ok, f"Monte-Carlo mean within {rel:.2%} of 2M delta^2 ||u||^2 over 1e4 draws, {dt:.1f}s")
