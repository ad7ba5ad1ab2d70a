import numpy as np
import pytest
from conftest import commutes_with_rotation, derealify_matrix

from sparsescat import forward
from sparsescat.forward import (
    LsSolveError,
    assemble_vb,
    evaluate_potential_at,
    fundamental_solution,
    load_vb_cache,
    ls_solve,
    save_vb_cache,
    self_cell_integral,
    source_to_measurement,
    volume_potential_dense,
    volume_potential_fft,
)
from sparsescat.grid import Grid, Medium, boundary_receivers, homogeneous_medium
from sparsescat.realfield import realify, realify_matrix


def small_bump_medium(grid, k, strength=1.0):
    """Smooth compactly supported contrast scaled to the given sup norm."""
    t = np.linalg.norm(grid.nodes(), axis=1) / (0.6 * grid.half_width)
    q = np.zeros(grid.num_nodes)
    inside = t < 1
    q[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return Medium(wavenumber=k, contrast=strength * q / np.max(q), grid=grid)


def test_fundamental_solution_3d_value():
    val = fundamental_solution(1.0, 1.0, 3)
    assert abs(val - np.exp(1j) / (4 * np.pi)) < 1e-15


def test_fundamental_solution_3d_modulus(rng):
    r = rng.uniform(0.1, 5.0, size=20)
    assert np.allclose(np.abs(fundamental_solution(2.0, r, 3)), 1.0 / (4 * np.pi * r), rtol=1e-14)


def test_fundamental_solution_2d_value():
    # (i/4) H0^(1)(1), with J0(1), Y0(1) from the quadrature oracles
    from test_bessel import oracle_j0, oracle_y0

    val = fundamental_solution(1.0, 1.0, 2)
    ref = 0.25j * (oracle_j0(1.0) + 1j * oracle_y0(1.0))
    assert abs(val - ref) < 1e-12


def test_fundamental_solution_singularity():
    with pytest.raises(ValueError):
        fundamental_solution(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        fundamental_solution(0.0, 1.0, 2)


@pytest.mark.parametrize("dim", [2, 3])
def test_self_cell_integral_matches_polar_quadrature(dim):
    # integrate Phi over the equal-area disk / equal-volume ball numerically
    k, h = 2.0, 0.1
    if dim == 2:
        a = h / np.sqrt(np.pi)
        r = np.linspace(1e-7, a, 20001)
        ref = np.trapezoid(fundamental_solution(k, r, 2) * 2 * np.pi * r, r)
    else:
        a = (3.0 / (4 * np.pi)) ** (1 / 3) * h
        r = np.linspace(1e-7, a, 20001)
        ref = np.trapezoid(fundamental_solution(k, r, 3) * 4 * np.pi * r**2, r)
    val = self_cell_integral(k, h, dim)
    assert abs(val - ref) < 1e-8


def test_volume_potential_zero_density():
    g = Grid(dim=2, n_per_axis=8)
    med = homogeneous_medium(g, 3.0)
    z = np.zeros(g.num_nodes, dtype=complex)
    assert not np.any(volume_potential_dense(g, med, z))
    assert not np.any(volume_potential_fft(g, med, z))


def test_volume_potential_linearity(rng):
    g = Grid(dim=2, n_per_axis=12)
    med = homogeneous_medium(g, 4.0)
    f1 = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    f2 = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    a = 2.3 - 0.7j
    lhs = volume_potential_dense(g, med, a * f1 + f2)
    rhs = a * volume_potential_dense(g, med, f1) + volume_potential_dense(g, med, f2)
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_delta_source_matches_kernel_2d():
    # discrete delta radiates the analytic fundamental solution off-source
    g = Grid(dim=2, n_per_axis=64)
    med = homogeneous_medium(g, 6.0)
    delta = np.zeros(g.num_nodes, dtype=complex)
    src = 20 * 64 + 30
    delta[src] = 1.0 / g.cell_volume()
    out = volume_potential_dense(g, med, delta)
    nodes = g.nodes()
    r = np.linalg.norm(nodes - nodes[src], axis=1)
    far = r >= 3 * g.spacing
    ref = med.wavenumber**2 * fundamental_solution(med.wavenumber, r[far], 2)
    assert np.max(np.abs(out[far] - ref) / np.abs(ref)) <= 0.02


def test_delta_source_matches_kernel_3d():
    g = Grid(dim=3, n_per_axis=12)
    med = homogeneous_medium(g, 3.0)
    delta = np.zeros(g.num_nodes, dtype=complex)
    src = (5 * 12 + 6) * 12 + 5
    delta[src] = 1.0 / g.cell_volume()
    out = volume_potential_fft(g, med, delta)
    nodes = g.nodes()
    r = np.linalg.norm(nodes - nodes[src], axis=1)
    far = r >= 3 * g.spacing
    ref = med.wavenumber**2 * fundamental_solution(med.wavenumber, r[far], 3)
    assert np.max(np.abs(out[far] - ref) / np.abs(ref)) <= 0.02


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 10)])
def test_fft_matches_dense(dim, n, rng):
    g = Grid(dim=dim, n_per_axis=n)
    med = homogeneous_medium(g, 5.0)
    f = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    dense = volume_potential_dense(g, med, f)
    fast = volume_potential_fft(g, med, f)
    assert np.max(np.abs(dense - fast)) <= 1e-10 * np.max(np.abs(dense))


def test_fft_translation_equivariance(rng):
    g = Grid(dim=2, n_per_axis=24)
    med = homogeneous_medium(g, 4.0)
    f = np.zeros(g.shape, dtype=complex)
    f[6:10, 6:10] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = volume_potential_fft(g, med, f.ravel()).reshape(g.shape)
    shifted = np.roll(f, (5, 3), axis=(0, 1))
    out_shifted = volume_potential_fft(g, med, shifted.ravel()).reshape(g.shape)
    # interior-supported density: outputs shift rigidly inside the box
    assert np.max(np.abs(out_shifted[5:, 3:] - out[:-5, :-3])) < 1e-12 * np.max(np.abs(out))


def test_ls_solve_homogeneous_identity(rng):
    g = Grid(dim=2, n_per_axis=16)
    med = homogeneous_medium(g, 2.0)
    rhs = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    assert np.array_equal(ls_solve(g, med, rhs), rhs)


def test_ls_solve_matches_neumann_series(rng):
    g = Grid(dim=2, n_per_axis=24)
    med = small_bump_medium(g, 1.0, strength=0.1)
    rhs = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    sol = ls_solve(g, med, rhs, tol=1e-12)
    # Neumann series sum_j (V_k q .)^j rhs, truncated at 10 terms
    acc = rhs.copy()
    term = rhs.copy()
    ratio = 0.0
    for _ in range(10):
        prev = np.linalg.norm(term)
        term = volume_potential_fft(g, med, med.contrast * term)
        ratio = max(ratio, np.linalg.norm(term) / prev)
        acc += term
    tail_bound = np.linalg.norm(term) * ratio / (1.0 - ratio)
    assert np.linalg.norm(sol - acc) <= 1e-12 * np.linalg.norm(rhs) + tail_bound


def test_ls_solve_residual_postcondition(rng):
    g = Grid(dim=2, n_per_axis=16)
    med = small_bump_medium(g, 3.0, strength=0.8)
    rhs = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    tol = 1e-10
    sol = ls_solve(g, med, rhs, tol=tol)
    resid = sol - volume_potential_fft(g, med, med.contrast * sol) - rhs
    assert np.linalg.norm(resid) <= tol * np.linalg.norm(rhs)


def test_ls_solve_unreachable_tolerance_raises(rng):
    g = Grid(dim=2, n_per_axis=12)
    med = small_bump_medium(g, 3.0, strength=0.8)
    rhs = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    with pytest.raises(LsSolveError):
        ls_solve(g, med, rhs, tol=1e-30)


def test_source_to_measurement_zero_source():
    g = Grid(dim=2, n_per_axis=12)
    med = homogeneous_medium(g, 4.0)
    recv = boundary_receivers(g, 20)
    out = source_to_measurement(g, med, recv, np.zeros(2 * g.num_nodes))
    assert not np.any(out)


def test_source_to_measurement_homogeneous_formula(rng):
    # with q == 0 the data are the plain quadrature of Phi against the source
    g = Grid(dim=2, n_per_axis=16)
    med = homogeneous_medium(g, 5.0)
    recv = boundary_receivers(g, 12)
    mu_c = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    out = source_to_measurement(g, med, recv, realify(mu_c))
    nodes = g.nodes()
    ref = np.array([
        np.sum(fundamental_solution(5.0, np.linalg.norm(p - nodes, axis=1), 2) * mu_c)
        * g.cell_volume()
        for p in recv.points
    ])
    assert np.max(np.abs(out - realify(ref))) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("inhomogeneous", [False, True])
def test_source_to_measurement_matches_matrix(inhomogeneous, rng):
    g = Grid(dim=2, n_per_axis=16)
    med = small_bump_medium(g, 4.0, strength=0.5) if inhomogeneous else homogeneous_medium(g, 4.0)
    recv = boundary_receivers(g, 10)
    vb = assemble_vb(g, med, recv, tol=1e-12)
    mu = rng.standard_normal(2 * g.num_nodes)
    direct = source_to_measurement(g, med, recv, mu, tol=1e-12)
    via_matrix = vb @ mu
    assert np.max(np.abs(direct - via_matrix)) <= 1e-10 * max(1.0, np.max(np.abs(direct)))


def test_source_to_measurement_linearity(rng):
    g = Grid(dim=2, n_per_axis=16)
    med = small_bump_medium(g, 4.0, strength=0.5)
    recv = boundary_receivers(g, 10)
    mu1 = rng.standard_normal(2 * g.num_nodes)
    mu2 = rng.standard_normal(2 * g.num_nodes)
    a = 1.7
    lhs = source_to_measurement(g, med, recv, a * mu1 + mu2, tol=1e-12)
    rhs = a * source_to_measurement(g, med, recv, mu1, tol=1e-12) + source_to_measurement(
        g, med, recv, mu2, tol=1e-12
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_assemble_homogeneous_closed_form():
    g = Grid(dim=2, n_per_axis=12)
    med = homogeneous_medium(g, 3.0)
    recv = boundary_receivers(g, 8)
    vb = assemble_vb(g, med, recv)
    nodes = g.nodes()
    t = np.array([
        fundamental_solution(3.0, np.linalg.norm(p - nodes, axis=1), 2) * g.cell_volume()
        for p in recv.points
    ])
    assert np.max(np.abs(vb - realify_matrix(t))) < 1e-15


def test_assemble_block_structure():
    g = Grid(dim=2, n_per_axis=10)
    med = small_bump_medium(g, 4.0, strength=0.4)
    recv = boundary_receivers(g, 6)
    vb = assemble_vb(g, med, recv)
    assert commutes_with_rotation(vb)


def _assert_rows_match_columns(g, med, recv, rng):
    # rows built from receiver-side excitations must match columns built by
    # forward solves on basis sources
    vb = assemble_vb(g, med, recv, tol=1e-12)
    t = derealify_matrix(vb)
    for j in rng.choice(g.num_nodes, size=4, replace=False):
        basis = np.zeros(g.num_nodes, dtype=complex)
        basis[j] = 1.0
        col = source_to_measurement(g, med, recv, realify(basis), tol=1e-12)
        ref = np.concatenate([np.real(t[:, j]), np.imag(t[:, j])])
        assert np.max(np.abs(col - ref)) < 1e-8 * max(1.0, np.max(np.abs(t)))


def test_assemble_reciprocity_against_columns(rng):
    g = Grid(dim=2, n_per_axis=12)
    med = small_bump_medium(g, 4.0, strength=0.5)
    _assert_rows_match_columns(g, med, boundary_receivers(g, 3), rng)


def two_blob_medium(grid, k):
    """Contrast on two disjoint disks of a few cells each, so K << N."""
    nodes = grid.nodes()
    q = np.zeros(grid.num_nodes)
    for center, value in (((-0.5, -0.4), 0.6), ((0.45, 0.5), -0.4)):
        q[np.linalg.norm(nodes - center, axis=1) < 0.25] = value
    return Medium(wavenumber=k, contrast=q, grid=grid)


def full_support_medium(grid, k):
    """Contrast nonzero on every node, so K == N."""
    x, y = grid.nodes().T
    return Medium(wavenumber=k, contrast=0.3 + 0.2 * np.cos(2.0 * x) * np.sin(3.0 * y + 0.1), grid=grid)


@pytest.mark.parametrize(
    "make,full", [(two_blob_medium, False), (full_support_medium, True)], ids=["two-blobs", "full-support"]
)
def test_assemble_support_against_columns(make, full, rng):
    g = Grid(dim=2, n_per_axis=16)
    med = make(g, 4.0)
    support = np.count_nonzero(med.contrast)
    assert support == g.num_nodes if full else 0 < support <= g.num_nodes // 8
    _assert_rows_match_columns(g, med, boundary_receivers(g, 5), rng)


def test_assemble_unreachable_tolerance_raises():
    g = Grid(dim=2, n_per_axis=12)
    med = small_bump_medium(g, 4.0, strength=0.5)
    with pytest.raises(LsSolveError):
        assemble_vb(g, med, boundary_receivers(g, 4), tol=1e-20)


@pytest.mark.parametrize("dim,n", [(2, 12), (3, 6)])
def test_fft_batch_matches_rows(dim, n, rng):
    g = Grid(dim=dim, n_per_axis=n)
    med = homogeneous_medium(g, 3.0)
    for batch in (5, 37):  # 37: blocks of 16 rows and a partial last block
        f = rng.standard_normal((batch, g.num_nodes)) + 1j * rng.standard_normal((batch, g.num_nodes))
        rows = np.array([volume_potential_fft(g, med, row) for row in f])
        assert np.array_equal(volume_potential_fft(g, med, f), rows)


def test_potential_at_sparse_density_matches_full_sum(rng):
    g = Grid(dim=2, n_per_axis=20)
    k = 5.0
    points = boundary_receivers(g, 9).points
    density = np.zeros(g.num_nodes, dtype=complex)
    idx = rng.choice(g.num_nodes, size=15, replace=False)
    density[idx] = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    nodes = g.nodes()
    ref = np.array([
        k**2 * g.cell_volume() * np.sum(fundamental_solution(k, np.linalg.norm(p - nodes, axis=1), 2) * density)
        for p in points
    ])
    out = evaluate_potential_at(g, k, points, density)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_quadrature_convergence_reported(capsys):
    # off-grid potential of a smooth density: the error against a fine
    # reference must drop when the grid is refined (order reported, not pinned)
    k = 3.0
    points = np.array([[1.0, 0.3], [0.2, -1.0]])
    vals = {}
    for n in (16, 32, 64):
        g = Grid(dim=2, n_per_axis=n)
        nodes = g.nodes()
        density = np.exp(-8.0 * np.sum(nodes**2, axis=1))
        vals[n] = evaluate_potential_at(g, k, points, density)
    err_coarse = np.max(np.abs(vals[16] - vals[64]))
    err_fine = np.max(np.abs(vals[32] - vals[64]))
    assert err_fine < err_coarse
    print(f"\nquadrature convergence factor (16 -> 32): {err_coarse / err_fine:.2f}")


def test_vb_cache_roundtrip(tmp_path):
    g = Grid(dim=2, n_per_axis=10)
    med = small_bump_medium(g, 4.0, strength=0.3)
    recv = boundary_receivers(g, 6)
    vb = assemble_vb(g, med, recv)
    path = tmp_path / "vb.cache"
    save_vb_cache(path, vb, g, med, recv)
    loaded = load_vb_cache(path, g, med, recv)
    assert np.array_equal(loaded, vb)


def test_vb_cache_rejects_stale(tmp_path):
    g = Grid(dim=2, n_per_axis=10)
    med = homogeneous_medium(g, 4.0)
    recv = boundary_receivers(g, 6)
    vb = assemble_vb(g, med, recv)
    path = tmp_path / "vb.cache"
    save_vb_cache(path, vb, g, med, recv)
    other_k = Medium(wavenumber=5.0, contrast=med.contrast, grid=g)
    assert load_vb_cache(path, g, other_k, recv) is None
    other_q = Medium(wavenumber=4.0, contrast=med.contrast + 0.1, grid=g)
    assert load_vb_cache(path, g, other_q, recv) is None
    assert load_vb_cache(path, g, med, boundary_receivers(g, 5)) is None
    assert load_vb_cache(tmp_path / "missing.cache", g, med, recv) is None


def test_vb_cache_failed_write_keeps_old_file(tmp_path, monkeypatch):
    g = Grid(dim=2, n_per_axis=10)
    med = homogeneous_medium(g, 4.0)
    recv = boundary_receivers(g, 6)
    vb = assemble_vb(g, med, recv)
    path = tmp_path / "vb.cache"
    save_vb_cache(path, vb, g, med, recv)

    real_fdopen = forward.os.fdopen

    class DiskFull:
        # writes the header, then fails halfway into the payload
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            if len(data) > 64:
                self.f.write(data[: len(data) // 2])
                raise OSError("no space left on device")
            self.f.write(data)

    monkeypatch.setattr(forward.os, "fdopen", lambda fd, mode: DiskFull(real_fdopen(fd, mode)))
    with pytest.raises(OSError, match="no space"):
        save_vb_cache(path, 2.0 * vb, g, med, recv)
    assert np.array_equal(load_vb_cache(path, g, med, recv), vb)
    assert [p.name for p in tmp_path.iterdir()] == ["vb.cache"]


def test_vb_cache_truncated_is_a_miss(tmp_path):
    g = Grid(dim=2, n_per_axis=10)
    med = homogeneous_medium(g, 4.0)
    recv = boundary_receivers(g, 6)
    path = tmp_path / "vb.cache"
    save_vb_cache(path, assemble_vb(g, med, recv), g, med, recv)
    raw = path.read_bytes()
    for size in (len(raw) - 8, len(raw) // 2, 20):
        path.write_bytes(raw[:size])
        assert load_vb_cache(path, g, med, recv) is None
