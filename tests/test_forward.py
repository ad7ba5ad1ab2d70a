import hashlib
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import commutes_with_rotation, kernel_blocks_per_pair, volume_potential_dense
from scipy.fft import fftn

from sparsescat import export, forward, harness
from sparsescat.export import write_csv_matrix, write_jsonl, write_pgm, write_suite_csv
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
    volume_potential_fft,
)
from sparsescat.grid import Grid, Medium, ReceiverSet, boundary_receivers
from sparsescat.harness import ExperimentConfig, ExperimentResult
from sparsescat.phantoms import make_medium
from sparsescat.prox import SolveResult
from sparsescat.realfield import MeasurementOperator, check_problem, realify, realify_matrix


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
    med = make_medium(g, 3.0)
    z = np.zeros(g.num_nodes, dtype=complex)
    assert not np.any(volume_potential_dense(g, med, z))
    assert not np.any(volume_potential_fft(g, med, z))


def test_volume_potential_linearity(rng):
    g = Grid(dim=2, n_per_axis=12)
    med = make_medium(g, 4.0)
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
    med = make_medium(g, 6.0)
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
    med = make_medium(g, 3.0)
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
    med = make_medium(g, 5.0)
    f = rng.standard_normal(g.num_nodes) + 1j * rng.standard_normal(g.num_nodes)
    dense = volume_potential_dense(g, med, f)
    fast = volume_potential_fft(g, med, f)
    assert np.max(np.abs(dense - fast)) <= 1e-10 * np.max(np.abs(dense))


def test_fft_translation_equivariance(rng):
    g = Grid(dim=2, n_per_axis=24)
    med = make_medium(g, 4.0)
    f = np.zeros(g.shape, dtype=complex)
    f[6:10, 6:10] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = volume_potential_fft(g, med, f.ravel()).reshape(g.shape)
    shifted = np.roll(f, (5, 3), axis=(0, 1))
    out_shifted = volume_potential_fft(g, med, shifted.ravel()).reshape(g.shape)
    # interior-supported density: outputs shift rigidly inside the box
    assert np.max(np.abs(out_shifted[5:, 3:] - out[:-5, :-3])) < 1e-12 * np.max(np.abs(out))


def test_ls_solve_homogeneous_identity(rng):
    g = Grid(dim=2, n_per_axis=16)
    med = make_medium(g, 2.0)
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
    med = make_medium(g, 4.0)
    recv = boundary_receivers(g, 20)
    out = source_to_measurement(g, med, recv, np.zeros(2 * g.num_nodes))
    assert not np.any(out)


@pytest.mark.parametrize("bad, match", [
    ("short", r"mu must have shape \(2048,\)"),  # a 16^2 source on a 32^2 grid
    ("nan", "mu contains NaN or inf"),
])
def test_source_to_measurement_rejects_bad_source(bad, match):
    g = Grid(dim=2, n_per_axis=32)
    med = make_medium(g, 4.0)
    recv = boundary_receivers(g, 16)
    mu = np.zeros(2 * 16**2) if bad == "short" else np.zeros(2 * g.num_nodes)
    if bad == "nan":
        mu[3] = np.nan
    with pytest.raises(ValueError, match=match):
        source_to_measurement(g, med, recv, mu)


# media made for another grid than the 64^2 one: 16^3 has its N = 4096, 96^2 does not
FOREIGN_MEDIA = {
    "same-N": (lambda: make_medium(Grid(dim=3, n_per_axis=16), 4.0, True), "medium is defined on Grid"),
    "other-N": (lambda: make_medium(Grid(dim=2, n_per_axis=96), 4.0, True), r"contrast must have shape \(4096,\)"),
}


@pytest.mark.parametrize("case", FOREIGN_MEDIA)
def test_assemble_vb_rejects_a_medium_of_another_grid(case):
    g = Grid(dim=2, n_per_axis=64)
    make, match = FOREIGN_MEDIA[case]
    with pytest.raises(ValueError, match=match):
        assemble_vb(g, make(), boundary_receivers(g, 16))


@pytest.mark.parametrize("case", FOREIGN_MEDIA)
def test_source_to_measurement_rejects_a_medium_of_another_grid(case):
    g = Grid(dim=2, n_per_axis=64)
    make, match = FOREIGN_MEDIA[case]
    with pytest.raises(ValueError, match=match):
        source_to_measurement(g, make(), boundary_receivers(g, 16), np.zeros(2 * g.num_nodes))


@pytest.mark.parametrize("case", FOREIGN_MEDIA)
def test_ls_solve_rejects_a_medium_of_another_grid(case):
    g = Grid(dim=2, n_per_axis=64)
    make, match = FOREIGN_MEDIA[case]
    with pytest.raises(ValueError, match=match):
        ls_solve(g, make(), np.ones(g.num_nodes))


def test_source_to_measurement_homogeneous_formula(rng):
    # with q == 0 the data are the plain quadrature of Phi against the source
    g = Grid(dim=2, n_per_axis=16)
    med = make_medium(g, 5.0)
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
    med = small_bump_medium(g, 4.0, strength=0.5) if inhomogeneous else make_medium(g, 4.0)
    recv = boundary_receivers(g, 10)
    vb = assemble_vb(g, med, recv, tol=1e-12)
    mu = rng.standard_normal(2 * g.num_nodes)
    direct = source_to_measurement(g, med, recv, mu, tol=1e-12)
    via_matrix = vb.matvec(mu)
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
    med = make_medium(g, 3.0)
    recv = boundary_receivers(g, 8)
    vb = assemble_vb(g, med, recv)
    nodes = g.nodes()
    t = np.array([
        fundamental_solution(3.0, np.linalg.norm(p - nodes, axis=1), 2) * g.cell_volume()
        for p in recv.points
    ])
    assert np.max(np.abs(vb.dense() - realify_matrix(t))) < 1e-15


def test_assemble_block_structure():
    g = Grid(dim=2, n_per_axis=10)
    med = small_bump_medium(g, 4.0, strength=0.4)
    recv = boundary_receivers(g, 6)
    vb = assemble_vb(g, med, recv)
    assert commutes_with_rotation(vb.dense())


def _assert_rows_match_columns(g, med, recv, rng):
    # rows built from receiver-side excitations must match columns built by
    # forward solves on basis sources
    t = assemble_vb(g, med, recv, tol=1e-12).t
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
    med = make_medium(g, 3.0)
    for batch in (5, 37):  # 37: blocks of 16 rows and a partial last block
        f = rng.standard_normal((batch, g.num_nodes)) + 1j * rng.standard_normal((batch, g.num_nodes))
        rows = np.array([volume_potential_fft(g, med, row) for row in f])
        assert np.array_equal(volume_potential_fft(g, med, f), rows)


@pytest.mark.parametrize("dim,n", [(2, 12), (3, 6)])
@pytest.mark.parametrize("batch", [None, 37])
def test_fft_leaves_its_input_unchanged(dim, n, batch, rng):
    # the transforms overwrite their padded copy (overwrite_x), never the caller's density
    g = Grid(dim=dim, n_per_axis=n)
    med = make_medium(g, 3.0)
    shape = (g.num_nodes,) if batch is None else (batch, g.num_nodes)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kept = f.copy()
    assert volume_potential_fft(g, med, f).shape == shape
    assert np.array_equal(f, kept)


def _doubled_kernel(dim, n, spacing, k):
    """The discrete kernel evaluated point by point on the (2n)^dim doubled cell, offsets [-n, n-1] wrapped."""
    m = 2 * n
    offsets = np.where(np.arange(m) < n, np.arange(m), np.arange(m) - m).astype(float)
    mesh = np.meshgrid(*([offsets] * dim), indexing="ij")
    r = spacing * np.sqrt(sum(o * o for o in mesh))
    kernel = np.full(r.shape, k**2 * self_cell_integral(k, spacing, dim), dtype=complex)
    kernel[r > 0] = k**2 * spacing**dim * fundamental_solution(k, r[r > 0], dim)
    return kernel


@pytest.mark.parametrize("dim,n", [(2, 12), (3, 6), (2, 64)])
def test_support_matrix_equals_the_doubled_kernel(dim, n):
    # V_SS read from the table by per-axis |offset| is bitwise the doubled-cell kernel read by wrapped offsets,
    # and the cached spectrum is that kernel's FFT; on the desk grid S is the bump's support
    g = Grid(dim=dim, n_per_axis=n, half_width=3.0)
    medium = make_medium(g, DESK_K, True)
    support = np.flatnonzero(medium.contrast) if n == 64 else np.arange(g.num_nodes)
    kernel = _doubled_kernel(dim, n, g.spacing, DESK_K)
    index = np.unravel_index(support, g.shape)
    reference = kernel[tuple((a[:, None] - a[None, :]) % (2 * n) for a in index)]
    assert np.array_equal(forward._support_matrix(g, medium, support), reference)
    assert np.array_equal(forward._fft_kernel(dim, n, g.spacing, DESK_K)[1], fftn(kernel))


def _counting_kernel(monkeypatch):
    """Route `forward.fundamental_solution` through a counter: the returned list gets the size of each r."""
    evaluated = []
    phi = forward.fundamental_solution

    def counting(k, r, dim):
        evaluated.append(np.size(r))
        return phi(k, r, dim)

    monkeypatch.setattr(forward, "fundamental_solution", counting)
    return evaluated


@pytest.mark.parametrize("n,points", [(192, 37_248), (64, 4_224)])
def test_fft_kernel_evaluates_the_distinct_offsets_only(n, points, monkeypatch):
    # Phi at the (n+1)^2 per-axis offsets |d| = 0..n but the self cell, not at the (2n)^2 - 1 of the doubled
    # cell (147 455 at 192^2); only the table and the spectrum are cached
    evaluated = _counting_kernel(monkeypatch)
    forward._fft_kernel.cache_clear()
    table, spectrum = forward._fft_kernel(2, n, 6.0 / n, DESK_K)
    assert sum(evaluated) == points == (n + 1) ** 2 - 1
    assert table.shape == (n + 1, n + 1) and spectrum.shape == (2 * n, 2 * n)


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


DESK_K = 6.0
# (id, grid, receivers on its boundary); the fine 192^2 grid enters through the receiver potential over
# supp q only.  The two 2D grids at half-width 1.3 have too few shared offsets for the table: they run per
# pair.  The 3D spacing 2.6/16 is not dyadic, so the squared offsets round and their order of summation shows.
KERNEL_GEOMETRIES = [
    ("desk-64", Grid(dim=2, n_per_axis=64, half_width=3.0), 256),
    ("hw1-96", Grid(dim=2, n_per_axis=96, half_width=1.0), None),
    ("per-pair-100-on-64", Grid(dim=2, n_per_axis=64, half_width=1.3), 100),
    ("per-pair-37-on-48", Grid(dim=2, n_per_axis=48, half_width=1.3), 37),
    ("3d-16", Grid(dim=3, n_per_axis=16, half_width=1.3), 600),
]
GEOMETRY_IDS = [case[0] for case in KERNEL_GEOMETRIES]


def _fine_support_potential():
    """The simulate step's receiver potential at the desk: 256 coarse receivers over supp q of the 192^2 grid."""
    fine = Grid(dim=2, n_per_axis=192, half_width=3.0)
    receivers = boundary_receivers(Grid(dim=2, n_per_axis=64, half_width=3.0), 256)
    q = make_medium(fine, DESK_K, True).contrast
    density = np.where(q != 0, q * (1.0 + 0.5j), 0.0)
    return fine, receivers.points, density


def _per_pair(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(forward, "_kernel_blocks", kernel_blocks_per_pair)
        return fn(*args)


@pytest.mark.parametrize("case", KERNEL_GEOMETRIES + ["fine-supp-q"], ids=GEOMETRY_IDS + ["fine-supp-q"])
def test_kernel_blocks_equal_per_pair_oracle(case):
    if case == "fine-supp-q":
        grid, points, density = _fine_support_potential()
        nodes = grid.nodes()[np.flatnonzero(density)]
    else:
        _, grid, count = case
        points, nodes = grid.nodes(), boundary_receivers(grid, count).points
    args = (DESK_K, grid.dim, points, nodes, grid.cell_volume())
    pairs = list(kernel_blocks_per_pair(*args))
    blocks = list(forward._kernel_blocks(*args))
    assert [rows for rows, _ in blocks] == [rows for rows, _ in pairs]
    for (_, block), (_, ref) in zip(blocks, pairs):
        assert block.flags["C_CONTIGUOUS"] and np.array_equal(block, ref)


# the bump on the 2D grids but hw1-96, whose K = 7232 nodes need an 840 MB K x K LU; in 3D its batched
# FFT potential over 600 receivers takes seconds
ASSEMBLE_CASES = [(case, False) for case in KERNEL_GEOMETRIES] + [(KERNEL_GEOMETRIES[i], True) for i in (0, 2, 3)]


@pytest.mark.parametrize(
    "case,inhomogeneous", ASSEMBLE_CASES, ids=[f"{c[0]}-{'bump' if b else 'homogeneous'}" for c, b in ASSEMBLE_CASES]
)
def test_assemble_vb_equals_per_pair_oracle(case, inhomogeneous, monkeypatch):
    _, grid, count = case
    medium = make_medium(grid, DESK_K, inhomogeneous)
    receivers = boundary_receivers(grid, count)
    vb = assemble_vb(grid, medium, receivers)
    assert np.array_equal(vb.t, _per_pair(monkeypatch, assemble_vb, grid, medium, receivers).t)


@pytest.mark.parametrize("case", KERNEL_GEOMETRIES + ["fine-supp-q"], ids=GEOMETRY_IDS + ["fine-supp-q"])
def test_potential_at_equals_per_pair_oracle(case, monkeypatch):
    if case == "fine-supp-q":
        grid, points, density = _fine_support_potential()
    else:
        _, grid, count = case
        points = boundary_receivers(grid, count).points
        x = grid.nodes()[:, 0]
        density = np.exp(-4.0 * x * x) * (1.0 - 0.3j)
    args = (grid, DESK_K, points, density)
    assert np.array_equal(evaluate_potential_at(*args), _per_pair(monkeypatch, evaluate_potential_at, *args))


def _kernel_points(monkeypatch, grid, count):
    """Points at which a homogeneous assemble_vb evaluates Phi, and its M * N pairs."""
    evaluated = _counting_kernel(monkeypatch)
    receivers = boundary_receivers(grid, count)
    assemble_vb(grid, make_medium(grid, DESK_K), receivers)
    return sum(evaluated), receivers.count * grid.num_nodes


def test_kernel_table_evaluates_distinct_offsets_only(monkeypatch):
    points, pairs = _kernel_points(monkeypatch, Grid(dim=2, n_per_axis=64, half_width=3.0), 256)
    assert points < pairs / 10


def test_kernel_without_shared_offsets_evaluates_every_pair(monkeypatch):
    # 37 receivers off the node lattice: the product of the distinct offsets outnumbers the pairs
    points, pairs = _kernel_points(monkeypatch, Grid(dim=2, n_per_axis=48, half_width=1.3), 37)
    assert points == pairs


def test_kernel_table_rejects_a_point_on_a_node():
    # 33 x 64 pairs share a few offsets per axis, so the blocks come from the table
    g = Grid(dim=2, n_per_axis=8)
    points = np.concatenate([boundary_receivers(g).points, g.nodes()[5:6]])
    with pytest.raises(ValueError, match="singular"):
        list(forward._kernel_blocks(DESK_K, 2, points, g.nodes(), g.cell_volume()))


def test_assemble_peak_memory_below_two_operators():
    # the kernel blocks are written straight into T's columns, with no scaled or realified copy, so beside T
    # the homogeneous peak holds one block of _BLOCK entries and its index block (0.59 of a realified operator
    # at 2^16); the bump peak is the reciprocity step's phi, psi and FFT potential.  The bounds count realified
    # operators, 2 * vb.nbytes each (T is half that)
    g = Grid(dim=2, n_per_axis=64, half_width=3.0)
    receivers = boundary_receivers(g, 256)
    for inhomogeneous, bound in ((False, 1.0), (True, 2.2)):
        medium = make_medium(g, DESK_K, inhomogeneous)
        tracemalloc.start()
        try:
            vb = assemble_vb(g, medium, receivers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        realified = 2 * vb.nbytes
        assert peak < bound * realified, f"inhomogeneous={inhomogeneous}: {peak / realified:.2f} x the realified vb"


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    # _BLOCK sets only how many rows a kernel block holds: at 2^10 entries (4 grid nodes of the desk assembly)
    # both operators are bitwise the default's.  The fine potential's blocks shrink to 1 receiver, and OpenBLAS's
    # zgemv sums a lone row in another order than a pair of rows: it agrees to rounding (1.7e-14 here) only
    g = Grid(dim=2, n_per_axis=64, half_width=3.0)
    receivers = boundary_receivers(g, 256)
    fine, points, density = _fine_support_potential()

    def results():
        operators = [assemble_vb(g, make_medium(g, DESK_K, bump), receivers).t for bump in (False, True)]
        return operators, evaluate_potential_at(fine, DESK_K, points, density)

    operators, potential = results()
    monkeypatch.setattr(forward, "_BLOCK", 1 << 10)
    small_operators, small_potential = results()
    for small, reference in zip(small_operators, operators, strict=True):
        assert np.array_equal(small, reference)
    assert np.max(np.abs(small_potential - potential)) <= 1e-13 * np.max(np.abs(potential))


def test_vb_cache_roundtrip(tmp_path):
    # format 5: T comes back bitwise, column-major, in a file of 40 + 16 M N bytes
    g = Grid(dim=2, n_per_axis=10)
    med = small_bump_medium(g, 4.0, strength=0.3)
    recv = boundary_receivers(g, 6)
    vb = assemble_vb(g, med, recv)
    path = tmp_path / "vb.cache"
    save_vb_cache(path, vb, g, med, recv)
    loaded = load_vb_cache(path, g, med, recv)
    assert path.stat().st_size == 40 + 16 * recv.count * g.num_nodes
    assert loaded.t.flags.f_contiguous and loaded.t.tobytes(order="F") == vb.t.tobytes(order="F")


def test_operator_is_column_major_from_assembly_to_the_solvers(tmp_path):
    # assembly, the cache and the operator built from a row-major T all hold T column-major, and
    # check_problem passes each operator on as it is
    g = Grid(dim=2, n_per_axis=10)
    med = small_bump_medium(g, 4.0, strength=0.3)
    recv = boundary_receivers(g, 6)
    vb = assemble_vb(g, med, recv)
    save_vb_cache(tmp_path / "vb.cache", vb, g, med, recv)
    t = np.arange(6.0).reshape(2, 3) + 1j
    for op in (vb, load_vb_cache(tmp_path / "vb.cache", g, med, recv), MeasurementOperator(t)):
        assert op.t.flags["F_CONTIGUOUS"] and op.t.flags["WRITEABLE"]
        assert check_problem(op, np.zeros(op.shape[0]))[0] is op


def test_vb_cache_of_another_version_is_a_miss(tmp_path, monkeypatch):
    # a version-2 payload held vb in C order: it has the size and the CRC of a later one and would
    # load as the transposed operator, so the version must turn it away
    g = Grid(dim=2, n_per_axis=10)
    med = make_medium(g, 4.0)
    recv = boundary_receivers(g, 6)
    path = tmp_path / "vb.cache"
    vb = assemble_vb(g, med, recv)
    save_vb_cache(path, vb, g, med, recv)
    assert load_vb_cache(path, g, med, recv) is not None
    monkeypatch.setattr(forward, "_CACHE_VERSION", 2)
    save_vb_cache(path, vb, g, med, recv)
    monkeypatch.undo()
    assert load_vb_cache(path, g, med, recv) is None


def test_vb_cache_rejects_stale(tmp_path):
    g = Grid(dim=2, n_per_axis=10)
    med = make_medium(g, 4.0)
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


def _format3_cache(path, vb, grid, medium, receivers):
    """The cache as format 3 wrote it: a header of seven fields with a 64-bit hash of the contrast,
    half-width and receiver points, then the realified vb, column-major."""
    h = hashlib.sha256()
    h.update(medium.contrast.tobytes())
    h.update(struct.pack("<d", grid.half_width))
    h.update(receivers.points.tobytes())
    payload = vb.dense().T.tobytes()
    header = struct.pack("<4sIIIIdQI", b"VBOP", 3, grid.dim, grid.n_per_axis, receivers.count, medium.wavenumber,
                         struct.unpack("<Q", h.digest()[:8])[0], zlib.crc32(payload))
    path.write_bytes(header + payload)


def test_vb_cache_format_on_the_desk_bump_operator(tmp_path):
    # magic, key and crc32 in 40 bytes, then T's bytes, column-major: half the realified payload of
    # format 3, whose file is a miss
    g = Grid(dim=2, n_per_axis=64, half_width=3.0)
    med, recv = make_medium(g, DESK_K, True), boundary_receivers(g, 256)
    vb = assemble_vb(g, med, recv)
    save_vb_cache(tmp_path / "vb.cache", vb, g, med, recv)
    _format3_cache(tmp_path / "old.cache", vb, g, med, recv)
    raw, old = (tmp_path / "vb.cache").read_bytes(), (tmp_path / "old.cache").read_bytes()
    assert len(raw) == 40 + vb.nbytes == 40 + 16 * 256 * 64**2 and len(old) == 40 + 2 * vb.nbytes
    assert raw[:4] == b"VBOP" and raw[4:36] == forward._cache_key(g, med, recv)
    assert struct.unpack("<I", raw[36:40])[0] == zlib.crc32(raw[40:])
    assert raw[40:] == vb.t.tobytes(order="F")
    assert load_vb_cache(tmp_path / "vb.cache", g, med, recv).t.tobytes(order="F") == raw[40:]
    assert load_vb_cache(tmp_path / "old.cache", g, med, recv) is None


def _moved_receiver(recv):
    points = recv.points.copy()
    points[0, 0] += 1e-3  # along the bottom edge: still on the boundary
    return ReceiverSet(points=points, half_width=recv.half_width)


CACHE_INPUT_CHANGES = {
    "version": lambda g, med, recv: (g, med, recv),
    # 2D at n = 8 and 3D at n = 4 both have 64 nodes, so the file has the size either would expect
    "dim": lambda g, med, recv: (Grid(dim=3, n_per_axis=4), med, recv),
    "n": lambda g, med, recv: (Grid(dim=2, n_per_axis=9), Medium(4.0, np.zeros(81)), recv),
    "half_width": lambda g, med, recv: (Grid(dim=2, n_per_axis=8, half_width=1.5), med, recv),
    "k": lambda g, med, recv: (g, Medium(4.5, med.contrast), recv),
    "contrast": lambda g, med, recv: (g, Medium(4.0, np.where(np.arange(64) == 27, 1e-12, 0.0)), recv),
    "receiver point": lambda g, med, recv: (g, med, _moved_receiver(recv)),
}


@pytest.mark.parametrize("change", CACHE_INPUT_CHANGES)
def test_vb_cache_of_other_inputs_is_a_miss(tmp_path, monkeypatch, change):
    g = Grid(dim=2, n_per_axis=8)
    med, recv = make_medium(g, 4.0), boundary_receivers(g, 6)
    path = tmp_path / "vb.cache"
    save_vb_cache(path, MeasurementOperator(np.ones((6, 64), dtype=complex)), g, med, recv)
    assert load_vb_cache(path, g, med, recv) is not None
    key = forward._cache_key(g, med, recv)
    if change == "version":
        monkeypatch.setattr(forward, "_CACHE_VERSION", forward._CACHE_VERSION + 1)
    other = CACHE_INPUT_CHANGES[change](g, med, recv)
    assert forward._cache_key(*other) != key
    assert load_vb_cache(path, *other) is None


def _write_vb_cache(path, version):
    g = Grid(dim=2, n_per_axis=10)
    med = make_medium(g, 4.0)
    recv = boundary_receivers(g, 6)
    save_vb_cache(path, MeasurementOperator(version * assemble_vb(g, med, recv).t), g, med, recv)


def _export_result_json(path, version):
    grid = Grid(dim=2, n_per_axis=8)
    config = ExperimentConfig(solver="alm", alpha=1e-3, alpha0=0.0, phantom={"kind": "peaks"}, fine_n=12,
                              coarse_n=8, output_dir=str(path.parent))
    solved = SolveResult(mu=np.full(2 * grid.num_nodes, version), stop_reason="certified",
                         iterations=version, records=[{"kind": "inner", "step": version}])
    harness._export(config, ExperimentResult(version / 3, {}, solved, solved.mu), grid)


SUITE_ROW = {"Method": "ALM", "Source": "peaks:1", "Medium": "homo", "Time(s)": "0.25", "N-Error": "1.00e-01"}
# each writes version 1 or 2 of one kind of artifact to `path`
WRITES = {
    "vb.cache": _write_vb_cache,
    "result.json": _export_result_json,
    "diagnostics.jsonl": lambda path, version: write_jsonl(path, [{"step": i, "value": version * i} for i in range(8)]),
    "m.csv": lambda path, version: write_csv_matrix(path, version * np.arange(12.0).reshape(3, 4) / 7),
    "img.pgm": lambda path, version: write_pgm(path, np.arange(256.0).reshape(16, 16) ** version),
    "results.csv": lambda path, version: write_suite_csv(path, [SUITE_ROW] * (1 + version)),
}


@pytest.mark.parametrize("name", WRITES)
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, name):
    path = tmp_path / name
    WRITES[name](path, 1)
    old, names = path.read_bytes(), sorted(tmp_path.iterdir())

    real_open = open

    class DiskFull:
        # writes the small chunks (vb.cache's header), then fails halfway into the first large one
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

    def failing_open(file, *args, **kwargs):
        # only the writes of `name` fail: _export writes other files first
        f = real_open(file, *args, **kwargs)
        return DiskFull(f) if name in Path(file).name else f

    monkeypatch.setattr(export, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        WRITES[name](path, 2)
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == names


def test_vb_cache_truncated_is_a_miss(tmp_path):
    g = Grid(dim=2, n_per_axis=10)
    med = make_medium(g, 4.0)
    recv = boundary_receivers(g, 6)
    path = tmp_path / "vb.cache"
    save_vb_cache(path, assemble_vb(g, med, recv), g, med, recv)
    raw = path.read_bytes()
    for size in (len(raw) - 8, len(raw) // 2, 20):
        path.write_bytes(raw[:size])
        assert load_vb_cache(path, g, med, recv) is None


def test_vb_cache_of_format_4_size_or_a_flipped_bit_is_a_miss(tmp_path):
    # a file of the format-4 size (the realified payload, with a valid header and crc), and a format-5
    # file with one payload bit flipped, both load as None
    g = Grid(dim=2, n_per_axis=10)
    med = make_medium(g, 4.0)
    recv = boundary_receivers(g, 6)
    vb = assemble_vb(g, med, recv)
    path = tmp_path / "vb.cache"
    realified = vb.dense().T.tobytes()
    header = struct.pack("<4s32sI", b"VBOP", forward._cache_key(g, med, recv), zlib.crc32(realified))
    path.write_bytes(header + realified)
    assert load_vb_cache(path, g, med, recv) is None
    save_vb_cache(path, vb, g, med, recv)
    raw = bytearray(path.read_bytes())
    assert load_vb_cache(path, g, med, recv) is not None
    raw[40 + 8 * vb.t.size + 3] ^= 0x10
    path.write_bytes(bytes(raw))
    assert load_vb_cache(path, g, med, recv) is None
