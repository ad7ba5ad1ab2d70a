import numpy as np
import pytest

from sparsescat.grid import Grid
from sparsescat.phantoms import KINDS, PhantomSpec, bump, make_medium, make_phantom


def nonzero_count(mu, grid):
    return int(np.count_nonzero(mu[: grid.num_nodes]))


def test_single_peak_single_cell():
    g = Grid(dim=2, n_per_axis=64)
    mu = make_phantom(PhantomSpec(kind="peaks", count=1), g)
    assert nonzero_count(mu, g) == 1
    assert not np.any(mu[g.num_nodes:])


@pytest.mark.parametrize("count", [1, 4, 6, 8])
def test_peak_counts_and_separation(count):
    g = Grid(dim=2, n_per_axis=64)
    mu = make_phantom(PhantomSpec(kind="peaks", count=count), g)
    assert nonzero_count(mu, g) == count
    cells = np.argwhere(mu[: g.num_nodes].reshape(g.shape) != 0)
    for i in range(count):
        for j in range(i + 1, count):
            assert np.linalg.norm(cells[i] - cells[j]) >= 8.0


def test_dirac_scaling():
    g = Grid(dim=2, n_per_axis=64)
    raw = make_phantom(PhantomSpec(kind="peaks", count=1, amplitude=2.0), g)
    scaled = make_phantom(PhantomSpec(kind="peaks", count=1, amplitude=2.0, dirac_scaling=True), g)
    assert np.max(raw) == 2.0
    assert np.isclose(np.max(scaled), 2.0 / g.cell_volume(), rtol=0, atol=0)


def test_strip_lengths():
    g = Grid(dim=2, n_per_axis=64)
    diag = make_phantom(PhantomSpec(kind="strip_diag"), g)
    skew = make_phantom(PhantomSpec(kind="strip_skew"), g)
    lo = round(0.3 * 64 - 0.5)
    hi = round(0.7 * 64 - 0.5)
    assert nonzero_count(diag, g) == hi - lo + 1
    assert nonzero_count(skew, g) == hi - lo + 1
    cells = np.argwhere(diag[: g.num_nodes].reshape(g.shape) != 0)
    assert all(i == j for i, j in cells)
    cells = np.argwhere(skew[: g.num_nodes].reshape(g.shape) != 0)
    assert all(i + j == 63 for i, j in cells)


def test_three_dimensional_phantoms():
    g = Grid(dim=3, n_per_axis=24)
    balls = make_phantom(PhantomSpec(kind="balls3d"), g)
    assert nonzero_count(balls, g) > 2
    up = make_phantom(PhantomSpec(kind="tripod_right_up"), g)
    down = make_phantom(PhantomSpec(kind="tripod_left_down"), g)
    both = make_phantom(PhantomSpec(kind="two_tripods"), g)
    assert nonzero_count(both, g) <= nonzero_count(up, g) + nonzero_count(down, g)
    assert np.array_equal(np.maximum(up, down), both)


@pytest.mark.parametrize("kind,dim,n", [
    ("peaks", 2, 64), ("strip_diag", 2, 64), ("strip_skew", 2, 64),
    ("balls3d", 3, 24), ("tripod_right_up", 3, 24),
    ("tripod_left_down", 3, 24), ("two_tripods", 3, 24),
])
def test_sparsity_margin_and_realness(kind, dim, n):
    g = Grid(dim=dim, n_per_axis=n)
    count = 8 if kind == "peaks" else 1
    mu = make_phantom(PhantomSpec(kind=kind, count=count), g)
    assert nonzero_count(mu, g) / g.num_nodes <= 0.05
    assert not np.any(mu[g.num_nodes:])  # imaginary block identically zero
    field = mu[: g.num_nodes].reshape(g.shape)
    idx = np.argwhere(field != 0)
    assert idx.min() >= 2 and idx.max() <= n - 3


def test_determinism():
    g = Grid(dim=2, n_per_axis=48)
    spec = PhantomSpec(kind="peaks", count=4)
    a = make_phantom(spec, g)
    b = make_phantom(spec, g)
    assert a.tobytes() == b.tobytes()


def test_margin_violation_rejected():
    g = Grid(dim=2, n_per_axis=64)
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec(kind="peaks", count=1, positions=((0.01, 0.5),)), g)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PhantomSpec(kind="blob")
    assert "peaks" in KINDS


def test_bump_value_at_origin():
    assert np.isclose(bump(np.array([0.0]))[0], np.exp(-1.0), rtol=1e-15, atol=0)


def test_bump_support_and_continuity():
    assert bump(np.array([1.0]))[0] == 0.0
    assert bump(np.array([1.5]))[0] == 0.0
    assert bump(np.array([-2.0]))[0] == 0.0
    assert 0 < bump(np.array([0.99]))[0] < 1e-12  # tiny just inside the edge


def test_medium_homogeneous():
    g = Grid(dim=2, n_per_axis=16)
    med = make_medium(g, 6.0, inhomogeneous=False)
    assert not np.any(med.contrast)
    assert med.is_homogeneous


def test_medium_bump_radial_symmetry():
    g = Grid(dim=2, n_per_axis=32, half_width=1.0)
    med = make_medium(g, 6.0, inhomogeneous=True)
    q = med.contrast.reshape(g.shape)
    assert np.array_equal(q, q[::-1, :])
    assert np.array_equal(q, q[:, ::-1])
    assert np.array_equal(q, q.T)
    center = g.n_per_axis // 2
    assert q[center, center] > 0.3  # near exp(-1) at the origin


def test_medium_bump_3d():
    g = Grid(dim=3, n_per_axis=12, half_width=1.5)
    med = make_medium(g, 6.0, inhomogeneous=True)
    q = med.contrast.reshape(g.shape)
    assert np.array_equal(q, q[::-1, :, :])
    nodes = g.nodes()
    outside = np.linalg.norm(nodes, axis=1) >= 1.0
    assert not np.any(med.contrast[outside])
