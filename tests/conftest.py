"""Shared fixtures and instance builders for the test suite."""

import numpy as np
import pytest

from sparsescat import forward
from sparsescat.forward import fundamental_solution, self_cell_integral
from sparsescat.harness import ExperimentConfig
from sparsescat.phantoms import PhantomSpec
from sparsescat.prox import RegParams, prox_p
from sparsescat.realfield import MeasurementOperator


def random_instance(seed, m=None, n=None, alpha=None, alpha0=None, sparsity=3):
    """Small random least-squares instance with a nonzero minimizer: the operator of a complex
    Gaussian M x N matrix, realified data and the weights.

    The data are scaled so that ||vb^T u_b||_inf == 1; any alpha < 1 then
    guarantees the regularized minimizer is not the zero vector.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7)) if m is None else m
    n = int(rng.integers(10, 25)) if n is None else n
    vb = MeasurementOperator(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    dense = vb.dense()
    mu = np.zeros(2 * n)
    idx = rng.choice(2 * n, size=sparsity, replace=False)
    mu[idx] = 2.0 * rng.standard_normal(sparsity)
    u_b = dense @ mu + 0.01 * rng.standard_normal(2 * m)
    u_b /= np.max(np.abs(dense.T @ u_b))
    alpha = float(10 ** rng.uniform(-3, -1)) if alpha is None else alpha
    alpha0 = float(10 ** rng.uniform(-4, -2)) if alpha0 is None else alpha0
    return vb, u_b, RegParams(alpha=alpha, alpha0=alpha0)


# fine cell 94 center == coarse cell 31 center for the 192 vs 64 pair
ALIGNED_192_64 = 94.5 / 192.0


def desk_config(solver, inhomogeneous, **overrides):
    """The criterion-7 desk run (256 receivers, one Dirac peak on an aligned node), with `overrides`."""
    base = dict(
        solver=solver,
        alpha=9e-4,
        alpha0=1e-7,
        phantom=PhantomSpec(kind="peaks", count=1, amplitude=4.0, dirac_scaling=True,
                            positions=((ALIGNED_192_64, ALIGNED_192_64),)),
        dim=2,
        wavenumber=6.0,
        fine_n=192,
        coarse_n=64,
        half_width=3.0,
        receivers=256,
        inhomogeneous=inhomogeneous,
        noise_level=0.01,
        seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_CHUNK = 512  # rows of the dense kernel block per pass: bounds the block to 512 x N entries


def volume_potential_dense(grid, medium, density):
    """Midpoint-quadrature volume potential V_k at the grid nodes: the dense oracle of the FFT path.

    The self cell uses the analytic disk/ball integral in place of the
    singular midpoint value.
    """
    k = medium.wavenumber
    density = np.asarray(density)
    nodes = grid.nodes()
    n = nodes.shape[0]
    weight = grid.cell_volume()
    diag = k**2 * self_cell_integral(k, grid.spacing, grid.dim)
    out = np.empty(n, dtype=complex)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        diff = nodes[start:stop, None, :] - nodes[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        idx = np.arange(start, stop)
        r[idx - start, idx] = 1.0  # placeholder; overwritten below
        block = k**2 * weight * fundamental_solution(k, r, grid.dim)
        block[idx - start, idx] = diag
        out[start:stop] = block @ density
    return out


def kernel_blocks_per_pair(k, dim, points, nodes, weight):
    """`forward._kernel_blocks` with Phi evaluated at every pair, in the same row blocks: its oracle.

    r is the rounded sum of the squared per-axis offsets, as the table path
    must reproduce it bitwise; `np.linalg.norm` may round differently.
    """
    step = max(1, forward._BLOCK // max(1, nodes.shape[0]))
    for start in range(0, points.shape[0], step):
        rows = slice(start, min(start + step, points.shape[0]))
        diff = points[rows, None, :] - nodes[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        yield rows, k**2 * weight * fundamental_solution(k, r, dim)


def derealify_matrix(b):
    """Recover the complex M x N matrix from its real block representation."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] % 2 or b.shape[1] % 2:
        raise ValueError(f"realified matrix must have even dimensions, got {b.shape}")
    m, n = b.shape[0] // 2, b.shape[1] // 2
    return b[:m, :n] + 1j * b[m:, :n]


def commutes_with_rotation(b, atol=0.0):
    """Check the block-structure invariant B @ J_N == J_M @ B, J = [[0, -I], [I, 0]]."""
    b = np.asarray(b, dtype=float)
    m, n = b.shape[0] // 2, b.shape[1] // 2
    # multiply by J without forming it: (B J_N) col-swaps, (J_M B) row-swaps
    bj = np.concatenate([b[:, n:], -b[:, :n]], axis=1)
    jb = np.concatenate([-b[m:, :], b[:m, :]], axis=0)
    return np.allclose(bj, jb, rtol=0.0, atol=atol)


def moreau_complement(x, sigma, reg):
    """The complement x - prox_p(x, sigma) == sigma * (I + (1/sigma) dp*)^{-1}(x/sigma)."""
    if reg.alpha == 0 and reg.alpha0 == 0:
        raise ValueError("p is identically zero; its conjugate resolvent is degenerate")
    x = np.asarray(x, dtype=float)
    return x - prox_p(x, sigma, reg)


def conjugate_resolvent(v, sigma_inv, reg):
    """Componentwise (I + sigma_inv * dp*)^{-1}(v), derived independently of prox_p.

    p*(r) = max(|r|-alpha, 0)^2 / (2 alpha0), so the resolvent solves
    r + sigma_inv * (r - clamp(r, -alpha, alpha))/alpha0 = v piecewise.
    """
    v = np.asarray(v, dtype=float)
    a, a0 = reg.alpha, reg.alpha0
    out = np.where(
        np.abs(v) <= a,
        v,
        (a0 * v + sigma_inv * a * np.sign(v)) / (a0 + sigma_inv),
    )
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
