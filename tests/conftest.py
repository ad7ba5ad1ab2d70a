"""Shared fixtures and instance builders for the test suite."""

import numpy as np
import pytest

from sparsescat.prox import RegParams, prox_p
from sparsescat.realfield import realify_matrix


def random_instance(seed, m=None, n=None, alpha=None, alpha0=None, sparsity=3):
    """Small random realified least-squares instance with a nonzero minimizer.

    The data are scaled so that ||vb^T u_b||_inf == 1; any alpha < 1 then
    guarantees the regularized minimizer is not the zero vector.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7)) if m is None else m
    n = int(rng.integers(10, 25)) if n is None else n
    vb = realify_matrix(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    mu = np.zeros(2 * n)
    idx = rng.choice(2 * n, size=sparsity, replace=False)
    mu[idx] = 2.0 * rng.standard_normal(sparsity)
    u_b = vb @ mu + 0.01 * rng.standard_normal(2 * m)
    u_b /= np.max(np.abs(vb.T @ u_b))
    alpha = float(10 ** rng.uniform(-3, -1)) if alpha is None else alpha
    alpha0 = float(10 ** rng.uniform(-4, -2)) if alpha0 is None else alpha0
    return vb, u_b, RegParams(alpha=alpha, alpha0=alpha0)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
