"""Real block representations of complex vectors and operators.

A complex vector v of length n is stored as the real vector
(Re v; Im v) of length 2n.  A complex M x N matrix A = A_R + i*A_I is
stored as the real 2M x 2N block matrix

    [[A_R, -A_I],
     [A_I,  A_R]],

so that matrix-vector products commute with the representation.  All
convex duality and the solvers operate on these real objects; the plain
real transpose of the block matrix is the adjoint used throughout (it
coincides with the realified complex conjugate transpose).
"""

import numpy as np


def complex_dim(v):
    """Logical complex dimension of a realified vector."""
    v = np.asarray(v)
    if v.ndim != 1 or v.shape[0] % 2 != 0:
        raise ValueError(f"realified vector must be 1-d of even length, got shape {v.shape}")
    return v.shape[0] // 2


def realify(v):
    """Stack real and imaginary parts of a complex vector: v -> (Re v; Im v)."""
    v = np.asarray(v)
    return np.concatenate([np.real(v), np.imag(v)]).astype(float, copy=False)


def derealify(v):
    """Inverse of :func:`realify`."""
    n = complex_dim(v)
    v = np.asarray(v, dtype=float)
    return v[:n] + 1j * v[n:]


def realify_matrix(a):
    """Real 2M x 2N block representation [[A_R, -A_I], [A_I, A_R]] of a complex matrix, column-major (see `prox`)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    m, n = a.shape
    ar, ai = np.real(a), np.imag(a)
    vb = np.empty((2 * n, 2 * m)).T  # the blocks are copied in place: a column-major `a` copies contiguously
    vb[:m, :n] = vb[m:, n:] = ar
    vb[m:, :n] = ai
    np.negative(ai, out=vb[:m, n:])
    return vb
