"""Real block representations of complex vectors and operators, and the one owner of the operator vb.

A complex vector v of length n is stored as the real vector
(Re v; Im v) of length 2n.  A complex M x N matrix A = A_R + i*A_I is
stored as the real 2M x 2N block matrix

    [[A_R, -A_I],
     [A_I,  A_R]],

so that matrix-vector products commute with the representation.  All
convex duality and the solvers operate on these real objects; the plain
real transpose of the block matrix is the adjoint used throughout (it
coincides with the realified complex conjugate transpose).

This module is the only one that reads the realified operator vb: the
solvers read its shape and go through the functions below.  vb is
column-major from the moment `realify_matrix`, `forward.assemble_vb` or
`forward.load_vb_cache` returns it, and `check_problem` copies any other
layout once, so the columns the solvers read (ALM's active set, PDA's
candidates, `matvec`'s support sum) are contiguous, `columns` gathers
them into a column-major block, and both go to BLAS without a copy.

Every product with vb or its column blocks goes through
`scipy.linalg.blas`, the library of `prox.cholesky_solve`: numpy and
scipy each load their own OpenBLAS with its own thread pool, and a loop
that alternates between the two has the idle-spinning workers of one
pool take the cores from the other (2 threads each on 2 cores: a
512 x 512 Cholesky right after a numpy product took up to 350 ms instead
of 2-3 ms, and the desk ALM solve ran 3-5x slower).  One library per
solver loop leaves one pool; only vector dots stay in numpy.
"""

import mmap

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dsyrk


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
    """Real 2M x 2N block representation [[A_R, -A_I], [A_I, A_R]] of a complex matrix, column-major."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    a = np.asfortranarray(a)  # copying a row-major `a` block by block would transpose it: about 3x slower
    m, n = a.shape
    ar, ai = np.real(a), np.imag(a)
    vb = np.empty((2 * n, 2 * m)).T  # the blocks are copied in place, contiguously
    vb[:m, :n] = vb[m:, n:] = ar
    vb[m:, :n] = ai
    np.negative(ai, out=vb[:m, n:])
    return vb


def check_problem(vb, u_b):
    """Solver-entry check of the realified operator and data; returns vb column-major and u_b contiguous, as floats.

    A column-major float vb is returned as it is, any other is copied once
    here.  Raises ValueError naming the argument when vb is not a 2-D
    array with even dimensions, when u_b does not have shape
    (vb.shape[0],), or when either holds NaN or inf.
    """
    vb = np.asarray(vb, dtype=float, order="F")
    u_b = np.ascontiguousarray(u_b, dtype=float)
    if vb.ndim != 2 or vb.shape[0] % 2 or vb.shape[1] % 2:
        raise ValueError(f"vb must be a 2-D array with even dimensions, got shape {vb.shape}")
    if u_b.shape != (vb.shape[0],):
        raise ValueError(f"u_b must have shape ({vb.shape[0]},) to match vb, got {u_b.shape}")
    if not np.isfinite(vb).all():
        raise ValueError("vb contains NaN or inf")
    if not np.isfinite(u_b).all():
        raise ValueError("u_b contains NaN or inf")
    return vb, u_b


# Summing the columns of vb on supp x beats the dense vb @ x up to about 2N/6 columns: on a column-major
# 512 x 8192 vb (2 cores, OpenBLAS) the sum takes 40 us over 128 columns (2N/64) and 0.6 ms over 1024 (2N/8),
# against 0.75 ms dense, and 1.1 ms over 2048 (2N/4).
SUPPORT_SUM_DIVISOR = 8  # sum over supp x when it holds at most 2N/8 entries


def columns(vb, select):
    """The columns of vb that `select` (a mask or indices) picks, gathered as rows of vb.T: a column-major block."""
    if select.dtype == bool:
        return np.compress(select, vb.T, axis=0).T
    return vb.T[select].T


def matvec(vb, x):
    """vb @ x by dgemv: a sum of the columns on supp x when it holds at most 2N/SUPPORT_SUM_DIVISOR entries."""
    s = np.flatnonzero(x != 0)
    if s.size > x.size // SUPPORT_SUM_DIVISOR:
        return dgemv(1.0, vb, x)
    if s.size == 0:
        return np.zeros(vb.shape[0])
    return dgemv(1.0, columns(vb, s), x[s])


def rmatvec(vb, y):
    """vb^T @ y by dgemv."""
    return dgemv(1.0, vb, y, trans=1)


def gram(v, trans=False):
    """V V^T, or V^T V when `trans`, of a column-major block V by one dgemm: full and column-major."""
    return dgemm(1.0, v, v, trans_a=trans, trans_b=not trans)


def normal(vb):
    """vb^T vb by one dsyrk (half a dgemm's flops), C-ordered: only its lower triangle holds the product.

    The result gets its own private anonymous mapping in base pages, which
    dsyrk writes in place.  Only the pages that the lower triangle reaches
    are ever backed, about half of them.  numpy would put an array this
    large in transparent huge pages, which the kernel zeroes whole; on a
    2-core KVM guest with free page reporting (virtio-balloon), forming the
    8192 x 8192 B of the 64-receiver instance in huge pages took anywhere
    from 0.15 to 0.6 s from one solve to the next, and in base pages
    0.14-0.26 s.
    """
    n = vb.shape[1]
    pages = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux only
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    out = np.frombuffer(pages, dtype=float).reshape(n, n)
    return dsyrk(1.0, vb, c=out.T, trans=1, overwrite_c=1).T


def column_norms(vb):
    """The Euclidean norms ||vb_j|| of the columns of vb, with no temporary the size of vb."""
    return np.sqrt(np.einsum("ij,ij->j", vb, vb))
