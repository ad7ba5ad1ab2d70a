"""Real block representations of complex vectors and operators, and the measurement operator.

A complex vector v of length n is stored as the real vector
(Re v; Im v) of length 2n.  A complex M x N matrix A = A_R + i*A_I is
stored as the real 2M x 2N block matrix

    [[A_R, -A_I],
     [A_I,  A_R]],

so that matrix-vector products commute with the representation.  All
convex duality and the solvers operate on these real objects; the plain
real transpose of the block matrix is the adjoint used throughout (it
coincides with the realified complex conjugate transpose).

The measurement operator is held once, as its complex matrix T
(M x N, column-major), by `MeasurementOperator`; vb, the realified
2M x 2N operator the solvers work with, is never stored.  The layout
rule: realified column j < N of vb is [Re T_j; Im T_j], column N + j is
[-Im T_j; Re T_j], the realification of i*T_j.  The full products vb x
and vb^T y are one `zgemv` on T (the adjoint with trans=2, the conjugate
transpose), which reads half the bytes of a `dgemv` on vb.  The solvers
read vb's columns only as realified column-major blocks that `columns`
gathers (ALM's active set, PDA's screened block), and multiply those by
`dgemv`.  SSN's B = vb^T vb is formed from one transient realified copy,
`dense()`.

Every product with T or a column block goes through `scipy.linalg.blas`
(`zgemv`, `zherk`, `dgemv`, `dgemm`, `dsyrk`), the library of
`prox.cholesky_solve`: numpy and scipy each load their own OpenBLAS with
its own thread pool, and a loop that alternates between the two has the
idle-spinning workers of one pool take the cores from the other (2
threads each on 2 cores: a 512 x 512 Cholesky right after a numpy
product took up to 350 ms instead of 2-3 ms, and the desk ALM solve ran
3-5x slower).  One library per solver loop leaves one pool; only vector
dots stay in numpy.
"""

import mmap

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dsyrk, zgemv, zherk


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
    """Solver-entry check of the operator and data; returns the `MeasurementOperator` and u_b contiguous, as floats.

    A `MeasurementOperator`, checked when it was built, is returned as it
    is; any other `vb` is taken for the complex matrix T and built into one
    here, which raises ValueError naming vb when it is not a 2-D complex
    array or holds NaN or inf.  Raises ValueError naming u_b when it does
    not have shape (2M,) or holds NaN or inf.
    """
    op = vb if isinstance(vb, MeasurementOperator) else MeasurementOperator(vb)
    u_b = np.ascontiguousarray(u_b, dtype=float)
    if u_b.shape != (op.shape[0],):
        raise ValueError(f"u_b must have shape ({op.shape[0]},) to match vb, got {u_b.shape}")
    if not np.isfinite(u_b).all():
        raise ValueError("u_b contains NaN or inf")
    return op, u_b


# Summing T's columns on the complex support of x beats the dense zgemv up to about N/6 columns.  Medians of
# `matvec`, 2 cores, OpenBLAS: on the desk 256 x 4096 T the sum takes 155 us over N/16 columns and 330 us over
# N/8, against 400-460 us dense; the two tie at N/6 (400-415 us), and over N/4 the sum takes 570-595 us.  On
# the 64 x 4096 T: 90-110 us over N/8 against 155-185 us dense, and a tie near N/5.
SUPPORT_SUM_DIVISOR = 8  # sum over the complex support of x when it holds at most N/8 columns


class MeasurementOperator:
    """The measurement operator: its complex matrix T (M x N, column-major) and the realified products with it.

    `shape` is that of the realified vb, (2M, 2N), and `nbytes` that of T,
    16 M N: vb's entries are never stored (see the module docstring for
    the layout).  T is checked here, once: ValueError naming vb when it is
    not a 2-D complex array, or holds NaN or inf.  A column-major complex
    T is kept without a copy; any other layout is copied once.
    """

    def __init__(self, t):
        t = np.asarray(t)
        if t.ndim != 2 or not np.iscomplexobj(t):
            raise ValueError(f"vb must be a 2-D array of complex entries (the matrix T), got shape {t.shape} "
                             f"and dtype {t.dtype}")
        self.t = np.asfortranarray(t, dtype=complex)
        if not np.isfinite(self.t).all():
            raise ValueError("vb contains NaN or inf")

    @property
    def shape(self):
        m, n = self.t.shape
        return 2 * m, 2 * n

    @property
    def nbytes(self):
        return self.t.nbytes

    def matvec(self, x):
        """vb @ x by zgemv: a sum of T's columns on the complex support of x when it holds at most
        N/SUPPORT_SUM_DIVISOR of them, otherwise the dense product."""
        m, n = self.t.shape
        support = np.flatnonzero((x[:n] != 0) | (x[n:] != 0))
        if support.size > n // SUPPORT_SUM_DIVISOR:
            out = zgemv(1.0, self.t, x[:n] + 1j * x[n:])
        elif support.size == 0:
            return np.zeros(2 * m)
        else:
            out = zgemv(1.0, self.t.T[support].T, x[support] + 1j * x[n + support])
        return np.concatenate((out.real, out.imag))

    def rmatvec(self, y):
        """vb^T @ y: T^H (y_R + i y_I) by zgemv (trans=2, the conjugate transpose), realified."""
        m = self.t.shape[0]
        out = zgemv(1.0, self.t, y[:m] + 1j * y[m:], trans=2)
        return np.concatenate((out.real, out.imag))

    def columns(self, select):
        """The columns of vb that `select` (a mask or indices) picks, as a realified column-major block.

        Column j < N is [Re T_j; Im T_j] and column N + j is [-Im T_j; Re T_j]:
        each entry is copied (or negated) from T, so the block is bitwise
        that of `dense()`.
        """
        index = np.flatnonzero(select) if select.dtype == bool else np.asarray(select)
        m, n = self.t.shape
        gathered = self.t.T[index % n]  # rows of T.T: T's columns, contiguous
        rotated = (index >= n)[:, None]
        block = np.empty((index.size, 2 * m))  # C order: its transpose is the column-major block
        block[:, :m] = np.where(rotated, -gathered.imag, gathered.real)
        block[:, m:] = np.where(rotated, gathered.real, gathered.imag)
        return block.T

    def column_norms(self):
        """The Euclidean norms ||vb_j|| of vb's 2N columns: columns j and N + j both have norm ||T_j||."""
        pairs = self.t.T.view(float)  # row j holds Re and Im of T_j, interleaved
        norms = np.sqrt(np.einsum("ij,ij->i", pairs, pairs))
        return np.concatenate((norms, norms))

    def gram(self):
        """The smaller of T T^H (M x M) and T^H T (N x N), by one zherk: its upper triangle holds the product.

        Its eigenvalues are the squared singular values of T, which vb
        shares (each twice).
        """
        m, n = self.t.shape
        return zherk(1.0, self.t, trans=2 if m > n else 0)

    def dense(self):
        """The realified 2M x 2N vb, column-major: a copy of twice T's bytes."""
        return realify_matrix(self.t)


def matvec(v, x):
    """V @ x by dgemv, for a realified column-major block V (of `MeasurementOperator.columns`)."""
    return dgemv(1.0, v, x)


def rmatvec(v, y):
    """V^T @ y by dgemv, for a realified column-major block V."""
    return dgemv(1.0, v, y, trans=1)


def gram(v, trans=False):
    """V V^T, or V^T V when `trans`, of a column-major block V by one dgemm: full and column-major."""
    return dgemm(1.0, v, v, trans_a=trans, trans_b=not trans)


def normal(v):
    """V^T V of a realified column-major array V by one dsyrk (half a dgemm's flops), C-ordered.

    Only its lower triangle holds the product.

    The result gets its own private anonymous mapping in base pages, which
    dsyrk writes in place.  Only the pages that the lower triangle reaches
    are ever backed, about half of them.  numpy would put an array this
    large in transparent huge pages, which the kernel zeroes whole; on a
    2-core KVM guest with free page reporting (virtio-balloon), forming the
    8192 x 8192 B of the 64-receiver instance in huge pages took anywhere
    from 0.15 to 0.6 s from one solve to the next, and in base pages
    0.14-0.26 s.
    """
    n = v.shape[1]
    pages = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux only
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    out = np.frombuffer(pages, dtype=float).reshape(n, n)
    return dsyrk(1.0, v, c=out.T, trans=1, overwrite_c=1).T
