"""Helmholtz forward model on the box grid.

The volume potential applied to a density f is

    (V_k f)(x) = k^2 * integral over the box of Phi(x, y) f(y) dy,

discretized by midpoint quadrature over cell centers with an analytic
correction for the singular self cell.  The scattered field of a source
mu in a medium with contrast q solves (I - V_k q) u = V_k mu / k^2, and
boundary data are the field values at the receivers.  The volume
potential is evaluated by circular convolution of the discrete kernel on
a doubled cell; the test suite holds the dense quadrature of the same
kernel as its oracle.

The work follows the supports: a receiver potential sums only over the
nodes where its density is nonzero, and the reciprocity field that gives
the measurement operator lives on the K nodes of supp(q), where one K x K
LU solves it for every receiver at once.  Between receivers and nodes,
Phi is evaluated once per distinct combination of per-axis offsets, and
the kernel blocks are gathered from that table (`_kernel_blocks`).
"""

import hashlib
import os
import struct
import zlib
from functools import lru_cache

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .export import write_file
from .realfield import derealify, realify, realify_matrix

_CACHE_MAGIC = b"VBOP"
_CACHE_VERSION = 4  # 4: the header is magic, key, crc; the payload is vb.T in C order (since 3)
_CACHE_HEADER = "<4s32sI"  # magic, `_cache_key`, payload crc32: 40 bytes, so the payload stays 8-aligned
_BLOCK = 1 << 19  # kernel points per block of rows: bounds the temporaries to tens of MB
_FFT_BLOCK = 16  # rows per batched FFT: bounds the padded workspace to 16 * (2n)^d entries
_FFT_WORKERS = -1  # scipy.fft threads: -1 is one per core, whatever the BLAS thread variables say


class LsSolveError(RuntimeError):
    """A scattering solve missed the requested relative residual."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"scattering solve stalled at relative residual {residual:.3e} (tol {tol:.3e})")


def fundamental_solution(k, r, dim):
    """Free-space outgoing fundamental solution Phi at distance r.

    2D: (i/4) H0^(1)(k r); 3D: exp(i k r) / (4 pi r).  Requires r > 0;
    the singular self cell is handled by callers via the analytic cell
    integral.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("fundamental solution is singular at r <= 0")
    if dim == 2:
        # imported here: scipy.special adds ~80 ms to `import sparsescat`
        from scipy.special import j0, y0

        kr = k * r
        return 0.25j * (j0(kr) + 1j * y0(kr))
    if dim == 3:
        return np.exp(1j * k * r) / (4.0 * np.pi * r)
    raise ValueError("dim must be 2 or 3")


def self_cell_integral(k, spacing, dim):
    """Analytic integral of Phi over the disk/ball with the cell's area/volume.

    2D (disk radius a, pi a^2 = h^2): i pi a / (2k) * H1^(1)(k a) - 1/k^2.
    3D (ball radius a, 4/3 pi a^3 = h^3): exp(i k a) (1/k^2 - i a / k) - 1/k^2.
    """
    if dim == 2:
        # imported here: scipy.special adds ~80 ms to `import sparsescat`
        from scipy.special import j1, y1

        a = spacing / np.sqrt(np.pi)
        return 1j * np.pi * a / (2.0 * k) * (j1(k * a) + 1j * y1(k * a)) - 1.0 / k**2
    if dim == 3:
        a = (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0) * spacing
        return np.exp(1j * k * a) * (1.0 / k**2 - 1j * a / k) - 1.0 / k**2
    raise ValueError("dim must be 2 or 3")


def fft_backend():
    """The FFT library of the forward model and the number of threads `_FFT_WORKERS` resolves to.

    scipy.fft counts a negative `workers` back from os.cpu_count(), so -1 is
    one thread per core; read without importing scipy.fft, which a run in a
    homogeneous medium never loads.
    """
    return {"library": "scipy.fft", "workers": os.cpu_count() + 1 + _FFT_WORKERS}


@lru_cache(maxsize=8)
def _fft_kernel(dim, n, spacing, k):
    """Discrete kernel embedded on the doubled periodic cell, and its FFT.

    Entry at integer offset d (per axis in [-n, n-1], wrapped) is the
    midpoint quadrature weight k^2 h^dim Phi at distance h*|d| (h the
    spacing), and k^2 times the analytic self-cell integral at d = 0; the
    doubling makes the circular convolution exact for supports in the box.
    """
    m = 2 * n
    offsets = np.where(np.arange(m) < n, np.arange(m), np.arange(m) - m).astype(float)
    mesh = np.meshgrid(*([offsets] * dim), indexing="ij")
    r = spacing * np.sqrt(sum(o * o for o in mesh))
    kernel = np.empty(r.shape, dtype=complex)
    mask = r > 0
    kernel[mask] = k**2 * spacing**dim * fundamental_solution(k, r[mask], dim)
    kernel[~mask] = k**2 * self_cell_integral(k, spacing, dim)
    # imported here: scipy.fft adds ~90 ms to `import sparsescat`
    from scipy.fft import fftn

    return kernel, fftn(kernel, workers=_FFT_WORKERS)  # not in place: `_support_matrix` reads the kernel


def volume_potential_fft(grid, medium, density):
    """FFT evaluation of the midpoint-quadrature volume potential V_k at the grid nodes.

    `density` is one node vector (N,) or a batch of them (B, N); the
    result has the same shape, and any other shape raises ValueError.  A
    batch is transformed in blocks of _FFT_BLOCK rows, so its workspace
    does not grow with the batch.  The transforms run through scipy.fft
    on every core (`_FFT_WORKERS`), in place on the padded block, which
    the function owns: `density` is never handed to scipy.  The FFT
    threads are scipy.fft's own, so the BLAS thread variables (and
    perfbench's `--threads 1`) do not reach them.
    """
    # imported here: scipy.fft adds ~90 ms to `import sparsescat`
    from scipy.fft import fftn, ifftn

    density = np.asarray(density)
    if density.ndim not in (1, 2) or density.shape[-1] != grid.num_nodes:
        raise ValueError(f"density must have shape ({grid.num_nodes},) or (B, {grid.num_nodes}) to match "
                         f"the grid, got {density.shape}")
    k = medium.wavenumber
    n = grid.n_per_axis
    _, khat = _fft_kernel(grid.dim, n, grid.spacing, k)
    rows = density.reshape((-1,) + grid.shape)
    out = np.empty(rows.shape, dtype=complex)
    axes = tuple(range(-grid.dim, 0))
    block = (...,) + tuple(slice(0, n) for _ in range(grid.dim))
    for start in range(0, len(rows), _FFT_BLOCK):
        chunk = rows[start:start + _FFT_BLOCK]
        pad = np.zeros((len(chunk),) + (2 * n,) * grid.dim, dtype=complex)
        pad[block] = chunk
        spectrum = fftn(pad, axes=axes, overwrite_x=True, workers=_FFT_WORKERS)
        spectrum *= khat
        out[start:start + len(chunk)] = ifftn(spectrum, axes=axes, overwrite_x=True, workers=_FFT_WORKERS)[block]
    return out.reshape(density.shape)


def _support_matrix(grid, medium, support):
    """The discrete kernel V_SS between the given nodes, self cell on the diagonal.

    Entries are read from the embedded FFT kernel, so V_SS f equals the
    FFT potential of f restricted to the same nodes.
    """
    n = grid.n_per_axis
    kernel, _ = _fft_kernel(grid.dim, n, grid.spacing, medium.wavenumber)
    index = np.unravel_index(support, grid.shape)
    flat = np.zeros((support.size, support.size), dtype=np.intp)
    for axis in index:
        flat *= 2 * n
        flat += (axis[:, None] - axis[None, :]) % (2 * n)
    return kernel.ravel()[flat]


def _gmres_solve(matvec, rhs, tol):
    """GMRES(50), at most 10 restart cycles (500 iterations), with an explicit residual postcondition check."""
    # imported here: scipy.sparse.linalg adds ~30 ms to `import sparsescat`, and only inhomogeneous media solve
    from scipy.sparse.linalg import LinearOperator, gmres

    n = rhs.shape[0]
    op = LinearOperator((n, n), matvec=matvec, dtype=complex)
    sol, _ = gmres(op, rhs, rtol=tol, atol=0.0, restart=50, maxiter=10)
    res = np.linalg.norm(matvec(sol) - rhs)
    scale = np.linalg.norm(rhs)
    if scale > 0 and res > tol * scale:
        raise LsSolveError(res / scale, tol)
    return sol


def _check_medium(grid, medium):
    """Raise ValueError naming medium unless its contrast is shaped (grid.num_nodes,) and its grid is None or `grid`."""
    if medium.contrast.shape != (grid.num_nodes,):
        raise ValueError(f"medium contrast must have shape ({grid.num_nodes},) to match the grid, "
                         f"got {medium.contrast.shape}")
    if medium.grid not in (None, grid):
        raise ValueError(f"medium is defined on {medium.grid}, not on {grid}")


def ls_solve(grid, medium, rhs, tol=1e-10):
    """Solve the scattering system (I - V_k q) w = rhs on the grid nodes.

    Uses the FFT potential inside a restarted GMRES iteration and verifies
    the residual postcondition on every solve.  For a homogeneous medium
    the system is the identity.  Raises ValueError naming rhs when it
    does not have shape (grid.num_nodes,) or holds NaN or inf, and checks
    `medium` by `_check_medium`.
    """
    _check_medium(grid, medium)
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (grid.num_nodes,):
        raise ValueError(f"rhs must have shape ({grid.num_nodes},) to match the grid, got {rhs.shape}")
    if not np.isfinite(rhs).all():
        raise ValueError("rhs contains NaN or inf")
    if medium.is_homogeneous:
        return rhs.copy()
    q = medium.contrast

    def matvec(w):
        return w - volume_potential_fft(grid, medium, q * w)

    return _gmres_solve(matvec, rhs, tol)


def _kernel_blocks(k, dim, points, nodes, weight):
    """Yield (rows, k^2 * weight * Phi(points[rows], nodes)) in blocks of about _BLOCK entries.

    No point may coincide with a node.  Phi depends on a pair only through
    its per-axis offsets |a - b|, and receivers and grid nodes share few of
    them: the 256 x 4096 pairs of the desk assembly have 128 per axis.  So
    Phi is evaluated once per entry of the product of the per-axis distinct
    offsets (16 384 at the desk), and the blocks are gathered from that
    table, whenever it has fewer entries than there are pairs; otherwise at
    every pair.  The table's r adds the same squares in the same axis order
    as the per-pair sum, so every block is bitwise the per-pair one.
    """
    step = max(1, _BLOCK // max(1, nodes.shape[0]))
    axes = [_axis_offsets(points[:, a], nodes[:, a]) for a in range(dim)]
    table = np.prod([values.size for values, *_ in axes]) < points.shape[0] * nodes.shape[0]
    if table:
        r2 = np.zeros(())
        for values, *_ in axes:
            r2 = r2[..., None] + values * values
        r = np.sqrt(r2).ravel()
        used = r > 0  # r = 0 is the offset of a point on a node: it may be in the table but never in a block
        phi = np.zeros(r.shape, dtype=complex)
        phi[used] = k**2 * weight * fundamental_solution(k, r[used], dim)
    for start in range(0, points.shape[0], step):
        rows = slice(start, min(start + step, points.shape[0]))
        if table:
            flat = np.zeros((rows.stop - start, nodes.shape[0]), dtype=np.intp)
            for values, index, point_of, node_of in axes:
                flat *= values.size
                flat += index[point_of[rows, None], node_of]
            if not used.all() and not used[flat].all():
                raise ValueError("fundamental solution is singular at r <= 0")
            yield rows, phi[flat]  # a C-contiguous block: BLAS sums its products as it sums the per-pair block's
        else:
            diff = points[rows, None, :] - nodes[None, :, :]
            r = np.sqrt(np.sum(diff * diff, axis=-1))
            yield rows, k**2 * weight * fundamental_solution(k, r, dim)


def _axis_offsets(a, b):
    """The distinct |a_i - b_j| and their index for each pair: values, index[a_of[i], b_of[j]], a_of, b_of."""
    a_values, a_index = np.unique(a, return_inverse=True)
    b_values, b_index = np.unique(b, return_inverse=True)
    values, index = np.unique(np.abs(a_values[:, None] - b_values[None, :]), return_inverse=True)
    return values, index.reshape(a_values.size, b_values.size), a_index.ravel(), b_index.ravel()


def evaluate_potential_at(grid, k, points, density):
    """Quadrature evaluation of V_k density at off-grid points (e.g. receivers).

    Only the nodes where the density is nonzero enter the sum.
    """
    density = np.asarray(density)
    support = np.flatnonzero(density)
    nodes = grid.nodes()[support]
    values = density[support]
    points = np.asarray(points, dtype=float)
    out = np.empty(points.shape[0], dtype=complex)
    for rows, block in _kernel_blocks(k, grid.dim, points, nodes, grid.cell_volume()):
        out[rows] = block @ values
    return out


def source_to_measurement(grid, medium, receivers, mu, tol=1e-10):
    """Boundary data of the scattered field radiated by the realified source mu.

    Computes u = (I - V_k q)^{-1} V_k mu / k^2 on the grid, then evaluates
    the potential of mu/k^2 + q*u at the receiver points.  Raises
    ValueError naming mu when it does not have shape (2 * grid.num_nodes,)
    or holds NaN or inf, and checks `medium` by `_check_medium`.
    """
    _check_medium(grid, medium)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (2 * grid.num_nodes,):
        raise ValueError(f"mu must have shape ({2 * grid.num_nodes},) to match the grid, got {mu.shape}")
    if not np.isfinite(mu).all():
        raise ValueError("mu contains NaN or inf")
    k = medium.wavenumber
    mu_c = derealify(mu)
    density = mu_c / k**2
    if not medium.is_homogeneous:
        interior = ls_solve(grid, medium, volume_potential_fft(grid, medium, density), tol=tol)
        density = density + medium.contrast * interior
    return realify(evaluate_potential_at(grid, k, receivers.points, density))


def assemble_vb(grid, medium, receivers, tol=1e-8):
    """Assemble the realified measurement operator (2M x 2N).

    Row i is the map mu -> scattered boundary data at receiver i.  By
    reciprocity of the Green's function for real contrast, row i is
    (phi_i + V psi_i) / k^2, where phi_i is the free-space kernel row of
    receiver i and psi_i = q (phi_i + V psi_i) is supported on the K nodes
    S of supp(q), V_SS being the FFT path's discrete kernel.  An
    inhomogeneous medium costs one LU of the K x K matrix
    I - diag(q_S) V_SS (about 16 K^2 bytes), solved for all M receivers
    at once, plus one batched FFT potential, rather than M Krylov solves.
    The FFTs run through scipy.fft on every core (see
    `volume_potential_fft`), whatever the BLAS thread variables say.  At
    the desk bump config (64^2 nodes, K = 360, M = 256, 2 cores) this
    takes 0.25 s (median of 10 calls) against 3.0 s for 256 `ls_solve`
    GMRES solves, one per kernel row, and the homogeneous desk operator
    0.065 s.  The margin shrinks as K nears N: at half-width 1 (K = 3228
    of 4096, with numpy's FFTs) it measured 3.1-3.4 s and a 560 MB peak
    against 4.4-4.8 s and 145 MB.  No inhomogeneous 3D case has been
    measured.  Each receiver's relative residual
    psi_S - q_S (phi + V psi)_S, with V applied by FFT, is checked
    against `tol` (LsSolveError otherwise).  No kernel block, psi or FFT
    potential is alive beside phi when `realify_matrix` allocates vb.
    `medium` is checked by `_check_medium`.
    """
    _check_medium(grid, medium)
    k = medium.wavenumber
    nodes = grid.nodes()
    points = receivers.points
    phi = np.empty((nodes.shape[0], points.shape[0]), dtype=complex).T  # column-major, like vb
    for cols, block in _kernel_blocks(k, grid.dim, nodes, points, grid.cell_volume()):
        phi[:, cols] = block.T
    del block  # one block of rows, 8 MB at the desk
    if not medium.is_homogeneous:
        _add_scattered_rows(grid, medium, phi, tol)
    phi /= k**2  # in place: no second M x N temporary beside vb
    return realify_matrix(phi)


def _add_scattered_rows(grid, medium, phi, tol):
    """Add V psi_i to each kernel row phi_i in place (see `assemble_vb`): psi dies on return."""
    support = np.flatnonzero(medium.contrast)
    q_s = medium.contrast[support]
    system = -q_s[:, None] * _support_matrix(grid, medium, support)
    system[np.diag_indices_from(system)] += 1.0
    rhs = q_s[:, None] * phi[:, support].T
    psi = np.zeros(phi.shape, dtype=complex)  # row-major: the FFT potential transforms it by rows
    psi[:, support] = lu_solve(lu_factor(system, overwrite_a=True, check_finite=False), rhs).T
    np.add(phi, volume_potential_fft(grid, medium, psi), out=phi)  # in place: column-major, as vb
    residual = np.linalg.norm(psi[:, support] - q_s * phi[:, support], axis=1)
    worst = np.max(residual / np.linalg.norm(rhs, axis=0))
    if worst > tol:
        raise LsSolveError(worst, tol)


def _cache_key(grid, medium, receivers):
    """sha256 of the cache version and of every input `assemble_vb` reads: dim, n, half-width,
    k, the contrast and the receiver points (dim and n both: 64^2 and 16^3 have one N)."""
    h = hashlib.sha256(struct.pack("<IIIdd", _CACHE_VERSION, grid.dim, grid.n_per_axis, grid.half_width,
                                   medium.wavenumber))
    h.update(medium.contrast.tobytes())
    h.update(receivers.points.tobytes())
    return h.digest()


def save_vb_cache(path, vb, grid, medium, receivers):
    """Persist an operator: magic, `_cache_key`, payload crc32, then the f64 payload (vb's own bytes)."""
    payload = memoryview(np.asarray(vb, dtype="<f8", order="F").T).cast("B")
    header = struct.pack(_CACHE_HEADER, _CACHE_MAGIC, _cache_key(grid, medium, receivers), zlib.crc32(payload))
    write_file(path, header, payload)


def load_vb_cache(path, grid, medium, receivers):
    """A cached operator, a column-major view of the file's payload; None when missing, stale, truncated
    or corrupt.  The size, magic and key are checked before the payload is read."""
    rows, cols = 2 * receivers.count, 2 * grid.num_nodes
    header_size = struct.calcsize(_CACHE_HEADER)
    try:
        with open(path, "rb", buffering=0) as f:  # unbuffered: a stale cache costs 40 bytes of reading
            if os.fstat(f.fileno()).st_size != header_size + 8 * rows * cols:
                return None
            magic, key, crc = struct.unpack(_CACHE_HEADER, f.read(header_size))
            if magic != _CACHE_MAGIC or key != _cache_key(grid, medium, receivers):
                return None
            payload = np.fromfile(f, dtype="<f8")
    except FileNotFoundError:
        return None
    if zlib.crc32(payload) != crc:
        return None
    return payload.reshape(cols, rows).T
