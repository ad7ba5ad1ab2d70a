"""Uniform Cartesian grids, media, and boundary receiver layouts.

The computational box is [-R, R]^dim; unknowns live at cell centers,
receivers on the box boundary.  Flattening is C-order over axes in
(x, y[, z]) order.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered discretization of the box [-half_width, half_width]^dim."""

    dim: int
    n_per_axis: int
    half_width: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.n_per_axis < 4:
            raise ValueError("n_per_axis must be at least 4")
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.n_per_axis

    @property
    def shape(self):
        return (self.n_per_axis,) * self.dim

    @property
    def num_nodes(self):
        return self.n_per_axis**self.dim

    def axis_centers(self):
        """Cell-center coordinates along one axis."""
        h = self.spacing
        return -self.half_width + h * (np.arange(self.n_per_axis) + 0.5)

    def nodes(self):
        """All cell centers as an (N, dim) array, C-order flattened."""
        axes = [self.axis_centers()] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_volume(self):
        return self.spacing**self.dim


@dataclass(frozen=True)
class Medium:
    """Wavenumber and real contrast q = n(x) - 1 sampled at grid nodes."""

    wavenumber: float
    contrast: np.ndarray = field(repr=False)
    grid: Grid = None

    def __post_init__(self):
        if not 0 < self.wavenumber < np.inf:
            raise ValueError(f"wavenumber must be finite and positive, got {self.wavenumber}")
        q = np.asarray(self.contrast, dtype=float)
        object.__setattr__(self, "contrast", q)
        if self.grid is not None and q.shape != (self.grid.num_nodes,):
            raise ValueError("contrast must be a flat real field over the grid nodes")

    @property
    def is_homogeneous(self):
        return not np.any(self.contrast)


@dataclass(frozen=True)
class ReceiverSet:
    """Measurement points on the boundary of the box."""

    points: np.ndarray
    half_width: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("need at least one receiver point")
        on_boundary = np.max(np.abs(pts), axis=1)
        if not np.allclose(on_boundary, self.half_width, rtol=0, atol=1e-12 * self.half_width):
            raise ValueError("all receivers must lie on the boundary of the box")
        if len(np.unique(pts.round(decimals=12), axis=0)) != pts.shape[0]:
            raise ValueError("duplicate receiver points")

    @property
    def count(self):
        return self.points.shape[0]


def default_receiver_count(grid):
    """4*n receivers in 2D (one per boundary cell edge midpoint); 6*n^2 capped at 600 in 3D."""
    if grid.dim == 2:
        return 4 * grid.n_per_axis
    return min(6 * grid.n_per_axis**2, 600)


def boundary_receivers(grid, count=None):
    """Uniformly distributed receivers on the box boundary.

    2D: points at uniform arclength along the perimeter, starting from the
    (-R, -R) corner and walking counterclockwise; for count == 4*n they sit
    at the boundary cell edge midpoints.  3D: face-cell centers on all six
    faces, uniformly subsampled when the requested count is smaller.
    """
    if count is None:
        count = default_receiver_count(grid)
    if count < 1:
        raise ValueError("receiver count must be positive")
    r = grid.half_width
    if grid.dim == 2:
        side = 2.0 * r
        s = (np.arange(count) + 0.5) * (4.0 * side / count)
        pts = np.empty((count, 2))
        for i, si in enumerate(s):
            edge, t = int(si // side), si % side
            if edge == 0:
                pts[i] = (-r + t, -r)
            elif edge == 1:
                pts[i] = (r, -r + t)
            elif edge == 2:
                pts[i] = (r - t, r)
            else:
                pts[i] = (-r, r - t)
        return ReceiverSet(points=pts, half_width=r)

    n = grid.n_per_axis
    c = grid.axis_centers()
    u, v = np.meshgrid(c, c, indexing="ij")
    u, v = u.ravel(), v.ravel()
    faces = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            face = np.empty((n * n, 3))
            face[:, axis] = sign * r
            others = [a for a in range(3) if a != axis]
            face[:, others[0]] = u
            face[:, others[1]] = v
            faces.append(face)
    pts = np.concatenate(faces, axis=0)
    total = pts.shape[0]
    if count > total:
        raise ValueError(f"requested {count} receivers but only {total} face cells")
    if count < total:
        idx = (np.arange(count, dtype=np.int64) * total) // count
        pts = pts[idx]
    return ReceiverSet(points=pts, half_width=r)
