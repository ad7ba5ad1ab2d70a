"""Uniform Cartesian grids, media, and boundary receiver layouts.

The computational box is [-R, R]^dim; unknowns live at cell centers,
receivers on the box boundary.  Flattening is C-order over axes in
(x, y[, z]) order.
"""

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np


def check_integer(name, value, minimum):
    """Raise ValueError, naming `name`, unless `value` is an integer (Python or numpy, not a bool) >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be at least {minimum} and an integer, got {value!r}")


def check_bool(name, value):
    """Raise ValueError, naming `name`, unless `value` is a bool (Python or numpy)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def check_finite(name, value, sign=None, below=np.inf):
    """Raise ValueError, naming `name`, unless `value` is a finite real number (Python or numpy, not a bool)
    below `below`, and "positive" or "nonnegative" as `sign` says (None: either sign)."""
    real = not isinstance(value, bool) and isinstance(value, Real) and np.isfinite(value) and value < below
    if not real or (sign == "positive" and value <= 0) or (sign == "nonnegative" and value < 0):
        rule = f"finite and {sign}" if sign else "a finite real number"
        limit = f" below {below:g}" if below < np.inf else ""
        raise ValueError(f"{name} must be {rule}{limit}, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered discretization of the box [-half_width, half_width]^dim."""

    dim: int
    n_per_axis: int
    half_width: float = 1.0

    def __post_init__(self):
        check_integer("dim", self.dim, 2)
        if self.dim > 3:
            raise ValueError("dim must be 2 or 3")
        check_integer("n_per_axis", self.n_per_axis, 4)
        check_finite("half_width", self.half_width, "positive")

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
        check_finite("wavenumber", self.wavenumber, "positive")
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
    check_integer("receivers", count, 1)
    r = grid.half_width
    if grid.dim == 2:
        side = 2.0 * r
        s = (np.arange(count) + 0.5) * (4.0 * side / count)
        edge, t = (s // side).astype(int), s % side
        # each edge's start corner and unit direction, counterclockwise from (-r, -r)
        start = np.array([(-r, -r), (r, -r), (r, r), (-r, r)])
        step = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
        return ReceiverSet(points=start[edge] + t[:, None] * step[edge], half_width=r)

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
