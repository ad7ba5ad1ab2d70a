"""Ground-truth sources and media for the experiment suite.

All phantoms are real (zero imaginary block), deterministic functions of
their spec and grid, and keep a two-cell margin to the box boundary.
Peaks are single-cell spikes; set dirac_scaling to divide amplitudes by
the cell volume so each peak carries unit mass per unit amplitude, which
keeps reconstructions comparable across grid resolutions.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Medium, check_bool, check_finite, check_integer

KINDS = (
    "peaks",
    "strip_skew",
    "strip_diag",
    "balls3d",
    "tripod_right_up",
    "tripod_left_down",
    "two_tripods",
)

# default peak layout: centered positions, pairwise separation >= 8 cells
# on grids of 64 and up
_PEAK_FRACTIONS = (
    (0.5, 0.5),
    (0.3, 0.3),
    (0.7, 0.7),
    (0.3, 0.7),
    (0.7, 0.3),
    (0.5, 0.18),
    (0.5, 0.82),
    (0.18, 0.5),
)
BALL_RADIUS_FRAC = 0.15  # balls: radius as a fraction of the half width
BAR_LENGTH_FRAC = 0.4  # strips and tripod bars: length as a fraction of the box


@dataclass(frozen=True)
class PhantomSpec:
    """Declarative source description; `positions` optionally overrides the default layout."""

    kind: str
    count: int = 1
    amplitude: float = 1.0
    dirac_scaling: bool = False
    positions: tuple = None  # fractional coordinates in (0, 1)^dim

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown phantom kind {self.kind!r}; expected one of {KINDS}")
        check_integer("count", self.count, 1)
        check_finite("amplitude", self.amplitude)
        check_bool("dirac_scaling", self.dirac_scaling)
        if self.positions is not None:  # as tuples, so that a spec read from JSON equals the one written
            object.__setattr__(self, "positions", tuple(tuple(p) for p in self.positions))
            for coordinate in [c for point in self.positions for c in point]:
                check_finite("a coordinate of positions", coordinate)


def _frac_to_index(frac, n):
    return int(np.clip(round(frac * n - 0.5), 0, n - 1))


def _peak_positions(spec, dim):
    if spec.positions is not None:
        if len(spec.positions) != spec.count:
            raise ValueError("positions must match count")
        return spec.positions
    if dim == 2 and spec.count <= len(_PEAK_FRACTIONS):
        return list(_PEAK_FRACTIONS[: spec.count])
    # fall back to a centered sub-lattice
    per_axis = int(np.ceil(spec.count ** (1.0 / dim)))
    ticks = np.linspace(0.25, 0.75, per_axis) if per_axis > 1 else np.array([0.5])
    mesh = np.meshgrid(*([ticks] * dim), indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=-1)
    return [tuple(p) for p in lattice[: spec.count]]


def _check_margin(field, grid):
    n = grid.n_per_axis
    idx = np.argwhere(field.reshape(grid.shape) != 0.0)
    if idx.size and (idx.min() < 2 or idx.max() > n - 3):
        raise ValueError("phantom support must keep a two-cell margin to the boundary")


def make_phantom(spec, grid):
    """Realified source vector (2N, zero imaginary block) for the given spec."""
    n = grid.n_per_axis
    field = np.zeros(grid.shape)
    value = spec.amplitude / grid.cell_volume() if spec.dirac_scaling else spec.amplitude

    if spec.kind == "peaks":
        for frac in _peak_positions(spec, grid.dim):
            if len(frac) != grid.dim:
                raise ValueError("peak position dimensionality mismatch")
            field[tuple(_frac_to_index(f, n) for f in frac)] = value
    elif spec.kind in ("strip_diag", "strip_skew"):
        if grid.dim != 2:
            raise ValueError("strip phantoms are two-dimensional")
        half = BAR_LENGTH_FRAC / 2.0
        lo, hi = _frac_to_index(0.5 - half, n), _frac_to_index(0.5 + half, n)
        for i in range(lo, hi + 1):
            j = i if spec.kind == "strip_diag" else n - 1 - i
            field[i, j] = value
    elif spec.kind == "balls3d":
        if grid.dim != 3:
            raise ValueError("ball phantoms are three-dimensional")
        centers = spec.positions or ((0.35, 0.35, 0.35), (0.65, 0.65, 0.65))
        nodes = grid.nodes().reshape(grid.shape + (3,))
        radius = BALL_RADIUS_FRAC * grid.half_width
        for frac in centers:
            cidx = tuple(_frac_to_index(f, n) for f in frac)
            center = nodes[cidx]
            dist = np.linalg.norm(nodes - center, axis=-1)
            field[dist <= radius] = value
    elif spec.kind in ("tripod_right_up", "tripod_left_down", "two_tripods"):
        if grid.dim != 3:
            raise ValueError("tripod phantoms are three-dimensional")
        bars = int(round(BAR_LENGTH_FRAC * n))
        tripods = []
        if spec.kind in ("tripod_right_up", "two_tripods"):
            tripods.append(((0.3, 0.3, 0.3), +1))
        if spec.kind in ("tripod_left_down", "two_tripods"):
            tripods.append(((0.7, 0.7, 0.7), -1))
        for frac, sign in tripods:
            corner = tuple(_frac_to_index(f, n) for f in frac)
            for axis in range(3):
                for t in range(bars):
                    idx = list(corner)
                    idx[axis] += sign * t
                    if not 0 <= idx[axis] < n:
                        raise ValueError("tripod bar leaves the grid")
                    field[tuple(idx)] = value

    _check_margin(field, grid)
    flat = field.ravel()
    return np.concatenate([flat, np.zeros_like(flat)])


def bump(t):
    """The smooth compactly supported bump exp(-1/(1-t^2)) on |t| < 1, else 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def make_medium(grid, wavenumber, inhomogeneous=False):
    """Homogeneous medium, or the radial bump contrast q(x) = bump(|x|)."""
    if inhomogeneous:
        q = bump(np.linalg.norm(grid.nodes(), axis=1))
    else:
        q = np.zeros(grid.num_nodes)
    return Medium(wavenumber=wavenumber, contrast=q, grid=grid)
