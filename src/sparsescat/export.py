"""Dependency-free artifact export: CSV matrices, JSON-lines, 8-bit PGM images."""

import json
from pathlib import Path

import numpy as np


def write_csv_matrix(path, matrix):
    """Write a 2-d array as CSV with full float precision (deterministic bytes)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="ascii") as f:
        for row in matrix:
            f.write(",".join(format(v, ".17g") for v in row))
            f.write("\n")


def write_jsonl(path, records):
    """One JSON object per line."""
    with open(path, "w", encoding="ascii") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True))
            f.write("\n")


def write_pgm(path, image):
    """Min-max normalized 8-bit binary PGM of a 2-d field."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("PGM export expects a 2-d field")
    lo, hi = float(image.min()), float(image.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((image - lo) * scale).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def write_field(prefix, grid, values):
    """Write nodal values on `grid` as <prefix>.csv plus PGM images; returns the paths written.

    In 2D the images are one <prefix>.pgm; in 3D they are one
    <prefix>_zNNN.pgm per slice along the last axis, and the CSV holds
    the n^2 x n reshaped field.
    """
    prefix = Path(prefix)
    field = np.asarray(values, dtype=float).reshape(grid.shape)
    paths = [prefix.with_suffix(".csv")]
    write_csv_matrix(paths[0], field.reshape(-1, grid.n_per_axis))
    if grid.dim == 2:
        paths.append(prefix.with_suffix(".pgm"))
        write_pgm(paths[-1], field)
    else:
        for iz in range(grid.n_per_axis):
            paths.append(prefix.with_name(f"{prefix.stem}_z{iz:03d}.pgm"))
            write_pgm(paths[-1], field[:, :, iz])
    return paths
