"""The package's only writer of files: CSV matrices, JSON, JSON-lines, 8-bit PGM images, the suite table, raw
bytes; each goes through `write_file`, so each is written whole or not at all."""

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

SUITE_COLUMNS = ("Method", "Source", "Medium", "Time(s)", "N-Error")


def write_file(path, *chunks):
    """Write the bytes-like `chunks` to `path`, making its directory: into a temporary file beside it,
    renamed over it, so a reader (or a second run sharing the directory) sees the old file or the new
    one, never a torn one.  The file gets the mode `open` gives any new file, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv_matrix(path, matrix):
    """Write a 2-d array as CSV with full float precision (deterministic bytes)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    write_file(path, "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in matrix).encode("ascii"))


def write_json(path, obj):
    """One JSON object, indented, keys sorted; a numpy scalar (a config may hold one) is written as its Python value."""
    write_file(path, json.dumps(obj, indent=2, sort_keys=True, default=np.generic.item).encode("utf-8"))


def write_jsonl(path, records):
    """One JSON object per line."""
    write_file(path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records).encode("ascii"))


def write_suite_csv(path, rows):
    """The suite table: a SUITE_COLUMNS header, then one row per experiment."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=SUITE_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    write_file(path, text.getvalue().encode("utf-8"))  # a FAILED cell may quote a non-ASCII path


def write_pgm(path, image):
    """Min-max normalized 8-bit binary PGM of a 2-d field."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("PGM export expects a 2-d field")
    lo, hi = float(image.min()), float(image.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((image - lo) * scale).astype(np.uint8)
    write_file(path, f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"), pixels.tobytes())


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
