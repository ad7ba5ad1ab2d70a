"""The input checks of the package's entry points: each bad input is rejected with a ValueError naming it."""

import json
import re

import numpy as np
import pytest

from sparsescat.alm import AlmOptions
from sparsescat.cli import main
from sparsescat.export import write_pgm
from sparsescat.forward import fundamental_solution, ls_solve, self_cell_integral, volume_potential_fft
from sparsescat.grid import Grid, Medium, ReceiverSet, boundary_receivers
from sparsescat.harness import ExperimentConfig, add_noise, restrict_to_coarse
from sparsescat.phantoms import PhantomSpec, make_medium, make_phantom
from sparsescat.prox import soft_threshold
from sparsescat.realfield import realify_matrix

G2, G3 = Grid(dim=2, n_per_axis=8), Grid(dim=3, n_per_axis=8)
HOMO2, BUMP2 = make_medium(G2, 3.0), make_medium(G2, 3.0, inhomogeneous=True)
CONFIG = dict(solver="alm", alpha=1e-3, alpha0=1e-6, phantom={"kind": "peaks"}, fine_n=24, coarse_n=16)


def cli_suite(tmp_path, config):
    """Exit status of `sparsescat suite` on a config file holding `config`."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    return main(["suite", "--config", str(path), "--output", str(tmp_path / "out")])


# name -> (call on a temporary directory, pattern of the error message)
CASES = {
    "ReceiverSet-no-points": (lambda tmp: ReceiverSet(points=np.zeros((0, 2)), half_width=1.0), "at least one"),
    "ReceiverSet-off-the-boundary": (lambda tmp: ReceiverSet(points=[[0.5, 0.0]], half_width=1.0), "boundary"),
    "ReceiverSet-duplicates": (lambda tmp: ReceiverSet(points=[[1.0, 0.0], [1.0, 0.0]], half_width=1.0), "duplicate"),
    "Medium-contrast-shape": (lambda tmp: Medium(wavenumber=1.0, contrast=np.zeros(5), grid=G2), "contrast"),
    "boundary_receivers-3D-count-above-the-face-cells": (
        lambda tmp: boundary_receivers(G3, 6 * 8 * 8 + 1), "only 384 face cells"),
    "PhantomSpec-count-0": (lambda tmp: PhantomSpec(kind="peaks", count=0), "count must be positive"),
    "make_phantom-positions-do-not-match-count": (
        lambda tmp: make_phantom(PhantomSpec(kind="peaks", count=2, positions=((0.5, 0.5),)), G2), "match count"),
    "make_phantom-peak-dimension": (
        lambda tmp: make_phantom(PhantomSpec(kind="peaks", positions=((0.5, 0.5),)), G3), "dimensionality"),
    "make_phantom-strip-in-3D": (lambda tmp: make_phantom(PhantomSpec(kind="strip_diag"), G3), "two-dimensional"),
    "make_phantom-balls-in-2D": (lambda tmp: make_phantom(PhantomSpec(kind="balls3d"), G2), "three-dimensional"),
    "make_phantom-tripod-in-2D": (
        lambda tmp: make_phantom(PhantomSpec(kind="tripod_right_up"), G2), "three-dimensional"),
    "ExperimentConfig-unknown-solver": (lambda tmp: ExperimentConfig(**{**CONFIG, "solver": "cg"}), "unknown solver"),
    "ExperimentConfig-negative-noise": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "noise_level": -0.1}), "nonnegative"),
    "add_noise-negative-delta": (lambda tmp: add_noise(np.ones(4), -0.1, 0), "nonnegative"),
    "restrict_to_coarse-boxes-differ": (
        lambda tmp: restrict_to_coarse(np.zeros(2 * 24**2), Grid(2, 24, 2.0), Grid(2, 16, 1.0)), "same box"),
    "write_pgm-3D-field": (lambda tmp: write_pgm(tmp / "field.pgm", np.zeros((2, 2, 2))), "2-d field"),
    "soft_threshold-negative-threshold": (lambda tmp: soft_threshold(np.ones(3), -1.0), "nonnegative"),
    "realify_matrix-1-D-input": (lambda tmp: realify_matrix(np.ones(3)), "matrix"),
    "AlmOptions-beta-1": (lambda tmp: AlmOptions(beta=1), "beta"),
    "fundamental_solution-dim-4": (lambda tmp: fundamental_solution(1.0, np.ones(2), 4), "dim must be 2 or 3"),
    "self_cell_integral-dim-4": (lambda tmp: self_cell_integral(1.0, 0.1, 4), "dim must be 2 or 3"),
    # a realified (2N,) vector once came back as a batch of two rows, and a (B1, B2, N) batch was accepted
    "volume_potential_fft-realified-density": (
        lambda tmp: volume_potential_fft(G2, HOMO2, np.ones(2 * G2.num_nodes)), r"density must have shape \(64,\)"),
    "volume_potential_fft-3-D-batch": (
        lambda tmp: volume_potential_fft(G2, HOMO2, np.ones((2, 3, G2.num_nodes))), "density must have shape"),
    "volume_potential_fft-scalar": (lambda tmp: volume_potential_fft(G2, HOMO2, 1.0), "density must have shape"),
    # a homogeneous medium once handed back a wrong-length rhs unchecked
    "ls_solve-homogeneous-rhs-length": (
        lambda tmp: ls_solve(G2, HOMO2, np.ones(G2.num_nodes + 1)), r"rhs must have shape \(64,\)"),
    "ls_solve-bump-rhs-batch": (lambda tmp: ls_solve(G2, BUMP2, np.ones((2, G2.num_nodes))), "rhs must have shape"),
    "ls_solve-rhs-nan": (
        lambda tmp: ls_solve(G2, HOMO2, np.r_[np.nan, np.ones(G2.num_nodes - 1)]), "rhs contains NaN or inf"),
    "ls_solve-bump-rhs-inf": (
        lambda tmp: ls_solve(G2, BUMP2, np.r_[np.inf, np.ones(G2.num_nodes - 1)]), "rhs contains NaN or inf"),
    "cli-suite-config-not-a-list": (lambda tmp: cli_suite(tmp, CONFIG), "JSON list"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_is_rejected(case, tmp_path, capsys):
    call, pattern = CASES[case]
    if case.startswith("cli-"):
        # the CLI reports the ValueError as "error: ..." and exits with status 1
        assert call(tmp_path) == 1
        assert re.search(pattern, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
    else:
        with pytest.raises(ValueError, match=pattern):
            call(tmp_path)
        assert not any(tmp_path.iterdir())
