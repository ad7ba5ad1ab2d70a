"""The input checks of the package's entry points: each bad input is rejected with a ValueError naming it."""

import json
import re

import numpy as np
import pytest

from sparsescat.alm import AlmOptions, solve_alm
from sparsescat.cli import main
from sparsescat.export import write_json, write_pgm
from sparsescat.forward import fundamental_solution, ls_solve, self_cell_integral, volume_potential_fft
from sparsescat.grid import Grid, Medium, ReceiverSet, boundary_receivers
from sparsescat.harness import ExperimentConfig, add_noise, n_error, restrict_to_coarse
from sparsescat.pda import PdaOptions, solve_pda
from sparsescat.phantoms import PhantomSpec, make_medium, make_phantom
from sparsescat.prox import RegParams, soft_threshold
from sparsescat.realfield import MeasurementOperator, realify_matrix
from sparsescat.ssn import solve_ssn

G2, G3 = Grid(dim=2, n_per_axis=8), Grid(dim=3, n_per_axis=8)
HOMO2, BUMP2 = make_medium(G2, 3.0), make_medium(G2, 3.0, inhomogeneous=True)
REG = RegParams(alpha=1e-3, alpha0=1e-6)
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
    "PhantomSpec-count-0": (lambda tmp: PhantomSpec(kind="peaks", count=0), "count must be at least 1"),
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
    # the operator is checked once, where it is built: from T by assembly, the cache, or a solver's entry
    "MeasurementOperator-1-D": (lambda tmp: MeasurementOperator(np.ones(3, dtype=complex)), "vb must be a 2-D array"),
    "MeasurementOperator-nan": (
        lambda tmp: MeasurementOperator(np.array([[1j, np.nan]])), "vb contains NaN or inf"),
    "solve_alm-real-vb": (
        lambda tmp: solve_alm(np.ones((4, 6)), np.ones(4), REG), "vb must be a 2-D array of complex entries"),
    "solve_ssn-inf-vb": (
        lambda tmp: solve_ssn(np.full((2, 3), np.inf + 0j), np.ones(4), REG), "vb contains NaN or inf"),
    "solve_pda-3-D-vb": (
        lambda tmp: solve_pda(np.ones((2, 3, 1), dtype=complex), np.ones(4), REG), "vb must be a 2-D array"),
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
    # a comparison with NaN is false, so `x < 0`-style checks once let NaN (and inf) through
    "RegParams-alpha-nan": (lambda tmp: RegParams(alpha=np.nan, alpha0=1e-6), "alpha must be finite"),
    "RegParams-alpha0-inf": (lambda tmp: RegParams(alpha=1e-3, alpha0=np.inf), "alpha0 must be finite"),
    "Grid-half_width-nan": (lambda tmp: Grid(dim=2, n_per_axis=8, half_width=np.nan), "half_width must be finite"),
    "Medium-wavenumber-nan": (
        lambda tmp: Medium(wavenumber=np.nan, contrast=np.zeros(G2.num_nodes), grid=G2), "wavenumber must be finite"),
    "PdaOptions-sigma-nan": (lambda tmp: PdaOptions(sigma=np.nan), "sigma must be finite"),
    # SSN's gamma path is set by its certificate: a schedule is an unknown option
    "ExperimentConfig-ssn-gammas": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "solver": "ssn", "solver_options": {"gammas": [1.0, 1e2]}}),
        r"unknown ssn options: \['gammas'\]"),
    "ExperimentConfig-alpha-nan": (lambda tmp: ExperimentConfig(**{**CONFIG, "alpha": np.nan}), "alpha must be finite"),
    "ExperimentConfig-noise-nan": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "noise_level": np.nan}), "noise_level must be finite"),
    "ExperimentConfig-wavenumber-nan": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "wavenumber": np.nan}), "wavenumber must be finite"),
    "add_noise-nan-delta": (lambda tmp: add_noise(np.ones(4), np.nan, 0), "noise level must be finite"),
    # shapes: n_error once broadcast a length-1 reconstruction, add_noise failed in numpy's broadcast,
    # and restrict_to_coarse reshaped whatever it was given
    "n_error-lengths-differ": (lambda tmp: n_error(np.zeros(1), np.ones(8)), "1-D of one length"),
    "n_error-2-D": (lambda tmp: n_error(np.zeros((2, 4)), np.ones((2, 4))), "1-D of one length"),
    "add_noise-odd-length": (lambda tmp: add_noise(np.ones(5), 0.01, 0), r"even length, got shape \(5,\)"),
    "restrict_to_coarse-one-block": (
        lambda tmp: restrict_to_coarse(np.zeros(24**2), Grid(2, 24), Grid(2, 16)),
        r"mu_fine must have shape \(1152,\)"),
    "restrict_to_coarse-2-D": (
        lambda tmp: restrict_to_coarse(np.zeros((2, 24**2)), Grid(2, 24), Grid(2, 16)), "mu_fine must have shape"),
    # ALM's loop options once went unchecked: NaN tolerances ran to max_outer, and max_outer 0 or 2.5 built
    "AlmOptions-max_outer-0": (lambda tmp: AlmOptions(max_outer=0), "max_outer must be at least 1"),
    "AlmOptions-max_outer-float": (lambda tmp: AlmOptions(max_outer=2.5), "max_outer must be .* an integer"),
    "AlmOptions-lam_tol-nan": (lambda tmp: AlmOptions(lam_tol=np.nan), "lam_tol must be finite and nonnegative"),
    "AlmOptions-gap_tol-nan": (lambda tmp: AlmOptions(gap_tol=np.nan), "gap_tol must be finite and nonnegative"),
    "AlmOptions-gap_tol-negative": (lambda tmp: AlmOptions(gap_tol=-1e-9), "gap_tol must be finite and nonnegative"),
    "ExperimentConfig-alm-tolerances-nan": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "solver_options": {"lam_tol": np.nan, "gap_tol": np.nan}}),
        "lam_tol must be finite"),
    # integer fields once took floats (24.5 built; 16.0 failed later in numpy) and bools
    "Grid-dim-float": (lambda tmp: Grid(dim=2.0, n_per_axis=8), "dim must be .* an integer, got 2.0"),
    "Grid-dim-bool": (lambda tmp: Grid(dim=True, n_per_axis=8), "dim must be .* an integer, got True"),
    "Grid-n_per_axis-float": (lambda tmp: Grid(dim=2, n_per_axis=16.0), "n_per_axis must be .* an integer"),
    "ExperimentConfig-fine_n-float": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "fine_n": 24.5}), "n_per_axis must be .* an integer, got 24.5"),
    "ExperimentConfig-coarse_n-float": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "coarse_n": 16.0}), "n_per_axis must be .* an integer, got 16.0"),
    "ExperimentConfig-dim-float": (lambda tmp: ExperimentConfig(**{**CONFIG, "dim": 2.0}), "dim must be .* an integer"),
    "ExperimentConfig-receivers-float": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "receivers": 16.0}), "receivers must be .* an integer"),
    "ExperimentConfig-receivers-bool": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "receivers": True}), "receivers must be .* an integer"),
    "ExperimentConfig-seed-float": (lambda tmp: ExperimentConfig(**{**CONFIG, "seed": 1.5}), "seed must be .* an integer"),
    "ExperimentConfig-seed-negative": (lambda tmp: ExperimentConfig(**{**CONFIG, "seed": -1}), "seed must be at least 0"),
    "boundary_receivers-count-float": (lambda tmp: boundary_receivers(G2, 8.0), "receivers must be .* an integer"),
    "PdaOptions-iters-float": (lambda tmp: PdaOptions(iters=2.5), "iters must be .* an integer"),
    "PdaOptions-record_every-bool": (lambda tmp: PdaOptions(record_every=True), "record_every must be .* an integer"),
    "PhantomSpec-count-float": (lambda tmp: PhantomSpec(kind="peaks", count=1.0), "count must be .* an integer"),
    "PhantomSpec-count-bool": (lambda tmp: PhantomSpec(kind="peaks", count=True), "count must be .* an integer"),
    # the kernels once let a NaN or infinite wavenumber through `k <= 0`, and the self cell checked nothing
    "fundamental_solution-k-nan": (
        lambda tmp: fundamental_solution(np.nan, np.ones(2), 2), "wavenumber must be finite and positive"),
    "fundamental_solution-k-inf": (
        lambda tmp: fundamental_solution(np.inf, np.ones(2), 3), "wavenumber must be finite and positive"),
    "self_cell_integral-k-nan": (lambda tmp: self_cell_integral(np.nan, 0.1, 2), "wavenumber must be finite"),
    "self_cell_integral-k-negative": (lambda tmp: self_cell_integral(-1.0, 0.1, 3), "wavenumber must be finite"),
    "self_cell_integral-spacing-negative": (lambda tmp: self_cell_integral(1.0, -0.1, 2), "spacing must be finite"),
    "self_cell_integral-spacing-inf": (lambda tmp: self_cell_integral(1.0, np.inf, 3), "spacing must be finite"),
    "self_cell_integral-spacings-one-nan": (
        lambda tmp: self_cell_integral(1.0, np.array([0.1, np.nan]), 2), "spacing must be finite"),
    # flags once took any truthy value ("false" built a bump medium), and NaN amplitudes and
    # positions built, to fail only in phase simulate
    "ExperimentConfig-inhomogeneous-string": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "inhomogeneous": "false"}), "inhomogeneous must be a bool"),
    "ExperimentConfig-inhomogeneous-int": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "inhomogeneous": 1}), "inhomogeneous must be a bool"),
    "PhantomSpec-dirac_scaling-string": (
        lambda tmp: PhantomSpec(kind="peaks", dirac_scaling="yes"), "dirac_scaling must be a bool"),
    "ExperimentConfig-dirac_scaling-none": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "phantom": {"kind": "peaks", "dirac_scaling": None}}),
        "dirac_scaling must be a bool"),
    "PhantomSpec-amplitude-nan": (lambda tmp: PhantomSpec(kind="peaks", amplitude=np.nan), "amplitude must be a finite real"),
    "PhantomSpec-amplitude-inf": (lambda tmp: PhantomSpec(kind="peaks", amplitude=-np.inf), "amplitude must be a finite real"),
    "PhantomSpec-amplitude-string": (lambda tmp: PhantomSpec(kind="peaks", amplitude="4"), "amplitude must be a finite real"),
    "PhantomSpec-amplitude-bool": (lambda tmp: PhantomSpec(kind="peaks", amplitude=True), "amplitude must be a finite real"),
    "ExperimentConfig-amplitude-nan": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "phantom": {"kind": "peaks", "amplitude": np.nan}}),
        "amplitude must be a finite real"),
    "PhantomSpec-positions-nan": (
        lambda tmp: PhantomSpec(kind="peaks", positions=((0.5, np.nan),)), "coordinate of positions must be a finite real"),
    "ExperimentConfig-positions-inf": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "phantom": {"kind": "peaks", "count": 2,
                                                              "positions": [[0.5, 0.5], [np.inf, 0.3]]}}),
        "coordinate of positions must be a finite real"),
    "PhantomSpec-positions-string": (
        lambda tmp: PhantomSpec(kind="peaks", positions=((0.5, "0.5"),)), "coordinate of positions must be a finite real"),
    # a flat list of coordinates once raised TypeError from the tuple conversion
    "PhantomSpec-positions-flat": (
        lambda tmp: PhantomSpec(kind="peaks", positions=[0.5, 0.5]), "positions must be a list of points"),
    "ExperimentConfig-positions-number": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "phantom": {"kind": "peaks", "positions": 0.5}}),
        "positions must be a list of points"),
    # real fields once raised a bare TypeError for a string ("'<=' not supported ...") and took a bool
    "ExperimentConfig-alpha-string": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "alpha": "1e-3"}), "alpha must be finite and nonnegative"),
    "RegParams-alpha0-bool": (lambda tmp: RegParams(alpha=1e-3, alpha0=True), "alpha0 must be finite"),
    "ExperimentConfig-noise_level-string": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "noise_level": "0.01"}), "noise_level must be finite"),
    "ExperimentConfig-noise_level-bool": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "noise_level": False}), "noise_level must be finite"),
    "ExperimentConfig-half_width-string": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "half_width": "1"}), "half_width must be finite and positive"),
    "Grid-half_width-bool": (lambda tmp: Grid(dim=2, n_per_axis=8, half_width=True), "half_width must be finite"),
    "ExperimentConfig-wavenumber-string": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "wavenumber": "6"}), "wavenumber must be finite and positive"),
    "ExperimentConfig-wavenumber-bool": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "wavenumber": True}), "wavenumber must be finite"),
    "AlmOptions-beta-string": (lambda tmp: AlmOptions(beta="0.3"), "beta must be finite and positive below 1"),
    "AlmOptions-beta-bool": (lambda tmp: AlmOptions(beta=True), "beta must be finite"),
    "AlmOptions-lam_tol-string": (lambda tmp: AlmOptions(lam_tol="1e-7"), "lam_tol must be finite and nonnegative"),
    "AlmOptions-gap_tol-bool": (lambda tmp: AlmOptions(gap_tol=False), "gap_tol must be finite and nonnegative"),
    "PdaOptions-sigma-string": (lambda tmp: PdaOptions(sigma="0.5"), "sigma must be finite and positive"),
    "PdaOptions-sigma-bool": (lambda tmp: PdaOptions(sigma=True), "sigma must be finite"),
    "ExperimentConfig-alm-beta-string": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "solver_options": {"beta": "0.3"}}), "beta must be finite"),
    # an output directory must be a path: a number once built, to fail only in phase assembly
    "ExperimentConfig-output_dir-number": (
        lambda tmp: ExperimentConfig(**{**CONFIG, "output_dir": 3}), "output_dir must be a path or None"),
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


def test_numpy_integers_are_accepted(tmp_path):
    # an integer field takes a numpy integer as it takes an int, and config.json records it as one
    i = np.int64
    assert Grid(dim=i(2), n_per_axis=np.int32(8)) == Grid(dim=2, n_per_axis=8)
    assert boundary_receivers(G2, np.uint16(12)).count == 12
    assert PdaOptions(iters=i(7), record_every=i(7)) == PdaOptions(iters=7, record_every=7)
    assert PhantomSpec(kind="peaks", count=i(2)) == PhantomSpec(kind="peaks", count=2)
    assert AlmOptions(max_outer=i(3)) == AlmOptions(max_outer=3)
    config = ExperimentConfig(**{**CONFIG, "fine_n": i(24), "receivers": i(16), "seed": np.uint32(3)})
    path = tmp_path / "config.json"
    write_json(path, config.to_dict())
    assert json.loads(path.read_text())["seed"] == 3
    assert ExperimentConfig.from_json(path) == config


def test_numpy_bools_and_floats_are_accepted(tmp_path):
    # a flag takes a numpy bool, a real value a numpy float, and config.json records their Python values
    phantom = {"kind": "peaks", "amplitude": np.float32(4.0), "dirac_scaling": np.True_,
               "positions": [[np.float64(0.5), np.float32(0.5)]]}
    config = ExperimentConfig(**{**CONFIG, "inhomogeneous": np.False_, "phantom": phantom})
    path = tmp_path / "config.json"
    write_json(path, config.to_dict())
    saved = json.loads(path.read_text())
    assert saved["inhomogeneous"] is False and saved["phantom"]["dirac_scaling"] is True
    assert saved["phantom"]["amplitude"] == 4.0 and saved["phantom"]["positions"] == [[0.5, 0.5]]
    assert ExperimentConfig.from_json(path) == config
