import csv
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.fft
from conftest import random_instance

from sparsescat import alm, forward, harness, pda, ssn
from sparsescat.export import write_csv_matrix, write_pgm
from sparsescat.grid import Grid
from sparsescat.harness import (
    SOLVER_OPTIONS,
    ExperimentConfig,
    ExperimentError,
    add_noise,
    n_error,
    restrict_to_coarse,
    run_experiment,
    run_suite,
)
from sparsescat.phantoms import PhantomSpec
from sparsescat.prox import SolveResult

# fine cell 46 center coincides with coarse cell 15 center for 96 vs 32
ALIGNED_96_32 = 46.5 / 96.0


def small_config(**overrides):
    base = dict(
        solver="alm",
        alpha=2e-4,
        alpha0=1e-9,
        phantom=PhantomSpec(kind="peaks", count=1, amplitude=4.0, dirac_scaling=True,
                            positions=((ALIGNED_96_32, ALIGNED_96_32),)),
        dim=2,
        wavenumber=6.0,
        fine_n=96,
        coarse_n=32,
        half_width=1.5,
        receivers=128,
        noise_level=0.0,
        seed=11,
        solver_options={"max_outer": 18},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_add_noise_zero_level(rng):
    u = rng.standard_normal(16)
    out = add_noise(u, 0.0, 3)
    assert np.array_equal(out, u)


def test_add_noise_deterministic(rng):
    u = rng.standard_normal(16)
    a = add_noise(u, 0.05, 42)
    b = add_noise(u, 0.05, 42)
    assert a.tobytes() == b.tobytes()
    c = add_noise(u, 0.05, 43)
    assert not np.array_equal(a, c)


def test_add_noise_statistics(rng):
    # E ||u_noisy - u||^2 == 2 M delta^2 ||u||^2
    u = rng.standard_normal(20)  # M = 10
    delta = 0.1
    m = 10
    draws = 3000
    acc = 0.0
    for seed in range(draws):
        d = add_noise(u, delta, seed) - u
        acc += float(d @ d)
    expected = 2 * m * delta**2 * float(u @ u)
    assert abs(acc / draws - expected) <= 0.10 * expected


def test_n_error_trivial_cases(rng):
    mu = rng.standard_normal(10)
    assert n_error(mu, mu) == 0.0
    assert n_error(np.zeros(10), mu) == 1.0
    with pytest.raises(ValueError):
        n_error(mu, np.zeros(10))


def test_restriction_preserves_mass(rng):
    fine = Grid(dim=2, n_per_axis=96)
    coarse = Grid(dim=2, n_per_axis=64)
    mu = rng.standard_normal(2 * fine.num_nodes)
    out = restrict_to_coarse(mu, fine, coarse)
    mass_fine = np.sum(mu[: fine.num_nodes]) * fine.cell_volume()
    mass_coarse = np.sum(out[: coarse.num_nodes]) * coarse.cell_volume()
    assert abs(mass_fine - mass_coarse) < 1e-10 * max(1.0, abs(mass_fine))


def test_restriction_aligned_peak_single_cell():
    fine = Grid(dim=2, n_per_axis=96, half_width=1.5)
    coarse = Grid(dim=2, n_per_axis=32, half_width=1.5)
    spec = PhantomSpec(kind="peaks", count=1, amplitude=1.0, dirac_scaling=True,
                       positions=((ALIGNED_96_32, ALIGNED_96_32),))
    from sparsescat.phantoms import make_phantom

    mu = make_phantom(spec, fine)
    out = restrict_to_coarse(mu, fine, coarse)
    assert np.count_nonzero(out) == 1
    # unit mass: the coarse density carries 1/h_c^2
    assert np.isclose(out.max(), 1.0 / coarse.cell_volume(), rtol=1e-12)


def test_config_rejects_unknown_keys():
    data = {
        "solver": "alm", "alpha": 1e-3, "alpha0": 1e-7,
        "phantom": {"kind": "peaks", "count": 1},
        "fine_n": 96, "coarse_n": 64, "bogus": 1,
    }
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(data)
    data.pop("bogus")
    data["phantom"]["weird"] = 2
    with pytest.raises(ValueError, match="unknown phantom keys"):
        ExperimentConfig.from_dict(data)
    data["phantom"].pop("weird")
    data["solver_options"] = {"definitely_not_an_option": 1}
    with pytest.raises(ValueError, match="unknown alm options"):
        ExperimentConfig.from_dict(data)
    data["solver"] = "pda"
    with pytest.raises(ValueError, match="unknown pda options"):
        ExperimentConfig.from_dict(data)
    # fields and options that were settable once are rejected like any unknown key
    for entry, match in (({**data, "label": None}, "unknown config keys"),
                         ({**data, "phantom": {**data["phantom"], "radius_frac": 0.15}}, "unknown phantom keys"),
                         ({**data, "phantom": {**data["phantom"], "length_frac": 0.4}}, "unknown phantom keys")):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_dict(entry)
    for solver, removed in (("alm", {"sigma0": 2}), ("alm", {"sigma_max": 1e8}), ("ssn", {"max_inner": 5}),
                            ("pda", {"theta": 1}), ("pda", {"gap_tol": 1e-9})):
        data["solver"], data["solver_options"] = solver, removed
        with pytest.raises(ValueError, match=f"unknown {solver} options"):
            ExperimentConfig.from_dict(data)
    data["solver_options"] = {"record_every": 0}
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        ExperimentConfig.from_dict(data)


def test_config_names_missing_keys():
    # a dict that lacks a required key fails as a ValueError naming it, at the top level and in the phantom
    data = {"solver": "alm", "alpha": 1e-3, "phantom": {"kind": "peaks", "count": 1}, "fine_n": 96, "coarse_n": 64}
    with pytest.raises(ValueError, match=r"missing config keys: \['alpha0'\]"):
        ExperimentConfig.from_dict(data)
    data["alpha0"] = 1e-7
    del data["phantom"]["kind"]
    with pytest.raises(ValueError, match=r"missing phantom keys: \['kind'\]"):
        ExperimentConfig.from_dict(data)


def test_config_inverse_crime_guard():
    with pytest.raises(ValueError, match="inverse-crime"):
        small_config(fine_n=64, coarse_n=64)


def test_config_is_checked_when_built():
    # a config built in Python is checked like one read from JSON, before any phase runs
    with pytest.raises(ValueError, match="unknown alm options"):
        small_config(solver_options={"bogus": 1})
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        small_config(solver="pda", solver_options={"record_every": 0})
    with pytest.raises(ValueError, match="unknown phantom keys"):
        small_config(phantom={"kind": "peaks", "count": 1, "weird": 2})
    with pytest.raises(ValueError, match="expected a PdaOptions or a dict"):
        small_config(solver="pda", solver_options=SOLVER_OPTIONS["alm"]())
    config = small_config(phantom={"kind": "peaks", "count": 1, "positions": [[0.5, 0.5]]})
    assert config.phantom == PhantomSpec(kind="peaks", count=1, positions=((0.5, 0.5),))
    assert config.solver_options == SOLVER_OPTIONS["alm"](max_outer=18)


@pytest.mark.parametrize("overrides", [
    {"receivers": 0}, {"receivers": -1}, {"alpha": -1.0}, {"alpha0": -1.0}, {"dim": 4}, {"coarse_n": 3},
    {"half_width": 0.0}, {"wavenumber": 0.0},
], ids=lambda o: "{}={}".format(*next(iter(o.items()))))
def test_config_values_are_checked_when_built(overrides):
    # the grids, the weights, the wavenumber and the receiver count fail before any phase runs
    with pytest.raises(ValueError):
        small_config(**overrides)


@pytest.mark.parametrize("solver, options", [
    ("alm", {"beta": 0.5, "max_outer": 7, "lam_tol": 1e-6, "gap_tol": 1e-9}),
    ("ssn", {"gammas": [1.0, 1e3, 1e6]}),
    ("pda", {"sigma": 0.25, "iters": 700, "record_every": 70}),
], ids=["alm", "ssn", "pda"])
def test_config_json_roundtrip(solver, options, tmp_path):
    cfg = small_config(solver=solver, solver_options=options)
    path = tmp_path / "config.json"
    with open(path, "w") as f:
        json.dump(cfg.to_dict(), f)
    loaded = ExperimentConfig.from_json(path)
    assert loaded == cfg
    assert loaded.solver_options == SOLVER_OPTIONS[solver](**options)


def test_run_experiment_near_noiseless_sanity(tmp_path):
    config = small_config(output_dir=str(tmp_path / "run"))
    result = run_experiment(config)
    assert result.n_error <= 0.05
    assert result.solved.converged
    assert (tmp_path / "run" / "mu_rec.csv").exists()
    assert (tmp_path / "run" / "mu_rec.pgm").exists()
    assert (tmp_path / "run" / "diagnostics.jsonl").exists()
    recs = [json.loads(line) for line in (tmp_path / "run" / "diagnostics.jsonl").read_text().splitlines()]
    assert recs and all("kind" in r for r in recs)


def test_run_experiment_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    r1 = run_experiment(small_config(noise_level=0.01, output_dir=str(out1)))
    r2 = run_experiment(small_config(noise_level=0.01, output_dir=str(out2)))
    assert r1.n_error == r2.n_error
    # what the README promises: these artifacts are byte-equal, and the JSON ones differ
    # only in the wall times (result.json) and the output directory (config.json)
    for name in ("diagnostics.jsonl", "mu_rec.csv", "mu_rec.pgm", "vb.cache"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    for name, differs in (("result.json", "wall_times"), ("config.json", "output_dir")):
        a, b = (json.loads((out / name).read_text()) for out in (out1, out2))
        assert a.pop(differs) != b.pop(differs) and a == b, name


def test_run_experiment_uses_cache(tmp_path):
    out = tmp_path / "run"
    r1 = run_experiment(small_config(output_dir=str(out)))
    assert (out / "vb.cache").exists()
    r2 = run_experiment(small_config(output_dir=str(out)))
    assert r2.wall_times["assembly"] < max(0.5 * r1.wall_times["assembly"], 0.05)
    assert np.array_equal(r1.solved.mu, r2.solved.mu)


def test_run_experiment_mu_from_lambda(tmp_path):
    # at the ALM solution the source is minus the multiplier: ||mu + lambda|| <= 1e-3 ||mu||
    result = run_experiment(small_config())
    last_outer = [r for r in result.solved.records if r["kind"] == "outer"][-1]
    assert last_outer["mu_plus_lambda"] <= 1e-3 * np.linalg.norm(result.solved.mu)


def test_run_experiment_phase_errors_tagged():
    bad = small_config(phantom=PhantomSpec(kind="peaks", count=1, positions=((0.001, 0.5),)))
    with pytest.raises(ExperimentError) as err:
        run_experiment(bad)
    assert err.value.phase == "simulate"


@pytest.mark.parametrize("phase, name", [
    ("assembly", "assemble_vb"), ("solve", "solve_alm"), ("metric", "n_error"), ("export", "_export"),
])
def test_run_experiment_tags_each_phase(phase, name, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError(f"{name} failed")

    monkeypatch.setattr(harness, name, fail)
    with pytest.raises(ExperimentError) as err:
        run_experiment(small_config(output_dir=str(tmp_path / "run"), **TINY))
    assert err.value.phase == phase
    assert isinstance(err.value.__cause__, RuntimeError)


# every stop reason of each solver, and whether it is a convergence exit
STOP_REASONS = {
    "alm": {"multiplier_change": True, "duality_gap": True, "max_outer": False},
    "ssn": {"path_end": True, "cycling": False},
    "pda": {"certified": True, "max_iters": False},
}
# the innermost step of each solver, which `iterations` counts
STEPS = {"alm": (alm, "newton_step"), "ssn": (ssn, "ssn_newton_solve"), "pda": (pda, "pda_primal_step")}
TINY = dict(fine_n=24, coarse_n=16, half_width=3.0, receivers=8, alpha=9e-4, alpha0=1e-7,
            noise_level=0.01, solver_options={})


def spy(monkeypatch, module, name):
    """Wrap module.name for the test; returns the list of the values its calls return."""
    returned = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, wrapper)
    return returned


@pytest.mark.parametrize("solver", ["alm", "ssn", "pda"])
def test_solver_contract(solver, tmp_path, monkeypatch):
    vb, u_b, reg = random_instance(41)
    steps = spy(monkeypatch, *STEPS[solver])
    solve = getattr(harness, f"solve_{solver}")
    result = solve(vb, u_b, reg, options=SOLVER_OPTIONS[solver]())
    assert isinstance(result, SolveResult)
    if solver != "alm":  # only ALM adds fields: its dual iterates
        assert type(result) is SolveResult
    assert result.converged == STOP_REASONS[solver][result.stop_reason]
    assert result.iterations == len(steps) > 0
    if solver != "pda":  # PDA records every record_every steps
        assert result.iterations == sum(r["kind"] == "inner" for r in result.records)

    # the harness reports the solver's own result
    results = spy(monkeypatch, harness, f"solve_{solver}")
    out = tmp_path / "run"
    experiment = run_experiment(small_config(solver=solver, output_dir=str(out), **TINY))
    saved = json.loads((out / "result.json").read_text())
    (solved,) = results
    assert experiment.solved is solved
    for key in ("iterations", "converged", "stop_reason"):
        assert saved[key] == getattr(solved, key)


def test_export_writes_config_and_versions(tmp_path):
    config = small_config(output_dir=str(tmp_path / "run"))
    result = run_experiment(config)
    assert result.output_paths["config"] == str(tmp_path / "run" / "config.json")
    # every artifact, vb.cache included, gets the one mode that open() gives a new file
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "run").iterdir()}
    (tmp_path / "plain").write_bytes(b"")
    assert set(modes.values()) == {stat.S_IMODE((tmp_path / "plain").stat().st_mode)}, modes
    assert ExperimentConfig.from_dict(json.loads((tmp_path / "run" / "config.json").read_text())) == config
    saved = json.loads((tmp_path / "run" / "result.json").read_text())
    blas = saved["versions"].pop("blas")
    fft = saved["versions"].pop("fft")
    assert saved["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__}
    with scipy.fft.set_workers(forward._FFT_WORKERS):  # the count scipy.fft itself resolves
        assert fft == {"library": "scipy.fft", "workers": scipy.fft.get_workers()}
    for module in (np, scipy):
        library = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert blas[module.__name__] == f"{library['name']} {library['version']}"


def test_package_imports_stay_lazy():
    # scipy.fft and scipy.special each add 80-90 ms to an import of the package (the benchmark's
    # setup_s), scipy.sparse.linalg about 30 ms: the forward model imports them inside the
    # functions that use them
    code = ("import sys, sparsescat.harness, sparsescat.cli; "
            "print(' '.join(m for m in ('scipy.fft', 'scipy.special', 'scipy.sparse.linalg') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_suite_empty(tmp_path):
    path = tmp_path / "results.csv"
    rows, results = run_suite([], csv_path=path)
    assert rows == [] and results == []
    assert path.read_text().strip() == "Method,Source,Medium,Time(s),N-Error"


def test_suite_rows_and_roundtrip(tmp_path):
    path = tmp_path / "results.csv"
    configs = [
        small_config(),
        small_config(solver="pda", alpha=2e-5, alpha0=1e-12,
                     solver_options={"sigma": 0.005, "iters": 3000, "record_every": 1000}),
    ]
    rows, results = run_suite(configs, csv_path=path)
    assert len(rows) == 2
    assert [r["Method"] for r in rows] == ["ALM", "PDA"]
    assert results[0].solved.converged and not results[1].solved.converged  # PDA at alpha0 = 1e-12 cannot certify
    assert rows[0]["Medium"] == "homo"
    with open(path, newline="") as f:
        assert list(csv.DictReader(f)) == rows
    assert all(float(r["N-Error"]) < 1.0 for r in rows)


def test_suite_records_failures(tmp_path):
    bad = small_config(phantom=PhantomSpec(kind="peaks", count=1, positions=((0.001, 0.5),)))
    rows, results = run_suite([bad, small_config()], csv_path=tmp_path / "results.csv")
    assert rows[0]["N-Error"].startswith("FAILED")
    assert results[0] is None
    assert float(rows[1]["N-Error"]) <= 0.05


def test_suite_table_keeps_a_non_ascii_failure(tmp_path):
    (tmp_path / "file").touch()
    bad = small_config(fine_n=24, coarse_n=16, receivers=16, output_dir=str(tmp_path / "file" / "résultat"))
    rows, _ = run_suite([bad], csv_path=tmp_path / "results.csv")
    assert rows[0]["N-Error"].startswith("FAILED") and "résultat" in rows[0]["N-Error"]
    with open(tmp_path / "results.csv", newline="", encoding="utf-8") as f:
        assert list(csv.DictReader(f)) == rows


# aligned fractions for the 96 vs 32 pair: fine index 3j+1 shares the center
# of coarse cell j
A_LO = 28.5 / 96.0  # coarse cell 9
A_HI = 67.5 / 96.0  # coarse cell 22


def test_suite_points_smoke():
    # ALM / SSN / PDA on one- and four-peak sources: all errors finite and
    # every solver's single-peak error modest
    single = ((ALIGNED_96_32, ALIGNED_96_32),)
    four = ((A_LO, A_LO), (A_LO, A_HI), (A_HI, A_LO), (A_HI, A_HI))
    configs = []
    for solver in ("alm", "ssn", "pda"):
        for positions in (single, four):
            kw = dict(
                solver=solver,
                alpha=9e-4,
                alpha0=1e-7,
                noise_level=0.01,
                phantom=PhantomSpec(kind="peaks", count=len(positions), amplitude=4.0,
                                    dirac_scaling=True, positions=positions),
            )
            if solver == "pda":
                kw.update(alpha=1e-4, alpha0=1e-12,
                          solver_options={"sigma": 0.005, "iters": 10000, "record_every": 2000})
            elif solver == "ssn":
                kw.update(solver_options={})
            configs.append(small_config(**kw))
    rows, results = run_suite(configs)
    errs = {(r["Method"], c.phantom.count): float(r["N-Error"]) for r, c in zip(rows, configs)}
    assert all(np.isfinite(v) for v in errs.values())
    for method in ("ALM", "SSN", "PDA"):
        assert errs[(method, 1)] <= 0.2


def test_run_experiment_3d(tmp_path):
    config = ExperimentConfig(
        solver="alm",
        alpha=1e-4,
        alpha0=1e-9,
        phantom=PhantomSpec(kind="balls3d", amplitude=2.0, dirac_scaling=True),
        dim=3,
        wavenumber=4.0,
        fine_n=24,
        coarse_n=12,
        half_width=1.5,
        receivers=60,
        noise_level=0.01,
        seed=3,
        output_dir=str(tmp_path / "out3d"),
    )
    result = run_experiment(config)
    assert np.isfinite(result.n_error)
    out = tmp_path / "out3d"
    assert (out / "mu_rec.csv").exists()
    slices = sorted(out.glob("mu_rec_z*.pgm"))
    assert len(slices) == 12
    # output_paths names every file the export wrote, each slice included
    assert sorted(result.output_paths.values()) == sorted(str(p) for p in out.iterdir() if p.name != "vb.cache")
    matrix = np.loadtxt(out / "mu_rec.csv", delimiter=",", ndmin=2)
    assert matrix.shape == (144, 12)


def test_csv_matrix_roundtrip(tmp_path, rng):
    m = rng.standard_normal((7, 5))
    path = tmp_path / "m.csv"
    write_csv_matrix(path, m)
    assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), m)


def test_pgm_writer(tmp_path, rng):
    img = rng.standard_normal((8, 6))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n6 8\n255\n")
    assert len(raw) == len(b"P5\n6 8\n255\n") + 48


def test_suite_runs_sequentially_only():
    with pytest.raises(ValueError, match="workers must be 1"):
        run_suite([small_config()], workers=2)
