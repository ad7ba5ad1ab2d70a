import json

import numpy as np
import pytest
from conftest import random_instance

from sparsescat import alm, harness, pda, ssn
from sparsescat.export import read_csv_matrix, read_jsonl, write_csv_matrix, write_pgm
from sparsescat.grid import Grid
from sparsescat.harness import (
    SOLVER_OPTIONS,
    ExperimentConfig,
    ExperimentError,
    add_noise,
    n_error,
    read_suite_csv,
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
    data["solver_options"] = {"record_every": 0}
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        ExperimentConfig.from_dict(data)


def test_config_inverse_crime_guard():
    with pytest.raises(ValueError, match="inverse-crime"):
        small_config(fine_n=64, coarse_n=64)


def test_config_json_roundtrip(tmp_path):
    cfg = small_config()
    path = tmp_path / "config.json"
    with open(path, "w") as f:
        json.dump(cfg.to_dict(), f)
    loaded = ExperimentConfig.from_json(path)
    assert loaded == cfg


def test_run_experiment_near_noiseless_sanity(tmp_path):
    config = small_config(output_dir=str(tmp_path / "run"))
    result = run_experiment(config)
    assert result.n_error <= 0.05
    assert result.converged
    assert (tmp_path / "run" / "mu_rec.csv").exists()
    assert (tmp_path / "run" / "mu_rec.pgm").exists()
    assert (tmp_path / "run" / "diagnostics.jsonl").exists()
    recs = read_jsonl(tmp_path / "run" / "diagnostics.jsonl")
    assert recs and all("kind" in r for r in recs)


def test_run_experiment_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    r1 = run_experiment(small_config(noise_level=0.01, output_dir=str(out1)))
    r2 = run_experiment(small_config(noise_level=0.01, output_dir=str(out2)))
    assert (out1 / "mu_rec.csv").read_bytes() == (out2 / "mu_rec.csv").read_bytes()
    assert r1.n_error == r2.n_error


def test_run_experiment_uses_cache(tmp_path):
    out = tmp_path / "run"
    r1 = run_experiment(small_config(output_dir=str(out)))
    assert (out / "vb.cache").exists()
    r2 = run_experiment(small_config(output_dir=str(out)))
    assert r2.wall_times["assembly"] < max(0.5 * r1.wall_times["assembly"], 0.05)
    assert np.array_equal(r1.mu_rec, r2.mu_rec)


def test_run_experiment_mu_from_lambda(tmp_path):
    # at the ALM solution the source is minus the multiplier: ||mu + lambda|| <= 1e-3 ||mu||
    result = run_experiment(small_config())
    last_outer = [r for r in result.records if r["kind"] == "outer"][-1]
    assert last_outer["mu_plus_lambda"] <= 1e-3 * np.linalg.norm(result.mu_rec)


def test_run_experiment_phase_errors_tagged():
    bad = small_config(phantom=PhantomSpec(kind="peaks", count=1, positions=((0.001, 0.5),)))
    with pytest.raises(ExperimentError) as err:
        run_experiment(bad)
    assert err.value.phase == "simulate"


# every stop reason of each solver, and whether it is a convergence exit
STOP_REASONS = {
    "alm": {"multiplier_change": True, "duality_gap": True, "max_outer": False},
    "ssn": {"path_end": True, "cycling": False},
    "pda": {"duality_gap": True, "max_iters": False},
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
    for key in ("iterations", "converged", "stop_reason"):
        assert saved[key] == getattr(experiment, key) == getattr(solved, key)
    assert np.array_equal(experiment.mu_rec, solved.mu)


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
    assert results[0].converged and not results[1].converged  # PDA ran a fixed iteration count
    assert rows[0]["Medium"] == "homo"
    assert read_suite_csv(path) == rows
    assert all(float(r["N-Error"]) < 1.0 for r in rows)


def test_suite_records_failures(tmp_path):
    bad = small_config(phantom=PhantomSpec(kind="peaks", count=1, positions=((0.001, 0.5),)))
    rows, results = run_suite([bad, small_config()], csv_path=tmp_path / "results.csv")
    assert rows[0]["N-Error"].startswith("FAILED")
    assert results[0] is None
    assert float(rows[1]["N-Error"]) <= 0.05


def test_suite_parallel_matches_sequential(tmp_path):
    configs = [small_config(), small_config(noise_level=0.005)]
    rows_seq, _ = run_suite(configs)
    rows_par, _ = run_suite(configs, workers=2)
    # identical ordering and identical deterministic error columns
    for a, b in zip(rows_seq, rows_par):
        assert a["Method"] == b["Method"] and a["N-Error"] == b["N-Error"]


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
        phantom=PhantomSpec(kind="balls3d", amplitude=2.0, dirac_scaling=True, radius_frac=0.12),
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
    matrix = read_csv_matrix(out / "mu_rec.csv")
    assert matrix.shape == (144, 12)


def test_csv_matrix_roundtrip(tmp_path, rng):
    m = rng.standard_normal((7, 5))
    path = tmp_path / "m.csv"
    write_csv_matrix(path, m)
    assert np.array_equal(read_csv_matrix(path), m)


def test_pgm_writer(tmp_path, rng):
    img = rng.standard_normal((8, 6))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n6 8\n255\n")
    assert len(raw) == len(b"P5\n6 8\n255\n") + 48
