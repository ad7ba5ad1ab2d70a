import hashlib
import json

import numpy as np
import pytest

from sparsescat import harness
from sparsescat.cli import main

ALIGNED = 46.5 / 96.0


def base_config(tmp_path, **overrides):
    cfg = {
        "solver": "alm",
        "alpha": 2e-4,
        "alpha0": 1e-9,
        "phantom": {"kind": "peaks", "count": 1, "amplitude": 4.0,
                    "dirac_scaling": True, "positions": [[ALIGNED, ALIGNED]]},
        "fine_n": 96,
        "coarse_n": 32,
        "half_width": 1.5,
        "receivers": 128,
        "noise_level": 0.01,
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_phantom(tmp_path, capsys):
    out = tmp_path / "phantom"
    rc = main([
        "phantom", "--spec", '{"kind": "peaks", "count": 4}',
        "--out", str(out), "--n", "64",
    ])
    assert rc == 0
    assert (tmp_path / "phantom.csv").exists()
    assert (tmp_path / "phantom.pgm").exists()
    matrix = np.loadtxt(tmp_path / "phantom.csv", delimiter=",", ndmin=2)
    assert matrix.shape == (64, 64)
    assert (matrix != 0).sum() == 4


@pytest.mark.parametrize("spec, message", [
    ('{"kind": "peaks", "bogus": 1}', "unknown phantom keys: ['bogus']"),
    ('{"count": 2}', "missing phantom keys: ['kind']"),
], ids=["unknown", "missing"])
def test_cli_phantom_names_bad_spec_keys(spec, message, tmp_path, capsys):
    rc = main(["phantom", "--spec", spec, "--out", str(tmp_path / "phantom")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_phantom_3d(tmp_path, capsys):
    rc = main([
        "phantom", "--spec", '{"kind": "balls3d"}',
        "--out", str(tmp_path / "ball"), "--dim", "3", "--n", "8",
    ])
    assert rc == 0
    matrix = np.loadtxt(tmp_path / "ball.csv", delimiter=",", ndmin=2)
    assert matrix.shape == (64, 8) and (matrix != 0).any()
    slices = sorted(p.name for p in tmp_path.glob("ball_z*.pgm"))
    assert slices == [f"ball_z{iz:03d}.pgm" for iz in range(8)]
    assert not (tmp_path / "ball.pgm").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_reconstruct(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    rc = main(["reconstruct", "--config", path])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "n_error=" in captured
    assert (tmp_path / "out" / "mu_rec.csv").exists()
    assert (tmp_path / "out" / "vb.cache").exists()
    assert (tmp_path / "out" / "result.json").exists()


def test_cli_assemble(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    rc = main(["assemble", "--config", path])
    assert rc == 0
    assert (tmp_path / "out" / "vb.cache").exists()


def test_cli_assemble_keeps_a_valid_cache(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, base_config(tmp_path, fine_n=24, coarse_n=16, half_width=3.0, receivers=8))
    cache = tmp_path / "out" / "vb.cache"
    assert main(["assemble", "--config", path]) == 0
    first = (cache.stat().st_ino, cache.read_bytes())
    assert main(["assemble", "--config", path]) == 0
    assert (cache.stat().st_ino, cache.read_bytes()) == first

    def fail(*args, **kwargs):
        raise AssertionError("assembled although vb.cache is valid")

    # reconstruct into the same directory loads the cache that assemble wrote
    monkeypatch.setattr(harness, "assemble_vb", fail)
    assert main(["reconstruct", "--config", path]) == 0
    assert (cache.stat().st_ino, cache.read_bytes()) == first


def test_cli_reconstruct_reuses_the_cache_of_the_default_receiver_count(tmp_path, capsys, monkeypatch):
    # a config without "receivers": assemble and reconstruct both take the grid's default count
    cfg = base_config(tmp_path, fine_n=24, coarse_n=16, half_width=3.0)
    del cfg["receivers"], cfg["output_dir"]
    path = write_config(tmp_path, cfg)
    monkeypatch.chdir(tmp_path)
    assert main(["assemble", "--config", path]) == 0
    cache = tmp_path / "vb.cache"
    first = (cache.stat().st_ino, hashlib.sha256(cache.read_bytes()).digest())
    assert main(["reconstruct", "--config", path, "--output", "."]) == 0
    assert (cache.stat().st_ino, hashlib.sha256(cache.read_bytes()).digest()) == first


def test_cli_suite(tmp_path, capsys):
    cfgs = [
        base_config(tmp_path, output_dir=None),
        base_config(tmp_path, output_dir=None, noise_level=0.001),
    ]
    path = write_config(tmp_path, cfgs, name="suite.json")
    rc = main(["suite", "--config", path, "--output", str(tmp_path / "suite_out")])
    assert rc == 0
    results = tmp_path / "suite_out" / "results.csv"
    assert results.exists()
    lines = results.read_text().strip().splitlines()
    assert lines[0] == "Method,Source,Medium,Time(s),N-Error"
    assert len(lines) == 3


def test_cli_bad_config_reports_error(tmp_path, capsys):
    path = write_config(tmp_path, {"solver": "alm", "nonsense": True})
    rc = main(["reconstruct", "--config", path])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_suite_exits_nonzero_on_failed_row(tmp_path, capsys):
    # SSN needs alpha0 > 0, so this one-row suite fails in its solve phase
    cfg = base_config(tmp_path, solver="ssn", alpha0=0.0, output_dir=None,
                      fine_n=24, coarse_n=16, half_width=3.0, receivers=8)
    path = write_config(tmp_path, [cfg], name="suite.json")
    rc = main(["suite", "--config", path, "--output", str(tmp_path / "suite_out")])
    assert rc != 0
    assert "FAILED" in capsys.readouterr().out  # the table is printed before the exit
    assert "FAILED" in (tmp_path / "suite_out" / "results.csv").read_text()


def test_cli_suite_names_a_bad_option(tmp_path, capsys):
    # an out-of-range solver option fails when the suite's configs are built, before any row runs
    cfg = base_config(tmp_path, output_dir=None, solver_options={"max_outer": 0})
    path = write_config(tmp_path, [cfg], name="suite.json")
    rc = main(["suite", "--config", path, "--output", str(tmp_path / "suite_out")])
    assert rc == 1
    assert "max_outer must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "suite_out").exists()
