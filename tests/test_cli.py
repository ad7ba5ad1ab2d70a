import json

from sparsescat.cli import main
from sparsescat.export import read_csv_matrix

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
    matrix = read_csv_matrix(tmp_path / "phantom.csv")
    assert matrix.shape == (64, 64)
    assert (matrix != 0).sum() == 4


def test_cli_phantom_3d(tmp_path, capsys):
    rc = main([
        "phantom", "--spec", '{"kind": "balls3d", "radius_frac": 0.2}',
        "--out", str(tmp_path / "ball"), "--dim", "3", "--n", "8",
    ])
    assert rc == 0
    matrix = read_csv_matrix(tmp_path / "ball.csv")
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
