"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import math
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from tracer import Tracer

harness = run.import_sparsescat()
from sparsescat import forward  # noqa: E402  (importable once src/ is on the path)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = dict(dim=2, wavenumber=6.0, fine_n=24, coarse_n=16, half_width=3.0, receivers=8, alpha=9e-4,
            alpha0=1e-7, noise_level=0.01, seed=5, solver="alm",
            phantom={"kind": "peaks", "count": 1, "amplitude": 4.0, "dirac_scaling": True,
                     "positions": [[0.5, 0.5]]})


def tiny(tmp_path, **overrides):
    return harness.ExperimentConfig.from_dict({**TINY, "output_dir": str(tmp_path), **overrides})


def traced_run(config):
    with Tracer() as tracer:
        layers.install(tracer)
        harness.run_experiment(config)
    return tracer, layers.traced_metrics(tracer)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*e2e, *per_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name), name
    for workload in run.WORKLOADS.values():
        assert set(workload.expect) <= set(layers.PER_LAYER)
    assert set(layers.COUNTS) <= set(layers.PER_LAYER)


def test_kernel_points_homogeneous(tmp_path):
    _, metrics = traced_run(tiny(tmp_path))
    m, n_fine, n_coarse = 8, 24**2, 16**2
    # no FFT kernel is built for a homogeneous medium
    assert metrics["forward.kernel_points"] == m * n_fine + m * n_coarse
    assert metrics["forward.gmres_solves"] == 0
    assert metrics["forward.cache_misses"] == 1
    assert metrics["alm.newton_steps"] > 0


def test_kernel_points_bump_counts_fft_kernels(tmp_path):
    forward._fft_kernel.cache_clear()
    _, metrics = traced_run(tiny(tmp_path, inhomogeneous=True))
    m, n_fine, n_coarse = 8, 24**2, 16**2
    # each doubled-cell kernel evaluates every offset but the origin, once per grid (LRU cache)
    fft_points = (2 * 24) ** 2 - 1 + (2 * 16) ** 2 - 1
    assert metrics["forward.kernel_points"] == m * n_fine + m * n_coarse + fft_points
    # one Lippmann-Schwinger solve on the fine grid plus one reciprocity solve per receiver
    assert metrics["forward.gmres_solves"] == 1 + m
    assert metrics["forward.fft_per_solve"] > 1


def test_warm_cache_hits(tmp_path):
    config = tiny(tmp_path)
    run.prime_cache(config)
    _, metrics = traced_run(config)
    assert metrics["forward.cache_hits"] == 1
    assert metrics["forward.cache_misses"] == 0


def test_wrappers_removed_after_traced_run(tmp_path):
    originals = {(mod, attr): getattr(sys.modules[f"sparsescat.{mod}"], attr) for mod, attr, _, _ in layers.WRAPS}
    with Tracer() as tracer:
        layers.install(tracer)
        assert not layers.originals_restored()
        with pytest.raises(ZeroDivisionError):
            with Tracer() as inner:
                inner.wrap(sys.modules["sparsescat.harness"], "n_error", "x")
                1 / 0
        harness.run_experiment(tiny(tmp_path))
    assert layers.originals_restored()
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[f"sparsescat.{mod}"], attr) is original


def test_missing_attribute_fails_loudly():
    module = types.ModuleType("fake")
    module.present = lambda: 1
    tracer = Tracer()
    tracer.wrap(module, "present", "fake.present")
    with pytest.raises(LookupError, match="fake.gone"):
        tracer.wrap(module, "gone", "fake.gone")
    tracer.restore()
    assert not hasattr(module.present, "span_name")


def test_expected_layer_with_zero_calls_fails(tmp_path):
    config = tiny(tmp_path)
    workload = run.Workload(8, False, (run.ALM,), {"alm": 1.0}, False, ("forward.gmres_solves",))
    with pytest.raises(RuntimeError, match="forward.gmres_solves"):
        run.traced_repetition(harness, workload, [config], tmp_path)
    assert layers.originals_restored()


def test_self_time_subtracts_children():
    module = types.ModuleType("fake")
    module.leaf = lambda: sum(range(20000))
    module.outer = lambda: [module.leaf() for _ in range(3)]
    with Tracer() as tracer:
        tracer.wrap(module, "leaf", "leaf")
        tracer.wrap(module, "outer", "outer")
        module.outer()
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 3 and summary["outer"]["calls"] == 1
    assert summary["leaf"]["self_s"] == pytest.approx(summary["leaf"]["total_s"])
    assert summary["outer"]["self_s"] == pytest.approx(summary["outer"]["total_s"] - summary["leaf"]["total_s"])
    assert tracer.count_children("leaf", "outer") == 3


def test_seed_changes_only_the_noise(tmp_path):
    workload = run.WORKLOADS["m64-solvers-warm"]
    a = [c.to_dict() for c in run.make_configs(harness, workload, 1, tmp_path)]
    b = [c.to_dict() for c in run.make_configs(harness, workload, 2, tmp_path)]
    for ca, cb in zip(a, b):
        assert {k for k in ca if ca[k] != cb[k]} == {"seed"}
    ra = harness.run_experiment(tiny(tmp_path / "a", seed=1))
    rb = harness.run_experiment(tiny(tmp_path / "b", seed=2))
    assert (ra.mu_exact == rb.mu_exact).all()
    assert ra.n_error != rb.n_error
    assert run.parse_args(["--workload", "all", "--seed", "7"]).noise_seed == 123


def test_thread_count_applies_before_numpy_loads():
    code = ("import os, sys; sys.path.insert(0, 'perfbench'); import run; "
            "assert 'numpy' not in sys.modules; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
            "print(run.environment()['blas_threads'])")
    out = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def test_span_cost_is_small_and_positive():
    from tracer import span_cost

    assert 0 < span_cost(5000) < 1e-4


def test_repetitions_are_checked(tmp_path):
    config = tiny(tmp_path)
    workload = run.Workload(8, False, (run.ALM,), {"alm": 1.0}, False, ())
    reps = run.measure(harness, workload, [config], tmp_path, seconds=0.0)
    reps.append(run.repetition(harness, workload, [config], tmp_path))
    run.check_determinism(reps)
    metrics = run.end_to_end(reps, [0.5], attempted=2, failed=run.failed_runs(reps))
    assert set(metrics) == set(run.END_TO_END) and all(metrics.values())
    assert metrics["pass_rate"] == 1.0

    reps[1]["n_error"]["alm"] = math.nextafter(reps[1]["n_error"]["alm"], 1.0)  # one ulp off
    strict = run.Workload(8, False, (run.ALM,), {"alm": 1e-6}, False, ())
    reps.append(run.repetition(harness, strict, [config], tmp_path))
    run.check_determinism(reps)
    assert run.failed_runs(reps) == 2  # the perturbed N-Error and the missed gate
