"""The CI workflow parses, the suite configs it writes still load, and the
functions that its traced benchmark step wraps still exist and return what
its per-layer metrics read."""

import importlib.util
import json
import re
from pathlib import Path

import pytest
import yaml

from sparsescat import harness
from sparsescat.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
LAYERS = ROOT / "perfbench" / "layers.py"
TRACER = ROOT / "perfbench" / "tracer.py"
HEREDOC = re.compile(r"<<'JSON'\n(.*?)\nJSON$", re.DOTALL | re.MULTILINE)


def steps():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


def suite_configs():
    return [match for step in steps() for match in HEREDOC.findall(step.get("run", ""))]


def test_every_step_runs_or_uses():
    assert steps()
    for step in steps():
        assert "run" in step or "uses" in step, step


def test_suite_configs_load():
    # the configs the console-script steps write: a suite (a list) or a single
    # config (an object); at least two, so a heredoc that the pattern stopped
    # matching cannot pass unchecked
    configs = suite_configs()
    assert len(configs) >= 2
    for config in configs:
        entries = json.loads(config)
        assert entries
        for entry in [entries] if isinstance(entries, dict) else entries:
            ExperimentConfig.from_dict(entry)


def load(path):
    """The benchmark module at `path`, loaded without putting perfbench/ on the import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_wraps_exist():
    # `perfbench/run.py --trace 1` wraps every (module, attribute) of layers.WRAPS and stops on a
    # missing one; this catches a rename in sparsescat without running the benchmark
    layers = load(LAYERS)
    assert len(layers.WRAPS) >= 20
    for module, attr, _, _ in layers.WRAPS:
        owner = importlib.import_module(f"sparsescat.{module}")
        assert callable(getattr(owner, attr, None)), f"sparsescat.{module}.{attr} is not a function"


# the tiny config of perfbench/test_perfbench.py: 8 receivers, a 16 x 16 coarse grid
TINY = dict(dim=2, wavenumber=6.0, fine_n=24, coarse_n=16, half_width=3.0, receivers=8, alpha=9e-4,
            alpha0=1e-7, noise_level=0.01, seed=5,
            phantom={"kind": "peaks", "count": 1, "amplitude": 4.0, "dirac_scaling": True,
                     "positions": [[0.5, 0.5]]})


@pytest.mark.parametrize("solver, options, overrides", [
    # at TINY's alpha0 = 1e-7 ALM's first penalty is 1e5 and no active set reaches 2M, so newton_matrix,
    # whose arguments layers._active_cols reads, would not run; at alpha0 = 1e-2 it does
    ("alm", {}, {"alpha0": 1e-2}), ("ssn", {}, {}), ("pda", {"iters": 300, "record_every": 100}, {}),
], ids=["alm", "ssn", "pda"])
def test_traced_benchmark_reads_what_the_package_returns(solver, options, overrides, tmp_path):
    # the notes of perfbench/layers.py read arguments and results of sparsescat (the operator's nbytes,
    # newton_matrix's positional arguments, BOperator's factor); one tiny traced run per solver checks
    # that they still compute
    layers, tracer = load(LAYERS), load(TRACER).Tracer()
    config = ExperimentConfig.from_dict({**TINY, **overrides, "solver": solver, "solver_options": options,
                                         "output_dir": str(tmp_path)})
    with tracer:
        layers.install(tracer)
        harness.run_experiment(config)
    assert layers.originals_restored()
    metrics = layers.traced_metrics(tracer)
    m2, n2 = 2 * 8, 2 * 16**2
    assert metrics["forward.operator_bytes"] == 4 * m2 * n2  # T's 16 M N bytes
    expected = {
        "alm": {"alm.outer_iters", "alm.newton_steps", "alm.active_cols_sum", "alm.lagrangian_evals"},
        "ssn": {"ssn.newton_solves", "ssn.active_max"},
        "pda": {"pda.iterations"},
    }[solver]
    assert all(metrics[name] > 0 for name in expected), {name: metrics[name] for name in expected}
    if solver == "ssn":
        assert metrics["ssn.b_bytes"] == 8 * (n2 * n2 + m2 * m2)
    if solver == "pda":
        assert metrics["pda.iterations"] == 300
