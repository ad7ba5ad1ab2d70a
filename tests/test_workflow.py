"""The CI workflow parses, the suite configs it writes still load, and the
functions that its traced benchmark step wraps still exist."""

import importlib.util
import json
import re
from pathlib import Path

import yaml

from sparsescat.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
LAYERS = ROOT / "perfbench" / "layers.py"
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


def test_traced_benchmark_wraps_exist():
    # `perfbench/run.py --trace 1` wraps every (module, attribute) of layers.WRAPS and stops on a
    # missing one; this catches a rename in sparsescat without running the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert len(layers.WRAPS) >= 20
    for module, attr, _, _ in layers.WRAPS:
        owner = importlib.import_module(f"sparsescat.{module}")
        assert callable(getattr(owner, attr, None)), f"sparsescat.{module}.{attr} is not a function"
