"""The CI workflow parses, and the suite configs it writes still load."""

import json
import re
from pathlib import Path

import yaml

from sparsescat.harness import ExperimentConfig

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
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
    # the configs the console-script steps write; at least two, so a heredoc
    # that the pattern stopped matching cannot pass unchecked
    configs = suite_configs()
    assert len(configs) >= 2
    for config in configs:
        entries = json.loads(config)
        assert entries
        for entry in entries:
            ExperimentConfig.from_dict(entry)
