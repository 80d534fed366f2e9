"""Every ``python`` block of README.md runs as written, and every ``json``
block is a survey config that runs to verdicts."""

import inspect
import json
import re
from pathlib import Path

import pytest

from nlsp.superfamily import SLICES
from nlsp.survey import config_from_dict, run_survey

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
CONFIGS = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_a_config():
    assert CONFIGS


@pytest.mark.parametrize("text", CONFIGS, ids=[f"config{i}" for i in range(len(CONFIGS))])
def test_readme_config_runs(text, tmp_path):
    doc = json.loads(text)
    doc["output_dir"] = str(tmp_path)
    result = run_survey(config_from_dict(doc))
    assert not result.manifest_dict()["skipped"]
    for outcome in result.outcomes:
        assert set(outcome.verdicts) == set(result.config.solvers), outcome.key
    assert (tmp_path / "report.json").is_file()


@pytest.mark.parametrize("kind", SLICES)
def test_readme_lists_each_slice_kinds_flags(kind):
    names = inspect.signature(SLICES[kind]).parameters
    flags = ", ".join(f"`--{name.replace('_', '-')}`" for name in names)
    assert re.search(rf"^- `{kind}` \(.*\): {flags}[;.]$", README.read_text(), re.M)
