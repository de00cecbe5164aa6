"""Every demo, and the README's quick start, runs to completion: they use
the public API, so a change that breaks them breaks the API they show."""

import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    result = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
