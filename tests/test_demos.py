"""Every demo runs to completion: the demos use the public API, so a change
that breaks them breaks the API they show."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
