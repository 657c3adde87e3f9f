"""Every demo script runs to completion against this checkout's grouplab."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
CACHE_VARS = ("GROUPLAB_CACHE", "GROUPLAB_CACHE_DIR")


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    # the caller's environment (PYTHONPATH among it), minus cache settings
    env = {k: v for k, v in os.environ.items() if k not in CACHE_VARS}
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
