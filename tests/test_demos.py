"""Smoke test: every demo script and every README python block runs to
completion."""

import pathlib
import re
import subprocess
import sys

import pytest

from conftest import child_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.DOTALL | re.MULTILINE)


def test_demos_found():
    assert len(DEMOS) >= 5


def _run(args, cwd):
    # the demos run from a scratch directory, where a relative PYTHONPATH
    # would not find the package
    return subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    # every block ends by printing what it made
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "the block printed nothing"
