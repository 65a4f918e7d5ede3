"""Smoke test: every demo script, and the README's quick start, runs to
completion in a clean directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_present():
    assert DEMOS, "no demo scripts found"


def _script(path: Path, tmp_path: Path) -> Path:
    """The demo itself, or the README's one python block written to tmp_path."""
    if path != README:
        return path
    (block,) = re.findall(r"^```python\n(.*?)^```", path.read_text(), re.S | re.M)
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    return script


@pytest.mark.parametrize("script", DEMOS + [README], ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(_script(script, tmp_path))], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
