"""The README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import subdiff

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ,
               PYTHONPATH=str(Path(subdiff.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env,
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    gap, error, ratio = map(float, run.stdout.split())
    assert gap < 5e-3 and error < 1e-3 and 0.0 < ratio < 1.0
