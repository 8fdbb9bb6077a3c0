"""The README's examples hold: the library example runs as written, and
the config shape is one the CLI accepts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import subdiff
from subdiff.cli import main

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


def test_config_shape_matches_the_schema(tmp_path):
    # the documented shape, comments stripped, is a config that forward
    # takes without its inverse-only block and inverse without q
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Config shape\n", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    cfg = json.loads(re.sub(r"//[^\n]*", "", block))
    for command, drop in (("forward", "data"), ("inverse", "q")):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({k: v for k, v in cfg.items()
                                    if k != drop}))
        code = main([command, "--config", str(path),
                     "--out", str(tmp_path / command)])
        assert code != 2, command
