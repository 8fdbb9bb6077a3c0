"""Every benchmark workload still meets the benchmark's own artifact gates.

``bench/workloads.py`` gates each benchmark operation: the accuracy bounds
at workload sizes and the ``report.json``/``verify.json`` fields the
benchmark reads.  A change that fails them fails every benchmark operation,
so each workload runs here once, at seed 1301, through the CLI entry point.
The module is executed from its source text, so nothing is written under
``bench/``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from subdiff.cli import main

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = REPO / "bench" / "workloads.py"


def _load_workloads():
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    # its dataclasses look their module up by name while they are built
    sys.modules[module.__name__] = module
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS),
                 "exec"), module.__dict__)
    return module


workloads = _load_workloads()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_gates(tmp_path, name):
    w = workloads.WORKLOADS[name]
    cfg = workloads.make_config(w, 1301, REPO / "configs")
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(workloads.cli_args(w, config, out)) == 0
    accuracy, problems = workloads.check(w, cfg, out)
    assert problems == [], accuracy
