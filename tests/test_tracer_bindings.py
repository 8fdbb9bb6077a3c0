"""The benchmark tracer's bindings still name callables in the package, and
a traced benchmark operation still records the solver layers.

``bench/tracer.py`` wraps package functions at the names their callers bind;
a refactor that renames or removes one of them breaks ``bench/run.py
--trace 1`` without failing anything else.  The module is executed from its
source text, so nothing is written under ``bench/``, and ``install()`` is
never called in this process, so the package stays unwrapped for the rest of
the session; the traced operation runs in a subprocess.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONFIG = CONFIGS / "forward_manufactured.json"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def bindings(tracer):
    return ([(module, attr) for module, attr, _ in tracer.SPAN_BINDINGS]
            + [tracer.WEIGHTS_BINDING[:2], tracer.MLF_BINDING])


def test_every_binding_resolves_to_a_callable(tracer):
    for module, attr in bindings(tracer):
        owner, last = tracer._owner(module, attr)
        assert callable(getattr(owner, last, None)), f"{module}.{attr}"


def traced_run(tmp_path, command, cfg) -> dict:
    """The worker's record of one traced CLI call on ``cfg``."""
    config, result = tmp_path / "config.json", tmp_path / "result.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--result", str(result),
         "--trace", "--", command, "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["returncode"] == 0
    return record


def test_traced_worker_records_weight_builds_and_mode_solves(tmp_path):
    # the weight-build span keys each call by its arguments, so this also
    # checks that they stay hashable; the modes are marched, so the paper's
    # map is never applied
    cfg = json.loads(CONFIG.read_text(encoding="utf-8"))
    cfg["problem"].update(n_steps=32, n_cells=16, n_modes=4)
    record = traced_run(tmp_path, "forward", cfg)
    names = [span[0] for span in record["trace"]["spans"]]
    assert names.count("frackernel.build_weights") >= 1
    assert names.count("mode_solver.solve_mode") == 1
    assert names.count("mode_solver.picard_step") == 0
    assert record["trace"]["weights"]["calls"] >= 1


def test_traced_inverse_sweeps_and_sine_transforms(tmp_path):
    # synthesis solves its modes through the sweep binding, and the march
    # solves none, so the other sweep span is the check solve at the
    # result, which the report counts as its one iteration; the CLI hands
    # the data over as mode coefficients, so no sine transform is made
    cfg = json.loads((CONFIGS / "inverse_synthetic.json").read_text(
        encoding="utf-8"))
    cfg["problem"].update(n_steps=32, n_cells=16, n_modes=4)
    record = traced_run(tmp_path, "inverse", cfg)
    report = json.loads((tmp_path / "out" / "report.json").read_text(
        encoding="utf-8"))
    names = [span[0] for span in record["trace"]["spans"]]
    assert report["iterations"] == 1
    assert names.count("inverse.sweep") == 1 + report["iterations"]
    assert names.count("spectral.sine_coefficients") == 0
