"""Tests of the benchmark's own logic; no workload is run at full size.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from stats import interquartile_mean, tail_percentile, tally  # noqa: E402
from tracer import Tracer, self_times, totals  # noqa: E402
from workloads import WORKLOADS, check, make_config  # noqa: E402


# ------------------------------------------------------- tail percentile ---

def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                               -100.0]) == 3.5
    assert interquartile_mean([1.0, 2.0, 9.0]) == 4.0
    assert interquartile_mean([]) is None


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([]) is None


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    random.Random(3).shuffle(values)
    value, pct, n = tail_percentile(values)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_percentile_at_eleven_samples_is_the_minimum():
    values = [5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    value, pct, n = tail_percentile(values)
    assert value == 1.0 and n == 11
    assert pct == pytest.approx(100.0 / 11)


# ------------------------------------------------------------- self time ---

def _span(name, start, end, parent, agg=0.0):
    return [name, start, end, parent, agg]


def test_self_time_subtracts_children_and_aggregated_calls():
    spans = [
        _span("cli.main", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0, agg=1.0),
        _span("b", 5.0, 9.0, 0),
        _span("c", 6.0, 7.0, 2, agg=0.25),
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 0.75]


def test_totals_do_not_count_nested_same_name_twice():
    spans = [
        _span("f", 0.0, 8.0, None),
        _span("f", 1.0, 3.0, 0),
        _span("g", 4.0, 6.0, 0),
        _span("g", 7.0, 7.5, 0),
    ]
    tot = totals(spans)
    assert tot["f"] == {"calls": 2, "s": 8.0, "self_s": 5.5}
    assert tot["g"] == {"calls": 2, "s": 2.5, "self_s": 2.5}


def test_tracer_records_parents_and_charges_aggregated_time():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))
    relaxation = tr.mlf_aggregate(lambda rho, lam, t: 1.0)
    inner = tr.span("inner", lambda: relaxation(0.5, 100.0, 1.0)
                    + relaxation(0.5, 100.0, 1.0) + relaxation(0.5, 1.0, 0.0))
    outer = tr.span("outer", lambda: inner())
    assert outer() == 3.0
    (o, _, o_end, o_parent, _), (i, i_start, i_end, i_parent, i_agg) = \
        tr.spans
    assert (o, o_parent, i, i_parent) == ("outer", None, "inner", 0)
    assert i_agg == 3.0  # one tick per timed call
    assert self_times(tr.spans) == [2.0, i_end - i_start - 3.0]
    assert tr.mlf["calls"] == [1, 2]  # x = 0 and x = 100, 100
    assert tr.mlf["repeats"] == 1


# ------------------------------------------------- failure accounting ---

def test_tally_counts_every_failed_operation():
    assert tally([[], ["exit code 1"], [], ["artifacts differ"]]) == \
        (4, 2, 0.5)
    assert tally([[], []]) == (2, 0, 0.0)


def _verify_artifact(out, passed=True, residual=1e-4, gap=1e-4, pad=""):
    out.mkdir(parents=True, exist_ok=True)
    (out / "verify.json").write_text(json.dumps(
        {"passed": passed, "residual": residual, "cross_gap": gap}) + pad)


def test_gate_fails_wrong_missing_and_differing_artifacts(tmp_path):
    w = WORKLOADS["verify-rho09"]
    r = run.Run(w, 1, tmp_path)
    outcomes = []
    for i, kwargs in enumerate([
            {},                        # correct: becomes the reference
            {},                        # identical bytes
            {"pad": " "},              # still correct, but different bytes
            {"passed": False},         # verify failed
            {"gap": 1e-2},             # cross gap above the CLI threshold
            None,                      # no artifact at all
    ]):
        out = tmp_path / f"op{i}"
        if kwargs is not None:
            _verify_artifact(out, **kwargs)
        op = {"problems": []}
        r._gate(op, out)
        outcomes.append(op["problems"])
    assert [bool(p) for p in outcomes] == [False, False, True, True, True,
                                           True]
    assert "differ" in outcomes[2][0]
    assert tally(outcomes) == (6, 4, 4 / 6)


def test_check_rejects_a_csv_of_the_wrong_shape(tmp_path):
    w = WORKLOADS["forward-large"]
    cfg = make_config(w, 1, ROOT / "configs")
    (tmp_path / "solution.csv").write_text("t,u0\n0,0\n")
    (tmp_path / "diagnostics.json").write_text('{"residual": 0.0}')
    info, problems = check(w, cfg, tmp_path)
    assert problems


def _inverse_artifacts(out, n, defect):
    ts = [i / n for i in range(n + 1)]
    (out / "recovered_q.csv").write_text(
        "t,q\n" + "".join(f"{t},{0.2 + 0.4 * t}\n" for t in ts))
    (out / "report.json").write_text(json.dumps(
        {"recovery_error": 1e-3, "flux_defect": defect, "iterations": 9,
         "measured_ratio": 0.5, "clamp_count": 0}))


def test_check_rejects_a_large_flux_defect(tmp_path):
    w = WORKLOADS["inverse-affine"]
    cfg = make_config(w, 1, ROOT / "configs")
    cfg["problem"]["n_steps"] = 8
    _inverse_artifacts(tmp_path, 8, 1e-4)
    assert check(w, cfg, tmp_path)[1] == []
    _inverse_artifacts(tmp_path, 8, 1e-2)
    assert "flux defect" in check(w, cfg, tmp_path)[1][0]


def test_workers_run_without_the_threads_variable(monkeypatch):
    assert run.THREADS_VAR not in run.WORKER_ENV
    monkeypatch.setenv(run.THREADS_VAR, "2")
    assert run.machine_facts(1)["caller_" + run.THREADS_VAR] == "2"


# ----------------------------------------------------- config generation ---

def test_configs_override_only_sizes_and_synthetic_data():
    for w in WORKLOADS.values():
        shipped = json.loads((ROOT / "configs" / w.base).read_text())
        cfg = make_config(w, 11, ROOT / "configs")
        assert set(cfg) == set(shipped)
        assert set(cfg["problem"]) == set(shipped["problem"])
        for key in set(cfg) - {"problem", "data"}:
            assert cfg[key] == shipped[key]
        assert make_config(w, 11, ROOT / "configs") == cfg


def test_seed_reaches_only_the_inverse_noise():
    for w in WORKLOADS.values():
        a = make_config(w, 1, ROOT / "configs")
        b = make_config(w, 2, ROOT / "configs")
        if "data" in a:
            assert a["data"]["synthetic"]["seed"] == 1
            b["data"]["synthetic"]["seed"] = 1
        assert a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_pass_cli_validation(name, tmp_path):
    """The CLI accepts each generated config, run here at a tiny size.

    Exit code 2 is the CLI's config error; ``verify`` may miss its accuracy
    thresholds (exit 1) on so coarse a grid, which is not under test here.
    """
    import subdiff.cli

    w = WORKLOADS[name]
    cfg = make_config(w, 1, ROOT / "configs")
    cfg["problem"].update(n_steps=16, n_cells=8, n_modes=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = subdiff.cli.main([w.command, "--config", str(path),
                               "--out", str(tmp_path / "out")])
    assert rc == 0 or (w.command == "verify" and rc == 1)
    assert all((tmp_path / "out" / a).is_file() for a in w.artifacts)
