"""Every benchmark workload still meets the benchmark's own artifact gates.

``bench/workloads.py`` gates each benchmark operation: the accuracy bounds
at workload sizes and the ``report.json``/``verify.json`` fields the
benchmark reads.  A change that fails them fails every benchmark operation,
so each workload runs here once, at seed 1301, through the CLI entry point.
The module is executed from its source text, so nothing is written under
``bench/``.  On the same configs, and on the shipped ones, the modes the
forward solve marches are a fixed point of the paper's map to round-off;
on the shipped ones they stay so, and the recovery of q stays exact, when
the product-integration rule is swapped for another.  The recovery's
``measured_ratio`` is read at the recovered q itself.
"""

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from subdiff import mode_solver
from subdiff.cli import _build_spec, _profile, main
from subdiff.forward import mode_problem
from subdiff.inverse import _sweep, recover_q, synthesize_data
from subdiff.mode_solver import picard_step, solve_mode
from subdiff.spectral import eigenvalues

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


SHIPPED = ("forward_manufactured.json", "inverse_synthetic.json")


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS) + list(SHIPPED))
def test_march_rows_are_a_fixed_point_of_the_map(name):
    # the march solves the discrete system exactly, so one application of
    # the map moves its rows by round-off only (about 1e-15 relative)
    spec, q = _spec_and_q(_config(name), REPO / "configs")
    p = mode_problem(spec, q)
    u = solve_mode(p)
    assert np.any(u != 0.0)
    assert (np.max(np.abs(picard_step(p, u) - u))
            <= 1e-13 * np.max(np.abs(u)))


def _config(name):
    """A shipped config, or a workload's at seed 1301."""
    configs = REPO / "configs"
    if name in SHIPPED:
        return json.loads((configs / name).read_text(encoding="utf-8"))
    return workloads.make_config(workloads.WORKLOADS[name], 1301, configs)


def _spec_and_q(cfg, configs):
    spec = _build_spec(cfg, configs)
    q_cfg = cfg["q"] if "q" in cfg else cfg["data"]["synthetic"]["q_true"]
    return spec, _profile(q_cfg, spec.tgrid, "q", configs)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", SHIPPED)
def test_every_consumer_follows_a_swapped_rule(monkeypatch, name):
    # the weights decide the rule; the forward march, ``convolve`` (through
    # ``picard_step``) and the recovery march all read it from them, so
    # under another rule the march is still the map's fixed point and the
    # recovery still the exact inverse of the synthesis.  The factors
    # depend on the index alone: the solve rebuilds weights for its live rows
    real = mode_solver.build_weights

    def swapped(grid, rho, lam_eff):
        w = real(grid, rho, lam_eff)
        n = np.arange(grid.n_steps + 1)
        return replace(w, head=w.head * (1.0 + 0.1 * np.cos(n)),
                       fold=w.fold * (1.0 + 0.1 * np.sin(n[1:])))

    monkeypatch.setattr(mode_solver, "build_weights", swapped)
    configs = REPO / "configs"
    spec, q = _spec_and_q(
        json.loads((configs / name).read_text(encoding="utf-8")), configs)
    p = mode_problem(spec, q)
    u = solve_mode(p)
    assert not np.array_equal(p.weights.fold, real(
        p.grid, p.rho, p.lam_eff).fold)
    assert (np.max(np.abs(picard_step(p, u) - u))
            <= 1e-13 * np.max(np.abs(u)))
    assert recover_q(synthesize_data(spec, q)).iterates[0] <= 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["inverse_synthetic.json", "inverse-affine"])
def test_measured_ratio_is_read_at_the_recovered_q(name):
    # the largest |G_n'(q_n)| = |sum_k gamma_k (sigma_n/psi_n) c_k u_{k,n} /
    # (D_{k,n} + c_k q_n)| over t_1..t_N strictly inside the window, with
    # the rows u_k of the check solve and D_{k,n} + c_k q_n = 1 - c_k b_{k,n}
    # its divisors.  Read at q_{n-1}, the last iterate a one-step node
    # solve evaluates, it would miss by 1.3e-7 on inverse-affine, whose
    # noisy data move q by about 1e-4 per node
    cfg = _config(name)
    spec, q_true = _spec_and_q(cfg, REPO / "configs")
    syn = cfg["data"]["synthetic"]
    inv = synthesize_data(spec, q_true, syn["noise_level"], syn["seed"])
    res = recover_q(inv)
    u = _sweep(inv, res.q)[1]
    p = mode_problem(spec, res.q)
    c = p.weights.fold[:, :1]
    gamma = -np.sqrt(2.0 / spec.length) * eigenvalues(spec.K, spec.length) ** 3
    weight = gamma[:, None] * spec.sigma.values / inv.psi.values
    ratio = np.abs(np.sum(weight * c * u / (1.0 - c * p.bracket), axis=0))
    lo, hi = spec.q_window
    q = res.q.values
    inside = (lo < q) & (q < hi)
    inside[0] = False
    assert res.measured_ratio == pytest.approx(ratio[inside].max(), rel=1e-12)
