"""Benchmark workloads: one ``subdiff`` CLI command each, on a shipped config.

Each workload's config is the shipped ``configs/*.json`` with problem-size
(and, for the inverse, data) overrides; nothing is added, so the CLI's strict
unknown-key validation sees the same schema it ships with.  The seed enters
only through the inverse workload's flux noise.

Why these three (sizes are a quarter to a half of the ROADMAP large case, so
that one operation takes a few seconds and a run holds several of them; the
layer mix each was chosen for is kept):

* ``forward-large`` -- ``forward`` at rho 0.5.  The cold product-integration
  weight build dominates: one scalar ``relaxation`` call per (mode, node),
  almost all with x = lam t^rho > 5 (asymptotic band).  Picard work is small.
  It also writes the largest CSV.  Shows Mittag-Leffler and weight-build
  gains and output-writing gains.
* ``inverse-affine`` -- ``inverse`` with an affine q_true = 0.2 + 0.4 t and
  1e-6 flux noise.  About a hundred outer sweeps reuse cached weights, so
  Picard sweeps, ``convolve`` and the outer iteration carry most of the time;
  the Mittag-Leffler layer is paid once, in synthesis.  It reads the weight
  layer as cache hits where ``forward-large`` builds.  Its time-varying q
  exposes the known error at t = 0 instead of hiding it.
* ``verify-rho09`` -- ``verify`` at rho 0.9 with few modes.  Few
  Mittag-Leffler calls, but many fall into the slow branch-cut fallback; the
  FD oracle's O(N^2 M) L1 history and ``residual_check`` also run.  It is the
  bypass side for an asymptotic-only Mittag-Leffler speed-up and the
  mechanism side for FD-history or residual gains.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: the CLI's own verify thresholds (defaults of the ``verify`` block)
MAX_RESIDUAL = 1e-2
MAX_CROSS_GAP = 5e-3
#: forward-large gate on the error against the manufactured exact solution
MAX_MANUFACTURED_ERR = 5e-3
#: inverse-affine gate on the q error away from t = 0 (the t = 0 node carries
#: a known extrapolation error that ``solution_err`` reports instead)
INTERIOR_T = 0.05
MAX_Q_ERR_INTERIOR = 1e-2
#: inverse-affine gate on the flux defect at the recovered q (about 1.1e-4 on
#: the shipped code at 1e-6 noise; a recovery that drifts from the data fails)
MAX_FLUX_DEFECT = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base: str
    problem: dict
    why: str
    synthetic: dict = field(default_factory=dict)
    artifacts: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="forward-large", command="forward",
        base="forward_manufactured.json",
        problem={"n_steps": 2048, "n_cells": 128, "n_modes": 32, "rho": 0.5},
        why="cold Mittag-Leffler weight build in the asymptotic band "
            "dominates, plus a large CSV write; little Picard work",
        artifacts=("solution.csv", "diagnostics.json")),
    Workload(
        name="inverse-affine", command="inverse",
        base="inverse_synthetic.json",
        problem={"n_steps": 4096, "n_cells": 32, "n_modes": 4},
        synthetic={"q_true": {"kind": "affine", "intercept": 0.2,
                              "slope": 0.4},
                   "noise_level": 1e-6},
        why="about a hundred outer sweeps on cached weights: Picard and "
            "convolve dominate, Mittag-Leffler only in synthesis",
        artifacts=("recovered_q.csv", "report.json")),
    Workload(
        name="verify-rho09", command="verify",
        base="forward_manufactured.json",
        problem={"n_steps": 2048, "n_cells": 128, "n_modes": 4, "rho": 0.9},
        why="few Mittag-Leffler calls but many in the branch-cut fallback, "
            "plus the FD oracle's L1 history and the residual check",
        artifacts=("verify.json",)),
)}


def make_config(w: Workload, seed: int, configs: Path) -> dict:
    """The shipped config with the workload's overrides; ``seed`` only
    reaches the synthetic-data block."""
    cfg = json.loads((configs / w.base).read_text())
    cfg["problem"].update(w.problem)
    if "data" in cfg:
        cfg["data"]["synthetic"].update(copy.deepcopy(w.synthetic))
        cfg["data"]["synthetic"]["seed"] = seed
    return cfg


def cli_args(w: Workload, config: Path, out: Path) -> list:
    return [w.command, "--config", str(config), "--out", str(out)]


def check(w: Workload, cfg: dict, out: Path) -> tuple:
    """Gate one operation's artifacts.

    Returns ``(accuracy, problems)``: ``accuracy`` holds ``residual`` and
    ``solution_err`` (what each means differs per command, see ``_check_*``),
    ``problems`` the reasons the outputs are wrong; empty means correct.
    """
    missing = [a for a in w.artifacts if not (out / a).is_file()]
    if missing:
        return {}, [f"missing artifacts {missing}"]
    try:
        return _CHECKS[w.command](cfg, out)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return {}, [f"unreadable artifacts: {e!r}"]


def _read_csv(path: Path, header: list) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is not {header[:3]}...")
    if any(len(r) != len(header) for r in rows[1:]):
        raise ValueError(f"{path.name}: a row does not have {len(header)} "
                         f"columns")
    return np.array(rows[1:], dtype=float).reshape(-1, len(header))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _check_forward(cfg: dict, out: Path) -> tuple:
    """``residual``: the PDE residual of ``diagnostics.json``.
    ``solution_err``: max |u - u_exact| against the manufactured solution
    (1 + t^2) sqrt(2/l) sin(pi x / l) of the shipped forward config."""
    p = cfg["problem"]
    n, m, length = p["n_steps"], p["n_cells"], p["length"]
    problems = []
    data = _read_csv(out / "solution.csv",
                     ["t"] + [f"u{j}" for j in range(m + 1)])
    if data.shape != (n + 1, m + 2):
        problems.append(f"solution.csv has shape {data.shape}, "
                        f"need {(n + 1, m + 2)}")
        return {}, problems
    t = data[:, :1]
    x = np.linspace(0.0, length, m + 1)[None, :]
    exact = (1.0 + t ** 2) * math.sqrt(2.0 / length) * np.sin(
        math.pi * x / length)
    err = float(np.max(np.abs(data[:, 1:] - exact)))
    residual = json.loads((out / "diagnostics.json").read_text())["residual"]
    if not (_finite(residual) and residual <= MAX_RESIDUAL):
        problems.append(f"residual {residual} above {MAX_RESIDUAL}")
    if not err <= MAX_MANUFACTURED_ERR:
        problems.append(f"manufactured error {err} above "
                        f"{MAX_MANUFACTURED_ERR}")
    return {"residual": residual, "solution_err": err}, problems


def _check_verify(cfg: dict, out: Path) -> tuple:
    """``residual``: the spectral solution's PDE residual.
    ``solution_err``: the cross gap between the spectral and FD routes."""
    rep = json.loads((out / "verify.json").read_text())
    residual, gap = rep["residual"], rep["cross_gap"]
    problems = []
    if rep["passed"] is not True:
        problems.append("verify.json: passed is not true")
    if not (_finite(residual) and residual <= MAX_RESIDUAL):
        problems.append(f"residual {residual} above {MAX_RESIDUAL}")
    if not (_finite(gap) and gap <= MAX_CROSS_GAP):
        problems.append(f"cross gap {gap} above {MAX_CROSS_GAP}")
    return {"residual": residual, "solution_err": gap}, problems


def _check_inverse(cfg: dict, out: Path) -> tuple:
    """``residual``: the flux defect max |u_x(0, t) - psi(t)| at the
    recovered q.  ``solution_err``: max |q - q_true| (``recovery_error``)."""
    n = cfg["problem"]["n_steps"]
    q_true = cfg["data"]["synthetic"]["q_true"]
    problems = []
    data = _read_csv(out / "recovered_q.csv", ["t", "q"])
    if data.shape != (n + 1, 2):
        problems.append(f"recovered_q.csv has shape {data.shape}, "
                        f"need {(n + 1, 2)}")
        return {}, problems
    t, q = data[:, 0], data[:, 1]
    want = q_true["intercept"] + q_true["slope"] * t
    interior = float(np.max(np.abs(q - want)[t >= INTERIOR_T]))
    rep = json.loads((out / "report.json").read_text())
    err, defect = rep["recovery_error"], rep["flux_defect"]
    if not (_finite(err) and _finite(defect)):
        problems.append(f"recovery error {err} or flux defect {defect} is "
                        f"not finite")
    elif not defect <= MAX_FLUX_DEFECT:
        problems.append(f"flux defect {defect} above {MAX_FLUX_DEFECT}")
    if not interior <= MAX_Q_ERR_INTERIOR:
        problems.append(f"q error on t >= {INTERIOR_T} is {interior}, above "
                        f"{MAX_Q_ERR_INTERIOR}")
    return {"residual": defect, "solution_err": err,
            "q_err_interior": interior, "sweeps": rep["iterations"],
            "measured_ratio": rep["measured_ratio"],
            "clamp_count": rep["clamp_count"]}, problems


_CHECKS = {"forward": _check_forward, "verify": _check_verify,
           "inverse": _check_inverse}
