"""Batch front door: one JSON run configuration in, CSV/JSON artifacts out.

Commands: ``forward`` (solve and dump the field plus diagnostics),
``inverse`` (recover the reaction coefficient from flux data), ``verify``
(run both solver routes against fixed thresholds), ``selftest`` (identity
suites of the special-function and quadrature layers).

A config holds the problem and its data only: ``problem``, ``sigma``,
``phi``, ``f``, plus ``q`` (``forward``, ``verify``) or ``data``
(``inverse``).  Solver budgets and verify thresholds are constants, so no
config key sets them, and unknown keys are refused.

Determinism is part of the contract: identical config and seed must yield
byte-identical artifacts, so outputs carry no timestamps, hostnames, or any
other run-local state.  Every CSV float is its C ``%.17g`` text (17
significant digits, enough to round-trip), and those bytes are the contract.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .csvfmt import write_rows
from .errors import (
    AdmissibilityError,
    AliasingError,
    ConfigError,
    ConvergenceError,
    DomainError,
    GridMismatchError,
    ResourceError,
    SingularSystemError,
)
from .forward import (ProblemSpec, default_mode_count, residual_check,
                      solve_forward)
from .frackernel import (MAX_WEIGHT_STEPS, TimeGrid, build_weights, caputo_l1,
                         convolve)
from .inverse import InverseSpec, recover_q, synthesize_data
from .mlf import _mp_branch_cut, mittag_leffler, relaxation, relaxation_curve
from .oracle import solve_fd
from .profiles import _KINDS, Profile, named_profile
from .spectral import SpaceGrid, basis

_SENTINEL = object()
#: ``verify`` passes when the spectral residual and the cross-route gap are
#: at most these
MAX_RESIDUAL = 1e-2
MAX_CROSS_GAP = 5e-3


# ---------------------------------------------------------------- config ---

def _load_config(path: Path) -> dict:
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: parse error at line {e.lineno} column {e.colno}: "
            f"{e.msg}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


def _check_keys(block, allowed, where, required=frozenset()):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(block))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _num(block, key, where, default=_SENTINEL, lo=None, hi=None,
         integer=False):
    if key not in block:
        if default is _SENTINEL:
            raise ConfigError(f"{where}: missing key '{key}'")
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{where}.{key}: expected a finite number, "
                          f"got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{where}.{key}: {v} is below the minimum {lo}")
    if hi is not None and v > hi:
        raise ConfigError(f"{where}.{key}: {v} exceeds the maximum {hi}")
    return int(v) if integer else float(v)


def _read_samples_csv(base: Path, name, tgrid: TimeGrid,
                      where: str) -> np.ndarray:
    """Two-column (t, value) CSV at ``name`` relative to ``base``, optional
    header, nodes matching the grid; a UTF-8 byte order mark is skipped."""
    if not isinstance(name, str):
        raise ConfigError(f"{where}: expected a file path, got {name!r}")
    path = base / name
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except UnicodeDecodeError as e:
        raise ConfigError(f"{where}: {path}: not UTF-8 text: {e}") from e
    if rows and not _is_float(rows[0][0]):
        rows = rows[1:]
    if len(rows) != tgrid.n_steps + 1:
        raise ConfigError(
            f"{where}: {path} has {len(rows)} sample rows, need "
            f"{tgrid.n_steps + 1}")
    short = next((r for r in rows if len(r) < 2), None)
    if short is not None:
        raise ConfigError(f"{where}: {path}: sample row {short!r} has fewer "
                          f"than two cells (t, value)")
    try:
        data = np.array([[float(c) for c in r[:2]] for r in rows])
    except ValueError as e:
        raise ConfigError(f"{where}: {path}: {e}") from e
    if not np.allclose(data[:, 0], tgrid.nodes,
                       atol=1e-9 * max(1.0, tgrid.t_final), rtol=0.0):
        raise ConfigError(f"{where}: {path}: time column does not match the "
                          f"configured grid")
    return data[:, 1]


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


_PROFILE_KEYS = frozenset({"kind", "path"}.union(
    *(required + optional for _, required, optional in _KINDS.values())))


def _profile(cfg, tgrid: TimeGrid, where: str, base: Path) -> Profile:
    _check_keys(cfg, _PROFILE_KEYS, where, required={"kind"})
    kind = cfg["kind"]
    if kind == "csv-samples":
        _check_keys(cfg, {"kind", "path"}, where, required={"path"})
        return Profile(tgrid, _read_samples_csv(base, cfg["path"], tgrid,
                                                where))
    params = {k: _num(cfg, k, where) for k in cfg if k != "kind"}
    try:
        return named_profile(tgrid, kind, **params)
    except DomainError as e:
        raise ConfigError(f"{where}: {e}") from e


def _terms(cfg, where, K, keys):
    """The block's terms as (where, term, mode) triples: each term an object
    with exactly ``keys``, its mode one of the K retained."""
    _check_keys(cfg, {"terms"}, where, required={"terms"})
    terms = cfg["terms"]
    if not isinstance(terms, list) or not terms:
        raise ConfigError(f"{where}.terms: expected a nonempty list")
    out = []
    for i, term in enumerate(terms):
        at = f"{where}.terms[{i}]"
        _check_keys(term, keys, at, required=keys)
        mode = _num(term, "mode", at, lo=1, integer=True)
        if mode > K:
            raise ConfigError(f"{at}: mode {mode} exceeds the {K} retained "
                              f"modes")
        out.append((at, term, mode))
    return out


def _build_spec(cfg, base: Path) -> ProblemSpec:
    prob = cfg["problem"]
    _check_keys(prob, {"length", "t_final", "rho", "n_steps", "n_cells",
                       "n_modes"}, "problem",
                required={"length", "t_final", "rho", "n_steps", "n_cells"})
    tgrid = TimeGrid(_num(prob, "t_final", "problem", lo=1e-300),
                     _num(prob, "n_steps", "problem", lo=1,
                          hi=MAX_WEIGHT_STEPS, integer=True))
    sgrid = SpaceGrid(_num(prob, "length", "problem", lo=1e-300),
                      _num(prob, "n_cells", "problem", lo=2, integer=True))
    rho = _num(prob, "rho", "problem")
    K = _num(prob, "n_modes", "problem",
             default=default_mode_count(sgrid.n_cells), lo=1, integer=True)

    sigma = _profile(cfg["sigma"], tgrid, "sigma", base)

    shapes = basis(sgrid, K)
    phi = np.zeros(sgrid.n_cells + 1)
    for at, term, k in _terms(cfg["phi"], "phi", K, {"mode", "amplitude"}):
        phi += _num(term, "amplitude", at) * shapes[k - 1]

    f = np.zeros((tgrid.n_steps + 1, sgrid.n_cells + 1))
    for at, term, k in _terms(cfg["f"], "f", K, {"mode", "time"}):
        prof = _profile(term["time"], tgrid, f"{at}.time", base)
        f += prof.values[:, None] * shapes[k - 1][None, :]

    return ProblemSpec(sgrid=sgrid, tgrid=tgrid, rho=rho, sigma=sigma, f=f,
                       phi=phi, K=K)


def _resolved_config(command, cfg, spec):
    """The config echoed into artifacts: every block verbatim, ``problem``
    with its defaults materialized."""
    return cfg | {
        "command": command,
        "problem": {"length": spec.length, "t_final": spec.t_final,
                    "rho": spec.rho, "n_steps": spec.tgrid.n_steps,
                    "n_cells": spec.sgrid.n_cells, "n_modes": spec.K},
    }


# --------------------------------------------------------------- outputs ---

def _jnum(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _write_csv(path: Path, header, table: np.ndarray) -> None:
    """Header line, then one line per table row, each float its C ``%.17g``
    text."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        write_rows(fh, table)


def _artifact(value):
    """JSON form of a result value.  A dataclass becomes its fields plus its
    ``all_passed`` verdict where it has one; floats go through ``_jnum``."""
    if is_dataclass(value):
        out = asdict(value)
        if hasattr(value, "all_passed"):
            out["all_passed"] = value.all_passed
        return _artifact(out)
    if isinstance(value, dict):
        return {k: _artifact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_artifact(v) for v in value]
    return _jnum(value) if isinstance(value, float) else value


def _write_json(path: Path, obj) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")


# -------------------------------------------------------------- commands ---

_FIELD_KEYS = frozenset({"problem", "sigma", "q", "phi", "f"})


def _solve_field(cfg, base: Path):
    """What ``forward`` and ``verify`` share: the problem and q read from the
    config, the spectral solve and its PDE residual."""
    _check_keys(cfg, _FIELD_KEYS, "config", required=_FIELD_KEYS)
    spec = _build_spec(cfg, base)
    q = _profile(cfg["q"], spec.tgrid, "q", base)
    sol = solve_forward(spec, q)
    return spec, q, sol, residual_check(sol, spec, q)


def _run_forward(cfg, out: Path, base: Path) -> int:
    spec, _, sol, residual = _solve_field(cfg, base)
    _write_csv(out / "solution.csv",
               ["t"] + [f"u{j}" for j in range(spec.sgrid.n_cells + 1)],
               np.column_stack([spec.tgrid.nodes, sol.u]))
    _write_json(out / "diagnostics.json", _artifact(sol.diagnostics) | {
        "residual": _jnum(residual),
        "resolved_config": _resolved_config("forward", cfg, spec),
    })
    print(f"forward: residual {residual:.6e}; "
          f"wrote {out / 'solution.csv'}, {out / 'diagnostics.json'}")
    return 0


def _run_inverse(cfg, out: Path, base: Path) -> int:
    keys = {"problem", "sigma", "phi", "f", "data"}
    _check_keys(cfg, keys, "config", required=keys)
    spec = _build_spec(cfg, base)

    data = cfg["data"]
    _check_keys(data, {"psi_csv", "synthetic"}, "data")
    if ("synthetic" in data) == ("psi_csv" in data):
        raise ConfigError("data: exactly one of 'synthetic' or 'psi_csv' "
                          "must be given")
    if "synthetic" in data:
        syn = data["synthetic"]
        _check_keys(syn, {"q_true", "noise_level", "seed"}, "data.synthetic",
                    required={"q_true"})
        q_true = _profile(syn["q_true"], spec.tgrid, "data.synthetic.q_true",
                          base)
        inv = synthesize_data(
            spec, q_true,
            noise_level=_num(syn, "noise_level", "data.synthetic",
                             default=0.0, lo=0.0),
            seed=_num(syn, "seed", "data.synthetic", default=0, lo=0,
                      integer=True))
    else:
        inv = InverseSpec(spec=spec, psi=Profile(
            spec.tgrid, _read_samples_csv(base, data["psi_csv"], spec.tgrid,
                                          "data.psi_csv")))

    res = recover_q(inv)

    _write_csv(out / "recovered_q.csv", ["t", "q"],
               np.column_stack([spec.tgrid.nodes, res.q.values]))
    report = {f.name: getattr(res, f.name) for f in fields(res)
              if f.name != "q"}  # q is recovered_q.csv
    _write_json(out / "report.json", _artifact(report) | {
        "iterations": len(res.iterates),
        "resolved_config": _resolved_config("inverse", cfg, spec),
    })
    err = ("" if res.recovery_error is None
           else f"; recovery error {res.recovery_error:.6e}")
    print(f"inverse: {len(res.iterates)} sweeps, ratio "
          f"{res.measured_ratio:.4f}, flux defect {res.flux_defect:.3e}{err}; "
          f"wrote {out / 'recovered_q.csv'}, {out / 'report.json'}")
    return 0


def _run_verify(cfg, out: Path, base: Path) -> int:
    max_res, max_gap = MAX_RESIDUAL, MAX_CROSS_GAP
    spec, q, sol, residual = _solve_field(cfg, base)
    # |fd - u| is |u - fd| exactly; taken in the FD field's own storage
    gap_field = solve_fd(spec, q).u
    gap_field -= sol.u
    gap = float(np.max(np.abs(gap_field, out=gap_field)))
    res_ok, gap_ok = residual <= max_res, gap <= max_gap

    _write_json(out / "verify.json", {
        "residual": residual, "max_residual": max_res, "residual_ok": res_ok,
        "cross_gap": gap, "max_cross_gap": max_gap, "cross_gap_ok": gap_ok,
        "passed": res_ok and gap_ok,
        "resolved_config": _resolved_config("verify", cfg, spec),
    })
    print(f"verify: residual {residual:.6e} (<= {max_res:g}: {res_ok}), "
          f"cross gap {gap:.6e} (<= {max_gap:g}: {gap_ok}); "
          f"wrote {out / 'verify.json'}")
    return 0 if res_ok and gap_ok else 1


def _selftest_mlf():
    import mpmath as mp

    checks = []
    # E_{1/2,1}(-x) = exp(x^2) erfc(x) is the relaxation
    # E_{1/2,1}(-lam t^{1/2}) at lam = 1, t = x^2
    x = np.linspace(0.0, 30.0, 301)
    with mp.workdps(40):
        want = np.array([float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v)))
                         for v in x])
    worst = float(np.max(np.abs(relaxation_curve(0.5, 1.0, x ** 2) - want)
                         / want))
    checks.append(("E_{1/2,1}(-x) = exp(x^2) erfc(x) on [0, 30] vs 40-digit "
                   "mpmath", worst <= 1e-12, f"max rel err {worst:.3e}"))

    rng = np.random.default_rng(20250815)
    bad = 0
    for _ in range(40):
        rho = rng.uniform(0.05, 0.95)
        z = rng.uniform(0.01, 50.0, 25) * rng.uniform(0.0, 3.0, 25) ** rho
        for beta in (1.0, rho):
            v = mittag_leffler(rho, beta, -z)
            ok = (-1e-15 <= v) & (v <= 1.0 / math.gamma(beta) + 1e-12)
            bad += int(np.count_nonzero(~ok))
    checks.append(("0 <= E <= 1/Gamma(beta) on 1000 tuples", bad == 0,
                   f"{bad} violations"))

    worst = 0.0
    for rho, lam, t in [(0.3, 0.5, 0.7), (0.5, 2.0, 1.0), (0.8, 10.0, 0.4)]:
        h = 1e-5 * t
        fd = (relaxation(rho, lam, t + h) - relaxation(rho, lam, t - h)) / (2 * h)
        kernel = (lam * t ** (rho - 1.0)
                  * float(mittag_leffler(rho, rho, -lam * t ** rho)))
        worst = max(worst, abs(kernel + fd) / abs(fd))
    checks.append(("kernel = -d/dt relaxation vs central differences",
                   worst <= 1e-6, f"max rel err {worst:.3e}"))

    # x = 10 t^0.9 crosses the band that only the branch cut covers, where
    # the order's table interpolates the cut rule's values
    t = np.linspace(0.0, 1.0, 129)
    got = relaxation_curve(0.9, 10.0, t)
    worst = float(max(abs(got[i] / _mp_branch_cut(0.9, 1.0, 10.0 * t[i] ** 0.9)
                          - 1.0) for i in (32, 64, 96, 128)))
    checks.append(("relaxation_curve vs extended-precision branch cut "
                   "(rho 0.9, lam 10)", worst <= 1e-13,
                   f"max rel err {worst:.3e}"))
    return checks


def _selftest_frackernel():
    checks = []
    g = TimeGrid(1.0, 256)

    d = caputo_l1(g, np.full(257, 3.7), 0.5)
    worst_c = float(np.max(np.abs(d[1:])))
    t = g.nodes
    d = caputo_l1(g, 2.0 + 0.5 * t, 0.4)
    worst_l = float(np.max(np.abs(
        d[1:] - 0.5 * t[1:] ** 0.6 / math.gamma(1.6))))
    checks.append(("L1 derivative exact on constants and linears",
                   worst_c <= 1e-12 and worst_l <= 1e-12,
                   f"const {worst_c:.3e}, linear {worst_l:.3e}"))

    rho, lam = 0.6, 3.0
    w = build_weights(g, rho, lam)
    out = convolve(w, np.ones(257))
    want = (1.0 - relaxation_curve(rho, lam, t)) / lam
    worst = float(np.max(np.abs(out[1:] - want[1:])))
    checks.append(("convolution weights integrate the kernel exactly",
                   worst <= 1e-12, f"max err {worst:.3e}"))

    rho = 0.5
    g2 = TimeGrid(1.0, 1024)
    out = convolve(build_weights(g2, rho, 1.0), g2.nodes)
    nodes = [256, 512, 1024]
    s = g2.nodes[nodes]
    want = s ** (rho + 1.0) * mittag_leffler(rho, rho + 2.0, -s ** rho)
    worst = float(np.max(np.abs(out[nodes] - want)))
    checks.append(("kernel * t convolution matches the series identity",
                   worst <= 5e-4, f"max err {worst:.3e}"))

    # FFT round-off is absolute: eps-sized against ||w||_1 ||g||_inf
    g3 = TimeGrid(1.0, 4096)
    w = build_weights(g3, rho, 20.0)
    series = np.random.default_rng(20250815).normal(size=4097)
    direct = np.convolve(w.column[1:], 0.5 * (series[:-1] + series[1:]))
    worst = float(np.max(np.abs(convolve(w, series)[1:] - direct[:4096])))
    bound = 1e-13 * float(np.sum(w.column) * np.max(np.abs(series)))
    checks.append(("FFT convolution matches the direct sum at N = 4096",
                   worst <= bound, f"max err {worst:.3e} (bound {bound:.3e})"))
    return checks


def _run_selftest(out: Path) -> int:
    suites = {"mlf": _selftest_mlf(), "frackernel": _selftest_frackernel()}
    all_ok = True
    report = {}
    for name, checks in suites.items():
        passed = sum(ok for _, ok, _ in checks)
        all_ok = all_ok and passed == len(checks)
        print(f"selftest {name}: {passed}/{len(checks)} passed")
        for label, ok, detail in checks:
            print(f"  [{'ok' if ok else 'FAIL'}] {label} ({detail})")
        report[name] = [{"check": label, "passed": bool(ok), "detail": detail}
                        for label, ok, detail in checks]
    _write_json(out / "selftest.json", report)
    return 0 if all_ok else 1


# ------------------------------------------------------------ entry point --

def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="subdiff",
        description="Subdiffusion forward solver and reaction-coefficient "
                    "recovery")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, needs_config in (("forward", True), ("inverse", True),
                               ("verify", True), ("selftest", False)):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
    args = ap.parse_args(argv)

    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "selftest":
            return _run_selftest(out)
        cfg_path = Path(args.config)
        cfg = _load_config(cfg_path)
        base = cfg_path.resolve().parent
        runner = {"forward": _run_forward, "inverse": _run_inverse,
                  "verify": _run_verify}[args.command]
        return runner(cfg, out, base)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (AdmissibilityError, SingularSystemError) as e:
        print(f"inadmissible problem: {e}", file=sys.stderr)
        return 3
    except ConvergenceError as e:
        print(f"failed to converge: {e}", file=sys.stderr)
        return 4
    except (DomainError, GridMismatchError, AliasingError,
            ResourceError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("config error: the problem does not fit in memory; reduce "
              "n_steps, n_cells or n_modes", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
