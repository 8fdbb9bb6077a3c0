"""Command-line behavior: exit codes, artifact contents, determinism."""

import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subdiff import csvfmt, forward, mode_solver
from subdiff.cli import _build_spec, _profile, _write_csv, main
from subdiff.csvfmt import (_EMIN, _SEP, BLOCK, _decimal, _layout, _tables,
                            write_rows)
from subdiff.forward import AssumptionReport, solve_forward
from subdiff.frackernel import TimeGrid, caputo_l1
from subdiff.inverse import (ConditionReport, InverseResult, estimate_CT,
                             synthesize_data)
from subdiff.spectral import TailReport, assemble_field, basis, eigenvalues

from conftest import zero_divisor_bracket

CONFIGS = {
    "forward": "configs/forward_manufactured.json",
    "inverse": "configs/inverse_synthetic.json",
}


def run(tmp_path, command, cfg=None, out=None, extra=()):
    """Invoke the entry point in-process; returns (code, out_dir)."""
    out = out or tmp_path / "out"
    argv = [command, "--out", str(out)]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg) if isinstance(cfg, dict) else cfg)
        argv += ["--config", str(path)]
    return main(argv + list(extra)), out


def shipped(which, repo_root):
    return json.loads((repo_root / CONFIGS[which]).read_text())


@pytest.fixture(scope="module")
def repo_root():
    import subdiff
    from pathlib import Path
    return Path(subdiff.__file__).resolve().parents[2]


def csv_inverse_cfg():
    """A 4-step inverse problem whose flux data the caller adds."""
    return {
        "problem": {"length": 1.0, "t_final": 0.5, "rho": 0.5,
                    "n_steps": 4, "n_cells": 8, "n_modes": 2},
        "sigma": {"kind": "constant", "value": 1.0},
        "phi": {"terms": [{"mode": 1, "amplitude": 0.05}]},
        "f": {"terms": [{"mode": 1, "time": {"kind": "constant",
                                             "value": 1.0}}]},
    }


def residual_rows(sol, spec, q):
    """max over the interior x of |D^rho u - sigma u_xx + q u - f| at each
    t_n, n >= 1, with the derivative terms on the sine coefficients, as
    ``residual_check`` takes them."""
    c = sol.u_k
    lam = eigenvalues(spec.K, spec.length)
    dcap = np.zeros((spec.K, spec.tgrid.n_steps))
    live = np.any(c != 0.0, axis=1)
    dcap[live] = caputo_l1(spec.tgrid, c[live].T, spec.rho)[1:].T
    stiff = spec.sigma.values[1:] * (lam ** 2)[:, None] * c[:, 1:]
    nx = spec.sgrid.n_cells
    res = (assemble_field(dcap + stiff, spec.sgrid)[:, 1:nx]
           + q.values[1:, None] * sol.u[1:, 1:nx] - spec.f[1:, 1:nx])
    return np.max(np.abs(res), axis=1)


def small_forward_cfg():
    return {
        "problem": {"length": 1.0, "t_final": 1.0, "rho": 0.5,
                    "n_steps": 32, "n_cells": 16, "n_modes": 4},
        "sigma": {"kind": "sinusoidal-offset", "offset": 2.0,
                  "amplitude": 1.0, "frequency": 1.0},
        "q": {"kind": "constant", "value": 0.1},
        "phi": {"terms": [{"mode": 1, "amplitude": 1.0}]},
        "f": {"terms": [{"mode": 1, "time": {"kind": "constant",
                                             "value": 1.0}}]},
    }


class TestConfigErrors:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        code, _ = run(tmp_path, "forward", cfg='{"problem": [,]}')
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = small_forward_cfg()
        cfg["sigmas"] = cfg["sigma"]
        code, _ = run(tmp_path, "forward", cfg=cfg)
        assert code == 2
        assert "sigmas" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, repo_root, capsys):
        cfg = shipped("inverse", repo_root)
        cfg["data"]["synthetic"]["tolerance"] = 1e-8
        code, _ = run(tmp_path, "inverse", cfg=cfg)
        assert code == 2
        assert ("data.synthetic: unknown keys ['tolerance']"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["forward", "verify"])
    def test_field_commands_refuse_a_solver_block(self, tmp_path, capsys,
                                                  command):
        # their solves always run at the Picard budget of the mode solver
        cfg = small_forward_cfg()
        cfg["solver"] = {"tol": 1e-10, "max_iter": 200}
        assert run(tmp_path, command, cfg=cfg)[0] == 2
        assert ("config: unknown keys ['solver']"
                in capsys.readouterr().err)

    def test_verify_refuses_a_verify_block(self, tmp_path, capsys):
        # its thresholds are constants: it takes the keys forward takes
        cfg = small_forward_cfg()
        cfg["verify"] = {"max_residual": 1e-2, "max_cross_gap": 5e-3}
        assert run(tmp_path, "verify", cfg=cfg)[0] == 2
        assert ("config: unknown keys ['verify']"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("block,bad,named", [
        ("phi", {"terms": [1]}, "phi.terms[0]: expected an object"),
        ("f", {"terms": [{"mode": 1, "time": {"kind": "constant",
                                               "value": 1.0}}, None]},
         "f.terms[1]: expected an object"),
        ("q", {"kind": ["constant"], "value": 0.1}, "unknown profile kind"),
        ("sigma", {"kind": "csv-samples", "path": 3},
         "sigma: expected a file path, got 3"),
        ("data", {"psi_csv": 3}, "data.psi_csv: expected a file path"),
    ], ids=["term-not-object", "later-term-not-object", "kind-list",
            "path-number", "psi-csv-number"])
    def test_value_of_the_wrong_json_type(self, tmp_path, capsys, block, bad,
                                          named):
        cfg = small_forward_cfg()
        command = "forward"
        if block == "data":
            del cfg["q"]
            command = "inverse"
        cfg[block] = bad
        assert run(tmp_path, command, cfg=cfg)[0] == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("n_steps", [16385, 2 ** 63])
    def test_step_count_above_the_weight_cap(self, tmp_path, capsys,
                                             n_steps):
        # refused while the config is read, before any array is built
        cfg = small_forward_cfg()
        cfg["problem"].update(n_steps=n_steps, n_cells=1024)
        assert run(tmp_path, "forward", cfg=cfg)[0] == 2
        assert (f"problem.n_steps: {n_steps} exceeds the maximum 16384"
                in capsys.readouterr().err)

    def test_length_whose_eigenvalue_overflows(self, tmp_path, capsys):
        cfg = small_forward_cfg()
        cfg["problem"]["length"] = 1e-200
        assert run(tmp_path, "forward", cfg=cfg)[0] == 2
        assert "length 1e-200 is too small" in capsys.readouterr().err

    def test_length_whose_eigenvalue_underflows(self, tmp_path, capsys):
        # lam_1^2 m_sigma = 2e-319 is subnormal; such a run used to exit 0
        # with every contraction bound inf, and is now refused with the
        # length and sigma's minimum named
        cfg = small_forward_cfg()
        cfg["problem"]["length"] = 1e160
        assert run(tmp_path, "forward", cfg=cfg)[0] == 2
        assert ("length 1e+160 is too large for sigma's minimum 2.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["forward", "verify", "inverse"])
    def test_tiny_lengths_run_clean_or_are_refused(self, tmp_path, command):
        # small lengths used to overflow in the solve, its diagnostics or
        # the inverse traces (from 1e-80 down on this 4-mode problem) and
        # run on to a garbage residual; each length now either runs without
        # a RuntimeWarning or exits 2 before the solve
        cfg = small_forward_cfg()
        if command == "inverse":
            del cfg["q"]
            cfg["data"] = {"synthetic": {"q_true": {"kind": "constant",
                                                    "value": 0.3}}}
        codes = {}
        for e in range(-200, -49):
            cfg["problem"]["length"] = float(f"1e{e}")
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                codes[e] = run(tmp_path, command, cfg=cfg)[0]
        assert {e: c for e, c in codes.items() if c not in (0, 2)} == {}

    def test_unknown_profile_kind(self, tmp_path, capsys):
        cfg = small_forward_cfg()
        cfg["q"] = {"kind": "gaussian", "value": 1.0}
        code, _ = run(tmp_path, "forward", cfg=cfg)
        assert code == 2
        assert "gaussian" in capsys.readouterr().err

    def test_unknown_profile_parameter(self, tmp_path, capsys):
        cfg = small_forward_cfg()
        cfg["q"]["slop"] = 2.0
        assert run(tmp_path, "forward", cfg=cfg)[0] == 2
        assert capsys.readouterr().err == "config error: q: unknown keys ['slop']\n"

    def test_aliased_mode_count(self, tmp_path, capsys):
        cfg = small_forward_cfg()
        cfg["problem"]["n_modes"] = 9
        assert run(tmp_path, "forward", cfg=cfg)[0] == 2
        assert "K=9 exceeds the anti-aliasing cap M/2=8" in capsys.readouterr().err

    def test_missing_block(self, tmp_path):
        cfg = small_forward_cfg()
        del cfg["sigma"]
        assert run(tmp_path, "forward", cfg=cfg)[0] == 2

    def test_mode_above_retained_count(self, tmp_path, capsys):
        cfg = small_forward_cfg()
        cfg["phi"]["terms"][0]["mode"] = 5
        code, _ = run(tmp_path, "forward", cfg=cfg)
        assert code == 2
        assert "retained" in capsys.readouterr().err

    def test_inverse_needs_exactly_one_data_source(self, tmp_path, repo_root):
        cfg = shipped("inverse", repo_root)
        cfg["data"]["psi_csv"] = "psi.csv"
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2
        del cfg["data"]["psi_csv"], cfg["data"]["synthetic"]
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2

    def test_psi0_rejected_for_synthetic_data(self, tmp_path, repo_root,
                                              capsys):
        cfg = shipped("inverse", repo_root)
        cfg["data"]["psi0"] = 0.1
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2
        assert "data: unknown keys ['psi0']" in capsys.readouterr().err

    def test_psi0_rejected_for_csv_data(self, tmp_path, repo_root, capsys):
        # the flux floor is the data's minimum, never a setting
        cfg = shipped("inverse", repo_root)
        cfg["data"] = {"psi_csv": "psi.csv", "psi0": 0.1}
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2
        assert "data: unknown keys ['psi0']" in capsys.readouterr().err

    def test_negative_noise_seed(self, tmp_path, repo_root, capsys):
        cfg = shipped("inverse", repo_root)
        cfg["data"]["synthetic"].update(noise_level=1e-6, seed=-1)
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2
        assert "data.synthetic.seed" in capsys.readouterr().err

    def test_noise_seed_beyond_64_bits(self, tmp_path, repo_root, capsys):
        cfg = shipped("inverse", repo_root)
        cfg["data"]["synthetic"].update(noise_level=1e-6, seed=2 ** 64)
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2
        assert "data.synthetic.seed" in capsys.readouterr().err

    def test_retired_inverse_solver_keys(self, tmp_path, repo_root, capsys):
        # the recovery runs at its fixed budget and its inner forward solves
        # at the Picard budget, so the whole solver block is retired
        for key, value in (("tol", 1e-6), ("max_iter", 300),
                           ("forward_tol", 1e-10), ("forward_max_iter", 200)):
            cfg = shipped("inverse", repo_root)
            cfg["solver"] = {key: value}
            assert run(tmp_path, "inverse", cfg=cfg)[0] == 2
            assert ("config: unknown keys ['solver']"
                    in capsys.readouterr().err)

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"problem": "\xff"}')
        assert main(["forward", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(path) in err and "UTF-8" in err

    def test_samples_csv_not_utf8(self, tmp_path, capsys):
        (tmp_path / "psi.csv").write_bytes(b"\xff\xfe,1\n")
        cfg = csv_inverse_cfg()
        cfg["data"] = {"psi_csv": "psi.csv"}
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2
        err = capsys.readouterr().err
        assert "data.psi_csv" in err and "psi.csv" in err and "UTF-8" in err

    @pytest.mark.parametrize("block", ["data", "sigma"])
    def test_one_column_samples_csv(self, tmp_path, capsys, block):
        # a row without its value cell used to end in an IndexError
        tg = TimeGrid(0.5, 4)
        (tmp_path / "s.csv").write_text(
            "t\n" + "".join(f"{t:.17g}\n" for t in tg.nodes))
        cfg = csv_inverse_cfg()
        if block == "sigma":
            cfg["sigma"] = {"kind": "csv-samples", "path": "s.csv"}
            cfg["data"] = {"synthetic": {"q_true": {"kind": "constant",
                                                    "value": 0.3}}}
        else:
            cfg["data"] = {"psi_csv": "s.csv"}
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "s.csv" in err and "fewer than two cells" in err

    def test_samples_csv_with_byte_order_mark(self, tmp_path):
        # the mark is not part of the first sample, so a header-less file
        # keeps all of its rows
        tg = TimeGrid(0.5, 4)
        psi = math.pi * math.sqrt(2.0) * 0.05
        rows = "".join(f"{t:.17g},{psi:.17g}\n" for t in tg.nodes)
        (tmp_path / "psi.csv").write_text(rows, encoding="utf-8-sig")
        cfg = csv_inverse_cfg()
        cfg["data"] = {"psi_csv": "psi.csv"}
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 0

    def test_fractional_step_count(self, tmp_path):
        cfg = small_forward_cfg()
        cfg["problem"]["n_steps"] = 32.5
        assert run(tmp_path, "forward", cfg=cfg)[0] == 2

    @pytest.mark.parametrize("block,key,literal", [
        ("problem", "n_steps", "Infinity"),
        ("problem", "n_cells", "NaN"),
        ("problem", "t_final", "-Infinity"),
        ("data.synthetic", "noise_level", "NaN"),
    ])
    def test_non_finite_number(self, tmp_path, repo_root, capsys, block, key,
                               literal):
        # json accepts these literals; they are bad configuration, not a
        # failed check or a stalled solve
        if block == "data.synthetic":
            command, cfg = "inverse", shipped("inverse", repo_root)
            cfg["data"]["synthetic"][key] = "@"
        else:
            command, cfg = "forward", small_forward_cfg()
            cfg[block][key] = "@"
        code, _ = run(tmp_path, command,
                      cfg=json.dumps(cfg).replace('"@"', literal))
        assert code == 2
        assert f"{block}.{key}: expected a finite number" in (
            capsys.readouterr().err)


class TestConfigDefaults:
    def test_mode_count_matches_problem_spec(self, tmp_path):
        cfg = small_forward_cfg()
        del cfg["problem"]["n_modes"]
        for n_cells in (2, 8, 64, 512):
            cfg["problem"]["n_cells"] = n_cells
            spec = _build_spec(cfg, tmp_path)
            assert spec.K == replace(spec, K=None).K


class TestModalData:
    """The CLI hands the config's terms to the solver as exact sine
    coefficients, and the modes without data are never solved."""

    @staticmethod
    def term_sums(cfg, spec, repo_root):
        """The config's terms added up per mode, in config order, and each
        term's grid field, as the sine shapes make it."""
        shapes = basis(spec.sgrid, spec.K)
        phi_k, f_k = np.zeros(spec.K), np.zeros(spec.f_k.shape)
        phi_terms, f_terms = [], []
        for term in cfg["phi"]["terms"]:
            phi_k[term["mode"] - 1] += term["amplitude"]
            phi_terms.append(term["amplitude"] * shapes[term["mode"] - 1])
        for term in cfg["f"]["terms"]:
            values = _profile(term["time"], spec.tgrid, "f", repo_root).values
            f_k[term["mode"] - 1] += values
            f_terms.append(values[:, None] * shapes[term["mode"] - 1])
        return phi_k, f_k, phi_terms, f_terms

    @pytest.mark.parametrize("which", sorted(CONFIGS))
    def test_spec_carries_the_term_sums(self, which, repo_root):
        cfg = shipped(which, repo_root)
        spec = _build_spec(cfg, repo_root)
        phi_k, f_k, phi_terms, f_terms = self.term_sums(cfg, spec, repo_root)
        assert np.array_equal(spec.phi_k, phi_k)
        assert np.array_equal(spec.f_k, f_k)
        used = {t["mode"] - 1 for b in ("phi", "f") for t in cfg[b]["terms"]}
        unused = sorted(set(range(spec.K)) - used)
        assert unused and np.all(spec.phi_k[unused] == 0.0)
        assert np.all(spec.f_k[unused] == 0.0)
        # the grid fields are the term sums the sine shapes make, up to the
        # order of the additions: each route rounds once per term added and
        # once per product, so they differ by at most 2 (terms + 1) eps
        # times the sum of the terms' magnitudes, node by node
        eps = np.finfo(float).eps
        for field, terms in ((spec.phi, phi_terms), (spec.f, f_terms)):
            bound = 2 * (len(terms) + 1) * eps * sum(np.abs(t) for t in terms)
            assert np.all(np.abs(field - sum(terms)) <= bound)

    @pytest.mark.parametrize("command, which", [
        ("forward", "forward"), ("verify", "forward"),
        ("inverse", "inverse")])
    def test_only_modes_with_data_get_weights(self, tmp_path, repo_root,
                                              monkeypatch, command, which):
        # both shipped configs put their data on mode 1 alone, so every
        # weight build is for that one stiffness
        built = []
        build = mode_solver.build_weights
        monkeypatch.setattr(mode_solver, "build_weights",
                            lambda *a: built.append(a[2]) or build(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _ = run(tmp_path, command, cfg=shipped(which, repo_root))
        assert code == 0
        assert built and all(len(lam) == 1 for lam in built)


class TestReportBlocks:
    def test_keys_are_dataclass_fields_plus_verdict(self, tmp_path, repo_root):
        # each artifact is its result object written whole
        cfg = small_forward_cfg()
        code, out = run(tmp_path, "forward", cfg=cfg, out=tmp_path / "fwd")
        assert code == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = _build_spec(cfg, tmp_path)
            sol = solve_forward(spec, _profile(cfg["q"], spec.tgrid, "q",
                                               tmp_path))
        diag = json.loads((out / "diagnostics.json").read_text())
        assert set(diag) == set(sol.diagnostics) | {"residual",
                                                    "resolved_config"}
        assert set(diag["assumption1"]) == {
            f.name for f in fields(AssumptionReport)} | {"all_passed"}
        for p in (2, 3):
            assert set(diag[f"tail_p{p}"]) == {f.name
                                               for f in fields(TailReport)}

        cfg = shipped("inverse", repo_root)
        cfg["problem"].update(n_steps=64, n_cells=32, n_modes=8)
        code, out = run(tmp_path, "inverse", cfg=cfg, out=tmp_path / "inv")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert set(rep) == ({f.name for f in fields(InverseResult)} - {"q"}) | {
            "iterations", "resolved_config"}
        assert set(rep["condition_report"]) == {
            f.name for f in fields(ConditionReport)} | {"all_passed"}


class TestCsvWriter:
    def test_bytes_match_csv_module_formatting(self, tmp_path):
        rng = np.random.default_rng(5)
        table = np.column_stack([
            np.linspace(0.0, 1.0, 12),
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 3.0, -7.0,
             2.0 ** 60, 0.1, 1.0 / 3.0],
            rng.normal(size=(12, 3)), rng.normal(size=(12, 2)) * 1e-8])
        header = ["t"] + [f"u{j}" for j in range(table.shape[1] - 1)]
        _write_csv(tmp_path / "new.csv", header, table)
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows([format(float(v), ".17g") for v in row] for row in table)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())


def oracle_rows(table) -> bytes:
    """The row-at-a-time ``%.17g`` one-liner the CSV writer replaced."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in table.tolist()).encode()


def kernel_rows(table) -> bytes:
    fh = io.BytesIO()
    write_rows(fh, table)
    return fh.getvalue()


def point_sweep() -> np.ndarray:
    """Values whose ``%.17g`` puts the point after d_x, x = 1..16: an
    integer of x + 1 digits plus 2^-g, which prints exactly g fraction
    digits, for every g the 17 digits leave room for, and the neighbours
    of 10^x."""
    rng = np.random.default_rng(17)
    values = [10.0, 100.5, 123456789012345.6]
    for x in range(1, 17):
        for g in range(17 - x):
            # N + 2^-g is exact while N 2^g + 1 < 2^53; for g = 0 any
            # double will do, all are integers there
            top = min(10 ** (x + 1), (2 ** 53 - 1) >> g if g else math.inf)
            for n in (10 ** x, top - 1, int(rng.integers(10 ** x, top))):
                values.append(math.ldexp((n << g) + (g > 0), -g))
        values += [math.nextafter(10.0 ** x, -math.inf),
                   math.nextafter(10.0 ** x, math.inf)]
    return np.array(values)


def sweeps() -> dict:
    """Deterministic sweeps over the doubles, by name."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{p}") for p in range(-320, 309)])
    rng = np.random.default_rng(3)
    odd = 2 * rng.integers(2 ** 39, 2 ** 52, 4000) + 1
    bits = rng.integers(0, 2 ** 63, 10 ** 5, dtype=np.uint64)
    return {
        "2^k": twos,
        "10^p": tens,
        "10^p up": np.nextafter(tens, np.inf),
        "10^p down": np.nextafter(tens, -np.inf),
        "half-integers": np.arange(-5000, 5000) + 0.5,
        "odd / 2^j": np.ldexp(odd.astype(float), -np.arange(4000) % 64),
        "bit patterns": bits.view(np.float64),
        "point after d_x": point_sweep(),
    }


#: values of each kind the writer leaves to Python: non-finite, beyond
#: [1e-200, 1e200] (subnormals too), and ties of the 17th digit: an odd
#: multiple of 2^(e - 17) with decimal exponent e <= 0 is exactly one (here
#: in the forms x = 0, x = -3 and e-form)
TIE = 1.0 + 2.0 ** -17
FALLBACK = [np.inf, -np.inf, np.nan, 3.5e250, -1.7976931348623157e308,
            np.nextafter(1e200, np.inf), 1e-250, -np.nextafter(1e-200, 0.0),
            5e-324, -2.5e-310, TIE, -TIE, 7 * TIE, 1049 / 2 ** 20,
            -43 / 2 ** 22]


def exact_ties() -> dict:
    """By decimal exponent x = 0..15, doubles whose 17-digit rounding is an
    exact tie: an odd m times 2^(x - 17), which needs m < 2^53; at x = 16
    every double is an integer, so there are none.  The ends of each range
    and random m in it, both parities of the 17-digit truncation."""
    rng = np.random.default_rng(35)
    out = {}
    for x in range(16):
        shift = 17 - x
        lo = (10 ** x << shift) + 1
        hi = min(10 ** (x + 1) << shift, 2 ** 53) - 1
        m = [lo, hi - (hi % 2 == 0)]
        m += [int(v) | 1 for v in rng.integers(lo, hi, 64)]
        out[x] = np.array([math.ldexp(v, -shift) for v in m])
    return out


class TestCsvKernel:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=st.floats()))
    def test_any_float_table(self, table):
        assert kernel_rows(table) == oracle_rows(table)

    def test_deterministic_sweeps(self):
        for name, values in sweeps().items():
            for v in (values, -values):
                for table in (v[:, None], v[None, :], v[:v.size // 7 * 7]
                              .reshape(-1, 7)):
                    assert kernel_rows(table) == oracle_rows(table), name

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 9), (9, 1), (1, BLOCK + 5), (BLOCK + 1, 1),
        (2 * (BLOCK // 7) + 3, 7), (BLOCK // 130 + 1, 130)])
    def test_block_edges(self, shape):
        rng = np.random.default_rng(sum(shape))
        table = (rng.normal(size=shape)
                 * 10.0 ** rng.integers(-12, 12, size=shape))
        assert kernel_rows(table) == oracle_rows(table)

    def test_kept_bytes_are_never_nul(self):
        # the writer deletes every NUL of a row, so each row must hold
        # exactly the bytes "%.17g" prints, and its separator, as non-NUL
        # bytes: a kept byte left at 0 would silently shorten a value
        tab = _tables()
        for name, values in sweeps().items():
            for v in (values, -values):
                for start in range(0, v.size, BLOCK):
                    block = v[start:start + BLOCK]
                    sep = (np.full(block.size, ord(","), "<u8")
                           << 8 * (_SEP % 8))
                    rows = _layout(block, sep, tab)
                    printed = [len(b"%.17g" % x) + 1 for x in block.tolist()]
                    assert np.array_equal(np.count_nonzero(rows, axis=1),
                                          printed), name

    def test_fallback_rows_at_block_edges(self):
        # Python's text replaces a row that is zeroed below its separator
        # first: each kind in the first and last slot of full blocks, and a
        # block made of nothing else
        assert _decimal(np.array(FALLBACK), _tables())[2].all()
        rng = np.random.default_rng(11)
        for value in FALLBACK:
            table = rng.normal(size=(2 * BLOCK // 8, 8))
            table.flat[[0, BLOCK - 1, BLOCK, 2 * BLOCK - 1]] = value
            assert kernel_rows(table) == oracle_rows(table), value
        table = np.resize(FALLBACK, BLOCK).reshape(-1, 8)
        assert kernel_rows(table) == oracle_rows(table)

    def test_exact_ties_match_percent_g(self):
        # a tie at every decimal exponent x = 0..15, both signs, gives the
        # bytes of "%.17g"
        for x, values in exact_ties().items():
            for v in (values, -values):
                assert kernel_rows(v[:, None]) == oracle_rows(v[:, None]), x
            halves = [Fraction(float(v)) * 10 ** (16 - x) % 1
                      for v in values]
            assert set(halves) == {Fraction(1, 2)}, x

    def test_tables_match_exact_arithmetic(self):
        # hi: 10^(16 - x) correctly rounded, lo: the rest correctly
        # rounded, ceil: the least double >= 10^x, for every exponent x
        def nearest(d, exact):
            err = abs(Fraction(d) - exact)
            for side in (-math.inf, math.inf):
                other = abs(Fraction(math.nextafter(d, side)) - exact)
                # a tie goes to the even significand
                assert err < other or (
                    err == other and math.frexp(d)[0] * 2 ** 53 % 2 == 0)

        tab = _tables()
        for i, (hi, lo, ceil) in enumerate(zip(*(
                tab[k].tolist() for k in ("hi", "lo", "ceil")))):
            x = _EMIN + i
            nearest(hi, Fraction(10) ** (16 - x))
            nearest(lo, Fraction(10) ** (16 - x) - Fraction(hi))
            assert (Fraction(math.nextafter(ceil, -math.inf))
                    < Fraction(10) ** x <= Fraction(ceil))

    def test_special_values_raise_no_warning(self):
        table = np.array([[np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_rows(table) == oracle_rows(table)

    def test_benchmark_scale_solution(self, tmp_path, repo_root):
        cfg = shipped("forward", repo_root)
        cfg["problem"]["n_steps"] = 2048
        spec = _build_spec(cfg, repo_root)
        q = _profile(cfg["q"], spec.tgrid, "q", repo_root)
        with pytest.warns(UserWarning, match="window"):
            sol = solve_forward(spec, q)
        table = np.column_stack([spec.tgrid.nodes, sol.u])
        assert table.shape == (2049, 130)
        header = ["t"] + [f"u{j}" for j in range(129)]
        _write_csv(tmp_path / "solution.csv", header, table)
        assert ((tmp_path / "solution.csv").read_bytes()
                == (",".join(header) + "\n").encode() + oracle_rows(table))


class TestExitCodes:
    def test_nonpositive_sigma_is_inadmissible(self, tmp_path):
        cfg = small_forward_cfg()
        cfg["sigma"] = {"kind": "constant", "value": -1.0}
        assert run(tmp_path, "forward", cfg=cfg)[0] == 3

    def test_forward_singular_step_names_the_mode(self, tmp_path, capsys,
                                                  repo_root):
        # sigma = 1 makes mode 2's bracket -q; q(t_3) = -1/c, c = fold_0 of
        # its weights, to the ulp that makes the divisor 1 - c b at node 3
        # exactly 0
        cfg = small_forward_cfg()
        cfg["sigma"] = {"kind": "constant", "value": 1.0}
        cfg["phi"]["terms"][0]["mode"] = 2
        cfg["f"]["terms"][0]["mode"] = 2
        spec = _build_spec(cfg, repo_root)
        p = forward.mode_problem(spec, _profile(cfg["q"], spec.tgrid, "q",
                                                repo_root))
        c = p.restrict(p.live).weights.fold[0, 0]
        q = [0.1] * 33
        q[3] = -zero_divisor_bracket(c)
        lines = ["t,value"] + [f"{t:.17g},{v:.17g}"
                               for t, v in zip(spec.tgrid.nodes, q)]
        (tmp_path / "q.csv").write_text("\n".join(lines) + "\n")
        cfg["q"] = {"kind": "csv-samples", "path": "q.csv"}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # q leaves the window
            assert run(tmp_path, "forward", cfg=cfg)[0] == 3
        assert ("inadmissible problem: mode 2: singular step at node 3"
                in capsys.readouterr().err)

    def test_singular_fd_step_is_inadmissible(self, tmp_path):
        # with h = 1/2, q(t_1) = -(scale + 2/h^2) zeroes the FD oracle's
        # 1x1 step system; the spectral route runs through
        cfg = small_forward_cfg()
        cfg["problem"].update(n_steps=4, n_cells=2, n_modes=1)
        cfg["sigma"] = {"kind": "constant", "value": 1.0}
        tg = TimeGrid(1.0, 4)
        q = [0.0] * 5
        q[1] = -(tg.h ** -0.5 / math.gamma(1.5) + 2.0 / 0.5 ** 2)
        lines = ["t,value"] + [f"{t:.17g},{v:.17g}"
                               for t, v in zip(tg.nodes, q)]
        (tmp_path / "q.csv").write_text("\n".join(lines) + "\n")
        cfg["q"] = {"kind": "csv-samples", "path": "q.csv"}
        assert run(tmp_path, "verify", cfg=cfg)[0] == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("block", ["phi", "f"])
    def test_overflowing_data_is_config_error(self, tmp_path, capsys, block):
        # an amplitude near the float limit overflows on the sine shape;
        # the problem spec refuses it before either solver route runs
        cfg = small_forward_cfg()
        if block == "phi":
            cfg["phi"]["terms"][0]["amplitude"] = 1.7e308
        else:
            cfg["f"]["terms"][0]["time"]["value"] = 1.7e308
        for command in ("forward", "verify"):
            assert run(tmp_path, command, cfg=cfg)[0] == 2
            assert ("source and initial datum must be finite"
                    in capsys.readouterr().err)

    def test_out_of_memory_is_config_error(self, tmp_path, capsys,
                                           monkeypatch):
        def no_room(spec, q):
            raise MemoryError
        monkeypatch.setattr("subdiff.cli.solve_fd", no_room)
        assert run(tmp_path, "verify", cfg=small_forward_cfg())[0] == 2
        assert "does not fit in memory" in capsys.readouterr().err

    def test_unwritable_output_directory(self, tmp_path):
        code, _ = run(tmp_path, "selftest", out="/proc/no_such_dir/out")
        assert code == 5

    def test_unknown_command_usage_error(self):
        for argv in (["transmogrify"], ["selftest", "--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestForwardCommand:
    def test_shipped_config_artifacts(self, tmp_path, repo_root):
        code, out = run(tmp_path, "forward",
                        cfg=(repo_root / CONFIGS["forward"]).read_text())
        assert code == 0

        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["residual"] <= 1e-2
        assert diag["init_defect"] <= 1e-12
        # defaults materialize into the echoed config, which has no solver
        # block: the forward solve has no settings
        assert "solver" not in diag["resolved_config"]
        assert diag["resolved_config"]["problem"]["n_modes"] == 32

        rows = (out / "solution.csv").read_text().splitlines()
        assert rows[0].split(",")[:2] == ["t", "u0"]
        assert len(rows) == 1 + 512 + 1
        table = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        assert np.all(table[:, 1] == 0.0) and np.all(table[:, -1] == 0.0)
        # u(x, 0) = sqrt(2) sin(pi x) at the midpoint
        assert table[0, 1 + 64] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path, repo_root):
        cfg = (repo_root / CONFIGS["forward"]).read_text()
        _, a = run(tmp_path, "forward", cfg=cfg, out=tmp_path / "a")
        _, b = run(tmp_path, "forward", cfg=cfg, out=tmp_path / "b")
        for name in ("solution.csv", "diagnostics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_single_time_step(self, tmp_path):
        # one positive node leaves no line to fit the blow-up exponent to
        cfg = small_forward_cfg()
        cfg["problem"]["n_steps"] = 1
        code, out = run(tmp_path, "forward", cfg=cfg)
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["q2_fitted_exponent"] is None
        assert math.isfinite(diag["residual"])

    @pytest.mark.parametrize("value", [20.0, 200.0])
    def test_large_damping_q_is_solved(self, tmp_path, repo_root, value):
        # q far above the window only damps the solution, and its bound C_k
        # is far above 1.  The residual of diagnostics.json peaks at t_1, in
        # the t^rho initial layer the uniform grid leaves unresolved (12.7
        # at q = 20); on t >= 0.1 it is 2.9e-3 and 4.1e-3, and the bound
        # there is verify's threshold
        cfg = shipped("forward", repo_root)
        cfg["q"] = {"kind": "constant", "value": value}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # q leaves the window
            code, out = run(tmp_path, "forward", cfg=cfg)
            spec = _build_spec(cfg, repo_root)
            q = _profile(cfg["q"], spec.tgrid, "q", repo_root)
            sol = solve_forward(spec, q)
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        rows = residual_rows(sol, spec, q)
        assert diag["residual"] == float(np.max(rows))
        assert np.max(rows[spec.tgrid.nodes[1:] >= 0.1]) <= 1e-2


class TestInverseCommand:
    def test_shipped_config_recovers_constant(self, tmp_path, repo_root):
        code, out = run(tmp_path, "inverse",
                        cfg=(repo_root / CONFIGS["inverse"]).read_text())
        assert code == 0

        rep = json.loads((out / "report.json").read_text())
        assert rep["recovery_error"] <= 1e-3
        assert rep["measured_ratio"] < 1.0
        assert rep["clamp_count"] == 0
        assert rep["flux_defect"] <= 1e-6
        assert "cond1_flux_floor" not in rep["condition_report"]
        assert rep["condition_report"]["CT"] > 1.0  # known-loose bound
        # C(T) has one place in the report, the condition report's verdict
        assert "CT_bound" not in rep
        cfg = shipped("inverse", repo_root)
        spec = _build_spec(cfg, repo_root / "configs")
        syn = cfg["data"]["synthetic"]
        inv = synthesize_data(spec, _profile(syn["q_true"], spec.tgrid, "q",
                                             repo_root / "configs"),
                              syn["noise_level"], syn["seed"])
        assert rep["condition_report"]["CT"] == estimate_CT(inv)
        assert rep["iterations"] == len(rep["iterates"]) == 1
        assert rep["iterates"][0] <= 1e-12  # the check sweep's residual

        rows = (out / "recovered_q.csv").read_text().splitlines()
        q = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.max(np.abs(q - 0.3)) <= 1e-3

    def test_resolved_config_echoes_the_config(self, tmp_path, repo_root):
        # every block verbatim, problem with its mode count materialized
        cfg = shipped("inverse", repo_root)
        cfg["problem"].update(n_steps=64, n_cells=32)
        del cfg["problem"]["n_modes"]
        code, out = run(tmp_path, "inverse", cfg=cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["resolved_config"] == cfg | {
            "command": "inverse", "problem": cfg["problem"] | {"n_modes": 8}}

    def test_synthetic_data_share_one_spec(self, tmp_path, repo_root,
                                          monkeypatch):
        # the q-free spec carries the synthesis and the recovery, and the
        # CLI builds it from the config's mode coefficients: no sine
        # transform is made at all, where a rebuilt grid spec would make two
        calls = []
        transform = forward.sine_coefficients
        monkeypatch.setattr(forward, "sine_coefficients",
                            lambda *a: calls.append(a) or transform(*a))
        code, _ = run(tmp_path, "inverse", cfg=shipped("inverse", repo_root))
        assert code == 0 and calls == []

    def test_inverse_command_picard_budget(self, tmp_path, repo_root,
                                           monkeypatch):
        # synthesis, the march and the check all march: the paper's map is
        # never applied
        steps = []
        step = mode_solver.picard_step
        monkeypatch.setattr(mode_solver, "picard_step",
                            lambda *a: steps.append(1) or step(*a))
        code, out = run(tmp_path, "inverse", cfg=shipped("inverse", repo_root))
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert steps == []
        assert rep["recovery_error"] <= 1e-6

    @pytest.mark.parametrize("scale", [1e-9, 100.0])
    def test_scaled_data_recover_as_the_unscaled(self, tmp_path, repo_root,
                                                 scale):
        # the problem is linear in (phi, f), so scaled data have the same q:
        # each solve is exact up to round-off, and no tolerance is absolute;
        # the relative flux defect does not move either
        errors, defects = {}, {}
        for a in (1.0, scale):
            cfg = shipped("inverse", repo_root)
            for term in cfg["phi"]["terms"]:
                term["amplitude"] *= a
            for term in cfg["f"]["terms"]:
                for key in ("value", "amplitude"):
                    if key in term["time"]:
                        term["time"][key] *= a
            code, out = run(tmp_path, "inverse", cfg=cfg,
                            out=tmp_path / f"out{a}")
            assert code == 0
            rep = json.loads((out / "report.json").read_text())
            assert rep["iterates"][0] <= 1e-12
            errors[a] = rep["recovery_error"]
            defects[a] = rep["flux_defect_rel"]
        assert errors[scale] <= 2.0 * errors[1.0]
        assert defects[scale] == pytest.approx(defects[1.0], rel=1e-5)

    @pytest.mark.parametrize("beta", [3.0, 0.1])
    def test_estimate_ct_carries_a_length_dimension(self, tmp_path, repo_root,
                                                    beta):
        # l -> beta l with sigma -> beta^2 sigma maps solutions to solutions
        # and leaves the recovered q as it is, but the paper's constant
        # scales as beta^(3/2): 117.04 at l = 1, 608.1 at 3 and 3.701 at 0.1
        cts, qs = {}, {}
        for b in (1.0, beta):
            cfg = shipped("inverse", repo_root)
            cfg["problem"]["length"] *= b
            for key in ("offset", "amplitude"):
                cfg["sigma"][key] *= b ** 2
            code, out = run(tmp_path, "inverse", cfg=cfg,
                            out=tmp_path / f"out{b}")
            assert code == 0
            rep = json.loads((out / "report.json").read_text())
            cts[b] = rep["condition_report"]["CT"]
            rows = (out / "recovered_q.csv").read_text().splitlines()[1:]
            qs[b] = np.array([float(r.split(",")[1]) for r in rows])
        assert cts[beta] == pytest.approx(beta ** 1.5 * cts[1.0], rel=1e-13)
        assert np.max(np.abs(qs[beta] - qs[1.0])) <= 1e-12

    @pytest.mark.parametrize("overrides", [
        {}, {"problem": {"n_steps": 4096, "n_cells": 32, "n_modes": 4},
             "synthetic": {"q_true": {"kind": "affine", "intercept": 0.2,
                                      "slope": 0.4},
                           "noise_level": 1e-6, "seed": 1301}}],
        ids=["shipped", "inverse-affine"])
    def test_recovery_is_a_fixed_point_of_the_clamped_map(
            self, tmp_path, repo_root, overrides):
        # the check sweep's residual sup |clamp(L[q]) - q|, the one entry
        # of iterates; the second config is the benchmark's inverse-affine
        # workload at seed 1301
        cfg = shipped("inverse", repo_root)
        cfg["problem"].update(overrides.get("problem", {}))
        cfg["data"]["synthetic"].update(overrides.get("synthetic", {}))
        code, out = run(tmp_path, "inverse", cfg=cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["iterations"] == 1 == len(rep["iterates"])
        assert rep["iterates"][0] <= 1e-12

    def test_time_varying_q_refines_away_from_t0(self, tmp_path, repo_root):
        """q_true = 0.2 + 0.4 t from exact data: on t >= 0.05 the recovery
        error falls about 1.8x per doubling of the steps (1.0e-2, 5.8e-3,
        3.1e-3).  At t = 0 it grows with N instead (3.2e-2 at N = 128,
        4.8e-2 at N = 512): the quadratic extrapolation of q0 misses the
        t^rho initial layer.  That is an open defect, not asserted on."""
        cfg = shipped("inverse", repo_root)
        cfg["data"]["synthetic"].update(
            q_true={"kind": "affine", "intercept": 0.2, "slope": 0.4},
            noise_level=0.0)
        errs = []
        for n in (128, 256, 512):
            cfg["problem"]["n_steps"] = n
            code, out = run(tmp_path, "inverse", cfg=cfg,
                            out=tmp_path / f"n{n}")
            assert code == 0
            rows = (out / "recovered_q.csv").read_text().splitlines()[1:]
            t, q = np.array([[float(c) for c in r.split(",")]
                             for r in rows]).T
            errs.append(float(np.max(np.abs(q - (0.2 + 0.4 * t))[t >= 0.05])))
        assert errs[0] >= 1.6 * errs[1] and errs[1] >= 1.6 * errs[2], errs

    def test_csv_data_paths(self, tmp_path):
        # same equilibrium construction, but flux and sigma arrive as files
        tg = TimeGrid(0.5, 64)
        psi = math.pi * math.sqrt(2.0) * 0.05
        lines = ["t,value"] + [f"{t:.17g},{psi:.17g}" for t in tg.nodes]
        (tmp_path / "psi.csv").write_text("\n".join(lines) + "\n")
        sig = ["t,value"] + [f"{t:.17g},{2.0 + math.sin(t):.17g}"
                             for t in tg.nodes]
        (tmp_path / "sigma.csv").write_text("\n".join(sig) + "\n")

        cfg = {
            "problem": {"length": 1.0, "t_final": 0.5, "rho": 0.5,
                        "n_steps": 64, "n_cells": 32, "n_modes": 8},
            "sigma": {"kind": "csv-samples", "path": "sigma.csv"},
            "phi": {"terms": [{"mode": 1, "amplitude": 0.05}]},
            "f": {"terms": [
                {"mode": 1, "time": {"kind": "constant",
                                     "value": 1.0019604401089357}},
                {"mode": 1, "time": {"kind": "sinusoidal-offset",
                                     "offset": 0.0,
                                     "amplitude": 0.4934802200544679,
                                     "frequency": 1.0}},
            ]},
            "data": {"psi_csv": "psi.csv"},
        }
        code, out = run(tmp_path, "inverse", cfg=cfg)
        assert code == 0
        rows = (out / "recovered_q.csv").read_text().splitlines()
        q = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.max(np.abs(q - 0.3)) <= 1e-4
        rep = json.loads((out / "report.json").read_text())
        assert rep["recovery_error"] is None

    def test_wrong_sample_count_rejected(self, tmp_path):
        (tmp_path / "psi.csv").write_text("t,value\n0.0,1.0\n")
        cfg = {
            "problem": {"length": 1.0, "t_final": 0.5, "rho": 0.5,
                        "n_steps": 64, "n_cells": 32, "n_modes": 8},
            "sigma": {"kind": "constant", "value": 1.0},
            "phi": {"terms": [{"mode": 1, "amplitude": 0.05}]},
            "f": {"terms": [{"mode": 1, "time": {"kind": "constant",
                                                 "value": 1.0}}]},
            "data": {"psi_csv": "psi.csv"},
        }
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 2

    def test_missing_csv_is_io_error(self, tmp_path):
        cfg = {
            "problem": {"length": 1.0, "t_final": 0.5, "rho": 0.5,
                        "n_steps": 64, "n_cells": 32, "n_modes": 8},
            "sigma": {"kind": "constant", "value": 1.0},
            "phi": {"terms": [{"mode": 1, "amplitude": 0.05}]},
            "f": {"terms": [{"mode": 1, "time": {"kind": "constant",
                                                 "value": 1.0}}]},
            "data": {"psi_csv": "no_such_file.csv"},
        }
        assert run(tmp_path, "inverse", cfg=cfg)[0] == 5


class TestVerifyCommand:
    def test_passes_on_manufactured_problem(self, tmp_path, repo_root):
        # needs the shipped resolution: the residual halves per refinement
        code, out = run(tmp_path, "verify", cfg=shipped("forward", repo_root))
        assert code == 0
        rep = json.loads((out / "verify.json").read_text())
        assert rep["passed"] is True
        assert rep["max_residual"] == 1e-2 and rep["max_cross_gap"] == 5e-3
        assert rep["residual"] <= rep["max_residual"]
        assert rep["cross_gap"] <= rep["max_cross_gap"]
        assert "verify" not in rep["resolved_config"]

    def test_fails_on_unreachable_threshold(self, tmp_path, repo_root,
                                            monkeypatch):
        # the thresholds are read at call time
        monkeypatch.setattr("subdiff.cli.MAX_RESIDUAL", 1e-9)
        cfg = shipped("forward", repo_root)
        cfg["problem"].update(n_steps=256, n_cells=64, n_modes=16)
        code, out = run(tmp_path, "verify", cfg=cfg)
        assert code == 1
        rep = json.loads((out / "verify.json").read_text())
        assert rep["max_residual"] == 1e-9
        assert rep["passed"] is False and rep["residual_ok"] is False
        assert rep["cross_gap_ok"] is True

    def test_byte_identical_reruns(self, tmp_path, repo_root):
        cfg = (repo_root / CONFIGS["forward"]).read_text()
        _, a = run(tmp_path, "verify", cfg=cfg, out=tmp_path / "a")
        _, b = run(tmp_path, "verify", cfg=cfg, out=tmp_path / "b")
        name = "verify.json"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_single_time_step(self, tmp_path):
        # a verdict, not a traceback, however coarse the grid
        cfg = small_forward_cfg()
        cfg["problem"]["n_steps"] = 1
        code, out = run(tmp_path, "verify", cfg=cfg)
        assert code in (0, 1)
        rep = json.loads((out / "verify.json").read_text())
        assert rep["passed"] is (code == 0)


class TestImports:
    def test_cli_loads_neither_mpmath_nor_scipy(self, repo_root):
        # both are imported where a command needs them, so start-up of
        # every command stays free of them
        code = ("import sys\n"
                "import subdiff.cli\n"
                "print(sorted({'mpmath', 'scipy'} & set(sys.modules)))\n")
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        assert proc.stdout.strip() == "[]"

    def test_noisy_inverse_leaves_numpy_random_unloaded(self, tmp_path,
                                                        repo_root):
        # the flux noise comes from the package's own stream
        cfg = shipped("inverse", repo_root)
        cfg["problem"].update(n_steps=32, n_cells=16, n_modes=4)
        cfg["data"]["synthetic"].update(noise_level=1e-6, seed=1301)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["inverse", "--config", str(path), "--out", str(tmp_path)]
        code = ("import sys\n"
                "from subdiff.cli import main\n"
                f"code = main({argv!r})\n"
                "print(code, 'numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        assert proc.stdout.split()[-2:] == ["0", "False"]
        assert (tmp_path / "recovered_q.csv").exists()

    def test_numpy_random_appears_nowhere_in_the_package(self):
        # the noise and the selftests' sample points both come from the
        # package's own stream, so no code of the package reaches numpy.random
        found = []
        for path in sorted(Path(csvfmt.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    hit = (node.attr == "random"
                           and isinstance(node.value, ast.Name)
                           and node.value.id in ("np", "numpy"))
                elif isinstance(node, ast.Import):
                    hit = any(a.name.startswith("numpy.random")
                              for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    hit = module.startswith("numpy.random") or (
                        module == "numpy"
                        and any(a.name == "random" for a in node.names))
                else:
                    continue
                if hit:
                    found.append(f"{path.name}:{node.lineno}")
        assert not found, found

    def test_csvfmt_imports_only_the_standard_library_and_numpy(self):
        # the writer is a leaf module: it reads nothing of the package and
        # needs nothing the package does not already depend on
        tree = ast.parse(Path(csvfmt.__file__).read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        modules = [alias.name for node in nodes
                   if isinstance(node, ast.Import) for alias in node.names]
        modules += ["." * node.level + (node.module or "") for node in nodes
                    if isinstance(node, ast.ImportFrom)]
        allowed = sys.stdlib_module_names | {"numpy"}
        assert modules and all(
            name.split(".")[0] in allowed for name in modules), modules


class TestSelftest:
    def test_all_suites_pass(self, tmp_path, capsys):
        code, out = run(tmp_path, "selftest")
        assert code == 0
        text = capsys.readouterr().out
        assert "selftest mlf: 4/4 passed" in text
        assert "selftest frackernel: 4/4 passed" in text
        rep = json.loads((out / "selftest.json").read_text())
        assert all(c["passed"] for suite in rep.values() for c in suite)
