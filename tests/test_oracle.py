"""Finite-difference reference solver, and its agreement with the spectral route."""

import ast
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import subdiff
from subdiff import oracle
from subdiff.errors import AdmissibilityError, DomainError, SingularSystemError
from subdiff.forward import ProblemSpec, solve_forward
from subdiff.frackernel import TimeGrid
from subdiff.oracle import FdWorkspace, solve_fd
from subdiff.profiles import Profile, constant
from subdiff.spectral import SpaceGrid

from conftest import make_manufactured, sample_field_problem
from test_forward import make_quadratic, tiny_spec


class TestWorkspace:
    def test_weights_and_scale(self):
        ws = FdWorkspace.from_spec(tiny_spec(n=4, m=4))
        # a_m = (m+1)^{1/2} - m^{1/2} for rho = 1/2
        want = np.sqrt(np.arange(1, 6)) - np.sqrt(np.arange(5))
        assert np.allclose(ws.a, want)
        assert np.all(ws.d > 0)  # history weights positive
        assert ws.scale == pytest.approx(0.25 ** -0.5 / math.gamma(1.5))

    def test_step_system(self):
        # the dense step matrix (scale*a_0 + q_n) I + (sigma_n/h^2) T maps
        # computed row n back onto its right-hand side, on the first step and
        # on one in a later history block
        spec, q, _ = make_manufactured(128, 16)
        ws = FdWorkspace.from_spec(spec)
        M, h = spec.sgrid.n_cells, spec.sgrid.h
        T = 2.0 * np.eye(M - 1) - np.eye(M - 1, k=1) - np.eye(M - 1, k=-1)
        u = solve_fd(spec, q).u
        for n in (1, 100):
            sig, q_n = spec.sigma.values[n], q.values[n]
            A = (ws.scale * ws.a[0] + q_n) * np.eye(M - 1) + sig / h ** 2 * T
            rhs = ws.history(u[:, 1:M], n, n + 1)[0] + spec.f[n, 1:M]
            assert (np.max(np.abs(A @ u[n, 1:M] - rhs))
                    <= 1e-13 * np.max(np.abs(rhs)))

    def test_step_system_at_every_step_past_fft_far_field(self):
        # the same step equation on every step of a run whose far field went
        # through the FFT (rows 1..512 on steps 513..1024)
        spec, q = varying_spec(1100, 8)
        ws = FdWorkspace.from_spec(spec)
        M, h = spec.sgrid.n_cells, spec.sgrid.h
        T = 2.0 * np.eye(M - 1) - np.eye(M - 1, k=1) - np.eye(M - 1, k=-1)
        u = solve_fd(spec, q).u
        for n in range(1, spec.tgrid.n_steps + 1):
            sig, q_n = spec.sigma.values[n], q.values[n]
            A = (ws.scale * ws.a[0] + q_n) * np.eye(M - 1) + sig / h ** 2 * T
            rhs = ws.history(u[:, 1:M], n, n + 1)[0] + spec.f[n, 1:M]
            assert (np.max(np.abs(A @ u[n, 1:M] - rhs))
                    <= 1e-13 * np.max(np.abs(rhs))), n

    @pytest.mark.parametrize("n,stop,start", [(513, 1025, 1), (1025, 1400, 1),
                                              (700, 1000, 0), (300, 1300, 40)])
    def test_fft_history_matches_direct_sum(self, n, stop, start):
        # both sides past _FFT_MIN rows: the convolution by FFT, wrapped
        # circularly, against the direct sum of each step's weighted rows
        spec, _ = varying_spec(1400, 8)
        ws = FdWorkspace.from_spec(spec)
        rows = np.random.default_rng(3).normal(size=(stop, 7))
        j = np.arange(max(start, 1), n)
        want = np.array([ws.d[m - 1 - j] @ rows[j] for m in range(n, stop)])
        if start == 0:
            want += ws.a[n - 1:stop - 1, None] * rows[0]
        want *= ws.scale
        assert min(n - max(start, 1), stop - n) > oracle._FFT_MIN
        got = ws.history(rows, n, stop, start)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # added in place into a given array
        out = np.ones_like(want)
        assert ws.history(rows, n, stop, start, out=out) is out
        assert np.max(np.abs(out - 1.0 - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [2, 4, 8, 34])
    def test_closed_form_eigensystem_matches_eigh(self, m):
        ws = FdWorkspace.from_spec(tiny_spec(n=4, m=m))
        T = 2.0 * np.eye(m - 1) - np.eye(m - 1, k=1) - np.eye(m - 1, k=-1)
        lam, V = np.linalg.eigh(T)
        assert np.max(np.abs(ws.mu * ws.sgrid.h ** 2 - lam)) <= 1e-13
        # the same eigenvectors up to sign, and an orthogonal basis
        assert np.max(np.abs(np.abs(ws.V.T @ V) - np.eye(m - 1))) <= 1e-13
        assert np.max(np.abs(ws.V.T @ ws.V - np.eye(m - 1))) <= 1e-13

    def test_first_step_history_is_initial_row(self):
        ws = FdWorkspace.from_spec(tiny_spec(n=4, m=4))
        interior = np.arange(20.0).reshape(5, 4)
        assert np.allclose(ws.history(interior, 1, 2),
                           ws.scale * interior[:1])
        # from row 0 alone, step m weighs it by a_{m-1}
        assert np.allclose(ws.history(interior, 1, 5),
                           ws.scale * ws.a[:4, None] * interior[0])


def reference_fd(spec, q):
    """The implicit L1 scheme stepped in physical space: at every step the
    direct memory sum over all past rows, then a dense solve."""
    ws = FdWorkspace.from_spec(spec)
    N, M, h = spec.tgrid.n_steps, spec.sgrid.n_cells, spec.sgrid.h
    T = 2.0 * np.eye(M - 1) - np.eye(M - 1, k=1) - np.eye(M - 1, k=-1)
    u = np.zeros((N + 1, M + 1))
    u[0] = spec.phi
    for n in range(1, N + 1):
        mem = ws.a[n - 1] * u[0, 1:M]
        for j in range(1, n):
            mem = mem + ws.d[n - 1 - j] * u[j, 1:M]
        A = ((ws.scale * ws.a[0] + q.values[n]) * np.eye(M - 1)
             + spec.sigma.values[n] / h ** 2 * T)
        u[n, 1:M] = np.linalg.solve(A, ws.scale * mem + spec.f[n, 1:M])
    return u


def varying_spec(n, m, seed=5, modes=()):
    """Time-varying sigma and q and a nonzero initial row; a random source,
    or with ``modes`` given an initial row and a source that are sums of
    those sine modes (a mode above M aliases onto a grid column below it).
    Returns (spec, q)."""
    rng = np.random.default_rng(seed)
    tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
    t = tg.nodes
    if not modes:
        f = rng.normal(0.0, 1.0, (n + 1, m + 1))
        phi = (np.sin(math.pi * sg.nodes)
               + 0.3 * np.sin(3.0 * math.pi * sg.nodes))
    else:
        phi = sum(np.sin(k * math.pi * sg.nodes) / k for k in modes)
        f = (1.0 + np.cos(7.0 * t))[:, None] * phi
    f[:, 0] = f[:, -1] = 0.0
    phi[0] = phi[-1] = 0.0
    q_vals = 0.2 + 0.5 * np.cos(5.0 * t)
    return (ProblemSpec(sgrid=sg, tgrid=tg, rho=0.7,
                        sigma=Profile(tg, 1.0 + 0.5 * np.sin(3.0 * t)),
                        f=f, phi=phi), Profile(tg, q_vals))


class TestBlockedHistory:
    """``solve_fd`` splits the memory sum at history blocks and steps in the
    stencil's eigenbasis; it must equal the direct physical-space loop."""

    # data on one mode, on three, and on mode 19 > M = 16, which the grid
    # sees as column 13; 513 steps take the far field through the FFT
    @pytest.mark.parametrize("n,m,modes", [
        pytest.param(n, m, modes, id="-".join(map(str, (n, m) + modes)))
        for n, m, modes in [
            (1, 8, ()), (63, 8, ()), (64, 8, ()), (65, 8, ()), (200, 16, ()),
            (8, 64, ()), (513, 8, ()), (1100, 4, ()), (200, 16, (1,)),
            (200, 16, (1, 3, 6)), (200, 16, (19,)), (513, 8, (2,))]])
    def test_matches_direct_physical_loop(self, n, m, modes):
        spec, q = varying_spec(n, m, modes=modes)
        got, want = solve_fd(spec, q).u, reference_fd(spec, q)
        assert np.array_equal(got[0], spec.phi)
        assert (np.max(np.abs(got - want))
                <= 1e-12 * np.max(np.abs(want)))

    # step 1000 of 1100 lies in the right half that the FFT far field reached
    @pytest.mark.parametrize("n,step", [(128, 100), (1100, 1000)])
    def test_singular_step_in_later_block(self, n, step):
        m = 4
        spec, q = varying_spec(n, m)
        ws = FdWorkspace.from_spec(spec)
        sig = spec.sigma.values[step]
        # zeroes the divisor of the first, a middle or the last column
        for col in (0, 1, m - 2):
            q_vals = q.values.copy()
            q_vals[step] = -(ws.scale * ws.a[0] + sig * ws.mu[col])
            with warnings.catch_warnings(), \
                    pytest.raises(SingularSystemError) as exc:
                warnings.simplefilter("error", RuntimeWarning)
                solve_fd(spec, Profile(q.grid, q_vals))
            assert exc.value.step == step, col
            assert f"singular step system at step {step}" in str(exc.value)

    @pytest.mark.parametrize("n,step", [(128, 100), (1100, 1000)])
    def test_overflow_in_later_block(self, n, step):
        # finiteness is checked once per block; the error still names the
        # first step whose values overflowed, not the end of its block
        m = 4
        spec, q = varying_spec(n, m)
        f = spec.f.copy()
        f[step, 1:m] = 1.5e308
        with warnings.catch_warnings(), \
                pytest.raises(SingularSystemError) as exc:
            warnings.simplefilter("ignore", RuntimeWarning)
            solve_fd(replace(spec, f=f), q)
        assert exc.value.step == step
        assert f"non-finite values after step {step}" in str(exc.value)

    @pytest.mark.parametrize("n,step", [(128, 100), (1100, 1000)])
    def test_overflowing_column_raises_at_its_step(self, n, step):
        # a source row whose transform overflows in one column alone, on
        # data that excite another: the other columns' sizes stay finite,
        # the overflowing column is stepped, and it raises where it enters
        m = 8
        spec, q = varying_spec(n, m, modes=(1,))
        V = FdWorkspace.from_spec(spec).V
        f = spec.f.copy()
        f[step, 1:m] = 1e308 * np.sign(V[:, 3])
        with np.errstate(over="ignore"):
            coeffs = f[step, 1:m] @ V
        assert np.sum(~np.isfinite(coeffs)) == 1
        with warnings.catch_warnings(), \
                pytest.raises(SingularSystemError) as exc:
            warnings.simplefilter("ignore", RuntimeWarning)
            solve_fd(replace(spec, f=f), q)
        assert exc.value.step == step
        assert f"non-finite values after step {step}" in str(exc.value)

    def test_non_finite_data_refused_where_they_enter(self):
        # a NaN in source row 100 once reached both routes, which told it
        # apart (DomainError from the spectral route, SingularSystemError at
        # step 100 from this one); the spec now refuses it for both
        spec, _ = varying_spec(128, 4)
        f, phi = spec.f.copy(), spec.phi.copy()
        f[100, 1] = np.nan
        phi[2] = np.inf
        for bad in ({"f": f}, {"phi": phi}):
            with pytest.raises(DomainError, match="must be finite"):
                replace(spec, **bad)

    def test_steps_on_past_lost_dominance(self):
        # q(t_90) below -scale*a_0 costs the step system its diagonal
        # dominance in the second block; the divisors stay >= sigma*mu_0 - 1,
        # so the stepping goes on to a finite field
        n, m = 128, 8
        spec, q = varying_spec(n, m)
        ws = FdWorkspace.from_spec(spec)
        q_vals = q.values.copy()
        q_vals[90] = -ws.scale * ws.a[0] - 1.0
        sol = solve_fd(spec, Profile(q.grid, q_vals))
        assert np.all(np.isfinite(sol.u))


def stepped_widths(monkeypatch):
    """The number of eigenbasis columns of every ``FdWorkspace.history``
    call, recorded as ``solve_fd`` makes them."""
    widths = []
    history = FdWorkspace.history

    def recorded(self, rows, *args, **kwargs):
        widths.append(rows.shape[1])
        return history(self, rows, *args, **kwargs)

    monkeypatch.setattr(FdWorkspace, "history", recorded)
    return widths


class TestExcitedColumns:
    """``solve_fd`` steps only the eigenbasis columns its data excite."""

    @pytest.mark.parametrize("modes,width", [((3,), 1), ((1, 3, 6), 3),
                                             ((19,), 1), ((), 15)])
    def test_history_width_is_the_excited_columns(self, monkeypatch, modes,
                                                  width):
        # single-mode data step one column, dense grid data all M - 1
        widths = stepped_widths(monkeypatch)
        solve_fd(*varying_spec(200, 16, modes=modes))
        assert widths and set(widths) == {width}

    @pytest.mark.parametrize("k", [512, 1024, 2048])
    def test_one_high_mode_steps_one_column(self, monkeypatch, k):
        # the spec's grid fields sample sin(pi k i/M) with k i reduced mod
        # 2M, as the eigenbasis does, so one mode's data leave round-off
        # far below the cut in the other columns; 65 steps make one far
        # field call, after the first block
        m = 4096
        tg, sg = TimeGrid(1.0, 65), SpaceGrid(1.0, m)
        phi_k = np.zeros(k)
        phi_k[-1] = 1.0
        f_k = np.zeros((k, 66))
        f_k[-1] = 1.0 + tg.nodes
        spec = ProblemSpec.from_modes(sg, tg, 0.5, constant(tg, 1.0), phi_k,
                                      f_k)
        widths = stepped_widths(monkeypatch)
        solve_fd(spec, constant(tg, 0.1))
        assert widths and set(widths) == {1}

    # 1e-17 of the largest column, and just under the cut
    @pytest.mark.parametrize("rel", [1e-17, 0.9 * oracle._COLUMN_CUT])
    def test_column_below_cut_moves_field_within_bound(self, monkeypatch,
                                                       rel):
        # mode 1 through the initial row, and a source on column 5 alone at
        # ``rel`` of column 1's size: solved together, column 5 is left at
        # 0, and the field differs from the sum of the two solved apart (each
        # the largest column of its own data) by at most the stated bound
        # sqrt(M-1) (1 + Gamma(1-rho) T^rho) _COLUMN_CUT * largest size,
        # which holds as sigma mu_j + q >= 0 here
        n, m = 200, 16
        spec, q = varying_spec(n, m, modes=(1,))
        V = FdWorkspace.from_spec(spec).V
        big = replace(spec, f=np.zeros_like(spec.f))
        largest = np.max(np.abs(big.phi[1:m] @ V))
        f = np.zeros_like(spec.f)
        f[1:, 1:m] = rel * largest * V[:, 4]
        widths = stepped_widths(monkeypatch)
        u = solve_fd(replace(big, f=f), q).u
        assert set(widths) == {1}
        alone = solve_fd(replace(big, f=f, phi=np.zeros(m + 1)), q).u
        assert np.max(np.abs(alone)) > 0.0
        bound = (math.sqrt(m - 1)
                 * (1.0 + math.gamma(1.0 - spec.rho) * spec.t_final ** spec.rho)
                 * oracle._COLUMN_CUT * largest)
        assert np.max(np.abs(u - (solve_fd(big, q).u + alone))) <= bound


class TestSolveFd:
    # n = 1100 takes the far field through the FFT
    @pytest.mark.parametrize("n", [16, 1100])
    def test_zero_data_zero_solution(self, n):
        spec = tiny_spec(n=n, m=8)
        sol = solve_fd(spec, constant(spec.tgrid, 0.1))
        assert np.all(sol.u == 0.0)

    def test_initial_row_is_datum(self):
        spec, q, u_star = make_manufactured(32, 16)
        sol = solve_fd(spec, q)
        assert np.array_equal(sol.u[0], spec.phi)
        assert np.all(sol.u[:, 0] == 0.0) and np.all(sol.u[:, -1] == 0.0)

    def test_manufactured_error_small(self):
        spec, q, u_star = make_manufactured(256, 64)
        sol = solve_fd(spec, q)
        assert np.max(np.abs(sol.u - u_star)) < 1e-3

    def test_refinement_monotone(self):
        errs = []
        for n, m in ((128, 32), (256, 64), (512, 128)):
            spec, q, u_star = make_manufactured(n, m)
            errs.append(np.max(np.abs(solve_fd(spec, q).u - u_star)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-4

    def test_temporal_order_on_smooth_source(self):
        # time-only refinement at fixed fine space grid; the quadratic-in-t
        # field keeps the source regular so the 2-rho rate is visible
        errs = []
        for n in (16, 32, 64):
            spec, q, u_star = make_quadratic(n, 512)
            errs.append(np.max(np.abs(solve_fd(spec, q).u - u_star)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 1.3

    @pytest.mark.parametrize("rho,m", [(0.3, 1024), (0.7, 512), (0.9, 512)])
    def test_temporal_order_across_rho(self, rho, m):
        # the L1 rate 2 - rho on N = 16..64; at rho = 0.3 the space error of
        # M = 512 already pulls the second order to 1.44, so M = 1024
        errs = []
        for n in (16, 32, 64):
            spec, q, u_star = make_quadratic(n, m, rho=rho)
            errs.append(np.max(np.abs(solve_fd(spec, q).u - u_star)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 2.0 - rho - 0.15

    def test_nonnegative_data_nonnegative_solution(self):
        n, m = 64, 32
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        x = sg.nodes
        phi = np.sin(math.pi * x)
        phi[0] = phi[-1] = 0.0
        f = (1.0 + np.sin(tg.nodes))[:, None] * (x ** 2 * (1.0 - x) ** 2)[None, :]
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=Profile(tg, 1.0 + 0.5 * np.sin(tg.nodes)),
                           f=f, phi=phi)
        sol = solve_fd(spec, constant(tg, 0.3))
        assert sol.u.min() >= -1e-10

    def test_singular_step_is_reported(self):
        n, m = 4, 2
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        ws_scale = tg.h ** -0.5 / math.gamma(1.5)
        q_bad = -(ws_scale + 2.0 / sg.h ** 2)  # zeroes the 1x1 diagonal
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=constant(tg, 1.0),
                           f=np.zeros((n + 1, m + 1)), phi=np.zeros(m + 1))
        # raised before the division, so numpy warns of no 0/0
        with warnings.catch_warnings(), \
                pytest.raises(SingularSystemError) as exc:
            warnings.simplefilter("error", RuntimeWarning)
            solve_fd(spec, constant(tg, q_bad))
        assert exc.value.step == 1

    def test_refuses_nonpositive_sigma(self):
        # the spec refuses it before solve_fd could see it
        with pytest.raises(AdmissibilityError):
            solve_fd(tiny_spec(sigma=0.0), constant(TimeGrid(1.0, 8), 0.1))

    def test_leaves_scipy_unloaded(self):
        code = ("import sys\n"
                "import subdiff.cli\n"
                "from subdiff import (ProblemSpec, SpaceGrid, TimeGrid, "
                "constant, solve_fd)\n"
                "import numpy as np\n"
                "tg, sg = TimeGrid(1.0, 8), SpaceGrid(1.0, 8)\n"
                "solve_fd(ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5, "
                "sigma=constant(tg, 1.0), f=np.ones((9, 9)), "
                "phi=np.zeros(9)), constant(tg, 0.1))\n"
                "print('scipy' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(subdiff.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        assert run.stdout.strip() == "False"


class TestCrossSolver:
    """The two routes share only the problem container; their agreement on a
    randomly sampled smooth problem is the strongest single check in here."""

    def test_oracle_imports_only_the_problem_types(self):
        # what the FD route takes from the package is the containers and the
        # error it raises, never a piece of the spectral solve
        allowed = {"FieldSolution", "ProblemSpec", "TimeGrid", "Profile",
                   "SpaceGrid", "SingularSystemError"}
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "subdiff"
                               for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("subdiff")):
                names.update(a.name for a in node.names)
        assert names <= allowed, names - allowed

    @pytest.mark.parametrize("seed", [7, 21, 99])
    def test_routes_agree_on_sampled_problem(self, seed):
        rng = np.random.default_rng(seed)
        spec, q = sample_field_problem(rng, 512, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u_spec = solve_forward(spec, q).u
        u_fd = solve_fd(spec, q).u
        assert np.max(np.abs(u_spec - u_fd)) < 3e-3

    def test_routes_agree_on_manufactured_problem(self):
        spec, q, _ = make_quadratic(256, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u_spec = solve_forward(spec, q).u
        u_fd = solve_fd(spec, q).u
        assert np.max(np.abs(u_spec - u_fd)) < 5e-3
