"""Finite-difference reference solver, and its agreement with the spectral route."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import subdiff
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
        # the dense step matrix (scale*a_0 + q_1) I + (sigma_1/h^2) T maps
        # the first computed row back onto its right-hand side
        spec, _ = make_manufactured(32, 16)
        ws = FdWorkspace.from_spec(spec)
        M, h = spec.sgrid.n_cells, spec.sgrid.h
        sig, q = spec.sigma.values[1], spec.q.values[1]
        T = 2.0 * np.eye(M - 1) - np.eye(M - 1, k=1) - np.eye(M - 1, k=-1)
        A = (ws.scale * ws.a[0] + q) * np.eye(M - 1) + sig / h ** 2 * T
        u = solve_fd(spec).u
        rhs = ws.history(u[:, 1:M], 1) + spec.f[1, 1:M]
        assert (np.max(np.abs(A @ u[1, 1:M] - rhs))
                <= 1e-13 * np.max(np.abs(rhs)))

    def test_dominance_threshold(self):
        ws = FdWorkspace.from_spec(tiny_spec(n=16, m=8))
        assert ws.dominant(0.0)
        assert ws.dominant(-ws.scale + 1e-9)
        assert not ws.dominant(-ws.scale - 1e-9)

    def test_first_step_history_is_initial_row(self):
        ws = FdWorkspace.from_spec(tiny_spec(n=4, m=4))
        interior = np.arange(20.0).reshape(5, 4)
        assert np.allclose(ws.history(interior, 1), ws.scale * interior[0])


class TestSolveFd:
    def test_zero_data_zero_solution(self):
        sol = solve_fd(tiny_spec(n=16, m=8))
        assert np.all(sol.u == 0.0)
        assert sol.diagnostics["diagonally_dominant"]

    def test_initial_row_is_datum(self):
        spec, u_star = make_manufactured(32, 16)
        sol = solve_fd(spec)
        assert np.array_equal(sol.u[0], spec.phi)
        assert np.all(sol.u[:, 0] == 0.0) and np.all(sol.u[:, -1] == 0.0)

    def test_manufactured_error_small(self):
        spec, u_star = make_manufactured(256, 64)
        sol = solve_fd(spec)
        assert np.max(np.abs(sol.u - u_star)) < 1e-3

    def test_refinement_monotone(self):
        errs = []
        for n, m in ((128, 32), (256, 64), (512, 128)):
            spec, u_star = make_manufactured(n, m)
            errs.append(np.max(np.abs(solve_fd(spec).u - u_star)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-4

    def test_temporal_order_on_smooth_source(self):
        # time-only refinement at fixed fine space grid; the quadratic-in-t
        # field keeps the source regular so the 2-rho rate is visible
        errs = []
        for n in (16, 32, 64):
            spec, u_star = make_quadratic(n, 512)
            errs.append(np.max(np.abs(solve_fd(spec).u - u_star)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 1.3

    def test_nonnegative_data_nonnegative_solution(self):
        n, m = 64, 32
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        x = sg.nodes
        phi = np.sin(math.pi * x)
        phi[0] = phi[-1] = 0.0
        f = (1.0 + np.sin(tg.nodes))[:, None] * (x ** 2 * (1.0 - x) ** 2)[None, :]
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=Profile(tg, 1.0 + 0.5 * np.sin(tg.nodes)),
                           q=constant(tg, 0.3), f=f, phi=phi)
        sol = solve_fd(spec)
        assert sol.u.min() >= -1e-10

    def test_dominance_flag_drops_for_strongly_negative_q(self):
        spec = tiny_spec(n=16, m=8, q=-5.0)  # scale ~ 4.51, so 4.51 - 5 < 0
        sol = solve_fd(spec)
        assert not sol.diagnostics["diagonally_dominant"]

    def test_singular_step_is_reported(self):
        n, m = 4, 2
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        ws_scale = tg.h ** -0.5 / math.gamma(1.5)
        q_bad = -(ws_scale + 2.0 / sg.h ** 2)  # zeroes the 1x1 diagonal
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=constant(tg, 1.0), q=constant(tg, q_bad),
                           f=np.zeros((n + 1, m + 1)), phi=np.zeros(m + 1))
        # raised before the division, so numpy warns of no 0/0
        with warnings.catch_warnings(), \
                pytest.raises(SingularSystemError) as exc:
            warnings.simplefilter("error", RuntimeWarning)
            solve_fd(spec)
        assert exc.value.step == 1

    def test_refuses_missing_q(self):
        with pytest.raises(DomainError):
            solve_fd(tiny_spec(q=None))

    def test_refuses_nonpositive_sigma(self):
        with pytest.raises(AdmissibilityError):
            solve_fd(tiny_spec(sigma=0.0))

    def test_leaves_scipy_unloaded(self):
        code = ("import sys\n"
                "import subdiff.cli\n"
                "from subdiff import (ProblemSpec, SpaceGrid, TimeGrid, "
                "constant, solve_fd)\n"
                "import numpy as np\n"
                "tg, sg = TimeGrid(1.0, 8), SpaceGrid(1.0, 8)\n"
                "solve_fd(ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5, "
                "sigma=constant(tg, 1.0), q=constant(tg, 0.1), "
                "f=np.ones((9, 9)), phi=np.zeros(9)))\n"
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

    @pytest.mark.parametrize("seed", [7, 21, 99])
    def test_routes_agree_on_sampled_problem(self, seed):
        rng = np.random.default_rng(seed)
        spec = sample_field_problem(rng, 512, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u_spec = solve_forward(spec).u
        u_fd = solve_fd(spec).u
        assert np.max(np.abs(u_spec - u_fd)) < 3e-3

    def test_routes_agree_on_manufactured_problem(self):
        spec, _ = make_quadratic(256, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u_spec = solve_forward(spec).u
        u_fd = solve_fd(spec).u
        assert np.max(np.abs(u_spec - u_fd)) < 5e-3
