"""subdiff benchmark: cold-start CLI operations in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout (the package is imported from the
checkout's ``src``).  One operation is one ``subdiff`` CLI command in a fresh
interpreter (``worker.py``); operations run one after another, each starting
when the previous one has ended, until the next one would overrun
``--seconds``.  Every operation's artifacts are gated for correctness and
must be byte-identical across the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics, including
the tracing overhead.

The end-to-end time is ``wall_norm``: the interquartile mean over operations
of the ``cli.main`` time divided by the time of a fixed reference computation
made in the same process around it (``worker.reference_s``).  Raw seconds
drift with the load other tenants put on a shared host; the ratio does much
less.  Raw ``wall_s`` and the reference time ``ref_s`` are still reported, in
the details and among the per-layer metrics.  The last line of standard
output is the result as one JSON object; the lines before it and
``bench/_runs/<run>/result.json`` hold the details: machine facts, every
operation, the tail percentile of ``wall_s`` with its sample count, and the
layer shares.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import interquartile_mean, median, tail_percentile, tally
from tracer import totals
from workloads import WORKLOADS, check, cli_args, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: untraced operations, and pairs in a traced run, made even past --seconds
MIN_OPS = 3
MIN_TRACE_PAIRS = 2
OP_TIMEOUT_S = 150
#: environment of every worker: without ``SUBDIFF_THREADS``, so that each
#: operation solves its modes serially whatever the caller's shell sets
#: (the tracer's span stack also assumes one thread)
THREADS_VAR = "SUBDIFF_THREADS"
WORKER_ENV = {k: v for k, v in os.environ.items() if k != THREADS_VAR}

END_TO_END = {"wall_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB",
              "residual": "abs", "solution_err": "abs"}


def layer_metrics(trace: dict, main_s: float, info: dict) -> dict:
    """Per-layer metrics of one traced operation, as ``name: (value, unit)``.

    Layers that run on every workload report seconds; the oracle, the inverse
    iteration and the residual check run on one or two workloads only and
    report their share of the operation's time instead, so that no timing
    reads as a constant zero.
    """
    tot = totals(trace["spans"])

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def share(seconds):
        return 100.0 * seconds / main_s

    mlf, weights = trace["mlf"], trace["weights"]
    m_calls, m_s = sum(mlf["calls"]), sum(mlf["s"])
    w_calls = weights["calls"]
    solves = get("mode_solver.solve_mode", "calls")
    fd_s, history_s = get("oracle.solve_fd", "s"), get("oracle.history", "s")
    return {
        "mlf.relaxation.calls": (m_calls, "count"),
        "mlf.relaxation.s": (m_s, "s"),
        "mlf.relaxation.us_per_call": (1e6 * m_s / max(m_calls, 1), "us"),
        "mlf.calls.x_le_5": (mlf["calls"][0], "count"),
        "mlf.calls.x_gt_5": (mlf["calls"][1], "count"),
        "mlf.s.x_le_5": (mlf["s"][0], "s"),
        "mlf.s.x_gt_5": (mlf["s"][1], "s"),
        "mlf.repeat_ratio": (mlf["repeats"] / max(m_calls, 1), "ratio"),
        "frackernel.build_weights.calls": (w_calls, "count"),
        "frackernel.build_weights.s": (
            get("frackernel.build_weights", "s"), "s"),
        "frackernel.build_weights.self_s": (
            get("frackernel.build_weights", "self_s"), "s"),
        "frackernel.build_weights.repeat_ratio": (
            weights["repeats"] / max(w_calls, 1), "ratio"),
        "frackernel.convolve.calls": (
            get("frackernel.convolve", "calls"), "count"),
        "frackernel.convolve.s": (get("frackernel.convolve", "s"), "s"),
        "frackernel.caputo_l1.calls": (
            get("frackernel.caputo_l1", "calls"), "count"),
        "frackernel.caputo_l1.s": (get("frackernel.caputo_l1", "s"), "s"),
        "mode_solver.solve_mode.calls": (solves, "count"),
        "mode_solver.solve_mode.s": (get("mode_solver.solve_mode", "s"), "s"),
        "mode_solver.picard_step.calls": (
            get("mode_solver.picard_step", "calls"), "count"),
        "mode_solver.picard_step.self_s": (
            get("mode_solver.picard_step", "self_s"), "s"),
        "mode_solver.iters_per_solve": (
            get("mode_solver.picard_step", "calls") / max(solves, 1),
            "ratio"),
        "spectral.assemble_field.calls": (
            get("spectral.assemble_field", "calls"), "count"),
        "spectral.assemble_field.s": (
            get("spectral.assemble_field", "s"), "s"),
        "spectral.sine_coefficients.s": (
            get("spectral.sine_coefficients", "s"), "s"),
        "forward.solve_forward.s": (get("forward.solve_forward", "s"), "s"),
        "forward.solve_mode_set.s": (
            get("forward.solve_mode_set", "s"), "s"),
        "forward.residual_check.calls": (
            get("forward.residual_check", "calls"), "count"),
        "forward.residual_check.share": (
            share(get("forward.residual_check", "s")), "%"),
        "oracle.solve_fd.share": (share(fd_s), "%"),
        "oracle.history.calls": (get("oracle.history", "calls"), "count"),
        "oracle.history.share": (share(history_s), "%"),
        "oracle.step_self.share": (share(fd_s - history_s), "%"),
        "inverse.synthesize_data.share": (
            share(get("inverse.synthesize_data", "s")), "%"),
        "inverse.recover_q.share": (
            share(get("inverse.recover_q", "s")), "%"),
        "inverse.sweep.calls": (get("inverse.sweep", "calls"), "count"),
        "inverse.sweep.share": (share(get("inverse.sweep", "s")), "%"),
        "inverse.sweeps": (info.get("sweeps", 0), "count"),
        "inverse.measured_ratio": (info.get("measured_ratio", 0.0), "ratio"),
        "inverse.clamp_count": (info.get("clamp_count", 0), "count"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.artifact_bytes": (info["artifact_bytes"], "bytes"),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        # set or not here, the workers run without it
        "caller_" + THREADS_VAR: os.environ.get(THREADS_VAR),
        "seed": seed,
    }


def _hashes(out: Path, names) -> dict:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in names if (out / n).is_file()}


class Run:
    """One benchmark run: the operations made and their gate results."""

    def __init__(self, workload, seed: int, run_dir: Path):
        self.w = workload
        self.dir = run_dir
        self.cfg = make_config(workload, seed, ROOT / "configs")
        self.cfg_path = run_dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.ops: list = []
        self.ref_hashes = None
        self.ref_info = None

    def op(self, traced: bool) -> dict:
        i = len(self.ops)
        out, res_path = self.dir / f"op{i}", self.dir / f"op{i}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--result", str(res_path)]
        cmd += (["--trace"] if traced else []) + ["--"]
        cmd += cli_args(self.w, self.cfg_path, out)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=OP_TIMEOUT_S, cwd=self.dir,
                                  env=WORKER_ENV)
            rc, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, err = None, f"timed out after {OP_TIMEOUT_S} s"
        op = {"traced": traced, "elapsed_s": time.perf_counter() - t0,
              "returncode": rc, "problems": []}
        if rc != 0:
            last = err.strip().splitlines()[-1:] or [""]
            op["problems"].append(f"exit code {rc}: {last[0]}")
        if res_path.is_file():
            op.update(json.loads(res_path.read_text()))
        else:
            op["problems"].append("worker wrote no result")
        self._gate(op, out)
        shutil.rmtree(out, ignore_errors=True)
        res_path.unlink(missing_ok=True)
        self.ops.append(op)
        return op

    def _gate(self, op: dict, out: Path) -> None:
        hashes = _hashes(out, self.w.artifacts)
        if self.ref_hashes is None and len(hashes) == len(self.w.artifacts):
            info, problems = check(self.w, self.cfg, out)
            info["artifact_bytes"] = sum(
                (out / n).stat().st_size for n in self.w.artifacts)
            op["problems"] += problems
            if not problems:
                self.ref_hashes, self.ref_info = hashes, info
        elif hashes != self.ref_hashes:
            info, problems = check(self.w, self.cfg, out)
            op["problems"] += problems or [
                "artifacts differ from the run's first correct operation"]


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    run_dir = BENCH / "_runs" / f"{workload.name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    facts = machine_facts(seed)
    print("machine: " + json.dumps(facts, sort_keys=True))

    # Compile the package's bytecode and warm the file cache once, as an
    # installed package would be; every timed operation still imports cold.
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import subdiff.cli", str(ROOT / "src")],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=OP_TIMEOUT_S, cwd=run_dir, check=False,
                   env=WORKER_ENV)

    r = Run(workload, seed, run_dir)
    start = time.perf_counter()
    while True:
        kinds = [op["traced"] for op in r.ops]
        if traced:
            enough = min(kinds.count(False), kinds.count(True)) >= \
                MIN_TRACE_PAIRS
            nxt = len(r.ops) % 2 == 1
        else:
            enough, nxt = len(r.ops) >= MIN_OPS, False
        if r.ops and enough:
            est = median([op["elapsed_s"] for op in r.ops])
            if time.perf_counter() - start + est > seconds:
                break
        op = r.op(nxt)
        status = "ok" if not op["problems"] else "FAIL " + "; ".join(
            op["problems"])
        print(f"op {len(r.ops) - 1}: {'traced' if nxt else 'untraced'} "
              f"main {op.get('main_s', float('nan')):.4f} s, setup "
              f"{op.get('setup_s', float('nan')):.4f} s, rss "
              f"{op.get('rss_mb', float('nan')):.1f} MB: {status}")
    return summarize(r, facts, traced)


def summarize(r: Run, facts: dict, traced: bool) -> dict:
    attempted, failed, failed_ratio = tally([op["problems"] for op in r.ops])
    good = [op for op in r.ops if not op["problems"]]
    plain = [op for op in good if not op["traced"]]
    walls = [op["main_s"] for op in plain]
    tail = tail_percentile(walls)
    detail = {"workload": r.w.name, "why": r.w.why, "machine": facts,
              "config": r.cfg,
              "attempted": attempted, "failed": failed,
              "failed_ratio": failed_ratio,
              "operations": [{k: v for k, v in op.items() if k != "trace"}
                             for op in r.ops]}
    print(f"failed_ratio: {failed_ratio} ({failed} of {attempted})")
    if walls:
        print(f"wall_s: {median(walls)} s median of {len(walls)} untraced "
              f"samples; reference {median([op['ref_s'] for op in plain])} s")
    if tail is None:
        print(f"wall_s_hi: none ({len(walls)} untraced samples; a tail "
              f"percentile needs more than 10)")
    else:
        print(f"wall_s_hi: {tail[0]} s at p{tail[1]:.1f} of {tail[2]} "
              f"samples")
    detail["wall_s_hi"] = tail

    metrics = {}
    if good and r.ref_info is not None:
        if not traced:
            values = {
                "wall_norm": interquartile_mean(
                    [op["main_s"] / op["ref_s"] for op in plain]),
                "setup_s": median([op["setup_s"] for op in plain]),
                "peak_rss_mb": median([op["rss_mb"] for op in plain]),
                "residual": r.ref_info["residual"],
                "solution_err": r.ref_info["solution_err"],
            }
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
        else:
            metrics = traced_metrics(r, good)
    detail["metrics"] = metrics
    (r.dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    if traced:
        (r.dir / "spans.json").write_text(json.dumps(
            [op["trace"] for op in r.ops if op.get("trace")]))
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_metrics(r: Run, good: list) -> dict:
    traced = [op for op in good if op["traced"]]
    plain = [op for op in good if not op["traced"]]
    if not traced or not plain:
        return {}
    per_op = [layer_metrics(op["trace"], op["main_s"], r.ref_info)
              for op in traced]
    metrics = {name: {"value": median([m[name][0] for m in per_op]),
                      "unit": unit}
               for name, (_, unit) in per_op[0].items()}
    plain_wall = median([op["main_s"] for op in plain])
    wall = median([op["main_s"] for op in traced])
    metrics["wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["ref_s"] = {"value": median([op["ref_s"] for op in plain]),
                        "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - plain_wall, "unit": "s"}
    layers = {"mlf": metrics["mlf.relaxation.s"]["value"]}
    for name in ("frackernel.build_weights", "frackernel.convolve",
                 "mode_solver.solve_mode", "forward.solve_forward"):
        layers[name] = metrics[f"{name}.s"]["value"]
    shares = ", ".join(f"{k} {100.0 * v / wall:.1f}%"
                       for k, v in layers.items())
    print(f"layer shares of traced wall {wall:.4f} s: {shares}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "subdiff" / "cli.py",
                           ROOT / "configs")
               if not p.exists()]
    if missing:
        print(f"not a subdiff source checkout: missing "
              f"{[str(p.relative_to(ROOT)) for p in missing]}",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
