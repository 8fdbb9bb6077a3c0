"""One benchmark operation: a single ``subdiff`` CLI call in a fresh interpreter.

    python3 bench/worker.py --result FILE [--trace] -- CLI ARGS...

The package is imported from the ``src`` directory of the checkout that holds
this file.  Every operation starts with the package's module-level caches
empty, as a CLI user's does.  The import of the package is timed as set-up;
the timer for the operation itself goes around ``subdiff.cli.main`` only.
A fixed reference computation is timed just before and just after the call,
so that the call's time can be expressed in units of the machine's speed at
that moment.  The result (exit code, times, peak RSS and, when traced, the spans)
is written to FILE as JSON once the call has returned.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_s() -> float:
    """Seconds for a fixed amount of work that shares no code with the
    package: scalar float math in the interpreter, numpy convolutions and
    matrix-vector products, the kinds of work the workloads do.

    The host's speed drifts by tens of percent over minutes when other
    tenants load it; the ratio of an operation's time to this reference,
    measured next to it, cancels most of that drift.
    """
    import math
    import numpy as np
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 300_000):
        x = i * 1e-4
        acc += math.exp(-x) * x ** 0.5 / math.gamma(1.0 + (i % 7) * 0.1)
    a = np.linspace(0.0, 1.0, 4097)
    for _ in range(40):
        acc += float(np.convolve(a, a)[4096])
    m = np.linspace(0.0, 1.0, 2048 * 127).reshape(2048, 127)
    for _ in range(300):
        acc += float((a[:2048] @ m)[0])
    return time.perf_counter() - t0


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    traced = "--trace" in opts

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import subdiff.cli
    setup_s = time.perf_counter() - t0

    import json
    import resource

    cli_main = subdiff.cli.main
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        cli_main = tracer.span("cli.main", cli_main)

    ref_before = reference_s()
    t1 = time.perf_counter()
    rc = cli_main(cli_args)
    main_s = time.perf_counter() - t1
    ref_s = 0.5 * (ref_before + reference_s())

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump({"returncode": rc, "setup_s": setup_s, "main_s": main_s,
                   "ref_s": ref_s, "rss_mb": rss_mb,
                   "trace": tracer.record() if tracer else None}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
