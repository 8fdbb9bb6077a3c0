"""Outside-in layer tracing of one ``subdiff`` CLI call.

Spans come from wrapping each public function at the name its caller bound:
``from .forward import solve_forward`` inside ``cli`` makes a second binding,
so wrapping only the defining module would miss the call.  The package itself
is not modified.

The per-scalar Mittag-Leffler calls (hundreds of thousands on a large forward
solve) are too many for spans.  They are aggregated into counts and seconds
at their boundary, and their time is charged to the span that encloses them,
so self times stay exact.
"""

from __future__ import annotations

import functools
import importlib
import time

#: ``x = lam * t**rho`` at or below this goes to the evaluator's series band,
#: above it to the asymptotic band with its branch-cut fallback.  The split is
#: computed from the arguments, outside the evaluator.
MLF_BAND_SPLIT = 5.0

# (module, attribute, span name).  ``cli`` and ``inverse`` call forward-route
# functions through their own bindings, so each binding is listed.
SPAN_BINDINGS = (
    ("subdiff.cli", "solve_forward", "forward.solve_forward"),
    ("subdiff.cli", "residual_check", "forward.residual_check"),
    ("subdiff.cli", "solve_fd", "oracle.solve_fd"),
    ("subdiff.cli", "synthesize_data", "inverse.synthesize_data"),
    ("subdiff.cli", "recover_q", "inverse.recover_q"),
    ("subdiff.inverse", "solve_forward", "forward.solve_forward"),
    ("subdiff.inverse", "solve_mode_set", "inverse.sweep"),
    ("subdiff.inverse", "caputo_l1", "frackernel.caputo_l1"),
    ("subdiff.forward", "solve_mode_set", "forward.solve_mode_set"),
    ("subdiff.forward", "solve_mode", "mode_solver.solve_mode"),
    ("subdiff.forward", "caputo_l1", "frackernel.caputo_l1"),
    ("subdiff.forward", "sine_coefficients", "spectral.sine_coefficients"),
    ("subdiff.forward", "assemble_field", "spectral.assemble_field"),
    ("subdiff.mode_solver", "picard_step", "mode_solver.picard_step"),
    ("subdiff.mode_solver", "convolve", "frackernel.convolve"),
    ("subdiff.oracle", "FdWorkspace.history", "oracle.history"),
)
#: weight builds are keyed by their arguments to measure how often a build
#: repeats one already made in the process
WEIGHTS_BINDING = ("subdiff.mode_solver", "build_weights",
                   "frackernel.build_weights")
MLF_BINDING = ("subdiff.frackernel", "relaxation")

# Span record fields.
NAME, START, END, PARENT, AGG = range(5)


class Tracer:
    """In-memory span recorder; nothing is written until the call ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index, aggregated s]
        self._open: list = []
        self.mlf = {"calls": [0, 0], "s": [0.0, 0.0], "repeats": 0}
        self.weights = {"calls": 0, "repeats": 0}

    def span(self, name, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else None, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()
        return wrapped

    def weights_span(self, name, fn):
        """Span wrapper for ``build_weights(grid, rho, lam_eff)`` that also
        counts calls repeating an earlier argument tuple."""
        seen, stats = set(), self.weights
        inner = self.span(name, fn)

        @functools.wraps(fn)
        def wrapped(grid, rho, lam_eff, *args, **kwargs):
            key = (grid, rho, lam_eff)
            stats["calls"] += 1
            if key in seen:
                stats["repeats"] += 1
            seen.add(key)
            return inner(grid, rho, lam_eff, *args, **kwargs)
        return wrapped

    def mlf_aggregate(self, fn):
        """``relaxation(rho, lam, t)`` wrapped with per-band counts and time."""
        seen, stats = set(), self.mlf
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapped(rho, lam, t):
            t0 = clock()
            value = fn(rho, lam, t)
            dt = clock() - t0
            band = 0 if lam * t ** rho <= MLF_BAND_SPLIT else 1
            stats["calls"][band] += 1
            stats["s"][band] += dt
            key = (rho, lam, t)
            if key in seen:
                stats["repeats"] += 1
            else:
                seen.add(key)
            if open_:
                spans[open_[-1]][AGG] += dt
            return value
        return wrapped

    def install(self) -> None:
        """Rebind every traced name in the imported package."""
        for module, attr, name in SPAN_BINDINGS:
            owner, attr = _owner(module, attr)
            setattr(owner, attr, self.span(name, getattr(owner, attr)))
        module, attr, name = WEIGHTS_BINDING
        owner, attr = _owner(module, attr)
        setattr(owner, attr, self.weights_span(name, getattr(owner, attr)))
        owner, attr = _owner(*MLF_BINDING)
        setattr(owner, attr, self.mlf_aggregate(getattr(owner, attr)))

    def record(self) -> dict:
        return {"spans": self.spans, "mlf": self.mlf, "weights": self.weights}


def _owner(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def self_times(spans) -> list:
    """Each span's duration minus its child spans and aggregated calls.

    Calls within one thread nest, so the children of a span never overlap
    and their durations add up to the part of the span they cover.
    """
    covered = [rec[AGG] for rec in spans]
    for rec in spans:
        if rec[PARENT] is not None:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]


def totals(spans) -> dict:
    """Per span name: ``calls``, ``s`` (covered time) and ``self_s``.

    A span nested inside a span of the same name adds to ``calls`` and
    ``self_s`` but not to ``s``, so recursion is not counted twice.
    """
    own = self_times(spans)
    out: dict = {}
    for i, rec in enumerate(spans):
        t = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += own[i]
        parent = rec[PARENT]
        while parent is not None and spans[parent][NAME] != rec[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            t["s"] += rec[END] - rec[START]
    return out
