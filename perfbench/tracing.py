"""Spans around `oscispec`'s layer functions, recorded from outside.

Each public function is wrapped at the attribute the program calls it
through, so the source stays untouched.  A wrapper appends one span (name,
start, end, parent span, op id, annotation) to an in-memory list; the
benchmark writes the list out when it ends.  Self time is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from time import perf_counter

#: (module, attribute, span name): every call site the program uses
TARGETS = (
    ("spectrum", "reduce_complex", "reduction"),
    ("spectrum", "reduce_real_split", "reduction"),
    ("spectrum", "integrate_fundamental", "integrate"),
    ("spectrum", "characteristic_determinant", "det"),
    ("spectrum", "scan_real_axis", "scan"),
    ("spectrum", "refine_root", "refine"),
    ("cli", "solve_spectrum", "solve"),
    ("cli", "mode_shape", "mode"),
    ("cli", "fd_polynomial_eigenvalues", "fd"),
    ("cli", "closed_form_roots", "closed_form"),
    ("models", "build_model", "build"),
)


def _rk4_steps(args, kwargs, result):
    # integrate_fundamental(system, interval, step, keep_samples=False):
    # the step count is the interval length over the step the integrator
    # reports it used (FundamentalMatrix.step)
    system, interval = args[:2]
    lo, hi = system.partition.interval(interval)
    sampled = bool(args[3] if len(args) > 3 else kwargs.get("keep_samples", False))
    return {"steps": round((hi - lo) / result.step), "sampled": sampled}


ANNOTATE = {
    "integrate": _rk4_steps,
    "scan": lambda args, kwargs, result: {"brackets": len(result)},
    "refine": lambda args, kwargs, result: {
        "iterations": result.iterations,
        "converged": bool(result.converged),
    },
    "mode": lambda args, kwargs, result: {"samples": len(result.ys)},
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "info": self.info,
        }


class Tracer:
    """Traced versions of the TARGETS, switched in and out as a whole."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self.op = None  # id of the operation being traced, None at set-up
        self._stack: list[int] = []
        self._sites = []
        for module_name, attr, name in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._sites.append((module, attr, original, self._wrap(original, name)))

    def _wrap(self, fn, name):
        spans, stack, annotate = self.spans, self._stack, ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    def activate(self, on: bool) -> None:
        for module, attr, original, traced in self._sites:
            setattr(module, attr, traced if on else original)

    def begin_op(self, op_id) -> Span:
        """Open the span of one CLI operation; close it with end_op."""
        self.op = op_id
        span = Span("op", None, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def end_op(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self.op = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


#: per-layer metrics: name -> unit, in report order
LAYER_METRICS = {
    "models.build_calls": "count",
    "models.build_s": "s",
    "reduction.calls": "count",
    "reduction.self_s": "s",
    "reduction.share": "ratio",
    "integrate.calls": "count",
    "integrate.sampled_calls": "count",
    "integrate.rk4_steps": "count",
    "integrate.self_s": "s",
    "integrate.ns_per_step": "ns",
    "integrate.share": "ratio",
    "spectrum.det_evals": "count",
    "spectrum.det_self_s": "s",
    "spectrum.det_p50_ms": "ms",
    "spectrum.det_tail_ms": "ms",
    "spectrum.det_tail_pct": "%",
    "spectrum.scan_calls": "count",
    "spectrum.scan_det_evals": "count",
    "spectrum.scan_brackets": "count",
    "spectrum.scan_s": "s",
    "spectrum.refine_calls": "count",
    "spectrum.refine_det_evals": "count",
    "spectrum.refine_iterations": "count",
    "spectrum.refine_converged_frac": "ratio",
    "spectrum.refine_evals_per_root": "count",
    "spectrum.refine_s": "s",
    "spectrum.mode_calls": "count",
    "spectrum.mode_samples": "count",
    "spectrum.mode_s": "s",
    "oracle.fd_calls": "count",
    "oracle.fd_s": "s",
    "oracle.closed_form_s": "s",
    "cli.other_s": "s",
    "trace.overhead_frac": "ratio",
}

#: counts that are deterministic at a fixed step; they must repeat exactly
#: in every traced round
COUNTS = tuple(k for k, unit in LAYER_METRICS.items() if unit == "count")

#: percentiles tried for the determinant tail, highest first
_TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of _TAIL_PCTS with at
    least ten samples beyond it; (0, 0) below eleven samples."""
    n = len(durations)
    for pct in _TAIL_PCTS:
        if n * (1 - pct / 100) >= 10:
            ordered = sorted(durations)
            return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]
    return 0.0, 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def round_metrics(spans: list[Span], round_id: int, roots_reported: int) -> dict:
    """Layer metrics of one traced round: the spans whose op id starts with
    `round_id`, plus the set-up spans (op id None).

    `roots_reported` is the number of roots the round's operations reported,
    the base of refine_evals_per_root.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    by = {}
    for i, s in enumerate(spans):
        if s.op is None or s.op[0] == round_id:
            by.setdefault(s.name, []).append(i)

    def total(name):
        return sum(spans[i].duration for i in by.get(name, ()))

    def self_time(name):
        return sum(spans[i].duration - child[i] for i in by.get(name, ()))

    def count(name):
        return len(by.get(name, ()))

    def under(name, parent_name):
        return sum(
            1
            for i in by.get(name, ())
            if spans[i].parent is not None and spans[spans[i].parent].name == parent_name
        )

    ops_s = total("op")
    integ = [spans[i].info for i in by.get("integrate", ())]
    steps = sum(x["steps"] for x in integ)
    refines = [spans[i].info for i in by.get("refine", ())]
    det_ms = [spans[i].duration * 1e3 for i in by.get("det", ())]
    tail_pct, tail_ms = tail(det_ms)
    return {
        "models.build_calls": count("build"),
        "models.build_s": total("build"),
        "reduction.calls": count("reduction"),
        "reduction.self_s": self_time("reduction"),
        "reduction.share": _ratio(self_time("reduction"), ops_s),
        "integrate.calls": len(integ),
        "integrate.sampled_calls": sum(1 for x in integ if x["sampled"]),
        "integrate.rk4_steps": steps,
        "integrate.self_s": self_time("integrate"),
        "integrate.ns_per_step": _ratio(self_time("integrate") * 1e9, steps),
        "integrate.share": _ratio(self_time("integrate"), ops_s),
        "spectrum.det_evals": len(det_ms),
        "spectrum.det_self_s": self_time("det"),
        "spectrum.det_p50_ms": statistics.median(det_ms) if det_ms else 0.0,
        "spectrum.det_tail_ms": tail_ms,
        "spectrum.det_tail_pct": tail_pct,
        "spectrum.scan_calls": count("scan"),
        "spectrum.scan_det_evals": under("det", "scan"),
        "spectrum.scan_brackets": sum(spans[i].info["brackets"] for i in by.get("scan", ())),
        "spectrum.scan_s": total("scan"),
        "spectrum.refine_calls": len(refines),
        "spectrum.refine_det_evals": under("det", "refine"),
        "spectrum.refine_iterations": sum(x["iterations"] for x in refines),
        "spectrum.refine_converged_frac": _ratio(sum(x["converged"] for x in refines), len(refines)),
        "spectrum.refine_evals_per_root": _ratio(under("det", "refine"), roots_reported),
        "spectrum.refine_s": total("refine"),
        "spectrum.mode_calls": count("mode"),
        "spectrum.mode_samples": sum(spans[i].info["samples"] for i in by.get("mode", ())),
        "spectrum.mode_s": total("mode"),
        "oracle.fd_calls": count("fd"),
        "oracle.fd_s": total("fd"),
        "oracle.closed_form_s": total("closed_form"),
        "cli.other_s": self_time("op"),
    }
