"""Correctness checks of one CLI operation against reference roots.

An operation fails on an exception, on a nonzero exit code, on a reported
root that matches no reference root, on a reference root inside its search
window that it does not report, or on output files that disagree with what
the solver returned.  A root that matches no reference and a disagreeing or
malformed output file are also wrong output, which makes the run's
`correct` false; a missed root or a nonzero exit only fails the operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

#: models whose roots come from oscispec.oracle.closed_form_roots
CLOSED_FORM_MODELS = ("fixed_free_string", "fixed_fixed_string", "point_mass_string")

#: a reported root matches a reference root within this relative distance;
#: far above the solver's error at h=1e-3 (below 1e-10 on every workload)
#: and far below the spacing of neighbouring roots
MATCH_REL = 1e-6

#: a root closer than this share of the rect side to its edge is not required
RECT_MARGIN = 0.01

#: number of modes `verify` compares
VERIFY_MODES = 3


def param_key(models, model: str, params: dict) -> str:
    """Canonical name of a model instance: all parameters, defaults filled in."""
    full = {**models.model_defaults(model), **params}
    parts = []
    for key in sorted(full):
        value = full[key]
        if isinstance(value, (tuple, list)):
            value = "/".join(f"{float(v):.12g}" for v in value)
        elif isinstance(value, (int, float)):
            value = f"{float(value):.12g}"
        parts.append(f"{key}={value}")
    return f"{model}({','.join(parts)})"


class References:
    """Reference roots of every model instance, sorted by Im."""

    def __init__(self, models, oracle, stored: dict):
        self._models = models
        self._oracle = oracle
        box = stored["box"]
        self.im_min, self.im_max = box["im_min"], box["im_max"]
        self._roots = {
            param_key(models, e["model"], e["params"]): [complex(r["re"], r["im"]) for r in e["roots"]]
            for e in stored["problems"]
        }

    def roots(self, model: str, params: dict) -> list[complex]:
        key = param_key(self._models, model, params)
        if key not in self._roots:
            if model not in CLOSED_FORM_MODELS:
                raise KeyError(f"no reference roots for {key}; rerun make_reference.py")
            p = {**self._models.model_defaults(model), **params}
            ps = self._oracle.closed_form_roots(
                model, self.im_min, self.im_max,
                rho=p["rho"], tension=p["T"], length=p["l"],
                mass=p.get("m0", 1.0), position=p.get("position", 0.5),
            )
            self._roots[key] = [1j * x for x in ps]
        return self._roots[key]

    def in_box(self, lam: complex) -> bool:
        return self.im_min <= lam.imag <= self.im_max and abs(lam.real) <= lam.imag


@dataclass
class Outcome:
    """What the checks found for one execution of one operation."""

    failed: bool = False
    wrong: bool = False
    reasons: list[str] = field(default_factory=list)
    devs: list[float] = field(default_factory=list)
    roots: int = 0

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failed = True
        self.wrong = self.wrong or wrong
        self.reasons.append(reason)


def _match(refs: list[complex], lam: complex, refbook: References, out: Outcome) -> None:
    out.roots += 1
    if not refbook.in_box(lam):
        out.fail(f"root {lam:.10g} lies outside the reference box, unchecked", wrong=True)
        return
    dev = min(abs(lam - r) / abs(r) for r in refs)
    out.devs.append(dev)
    if dev > MATCH_REL:
        out.fail(f"root {lam:.10g} matches no reference root (nearest at {dev:.2e})", wrong=True)


def _require(refs, reported, inside, out: Outcome, what: str) -> None:
    for r in refs:
        if inside(r) and not any(abs(lam - r) <= MATCH_REL * abs(r) for lam in reported):
            out.fail(f"reference root {r:.10g} inside the {what} not reported")


def _scan_inside(scan):
    lo, hi, n = scan
    margin = (hi - lo) / (n - 1)
    return lambda r: lo + margin <= r.imag <= hi - margin


def _rect_inside(rect):
    re0, re1, im0, im1, _, _ = rect
    mr, mi = RECT_MARGIN * (re1 - re0), RECT_MARGIN * (im1 - im0)
    return lambda r: re0 + mr <= r.real <= re1 - mr and im0 + mi <= r.imag <= im1 - mi


def _leading(refs, reported, count, out: Outcome, what: str) -> None:
    """The first `count` reported roots are the first `count` references."""
    if len(reported) < count:
        out.fail(f"{what}: {len(reported)} root(s) reported, {count} needed")
    for i, (lam, r) in enumerate(zip(reported, refs[:count])):
        if abs(lam - r) > MATCH_REL * abs(r):
            out.fail(f"{what} {i + 1} is {lam:.10g}, reference {r:.10g}")


def check(op, rc, error, calls, stdout: str, out_dir: Path, refbook: References, models) -> Outcome:
    """Check one execution of `op`.

    `calls` holds the root lists `oscispec.cli.solve_spectrum` returned
    during the operation, in call order.
    """
    out = Outcome()
    if error is not None:
        out.fail(f"raised {error!r}")
        return out
    if rc != 0:
        out.fail(f"exit code {rc}")
        return out
    lams = [[r.lam for r in results] for results in calls]
    try:
        if op.kind == "solve":
            _check_solve(op, lams, out_dir, refbook, out)
        elif op.kind == "sweep":
            _check_sweep(op, lams, out_dir, refbook, out)
        elif op.kind == "modes":
            _check_modes(op, lams, stdout, out_dir, refbook, out)
        else:
            _check_verify(op, lams, stdout, refbook, models, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out.fail(f"unreadable output: {exc!r}", wrong=True)
    return out


def _check_solve(op, lams, out_dir, refbook, out):
    if len(lams) != 1:
        raise ValueError(f"expected one solve, saw {len(lams)}")
    refs = refbook.roots(op.model, dict(op.params))
    for lam in lams[0]:
        _match(refs, lam, refbook, out)
    written = [complex(r["re"], r["im"]) for r in json.loads((out_dir / "spectrum.json").read_text())]
    if written != lams[0]:
        out.fail("spectrum.json differs from the solver's roots", wrong=True)
    if not (out_dir / "spectrum.csv").is_file():
        out.fail("spectrum.csv missing", wrong=True)
    if op.scan is not None:
        _require(refs, lams[0], _scan_inside(op.scan), out, "scan window")
    if op.rect is not None:
        _require(refs, lams[0], _rect_inside(op.rect), out, "rectangle")


def _check_sweep(op, lams, out_dir, refbook, out):
    problems = op.problems()
    if len(lams) != len(problems):
        out.fail(f"{len(problems) - len(lams)} sweep point(s) did not solve")
        return
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = [r for r in rows if r["status"].startswith("error")]
    if errors:
        out.fail(f"sweep error row: {errors[0]['status']}")
    ok_rows = [complex(float(r["re"]), float(r["im"])) for r in rows if r["status"] == "ok"]
    flat = [lam for point in lams for lam in point]
    if len(ok_rows) != len(flat) or any(
        abs(a - b) > 1e-9 * abs(b) for a, b in zip(ok_rows, flat)
    ):
        out.fail("sweep.csv differs from the solver's roots", wrong=True)
    for (model, params), point in zip(problems, lams):
        refs = refbook.roots(model, params)
        for lam in point:
            _match(refs, lam, refbook, out)
        _require(refs, point, _scan_inside(op.scan), out, f"scan window at {params}")


def _check_modes(op, lams, stdout, out_dir, refbook, out):
    if len(lams) != 1:
        raise ValueError(f"expected one solve, saw {len(lams)}")
    refs = refbook.roots(op.model, dict(op.params))
    count = max(op.indices)
    _leading([r for r in refs if _scan_inside(op.scan)(r)], lams[0], count, out, "mode")
    for lam in lams[0][:count]:
        _match(refs, lam, refbook, out)
    for index in op.indices:
        if f"mode {index} at lambda=" not in stdout:
            out.fail(f"mode {index} not reported", wrong=True)
        _check_mode_file(out_dir / f"mode_{index:03d}.csv", out)


def _check_mode_file(path: Path, out: Outcome) -> None:
    """Real-split shape of a model pinned at y=0: 2N=4 columns
    (Re u, Re u', Im u, Im u'), unit max-abs, zero displacement at y=0."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [[float(x) for x in row] for row in rows[1:]]
    if header != ["y", "comp_1", "comp_2", "comp_3", "comp_4"] or len(body) < 2:
        out.fail(f"{path.name}: unexpected layout {header}", wrong=True)
        return
    values = [abs(x) for row in body for x in row[1:]]
    if not all(math.isfinite(x) for x in values) or abs(max(values) - 1.0) > 1e-9:
        out.fail(f"{path.name}: not normalized to unit max-abs", wrong=True)
    if body[0][0] != 0.0 or max(abs(body[0][1]), abs(body[0][3])) > 1e-6:
        out.fail(f"{path.name}: displacement does not vanish at the pinned end", wrong=True)


def _check_verify(op, lams, stdout, refbook, models, out):
    if len(lams) != 1:
        raise ValueError(f"expected one solve, saw {len(lams)}")
    refs = refbook.roots(op.model, dict(op.params))
    inside = _scan_inside(models.SCAN_DEFAULTS[op.model])
    compared = lams[0][:VERIFY_MODES]
    _leading([r for r in refs if inside(r)], compared, VERIFY_MODES, out, "verified mode")
    for lam in compared:
        _match(refs, lam, refbook, out)
    if "all deviations below" not in stdout:
        out.fail("verify did not report success", wrong=True)
