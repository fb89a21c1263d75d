"""Regenerate reference_roots.json, the reference roots of every model
instance the workloads solve that has no closed form.

    python3 perfbench/make_reference.py

Each root is seeded from the finite-difference oracle (dense QZ, n_fd=400),
refined by Newton on the characteristic determinant at a step 4x finer than
the workloads use, and accepted only if it stays within `verify`'s 2e-3
bound of its oracle eigenvalue.  That the set is complete in the reference
box rests on the oracle alone.  The fine-step scan of the imaginary axis
that follows is only a partial cross-check: it finds lightly damped roots,
and it misses some damped ones (the scan_catalog defect in README.md), so
it cannot show that the oracle missed no root.  The three strings need no
stored roots: the benchmark takes theirs from the closed forms.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402  (pins threads and puts the checkout's src/ first)

REF_STEP = 2.5e-4
REF_TOL = 1e-12
FD_N = 400
FD_MAX_DEV = 2e-3
#: reference box: Im in [IM_MIN, IM_MAX] and |Re| <= Im (oscillatory roots)
IM_MIN, IM_MAX = 0.05, 12.5


def main() -> int:
    env.pin_threads()
    env.import_oscispec()
    from oscispec import models, oracle, spectrum

    from checks import CLOSED_FORM_MODELS, param_key
    from workloads import WORKLOADS, build_ops

    problems = {}
    for workload in WORKLOADS:
        for op in build_ops(workload, 0):
            for model, params in op.problems():
                if model not in CLOSED_FORM_MODELS:
                    problems.setdefault(param_key(models, model, params), (model, params))

    entries = []
    for key, (model, params) in sorted(problems.items()):
        t0 = time.perf_counter()
        problem = models.build_model(model, **params)
        eigs = oracle.fd_polynomial_eigenvalues(problem, oracle.FDOracleConfig(FD_N))
        seeds = [
            complex(e)
            for e in eigs
            if IM_MIN <= e.imag <= IM_MAX and abs(e.real) <= e.imag
        ]
        roots = []
        for fd in sorted(seeds, key=lambda z: z.imag):
            res = spectrum.refine_root(problem, fd, tol=REF_TOL, step=REF_STEP)
            lam = res.lam.conjugate() if res.lam.imag < 0 else res.lam
            dev = abs(lam - fd) / abs(fd)
            if not res.converged or dev >= FD_MAX_DEV:
                print(f"{key}: seed {fd:.6g} -> {lam:.6g} (dev {dev:.2e}) rejected", file=sys.stderr)
                return 1
            roots.append({"re": lam.real, "im": lam.imag, "fd_re": fd.real, "fd_im": fd.imag, "fd_rel_dev": dev})

        # partial cross-check: every root the fine scan finds must be in the set
        scan = spectrum.solve_spectrum(
            problem,
            spectrum.SolveOptions(scan=(IM_MIN, IM_MAX, 600), step=REF_STEP, tol=REF_TOL),
        )
        for r in scan:
            near = min(abs(r.lam - complex(x["re"], x["im"])) / abs(r.lam) for x in roots)
            if near > 1e-6 and abs(r.lam.real) <= r.lam.imag and IM_MIN <= r.lam.imag <= IM_MAX:
                print(f"{key}: fine scan found {r.lam:.10g}, not in the oracle set", file=sys.stderr)
                return 1
        entries.append({"model": model, "params": params, "roots": roots})
        print(f"{key}: {len(roots)} roots, {time.perf_counter() - t0:.1f} s", file=sys.stderr)

    doc = {
        "about": "reference roots for perfbench; regenerate with perfbench/make_reference.py",
        "step": REF_STEP,
        "tol": REF_TOL,
        "fd_n": FD_N,
        "fd_max_dev": FD_MAX_DEV,
        "box": {"im_min": IM_MIN, "im_max": IM_MAX, "abs_re_max": "im"},
        "problems": entries,
    }
    (HERE / "reference_roots.json").write_text(json.dumps(doc, indent=1, default=float) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
