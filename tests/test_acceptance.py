"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to see them).  Tolerances are fixed
here, not calibrated.
"""

import json
import math
import time

import numpy as np
import pytest

from oscispec import (
    ConjugationOperator,
    FDOracleConfig,
    PolyMatrix,
    SolveOptions,
    build_cable_snapshot,
    build_fixed_fixed_string,
    build_fixed_free_string,
    build_machine_unit,
    build_pipeline,
    build_point_mass_string,
    build_spacecraft_bar,
    characteristic_determinant,
    closed_form_roots,
    fd_polynomial_eigenvalues,
    insert_breakpoint,
    integrate_fundamental,
    leading_frequencies,
    refine_root,
    solve_spectrum,
)
from oscispec.cli import main as cli_main
from oscispec.reduction import reduce_complex
from oscispec.spectrum import _assemble


def _report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {description}: {status}{suffix}")
    assert passed, f"criterion {number} failed: {description} {suffix}"


def _imags(roots, count):
    return [r.lam.imag for r in roots[:count]]


def test_criterion_1_classical_spectra():
    t0 = time.perf_counter()
    opts = SolveOptions(scan=(0.1, 16.5, 320), step=1e-3, tol=1e-12)

    free = solve_spectrum(build_fixed_free_string(), opts)
    want_free = [(2 * k - 1) * math.pi / 2 for k in range(1, 6)]
    err_free = max(abs(g - w) for g, w in zip(_imags(free, 5), want_free))

    fixed = solve_spectrum(build_fixed_fixed_string(), opts)
    want_fixed = [k * math.pi for k in range(1, 6)]
    err_fixed = max(abs(g - w) for g, w in zip(_imags(fixed, 5), want_fixed))

    elapsed = time.perf_counter() - t0
    ok = (
        len(free) >= 5 and len(fixed) >= 5
        and err_free <= 1e-8 and err_fixed <= 1e-8 and elapsed < 5.0
    )
    _report(
        1,
        "classical string spectra at h=1e-3 within 1e-8",
        ok,
        f"fixed-free err {err_free:.2e}, fixed-fixed err {err_fixed:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_point_mass_conjugation():
    t0 = time.perf_counter()
    roots = solve_spectrum(
        build_point_mass_string(),
        SolveOptions(scan=(0.3, 8.0, 160), step=1e-3, tol=1e-12),
    )
    reference = closed_form_roots("point_mass_string", 0.3, 8.0)
    err = max(abs(g - w) for g, w in zip(_imags(roots, 3), reference[:3]))
    elapsed = time.perf_counter() - t0
    ok = len(roots) >= 3 and err <= 1e-8 and elapsed < 5.0
    _report(
        2,
        "point-mass interface roots match closed-form bisection within 1e-8",
        ok,
        f"max err {err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_recurrence_fidelity():
    # identity interfaces: the coefficient table telescopes into the
    # transposed fundamental-matrix product
    from conftest import identity_conjugation, make_string_problem

    prob = make_string_problem(
        breakpoints=(0.0, 0.3, 0.7, 1.0),
        conjugations=(identity_conjugation(1), identity_conjugation(2)),
    )
    reduced = reduce_complex(prob, 1.2j)
    u_tables, fundamentals, _, _ = _assemble(reduced, step=1e-3, keep_samples=False)
    composed = fundamentals[1].end_matrix.T @ (
        fundamentals[0].end_matrix.T @ u_tables[0]
    )
    fidelity = float(np.max(np.abs(u_tables[2] - composed)))

    # scaled interface pair: the accepted root set moves by no more than
    # the refinement tolerance
    base = build_point_mass_string()
    conj = base.conjugations[0]
    scaled = base.__class__(
        base.name, base.partition, base.coefficients, base.boundary_left,
        base.boundary_right,
        (
            ConjugationOperator(
                1,
                PolyMatrix(conj.d_matrix.coeffs * 11.7),
                PolyMatrix(conj.b_matrix.coeffs * 11.7),
            ),
        ),
        base.params, base.scalar_form,
    )
    tol = 1e-11
    opts = SolveOptions(scan=(0.5, 8.0, 160), step=1e-3, tol=tol)
    r1 = solve_spectrum(base, opts)
    r2 = solve_spectrum(scaled, opts)
    agree = len(r1) == len(r2) >= 3 and all(
        abs(a.lam - b.lam) <= 100 * tol for a, b in zip(r1, r2)
    )
    ok = fidelity <= 1e-13 and agree
    _report(
        3,
        "coefficient recurrence telescopes exactly; interface scaling leaves roots",
        ok,
        f"identity-chain max dev {fidelity:.1e}",
    )


def test_criterion_4_partition_refinement_invariance():
    cases = [
        (build_fixed_free_string(), 0.37),
        (build_fixed_fixed_string(), 0.37),
        (build_point_mass_string(), 0.73),
        (build_cable_snapshot(), 0.73),
        (build_machine_unit(), 0.37),
        (build_spacecraft_bar(), 0.37),
        (build_pipeline(), 0.37),
    ]
    lams = 0.31 + 1j * np.linspace(0.4, 6.0, 50)
    worst = 0.0
    worst_name = ""
    for prob, y_new in cases:
        refined = insert_breakpoint(prob, y_new)
        for lam in lams:
            d0 = characteristic_determinant(prob, lam, step=2e-3)
            d1 = characteristic_determinant(refined, lam, step=2e-3)
            rel = abs(abs(d1) - abs(d0)) / abs(d0)
            if rel > worst:
                worst, worst_name = rel, prob.name
    ok = worst <= 1e-8
    _report(
        4,
        "identity-conjugation breakpoint moves |D| by <= 1e-8 relative on all models",
        ok,
        f"worst {worst:.2e} ({worst_name})",
    )


def test_criterion_5_reduction_path_agreement():
    worst = 0.0
    for prob in (build_fixed_free_string(), build_point_mass_string()):
        rc = solve_spectrum(prob, SolveOptions(scan=(0.5, 8.0, 160), step=1e-3, tol=1e-11))
        rr = solve_spectrum(
            prob,
            SolveOptions(scan=(0.5, 8.0, 160), step=1e-3, tol=1e-11, path="real_split"),
        )
        assert len(rc) == len(rr) >= 2, f"{prob.name}: {len(rc)} vs {len(rr)} roots"
        worst = max(worst, max(abs(a.lam - b.lam) for a, b in zip(rc, rr)))
    ok = worst <= 1e-8
    _report(
        5,
        "complex and real-split paths find the same roots within 1e-8",
        ok,
        f"worst |diff| {worst:.2e}",
    )


def test_criterion_6_damped_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    sign_ok = True
    for prob in (build_spacecraft_bar(), build_pipeline(beta=0.02, alpha1=0.0)):
        roots = solve_spectrum(prob, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
        oracle = leading_frequencies(
            np.asarray(fd_polynomial_eigenvalues(prob, FDOracleConfig(400))), 3
        )
        assert len(roots) >= 3 and len(oracle) == 3, prob.name
        for r, o in zip(roots[:3], oracle):
            worst = max(worst, abs(abs(r.lam) - abs(o)) / abs(o))
            sign_ok = sign_ok and (np.sign(r.lam.real) == np.sign(o.real))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-3 and sign_ok and elapsed < 60.0
    _report(
        6,
        "spacecraft bar and pipeline agree with the FD oracle within 2e-3",
        ok,
        f"worst rel dev {worst:.2e}, signs {'agree' if sign_ok else 'differ'}, {elapsed:.0f}s",
    )


def test_criterion_7_integrator_order():
    from conftest import make_string_problem
    from oscispec import CoefficientField, Partition

    part = Partition((0.0, 1.0))
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    base = make_string_problem()
    field = CoefficientField(
        (PolyMatrix.constant(rotation),),
        (PolyMatrix.zero(2, 2),),
        (PolyMatrix.zero(2, 2),),
        1.0,
    )
    prob = base.__class__(
        "rotation", part, field, base.boundary_left, base.boundary_right, ()
    )
    reduced = reduce_complex(prob, 0.0)
    hs = [0.04, 0.02, 0.01, 0.005]
    mats = [integrate_fundamental(reduced, 0, h).end_matrix for h in hs]
    richardson = mats[-1] + (mats[-1] - mats[-2]) / 15.0
    errors = [float(np.max(np.abs(m - richardson))) for m in mats[:-1]]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(r >= 12.0 for r in ratios)
    _report(
        7,
        "RK4 error shrinks by >= 12 per step halving on the rotation system",
        ok,
        "ratios " + ", ".join(f"{r:.1f}" for r in ratios),
    )


def test_criterion_8_qualitative_trends():
    # (a) more material dissipation pushes the leading mode further left
    reals = []
    for beta in np.linspace(0.005, 0.05, 5):
        prob = build_spacecraft_bar(beta=float(beta))
        roots = solve_spectrum(prob, SolveOptions(scan=(0.3, 2.0, 60), step=1e-3))
        reals.append(roots[0].lam.real)
    beta_monotone = all(b < a for a, b in zip(reals, reals[1:]))

    # (b) instability onset in the pipeline: the leading decay rate crosses
    # zero at some alpha1; solver and FD oracle locate the same crossing
    def solver_leading_re(alpha1, seed):
        prob = build_pipeline(beta=0.005, alpha1=float(alpha1))
        res = refine_root(prob, seed, tol=1e-12, max_iter=80, step=1e-3)
        assert res.converged
        return res.lam

    def fd_leading_re(alpha1):
        prob = build_pipeline(beta=0.005, alpha1=float(alpha1))
        eigs = fd_polynomial_eigenvalues(prob, FDOracleConfig(300), count=1)
        return leading_frequencies(np.asarray(eigs), 1)[0].real

    seed = solve_spectrum(
        build_pipeline(beta=0.005, alpha1=0.0),
        SolveOptions(scan=(0.3, 1.5, 40), step=1e-3),
    )[0].lam

    def bisect(f, lo, hi, iters=16):
        f_lo = f(lo)
        assert f_lo < 0 < f(hi)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    state = {"seed": seed}

    def solver_f(alpha1):
        lam = solver_leading_re(alpha1, state["seed"])
        state["seed"] = lam
        return lam.real

    cross_solver = bisect(solver_f, 0.0, 0.002)
    cross_fd = bisect(fd_leading_re, 0.0, 0.002)
    crossing_ok = abs(cross_solver - cross_fd) <= 0.05 * cross_fd

    ok = beta_monotone and crossing_ok
    _report(
        8,
        "dissipation and instability trends reproduced",
        ok,
        f"leading Re over beta sweep {['%.4f' % r for r in reals]}, "
        f"crossing solver {cross_solver:.3e} vs FD {cross_fd:.3e}",
    )


def test_criterion_9_cli_contract(tmp_path):
    # determinism
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(
            ["solve", "--model", "point_mass_string", "--scan", "0.5:8:120",
             "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    identical = (
        (outs[0] / "spectrum.csv").read_bytes() == (outs[1] / "spectrum.csv").read_bytes()
        and (outs[0] / "spectrum.json").read_bytes() == (outs[1] / "spectrum.json").read_bytes()
    )

    # exit 0 on an empty spectrum
    code_empty = cli_main(
        ["solve", "--model", "fixed_free_string", "--scan", "0.1:1.0:50",
         "--out", str(tmp_path / "empty")]
    )

    # exit 1 on config errors
    code_cfg = cli_main(
        ["solve", "--model", "fixed_free_string", "--out", str(tmp_path / "cfg")]
    )

    # exit 2 on numerical failure: a stiff exponential problem overflows
    stiff = {
        "name": "overflow",
        "breakpoints": [0.0, 1.0],
        "dimension": 2,
        "bound": 800.0,
        "coefficients": [
            {"A": [[[800.0], [0.0]], [[0.0], [-800.0]]],
             "B": [[[0.0], [0.0]], [[0.0], [0.0]]],
             "C": [[[0.0], [0.0]], [[0.0], [0.0]]]}
        ],
        "boundary_left": [[[1.0], [0.0]]],
        "boundary_right": [[[1.0], [0.0]]],
        "conjugations": [],
    }
    stiff_path = tmp_path / "stiff.json"
    stiff_path.write_text(json.dumps(stiff))
    code_num = cli_main(
        ["solve", "--problem", str(stiff_path), "--scan", "0.5:2:10",
         "--out", str(tmp_path / "num")]
    )

    # exit 3 on a verification breach
    code_breach = cli_main(["verify", "fixed_free_string", "--max-dev", "1e-15"])

    ok = (
        identical
        and code_empty == 0
        and code_cfg == 1
        and code_num == 2
        and code_breach == 3
    )
    _report(
        9,
        "CLI reruns byte-identical; exit codes 0/1/2/3 honored",
        ok,
        f"codes empty={code_empty} cfg={code_cfg} numerical={code_num} breach={code_breach}",
    )
