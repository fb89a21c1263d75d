"""Verification engines: closed forms and the FD polynomial eigensolver."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from oscispec import (
    FDOracleConfig,
    build_fixed_free_string,
    build_model,
    build_point_mass_string,
    build_spacecraft_bar,
    closed_form_determinant,
    closed_form_roots,
    fd_polynomial_eigenvalues,
    leading_frequencies,
    load_problem,
    problem_to_dict,
)
from oscispec import oracle
from oscispec.models import ORACLE_ROUTES
from oscispec.oracle import (
    _SHIFT,
    _band_factor,
    _polyeig_all,
    _polyeig_near,
    _shift_invert,
)

from conftest import make_string_problem


class TestClosedForms:
    def test_fixed_fixed_zero_at_pi(self):
        assert closed_form_determinant("fixed_fixed_string", math.pi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_fixed_free_zero_at_half_pi(self):
        assert closed_form_determinant(
            "fixed_free_string", math.pi / 2
        ) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_first_roots(self):
        roots = closed_form_roots("point_mass_string", 0.2, 8.0)
        # frozen from an independent scan/bisection of the transcendental
        # equation p^2 sin(p/2)^2 = p sin(p) (unit constants, midpoint mass)
        assert roots[0] == pytest.approx(1.720667178039, abs=1e-9)
        assert roots[1] == pytest.approx(2 * math.pi, abs=1e-9)
        assert roots[2] == pytest.approx(6.851236918963, abs=1e-9)

    def test_wave_speed_scaling(self):
        # quadrupled tension doubles the wave speed, halving k for given p
        assert closed_form_determinant(
            "fixed_fixed_string", 2 * math.pi, tension=4.0
        ) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tag", ["fixed_fixed_string", "fixed_free_string", "point_mass_string"])
    def test_array_equals_one_value_at_a_time(self, tag):
        ps = np.linspace(0.0, 12.0, 37)
        params = {"rho": 1.3, "tension": 2.0, "mass": 0.7, "position": 0.3}
        values = closed_form_determinant(tag, ps, **params)
        assert values.shape == ps.shape
        assert values.tolist() == [closed_form_determinant(tag, p, **params) for p in ps.tolist()]
        assert type(closed_form_determinant(tag, 1.0)) is float

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown closed-form tag"):
            closed_form_determinant("beam", 1.0)


class TestFDOracle:
    def test_string_spectrum_second_order_accurate(self):
        eigs = fd_polynomial_eigenvalues(
            build_fixed_free_string(), FDOracleConfig(400), count=3
        )
        lead = leading_frequencies(eigs, 3)
        for got, k in zip(lead, (1, 2, 3)):
            want = (2 * k - 1) * math.pi / 2
            assert abs(got.imag - want) / want < 1e-3

    def test_point_mass_interface_rows(self):
        eigs = fd_polynomial_eigenvalues(
            build_point_mass_string(), FDOracleConfig(400), count=3
        )
        lead = leading_frequencies(eigs, 3)
        reference = closed_form_roots("point_mass_string", 0.2, 8.0)[:3]
        for got, want in zip(lead, reference):
            assert abs(got.imag - want) / want < 2e-3

    def test_dissipative_bar_eigenvalues_decay(self):
        eigs = fd_polynomial_eigenvalues(build_spacecraft_bar(beta=0.02), FDOracleConfig(200))
        lead = leading_frequencies(eigs, 5)
        assert len(lead) == 5
        assert all(e.real < 0 for e in lead)

    def test_grid_doubling_reduces_error_second_order(self):
        want = math.pi / 2
        errs = []
        for n_fd in (100, 200):
            eigs = fd_polynomial_eigenvalues(build_fixed_free_string(), FDOracleConfig(n_fd))
            got = leading_frequencies(eigs, 1)[0].imag
            errs.append(abs(got - want))
        ratio = errs[0] / errs[1]
        assert 2.5 < ratio < 6.0

    def test_self_convergence_between_dense_grids(self):
        vals = []
        for n_fd in (400, 800):
            eigs = fd_polynomial_eigenvalues(
                build_fixed_free_string(), FDOracleConfig(n_fd), count=3
            )
            vals.append([e.imag for e in leading_frequencies(eigs, 3)])
        for a, b in zip(*vals):
            assert abs(a - b) / abs(b) < 5e-4

    def test_grid_size_floor(self):
        with pytest.raises(ValueError, match="at least 50"):
            FDOracleConfig(10)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            fd_polynomial_eigenvalues(build_fixed_free_string(), FDOracleConfig(4000))

    def test_no_oracle_route_for_plain_problems(self, tmp_path):
        import json

        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem_to_dict(make_string_problem())))
        prob = load_problem(path)
        with pytest.raises(ValueError, match="no oracle route"):
            fd_polynomial_eigenvalues(prob)


#: (model, params, count, whether the sparse route must fall back to the
#: whole-spectrum route)
SPARSE_CASES = [
    ("machine_unit", {}, 3, False),
    ("spacecraft_bar", {}, 3, False),
    ("cable_snapshot", {}, 3, False),
    ("pipeline", {}, 3, False),
    ("spacecraft_bar", {"beta": 0.02}, 3, False),
    ("pipeline", {"beta": 0.005, "alpha1": 0.3}, 3, False),
    ("machine_unit", {"left_end": "clamped", "right_end": "clamped"}, 3, False),
    # the Kelvin-Voigt cluster near -20.05 borders the wanted eigenvalues;
    # Arnoldi needs about 50 steps to certify past it
    ("machine_unit", {"zeta1": 0.05}, 5, False),
]


def _bands(mats):
    """The diagonals of dense n x n matrices, laid out as the sparse route
    takes them: bands[k, i, 3 + d] is entry (i, i + d) of mats[k]."""
    n = mats[0].shape[0]
    bands = np.zeros((len(mats), n, 7))
    for band, mat in zip(bands, mats):
        for d in range(-3, 4):
            rows = np.arange(max(0, -d), min(n, n - d))
            band[rows, 3 + d] = mat[rows, rows + d]
    return bands


def _unband(band):
    """The dense n x n matrix with diagonals band; entries off the matrix
    must be zero."""
    n = band.shape[0]
    mat = np.zeros((n, n), dtype=band.dtype)
    for d in range(-3, 4):
        rows = np.arange(n)
        inside = (rows + d >= 0) & (rows + d < n)
        assert not np.any(band[~inside, 3 + d])
        mat[rows[inside], rows[inside] + d] = band[inside, 3 + d]
    return mat


#: finite eigenvalues of the whole spectrum at n_fd 100, 200 and 400: every
#: finite eigenvalue of the companion pencil is kept, and _SPURIOUS_CUTOFF
#: drops every image of an infinite one
FINITE_COUNTS = {
    "machine_unit": (202, 402, 802),
    "spacecraft_bar": (201, 401, 801),
    "pipeline": (201, 401, 801),
    "cable_snapshot": (198, 398, 798),
}


@pytest.mark.parametrize("n_fd", (100, 200, 400))
@pytest.mark.parametrize("model", sorted(FINITE_COUNTS))
def test_whole_spectrum_finite_count(model, n_fd):
    eigs = fd_polynomial_eigenvalues(build_model(model), FDOracleConfig(n_fd))
    assert np.all(np.isfinite(eigs))
    assert len(eigs) == FINITE_COUNTS[model][(100, 200, 400).index(n_fd)]


class TestSparseRoute:
    @pytest.mark.parametrize("n_fd", (100, 200))
    @pytest.mark.parametrize(
        "model,params,count,fallback",
        SPARSE_CASES,
        ids=[f"{m}-{'-'.join(f'{k}={v}' for k, v in p.items()) or 'default'}"
             for m, p, _, _ in SPARSE_CASES],
    )
    def test_matches_dense_selection(self, model, params, count, fallback, n_fd):
        problem = build_model(model, **params)
        dense = fd_polynomial_eigenvalues(problem, FDOracleConfig(n_fd))
        sparse = fd_polynomial_eigenvalues(problem, FDOracleConfig(n_fd), count=count)
        if fallback:
            assert np.array_equal(sparse, dense)
        else:
            assert len(sparse) < len(dense)
        want = leading_frequencies(dense, count)
        got = leading_frequencies(sparse, count)
        assert len(want) == len(got) == count
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    def test_reruns_give_equal_arrays(self):
        problem = build_model("spacecraft_bar")
        first = fd_polynomial_eigenvalues(problem, FDOracleConfig(200), count=3)
        second = fd_polynomial_eigenvalues(problem, FDOracleConfig(200), count=3)
        assert np.array_equal(first, second)

    @staticmethod
    def _diagonal_pencil(pairs):
        """Quadratic pencil with one diagonal entry (lam - a)(lam - b) per pair."""
        pairs = np.array(pairs)
        return [
            np.diag((pairs[:, 0] * pairs[:, 1]).real),
            np.diag(-(pairs[:, 0] + pairs[:, 1]).real),
            np.eye(len(pairs)),
        ]

    def test_uncertified_eigenvalues_are_refused(self):
        # 10i is among the eigenvalues nearest the shift, but the leading
        # one, -9+9.5i, lies beyond a wall of overdamped real eigenvalues:
        # no attempt can show that the found set holds it
        pairs = [(10j, -10j), (-9 + 9.5j, -9 - 9.5j)]
        pairs += [(-10.0 - 0.25 * j, -10.1 - 0.25 * j) for j in range(8)]
        pairs += [((50 + j) * 1j, -(50 + j) * 1j) for j in range(20)]
        mats = self._diagonal_pencil(pairs)
        assert _polyeig_near(_bands(mats), 1) is None
        assert leading_frequencies(_polyeig_all(_bands(mats)), 1)[0] == pytest.approx(-9 + 9.5j)

    def test_shift_on_an_eigenvalue_is_refused(self):
        # one pair sits on the shift itself, whatever its value: with its
        # conjugate, or its negative if it is real, so the pencil stays real
        pairs = [(_SHIFT, np.conj(_SHIFT) if np.imag(_SHIFT) else -_SHIFT)]
        pairs += [((2 + j) * 1j, -(2 + j) * 1j) for j in range(30)]
        bands = _bands(self._diagonal_pencil(pairs))
        assert _polyeig_near(bands, 1) is None
        # the whole-spectrum route takes its second shift there
        got = _polyeig_all(bands)
        want = np.ravel(pairs)
        assert len(got) == len(want) == 62
        # each wanted eigenvalue has its own nearest one among those found
        dist = np.abs(got[:, None] - want[None, :])
        nearest = np.argmin(dist, axis=0)
        assert sorted(nearest.tolist()) == list(range(62))
        assert np.all(dist[nearest, np.arange(62)] <= 1e-12 * np.abs(want))

    def test_certificate_reaches_the_far_corner_of_the_sector(self, monkeypatch):
        # off the imaginary axis, sigma is nearer one top corner of the
        # sector |Re| <= Im <= top than the other.  The leading eigenvalue m
        # lies near the far corner (-top, top), outside the disc around
        # sigma that reaches (top, top); twelve eigenvalues nearer sigma (a
        # sector pair at Im 4 and ten real ones) fill the 6 count + 6 Ritz
        # values accepted, so the disc they span never reaches m.  The
        # geometry holds for this sigma, set whatever _SHIFT is
        sigma = 0.5
        monkeypatch.setattr(oracle, "_SHIFT", sigma)
        m = -3.8 + 3.9j
        pairs = [(-0.05 + 4j, -0.05 - 4j), (m, m.conjugate())]
        pairs += [(-4.9 - 0.05 * j, -4.925 - 0.05 * j) for j in range(5)]
        pairs += [((50 + j) * 1j, -(50 + j) * 1j) for j in range(20)]
        top = 4.0
        fill = np.ravel(pairs[2:7])
        assert abs(complex(top, top) - sigma) < min(abs(fill - sigma)) < abs(m - sigma)
        got = _polyeig_near(_bands(self._diagonal_pencil(pairs)), 1)
        assert got is None or leading_frequencies(got, 1)[0] == pytest.approx(m)

    def test_pencil_singular_at_both_shifts_is_refused(self):
        mats = self._diagonal_pencil([(1j, -1j), (2j, -2j)])
        for mat in mats:
            mat[1, 1] = 0.0  # det P(lam) vanishes for every lam
        with pytest.raises(ValueError, match="singular at both shifts"):
            _polyeig_all(_bands(mats))

    @staticmethod
    def _sparse_bands(model, n_fd, monkeypatch, **params):
        """The banded coefficient matrices the sparse route gets for model."""
        seen = []
        monkeypatch.setattr(oracle, "_polyeig_near", lambda bands, count: seen.append(bands))
        monkeypatch.setattr(oracle, "_polyeig_all", lambda bands: np.empty(0, dtype=complex))
        fd_polynomial_eigenvalues(build_model(model, **params), FDOracleConfig(n_fd), count=3)
        return seen[0]

    # degree 2; degree 3 with a cubic boundary row; interface rows
    @pytest.mark.parametrize("model", ["machine_unit", "spacecraft_bar", "cable_snapshot"])
    def test_recurrence_solves_the_companion_pencil(self, model, monkeypatch):
        import scipy.sparse
        import scipy.sparse.linalg

        bands = self._sparse_bands(model, 100, monkeypatch)
        n, deg = bands.shape[1], len(bands) - 1
        mats = [scipy.sparse.csc_array(_unband(band)) for band in bands]
        # the companion pencil A x = lam B x, x = (u, lam u, ..., lam^(deg-1) u)
        eye = scipy.sparse.eye_array(n, format="csc")
        a_rows = [[eye if j == i + 1 else None for j in range(deg)] for i in range(deg - 1)]
        b_rows = [[eye if j == i else None for j in range(deg)] for i in range(deg - 1)]
        a_rows.append([-m for m in mats[:-1]])
        b_rows.append([None] * (deg - 1) + [mats[-1]])
        big_a = scipy.sparse.bmat(a_rows, format="csc")
        big_b = scipy.sparse.bmat(b_rows, format="csc")
        solve = _band_factor(np.tensordot(_SHIFT ** np.arange(deg + 1), bands, axes=1))
        apply = _shift_invert(bands, solve, _SHIFT)
        rng = np.random.default_rng(7)
        for _ in range(3):
            y = rng.standard_normal(deg * n) + 1j * rng.standard_normal(deg * n)
            want = scipy.sparse.linalg.spsolve(big_a - _SHIFT * big_b, big_b @ y)
            # the map is real at the real shift: it takes y by its parts.
            # Both solves lie within 1e-12 of an extended-precision solve
            # (machine_unit's A - sigma B has condition 1.5e6), so they may
            # differ by twice that
            got = apply(y.real) + 1j * apply(y.imag)
            assert np.linalg.norm(got - want) <= 2e-12 * np.linalg.norm(want)

    # degree 2; degree 3 with a cubic boundary row; interface rows
    @pytest.mark.parametrize("model", ["machine_unit", "spacecraft_bar", "cable_snapshot"])
    def test_real_shift_keeps_a_real_vector_real(self, model, monkeypatch):
        bands = self._sparse_bands(model, 100, monkeypatch)
        deg = len(bands) - 1
        solve = _band_factor(np.tensordot(_SHIFT ** np.arange(deg + 1), bands, axes=1))
        y = np.random.default_rng(7).standard_normal(deg * bands.shape[1])
        assert _shift_invert(bands, solve, _SHIFT)(y).dtype == np.float64

    # degree 2; degree 3 with a cubic boundary row; three interfaces.  The
    # grids pad the last block with 6 to 15 identity rows
    @pytest.mark.parametrize("n_fd", (50, 51, 63, 101, 400))
    @pytest.mark.parametrize(
        "model,params",
        [
            ("machine_unit", {}),
            ("spacecraft_bar", {}),
            ("cable_snapshot", {"masses": (1.0, 2.0, 3.0), "positions": (0.2, 0.5, 0.8)}),
        ],
        ids=["machine_unit", "spacecraft_bar", "cable_three_loads"],
    )
    def test_factor_matches_a_dense_solve(self, model, params, n_fd, monkeypatch):
        bands = self._sparse_bands(model, n_fd, monkeypatch, **params)
        band = np.tensordot(_SHIFT ** np.arange(len(bands)), bands, axes=1)
        rhs = np.random.default_rng(7).standard_normal(len(band))
        dense = _unband(band)
        want = np.linalg.solve(dense, rhs)
        # both solves are backward stable, so they may differ by about
        # cond(P) eps relative: 2e-13 at cond 2e5 (n_fd 50), 1e-11 at cond
        # 4e7 (machine_unit, n_fd 400)
        bound = 1e-16 * np.linalg.cond(dense) * np.linalg.norm(want)
        assert np.linalg.norm(_band_factor(band)(rhs) - want) <= bound

    @pytest.mark.parametrize("shift", [oracle._SHIFT, oracle._SECOND_SHIFT])
    def test_map_and_factor_are_freed_by_reference_counting(self, shift, monkeypatch):
        # no reference cycle keeps a call's factor and buffers alive until
        # the next full garbage collection
        bands = self._sparse_bands("machine_unit", 100, monkeypatch)
        solve = _band_factor(np.tensordot(shift ** np.arange(len(bands)), bands, axes=1))
        apply = _shift_invert(bands, solve, shift)
        refs = [weakref.ref(solve), weakref.ref(apply)]
        gc.disable()
        try:
            del solve, apply
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("n_fd", (100, 400, 1600))
    @pytest.mark.parametrize(
        "model,params",
        [(m, p) for m, p, _, _ in SPARSE_CASES],
        ids=[f"{m}-{'-'.join(f'{k}={v}' for k, v in p.items()) or 'default'}"
             for m, p, _, _ in SPARSE_CASES],
    )
    def test_every_sparse_case_certifies_within_the_cap(self, model, params, n_fd, monkeypatch):
        def forbidden(bands):
            raise AssertionError("the whole-spectrum route ran: not certified")

        monkeypatch.setattr(oracle, "_polyeig_all", forbidden)
        problem = build_model(model, **params)
        for count in (1, 3, 5):
            eigs = fd_polynomial_eigenvalues(problem, FDOracleConfig(n_fd), count=count)
            assert len(leading_frequencies(eigs, count)) == count

    def test_factors_one_n_by_n_matrix(self, monkeypatch):
        shapes = []

        def recording_factor(band):
            shapes.append(band.shape)
            return _band_factor(band)

        def forbidden(*args, **kwargs):
            raise AssertionError("the whole-spectrum route ran on a certified sparse call")

        monkeypatch.setattr(oracle, "_band_factor", recording_factor)
        monkeypatch.setattr(oracle, "_polyeig_all", forbidden)
        eigs = fd_polynomial_eigenvalues(build_model("spacecraft_bar"), FDOracleConfig(100), count=3)
        assert len(leading_frequencies(eigs, 3)) == 3
        assert shapes == [(101, 7)]

    def test_count_floor(self):
        with pytest.raises(ValueError, match="at least 1"):
            fd_polynomial_eigenvalues(build_fixed_free_string(), count=0)


def test_leading_frequencies_keeps_the_oscillatory_sector():
    eigs = np.array([-199.95 + 3.14j, 0.0 + 1e-9j, -0.1 + 2.0j, -3.0 + 2.5j, -0.2 + 4.0j])
    np.testing.assert_array_equal(leading_frequencies(eigs, 3), [-0.1 + 2.0j, -0.2 + 4.0j])


#: (number of coefficient matrices, their size, sha256 prefix of their bytes)
#: of the dense FD assembly that summed each entry into dense matrices in
#: place, recorded before the assembly moved to triplets
DENSE_ASSEMBLY = {
    ("cable_snapshot", 100): (3, 102, "fe99878232d5e8e25275daf1f01e48a3"),
    ("cable_snapshot", 400): (3, 402, "0600416904a44cb1554bcf7657276d8f"),
    ("machine_unit", 100): (3, 101, "0d4b96eff083974c576f74496a0e68b7"),
    ("machine_unit", 400): (3, 401, "963f1164a6dc6a0346b70274674122a6"),
    ("pipeline", 100): (3, 101, "f07a4fc4ab17e2dd615fe522e3d99055"),
    ("pipeline", 400): (3, 401, "531c237a6ac6085ac4b60db538887a3f"),
    ("spacecraft_bar", 100): (4, 101, "27c254feac7c4b2b02d4ff3f3a6400b5"),
    ("spacecraft_bar", 400): (4, 401, "351a13e46fe7b7f4d7a9680390521c80"),
}


class TestTripletAssembly:
    @pytest.mark.parametrize("model, n_fd", sorted(DENSE_ASSEMBLY))
    def test_both_routes_get_the_dense_assembly_bytes(self, model, n_fd, monkeypatch):
        assert ORACLE_ROUTES[model] == "fd"
        seen = {}

        def sparse(bands, count):
            seen["sparse"] = bands
            return None  # refused, so the dense route runs too

        def dense(bands):
            seen["dense"] = bands
            return np.empty(0, dtype=complex)

        monkeypatch.setattr(oracle, "_polyeig_near", sparse)
        monkeypatch.setattr(oracle, "_polyeig_all", dense)
        fd_polynomial_eigenvalues(build_model(model), FDOracleConfig(n_fd), count=3)
        count, size, digest = DENSE_ASSEMBLY[model, n_fd]
        bands = seen["sparse"]
        assert seen["dense"] is bands
        assert bands.shape == (count, size, 7) and bands.dtype == np.float64
        # every equation row sits at its own node; moved back to their rows,
        # the diagonals give the dense assembly's bytes.  Its rows were the
        # interior nodes interval by interval, the two end nodes, then each
        # interface's two end nodes
        bps = build_model(model).scalar_form.breakpoints
        total = bps[-1] - bps[0]
        cells = [max(8, round(n_fd * (hi - lo) / total)) for lo, hi in zip(bps, bps[1:])]
        starts = np.cumsum([0] + [k + 1 for k in cells])
        row_node = [g for a, k in zip(starts, cells) for g in range(a + 1, a + k)]
        row_node += [0, size - 1]
        row_node += [g for a in starts[1:-1] for g in (a - 1, a)]
        assert sorted(row_node) == list(range(size))
        mats = [_unband(band)[row_node] for band in bands]
        assert hashlib.sha256(b"".join(m.tobytes() for m in mats)).hexdigest()[:32] == digest

    def test_sparse_route_builds_no_dense_matrix(self, monkeypatch):
        def no_dense(bands):
            raise AssertionError("dense operator built on the sparse route")

        monkeypatch.setattr(oracle, "_polyeig_all", no_dense)
        eigs = fd_polynomial_eigenvalues(build_fixed_free_string(), FDOracleConfig(400), count=3)
        assert len(leading_frequencies(eigs, 3)) == 3

    def test_cap_does_not_bound_the_sparse_route(self):
        # 4001 grid points: a linearized dimension of 8002, above the cap
        eigs = fd_polynomial_eigenvalues(build_fixed_free_string(), FDOracleConfig(4000), count=3)
        lead = leading_frequencies(eigs, 3)
        for got, k in zip(lead, (1, 2, 3)):
            want = (2 * k - 1) * math.pi / 2
            assert abs(got.imag - want) / want < 1e-5

    def test_cap_guards_a_sparse_fallback(self, monkeypatch):
        monkeypatch.setattr(oracle, "_polyeig_near", lambda mats, count: None)
        with pytest.raises(ValueError, match="exceeds cap"):
            fd_polynomial_eigenvalues(build_fixed_free_string(), FDOracleConfig(4000), count=3)
