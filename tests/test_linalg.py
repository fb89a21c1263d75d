"""The null-space basis of a boundary matrix, alone and for a lambda stack."""

import numpy as np
import pytest

from oscispec import BoundaryDegeneracyError
from oscispec import spectrum
from oscispec.linalg import rref_null_basis


def _textbook(matrix, tol=1e-12):
    """Gauss-Jordan on one matrix, a row at a time: the loop the stacked
    elimination must reproduce byte for byte."""
    a = np.array(matrix, copy=True)
    rows, cols = a.shape
    cutoff = tol * (float(np.max(np.abs(a))) if a.size else 0.0)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        k = r + int(np.argmax(np.abs(a[r:, c])))
        if np.abs(a[k, c]) <= cutoff:
            continue
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=a.dtype)
    for q, fc in enumerate(free):
        basis[fc, q] = 1.0
        for pr, pc in enumerate(pivots):
            basis[pc, q] = -a[pr, fc]
    return len(pivots), basis


def _stack(kind, shape, dtype, rng, count=40):
    rows, cols = shape
    a = rng.standard_normal((count, rows, cols))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((count, rows, cols))
    if kind == "selection":
        # the canonical boundary form: each row a distinct unit vector
        a = np.zeros((count, rows, cols), dtype=dtype)
        for k in range(count):
            a[k, np.arange(rows), rng.permutation(cols)[:rows]] = 1.0
    elif kind == "sparse":
        a[rng.random(a.shape) < 0.4] = 0.0
    elif kind == "rank_deficient":
        a[3, -1] = 0.0
        a[7, -1] = 2.0 * a[7, 0]
    elif kind == "mixed_pivot":
        # slice 5 has no pivot in column 0, all others have one
        a[5, :, 0] = 0.0
    return a


CASES = [
    pytest.param(kind, shape, dtype, id=f"{kind}-{shape[0]}x{shape[1]}-{dtype.__name__}")
    for kind in ("generic", "selection", "sparse", "rank_deficient", "mixed_pivot")
    for shape in ((1, 2), (2, 4), (3, 6), (2, 3))
    for dtype in (float, complex)
]


class TestStackedNullBasis:
    @pytest.mark.parametrize("kind, shape, dtype", CASES)
    def test_stack_gives_the_bytes_of_each_matrix(self, kind, shape, dtype):
        rng = np.random.default_rng(sum(map(ord, kind)) + 7 * shape[0] + shape[1])
        a = _stack(kind, shape, dtype, rng)
        ranks, bases = rref_null_basis(a)
        assert len(ranks) == len(a)
        # bases of different ranks have no common shape
        assert (bases is None) == (len(set(ranks.tolist())) > 1)
        for k, (matrix, rank) in enumerate(zip(a, ranks.tolist())):
            want_rank, want = _textbook(matrix)
            got_rank, got = rref_null_basis(matrix)
            assert rank == got_rank == want_rank and type(got_rank) is int
            for b in (got,) if bases is None else (bases[k], got):
                assert b.dtype == want.dtype == a.dtype
                assert b.shape == want.shape
                assert b.tobytes() == want.tobytes()

    def test_mixed_ranks_give_the_ranks_only(self):
        a = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
        ranks, bases = rref_null_basis(a)
        assert ranks.tolist() == [2, 1]
        assert bases is None

    def test_equal_ranks_on_different_pivots_stack(self):
        a = np.array([[[1.0, 2.0, 0.0]], [[0.0, 1.0, 5.0]]])
        ranks, bases = rref_null_basis(a)
        assert ranks.tolist() == [1, 1]
        assert isinstance(bases, np.ndarray) and bases.shape == (2, 3, 2)
        for matrix, basis in zip(a, bases):
            assert basis.tobytes() == _textbook(matrix)[1].tobytes()

    @pytest.mark.parametrize("kind, shape, dtype", CASES)
    def test_pivots_are_the_columns_the_basis_leaves_free(self, kind, shape, dtype):
        rng = np.random.default_rng(sum(map(ord, kind)) + 7 * shape[0] + shape[1])
        a = _stack(kind, shape, dtype, rng)
        ranks, bases = reduced = rref_null_basis(a)
        assert (reduced.pivots is None) == (bases is None)
        for k, matrix in enumerate(a):
            rank, basis = alone = rref_null_basis(matrix)
            pivots = alone.pivots.tolist()
            assert len(pivots) == rank and pivots == sorted(pivots)
            free = [c for c in range(shape[1]) if c not in pivots]
            assert basis[free].tobytes() == np.eye(len(free), dtype=dtype).tobytes()
            if bases is not None:
                shared = reduced.pivots.ndim == 1
                assert (reduced.pivots if shared else reduced.pivots[k]).tolist() == pivots

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError, match="2-D matrix or a stack"):
            rref_null_basis(np.zeros(3))


class TestInitialTable:
    def test_first_deficient_general_rows_are_named(self):
        # two rows of N = 4: rank 1 at the third lambda, 0 at the fifth
        lams = np.array([0.5j, 1.0j, 1.5j, 2.0j, 2.5j])
        rows = np.array([np.eye(2, 4)] * 5)
        rows[1, 0, 2] = 3.0
        rows[2, 1] = 2 * rows[2, 0]
        rows[4] = 0.0
        with pytest.raises(BoundaryDegeneracyError) as info:
            spectrum._initial_table(rows.astype(complex), lams)
        assert info.value.lam == lams[2]
        assert str(info.value) == "boundary operator rank 1 != 2 at lambda=1.5j"

    def test_first_deficient_lambda_is_named(self):
        lams = np.array([0.5j, 1.0j, 1.5j, 2.0j, 2.5j])
        rows = np.array([[[1.0, 0.0]], [[1.0, 0.5]], [[0.0, 0.0]], [[2.0, 1.0]], [[0.0, 0.0]]])
        with pytest.raises(BoundaryDegeneracyError) as info:
            spectrum._initial_table(rows.astype(complex), lams)
        assert info.value.lam == lams[2]
        assert (info.value.rank, info.value.expected) == (0, 1)

    def test_stack_equals_one_lambda_at_a_time(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((6, 2, 4)) + 1j * rng.standard_normal((6, 2, 4))
        lams = 1j * np.linspace(0.5, 3.0, 6)
        table = spectrum._initial_table(rows, lams)
        for k, lam in enumerate(lams.tolist()):
            assert table[k].tobytes() == spectrum._initial_table(rows[k], lam).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_adjugate_form_whichever_columns_pivot(self, rows, dtype):
        # one free column: the table is the vector of signed maximal minors,
        # x_k = +-det(A without column k), on every pivot choice; a zero
        # first or last column moves the pivots
        rng = np.random.default_rng(rows)
        a = rng.standard_normal((12, rows, rows + 1))
        if dtype is complex:
            a = a + 1j * rng.standard_normal(a.shape)
        a[4:8, :, 0] = 0.0
        a[8:, :, -1] = 0.0
        lams = 1j * np.linspace(0.5, 3.0, len(a))
        table = spectrum._initial_table(a, lams)
        sign = (-1) ** (rows * (rows - 1) // 2)
        for k, matrix in enumerate(a):
            minors = [np.linalg.det(np.delete(matrix, c, axis=1)) for c in range(rows + 1)]
            want = np.array([sign * (-1) ** (c + rows) * m for c, m in enumerate(minors)])
            assert table[k].dtype == dtype
            assert np.max(np.abs(table[k][:, 0] - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, 0.0]], [[1.0, 0.0, -0.0, -0.0], [0.0, 0.0, 1.0, 0.0]]],
        ids=["pinned", "pinned_realified"],
    )
    def test_pinned_row_keeps_its_basis_bytes(self, rows):
        # det(A_P) = 1 and an even pivot sum: the rref basis, byte for byte
        rows = np.array(rows)
        assert spectrum._initial_table(rows, 1j).tobytes() == rref_null_basis(rows)[1].tobytes()
