"""Small dense linear-algebra helpers shared by validation and the solver."""

from __future__ import annotations

import numpy as np

#: rref_null_basis counts an entry below this times the matrix's largest
#: modulus as zero
_PIVOT_TOL = 1e-12


class NullBasis(tuple):
    """rref_null_basis's (rank, basis) pair; `pivots` holds the pivot columns:
    (rank,) ints, for a stack (K, rank), or None if its ranks differ."""

    def __new__(cls, rank, basis, pivots):
        pair = super().__new__(cls, (rank, basis))
        pair.pivots = pivots
        return pair


def rref_null_basis(matrix: np.ndarray) -> NullBasis:
    """Null-space basis of a short wide matrix, or of each matrix of a stack,
    by Gaussian elimination.

    Returns (rank, basis), with the pivot columns as .pivots (NullBasis);
    basis has one column per free variable, in ascending column order.  For
    a 0/1 selection matrix (each row a distinct unit vector) the basis
    columns are exactly the complementary unit vectors, reproduced without
    roundoff.

    The reduction uses partial pivoting on the largest modulus; entries below
    _PIVOT_TOL * (max |entry|) count as zero.  Deterministic for identical input.

    A stack (K, rows, cols) is reduced matrix by matrix.  rank is then an
    int array of the K ranks and basis a (K, cols, cols - rank) array; if
    the ranks differ, the bases have no common shape and basis is None.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim == 3:
        parts = [rref_null_basis(m) for m in matrix]
        ranks = np.array([rank for rank, _ in parts], dtype=int)
        if len(set(ranks.tolist())) > 1:
            return NullBasis(ranks, None, None)
        stacked = np.stack([basis for _, basis in parts]), np.stack([q.pivots for q in parts])
        return NullBasis(ranks, *stacked)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix or a stack of them")
    a = matrix.copy()
    pivot_cols = _eliminate(a)
    cols = a.shape[1]
    rank = len(pivot_cols)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.zeros((cols, len(free_cols)), dtype=a.dtype)
    basis[free_cols, range(len(free_cols))] = 1.0
    basis[pivot_cols] = -a[:rank, free_cols]
    return NullBasis(rank, basis, np.array(pivot_cols, dtype=int))


def adjugate_form(matrix: np.ndarray, reduced: NullBasis) -> np.ndarray:
    """The null basis of full-rank rows, or of each matrix of a stack, in
    adjugate form; `reduced` is rref_null_basis(matrix).

    The rref basis [-A_P^-1 A_F; I] of the rows A (pivot columns P, free F)
    times (-1)^(sum of P) det(A_P) is +-[-adj(A_P) A_F; det(A_P) I]: one
    polynomial whichever columns pivot (the sign is the parity of (P, F)
    times one fixed by the row count), with no pole where det(A_P)
    vanishes, so a closure determinant built on it keeps its zeros there.
    The dtype is kept; a factor of 1 (the pinned row, realified too) keeps
    the bytes.
    """
    piv = reduced.pivots
    block = np.take_along_axis(matrix, piv[..., None, :], -1)
    scale = ((1 - 2 * (piv.sum(axis=-1) % 2)) * np.linalg.det(block))[..., None, None]
    return np.where(scale == 1, reduced[1], reduced[1] * scale)


def adjugate_table(rows: np.ndarray) -> tuple:
    """(rank, table) of boundary rows, or of each matrix of a stack: rank as
    rref_null_basis gives it, and table their null basis in adjugate form
    (adjugate_form), or None unless every matrix has full row rank.  One
    row [a0, a1] has rank 1 unless both entries vanish, and table [-a1; a0]
    (row_adjugate_form), with no row reduction."""
    if rows.shape[-2:] == (1, 2):
        rank = ((rows[..., 0, 0] != 0) | (rows[..., 0, 1] != 0)).astype(int)
        return rank, row_adjugate_form(rows) if rank.all() else None
    reduced = rref_null_basis(rows)
    if np.any(reduced[0] != rows.shape[-2]):
        return reduced[0], None
    return reduced[0], adjugate_form(rows, reduced)


def row_adjugate_form(matrix: np.ndarray) -> np.ndarray:
    """adjugate_form of one row [a0, a1], or of each row of a stack, where
    the row has full rank: [-a1; a0].

    With one free column the sign fixed by the row count and the parity of
    (P, F) cancel, so the table is the same whichever column pivots, and it
    needs no row reduction.  The row loses rank only where both entries
    vanish.
    """
    table = np.empty(matrix.shape[:-2] + (2, 1), dtype=matrix.dtype)
    np.negative(matrix[..., 0, 1], out=table[..., 0, 0])
    table[..., 1, 0] = matrix[..., 0, 0]
    return table


def _eliminate(a: np.ndarray) -> list[int]:
    """Row-reduce one (rows, cols) matrix in place; returns the pivot columns."""
    rows, cols = a.shape
    cutoff = _PIVOT_TOL * np.max(np.abs(a), initial=0.0)
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        column = np.abs(a[r:, c])
        k = int(column.argmax())
        if column[k] <= cutoff:
            continue
        if k:
            a[[r, r + k]] = a[[r + k, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            # a row whose entry is 0 already is left as it is: subtracting
            # 0 * row r could turn -0.0 into 0.0, or inf into NaN
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def det(mats: np.ndarray) -> np.ndarray:
    """Determinant of a matrix, or of each of a stack: ad - bc, with no
    LAPACK call, for 2 x 2; np.linalg.det for other sizes."""
    if mats.shape[-1] != 2:
        return np.linalg.det(mats)
    return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]


def transpose(mats: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix of a stack."""
    return mats.swapaxes(-1, -2)


def realify(matrix: np.ndarray) -> np.ndarray:
    """Real 2r x 2c image [[Re, -Im], [Im, Re]] of a complex matrix.

    This is the matrix of the same linear map acting on stacked
    (real part, imaginary part) vectors.  A stack of matrices is realified
    matrix by matrix.
    """
    re, im = np.real(matrix), np.imag(matrix)
    rows, cols = re.shape[-2:]
    out = np.empty(re.shape[:-2] + (2 * rows, 2 * cols), dtype=re.dtype)
    out[..., :rows, :cols] = re
    np.negative(im, out=out[..., :rows, cols:])
    out[..., rows:, :cols] = im
    out[..., rows:, cols:] = re
    return out
