"""Small dense linear-algebra helpers shared by validation and the solver."""

from __future__ import annotations

import numpy as np


def rref_null_basis(matrix: np.ndarray, tol: float = 1e-12):
    """Null-space basis of a short wide matrix by Gaussian elimination.

    Returns (rank, basis) where basis has one column per free variable, in
    ascending column order.  For a 0/1 selection matrix (each row a distinct
    unit vector) the basis columns are exactly the complementary unit
    vectors, reproduced without roundoff.

    The reduction uses partial pivoting on the largest modulus; entries below
    tol * (max |entry|) count as zero.  Deterministic for identical input.
    """
    a = np.array(matrix, copy=True)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = a.shape
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    cutoff = tol * scale
    pivot_cols: list[int] = []
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
        pivot_cols.append(c)
        r += 1
    rank = len(pivot_cols)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.zeros((cols, len(free_cols)), dtype=a.dtype)
    for q, fc in enumerate(free_cols):
        basis[fc, q] = 1.0
        for pr, pc in enumerate(pivot_cols):
            basis[pc, q] = -a[pr, fc]
    return rank, basis


def realify(matrix: np.ndarray) -> np.ndarray:
    """Real 2r x 2c image [[Re, -Im], [Im, Re]] of a complex matrix.

    This is the matrix of the same linear map acting on stacked
    (real part, imaginary part) vectors.  A stack of matrices is realified
    matrix by matrix.
    """
    return real_blocks(np.real(matrix), np.imag(matrix))


def real_blocks(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Block matrix [[diag, -off], [off, diag]] over the last two axes."""
    top = np.concatenate([diag, -off], axis=-1)
    bottom = np.concatenate([off, diag], axis=-1)
    return np.concatenate([top, bottom], axis=-2)
