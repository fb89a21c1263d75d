"""Matrices of univariate polynomials.

Used for two things: coefficient matrices polynomial in the space
coordinate, and boundary/interface matrices polynomial in the spectral
parameter.  Coefficients are stored constant-first, matching the JSON
problem format.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class PolyMatrix:
    """An (rows x cols) matrix whose entries are polynomials in one variable.

    Internally a single ndarray of shape (deg+1, rows, cols) holding the
    coefficient of x**k at index k.  Real or complex coefficients.
    """

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 3:
            raise ValueError("PolyMatrix expects a (deg+1, rows, cols) array")
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, matrix) -> "PolyMatrix":
        m = np.asarray(matrix)
        return cls(m[np.newaxis, :, :].copy())

    @classmethod
    def zero(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(np.zeros((1, rows, cols)))

    @classmethod
    def from_entries(cls, entries) -> "PolyMatrix":
        """Build from a nested list: entries[i][j] is a coefficient list."""
        rows = len(entries)
        cols = len(entries[0])
        deg = 0
        is_complex = False
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged entry rows")
            for e in row:
                deg = max(deg, len(e) - 1)
                is_complex = is_complex or any(isinstance(c, complex) for c in e)
        dtype = complex if is_complex else float
        coeffs = np.zeros((deg + 1, rows, cols), dtype=dtype)
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                for k, c in enumerate(e):
                    coeffs[k, i, j] = c
        return cls(coeffs)

    # -- queries -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs.shape[1], self.coeffs.shape[2]

    @cached_property
    def degree(self) -> int:
        """Largest k with a nonzero x**k coefficient (0 for the zero matrix)."""
        for k in range(self.coeffs.shape[0] - 1, -1, -1):
            if np.any(self.coeffs[k] != 0):
                return k
        return 0

    def is_constant(self) -> bool:
        return self.degree == 0

    @cached_property
    def fixed_value(self) -> np.ndarray | None:
        """The matrix as read-only complex where it is constant (degree 0,
        whatever zero coefficients follow), None where it is not: callers
        can share this one array."""
        if self.degree:
            return None
        value = self.coeffs[0].astype(complex)
        value.flags.writeable = False
        return value

    @cached_property
    def is_identity(self) -> bool:
        """Whether the matrix is the constant identity, decided once per matrix."""
        value = self.fixed_value
        return value is not None and np.array_equal(value, np.eye(len(value)))

    @cached_property
    def derivative(self) -> "PolyMatrix":
        """The matrix of the entries' derivatives (zero, one coefficient, for
        a constant), formed once per matrix."""
        c = self.coeffs
        if len(c) == 1:
            return PolyMatrix(np.zeros_like(c))
        return PolyMatrix(c[1:] * np.arange(1, len(c))[:, np.newaxis, np.newaxis])

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Evaluate at scalar x -> (rows, cols); at array x -> (len(x), rows, cols).

        The array result is C-ordered, so each of its matrices has the
        memory layout of a scalar evaluation and takes the same matmul
        kernel, bit for bit.  A matrix stored as one constant gives, at an
        array, a read-only view of that constant broadcast over x (its
        leading stride is 0), not len(x) copies.
        """
        c = self.coeffs
        if np.ndim(x) == 0:
            out = c[-1].astype(np.result_type(c.dtype, type(x)), copy=True)
            for k in range(c.shape[0] - 2, -1, -1):
                out *= x
                out += c[k]
            return out
        x = np.asarray(x)
        dtype = np.promote_types(c.dtype, x.dtype)
        if len(c) == 1:
            return np.broadcast_to(c[0].astype(dtype, copy=False), (len(x),) + c.shape[1:])
        out = np.empty((len(x),) + c.shape[1:], dtype=dtype)
        out[...] = c[-1]
        xcol = x[:, np.newaxis, np.newaxis]
        for k in range(c.shape[0] - 2, -1, -1):
            out *= xcol
            out += c[k]
        return out

    # -- serialization helpers ----------------------------------------------

    def to_lists(self):
        """Nested lists entries[i][j] = [c0, c1, ...] trimmed to self degree."""
        d = self.degree
        rows, cols = self.shape
        return [
            [[_scalar(self.coeffs[k, i, j]) for k in range(d + 1)] for j in range(cols)]
            for i in range(rows)
        ]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        d = max(self.coeffs.shape[0], other.coeffs.shape[0])
        a = _pad(self.coeffs, d)
        b = _pad(other.coeffs, d)
        return bool(np.array_equal(a, b))

    def __hash__(self):
        return hash((self.shape, self.degree))

    def __repr__(self):
        return f"PolyMatrix(shape={self.shape}, degree={self.degree})"


def _pad(coeffs: np.ndarray, deg_plus_one: int) -> np.ndarray:
    if coeffs.shape[0] == deg_plus_one:
        return coeffs
    out = np.zeros((deg_plus_one,) + coeffs.shape[1:], dtype=coeffs.dtype)
    out[: coeffs.shape[0]] = coeffs
    return out


def _scalar(x):
    """Native Python number for JSON output."""
    if np.iscomplexobj(x) and np.imag(x) != 0:
        raise ValueError("complex coefficients are not JSON-serializable")
    return float(np.real(x))
