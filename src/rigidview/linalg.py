"""Small dense matrix kernels over two scalar backends.

Every matrix in this package is tiny (at most a few dozen rows for the
geometry, ~1500 columns for coefficient matrices), dense and immutable.
Two scalar backends are supported and never mixed inside one computation:

* ``"exact"``: Python ints and :class:`fractions.Fraction`, with decidable
  equality and fraction-free (Bareiss) elimination so intermediate entries
  stay minor-sized,
* ``"float"``: IEEE binary64 through numpy's LAPACK: rank from the
  singular value decomposition, with singular values at most a relative
  tolerance counted as zero, and the determinant from the LU
  factorization.  The package writes no float elimination of its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm, prod
from typing import Iterable, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction, float]

EXACT = "exact"
FLOAT = "float"

DEFAULT_RANK_TOL = 1e-9
# Stored exact integer arrays are int64 when every |entry| is below this
# (_int_array); products are int64 when a bound on their sums is.
INT64_LIMIT = 2 ** 63


class BackendError(TypeError):
    """Exact and float scalars were mixed, or a tolerance is missing."""


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


def encode_scalar(x: Scalar):
    """JSON form of a scalar: rationals become 'p/q' strings, floats stay numbers."""
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return str(x)


def decode_scalar(v, backend: str = EXACT) -> Scalar:
    """Scalar from its JSON form: a number or a string; NaN, infinities,
    null, booleans and any other value raise ValueError.

    On the exact backend a float is read as the shortest decimal that
    round-trips to it (``repr``), so 0.1 is 1/10 and 1e-13 is 1/10^13."""
    if isinstance(v, bool) or not isinstance(v, (int, float, Fraction, str)):
        raise ValueError(f"scalar {v!r} is not a number or a string")
    if isinstance(v, float) and not isfinite(v):
        raise ValueError(f"scalar {v} is not finite")
    if backend == FLOAT:
        return float(Fraction(v)) if isinstance(v, str) else float(v)
    f = Fraction(repr(v) if isinstance(v, float) else v)
    return f.numerator if f.denominator == 1 else f


class Mat:
    """Immutable dense matrix with row-major entries and a fixed backend.

    Integer and Fraction entries give the exact backend; any float entry
    selects the float backend (ints are then coerced to float).  Mixing
    Fraction and float entries is an error.
    """

    __slots__ = ("rows", "cols", "data", "backend")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(r) for r in rows)
        if not data or not data[0]:
            raise ShapeError("matrix must have at least one row and column")
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ShapeError("ragged rows")
        has_float = any(isinstance(x, float) for r in data for x in r)
        has_frac = any(isinstance(x, Fraction) for r in data for x in r)
        if has_float and has_frac:
            raise BackendError("cannot mix Fraction and float entries in one matrix")
        if has_float:
            data = tuple(tuple(float(x) for x in r) for r in data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "backend", FLOAT if has_float else EXACT)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, n: int, backend: str = EXACT) -> "Mat":
        one, zero = (1.0, 0.0) if backend == FLOAT else (1, 0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "Mat":
        return cls([[0] * c for _ in range(r)])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[Scalar]]) -> "Mat":
        return cls(list(zip(*cols)))

    def __getitem__(self, rc):
        i, j = rc
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Mat":
        return Mat(zip(*self.data))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_float(self) -> "Mat":
        return Mat([[float(x) for x in r] for r in self.data])

    def scaled(self, c: Scalar) -> "Mat":
        return Mat([[c * x for x in r] for r in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose().data
        return Mat([[sum(a * b for a, b in zip(r, c)) for c in ot] for r in self.data])

    def apply(self, vec: Sequence[Scalar]) -> tuple:
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(r, vec)) for r in self.data)

    def delete_row(self, i: int) -> "Mat":
        return Mat(self.data[:i] + self.data[i + 1:])

    def delete_col(self, j: int) -> "Mat":
        return Mat([r[:j] + r[j + 1:] for r in self.data])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Mat":
        return Mat([[self.data[i][j] for j in cols] for i in rows])

    def __eq__(self, other):
        return isinstance(other, Mat) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.backend})"


def _cleared(values):
    """Integers proportional to exact values, and the least positive integer
    that clears them; values with no denominator come back unchanged."""
    den = lcm(*(x.denominator for x in values))
    if den == 1:
        return values, 1
    return [x.numerator * (den // x.denominator) for x in values], den


def _max_abs(values: np.ndarray) -> int:
    """max |entry| of an int64 or object integer array as a Python int (0 if empty).
    int64 arrays are scanned by numpy and their extremes negated as Python
    ints, which stays exact at -2^63."""
    if values.dtype == np.int64:
        return max(int(values.max()), -int(values.min())) if values.size else 0
    return max(map(abs, values.ravel().tolist()), default=0)


def _int_array(values) -> np.ndarray:
    """The width rule for stored exact integer arrays: int64 when every |entry|
    is below :data:`INT64_LIMIT`, else Python ints in an object array.
    Readers branch once on the dtype, never per entry."""
    values = np.asarray(values, dtype=object)
    return values.astype(np.int64) if _max_abs(values) < INT64_LIMIT else values


def _is_probable_prime(m: int) -> bool:
    """Miller-Rabin with the twelve prime bases up to 37, which is
    deterministic for every m below 3.3 * 10^24, so exact for the word-size
    moduli of the mod-p ranks."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _bareiss_echelon(data):
    """Fraction-free row echelon of integer rows.

    Returns (echelon rows, pivot column list, sign of the row permutation).
    Entries stay bounded by the matrix's minors; each elimination step
    divides exactly by the previous pivot, so for a nonsingular square
    matrix the last pivot is its determinant times that sign.
    """
    a = [list(r) for r in data]
    nrows, ncols = len(a), len(a[0])
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if a[r][c] == 0:
            piv_row = next((i for i in range(r + 1, nrows) if a[i][c] != 0), None)
            if piv_row is None:
                continue
            a[r], a[piv_row] = a[piv_row], a[r]
            sign = -sign
        top = a[r]
        piv = top[c]
        for row in a[r + 1:]:
            factor = row[c]
            row[c] = 0
            for j in range(c + 1, ncols):
                row[j] = (row[j] * piv - factor * top[j]) // prev
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivot_cols, sign


def _float_array(rows) -> np.ndarray:
    """Float rows as a float64 array for LAPACK; NaN and infinities raise
    ValueError, since LAPACK would carry them into every result."""
    a = np.array(rows, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("float linear algebra needs finite entries")
    return a


class RankReport:
    """Result of a rank computation: the rank, and on the float backend the
    singular values (largest first) and the tolerance that was applied."""

    __slots__ = ("rank", "singular_values", "tolerance")

    def __init__(self, rank: int, singular_values=(), tolerance=None):
        self.rank = rank
        self.singular_values = tuple(singular_values)
        self.tolerance = tolerance

    def __eq__(self, other):
        return isinstance(other, RankReport) and self.rank == other.rank

    def __repr__(self):
        return f"RankReport(rank={self.rank}, tolerance={self.tolerance})"


def det(m: Mat) -> Scalar:
    """Determinant of a square matrix of size at most 8.

    Exact backend: each row is cleared of denominators and the matrix goes
    through the fraction-free elimination of :func:`rank`.  Float backend:
    LAPACK's LU factorization with partial pivoting (``numpy.linalg.det``).
    """
    if not m.is_square():
        raise ShapeError("determinant needs a square matrix")
    return _det_rows(m.data, m.backend)


def _det_rows(rows, backend: str) -> Scalar:
    """:func:`det` of square rows of one backend, with no :class:`Mat` built."""
    n = len(rows)
    if n > 8:
        raise ShapeError("det supports matrices up to size 8")
    if backend == FLOAT:
        return float(np.linalg.det(_float_array(rows)))
    cleared = [_cleared(r) for r in rows]
    ech, pivot_cols, sign = _bareiss_echelon([r for r, _ in cleared])
    if len(pivot_cols) < n:
        return 0
    den = prod(d for _, d in cleared)
    if den == 1:
        return sign * ech[n - 1][n - 1]
    result = Fraction(sign * ech[n - 1][n - 1], den)
    return result.numerator if result.denominator == 1 else result


def _exact_rank(rows) -> int:
    """Exact rank of rows of ints and Fractions, with no :class:`Mat` built:
    each row is cleared of denominators and the rows go through one
    fraction-free elimination."""
    return len(_bareiss_echelon([_cleared(r)[0] for r in rows])[1])


def rank(m: Mat, tol: float | None = None) -> RankReport:
    """Rank of a matrix.  Float backend: the numerical rank, the number of
    singular values (LAPACK's SVD) above ``tol`` times the largest (default
    :data:`DEFAULT_RANK_TOL`); a zero matrix has rank 0."""
    if m.backend == EXACT:
        return RankReport(_exact_rank(m.data))
    if tol is None:
        tol = DEFAULT_RANK_TOL
    s = np.linalg.svd(_float_array(m.data), compute_uv=False)
    return RankReport(int(np.count_nonzero(s > tol * s[0])), s.tolist(), tol)


def integer_cleared(vec: Sequence[Scalar]) -> tuple:
    """Scale an exact vector to coprime integers (direction preserved)."""
    ints = [x.numerator for x in _cleared(vec)[0]]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def signed_maximal_minors(m: Mat) -> tuple:
    """For a k x (k+1) matrix, the vector of signed maximal minors.

    Component i (0-based) is (-1)^i times the determinant of the matrix with
    column i deleted, so that ``m @ result = 0`` identically.  This sign
    convention is fixed package-wide.
    """
    if m.cols != m.rows + 1:
        raise ShapeError(f"need k x (k+1), got {m.rows}x{m.cols}")
    out = []
    for i in range(m.cols):
        d = _det_rows([r[:i] + r[i + 1:] for r in m.data], m.backend)
        out.append(d if i % 2 == 0 else -d)
    return tuple(out)


def adjugate(m: Mat) -> Mat:
    """Adjugate of a square matrix: column i is (-1)^i times the signed
    maximal minors of the matrix with row i deleted, so that
    ``m @ adjugate(m)`` is det(m) times the identity."""
    if not m.is_square():
        raise ShapeError("adjugate needs a square matrix")
    if m.rows == 1:
        return Mat.identity(1, m.backend)
    cols = []
    for i in range(m.rows):
        minors = signed_maximal_minors(m.delete_row(i))
        cols.append(minors if i % 2 == 0 else tuple(-x for x in minors))
    return Mat.from_cols(cols)


def invert(m: Mat) -> Mat:
    """Inverse of an exact square matrix of size at most 8: its adjugate
    over its determinant.  Entries that are integers come back as ints; a
    singular matrix raises ValueError, and a float one BackendError."""
    if m.backend == FLOAT:
        raise BackendError("invert is defined on the exact backend")
    d = det(m)
    if d == 0:
        raise ValueError("matrix is singular")
    inv = [[Fraction(x, d) for x in r] for r in adjugate(m).data]
    return Mat([[x.numerator if x.denominator == 1 else x for x in r] for r in inv])
