"""Sparse multigraded polynomials in the 6n image variables.

The coordinate ring of n left image planes and n right image planes carries
a Z^(2n) grading: one degree slot per camera per side.  Variables are
ordered u_(1,0), u_(1,1), u_(1,2), ..., u_(n,2), v_(1,0), ..., v_(n,2); an
exponent vector is a tuple of 6n nonnegative integers.  The module expands
triangulation cofactor vectors and the degree-8 distance constraints
symbolically for a fixed numeric rig (in exact float64 BLAS limb products),
computes span dimensions of polynomial families modulo a random 31-bit prime
(sparse rows with distinct leading columns are taken as pivots, the other
rows reduced by them sparsely, and only the remainder is eliminated densely,
on a sample of its rows when random combinations of all rows certify it), and
counts the conjectured minimal generators per degree class.  Polynomials
carry no arithmetic: nothing in the package adds or multiplies them.

The cofactor vectors come from the signed 3x3 camera minors that the rig
stores (:meth:`rigidview.cameras.CameraRig.minor_table`), and the octics
from the contraction that :class:`rigidview.constraints.OcticEngine` evaluates
numerically: ``X_u T X_v^T``, T the dense 16 x 16 matrix of the form's
polarization and X holding the outer products of a camera pair's cofactor
vectors as coefficients over the 36 monomials of bidegree (2, 2) in its two
image points.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, log2
from numbers import Rational
from typing import Sequence

import numpy as np

from .cameras import CameraRig
from .constraints import QuadTensor, _ROW_PAIRS, _gram, polarize, unit_distance_form
from .linalg import EXACT, INT64_LIMIT, Scalar, _int_array, _is_probable_prime, _max_abs


def variable_index(n: int, side: str, cam: int, coord: int) -> int:
    """Flat index of u_(cam, coord) or v_(cam, coord); cameras 0-based."""
    if side not in ("u", "v"):
        raise ValueError("side is 'u' or 'v'")
    if not (0 <= cam < n and 0 <= coord < 3):
        raise IndexError("camera or coordinate out of range")
    base = 0 if side == "u" else 3 * n
    return base + 3 * cam + coord


def multidegree_of(exps: Sequence[int]) -> tuple:
    """Per-block degree vector (u blocks in camera order, then v blocks)."""
    if len(exps) % 6 != 0:
        raise ValueError("exponent length must be 6n")
    return tuple(sum(exps[3 * b: 3 * b + 3]) for b in range(len(exps) // 3))


def _block_monomials(degree: int) -> list:
    """Degree-d exponent triples in descending lexicographic order."""
    out = [(a, b, degree - a - b) for a in range(degree, -1, -1)
           for b in range(degree - a, -1, -1)]
    return sorted(out, reverse=True)


def monomial_basis(n: int, multidegree: Sequence[int]) -> list:
    """Canonical column order for one multidegree: graded-lex inside each
    3-variable block, blocks in camera order with u before v."""
    if len(multidegree) != 2 * n:
        raise ValueError("multidegree length must be 2n")
    blocks = [_block_monomials(d) for d in multidegree]
    return [tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*blocks)]


@lru_cache(maxsize=8)
def _basis_index(n: int, multidegree: tuple):
    """:func:`monomial_basis` as a tuple, and the position of each of its
    exponent tuples."""
    basis = tuple(monomial_basis(n, multidegree))
    return basis, {m: i for i, m in enumerate(basis)}


def _clear(coefs) -> tuple:
    """Nonzero rationals as (nums, den): den the lcm of their reduced
    denominators, nums each coefficient times den, by the linalg width rule."""
    den = lcm(*(int(c.denominator) for c in coefs))
    return _int_array([int(c.numerator) * (den // int(c.denominator)) for c in coefs]), den


def _row_values(nums: np.ndarray, den: int) -> list:
    """nums / den entry by entry: an int where it is integral, else a Fraction."""
    if den >= INT64_LIMIT:
        # int64 cannot hold den: divide as Python ints
        nums = nums.astype(object)
    values = (nums // den).tolist()
    if den != 1:
        odd = np.flatnonzero(nums % den)
        for i, x in zip(odd.tolist(), nums[odd].tolist()):
            values[i] = Fraction(x, den)
    return values


def _frozen(row) -> tuple:
    """A cleared row ``(cols, nums, den)``, or its ``(cols, nums)``, with
    both arrays made read-only.  Views of a read-only array are born
    read-only, so builders of many rows mark the arrays they slice the rows
    from once."""
    for x in row[:2]:
        if x.flags.writeable:
            x.flags.writeable = False
    return row


class _Terms(Mapping):
    """Exponent tuple -> coefficient, a read-only view of a polynomial's
    cleared row in row order.  ``len`` and iteration derive no coefficient;
    the first lookup, ``items()`` or ``values()`` derives all of them, as a
    column -> value map that the view keeps for its later reads, so
    ``dict(q.terms)`` derives each coefficient once."""

    __slots__ = ("_poly", "_by_col")

    def __init__(self, poly: "MultiHomogPoly"):
        self._poly = poly
        self._by_col = None

    def _basis(self):
        poly = self._poly
        return _basis_index(poly.n, poly.multidegree) if poly.multidegree else ((), {})

    def _values_by_col(self) -> dict:
        if self._by_col is None:
            cols, nums, den = self._poly._row
            self._by_col = dict(zip(cols.tolist(), _row_values(nums, den)))
        return self._by_col

    def __len__(self):
        return len(self._poly._row[0])

    def __iter__(self):
        return map(self._basis()[0].__getitem__, self._poly._row[0].tolist())

    def __getitem__(self, exps):
        col = self._basis()[1].get(exps)
        by_col = self._values_by_col()
        if col not in by_col:
            raise KeyError(exps)
        return by_col[col]

    def values(self) -> list:
        return list(self._values_by_col().values())

    def items(self) -> list:
        return list(zip(self, self.values()))


class MultiHomogPoly:
    """Sparse polynomial whose terms all share one multidegree.

    The zero polynomial ``MultiHomogPoly(n)`` has no terms and multidegree
    None.  Coefficients are exact rationals (ints or Fractions; a
    coefficient that is not a ``numbers.Rational`` raises TypeError).  A
    polynomial is immutable, and its one stored form is its cleared row
    ``(cols, nums, den)``: the terms' positions in ``monomial_basis(n,
    multidegree)`` (the smallest unsigned dtype that holds the basis size),
    their coefficients times den (in the width of
    :func:`rigidview.linalg._int_array`) and den, the lcm of the
    coefficients' reduced denominators.  Every rank and failure bound reads
    it; :attr:`terms` is a read-only mapping over it (``dict(q.terms)`` is a
    mutable copy), and ``==`` compares the rows as column -> value maps.
    The row's two arrays are read-only (:func:`_frozen`): the rank hand-off
    of :func:`span_dimension` relies on a polynomial never changing.
    """

    __slots__ = ("n", "multidegree", "_row")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.multidegree = None
        cols, coefs, index = [], [], None
        for exps, c in (terms or {}).items():
            if not isinstance(c, Rational):
                raise TypeError(f"coefficient {c!r} of {exps} is not an int or a Fraction")
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != 6 * n:
                raise ValueError(f"exponent vectors need length {6 * n}")
            if index is None:
                self.multidegree = multidegree_of(exps)
                basis, index = _basis_index(n, self.multidegree)
            col = index.get(exps)
            if col is None:
                raise ValueError(f"exponents {exps} are not a monomial of the first "
                                 f"term's multidegree {self.multidegree}")
            cols.append(col)
            coefs.append(c)
        if not cols:
            self._row = _frozen((np.zeros(0, np.uint8), np.zeros(0, np.int64), 1))
            return
        self._row = _frozen((np.array(cols, dtype=np.min_scalar_type(len(basis))), *_clear(coefs)))

    @classmethod
    def _trusted(cls, n: int, multidegree: tuple, row) -> "MultiHomogPoly":
        """A polynomial from its cleared row over the basis of
        ``multidegree``, nothing checked or copied: ``row`` lists distinct
        columns with nonzero numerators, reduced against den.  Its arrays
        are made read-only."""
        poly = cls.__new__(cls)
        poly.n = n
        poly.multidegree = multidegree if len(row[0]) else None
        poly._row = _frozen(row)
        return poly

    @property
    def terms(self) -> Mapping:
        """Exponent tuple -> coefficient: a :class:`_Terms` view of the row."""
        return _Terms(self)

    def is_zero(self) -> bool:
        return not len(self._row[0])

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other):
        """Equal n, multidegree and column -> value maps.  Rows are reduced
        against den, so equal maps have equal den and numerators."""
        if not (isinstance(other, MultiHomogPoly) and self.n == other.n
                and self.multidegree == other.multidegree):
            return False
        (c1, n1, d1), (c2, n2, d2) = self._row, other._row
        o1, o2 = np.argsort(c1), np.argsort(c2)
        return d1 == d2 and np.array_equal(c1[o1], c2[o2]) and np.array_equal(n1[o1], n2[o2])

    def __repr__(self):
        return f"MultiHomogPoly(n={self.n}, degree={self.multidegree}, terms={len(self._row[0])})"


# Degree-2 monomials of one image point as index pairs a <= a', in the order
# of _block_monomials(2).
_DEG2 = [(a, b) for a in range(3) for b in range(a, 3)]
# _DEG2_OF[a, b]: the position in _DEG2 of the monomial of indices a and b.
_DEG2_OF = np.array([[_DEG2.index((min(a, b), max(a, b))) for b in range(3)] for a in range(3)])


def _fold_map():
    """How the 81 products u_j[a] u_k[b] u_j[a'] u_k[b'], indexed
    27a + 9b + 3a' + b', collect onto the 36 monomials of bidegree (2, 2),
    indexed 6 m_j + m_k: a permutation that groups each monomial's products
    together, and where each group starts."""
    slot = {pair: m for m, pair in enumerate(_DEG2)}
    target = [6 * slot[min(a, a2), max(a, a2)] + slot[min(b, b2), max(b, b2)]
              for a in range(3) for b in range(3) for a2 in range(3) for b2 in range(3)]
    order = np.argsort(target, kind="stable")
    starts = np.searchsorted(np.array(target)[order], np.arange(36))
    return order, starts


_FOLD_ORDER, _FOLD_STARTS = _fold_map()


def _outer_rows(rig: CameraRig, j: int, k: int):
    """X for camera pair (j, k): a 21 x 16 x 36 array of ints whose entry
    [r, (p, q), m] is the coefficient of bidegree-(2, 2) monomial m in
    w_i1[p] w_i2[q], the outer product of cofactor vectors i1, i2 (row
    pair r), the positive integer it is multiplied by, and the bound
    4 max|table|^2 on every |entry|.

    The cofactor vectors are bilinear in (u_j, u_k) with the coefficients of
    the rig's cleared minor table, and each entry of X sums at most 4
    products of two table entries: X is built in int64 when the bound is
    below INT64_LIMIT, else on Python ints, so that no product or sum can
    overflow."""
    table, den = rig.minor_table(j, k)
    bound = 4 * _max_abs(table) ** 2
    # the products run over all 9 x 9 pairs of bilinear monomials, then are
    # folded onto the 36 monomials
    c = table.astype(np.int64 if bound < INT64_LIMIT else object, copy=False)
    i1, i2 = _ROW_PAIRS.T
    x = (c[i1, :, None, :, None] * c[i2, None, :, None, :]).reshape(len(_ROW_PAIRS), 16, 81)
    return np.add.reduceat(x[..., _FOLD_ORDER], _FOLD_STARTS, axis=-1), den * den, bound


def _side_exponents(n: int, j: int, k: int) -> list:
    """The 36 bidegree-(2, 2) monomials in the points of cameras j and k as
    exponent vectors over one side's 3n variables, in the column order of X."""
    out = []
    for mj, mk in itertools.product(_DEG2, repeat=2):
        exps = [0] * (3 * n)
        for cam, pair in ((j, mj), (k, mk)):
            for coord in pair:
                exps[3 * cam + coord] += 1
        out.append(tuple(exps))
    return out


@lru_cache(maxsize=64)
def _contraction_columns(n: int, pair_u: tuple, pair_v: tuple):
    """The multidegree of the octics of camera pairs pair_u and pair_v, and
    the basis position of each of the 36 x 36 contraction columns, as a
    read-only array."""
    exps = [h + t for h in _side_exponents(n, *pair_u) for t in _side_exponents(n, *pair_v)]
    degree = multidegree_of(exps[0])
    basis, index = _basis_index(n, degree)
    perm = np.array([index[e] for e in exps], dtype=np.min_scalar_type(len(basis)))
    perm.flags.writeable = False
    return degree, perm


def _limbs(x: np.ndarray, width: int) -> np.ndarray:
    """3-d int64 x as float64 limbs of ``width`` bits on a new first axis, the
    top one first, in [-2^width, 2^width), and the others in [0, 2^width)."""
    count = max(-(-_max_abs(x).bit_length() // width), 1)
    limbs = x >> width * np.arange(count - 1, -1, -1).reshape(-1, 1, 1, 1)
    limbs[1:] &= (1 << width) - 1
    return limbs.astype(np.float64)


def _exact_product(a: np.ndarray, b: np.ndarray, row_bound: int, entry_bound: int) -> np.ndarray:
    """a[i] @ b[j].T at [i, j] in int64, for 3-d int64 a and b of k columns,
    row_bound >= every row sum of |a| and entry_bound >= every |b|, whose
    product is below 2^63.  The products run in float64 BLAS, exact while
    partial sums stay below 2^53 (Dumas, Giorgi and Pernet, FFLAS-FFPACK,
    2008): one product under that bound, else one per :func:`_limbs` of the
    operand whose factor of the bound has more bits, w = 53 minus the other
    factor's bits wide (row_bound for b's limbs, k entry_bound for a's),
    summed in int64, where wrap-around is exact modulo 2^64.  Products are
    written into the result four rows of a at a time."""
    bits = [row_bound.bit_length(), (a.shape[-1] * entry_bound).bit_length()]
    width = 53 - min(bits) if row_bound * entry_bound >= 2 ** 53 else 63
    widths = (63, width) if bits[0] <= bits[1] else (width, 63)
    terms = list(itertools.product(_limbs(a, widths[0]), _limbs(b, widths[1]).swapaxes(2, 3)))
    out = np.zeros((len(a), len(b), a.shape[1], b.shape[1]), np.int64)
    for s, (x, y) in itertools.product(range(0, len(a), 4), terms):
        block = out[s:s + 4]
        block <<= width
        np.add(block, x[s:s + 4, None] @ y, out=block, dtype=np.int64, casting="unsafe")
    return out


def _contract_octics(rig: CameraRig, tensor: QuadTensor, pair_u, pair_v,
                     rows_u, rows_v) -> list:
    """The octics of every row pair in ``rows_u`` (positions in _ROW_PAIRS)
    against every one in ``rows_v``, as X_u T X_v^T: the coefficient of
    monomial (m_u, m_v) in the octic of row pairs (r_u, r_v) is the sum over
    s, t of X_u[r_u, s, m_u] T[s, t] X_v[r_v, t, m_v], computed on cleared
    integers over the product of the three clearing factors (in int64 by
    :func:`_exact_product` where the bounds allow).  Each octic is its cleared
    row of these integers: with g the gcd of the clearing factor and the row's
    nonzero entries, those entries over g and the factor over g.  Raises
    ValueError unless the tensor is of bidegree (2, 2)."""
    if rig.backend != EXACT:
        raise ValueError("symbolic expansion needs an exact rig")
    n = rig.n
    gram, den, _ = _gram(tensor, True, 2, 2)
    x_u, den_u, bound_u = _outer_rows(rig, *pair_u)
    x_v, den_v, _ = ((x_u, den_u, bound_u) if tuple(pair_v) == tuple(pair_u)
                     else _outer_rows(rig, *pair_v))
    den *= den_u * den_v
    degree, perm = _contraction_columns(n, tuple(pair_u), tuple(pair_v))

    a = x_u[rows_u].transpose(0, 2, 1)
    b = x_v[rows_v].transpose(0, 2, 1)
    # No partial sum of a row of a times a column of T, and no row sum of
    # |a T|, exceeds X_u's bound times the sum of |T|: below INT64_LIMIT a T
    # is exact in int64, else it is taken in Python ints.
    if bound_u * sum(map(abs, gram.ravel().tolist())) < INT64_LIMIT:
        a = a.astype(np.int64, copy=False) @ gram.astype(np.int64, copy=False)
    else:
        a = a.astype(object) @ gram.astype(object)
    # No partial sum of a row of a T times a row of b, and no entry of
    # either, exceeds the product of these bounds (each at least 1, so that an
    # all-zero operand, a pair whose 6x4 stack has rank below 3, cannot let
    # the other through): below INT64_LIMIT, with the clearing factor, the
    # product and the division are exact in int64, else in Python ints.
    bounds = max(int(np.abs(a).sum(axis=-1).max()), 1), max(_max_abs(b), 1)
    if den < INT64_LIMIT and bounds[0] * bounds[1] < INT64_LIMIT:
        coefs = _exact_product(a.astype(np.int64), b.astype(np.int64), *bounds)
    else:
        coefs = np.matmul(a.astype(object)[:, None], b.astype(object).swapaxes(1, 2))
    coefs = coefs.reshape(-1, 36 * 36)
    # one nonzero scan of the whole matrix, split into rows: row-major, so
    # each row's columns come in ascending order
    nonzero = coefs != 0
    cols, nums = np.broadcast_to(perm, coefs.shape)[nonzero], coefs[nonzero]
    counts = nonzero.sum(axis=1)
    ends = np.cumsum(counts)
    # g, the gcd of den and the row's nonzero entries, divides both.  It takes
    # few values, as it divides den, and dividing the entries of the rows that
    # share one by that scalar, in place, is far cheaper than by an array.
    g = np.full(len(coefs), den, nums.dtype)
    g[counts > 0] = np.gcd(np.gcd.reduceat(nums, (ends - counts)[counts > 0]), den)
    for d in np.unique(g).tolist():
        if d != 1:
            np.floor_divide(nums, d, out=nums, where=np.repeat(g == d, counts))
    _frozen((cols, nums))
    out = []
    for start, end, row_den in zip((ends - counts).tolist(), ends.tolist(), (den // g).tolist()):
        row_nums = nums[start:end]
        if row_nums.dtype == object:
            row_nums = _int_array(row_nums)
        out.append(MultiHomogPoly._trusted(n, degree, (cols[start:end], row_nums, row_den)))
    return out


def expand_wedge_symbolic(rig: CameraRig, j: int, k: int, row: int,
                          side: str = "u") -> list:
    """The four world coordinates of the row-deleted cofactor vector as
    polynomials, bilinear in the image variables of cameras j and k.

    Every coefficient is, up to sign, a 3x3 minor of the stacked 6x4 camera
    matrix, read from the rig's minor table.  ``row`` is 0-based.
    """
    if rig.backend != EXACT:
        raise ValueError("symbolic expansion needs an exact rig")
    n = rig.n
    table, den = rig.minor_table(j, k)
    table = table.tolist()
    out = []
    for c in range(4):
        terms = {}
        for a in range(3):
            for b in range(3):
                exps = [0] * (6 * n)
                exps[variable_index(n, side, j, a)] = 1
                exps[variable_index(n, side, k, b)] = 1
                coef = table[row][c][3 * a + b]
                terms[tuple(exps)] = coef if den == 1 else Fraction(coef, den)
        out.append(MultiHomogPoly(n, terms))
    return out


def all_octics_symbolic(rig: CameraRig, tensor: QuadTensor,
                        pair_u=(0, 1), pair_v=(0, 1)) -> list:
    """All 441 symbolic octics of one camera-pair-of-pairs (row index pairs
    i1 <= i2 and i3 <= i4 over the six rows of each side, i3, i4 varying
    fastest), assembled as one integer contraction ``X_u T X_v^T``."""
    rows = np.arange(len(_ROW_PAIRS))
    return _contract_octics(rig, tensor, pair_u, pair_v, rows, rows)


def ideal_component_basis(rig: CameraRig) -> list:
    """Degree-(2,2,2,2) slice of the two-camera consistency ideal.

    Supported for two cameras only, where the ideal of consistent pairs is
    generated by the two bilinear determinant forms; the slice consists of
    each generator times every monomial of the complementary multidegree.
    """
    if rig.n != 2:
        raise ValueError("the two bilinear generators only span the ideal for n = 2; "
                         "three or more cameras would need the trilinear generators")
    if rig.backend != EXACT:
        raise ValueError("symbolic expansion needs an exact rig")
    f = rig.fundamental(0, 1)
    terms = [(a, b) for a in range(3) for b in range(3) if f[a, b] != 0]
    nums, den = _clear([f[t] for t in terms])
    a, b = np.array(terms, dtype=np.intp).reshape(-1, 2).T
    # Term (a, b) times the monomial (c, d) of the same side sits at 6 D[a, c]
    # + D[b, d] (D = _DEG2_OF) over that side's two degree-2 blocks; with the
    # other side's monomial m the column is 36 pair + m (u) or pair + 36 m (v).
    pair = (6 * _DEG2_OF[a][:, :, None] + _DEG2_OF[b][:, None, :]).reshape(-1, 9).T
    m = np.arange(36)[:, None, None]
    cols = np.concatenate([(36 * pair + m).transpose(1, 0, 2).reshape(324, -1),  # (c, d, m)
                           (pair + 36 * m).reshape(324, -1)])                    # (m, c, d)
    cols, nums = _frozen((cols.astype(np.min_scalar_type(6 ** 4)), nums))
    return [MultiHomogPoly._trusted(2, (2, 2, 2, 2), (row, nums, den)) for row in cols]


# The number of primes in [2^30, 2^31), pi(2^31) - pi(2^30).
RANK_PRIME_COUNT = 105_097_565 - 54_400_028


def random_rank_prime(rng) -> int:
    """A prime drawn uniformly from the RANK_PRIME_COUNT primes in
    [2^30, 2^31) (odd prime p is hit by the candidates p - 1 and p), suitable
    for :func:`span_dimension`."""
    while True:
        cand = rng.randrange(2 ** 30, 2 ** 31) | 1
        if _is_probable_prime(cand):
            return cand


def _check_rank_modulus(p) -> int:
    if isinstance(p, bool) or not hasattr(p, "__index__"):
        raise TypeError(f"modulus {p!r} is not an int")
    if not (p < 2 ** 31 and _is_probable_prime(operator.index(p))):
        raise ValueError(f"modulus {p} is not a prime below 2^31; the mod-p rank needs one "
                         "(its float64 products are exact only while centered residues "
                         "stay below 2^30)")
    return operator.index(p)


# Exactness of the float64 products: a centered residue has |x| <= 2^30 - 1,
# a low limb lies in [0, 2^15) and a high limb in [-2^15, 2^15), and every
# product below sums PANEL_WIDTH = 2^7 terms of each kind, so its partial
# sums stay below 2^7 (2^30 - 1)(2^16 - 1) < 2^53 - 2^37 and are exact in any
# summation order, as is adding a residue below 2^31.  A wider panel breaks
# this bound.
PANEL_WIDTH = 128
# Panels at most this wide are eliminated column by column.
_LEAF_WIDTH = 32
# Rows and columns per trailing-update product, which bound its float64
# temporaries.
_UPDATE_ROWS = 128
_UPDATE_COLUMNS = 256
# Rows per chunk of _residue_chunks, which bounds the fills' temporaries.
_FILL_ROWS = 64


def _mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p as ``x - (x // p) * p``, equal to numpy's remainder in value
    and dtype for p > 0, on int64 and object arrays; ``out`` may be x.
    This serves every int64 residue of the ranks (float64 sums go through
    :func:`_reduce`): numpy divides an int64 array by a scalar on a fast
    path but takes remainders element by element, several times slower.
    In int64 the product (x // p) * p may wrap, but the result is exact all
    the same: the subtraction is exact modulo 2^64, and the true value lies
    in [0, p)."""
    q = x // p
    q *= p
    return np.subtract(x, q, out=out)


def _reduce(x: np.ndarray, p: int, work: np.ndarray) -> None:
    """x mod p in place, for float64 x holding integers below 2^53 - 2^36 in
    magnitude; work is a float64 array of x's shape that is overwritten.
    This serves the float64 sums of the products (int64 residues go through
    :func:`_mod`), where a floor of x * (1/p) costs less than a division.
    x * (1/p) carries two roundings, so it is within |x / p| (2^-52 + 2^-106)
    < 1 of x / p, and its floor q is off by at most one: q p and x - q p are
    exact, the latter lies in (-p, 2p), and one fix-up each way brings it
    into [0, p)."""
    np.multiply(x, 1.0 / p, out=work)
    np.floor(work, out=work)
    work *= p
    x -= work
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)


def _limb_left(a: np.ndarray, p: int) -> np.ndarray:
    """The float64 left operand of a product congruent to a @ b mod p: a
    and a * 2^15 mod p side by side, centered.  a has residues in [0, p) and
    at most PANEL_WIDTH columns.  a * 2^15 is below 2^46 and is reduced in
    float64 by :func:`_reduce`, with the left half as its work array before
    a is written there."""
    q = a.shape[1]
    left = np.empty((a.shape[0], 2 * q))
    np.multiply(a, 1 << 15, out=left[:, q:])
    _reduce(left[:, q:], p, left[:, :q])
    left[:, :q] = a
    # about half the entries move, which the masked where= loops take slowly
    left -= (left > p // 2) * float(p)
    return left


def _limb_right(b: np.ndarray, p: int) -> np.ndarray:
    """The float64 right operand against :func:`_limb_left`: the low and
    high 15-bit limbs of b's centered residues, stacked.  b has residues in
    [0, p) and is overwritten."""
    q = b.shape[0]
    b -= (b > p // 2) * p
    right = np.empty((2 * q, b.shape[1]))
    np.bitwise_and(b, 0x7FFF, out=right[:q])
    np.right_shift(b, 15, out=b)
    right[q:] = b
    return right


def _add_product(c: np.ndarray, left: np.ndarray, right: np.ndarray, p: int) -> None:
    """c = (c + left @ right) mod p in place, for int64 c holding residues
    in [0, p), left = :func:`_limb_left` of a and right =
    :func:`_limb_right` of b, whose product is congruent to a @ b mod p.
    By the PANEL_WIDTH bound the sum is an integer below 2^53 - 2^36 in
    magnitude, exact in float64, and :func:`_reduce` reduces it there; c's
    own storage serves as its work array, since c's values are in the sum
    already."""
    x = left @ right
    x += c
    _reduce(x, p, c.view(np.float64))
    np.copyto(c, x, casting="unsafe")


def _eliminate_columns(x: np.ndarray, p: int):
    """Eliminate the narrow panel x column by column.  Returns the row order
    (pivot rows first), the rank q and the multipliers e, one row per
    non-pivot row: x[order[q:]] + e @ x[order[:q]] = 0 mod p.

    Next to the panel, y tracks every row as itself plus a combination of
    the original pivot rows; pivot j enters it as a unit in column j."""
    m, w = x.shape
    y = np.zeros((m, 2 * w), dtype=np.int64)
    y[:, :w] = x
    free = np.ones(m, dtype=bool)
    pivots = []
    for c in range(w):
        rows = np.flatnonzero(free & (y[:, c] != 0))
        if rows.size == 0:
            continue
        r, j = int(rows[0]), len(pivots)
        pivots.append(r)
        free[r] = False
        y[r, w + j] = 1
        rows, span = rows[1:], slice(c, w + j + 1)
        if rows.size:
            factors = _mod(y[rows, c] * pow(int(y[r, c]), -1, p), p)
            y[rows, span] = _mod(y[rows, span] - np.outer(factors, y[r, span]), p)
    q, rest = len(pivots), np.flatnonzero(free)
    return np.concatenate([np.array(pivots, dtype=np.intp), rest]), q, y[rest, w:w + q]


def _eliminate_panel(x: np.ndarray, p: int):
    """:func:`_eliminate_columns` for a panel of any width up to
    PANEL_WIDTH: eliminate the left half, update the right half's non-pivot
    rows by one product, eliminate those, and compose the two multiplier
    matrices by one more product."""
    w = x.shape[1]
    if w <= _LEAF_WIDTH:
        return _eliminate_columns(x, p)
    h = w // 2
    order1, q1, e1 = _eliminate_panel(x[:, :h], p)
    pivots1, rest1 = order1[:q1], order1[q1:]
    right = x[rest1, h:]
    _add_product(right, _limb_left(e1, p), _limb_right(x[pivots1, h:], p), p)
    order2, q2, e2 = _eliminate_panel(right, p)
    e = np.empty((len(order2) - q2, q1 + q2), dtype=np.int64)
    e[:, :q1] = e1[order2[q2:]]
    _add_product(e[:, :q1], _limb_left(e2, p), _limb_right(e1[order2[:q2]], p), p)
    e[:, q1:] = e2
    return np.concatenate([pivots1, rest1[order2]]), q1 + q2, e


def _eliminate(a: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """The blocked elimination of the rows ``rows`` (ascending positions)
    of a, residues in [0, p), returned as its pivot rows (Dumas, Giorgi and
    Pernet, FFLAS-FFPACK, 2008).

    Per panel of PANEL_WIDTH columns, the rows with an entry there are
    eliminated on the panel, and the other non-pivot rows' trailing columns
    are replaced by their Schur complement, one float64 BLAS product per
    _UPDATE_ROWS rows and _UPDATE_COLUMNS columns, exact below 2^53 and
    reduced mod p in float64 (see :func:`_add_product`).  Each row then
    equals its original plus a combination of the original pivot rows
    taken so far, so a row that becomes zero lies in their span and is
    dropped, and the pivot rows span what every row spans.  A column's pivot
    is the first of its candidate rows in a's order, so a row that lies in
    the span of the rows before it never becomes a pivot.  The work is done
    in a itself, which is overwritten."""
    basis = [np.zeros(0, dtype=np.intp)]
    for c in range(0, a.shape[1], PANEL_WIDTH):
        if rows.size == 0:
            break
        hit = a[rows, c:c + PANEL_WIDTH].any(axis=1)
        touched = rows[hit]
        order, q, e = _eliminate_panel(a[touched, c:c + PANEL_WIDTH], p)
        pivots, rest = touched[order[:q]], touched[order[q:]]
        basis.append(pivots)
        rows = rows[~hit]
        if rest.size == 0:
            continue
        left = _limb_left(e, p)
        live = np.zeros(rest.size, dtype=bool)
        for t in range(c + PANEL_WIDTH, a.shape[1], _UPDATE_COLUMNS):
            cols = slice(t, t + _UPDATE_COLUMNS)
            right = _limb_right(a[pivots, cols], p)
            for s in range(0, rest.size, _UPDATE_ROWS):
                block_rows = rest[s:s + _UPDATE_ROWS]
                block = a[block_rows, cols]
                _add_product(block, left[s:s + _UPDATE_ROWS], right, p)
                a[block_rows, cols] = block
                live[s:s + _UPDATE_ROWS] |= block.any(axis=1)
        rows = np.sort(np.concatenate([rows, rest[live]]))
    return np.concatenate(basis)


# A sampled rank is certified by s random combinations of all rows, which a
# sample that spans less than all rows lets through with probability at
# most p^-s; s is the least count with p^s >= 2^CERTIFICATE_BITS, so that
# a wrong certificate is far rarer than a bad prime.
CERTIFICATE_BITS = 90
# Rows per product of the certificate: a product sums this many terms, each
# a 16-bit limb of rho times a residue, so with the running residue added it
# is at most 2^6 (2^16 - 1)(2^31 - 2) + 2^31 < 2^53 - 2^36, exact in float64
# and within the bound of _reduce.
_CERTIFICATE_ROWS = 64


def _certificate_count(p: int) -> int:
    """s, the least count with p^s >= 2^CERTIFICATE_BITS: 3 for primes of
    30 bits or more, 90 for p = 2."""
    s = 1
    while p ** s < 2 ** CERTIFICATE_BITS:
        s += 1
    return s


@lru_cache(maxsize=8)
def _row_sample(count: int) -> np.ndarray:
    """PANEL_WIDTH of ``count`` row positions, ascending: one fixed
    pseudo-random subset per count, read-only."""
    sample = np.sort(np.random.default_rng(count).choice(count, PANEL_WIDTH, replace=False))
    sample.flags.writeable = False
    return sample


def _certificate(a: np.ndarray, p: int) -> np.ndarray:
    """:func:`_certificate_count` rows rho a mod p, for a with residues in
    [0, p) and rho drawn uniformly mod p from fresh OS entropy on every call
    (an unseeded generator), never from a seed.  The 16-bit limbs of rho
    multiply _CERTIFICATE_ROWS rows of a at a time in float64, exact and
    reduced there by :func:`_reduce`, so the temporaries stay a few such row
    blocks."""
    s = _certificate_count(p)
    rho = np.random.default_rng().integers(0, p, size=(s, a.shape[0]))
    limbs = np.concatenate([rho & 0xFFFF, rho >> 16]).astype(np.float64)
    acc = np.zeros((2 * s, a.shape[1]))
    work = np.empty_like(acc)
    for r in range(0, a.shape[0], _CERTIFICATE_ROWS):
        acc += limbs[:, r:r + _CERTIFICATE_ROWS] @ a[r:r + _CERTIFICATE_ROWS].astype(np.float64)
        _reduce(acc, p, work)
    # both halves are residues below 2^31: the sum is below 2^48
    out = acc[:s] + acc[s:] * 2.0 ** 16
    _reduce(out, p, work[:s])
    return out.astype(np.int64)


def _modp_rank(a: np.ndarray, p: int) -> np.ndarray:
    """Rank of the int64 matrix a over GF(p), p a prime below 2^31,
    returned as the pivot rows: the positions in a of rank-many rows whose
    original entries form a basis of a's row space mod p.  Entries outside
    [0, p) are reduced first.

    When a has more than PANEL_WIDTH nonzero rows, the sample of
    :func:`_row_sample` is ranked first, with the s rows of
    :func:`_certificate` appended after it, by one :func:`_eliminate`.  If
    no certificate row becomes a pivot, every combination lies in the
    sample's span, and the sample's pivot rows are returned: when the
    sample spans less than a, each combination lies in its span with
    probability at most 1/p (Freivalds, 1977), so a wrong certificate has
    probability at most p^-s <= 2^-CERTIFICATE_BITS, and it can only make
    the rank fall short.  A certificate row that lies in the sample's span
    never becomes a pivot, as the sample comes first.  Otherwise all
    nonzero rows are eliminated, as for a of at most PANEL_WIDTH of them.

    The fewer panels a dependent row needs to fall into its pivots' span,
    the less work it costs: :func:`span_dimension` fills the columns in the
    order of :func:`_column_order`, whose first panel holds the octics' full
    rank, and passes the rows sorted by leading column in that order, which
    the sample keeps.  The full elimination works in a itself, which is
    overwritten: a second copy of the coefficient matrix would be most of a
    span request's peak memory."""
    if a.size and (a.min() < 0 or a.max() >= p):
        _mod(a, p, out=a)
    rows = np.flatnonzero(a.any(axis=1))
    if rows.size > PANEL_WIDTH:
        sample = rows[_row_sample(rows.size)]
        stacked = np.concatenate([a[sample], _certificate(a, p)])
        pivots = _eliminate(stacked, np.arange(len(stacked)), p)
        if pivots.max() < PANEL_WIDTH:
            return sample[pivots]
    return _eliminate(a, rows, p)


@lru_cache(maxsize=8)
def _column_order(size: int) -> np.ndarray:
    """The place of each of ``size`` basis columns in the dense
    elimination's column order: one fixed pseudo-random permutation per
    basis size, read-only.  The rank does not depend on the column order,
    but the work does: in the monomial order the octics' first panel of
    128 columns has rank 57 of their 126, in a random order the full 126, so
    every dependent row drops after one panel."""
    order = np.random.default_rng(size).permutation(size)
    order.flags.writeable = False
    return order


def _residue_chunks(polys: Sequence[MultiHomogPoly], p: int):
    """The polynomials' cleared rows reduced mod p, _FILL_ROWS rows at a
    time, which bounds the temporaries: per chunk each entry's row (its
    position in ``polys``), its column as an ``intp`` and nums mod p times the
    inverse of den mod p, zero residues included.  One inverse is taken per
    distinct den.  Raises ValueError when p divides a chunk's den, the lcm of
    the reduced coefficient denominators, that is when p divides some
    coefficient's denominator.

    A chunk frees its temporaries before it is yielded, so a consumer that
    drops each chunk before the next (as :func:`_fill` does) holds about one
    chunk at a time."""
    inverses = {}
    for s in range(0, len(polys), _FILL_ROWS):
        rows = [poly._row for poly in polys[s:s + _FILL_ROWS]]
        for _, _, den in rows:
            if den not in inverses:
                if den % p == 0:
                    raise ValueError("prime divides a coefficient denominator; pick another prime")
                inverses[den] = pow(den, -1, p)
        lengths = [len(cols) for cols, _, _ in rows]
        values = np.concatenate([nums for _, nums, _ in rows])
        values = _mod(values, p, out=values).astype(np.int64, copy=False)
        inv = np.repeat([inverses[den] for _, _, den in rows], lengths)
        # residues and inverses are below 2^31: the product fits in int64
        values *= inv
        del inv
        _mod(values, p, out=values)
        at = np.repeat(np.arange(s, s + len(rows)), lengths)
        cols = np.concatenate([cols for cols, _, _ in rows]).astype(np.intp)
        yield at, cols, values


def _fill(polys: Sequence[MultiHomogPoly], p: int, size: int, place: np.ndarray) -> np.ndarray:
    """The rows of :func:`_residue_chunks` as a dense int64 matrix of
    ``size`` columns, basis column c at column ``place[c]``.  Each chunk's
    flat index is built in its row array, and the chunk is dropped before
    the next is built: the fill adds about one chunk to the matrix."""
    out = np.zeros((len(polys), size), dtype=np.int64)
    flat = out.reshape(-1)
    for at, cols, values in _residue_chunks(polys, p):
        at *= size
        at += place[cols]
        flat[at] = values
        del at, cols, values
    return out


def coefficient_matrix_modp(polys: Sequence[MultiHomogPoly], p: int) -> np.ndarray:
    """Rows of coefficients over the shared monomial basis, reduced mod p.

    Each row is read from the polynomial's cleared row ``(cols, nums,
    den)`` by :func:`_residue_chunks`: nums mod p times the inverse of den
    mod p, filled a few rows at a time.  Raises ValueError when p divides
    den, the lcm of the reduced coefficient denominators, that is when p
    divides some coefficient's denominator."""
    degree = _shared_degree(polys)
    size = len(_basis_index(polys[0].n, degree)[0])
    return _fill(polys, p, size, np.arange(size))


def _shared_degree(polys):
    """The one multidegree of the nonzero polynomials; a zero polynomial's
    is None."""
    degrees = {poly.multidegree for poly in polys}
    degrees.discard(None)
    if len(degrees) > 1:
        raise ValueError("polynomials have mixed multidegrees")
    if not degrees:
        raise ValueError("all polynomials are zero")
    return degrees.pop()


# A row is sparse, and a candidate pivot of span_dimension's sparse pass,
# when it has at most basis size / SPARSE_DIVISOR nonzeros.  A pivot of d
# nonzeros costs d column updates of every remaining row; against the 441
# octics (1296 columns), 567 random pivot rows beat the dense route up to
# d = 12 to 14 and lose from d = 16 on, so the threshold, 10 there, stays
# below that, and the consistency slice's rows of 9 nonzeros fall under it.
SPARSE_DIVISOR = 128


def _sparse_pivots(polys: Sequence[MultiHomogPoly], p: int):
    """Pivots among sparse rows: the rows mod p (entries that p divides
    dropped, so that a row's leading column is its leading column mod p),
    one row per distinct leading column, the one with the fewest nonzeros
    (then the first in ``polys``), scaled to a leading 1.  Distinct leads
    put the pivots in echelon form.

    Returns the pivots' leading columns, their other entries as arrays
    ``(pivot, column, value)`` with ``pivot`` the position of the entry's
    pivot among the leads, and the rows of ``polys`` that are neither a
    pivot nor zero mod p."""
    at, cols, values = (np.concatenate(x) for x in zip(*_residue_chunks(polys, p)))
    nonzero = values != 0
    order = np.lexsort((cols[nonzero], at[nonzero]))
    at, cols, values = at[nonzero][order], cols[nonzero][order], values[nonzero][order]
    # per row left nonzero: its first entry (the leading one) and its count
    starts = np.flatnonzero(np.diff(at, prepend=-1))
    counts = np.diff(starts, append=len(at))
    by_lead = np.lexsort((at[starts], counts, cols[starts]))
    firsts = starts[by_lead[np.diff(cols[starts][by_lead], prepend=-1) != 0]]
    pivot_of_row = np.full(len(polys), -1)
    pivot_of_row[at[firsts]] = np.arange(len(firsts))
    # one inverse per distinct lead value: the slice's leads take few values
    distinct, which = np.unique(values[firsts], return_inverse=True)
    scale = np.array([pow(x, -1, p) for x in distinct.tolist()], dtype=np.int64)[which]
    entry = pivot_of_row[at] >= 0
    entry[firsts] = False
    pivot = pivot_of_row[at[entry]]
    rest = np.setdiff1d(at[starts], at[firsts]).tolist()
    return cols[firsts], (pivot, cols[entry], _mod(values[entry] * scale[pivot], p)), \
        [polys[i] for i in rest]


def _eliminate_pivots(rt: np.ndarray, leads: np.ndarray, entries, p: int) -> None:
    """Reduce the rows of ``rt`` (held transposed, one row per basis
    column, residues in [0, p)) by the pivots from :func:`_sparse_pivots`,
    so that every row's entries at ``leads`` may be dropped: afterwards each
    row minus its multiples of the pivots is read from the other columns.

    Pivot j waits for pivot i when row i has an entry in column leads[j]
    (then leads[i] < leads[j], so the waits have no cycle); the pivots fall
    into levels by the longest chain of waits before them.  Within a level
    no pivot touches another's lead, so the multipliers are the rows' entries
    at the level's leads, read once, and each pivot entry (i, c, v) updates
    column c by minus v times column leads[i].  The updates go in rounds in
    which no column repeats, each one int64 product and one :func:`_mod`: a
    residue plus (p - 1)^2 is below 2^63 for p below 2^31."""
    pivot, cols, values = entries
    lead_pivot = np.full(len(rt), -1)
    lead_pivot[leads] = np.arange(len(leads))
    waits = lead_pivot[cols] >= 0
    before, after = pivot[waits], lead_pivot[cols[waits]]
    level = np.zeros(len(leads), dtype=np.intp)
    while True:
        deeper = level.copy()
        np.maximum.at(deeper, after, level[before] + 1)
        if np.array_equal(deeper, level):
            break
        level = deeper
    # per entry, its level and its round: its place among the level's
    # entries of the same column
    entry_level = level[pivot]
    order = np.lexsort((cols, entry_level))
    entry_level, sources, cols, factors = \
        entry_level[order], leads[pivot[order]], cols[order], p - values[order]
    group = np.flatnonzero((np.diff(cols, prepend=-1) != 0) | (np.diff(entry_level, prepend=-1) != 0))
    rounds = np.arange(len(cols)) - np.repeat(group, np.diff(group, append=len(cols)))
    step = entry_level * (int(rounds.max(initial=0)) + 1) + rounds
    order = np.argsort(step, kind="stable")
    for take in np.split(order, np.flatnonzero(np.diff(step[order])) + 1):
        c = cols[take]
        x = rt[sources[take]]
        x *= factors[take, None]
        x += rt[c]
        _mod(x, p, out=x)
        rt[c] = x


# span_dimension's one-shot hand-off: (modulus, the nonzero polynomials of
# the last all-dense rank, its pivot rows among them), or None.  The
# polynomials are immutable and held here, so no identity can be reused;
# each read and write is one reference, so two threads can at worst both
# take one slot, valid for both, or recompute.
_handoff = None


def span_dimension(polys: Sequence[MultiHomogPoly], modulus: int) -> int:
    """Dimension of the linear span inside the fixed multidegree component,
    taken modulo the prime ``modulus``.

    Hand-off first: when the last call that took the all-dense route below
    (the slot ``_handoff``) used the same modulus and ranked only
    polynomials that are in ``polys`` (the same objects, ``is``), this call
    empties the slot and drops those of them that were not its pivot rows.
    The pivot rows span the others mod p (see :func:`_modp_rank`; after a
    wrong certificate they span less, and that call's rank already fell
    short), so the span and the result are unchanged; the dropped rows were
    read under this modulus by that call, and raise nothing.  A call that does not
    match neither takes nor clears the slot.  The slot holds its
    polynomials until a call takes or replaces it, and every thread shares
    it: concurrent calls at worst both take one slot, valid for both, or
    recompute.  :func:`octic_span`'s union rank takes the octics' slot.

    Sparse rows next: a row with at most 1/SPARSE_DIVISOR of the basis
    size in nonzeros is sparse, and :func:`_sparse_pivots` takes one
    sparse row per distinct leading column mod p as a pivot (Faugere and
    Lachartre, PASCO 2010).  The k pivots are in echelon form and add k to
    the rank with no arithmetic.  The other rows are filled mod p
    transposed and reduced by the pivots sparsely
    (:func:`_eliminate_pivots`), and their remainder at the columns that
    lead no pivot goes to the dense elimination.  Input with no sparse row
    goes to it directly, and its polynomials and pivot rows are left in
    the slot for the next call.

    The dense elimination is blocked, mod p (:func:`_modp_rank`), and p must
    be a prime below 2^31 of any integer type (else ValueError, or TypeError
    for a bool or a non-integer): its products run in float64
    on residues centered below 2^30 times 15-bit limbs, and stay exact only
    while every sum of 2 * PANEL_WIDTH such terms, plus a residue, is below
    2^53; the sums are reduced mod p in float64 too.  Its columns are taken
    in the fixed order of :func:`_column_order` and its rows sorted by
    leading column in that order (stably, on a copy of the list: the
    caller's keeps its order), which leaves the rank unchanged and lets
    dependent rows drop out after fewer panels.  Given more than
    PANEL_WIDTH nonzero rows, it ranks a fixed sample of PANEL_WIDTH of
    them and keeps that rank when s random combinations of all rows lie in
    the sample's span, s the least count with p^s >= 2^CERTIFICATE_BITS;
    else it ranks all rows.  The combinations are drawn anew on every call,
    so the work varies from call to call, but the result does not, except
    with probability at most 2^-CERTIFICATE_BITS.

    The rank over GF(p) does not depend on how it is computed, so the bound
    below holds for the sparse pass and the hand-off as for the dense route.
    The result never exceeds the rational rank r.  It falls below the rank
    mod p only after a wrong certificate, with probability at most
    2^-CERTIFICATE_BITS (2^-90), and only for input of more than
    PANEL_WIDTH nonzero rows.  The rank mod p is smaller than r only if p
    divides one fixed nonzero r x r minor M of the row-cleared integer
    coefficient matrix; |M| is at most the Hadamard bound H, so at most
    log2(H)/30 primes of 30 bits or more divide it.  A prime from
    :func:`random_rank_prime`, uniform over the RANK_PRIME_COUNT (about
    5.07e7) primes in [2^30, 2^31), therefore gives a smaller rank with
    probability at most (log2(H)/30) / RANK_PRIME_COUNT.  The sum of the
    two terms is the figure :func:`modp_failure_bound` computes (about
    1.5e-5 for the 441 octics of a random two-camera rig with camera
    entries below 20, to which the certificate's 2^-90 adds nothing in
    float64).

    The rows are each polynomial's cleared row (see :class:`MultiHomogPoly`)
    reduced by :func:`_residue_chunks`, which raises ValueError when p
    divides a row's denominator, that is some coefficient's denominator;
    every row not dropped by the hand-off is read, pivots included.  Mixed
    multidegrees raise ValueError.
    """
    global _handoff
    modulus = _check_rank_modulus(modulus)
    # each row's length, read once: it drops the zero rows and splits the
    # others into sparse and dense
    rows = [(q, k) for q in polys if (k := len(q._row[0]))]
    # read before the hand-off drops rows, as every row is checked
    degree = _shared_degree(q for q, _ in rows) if rows else None
    slot = _handoff
    if slot is not None and slot[0] == modulus:
        held = {id(q) for q, _ in rows}
        if all(id(q) in held for q in slot[1]):
            _handoff = None
            dropped = set(map(id, slot[1])).difference(map(id, slot[2]))
            rows = [(q, k) for q, k in rows if id(q) not in dropped]
    if not rows:
        return 0
    size = len(_basis_index(rows[0][0].n, degree)[0])
    place = _column_order(size)
    polys, lengths = map(list, zip(*rows))
    sparse = [k * SPARSE_DIVISOR <= size for k in lengths]
    if not any(sparse):
        # the rows by leading column, the smallest place of each
        starts = np.cumsum([0] + lengths[:-1])
        lead = np.minimum.reduceat(place[np.concatenate([q._row[0] for q in polys])], starts)
        polys = [polys[i] for i in np.argsort(lead, kind="stable").tolist()]
        pivots = _modp_rank(_fill(polys, modulus, size, place), modulus)
        _handoff = (modulus, polys, [polys[i] for i in pivots.tolist()])
        return len(pivots)
    leads, entries, rest = _sparse_pivots([q for q, s in zip(polys, sparse) if s], modulus)
    rest += [q for q, s in zip(polys, sparse) if not s]
    if not rest:
        return len(leads)
    rt = np.zeros((size, len(rest)), dtype=np.int64)
    flat = rt.reshape(-1)
    for at, cols, values in _residue_chunks(rest, modulus):
        flat[cols * len(rest) + at] = values
    _eliminate_pivots(rt, leads, entries, modulus)
    free = np.ones(size, dtype=bool)
    free[leads] = False
    free = np.flatnonzero(free)
    # the remainder at the free columns, in their elimination order
    remainder = rt[free[np.argsort(place[free])]].T
    del rt
    # the remainder's nonzero rows by leading column
    nonzero = remainder != 0
    live = np.flatnonzero(nonzero.any(axis=1))
    order = live[np.argsort(nonzero[live].argmax(axis=1), kind="stable")]
    return len(leads) + len(_modp_rank(remainder[order], modulus))


def _height_bits(polys: Sequence[MultiHomogPoly]) -> tuple:
    """log2 of the Hadamard bound of the row-cleared coefficient matrix,
    bounded row by row by the bit length of the largest entry of the cleared
    row plus log2(sqrt(terms)), and the count of nonzero rows."""
    bits, rows = 0.0, 0
    for poly in polys:
        if poly.is_zero():
            continue
        _, nums, _ = poly._row
        bits += int(np.abs(nums).max()).bit_length() + 0.5 * log2(len(nums))
        rows += 1
    return bits, rows


def _certificate_bound(rows: int) -> float:
    """2^-CERTIFICATE_BITS, the chance of a wrong certificate, for a rank of
    more than PANEL_WIDTH nonzero rows, else 0: only then can the dense
    elimination rank a sample (see :func:`_modp_rank`)."""
    return 2.0 ** -CERTIFICATE_BITS if rows > PANEL_WIDTH else 0.0


def modp_failure_bound(polys: Sequence[MultiHomogPoly]) -> float:
    """Upper bound on the probability that ``span_dimension(polys, p)``, with
    p from :func:`random_rank_prime`, is below the rational rank: the count
    floor(log2(H)/30) of bad primes over RANK_PRIME_COUNT, plus
    2^-CERTIFICATE_BITS for a certificate when there are more than
    PANEL_WIDTH nonzero rows (see :func:`span_dimension`)."""
    bits, rows = _height_bits(polys)
    return (bits // 30) / RANK_PRIME_COUNT + _certificate_bound(rows)


def quotient_failure_bound(octics: Sequence[MultiHomogPoly],
                           component: Sequence[MultiHomogPoly]) -> float:
    """Union bound on the probability that one prime from
    :func:`random_rank_prime` gives a wrong span dimension of ``octics``, of
    ``component`` or of ``component + octics``, the three ranks from which
    the octics' dimension modulo the component is read: each rank's
    :func:`modp_failure_bound`.  The union's rows are the two families'
    rows, so its log2(H) and its row count are the sums of theirs."""
    (a, m), (b, n) = _height_bits(octics), _height_bits(component)
    return ((a // 30 + b // 30 + (a + b) // 30) / RANK_PRIME_COUNT
            + _certificate_bound(m) + _certificate_bound(n) + _certificate_bound(m + n))


def octic_span(rig: CameraRig, modulus: int) -> dict:
    """The 126/9 check on a two-camera rig, with every rank taken modulo the
    prime ``modulus``: the span dimension of the 441 unit-distance octics,
    that of the (2,2,2,2) slice of the consistency ideal, the octics'
    dimension modulo that slice (the union's span minus the slice's), and the
    :func:`quotient_failure_bound` of a random prime, which counts a bad
    prime and a wrong certificate for each of the three ranks (the
    certificates' 3 * 2^-90 lies below float64 resolution next to the
    primes' term).  The octics' rank is taken first and the union's right
    after it, so the union takes the octics' pivot rows from
    :func:`span_dimension`'s hand-off and ranks the slice with those 126
    octics only; the slice's rank in between leaves the hand-off as it is."""
    octics = all_octics_symbolic(rig, polarize(unit_distance_form()))
    component = ideal_component_basis(rig)
    span = span_dimension(octics, modulus)
    base = span_dimension(component, modulus)
    union = span_dimension(component + octics, modulus)
    return {"octics": len(octics), "span": span, "component_span": base,
            "quotient": union - base, "modulus": modulus,
            "failure_bound": quotient_failure_bound(octics, component)}


class ClassCount:
    __slots__ = ("label", "multiplicity", "classes")

    def __init__(self, label, multiplicity, classes):
        self.label = label
        self.multiplicity = multiplicity
        self.classes = classes

    @property
    def count(self) -> int:
        return self.multiplicity * self.classes

    def __repr__(self):
        return f"ClassCount({self.label}: {self.multiplicity} x {self.classes})"


class GeneratorCount:
    """Predicted minimal-generator counts of the distance-constraint ideal,
    split over the eight multidegree class patterns."""

    __slots__ = ("n", "classes", "total")

    def __init__(self, n: int, classes, total: int):
        self.n = n
        self.classes = tuple(classes)
        self.total = total

    def to_json(self) -> dict:
        return {"n": self.n, "total": self.total,
                "classes": [{"label": c.label, "multiplicity": c.multiplicity,
                             "classes": c.classes, "count": c.count} for c in self.classes]}

    def __repr__(self):
        return f"GeneratorCount(n={self.n}, total={self.total})"


def generator_count(n: int) -> GeneratorCount:
    """Closed-form generator counts per degree class, cross-checked against
    the sextic total formula; raises if the two disagree."""
    if n < 2:
        raise ValueError("need at least two cameras")
    classes = [
        ClassCount("110..000..", 1, 2 * comb(n, 2)),
        ClassCount("111..000..", 1, 2 * comb(n, 3)),
        ClassCount("220..220..", 9, comb(n, 2) ** 2),
        ClassCount("220..211..", 3, 2 * n * comb(n, 2) * comb(n - 1, 2)),
        ClassCount("220..111..", 3, 2 * comb(n, 2) * comb(n, 3)),
        ClassCount("211..211..", 1, n * n * comb(n - 1, 2) ** 2),
        ClassCount("211..111..", 1, 2 * n * comb(n - 1, 2) * comb(n, 3)),
        ClassCount("111..111..", 1, comb(n, 3) ** 2),
    ]
    total = sum(c.count for c in classes)
    formula = (Fraction(4, 9) * n ** 6 - Fraction(2, 3) * n ** 5 + Fraction(1, 36) * n ** 4
               + Fraction(1, 2) * n ** 3 + Fraction(1, 36) * n ** 2 - Fraction(1, 3) * n)
    if formula != total:
        raise ArithmeticError(f"class counts sum to {total}, sextic formula gives {formula}")
    return GeneratorCount(n, classes, total)
