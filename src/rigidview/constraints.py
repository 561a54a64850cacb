"""Distance constraints on world points and the equation families that cut
out their images.

The central object is the biquadric Q vanishing on pairs of world points at
a fixed Euclidean distance, together with its polarization tensor T; other
bihomogeneous forms polarize the same way.  Substituting triangulation
cofactor vectors for the two world points turns T into degree-8
image-space constraints ("octics"); families of those, plus
bilinear and trilinear consistency residuals, give set-level membership
tests for image pairs of distance-linked points.  Everything evaluates over
both scalar backends; vanishing tests are exact on rationals and, on
floats, compare scale-free ratios with a tolerance.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from math import factorial, inf, isqrt, prod
from typing import Optional, Sequence

import numpy as np

from .cameras import (WITNESS_FLOOR, CameraRig, ProjectivePoint, _check_backend, _check_tuple,
                      _multiview_matrix, _reduced, multiview_membership)
from .linalg import (EXACT, BackendError, Mat, Scalar, ShapeError, _cleared, _int_array,
                     adjugate, det)
from .triangulation import NotInVarietyError, NotTriangulableError, _witness


class Family(str, Enum):
    """Constraint-family tags."""

    MULTIVIEW_BILINEAR = "bilinear"
    MULTIVIEW_TRILINEAR = "trilinear"
    OCTIC_FULL = "octic_full"
    OCTIC_NINE = "octic_nine"
    OCTIC_SIXTEEN = "octic_sixteen"
    COPLANAR = "coplanar"
    PAIRWISE_DISTANCE = "pairwise_distance"
    GENERAL_DE = "general_de"


class ChowFactorError(ValueError):
    """The symmetric matrix does not factor into a real rational point pair."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


class BihomForm:
    """A bihomogeneous form of bidegree (d, e) in two blocks of four world
    coordinates, stored as a sparse exponent-to-coefficient map."""

    __slots__ = ("bidegree", "coeffs")

    def __init__(self, bidegree, coeffs):
        d, e = bidegree
        clean = {}
        for (alpha, beta), c in coeffs.items():
            alpha, beta = tuple(alpha), tuple(beta)
            if len(alpha) != 4 or len(beta) != 4:
                raise ShapeError("exponent vectors have length 4")
            if sum(alpha) != d or sum(beta) != e:
                raise ValueError(f"exponents {(alpha, beta)} do not match bidegree {(d, e)}")
            if c != 0:
                clean[(alpha, beta)] = c
        self.bidegree = (d, e)
        self.coeffs = clean

    def evaluate(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
        total = 0
        for (alpha, beta), c in self.coeffs.items():
            term = c
            for xi, a in zip(x, alpha):
                if a:
                    term = term * xi ** a
            for yi, b in zip(y, beta):
                if b:
                    term = term * yi ** b
            total = total + term
        return total

    def __eq__(self, other):
        return (isinstance(other, BihomForm)
                and self.bidegree == other.bidegree
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"BihomForm(bidegree={self.bidegree}, terms={len(self.coeffs)})"


def unit_distance_form() -> BihomForm:
    """The (2,2) form vanishing exactly on pairs of affine points at distance 1:
    sum of (X_i Y_3 - Y_i X_3)^2 for i < 3, minus X_3^2 Y_3^2."""
    return distance_form(1)


def distance_form(d: Scalar) -> BihomForm:
    """Distance-d variant: the final coefficient becomes -d^2."""
    if d == 0:
        raise ValueError("distance must be nonzero")
    return distance_form_squared(d * d)


def distance_form_squared(s: Scalar) -> BihomForm:
    """Distance form parametrized by the squared distance, so configurations
    with rational squared (but irrational) distances stay exact."""
    if s <= 0:
        raise ValueError("squared distance must be positive")
    e3 = (0, 0, 0, 1)
    coeffs = {}
    for i in range(3):
        ei = tuple(1 if t == i else 0 for t in range(4))
        two_i = tuple(2 if t == i else 0 for t in range(4))
        two_3 = (0, 0, 0, 2)
        mixed = tuple(a + b for a, b in zip(ei, e3))
        coeffs[(two_i, two_3)] = coeffs.get((two_i, two_3), 0) + 1
        coeffs[(two_3, two_i)] = coeffs.get((two_3, two_i), 0) + 1
        coeffs[(mixed, mixed)] = coeffs.get((mixed, mixed), 0) - 2
    coeffs[((0, 0, 0, 2), (0, 0, 0, 2))] = -s
    return BihomForm((2, 2), coeffs)


class QuadTensor:
    """The polarization of a (d, e) form: a tensor with d slots for X and e
    for Y, symmetric within each group, whose diagonal restriction
    T(X, ..., X, Y, ..., Y) reproduces the form.  ``entries`` maps (sorted
    d-tuple, sorted e-tuple) of coordinate indices to the coefficient that
    every ordering of the two tuples carries; ``bidegree`` is (d, e).
    ``_grams`` keeps, per backend, what :func:`_gram` built from the
    tensor: its dense 4^d x 4^e matrix, which only the symbolic octics of
    :mod:`rigidview.polyspace` read, its clearing factor and its nonzero
    entries, which :class:`OcticEngine` reads."""

    __slots__ = ("entries", "bidegree", "_grams")

    def __init__(self, entries, bidegree):
        self.entries = dict(entries)
        self.bidegree = tuple(bidegree)
        self._grams = {}
        if any((len(p), len(r)) != self.bidegree for p, r in self.entries):
            raise ValueError(f"an entry of another bidegree than {self.bidegree}")

    def __repr__(self):
        return f"QuadTensor(entries={len(self.entries)})"


def polarize(q: BihomForm) -> QuadTensor:
    """Unique slot-symmetric multilinear tensor with T(X, ..., Y, ...) =
    Q(X, Y), for a form of any bidegree: each monomial coefficient is split
    evenly over the distinct orderings of its two index tuples, that is
    divided by the two multinomial counts."""
    entries = {}
    for (alpha, beta), c in q.coeffs.items():
        mult = prod(factorial(sum(x)) // prod(map(factorial, x)) for x in (alpha, beta))
        # each exponent vector x as its sorted indices: t repeated x[t] times
        key = tuple(tuple(t for t, a in enumerate(x) for _ in range(a)) for x in (alpha, beta))
        entries[key] = Fraction(c) / mult if mult > 1 else c
    return QuadTensor(entries, q.bidegree)


# The unit-distance form and its tensor, built once for every caller.
_UNIT_FORM = unit_distance_form()
_UNIT_TENSOR = polarize(_UNIT_FORM)


def _gram(tensor: QuadTensor, exact: bool, d: int, e: int):
    """The (d, e) tensor as a dense 4^d x 4^e matrix T, every ordering of
    each entry's two index tuples filled in, so that X_a T X_b^T holds the
    values at the rows of two sides, X the outer products of each row's
    cofactor vectors.  On the exact backend cleared of denominators by the
    least positive integer, returned with it (width:
    :func:`rigidview.linalg._int_array`), and then with T's nonzero
    entries ``(slots, columns, values)``: the d row indices of each entry
    (shape (d, N)), its column and its value, a Python int on the exact
    backend and a float64 on floats.  :class:`OcticEngine` reads the
    factor and the nonzero entries; only
    :func:`rigidview.polyspace._contract_octics` reads the dense T.  Built
    on the tensor's first use on a backend and kept in it, every array
    read-only.  Raises ValueError unless the tensor is of bidegree
    (d, e)."""
    if tensor.bidegree != (d, e):
        raise ValueError(f"a tensor of bidegree {tensor.bidegree} where {(d, e)} is needed")
    if exact in tensor._grams:
        return tensor._grams[exact]
    gram = np.zeros((4,) * (d + e), dtype=object)
    for (p, r), coef in tensor.entries.items():
        for pp, rr in itertools.product(set(itertools.permutations(p)),
                                        set(itertools.permutations(r))):
            gram[pp + rr] += coef
    values = [Fraction(c) for c in gram.ravel().tolist()]
    cleared, den = _cleared(values)
    gram = _int_array([int(c) for c in cleared]) if exact else np.array(values, dtype=np.float64)
    gram = gram.reshape(4 ** d, 4 ** e)
    rows, columns = np.nonzero(gram)
    # row r of T is the d-tuple of base-4 digits of r, the first slot's the highest
    slots = np.array([rows // 4 ** (d - 1 - k) % 4 for k in range(d)],
                     dtype=np.intp).reshape(d, len(rows))
    nonzeros = (slots, columns, gram[rows, columns].astype(object if exact else np.float64))
    for array in (gram,) + nonzeros:
        array.flags.writeable = False
    tensor._grams[exact] = (gram, den if exact else None, nonzeros)
    return tensor._grams[exact]


def _contract(t: np.ndarray, w: np.ndarray, rows):
    """The values of tensors t, one per row, at the rows of a group of
    vectors w: t has shape (M, 4^e), w shape (P, V, 4), and the value of
    row m at an e-tuple (k_1, ..., k_e) in ``rows`` (positions along V; an
    (R, e) ``intp`` array, as :class:`OcticEngine` keeps them, is read
    without a copy) and group p is t_m(w_pk1, ..., w_pke); shape (M, P, R).
    The last axis of length 4 is contracted one factor at a time, so that
    every sum has 4 terms: first with every vector of each group, once for
    all rows that end in it, then row by row with the row's vectors
    k_(e-1), ..., k_1.  The values take the dtype numpy gives the product of
    t and w: exact on Python ints (object arrays)."""
    rows = np.asarray(rows, dtype=np.intp).reshape(len(rows), -1)
    m, size = t.shape
    values = t.reshape(m, 1, 1, size)
    for s, k in enumerate(rows.T[::-1]):
        # (M, P, R, 4^j) to (M, P, R, 4^(j-1)); R = V in the first step
        vectors = w if s == 0 else w[:, k]
        values = values.reshape(values.shape[:3] + (values.shape[3] // 4, 4))
        values = (values @ vectors[None, :, :, :, None])[..., 0]
        if s == 0:
            values = values[:, :, k]
    values = values[..., 0]
    # a row of degree 0 reads no vector: t_m itself at every group
    return values if len(rows.T) else np.broadcast_to(values, (m, w.shape[0], len(rows)))


def _power_times(nonzeros, x, width):
    """t = X T from T's nonzero entries ``(slots, columns, values)``
    (:func:`_gram`), one column per row of X: x has shape (d, 4, M), x[k]
    the k-th vector of each of M rows, and entry (j, m) of t, of ``width``
    4^e rows, sums each value in column j of T times, for every slot k,
    x[k] at the entry's k-th row index and m.  Python ints when x and the
    values are, float64 when both are."""
    slots, columns, terms = nonzeros
    terms = terms[:, None]
    # by position and by take: at M = 1, iterating the arrays and fancy
    # indexing cost more than the products
    for k in range(len(slots)):
        terms = terms * x[k].take(slots[k], axis=0)
    t = np.zeros((width, x.shape[2]), dtype=terms.dtype)
    np.add.at(t, columns, terms)
    return t


def _zero_outer_rows(vectors, rows) -> bool:
    """Whether X, the outer products of the rows' vectors, is zero: no row
    of any camera pair in ``vectors`` (an iterable of 6x4 arrays, integer
    or the unit-scaled floats of :class:`rigidview.cameras.CofactorPass`,
    read only as far as needed) has all its vectors nonzero (on floats, of
    norm above :data:`rigidview.cameras.WITNESS_FLOOR`)."""
    for w in vectors:
        nonzero = ((np.linalg.norm(w, axis=1) > WITNESS_FLOOR) if w.dtype == np.float64
                   else (w != 0).any(axis=1)).tolist()
        if any(all(nonzero[i] for i in row) for row in rows):
            return False
    return True


# The float zero test of the verdicts (OcticEngine.vanishes, rigid_pair_oracle):
# the largest ratio of a value to its vectors' norms that counts as zero.
DEFAULT_VANISH_TOL = 5e-12


def _index_rows(rows) -> np.ndarray:
    """Rows, tuples of cofactor-row indices of one length, as a read-only
    (rows, length) ``intp`` array: ``rows`` itself when it already is one."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.flags.writeable:
        rows = rows.view()
        rows.flags.writeable = False
    return rows


# Row pairs i1 <= i2 of a camera pair's six cofactor vectors: the rows of
# OCTIC_FULL and of polyspace.all_octics_symbolic, in their order; and
# (i, i), i < 3, the rows of OCTIC_NINE (OCTIC_SIXTEEN takes the first two).
_ROW_PAIRS = _index_rows([(i1, i2) for i1 in range(6) for i2 in range(i1, 6)])
_DIAGONAL_ROWS = _index_rows([(i, i) for i in range(3)])


def _row_set_indices(set_a, set_b) -> list:
    """The selections ``((j1, k1) + row_a, (j2, k2) + row_b)`` of two row
    sets in the order of :class:`OcticEngine`'s values: camera pair of a,
    camera pair of b, row of a, row of b, the last fastest."""
    (pairs_a, rows_a), (pairs_b, rows_b) = set_a, set_b
    rows_a, rows_b = ([tuple(r) for r in np.asarray(rows).tolist()] for rows in (rows_a, rows_b))
    return [(pa + ra, pb + rb) for pa in pairs_a for pb in pairs_b
            for ra in rows_a for rb in rows_b]


class OcticEngine:
    """Values of bihomogeneous forms at cofactor vectors, from the nonzero
    entries of the form's polarization.

    A block ``(a, b, tensor)`` pairs image tuples a and b with the tensor T
    of a (d, e) form; a value T(w_i1, ..., w_id, w'_k1, ..., w'_ke) takes d
    cofactor vectors of one camera pair in tuple a and e of a pair in tuple
    b.  Each image tuple has a row set ``(pairs, rows)``: camera pairs
    (j, k) and rows, d-tuples of cofactor-row indices, kept as one
    read-only (rows, d) ``intp`` array that every contraction indexes
    with.  With X_a the outer products of the rows' vectors of side a, a
    block of values is X_a T X_b^T, formed one way: :func:`_power_times`
    builds t = X_a T from T's nonzero entries (:func:`_gram`; 19 of the
    unit form's 256), one column per camera pair and row of a, and
    :func:`_contract` takes t at the rows of each camera pair of b, one
    factor at a time.  Each camera pair of a and each of b gives one row of
    values.  The octic families take d = e = 2 and row pairs (i1, i2);
    GENERAL_DE takes rows (i,) * d, whose value is the form itself at w_i
    and w'_k.

    Cofactor vectors come from :meth:`CameraRig.cofactor_vectors`.  The
    exact backend computes on Python ints: T is cleared, and each
    camera-pair row of values comes with the positive integer it was
    multiplied by, divided out only in :meth:`evaluate`.  Floats go through
    float64.

    The zero test, :meth:`vanishes`, needs side a of each block
    consistent.  Then every cofactor vector of a is c_i x, x its one world
    point up to scale (:func:`multiview_membership`), so the row of vectors
    i_1, ..., i_d of X_a is c_i1 ... c_id x^d, the outer power of x: X_a is
    zero when no row has all its vectors nonzero, and otherwise the block
    is zero exactly when x^d T X_b^T is, x the membership's witness vector.
    t = x^d T is the same :func:`_power_times` at one row, and
    :func:`_contract` takes it at the camera pairs of b, first pair, then
    the rest: b's first camera pair alone, where most non-members already
    show a nonzero value, then its other pairs in one call.  Exact on
    Python ints, and on floats scale-free ratios of the unit-scaled vectors
    of :class:`rigidview.cameras.CofactorPass`.
    """

    __slots__ = ("exact", "rig", "row_sets", "blocks")

    def __init__(self, rig: CameraRig, row_sets, blocks):
        """``row_sets`` holds one row set per image tuple; ``blocks`` lists
        ``(a, b, tensor)``, the tensor at every camera pair and row of tuple
        a's row set against every one of tuple b's; its bidegree is the
        degrees of the two row sets' rows.  A block is kept as ``(a, b,
        den, nonzeros)`` of :func:`_gram`."""
        self.exact = rig.backend == EXACT
        self.rig = rig
        self.row_sets = [(pairs, _index_rows(rows)) for pairs, rows in row_sets]
        self.blocks = [(a, b) + _gram(tensor, self.exact, self.row_sets[a][1].shape[1],
                                      self.row_sets[b][1].shape[1])[1:]
                       for a, b, tensor in blocks]

    def _cofactors(self, tuples) -> list:
        """Per image tuple, its cofactor vectors as an array of shape
        (camera pairs, 6, 4), and on the exact backend the factor each camera
        pair's vectors were multiplied by (None on floats).  Raises
        :class:`ShapeError` unless there is one tuple per row set."""
        if len(tuples) != len(self.row_sets):
            raise ShapeError(f"expected {len(self.row_sets)} image tuples, got {len(tuples)}")
        out = []
        for points, (pairs, _) in zip(tuples, self.row_sets):
            vectors, factors = zip(*(self.rig.cofactor_vectors(j, k, points[j], points[k])
                                     for j, k in pairs))
            out.append((np.stack(vectors), np.array(factors, dtype=object) if self.exact else None))
        return out

    def cleared(self, tuples) -> list:
        """Per block, ``(values, factors)``: values as an array with one row
        per camera pair of a and of b (b fastest) and one column per row of
        a and of b (b fastest), each row multiplied on the exact backend by
        the positive integer at the same place in ``factors`` (None on the
        float backend)."""
        cofactors = self._cofactors(tuples)
        out = []
        for a, b, den, nonzeros in self.blocks:
            (w_a, f_a), (w_b, f_b) = cofactors[a], cofactors[b]
            rows_a, rows_b = self.row_sets[a][1], self.row_sets[b][1]
            d, e = rows_a.shape[1], rows_b.shape[1]
            if f_a is not None:
                # as Python ints: products of int64 entries can overflow
                w_a, w_b = w_a.astype(object), w_b.astype(object)
            # t = X_a T, one column per camera pair and row of a, then t at
            # the rows of each camera pair of b
            x = w_a[:, rows_a].transpose(2, 3, 0, 1).reshape(d, 4, len(w_a) * len(rows_a))
            values = _contract(_power_times(nonzeros, x, 4 ** e).T, w_b, rows_b)
            values = values.reshape(len(w_a), len(rows_a), len(w_b), len(rows_b))
            values = values.transpose(0, 2, 1, 3).reshape(len(w_a) * len(w_b), -1)
            out.append((values, None if f_a is None else
                        den * np.outer(f_a ** d, f_b ** e).ravel()))
        return out

    def vanishes(self, memberships, tol: float | None = None) -> bool:
        """Whether every value is zero, from x^d T at side b's rows as the
        class describes: one :func:`_contract` at b's first camera pair
        and, unless that shows a nonzero value, one at all its other pairs;
        False at the first nonzero value, so a non-member that the first
        pair rejects computes no other pair's vectors of b.
        ``memberships`` holds one :func:`multiview_membership` result per row
        set, and the vectors are read from their cofactor passes, so no
        camera pair's vectors are computed twice.  Side a of every block must
        be consistent, else ValueError.  A block whose X_a is zero vanishes
        with no contraction.  Floats read the passes' unit-scaled vectors:
        a value counts as zero when |value| / (|x|^d max_k |w_k|^e) is at
        most ``tol`` (None: :data:`DEFAULT_VANISH_TOL`), w_k the six vectors
        of its camera pair of b, and a pair of b whose vectors all count as
        zero (:data:`rigidview.cameras.WITNESS_FLOOR`) gives zero values."""
        if len(memberships) != len(self.row_sets):
            raise ShapeError(f"expected {len(self.row_sets)} image tuples, got {len(memberships)}")
        for a, b, _, nonzeros in self.blocks:
            if not memberships[a].ok:
                raise ValueError("the zero test needs a consistent first side of each block")
            (pairs_a, rows_a), (pairs_b, rows_b) = self.row_sets[a], self.row_sets[b]
            cofactors_a, cofactors_b = memberships[a].cofactors, memberships[b].cofactors
            if _zero_outer_rows((cofactors_a.vectors(j, k)[0] for j, k in pairs_a), rows_a):
                continue
            d, e = rows_a.shape[1], rows_b.shape[1]
            # no witness only when every vector of a is zero, and then a
            # nonzero X_a has rows of degree 0, which read no vector
            pair, row = cofactors_a.witness or (pairs_a[0], 0)
            x = cofactors_a.vectors(*pair)[0][row, :, None]
            if self.exact:
                # as Python ints: products of int64 entries can overflow
                x = x.astype(object)
            else:
                cut = (DEFAULT_VANISH_TOL if tol is None else tol) * np.linalg.norm(x) ** d
            # t = x^d T, then t at the rows of b: first at b's first camera
            # pair alone, which rejects most non-members before the other
            # pairs' vectors are computed, then at the other pairs in one
            # contraction
            t = _power_times(nonzeros, x[None].repeat(d, 0), 4 ** e).T
            for group in (pairs_b[:1], pairs_b[1:]):
                if not group:
                    continue
                w = np.array([cofactors_b.vectors(j, k)[0] for j, k in group])
                if self.exact:
                    w = w.astype(object)
                values = _contract(t, w, rows_b)[0]
                if self.exact:
                    nonzero = values.any()
                else:
                    sizes = np.linalg.norm(w, axis=2).max(axis=1)
                    sizes = np.where(sizes > WITNESS_FLOOR, sizes, np.inf)
                    nonzero = (np.abs(values) > cut * sizes[:, None] ** e).any()
                if nonzero:
                    return False
        return True

    def evaluate(self, tuples) -> list:
        """Every value, blocks in order, each block in the order of
        :func:`_row_set_indices`; an exact value is an int where it is
        integral, else a Fraction (:func:`rigidview.cameras._reduced`)."""
        out = []
        for values, factors in self.cleared(tuples):
            if factors is None:
                out.extend(values.ravel().tolist())
                continue
            for row, f in zip(values.tolist(), factors.tolist()):
                out.extend(row if f == 1 else (_reduced(x, f) for x in row))
        return out


def trilinear_residuals(rig: CameraRig, j: int, k: int, l: int,
                        u_j: ProjectivePoint, u_k: ProjectivePoint,
                        u_l: ProjectivePoint) -> tuple:
    """All 7x7 minors of the stacked 9x7 three-camera matrix; they vanish
    simultaneously exactly when the triple is consistent with one world point."""
    if len({j, k, l}) != 3:
        raise ValueError("camera indices must be distinct")
    stacked = _multiview_matrix(rig, (j, k, l), (u_j, u_k, u_l))
    out = []
    for rowset in itertools.combinations(range(9), 7):
        out.append(det(stacked.submatrix(rowset, range(7))))
    return tuple(out)


def _camera_pairs(n):
    return list(itertools.combinations(range(n), 2))


_OCTIC_FAMILIES = (Family.OCTIC_FULL, Family.OCTIC_NINE, Family.OCTIC_SIXTEEN)


def _octic_row_set(n: int, family: Family):
    """The row set ``(camera pairs, row pairs)`` of an octic family, the
    same on both sides; the row pairs as a read-only index array."""
    if family == Family.OCTIC_FULL:
        return _camera_pairs(n), _ROW_PAIRS
    if family == Family.OCTIC_NINE:
        return _camera_pairs(n), _DIAGONAL_ROWS
    if n < 3:
        raise ValueError("the sixteen-polynomial family needs at least three cameras")
    return [(0, 1), (0, 2)], _DIAGONAL_ROWS[:2]


class ConstraintSystem:
    """An enumerable, evaluable family of constraint polynomials for a rig.

    ``indices`` lists one entry per polynomial; ``evaluate`` calls the
    ``evaluator`` that :func:`constraint_system` built with them, which
    returns the values in the same order.  Pair families evaluate on (u, v); the
    coplanar family on four tuples; the pairwise-distance family on three.
    """

    __slots__ = ("rig", "family", "indices", "evaluator")

    def __init__(self, rig, family, indices, evaluator):
        self.rig = rig
        self.family = family
        self.indices = tuple(indices)
        self.evaluator = evaluator

    def __len__(self):
        return len(self.indices)

    def evaluate(self, *tuples) -> list:
        return self.evaluator(*tuples)

    def __repr__(self):
        return f"ConstraintSystem(family={self.family.value}, size={len(self)})"


def constraint_system(rig: CameraRig, family: Family | str, form: Optional[BihomForm] = None,
                      squared_distances: Optional[Sequence[Scalar]] = None) -> ConstraintSystem:
    """Build the constraint family of the given tag: its indices and its
    evaluator.

    Octic families take an optional ``form`` (default: unit distance), the
    general family needs one, and the pairwise family needs its three
    ``squared_distances``; a parameter the family does not read raises.
    """
    family = Family(family)
    if form is not None and family not in _OCTIC_FAMILIES + (Family.GENERAL_DE,):
        raise ValueError(f"the {family.value} family takes no form")
    if (squared_distances is None) == (family == Family.PAIRWISE_DISTANCE):
        raise ValueError("the pairwise_distance family, and only it, takes squared distances")
    if family in _OCTIC_FAMILIES:
        row_set = _octic_row_set(rig.n, family)
        tensor = _UNIT_TENSOR if form is None else polarize(form)
        engine = OcticEngine(rig, (row_set, row_set), [(0, 1, tensor)])
        return ConstraintSystem(rig, family, _row_set_indices(row_set, row_set),
                                lambda *tuples: engine.evaluate(tuples))
    if family == Family.MULTIVIEW_BILINEAR:
        pairs = _camera_pairs(rig.n)

        def bilinear(u, v):
            out = []
            for pts in (u, v):
                _check_backend(rig, pts)
                for j, k in pairs:
                    f_u = rig.fundamental(j, k).apply(pts[k].coords)
                    out.append(_reduced(sum(a * b for a, b in zip(pts[j].coords, f_u))))
            return out
        return ConstraintSystem(rig, family, [(side, j, k) for side in "uv" for j, k in pairs],
                                bilinear)
    if family == Family.MULTIVIEW_TRILINEAR:
        if rig.n < 3:
            raise ValueError("trilinear constraints need at least three cameras")
        triples = list(itertools.combinations(range(rig.n), 3))

        def trilinear(u, v):
            return [r for pts in (u, v) for j, k, l in triples
                    for r in trilinear_residuals(rig, j, k, l, pts[j], pts[k], pts[l])]
        return ConstraintSystem(rig, family,
                                [(side, trip, rowset) for side in "uv" for trip in triples
                                 for rowset in itertools.combinations(range(9), 7)],
                                trilinear)
    if family == Family.COPLANAR:
        return ConstraintSystem(rig, family, itertools.product(range(6), repeat=4),
                                lambda *tuples: coplanar_residuals(rig, tuples))
    if family == Family.PAIRWISE_DISTANCE:
        forms = [distance_form_squared(s) for s in squared_distances]
        row_set = _octic_row_set(rig.n, Family.OCTIC_NINE)
        blocks = [(a, b, polarize(f)) for (a, b), f in zip(_camera_pairs(3), forms, strict=True)]
        engine = OcticEngine(rig, (row_set,) * 3, blocks)
        return ConstraintSystem(rig, family,
                                [((a, b),) + sel for a, b, _ in blocks
                                 for sel in _row_set_indices(row_set, row_set)],
                                lambda *tuples: engine.evaluate(tuples))
    if family == Family.GENERAL_DE:
        if form is None or form.bidegree == (0, 0):
            raise ValueError("the general_de family needs a form of positive bidegree")
        # rows (i,) * d and (k,) * e: the form itself at cofactor vectors i and k
        pairs = _camera_pairs(rig.n)
        engine = OcticEngine(rig, [(pairs, [(i,) * d for i in range(3)]) for d in form.bidegree],
                             [(0, 1, polarize(form))])
        singles = (pairs, [(i,) for i in range(3)])
        return ConstraintSystem(rig, family, _row_set_indices(singles, singles),
                                lambda u, v: engine.evaluate((u, v)))
    raise ValueError(f"unknown family {family}")


def coplanar_residuals(rig: CameraRig, tuples4) -> list:
    """4x4 determinants of stacked cofactor vectors of camera pair (0, 1),
    one for every choice of row in each of four image tuples; all vanish
    when the four world points are coplanar; each is taken on the cleared
    vectors and divided by the product of their four factors."""
    if len(tuples4) != 4:
        raise ShapeError("need exactly four image tuples")
    cofactors = [rig.cofactor_vectors(0, 1, t[0], t[1]) for t in tuples4]
    scale = prod(f for _, f in cofactors)
    return [_reduced(det(Mat.from_cols(cols)), scale)
            for cols in itertools.product(*(w.tolist() for w, _ in cofactors))]


# The memberships of the last image pair a verdict computed, as
# (rig, points, memberships) with points = tuple(u) + tuple(v), or None.  The
# next verdict on the very same objects takes them once: criterion 03 decides
# every pair by both verdicts.  The rig and the points are immutable and held
# here, so no identity can be reused.  Each read and write of the slot is one
# reference, so two threads can at worst both take one pair's memberships,
# which are valid for both, or recompute them.
_handoff = None


def _pair_memberships(rig: CameraRig, u, v) -> tuple:
    """The :func:`multiview_membership` of u, then of v, stopping at the
    first inconsistent side, as both verdicts take them; the caller has
    checked that both tuples fit the rig.  When the last verdict's pair was
    the same rig and the same point objects (``is``), its memberships are
    taken and the hand-off slot is emptied; otherwise they are computed and
    left in the slot for the next verdict.  A call whose passes raise
    leaves the slot as it was."""
    global _handoff
    points = tuple(u) + tuple(v)
    slot = _handoff
    if slot is not None and slot[0] is rig and all(a is b for a, b in zip(slot[1], points)):
        _handoff = None
        return slot[2]
    memberships = (multiview_membership(rig, u),)
    if memberships[0].ok:
        memberships += (multiview_membership(rig, v),)
    _handoff = (rig, points, memberships)
    return memberships


def rigid_pair_oracle(rig: CameraRig, u, v, tol: float | None = None) -> bool:
    """Direct membership test for an image pair of points at distance 1.

    Both tuples must be consistent; when both triangulate, the recovered
    world points must satisfy the unit-distance form; a non-triangulable side
    (two cameras, the epipole pair) is accepted whenever the other side is
    consistent, matching the closure components of the image.  Each side
    runs triangulation's shared witness step
    (:func:`rigidview.triangulation._witness`) on the pair's memberships
    (:func:`_pair_memberships`: taken from a
    :func:`rigid_pair_by_equations` call on the same pair just before, else
    computed), and q is evaluated on the two cleared witness vectors as
    they are, not on the triangulated points: q is bihomogeneous of
    bidegree (2, 2), so its zero test gives the same answer at any nonzero
    multiples of the two points.  On floats, where the vectors are the
    unit-scaled witnesses, q counts as zero when
    |q(x, y)| / (|x|^2 |y|^2) is at most ``tol`` (None:
    :data:`DEFAULT_VANISH_TOL`), the ratio of :meth:`OcticEngine.vanishes`.
    Both tuples are checked to fit the rig first
    (:func:`rigidview.cameras._check_tuple`), so an inconsistent side never
    hides the other.
    """
    # Then one witness step per side: an inconsistent side decides first,
    # then a non-triangulable side.
    for points in (u, v):
        _check_tuple(rig, points)
    sides = []
    for membership in _pair_memberships(rig, u, v):
        try:
            sides.append(_witness(membership)[2])
        except NotInVarietyError:
            return False
        except NotTriangulableError as exc:
            sides.append(exc)
    if any(isinstance(side, NotTriangulableError) for side in sides):
        if rig.n == 2:
            return True
        raise RuntimeError("non-triangulable tuple with three or more cameras; "
                           "the oracle needs a general-position rig")
    x, y = sides
    value = _UNIT_FORM.evaluate(x, y)
    if rig.backend == EXACT:
        return value == 0
    t = DEFAULT_VANISH_TOL if tol is None else tol
    return abs(value) <= t * sum(c * c for c in x) * sum(c * c for c in y)


def rigid_pair_by_equations(rig: CameraRig, u, v,
                            family: Family | str = Family.OCTIC_FULL,
                            tol: float | None = None) -> bool:
    """Equation-side membership: both tuples consistent and every
    unit-distance octic of the family vanishing, by
    :meth:`OcticEngine.vanishes` on the pair's two
    :func:`multiview_membership` results (:func:`_pair_memberships`: taken
    from a :func:`rigid_pair_oracle` call on the same pair just before,
    else computed), whose cofactor passes give it every vector (on floats
    ``tol`` is its ratio's tolerance).

    u is consistent, so its vectors are multiples of its world point x,
    taken as u's witness vector, and every octic vanishes exactly when
    Q = x^2 T, read as a 4 x 4 matrix, makes W_b Q W_b^T zero at the
    family's rows for every camera pair b of v (or no family row of u has
    both vectors nonzero).  Q is summed from the 19 nonzero entries of T, and
    its values are taken at v's rows, first pair, then the rest: at v's
    first camera pair, which rejects most non-members before v's other
    pairs' vectors are computed, then at all the others in one
    contraction.  On the exact backend
    both run on Python ints, so the values tested are the cleared octics
    themselves.  Every octic is tested, not q(X, Y) at triangulated
    points, which is the oracle.  The unit tensor's nonzero entries are
    built on the first call and kept.  The family's
    camera count and both tuples are checked first, as in
    :func:`rigid_pair_oracle`."""
    family = Family(family)
    if family not in _OCTIC_FAMILIES:
        raise ValueError("membership by equations uses an octic family")
    row_set = _octic_row_set(rig.n, family)
    for points in (u, v):
        _check_tuple(rig, points)
    memberships = _pair_memberships(rig, u, v)
    if not all(m.ok for m in memberships):
        return False
    return OcticEngine(rig, (row_set, row_set), [(0, 1, _UNIT_TENSOR)]).vanishes(memberships, tol)


def _check_positive(d12: Scalar, d13: Scalar, d23: Scalar) -> None:
    if not all(0 < d < inf for d in (d12, d13, d23)):
        raise ValueError(f"distances must be finite and positive: d12={d12}, d13={d13}, d23={d23}")


def collinearity_discriminant(d12: Scalar, d13: Scalar, d23: Scalar) -> Scalar:
    """Product of the four triangle-degeneracy factors; zero exactly when
    the three pairwise distances force collinear points."""
    _check_positive(d12, d13, d23)
    return ((d12 + d13 + d23) * (d12 + d13 - d23)
            * (d12 - d13 + d23) * (-d12 + d13 + d23))


def squared_distance_discriminant(s12: Scalar, s13: Scalar, s23: Scalar) -> Scalar:
    """The same discriminant written in squared distances:
    2(s12 s13 + s12 s23 + s13 s23) - s12^2 - s13^2 - s23^2."""
    return 2 * (s12 * s13 + s12 * s23 + s13 * s23) - s12 * s12 - s13 * s13 - s23 * s23


def triangle_inequality_ok(d12: Scalar, d13: Scalar, d23: Scalar) -> bool:
    _check_positive(d12, d13, d23)
    return d12 < d13 + d23 and d13 < d12 + d23 and d23 < d12 + d13


def chow_map(u: ProjectivePoint, v: ProjectivePoint) -> Mat:
    """Symmetric 3x3 matrix of the split conic with the two linear factors u
    and v: the outer product u v^T plus its transpose.  Always singular."""
    if len(u) != 3 or len(v) != 3:
        raise ShapeError("chow map expects image points")
    return Mat([[u[i] * v[j] + u[j] * v[i] for j in range(3)] for i in range(3)])


def _sqrt_exact(x):
    f = Fraction(x)
    if f < 0:
        raise ChowFactorError("negative square", "complex")
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ChowFactorError("square root is irrational", "irrational")
    r = Fraction(rn, rd)
    return r.numerator if r.denominator == 1 else r


def _proportional_exact(a, b) -> bool:
    """Whether every 2x2 minor of the exact vectors a and b vanishes."""
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def chow_factor(a: Mat) -> tuple:
    """Recover the unordered point pair behind a split symmetric matrix.

    Locates the singular point of the degenerate conic through the adjugate,
    adds its skew matrix to split off a rank-1 outer product, and reads off
    the two factors.  Exact backend only; a float matrix raises
    :class:`rigidview.linalg.BackendError`.  Raises
    :class:`ChowFactorError` for full-rank input, complex-conjugate splits,
    or irrational splits.
    """
    if (a.rows, a.cols) != (3, 3):
        raise ShapeError("expected a 3x3 matrix")
    if a.backend != EXACT:
        raise BackendError("chow_factor is defined on the exact backend")
    if a.transpose() != a:
        raise ValueError("matrix must be symmetric")
    if det(a) != 0:
        raise ChowFactorError("matrix has rank 3", "rank3")
    n = adjugate(a).scaled(-1)
    if all(x == 0 for r in n.data for x in r):
        # rank one: a double line 2c * u u^T
        best, i = max((abs(a[i, i]), i) for i in range(3))
        if best == 0:
            raise ChowFactorError("zero matrix", "rank3")
        u = ProjectivePoint(a.row(i))
        return (u, u)
    best, j = max((n[i, i], i) for i in range(3))
    if best <= 0:
        raise ChowFactorError("conjugate complex factors", "complex")
    s = _sqrt_exact(best)
    p = [Fraction(x) / s for x in n.col(j)]
    skew = Mat([[0, -p[2], p[1]],
                [p[2], 0, -p[0]],
                [-p[1], p[0], 0]])
    r = Mat([[a[i, q] + skew[i, q] for q in range(3)] for i in range(3)])
    row = max(range(3), key=lambda i: max(abs(x) for x in r.row(i)))
    col = max(range(3), key=lambda i: max(abs(x) for x in r.col(i)))
    u = ProjectivePoint(r.row(row))
    v = ProjectivePoint(r.col(col))
    check = chow_map(u, v)
    if not _proportional_exact([e for row in check.data for e in row],
                               [e for row in a.data for e in row]):
        raise ChowFactorError("factorization check failed", "complex")
    return tuple(sorted((u, v), key=lambda pt: pt.canonical()))
