"""Distance constraints on world points and the equation families that cut
out their images.

The central object is the biquadric Q vanishing on pairs of world points at
a fixed Euclidean distance, together with its order-4 polarization tensor T.
Substituting triangulation cofactor vectors for the two world points turns
T into degree-8 image-space constraints ("octics"); families of those, plus
bilinear and trilinear consistency residuals, give set-level membership
tests for image pairs of distance-linked points.  Everything evaluates over
both scalar backends; vanishing tests are exact on rationals and
norm-normalized on floats.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from math import isqrt, prod
from typing import Optional, Sequence

import numpy as np

from .cameras import (CameraRig, ProjectivePoint, _multiview_matrix, _reduced,
                      multiview_membership)
from .linalg import (EXACT, BackendError, Mat, Scalar, ShapeError, _cleared, _is_probable_prime,
                     adjugate, det)
from .triangulation import (AmbiguousTriangulationError, NotInVarietyError,
                            NotTriangulableError, _proportional_exact, cofactor_vectors,
                            triangulate)


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


def _exp_to_pair(alpha):
    idx = []
    for t, a in enumerate(alpha):
        idx.extend([t] * a)
    return tuple(idx)


class QuadTensor:
    """Order-4 tensor, symmetric within slot pairs (1,2) and (3,4), whose
    diagonal restriction T(X, X, Y, Y) reproduces a (2,2) form."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = dict(entries)

    def __repr__(self):
        return f"QuadTensor(entries={len(self.entries)})"


def polarize(q: BihomForm) -> QuadTensor:
    """Unique slot-symmetric multilinear tensor with T(X,X,Y,Y) = Q(X,Y),
    obtained by polarizing the X-block and then the Y-block: each monomial
    coefficient is split evenly over the symmetric index placements."""
    if q.bidegree != (2, 2):
        raise ValueError(f"polarization needs bidegree (2, 2), got {q.bidegree}")
    entries = {}
    for (alpha, beta), c in q.coeffs.items():
        p, qq = _exp_to_pair(alpha)
        r, s = _exp_to_pair(beta)
        mult = (1 if p == qq else 2) * (1 if r == s else 2)
        entries[((p, qq), (r, s))] = Fraction(c) / mult if mult > 1 else c
    return QuadTensor(entries)


# The unit-distance form and its tensor, built once for every caller.
_UNIT_FORM = unit_distance_form()
_UNIT_TENSOR = polarize(_UNIT_FORM)


def wedge_table(rig: CameraRig, points, pairs):
    """Cofactor 4-vectors for every requested camera pair and row index, read
    from the pair's stored camera minor table, its denominator divided out."""
    table = {}
    for (j, k) in pairs:
        minors, den = rig.minor_table(j, k)
        if den != 1:
            minors = minors.astype(object) * Fraction(1, den)
        w = cofactor_vectors(minors, points[j].coords, points[k].coords)
        table[(j, k)] = [tuple(row) for row in w.tolist()]
    return table


# The ten coordinates (p, q), p <= q, of the symmetric square of R^4.
_SYM2 = [(p, q) for p in range(4) for q in range(p, 4)]
_SYM2_P = [p for p, _ in _SYM2]
_SYM2_Q = [q for _, q in _SYM2]
_SYM2_OFF = [s for s, (p, q) in enumerate(_SYM2) if p != q]


def _gram(tensor: QuadTensor, exact: bool):
    """The tensor as a 10x10 matrix on the symmetric square, and on the exact
    backend the least positive integer that clears its denominators (the
    matrix is returned multiplied by it)."""
    slot = {pq: s for s, pq in enumerate(_SYM2)}
    coefs = {}
    for ((p, q), (r, t)), coef in tensor.entries.items():
        key = (slot[min(p, q), max(p, q)], slot[min(r, t), max(r, t)])
        coefs[key] = coefs.get(key, 0) + coef
    if not exact:
        gram = np.zeros((10, 10))
        for key, coef in coefs.items():
            gram[key] = float(coef)
        return gram, None
    cleared, den = _cleared([Fraction(c) for c in coefs.values()])
    gram = np.zeros((10, 10), dtype=object)
    for key, coef in zip(coefs, cleared):
        gram[key] = int(coef)
    return gram, den


def _sym2_products(first, second):
    """The symmetric products w[p] w'[q] + w[q] w'[p] (one product when
    p = q) at the ten Sym^2 slots, of the vectors w, w' along axis 1 of
    ``first`` and ``second``.  Axis 0 pairs the vectors up; further axes of
    the two, if any, form an outer product after the slot axis."""
    extra_first, extra_second = first.ndim - 2, second.ndim - 2
    first = first.reshape(first.shape + (1,) * extra_second)
    second = second.reshape(second.shape[:2] + (1,) * extra_first + second.shape[2:])
    s = first[:, _SYM2_P] * second[:, _SYM2_Q]
    s[:, _SYM2_OFF] += (first[:, _SYM2_Q] * second[:, _SYM2_P])[:, _SYM2_OFF]
    return s


def _sym2_rows(w: np.ndarray, rows) -> np.ndarray:
    """S of cofactor vectors w of shape (..., camera pairs, 6, 4): after w's
    leading axes, one row of :func:`_sym2_products` of w_i1 and w_i2 per
    camera pair and row pair (i1, i2) in ``rows``, camera pairs outermost."""
    i1, i2 = np.array(rows).T
    s = _sym2_products(w[..., i1, :].reshape(-1, 4), w[..., i2, :].reshape(-1, 4))
    return s.reshape(w.shape[:-3] + (-1, 10))


def _max_abs(values: np.ndarray) -> int:
    return int(max(map(abs, values.ravel().tolist())))


def _value_bound(w_a: np.ndarray, gram: np.ndarray, w_b: np.ndarray) -> int:
    """B = 100 max|S_a| max|G| max|S_b| >= every |value| of S_a G S_b^T, a
    sum of 100 products, with max|S| <= 2 max|w|^2 for integer cofactor
    vectors w."""
    return 400 * _max_abs(w_a) ** 2 * _max_abs(gram) * _max_abs(w_b) ** 2


# The verdict primes: the primes below 2^29 in descending order, found on
# demand and kept (one fixed sequence, so every caller may share it).
# Residues are below 2^29, so a product of two is below 2^58 and a sum of
# ten such products below 2^62: every step of the residue contraction is
# exact in int64.
_VERDICT_PRIME_LIMIT = 2 ** 29
_VERDICT_PRIMES = []
# Integers of smaller magnitude are reduced as one int64 array; larger ones
# by one Python % per prime.
_INT64_SAFE = 2 ** 62


def _verdict_primes(bound: int) -> list:
    """The shortest prefix of the verdict primes whose product exceeds bound."""
    out, product = [], 1
    while product <= bound:
        if len(out) == len(_VERDICT_PRIMES):
            p = (_VERDICT_PRIMES[-1] if _VERDICT_PRIMES else _VERDICT_PRIME_LIMIT + 1) - 2
            while not _is_probable_prime(p):
                p -= 2
            _VERDICT_PRIMES.append(p)
        out.append(_VERDICT_PRIMES[len(out)])
        product *= out[-1]
    return out


def _residues(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Exact integers modulo each prime, as int64 with the prime axis first
    and then the shape of ``values``."""
    flat = values.ravel().tolist()
    small = [x if -_INT64_SAFE < x < _INT64_SAFE else 0 for x in flat]
    out = np.array(small, dtype=np.int64) % primes[:, None]
    for i, x in enumerate(flat):
        if not -_INT64_SAFE < x < _INT64_SAFE:
            out[:, i] = [x % p for p in primes.tolist()]
    return out.reshape(primes.shape + values.shape)


def _residue_nonzero(side_a, gram: np.ndarray, side_b, primes) -> bool:
    """Whether some value of S_a G S_b^T is nonzero modulo one of the
    primes; each side is ``(w, rows)``, integer cofactor vectors and row
    pairs.  w, G, S and S_a G are reduced for all primes along one int64
    axis; the last product is taken one prime at a time, so that its
    largest temporary is one prime's block of values."""
    primes = np.array(primes, dtype=np.int64)
    mod = primes[:, None, None]
    (w_a, rows_a), (w_b, rows_b) = side_a, side_b
    s_b = _sym2_rows(_residues(w_b, primes), rows_b) % mod
    t_a = _sym2_rows(_residues(w_a, primes), rows_a) % mod @ _residues(gram, primes) % mod
    return any((t @ s.T % p).any() for t, s, p in zip(t_a, s_b, primes.tolist()))


def _residues_vanish(side_a, gram: np.ndarray, side_b, primes: list, bound: int) -> bool:
    """Whether every value of S_a G S_b^T is zero, given a bound on every
    |value|: the residues modulo the first prime alone, then, only if they
    all vanish, modulo the other primes at once.  A nonzero residue proves
    a nonzero value; all residues zero prove the values zero only because
    the primes' product exceeds the bound, so a smaller prime set raises."""
    if prod(primes) <= bound:
        raise ValueError(f"the product of {len(primes)} primes does not exceed the "
                         f"{bound.bit_length()}-bit bound: zero residues would not prove "
                         "zero values")
    return not (_residue_nonzero(side_a, gram, side_b, primes[:1])
                or (len(primes) > 1 and _residue_nonzero(side_a, gram, side_b, primes[1:])))


# Row pairs i1 <= i2 of a camera pair's six cofactor vectors: the rows of
# OCTIC_FULL and of polyspace.all_octics_symbolic, in their order.
_ROW_PAIRS = [(i1, i2) for i1 in range(6) for i2 in range(i1, 6)]


def _row_set_indices(set_a, set_b) -> list:
    """The selections ``((j1, k1, i1, i2), (j2, k2, i3, i4))`` of two row
    sets in the order of :class:`OcticEngine`'s values: camera pair of a,
    camera pair of b, row pair of a, row pair of b, the last fastest."""
    (pairs_a, rows_a), (pairs_b, rows_b) = set_a, set_b
    return [(pa + ra, pb + rb) for pa in pairs_a for pb in pairs_b
            for ra in rows_a for rb in rows_b]


class OcticEngine:
    """Degree-8 constraint values by contraction with the tensor's Gram matrix.

    A value T(w_i1, w_i2, w'_i3, w'_i4) pairs two cofactor vectors of one
    camera pair in one image tuple with two of a pair in another tuple.  Each
    image tuple has a row set ``(pairs, rows)``: camera pairs (j, k) and row
    pairs (i1, i2), and its matrix S has one row per camera pair and row
    pair, camera pairs outermost.  The row holds the symmetric products
    w_i1[p] w_i2[q] + w_i1[q] w_i2[p] over the ten coordinates p <= q of the
    symmetric square (one product when p = q).  A block of values is then
    S_a G S_b^T, with G the tensor's 10x10 Gram matrix, regrouped so that
    each camera pair of a and each of b gives one row of values.

    The exact backend computes on integers: G, the camera minor tables (as
    the rig stores them) and the image points are cleared of denominators,
    and each camera-pair row of values comes with the positive integer it
    was multiplied by, divided out only when values are returned.  Floats
    go through float64.

    The exact zero test, :meth:`vanishes`, forms no value.  Every cleared
    |value| is at most B = 100 max|S_a| max|G| max|S_b|, and max|S| is at
    most 2 max|w|^2 over the cofactor vectors w.  The test reduces w and G
    modulo fixed primes below 2^29, descending from 2^29, and contracts in
    int64: residues below 2^29 keep every product below 2^58 and every
    ten-term sum below 2^62.  The first prime alone settles almost every
    nonzero block; a zero block needs all residues zero modulo primes whose
    product exceeds B, and is then zero by the Chinese remainder theorem.
    """

    __slots__ = ("exact", "tables", "row_sets", "blocks")

    def __init__(self, rig: CameraRig, row_sets, blocks):
        """``row_sets`` holds one row set per image tuple; ``blocks`` lists
        ``(a, b, tensor)``, the tensor at every camera pair and row pair of
        tuple a's row set against every one of tuple b's.  The camera minor
        tables of the pairs in use are read from the rig."""
        self.exact = rig.backend == EXACT
        self.row_sets = list(row_sets)
        self.blocks = [(a, b) + _gram(tensor, self.exact) for a, b, tensor in blocks]
        self.tables = {pair: rig.minor_table(*pair)
                       for pair in {pair for pairs, _ in self.row_sets for pair in pairs}}

    def _cofactors(self, tuples) -> list:
        """Per image tuple, its cofactor vectors as an array of shape
        (camera pairs, 6, 4), and on the exact backend the factor each camera
        pair's vectors were multiplied by (None on floats).  Raises
        :class:`ShapeError` unless there is one tuple per row set."""
        if len(tuples) != len(self.row_sets):
            raise ShapeError(f"expected {len(self.row_sets)} image tuples, got {len(tuples)}")
        if any((p.backend == EXACT) != self.exact for points in tuples for p in points):
            raise BackendError("image points and rig must share one scalar backend")
        out = []
        for points, (pairs, _) in zip(tuples, self.row_sets):
            vectors, factors = [], []
            for j, k in pairs:
                table, den = self.tables[j, k]
                u_j, u_k = points[j].coords, points[k].coords
                if self.exact:
                    u_j, den_j = _cleared(u_j)
                    u_k, den_k = _cleared(u_k)
                    factors.append((den * den_j * den_k) ** 2)
                vectors.append(cofactor_vectors(table, u_j, u_k))
            out.append((np.stack(vectors), np.array(factors, dtype=object) if self.exact else None))
        return out

    def cleared(self, tuples) -> list:
        """Per block, ``(values, factors)``: values as an array with one row
        per camera pair of a and of b (b fastest) and one column per row pair
        of a and of b (b fastest), each row multiplied on the exact backend
        by the positive integer at the same place in ``factors`` (None on
        the float backend)."""
        products = [(_sym2_rows(w, rows), f)
                    for (w, f), (_, rows) in zip(self._cofactors(tuples), self.row_sets)]
        out = []
        for a, b, gram, den in self.blocks:
            (s_a, f_a), (s_b, f_b) = products[a], products[b]
            (pairs_a, rows_a), (pairs_b, rows_b) = self.row_sets[a], self.row_sets[b]
            values = (s_a @ gram @ s_b.T).reshape(len(pairs_a), len(rows_a), len(pairs_b), -1)
            values = values.transpose(0, 2, 1, 3).reshape(len(pairs_a) * len(pairs_b), -1)
            out.append((values, None if f_a is None else den * np.outer(f_a, f_b).ravel()))
        return out

    def vanishes(self, tuples) -> bool:
        """Whether every value is zero, on the exact backend, from residues
        modulo the verdict primes as the class describes.  A block whose
        bound B is 0 (w_a, G or w_b all zero) vanishes with no prime."""
        if not self.exact:
            raise BackendError("the residue zero test needs the exact backend")
        cofactors = self._cofactors(tuples)
        for a, b, gram, _ in self.blocks:
            (w_a, _), (w_b, _) = cofactors[a], cofactors[b]
            bound = _value_bound(w_a, gram, w_b)
            if bound and not _residues_vanish((w_a, self.row_sets[a][1]), gram,
                                              (w_b, self.row_sets[b][1]),
                                              _verdict_primes(bound), bound):
                return False
        return True

    def evaluate(self, tuples) -> list:
        """Every value, blocks in order, each block in the order of
        :func:`_row_set_indices`."""
        out = []
        for values, factors in self.cleared(tuples):
            if factors is None:
                out.extend(values.ravel().tolist())
                continue
            for row, f in zip(values.tolist(), factors.tolist()):
                out.extend(Fraction(x, f) if x and f != 1 else x for x in row)
        return out


def octic_value(rig: CameraRig, tensor: QuadTensor,
                u_sel, v_sel, u, v) -> Scalar:
    """One degree-8 constraint value.

    ``u_sel = (j1, k1, i1, i2)`` picks the camera pair and two row indices on
    the u side, ``v_sel`` likewise on the v side; the value is the tensor
    applied to the four cofactor vectors.  As a function of the image points
    it is homogeneous of degree 2 in each of the four involved points.
    """
    (j1, k1, i1, i2), (j2, k2, i3, i4) = u_sel, v_sel
    row_sets = [([(j1, k1)], [(i1, i2)]), ([(j2, k2)], [(i3, i4)])]
    return OcticEngine(rig, row_sets, [(0, 1, tensor)]).evaluate((u, v))[0]


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
    same on both sides."""
    if family == Family.OCTIC_FULL:
        return _camera_pairs(n), _ROW_PAIRS
    if family == Family.OCTIC_NINE:
        return _camera_pairs(n), [(i, i) for i in range(3)]
    if n < 3:
        raise ValueError("the sixteen-polynomial family needs at least three cameras")
    return [(0, 1), (0, 2)], [(i, i) for i in range(2)]


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
        pairs = _camera_pairs(rig.n)
        idx = [((j1, k1, i), (j2, k2, kk))
               for (j1, k1) in pairs for (j2, k2) in pairs
               for i in range(3) for kk in range(3)]

        def general(u, v):
            wu, wv = wedge_table(rig, u, pairs), wedge_table(rig, v, pairs)
            return [form.evaluate(wu[(j1, k1)][i], wv[(j2, k2)][kk])
                    for (j1, k1, i), (j2, k2, kk) in idx]
        return ConstraintSystem(rig, family, idx, general)
    raise ValueError(f"unknown family {family}")


def coplanar_residuals(rig: CameraRig, tuples4) -> list:
    """4x4 determinants of stacked cofactor vectors of camera pair (0, 1),
    one for every choice of row in each of four image tuples; all vanish
    when the four world points are coplanar."""
    if len(tuples4) != 4:
        raise ShapeError("need exactly four image tuples")
    tables = [wedge_table(rig, t, [(0, 1)])[(0, 1)] for t in tuples4]
    return [det(Mat.from_cols(cols)) for cols in itertools.product(*tables)]


DEFAULT_VANISH_TOL = 1e-7


def _norm(coords):
    return sum(float(x) * float(x) for x in coords) ** 0.5


def _octic_normalizer(pair_u, pair_v, u, v):
    (j1, k1), (j2, k2) = pair_u, pair_v
    return (_norm(u[j1].coords) * _norm(u[k1].coords)
            * _norm(v[j2].coords) * _norm(v[k2].coords)) ** 2


def rigid_pair_oracle(rig: CameraRig, u, v, tol: float | None = None) -> bool:
    """Direct membership test for an image pair of points at distance 1.

    Both tuples must be consistent; when both triangulate, the recovered
    world points must satisfy the unit-distance form; a non-triangulable side
    (two cameras, the epipole pair) is accepted whenever the other side is
    consistent, matching the closure components of the image.  Ranks read
    ``rig.tol``; on floats ``tol`` is the vanish tolerance of the form.
    """
    # One triangulation per side.  An inconsistent side decides first; then
    # a non-triangulable side; only then a side whose candidates disagree.
    sides = []
    for points in (u, v):
        try:
            sides.append(triangulate(rig, points).point)
        except NotInVarietyError:
            return False
        except (NotTriangulableError, AmbiguousTriangulationError) as exc:
            sides.append(exc)
    if any(isinstance(side, NotTriangulableError) for side in sides):
        if rig.n == 2:
            return True
        raise RuntimeError("non-triangulable tuple with three or more cameras; "
                           "the oracle needs a general-position rig")
    for side in sides:
        if isinstance(side, Exception):
            raise side
    x, y = sides
    value = _UNIT_FORM.evaluate(x.coords, y.coords)
    if rig.backend == EXACT:
        return value == 0
    t = tol if tol is not None else DEFAULT_VANISH_TOL
    return abs(value) <= t * (_norm(x.coords) ** 2) * (_norm(y.coords) ** 2)


def rigid_pair_by_equations(rig: CameraRig, u, v,
                            family: Family | str = Family.OCTIC_FULL,
                            tol: float | None = None) -> bool:
    """Equation-side membership: both tuples consistent (ranks at
    ``rig.tol``) and every unit-distance octic of the family vanishing
    (exactly, or on floats below ``tol`` times the normalizer).

    The exact verdict is :meth:`OcticEngine.vanishes`, which decides from
    residues modulo fixed primes below 2^29 (so that the int64 contraction
    cannot overflow) and forms no value: a nonzero residue proves a nonzero
    octic, and all residues zero modulo primes whose product exceeds
    B = 100 max|S_u| max|G| max|S_v|, a bound on every cleared value,
    prove every octic zero."""
    family = Family(family)
    if family not in _OCTIC_FAMILIES:
        raise ValueError("membership by equations uses an octic family")
    if not (multiview_membership(rig, u).ok and multiview_membership(rig, v).ok):
        return False
    row_set = _octic_row_set(rig.n, family)
    engine = OcticEngine(rig, (row_set, row_set), [(0, 1, _UNIT_TENSOR)])
    if rig.backend == EXACT:
        return engine.vanishes((u, v))
    ((values, _),) = engine.cleared((u, v))
    # the normalizer depends on the camera pairs only: one per row of values
    t = tol if tol is not None else DEFAULT_VANISH_TOL
    pairs = row_set[0]
    limits = [t * max(_octic_normalizer(pu, pv, u, v), 1e-300) for pu in pairs for pv in pairs]
    return not (np.abs(values) > np.array(limits)[:, None]).any()


def _check_positive(*distances) -> None:
    if any(d <= 0 for d in distances):
        raise ValueError("distances must be positive")


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


def chow_factor(a: Mat) -> tuple:
    """Recover the unordered point pair behind a split symmetric matrix.

    Locates the singular point of the degenerate conic through the adjugate,
    adds its skew matrix to split off a rank-1 outer product, and reads off
    the two factors.  Raises :class:`ChowFactorError` for full-rank input,
    complex-conjugate splits, or irrational splits.
    """
    if (a.rows, a.cols) != (3, 3):
        raise ShapeError("expected a 3x3 matrix")
    if a.transpose() != a:
        raise ValueError("matrix must be symmetric")
    exact = a.backend == EXACT
    t = 1e-9
    scale = max(abs(float(x)) for r in a.data for x in r) or 1.0
    d = det(a)
    if (exact and d != 0) or (not exact and abs(d) > t * scale ** 3):
        raise ChowFactorError("matrix has rank 3", "rank3")
    n = adjugate(a).scaled(-1)
    n_is_zero = (all(x == 0 for r in n.data for x in r) if exact
                 else all(abs(x) <= t * scale ** 2 for r in n.data for x in r))
    if n_is_zero:
        # rank one: a double line 2c * u u^T
        diag = [(abs(a[i, i]), i) for i in range(3)]
        best, i = max(diag)
        if (exact and best == 0) or (not exact and best <= t * scale):
            raise ChowFactorError("zero matrix", "rank3")
        u = ProjectivePoint(a.row(i))
        return (u, u)
    diag = [(n[i, i], i) for i in range(3)]
    best, j = max(diag)
    if (exact and best <= 0) or (not exact and best <= t * scale ** 2):
        raise ChowFactorError("conjugate complex factors", "complex")
    if exact:
        s = _sqrt_exact(best)
        p = [Fraction(x) / s for x in n.col(j)]
    else:
        s = best ** 0.5
        p = [x / s for x in n.col(j)]
    zero = 0.0 if not exact else 0
    skew = Mat([[zero, -p[2], p[1]],
                [p[2], zero, -p[0]],
                [-p[1], p[0], zero]])
    r = Mat([[a[i, q] + skew[i, q] for q in range(3)] for i in range(3)])
    row = max(range(3), key=lambda i: max(abs(float(x)) for x in r.row(i)))
    col = max(range(3), key=lambda i: max(abs(float(x)) for x in r.col(i)))
    u = ProjectivePoint(r.row(row))
    v = ProjectivePoint(r.col(col))
    if exact:
        check = chow_map(u, v)
        if not _proportional_exact([e for row in check.data for e in row],
                                   [e for row in a.data for e in row]):
            raise ChowFactorError("factorization check failed", "complex")
        return tuple(sorted((u, v), key=lambda pt: pt.canonical()))
    return (u, v)
