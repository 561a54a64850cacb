"""Shared test fixtures: deterministic rigs, naive determinant oracle, the
partial-pivoting determinant, Gauss-Jordan inverse and cofactor adjugate
references, the back-substitution and SVD kernel, the from-scratch camera
minor table, the per-index references for cofactor vectors and tensor
values, one engine value, the cofactor-expansion reference for the
symbolic octics on plain {exps: coef} term dicts (no polyspace
arithmetic), the per-column mod-p rank, the exact rank of a polynomial
family, the per-term coefficient matrix and failure bounds, and the direct
oracle through triangulated points."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm, log2
from operator import attrgetter

import numpy as np

from rigidview.cameras import (_MINOR_INDEX, _MINOR_ROWS, _MINOR_SIGN, CameraRig,
                               ProjectivePoint, _det3)
from rigidview.constraints import _UNIT_FORM, DEFAULT_VANISH_TOL, OcticEngine
from rigidview.linalg import (DEFAULT_RANK_TOL, EXACT, FLOAT, Mat, _bareiss_echelon, _cleared,
                              _exact_rank, _float_array, det, integer_cleared, rank,
                              signed_maximal_minors)
from rigidview.polyspace import (RANK_PRIME_COUNT, MultiHomogPoly, _shared_degree, monomial_basis,
                                 variable_index)
from rigidview.triangulation import NotInVarietyError, NotTriangulableError, triangulate


def standard_rig():
    """Identity camera plus a unit-translated copy; the simplest exact rig."""
    a1 = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    a2 = Mat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    return CameraRig([a1, a2])


def random_camera_mat(rng, height=20):
    while True:
        m = Mat([[rng.randrange(height) for _ in range(4)] for _ in range(3)])
        if rank(m).rank == 3:
            return m


def random_rig(rng, n=3, height=20):
    while True:
        rig = CameraRig([random_camera_mat(rng, height) for _ in range(n)])
        if rig.general_position.ok:
            return rig


def fraction_rig(rng, n=2):
    while True:
        mats = [Mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)]
                     for _ in range(3)]) for _ in range(n)]
        if all(rank(m).rank == 3 for m in mats):
            rig = CameraRig(mats)
            if rig.general_position.ok:
                return rig


def scaled_rig(rig, factor):
    return CameraRig([Mat([[c * factor for c in row] for row in rig.camera(i).matrix.data])
                      for i in range(rig.n)])


def random_world_point(rng, bound=50):
    while True:
        coords = tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 10)) for _ in range(3))
        return coords + (Fraction(1),)


def naive_det(m):
    """Permutation-expansion determinant; an oracle independent of elimination."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * m[i, perm[i]]
        total += term
    return total


def reference_det(m):
    """Determinant by Gaussian elimination with partial pivoting, in floats
    on the float backend and in Fractions on the exact one; on floats this
    is the library's former float determinant."""
    conv = float if m.backend == FLOAT else Fraction
    a = [list(map(conv, r)) for r in m.data]
    n = len(a)
    detval = conv(1)
    for k in range(n):
        piv_row = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[piv_row][k] == 0:
            return conv(0)
        if piv_row != k:
            a[k], a[piv_row] = a[piv_row], a[k]
            detval = -detval
        detval *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return detval


def reference_invert(m, tol=None):
    """Inverse by Gauss-Jordan elimination with partial pivoting, the
    library's former ``invert``: exact entries that are integers come back
    as ints, and a zero pivot (or on floats one at most ``tol``) raises."""
    n = m.rows
    if m.backend != FLOAT:
        a = [[Fraction(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
             for i, r in enumerate(m.data)]
    else:
        a = [[float(x) for x in r] + [1.0 if i == j else 0.0 for j in range(n)]
             for i, r in enumerate(m.data)]
    for k in range(n):
        piv_row = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[piv_row][k] == 0:
            raise ValueError("matrix is singular")
        if m.backend == FLOAT and abs(a[piv_row][k]) <= (tol if tol is not None else 0.0):
            raise ValueError("matrix is singular within tolerance")
        a[k], a[piv_row] = a[piv_row], a[k]
        piv = a[k][k]
        a[k] = [x / piv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    inv = [r[n:] for r in a]
    if m.backend != FLOAT:
        inv = [[x.numerator if x.denominator == 1 else x for x in r] for r in inv]
    return Mat(inv)


def reference_nullspace(m, tol=None):
    """Basis of the kernel, the library's former ``nullspace``: exact
    vectors by back-substitution on the fraction-free elimination, one per
    free column (1 there), integer-cleared; float vectors are the right
    singular vectors past the rank at ``tol``, each divided by its entry of
    largest magnitude."""
    if m.backend == EXACT:
        ech, pivot_cols, _ = _bareiss_echelon([_cleared(r)[0] for r in m.data])
        basis = []
        for f in (c for c in range(m.cols) if c not in pivot_cols):
            v = [Fraction(0)] * m.cols
            v[f] = Fraction(1)
            for r in range(len(pivot_cols) - 1, -1, -1):
                pc = pivot_cols[r]
                s = sum((ech[r][j] * v[j] for j in range(pc + 1, m.cols)), Fraction(0))
                v[pc] = -s / ech[r][pc]
            basis.append(integer_cleared(v))
        return basis
    tol = DEFAULT_RANK_TOL if tol is None else tol
    _, s, vt = np.linalg.svd(_float_array(m.data))
    kernel = vt[np.count_nonzero(s > tol * s[0]):]
    peaks = kernel[np.arange(len(kernel)), np.abs(kernel).argmax(axis=1)]
    return [tuple(v) for v in (kernel / peaks[:, None]).tolist()]


def reference_adjugate(m):
    """Adjugate by cofactors, entry by entry: entry (i, j) is (-1)^(i+j)
    times the determinant of m without row j and column i."""
    n = m.rows
    if n == 1:
        return Mat.identity(1, m.backend)
    return Mat([[(1 if (i + j) % 2 == 0 else -1) * det(m.delete_row(j).delete_col(i))
                 for j in range(n)] for i in range(n)])


def reference_minor_table(rig, j, k):
    """The camera minor table of cameras j and k built from scratch: the
    true signed 3x3 minors (ints or Fractions in an object array on the
    exact backend, float64 on floats), with no denominator cleared, in the
    layout of :func:`rigidview.cameras.camera_minor_table`.  The reference
    for the tables a rig stores."""
    stack = rig.camera(j).matrix.data + rig.camera(k).matrix.data
    dropped = [[row[:c] + row[c + 1:] for row in stack] for c in range(4)]
    minors = [[(-1) ** c * _det3(rows[p], rows[q], rows[r]) for c, rows in enumerate(dropped)]
              for p, q, r in _MINOR_ROWS]
    minors = np.array(minors + [[0] * 4], dtype=object)
    table = (minors[_MINOR_INDEX] * _MINOR_SIGN[..., None]).transpose(0, 2, 1)
    return np.ascontiguousarray(table, dtype=object if rig.backend == EXACT else np.float64)


def wedge5(b, i):
    """Signed maximal minors of B with row i (0-based) deleted: the cofactor
    vector that :func:`rigidview.cameras.camera_minor_table` gives as a
    bilinear form, here by six determinants."""
    return signed_maximal_minors(b.mat.delete_row(i))


def wedge5_point(b, i):
    """First four coordinates of the row-i cofactor vector of an exact B as
    a world point, or None when they are all zero."""
    w = wedge5(b, i)[:4]
    return ProjectivePoint(w) if any(c != 0 for c in w) else None


def engine_value(rig, tensor, u_sel, v_sel, u, v):
    """One value of :class:`rigidview.constraints.OcticEngine`: the tensor
    at cofactor rows ``u_sel = (j1, k1, i1, i2)`` of tuple u and ``v_sel``
    of tuple v."""
    (j1, k1, *rows_u), (j2, k2, *rows_v) = u_sel, v_sel
    row_sets = [([(j1, k1)], [tuple(rows_u)]), ([(j2, k2)], [tuple(rows_v)])]
    return OcticEngine(rig, row_sets, [(0, 1, tensor)]).evaluate((u, v))[0]


def tensor_value(tensor, a, b, c, d):
    """T(a, b, c, d) of a :class:`rigidview.constraints.QuadTensor`, one
    entry at a time: the reference for the contraction of OcticEngine."""
    total = 0
    for ((p, q), (r, s)), coef in tensor.entries.items():
        left = a[p] * b[q]
        if p != q:
            left = left + a[q] * b[p]
        right = c[r] * d[s]
        if r != s:
            right = right + c[s] * d[r]
        total = total + coef * left * right
    return total


def count_calls(monkeypatch, module, name, calls=None):
    """Replace ``module.name`` by a wrapper that appends each call's
    positional arguments to ``calls`` (a new list unless one is given)."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _add(p, q, scale=1):
    """p + scale * q for polynomials given as term dicts {exps: coef}."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c != 0}


def _mul(p, q):
    """The product of two term dicts."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _poly_det(entries):
    """Determinant of a square grid of term dicts by cofactor expansion
    along the first column."""
    if len(entries) == 1:
        return entries[0][0]
    acc = {}
    for r, row in enumerate(entries):
        if row[0]:
            minor = [other[1:] for i, other in enumerate(entries) if i != r]
            acc = _add(acc, _mul(row[0], _poly_det(minor)), (-1) ** r)
    return acc


def reference_wedge(rig, j, k, row, side="u"):
    """The row-deleted cofactor vector of the symbolic pair matrix B, its
    four world coordinates expanded as 5x5 polynomial determinants, as
    term dicts."""
    n = rig.n
    grid = []
    for cam, offset in ((j, 0), (k, 3)):
        for r in range(3):
            if r + offset == row:
                continue
            exps = [0] * (6 * n)
            exps[variable_index(n, side, cam, r)] = 1
            image = [{tuple(exps): 1}, {}]
            grid.append([{(0,) * (6 * n): c} if c != 0 else {}
                         for c in rig.camera(cam).matrix.data[r]]
                        + (image if offset == 0 else image[::-1]))
    return [_add({}, _poly_det([r[:c] + r[c + 1:] for r in grid]), (-1) ** c) for c in range(4)]


def reference_octics(rig, tensor, selections):
    """Symbolic octics by cofactor expansion, one per ``(u_sel, v_sel)``, each
    ``(j, k, i, i')`` a camera pair and two of its cofactor rows: the tensor's
    cleared coefficients times products of the wedge term dicts, with the
    clearing factor divided out of each coefficient at the end."""
    n = rig.n
    split = 3 * n
    wedges, products = {}, {}

    def sym_product(side, j, k, ia, ib, p, q):
        key = (side, j, k, min(ia, ib), max(ia, ib), p, q)
        if key not in products:
            for i in (ia, ib):
                if (side, j, k, i) not in wedges:
                    wedges[side, j, k, i] = reference_wedge(rig, j, k, i, side)
            wa, wb = wedges[side, j, k, ia], wedges[side, j, k, ib]
            left = _mul(wa[p], wb[q])
            if p != q:
                left = _add(left, _mul(wa[q], wb[p]))
            products[key] = left
        return products[key]

    denom = lcm(*[Fraction(c).denominator for c in tensor.entries.values()])
    out = []
    for (j1, k1, i1, i2), (j2, k2, i3, i4) in selections:
        acc = {}
        for ((p, q), (r, s)), coef in tensor.entries.items():
            c_int = int(Fraction(coef) * denom)
            left = sym_product("u", j1, k1, i1, i2, p, q)
            right = sym_product("v", j2, k2, i3, i4, r, s).items()
            for e1, c1 in left.items():
                for e2, c2 in right:
                    e = e1[:split] + e2[split:]
                    acc[e] = acc.get(e, 0) + c_int * c1 * c2
        terms = {}
        for e, c in acc.items():
            if c != 0:
                f = Fraction(c, denom)
                terms[e] = f.numerator if f.denominator == 1 else f
        out.append(MultiHomogPoly(n, terms))
    return out


def reference_terms(q):
    """The term dict of q, entry by entry from its cleared row: the exponent
    tuple of each column and nums / den, an int where it is integral, else a
    Fraction, in row order."""
    cols, nums, den = q._row
    basis = monomial_basis(q.n, q.multidegree) if len(cols) else []
    out = {}
    for c, x in zip(cols.tolist(), nums.tolist()):
        f = Fraction(x, den)
        out[basis[c]] = f.numerator if f.denominator == 1 else f
    return out


def reference_component_basis(rig):
    """The (2,2,2,2) slice of the two-camera consistency ideal term by term:
    the generator u_1^T F u_2 (entries of F that are 0 skipped), then
    v_1^T F v_2, times every monomial of the complementary multidegree in
    basis order, each product's exponent tuple looked up in the basis.  A
    row keeps its generator's term order and cleared numerators."""
    n, target = 2, (2, 2, 2, 2)
    basis = monomial_basis(n, target)
    index = {m: i for i, m in enumerate(basis)}
    f = rig.fundamental(0, 1)
    out = []
    for side, complement in (("u", (1, 1, 2, 2)), ("v", (2, 2, 1, 1))):
        terms = {}
        for a in range(3):
            for b in range(3):
                if f[a, b] == 0:
                    continue
                exps = [0] * (6 * n)
                exps[variable_index(n, side, 0, a)] = 1
                exps[variable_index(n, side, 1, b)] = 1
                terms[tuple(exps)] = f[a, b]
        _, nums, den = MultiHomogPoly(n, terms)._row
        for monomial in monomial_basis(n, complement):
            cols = [index[tuple(a + b for a, b in zip(e, monomial))] for e in terms]
            row = (np.array(cols, dtype=np.min_scalar_type(len(basis))), nums, den)
            out.append(MultiHomogPoly._trusted(n, target, row))
    return out


def reference_modp_rank(a, p):
    """Rank of the integer matrix a over GF(p), p a prime below 2^31, by
    int64 elimination one pivot column at a time."""
    a = np.mod(a, p)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], c:] = a[[piv, r], c:]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        factors = a[r + 1:, c]
        nzr = np.nonzero(factors)[0]
        if nzr.size:
            block = a[r + 1 + nzr, c:]
            a[r + 1 + nzr, c:] = (block - np.outer(factors[nzr], a[r, c:])) % p
        r += 1
    return r


def exact_rank(polys):
    """The rational rank of a polynomial family: one fraction-free
    elimination of its dense coefficient rows over the shared basis."""
    basis, _ = _reference_basis(polys[0].n, _shared_degree(polys))
    return _exact_rank([[t.get(m, 0) for m in basis] for t in (dict(q.terms) for q in polys)])


def _terms(polys, terms):
    """The polynomials' term dicts: ``terms`` when the caller derived them
    already, else derived here."""
    return [q.terms for q in polys] if terms is None else terms


def reference_coefficient_matrix_modp(polys, p, terms=None):
    """Rows of coefficients over the shared monomial basis, reduced mod p
    term by term: one dict lookup of each exponent tuple, a Python residue
    of each int, and of each Fraction its numerator times the inverse of its
    denominator, raising when p divides that denominator.  ``terms`` may
    hold the polynomials' term dicts, derived once by the caller."""
    basis, index = _reference_basis(polys[0].n, _shared_degree(polys))
    out = np.zeros((len(polys), len(basis)), dtype=np.int64)
    for r, terms in enumerate(_terms(polys, terms)):
        out[r, [index[exps] for exps in terms]] = [
            c % p if isinstance(c, int) else _fraction_modp(c, p) for c in terms.values()]
    return out


@lru_cache(maxsize=None)
def _reference_basis(n, degree):
    basis = monomial_basis(n, degree)
    return basis, {m: i for i, m in enumerate(basis)}


def _fraction_modp(c, p):
    den = c.denominator % p
    if den == 0:
        raise ValueError("prime divides a coefficient denominator; pick another prime")
    return c.numerator % p * pow(den, -1, p) % p


def reference_height_bits(polys, terms=None):
    """log2 of the Hadamard bound of the row-cleared coefficient matrix from
    the terms: per row, the bit length of the largest coefficient times the
    lcm of the denominators, plus log2(sqrt(terms))."""
    bits = 0.0
    for poly, terms in zip(polys, _terms(polys, terms)):
        if poly.is_zero():
            continue
        coefs = terms.values()
        top = max(map(abs, coefs)) * lcm(*map(attrgetter("denominator"), coefs))
        bits += int(top).bit_length() + 0.5 * log2(len(coefs))
    return bits


def reference_modp_failure_bound(polys, terms=None):
    return (reference_height_bits(polys, terms) // 30) / RANK_PRIME_COUNT


def reference_quotient_failure_bound(octics, component, octic_terms=None, component_terms=None):
    a = reference_height_bits(octics, octic_terms)
    b = reference_height_bits(component, component_terms)
    return (a // 30 + b // 30 + (a + b) // 30) / RANK_PRIME_COUNT


def reference_rigid_pair_oracle(rig, u, v, tol=None):
    """The direct membership oracle on the two :func:`triangulate` points:
    the library's former ``rigid_pair_oracle``, with the same order of
    decisions and the same raised exceptions."""
    sides = []
    for points in (u, v):
        try:
            sides.append(triangulate(rig, points).point)
        except NotInVarietyError:
            return False
        except NotTriangulableError as exc:
            sides.append(exc)
    if any(isinstance(side, NotTriangulableError) for side in sides):
        if rig.n == 2:
            return True
        raise RuntimeError("non-triangulable tuple with three or more cameras")
    x, y = (side.coords for side in sides)
    value = _UNIT_FORM.evaluate(x, y)
    if rig.backend == EXACT:
        return value == 0
    t = tol if tol is not None else DEFAULT_VANISH_TOL
    return abs(value) <= t * sum(c * c for c in x) * sum(c * c for c in y)
