"""Sparse multigraded polynomials in the 6n image variables.

The coordinate ring of n left image planes and n right image planes carries
a Z^(2n) grading: one degree slot per camera per side.  Variables are
ordered u_(1,0), u_(1,1), u_(1,2), ..., u_(n,2), v_(1,0), ..., v_(n,2); an
exponent vector is a tuple of 6n nonnegative integers.  The module expands
triangulation cofactor vectors and the degree-8 distance constraints
symbolically for a fixed numeric rig, computes span dimensions of
polynomial families (exactly or modulo a random >=30-bit prime), and counts
the conjectured minimal generators per degree class.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

import numpy as np

from .cameras import CameraRig
from .constraints import QuadTensor
from .linalg import EXACT, Scalar, _bareiss_echelon, decode_scalar, encode_scalar


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


class MultiHomogPoly:
    """Sparse polynomial whose terms all share one multidegree.

    The zero polynomial has no terms and multidegree None.  Coefficients are
    exact rationals (ints or Fractions).
    """

    __slots__ = ("n", "terms", "multidegree")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        degree = None
        for exps, c in (terms or {}).items():
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != 6 * n:
                raise ValueError(f"exponent vectors need length {6 * n}")
            d = multidegree_of(exps)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError(f"mixed multidegrees {degree} and {d}")
            clean[exps] = c
        self.terms = clean
        self.multidegree = degree

    @classmethod
    def zero(cls, n: int) -> "MultiHomogPoly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: Scalar) -> "MultiHomogPoly":
        return cls(n, {(0,) * (6 * n): c})

    @classmethod
    def variable(cls, n: int, side: str, cam: int, coord: int) -> "MultiHomogPoly":
        exps = [0] * (6 * n)
        exps[variable_index(n, side, cam, coord)] = 1
        return cls(n, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultiHomogPoly") -> "MultiHomogPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.multidegree != other.multidegree:
            raise ValueError("cannot add polynomials of different multidegrees")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return MultiHomogPoly(self.n, terms)

    def __neg__(self) -> "MultiHomogPoly":
        return MultiHomogPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiHomogPoly") -> "MultiHomogPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiHomogPoly":
        if not isinstance(other, MultiHomogPoly):
            if other == 0:
                return MultiHomogPoly.zero(self.n)
            return MultiHomogPoly(self.n, {e: c * other for e, c in self.terms.items()})
        if self.is_zero() or other.is_zero():
            return MultiHomogPoly.zero(self.n)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiHomogPoly(self.n, terms)

    __rmul__ = __mul__

    def shifted(self, monomial: Sequence[int]) -> "MultiHomogPoly":
        """Multiply by one monomial (exponent shift)."""
        return MultiHomogPoly(
            self.n, {tuple(a + b for a, b in zip(e, monomial)): c for e, c in self.terms.items()})

    def evaluate(self, us: Sequence[Sequence[Scalar]], vs: Sequence[Sequence[Scalar]]) -> Scalar:
        flat = [c for pt in us for c in pt[:3]] + [c for pt in vs for c in pt[:3]]
        if len(flat) != 6 * self.n:
            raise ValueError("need n image points per side")
        total = 0
        for exps, coef in self.terms.items():
            term = coef
            for val, e in zip(flat, exps):
                if e:
                    term = term * val ** e
            total = total + term
        return total

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other):
        return (isinstance(other, MultiHomogPoly) and self.n == other.n
                and self.terms == other.terms)

    def __repr__(self):
        return f"MultiHomogPoly(n={self.n}, degree={self.multidegree}, terms={len(self.terms)})"

    def to_json(self) -> dict:
        return {
            "degree": list(self.multidegree) if self.multidegree else [0] * (2 * self.n),
            "terms": [{"exps": list(e), "coef": encode_scalar(c)}
                      for e, c in sorted(self.terms.items(), reverse=True)],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MultiHomogPoly":
        n = len(doc["degree"]) // 2
        return cls(n, {tuple(t["exps"]): decode_scalar(t["coef"]) for t in doc["terms"]})


def _poly_det(entries) -> MultiHomogPoly:
    """Determinant of a square grid of polynomials by cofactor expansion."""
    size = len(entries)
    n = entries[0][0].n
    if size == 1:
        return entries[0][0]
    acc = MultiHomogPoly.zero(n)
    for r in range(size):
        e = entries[r][0]
        if e.is_zero():
            continue
        minor = [row[1:] for i, row in enumerate(entries) if i != r]
        term = e * _poly_det(minor)
        acc = acc + (term if r % 2 == 0 else -term)
    return acc


def expand_wedge_symbolic(rig: CameraRig, j: int, k: int, row: int,
                          side: str = "u") -> list:
    """The four world coordinates of the row-deleted cofactor vector as
    polynomials, bilinear in the image variables of cameras j and k.

    Every coefficient is, up to sign, a 3x3 minor of the stacked 6x4 camera
    matrix.  ``row`` is 0-based.
    """
    if rig.backend != EXACT:
        raise ValueError("symbolic expansion needs an exact rig")
    n = rig.n
    zero = MultiHomogPoly.zero(n)
    grid = []
    for r in range(3):
        if r == row:
            continue
        cam_row = rig.camera(j).matrix.data[r]
        grid.append([MultiHomogPoly.constant(n, c) if c != 0 else zero for c in cam_row]
                    + [MultiHomogPoly.variable(n, side, j, r), zero])
    for r in range(3):
        if r + 3 == row:
            continue
        cam_row = rig.camera(k).matrix.data[r]
        grid.append([MultiHomogPoly.constant(n, c) if c != 0 else zero for c in cam_row]
                    + [zero, MultiHomogPoly.variable(n, side, k, r)])
    out = []
    for c in range(4):
        sub = [r[:c] + r[c + 1:] for r in grid]
        d = _poly_det(sub)
        out.append(d if c % 2 == 0 else -d)
    return out


def expand_octic_symbolic(rig: CameraRig, tensor: QuadTensor, u_sel, v_sel,
                          _cache: Optional[dict] = None) -> MultiHomogPoly:
    """Symbolic degree-8 constraint for one index choice.

    ``u_sel = (j1, k1, i1, i2)`` and ``v_sel = (j2, k2, i3, i4)`` as in the
    numeric evaluator; the result is multihomogeneous of degree 2 in each of
    the four involved image points and vanishes on image pairs of
    constraint-satisfying world points.  ``_cache`` lets batch callers share
    wedge expansions and symmetric products across many index choices.
    """
    j1, k1, i1, i2 = u_sel
    j2, k2, i3, i4 = v_sel
    cache = _cache if _cache is not None else {}
    n = rig.n
    split = 3 * n

    def wedges(side, j, k, i):
        key = ("wedge", side, j, k, i)
        if key not in cache:
            cache[key] = expand_wedge_symbolic(rig, j, k, i, side)
        return cache[key]

    def sym_product(side, j, k, ia, ib, p, q):
        # symmetric in the two row slots, so normalize the key
        if ia > ib:
            ia, ib = ib, ia
        key = ("prod", side, j, k, ia, ib, p, q)
        if key not in cache:
            wa = wedges(side, j, k, ia)
            wb = wedges(side, j, k, ib)
            left = wa[p] * wb[q]
            if p != q:
                left = left + wa[q] * wb[p]
            cache[key] = left
        return cache[key]

    # tensor coefficients are cleared to integers; the u-side and v-side
    # factors live in disjoint variable blocks, so products splice exponents
    denom = lcm(*[Fraction(c).denominator for c in tensor.entries.values()])
    acc: dict = {}
    for ((p, q), (r, s)), coef in tensor.entries.items():
        c_int = int(Fraction(coef) * denom)
        left = sym_product("u", j1, k1, i1, i2, p, q)
        right = sym_product("v", j2, k2, i3, i4, r, s)
        for e1, c1 in left.terms.items():
            head = e1[:split]
            cc = c_int * c1
            for e2, c2 in right.terms.items():
                e = head + e2[split:]
                acc[e] = acc.get(e, 0) + cc * c2
    terms = {}
    for e, c in acc.items():
        if c == 0:
            continue
        f = Fraction(c, denom)
        terms[e] = f.numerator if f.denominator == 1 else f
    return MultiHomogPoly(n, terms)


def all_octics_symbolic(rig: CameraRig, tensor: QuadTensor,
                        pair_u=(0, 1), pair_v=(0, 1)) -> list:
    """All 441 symbolic octics of one camera-pair-of-pairs (row index pairs
    i1 <= i2 and i3 <= i4 over the six rows of each side)."""
    cache: dict = {}
    out = []
    for i1 in range(6):
        for i2 in range(i1, 6):
            for i3 in range(6):
                for i4 in range(i3, 6):
                    out.append(expand_octic_symbolic(
                        rig, tensor, pair_u + (i1, i2), pair_v + (i3, i4), cache))
    return out


def ideal_component_basis(rig: CameraRig, target=(2, 2, 2, 2)) -> list:
    """Degree-``target`` slice of the two-camera consistency ideal.

    Supported for two cameras only, where the ideal of consistent pairs is
    generated by the two bilinear determinant forms; the slice consists of
    each generator times every monomial of the complementary multidegree.
    """
    if rig.n != 2:
        raise ValueError("the two bilinear generators only span the ideal for n = 2; "
                         "three or more cameras would need the trilinear generators")
    if rig.backend != EXACT:
        raise ValueError("symbolic expansion needs an exact rig")
    n = rig.n
    f = rig.fundamental(0, 1)
    gens = []
    for side, degree in (("u", (1, 1, 0, 0)), ("v", (0, 0, 1, 1))):
        terms = {}
        for a in range(3):
            for b in range(3):
                if f[a, b] == 0:
                    continue
                exps = [0] * (6 * n)
                exps[variable_index(n, side, 0, a)] = 1
                exps[variable_index(n, side, 1, b)] = 1
                terms[tuple(exps)] = f[a, b]
        gens.append((MultiHomogPoly(n, terms), degree))
    out = []
    for gen, gdeg in gens:
        complement = tuple(t - g for t, g in zip(target, gdeg))
        if any(c < 0 for c in complement):
            raise ValueError("target multidegree is below the generator degree")
        for monomial in monomial_basis(n, complement):
            out.append(gen.shifted(monomial))
    return out


def _is_probable_prime(m: int) -> bool:
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


def random_rank_prime(rng) -> int:
    """A random prime in [2^30, 2^31), suitable for int64 elimination."""
    while True:
        cand = rng.randrange(2 ** 30, 2 ** 31) | 1
        if _is_probable_prime(cand):
            return cand


def _modp_rank(a: np.ndarray, p: int) -> int:
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


def coefficient_matrix_modp(polys: Sequence[MultiHomogPoly], p: int) -> np.ndarray:
    """Rows of coefficients over the shared monomial basis, reduced mod p."""
    degree = _shared_degree(polys)
    n = polys[0].n
    basis = monomial_basis(n, degree)
    index = {m: i for i, m in enumerate(basis)}
    out = np.zeros((len(polys), len(basis)), dtype=np.int64)
    for r, poly in enumerate(polys):
        for exps, coef in poly.terms.items():
            f = Fraction(coef)
            den = f.denominator % p
            if den == 0:
                raise ValueError("prime divides a coefficient denominator; pick another prime")
            out[r, index[exps]] = f.numerator % p * pow(den, -1, p) % p
    return out


def _shared_degree(polys):
    degree = None
    for poly in polys:
        if poly.is_zero():
            continue
        if degree is None:
            degree = poly.multidegree
        elif degree != poly.multidegree:
            raise ValueError("polynomials have mixed multidegrees")
    if degree is None:
        raise ValueError("all polynomials are zero")
    return degree


def span_dimension(polys: Sequence[MultiHomogPoly], modulus: Optional[int] = None) -> int:
    """Dimension of the linear span inside the fixed multidegree component.

    With ``modulus`` (a >= 30-bit prime) the rank is computed by int64
    elimination mod p: a lower bound that equals the rational rank with
    overwhelming probability.  Without it the rank is exact (fraction-free
    elimination; impractical beyond small inputs).
    """
    polys = [q for q in polys if not q.is_zero()]
    if not polys:
        return 0
    if modulus is not None:
        return _modp_rank(coefficient_matrix_modp(polys, modulus), modulus)
    degree = _shared_degree(polys)
    basis = monomial_basis(polys[0].n, degree)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for poly in polys:
        fr = [Fraction(0)] * len(basis)
        for exps, coef in poly.terms.items():
            fr[index[exps]] = Fraction(coef)
        denom = lcm(*[x.denominator for x in fr]) if len(fr) > 1 else fr[0].denominator
        rows.append([int(x * denom) for x in fr])
    _, pivots, _ = _bareiss_echelon(rows)
    return len(pivots)


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

    def by_label(self) -> dict:
        return {c.label: c.count for c in self.classes}

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
