"""Cameras, rigs, focal points, epipoles, fundamental matrices.

A camera is a rank-3 3x4 matrix mapping world points in P^3 to image points
in P^2.  A rig is an ordered list of at least two cameras over one scalar
backend, with eagerly computed caches: focal points (camera kernels),
epipoles (images of the other cameras' focal points), each camera pair's
table of signed 3x3 camera minors (the coefficients of its cofactor
vectors, stored cleared of denominators), fundamental matrices (read from
those tables), and a general-position validation record.  Degenerate rigs
are constructible on purpose; the violations are recorded rather than
rejected, because negative tests and special-position scenarios need them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, hypot, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOL,
    EXACT,
    FLOAT,
    INT64_LIMIT,
    BackendError,
    Mat,
    Scalar,
    ShapeError,
    _cleared,
    _exact_rank,
    _int_array,
    _max_abs,
    decode_scalar,
    det,
    encode_scalar,
    integer_cleared,
    invert,
    rank,
)


class ProjectionError(ValueError):
    """Raised when projecting a camera's own focal point."""


class ProjectivePoint:
    """Homogeneous coordinate vector: length 4 for world points, 3 for image
    points.  Equality is up to nonzero scale, never componentwise; the stored
    representative is kept exactly as given."""

    __slots__ = ("coords", "backend")

    def __init__(self, coords: Iterable[Scalar]):
        coords = tuple(coords)
        if len(coords) not in (3, 4):
            raise ShapeError("projective points have 3 (image) or 4 (world) coordinates")
        has_float = any(isinstance(x, float) for x in coords)
        has_frac = any(isinstance(x, Fraction) for x in coords)
        if has_float and has_frac:
            raise BackendError("cannot mix Fraction and float coordinates")
        if has_float:
            coords = tuple(float(x) for x in coords)
        if all(x == 0 for x in coords):
            raise ValueError("all coordinates are zero")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "backend", FLOAT if has_float else EXACT)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def canonical(self) -> tuple:
        """Canonical exact representative: coprime integers, first nonzero positive."""
        if self.backend != EXACT:
            raise BackendError("canonical form is defined on the exact backend")
        ints = integer_cleared(self.coords)
        lead = next(x for x in ints if x != 0)
        return ints if lead > 0 else tuple(-x for x in ints)

    def scaled(self, c: Scalar) -> "ProjectivePoint":
        if c == 0:
            raise ValueError("scale must be nonzero")
        return ProjectivePoint(tuple(c * x for x in self.coords))

    def to_float(self) -> "ProjectivePoint":
        return ProjectivePoint(tuple(float(x) for x in self.coords))

    def __repr__(self):
        return f"ProjectivePoint({list(self.coords)})"

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if self.backend == EXACT and other.backend == EXACT:
            return len(self) == len(other) and self.canonical() == other.canonical()
        return NotImplemented

    def __hash__(self):
        if self.backend != EXACT:
            raise BackendError("float points are not hashable")
        return hash(self.canonical())


def projectively_equal(a: ProjectivePoint, b: ProjectivePoint, tol: float | None = None) -> bool:
    """Scale-invariant equality.  Exact backend compares canonical forms;
    float backend compares unit-scaled vectors up to sign within ``tol``."""
    if len(a) != len(b):
        return False
    if a.backend == EXACT and b.backend == EXACT:
        return a.canonical() == b.canonical()
    if tol is None:
        tol = DEFAULT_RANK_TOL
    av = [float(x) for x in a.coords]
    bv = [float(x) for x in b.coords]
    na = sum(x * x for x in av) ** 0.5
    nb = sum(x * x for x in bv) ** 0.5
    av = [x / na for x in av]
    bv = [x / nb for x in bv]
    lead = max(range(len(av)), key=lambda i: abs(av[i]))
    if av[lead] * bv[lead] < 0:
        bv = [-x for x in bv]
    return max(abs(x - y) for x, y in zip(av, bv)) <= tol


ImageTuple = tuple  # tuple of n image-plane ProjectivePoint


class Camera:
    """A 3x4 projection matrix with its cached focal point (the kernel): the
    signed 3x3 minors c_i = (-1)^i det(A without column i) (Hartley and
    Zisserman, ch. 6).  Exact: rank 3 exactly when some minor is nonzero,
    and c cleared to coprime integers, last nonzero entry positive.
    Floats: rank 3 when :func:`rank` at ``tol`` is 3 and some minor is
    nonzero, and c taken of the orthonormalized rows (a positive multiple,
    accurate at any scale) over its entry of largest magnitude.

    Rank-deficient matrices are representable (focal_point is then None) so
    that rigs can record the violation instead of refusing construction.
    """

    __slots__ = ("matrix", "rank", "focal_point")

    def __init__(self, matrix: Mat, tol: float | None = None):
        if (matrix.rows, matrix.cols) != (3, 4):
            raise ShapeError("camera matrices are 3x4")
        exact = matrix.backend == EXACT
        rows = matrix.data if exact else _orthonormalized(matrix.data)
        c = [(-1) ** i * _det3(*(row[:i] + row[i + 1:] for row in rows)) for i in range(4)]
        if any(c):
            r = 3 if exact else rank(matrix, tol).rank
        else:
            r = min(rank(matrix, tol).rank, 2)
        focal = None
        if r == 3 and exact:
            c = integer_cleared(c)
            focal = ProjectivePoint(c if next(x for x in reversed(c) if x) > 0 else [-x for x in c])
        elif r == 3:
            top = max(c, key=abs)
            focal = ProjectivePoint([x / top for x in c])
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "focal_point", focal)

    def __setattr__(self, name, value):
        raise AttributeError("Camera is immutable")

    @property
    def backend(self) -> str:
        return self.matrix.backend

    def project(self, x: ProjectivePoint) -> ProjectivePoint:
        if len(x) != 4:
            raise ShapeError("projection expects a world point")
        image = self.matrix.apply(x.coords)
        if self.backend == FLOAT:
            scale = max(abs(e) for r in self.matrix.data for e in r) * max(abs(c) for c in x.coords)
            if max(abs(c) for c in image) <= DEFAULT_RANK_TOL * scale:
                raise ProjectionError("point coincides with the focal point")
        elif all(c == 0 for c in image):
            raise ProjectionError("point coincides with the focal point")
        return ProjectivePoint(image)

    def __repr__(self):
        return f"Camera(rank={self.rank}, backend={self.backend})"


class GeneralPositionReport:
    """Validation record for a rig's focal-point configuration."""

    __slots__ = ("ok", "violations")

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        self.ok = not self.violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"GeneralPositionReport(ok={self.ok}, violations={list(self.violations)})"


class MembershipResult:
    """Outcome of the consistency test for an image tuple: ``ok`` is True
    when the stacked multiview matrix has rank at most n + 3, and ``rank``
    is that rank.  ``cofactors`` is the :class:`CofactorPass` that decided
    it: its witness is the triangulation witness, read as it is, and its
    vectors serve the octic verdict."""

    __slots__ = ("ok", "rank", "cofactors")

    def __init__(self, ok, rank, cofactors):
        self.ok = ok
        self.rank = rank
        self.cofactors = cofactors

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"MembershipResult(ok={self.ok}, rank={self.rank})"


# On floats a vector of the unit-scaled problem (the cofactor vectors of
# CofactorPass, and A_l x over |A_l| |x|) counts as zero at or below this norm.
WITNESS_FLOOR = 1e-9
# The largest sine between A_l x and u_l at which a float tuple is
# consistent, for a rig built without ``tol``.
DEFAULT_SINE_TOL = 1e-11


class CofactorPass:
    """An image tuple's cofactor vectors, computed at most once per camera
    pair, and its witness ``(pair, row)``, or None when no pair has one.
    Exact: the first camera pair in lexicographic order and the first row
    of it whose vector has a nonzero point (first four coordinates).
    Floats: the vectors are those of the unit-scaled problem (cameras of
    unit Frobenius norm, image points of unit norm), and the witness is the
    row of largest norm of the first pair where that norm exceeds
    :data:`WITNESS_FLOOR`.  On a consistent tuple the witness pair's B has
    rank 5, so each of its vectors is a multiple of the witness vector, the
    world point.  The scan computes the pairs up to the witness;
    :meth:`vectors` computes any other pair on first use and keeps it.  The
    backend is checked once, for the whole tuple: points off the rig's
    backend raise :class:`BackendError`."""

    __slots__ = ("rig", "points", "witness", "_vectors")

    def __init__(self, rig: CameraRig, points: Sequence[ProjectivePoint]):
        _check_backend(rig, points)
        self.rig, self.points = rig, points
        self._vectors = {}
        self.witness = None
        exact = rig.backend == EXACT
        for pair in itertools.combinations(range(rig.n), 2):
            w = self.vectors(*pair)[0]
            if exact:
                row = next((i for i, x in enumerate(w.tolist()) if any(x)), None)
            else:
                norms = np.linalg.norm(w, axis=1)
                row = int(norms.argmax()) if norms.max() > WITNESS_FLOOR else None
            if row is not None:
                self.witness = (pair, row)
                break

    def vectors(self, j: int, k: int):
        """``(w, factor)`` of cameras j and k at the tuple's points: exact,
        as :meth:`CameraRig.cofactor_vectors` returns it; on floats, the
        vectors of the unit-scaled problem and factor 1.  Those are the
        rig's vectors at the unit image points (:func:`_unit`) with rows
        0-2 divided by s_j s_k^2 and rows 3-5 by s_j^2 s_k, s the cameras'
        Frobenius norms: each minor of the table takes one row of one
        camera and two of the other."""
        if (j, k) not in self._vectors:
            u_j, u_k = self.points[j], self.points[k]
            if u_j.backend == EXACT:
                self._vectors[j, k] = self.rig._cofactor_vectors(j, k, u_j, u_k)
            else:
                w, _ = self.rig._cofactor_vectors(j, k, _unit(u_j.coords), _unit(u_k.coords))
                s_j, s_k = self.rig._frobenius[j], self.rig._frobenius[k]
                rows = np.repeat([s_j * s_k * s_k, s_j * s_j * s_k], 3)
                self._vectors[j, k] = (w / rows[:, None], 1)
        return self._vectors[j, k]


class CameraRig:
    """An ordered configuration of n >= 2 cameras with eager caches.

    Caches: focal points, all ordered epipoles e[(k, j)] = A_k applied to the
    focal point of camera j, the camera minor table of every pair j < k (see
    :meth:`minor_table`), fundamental matrices for unordered pairs, the
    general-position record and, on floats, each camera's Frobenius norm
    (the scales of :class:`CofactorPass`).  Immutable after construction,
    safe to share.
    """

    __slots__ = ("cameras", "tol", "general_position", "_epipoles", "_fundamentals",
                 "_minor_tables", "_table_max", "_frobenius")

    def __init__(self, matrices: Sequence[Mat | Camera], tol: float | None = None):
        cams = tuple(m if isinstance(m, Camera) else Camera(m, tol) for m in matrices)
        if len(cams) < 2:
            raise ValueError("a rig needs at least two cameras")
        backends = {c.backend for c in cams}
        if len(backends) != 1:
            raise BackendError("all cameras in a rig must share one backend")
        object.__setattr__(self, "cameras", cams)
        object.__setattr__(self, "tol", tol)
        epipoles = {}
        for k, j in itertools.permutations(range(len(cams)), 2):
            fj = cams[j].focal_point
            e = None
            if fj is not None:
                coords = cams[k].matrix.apply(fj.coords)
                if any(c != 0 for c in coords):
                    e = ProjectivePoint(coords)
            epipoles[(k, j)] = e
        object.__setattr__(self, "_epipoles", epipoles)
        tables, fundamentals = {}, {}
        for j, k in itertools.combinations(range(len(cams)), 2):
            tables[(j, k)] = camera_minor_table(self, j, k)
            fundamentals[(j, k)] = _fundamental(cams[j].matrix, *tables[(j, k)])
        object.__setattr__(self, "_minor_tables", tables)
        object.__setattr__(self, "_table_max", {pair: max(_max_abs(t), 1) for pair, (t, _)
                                                in tables.items() if t.dtype == np.int64})
        object.__setattr__(self, "_fundamentals", fundamentals)
        if self.backend == FLOAT:
            norms = np.linalg.norm([cam.matrix.data for cam in cams], axis=(1, 2))
            # a zero camera keeps scale 1: its minors are zero at any scale
            object.__setattr__(self, "_frobenius", np.where(norms > 0, norms, 1.0))
        else:
            object.__setattr__(self, "_frobenius", None)
        object.__setattr__(self, "general_position", _validate_focal_points(cams, tol))

    def __setattr__(self, name, value):
        raise AttributeError("CameraRig is immutable")

    @property
    def n(self) -> int:
        return len(self.cameras)

    @property
    def backend(self) -> str:
        return self.cameras[0].backend

    def camera(self, j: int) -> Camera:
        return self.cameras[j]

    def focal_point(self, j: int) -> Optional[ProjectivePoint]:
        return self.cameras[j].focal_point

    def epipole(self, k: int, j: int) -> Optional[ProjectivePoint]:
        """The image of focal point j in the image plane of camera k."""
        if k == j:
            raise ValueError("epipoles are defined for distinct camera indices")
        return self._epipoles[(k, j)]

    def fundamental(self, j: int, k: int) -> Mat:
        """The 3x3 matrix F with u_j^T F u_k equal to the 6x6 two-camera determinant."""
        if j == k:
            raise ValueError("fundamental matrices need distinct cameras")
        if j < k:
            return self._fundamentals[(j, k)]
        return self._fundamentals[(k, j)].transpose()

    def minor_table(self, j: int, k: int) -> tuple:
        """``(table, den)``: the :func:`camera_minor_table` of cameras j and
        k, built once with the rig.  For j > k it is read from the stored
        table of (k, j): swapping the two cameras swaps B's row blocks (an
        even permutation of the five rows left after any deletion) and its
        two image columns, so the row-i vector of (j, k) is minus the row
        (i + 3) mod 6 vector of (k, j), with the image points' roles swapped."""
        if j == k:
            raise ValueError("camera indices must differ")
        if j < k:
            return self._minor_tables[(j, k)]
        table, den = self._minor_tables[(k, j)]
        return -table[_SWAP_ROWS][:, :, _SWAP_BILINEAR], den

    def cofactor_vectors(self, j: int, k: int, u_j: ProjectivePoint, u_k: ProjectivePoint):
        """``(w, factor)``: the six cofactor 4-vectors of cameras j and k at
        u_j and u_k as a 6x4 array, times the positive integer ``factor``.
        Exact: w is the :meth:`minor_table` at the points cleared to
        integers, factor is den den_j den_k, and w is int64 when
        9 max(|table|, 1) max|den_j u_j| max|den_k u_k| < INT64_LIMIT (so no sum
        overflows), else Python ints.  Floats: float64 and factor 1.  The
        table, read as 24 3x3 blocks, is multiplied in two stages: by u_k
        (in int64 when 3 max(|table|, 1) max|den_k u_k| < INT64_LIMIT), then
        by u_j (in int64 under the bound on w), so past int64 the second
        stage takes 72 Python-int products, not the 216 of the table against
        u_j (x) u_k; a Python-int table takes both on Python ints.  Raises
        :class:`BackendError` unless both points are on the rig's backend."""
        _check_backend(self, (u_j, u_k))
        return self._cofactor_vectors(j, k, u_j, u_k)

    def _cofactor_vectors(self, j: int, k: int, u_j: ProjectivePoint, u_k: ProjectivePoint):
        """:meth:`cofactor_vectors` for points whose backend the caller has
        checked (:class:`CofactorPass` checks its whole tuple once)."""
        table, den = self.minor_table(j, k)
        # [i, c, a, b]: the sum over b with u_k, then over a with u_j
        table = table.reshape(24, 3, 3)
        if self.backend == FLOAT:
            w = table @ np.fromiter(u_k, np.float64, 3) @ np.fromiter(u_j, np.float64, 3)
            return w.reshape(6, 4), 1
        (u_j, den_j), (u_k, den_k) = _cleared(u_j.coords), _cleared(u_k.coords)
        # a Python-int table has no int64 bound: both stages on Python ints
        top = self._table_max.get((min(j, k), max(j, k)), INT64_LIMIT)
        size_j, size_k = max(map(abs, u_j)), max(map(abs, u_k))
        first = np.int64 if 3 * top * size_k < INT64_LIMIT else object
        second = np.int64 if 9 * top * size_j * size_k < INT64_LIMIT else object
        w = table @ np.array(u_k, dtype=first)
        w = w.astype(second, copy=False) @ np.array(u_j, dtype=second)
        return w.reshape(6, 4), den * den_j * den_k

    def __repr__(self):
        return f"CameraRig(n={self.n}, backend={self.backend}, general_position={self.general_position.ok})"


def _check_backend(rig: CameraRig, points: Sequence[ProjectivePoint]) -> None:
    """The one scalar-backend rule: image points share the rig's backend."""
    backend = rig.backend
    for p in points:
        if p.backend != backend:
            raise BackendError("image points and rig must share one scalar backend")


def _check_tuple(rig: CameraRig, points: Sequence[ProjectivePoint]) -> None:
    """An image tuple fits the rig: one image point of 3 coordinates per
    camera (else :class:`ShapeError`), on the rig's backend."""
    if len(points) != rig.n:
        raise ShapeError(f"expected {rig.n} image points, got {len(points)}")
    for p in points:
        if len(p.coords) != 3:
            raise ShapeError("image points have 3 coordinates")
    _check_backend(rig, points)


def _det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def _orthonormalized(rows):
    """Gram-Schmidt on float rows: L^-1 rows for a lower triangular L of
    positive diagonal; a row in the span of the earlier ones stays zero."""
    out = []
    for row in rows:
        for q in out:
            d = sum(a * b for a, b in zip(row, q))
            row = [a - d * b for a, b in zip(row, q)]
        n = hypot(*row) or 1.0
        out.append([a / n for a in row])
    return out


def _minor_layout():
    """Where :func:`camera_minor_table` reads each entry [i, c, 3a + b]: the
    row triple left after deleting rows i, a and 3 + b of the 6x4 stack (an
    index into _MINOR_ROWS, or len(_MINOR_ROWS) for the zero entries where
    row i is row a or row 3 + b), and the Laplace sign of rows a, 3 + b
    (shifted up past the deleted row i) against the image columns of B, at
    positions 3 and 4."""
    triples = list(itertools.combinations(range(6), 3))
    index = np.full((6, 9), len(triples))
    sign = np.zeros((6, 9), dtype=int)
    for i, a, b in itertools.product(range(6), range(3), range(3)):
        if i not in (a, 3 + b):
            rest = tuple(r for r in range(6) if r not in (i, a, 3 + b))
            index[i, 3 * a + b] = triples.index(rest)
            sign[i, 3 * a + b] = (-1) ** (a - (a > i) + 3 + b - (3 + b > i) + 3 + 4)
    return triples, index, sign


_MINOR_ROWS, _MINOR_INDEX, _MINOR_SIGN = _minor_layout()
# The minor table of (k, j) from that of (j, k): rows i -> (i + 3) mod 6,
# and the bilinear index 3a + b -> 3b + a (see CameraRig.minor_table).
_SWAP_ROWS = [3, 4, 5, 0, 1, 2]
_SWAP_BILINEAR = [3 * b + a for a in range(3) for b in range(3)]


def camera_minor_table(rig: CameraRig, j: int, k: int) -> tuple:
    """Signed 3x3 minors of the stacked pair [A_j; A_k], arranged so that the
    cofactor vectors of the pair's 6x6 matrix B = [A_j u_j 0; A_k 0 u_k]
    are bilinear in its two image points: the signed maximal minors of B
    without row i are, in their first four coordinates,

        w_i[c] = sum over a, b of table[i, c, 3a + b] * u_j[a] * u_k[b] / den

    where den * table[i, c, 3a + b] is, up to sign, the 3x3 minor of the 6x4
    stack without rows i, a and 3 + b and without column c (zero when row i
    is row a or row 3 + b).  The sign is (-1)^c from
    :func:`rigidview.linalg.signed_maximal_minors` times the Laplace sign of
    expanding B along its two image columns.

    Returns ``(table, den)``.  On the exact backend the minors are taken of
    the stack times the lcm L of its denominators, so they are integers
    times L^3; den is the least positive integer that clears the true
    minors, and the table holds them times den, in the width that
    :func:`rigidview.linalg._int_array` decides.  On the float
    backend the table is float64 and den is 1.  The rig keeps every pair's
    table (:meth:`CameraRig.minor_table`); nothing else builds one.
    """
    if j == k:
        raise ValueError("camera indices must differ")
    stack = rig.camera(j).matrix.data + rig.camera(k).matrix.data
    exact = rig.backend == EXACT
    scale = lcm(*(x.denominator for row in stack for x in row)) if exact else 1
    if exact:
        # ints at scale 1 too, where Fraction entries would otherwise stay Fractions
        stack = tuple(tuple(int(x * scale) for x in row) for row in stack)
    dropped = [[row[:c] + row[c + 1:] for row in stack] for c in range(4)]
    minors = [[(-1) ** c * _det3(rows[p], rows[q], rows[r]) for c, rows in enumerate(dropped)]
              for p, q, r in _MINOR_ROWS]
    minors = np.array(minors + [[0] * 4], dtype=object)
    table = (minors[_MINOR_INDEX] * _MINOR_SIGN[..., None]).transpose(0, 2, 1)
    if not exact:
        return np.ascontiguousarray(table, dtype=np.float64), 1
    den = scale ** 3
    g = gcd(den, *table.ravel().tolist())
    if g > 1:
        table, den = table // g, den // g
    return _int_array(np.ascontiguousarray(table)), den


def _reduced(x, den=1):
    """Exact x / den as an int where integral, else a Fraction; float x (den 1) as it is."""
    x = x if den == 1 else Fraction(x, den)
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def _fundamental(aj: Mat, table: np.ndarray, den: int) -> Mat:
    """F of a camera pair from its :func:`camera_minor_table`.  F[a][b] is
    det B at u_j = e_a, u_k = e_b; expanding along row i = (a + 1) mod 3 of
    B, whose image entry is zero there, gives (-1)^i times the sum over c of
    A_j[i][c] table[i, c, 3a + b] / den."""
    table = table.tolist()

    def entry(a, b, i):
        total = (-1) ** i * sum(x * t[3 * a + b] for x, t in zip(aj.data[i], table[i]))
        return _reduced(total, den)
    return Mat([[entry(a, b, i) for b in range(3)] for a, i in ((0, 1), (1, 2), (2, 0))])


def _validate_focal_points(cams, tol) -> GeneralPositionReport:
    violations = []
    for i, c in enumerate(cams):
        if c.rank < 3:
            violations.append(f"camera {i} is rank deficient (rank {c.rank})")
    focals = [c.focal_point for c in cams]
    if any(f is None for f in focals):
        return GeneralPositionReport(violations)
    for i, j in itertools.combinations(range(len(cams)), 2):
        if projectively_equal(focals[i], focals[j], tol):
            violations.append(f"focal points {i} and {j} coincide")
    for size, shape in ((3, "collinear"), (4, "coplanar")):
        for group in itertools.combinations(range(len(cams)), size):
            if rank(Mat([focals[i].coords for i in group]), tol).rank < size:
                violations.append(f"focal points {group} are {shape}")
    return GeneralPositionReport(violations)


def forward_map(rig: CameraRig, x: ProjectivePoint) -> ImageTuple:
    """Project a world point through every camera of the rig."""
    return tuple(cam.project(x) for cam in rig.cameras)


def _multiview_rows(rig: CameraRig, cams: Sequence[int],
                    points: Sequence[ProjectivePoint]) -> list:
    """The rows of the stacked multiview matrix [A_j | u_j e_j] of the
    cameras ``cams`` and their image points: block row i holds the rows of
    camera cams[i], then points[i] in column 4 + i and zeros in the other
    image columns.  Points off the rig's backend raise :class:`BackendError`."""
    _check_backend(rig, points)
    zero = 0.0 if rig.backend == FLOAT else 0
    rows = []
    for i, (j, pt) in enumerate(zip(cams, points)):
        for r in range(3):
            extra = [zero] * len(cams)
            extra[i] = pt[r]
            rows.append(list(rig.camera(j).matrix.data[r]) + extra)
    return rows


def _multiview_matrix(rig: CameraRig, cams: Sequence[int],
                      points: Sequence[ProjectivePoint]) -> Mat:
    """:func:`_multiview_rows` as a :class:`Mat`."""
    return Mat(_multiview_rows(rig, cams, points))


def multiview_membership(rig: CameraRig, points: Sequence[ProjectivePoint]) -> MembershipResult:
    """Test whether an image tuple is a consistent set of n views.

    The tuple is consistent exactly when some world point X != 0 has A_l X
    in span(u_l) for every camera l, that is, when the stacked 3n x (4+n)
    matrix of block rows [A_l | 0 .. u_l .. 0] has rank at most n + 3.
    One :class:`CofactorPass` decides, on both backends, by its witness
    vector x: the tuple is consistent exactly when A_l x is a multiple of
    u_l for every l.  If the tuple is consistent, the witness pair's B is
    singular with a nonzero cofactor vector, so of rank 5 and with that
    vector spanning its kernel, and x is the one world point.  The rank is
    then n + 3 (a second point would give B a second kernel vector), else
    n + 4.  Exact: (A_l x) x u_l = 0 for every l.  Floats: the largest sine
    between A_l x and u_l (:func:`_largest_sine`) is at most ``rig.tol``,
    or :data:`DEFAULT_SINE_TOL` when the rig has none.  Only without a
    witness (for n = 2, the epipole pair) is the rank taken of the stacked
    matrix: one fraction-free elimination of the cleared integer rows, or
    on floats :func:`rigidview.linalg.rank` at ``rig.tol`` of the
    unit-scaled stack, whose blocks [A_l / s_l | u_l / |u_l|] have the
    same rank.  Points off the rig's backend raise :class:`BackendError`.
    """
    n = rig.n
    _check_tuple(rig, points)
    scan = CofactorPass(rig, points)
    if scan.witness is None:
        if rig.backend == EXACT:
            r = _exact_rank(_multiview_rows(rig, range(n), points))
        else:
            # the unit-scaled stack: block l divided by s_l, unit image points
            units = [ProjectivePoint(_unit(p.coords).tolist()) for p in points]
            rows = [[c / rig._frobenius[i // 3] for c in row]
                    for i, row in enumerate(_multiview_rows(rig, range(n), units))]
            r = rank(Mat(rows), rig.tol).rank
        return MembershipResult(r <= n + 3, r, scan)
    pair, row = scan.witness
    x = scan.vectors(*pair)[0][row]
    if rig.backend == EXACT:
        ok = _reprojects(rig, points, x.tolist())
    else:
        ok = _largest_sine(rig, points, x) <= (DEFAULT_SINE_TOL if rig.tol is None else rig.tol)
    return MembershipResult(ok, n + 3 if ok else n + 4, scan)


def _reprojects(rig: CameraRig, points: Sequence[ProjectivePoint], x) -> bool:
    """Whether A_l x is a multiple of u_l (zero included) for every camera
    l: every 2x2 minor of [A_l x, u_l] vanishes, exactly."""
    x0, x1, x2, x3 = x
    for cam, point in zip(rig.cameras, points):
        a, b, c = (r[0] * x0 + r[1] * x1 + r[2] * x2 + r[3] * x3 for r in cam.matrix.data)
        u0, u1, u2 = point.coords
        if a * u1 != b * u0 or b * u2 != c * u1 or a * u2 != c * u0:
            return False
    return True


def _largest_sine(rig: CameraRig, points: Sequence[ProjectivePoint], x) -> float:
    """The float consistency residual of world point x: the largest sine of
    the angle between A_l x and u_l over the cameras l, invariant to the
    scale of x, of each camera and of each image point.  A camera whose
    A_l x counts as zero (|A_l x| at most :data:`WITNESS_FLOOR` |A_l| |x|,
    the Frobenius norm) is consistent, as in :func:`_reprojects`."""
    images = np.array([cam.matrix.data for cam in rig.cameras]) @ x
    u = np.array([_unit(p.coords) for p in points])
    lengths = np.linalg.norm(images, axis=1)
    seen = lengths > WITNESS_FLOOR * rig._frobenius * np.linalg.norm(x)
    sines = np.linalg.norm(np.cross(images[seen], u[seen]), axis=1) / lengths[seen]
    return float(sines.max(initial=0.0))


def _unit(coords) -> np.ndarray:
    """A float vector over its norm, taken after dividing by its largest
    entry so that no square under- or overflows."""
    v = np.divide(coords, max(map(abs, coords)))
    return v / np.linalg.norm(v)


class RigidMotion:
    """A 4x4 world motion [R t; 0 1] with R orthogonal of determinant one.

    Exact backend only, which admits rational rotations (see
    :func:`cayley_rotation`); a float matrix raises :class:`BackendError`.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: Mat):
        if (matrix.rows, matrix.cols) != (4, 4):
            raise ShapeError("rigid motions are 4x4")
        if matrix.backend != EXACT:
            raise BackendError("rigid motions are defined on the exact backend")
        r = matrix.submatrix(range(3), range(3))
        if tuple(matrix.row(3)) != (0, 0, 0, 1):
            raise ValueError("bottom row must be (0, 0, 0, 1)")
        if r.transpose() @ r != Mat.identity(3) or det(r) != 1:
            raise ValueError("rotation block must be orthogonal with determinant 1")
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("RigidMotion is immutable")

    @classmethod
    def from_parts(cls, rotation: Mat, translation: Sequence[Scalar]) -> "RigidMotion":
        rows = [list(rotation.data[i]) + [translation[i]] for i in range(3)]
        rows.append([0, 0, 0, 1])
        return cls(Mat(rows))

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls(Mat.identity(4))


def cayley_rotation(a: Scalar, b: Scalar, c: Scalar) -> Mat:
    """Exact rational rotation (I - S)(I + S)^-1 for the skew matrix built
    from (a, b, c); always orthogonal with determinant one."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    s = Mat([[0, -c, b], [c, 0, -a], [-b, a, 0]])
    i3 = Mat.identity(3)
    i_minus = Mat([[i3[r, q] - s[r, q] for q in range(3)] for r in range(3)])
    i_plus = Mat([[i3[r, q] + s[r, q] for q in range(3)] for r in range(3)])
    return i_minus @ invert(i_plus)


def apply_right_action(rig: CameraRig, motion: RigidMotion | Mat) -> CameraRig:
    """New rig with every camera multiplied on the right by a world transform."""
    n_mat = motion.matrix if isinstance(motion, RigidMotion) else motion
    if (n_mat.rows, n_mat.cols) != (4, 4):
        raise ShapeError("right action expects a 4x4 transform")
    if rig.backend == EXACT:
        if det(n_mat) == 0:
            raise ValueError("transform is singular")
    elif rank(n_mat, rig.tol).rank < 4:
        raise ValueError("transform is singular within tolerance")
    return CameraRig([cam.matrix @ n_mat for cam in rig.cameras], rig.tol)


def apply_left_action(rig: CameraRig, mats: Sequence[Mat]) -> CameraRig:
    """New rig with camera j multiplied on the left by the invertible 3x3 mats[j]."""
    if len(mats) != rig.n:
        raise ShapeError("need one 3x3 matrix per camera")
    for m in mats:
        if (m.rows, m.cols) != (3, 3):
            raise ShapeError("left action expects 3x3 transforms")
        if rig.backend == EXACT:
            if det(m) == 0:
                raise ValueError("transform is singular")
        elif rank(m, rig.tol).rank < 3:
            raise ValueError("transform is singular within tolerance")
    return CameraRig([m @ cam.matrix for m, cam in zip(mats, rig.cameras)], rig.tol)


def rig_to_json(rig: CameraRig) -> dict:
    """JSON document for a rig: row-major camera entries, rationals as 'p/q'."""
    return {"cameras": [[encode_scalar(x) for row in cam.matrix.data for x in row]
                        for cam in rig.cameras]}


def rig_from_json(doc: dict, backend: str | None = None, tol: float | None = None) -> CameraRig:
    cams = doc["cameras"] if isinstance(doc, dict) else None
    if not isinstance(cams, list) or not all(isinstance(flat, list) for flat in cams):
        raise ShapeError('a rig is a JSON object whose "cameras" are arrays of 12 entries')
    if backend is None:
        has_str = any(isinstance(x, str) for flat in cams for x in flat)
        backend = EXACT if has_str else (
            EXACT if all(isinstance(x, int) for flat in cams for x in flat) else FLOAT)
    mats = []
    for flat in cams:
        if len(flat) != 12:
            raise ShapeError("each camera needs 12 row-major entries")
        vals = [decode_scalar(x, backend) for x in flat]
        mats.append(Mat([vals[0:4], vals[4:8], vals[8:12]]))
    return CameraRig(mats, tol)
