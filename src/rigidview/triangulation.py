"""Two-camera triangulation through row-deleted cofactor vectors.

For a camera pair (j, k) and image points u_j, u_k the 6x6 matrix

    B = [ A_j  u_j  0  ]
        [ A_k  0   u_k ]

has the kernel vector (X, -lambda_j, -lambda_k) when the two back-projected
lines meet in the world point X.  For rank-5 B the kernel is recovered by
Cramer's rule: deleting any row i and taking signed maximal minors yields a
vector whose first four coordinates represent X.  The recovery is available
exactly over rationals and with tolerances over floats.  The cofactor
vectors come from :meth:`rigidview.cameras.CameraRig.cofactor_vectors`;
on the exact backend, through the consistency test's
:class:`rigidview.cameras.CofactorPass`, so the witness scan is that pass.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .cameras import (CameraRig, CofactorPass, ProjectivePoint, _multiview_matrix, _reduced,
                      multiview_membership)
from .linalg import EXACT, FLOAT, Mat, rank


# Largest angular distance between two unit-scaled float candidates of the
# witness pair that :func:`triangulate` accepts as one world point.
CONSISTENCY_TOL = 1e-6


class NotInVarietyError(ValueError):
    """The image tuple is not a consistent set of views."""


class NotTriangulableError(ValueError):
    """No camera pair determines the world point (epipole pair, two cameras)."""


class AmbiguousTriangulationError(ValueError):
    """Float-backend candidates disagree beyond the consistency tolerance."""


class BMatrix:
    """The 6x6 triangulation matrix of a camera pair."""

    __slots__ = ("mat",)

    def __init__(self, mat: Mat):
        self.mat = mat


class TriangulationSolution:
    """Recovered world point with the scales of the witness pair: the first
    camera pair, in lexicographic order, whose B has rank 5, and the first
    row of that B whose cofactor vector gives a world point.

    The stored representatives satisfy A_j X = lambda_j u_j and
    A_k X = lambda_k u_k exactly on the exact backend.
    """

    __slots__ = ("point", "lambdas", "pair", "row")

    def __init__(self, point: ProjectivePoint, lambdas: tuple, pair: tuple, row: int):
        self.point = point
        self.lambdas = lambdas
        self.pair = pair
        self.row = row

    def __repr__(self):
        return f"TriangulationSolution(point={self.point!r}, pair={self.pair}, row={self.row})"


def assemble_b(rig: CameraRig, j: int, k: int,
               u_j: ProjectivePoint, u_k: ProjectivePoint) -> BMatrix:
    """Build the 6x6 block matrix [A_j u_j 0; A_k 0 u_k]."""
    if j == k:
        raise ValueError("camera indices must differ")
    return BMatrix(_multiview_matrix(rig, (j, k), (u_j, u_k)))


def _nonzero_cut(b: Mat, tol: float | None) -> float:
    """The cut of :func:`_cofactor_nonzero` for the pair matrix B: on floats
    with a rig tolerance, ``tol`` times the largest entry of B's first row;
    0.0 on the exact backend and when ``tol`` is None."""
    if b.backend == FLOAT and tol is not None:
        return tol * (max(abs(x) for x in b.data[0]) or 1.0)
    return 0.0


def _cofactor_nonzero(w, cut: float) -> bool:
    """The zero test of the witness scan and of the cross-check in
    :func:`triangulate`: whether one of the first four coordinates of
    cofactor vector ``w`` exceeds ``cut`` in magnitude (see
    :func:`_nonzero_cut`)."""
    return max(abs(x) for x in w[:4]) > cut


def _scale(camera, x, u, exact: bool):
    """lambda with A x = lambda u, read at the largest coordinate of u: an
    exact ratio, or a float."""
    c = max(range(3), key=lambda i: abs(u[i]))
    num = sum(a * xi for a, xi in zip(camera.matrix.data[c], x))
    return _reduced(num, u[c]) if exact else num / u[c]


def is_triangulable(rig: CameraRig, points: Sequence[ProjectivePoint]) -> bool:
    """Whether some camera pair's triangulation matrix has rank 5 with a row
    giving a nonzero recovered point (see :func:`_pair_scan`), read from
    the same pass as the consistency test on the exact backend.  False when
    every pair degenerates (for two cameras this happens exactly at the
    epipole pair).  Raises :class:`NotInVarietyError` when the tuple is not
    consistent.
    """
    membership = multiview_membership(rig, points)
    if not membership.ok:
        raise NotInVarietyError("tuple fails the consistency rank test")
    return _pair_scan(rig, points, membership.cofactors) is not None


def _pair_scan(rig: CameraRig, points: Sequence[ProjectivePoint], cofactors=None):
    """The witness scan of :func:`is_triangulable` on a consistent tuple:
    ``(pair, row, vectors, factor, cut)``, or None when no pair has one.

    The witness is the first row, camera pairs taken lexicographically,
    whose cofactor vector (from :meth:`CameraRig.cofactor_vectors`, times
    ``factor``, so integers on the exact backend) gives a nonzero point
    (:func:`_cofactor_nonzero`).  A pair qualifies only when its B has
    rank 5.  On the exact backend that is the witness of the
    :class:`CofactorPass` ``cofactors`` (of a new one when None), and no
    rank is taken: the tuple is consistent, so det B = 0, and B has rank 5
    exactly when some cofactor vector has a nonzero first four coordinates.
    (At rank 5 a nonzero cofactor vector spans the kernel, and a kernel
    vector (0, -l_j, -l_k) forces l_j u_j = l_k u_k = 0; below rank 5 every
    cofactor vector is zero.)  On floats each pair takes one :func:`rank`
    of B at ``rig.tol``.
    """
    if rig.backend == EXACT:
        scan = CofactorPass(rig, points) if cofactors is None else cofactors
        if scan.witness is None:
            return None
        pair, row = scan.witness
        w, factor = scan.vectors(*pair)
        return pair, row, w.tolist(), factor, 0.0
    for j, k in combinations(range(rig.n), 2):
        u_j, u_k = points[j], points[k]
        b = assemble_b(rig, j, k, u_j, u_k).mat
        if rank(b, rig.tol).rank != 5:
            continue
        cut = _nonzero_cut(b, rig.tol)
        w, factor = rig.cofactor_vectors(j, k, u_j, u_k)
        vectors = w.tolist()
        for i, v in enumerate(vectors):
            if _cofactor_nonzero(v, cut):
                return (j, k), i, vectors, factor, cut
    return None


def _witness(rig: CameraRig, points: Sequence[ProjectivePoint]):
    """The witness step of :func:`triangulate` and of
    :func:`rigidview.constraints.rigid_pair_oracle`: ``(pair, row, vectors,
    factor)``, the witness pair and row of :func:`_pair_scan` with that
    pair's six cofactor vectors times the positive integer ``factor``
    (integers on the exact backend; on floats, floats and factor 1).

    One :func:`multiview_membership` decides consistency; on the exact
    backend its :class:`CofactorPass` also holds the witness, so no pair's
    cofactor vectors are computed twice.  Every later nonzero row of the
    pair is cross-checked against the witness row: exactly up to scale, or
    on floats within :data:`CONSISTENCY_TOL` of angular distance.  Raises,
    in this order, :class:`NotInVarietyError`, :class:`NotTriangulableError`
    and :class:`AmbiguousTriangulationError`; points off the rig's backend
    raise BackendError.
    """
    membership = multiview_membership(rig, points)
    if not membership.ok:
        raise NotInVarietyError("tuple fails the consistency rank test")
    scan = _pair_scan(rig, points, membership.cofactors)
    if scan is None:
        raise NotTriangulableError("no camera pair has a rank-5 triangulation matrix")
    pair, row, vectors, factor, cut = scan
    w = vectors[row]
    exact = rig.backend == EXACT
    for i in range(row + 1, 6):
        candidate = vectors[i]
        if not _cofactor_nonzero(candidate, cut):
            continue
        if exact:
            if not _proportional_exact(w, candidate):
                raise AmbiguousTriangulationError(f"rows {row} and {i} give different points")
        elif _angular_distance(w, candidate) > CONSISTENCY_TOL:
            raise AmbiguousTriangulationError(f"rows {row} and {i} disagree beyond tolerance")
    return pair, row, vectors, factor


def triangulate(rig: CameraRig, points: Sequence[ProjectivePoint]) -> TriangulationSolution:
    """Recover the world point behind a consistent image tuple.

    Runs the witness step :func:`_witness` (consistency, witness scan and
    cross-check of the later rows), then takes the point from the witness
    row over its factor (the one division) and the scales from
    A_j X = lambda_j u_j and A_k X = lambda_k u_k.  The direct oracle
    :func:`rigidview.constraints.rigid_pair_oracle` shares the witness step
    and stops there: it evaluates q on the cleared witness vectors, which
    is exact because q is bihomogeneous of bidegree (2, 2).  Points off the
    rig's backend raise BackendError.
    """
    pair, row, vectors, factor = _witness(rig, points)
    x = tuple(_reduced(c, factor) for c in vectors[row])
    lambdas = tuple(_scale(rig.camera(cam), x, points[cam], rig.backend == EXACT) for cam in pair)
    return TriangulationSolution(ProjectivePoint(x), lambdas, pair, row)


def _proportional_exact(a, b) -> bool:
    """Whether every 2x2 minor of the exact vectors a and b vanishes."""
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def _angular_distance(a, b) -> float:
    na = sum(float(x) * float(x) for x in a) ** 0.5
    nb = sum(float(x) * float(x) for x in b) ** 0.5
    av = [float(x) / na for x in a]
    bv = [float(x) / nb for x in b]
    d_plus = sum((x - y) ** 2 for x, y in zip(av, bv)) ** 0.5
    d_minus = sum((x + y) ** 2 for x, y in zip(av, bv)) ** 0.5
    return min(d_plus, d_minus)
