"""Two-camera triangulation through row-deleted cofactor vectors.

For a camera pair (j, k) and image points u_j, u_k the 6x6 matrix

    B = [ A_j  u_j  0  ]
        [ A_k  0   u_k ]

has the kernel vector (X, -lambda_j, -lambda_k) when the two back-projected
lines meet in the world point X.  For rank-5 B the kernel is recovered by
Cramer's rule: deleting any row i and taking signed maximal minors yields a
vector whose first four coordinates represent X.  The recovery is available
exactly over rationals and with tolerances over floats.  The cofactor
vectors come from :meth:`rigidview.cameras.CameraRig.cofactor_vectors`.
The exact witness is that of the consistency test's
:class:`rigidview.cameras.CofactorPass`, taken as it is (see
:func:`_witness`); on floats a rank-5 scan finds it and a tolerance
cross-checks the pair's later rows.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .cameras import CameraRig, ProjectivePoint, _multiview_matrix, _reduced, multiview_membership
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
    """The zero test of the float witness scan and cross-check (see
    :func:`_witness`): whether one of the first four coordinates of
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
    giving a nonzero recovered point: on the exact backend, whether the
    consistency test's :class:`rigidview.cameras.CofactorPass` found a
    witness; on floats, whether :func:`_pair_scan` finds one.  False when
    every pair degenerates (for two cameras this happens exactly at the
    epipole pair).  Raises :class:`NotInVarietyError` when the tuple is not
    consistent.
    """
    membership = multiview_membership(rig, points)
    if not membership.ok:
        raise NotInVarietyError("tuple fails the consistency rank test")
    if rig.backend == EXACT:
        return membership.cofactors.witness is not None
    return _pair_scan(rig, points) is not None


def _pair_scan(rig: CameraRig, points: Sequence[ProjectivePoint]):
    """The float witness scan of a consistent tuple: ``(pair, row, vectors,
    cut)``, or None when no pair has one.

    The witness is the first row, camera pairs taken lexicographically,
    whose cofactor vector (from :meth:`CameraRig.cofactor_vectors`) gives a
    nonzero point (:func:`_cofactor_nonzero` at ``cut``, see
    :func:`_nonzero_cut`); a pair qualifies only when one :func:`rank` of
    its B at ``rig.tol`` is 5.  ``vectors`` are that pair's six cofactor
    vectors.  The exact witness is that of
    :class:`rigidview.cameras.CofactorPass` (see :func:`_witness`).
    """
    for j, k in combinations(range(rig.n), 2):
        u_j, u_k = points[j], points[k]
        b = assemble_b(rig, j, k, u_j, u_k).mat
        if rank(b, rig.tol).rank != 5:
            continue
        cut = _nonzero_cut(b, rig.tol)
        vectors = rig.cofactor_vectors(j, k, u_j, u_k)[0].tolist()
        for i, v in enumerate(vectors):
            if _cofactor_nonzero(v, cut):
                return (j, k), i, vectors, cut
    return None


def _witness(rig: CameraRig, points: Sequence[ProjectivePoint]):
    """The witness step of :func:`triangulate` and of
    :func:`rigidview.constraints.rigid_pair_oracle`: ``(pair, row, x,
    factor)``, the witness pair and row with that row's cofactor vector x
    times the positive integer ``factor`` (integers on the exact backend; on
    floats, floats and factor 1).

    One :func:`multiview_membership` decides consistency.  On the exact
    backend its :class:`rigidview.cameras.CofactorPass` holds the witness,
    read as it is: x reprojects into every camera, so the witness pair's B
    is singular, and x is nonzero, so B has rank 5 and every cofactor
    vector of the pair is a multiple of x.  On floats :func:`_pair_scan`
    finds the witness, and every later nonzero row of the pair must lie
    within :data:`CONSISTENCY_TOL` of angular distance of x.  Raises, in
    this order, :class:`NotInVarietyError`, :class:`NotTriangulableError`
    and (floats only) :class:`AmbiguousTriangulationError`; points off the
    rig's backend raise BackendError.
    """
    membership = multiview_membership(rig, points)
    if not membership.ok:
        raise NotInVarietyError("tuple fails the consistency rank test")
    if rig.backend == EXACT:
        scan = membership.cofactors
        if scan.witness is None:
            raise NotTriangulableError("no camera pair has a rank-5 triangulation matrix")
        pair, row = scan.witness
        w, factor = scan.vectors(*pair)
        return pair, row, w[row].tolist(), factor
    scan = _pair_scan(rig, points)
    if scan is None:
        raise NotTriangulableError("no camera pair has a rank-5 triangulation matrix")
    pair, row, vectors, cut = scan
    x = vectors[row]
    for i in range(row + 1, 6):
        v = vectors[i]
        if _cofactor_nonzero(v, cut) and _angular_distance(x, v) > CONSISTENCY_TOL:
            raise AmbiguousTriangulationError(f"rows {row} and {i} disagree beyond tolerance")
    return pair, row, x, 1


def triangulate(rig: CameraRig, points: Sequence[ProjectivePoint]) -> TriangulationSolution:
    """Recover the world point behind a consistent image tuple.

    Runs the witness step :func:`_witness` (consistency, the witness and,
    on floats, the cross-check of the later rows), then takes the point
    from the witness vector over its factor (the one division) and the
    scales from A_j X = lambda_j u_j and A_k X = lambda_k u_k.  The direct
    oracle :func:`rigidview.constraints.rigid_pair_oracle` shares the
    witness step and stops there: it evaluates q on the cleared witness
    vectors, which is exact because q is bihomogeneous of bidegree (2, 2).
    Points off the rig's backend raise BackendError.
    """
    pair, row, x, factor = _witness(rig, points)
    x = tuple(_reduced(c, factor) for c in x)
    lambdas = tuple(_scale(rig.camera(cam), x, points[cam], rig.backend == EXACT) for cam in pair)
    return TriangulationSolution(ProjectivePoint(x), lambdas, pair, row)


def _angular_distance(a, b) -> float:
    na = sum(float(x) * float(x) for x in a) ** 0.5
    nb = sum(float(x) * float(x) for x in b) ** 0.5
    av = [float(x) / na for x in a]
    bv = [float(x) / nb for x in b]
    d_plus = sum((x - y) ** 2 for x, y in zip(av, bv)) ** 0.5
    d_minus = sum((x + y) ** 2 for x, y in zip(av, bv)) ** 0.5
    return min(d_plus, d_minus)
