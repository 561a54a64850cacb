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
On both backends the witness is that of the consistency test's
:class:`rigidview.cameras.CofactorPass`, taken as it is (see
:func:`_witness`, which reads it from a membership result, so the oracle
can hand it the membership its pair already has).
"""

from __future__ import annotations

from typing import Sequence

from .cameras import (CameraRig, MembershipResult, ProjectivePoint, _multiview_matrix, _reduced,
                      multiview_membership)
from .linalg import EXACT, Mat


class NotInVarietyError(ValueError):
    """The image tuple is not a consistent set of views."""


class NotTriangulableError(ValueError):
    """No camera pair determines the world point (epipole pair, two cameras)."""


class BMatrix:
    """The 6x6 triangulation matrix of a camera pair."""

    __slots__ = ("mat",)

    def __init__(self, mat: Mat):
        self.mat = mat


class TriangulationSolution:
    """Recovered world point with the scales of the witness pair and row of
    :class:`rigidview.cameras.CofactorPass`: the first camera pair, in
    lexicographic order, whose B has rank 5, and of that B the first row
    whose cofactor vector gives a world point (exact) or the row of largest
    norm (floats).

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


def _scale(camera, x, u, exact: bool):
    """lambda with A x = lambda u, read at the largest coordinate of u: an
    exact ratio, or a float."""
    c = max(range(3), key=lambda i: abs(u[i]))
    num = sum(a * xi for a, xi in zip(camera.matrix.data[c], x))
    return _reduced(num, u[c]) if exact else num / u[c]


def is_triangulable(rig: CameraRig, points: Sequence[ProjectivePoint]) -> bool:
    """Whether some camera pair's triangulation matrix has rank 5 with a row
    giving a nonzero recovered point: whether the consistency test's
    :class:`rigidview.cameras.CofactorPass` found a witness.  False when
    every pair degenerates (for two cameras this happens exactly at the
    epipole pair).  Raises :class:`NotInVarietyError` when the tuple is not
    consistent.
    """
    membership = multiview_membership(rig, points)
    if not membership.ok:
        raise NotInVarietyError("tuple fails the consistency rank test")
    return membership.cofactors.witness is not None


def _witness(membership: MembershipResult):
    """The witness step of :func:`triangulate` and of
    :func:`rigidview.constraints.rigid_pair_oracle`: ``(pair, row, x,
    factor)``, the witness pair and row with that row's cofactor vector x
    times the positive integer ``factor`` (integers on the exact backend; on
    floats, the unit-scaled pass's floats and factor 1).

    ``membership`` is the tuple's :func:`multiview_membership`, which
    decides consistency; its :class:`rigidview.cameras.CofactorPass` holds
    the witness, read as it is: x reprojects into every camera, so the
    witness pair's B is singular, and x is nonzero, so B has rank 5 and
    every cofactor vector of the pair is a multiple of x.  Raises, in this
    order, :class:`NotInVarietyError` and :class:`NotTriangulableError`.
    """
    if not membership.ok:
        raise NotInVarietyError("tuple fails the consistency rank test")
    scan = membership.cofactors
    if scan.witness is None:
        raise NotTriangulableError("no camera pair has a rank-5 triangulation matrix")
    pair, row = scan.witness
    w, factor = scan.vectors(*pair)
    return pair, row, w[row].tolist(), factor


def triangulate(rig: CameraRig, points: Sequence[ProjectivePoint]) -> TriangulationSolution:
    """Recover the world point behind a consistent image tuple.

    Runs the witness step :func:`_witness` on the tuple's own
    :func:`multiview_membership` (consistency and the witness), then takes
    the point from the witness vector over its factor (the one division)
    and the scales from A_j X = lambda_j u_j and A_k X = lambda_k u_k.  The
    direct oracle :func:`rigidview.constraints.rigid_pair_oracle` shares the
    witness step, on the memberships it shares with the equations verdict,
    and stops there: it evaluates q on the cleared witness vectors, which
    is exact because q is bihomogeneous of bidegree (2, 2).
    Points off the rig's backend raise BackendError.
    """
    pair, row, x, factor = _witness(multiview_membership(rig, points))
    x = tuple(_reduced(c, factor) for c in x)
    lambdas = tuple(_scale(rig.camera(cam), x, points[cam], rig.backend == EXACT) for cam in pair)
    return TriangulationSolution(ProjectivePoint(x), lambdas, pair, row)
