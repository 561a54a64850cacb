import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_calls, fraction_rig, reference_minor_table, reference_nullspace
from rigidview import cameras, linalg
from rigidview.cameras import (
    Camera,
    CameraRig,
    ProjectionError,
    ProjectivePoint,
    RigidMotion,
    apply_left_action,
    apply_right_action,
    cayley_rotation,
    forward_map,
    invert,
    multiview_membership,
    projectively_equal,
    rig_from_json,
    rig_to_json,
)
from rigidview.constraints import (Family, constraint_system, rigid_pair_by_equations,
                                   rigid_pair_oracle)
from rigidview.harness import random_rig as harness_random_rig
from rigidview.linalg import Mat, det, rank
from rigidview.triangulation import triangulate


def standard_rig():
    a1 = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    a2 = Mat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    return CameraRig([a1, a2])


def random_camera_mat(rng, height=20):
    while True:
        m = Mat([[rng.randrange(height) for _ in range(4)] for _ in range(3)])
        if rank(m).rank == 3:
            return m


def random_rig(rng, n=3):
    while True:
        rig = CameraRig([random_camera_mat(rng) for _ in range(n)])
        if rig.general_position.ok:
            return rig


def naive_det(m):
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


class TestProjectivePoint:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((0, 0, 0))

    def test_equality_up_to_scale(self):
        assert ProjectivePoint((1, 2, 3)) == ProjectivePoint((2, 4, 6))
        assert ProjectivePoint((1, 2, 3)) == ProjectivePoint((-1, -2, -3))
        assert ProjectivePoint((1, 2, 3)) != ProjectivePoint((1, 2, 4))

    def test_fraction_scale(self):
        p = ProjectivePoint((Fraction(1, 2), Fraction(1, 3), 1))
        assert p == ProjectivePoint((3, 2, 6))

    def test_float_equality_with_tolerance(self):
        a = ProjectivePoint((1.0, 2.0, 3.0))
        b = ProjectivePoint((-2.0, -4.0, -6.0000000001))
        assert projectively_equal(a, b, tol=1e-6)
        assert not projectively_equal(a, ProjectivePoint((1.0, 2.0, 3.1)), tol=1e-6)

    @given(st.integers(-50, 50).filter(lambda c: c != 0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_preserves_identity(self, c):
        p = ProjectivePoint((3, -7, 11, 2))
        assert p.scaled(c) == p


class TestRigConstruction:
    def test_standard_rig_caches(self):
        rig = standard_rig()
        assert rig.focal_point(0) == ProjectivePoint((0, 0, 0, 1))
        assert rig.focal_point(1) == ProjectivePoint((-1, 0, 0, 1))
        assert rig.epipole(0, 1) == ProjectivePoint((-1, 0, 0))
        assert rig.epipole(1, 0) == ProjectivePoint((1, 0, 0))
        assert rig.general_position.ok

    def test_focal_point_at_infinity_stays_exact(self):
        cam = Camera(Mat([[3, 1, 2, 5], [0, 0, 2, 1], [0, 0, 0, 3]]))
        assert cam.focal_point.coords == (-1, 3, 0, 0)
        rig = CameraRig([cam.matrix, Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])])
        assert rig.epipole(1, 0).coords == (-1, 3, 0)

    def test_collinear_focal_points_flagged(self):
        # focal points (0,0,0,1), (1,0,0,1), (2,0,0,1) sit on one line
        mats = []
        for t in (0, 1, 2):
            mats.append(Mat([[1, 0, 0, -t], [0, 1, 0, 0], [0, 0, 1, 0]]))
        rig = CameraRig(mats)
        assert not rig.general_position.ok
        assert any("collinear" in v for v in rig.general_position.violations)

    def test_duplicate_focal_points_flagged(self):
        a = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        b = Mat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0]])
        rig = CameraRig([a, b])
        assert any("coincide" in v for v in rig.general_position.violations)

    def test_coplanar_quadruple_flagged(self):
        # four focal points in the plane w=z (z - w = 0)
        mats = []
        for x, y in ((0, 0), (1, 0), (0, 1), (2, 3)):
            # camera with kernel (x, y, 1, 1)
            mats.append(Mat([[1, 0, -x, 0], [0, 1, -y, 0], [0, 0, 1, -1]]))
        rig = CameraRig(mats)
        assert any("coplanar" in v for v in rig.general_position.violations)
        assert not any("collinear" in v for v in rig.general_position.violations)

    def test_rank_deficient_camera_recorded(self):
        bad = Mat([[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0]])
        rig = CameraRig([bad, Mat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])])
        assert any("rank deficient" in v for v in rig.general_position.violations)

    def test_random_integer_rigs_pass(self):
        rng = random.Random(2024)
        for n in (2, 3, 4):
            rig = random_rig(rng, n)
            assert rig.general_position.ok

    def test_general_position_implies_distinct_epipoles(self):
        # with three or more cameras, each image plane sees pairwise distinct
        # epipoles (collinear focal points would merge two of them)
        rng = random.Random(2025)
        for n in (3, 4):
            rig = random_rig(rng, n)
            for k in range(n):
                epis = [rig.epipole(k, j) for j in range(n) if j != k]
                for a, b in itertools.combinations(epis, 2):
                    assert a != b


# The seeds of the rigs the camera tests draw.
RIG_SEEDS = (2024, 2025, 3, 5, 29, 31, 11, 17, 23, 67, 613, 37, 39, 41, 42, 43, 44, 47, 71,
             73, 75, 53, 59, "fundamental:int", "fundamental:fraction", "tables:int",
             "tables:fraction", "cofactors:int", "cofactors:fraction", "pass:int:2",
             "pass:fraction:3", "float-pass:2", "float-pass:3", "float-pass:4")


def _same_float_point(got, want):
    """Float focal points normalized alike (largest entry 1) and equal to
    1e-12.  Where two entries tie for the largest magnitude either may be
    the 1, so there the points are compared up to sign."""
    assert max(got.coords, key=abs) == 1.0 and max(map(abs, got.coords)) == 1.0
    near = max(abs(a - b) for a, b in zip(got.coords, want))
    flipped = max(abs(a + b) for a, b in zip(got.coords, want))
    top = sorted(map(abs, want))
    return near <= 1e-12 or (flipped <= 1e-12 and top[-1] - top[-2] <= 1e-12)


class TestFocalPointsFromMinors:
    """Focal points are the signed 3x3 minors of the camera; they equal the
    back-substitution and SVD kernel: exactly (==) on the exact backend,
    to 1e-12 relative on floats."""

    @pytest.mark.parametrize("seed", RIG_SEEDS)
    def test_seeded_rigs_match_the_kernel(self, seed):
        rng = random.Random(seed)
        for n in (2, 3, 4):
            for rig in (random_rig(rng, n), fraction_rig(rng, n), harness_random_rig(rng, n)):
                frig = CameraRig([cam.matrix.to_float() for cam in rig.cameras])
                for j, cam in enumerate(rig.cameras):
                    (want,) = reference_nullspace(cam.matrix)
                    assert cam.rank == 3 and cam.focal_point.coords == want
                    (fwant,) = reference_nullspace(frig.camera(j).matrix)
                    assert frig.camera(j).rank == 3
                    assert _same_float_point(frig.focal_point(j), fwant)
                for k, j in itertools.permutations(range(n), 2):
                    assert rig.epipole(k, j).coords == rig.camera(k).matrix.apply(
                        reference_nullspace(rig.camera(j).matrix)[0])

    @pytest.mark.parametrize("rows,want", [
        # a zero column: the kernel is that column's unit vector
        ([[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 10]], (1, 0, 0, 0)),
        # dependent first three columns, so the minor without column 3 is 0
        ([[1, 2, 3, 5], [0, 1, 1, 7], [2, 1, 3, 4]], (-1, -1, 1, 0)),
        # Fraction entries
        ([[Fraction(1, 2), 0, 0, 1], [0, Fraction(2, 3), 0, 2],
          [0, 0, Fraction(-3, 4), Fraction(1, 5)]], (-2, -3, Fraction(4, 15), 1)),
    ])
    def test_planted_cameras_match_the_kernel(self, rows, want):
        m = Mat(rows)
        (ref,) = reference_nullspace(m)
        cam = Camera(m)
        assert cam.rank == 3 and cam.focal_point.coords == ref
        assert ProjectivePoint(ref) == ProjectivePoint(want)
        assert all(type(x) is int for x in cam.focal_point.coords)
        # at scales where the unscaled minors would under- or overflow too
        for factor in (1.0, 1e-120, 1e120):
            fm = m.to_float().scaled(factor)
            fcam = Camera(fm)
            assert fcam.rank == 3
            assert _same_float_point(fcam.focal_point, reference_nullspace(fm)[0])

    @pytest.mark.parametrize("delta", [1e-6, 1e-8])
    def test_nearly_rank_one_float_camera(self, delta):
        # rows within delta of one rank-1 matrix: at delta = 1e-8 the minors
        # of the rows themselves all round to zero, and those of the
        # orthonormalized rows still give the exact camera's point
        rows = [[1.0, 1.0, 1.0, 1.0], [1.0 + delta, 1.0, 1.0, 1.0],
                [1.0, 1.0 + delta, 1.0, 1.0]]
        cam = Camera(Mat(rows))
        exact = Camera(Mat([[Fraction(x) for x in r] for r in rows])).focal_point.coords
        top = max(exact, key=abs)
        assert cam.rank == 3
        assert _same_float_point(cam.focal_point, [float(x / top) for x in exact])

    def test_tolerance_below_rounding_gives_rank_two_or_a_point(self):
        # at tol 1e-300 the singular values rank float cameras of exactly
        # dependent rows 3 on rounding noise; where every minor of the
        # orthonormalized rows is zero the camera has rank 2, else a point
        rng = random.Random(3)
        by_minors = 0
        for _ in range(200):
            r0, r1 = ([rng.randint(-9, 9) for _ in range(4)] for _ in range(2))
            k = rng.randint(-5, 5)
            m = Mat([r0, r1, [k * a + b for a, b in zip(r0, r1)]]).to_float()
            cam = Camera(m, 1e-300)
            assert (cam.focal_point is None) == (cam.rank < 3)
            by_minors += cam.rank < rank(m, 1e-300).rank
        assert by_minors > 0

    def test_rank_two_camera_has_no_focal_point(self):
        m = Mat([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
        assert len(reference_nullspace(m)) == 2
        for cam in (Camera(m), Camera(m.to_float())):
            assert cam.rank == 2 and cam.focal_point is None


class TestProjection:
    def test_project_examples(self):
        rig = standard_rig()
        x = ProjectivePoint((0, 0, 1, 1))
        assert rig.camera(0).project(x) == ProjectivePoint((0, 0, 1))
        assert rig.camera(1).project(x) == ProjectivePoint((1, 0, 1))

    def test_forward_map(self):
        rig = standard_rig()
        u = forward_map(rig, ProjectivePoint((0, 0, 1, 1)))
        assert u[0] == ProjectivePoint((0, 0, 1))
        assert u[1] == ProjectivePoint((1, 0, 1))

    def test_focal_point_projection_fails(self):
        rig = standard_rig()
        with pytest.raises(ProjectionError):
            rig.camera(0).project(ProjectivePoint((0, 0, 0, 1)))

    def test_float_cutoff_is_scale_free(self):
        # with cameras of scale 1e-12 every image is below DEFAULT_RANK_TOL
        # itself, yet the point is far from both focal points
        base = harness_random_rig(random.Random(3), 2)
        big = CameraRig([cam.matrix.to_float() for cam in base.cameras])
        small = CameraRig([cam.matrix.to_float().scaled(1e-12) for cam in base.cameras])
        x = ProjectivePoint((1, 2, 3, 1)).to_float()
        for want, got in zip(forward_map(big, x), forward_map(small, x)):
            assert max(map(abs, got.coords)) < linalg.DEFAULT_RANK_TOL
            assert projectively_equal(got, want)
        for rig in (big, small):
            for cam in rig.cameras:
                with pytest.raises(ProjectionError):
                    cam.project(cam.focal_point)

    def test_baseline_point_projects_to_epipoles(self):
        rig = standard_rig()
        # (1,0,0,2) is on the line through the focal points but is neither
        x = ProjectivePoint((1, 0, 0, -2))
        u = forward_map(rig, x)
        assert u[0] == rig.epipole(0, 1)
        assert u[1] == rig.epipole(1, 0)


class TestFundamental:
    def test_standard_rig_value(self):
        rig = standard_rig()
        f = rig.fundamental(0, 1)
        # proportional to [[0,0,0],[0,0,-1],[0,1,0]]
        flat = [f[i, j] for i in range(3) for j in range(3)]
        ref = [0, 0, 0, 0, 0, -1, 0, 1, 0]
        nz = next(i for i, v in enumerate(ref) if v != 0)
        scale = flat[nz]
        assert scale != 0
        assert [x * ref[nz] for x in flat] == [scale * r for r in ref]

    def test_extraction_matches_naive_determinant(self):
        rng = random.Random(5)
        rig = random_rig(rng, 2)
        f = rig.fundamental(0, 1)
        a1, a2 = rig.camera(0).matrix, rig.camera(1).matrix
        for a in range(3):
            for b in range(3):
                rows = []
                for r in range(3):
                    rows.append(list(a1.data[r]) + [1 if r == a else 0, 0])
                for r in range(3):
                    rows.append(list(a2.data[r]) + [0, 1 if r == b else 0])
                assert f[a, b] == naive_det(Mat(rows))

    @staticmethod
    def _unit_pair_matrix(rig, j, k, a, b):
        """B of cameras j and k at the unit image points u_j = e_a, u_k = e_b."""
        rows = [list(rig.camera(j).matrix.data[r]) + [int(r == a), 0] for r in range(3)]
        rows += [list(rig.camera(k).matrix.data[r]) + [0, int(r == b)] for r in range(3)]
        return Mat(rows)

    @staticmethod
    def _cameras(rng, kind):
        def entry():
            if kind == "fraction":
                return Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            return rng.randint(-20, 20)
        mats = [Mat([[entry() for _ in range(4)] for _ in range(3)]) for _ in range(3)]
        if kind == "rank_deficient":
            # camera 1 of rank 2 with rational entries, camera 2 of rank 1
            r0, r1 = mats[1].data[0], mats[1].data[1]
            mats[1] = Mat([r0, r1, [x + Fraction(1, 3) * y for x, y in zip(r0, r1)]])
            r0 = mats[2].data[0]
            mats[2] = Mat([r0, [2 * x for x in r0], [-x for x in r0]])
        return mats

    @pytest.mark.parametrize("kind", ["int", "fraction", "rank_deficient"])
    def test_every_ordered_pair_matches_naive_determinant(self, kind):
        rng = random.Random(f"fundamental:{kind}")
        for _ in range(2):
            rig = CameraRig(self._cameras(rng, kind))
            for j, k in itertools.permutations(range(3), 2):
                f = rig.fundamental(j, k)
                for a, b in itertools.product(range(3), repeat=2):
                    want = naive_det(self._unit_pair_matrix(rig, j, k, a, b))
                    if isinstance(want, Fraction) and want.denominator == 1:
                        want = want.numerator
                    assert f[a, b] == want
                    assert type(f[a, b]) is type(want)

    def test_float_rig_matches_float_determinant(self):
        rng = random.Random(29)
        rig = CameraRig([Mat([[rng.uniform(-20, 20) for _ in range(4)] for _ in range(3)])
                         for _ in range(3)])
        for j, k in itertools.permutations(range(3), 2):
            f = rig.fundamental(j, k)
            want = [[det(self._unit_pair_matrix(rig, j, k, a, b)) for b in range(3)]
                    for a in range(3)]
            scale = max(abs(x) for row in want for x in row)
            for a, b in itertools.product(range(3), repeat=2):
                assert type(f[a, b]) is float
                assert abs(f[a, b] - want[a][b]) <= 1e-10 * scale

    def test_construction_takes_no_determinant(self, monkeypatch):
        rng = random.Random(31)
        mats = [random_camera_mat(rng) for _ in range(4)]
        calls = count_calls(monkeypatch, cameras, "det")
        CameraRig(mats)
        assert calls == []

    def test_bilinear_identity_on_random_inputs(self):
        rng = random.Random(11)
        rig = random_rig(rng, 2)
        f = rig.fundamental(0, 1)
        for _ in range(25):
            u1 = [rng.randint(-9, 9) for _ in range(3)]
            u2 = [rng.randint(-9, 9) for _ in range(3)]
            rows = []
            for r in range(3):
                rows.append(list(rig.camera(0).matrix.data[r]) + [u1[r], 0])
            for r in range(3):
                rows.append(list(rig.camera(1).matrix.data[r]) + [0, u2[r]])
            bilinear = sum(u1[a] * f[a, b] * u2[b] for a in range(3) for b in range(3))
            assert bilinear == det(Mat(rows))

    def test_epipolar_null_vectors(self):
        rng = random.Random(17)
        for n in (2, 3):
            rig = random_rig(rng, n)
            for j, k in itertools.permutations(range(n), 2):
                f = rig.fundamental(j, k)
                ekj = rig.epipole(k, j)
                ejk = rig.epipole(j, k)
                assert f.apply(ekj.coords) == (0, 0, 0)
                assert f.transpose().apply(ejk.coords) == (0, 0, 0)

    def test_rank_two(self):
        rng = random.Random(23)
        rig = random_rig(rng, 3)
        for j, k in itertools.combinations(range(3), 2):
            assert rank(rig.fundamental(j, k)).rank == 2


class TestStoredMinorTables:
    """The rig builds each camera pair's minor table once, cleared of
    denominators, and keeps it: int64 where every entry fits, Python ints
    otherwise, float64 on floats."""

    @staticmethod
    def _rig(kind):
        rng = random.Random(f"tables:{kind}")
        if kind == "fraction":
            return fraction_rig(rng, 3)
        height = {"height-1e6": 10 ** 6, "height-1e7": 10 ** 7}.get(kind, 20)
        rig = CameraRig([random_camera_mat(rng, height) for _ in range(3)])
        if kind == "float":
            rig = CameraRig([cam.matrix.to_float() for cam in rig.cameras])
        return rig

    @pytest.mark.parametrize("kind, dtype", [
        ("int", np.int64), ("fraction", np.int64), ("height-1e6", np.int64),
        ("height-1e7", object), ("float", np.float64)])
    def test_stored_table_equals_reference(self, kind, dtype):
        rig = self._rig(kind)
        for j, k in itertools.permutations(range(3), 2):
            table, den = rig.minor_table(j, k)
            want = reference_minor_table(rig, j, k)
            assert table.shape == (6, 4, 9) and table.dtype == dtype
            if kind == "float":
                # pairs j < k are built by the reference's arithmetic; j > k
                # are read from the (k, j) table, whose minors round apart
                assert den == 1
                scale = 1e-13 * np.abs(want).max() if j > k else 0.0
                assert np.abs(table - want).max() <= scale
                continue
            # den is the least positive integer that clears the true minors
            assert den == lcm(*(Fraction(x).denominator for x in want.ravel().tolist()))
            assert [Fraction(x, den) for x in table.ravel().tolist()] == want.ravel().tolist()
        if kind == "fraction":
            assert rig.minor_table(0, 1)[1] > 1
        if kind.startswith("height"):
            assert np.abs(rig.minor_table(0, 1)[0]).max() > 2 ** 50

    def test_fraction_entries_of_denominator_one_are_read_as_ints(self):
        # cameras written with Fraction entries whose denominators are all 1
        # give the int rig's tables, fundamentals and verdicts
        rig = standard_rig()
        frac = CameraRig([Mat([[Fraction(x) for x in row] for row in cam.matrix.data])
                          for cam in rig.cameras])
        for j, k in itertools.permutations(range(2), 2):
            (table, den), (want, want_den) = frac.minor_table(j, k), rig.minor_table(j, k)
            assert den == want_den and table.dtype == want.dtype and (table == want).all()
            assert frac.fundamental(j, k) == rig.fundamental(j, k)
        x = ProjectivePoint((0, 0, 2, 1))
        for r in (rig, frac):
            # the int rig's images have int coordinates, frac's Fractions
            u = forward_map(r, x)
            epipoles = (r.epipole(0, 1), r.epipole(1, 0))
            for v, member in ((forward_map(r, ProjectivePoint((1, 0, 2, 1))), True),
                              (forward_map(r, ProjectivePoint((2, 0, 2, 1))), False),
                              (epipoles, True)):
                for check in (rigid_pair_by_equations, rigid_pair_oracle):
                    assert check(frac, u, v) == check(rig, u, v) == member

    def test_tables_are_built_once_with_the_rig(self, monkeypatch):
        rng = random.Random(67)
        mats = [random_camera_mat(rng) for _ in range(4)]
        calls = count_calls(monkeypatch, cameras, "camera_minor_table")
        rig = CameraRig(mats)
        assert [args[1:] for args in calls] == list(itertools.combinations(range(4), 2))
        for j, k in itertools.permutations(range(4), 2):
            rig.minor_table(j, k)
        assert len(calls) == 6
        with pytest.raises(ValueError):
            rig.minor_table(1, 1)


class TestCofactorVectors:
    """CameraRig.cofactor_vectors: the six cofactor vectors of a camera pair
    at two image points, times a positive integer factor."""

    def test_vectors_equal_reference(self):
        # on int, Fraction-entry and large-height rigs, at int and Fraction
        # image points: w / factor are the reference table's vectors at the
        # points themselves, and w is int64 exactly when the bound fits
        dtypes = []
        for kind in ("int", "fraction", "height-1e6", "height-1e7"):
            rig = TestStoredMinorTables._rig(kind)
            rng = random.Random(f"cofactors:{kind}")
            for coord in (lambda: rng.randint(-10 ** 6, 10 ** 6),
                          lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 12))):
                for _ in range(3):
                    points = [ProjectivePoint([coord() for _ in range(3)]) for _ in range(3)]
                    for j, k in itertools.permutations(range(3), 2):
                        w, factor = rig.cofactor_vectors(j, k, points[j], points[k])
                        outer = [x * y for x in points[j] for y in points[k]]
                        want = reference_minor_table(rig, j, k) @ np.array(outer, dtype=object)
                        assert w.shape == (6, 4)
                        assert [Fraction(x, factor) for x in w.ravel().tolist()] == (
                            want.ravel().tolist())
                        table, den = rig.minor_table(j, k)
                        dens = [lcm(*(Fraction(x).denominator for x in p)) for p in points]
                        assert factor == den * dens[j] * dens[k]
                        sizes = [max(abs(x) * d for x in p) for p, d in zip(points, dens)]
                        fits = (table.dtype == np.int64 and 9 * max(int(np.abs(table).max()), 1)
                                * sizes[j] * sizes[k] < 2 ** 63)
                        assert (w.dtype == np.int64) == fits
                        dtypes.append(w.dtype)
        assert dtypes.count(np.int64) >= 50 and dtypes.count(object) >= 50

    def test_float_rig_gives_float_vectors(self):
        rig = TestStoredMinorTables._rig("float")
        points = [ProjectivePoint((0.5, -1.25, 2.0)), ProjectivePoint((3.0, 0.75, -1.0))]
        w, factor = rig.cofactor_vectors(0, 1, *points)
        want = reference_minor_table(rig, 0, 1) @ np.array([x * y for x in points[0]
                                                            for y in points[1]])
        assert factor == 1 and w.dtype == np.float64
        assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max()

    def test_large_coordinates_take_python_ints(self):
        # image points with coordinates near 2^40 overflow the int64 bound;
        # scaling every point of u by c scales each octic value by c^4, so
        # both routes must give the same values up to that factor
        rng = random.Random(613)
        rig = random_rig(rng, 2)
        u = forward_map(rig, ProjectivePoint((3, -2, 5, 7)))
        v = forward_map(rig, ProjectivePoint((1, 4, -3, 2)))
        c = 2 ** 40 // max(abs(x) for p in u for x in p)
        big = tuple(p.scaled(c) for p in u)
        assert max(abs(x) for p in big for x in p) > 2 ** 39
        assert rig.cofactor_vectors(0, 1, *u)[0].dtype == np.int64
        assert rig.cofactor_vectors(0, 1, *big)[0].dtype == object
        system = constraint_system(rig, Family.OCTIC_FULL)
        values = system.evaluate(u, v)
        assert any(values)
        assert system.evaluate(big, v) == [c ** 4 * x for x in values]


class TestMembership:
    def test_forward_image_is_member(self):
        rng = random.Random(31)
        for n in (2, 3, 4):
            rig = random_rig(rng, n)
            x = ProjectivePoint((3, -2, 5, 7))
            u = forward_map(rig, x)
            assert multiview_membership(rig, u).ok
            assert triangulate(rig, u).point == x

    def test_perturbed_float_tuple_rejected(self):
        a1 = Mat([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        a2 = Mat([[1.0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
        rig = CameraRig([a1, a2], 1e-9)
        good = (ProjectivePoint((0.0, 0.0, 1.0)), ProjectivePoint((1.0, 0.0, 1.0)))
        assert multiview_membership(rig, good).ok
        # breaking the epipolar form pushes the rank to n+4
        bad = (ProjectivePoint((0.0, 0.0, 1.0)), ProjectivePoint((1.0, 0.01, 1.0)))
        res = multiview_membership(rig, bad)
        assert not res.ok
        assert res.rank == 6

    def test_perturbation_along_the_variety_stays_consistent(self):
        # For this rig the pair ((0,0,1),(1,0,1.01)) is a genuine image pair
        # of the world point (0,0,1.01,1); only the epipolar form decides.
        a1 = Mat([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        a2 = Mat([[1.0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
        rig = CameraRig([a1, a2], 1e-9)
        slid = (ProjectivePoint((0.0, 0.0, 1.0)), ProjectivePoint((1.0, 0.0, 1.01)))
        assert multiview_membership(rig, slid).ok
        point = triangulate(rig, slid).point
        assert projectively_equal(point, ProjectivePoint((0.0, 0.0, 1.01, 1.0)), tol=1e-9)

    def test_epipole_pair_is_member_without_unique_point(self):
        rig = standard_rig()
        pair = (rig.epipole(0, 1), rig.epipole(1, 0))
        res = multiview_membership(rig, pair)
        assert res.ok
        assert res.rank == 4

    def test_random_nonmember_rejected(self):
        rng = random.Random(37)
        rig = random_rig(rng, 2)
        u = (ProjectivePoint((1, 2, 3)), ProjectivePoint((4, 5, 6)))
        res = multiview_membership(rig, u)
        # generic tuples violate the bilinear constraint
        f = rig.fundamental(0, 1)
        bil = sum(u[0][a] * f[a, b] * u[1][b] for a in range(3) for b in range(3))
        assert res.ok == (bil == 0)

    def test_zero_scale_flagged_at_focal_point_tuple(self):
        # views of the third camera's focal point: any third image point is
        # consistent, the third camera's scale being zero
        rng = random.Random(39)
        rig = random_rig(rng, 3)
        f2 = rig.focal_point(2)
        u = (rig.camera(0).project(f2), rig.camera(1).project(f2),
             ProjectivePoint((3, 1, 4)))
        assert multiview_membership(rig, u).ok

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["int", "fraction", "float", "float_tol"])
    def test_rank_decides_membership(self, monkeypatch, n, kind):
        # .rank is the rank of the stacked multiview matrix and .ok is
        # rank <= n + 3, with no kernel taken; on both backends the cofactor
        # pass decides, and the stacked matrix is ranked (exact: one
        # elimination; floats: built as a Mat and ranked) only when no
        # camera pair gives a point
        rng = random.Random(41 + n)
        rig = fraction_rig(rng, n) if kind == "fraction" else random_rig(rng, n)
        if kind.startswith("float"):
            rig = CameraRig([Mat([[float(c) for c in row] for row in cam.matrix.data])
                             for cam in rig.cameras], 1e-6 if kind == "float_tol" else None)
        member = forward_map(rig, ProjectivePoint((3, -2, 5, 7)))
        nonmember = member[:1] + (ProjectivePoint((1, 2, 3)),) + member[2:]
        f = rig.focal_point(n - 1)
        focal = (tuple(rig.camera(j).project(f) for j in range(n - 1))
                 + (ProjectivePoint((3, 1, 4)),))
        cases = [member, nonmember, focal]
        if n == 2:
            cases.append((rig.epipole(0, 1), rig.epipole(1, 0)))
        if kind.startswith("float"):
            cases = [tuple(p.to_float() for p in points) for points in cases]
        for points in cases:
            want = rank(cameras._multiview_matrix(rig, range(n), points), rig.tol).rank
            eliminations = count_calls(monkeypatch, linalg, "_bareiss_echelon")
            ranks = count_calls(monkeypatch, cameras, "rank")
            mats = count_calls(monkeypatch, cameras, "Mat")
            res = multiview_membership(rig, points)
            monkeypatch.undo()
            fallback = res.cofactors.witness is None
            assert fallback == (points is cases[-1] and n == 2)
            if kind in ("int", "fraction"):
                assert len(eliminations) == fallback
                assert ranks == [] and mats == []
            else:
                assert len(ranks) == len(mats) == fallback
            assert res.rank == want
            assert res.ok == (want <= n + 3)
        assert multiview_membership(rig, cases[0]).ok
        assert not multiview_membership(rig, cases[1]).ok

    def test_mixed_backends_keep_their_rules(self):
        # one scalar-backend rule: a float point on an exact integer rig, or
        # on a rig with Fraction entries, raises; the same point read
        # exactly is ranked exactly, and a member moved by 1e-13 is not
        # consistent
        rng = random.Random(47)
        rig = random_rig(rng, 3)
        member = forward_map(rig, ProjectivePoint((3, -2, 5, 7)))
        last = [float(c) / float(max(member[2].coords, key=abs)) for c in member[2].coords]
        last[0] += 1e-13
        moved = member[:2] + (ProjectivePoint(last),)
        with pytest.raises(linalg.BackendError):
            multiview_membership(rig, moved)
        exact = member[:2] + (ProjectivePoint([Fraction(x) for x in last]),)
        assert multiview_membership(rig, exact).rank == 7
        with pytest.raises(linalg.BackendError):
            multiview_membership(fraction_rig(rng, 3), moved)


class TestCofactorPass:
    """The exact consistency pass against the fraction-free rank of the
    stacked multiview matrix."""

    @staticmethod
    def _rig(kind, n, rng):
        if kind == "fraction":
            return fraction_rig(rng, n)
        height = {"int": 20, "height-1e6": 10 ** 6, "height-1e7": 10 ** 7}[kind]
        while True:
            rig = CameraRig([random_camera_mat(rng, height) for _ in range(n)])
            if rig.general_position.ok:
                return rig

    @staticmethod
    def _tuples(rig, rng):
        """``(kind, tuple)``: member tuples, each with one coordinate moved
        by 1, views of each camera's focal point with that camera's image
        point arbitrary, and for two cameras the epipole pair."""
        n = rig.n
        out = []
        for _ in range(2):
            member = forward_map(rig, ProjectivePoint([rng.randint(-30, 30) for _ in range(3)] + [1]))
            out.append(("member", member))
            for _ in range(2):
                j, c = rng.randrange(n), rng.randrange(3)
                coords = list(member[j].coords)
                coords[c] += 1
                out.append(("moved", member[:j] + (ProjectivePoint(coords),) + member[j + 1:]))
        for j in range(n):
            f = rig.focal_point(j)
            out.append(("focal", tuple(ProjectivePoint((3, 1, 4)) if i == j else
                                       rig.camera(i).project(f) for i in range(n))))
        if n == 2:
            out.append(("epipole", (rig.epipole(0, 1), rig.epipole(1, 0))))
        return out

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["int", "fraction", "height-1e6", "height-1e7"])
    def test_pass_equals_the_elimination(self, monkeypatch, n, kind):
        # .ok and .rank as the elimination has them; the elimination runs
        # only when no camera pair's cofactor vectors give a point, which on
        # general-position rigs is only the n = 2 epipole pair
        rng = random.Random(f"pass:{kind}:{n}")
        rig = self._rig(kind, n, rng)
        fallbacks, verdicts = set(), set()
        for what, points in self._tuples(rig, rng):
            want = linalg._exact_rank(cameras._multiview_rows(rig, range(n), points))
            eliminations = count_calls(monkeypatch, cameras, "_exact_rank")
            res = multiview_membership(rig, points)
            monkeypatch.undo()
            assert (res.ok, res.rank) == (want <= n + 3, want), what
            pointless = not any(rig.cofactor_vectors(j, k, points[j], points[k])[0].any()
                                for j, k in itertools.combinations(range(n), 2))
            assert len(eliminations) == pointless == (res.cofactors.witness is None)
            if pointless:
                fallbacks.add(what)
            verdicts.add((what, res.ok))
        assert fallbacks == ({"epipole"} if n == 2 else set())
        assert {("member", True), ("moved", False), ("focal", True)} <= verdicts

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_float_pass_equals_the_exact_one(self, n):
        # on floats, with each camera scaled by 10^U(-2, 2) and each image
        # point by 10^k, k up to 250 either way (the unit points are taken
        # with no square under- or overflowing): the exact .ok and .rank,
        # and on consistent tuples the witness pair and a witness vector at
        # the exact world point
        rng = random.Random(f"float-pass:{n}")
        rig = self._rig("int", n, rng)
        for k in (-250, -3, 0, 3, 250):
            frig = CameraRig([cam.matrix.to_float().scaled(10.0 ** rng.uniform(-2, 2))
                              for cam in rig.cameras])
            for what, points in self._tuples(rig, rng):
                exact = multiview_membership(rig, points)
                scaled = tuple(ProjectivePoint([float(c) / max(map(abs, p.coords)) * 10.0 ** k
                                                for c in p.coords]) for p in points)
                res = multiview_membership(frig, scaled)
                assert (res.ok, res.rank) == (exact.ok, exact.rank), (what, k)
                if exact.cofactors.witness is None:
                    assert res.cofactors.witness is None
                if not exact.ok or exact.cofactors.witness is None:
                    continue
                (pair, row), (want_pair, want_row) = res.cofactors.witness, exact.cofactors.witness
                assert pair == want_pair, (what, k)
                x = ProjectivePoint(res.cofactors.vectors(*pair)[0][row].tolist())
                want = ProjectivePoint(exact.cofactors.vectors(*pair)[0][want_row].tolist())
                assert projectively_equal(x, want.to_float(), tol=1e-9), (what, k)

    def test_witness_vector_is_the_world_point(self):
        # on a consistent tuple with a witness the rank is n + 3 and the
        # witness vector is the world point; every cofactor vector of every
        # pair is a multiple of it
        rng = random.Random(71)
        for n in (2, 3, 4):
            rig = random_rig(rng, n)
            x = ProjectivePoint((3, -2, 5, 7))
            res = multiview_membership(rig, forward_map(rig, x))
            pair, row = res.cofactors.witness
            w = res.cofactors.vectors(*pair)[0]
            assert res.rank == n + 3 and ProjectivePoint(w[row].tolist()) == x
            for j, k in itertools.combinations(range(n), 2):
                for y in res.cofactors.vectors(j, k)[0].tolist():
                    assert all(y[a] * x[b] == y[b] * x[a] for a in range(4) for b in range(4))

    def test_backend_is_checked_once_per_tuple(self, monkeypatch):
        # the pass checks the whole tuple once, then computes each camera
        # pair's vectors without checking again
        rig = random_rig(random.Random(75), 4)
        u = forward_map(rig, ProjectivePoint((3, -2, 5, 7)))
        checks = count_calls(monkeypatch, cameras, "_check_backend")
        scan = cameras.CofactorPass(rig, u)
        for j, k in itertools.combinations(range(4), 2):
            scan.vectors(j, k)
        assert len(checks) == 1

    def test_points_beyond_the_witness_pair_are_checked(self):
        # the scan stops at pair (0, 1), yet a float third point still raises
        rig = random_rig(random.Random(73), 3)
        u = forward_map(rig, ProjectivePoint((3, -2, 5, 7)))
        with pytest.raises(linalg.BackendError):
            multiview_membership(rig, u[:2] + (u[2].to_float(),))


class TestOneElimination:
    """An exact camera eliminates only when all its 3x3 minors are zero;
    exact membership eliminates only when no camera pair's cofactor
    vectors give a point."""

    def test_membership_eliminates_only_without_a_witness(self, monkeypatch):
        # the n = 2 epipole pair has no witness: its one elimination runs on
        # the cleared integer rows of the stacked multiview matrix, and its
        # rank is that matrix's rank; the other tuples eliminate nothing
        rng = random.Random(53)
        for n in (2, 3, 4):
            for rig in (random_rig(rng, n), fraction_rig(rng, n)):
                member = forward_map(rig, ProjectivePoint((3, -2, 5, 7)))
                nonmember = (ProjectivePoint((1, 2, 3)),) + member[1:]
                cases = [(member, True), (nonmember, False)]
                if n == 2:
                    cases.append(((rig.epipole(0, 1), rig.epipole(1, 0)), True))
                for points, ok in cases:
                    stacked = cameras._multiview_matrix(rig, range(n), points)
                    calls = count_calls(monkeypatch, linalg, "_bareiss_echelon")
                    res = multiview_membership(rig, points)
                    monkeypatch.undo()
                    epipoles = len(cases) == 3 and points == cases[2][0]
                    assert len(calls) == epipoles
                    assert res.ok == ok
                    assert res.rank == rank(stacked).rank
                    if epipoles:
                        assert [list(r) for r in calls[0][0]] == [
                            list(linalg._cleared(r)[0]) for r in stacked.data]

    def test_camera_eliminates_only_when_rank_deficient(self, monkeypatch):
        # a nonzero minor decides rank 3 with no elimination; a camera whose
        # minors all vanish is ranked by one elimination
        rng = random.Random(59)
        deficient = Mat([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, Fraction(1, 2)]])
        for m, want in [(random_camera_mat(rng), 3), (deficient, 2)]:
            calls = count_calls(monkeypatch, linalg, "_bareiss_echelon")
            cam = Camera(m)
            assert len(calls) == (want < 3)
            assert cam.rank == want
            assert (cam.focal_point is None) == (want < 3)
            monkeypatch.undo()


class TestActions:
    def test_identity_action(self):
        rig = standard_rig()
        moved = apply_right_action(rig, RigidMotion.identity())
        assert all(m.matrix == c.matrix for m, c in zip(moved.cameras, rig.cameras))

    def test_right_action_moves_focal_points(self):
        rng = random.Random(41)
        rig = random_rig(rng, 3)
        r = cayley_rotation(Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
        motion = RigidMotion.from_parts(r, (1, -2, 3))
        moved = apply_right_action(rig, motion)
        n_inv = invert(motion.matrix)
        for j in range(3):
            expected = ProjectivePoint(n_inv.apply(rig.focal_point(j).coords))
            assert moved.focal_point(j) == expected

    def test_left_action_moves_epipoles(self):
        rng = random.Random(43)
        rig = random_rig(rng, 2)
        ms = [Mat([[2, 1, 0], [0, 1, 0], [1, 0, 3]]), Mat([[1, 0, 1], [0, 2, 0], [0, 0, 1]])]
        moved = apply_left_action(rig, ms)
        for k, j in itertools.permutations(range(2), 2):
            expected = ProjectivePoint(ms[k].apply(rig.epipole(k, j).coords))
            assert moved.epipole(k, j) == expected

    def test_forward_map_commutes_with_right_action(self):
        rng = random.Random(47)
        rig = random_rig(rng, 3)
        r = cayley_rotation(1, 0, Fraction(1, 2))
        motion = RigidMotion.from_parts(r, (0, 1, 0))
        moved = apply_right_action(rig, motion)
        x = ProjectivePoint((2, 3, -1, 5))
        nx = ProjectivePoint(motion.matrix.apply(x.coords))
        left = forward_map(moved, x)
        right = forward_map(rig, nx)
        assert all(p.coords == q.coords for p, q in zip(left, right))

    def test_singular_transform_rejected(self):
        rig = standard_rig()
        with pytest.raises(ValueError):
            apply_right_action(rig, Mat.zeros(4, 4))


class TestRigidMotion:
    def test_cayley_is_rotation(self):
        r = cayley_rotation(Fraction(1, 3), Fraction(2, 7), Fraction(-1, 2))
        assert r.transpose() @ r == Mat.identity(3)
        assert det(r) == 1

    def test_invalid_rotation_rejected(self):
        bad = Mat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError):
            RigidMotion(bad)

    def test_float_motion_raises_backend_error(self):
        r = cayley_rotation(Fraction(1, 3), Fraction(2, 7), Fraction(-1, 2))
        with pytest.raises(linalg.BackendError):
            RigidMotion(RigidMotion.from_parts(r, (1, 0, 2)).matrix.to_float())
        with pytest.raises(linalg.BackendError):
            RigidMotion.from_parts(r.to_float(), (1.0, 0.0, 2.0))


class TestSerialization:
    def test_round_trip_exact(self):
        rng = random.Random(53)
        rig = random_rig(rng, 3)
        doc = rig_to_json(rig)
        back = rig_from_json(doc)
        assert back.backend == rig.backend
        for a, b in zip(back.cameras, rig.cameras):
            assert a.matrix == b.matrix

    def test_rational_entries_as_strings(self):
        m = Mat([[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        rig = CameraRig([m, Mat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])])
        doc = rig_to_json(rig)
        assert doc["cameras"][0][0] == "1/2"
        back = rig_from_json(doc)
        assert back.camera(0).matrix == m

    def test_float_round_trip(self):
        a1 = Mat([[1.5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        a2 = Mat([[1.0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
        rig = CameraRig([a1, a2])
        back = rig_from_json(rig_to_json(rig))
        assert back.backend == "float"
        assert back.camera(0).matrix[0, 0] == pytest.approx(1.5)
