import random

import pytest

from helpers import (count_calls, fraction_rig, naive_det, random_rig, random_world_point,
                     standard_rig, wedge5, wedge5_point)
from rigidview import cameras, harness, linalg, triangulation
from rigidview.cameras import (CameraRig, ProjectivePoint, forward_map, multiview_membership,
                               projectively_equal)
from rigidview.constraints import rigid_pair_oracle
from rigidview.linalg import Mat, det, rank
from rigidview.triangulation import (
    NotInVarietyError,
    NotTriangulableError,
    assemble_b,
    is_triangulable,
    triangulate,
)


def epipole_pair(rig):
    return (rig.epipole(0, 1), rig.epipole(1, 0))


class TestAssembleB:
    def test_block_layout(self):
        rig = standard_rig()
        b = assemble_b(rig, 0, 1, ProjectivePoint((0, 0, 1)), ProjectivePoint((1, 0, 1)))
        m = b.mat
        assert m.col(4) == (0, 0, 1, 0, 0, 0)
        assert m.col(5) == (0, 0, 0, 1, 0, 1)
        assert m.submatrix(range(3), range(4)) == rig.camera(0).matrix
        assert m.submatrix(range(3, 6), range(4)) == rig.camera(1).matrix

    def test_consistent_pair_has_zero_determinant(self):
        rig = standard_rig()
        b = assemble_b(rig, 0, 1, ProjectivePoint((0, 0, 1)), ProjectivePoint((1, 0, 1)))
        assert naive_det(b.mat) == 0
        assert det(b.mat) == 0

    def test_generic_pair_has_nonzero_determinant(self):
        rig = standard_rig()
        b = assemble_b(rig, 0, 1, ProjectivePoint((1, 2, 3)), ProjectivePoint((5, -1, 2)))
        assert det(b.mat) == naive_det(b.mat) != 0

    def test_epipole_pair_has_rank_four(self):
        rng = random.Random(61)
        for _ in range(5):
            rig = random_rig(rng, 2)
            b = assemble_b(rig, 0, 1, *epipole_pair(rig))
            assert rank(b.mat).rank == 4


class TestWedge:
    def test_consistent_pair_recovers_intersection(self):
        rig = standard_rig()
        b = assemble_b(rig, 0, 1, ProjectivePoint((0, 0, 1)), ProjectivePoint((1, 0, 1)))
        expected = ProjectivePoint((0, 0, 1, 1))
        found = 0
        for i in range(6):
            p = wedge5_point(b, i)
            if p is not None:
                assert p == expected
                found += 1
        assert found > 0

    def test_epipole_pair_wedges_all_vanish(self):
        rng = random.Random(67)
        rig = random_rig(rng, 2)
        b = assemble_b(rig, 0, 1, *epipole_pair(rig))
        for i in range(6):
            assert wedge5(b, i) == (0,) * 6

    def test_random_consistent_pair_wedges_parallel_to_source(self):
        rng = random.Random(71)
        for _ in range(10):
            rig = random_rig(rng, 2)
            x = ProjectivePoint(random_world_point(rng))
            u = forward_map(rig, x)
            b = assemble_b(rig, 0, 1, u[0], u[1])
            for i in range(6):
                p = wedge5_point(b, i)
                if p is not None:
                    assert p == x

    def test_cramer_row_structure(self):
        # B applied to the row-i cofactor vector is supported on row i only
        rng = random.Random(73)
        rig = random_rig(rng, 2)
        u = (ProjectivePoint((3, 1, 4)), ProjectivePoint((1, 5, 9)))
        b = assemble_b(rig, 0, 1, u[0], u[1])
        for i in range(6):
            image = b.mat.apply(wedge5(b, i))
            for r in range(6):
                if r != i:
                    assert image[r] == 0


class TestIsTriangulable:
    def test_epipole_pair_not_triangulable(self):
        rng = random.Random(79)
        rig = random_rig(rng, 2)
        assert is_triangulable(rig, epipole_pair(rig)) is False

    def test_other_variety_points_triangulable(self):
        rng = random.Random(83)
        rig = random_rig(rng, 2)
        for _ in range(10):
            x = ProjectivePoint(random_world_point(rng))
            assert is_triangulable(rig, forward_map(rig, x)) is True

    def test_three_cameras_always_triangulable(self):
        rng = random.Random(89)
        rig = random_rig(rng, 3)
        for _ in range(10):
            x = ProjectivePoint(random_world_point(rng))
            assert is_triangulable(rig, forward_map(rig, x)) is True

    def test_nonmember_raises(self):
        rng = random.Random(97)
        rig = random_rig(rng, 2)
        u = (ProjectivePoint((1, 2, 3)), ProjectivePoint((4, 5, 6)))
        f = rig.fundamental(0, 1)
        bil = sum(u[0][a] * f[a, b] * u[1][b] for a in range(3) for b in range(3))
        assert bil != 0
        with pytest.raises(NotInVarietyError):
            is_triangulable(rig, u)


class TestTriangulate:
    def test_simple_example(self):
        rig = standard_rig()
        sol = triangulate(rig, (ProjectivePoint((0, 0, 1)), ProjectivePoint((1, 0, 1))))
        assert sol.point == ProjectivePoint((0, 0, 1, 1))

    def test_round_trip(self):
        rng = random.Random(101)
        for n in (2, 3, 4):
            rig = random_rig(rng, n)
            for _ in range(5):
                x = ProjectivePoint(random_world_point(rng))
                sol = triangulate(rig, forward_map(rig, x))
                assert sol.point == x

    def test_stored_representatives_reproject_exactly(self):
        rng = random.Random(103)
        rig = random_rig(rng, 3)
        x = ProjectivePoint(random_world_point(rng))
        u = forward_map(rig, x)
        sol = triangulate(rig, u)
        j, k = sol.pair
        lam_j, lam_k = sol.lambdas
        assert rig.camera(j).matrix.apply(sol.point.coords) == tuple(lam_j * c for c in u[j].coords)
        assert rig.camera(k).matrix.apply(sol.point.coords) == tuple(lam_k * c for c in u[k].coords)

    def test_epipole_pair_raises(self):
        rng = random.Random(107)
        rig = random_rig(rng, 2)
        with pytest.raises(NotTriangulableError):
            triangulate(rig, epipole_pair(rig))

    def test_nonmember_raises(self):
        rig = standard_rig()
        with pytest.raises(NotInVarietyError):
            triangulate(rig, (ProjectivePoint((1, 2, 3)), ProjectivePoint((3, 1, 9))))

    def test_float_backend(self):
        rig = standard_rig()
        float_rig = CameraRig([c.matrix.to_float() for c in rig.cameras], 1e-9)
        u = (ProjectivePoint((0.0, 0.0, 1.0)), ProjectivePoint((1.0, 0.0, 1.0)))
        sol = triangulate(float_rig, u)
        assert projectively_equal(sol.point, ProjectivePoint((0.0, 0.0, 1.0, 1.0)), tol=1e-9)


class TestRankDichotomy:
    def test_rank_four_only_at_epipole_pair(self):
        # two cameras: sampled points of the variety have rank-5 B except the epipole pair
        rng = random.Random(109)
        for _ in range(5):
            rig = random_rig(rng, 2)
            ep = epipole_pair(rig)
            b = assemble_b(rig, 0, 1, *ep)
            assert rank(b.mat).rank == 4
            for _ in range(10):
                x = ProjectivePoint(random_world_point(rng))
                u = forward_map(rig, x)
                if u[0] == ep[0] and u[1] == ep[1]:
                    continue
                b = assemble_b(rig, 0, 1, u[0], u[1])
                assert rank(b.mat).rank == 5


class TestExactPairShortcut:
    @staticmethod
    def _consistent_tuples(rig, rng):
        """Member tuples of two random world points, and the tuples with a
        rank-4 or degenerate pair: the n = 2 epipole pair, views of the
        last camera's focal point, and a world point on the baseline of
        cameras 0 and 1."""
        n = rig.n
        out = [forward_map(rig, ProjectivePoint(random_world_point(rng))) for _ in range(2)]
        if n == 2:
            out.append((rig.epipole(0, 1), rig.epipole(1, 0)))
        else:
            f = rig.focal_point(n - 1)
            out.append(tuple(rig.camera(j).project(f) for j in range(n - 1))
                       + (ProjectivePoint((3, 1, 4)),))
            c0, c1 = (rig.camera(i).focal_point.coords for i in (0, 1))
            out.append(forward_map(rig, ProjectivePoint([a + 2 * b for a, b in zip(c0, c1)])))
        return out

    def test_nonzero_cofactor_point_iff_rank_five(self):
        # on an exact consistent tuple, some cofactor vector of a pair has a
        # nonzero first four coordinates exactly when that pair's B has rank
        # 5: the test the exact pair scan reads instead of a rank
        rng = random.Random(149)
        seen = {4: 0, 5: 0}
        for n in (2, 3, 4):
            for kind in ("int", "fraction", "height-1e6"):
                for _ in range(6):
                    rig = {"int": lambda: random_rig(rng, n),
                           "fraction": lambda: fraction_rig(rng, n),
                           "height-1e6": lambda: random_rig(rng, n, height=10 ** 6)}[kind]()
                    for u in self._consistent_tuples(rig, rng):
                        assert multiview_membership(rig, u).ok
                        for j in range(n):
                            for k in range(j + 1, n):
                                w, _ = rig.cofactor_vectors(j, k, u[j], u[k])
                                r = rank(assemble_b(rig, j, k, u[j], u[k]).mat).rank
                                assert (r == 5) == bool(w[:, :4].any()), (kind, n, j, k)
                                seen[r] += 1
        assert sum(seen.values()) >= 600 and seen[4] >= 50, seen

    def test_witness_pair_rows_are_multiples_of_the_witness(self):
        # on an exact consistent tuple the witness pair's B has rank 5, so
        # its six cofactor vectors span one line: what lets triangulation
        # take the consistency pass's witness with no cross-check
        rng = random.Random(151)
        seen = {}
        for n in (2, 3, 4):
            for kind in ("int", "fraction", "height-1e7", "repeated"):
                for _ in range(4):
                    rig = {"int": lambda: random_rig(rng, n),
                           "fraction": lambda: fraction_rig(rng, n),
                           "height-1e7": lambda: random_rig(rng, n, height=10 ** 7),
                           "repeated": lambda: self._repeated_camera_rig(rng, n)}[kind]()
                    tuples = (self._consistent_tuples(rig, rng) if kind != "repeated" else
                              [forward_map(rig, ProjectivePoint(random_world_point(rng)))
                               for _ in range(3)])
                    for u in tuples:
                        scan = multiview_membership(rig, u).cofactors
                        if scan.witness is None:
                            continue
                        (j, k), row = scan.witness
                        assert kind != "repeated" or (j, k) != (0, 1)
                        w = scan.vectors(j, k)[0].tolist()
                        assert rank(Mat(w)).rank == 1, (kind, n, j, k)
                        assert triangulate(rig, u).point == ProjectivePoint(w[row])
                        key = (kind, (j, k) == (0, 1))
                        seen[key] = seen.get(key, 0) + 1
        # keys: (kind, whether the witness pair is the first pair); a
        # baseline point or a repeated camera moves it past (0, 1)
        assert all(seen.get((kind, True), 0) >= 30 and seen.get((kind, False), 0) >= 8
                   for kind in ("int", "fraction", "height-1e7")), seen
        assert seen.get(("repeated", False), 0) >= 20, seen

    @staticmethod
    def _repeated_camera_rig(rng, n):
        """A rig whose cameras 0 and 1 are one camera: that pair's B has
        rank 4 at every consistent tuple (for n = 2 there is no witness)."""
        base = random_rig(rng, n)
        return CameraRig([base.camera(0).matrix] + [c.matrix for c in base.cameras[:-1]])


class TestRigTolerance:
    def test_consistency_reads_the_rig_tolerance(self):
        # a member tuple at max-norm 1 with one coordinate moved by 1e-7 is
        # consistent at the rig's 1e-6, and triangulates there, but not at
        # the default sine tolerance
        rng = random.Random(5)
        rig = harness.random_rig(rng, 2)
        float_rig = CameraRig([c.matrix.to_float() for c in rig.cameras], 1e-6)
        u = harness.sample_member_pair(rig, rng)[0]
        coords = [[float(c) / max(abs(float(x)) for x in p) for c in p] for p in u]
        coords[0][0] += 1e-7
        moved = tuple(ProjectivePoint(c) for c in coords)
        assert multiview_membership(float_rig, moved).rank == 5
        assert triangulate(float_rig, moved).pair == (0, 1)
        assert is_triangulable(float_rig, moved) is True
        default_rig = CameraRig([c.matrix.to_float() for c in rig.cameras])
        assert multiview_membership(default_rig, moved).rank == 6
        with pytest.raises(NotInVarietyError):
            triangulate(default_rig, moved)


class TestSinglePass:
    def test_triangulate_tests_membership_once(self, monkeypatch):
        rng = random.Random(113)
        for n in (2, 3, 4):
            rig = random_rig(rng, n)
            u = forward_map(rig, ProjectivePoint(random_world_point(rng)))
            membership = count_calls(monkeypatch, triangulation, "multiview_membership")
            dets = count_calls(monkeypatch, linalg, "_det_rows")
            triangulate(rig, u)
            assert len(membership) == 1
            assert dets == []
            monkeypatch.undo()

    @staticmethod
    def _count_pair_work(monkeypatch):
        """Counters of the work an exact scan must not do: minor tables
        built, determinants, ranks and B matrices assembled."""
        return (count_calls(monkeypatch, cameras, "camera_minor_table"),
                count_calls(monkeypatch, linalg, "_det_rows"),
                count_calls(monkeypatch, cameras, "rank"),
                count_calls(monkeypatch, triangulation, "assemble_b"))

    @pytest.mark.parametrize("rig, x, row", [
        (random_rig(random.Random(131), 2), (3, -1, 2, 1), 0),
        (standard_rig(), (1, 1, 1, 1), 1),
        (standard_rig(), (1, 1, 0, 1), 2),
    ])
    def test_scan_stops_at_witness_row(self, monkeypatch, rig, x, row):
        u = forward_map(rig, ProjectivePoint(x))
        want = wedge5(assemble_b(rig, 0, 1, u[0], u[1]), row)
        work = self._count_pair_work(monkeypatch)
        sol = triangulate(rig, u)
        assert (sol.pair, sol.row) == ((0, 1), row)
        assert work == ([], [], [], [])
        vector = sol.point.coords + tuple(-s for s in sol.lambdas)
        assert vector == want
        assert [type(c) for c in vector] == [type(c) for c in want]
        assert sol.point == ProjectivePoint(x)

    def test_rank4_pair_reads_no_minor_table(self, monkeypatch):
        # a world point on the baseline of cameras 0 and 1 makes their B
        # rank 4, so every cofactor vector of that pair vanishes and the scan
        # moves on to pair (0, 2), with no table built and no rank taken
        rig = random_rig(random.Random(137), 3)
        c0, c1 = (rig.camera(i).focal_point.coords for i in (0, 1))
        x = ProjectivePoint([2 * a * c0[3] - b * c1[3] for a, b in zip(c1, c0)])
        u = forward_map(rig, x)
        assert rank(assemble_b(rig, 0, 1, u[0], u[1]).mat).rank == 4
        work = self._count_pair_work(monkeypatch)
        sol = triangulate(rig, u)
        assert sol.pair == (0, 2)
        assert work == ([], [], [], [])
        assert sol.point == x

    @staticmethod
    def _skewed(original, later):
        """``original`` cofactor vectors with row ``later`` set to row 2 plus
        (1, 0, 0, 0)."""
        def skewed(self, j, k, u_j, u_k):
            vectors, factor = original(self, j, k, u_j, u_k)
            vectors[later] = vectors[2] + [1, 0, 0, 0]
            return vectors, factor
        return skewed

    def test_float_witness_is_the_largest_row(self, monkeypatch):
        # floats: the witness is the row of largest norm among the
        # unit-scaled vectors, read as it is: a row scaled up becomes the
        # witness with the same point, and a smaller row moved off the line
        # of the others changes nothing, since no other row is cross-checked
        rig = standard_rig()
        float_rig = CameraRig([c.matrix.to_float() for c in rig.cameras])
        u = tuple(p.to_float() for p in forward_map(rig, ProjectivePoint((1, 1, 0, 1))))
        want = ProjectivePoint((1.0, 1.0, 0.0, 1.0))
        w = multiview_membership(float_rig, u).cofactors.vectors(0, 1)[0].tolist()
        assert [i for i, row in enumerate(w) if any(row)] == [2, 5]
        assert sum(c * c for c in w[5]) > sum(c * c for c in w[2])
        sol = triangulate(float_rig, u)
        assert (sol.pair, sol.row) == ((0, 1), 5)
        assert projectively_equal(sol.point, want, tol=1e-12)
        original = CameraRig._cofactor_vectors
        for later, row, change in ((3, 3, lambda w: 10 * w[2]), (4, 4, lambda w: -3 * w[5]),
                                   (3, 5, lambda w: w[2] + [0.5, 0, 0, 0]),
                                   (4, 5, lambda w: w[2] + [0, 0, 0, 0.5])):
            def changed(self, j, k, u_j, u_k):
                vectors, factor = original(self, j, k, u_j, u_k)
                vectors[later] = change(vectors)
                return vectors, factor
            monkeypatch.setattr(CameraRig, "_cofactor_vectors", changed)
            sol = triangulate(float_rig, u)
            assert (sol.pair, sol.row) == ((0, 1), row), later
            assert projectively_equal(sol.point, want, tol=1e-12)
        monkeypatch.undo()

    def test_exact_witness_is_not_cross_checked(self, monkeypatch):
        # exact: the witness of the consistency pass is read as it is, so
        # later rows made to disagree change neither the point nor a verdict
        rig = standard_rig()
        u, v, w = (forward_map(rig, ProjectivePoint(x))
                   for x in ((1, 1, 0, 1), (1, 1, 1, 1), (1, 1, 3, 1)))
        want = [triangulate(rig, t) for t in (u, v)]
        assert rigid_pair_oracle(rig, u, v) and not rigid_pair_oracle(rig, u, w)
        original = CameraRig._cofactor_vectors
        for later in (3, 4, 5):
            monkeypatch.setattr(CameraRig, "_cofactor_vectors", self._skewed(original, later))
            skewed = multiview_membership(rig, u).cofactors.vectors(0, 1)[0].tolist()
            assert rank(Mat(skewed)).rank == 2
            for t, sol in zip((u, v), want):
                got = triangulate(rig, t)
                assert (got.pair, got.row) == (sol.pair, sol.row)
                assert got.point.coords == sol.point.coords and got.lambdas == sol.lambdas
            assert rigid_pair_oracle(rig, u, v) and not rigid_pair_oracle(rig, u, w)

    def test_fraction_rig_divides_the_denominator_out(self):
        # a rig whose minor table is stored times den > 1 gives the witness
        # pair, row, point and scales of the determinant reference, in value
        # and type: the first pair of rank 5, the first row of it whose
        # cofactor vector has a nonzero point, and that vector itself
        rng = random.Random(139)
        for n in (2, 3):
            rig = fraction_rig(rng, n)
            assert all(rig.minor_table(j, k)[1] > 1 for j in range(n) for k in range(j + 1, n))
            for _ in range(4):
                u = forward_map(rig, ProjectivePoint(random_world_point(rng)))
                sol = triangulate(rig, u)
                pairs = [(j, k) for j in range(n) for k in range(j + 1, n)
                         if rank(assemble_b(rig, j, k, u[j], u[k]).mat).rank == 5]
                assert sol.pair == pairs[0]
                b = assemble_b(rig, *sol.pair, u[sol.pair[0]], u[sol.pair[1]])
                rows = [i for i in range(6) if any(wedge5(b, i)[:4])]
                assert sol.row == rows[0]
                want = wedge5(b, sol.row)
                vector = sol.point.coords + tuple(-s for s in sol.lambdas)
                assert vector == want
                assert [type(c) for c in vector] == [type(c) for c in want]

    def test_rank_of_b_is_rank_of_witness_pair(self):
        rng = random.Random(127)
        for n in (2, 3, 4):
            rig = random_rig(rng, n)
            for _ in range(3):
                u = forward_map(rig, ProjectivePoint(random_world_point(rng)))
                sol = triangulate(rig, u)
                j, k = sol.pair
                assert rank(assemble_b(rig, j, k, u[j], u[k]).mat).rank == 5
