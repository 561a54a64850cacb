import hashlib
import itertools
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (count_calls, engine_value, fraction_rig, naive_det, random_rig,
                     random_world_point, reference_cofactor_vectors, reference_rigid_pair_oracle,
                     scaled_rig, standard_rig, tensor_value, wedge5)
from rigidview.cameras import (
    CameraRig,
    ProjectivePoint,
    RigidMotion,
    apply_left_action,
    apply_right_action,
    cayley_rotation,
    forward_map,
    invert,
    multiview_membership,
)
from rigidview.constraints import (
    BihomForm,
    ChowFactorError,
    Family,
    chow_factor,
    chow_map,
    collinearity_discriminant,
    constraint_system,
    coplanar_residuals,
    distance_form,
    distance_form_squared,
    QuadTensor,
    polarize,
    rigid_pair_by_equations,
    rigid_pair_oracle,
    squared_distance_discriminant,
    triangle_inequality_ok,
    trilinear_residuals,
    unit_distance_form,
)
from rigidview import cameras, constraints, harness, triangulation
from rigidview.linalg import EXACT, INT64_LIMIT, BackendError, Mat, ShapeError, det
from rigidview.polyspace import all_octics_symbolic, expand_wedge_symbolic
from rigidview.triangulation import assemble_b


def unit_pair(rng):
    """Exact rational pair at unit distance, via a rational point of the sphere."""
    x = random_world_point(rng)
    p = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
    q = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
    s = p * p + q * q + 1
    direction = (2 * p / s, 2 * q / s, (p * p + q * q - 1) / s)
    y = tuple(a + b for a, b in zip(x[:3], direction)) + (Fraction(1),)
    return ProjectivePoint(x), ProjectivePoint(y)


def brute_wedge(rig, j, k, uj, uk, row):
    """Cofactor vector via naive permutation determinants (oracle path)."""
    zero = 0
    aj, ak = rig.camera(j).matrix, rig.camera(k).matrix
    rows = [list(aj.data[r]) + [uj[r], zero] for r in range(3)]
    rows += [list(ak.data[r]) + [zero, uk[r]] for r in range(3)]
    m = Mat(rows).delete_row(row)
    out = []
    for i in range(6):
        d = naive_det(m.delete_col(i))
        out.append(d if i % 2 == 0 else -d)
    return tuple(out[:4])


# forms of bidegree (1, 1), (1, 2) and (3, 1), with Fraction coefficients
FORM11 = BihomForm((1, 1), {((1, 0, 0, 0), (0, 0, 0, 1)): 3, ((0, 1, 0, 0), (0, 0, 1, 0)): -2,
                            ((0, 0, 0, 1), (0, 0, 0, 1)): Fraction(1, 2)})
FORM12 = BihomForm((1, 2), {((1, 0, 0, 0), (0, 1, 1, 0)): 3, ((0, 0, 0, 1), (0, 0, 0, 2)): -1,
                            ((0, 0, 1, 0), (2, 0, 0, 0)): Fraction(2, 5),
                            ((0, 1, 0, 0), (1, 0, 0, 1)): 1})
FORM31 = BihomForm((3, 1), {((2, 0, 0, 1), (0, 0, 1, 0)): 2, ((0, 1, 1, 1), (1, 0, 0, 0)): -1,
                            ((3, 0, 0, 0), (0, 0, 0, 1)): Fraction(1, 3),
                            ((0, 0, 0, 3), (0, 0, 0, 1)): 5})


class TestDistanceForms:
    def test_unit_distance_values(self):
        q = unit_distance_form()
        assert q.evaluate((0, 0, 0, 1), (1, 0, 0, 1)) == 0
        assert q.evaluate((0, 0, 0, 1), (2, 0, 0, 1)) == 3
        assert q.evaluate((0, 0, 0, 1), (1, 0, 0, 0)) == 1

    def test_distance_two(self):
        q = distance_form(2)
        assert q.evaluate((0, 0, 0, 1), (2, 0, 0, 1)) == 0
        assert q.evaluate((0, 0, 0, 1), (1, 0, 0, 1)) == -3

    def test_distance_one_equals_unit(self):
        assert distance_form(1) == unit_distance_form()

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            distance_form(0)

    def test_bidegree_validation(self):
        with pytest.raises(ValueError):
            BihomForm((1, 1), {((2, 0, 0, 0), (1, 0, 0, 0)): 1})


class TestPolarization:
    def test_diagonal_restriction(self):
        rng = random.Random(113)
        q = unit_distance_form()
        t = polarize(q)
        for _ in range(50):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            assert tensor_value(t, x, x, y, y) == q.evaluate(x, y)

    def test_multilinearity(self):
        t = polarize(unit_distance_form())
        x = (1, 2, 3, 4)
        x2 = (5, -1, 0, 2)
        y = (0, 1, 1, 3)
        y2 = (2, 2, -5, 1)
        doubled = tensor_value(t, tuple(2 * c for c in x), x2, y, y2)
        assert doubled == 2 * tensor_value(t, x, x2, y, y2)
        summed = tensor_value(t, tuple(a + b for a, b in zip(x, x2)), x2, y, y2)
        assert summed == tensor_value(t, x, x2, y, y2) + tensor_value(t, x2, x2, y, y2)

    def test_slot_symmetry(self):
        t = polarize(unit_distance_form())
        x, x2 = (1, 2, 3, 4), (5, -1, 0, 2)
        y, y2 = (0, 1, 1, 3), (2, 2, -5, 1)
        assert tensor_value(t, x, x2, y, y2) == tensor_value(t, x2, x, y, y2)
        assert tensor_value(t, x, x2, y, y2) == tensor_value(t, x, x2, y2, y)

    def test_last_coefficient(self):
        t = polarize(unit_distance_form())
        e4 = (0, 0, 0, 1)
        assert tensor_value(t, e4, e4, e4, e4) == -1

    @pytest.mark.parametrize("form", [FORM12, FORM31], ids=["form12", "form31"])
    def test_diagonal_restriction_other_bidegrees(self, form):
        # the tensor as a full multilinear array, every ordered index tuple
        # reading the entry of its sorted one, on repeated arguments
        rng = random.Random(117)
        t = polarize(form)
        d, e = form.bidegree
        for _ in range(20):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            value = sum(t.entries.get((tuple(sorted(p)), tuple(sorted(r))), 0)
                        * prod(x[i] for i in p) * prod(y[i] for i in r)
                        for p in itertools.product(range(4), repeat=d)
                        for r in itertools.product(range(4), repeat=e))
            assert value == form.evaluate(x, y)


class TestOcticValue:
    def test_vanishes_on_unit_pair_images(self):
        rng = random.Random(127)
        t = polarize(unit_distance_form())
        rig = random_rig(rng, 2)
        x, y = unit_pair(rng)
        u = forward_map(rig, x)
        v = forward_map(rig, y)
        for i1 in range(3):
            for i3 in range(3):
                assert engine_value(rig, t, (0, 1, i1, i1), (0, 1, i3, i3), u, v) == 0

    def test_known_nonzero_value_via_brute_force_minors(self):
        # world points (0,0,1,1) and (0,2,1,1) sit at squared distance 4, so
        # the constraint value is 3 before the wedge scales come in
        rig = standard_rig()
        x = ProjectivePoint((0, 0, 1, 1))
        y = ProjectivePoint((0, 2, 1, 1))
        u = forward_map(rig, x)
        v = forward_map(rig, y)
        assert u[0] == ProjectivePoint((0, 0, 1)) and u[1] == ProjectivePoint((1, 0, 1))
        assert v[0] == ProjectivePoint((0, 2, 1)) and v[1] == ProjectivePoint((1, 2, 1))
        t = polarize(unit_distance_form())
        checked = 0
        for i in range(6):
            wu = brute_wedge(rig, 0, 1, u[0], u[1], i)
            if all(c == 0 for c in wu):
                continue
            c = next(wu[t_] // x.coords[t_] for t_ in range(4) if x.coords[t_] != 0)
            assert wu == tuple(c * cc for cc in x.coords)
            for k in range(6):
                wv = brute_wedge(rig, 0, 1, v[0], v[1], k)
                if all(cc == 0 for cc in wv):
                    continue
                d = next(wv[t_] // y.coords[t_] for t_ in range(4) if y.coords[t_] != 0)
                assert engine_value(rig, t, (0, 1, i, i), (0, 1, k, k), u, v) == 3 * c * c * d * d
                checked += 1
        assert checked > 0

    def test_epipole_pair_side_vanishes(self):
        rng = random.Random(131)
        rig = random_rig(rng, 2)
        t = polarize(unit_distance_form())
        x = ProjectivePoint(random_world_point(rng))
        u = forward_map(rig, x)
        v = (rig.epipole(0, 1), rig.epipole(1, 0))
        for i1, i2 in ((0, 0), (1, 3), (2, 5)):
            for i3, i4 in ((0, 0), (2, 4)):
                assert engine_value(rig, t, (0, 1, i1, i2), (0, 1, i3, i4), u, v) == 0

    def test_scale_covariance(self):
        rng = random.Random(137)
        rig = random_rig(rng, 2)
        t = polarize(unit_distance_form())
        x, y = unit_pair(rng)
        u = forward_map(rig, ProjectivePoint((1, 2, 3, 1)))
        v = forward_map(rig, ProjectivePoint((5, -2, 1, 1)))
        base = engine_value(rig, t, (0, 1, 0, 1), (0, 1, 2, 2), u, v)
        scaled_u = (u[0].scaled(7), u[1])
        assert engine_value(rig, t, (0, 1, 0, 1), (0, 1, 2, 2), scaled_u, v) == 49 * base


def _camera_mats(n):
    entry = st.integers(-20, 20)
    row = st.lists(entry, min_size=4, max_size=4)
    return st.lists(st.lists(row, min_size=3, max_size=3).map(Mat), min_size=n, max_size=n)


def _image_point(coord):
    return (st.lists(coord, min_size=3, max_size=3)
            .filter(lambda c: any(x != 0 for x in c)).map(ProjectivePoint))


# integer-cleared coordinates, and Fraction coordinates
EXACT_COORDS = (st.integers(-10**6, 10**6),
                st.fractions(min_value=-50, max_value=50, max_denominator=12))
# six-digit floats in [-1, 1]: no subnormal products
FLOAT_COORD = st.integers(-10**6, 10**6).map(lambda k: k / 10**6)


def _image_tuples(coord, n, count):
    return st.lists(st.lists(_image_point(coord), min_size=n, max_size=n).map(tuple),
                    min_size=count, max_size=count)


def reference_values(system, tuples, tensors=None):
    """Per-index reference: QuadTensor.value over wedge5 cofactor vectors.
    ``tensors`` maps each block (a, b) of tuples to its tensor; by default
    the unit-distance tensor on block (0, 1)."""
    rig, vectors = system.rig, {}
    tensors = tensors or {(0, 1): polarize(unit_distance_form())}

    def w(t, j, k, i):
        if (t, j, k) not in vectors:
            pts = tuples[t]
            b = assemble_b(rig, j, k, pts[j], pts[k])
            vectors[(t, j, k)] = [wedge5(b, row)[:4] for row in range(6)]
        return vectors[(t, j, k)][i]

    out = []
    for idx in system.indices:
        if system.family == Family.PAIRWISE_DISTANCE:
            (a, b), u_sel, v_sel = idx
        else:
            (a, b), (u_sel, v_sel) = (0, 1), idx
        tensor = tensors[(a, b)]
        (j1, k1, i1, i2), (j2, k2, i3, i4) = u_sel, v_sel
        out.append(tensor_value(tensor, w(a, j1, k1, i1), w(a, j1, k1, i2),
                                w(b, j2, k2, i3), w(b, j2, k2, i4)))
    return out, vectors


def _families(n):
    fams = [Family.OCTIC_FULL, Family.OCTIC_NINE]
    return fams + [Family.OCTIC_SIXTEEN] if n >= 3 else fams


class TestContractionEngine:
    """The contraction engine against the per-index reference."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("coord", EXACT_COORDS, ids=["int", "fraction"])
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_octic_families_equal_reference_exactly(self, n, coord, data):
        rig = CameraRig(data.draw(_camera_mats(n)))
        u, v = data.draw(_image_tuples(coord, n, 2))
        for family in _families(n):
            system = constraint_system(rig, family)
            assert system.evaluate(u, v) == reference_values(system, (u, v))[0]

    @pytest.mark.parametrize("coord", EXACT_COORDS, ids=["int", "fraction"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), squared=st.lists(
        st.fractions(min_value=Fraction(1, 30), max_value=50, max_denominator=30),
        min_size=3, max_size=3))
    def test_pairwise_distance_equals_reference_exactly(self, coord, data, squared):
        rig = CameraRig(data.draw(_camera_mats(3)))
        tuples3 = data.draw(_image_tuples(coord, 3, 3))
        system = constraint_system(rig, Family.PAIRWISE_DISTANCE, squared_distances=squared)
        tensors = {pair: polarize(distance_form_squared(s))
                   for pair, s in zip([(0, 1), (0, 2), (1, 2)], squared)}
        assert system.evaluate(*tuples3) == reference_values(system, tuples3, tensors)[0]

    @pytest.mark.parametrize("n", [2, 3])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), scale=st.floats(min_value=1e-2, max_value=1e2))
    def test_float_rig_agrees_with_reference(self, n, data, scale):
        rig = CameraRig([m.scaled(scale).to_float() for m in data.draw(_camera_mats(n))])
        u, v = data.draw(_image_tuples(FLOAT_COORD, n, 2))
        for family in _families(n):
            system = constraint_system(rig, family)
            want, vectors = reference_values(system, (u, v))
            tensor = polarize(unit_distance_form())
            bound = QuadTensor({key: abs(c) for key, c in tensor.entries.items()}, (2, 2))
            for idx, got, ref in zip(system.indices, system.evaluate(u, v), want):
                (j1, k1, i1, i2), (j2, k2, i3, i4) = idx
                size = tensor_value(bound, *([abs(x) for x in vectors[key][i]] for key, i in (
                    ((0, j1, k1), i1), ((0, j1, k1), i2), ((1, j2, k2), i3), ((1, j2, k2), i4))))
                assert abs(got - ref) <= 1e-12 * size

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make_rig", [random_rig, fraction_rig], ids=["int", "fraction"])
    def test_exact_values_are_int_when_integral(self, n, make_rig):
        # every engine family, on a member pair and on Fraction image points
        rng = random.Random(f"types:{make_rig.__name__}:{n}")
        rig = make_rig(rng, n)
        x, y = unit_pair(rng)
        member = (forward_map(rig, x), forward_map(rig, y))
        other = tuple(tuple(ProjectivePoint((Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                             rng.randint(-9, 9), rng.randint(1, 9)))
                            for _ in range(n)) for _ in range(3))
        systems = [constraint_system(rig, family) for family in _families(n)]
        systems += [constraint_system(rig, Family.GENERAL_DE, form=form)
                    for form in (FORM11, distance_form(2), FORM31)]
        systems.append(constraint_system(rig, Family.PAIRWISE_DISTANCE,
                                         squared_distances=(1, Fraction(9, 4), 2)))
        seen = set()
        for system in systems:
            count = 3 if system.family == Family.PAIRWISE_DISTANCE else 2
            for tuples in (member + other[:1], other):
                for value in system.evaluate(*tuples[:count]):
                    want = int if Fraction(value).denominator == 1 else Fraction
                    assert type(value) is want
                    seen.add(want)
        assert seen == {int, Fraction}

    def test_backends_do_not_mix(self):
        rig = standard_rig()
        u = (ProjectivePoint((0.0, 0.0, 1.0)), ProjectivePoint((1.0, 0.0, 1.0)))
        with pytest.raises(BackendError):
            constraint_system(rig, Family.OCTIC_NINE).evaluate(u, u)

    @pytest.mark.parametrize("coord", EXACT_COORDS, ids=["int", "fraction"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), pair=st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 1)]))
    def test_minor_table_equals_wedge5(self, coord, data, pair):
        rig = CameraRig(data.draw(_camera_mats(3)))
        (points,) = data.draw(_image_tuples(coord, 3, 1))
        j, k = pair
        w, factor = rig.cofactor_vectors(j, k, points[j], points[k])
        b = assemble_b(rig, j, k, points[j], points[k])
        for i, row in enumerate(w.tolist()):
            assert tuple(Fraction(x, factor) for x in row) == wedge5(b, i)[:4]


class TestStoredTablesOnly:
    def test_requests_build_no_minor_table(self, monkeypatch):
        # the exact-pairs requests (both verdicts on member, non-member and
        # epipole pairs), the octic and general-form values and the symbolic
        # expansions read the tables the rig built, and build none
        rng = random.Random(151)
        tensor = polarize(unit_distance_form())
        for n in (2, 3, 4):
            rig = harness.random_rig(rng, n)
            u, v, _, _ = harness.sample_member_pair(rig, rng)
            w, z, _, _ = harness.sample_nonmember_pair(rig, rng)
            pairs = [(u, v), (w, z)]
            if n == 2:
                pairs.append((u, (rig.epipole(0, 1), rig.epipole(1, 0))))
            tables = count_calls(monkeypatch, cameras, "camera_minor_table")
            for a, b in pairs:
                rigid_pair_by_equations(rig, a, b, Family.OCTIC_FULL)
                rigid_pair_oracle(rig, a, b)
            constraint_system(rig, Family.OCTIC_FULL).evaluate(u, v)
            constraint_system(rig, Family.GENERAL_DE, form=distance_form(2)).evaluate(u, v)
            all_octics_symbolic(rig, tensor, (0, 1), (1, 0))
            expand_wedge_symbolic(rig, 1, 0, 2)
            assert tables == []
            monkeypatch.undo()


class TestConstraintSystems:
    def test_family_sizes(self):
        rng = random.Random(139)
        rig2 = random_rig(rng, 2)
        rig3 = random_rig(rng, 3)
        assert len(constraint_system(rig2, Family.OCTIC_NINE)) == 9
        assert len(constraint_system(rig3, Family.OCTIC_NINE)) == 81
        assert len(constraint_system(rig2, Family.OCTIC_FULL)) == 441
        assert len(constraint_system(rig3, Family.OCTIC_FULL)) == 441 * 9
        assert len(constraint_system(rig3, Family.OCTIC_SIXTEEN)) == 16
        assert len(constraint_system(rig2, Family.MULTIVIEW_BILINEAR)) == 2
        assert len(constraint_system(rig3, Family.MULTIVIEW_BILINEAR)) == 6
        assert len(constraint_system(rig3, Family.MULTIVIEW_TRILINEAR)) == 72

    def test_sixteen_needs_three_cameras(self):
        rng = random.Random(149)
        with pytest.raises(ValueError):
            constraint_system(random_rig(rng, 2), Family.OCTIC_SIXTEEN)

    def test_bilinear_vanishes_on_members(self):
        rng = random.Random(151)
        rig = random_rig(rng, 3)
        x, y = unit_pair(rng)
        u, v = forward_map(rig, x), forward_map(rig, y)
        system = constraint_system(rig, Family.MULTIVIEW_BILINEAR)
        assert all(val == 0 for val in system.evaluate(u, v))

    @pytest.mark.parametrize("n", [2, 3])
    def test_bilinear_equals_two_camera_determinant(self, n):
        rng = random.Random(149 + n)
        rig = random_rig(rng, n)
        x, y = unit_pair(rng)
        member = tuple(p.scaled(Fraction(1, 3)) for p in forward_map(rig, x))
        other = tuple(ProjectivePoint((Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                       rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(n))
        system = constraint_system(rig, Family.MULTIVIEW_BILINEAR)
        for u, v in ((member, other), (other, forward_map(rig, y))):
            sides = {"u": u, "v": v}
            want = [det(assemble_b(rig, j, k, sides[s][j], sides[s][k]).mat)
                    for s, j, k in system.indices]
            got = system.evaluate(u, v)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]
            assert any(want)

    # the engine-backed families and COPLANAR check the count; the others
    # take their tuples as named parameters
    @pytest.mark.parametrize("family, count, params, error", [
        (Family.OCTIC_FULL, 2, {}, ShapeError),
        (Family.OCTIC_NINE, 2, {}, ShapeError),
        (Family.OCTIC_SIXTEEN, 2, {}, ShapeError),
        (Family.MULTIVIEW_BILINEAR, 2, {}, TypeError),
        (Family.MULTIVIEW_TRILINEAR, 2, {}, TypeError),
        (Family.COPLANAR, 4, {}, ShapeError),
        (Family.PAIRWISE_DISTANCE, 3, {"squared_distances": (1, 1, 1)}, ShapeError),
        (Family.GENERAL_DE, 2, {"form": unit_distance_form()}, TypeError),
    ])
    def test_wrong_tuple_count_raises(self, family, count, params, error):
        rng = random.Random(163)
        rig = random_rig(rng, 3)
        tuples = [forward_map(rig, ProjectivePoint(random_world_point(rng)))
                  for _ in range(count + 1)]
        system = constraint_system(rig, family, **params)
        assert len(system.evaluate(*tuples[:count])) == len(system)
        for wrong in (tuples[:count - 1], tuples):
            with pytest.raises(error):
                system.evaluate(*wrong)

    def test_parameter_the_family_does_not_read_raises(self):
        rig = random_rig(random.Random(167), 3)
        # removed or misspelt keywords
        with pytest.raises(TypeError):
            constraint_system(rig, "coplanar", pairs=((0, 1),) * 4, rows=((0,),) * 4)
        with pytest.raises(TypeError):
            constraint_system(rig, "octic_nine", fomr=distance_form(3))
        # a known keyword on a family that does not read it
        for family in (Family.MULTIVIEW_BILINEAR, Family.MULTIVIEW_TRILINEAR, Family.COPLANAR):
            with pytest.raises(ValueError):
                constraint_system(rig, family, form=unit_distance_form())
            with pytest.raises(ValueError):
                constraint_system(rig, family, squared_distances=(1, 1, 2))
        with pytest.raises(ValueError):
            constraint_system(rig, Family.PAIRWISE_DISTANCE, form=unit_distance_form(),
                              squared_distances=(1, 1, 2))
        for family in (Family.OCTIC_FULL, Family.OCTIC_NINE, Family.OCTIC_SIXTEEN,
                       Family.GENERAL_DE):
            with pytest.raises(ValueError):
                constraint_system(rig, family, form=unit_distance_form(),
                                  squared_distances=(1, 1, 2))
        for wrong in (None, (1, 1), (1, 1, 2, 3)):
            with pytest.raises(ValueError):
                constraint_system(rig, Family.PAIRWISE_DISTANCE, squared_distances=wrong)
        with pytest.raises(ValueError):
            constraint_system(rig, Family.GENERAL_DE)


class TestTrilinear:
    def test_consistent_triple_vanishes(self):
        rng = random.Random(167)
        rig = random_rig(rng, 3)
        x = ProjectivePoint(random_world_point(rng))
        u = forward_map(rig, x)
        res = trilinear_residuals(rig, 0, 1, 2, u[0], u[1], u[2])
        assert len(res) == 36
        assert all(r == 0 for r in res)

    def test_generic_triple_fails(self):
        rng = random.Random(173)
        rig = random_rig(rng, 3)
        res = trilinear_residuals(rig, 0, 1, 2,
                                  ProjectivePoint((1, 2, 3)),
                                  ProjectivePoint((-1, 5, 2)),
                                  ProjectivePoint((4, 4, 1)))
        assert any(r != 0 for r in res)

    def test_perturbed_third_view_fails(self):
        rng = random.Random(179)
        rig = random_rig(rng, 3)
        x = ProjectivePoint(random_world_point(rng))
        u = forward_map(rig, x)
        bad = ProjectivePoint((u[2][0] + 1, u[2][1], u[2][2]))
        res = trilinear_residuals(rig, 0, 1, 2, u[0], u[1], bad)
        assert any(r != 0 for r in res)

    @pytest.mark.parametrize("n", [3, 4])
    def test_system_concatenates_residuals_in_index_order(self, n):
        rng = random.Random(181 + n)
        rig = random_rig(rng, n)
        # random image points: neither tuple is consistent, so the residuals
        # are nonzero and differ from one minor to the next
        u, v = (tuple(ProjectivePoint((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)))
                      for _ in range(n)) for _ in range(2))
        system = constraint_system(rig, Family.MULTIVIEW_TRILINEAR)
        want, idx = [], []
        for side, pts in (("u", u), ("v", v)):
            for j, k, l in itertools.combinations(range(n), 3):
                want += trilinear_residuals(rig, j, k, l, pts[j], pts[k], pts[l])
                idx += [(side, (j, k, l), rows) for rows in itertools.combinations(range(9), 7)]
        got = system.evaluate(u, v)
        assert list(system.indices) == idx
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
        assert len(set(want)) > len(want) // 2


class TestMembership:
    def test_oracle_accepts_unit_pairs(self):
        rng = random.Random(181)
        for n in (2, 3):
            rig = random_rig(rng, n)
            x, y = unit_pair(rng)
            assert rigid_pair_oracle(rig, forward_map(rig, x), forward_map(rig, y))

    def test_oracle_rejects_distance_two(self):
        rng = random.Random(191)
        rig = random_rig(rng, 2)
        x = ProjectivePoint((0, 0, 0, 1))
        y = ProjectivePoint((2, 0, 0, 1))
        assert not rigid_pair_oracle(rig, forward_map(rig, x), forward_map(rig, y))

    def test_oracle_accepts_epipole_component(self):
        rng = random.Random(193)
        rig = random_rig(rng, 2)
        x = ProjectivePoint(random_world_point(rng))
        u = forward_map(rig, x)
        ep = (rig.epipole(0, 1), rig.epipole(1, 0))
        assert rigid_pair_oracle(rig, u, ep)
        assert rigid_pair_oracle(rig, ep, u)

    def test_equations_agree_with_oracle(self):
        rng = random.Random(197)
        rig = random_rig(rng, 2)
        cases = []
        for _ in range(5):
            x, y = unit_pair(rng)
            cases.append((forward_map(rig, x), forward_map(rig, y)))
        x = ProjectivePoint(random_world_point(rng))
        y = ProjectivePoint(random_world_point(rng))
        cases.append((forward_map(rig, x), forward_map(rig, y)))
        ep = (rig.epipole(0, 1), rig.epipole(1, 0))
        cases.append((forward_map(rig, x), ep))
        for u, v in cases:
            assert (rigid_pair_by_equations(rig, u, v, Family.OCTIC_FULL)
                    == rigid_pair_oracle(rig, u, v))

    def test_sixteen_agrees_with_oracle_three_cameras(self):
        rng = random.Random(199)
        rig = random_rig(rng, 3)
        for _ in range(3):
            x, y = unit_pair(rng)
            u, v = forward_map(rig, x), forward_map(rig, y)
            assert rigid_pair_by_equations(rig, u, v, Family.OCTIC_SIXTEEN)
            assert rigid_pair_oracle(rig, u, v)
        x = ProjectivePoint(random_world_point(rng))
        y = ProjectivePoint((x[0] + 5, x[1], x[2], x[3]))
        u, v = forward_map(rig, x), forward_map(rig, y)
        assert not rigid_pair_by_equations(rig, u, v, Family.OCTIC_SIXTEEN)
        assert not rigid_pair_oracle(rig, u, v)

    def test_nonmember_tuple_rejected_without_octics(self):
        rng = random.Random(211)
        rig = random_rig(rng, 2)
        u = (ProjectivePoint((1, 2, 3)), ProjectivePoint((4, 5, 6)))
        v = u
        assert not rigid_pair_by_equations(rig, u, v)

    def test_epipole_side_passes_nine_family(self):
        rng = random.Random(223)
        rig = random_rig(rng, 2)
        x = ProjectivePoint(random_world_point(rng))
        u = forward_map(rig, x)
        ep = (rig.epipole(0, 1), rig.epipole(1, 0))
        assert rigid_pair_by_equations(rig, u, ep, Family.OCTIC_NINE)


    def test_equations_build_no_constraint_system(self, monkeypatch):
        rng = random.Random(233)
        rig = random_rig(rng, 3)
        x, y = unit_pair(rng)
        u, v = forward_map(rig, x), forward_map(rig, y)
        systems = count_calls(monkeypatch, constraints, "constraint_system")
        indices = count_calls(monkeypatch, constraints, "_row_set_indices")
        for family in (Family.OCTIC_FULL, Family.OCTIC_NINE, Family.OCTIC_SIXTEEN):
            assert rigid_pair_by_equations(rig, u, v, family)
        assert systems == [] and indices == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_float_verdicts_equal_the_exact_ones_at_any_scale(self, n):
        # every float verdict is scale-free: after each camera is multiplied
        # by 10^U(-2, 2) and each image point by 10^U(-3, 3) (or taken as
        # its integer-cleared float), the consistency of each side, every
        # octic family and the oracle give the exact verdicts
        seen = set()
        for i in range(8):
            rng = random.Random(f"float-scale:{n}:{i}")
            rig = random_rig(rng, n)
            cases = _scale_cases(rig, rng)
            want = [_verdicts(rig, u, v) for _, u, v in cases]
            for run in range(4):
                frig = _rescaled_rig(rig, rng)
                for (kind, u, v), verdicts in zip(cases, want):
                    fu, fv = (_rescaled_points(t, rng, raw=run == 0) for t in (u, v))
                    assert _verdicts(frig, fu, fv) == verdicts, (kind, i, run)
                    seen.add((kind, verdicts[-1]))
        assert {("member", True), ("nonmember", False), ("moved", False)} <= seen
        assert n > 2 or ("epipole", True) in seen

    def test_float_vanish_tolerance_is_the_verdicts_tol(self):
        # the float ratios are tested against the verdict's tol: a rescaled
        # non-member pair fails at the default and passes at a tol above
        # every ratio
        rng = random.Random("float-tol")
        rig = random_rig(rng, 3)
        w, z, _, _ = harness.sample_nonmember_pair(rig, rng)
        frig = _rescaled_rig(rig, rng)
        fw, fz = (_rescaled_points(t, rng, raw=False) for t in (w, z))
        for family in _families(3):
            assert not rigid_pair_by_equations(frig, fw, fz, family)
            assert rigid_pair_by_equations(frig, fw, fz, family, tol=10.0)
        assert not rigid_pair_oracle(frig, fw, fz)
        assert rigid_pair_oracle(frig, fw, fz, tol=10.0)

    def test_float_oracle_on_integer_cleared_members(self):
        # a member pair read as the floats of its integer-cleared coordinates
        # (about 1e10) on a three-camera rig: the unit-scaled pass finds a
        # witness on each side, so the oracle accepts it as the exact one
        # does, and blames no rig
        rng = random.Random("oracle:False:3")
        rig = random_rig(rng, 3)
        u, v, _, _ = harness.sample_member_pair(rig, rng)
        assert max(abs(c) for p in u + v for c in p.coords) > 1e9
        frig = CameraRig([cam.matrix.to_float() for cam in rig.cameras])
        fu, fv = (tuple(p.to_float() for p in t) for t in (u, v))
        assert rigid_pair_oracle(rig, u, v)
        assert rigid_pair_oracle(frig, fu, fv)
        assert rigid_pair_by_equations(frig, fu, fv, Family.OCTIC_SIXTEEN)

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_rejects_inconsistent_side(self, n):
        rng = random.Random(227 + n)
        rig = random_rig(rng, n)
        x, y = unit_pair(rng)
        u, v = forward_map(rig, x), forward_map(rig, y)
        bad = ProjectivePoint((u[1][0] + 1, u[1][1], u[1][2]))
        bad_u = (u[0], bad) + u[2:]
        bad_v = (v[0], bad) + v[2:]
        assert not multiview_membership(rig, bad_u).ok
        assert not multiview_membership(rig, bad_v).ok
        assert rigid_pair_oracle(rig, u, v)
        assert not rigid_pair_oracle(rig, bad_u, v)
        assert not rigid_pair_oracle(rig, u, bad_v)

    def test_oracle_inconsistent_side_decides_before_epipole_side(self):
        rng = random.Random(233)
        rig = random_rig(rng, 2)
        ep = (rig.epipole(0, 1), rig.epipole(1, 0))
        bad = (ProjectivePoint((1, 2, 3)), ProjectivePoint((4, 5, 6)))
        assert det(assemble_b(rig, 0, 1, *bad).mat) != 0
        assert not rigid_pair_oracle(rig, ep, bad)
        assert not rigid_pair_oracle(rig, bad, ep)

    @pytest.mark.parametrize("n", [2, 3])
    def test_verdicts_check_both_tuples_before_consistency(self, n):
        # a tuple that does not fit the rig (too few points, a world point,
        # floats on an exact rig) raises on either side, whether the other
        # side is consistent or not: an inconsistent side never decides
        # before both tuples are checked
        rng = random.Random(f"fit:{n}")
        rig = random_rig(rng, n)
        x, y = unit_pair(rng)
        u, v = forward_map(rig, x), forward_map(rig, y)
        bad = (ProjectivePoint((1, 2, 3)),) + u[1:]
        assert not multiview_membership(rig, bad).ok
        unfit = [(v[:-1], ShapeError), (v[:-1] + (ProjectivePoint((1, 2, 3, 4)),), ShapeError),
                 (tuple(p.to_float() for p in v), BackendError)]
        verdicts = [lambda a, b: rigid_pair_oracle(rig, a, b)]
        verdicts += [lambda a, b, fam=fam: rigid_pair_by_equations(rig, a, b, fam)
                     for fam in _families(n)]
        for verdict in verdicts:
            assert verdict(u, v) and not verdict(bad, v) and not verdict(v, bad)
            for wrong, error in unfit:
                for side in (u, bad):
                    with pytest.raises(error):
                        verdict(side, wrong)
                    with pytest.raises(error):
                        verdict(wrong, side)

    def test_sixteen_family_on_two_cameras_raises_whatever_u(self):
        rng = random.Random(251)
        rig = random_rig(rng, 2)
        x, y = unit_pair(rng)
        u, v = forward_map(rig, x), forward_map(rig, y)
        bad = (ProjectivePoint((1, 2, 3)), ProjectivePoint((4, 5, 6)))
        assert not multiview_membership(rig, bad).ok
        for side in (u, bad):
            with pytest.raises(ValueError, match="three cameras"):
                rigid_pair_by_equations(rig, side, v, Family.OCTIC_SIXTEEN)

    def test_oracle_tests_membership_once_per_side(self, monkeypatch):
        # one membership per side, whose cofactor pass is also the witness
        # scan: the witness pair's vectors are computed once, and no
        # elimination runs on a tuple with a witness
        rng = random.Random(239)
        for n in (2, 3, 4):
            rig = random_rig(rng, n)
            x, y = unit_pair(rng)
            u, v = forward_map(rig, x), forward_map(rig, y)
            calls = []
            for module in (triangulation, constraints):
                count_calls(monkeypatch, module, "multiview_membership", calls)
            vectors = count_calls(monkeypatch, CameraRig, "_cofactor_vectors")
            eliminations = count_calls(monkeypatch, cameras, "_exact_rank")
            assert rigid_pair_oracle(rig, u, v)
            monkeypatch.undo()
            assert [c[1] for c in calls] == [u, v]
            assert [c[1:3] for c in vectors] == [(0, 1), (0, 1)]
            assert eliminations == []

    def test_equations_compute_each_pair_once(self, monkeypatch):
        # rigid_pair_by_equations reads the engine's vectors from the two
        # membership passes: the cofactor vectors of each camera pair and
        # side computed at most once, on u only the pairs up to its witness,
        # and no elimination on tuples with a witness; each family's call
        # has its own point objects, so none takes the last call's passes
        rng = random.Random(241)
        for n in (2, 3, 4):
            rig = random_rig(rng, n)
            x, y = unit_pair(rng)
            for family in _families(n):
                u, v = forward_map(rig, x), forward_map(rig, y)
                vectors = count_calls(monkeypatch, CameraRig, "_cofactor_vectors")
                eliminations = count_calls(monkeypatch, cameras, "_exact_rank")
                assert rigid_pair_by_equations(rig, u, v, family)
                monkeypatch.undo()
                keys = [(c[1], c[2], c[3] is u[c[1]]) for c in vectors]
                assert len(keys) == len(set(keys))
                want_v = constraints._octic_row_set(n, family)[0]
                assert sorted(k[:2] for k in keys if not k[2]) == sorted(set(want_v) | {(0, 1)})
                assert [k[:2] for k in keys if k[2]] == [(0, 1)]
                assert eliminations == []


class TestPairMembershipHandOff:
    """The two verdicts on one image pair share one consistency pass per
    side: the second takes the first's memberships once, when the rig and
    every point are the same objects."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The points of every consistency pass, from an empty hand-off slot."""
        monkeypatch.setattr(constraints, "_handoff", None)
        return count_calls(monkeypatch, cameras, "CofactorPass")

    @staticmethod
    def _member_pair(n):
        rig = random_rig(random.Random(f"handoff:{n}"), n)
        u, v, _, _ = harness.sample_member_pair(rig, random.Random(f"handoff-pair:{n}"))
        return rig, u, v

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("first", ["equations", "oracle"])
    def test_both_verdicts_make_two_passes(self, passes, n, first):
        rig, u, v = self._member_pair(n)
        verdicts = [rigid_pair_by_equations, rigid_pair_oracle]
        for verdict in verdicts if first == "equations" else verdicts[::-1]:
            assert verdict(rig, u, v)
        assert [c[1] for c in passes] == [u, v]

    def test_a_third_verdict_recomputes(self, passes):
        rig, u, v = self._member_pair(3)
        assert rigid_pair_by_equations(rig, u, v) and rigid_pair_oracle(rig, u, v)
        assert rigid_pair_by_equations(rig, u, v, Family.OCTIC_NINE)
        assert [c[1] for c in passes] == [u, v, u, v]

    def test_equal_but_distinct_objects_recompute(self, passes):
        # a rig rebuilt from the same cameras, and new point objects with
        # equal coordinates, each take passes of their own
        rig, u, v = self._member_pair(2)
        assert rigid_pair_by_equations(rig, u, v)
        assert rigid_pair_oracle(CameraRig(rig.cameras), u, v)
        assert len(passes) == 4
        assert rigid_pair_by_equations(rig, u, v)
        copy_u = tuple(ProjectivePoint(p.coords) for p in u)
        assert rigid_pair_oracle(rig, copy_u, v)
        assert len(passes) == 8
        # a list of the same objects is the same pair
        assert rigid_pair_by_equations(rig, list(copy_u), list(v))
        assert len(passes) == 8

    def test_an_inconsistent_u_runs_no_pass_on_v(self, passes):
        rig, u, v = self._member_pair(3)
        bad = _moved(u, 1, 0)
        assert not multiview_membership(rig, bad).ok
        del passes[:]
        assert not rigid_pair_oracle(rig, bad, v)
        assert [c[1] for c in passes] == [bad]
        assert not rigid_pair_by_equations(rig, bad, v)
        assert [c[1] for c in passes] == [bad]

    @staticmethod
    def _cases(n):
        """Exact and float ``(rig, u, v)``: member, non-member and moved pairs
        and, for two cameras, the epipole pair on either side."""
        rng = random.Random(f"handoff-cases:{n}")
        rig = random_rig(rng, n)
        frig = CameraRig([cam.matrix.to_float() for cam in rig.cameras])
        cases = []
        for _, u, v in _scale_cases(rig, rng):
            cases.append((rig, u, v))
            cases.append((frig, tuple(p.to_float() for p in u), tuple(p.to_float() for p in v)))
        return cases

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_handed_off_verdicts_equal_fresh_ones(self, monkeypatch, n):
        def fresh(verdict, *args):
            monkeypatch.setattr(constraints, "_handoff", None)
            return verdict(*args)

        seen = set()
        for rig, u, v in self._cases(n):
            want = (fresh(rigid_pair_by_equations, rig, u, v), fresh(rigid_pair_oracle, rig, u, v))
            seen.add((rig.backend, want))
            assert want[0] == want[1]
            monkeypatch.setattr(constraints, "_handoff", None)
            assert (rigid_pair_by_equations(rig, u, v), rigid_pair_oracle(rig, u, v)) == want
            assert (rigid_pair_oracle(rig, u, v), rigid_pair_by_equations(rig, u, v)) == want[::-1]
            # a call that raises between the two leaves the slot as it was
            assert rigid_pair_by_equations(rig, u, v) == want[0]
            other = tuple(p.to_float() if rig.backend == EXACT else ProjectivePoint((1, 2, 3))
                          for p in v)
            with pytest.raises(BackendError):
                rigid_pair_oracle(rig, u, other)
            passes = count_calls(monkeypatch, cameras, "CofactorPass")
            assert rigid_pair_oracle(rig, u, v) == want[1]
            assert passes == []
            monkeypatch.undo()
        assert {(b, (True, True)) for b in ("exact", "float")} <= seen
        assert {(b, (False, False)) for b in ("exact", "float")} <= seen


def _scale_cases(rig, rng):
    """``(kind, u, v)`` on an exact rig: a member pair, a non-member pair,
    a side moved off consistency by 1 in its first integer coordinate (on
    either side) and, for two cameras, the epipole pair on either side."""
    u, v, _, _ = harness.sample_member_pair(rig, rng)
    w, z, _, _ = harness.sample_nonmember_pair(rig, rng)
    moved = list(u[0].coords)
    moved[0] += 1
    bad = (ProjectivePoint(moved),) + u[1:]
    cases = [("member", u, v), ("nonmember", w, z), ("moved", bad, v), ("moved", v, bad)]
    if rig.n == 2:
        ep = (rig.epipole(0, 1), rig.epipole(1, 0))
        cases += [("epipole", u, ep), ("epipole", ep, v)]
    return cases


def _rescaled_rig(rig, rng):
    """The rig in floats with each camera multiplied by 10^U(-2, 2)."""
    return CameraRig([cam.matrix.to_float().scaled(10.0 ** rng.uniform(-2, 2))
                      for cam in rig.cameras])


def _rescaled_points(points, rng, raw):
    """The points in floats: as they are (``raw``), else at max-norm 1
    and multiplied by 10^U(-3, 3)."""
    if raw:
        return tuple(p.to_float() for p in points)
    out = []
    for p in points:
        scale = 10.0 ** rng.uniform(-3, 3) / max(map(abs, p.coords))
        out.append(ProjectivePoint([float(c * scale) for c in p.coords]))
    return tuple(out)


def _verdicts(rig, u, v):
    """Consistency of each side, every octic family's verdict, the oracle's."""
    return ([multiview_membership(rig, t).ok for t in (u, v)]
            + [rigid_pair_by_equations(rig, u, v, family) for family in _families(rig.n)]
            + [rigid_pair_oracle(rig, u, v)])


class TestOracleOnWitnessVectors:
    """rigid_pair_oracle evaluates q on the two cleared witness vectors;
    the reference evaluates it on the two triangulated points."""

    @staticmethod
    def _rigs(kind, n):
        """``(exact, rig, rng)``: an int or Fraction-entry rig, the rig of
        ``kind`` (the int rig itself, or in floats), and the generator that
        drew the exact rig, for the tuples."""
        rng = random.Random(f"oracle:{kind == 'fraction'}:{n}")
        exact = fraction_rig(rng, n) if kind == "fraction" else random_rig(rng, n)
        if not kind.startswith("float"):
            return exact, exact, rng
        tol = 1e-6 if kind == "float-rig-tol" else None
        return exact, CameraRig([cam.matrix.to_float() for cam in exact.cameras], tol), rng

    @staticmethod
    def _cases(rig, rng):
        """``(kind, u, v)``: a member pair (also with Fraction image
        coordinates), a non-member pair, an epipole side (for n > 2 the
        views of the last camera's focal point, with an arbitrary last image
        point) and an inconsistent side, drawn on the exact rig."""
        n = rig.n
        u, v, _, _ = harness.sample_member_pair(rig, rng)
        w, z, _, _ = harness.sample_nonmember_pair(rig, rng)
        if n == 2:
            ep = (rig.epipole(0, 1), rig.epipole(1, 0))
        else:
            f = rig.focal_point(n - 1)
            ep = tuple(rig.camera(i).project(f) for i in range(n - 1)) + (ProjectivePoint((3, 1, 4)),)
        moved = list(u[1].coords)
        moved[0] += 1
        bad = (u[0], ProjectivePoint(moved)) + u[2:]
        assert not multiview_membership(rig, bad).ok
        scaled = (u[0].scaled(Fraction(2, 7)),) + u[1:]
        return [("member", u, v), ("member", scaled, v), ("nonmember", w, z),
                ("epipole", u, ep), ("epipole", ep, v),
                ("inconsistent", bad, v), ("inconsistent", ep, bad)]

    @staticmethod
    def _in_floats(u, v):
        """The pair in floats, as it is and with every point scaled to
        max-norm 1: at the integer-cleared size the float ranks often
        misjudge a tuple, so mostly the scaled copies reach q."""
        def unit(p):
            top = max(abs(c) for c in p.coords)
            return ProjectivePoint([float(c / top) for c in p.coords])
        return [tuple(tuple(f(p) for p in side) for side in (u, v))
                for f in (ProjectivePoint.to_float, unit)]

    @staticmethod
    def _outcome(oracle, *args):
        try:
            return oracle(*args)
        except Exception as exc:  # the same type must be raised by both
            return type(exc)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["int", "fraction", "float", "float-rig-tol"])
    @pytest.mark.parametrize("tol", [1e-7, 1e-3])
    def test_oracle_equals_the_triangulated_reference(self, kind, n, tol):
        exact_rig, rig, rng = self._rigs(kind, n)
        outcomes = set()
        for what, u, v in self._cases(exact_rig, rng):
            pairs = [(u, v)] if rig is exact_rig else self._in_floats(u, v)
            for a, b in pairs:
                got = self._outcome(rigid_pair_oracle, rig, a, b, tol)
                assert got == self._outcome(reference_rigid_pair_oracle, rig, a, b, tol), what
                outcomes.add((what, got))
        if rig is exact_rig:
            # the truths known from construction
            assert {("member", True), ("nonmember", False), ("inconsistent", False)} <= outcomes
            assert ("epipole", True) in outcomes or n > 2
        else:
            # both verdicts occur: the unit-scaled members pass the form's
            # tolerance test, and some pair fails
            assert ("member", True) in outcomes and False in {got for _, got in outcomes}

    def test_exact_oracle_builds_no_point_and_no_scale(self, monkeypatch):
        # the exact oracle reads q at the cleared witness vectors: no division
        # by their factor and no scale, on rigs whose factor is 1 and above 1
        def refuse(*args):
            raise AssertionError("the oracle divides out no factor and takes no scale")
        for n in (2, 3, 4):
            for kind in ("int", "fraction"):
                rig, _, rng = self._rigs(kind, n)
                u, v, _, _ = harness.sample_member_pair(rig, rng)
                w, z, _, _ = harness.sample_nonmember_pair(rig, rng)
                monkeypatch.setattr(triangulation, "_reduced", refuse)
                monkeypatch.setattr(triangulation, "_scale", refuse)
                assert rigid_pair_oracle(rig, u, v)
                assert not rigid_pair_oracle(rig, w, z)
                with pytest.raises(AssertionError):  # triangulate itself divides
                    triangulation.triangulate(rig, u)
                monkeypatch.undo()


def _verdict_rigs(n):
    """Rigs whose cleared cofactor vectors take each width: integer cameras
    (int64), Fraction cameras, the integer cameras over 1000 and cameras of
    height 10^6 (Python ints in object arrays)."""
    base = random_rig(random.Random(521 + n), n)
    return {"int": base, "fraction": fraction_rig(random.Random(523 + n), n),
            "over-1000": scaled_rig(base, Fraction(1, 1000)),
            "height-1e6": random_rig(random.Random(541 + n), n, height=10 ** 6)}


def _moved(points, j, c):
    """The tuple with coordinate c of image point j increased by 1."""
    coords = list(points[j].coords)
    coords[c] += 1
    return points[:j] + (ProjectivePoint(coords),) + points[j + 1:]


def _verdict_inputs(rig, rng):
    """Member pairs, non-member pairs, member pairs with one image coordinate
    moved by 1 on side v and on side u (which in general leaves that tuple
    inconsistent) and, with two cameras, the epipole pair on either side."""
    cases = []
    for _ in range(2):
        x, y = unit_pair(rng)
        u, v = forward_map(rig, x), forward_map(rig, y)
        far = ProjectivePoint((y[0] + rng.randint(1, 5), y[1], y[2], y[3]))
        cases += [(u, v), (u, forward_map(rig, far)),
                  (u, _moved(v, rng.randrange(rig.n), rng.randrange(3))),
                  (_moved(u, rng.randrange(rig.n), rng.randrange(3)), v)]
    if rig.n == 2:
        ep = (rig.epipole(0, 1), rig.epipole(1, 0))
        cases += [(u, ep), (ep, u)]
    return cases


def _engine(rig, family):
    row_set = constraints._octic_row_set(rig.n, family)
    return constraints.OcticEngine(rig, (row_set, row_set),
                                   [(0, 1, polarize(unit_distance_form()))])


def _memberships(rig, *tuples):
    """One membership result per image tuple: what OcticEngine.vanishes reads."""
    return [multiview_membership(rig, points) for points in tuples]


def _proportional(a, b):
    """Whether every 2x2 minor of the integer vectors a and b vanishes."""
    return all(a[i] * b[j] == a[j] * b[i] for i in range(4) for j in range(i + 1, 4))


# The unit form's cleared dense tensor, the Gram every octic family uses.
_UNIT_GRAM = constraints._gram(constraints._UNIT_TENSOR, True, 2, 2)[0]


def _bidegree_form(bidegree, scale=1):
    """A form of each bidegree the engine tests use: the unit form, it times
    X_3 or Y_0, the degree-four form F = (X_0^2 + X_1 X_2 + X_3^2) X_3
    (X_0 Y_3 - X_3 Y_0) and F with X and Y swapped, and Y_3^2 - Y_0^2; all
    times ``scale``."""
    unit = unit_distance_form()
    y0, y3 = (1, 0, 0, 0), (0, 0, 0, 1)
    quartic = {((3, 0, 0, 1), y3): 1, ((2, 0, 0, 2), y0): -1, ((1, 1, 1, 1), y3): 1,
               ((0, 1, 1, 2), y0): -1, ((1, 0, 0, 3), y3): 1, ((0, 0, 0, 4), y0): -1}
    coeffs = {(2, 2): unit.coeffs,
              (3, 2): {(a[:3] + (a[3] + 1,), b): c for (a, b), c in unit.coeffs.items()},
              (2, 3): {(a, (b[0] + 1,) + b[1:]): c for (a, b), c in unit.coeffs.items()},
              (4, 1): quartic, (1, 4): {(b, a): c for (a, b), c in quartic.items()},
              (0, 2): {((0, 0, 0, 0), (0, 0, 0, 2)): 1, ((0, 0, 0, 0), (2, 0, 0, 0)): -1}}
    return BihomForm(bidegree, {k: scale * c for k, c in coeffs[bidegree].items()})


def _naive_contract(t, w, rows):
    """The values of :func:`rigidview.constraints._contract`, one at a time
    from its definition: t_m(w_pk1, ..., w_pke) = sum over the index tuples
    j of t[m, j] w_pk1[j_1] ... w_pke[j_e], j_1 slowest."""
    e = len(rows[0])
    return [[[sum(t_m[i] * prod(w_p[k][j] for k, j in zip(row, js))
                  for i, js in enumerate(itertools.product(range(4), repeat=e)))
              for row in rows] for w_p in w] for t_m in t]


class TestContract:
    """``_contract`` and ``_power_times`` against their definitions, on the
    widths they are given: Python ints (small, and past int64 as the exact
    backend's heights can reach) and float64 holding small integers, which
    sum exactly; and the engine's values, which both form, against the
    dense tensor at the cofactor vectors, entry by entry."""

    @pytest.mark.parametrize("width", ["int", "big-int", "float"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_values_equal_the_definition(self, degree, width):
        rng = random.Random(f"contract:{degree}:{width}")
        top = 2 ** 80 if width == "big-int" else 9
        t = [[rng.randint(-top, top) for _ in range(4 ** degree)] for _ in range(3)]
        # two groups of six vectors, one of them zero
        w = [[[rng.randint(-top, top) for _ in range(4)] if k != 4 else [0] * 4
              for k in range(6)] for _ in range(2)]
        rows = [tuple(rng.randrange(6) for _ in range(degree)) for _ in range(5)]
        rows[0] = (4,) * degree
        dtype = np.float64 if width == "float" else object
        got = constraints._contract(np.array(t, dtype=dtype), np.array(w, dtype=dtype), rows)
        assert got.shape == (3, 2, 5) and got.dtype == dtype
        assert got.tolist() == _naive_contract(t, w, rows)
        # a row through the zero vector is zero, unless it reads no vector
        assert got[..., 0].any() == (degree == 0)

    @pytest.mark.parametrize("width", ["big-int", "float"])
    @pytest.mark.parametrize("scale", [1, 536870909])
    @pytest.mark.parametrize("bidegree", [(0, 2), (1, 4), (2, 2), (2, 3), (3, 2), (4, 1)],
                             ids=lambda b: "%d-%d" % b)
    def test_power_times_equals_the_definition(self, bidegree, scale, width):
        # t = X T from the Gram's nonzero entries against _contract's
        # definition, T^T at the row (0, ..., d - 1) of each of three rows'
        # d distinct vectors, for a form of every bidegree the verdict
        # tests use and for it times 536870909
        d, e = bidegree
        exact = width == "big-int"
        gram, _, nonzeros = constraints._gram(polarize(_bidegree_form(bidegree, scale)),
                                              exact, d, e)
        assert len(nonzeros[2]) == np.count_nonzero(gram) > 0
        rng = random.Random(f"power-times:{bidegree}:{scale}:{width}")
        top = 2 ** 80 if exact else 9
        x = np.array([[[rng.randint(-top, top) for _ in range(3)] for _ in range(4)]
                      for _ in range(d)], dtype=object if exact else np.float64).reshape(d, 4, 3)
        got = constraints._power_times(nonzeros, x, 4 ** e)
        assert got.shape == (4 ** e, 3) and got.dtype == x.dtype
        gram_t = (gram.astype(object) if exact else gram).T.tolist()
        vectors = x.transpose(2, 0, 1).tolist()
        want = [[r[0] for r in m] for m in _naive_contract(gram_t, vectors, [tuple(range(d))])]
        if exact:
            # past 2^80 wherever x enters
            assert got.tolist() == want
            assert d == 0 or max(abs(c) for m in want for c in m) > 2 ** 80
        else:
            # the float Gram holds entries such as 1/3, rounded: the two
            # orders of summation agree to rounding
            top = max(abs(c) for m in want for c in m)
            assert got.ravel().tolist() == pytest.approx(sum(want, []), rel=0, abs=1e-12 * top)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_power_times_reads_each_slot_at_its_own_vectors(self, d):
        # a tensor that is not symmetric in its d slots, as its nonzero
        # entries of random values: slot k of an entry reads x[k] at the
        # entry's k-th row index, the highest base-4 digit of its row first
        rng = random.Random(f"slots:{d}")
        dense = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(4)] for _ in range(4 ** d)]
        digits = list(itertools.product(range(4), repeat=d))
        entries = [(r, c) for r in range(4 ** d) for c in range(4) if dense[r][c]]
        slots = np.array([[digits[r][k] for r, _ in entries] for k in range(d)], dtype=np.intp)
        nonzeros = (slots, np.array([c for _, c in entries], dtype=np.intp),
                    np.array([dense[r][c] for r, c in entries], dtype=object))
        x = np.array([[[rng.randint(-9, 9) for _ in range(2)] for _ in range(4)]
                      for _ in range(d)], dtype=object)
        got = constraints._power_times(nonzeros, x, 4).tolist()
        for m in range(2):
            for c in range(4):
                assert got[c][m] == sum(dense[r][c] * prod(x[k, i, m] for k, i in enumerate(js))
                                        for r, js in enumerate(digits))

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("bidegree", [(2, 2), (2, 3), (1, 4), (0, 2)],
                             ids=lambda b: "%d-%d" % b)
    def test_evaluate_equals_the_definition(self, bidegree, backend):
        # every value of a (d, e) form on three Fraction cameras and on
        # their floats: the dense Gram contracted with the reference
        # cofactor vectors of a and then of b (_naive_contract), over the
        # Gram's and the vectors' factors; (2, 3), (1, 4) and (0, 2) have
        # the higher degree on side b
        rng = random.Random(f"evaluate:{bidegree}:{backend}")
        rig = fraction_rig(rng, 3)
        if backend == "float":
            rig = CameraRig([cam.matrix.to_float() for cam in rig.cameras])
        d, e = bidegree
        rows = {0: [()], 1: [(0,), (2,), (5,)], 2: [(0, 0), (1, 4), (3, 5)],
                3: [(0, 1, 2), (3, 4, 4)], 4: [(0, 1, 2, 3), (5, 5, 4, 4)]}
        pairs = constraints._camera_pairs(3)
        form = _bidegree_form(bidegree)
        engine = constraints.OcticEngine(rig, [(pairs, rows[d]), (pairs, rows[e])],
                                         [(0, 1, polarize(form))])
        points = [random_world_point(rng) for _ in range(2)]
        if backend == "float":
            points = [[float(c) for c in p] for p in points]
        u, v = (forward_map(rig, ProjectivePoint(p)) for p in points)
        gram, den, _ = constraints._gram(polarize(form), backend == "exact", d, e)
        gram_t = gram.T.tolist()

        def value(gram_t, w_a, row_a, w_b, row_b):
            t = [m[0][0] for m in _naive_contract(gram_t, [w_a], [row_a])]
            return _naive_contract([t], [w_b], [row_b])[0][0][0]

        want, sizes = [], []
        for (j1, k1, *row_a), (j2, k2, *row_b) in constraints._row_set_indices(
                (pairs, rows[d]), (pairs, rows[e])):
            (w_a, f_a), (w_b, f_b) = (reference_cofactor_vectors(rig, j1, k1, u[j1], u[k1]),
                                      reference_cofactor_vectors(rig, j2, k2, v[j2], v[k2]))
            row_a, row_b = tuple(row_a), tuple(row_b)
            total = value(gram_t, w_a.tolist(), row_a, w_b.tolist(), row_b)
            if den is None:
                want.append(total)
                # the same sum of absolute values bounds its rounding
                sizes.append(value(np.abs(gram.T).tolist(), np.abs(w_a).tolist(), row_a,
                                   np.abs(w_b).tolist(), row_b))
            else:
                want.append(Fraction(total, den * f_a ** d * f_b ** e))
        got = engine.evaluate((u, v))
        assert len(got) == len(want) == 9 * len(rows[d]) * len(rows[e])
        if backend == "exact":
            assert got == want and any(want) and any(type(g) is Fraction for g in got)
        else:
            assert all(abs(g - r) <= 1e-12 * s for g, r, s in zip(got, want, sizes))
            assert any(abs(r) > 1e-6 * s for r, s in zip(want, sizes))


class TestExactVerdict:
    """The exact zero test, x^d T from the Gram's nonzero entries and its
    exact contractions at v's camera pairs, first pair, then the rest,
    against the cleared values."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_verdict_equals_the_cleared_values(self, n):
        # an inconsistent u is refused; on the others the verdict is that
        # of the values
        verdicts, refused = set(), 0
        for name, rig in _verdict_rigs(n).items():
            cases = _verdict_inputs(rig, random.Random(f"{name}:{n}"))
            for family in _families(n):
                engine = _engine(rig, family)
                for u, v in cases:
                    ((values, _),) = engine.cleared((u, v))
                    memberships = _memberships(rig, u, v)
                    if not memberships[0].ok:
                        with pytest.raises(ValueError, match="consistent"):
                            engine.vanishes(memberships)
                        refused += 1
                        continue
                    verdict = engine.vanishes(memberships)
                    assert verdict == (not values.any())
                    verdicts.add(verdict)
        assert verdicts == {True, False} and refused > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_one_equals_the_cleared_values(self, n):
        # every family, on the verdict rigs, with the unit form and with it
        # times 15 and times 536870909 (the largest prime below 2^29): the
        # verdict is that of the values, whatever primes divide the Gram
        outcomes = set()
        for name, rig in _verdict_rigs(n).items():
            for u, v in _verdict_inputs(rig, random.Random(f"rank-one:{name}:{n}")):
                memberships = _memberships(rig, u, v)
                if not memberships[0].ok:
                    continue
                for family in _families(n):
                    row_set = constraints._octic_row_set(n, family)
                    verdicts = set()
                    for scale in (1, 15, 536870909):
                        tensor = polarize(_bidegree_form((2, 2), scale))
                        engine = constraints.OcticEngine(rig, (row_set, row_set),
                                                         [(0, 1, tensor)])
                        gram = constraints._gram(tensor, True, 2, 2)[0]
                        assert (gram == scale * _UNIT_GRAM).all()
                        ((values, _),) = engine.cleared((u, v))
                        verdicts.add(engine.vanishes(memberships))
                        assert verdicts == {not values.any()}
                    outcomes |= verdicts
        assert outcomes == {True, False}

    def test_both_vector_widths_are_taken(self):
        rigs = _verdict_rigs(2)
        dtypes = {}
        for name in ("int", "height-1e6"):
            rig = rigs[name]
            u, v = _verdict_inputs(rig, random.Random(f"{name}:2"))[0]
            engine = _engine(rig, Family.OCTIC_FULL)
            (w_u, _), _ = engine._cofactors((u, v))
            dtypes[name] = w_u.dtype
        assert dtypes == {"int": np.int64, "height-1e6": object}
        assert _UNIT_GRAM.dtype == np.int64

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_pair_then_the_rest(self, n, monkeypatch):
        # on a consistent tuple every cofactor vector is a multiple of the
        # one world point, so side u enters as its witness vector x, which
        # every vector of u is a multiple of: t = x^d T comes from the
        # Gram's nonzero entries, and the contractions on Python ints take
        # t at v's rows (the engine's own index array), first at v's first
        # camera pair alone, then, unless that shows a nonzero value, at
        # all its other pairs in one call: two cameras take one call, a
        # member of three or more two, and a non-member that the first
        # pair rejects one.  A block whose X_u is zero takes none
        contract = constraints._contract
        contractions = count_calls(monkeypatch, constraints, "_contract")
        verdicts, first_pair_rejects = set(), 0
        for name, rig in _verdict_rigs(n).items():
            for u, v in _verdict_inputs(rig, random.Random(f"{name}:{n}")):
                memberships = _memberships(rig, u, v)
                if not memberships[0].ok:
                    continue
                w_u = _engine(rig, Family.OCTIC_FULL)._cofactors((u, v))[0][0]
                for family in _families(n):
                    engine = _engine(rig, family)
                    contractions.clear()
                    verdict = engine.vanishes(memberships)
                    (pairs_u, rows_u), (pairs_v, rows_v) = engine.row_sets
                    if constraints._zero_outer_rows(w_u, rows_u):
                        assert verdict and contractions == []
                        continue
                    pair, row = memberships[0].cofactors.witness
                    x = memberships[0].cofactors.vectors(*pair)[0][row].astype(object)
                    assert x.any() and all(_proportional(x.tolist(), y)
                                           for y in w_u.reshape(-1, 4).tolist())
                    first_values = contract(*contractions[0])
                    if n == 2:
                        assert len(contractions) == 1
                    elif verdict:
                        assert len(contractions) == 2
                    else:
                        assert len(contractions) == (1 if first_values.any() else 2)
                        first_pair_rejects += first_values.any()
                    gram = _UNIT_GRAM.astype(object)
                    for (t, w, rows), group in zip(contractions, (pairs_v[:1], pairs_v[1:])):
                        assert t.dtype == w.dtype == object
                        assert t.shape == (1, 16) and w.shape == (len(group), 6, 4)
                        assert t.ravel().tolist() == (np.outer(x, x).ravel() @ gram).tolist()
                        assert rows is rows_v and rows.dtype == np.intp
                        assert not rows.flags.writeable
                    verdicts.add(verdict)
        assert verdicts == {True, False}
        assert first_pair_rejects > 0 or n == 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_non_member_computes_v_at_its_first_pair_only(self, n, monkeypatch):
        # v off the unit sphere about u's world point: its first camera
        # pair already shows a nonzero octic, so of v's cofactor vectors
        # only that pair's are computed (by its membership pass), while a
        # member v computes every pair of the family once
        rig = random_rig(random.Random(f"first-pair:{n}"), n)
        x, y = unit_pair(random.Random(f"first-pair-points:{n}"))
        far = ProjectivePoint((y[0] + 1, y[1], y[2], y[3]))
        u = forward_map(rig, x)
        for family in _families(n):
            pairs = constraints._octic_row_set(n, family)[0]
            for v, member in ((forward_map(rig, far), False), (forward_map(rig, y), True)):
                vectors = count_calls(monkeypatch, CameraRig, "_cofactor_vectors")
                assert rigid_pair_by_equations(rig, u, v, family) == member
                monkeypatch.undo()
                of_v = [c[1:3] for c in vectors if c[3] is v[c[1]]]
                assert of_v == (list(pairs) if member else [(0, 1)])

    @pytest.mark.parametrize("family", [Family.OCTIC_FULL, Family.OCTIC_NINE])
    def test_epipole_pair_in_either_order(self, family, monkeypatch):
        # the epipole pair is accepted in either order: its cofactor vectors
        # are all zero, so as side u no row is nonzero, and as side v every
        # value is zero
        contractions = count_calls(monkeypatch, constraints, "_contract")
        rig = random_rig(random.Random(571), 2)
        u = forward_map(rig, ProjectivePoint(random_world_point(random.Random(577))))
        ep = (rig.epipole(0, 1), rig.epipole(1, 0))
        assert not multiview_membership(rig, ep).cofactors.vectors(0, 1)[0].any()
        assert rigid_pair_by_equations(rig, ep, u, family)
        assert contractions == []
        assert rigid_pair_by_equations(rig, u, ep, family)
        assert len(contractions) == 1 and not contractions[0][1].any()

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_first_nonzero_block_decides(self, n, monkeypatch):
        # two blocks, tuple 0 against tuples 1 and 2: a tuple 1 off the unit
        # sphere about x refuses the pair after the first block's first
        # contraction (its first camera pair), else both blocks take theirs,
        # one with two cameras and, with three, the first pair and then the
        # others, and the verdict is that of every block's values
        rig = random_rig(random.Random(f"two-blocks:{n}"), n)
        row_set = constraints._octic_row_set(n, Family.OCTIC_NINE)
        tensor = polarize(unit_distance_form())
        engine = constraints.OcticEngine(rig, [row_set] * 3, [(0, 1, tensor), (0, 2, tensor)])
        x, y = unit_pair(random.Random(f"two-blocks-pair:{n}"))
        # y reflected through x, at unit distance from x too
        y2 = ProjectivePoint(tuple(2 * a - b for a, b in zip(x[:3], y[:3])) + (1,))
        far = ProjectivePoint((y[0] + 1, y[1], y[2], y[3]))
        contractions = count_calls(monkeypatch, constraints, "_contract")
        counts = {2: (2, 2, 1), 3: (4, 3, 1)}[n]
        for points, want, calls in zip(((x, y, y2), (x, y, far), (x, far, y2)),
                                       ([True, True], [True, False], [False, True]), counts):
            tuples = [forward_map(rig, p) for p in points]
            assert [not values.any() for values, _ in engine.cleared(tuples)] == want
            contractions.clear()
            assert engine.vanishes(_memberships(rig, *tuples)) == all(want)
            assert len(contractions) == calls

    @pytest.mark.parametrize("scale", [2 ** 31 - 1, 2 ** 61 - 1, (2 ** 31 - 1) * (2 ** 61 - 1),
                                       2 ** 89 - 1],
                             ids=["M31", "M61", "M31*M61", "M89"])
    def test_a_gram_divisible_by_large_primes_keeps_its_verdicts(self, scale):
        # the unit form times a product of large primes: every value is a
        # multiple of each, and the exact verdict still tells a member from
        # a non-member; a Gram past int64 is held as Python ints
        tensor = polarize(_bidegree_form((2, 2), scale))
        rig = random_rig(random.Random(617), 3)
        row_set = constraints._octic_row_set(3, Family.OCTIC_FULL)
        engine = constraints.OcticEngine(rig, (row_set, row_set), [(0, 1, tensor)])
        gram = constraints._gram(tensor, True, 2, 2)[0]
        assert (gram == scale * _UNIT_GRAM.astype(object)).all()
        big = scale * max(abs(c) for c in _UNIT_GRAM.ravel().tolist()) >= INT64_LIMIT
        assert gram.dtype == (object if big else np.int64)
        x, y = unit_pair(random.Random(619))
        far = ProjectivePoint((y[0] + 1, y[1], y[2], y[3]))
        for z, want in ((y, True), (far, False)):
            u, v = forward_map(rig, x), forward_map(rig, z)
            ((values, _),) = engine.cleared((u, v))
            assert all(c % scale == 0 for c in values.ravel().tolist())
            assert engine.vanishes(_memberships(rig, u, v)) == want == (not values.any())

    @pytest.mark.parametrize("n", [2, 3])
    def test_degree_three_verdict_equals_the_cleared_values(self, n):
        # the unit-distance form times X_3 and times Y_0: bidegrees (3, 2)
        # and (2, 3), on rows of three cofactor rows against row pairs
        forms = [_bidegree_form((3, 2)), _bidegree_form((2, 3))]
        triples, pairs = [(0, 1, 2), (0, 0, 5), (3, 4, 4), (1, 1, 1), (2, 3, 5)], constraints._ROW_PAIRS[:8]
        verdicts = set()
        for name, rig in _verdict_rigs(n).items():
            cameras = constraints._camera_pairs(n)
            cases = _verdict_inputs(rig, random.Random(f"{name}:{n}"))
            for form, rows in zip(forms, ((triples, pairs), (pairs, triples))):
                row_sets = [(cameras, rows[0]), (cameras, rows[1])]
                engine = constraints.OcticEngine(rig, row_sets, [(0, 1, polarize(form))])
                for u, v in cases:
                    memberships = _memberships(rig, u, v)
                    if not memberships[0].ok:
                        continue
                    ((values, _),) = engine.cleared((u, v))
                    verdict = engine.vanishes(memberships)
                    assert verdict == (not values.any())
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_degree_zero_side(self):
        # a (0, 2) form: side u has empty rows, its S one constant column, so
        # the verdict is the form at v's vectors, here Y_3^2 - Y_0^2; also
        # with u the epipole pair, whose pass has no witness
        rig = random_rig(random.Random(601), 2)
        row_sets = [([(0, 1)], [()]), ([(0, 1)], [(0, 0), (3, 3)])]
        engine = constraints.OcticEngine(rig, row_sets, [(0, 1, polarize(_bidegree_form((0, 2))))])
        epipoles = (rig.epipole(0, 1), rig.epipole(1, 0))
        assert multiview_membership(rig, epipoles).cofactors.witness is None
        for u in (forward_map(rig, ProjectivePoint((3, -2, 5, 7))), epipoles):
            verdicts = []
            for y in ((1, 2, 3, 1), (2, 1, 3, 1)):
                v = forward_map(rig, ProjectivePoint(y))
                ((values, _),) = engine.cleared((u, v))
                verdicts.append(engine.vanishes(_memberships(rig, u, v)))
                assert verdicts[-1] == (not values.any())
            assert verdicts == [True, False]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("degrees", [(4, 1), (1, 4)])
    def test_degree_four_verdict_equals_the_cleared_values(self, degrees, n):
        # F = (X_0^2 + X_1 X_2 + X_3^2) X_3 (X_0 Y_3 - X_3 Y_0), zero when the
        # two points share their first affine coordinate, and F with X and Y
        # swapped: T has 4^5 = 1024 entries, and a value sums 256 products
        # on the degree-four side
        tensor = polarize(_bidegree_form(degrees))
        rows_four = [(0, 0, 0, 0), (0, 1, 2, 3), (1, 1, 4, 5), (2, 3, 3, 5), (5, 5, 5, 5)]
        rows_one = [(i,) for i in range(6)]
        rows_u, rows_v = (rows_four, rows_one) if degrees == (4, 1) else (rows_one, rows_four)
        verdicts = set()
        for name, rig in _verdict_rigs(n).items():
            rng = random.Random(f"degree-four:{name}:{n}:{degrees}")
            cameras = constraints._camera_pairs(n)
            engine = constraints.OcticEngine(rig, [(cameras, rows_u), (cameras, rows_v)],
                                             [(0, 1, tensor)])
            gram = constraints._gram(tensor, True, *degrees)[0]
            assert gram.shape == (4 ** degrees[0], 4 ** degrees[1])
            cases = _verdict_inputs(rig, rng)
            for _ in range(2):
                x = ProjectivePoint(random_world_point(rng))
                k = rng.randint(1, 3)
                same = (k * x[0], rng.randint(-9, 9), rng.randint(-9, 9), k * x[3])
                cases.append((forward_map(rig, x), forward_map(rig, ProjectivePoint(same))))
            for u, v in cases:
                memberships = _memberships(rig, u, v)
                if not memberships[0].ok:
                    continue
                ((values, _),) = engine.cleared((u, v))
                verdict = engine.vanishes(memberships)
                assert verdict == (not values.any())
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_zero_family_rows_vanish(self):
        # a hand-built side whose nine-family rows (i, i), i < 3, are all
        # zero while rows 3 to 5 are not: X_u = 0, so the block vanishes,
        # though the full family's rows do not
        rng = random.Random(613)
        base = [rng.randint(-40, 40) for _ in range(4)]
        w = np.array([[[0] * 4] * 3 + [[c * f for f in base] for c in (2, -3, 5)]] * 3,
                     dtype=object)
        rows_nine = constraints._octic_row_set(3, Family.OCTIC_NINE)[1]
        nonzeros = _engine(random_rig(rng, 2), Family.OCTIC_NINE).blocks[0][3]
        assert constraints._zero_outer_rows(w, rows_nine)
        x = w[:, rows_nine].transpose(2, 3, 0, 1).reshape(2, 4, -1)
        assert not constraints._power_times(nonzeros, x, 16).any()
        assert not constraints._zero_outer_rows(w, constraints._ROW_PAIRS)
        # the same through the engine: a rank-2 camera puts the left kernel
        # of B on its own rows, so rows 0 to 2 of pair (0, 1) vanish
        cams = random_rig(rng, 2).cameras
        flat = Mat([list(cams[1].matrix.data[0]), list(cams[1].matrix.data[1]),
                    [a + b for a, b in zip(*cams[1].matrix.data[:2])]])
        rig = CameraRig([cams[0].matrix, flat])
        assert rig.camera(1).rank == 2
        u = forward_map(rig, ProjectivePoint(random_world_point(rng)))
        v = forward_map(rig, ProjectivePoint(random_world_point(rng)))
        memberships = _memberships(rig, u, v)
        w_u, _ = memberships[0].cofactors.vectors(0, 1)
        assert memberships[0].ok and not w_u[:3].any() and w_u[3:].any()
        engine = _engine(rig, Family.OCTIC_NINE)
        assert engine.vanishes(memberships)
        ((values, _),) = engine.cleared((u, v))
        assert not values.any()
        assert not _engine(rig, Family.OCTIC_FULL).vanishes(memberships)

    def test_verdicts_build_the_gram_once(self, monkeypatch):
        rig = random_rig(random.Random(601), 3)
        x, y = unit_pair(random.Random(607))
        u, v = forward_map(rig, x), forward_map(rig, y)
        assert rigid_pair_by_equations(rig, u, v)
        # _cleared clears the Gram's denominators: it runs once per build
        built = count_calls(monkeypatch, constraints, "_cleared")
        assert rigid_pair_by_equations(rig, u, v) and rigid_pair_by_equations(rig, u, v)
        assert built == []
        # a new tensor builds its own Gram and nonzero index, once per
        # backend, and every engine on that backend shares them, read-only
        tensor = polarize(unit_distance_form())
        float_rig = CameraRig([cam.matrix.to_float() for cam in rig.cameras])
        indexes = []
        for backend_rig, dtype in ((rig, object), (float_rig, np.float64)):
            engines = [constraints.OcticEngine(backend_rig, [([(0, 1)], [(0, 0)])] * 2,
                                               [(0, 1, tensor)]) for _ in range(2)]
            assert len(built) == len(indexes) + 1
            gram, _, nonzeros = constraints._gram(tensor, dtype is object, 2, 2)
            assert all(engine.blocks[0][3] is nonzeros for engine in engines)
            assert not any(a.flags.writeable for a in (gram,) + nonzeros)
            slots, columns, values = nonzeros
            assert slots.shape == (2, 19) and values.dtype == dtype
            assert values.tolist() == gram[slots[0] * 4 + slots[1], columns].tolist()
            indexes.append(nonzeros)
        assert indexes[0] is not indexes[1]

    def test_float_engine_refuses_an_inconsistent_first_side(self):
        rig = CameraRig([cam.matrix.to_float() for cam in random_rig(random.Random(587), 2).cameras])
        u = (ProjectivePoint((1.0, 2.0, 3.0)), ProjectivePoint((4.0, 5.0, 7.0)))
        assert not multiview_membership(rig, u).ok
        with pytest.raises(ValueError, match="consistent first side"):
            _engine(rig, Family.OCTIC_NINE).vanishes(_memberships(rig, u, u))


class TestGroupActions:
    def test_right_action_preserves_verdicts(self):
        rng = random.Random(227)
        rig = random_rig(rng, 2)
        motion = RigidMotion.from_parts(cayley_rotation(Fraction(1, 3), 0, Fraction(1, 2)), (2, -1, 0))
        moved = apply_right_action(rig, motion)
        n_inv = invert(motion.matrix)
        for make_pair in (lambda: unit_pair(rng),
                          lambda: (ProjectivePoint(random_world_point(rng)),
                                   ProjectivePoint(random_world_point(rng)))):
            x, y = make_pair()
            u = forward_map(rig, x)
            v = forward_map(rig, y)
            xm = ProjectivePoint(n_inv.apply(x.coords))
            ym = ProjectivePoint(n_inv.apply(y.coords))
            um = forward_map(moved, xm)
            vm = forward_map(moved, ym)
            assert all(p.coords == q.coords for p, q in zip(u, um))
            assert (rigid_pair_by_equations(moved, um, vm, Family.OCTIC_NINE)
                    == rigid_pair_by_equations(rig, u, v, Family.OCTIC_NINE))

    def test_left_action_preserves_verdicts(self):
        rng = random.Random(229)
        rig = random_rig(rng, 2)
        ms = [Mat([[1, 2, 0], [0, 1, 0], [3, 0, 1]]), Mat([[2, 0, 1], [0, 1, 0], [0, 0, 1]])]
        moved = apply_left_action(rig, ms)
        for make_pair in (lambda: unit_pair(rng),
                          lambda: (ProjectivePoint(random_world_point(rng)),
                                   ProjectivePoint(random_world_point(rng)))):
            x, y = make_pair()
            u = forward_map(rig, x)
            v = forward_map(rig, y)
            um = tuple(ProjectivePoint(m.apply(p.coords)) for m, p in zip(ms, u))
            vm = tuple(ProjectivePoint(m.apply(p.coords)) for m, p in zip(ms, v))
            assert (rigid_pair_by_equations(moved, um, vm, Family.OCTIC_NINE)
                    == rigid_pair_by_equations(rig, u, v, Family.OCTIC_NINE))


class TestCoplanar:
    def test_coplanar_points_vanish(self):
        rng = random.Random(233)
        rig = random_rig(rng, 2)
        # four points in the plane z = 0
        pts = [ProjectivePoint((rng.randint(-9, 9), rng.randint(-9, 9), 0, 1)) for _ in range(4)]
        tuples4 = [forward_map(rig, p) for p in pts]
        res = coplanar_residuals(rig, tuples4)
        assert len(res) == 6 ** 4
        assert all(r == 0 for r in res)

    def test_generic_points_fail(self):
        rng = random.Random(239)
        rig = random_rig(rng, 2)
        pts = [ProjectivePoint((1, 0, 0, 1)), ProjectivePoint((0, 1, 0, 1)),
               ProjectivePoint((0, 0, 1, 1)), ProjectivePoint((2, 3, 5, 1))]
        tuples4 = [forward_map(rig, p) for p in pts]
        assert any(r != 0 for r in coplanar_residuals(rig, tuples4))

    def test_repeated_point_vanishes(self):
        rng = random.Random(241)
        rig = random_rig(rng, 2)
        pts = [ProjectivePoint((1, 0, 0, 1)), ProjectivePoint((0, 1, 0, 1)),
               ProjectivePoint((0, 0, 1, 1))]
        pts.append(pts[0])
        tuples4 = [forward_map(rig, p) for p in pts]
        assert all(r == 0 for r in coplanar_residuals(rig, tuples4))

    def test_system_form(self):
        rng = random.Random(251)
        rig = random_rig(rng, 2)
        system = constraint_system(rig, Family.COPLANAR)
        pts = [ProjectivePoint((rng.randint(-9, 9), rng.randint(-9, 9), 0, 1)) for _ in range(4)]
        tuples4 = [forward_map(rig, p) for p in pts]
        assert all(val == 0 for val in system.evaluate(*tuples4))


class TestOneBackendRule:
    """A tuple's image points share the rig's scalar backend: every entry
    point raises BackendError otherwise, whichever way the backends differ."""

    @staticmethod
    def _inputs(kind, n):
        rng = random.Random(f"backend:{kind}:{n}")
        rig = fraction_rig(rng, n) if kind == "fraction" else random_rig(rng, n)
        member = forward_map(rig, ProjectivePoint(random_world_point(rng)))
        if kind == "float":
            # int points (the exact member, integer-cleared) on a float rig
            rig = CameraRig([cam.matrix.to_float() for cam in rig.cameras])
            return rig, tuple(ProjectivePoint(p.canonical()) for p in member)
        return rig, tuple(p.to_float() for p in member)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["int", "fraction", "float"])
    def test_points_off_the_rig_backend_raise(self, kind, n):
        rig, u = self._inputs(kind, n)
        calls = [lambda: rig.cofactor_vectors(0, 1, u[0], u[1]),
                 lambda: multiview_membership(rig, u),
                 lambda: triangulation.triangulate(rig, u),
                 lambda: triangulation.is_triangulable(rig, u),
                 lambda: rigid_pair_oracle(rig, u, u),
                 lambda: constraint_system(rig, Family.COPLANAR).evaluate(u, u, u, u),
                 lambda: constraint_system(rig, Family.GENERAL_DE, form=FORM12).evaluate(u, u)]
        calls += [lambda fam=fam: rigid_pair_by_equations(rig, u, u, fam) for fam in _families(n)]
        calls += [lambda fam=fam: constraint_system(rig, fam).evaluate(u, u)
                  for fam in _families(n) + [Family.MULTIVIEW_BILINEAR]
                  + ([Family.MULTIVIEW_TRILINEAR] if n == 3 else [])]
        if n == 3:
            calls.append(lambda: constraint_system(rig, Family.PAIRWISE_DISTANCE,
                                                   squared_distances=(1, 2, 2)).evaluate(u, u, u))
        for call in calls:
            with pytest.raises(BackendError):
                call()


class TestGeneralForms:
    def test_zero_form_keeps_its_bidegree(self):
        # a form with no terms still has a bidegree, and the engine and the
        # symbolic expansion refuse it where (2, 2) is needed
        rig = random_rig(random.Random(617), 2)
        tensor = polarize(BihomForm((3, 1), {}))
        with pytest.raises(ValueError, match="bidegree"):
            all_octics_symbolic(rig, tensor)
        row_set = constraints._octic_row_set(2, Family.OCTIC_NINE)
        with pytest.raises(ValueError, match="bidegree"):
            constraints.OcticEngine(rig, (row_set, row_set), [(0, 1, tensor)])
        with pytest.raises(ValueError, match="bidegree"):
            constraint_system(rig, Family.OCTIC_NINE, form=BihomForm((3, 1), {}))
        assert tensor.bidegree == (3, 1)

    def test_unit_form_reproduces_octic_diagonal(self):
        # GENERAL_DE lists ((j1, k1, i), (j2, k2, kk)) in the order OCTIC_NINE
        # lists ((j1, k1, i, i), (j2, k2, kk, kk)), and with the unit-distance
        # form every value is the same octic
        rng = random.Random(257)
        for n in (2, 3):
            rig = random_rig(rng, n)
            x, y = unit_pair(rng)
            u, v = forward_map(rig, x), forward_map(rig, y)
            far = forward_map(rig, ProjectivePoint(random_world_point(rng)))
            general = constraint_system(rig, Family.GENERAL_DE, form=unit_distance_form())
            nine = constraint_system(rig, Family.OCTIC_NINE)
            assert [(a[:2] + a[2:] * 2, b[:2] + b[2:] * 2) for a, b in general.indices] \
                == list(nine.indices)
            assert general.evaluate(u, v) == nine.evaluate(u, v)
            assert general.evaluate(u, far) == nine.evaluate(u, far)
            assert any(value != 0 for value in general.evaluate(u, far))

    def test_degree_one_one_form(self):
        rng = random.Random(263)
        rig = random_rig(rng, 2)
        q = BihomForm((1, 1), {((0, 0, 0, 1), (0, 0, 0, 1)): 1})
        system = constraint_system(rig, Family.GENERAL_DE, form=q)
        # images of ideal points make the fourth wedge coordinate vanish
        x = ProjectivePoint((1, 2, 3, 0))
        y = ProjectivePoint((2, -1, 1, 1))
        u, v = forward_map(rig, x), forward_map(rig, y)
        assert system.evaluate(u, v)[0] == 0
        y2 = ProjectivePoint(random_world_point(rng))
        v2 = forward_map(rig, y2)
        vals = system.evaluate(forward_map(rig, ProjectivePoint((1, 2, 3, 1))), v2)
        assert any(val != 0 for val in vals)

    def test_coordinate_difference_form(self):
        rng = random.Random(269)
        rig = random_rig(rng, 2)
        q = BihomForm((1, 1), {((1, 0, 0, 0), (0, 0, 0, 1)): 1,
                               ((0, 0, 0, 1), (1, 0, 0, 0)): -1})
        system = constraint_system(rig, Family.GENERAL_DE, form=q)
        x = ProjectivePoint((5, 1, 2, 1))
        y = ProjectivePoint((5, -3, 7, 1))
        u, v = forward_map(rig, x), forward_map(rig, y)
        values = dict(zip(system.indices, system.evaluate(u, v)))
        for i in range(2):
            assert values[((0, 1, i), (0, 1, i))] == 0

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("form", [FORM11, unit_distance_form(), FORM31, FORM12],
                             ids=["form11", "form22", "form31", "form12"])
    def test_general_values_match_wedge5(self, n, form):
        rng = random.Random(277 + n)
        rig = random_rig(rng, n)
        u = forward_map(rig, ProjectivePoint(random_world_point(rng)))
        v = forward_map(rig, ProjectivePoint(random_world_point(rng)))
        system = constraint_system(rig, Family.GENERAL_DE, form=form)
        expected = []
        for u_sel, v_sel in system.indices:
            (j1, k1, i), (j2, k2, kk) = u_sel, v_sel
            bu = assemble_b(rig, j1, k1, u[j1], u[k1])
            bv = assemble_b(rig, j2, k2, v[j2], v[k2])
            expected.append(form.evaluate(wedge5(bu, i)[:4], wedge5(bv, kk)[:4]))
        assert system.evaluate(u, v) == expected
        assert any(value != 0 for value in expected)

    @pytest.mark.parametrize("form", [FORM11, unit_distance_form(), FORM31, FORM12],
                             ids=["form11", "form22", "form31", "form12"])
    def test_general_values_on_a_float_rig(self, form):
        # within the tolerance of test_float_rig_agrees_with_reference: 1e-12
        # times the form with absolute coefficients at the absolute vectors
        rng = random.Random(283)
        exact = random_rig(rng, 3)
        rig = CameraRig([cam.matrix.scaled(Fraction(37, 100)).to_float() for cam in exact.cameras])
        u, v = (forward_map(exact, ProjectivePoint(random_world_point(rng))) for _ in range(2))
        u, v = tuple(p.to_float() for p in u), tuple(p.to_float() for p in v)
        size_form = BihomForm(form.bidegree, {key: abs(c) for key, c in form.coeffs.items()})
        system = constraint_system(rig, Family.GENERAL_DE, form=form)
        for ((j1, k1, i), (j2, k2, kk)), got in zip(system.indices, system.evaluate(u, v)):
            wu = wedge5(assemble_b(rig, j1, k1, u[j1], u[k1]), i)[:4]
            wv = wedge5(assemble_b(rig, j2, k2, v[j2], v[k2]), kk)[:4]
            size = size_form.evaluate([abs(x) for x in wu], [abs(x) for x in wv])
            assert isinstance(got, float)
            assert abs(got - form.evaluate(wu, wv)) <= 1e-12 * size

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_float_coefficients_equal_their_fractions(self, backend):
        # polarize keeps a coefficient of multinomial count 1 as it is, so
        # these forms reach the dense matrix with float coefficients
        rng = random.Random(293)
        rig = random_rig(rng, 3)
        x = random_world_point(rng)
        y = (x[0] + Fraction(3, 2),) + x[1:]
        z = (x[0], x[1] + 1) + x[2:]
        if backend == "float":
            rig = CameraRig([cam.matrix.to_float() for cam in rig.cameras])
            x, y, z = ([float(c) for c in p] for p in (x, y, z))
        u, v, w = (forward_map(rig, ProjectivePoint(p)) for p in (x, y, z))
        float_form = BihomForm((1, 2), {((1, 0, 0, 0), (0, 1, 1, 0)): 0.5,
                                        ((0, 0, 0, 1), (0, 0, 0, 2)): -2.0})
        exact_form = BihomForm((1, 2), {((1, 0, 0, 0), (0, 1, 1, 0)): Fraction(1, 2),
                                        ((0, 0, 0, 1), (0, 0, 0, 2)): -2})
        for family, floats, fractions, tuples in [
                (Family.OCTIC_FULL, {"form": distance_form(1.5)},
                 {"form": distance_form(Fraction(3, 2))}, (u, v)),
                (Family.GENERAL_DE, {"form": float_form}, {"form": exact_form}, (u, v)),
                (Family.PAIRWISE_DISTANCE, {"squared_distances": (2.25, 1.0, 3.25)},
                 {"squared_distances": (Fraction(9, 4), 1, Fraction(13, 4))}, (u, v, w))]:
            got = constraint_system(rig, family, **floats).evaluate(*tuples)
            assert got == constraint_system(rig, family, **fractions).evaluate(*tuples)
            if backend == "exact" and family != Family.GENERAL_DE:
                # x, y and z are at squared distances 9/4, 1 and 13/4
                assert all(value == 0 for value in got)

    def test_general_system_count(self):
        rng = random.Random(271)
        rig = random_rig(rng, 2)
        system = constraint_system(rig, Family.GENERAL_DE, form=unit_distance_form())
        assert len(system) == 9


class TestDistanceTriples:
    def test_discriminant_values(self):
        assert collinearity_discriminant(1, 1, 2) == 0
        assert collinearity_discriminant(1, 1, 1) == 3
        with pytest.raises(ValueError):
            collinearity_discriminant(1, -1, 1)

    def test_squared_form_matches(self):
        for d in ((1, 1, 2), (1, 1, 1), (2, 3, 4)):
            expanded = squared_distance_discriminant(d[0] ** 2, d[1] ** 2, d[2] ** 2)
            assert expanded == collinearity_discriminant(*d)

    def test_triangle_inequality(self):
        assert triangle_inequality_ok(1, 1, 1)
        assert not triangle_inequality_ok(1, 2, 5)
        assert not triangle_inequality_ok(1, 1, 2)

    def test_pairwise_system_vanishes_on_configurations(self):
        rng = random.Random(277)
        rig = random_rig(rng, 2)
        # right triangle: squared distances 1, 1, 2 (the hypotenuse is irrational)
        pts = (ProjectivePoint((0, 0, 0, 1)), ProjectivePoint((1, 0, 0, 1)),
               ProjectivePoint((0, 1, 0, 1)))
        tuples3 = [forward_map(rig, p) for p in pts]
        system = constraint_system(rig, Family.PAIRWISE_DISTANCE, squared_distances=(1, 1, 2))
        assert len(system) == 27
        assert all(val == 0 for val in system.evaluate(*tuples3))

    def test_pairwise_system_rejects_wrong_configuration(self):
        rng = random.Random(283)
        rig = random_rig(rng, 2)
        pts = (ProjectivePoint((0, 0, 0, 1)), ProjectivePoint((1, 0, 0, 1)),
               ProjectivePoint((0, 5, 0, 1)))
        tuples3 = [forward_map(rig, p) for p in pts]
        system = constraint_system(rig, Family.PAIRWISE_DISTANCE, squared_distances=(1, 1, 2))
        assert any(val != 0 for val in system.evaluate(*tuples3))


class TestChow:
    def test_map_examples(self):
        a = chow_map(ProjectivePoint((1, 0, 0)), ProjectivePoint((1, 0, 0)))
        assert a == Mat([[2, 0, 0], [0, 0, 0], [0, 0, 0]])
        b = chow_map(ProjectivePoint((0, 0, 1)), ProjectivePoint((0, 2, 1)))
        assert b == Mat([[0, 0, 0], [0, 0, 2], [0, 2, 2]])
        assert det(b) == 0

    def test_map_symmetric_in_arguments(self):
        u = ProjectivePoint((1, 2, 3))
        v = ProjectivePoint((4, -1, 5))
        assert chow_map(u, v) == chow_map(v, u)
        assert det(chow_map(u, v)) == 0

    def test_factor_round_trip_simple(self):
        u = ProjectivePoint((1, 0, 0))
        v = ProjectivePoint((0, 1, 0))
        got = chow_factor(chow_map(u, v))
        assert {p.canonical() for p in got} == {u.canonical(), v.canonical()}

    def test_factor_double_line(self):
        u = ProjectivePoint((2, -1, 3))
        got = chow_factor(chow_map(u, u))
        assert all(p == u for p in got)

    def test_factor_random_round_trips(self):
        rng = random.Random(281)
        for _ in range(25):
            u = ProjectivePoint((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)))
            v = ProjectivePoint((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)))
            got = chow_factor(chow_map(u, v))
            assert {p.canonical() for p in got} == {u.canonical(), v.canonical()}

    def test_rank_three_rejected(self):
        with pytest.raises(ChowFactorError) as exc:
            chow_factor(Mat.identity(3))
        assert exc.value.reason == "rank3"

    def test_float_matrix_raises_backend_error(self):
        a = chow_map(ProjectivePoint((1, 2, -1)), ProjectivePoint((3, 0, 1)))
        with pytest.raises(BackendError):
            chow_factor(a.to_float())

    def test_complex_split_rejected(self):
        with pytest.raises(ChowFactorError) as exc:
            chow_factor(Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
        assert exc.value.reason == "complex"

    def test_scaled_input_still_factors(self):
        u = ProjectivePoint((1, 2, -1))
        v = ProjectivePoint((3, 0, 1))
        a = chow_map(u, v).scaled(6)
        got = chow_factor(a)
        assert {p.canonical() for p in got} == {u.canonical(), v.canonical()}

    @pytest.mark.parametrize("u, v, scale, want", [
        ((1, 0, 0), (0, 1, 0), 1, [(0, Fraction(2), Fraction(0)), (Fraction(2), 0, Fraction(0))]),
        ((2, -1, 3), (2, -1, 3), 1, [(12, -6, 18), (12, -6, 18)]),
        ((1, 2, -1), (3, 0, 1), 6,
         [(36, Fraction(72), Fraction(-36)), (Fraction(72), 0, Fraction(24))]),
    ])
    def test_factors_are_pinned(self, u, v, scale, want):
        # the representatives themselves, with their types, not only their
        # projective classes, on the inputs of the tests above
        got = chow_factor(chow_map(ProjectivePoint(u), ProjectivePoint(v)).scaled(scale))
        assert [p.coords for p in got] == want
        assert [[type(c) for c in p.coords] for p in got] == [[type(c) for c in w] for w in want]

    def test_random_round_trip_factors_are_pinned(self):
        # the inputs of test_factor_random_round_trips; digest of every
        # returned coordinate's type and value
        rng = random.Random(281)
        out = []
        for _ in range(25):
            u = ProjectivePoint((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)))
            v = ProjectivePoint((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)))
            out.append([tuple((type(c).__name__, str(c)) for c in p.coords)
                        for p in chow_factor(chow_map(u, v))])
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "9a5db63dec78b06489421a443a9fbe3cc91e719674f8c309f503747e4693876d")
