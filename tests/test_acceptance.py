"""Acceptance suite: every criterion at its stated sample count and
tolerance, one printed pass/fail line each.  Run with `pytest -v
tests/test_acceptance.py` (add -s to see the lines while running).
"""

import random

from rigidview.cameras import CameraRig, ProjectivePoint
from rigidview.constraints import chow_factor, chow_map
from rigidview.harness import (
    make_scene,
    numeric_dimension,
    random_rig,
    refine_rigid_pair,
    run_experiment,
    sample_unit_pair,
)
from rigidview.linalg import Mat, det, rank
from rigidview.polyspace import expand_wedge_symbolic, variable_index


def _announce(num, label, passed):
    print(f"criterion {num:02d} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label}) failed"


def to_float_rig(rig):
    return CameraRig([c.matrix.to_float() for c in rig.cameras])


def affine_obs(tup):
    return [(float(p[0]) / float(p[2]), float(p[1]) / float(p[2])) for p in tup]


def test_criterion_01_exact_vanishing():
    # >=100 (rig, unit-pair) samples over n in {2,3,4}: every full-family
    # octic, bilinear determinant and trilinear residual is exactly zero
    report = run_experiment("VANISH", {"samples": 102, "n": [2, 3, 4], "seed": 101})
    assert report.samples >= 100
    _announce(1, "exact vanishing", report.passed)


def test_criterion_02_separation():
    # >=100 samples at non-unit distance: some nine-family value nonzero and
    # the direct oracle rejects
    report = run_experiment("SEPARATE", {"samples": 100, "seed": 102})
    assert report.samples >= 100
    _announce(2, "separation", report.passed)


def test_criterion_03_full_family_equivalence():
    # >=300 mixed samples (members, nonmembers, epipole components), n in
    # {2,3}: equation-side verdicts agree with the oracle on every sample
    report = run_experiment("THM32_EQUIV", {"samples": 300, "n": [2, 3], "seed": 103})
    assert report.samples >= 300
    _announce(3, "full-family equivalence", report.passed)


def test_criterion_04_sixteen_family_three_cameras():
    # >=200 samples, generic three-camera rigs: the sixteen-polynomial family
    # agrees with the oracle
    report = run_experiment("COR34_SIXTEEN", {"samples": 200, "seed": 104})
    assert report.samples >= 200
    _announce(4, "sixteen-polynomial family", report.passed)


def test_criterion_05_span_dimensions():
    # >=5 random two-camera rigs: the 441 octics span dimension 126 and the
    # quotient modulo the 648-element ideal slice has dimension 9 (mod p)
    report = run_experiment("SPAN_126_9", {"rigs": 5, "seed": 105})
    dims = [(entry["span"], entry["quotient"]) for entry in report.details["dims"]]
    _announce(5, "span dimensions 126/9", report.passed and dims == [(126, 9)] * 5)


def test_criterion_06_generator_counts():
    # totals 11 / 177 / 1176 / 4940 and per-class sums for n up to 12
    report = run_experiment("COUNTS", {})
    totals = report.details["totals"]
    expected = {"2": 11, "3": 177, "4": 1176, "5": 4940}
    _announce(6, "generator counting", report.passed and totals == expected)


def test_criterion_07_numeric_dimensions():
    # image dimensions: rigid pair 5; coplanar quadruple 11; pairwise-distance
    # triple 6 generically and 5 on the degeneracy locus; each stable over
    # five base points
    rig = to_float_rig(random_rig(107, 2))
    ok = numeric_dimension(rig, "rigid_pair", seed=107) == 5
    ok = ok and numeric_dimension(rig, "coplanar_4", seed=107) == 11
    ok = ok and numeric_dimension(rig, "pairwise_3", (1, 1, 1), seed=107) == 6
    ok = ok and numeric_dimension(rig, "pairwise_3", (1, 1, 2), seed=107) == 5
    _announce(7, "numeric dimensions", ok)


def test_criterion_08_epipole_component():
    # >=20 rigs: the epipole pair is the unique rank-4 point of the pair
    # matrix found by the minor check, and the octics vanish identically on
    # sampled (variety point, epipole pair) combinations
    report = run_experiment("EPIPOLE_COMPONENT", {"rigs": 20, "probes": 10, "seed": 108})
    assert report.samples >= 20
    _announce(8, "epipole component", report.passed)


def test_criterion_09_symbolic_coefficient():
    # >=20 rigs: the u_(1,1) u_(2,0) coefficient of the first cofactor
    # coordinate matches the signed 3x3 camera minor in closed form
    ok = True
    for idx in range(20):
        rig = random_rig(f"coeff:{idx}", 2)
        a1 = rig.camera(0).matrix
        a2 = rig.camera(1).matrix
        poly = expand_wedge_symbolic(rig, 0, 1, 0)[0]
        exps = [0] * 12
        exps[variable_index(2, "u", 0, 1)] = 1
        exps[variable_index(2, "u", 1, 0)] = 1
        got = poly.coefficient(tuple(exps))
        want = -(a1[2, 1] * a2[1, 2] * a2[2, 3] - a1[2, 1] * a2[1, 3] * a2[2, 2]
                 - a1[2, 2] * a2[1, 1] * a2[2, 3] + a1[2, 2] * a2[1, 3] * a2[2, 1]
                 + a1[2, 3] * a2[1, 1] * a2[2, 2] - a1[2, 3] * a2[1, 2] * a2[2, 1])
        ok = ok and got == want
    _announce(9, "symbolic wedge coefficient", ok)


def test_criterion_10_fundamental_and_chow():
    # fundamental matrices: rank 2, epipolar null vectors, bilinear values
    # equal to the pair determinant on 100 random inputs per rig; the
    # unordered-pair map round-trips on >=100 random pairs with exactly
    # singular images
    ok = True
    for idx in range(3):
        rng = random.Random(f"fund:{idx}")
        rig = random_rig(rng, 2)
        f = rig.fundamental(0, 1)
        ok = ok and rank(f).rank == 2
        ok = ok and f.apply(rig.epipole(1, 0).coords) == (0, 0, 0)
        ok = ok and f.transpose().apply(rig.epipole(0, 1).coords) == (0, 0, 0)
        for _ in range(100):
            u1 = [rng.randint(-9, 9) for _ in range(3)]
            u2 = [rng.randint(-9, 9) for _ in range(3)]
            rows = [list(rig.camera(0).matrix.data[r]) + [u1[r], 0] for r in range(3)]
            rows += [list(rig.camera(1).matrix.data[r]) + [0, u2[r]] for r in range(3)]
            bilinear = sum(u1[a] * f[a, b] * u2[b] for a in range(3) for b in range(3))
            ok = ok and bilinear == det(Mat(rows))
    rng = random.Random("chow")
    count = 0
    while count < 100:
        try:
            u = ProjectivePoint([rng.randint(-9, 9) for _ in range(3)])
            v = ProjectivePoint([rng.randint(-9, 9) for _ in range(3)])
        except ValueError:
            continue
        a = chow_map(u, v)
        ok = ok and det(a) == 0
        pair = chow_factor(a)
        ok = ok and {p.canonical() for p in pair} == {u.canonical(), v.canonical()}
        count += 1
    _announce(10, "fundamental matrices and unordered pairs", ok)


def test_criterion_11_refinement_descent():
    # >=100 noisy three-camera instances at sigma 1e-4 and 1e-3: the refined
    # residual never exceeds the projected initial residual and the returned
    # pair satisfies the unit constraint to 1e-14
    ok = True
    checked = 0
    for idx in range(100):
        sigma = 1e-4 if idx % 2 == 0 else 1e-3
        rig = random_rig(f"refine:{idx}", 3)
        frig = to_float_rig(rig)
        x, y = sample_unit_pair(f"refinepair:{idx}")
        try:
            scene = make_scene(rig, [x, y], sigma=sigma, seed=idx)
        except Exception:
            continue
        res = refine_rigid_pair(frig, affine_obs(scene.image_tuples[0]),
                                affine_obs(scene.image_tuples[1]))
        q = sum((a - b) ** 2 for a, b in zip(res.x, res.y)) - 1
        ok = ok and res.residual <= res.initial_residual and abs(q) <= 1e-14
        checked += 1
    ok = ok and checked >= 100
    _announce(11, "refinement descent", ok)
