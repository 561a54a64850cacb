import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from helpers import count_calls
from rigidview import harness, triangulation
from rigidview.cameras import CameraRig, ProjectivePoint, forward_map
from rigidview.constraints import unit_distance_form
from rigidview.harness import (
    InfeasibleScenarioError,
    Scene,
    make_scene,
    numeric_dimension,
    random_affine_point,
    random_camera,
    random_rig,
    refine_rigid_pair,
    run_experiment,
    sample_member_pair,
    sample_nonmember_pair,
    sample_scaled_pair,
    sample_unit_pair,
    stereo_direction,
)
from rigidview.linalg import rank


def to_float_rig(rig):
    return CameraRig([c.matrix.to_float() for c in rig.cameras])


def affine_obs(tup):
    return [(float(p[0]) / float(p[2]), float(p[1]) / float(p[2])) for p in tup]


class TestRandomGeneration:
    def test_camera_determinism(self):
        assert random_camera(42) == random_camera(42)
        assert random_camera(42) != random_camera(43)

    def test_cameras_have_rank_three(self):
        rng = random.Random(0)
        for _ in range(200):
            assert rank(random_camera(rng)).rank == 3

    def test_entry_ranges(self):
        rng = random.Random(5)
        m = random_camera(rng, height=20)
        assert all(0 <= x < 20 for row in m.data for x in row)
        m2 = random_camera(rng, height=5, signed=True)
        assert all(-5 <= x <= 5 for row in m2.data for x in row)

    def test_height_validation(self):
        with pytest.raises(ValueError):
            random_camera(1, height=1)

    def test_rig_general_position(self):
        for n in (2, 3, 4, 5):
            rig = random_rig(7, n)
            assert rig.n == n
            assert rig.general_position.ok

    def test_rig_determinism(self):
        a = random_rig(9, 3)
        b = random_rig(9, 3)
        assert all(x.matrix == y.matrix for x, y in zip(a.cameras, b.cameras))


class TestUnitPairSampling:
    def test_stereo_examples(self):
        assert stereo_direction(0, 0) == (0, 0, -1)
        assert stereo_direction(1, 0) == (1, 0, 0)

    def test_direction_on_unit_sphere(self):
        rng = random.Random(13)
        for _ in range(50):
            p = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            q = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            d = stereo_direction(p, q)
            assert sum(c * c for c in d) == 1

    def test_unit_pairs_exactly_unit_distance(self):
        q = unit_distance_form()
        rng = random.Random(17)
        for _ in range(200):
            x, y = sample_unit_pair(rng)
            assert q.evaluate(x.coords, y.coords) == 0

    def test_scaled_pair_distance(self):
        q = unit_distance_form()
        x, y = sample_scaled_pair(23, 3)
        # squared distance 9, so the unit form evaluates to 8
        assert q.evaluate(x.coords, y.coords) == 8

    def test_affine_chart(self):
        x = random_affine_point(29)
        assert x.coords[3] == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_samplers_skip_the_membership_test(self, monkeypatch, n):
        # forward images are consistent by construction; only a missing
        # witness of their cofactor pass can reject them
        membership = count_calls(monkeypatch, triangulation, "multiview_membership")
        scans = count_calls(monkeypatch, harness, "CofactorPass")
        rig = random_rig(5, n)
        sample_member_pair(rig, 5)
        sample_nonmember_pair(rig, 5)
        assert membership == [] and len(scans) >= 4


class TestScene:
    def test_noiseless_scene_consistent(self):
        rig = random_rig(31, 2)
        x, y = sample_unit_pair(31)
        scene = make_scene(rig, [x, y])
        for pt, tup in zip(scene.world_points, scene.image_tuples):
            expected = forward_map(rig, pt)
            assert all(a == b for a, b in zip(tup, expected))

    def test_noisy_scene_close_but_not_exact(self):
        rig = random_rig(37, 3)
        x, y = sample_unit_pair(37)
        scene = make_scene(rig, [x, y], sigma=1e-3, seed=99)
        assert isinstance(scene, Scene)
        exact = affine_obs(forward_map(rig, x))
        noisy = affine_obs(scene.image_tuples[0])
        deltas = [abs(a[0] - b[0]) + abs(a[1] - b[1]) for a, b in zip(exact, noisy)]
        assert all(d < 0.1 for d in deltas)
        assert any(d > 0 for d in deltas)

    def test_noise_determinism(self):
        rig = random_rig(41, 2)
        x, y = sample_unit_pair(41)
        a = make_scene(rig, [x, y], sigma=1e-3, seed=7)
        b = make_scene(rig, [x, y], sigma=1e-3, seed=7)
        for ta, tb in zip(a.image_tuples, b.image_tuples):
            assert all(pa.coords == pb.coords for pa, pb in zip(ta, tb))


class TestNumericDimension:
    def test_rigid_pair_is_five(self):
        rig = to_float_rig(random_rig(43, 2))
        assert numeric_dimension(rig, "rigid_pair", seed=1) == 5

    def test_rigid_pair_three_cameras(self):
        rig = to_float_rig(random_rig(47, 3))
        assert numeric_dimension(rig, "rigid_pair", seed=1) == 5

    def test_coplanar_four_is_eleven(self):
        rig = to_float_rig(random_rig(53, 2))
        assert numeric_dimension(rig, "coplanar_4", seed=1) == 11

    def test_pairwise_generic_is_six(self):
        rig = to_float_rig(random_rig(59, 2))
        assert numeric_dimension(rig, "pairwise_3", (1, 1, 1), seed=1) == 6

    def test_pairwise_degenerate_is_five(self):
        rig = to_float_rig(random_rig(61, 2))
        assert numeric_dimension(rig, "pairwise_3", (1, 1, 2), seed=1) == 5

    def test_triangle_violation_is_infeasible(self):
        rig = to_float_rig(random_rig(67, 2))
        with pytest.raises(InfeasibleScenarioError):
            numeric_dimension(rig, "pairwise_3", (1, 2, 5), seed=1)

    def test_exact_rig_rejected(self):
        rig = random_rig(71, 2)
        with pytest.raises(ValueError):
            numeric_dimension(rig, "rigid_pair", seed=1)

    def test_distances_only_for_the_pairwise_scenario(self):
        rig = to_float_rig(random_rig(71, 2))
        with pytest.raises(ValueError):
            numeric_dimension(rig, "rigid_pair", (1, 1, 1), seed=1)
        with pytest.raises(ValueError):
            numeric_dimension(rig, "pairwise_3", seed=1)


class TestRefinement:
    def test_noiseless_recovery(self):
        rig = random_rig(73, 3)
        frig = to_float_rig(rig)
        x, y = sample_unit_pair(73)
        obs_u = affine_obs(forward_map(rig, x))
        obs_v = affine_obs(forward_map(rig, y))
        res = refine_rigid_pair(frig, obs_u, obs_v)
        assert res.residual < 1e-12
        for got, want in zip(res.x, x.coords[:3]):
            assert got == pytest.approx(float(want), abs=1e-5)

    def test_descent_on_noisy_input(self):
        rig = random_rig(79, 3)
        frig = to_float_rig(rig)
        for idx in range(10):
            x, y = sample_unit_pair(random.Random(f"descent:{idx}"))
            scene = make_scene(rig, [x, y], sigma=1e-3, seed=idx)
            res = refine_rigid_pair(frig, affine_obs(scene.image_tuples[0]),
                                    affine_obs(scene.image_tuples[1]))
            assert res.residual <= res.initial_residual

    def test_constraint_enforced(self):
        rig = random_rig(83, 3)
        frig = to_float_rig(rig)
        x, y = sample_unit_pair(83)
        scene = make_scene(rig, [x, y], sigma=1e-4, seed=3)
        res = refine_rigid_pair(frig, affine_obs(scene.image_tuples[0]),
                                affine_obs(scene.image_tuples[1]))
        q = sum((a - b) ** 2 for a, b in zip(res.x, res.y)) - 1
        assert abs(q) <= 1e-14

    def test_float_rig_required(self):
        rig = random_rig(89, 3)
        with pytest.raises(ValueError):
            refine_rigid_pair(rig, [(0, 0)] * 3, [(0, 0)] * 3)

    @pytest.mark.parametrize("count_u, count_v", [(1, 3), (3, 2), (2, 2), (4, 4)])
    def test_one_observation_per_camera_required(self, count_u, count_v):
        # no observation is dropped and no camera skipped in silence
        frig = to_float_rig(random_rig(97, 3))
        with pytest.raises(ValueError, match="3 observations per side"):
            refine_rigid_pair(frig, [(0.1, 0.2)] * count_u, [(0.3, 0.4)] * count_v)


class TestExperiments:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            run_experiment("NO_SUCH_TAG")

    @pytest.mark.parametrize("tag,config", [
        ("VANISH", {"samples": 3, "seed": 2}),
        ("SEPARATE", {"samples": 3, "seed": 2}),
        ("THM32_EQUIV", {"samples": 6, "seed": 2}),
        ("COR34_SIXTEEN", {"samples": 4, "seed": 2}),
        ("COUNTS", {}),
        ("EPIPOLE_COMPONENT", {"rigs": 2, "probes": 3, "seed": 2}),
        ("GROUP_ACTION", {"samples": 2, "seed": 2}),
        ("COPLANAR", {"samples": 2, "seed": 2}),
        ("PAIRWISE_TRIANGLE", {"samples": 3, "seed": 2}),
    ])
    def test_experiments_pass(self, tag, config):
        report = run_experiment(tag, config)
        assert report.passed, report.failures

    def test_span_experiment(self):
        report = run_experiment("SPAN_126_9", {"rigs": 1, "seed": 4})
        assert report.passed, report.failures
        assert report.details["dims"][0]["span"] == 126
        assert report.details["dims"][0]["quotient"] == 9
        assert 2 ** 30 <= report.details["dims"][0]["modulus"] < 2 ** 31
        assert 0 < report.details["dims"][0]["failure_bound"] < 1e-3

    def test_group_action_decides_each_base_pair_once(self, monkeypatch):
        # per sample and kind: the base pair once, then the right and the
        # left action's pairs, each compared with that one verdict
        calls = count_calls(monkeypatch, harness, "rigid_pair_by_equations")
        report = run_experiment("GROUP_ACTION", {"samples": 2, "seed": 2})
        assert report.passed, report.failures
        assert len(calls) == 2 * 2 * 3

    def test_report_reproducible(self):
        a = run_experiment("SEPARATE", {"samples": 3, "seed": 11})
        b = run_experiment("SEPARATE", {"samples": 3, "seed": 11})
        assert a.canonical_json() == b.canonical_json()

    def test_report_json_shape(self):
        report = run_experiment("COUNTS", {})
        doc = report.to_json()
        assert doc["experiment"] == "COUNTS"
        assert doc["passed"] is True
        assert "wall_clock_s" in doc
        assert "wall_clock_s" not in report.canonical_json()


def _replace_first_calls(monkeypatch, name, replacement, count):
    """Route the first ``count`` calls of ``harness.<name>`` to ``replacement``."""
    real = getattr(harness, name)
    calls = itertools.count()

    def patched(*args, **kwargs):
        return (replacement if next(calls) < count else real)(*args, **kwargs)

    monkeypatch.setattr(harness, name, patched)


def _unprojectable(*args, **kwargs):
    raise ValueError("world point is a focal point")


class TestExperimentCounts:
    @pytest.mark.parametrize("tag,name,replacement,count", [
        # the first sample's quadruple cannot be projected
        ("COPLANAR", "forward_map", _unprojectable, 1),
        # the first sample's three points coincide
        ("PAIRWISE_TRIANGLE", "random_affine_point",
         lambda *args: ProjectivePoint((0, 0, 0, 1)), 3),
    ])
    def test_skipped_samples_are_not_reported_as_checked(self, monkeypatch, tag, name,
                                                         replacement, count):
        _replace_first_calls(monkeypatch, name, replacement, count)
        report = run_experiment(tag, {"samples": 3, "seed": 2})
        assert report.passed, report.failures
        assert report.details["skipped"] == 1
        assert report.samples + report.details["skipped"] == 3

    def test_epipole_probes_checked_and_skipped(self, monkeypatch):
        _replace_first_calls(monkeypatch, "forward_map", _unprojectable, 1)
        report = run_experiment("EPIPOLE_COMPONENT", {"rigs": 2, "probes": 3, "seed": 2})
        assert report.passed, report.failures
        assert report.details == {"probes_checked": 5, "probes_skipped": 1}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedDraws:
    """sha256 digests of seeded reports and sampler outputs.  They change
    when any draw, its order, or the value or type of a result changes."""

    @pytest.mark.parametrize("tag,config,digest", [
        ("VANISH", {"samples": 3, "seed": 2},
         "4c3f9413e2b54d9a202261d0cbcc723a4d4fd1c6ca8c9c5f8d3c2fad27a80992"),
        ("SEPARATE", {"samples": 3, "seed": 2},
         "652dc8f41dc6768b49f672961dbabe7ebce0e76275bed6c77c2ca39965ed9de1"),
        ("THM32_EQUIV", {"samples": 6, "seed": 2},
         "42cd5e4408ace0eb84bdec887e3a3cfe60ef99f78b8f9e1bda267a9ebd32e1f9"),
        ("COR34_SIXTEEN", {"samples": 4, "seed": 2},
         "c5a1bd9b0f494c89eb3157d7dbc97774e1ab3fcf657a69b850e699c4a0874f8b"),
        ("SPAN_126_9", {"rigs": 1, "seed": 4},
         "cdf035ffe686bcc5b7fdd8508685637794f13b955ce0b8574a1c048900b9f367"),
        ("COUNTS", {},
         "6052a0ef43994d10b2ce74a3ff359d3d09293029f148ae4dd1b3221b38ade1b8"),
        ("EPIPOLE_COMPONENT", {"rigs": 2, "probes": 3, "seed": 2},
         "87a9884a7a0cd67baab18abe1d1f9ad63c4bee3ddd51215d79425b708b059360"),
        ("GROUP_ACTION", {"samples": 2, "seed": 2},
         "3e87583973781dacc463db1e2d2f805716815250ce32551f77721c060d56d507"),
        ("COPLANAR", {"samples": 2, "seed": 2},
         "b90aece331a04d7e61793f144961d16c01261cdf894ec28bf8ce7ab1bffaa85a"),
        ("PAIRWISE_TRIANGLE", {"samples": 3, "seed": 2},
         "5ba7189b5d2deb6e2dfb98226be94f4d153c61b90f055ca88c15a1abffad082a"),
    ])
    def test_canonical_report(self, tag, config, digest):
        assert _sha256(run_experiment(tag, config).canonical_json()) == digest

    # every rig drawn and every world point projected, with its images, in
    # order; the reports above record little more than pass or fail
    @pytest.mark.parametrize("tag,config,digest", [
        ("VANISH", {"samples": 3, "seed": 2},
         "dbd4dcffe85e2ab1a5b3b06afc585f05f57937791a13f6cdb2afb7a6269709e9"),
        ("SEPARATE", {"samples": 3, "seed": 2},
         "6f29398598b711f548ec77ce8d8116010d5ff79b1242387d88e5beda77bafc8a"),
        ("THM32_EQUIV", {"samples": 6, "seed": 2},
         "111c88b7db2724b029d1b620bc4999233f9f9431489e300ebfae0f06f0b9aa6d"),
        ("COR34_SIXTEEN", {"samples": 4, "seed": 2},
         "7198fe88a43f2feb61f12ad33c60facbb9daf1baa5eb0a610c9887d122131cdf"),
        ("SPAN_126_9", {"rigs": 1, "seed": 4},
         "0a5bfe65f1913ec446f63f04f0f72aade71ca970eb878b26ca3c3256615691d7"),
        ("EPIPOLE_COMPONENT", {"rigs": 2, "probes": 3, "seed": 2},
         "9dc2acee8410ef330cb9f9244d4bbdef71b0889c343a4f77f1337577f8c2d9a3"),
        ("GROUP_ACTION", {"samples": 2, "seed": 2},
         "e581e329ba052c1c298e64edf83db3c20149902134117a0edf28ef216adef2fb"),
        ("COPLANAR", {"samples": 2, "seed": 2},
         "b9e4d888fade49e2569cd557322ff11fa8ea0d0adb2789890d81a6b0cae857e6"),
        ("PAIRWISE_TRIANGLE", {"samples": 3, "seed": 2},
         "ba36ff25636e5680be216b4a884fe188781e507f77231937e97f0f7e1b15f4b3"),
    ])
    def test_draws(self, monkeypatch, tag, config, digest):
        def data(obj):
            if isinstance(obj, CameraRig):
                return tuple(c.matrix.data for c in obj.cameras)
            if isinstance(obj, tuple):
                return tuple(data(p) for p in obj)
            return getattr(obj, "coords", obj)

        trace = []
        for name in ("random_rig", "forward_map"):
            def traced(*args, real=getattr(harness, name), **kwargs):
                out = real(*args, **kwargs)
                rig = data(args[0]) if isinstance(args[0], CameraRig) else None
                trace.append(repr((rig, data(args[1]) if len(args) > 1 else None, data(out))))
                return out
            monkeypatch.setattr(harness, name, traced)
        run_experiment(tag, config)
        assert _sha256("\n".join(trace)) == digest

    # seeds 10 and 174 draw t = 1 in sample_nonmember_pair once and twice
    @pytest.mark.parametrize("n,digest", [
        (2, "55f93d75992c95e20a5e616999e0e9bd5100bfd103b8fcfa24e5cb919a47162c"),
        (3, "bab51f50b89e6713c07ba187295477f8f63863d48a59fa8ecc90ea91989d7e1b"),
        (4, "bb40da174407dc438dc781cc67e94b401ecc63d3ef6a5559b7571096b0528c24"),
    ])
    def test_sampler_outputs(self, n, digest):
        out = []
        for seed in (0, 1, 2, 10, 174):
            rig = random_rig(seed, n)
            out += [repr(sample_member_pair(rig, seed)), repr(sample_nonmember_pair(rig, seed)),
                    repr(sample_unit_pair(seed))]
        assert _sha256("\n".join(out)) == digest

    def test_unit_t_uses_up_a_redraw(self, monkeypatch):
        rig = random_rig(10, 2)
        monkeypatch.setattr(harness, "MAX_REDRAWS", 1)
        with pytest.raises(harness.SamplingError):
            sample_nonmember_pair(rig, 10)
        monkeypatch.setattr(harness, "MAX_REDRAWS", 2)
        _, _, x, y = sample_nonmember_pair(rig, 10)
        assert x.coords[:3] == (Fraction(-97, 27), Fraction(2, 7), Fraction(-29, 84))
