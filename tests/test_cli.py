import json
import random
from fractions import Fraction

import pytest

from rigidview import harness
from rigidview.cameras import ProjectivePoint, rig_from_json, rig_to_json
from rigidview.cli import main
from rigidview.constraints import rigid_pair_oracle
from rigidview.linalg import decode_scalar, encode_scalar
from rigidview.triangulation import triangulate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestGenRig:
    def test_deterministic_output(self, capsys):
        code1, doc1 = run_cli(capsys, "--seed", "7", "gen-rig", "--n", "3")
        code2, doc2 = run_cli(capsys, "--seed", "7", "gen-rig", "--n", "3")
        assert code1 == code2 == 0
        assert doc1 == doc2
        assert len(doc1["cameras"]) == 3
        assert all(len(flat) == 12 for flat in doc1["cameras"])

    def test_json_out_file(self, tmp_path, capsys):
        path = tmp_path / "rig.json"
        code = main(["--seed", "1", "--json-out", str(path), "gen-rig", "--n", "2"])
        assert code == 0
        doc = json.loads(path.read_text())
        assert len(doc["cameras"]) == 2


class TestProjectTriangulate:
    @pytest.fixture
    def rig_file(self, tmp_path, capsys):
        path = tmp_path / "rig.json"
        main(["--seed", "3", "--json-out", str(path), "gen-rig", "--n", "2"])
        capsys.readouterr()
        return str(path)

    def test_project_then_triangulate_round_trip(self, rig_file, capsys):
        code, doc = run_cli(capsys, "project", "--rig", rig_file,
                            "--point", "[2, -1, 3, 1]")
        assert code == 0
        images = doc["images"]
        code, sol = run_cli(capsys, "triangulate", "--rig", rig_file,
                            "--tuple", json.dumps(images))
        assert code == 0
        got = [str(c) for c in sol["point"]]
        # up to scale: cross-check one ratio
        from fractions import Fraction
        vals = [Fraction(c) for c in got]
        assert vals[0] * 1 == vals[3] * 2 and vals[1] == -vals[3]

    def test_triangulate_record(self, rig_file, capsys):
        code, doc = run_cli(capsys, "project", "--rig", rig_file, "--point", "[2, -1, 3, 1]")
        images = doc["images"]
        code, record = run_cli(capsys, "triangulate", "--rig", rig_file,
                               "--tuple", json.dumps(images))
        assert code == 0
        assert set(record) == {"point", "lambdas", "witness"}
        assert set(record["witness"]) == {"pair", "row"}
        rig = rig_from_json(json.loads(open(rig_file).read()))
        sol = triangulate(rig, tuple(ProjectivePoint(decode_scalar(c) for c in p) for p in images))
        assert record["witness"] == {"pair": list(sol.pair), "row": sol.row}
        assert record["lambdas"] == [encode_scalar(s) for s in sol.lambdas]

    def test_float_triangulate_record(self, tmp_path, capsys):
        rig_file = str(tmp_path / "frig.json")
        main(["--seed", "1", "--backend", "float", "--json-out", rig_file, "gen-rig", "--n", "2"])
        want = [2.0, -1.0, 3.0, 1.0]
        code, doc = run_cli(capsys, "--backend", "float", "project", "--rig", rig_file,
                            "--point", json.dumps(want))
        assert code == 0
        code, record = run_cli(capsys, "--backend", "float", "triangulate", "--rig", rig_file,
                               "--tuple", json.dumps(doc["images"]))
        assert code == 0
        assert all(type(c) is float for c in record["point"] + record["lambdas"])
        x = record["point"]
        scale = x[3] / want[3]
        assert max(abs(a - scale * b) for a, b in zip(x, want)) <= 1e-9 * max(map(abs, x))
        assert record["witness"]["pair"] == [0, 1]

    def test_triangulate_nonmember_exits_nonzero(self, rig_file, capsys):
        code, doc = run_cli(capsys, "triangulate", "--rig", rig_file,
                            "--tuple", "[[1,2,3],[9,1,4]]")
        assert code == 1
        assert "error" in doc

    def test_triangulate_moved_float_tuple_exits_one(self, tmp_path, capsys):
        # a float tuple moved off consistency by about 1e-8 (its largest
        # sine is 5.3e-9, above the default tolerance) is not bad input:
        # exit 1 and a NotInVarietyError record
        rig_file = str(tmp_path / "frig.json")
        main(["--seed", "7", "--backend", "float", "--json-out", rig_file, "gen-rig", "--n", "2"])
        points = [[-0.255813963488, -0.99999999, 0.720930222558],
                  [-1.00000001, -0.038461548462, -0.230769240769]]
        code, doc = run_cli(capsys, "--backend", "float", "triangulate", "--rig", rig_file,
                            "--tuple", json.dumps(points))
        assert code == 1
        assert doc["error"] == "NotInVarietyError" and doc["message"]

    def test_project_keeps_tiny_coordinates(self, rig_file, capsys):
        # 1e-13 is read as 1/10^13, not rounded to 0
        code, tiny = run_cli(capsys, "project", "--rig", rig_file,
                             "--point", "[1e-13, 0, 0, 1e-13]")
        assert code == 0
        _, unit = run_cli(capsys, "project", "--rig", rig_file, "--point", "[1, 0, 0, 1]")
        assert [[Fraction(c) * 10 ** 13 for c in p] for p in tiny["images"]] == \
            [[Fraction(c) for c in p] for p in unit["images"]]


class TestNonFiniteInput:
    @pytest.fixture
    def rig_file(self, tmp_path, capsys):
        path = tmp_path / "rig.json"
        main(["--seed", "3", "--json-out", str(path), "gen-rig", "--n", "2"])
        capsys.readouterr()
        return str(path)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("point", ["[Infinity, 0, 0, 1]", "[1, -Infinity, 0, 1]",
                                       "[NaN, 0, 0, 1]", "[1e400, 0, 0, 1]"])
    def test_project_rejects_non_finite_point(self, rig_file, capsys, backend, point):
        code = main(["--backend", backend, "project", "--rig", rig_file, "--point", point])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "not finite" in captured.err

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("points", ["[[1e400, 0, 1], [0, 1, 1]]", "[[1, 0, 1], [0, NaN, 1]]"])
    def test_triangulate_rejects_non_finite_tuple(self, rig_file, capsys, backend, points):
        code = main(["--backend", backend, "triangulate", "--rig", rig_file, "--tuple", points])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "not finite" in captured.err

    def test_float_backend_rejects_integer_too_large_for_a_float(self, rig_file, capsys):
        code = main(["--backend", "float", "project", "--rig", rig_file,
                     "--point", f"[{10 ** 400}, 0, 0, 1]"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestMalformedInput:
    """JSON of the wrong kind is an input error, refused where it is read:
    exit 2 and an "error:" line, never exit 1 with a traceback."""

    @pytest.fixture
    def rig_file(self, tmp_path, capsys):
        path = tmp_path / "rig.json"
        main(["--seed", "3", "--json-out", str(path), "gen-rig", "--n", "2"])
        capsys.readouterr()
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["check", "--u", "5", "--v", "[[1, 2, 3], [4, 5, 6]]"],
        ["project", "--point", "[1, null, 0, 1]"],
        ["project", "--point", "[1, true, 0, 1]"],
        ["triangulate", "--tuple", "[[1, 2, 3], 7]"],
        ["refine", "--u", "[5, 6]", "--v", "[[1, 2], [3, 4]]"],
        ["refine", "--u", "[[1, 2, 0], [1, 2]]", "--v", "[[1, 2], [3, 4]]"],
        ["refine", "--u", "[[0.1, 0.2]]", "--v", "[[0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]"],
        ["refine", "--u", "[[0.1, 0.2], [0.3, 0.4]]", "--v", "[[0.3, 0.4], [0.5, 0.6]]",
         "--max-iter", "-1"],
        # an inconsistent u must not decide before v and the family are checked
        ["check", "--u", "[[1, 2, 3], [4, 5, 6]]", "--v", "[[1, 2, 3]]"],
        ["check", "--u", "[[1, 2, 3], [4, 5, 6]]", "--v", "[[1, 2, 3]]", "--family", "oracle"],
        ["check", "--u", "[[1, 2, 3], [4, 5, 6]]", "--v", "[[1, 2, 3], [4, 5, 6, 7]]"],
        ["check", "--u", "[[1, 2, 3], [4, 5, 6]]", "--v", "[[1, 2, 3], [4, 5, 6]]",
         "--family", "sixteen"],
    ], ids=["check-scalar-tuple", "project-null", "project-boolean", "triangulate-scalar-point",
            "refine-scalar-observations", "refine-point-at-infinity", "refine-observation-count",
            "refine-negative-max-iter", "check-short-v", "check-short-v-oracle",
            "check-world-point-in-v", "check-sixteen-on-two-cameras"])
    def test_malformed_argument_exits_two(self, rig_file, capsys, argv):
        code = main(argv[:1] + ["--rig", rig_file] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("doc", [{"cameras": 5}, {"cameras": [5, 6]}, [1, 2]],
                             ids=["scalar-cameras", "scalar-camera", "array-rig"])
    def test_malformed_rig_exits_two(self, tmp_path, capsys, doc):
        path = tmp_path / "rig.json"
        path.write_text(json.dumps(doc))
        code = main(["project", "--rig", str(path), "--point", "[1, 0, 0, 1]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "-inf"])
    def test_tol_not_finite_and_positive_exits_two(self, rig_file, capsys, tol):
        # an inconsistent pair on the float backend: a finite positive
        # tolerance reads it as a non-member, and no other is accepted
        argv = ["--backend", "float", "check", "--rig", rig_file,
                "--u", "[[1, 2, 3], [4, 5, 6]]", "--v", "[[1, 2, 3], [4, 5, 6]]"]
        assert main(argv + ["--tol", "1e-6"]) == 1
        capsys.readouterr()
        code = main(argv + [f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")


class TestFileArguments:
    """'@path' reads a JSON argument from a file, and --rig replaces the
    seeded rig of span-dim and dimension."""

    def test_at_path_arguments_equal_inline_ones(self, tmp_path, capsys):
        rig = str(tmp_path / "rig.json")
        main(["--seed", "5", "--json-out", rig, "gen-rig", "--n", "2"])
        point = tmp_path / "point.json"
        point.write_text("[0, 0, 0, 1]")
        inline = run_cli(capsys, "project", "--rig", rig, "--point", "[0, 0, 0, 1]")
        assert run_cli(capsys, "project", "--rig", rig, "--point", f"@{point}") == inline
        images = tmp_path / "images.json"
        images.write_text(json.dumps(inline[1]["images"]))
        _, moved = run_cli(capsys, "project", "--rig", rig, "--point", "[1, 0, 0, 1]")
        for argv in (["triangulate", "--rig", rig, "--tuple"],
                     ["check", "--rig", rig, "--v", json.dumps(moved["images"]), "--u"]):
            want = run_cli(capsys, *argv, json.dumps(inline[1]["images"]))
            assert want[0] == 0
            assert run_cli(capsys, *argv, f"@{images}") == want

    def test_at_path_to_a_missing_file_exits_two(self, tmp_path, capsys):
        rig = str(tmp_path / "rig.json")
        main(["--seed", "5", "--json-out", rig, "gen-rig", "--n", "2"])
        code = main(["project", "--rig", rig, "--point", f"@{tmp_path / 'missing.json'}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("error:")

    def test_span_dim_rig_file_equals_its_seeded_rig(self, tmp_path, capsys):
        rig = str(tmp_path / "rig.json")
        main(["--seed", "3", "--json-out", rig, "gen-rig", "--n", "2"])
        seeded = run_cli(capsys, "--seed", "3", "span-dim")
        assert run_cli(capsys, "--seed", "3", "span-dim", "--rig", rig) == seeded
        assert seeded[0] == 0 and (seeded[1]["span"], seeded[1]["quotient"]) == (126, 9)

    def test_dimension_rig_file_equals_its_seeded_rig(self, tmp_path, capsys):
        rig = str(tmp_path / "rig.json")
        main(["--seed", "2", "--json-out", rig, "gen-rig", "--n", "2"])
        argv = ["--seed", "2", "dimension", "--scenario", "rigid-pair"]
        seeded = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--rig", rig) == seeded == (0, {"scenario": "rigid-pair",
                                                                      "dimension": 5})


class TestCheck:
    @pytest.fixture
    def setup(self, tmp_path, capsys):
        rig_path = tmp_path / "rig.json"
        main(["--seed", "5", "--json-out", str(rig_path), "gen-rig", "--n", "2"])
        capsys.readouterr()
        code, u = run_cli(capsys, "project", "--rig", str(rig_path), "--point", "[0,0,0,1]")
        code, v1 = run_cli(capsys, "project", "--rig", str(rig_path), "--point", "[1,0,0,1]")
        code, v2 = run_cli(capsys, "project", "--rig", str(rig_path), "--point", "[2,0,0,1]")
        return str(rig_path), u["images"], v1["images"], v2["images"]

    def test_member_exits_zero(self, setup, capsys):
        rig, u, v1, _ = setup
        for family in ("full", "nine", "oracle"):
            code, doc = run_cli(capsys, "check", "--rig", rig, "--u", json.dumps(u),
                                "--v", json.dumps(v1), "--family", family)
            assert code == 0
            assert doc["member"] is True

    def test_nonmember_exits_one(self, setup, capsys):
        rig, u, _, v2 = setup
        for family in ("full", "nine", "oracle"):
            code, doc = run_cli(capsys, "check", "--rig", rig, "--u", json.dumps(u),
                                "--v", json.dumps(v2), "--family", family)
            assert code == 1
            assert doc["member"] is False

    @pytest.fixture
    def rig3(self, tmp_path, capsys):
        """A three-camera rig and the images of [x, 0, 0, 1] for x < 3: x = 0
        and x = 1 are at distance 1, x = 0 and x = 2 are not."""
        rig_path = tmp_path / "rig3.json"
        main(["--seed", "1", "--json-out", str(rig_path), "gen-rig", "--n", "3"])
        capsys.readouterr()
        images = {}
        for x in (0, 1, 2):
            _, doc = run_cli(capsys, "project", "--rig", str(rig_path), "--point", f"[{x}, 0, 0, 1]")
            images[x] = doc["images"]
        return rig_path, images

    def test_sixteen_family_on_three_cameras(self, rig3, capsys):
        rig_path, images = rig3
        for x, want in ((1, 0), (2, 1)):
            code, doc = run_cli(capsys, "check", "--rig", str(rig_path), "--u", json.dumps(images[0]),
                                "--v", json.dumps(images[x]), "--family", "sixteen")
            assert code == want
            assert doc == {"member": want == 0, "family": "sixteen"}

    def test_float_oracle_at_a_rig_tolerance(self, rig3, capsys):
        rig_path, images = rig3
        rig = rig_from_json(json.loads(rig_path.read_text()), "float", 1e-6)

        def as_tuple(points):
            return tuple(ProjectivePoint(decode_scalar(c, "float") for c in p) for p in points)
        for x, want in ((1, 0), (2, 1)):
            code, doc = run_cli(capsys, "--backend", "float", "check", "--rig", str(rig_path),
                                "--u", json.dumps(images[0]), "--v", json.dumps(images[x]),
                                "--family", "oracle", "--tol", "1e-6")
            assert code == want
            assert doc["member"] is rigid_pair_oracle(rig, as_tuple(images[0]),
                                                      as_tuple(images[x]), tol=1e-6)


    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_float_check_equals_the_exact_check_at_any_scale(self, tmp_path, capsys, n):
        # `rigidview --backend float check` on a rig whose cameras are each
        # scaled to max-norm 10^U(-2, 2) and tuples whose points are each
        # scaled to max-norm 10^U(-3, 3) exits as the exact check does, for
        # every equation family and the oracle: member, non-member, moved
        # and (two cameras) epipole pairs
        rng = random.Random(f"cli-float-scale:{n}")

        def scaled(entries, exponent):
            factor = 10.0 ** rng.uniform(-exponent, exponent) / float(max(map(abs, entries)))
            return [float(c) * factor for c in entries]

        rig = harness.random_rig(rng, n)
        u, v, _, _ = harness.sample_member_pair(rig, rng)
        w, z, _, _ = harness.sample_nonmember_pair(rig, rng)
        moved = (ProjectivePoint([u[0][0] + 1] + list(u[0].coords[1:])),) + u[1:]
        cases = [(u, v), (w, z), (moved, v)]
        if n == 2:
            cases.append((u, (rig.epipole(0, 1), rig.epipole(1, 0))))
        families = ["full", "nine", "oracle"] + (["sixteen"] if n > 2 else [])
        exact_rig, float_rig = tmp_path / "rig.json", tmp_path / "frig.json"
        exact_rig.write_text(json.dumps(rig_to_json(rig)))
        codes = set()
        for run in range(2):
            float_rig.write_text(json.dumps({"cameras": [
                scaled([c for row in cam.matrix.data for c in row], 2) for cam in rig.cameras]}))
            for a, b in cases:
                exact_args = [json.dumps([[encode_scalar(c) for c in p] for p in t])
                              for t in (a, b)]
                float_args = [json.dumps([scaled(p.coords, 3) for p in t]) for t in (a, b)]
                for family in families:
                    want, _ = run_cli(capsys, "check", "--rig", str(exact_rig),
                                      "--u", exact_args[0], "--v", exact_args[1], "--family", family)
                    got, _ = run_cli(capsys, "--backend", "float", "check", "--rig", str(float_rig),
                                     "--u", float_args[0], "--v", float_args[1], "--family", family)
                    assert got == want, (family, run)
                    codes.add(want)
        assert codes == {0, 1}


class TestCounts:
    def test_totals(self, capsys):
        code, doc = run_cli(capsys, "counts", "--n", "5")
        assert code == 0
        assert doc["total"] == 4940
        code, doc = run_cli(capsys, "counts", "--n", "2")
        assert doc["total"] == 11


class TestDimension:
    def test_rigid_pair(self, capsys):
        code, doc = run_cli(capsys, "--seed", "2", "dimension", "--scenario", "rigid-pair")
        assert code == 0
        assert doc["dimension"] == 5

    def test_pairwise_degenerate(self, capsys):
        code, doc = run_cli(capsys, "--seed", "2", "dimension", "--scenario", "pairwise3",
                            "--d12", "1", "--d13", "1", "--d23", "2")
        assert code == 0
        assert doc["dimension"] == 5


class TestVerify:
    def test_passing_experiment_exits_zero(self, capsys):
        code, doc = run_cli(capsys, "--seed", "1", "verify", "--experiment", "SEPARATE",
                            "--samples", "3")
        assert code == 0
        assert doc["passed"] is True
        assert doc["samples"] == 3

    def test_thm_equiv_smoke(self, capsys):
        code, doc = run_cli(capsys, "--seed", "1", "verify", "--experiment", "THM32_EQUIV",
                            "--n", "2", "--samples", "6")
        assert code == 0
        assert doc["passed"] is True

    def test_unknown_experiment_errors(self, capsys):
        code = main(["verify", "--experiment", "BOGUS"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--experiment", "VANISH", "--samples", "-3"],
        ["--experiment", "VANISH", "--samples", "0"],
        ["--experiment", "SPAN_126_9", "--rigs", "0"],
    ], ids=["negative-samples", "zero-samples", "zero-rigs"])
    def test_count_below_one_exits_two(self, capsys, argv):
        # a check over no sample checks nothing, so it is refused, not passed
        code = main(["--seed", "1", "verify"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")


class TestRefine:
    def test_refine_noiseless(self, tmp_path, capsys):
        rig_path = tmp_path / "rig.json"
        main(["--seed", "9", "--json-out", str(rig_path), "gen-rig", "--n", "3"])
        capsys.readouterr()
        code, u = run_cli(capsys, "project", "--rig", str(rig_path), "--point", "[0,0,0,1]")
        code, v = run_cli(capsys, "project", "--rig", str(rig_path), "--point", "[1,0,0,1]")
        code, doc = run_cli(capsys, "refine", "--rig", str(rig_path),
                            "--u", json.dumps(u["images"]), "--v", json.dumps(v["images"]))
        assert code == 0
        assert doc["residual"] <= doc["initial_residual"]
        assert doc["residual"] < 1e-10


class TestSpanDim:
    def test_span_dim_reports_facts(self, capsys):
        code, doc = run_cli(capsys, "--seed", "3", "span-dim")
        assert code == 0
        assert doc["span"] == 126
        assert doc["quotient"] == 9
        assert doc["octics"] == 441
        assert 2 ** 30 <= doc["modulus"] < 2 ** 31
        assert 0 < doc["failure_bound"] < 1e-3
