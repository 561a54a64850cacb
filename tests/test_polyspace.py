import math
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from helpers import (engine_value, exact_rank, fraction_rig, random_rig, random_world_point,
                     reference_coefficient_matrix_modp, reference_component_basis,
                     reference_modp_failure_bound, reference_modp_rank, reference_octics,
                     reference_quotient_failure_bound, reference_terms, scaled_rig, standard_rig,
                     wedge5)
from rigidview import polyspace
from rigidview.cameras import CameraRig, ProjectivePoint, forward_map
from rigidview.constraints import (BihomForm, _gram, distance_form_squared, polarize,
                                   unit_distance_form)
from rigidview.harness import _sub_seed
from rigidview.harness import random_rig as harness_random_rig
from rigidview.linalg import Mat, _max_abs
from rigidview.polyspace import (
    PANEL_WIDTH,
    RANK_PRIME_COUNT,
    MultiHomogPoly,
    _add_product,
    _is_probable_prime,
    _limb_left,
    _limb_right,
    _mod,
    _modp_rank,
    all_octics_symbolic,
    coefficient_matrix_modp,
    expand_wedge_symbolic,
    generator_count,
    ideal_component_basis,
    modp_failure_bound,
    monomial_basis,
    multidegree_of,
    octic_span,
    quotient_failure_bound,
    random_rank_prime,
    span_dimension,
    variable_index,
)
from rigidview.triangulation import assemble_b


@pytest.fixture(autouse=True)
def empty_handoff(monkeypatch):
    """Every test starts from an empty rank hand-off slot, so that no test
    depends on what an earlier one ranked."""
    monkeypatch.setattr(polyspace, "_handoff", None)


def random_image_point(rng):
    while True:
        c = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        if any(x != 0 for x in c):
            return c


def variable(n, side, cam, coord):
    """The image variable u_(cam, coord) or v_(cam, coord) as a polynomial."""
    exps = [0] * (6 * n)
    exps[variable_index(n, side, cam, coord)] = 1
    return MultiHomogPoly(n, {tuple(exps): 1})


def scaled(q, c):
    """q times the rational c, term by term."""
    return MultiHomogPoly(q.n, {e: x * c for e, x in q.terms.items()})


def evaluate(q, us, vs):
    """q at the image points us of side u and vs of side v, term by term."""
    flat = [c for pt in list(us) + list(vs) for c in pt]
    return sum(c * math.prod(x ** e for x, e in zip(flat, exps)) for exps, c in q.terms.items())


ROW_PAIRS = [(i1, i2) for i1 in range(6) for i2 in range(i1, 6)]


def octic(rig, tensor, u_sel, v_sel):
    """The symbolic octic of ``u_sel = (j1, k1, i1, i2)`` and ``v_sel``, as in
    the numeric evaluator, read from the 441 of its camera-pair-of-pairs."""
    (j1, k1, i1, i2), (j2, k2, i3, i4) = u_sel, v_sel
    r_u = ROW_PAIRS.index((min(i1, i2), max(i1, i2)))
    r_v = ROW_PAIRS.index((min(i3, i4), max(i3, i4)))
    return all_octics_symbolic(rig, tensor, (j1, k1), (j2, k2))[21 * r_u + r_v]


class TestPolyBasics:
    def test_variable_indexing(self):
        assert variable_index(2, "u", 0, 0) == 0
        assert variable_index(2, "u", 1, 2) == 5
        assert variable_index(2, "v", 0, 0) == 6
        assert variable_index(3, "v", 2, 1) == 16

    def test_multidegree(self):
        exps = (2, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0)
        assert multidegree_of(exps) == (2, 2, 0, 0)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            MultiHomogPoly(2, {(1,) + (0,) * 11: 1, (2,) + (0,) * 11: 1})

    def test_monomial_basis_sizes(self):
        assert len(monomial_basis(2, (2, 2, 2, 2))) == 6 ** 4
        assert len(monomial_basis(2, (1, 1, 0, 0))) == 9
        assert len(monomial_basis(2, (1, 1, 2, 2))) == 3 * 3 * 6 * 6

    def test_basis_order_deterministic(self):
        basis = monomial_basis(1, (2, 0))
        assert basis[0][:3] == (2, 0, 0)
        assert basis[1][:3] == (1, 1, 0)
        assert basis[-1][:3] == (0, 0, 2)


class TestWedgeExpansion:
    def test_numeric_agreement(self):
        rng = random.Random(307)
        rig = random_rig(rng, 2)
        for row in range(6):
            polys = expand_wedge_symbolic(rig, 0, 1, row)
            for _ in range(20):
                u0 = random_image_point(rng)
                u1 = random_image_point(rng)
                b = assemble_b(rig, 0, 1, ProjectivePoint(u0), ProjectivePoint(u1))
                numeric = wedge5(b, row)[:4]
                for c in range(4):
                    symbolic = evaluate(polys[c], [u0, u1], [(1, 1, 1), (1, 1, 1)])
                    assert symbolic == numeric[c]

    def test_bilinear_degree(self):
        rng = random.Random(311)
        rig = random_rig(rng, 2)
        for row in (0, 3, 5):
            for poly in expand_wedge_symbolic(rig, 0, 1, row):
                if not poly.is_zero():
                    assert poly.multidegree == (1, 1, 0, 0)

    def test_v_side_block(self):
        rng = random.Random(313)
        rig = random_rig(rng, 2)
        poly = expand_wedge_symbolic(rig, 0, 1, 0, side="v")[0]
        assert poly.multidegree == (0, 0, 1, 1)

    def test_coefficient_is_signed_minor(self):
        # coefficient of u_(1,1) u_(2,0) in the first cofactor coordinate for
        # the row-0-deleted matrix: minus a 3x3 minor of the stacked cameras
        rng = random.Random(317)
        for _ in range(5):
            rig = random_rig(rng, 2)
            a1 = rig.camera(0).matrix
            a2 = rig.camera(1).matrix
            poly = expand_wedge_symbolic(rig, 0, 1, 0)[0]
            exps = [0] * 12
            exps[variable_index(2, "u", 0, 1)] = 1
            exps[variable_index(2, "u", 1, 0)] = 1
            got = poly.coefficient(tuple(exps))
            expected = -(a1[2, 1] * a2[1, 2] * a2[2, 3] - a1[2, 1] * a2[1, 3] * a2[2, 2]
                         - a1[2, 2] * a2[1, 1] * a2[2, 3] + a1[2, 2] * a2[1, 3] * a2[2, 1]
                         + a1[2, 3] * a2[1, 1] * a2[2, 2] - a1[2, 3] * a2[1, 2] * a2[2, 1])
            assert got == expected


class TestOcticExpansion:
    def test_multidegree(self):
        rng = random.Random(331)
        rig = random_rig(rng, 2)
        t = polarize(unit_distance_form())
        poly = octic(rig, t, (0, 1, 0, 0), (0, 1, 0, 0))
        assert poly.multidegree == (2, 2, 2, 2)
        assert len(poly.terms) <= 1296

    def test_numeric_agreement(self):
        rng = random.Random(337)
        rig = random_rig(rng, 2)
        t = polarize(unit_distance_form())
        for sel in (((0, 1, 0, 0), (0, 1, 0, 0)), ((0, 1, 1, 3), (0, 1, 2, 5))):
            poly = octic(rig, t, *sel)
            for _ in range(20):
                u = (ProjectivePoint(random_image_point(rng)), ProjectivePoint(random_image_point(rng)))
                v = (ProjectivePoint(random_image_point(rng)), ProjectivePoint(random_image_point(rng)))
                numeric = engine_value(rig, t, sel[0], sel[1], u, v)
                symbolic = evaluate(poly, [u[0].coords, u[1].coords], [v[0].coords, v[1].coords])
                assert symbolic == numeric

    def test_other_bidegrees_are_refused(self):
        rig = random_rig(random.Random(349), 2)
        for bidegree, key in (((1, 2), ((1, 0, 0, 0), (0, 1, 1, 0))),
                              ((3, 1), ((2, 0, 0, 1), (0, 0, 1, 0)))):
            t = polarize(BihomForm(bidegree, {key: 1}))
            with pytest.raises(ValueError, match="bidegree"):
                all_octics_symbolic(rig, t)

    def test_vanishes_at_member_images(self):
        rng = random.Random(347)
        rig = random_rig(rng, 2)
        t = polarize(unit_distance_form())
        poly = octic(rig, t, (0, 1, 2, 2), (0, 1, 1, 1))
        x = ProjectivePoint((0, 0, 0, 1))
        y = ProjectivePoint((1, 0, 0, 1))
        u, v = forward_map(rig, x), forward_map(rig, y)
        assert evaluate(poly, [p.coords for p in u], [p.coords for p in v]) == 0


def selections(pair_u, pair_v):
    """The 441 index choices in the order all_octics_symbolic lists them."""
    return [(pair_u + ru, pair_v + rv) for ru in ROW_PAIRS for rv in ROW_PAIRS]


def assert_same_polys(got, want):
    """Equal term for term, with the same value type (int or Fraction)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.multidegree == w.multidegree
        g, w = g.terms, w.terms
        assert g == w
        assert {e: type(c) for e, c in g.items()} == {e: type(c) for e, c in w.items()}


# Rigs that take every width of the contraction's two products.
CONTRACTION_RIGS = {
    "int": lambda: random_rig(random.Random(389), 2),
    "fraction": lambda: fraction_rig(random.Random(401)),
    "height-1e3": lambda: random_rig(random.Random(409), 2, height=10 ** 3),
    "height-1e7": lambda: random_rig(random.Random(409), 2, height=10 ** 7),
}


class TestContractionMatchesReference:
    """The contraction against the cofactor-expansion reference."""

    def test_all_441_two_cameras(self):
        rig = random_rig(random.Random(389), 2)
        t = polarize(unit_distance_form())
        got = all_octics_symbolic(rig, t)
        want = reference_octics(rig, t, selections((0, 1), (0, 1)))
        assert_same_polys(got, want)
        assert any(isinstance(c, Fraction) for q in got for c in q.terms.values())

    @pytest.mark.parametrize("pair_u, pair_v", [((0, 1), (1, 2)), ((2, 0), (0, 1))])
    def test_three_cameras_distinct_pairs(self, pair_u, pair_v):
        rig = random_rig(random.Random(397), 3)
        t = polarize(unit_distance_form())
        picks = list(range(0, 441, 37))
        got = all_octics_symbolic(rig, t, pair_u, pair_v)
        sels = selections(pair_u, pair_v)
        assert_same_polys([got[i] for i in picks], reference_octics(rig, t, [sels[i] for i in picks]))

    def test_fraction_rig_and_rational_distance(self):
        rig = fraction_rig(random.Random(401))
        t = polarize(distance_form_squared(Fraction(3, 7)))
        picks = list(range(0, 441, 29))
        got = all_octics_symbolic(rig, t)
        sels = selections((0, 1), (0, 1))
        assert_same_polys([got[i] for i in picks], reference_octics(rig, t, [sels[i] for i in picks]))

    def test_coefficients_beyond_int64(self):
        rig = random_rig(random.Random(409), 2, height=10 ** 6)
        t = polarize(unit_distance_form())
        picks = [0, 100, 440]
        got = all_octics_symbolic(rig, t)
        sels = selections((0, 1), (0, 1))
        assert_same_polys([got[i] for i in picks], reference_octics(rig, t, [sels[i] for i in picks]))
        assert max(abs(c) for q in got for c in q.terms.values()) >= 2 ** 63

    def test_scaled_cameras_with_large_clearing_factor(self):
        # the same cameras divided by 1000: small cleared minors, but a
        # clearing factor far beyond 2^63
        base = random_rig(random.Random(389), 2)
        rig = CameraRig([Mat([[c * Fraction(1, 1000) for c in row]
                              for row in base.camera(i).matrix.data]) for i in range(2)])
        t = polarize(unit_distance_form())
        picks = list(range(0, 441, 31))
        got = all_octics_symbolic(rig, t)
        sels = selections((0, 1), (0, 1))
        assert_same_polys([got[i] for i in picks], reference_octics(rig, t, [sels[i] for i in picks]))
        # each cofactor coefficient is a 3x3 minor, and an octic has four
        scale = Fraction(1, 1000) ** 12
        assert [scaled(q, scale) for q in all_octics_symbolic(base, t)] == got

    def test_zero_pair_against_large_pair(self):
        # cameras 0 and 1 share one row space, so all 3x3 minors of their
        # stack vanish; the octics against pair (2, 3), whose cleared
        # products exceed 2^63, are all zero
        row = [1, 2, 3, 4]
        degenerate = [Mat([[m * x for x in row] for m in mults]) for mults in ((1, 2, 3), (1, 5, 7))]
        rng = random.Random(433)
        large = [Mat([[rng.randrange(10 ** 6) for _ in range(4)] for _ in range(3)])
                 for _ in range(2)]
        rig = CameraRig(degenerate + large)
        got = all_octics_symbolic(rig, polarize(unit_distance_form()), (0, 1), (2, 3))
        assert len(got) == 441 and all(q.is_zero() for q in got)

    @pytest.mark.parametrize("kind", list(CONTRACTION_RIGS))
    def test_first_product_width_keeps_the_stored_rows(self, kind, monkeypatch):
        # X is built in int64 while 4 max|table|^2 is below 2^63, and X_u T
        # is taken in int64 while that bound times the sum of |T| is: both
        # on the int and Fraction rigs, only X on the height-10^3 rig,
        # neither on the height-10^7 rig; with every product forced onto
        # Python ints the stored rows come out the same, dtypes included
        rig = CONTRACTION_RIGS[kind]()
        t = polarize(unit_distance_form())
        x, _, bound = polyspace._outer_rows(rig, 0, 1)
        assert x.dtype == (object if kind == "height-1e7" else np.int64)
        assert _max_abs(x) <= bound == 4 * _max_abs(rig.minor_table(0, 1)[0]) ** 2
        gram = _gram(t, True, 2, 2)[0]
        assert ((bound * sum(map(abs, gram.ravel().tolist())) >= 2 ** 63)
                == kind.startswith("height"))
        rows = np.arange(0, 21, 4)

        def stored():
            return [q._row for q in polyspace._contract_octics(rig, t, (0, 1), (0, 1), rows, rows)]

        got = stored()
        monkeypatch.setattr(polyspace, "INT64_LIMIT", 0)
        want = stored()
        assert len(got) == len(want) == len(rows) ** 2
        for (c1, n1, d1), (c2, n2, d2) in zip(got, want):
            assert c1.dtype == c2.dtype and n1.dtype == n2.dtype and d1 == d2
            assert c1.tolist() == c2.tolist() and n1.tolist() == n2.tolist()

    @pytest.mark.parametrize("kind", list(CONTRACTION_RIGS))
    def test_rows_equal_the_division_by_row_gcds(self, kind):
        # the contraction divides the rows that share a gcd g with den by one
        # scalar per value of g; the reference divides the whole contraction,
        # taken on Python ints, by the column of row gcds at once
        rig = CONTRACTION_RIGS[kind]()
        t = polarize(unit_distance_form())
        rows = np.arange(0, 21, 4)
        gram, den, _ = _gram(t, True, 2, 2)
        x, den_x, _ = polyspace._outer_rows(rig, 0, 1)
        den *= den_x * den_x
        a = x[rows].transpose(0, 2, 1).reshape(-1, 16).astype(object)
        coefs = ((a @ gram.astype(object)) @ a.T).reshape(len(rows), 36, len(rows), 36)
        coefs = coefs.transpose(0, 2, 1, 3).reshape(-1, 36 * 36)
        g = np.gcd(np.gcd.reduce(coefs, axis=1), den)
        coefs //= g[:, None]
        perm = polyspace._contraction_columns(2, (0, 1), (0, 1))[1]
        got = polyspace._contract_octics(rig, t, (0, 1), (0, 1), rows, rows)
        assert len(got) == len(coefs)
        for q, row, row_den in zip(got, coefs, (den // g).tolist()):
            cols, nums, d = q._row
            nonzero = np.flatnonzero(row)
            assert d == row_den
            assert cols.tolist() == perm[nonzero].tolist()
            assert nums.tolist() == row[nonzero].tolist()
        # g takes the values 1 and 2 on the int rig and 15 values on the
        # Fraction rig, so rows are divided by more than one scalar
        assert len(set(g.tolist())) >= (2 if kind in ("int", "fraction") else 1)

    def test_single_octic_matches_reference(self):
        rig = random_rig(random.Random(419), 3)
        t = polarize(unit_distance_form())
        sels = [((0, 1, 0, 0), (0, 1, 0, 0)), ((0, 1, 3, 1), (1, 2, 5, 2)), ((2, 1, 4, 4), (0, 2, 0, 5))]
        want = reference_octics(rig, t, sels)
        assert_same_polys([octic(rig, t, *sel) for sel in sels], want)


class TestCoefficientMatrix:
    def test_residues_of_large_negative_and_fraction_coefficients(self):
        p = 2 ** 31 - 1
        basis = monomial_basis(2, (1, 0, 0, 0))
        polys = [MultiHomogPoly(2, {basis[0]: -5, basis[1]: 2 ** 70 + 3}),
                 MultiHomogPoly(2, {basis[0]: 2 ** 63, basis[2]: Fraction(-7, 3)}),
                 MultiHomogPoly(2, {basis[1]: -(2 ** 64) - 1})]
        m = coefficient_matrix_modp(polys, p)
        want = [[-5 % p, (2 ** 70 + 3) % p, 0],
                [2 ** 63 % p, 0, -7 * pow(3, -1, p) % p],
                [0, (-(2 ** 64) - 1) % p, 0]]
        assert m.tolist() == want

    def test_prime_dividing_a_denominator_rejected(self):
        p = 2 ** 31 - 1
        poly = MultiHomogPoly(2, {monomial_basis(2, (1, 0, 0, 0))[0]: Fraction(1, 2 * p)})
        with pytest.raises(ValueError, match="denominator"):
            coefficient_matrix_modp([poly], p)


RANK_PRIMES = [2, 3, 65521, 2 ** 31 - 1]


@pytest.fixture(scope="module")
def families():
    """The 441 octics and the (2,2,2,2) component of rigs that take every
    contraction path: integer cameras (int64), Fraction cameras, the same
    integer cameras over 1000 (clearing factor beyond 2^63) and cameras of
    height 10^6 (entries beyond 2^63); the last three go through Python
    ints."""
    t = polarize(unit_distance_form())
    base = random_rig(random.Random(389), 2)
    rigs = {"int": base, "fraction": fraction_rig(random.Random(401)),
            "over-1000": scaled_rig(base, Fraction(1, 1000)),
            "height-1e6": random_rig(random.Random(409), 2, height=10 ** 6)}
    return {name: (all_octics_symbolic(rig, t), ideal_component_basis(rig))
            for name, rig in rigs.items()}


@pytest.fixture(scope="module")
def family_terms(families):
    """The term dicts of ``families``, copied once for the reference
    helpers: each read of a ``terms`` view derives its coefficients anew."""
    return {name: tuple([dict(q.terms.items()) for q in polys] for polys in pair)
            for name, pair in families.items()}


def matrix_or_none(fn, polys, p, *terms):
    """The coefficient matrix, or None when p divides a denominator."""
    try:
        return fn(polys, p, *terms)
    except ValueError as exc:
        assert "denominator" in str(exc)
        return None


def assert_rows_match_reference(polys, p, terms=None):
    """coefficient_matrix_modp equals the per-term reference row for row;
    where one route raises for a family, each row must raise on both routes
    or on neither.  ``terms`` may hold the polynomials' term dicts."""
    terms = [q.terms for q in polys] if terms is None else terms
    got = matrix_or_none(coefficient_matrix_modp, polys, p)
    want = matrix_or_none(reference_coefficient_matrix_modp, polys, p, terms)
    if got is not None and want is not None:
        assert np.array_equal(got, want)
        return
    for q, t in zip(polys, terms):
        if q.is_zero():
            continue
        got = matrix_or_none(coefficient_matrix_modp, [q], p)
        want = matrix_or_none(reference_coefficient_matrix_modp, [q], p, [t])
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


def hand_built_polys():
    basis = monomial_basis(2, (1, 1, 0, 0))
    return [MultiHomogPoly(2, {basis[0]: 2 ** 70 + 3, basis[4]: -(2 ** 63), basis[8]: 2 ** 63 - 1}),
            MultiHomogPoly(2, {basis[1]: Fraction(-7, 6), basis[2]: 5, basis[3]: Fraction(1, 10)}),
            MultiHomogPoly(2, {basis[5]: Fraction(2 ** 80 + 1, 3 ** 40)}),
            MultiHomogPoly(2, {basis[6]: -1}),
            MultiHomogPoly(2, {b: Fraction(i - 4, 2 ** 62 + 2 * i + 1) for i, b in enumerate(basis)}),
            MultiHomogPoly(2)]


class TestClearedRows:
    """Every coefficient row comes from the polynomial's cleared row: the one
    the contraction and the component build, or the one derived from the
    terms; the per-term reference is the independent route."""

    def test_rows_are_read_only(self, families):
        # span_dimension's hand-off keeps polynomials by identity, so a row
        # must not change under it
        built = [MultiHomogPoly(2), variable(2, "u", 0, 0)] + hand_built_polys()
        for polys in [built] + [octics + component for octics, component in families.values()]:
            for q in polys:
                cols, nums, _ = q._row
                assert not cols.flags.writeable and not nums.flags.writeable
        octics, _ = families["height-1e6"]
        assert any(q._row[1].dtype == object for q in octics)
        with pytest.raises(ValueError, match="read-only"):
            octics[0]._row[1][0] = 1

    @pytest.mark.parametrize("p", RANK_PRIMES)
    def test_families_match_reference(self, families, family_terms, p):
        for name, (octics, component) in families.items():
            octic_terms, component_terms = family_terms[name]
            assert_rows_match_reference(octics, p, octic_terms)
            assert_rows_match_reference(component, p, component_terms)
        octics, component = families["int"]
        octic_terms, component_terms = family_terms["int"]
        assert_rows_match_reference(component + octics, p, component_terms + octic_terms)

    @pytest.mark.parametrize("pair_u, pair_v", [((2, 0), (0, 1)), ((1, 0), (2, 1))])
    def test_reversed_camera_pairs_match_reference(self, pair_u, pair_v):
        # for pairs (0, 1) the contraction's columns are already in basis
        # order; a reversed pair permutes them
        rig = random_rig(random.Random(397), 3)
        octics = all_octics_symbolic(rig, polarize(unit_distance_form()), pair_u, pair_v)
        for p in RANK_PRIMES:
            assert_rows_match_reference(octics, p)

    @pytest.mark.parametrize("p", RANK_PRIMES)
    def test_hand_built_match_reference(self, p):
        assert_rows_match_reference(hand_built_polys(), p)

    @pytest.mark.parametrize("name", ["int", "fraction"])
    def test_json_round_trip_derives_the_same_rows(self, families, name):
        octics = families[name][0][::4]
        # copies built from their terms, as a JSON round trip of the terms does
        copies = [MultiHomogPoly(q.n, dict(q.terms)) for q in octics]
        assert copies == octics
        # each copy's row was built from its terms, not shared
        assert all(c._row[1] is not q._row[1] for c, q in zip(copies, octics))
        for p in RANK_PRIMES:
            got = matrix_or_none(coefficient_matrix_modp, copies, p)
            want = matrix_or_none(coefficient_matrix_modp, octics, p)
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)
        assert_rows_match_reference(copies, 3)
        assert modp_failure_bound(copies) == modp_failure_bound(octics)

    def test_prime_dividing_a_reduced_denominator_raises_on_both_routes(self):
        basis = monomial_basis(2, (1, 0, 0, 0))
        poly = MultiHomogPoly(2, {basis[0]: Fraction(1, 6), basis[1]: 5})
        for p in (2, 3):
            for route in (coefficient_matrix_modp, reference_coefficient_matrix_modp):
                with pytest.raises(ValueError, match="denominator"):
                    route([poly], p)
        assert coefficient_matrix_modp([poly], 5).tolist() == [[pow(6, -1, 5), 0, 0]]

    def test_clearing_factor_alone_does_not_raise(self, families):
        # the int rig's contraction is cleared by 2 (the polarized distance
        # form has halves), yet some octics have integer coefficients only;
        # their rows are reduced by the gcd, so p = 2 does not divide them
        octics = [q for q in families["int"][0]
                  if q.terms and all(isinstance(c, int) for c in q.terms.values())]
        assert octics
        assert np.array_equal(coefficient_matrix_modp(octics, 2),
                              reference_coefficient_matrix_modp(octics, 2))

    def test_failure_bounds_equal_the_terms_reference(self, families, family_terms):
        for name, (octics, component) in families.items():
            octic_terms, component_terms = family_terms[name]
            assert modp_failure_bound(octics) == reference_modp_failure_bound(octics, octic_terms)
            assert (modp_failure_bound(component)
                    == reference_modp_failure_bound(component, component_terms))
            assert (quotient_failure_bound(octics, component)
                    == reference_quotient_failure_bound(octics, component,
                                                        octic_terms, component_terms))
        polys = hand_built_polys()
        assert modp_failure_bound(polys) == reference_modp_failure_bound(polys)


def assert_derived_terms(q):
    """q.terms holds each row entry nums / den exactly, as an int exactly
    where it is integral, and rebuilds the same row."""
    cols, nums, den = q._row
    terms = q.terms
    assert len(terms) == len(cols)
    for c, x in zip(terms.values(), nums.tolist()):
        assert c == Fraction(x, den)
        assert type(c) is (int if x % den == 0 else Fraction)
    copy = MultiHomogPoly(q.n, terms)
    assert copy == q and copy.multidegree == q.multidegree
    assert np.array_equal(copy._row[0], cols) and np.array_equal(copy._row[1], nums)
    assert copy._row[2] == den


class TestDerivedTerms:
    """``terms`` is read from the cleared row, the one stored form."""

    def test_hand_built(self):
        basis = monomial_basis(2, (1, 1, 0, 0))
        # int64 numerators over a denominator beyond int64
        small_over_large = MultiHomogPoly(2, {basis[0]: Fraction(1, 3 ** 40),
                                              basis[7]: Fraction(-2, 3 ** 40)})
        assert small_over_large._row[1].dtype == np.int64 and small_over_large._row[2] >= 2 ** 63
        polys = hand_built_polys() + [small_over_large]
        assert polys[2]._row[2] == 3 ** 40
        for q in polys:
            assert_derived_terms(q)
        assert polys[2].terms == {basis[5]: Fraction(2 ** 80 + 1, 3 ** 40)}
        assert small_over_large.terms == {basis[0]: Fraction(1, 3 ** 40),
                                          basis[7]: Fraction(-2, 3 ** 40)}

    def test_given_coefficients_come_back_exact(self):
        basis = monomial_basis(2, (1, 1, 0, 0))
        given = {basis[0]: Fraction(6, 3), basis[1]: Fraction(-7, 6), basis[2]: np.int64(5),
                 basis[3]: True, basis[4]: 2 ** 70 + 3, basis[5]: 0}
        terms = MultiHomogPoly(2, given).terms
        assert terms == {basis[0]: 2, basis[1]: Fraction(-7, 6), basis[2]: 5, basis[3]: 1,
                         basis[4]: 2 ** 70 + 3}
        assert [type(c) for c in terms.values()] == [int, Fraction, int, int, int]

    def test_contraction_octics(self, families):
        for octics, component in families.values():
            for q in octics[::23] + component[::13]:
                assert_derived_terms(q)

    def test_zero_polynomial(self):
        basis = monomial_basis(2, (1, 0, 0, 0))
        for q in (MultiHomogPoly(2), MultiHomogPoly(2, {}), MultiHomogPoly(2, {basis[1]: 0}),
                  MultiHomogPoly(2, {basis[0]: Fraction(0), basis[2]: 0})):
            assert q.terms == {} and {} == q.terms and q.multidegree is None and q.is_zero()
            assert len(q.terms) == 0 and list(q.terms) == [] and q.terms.items() == []
            assert q == MultiHomogPoly(2)

    @pytest.mark.parametrize("coef", [0.5, 2.0, 0.0, 1j, Decimal("0.5"), "1"])
    def test_non_rational_coefficient_rejected(self, coef):
        basis = monomial_basis(2, (1, 0, 0, 0))
        with pytest.raises(TypeError, match=re.escape(repr(coef))):
            MultiHomogPoly(2, {basis[0]: 1, basis[1]: coef})


class TestTermsView:
    """``terms`` is a read-only mapping over the cleared row: it stores
    nothing and derives a coefficient only where one is read."""

    def test_len_and_iteration_derive_nothing(self, families, monkeypatch):
        def refuse(*args):
            raise AssertionError("a coefficient was derived")

        q = families["fraction"][0][5]
        basis = monomial_basis(2, q.multidegree)
        monkeypatch.setattr(polyspace, "_row_values", refuse)
        assert len(q.terms) == len(q._row[0]) > 0
        assert list(q.terms) == [basis[c] for c in q._row[0].tolist()]
        assert sum(len(p.terms) for p in families["int"][0]) == sum(
            len(p._row[0]) for p in families["int"][0])

    def test_dict_copy_derives_the_row_once(self, families, monkeypatch):
        calls = []

        def counted(nums, den):
            calls.append(len(nums))
            return row_values(nums, den)

        row_values = polyspace._row_values
        monkeypatch.setattr(polyspace, "_row_values", counted)
        for q in (families["fraction"][0][5], families["height-1e6"][0][7], hand_built_polys()[4]):
            calls.clear()
            got = dict(q.terms)
            assert calls == [len(q._row[0])]
            assert got == dict(q.terms.items()) and list(got) == list(q.terms)

    def test_copy_equals_the_entrywise_derivation(self, families):
        polys = hand_built_polys() + [q for octics, component in families.values()
                                      for q in octics[::16] + component[::64]]
        for q in polys:
            want = reference_terms(q)
            got = dict(q.terms)
            assert got == want and list(got) == list(want)
            assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
            assert dict(q.terms.items()) == got and q.terms.values() == list(want.values())
            assert q.terms == want and want == q.terms

    def test_item_assignment_raises(self):
        q = hand_built_polys()[1]
        key = next(iter(q.terms))
        with pytest.raises(TypeError):
            q.terms[key] = 1
        with pytest.raises(TypeError):
            del q.terms[key]
        copy = dict(q.terms)
        copy[key] = 1
        assert q.terms[key] == Fraction(-7, 6)

    def test_coefficient_reads_one_column(self):
        basis = monomial_basis(2, (1, 1, 0, 0))
        q = hand_built_polys()[1]
        assert q.coefficient(basis[1]) == Fraction(-7, 6) and q.coefficient(list(basis[2])) == 5
        assert type(q.coefficient(basis[2])) is int
        assert q.coefficient(basis[0]) == 0 and basis[0] not in q.terms
        assert q.coefficient(basis[1][:-1]) == 0 and q.coefficient(basis[1] + (0,)) == 0
        with pytest.raises(KeyError):
            q.terms[basis[0]]
        assert hand_built_polys()[0].coefficient(basis[0]) == 2 ** 70 + 3
        assert MultiHomogPoly(2).coefficient(basis[1]) == 0

    def test_equality_ignores_term_order(self):
        basis = monomial_basis(2, (1, 1, 0, 0))
        coefs = {basis[1]: Fraction(-7, 6), basis[2]: 5, basis[3]: Fraction(1, 10)}
        a = MultiHomogPoly(2, coefs)
        b = MultiHomogPoly(2, dict(reversed(coefs.items())))
        assert a._row[0].tolist() != b._row[0].tolist()
        assert a == b and b == a and a.terms == b.terms
        assert a != MultiHomogPoly(2, {**coefs, basis[3]: Fraction(1, 5)})
        assert a != MultiHomogPoly(2, {**coefs, basis[4]: 1})
        assert a != MultiHomogPoly(2, {basis[1]: Fraction(-7, 6), basis[2]: 5})
        assert a != MultiHomogPoly(2, {e: 30 * c for e, c in coefs.items()})
        assert a != MultiHomogPoly(3, {e + (0,) * 6: c for e, c in coefs.items()})
        assert variable(2, "u", 0, 0) != variable(2, "u", 1, 0)


class TestSpanDimension:
    def test_single_polynomial(self):
        p = variable(2, "u", 0, 0)
        assert span_dimension([p], 2 ** 31 - 1) == 1

    def test_scalar_multiple_collapses(self):
        p = variable(2, "u", 0, 0)
        assert span_dimension([p, scaled(p, 5)], 2 ** 31 - 1) == 1
        assert span_dimension([p, scaled(p, Fraction(1, 3))], modulus=2 ** 31 - 1) == 1

    def test_independent_pair(self):
        p = variable(2, "u", 0, 0)
        q = variable(2, "u", 0, 1)
        assert span_dimension([p, q], 2 ** 31 - 1) == 2

    def test_mixed_degrees_rejected(self):
        p = variable(2, "u", 0, 0)
        q = variable(2, "v", 0, 0)
        with pytest.raises(ValueError):
            span_dimension([p, q], 2 ** 31 - 1)

    def test_zero_rows_drop_out(self):
        # a zero polynomial has no multidegree: it neither counts nor mixes
        p, q, zero = variable(2, "u", 0, 0), variable(2, "v", 0, 0), MultiHomogPoly(2)
        assert span_dimension([], 2 ** 31 - 1) == 0
        assert span_dimension([zero, zero], 2 ** 31 - 1) == 0
        assert span_dimension([zero, p, zero, scaled(p, 3), zero], 2 ** 31 - 1) == 1
        with pytest.raises(ValueError, match="mixed"):
            span_dimension([p, zero, q], 2 ** 31 - 1)
        with pytest.raises(ValueError, match="all polynomials are zero"):
            coefficient_matrix_modp([zero], 2 ** 31 - 1)

    def test_modp_matches_exact_on_small_family(self):
        rng = random.Random(353)
        rig = random_rig(rng, 2)
        t = polarize(unit_distance_form())
        polys = [octic(rig, t, (0, 1, i, i), (0, 1, k, k)) for i in range(3) for k in range(3)]
        exact = exact_rank(polys)
        p = random_rank_prime(rng)
        assert span_dimension(polys, p) == exact

    @pytest.mark.parametrize("modulus", [15, 2 ** 33 - 9, 2 ** 61 - 1, 2 ** 31 + 11])
    def test_modulus_must_be_a_prime_below_2_31(self, modulus):
        # 2^33 - 9 and 2^61 - 1 are primes whose centered residues exceed the
        # 2^30 that keeps the float64 limb products exact; 2^31 + 11 is the
        # least prime above the limit
        p = variable(2, "u", 0, 0)
        with pytest.raises(ValueError, match="not a prime below 2"):
            span_dimension([p], modulus)

    def test_largest_allowed_prime_gives_exact_ranks(self):
        assert _is_probable_prime(2 ** 31 - 1)
        rng = random.Random(421)
        basis = monomial_basis(2, (1, 0, 0, 0))
        for _ in range(20):
            a, b = ([rng.randint(-2 ** 40, 2 ** 40) for _ in range(3)] for _ in range(2))
            rows = [[x * rng.randint(-9, 9) + y * rng.randint(-9, 9) for x, y in zip(a, b)]
                    for _ in range(4)]
            polys = [MultiHomogPoly(2, dict(zip(basis, row))) for row in rows]
            assert span_dimension(polys, 2 ** 31 - 1) == exact_rank(polys)

    def test_failure_bound(self):
        basis = monomial_basis(2, (1, 0, 0, 0))
        # the row clears to (2^40, 3, -1): a 41-bit largest entry and 3 terms
        poly = MultiHomogPoly(2, {basis[0]: Fraction(2 ** 40, 3), basis[1]: 1,
                                  basis[2]: Fraction(-1, 3)})
        bits = (2 ** 40).bit_length() + 0.5 * math.log2(3)
        assert modp_failure_bound([poly]) == (bits // 30) / RANK_PRIME_COUNT
        assert modp_failure_bound([poly, poly]) == (2 * bits // 30) / RANK_PRIME_COUNT

    def test_quotient_failure_bound_is_the_union_of_three(self):
        rig = random_rig(random.Random(431), 2)
        t = polarize(unit_distance_form())
        octics = [octic(rig, t, (0, 1, i, 0), (0, 1, i, 5)) for i in range(6)]
        component = ideal_component_basis(rig)
        want = sum(modp_failure_bound(f) for f in (octics, component, component + octics))
        assert quotient_failure_bound(octics, component) == pytest.approx(want, rel=1e-12)
        assert want > 0

    @pytest.mark.parametrize("family", ["octics", "union"])
    def test_row_order_does_not_change_the_rank(self, families, family):
        octics, component = families["int"]
        polys = octics if family == "octics" else component + octics
        p = 2 ** 31 - 1
        shuffled = list(polys)
        random.Random(433).shuffle(shuffled)
        want = 126 if family == "octics" else 567 + 9
        for order in (polys, shuffled, polys[::-1]):
            assert span_dimension(order, p) == want

    def test_caller_list_keeps_its_order(self, families):
        octics, component = families["int"]
        polys = octics[::-1] + [MultiHomogPoly(2)] + component[::7]
        before = list(polys)
        span_dimension(polys, 2 ** 31 - 1)
        assert len(polys) == len(before) and all(a is b for a, b in zip(polys, before))

    def test_union_rank_memory(self, families):
        # the union's 1089 x 1296 int64 matrix is most of the rank's peak;
        # the elimination works in it and adds blocks of bounded size
        octics, component = families["int"]
        union = component + octics
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert span_dimension(union, 2 ** 31 - 1) == 567 + 9
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * len(union) * 6 ** 4 * 8

    @pytest.mark.parametrize("name", ["int", "fraction"])
    def test_octic_rank_takes_one_panel(self, families, panels, name):
        # in the column order the first panel holds the octics' whole rank,
        # so every other row drops in its trailing update
        octics, _ = families[name]
        assert span_dimension(octics, 2 ** 31 - 1) == 126
        assert len(panels) == 1

    def test_octic_rank_memory(self, families, monkeypatch):
        # the octics' 441 x 1296 int64 matrix is most of their rank's peak;
        # the column order puts the whole rank in the first panel, whose
        # trailing update goes in blocks of _UPDATE_ROWS x _UPDATE_COLUMNS
        octics, _ = families["int"]
        size = len(octics) * 6 ** 4 * 8
        added = []

        def measured(a, p):
            # a is allocated already: count what the elimination adds
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pivots = _modp_rank(a, p)
            added.append(tracemalloc.get_traced_memory()[1] - base)
            return pivots

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert span_dimension(octics, 2 ** 31 - 1) == 126
            peak = tracemalloc.get_traced_memory()[1] - base
            monkeypatch.setattr(polyspace, "_handoff", None)
            monkeypatch.setattr(polyspace, "_modp_rank", measured)
            assert span_dimension(octics, 2 ** 31 - 1) == 126
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * size
        assert len(added) == 1 and added[0] <= 0.75 * size

    def test_fill_memory(self, families):
        # the fill builds each chunk's flat index in the chunk's own arrays
        # and holds one chunk of _FILL_ROWS rows at a time: over the
        # 441 x 1296 int64 matrix it returns, it adds less than five int64
        # arrays of the largest chunk's length: the chunk's index, columns
        # and values and one temporary at a time (a chunk kept alive by the
        # generator while the index is built took about nine)
        octics, _ = families["int"]
        size = len(octics) * 6 ** 4 * 8
        rows = polyspace._FILL_ROWS
        chunk = max(sum(len(q._row[0]) for q in octics[s:s + rows])
                    for s in range(0, len(octics), rows))
        place = polyspace._column_order(6 ** 4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            polyspace._fill(octics, 2 ** 31 - 1, 6 ** 4, place)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert size <= peak <= size + 5 * 8 * chunk

    def test_permutation_and_scaling_invariance(self):
        rng = random.Random(359)
        rig = random_rig(rng, 2)
        t = polarize(unit_distance_form())
        polys = [octic(rig, t, (0, 1, i, i), (0, 1, 0, 0)) for i in range(4)]
        base = exact_rank(polys)
        shuffled = list(polys)
        rng.shuffle(shuffled)
        rescaled = [scaled(q, Fraction(rng.randint(1, 9), rng.randint(1, 9))) for q in shuffled]
        assert exact_rank(rescaled) == base
        assert span_dimension(rescaled, random_rank_prime(rng)) == base


@pytest.fixture
def panels(monkeypatch):
    """The shapes of the full-width panels that _modp_rank eliminates (the
    halves that _eliminate_panel recurses on are narrower)."""
    shapes = []
    original = polyspace._eliminate_panel

    def recorded(x, p):
        if x.shape[1] == PANEL_WIDTH:
            shapes.append(x.shape)
        return original(x, p)

    monkeypatch.setattr(polyspace, "_eliminate_panel", recorded)
    return shapes


def planted_matrix(seed, m, n, r, p):
    """An m x n integer matrix of rank at most r mod p: residues times small
    integers, with zero rows, zero columns, one all-zero panel of columns
    and entries shifted by -p at random so that some are negative."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, r)) @ rng.integers(-9, 10, size=(r, n)) % p
    a -= p * rng.integers(0, 2, size=a.shape)
    a[::7] = 0
    a[:, ::11] = 0
    a[:, PANEL_WIDTH:2 * PANEL_WIDTH] = 0
    return a


class TestModpRank:
    @pytest.mark.parametrize("p", RANK_PRIMES)
    @pytest.mark.parametrize("r", [17, 150, 300])
    def test_planted_rank_deficiency_matches_reference(self, p, r):
        a = planted_matrix(p + r, 300, 700, r, p)
        assert len(_modp_rank(a.copy(), p)) == reference_modp_rank(a, p)

    @pytest.mark.parametrize("p", RANK_PRIMES)
    @pytest.mark.parametrize("r", [17, 150, 300])
    def test_rows_sorted_by_leading_column_match_reference(self, p, r):
        a = planted_matrix(p + r + 1, 300, 700, r, p)
        nonzero = a % p != 0
        # zero rows sort last
        lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), a.shape[1])
        a = a[np.argsort(lead, kind="stable")]
        assert len(_modp_rank(a.copy(), p)) == reference_modp_rank(a, p)

    @pytest.mark.parametrize("p", RANK_PRIMES)
    @pytest.mark.parametrize("r", [17, 150, 300])
    @pytest.mark.parametrize("width", [
        PANEL_WIDTH + polyspace._UPDATE_COLUMNS + 5,
        2 * PANEL_WIDTH + 2 * polyspace._UPDATE_COLUMNS + 1])
    def test_pivot_rows_are_a_basis(self, p, r, width):
        # trailing widths that end past a chunk boundary, on more rows than
        # one update block
        a = planted_matrix(p + r + width, 2 * polyspace._UPDATE_ROWS + 44, width, r, p)
        pivots = _modp_rank(a.copy(), p)
        rank = reference_modp_rank(a, p)
        assert len(pivots) == len(set(pivots.tolist())) == rank
        assert reference_modp_rank(a[pivots], p) == rank

    def test_full_rank_first_panel_drops_every_other_row(self, panels):
        # rows of rank 100 spread over every column: one panel finds them,
        # and the dependent rows fall to zero in its trailing update
        p = 65521
        rng = np.random.default_rng(7)
        a = rng.integers(0, p, size=(300, 100)) @ rng.integers(0, p, size=(100, 900)) % p
        pivots = _modp_rank(a.copy(), p)
        assert len(pivots) == reference_modp_rank(a[pivots], p) == 100
        assert panels == [(300, PANEL_WIDTH)]

    @pytest.mark.parametrize("p", RANK_PRIMES)
    def test_random_tall_matrix_matches_reference(self, p):
        a = np.random.default_rng(p).integers(-2 ** 40, 2 ** 40, size=(400, 2 * PANEL_WIDTH + 5))
        a[50] = a[3] - 5 * a[17]
        assert len(_modp_rank(a.copy(), p)) == reference_modp_rank(a, p)

    def test_entries_p_minus_1(self):
        p = 2 ** 31 - 1
        a = np.full((260, 300), p - 1)
        a[::3, 2::5] = 1
        assert len(_modp_rank(a.copy(), p)) == reference_modp_rank(a, p)

    def test_empty_and_zero_matrices(self):
        assert len(_modp_rank(np.zeros((0, 5), dtype=np.int64), 3)) == 0
        assert len(_modp_rank(np.zeros((4, 0), dtype=np.int64), 3)) == 0
        assert len(_modp_rank(np.zeros((4, 300), dtype=np.int64), 3)) == 0
        assert len(_modp_rank(np.full((4, 300), 6), 3)) == 0

    @pytest.mark.parametrize("added", ["random", "p - 1"])
    def test_product_exact_near_the_float64_bound(self, added):
        # Entries p - 1 centre to -1, far from the bound.  Mod 2^31 - 1,
        # multiplying by 2^15 rotates the 31 bits, so each x below has x and
        # 2^15 * x mod p odd and in (2^29, 2^30): against odd limbs near
        # 2^15 every term is odd and the sums pass 2^52.5.  The residue c
        # added to the product in float64 is at most p - 1.
        p = 2 ** 31 - 1
        rng = np.random.default_rng(5)
        left = 2 ** 30 - 1 - 2 ** 15 - 2 * rng.integers(0, 2 ** 13, size=(4, PANEL_WIDTH))
        low, high = 2 ** 15 - 1 - 2 * rng.integers(0, 2 ** 10, size=(2, PANEL_WIDTH, 6))
        right = high * 2 ** 15 + low
        got = rng.integers(0, p, size=(4, 6)) if added == "random" else np.full((4, 6), p - 1)
        want = (got.astype(object) + left.astype(object) @ right.astype(object)) % p
        lf, rf = _limb_left(left, p), _limb_right(right, p)
        assert np.abs(lf @ rf).max() > 2 ** 52.5
        _add_product(got, lf, rf, p)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("p", RANK_PRIMES)
    def test_limb_operands_match_python_ints(self, p):
        rng = np.random.default_rng(p)
        edges = np.tile(sorted(x for x in {0, 1, p // 2, p // 2 + 1, p - 1} if x < p), (7, 1))
        a = np.concatenate([rng.integers(0, p, size=(60, 7)), edges.T])
        b = np.concatenate([rng.integers(0, p, size=(7, 40)), edges], axis=1)

        def centered(x):
            x %= p
            return x - p if x > p // 2 else x

        left, right = _limb_left(a, p), _limb_right(b.copy(), p)
        assert left.dtype == right.dtype == np.float64
        assert left.tolist() == [[centered(x) for x in row] + [centered(x * 2 ** 15) for x in row]
                                 for row in a.tolist()]
        low, high = right[:7], right[7:]
        assert (low >= 0).all() and (low < 2 ** 15).all() and (np.abs(high) <= 2 ** 15).all()
        assert (low + 2 ** 15 * high).tolist() == [[centered(x) for x in row] for row in b.tolist()]
        assert (left @ right % p).tolist() == (a.astype(object) @ b.astype(object) % p).tolist()


# The smallest prime above 2^30 and the largest below 2^31.
MOD_PRIMES = [2 ** 30 + 3, 2 ** 31 - 1]


class TestMod:
    """_mod against np.remainder, in value and dtype."""

    def test_primes(self):
        assert [x for x in range(2 ** 30, 2 ** 30 + 4) if _is_probable_prime(x)] == [MOD_PRIMES[0]]
        assert _is_probable_prime(MOD_PRIMES[1])

    @pytest.mark.parametrize("p", MOD_PRIMES)
    def test_int64_matches_remainder(self, p):
        rng = np.random.default_rng(p)
        edges = [0, 1, -1, p - 1, p, -p, 2 ** 62, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63),
                 -(2 ** 63) + 1]
        x = np.concatenate([rng.integers(-(2 ** 63), 2 ** 63 - 1, size=495, endpoint=True),
                            rng.integers(-(2 ** 40), 2 ** 40, size=495),
                            np.array(edges, dtype=np.int64)]).reshape(-1, 11)
        # at -2^63, (x // p) * p wraps past -2^63, and the result is still exact
        assert (x // p * p > 0).any()
        got = _mod(x, p)
        want = np.remainder(x, p)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist() == [[v % p for v in row] for row in x.tolist()]

    @pytest.mark.parametrize("p", MOD_PRIMES)
    def test_out_may_be_the_input(self, p):
        x = np.random.default_rng(p).integers(-(2 ** 63), 2 ** 63 - 1, size=(40, 33))
        want = np.remainder(x, p)
        assert _mod(x, p, out=x) is x
        assert x.tolist() == want.tolist()

    @pytest.mark.parametrize("p", MOD_PRIMES)
    def test_object_beyond_int64(self, p):
        values = [0, -1, 2 ** 63, -(2 ** 63) - 1, 2 ** 100 + 7, -(2 ** 90) * 3, p * 2 ** 70]
        x = np.array(values, dtype=object)
        want = np.remainder(x, p)
        got = _mod(x, p)
        assert got.dtype == want.dtype == object
        assert got.tolist() == want.tolist() == [v % p for v in values]
        assert _mod(x, p, out=x) is x and x.tolist() == want.tolist()


@pytest.fixture
def dense_ranks(monkeypatch):
    """The shapes of the matrices that span_dimension hands to _modp_rank,
    its one dense elimination."""
    shapes = []

    def recorded(a, p):
        shapes.append(a.shape)
        return _modp_rank(a, p)

    monkeypatch.setattr(polyspace, "_modp_rank", recorded)
    return shapes


# 648 columns: a row of at most 648 // SPARSE_DIVISOR = 5 nonzeros is
# sparse.  The rows below use the first 81 columns.
PASS_BASIS = monomial_basis(2, (2, 2, 2, 1))


def polys_of(rows):
    """Polynomials over PASS_BASIS from column -> coefficient dicts."""
    return [MultiHomogPoly(2, {PASS_BASIS[c]: v for c, v in row.items()}) for row in rows]


def dense_row(rng, p, cols=range(81)):
    """Coefficients in [1, p) at ``cols``: nonzero, and nonzero mod p."""
    return {c: int(rng.integers(1, p)) for c in cols}


def assert_rank_matches_reference(polys, p, want=None):
    """span_dimension equals the column-by-column reference (and ``want``)."""
    rank = reference_modp_rank(coefficient_matrix_modp([q for q in polys if not q.is_zero()], p), p)
    assert span_dimension(polys, p) == rank
    if want is not None:
        assert rank == want


class TestSparsePass:
    """span_dimension's sparse pivots against reference_modp_rank, on planted
    rows; ``dense_ranks`` records what the dense elimination is left."""

    def test_sparse_divisor_splits_the_basis_at_five(self):
        assert len(PASS_BASIS) // polyspace.SPARSE_DIVISOR == 5

    @pytest.mark.parametrize("p", [5, 65521, 2 ** 31 - 1])
    def test_p_dividing_a_lead_coefficient_moves_the_lead(self, p, dense_ranks):
        # row 0 is row 1 mod p; taking its symbolic lead, column 0, as a
        # pivot would count both
        rng = np.random.default_rng(p)
        rows = [{0: Fraction(3 * p, 7), 4: 5, 9: 2}, {4: 5, 9: 2}, {4: 1, 10: 1},
                dense_row(rng, p)]
        assert_rank_matches_reference(polys_of(rows), p, want=3)
        assert dense_ranks[0][0] <= 2

    @pytest.mark.parametrize("p", [3, 65521])
    def test_rows_zero_mod_p_drop_out(self, p, dense_ranks):
        rng = np.random.default_rng(p)
        rows = [{2: p, 7: 2 * p}, {2: 1}, {c: p * int(rng.integers(1, 5)) for c in range(40)},
                {2: 1, 5: -p}, {3: 1, 8: 1}]
        assert_rank_matches_reference(polys_of(rows), p, want=2)
        # leads 2 and 3 are pivots, and the two rows behind them reduce to zero
        assert dense_ranks == [(0, len(PASS_BASIS) - 2)]

    @pytest.mark.parametrize("p", [7, 2 ** 31 - 1])
    def test_repeated_leads(self, p, dense_ranks):
        rows = [{0: 1, 1: 2, 2: 3}, {0: 1}, {0: 2, 3: 1}, {0: 5, 1: 1}, {1: 1},
                {1: 3, 2: 1, 3: 1, 4: 1}, {0: 1, 1: 2, 2: 3}, {5: 1, 6: 1}, {5: 2, 6: 2}]
        assert_rank_matches_reference(polys_of(rows), p, want=6)
        # one pivot per distinct lead, 0, 1 and 5: the other six remain
        assert dense_ranks[0][0] <= len(rows) - 3

    def test_the_fewest_nonzeros_lead(self):
        # row 1 has the fewest nonzeros of lead 0 and becomes its pivot
        polys = polys_of([{0: 1, 1: 1, 2: 1}, {0: 1}, {0: 1, 3: 1}])
        leads, (_, cols, _), rest = polyspace._sparse_pivots(polys, 65521)
        assert leads.tolist() == [0] and cols.size == 0
        assert rest == [polys[0], polys[2]]

    @pytest.mark.parametrize("p", [3, 65521, 2 ** 31 - 1])
    def test_all_sparse_with_distinct_leads_leaves_no_remainder(self, p, dense_ranks):
        rng = np.random.default_rng(p)
        rows = [{i: int(rng.integers(1, p)), **{int(c): int(rng.integers(1, p))
                                               for c in rng.choice(range(i + 1, 81), 4)}}
                for i in range(0, 60, 2)]
        assert_rank_matches_reference(polys_of(rows), p, want=len(rows))
        assert dense_ranks == []

    @pytest.mark.parametrize("p", [3, 2 ** 31 - 1])
    def test_all_dense_rows_take_the_dense_route(self, p, dense_ranks):
        rng = np.random.default_rng(p)
        rows = [dense_row(rng, p, range(i, i + 6)) for i in range(0, 70, 3)] + [dense_row(rng, p)]
        assert_rank_matches_reference(polys_of(rows), p)
        assert dense_ranks == [(len(rows), len(PASS_BASIS))]

    @pytest.mark.parametrize("p", [5, 65521, 2 ** 31 - 1])
    def test_dependency_chain_of_ten_levels(self, p, dense_ranks):
        # pivot i has an entry at pivot i + 1's lead, so pivot i + 1 waits
        # for it: ten levels.  A dense combination of the chain reduces to
        # zero only if the levels go in order.
        rng = np.random.default_rng(p + 1)
        chain = [{i: int(rng.integers(1, p)), i + 1: int(rng.integers(1, p))} for i in range(10)]
        mix = rng.integers(1, p, size=10).tolist()
        combo = {c: sum(m * row.get(c, 0) for m, row in zip(mix, chain)) for c in range(11)}
        rows = chain + [combo, dense_row(rng, p, range(6)), {30: 1, 31: 2}]
        polys = polys_of(rows)
        leads, (_, cols, _), _ = polyspace._sparse_pivots(polys[:10], p)
        assert leads.tolist() == list(range(10)) and cols.tolist() == list(range(1, 11))
        assert_rank_matches_reference(polys, p, want=12)
        assert dense_ranks[0][0] <= 2

    @pytest.mark.parametrize("p", [5, 65521, 2 ** 31 - 1])
    def test_random_families(self, p):
        rng = np.random.default_rng(p + 2)
        for _ in range(8):
            rows = []
            for _ in range(int(rng.integers(1, 60))):
                nnz = int(rng.integers(1, 6)) if rng.random() < 0.6 else int(rng.integers(6, 82))
                cols = rng.choice(81, nnz, replace=False).tolist()
                if rng.random() < 0.3:
                    cols[0] = int(rng.integers(0, 4))
                rows.append(dict(zip(cols, rng.integers(-3 * p, 3 * p, size=nnz).tolist())))
            # a few multiples of p and sums of earlier rows
            rows += [{c: p * v for c, v in rows[0].items()},
                     {c: rows[0].get(c, 0) + 2 * rows[-1].get(c, 0) for c in range(81)}]
            assert_rank_matches_reference(polys_of(rows), p)

    @pytest.mark.parametrize("pivot", [True, False])
    def test_prime_dividing_a_sparse_denominator_raises(self, pivot):
        p = 65537
        rng = np.random.default_rng(3)
        # the raising row is the pivot of lead 0, or a sparse row behind it
        raising = {0: Fraction(1, p), 2: 1} if pivot else {0: Fraction(5, 3 * p), 1: 1, 2: 1, 3: 1}
        rows = [raising, {0: 1, 4: 1, 5: 1, 6: 1}, dense_row(rng, p)]
        with pytest.raises(ValueError, match="denominator"):
            span_dimension(polys_of(rows), p)

    def test_empty_input_and_caller_order(self, dense_ranks):
        p = 65521
        assert span_dimension([], p) == 0
        assert span_dimension([MultiHomogPoly(2)], p) == 0
        rng = np.random.default_rng(11)
        polys = polys_of([dense_row(rng, p), {7: 1}, {3: 2, 9: 1}, {3: 1}]) + [MultiHomogPoly(2)]
        before = list(polys)
        assert span_dimension(polys, p) == 4
        assert all(a is b for a, b in zip(polys, before)) and len(polys) == len(before)
        # leads 7 and 3 are pivots; {3: 2, 9: 1} reduces to {9: 1}
        assert dense_ranks == [(2, len(PASS_BASIS) - 2)]


class TestSpanFacts:
    def test_441_octics_span_126_and_quotient_9(self):
        rng = random.Random(367)
        rig = random_rig(rng, 2)
        t = polarize(unit_distance_form())
        octics = all_octics_symbolic(rig, t)
        assert len(octics) == 441
        p = random_rank_prime(rng)
        assert span_dimension(octics, p) == 126
        component = ideal_component_basis(rig)
        assert len(component) == 648
        base = span_dimension(component, p)
        union = span_dimension(component + octics, p)
        assert union - base == 9


# octic_span on the five rigs of acceptance criterion 05 (SPAN_126_9, seed
# 105): the prime drawn and the failure bound, pinned to the values of the
# per-term coefficient route, which the cleared rows must reproduce exactly.
CRITERION_05_SPANS = [
    (1854510803, 4.7319853033491546e-05),
    (2093685317, 3.866065525037242e-05),
    (1993003333, 4.660975936562756e-05),
    (1386295607, 4.376938469417163e-05),
    (1180656853, 4.2901492433448986e-05),
]


class TestOcticSpan:
    @pytest.mark.parametrize("idx", range(5))
    def test_criterion_05_rigs_unchanged(self, idx):
        rng = random.Random(_sub_seed(105, idx))
        rig = harness_random_rig(rng, 2, 20)
        modulus, bound = CRITERION_05_SPANS[idx]
        assert octic_span(rig, random_rank_prime(rng)) == {
            "octics": 441, "span": 126, "component_span": 567, "quotient": 9,
            "modulus": modulus, "failure_bound": bound}

    @pytest.mark.parametrize("idx", range(5))
    def test_union_hands_the_dense_rank_its_remainder_only(self, idx, dense_ranks):
        # the 648 slice rows are sparse and 567 of them become pivots, so the
        # dense elimination sees at most the other 1089 - 567 rows: a silent
        # fall back to the dense route for all 1089 fails here
        rng = random.Random(_sub_seed(105, idx))
        rig = harness_random_rig(rng, 2, 20)
        octics = all_octics_symbolic(rig, polarize(unit_distance_form()))
        component = ideal_component_basis(rig)
        assert span_dimension(component + octics, random_rank_prime(rng)) == 567 + 9
        assert len(dense_ranks) == 1 and dense_ranks[0][0] <= len(component) + len(octics) - 567

    def test_exact_span_is_126(self):
        # the standard rig's octics are sparse with coefficients of at most
        # 6, so fraction-free elimination of all 441 takes seconds; on a
        # random rig it takes minutes
        octics = all_octics_symbolic(standard_rig(), polarize(unit_distance_form()))
        assert exact_rank(octics) == 126


@pytest.fixture(scope="module")
def criterion_05_families():
    """The 441 octics, the (2,2,2,2) slice and the prime of each of the five
    rigs of acceptance criterion 05."""
    out = []
    for idx in range(5):
        rng = random.Random(_sub_seed(105, idx))
        rig = harness_random_rig(rng, 2, 20)
        octics = all_octics_symbolic(rig, polarize(unit_distance_form()))
        out.append((octics, ideal_component_basis(rig), random_rank_prime(rng)))
    return out


def full_rank(polys, p):
    """reference_modp_rank of the nonzero polynomials' coefficient rows."""
    return reference_modp_rank(coefficient_matrix_modp([q for q in polys if not q.is_zero()], p), p)


class TestRankHandOff:
    """span_dimension hands the pivot rows of an all-dense rank to the next
    call once, when that call has the same modulus and holds every
    polynomial the rank ranked (the same objects); ``dense_ranks`` shows how
    many rows the union's dense elimination is left."""

    # the union's dense rows when it takes the octics' 126 pivot rows: the
    # slice's sparse pivots span the slice, so only octic rows remain
    HANDED_OFF_ROWS = 126

    @pytest.mark.parametrize("idx", range(5))
    def test_union_after_octics_equals_fresh_and_reference(self, idx, criterion_05_families,
                                                           dense_ranks, panels):
        octics, component, p = criterion_05_families[idx]
        union = component + octics
        assert span_dimension(octics, p) == 126
        slot = polyspace._handoff
        assert slot[0] == p and len(slot[2]) == 126
        assert {id(q) for q in slot[1]} == {id(q) for q in octics}
        assert {id(q) for q in slot[2]} <= {id(q) for q in octics}
        assert full_rank(slot[2], p) == 126
        # the slice's rank in between neither takes nor clears the slot
        assert span_dimension(component, p) == 567
        assert polyspace._handoff is slot
        assert span_dimension(union, p) == 567 + 9
        assert polyspace._handoff is None
        assert dense_ranks[-1][0] <= self.HANDED_OFF_ROWS
        # from an empty slot the union ranks every octic
        assert span_dimension(union, p) == 567 + 9 == full_rank(union, p)
        assert dense_ranks[-1][0] > self.HANDED_OFF_ROWS
        # in the column order each of the three dense ranks takes one panel
        assert len(panels) == 3

    @pytest.mark.parametrize("change", ["prime", "missing", "copies"])
    def test_a_call_that_does_not_match_recomputes(self, change, criterion_05_families,
                                                   dense_ranks):
        octics, component, p = criterion_05_families[0]
        assert span_dimension(octics, p) == 126
        slot = polyspace._handoff
        modulus, held = p, octics
        if change == "prime":
            modulus = random_rank_prime(random.Random(439))
            assert modulus != p
        elif change == "missing":
            held = octics[:200] + octics[201:]
        else:
            held = [MultiHomogPoly._trusted(q.n, q.multidegree, q._row) for q in octics]
            assert held[0] == octics[0] and held[0] is not octics[0]
        got = span_dimension(component + held, modulus)
        assert polyspace._handoff is slot
        assert dense_ranks[-1][0] > self.HANDED_OFF_ROWS
        polyspace._handoff = None
        assert got == span_dimension(component + held, modulus) == 567 + 9

    @pytest.mark.parametrize("p", [5, 65521, 2 ** 31 - 1])
    def test_random_families(self, p):
        rng = np.random.default_rng(p + 3)

        def dense_rows(k):
            # at least 6 nonzeros each: PASS_BASIS counts at most 5 as sparse
            return [dense_row(rng, p, rng.choice(81, int(rng.integers(6, 40)), replace=False).tolist())
                    for _ in range(k)]

        for _ in range(6):
            rows = dense_rows(int(rng.integers(1, 30)))
            # positive combinations of earlier rows: dependent, and dense
            rows += [{c: 2 * rows[0].get(c, 0) + 3 * rows[-1].get(c, 0)
                      for c in rows[0].keys() | rows[-1].keys()} for _ in range(3)]
            ranked = polys_of(rows)
            ranked.append(scaled(ranked[1], Fraction(2, 3)))
            assert span_dimension(ranked, p) == full_rank(ranked, p)
            slot = polyspace._handoff
            assert slot is not None and slot[0] == p and len(slot[2]) < len(ranked)
            # one sparse row sends the union down the sparse route
            others = polys_of(dense_rows(int(rng.integers(0, 20))) + [{int(rng.integers(0, 81)): 1}])
            union = others + ranked[::-1] + ranked[:2]
            want = full_rank(union, p)
            assert span_dimension(union, p) == want
            assert polyspace._handoff is None
            assert span_dimension(union, p) == want

    def test_a_slot_of_rank_zero(self):
        # dense rows that vanish mod p: the slot keeps no pivot row, and a
        # call that takes it drops every one of them
        p = 7
        zeros = polys_of([{c: p * (c + 1) for c in range(i, i + 8)} for i in range(3)])
        assert span_dimension(zeros, p) == 0
        assert polyspace._handoff[2] == []
        assert span_dimension(zeros, p) == 0
        assert polyspace._handoff is None
        # the dropped rows still count for the multidegree check
        assert span_dimension(zeros, p) == 0
        with pytest.raises(ValueError, match="mixed"):
            span_dimension(zeros + [variable(2, "u", 0, 0)], p)

    def test_a_denominator_that_p_divides_leaves_no_slot(self):
        p = 65537
        rng = np.random.default_rng(5)
        rows = [dense_row(rng, p, range(i, i + 8)) for i in range(4)]
        raising = polys_of(rows[:3] + [{**rows[3], 9: Fraction(1, p)}])
        with pytest.raises(ValueError, match="denominator"):
            span_dimension(raising, p)
        assert polyspace._handoff is None
        # a call that takes the slot and then raises leaves it empty too
        good = polys_of(rows)
        assert span_dimension(good, p) == 4
        assert polyspace._handoff is not None
        with pytest.raises(ValueError, match="denominator"):
            span_dimension(polys_of([{0: Fraction(1, p)}]) + good, p)
        assert polyspace._handoff is None


class TestIdealComponent:
    def test_count_and_degree(self):
        rng = random.Random(373)
        rig = random_rig(rng, 2)
        component = ideal_component_basis(rig)
        assert len(component) == 648
        assert all(p.multidegree == (2, 2, 2, 2) for p in component)

    def test_vanishes_at_arbitrary_image_pairs(self):
        rng = random.Random(379)
        rig = random_rig(rng, 2)
        component = ideal_component_basis(rig)
        for _ in range(3):
            x = ProjectivePoint(random_world_point(rng))
            y = ProjectivePoint(random_world_point(rng))
            u, v = forward_map(rig, x), forward_map(rig, y)
            us = [p.coords for p in u]
            vs = [p.coords for p in v]
            for poly in random.Random(1).sample(component, 40):
                assert evaluate(poly, us, vs) == 0

    @pytest.mark.parametrize("kind", ["int", "fraction", "standard"])
    def test_rows_equal_the_term_by_term_reference(self, kind):
        rigs = {"int": lambda: [random_rig(random.Random(s), 2) for s in (373, 389)],
                "fraction": lambda: [fraction_rig(random.Random(401))],
                "standard": lambda: [standard_rig()]}[kind]()
        for rig in rigs:
            got, want = ideal_component_basis(rig), reference_component_basis(rig)
            assert len(got) == len(want) == 648
            for g, w in zip(got, want):
                assert g.multidegree == w.multidegree == (2, 2, 2, 2)
                assert g._row[0].tolist() == w._row[0].tolist()
                assert g._row[0].dtype == w._row[0].dtype
                assert g._row[1].tolist() == w._row[1].tolist()
                assert g._row[1].dtype == w._row[1].dtype and g._row[2] == w._row[2]
            # the standard rig's F has zero entries, which are skipped
            assert all(len(g._row[0]) == (2 if kind == "standard" else 9) for g in got)
            assert span_dimension(got, random_rank_prime(random.Random(kind))) == 567

    def test_three_cameras_unsupported(self):
        rng = random.Random(383)
        rig = random_rig(rng, 3)
        with pytest.raises(ValueError):
            ideal_component_basis(rig)


class TestGeneratorCount:
    def test_known_totals(self):
        assert generator_count(2).total == 11
        assert generator_count(3).total == 177
        assert generator_count(4).total == 1176
        assert generator_count(5).total == 4940

    def test_class_breakdown_two_cameras(self):
        counts = {c.label: c.count for c in generator_count(2).classes}
        assert counts["110..000.."] == 2
        assert counts["220..220.."] == 9
        assert sum(counts.values()) == 11

    def test_class_breakdown_three_cameras(self):
        counts = {c.label: c.count for c in generator_count(3).classes}
        assert counts["110..000.."] == 6
        assert counts["111..000.."] == 2
        assert counts["220..220.."] == 81
        assert counts["220..211.."] == 54
        assert counts["220..111.."] == 18
        assert counts["211..211.."] == 9
        assert counts["211..111.."] == 6
        assert counts["111..111.."] == 1

    def test_consistency_up_to_twelve(self):
        for n in range(2, 13):
            gc = generator_count(n)
            assert sum(c.count for c in gc.classes) == gc.total

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            generator_count(1)
