import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_adjugate, reference_det, reference_invert
from rigidview.linalg import (
    EXACT,
    FLOAT,
    INT64_LIMIT,
    BackendError,
    Mat,
    ShapeError,
    _int_array,
    _max_abs,
    adjugate,
    decode_scalar,
    det,
    integer_cleared,
    invert,
    rank,
    signed_maximal_minors,
)


def naive_det(m: Mat):
    """Permutation-expansion determinant, independent of the elimination path."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * m[i, perm[i]]
        total += term
    return total


small_int = st.integers(min_value=-9, max_value=9)


def int_matrix(rows, cols):
    return st.lists(st.lists(small_int, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


class TestDet:
    def test_identity(self):
        assert det(Mat.identity(3)) == 1

    def test_two_by_two(self):
        assert det(Mat([[1, 2], [3, 4]])) == -2

    def test_repeated_row_is_zero(self):
        m = Mat([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert det(m) == 0

    def test_fraction_entries(self):
        m = Mat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
        assert det(m) == Fraction(1, 14) - Fraction(1, 15)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            det(Mat([[1, 2, 3], [4, 5, 6]]))

    @given(int_matrix(4, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_permutation_expansion(self, rows):
        m = Mat(rows)
        assert det(m) == naive_det(m)

    @given(int_matrix(3, 3), int_matrix(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative(self, a_rows, b_rows):
        a, b = Mat(a_rows), Mat(b_rows)
        assert det(a @ b) == det(a) * det(b)

    def test_float_det(self):
        m = Mat([[2.0, 0.0], [0.0, 3.0]])
        assert det(m) == pytest.approx(6.0)


    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                                    min_size=n, max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=40, deadline=None)
    def test_fraction_entries_match_permutation_expansion(self, rows):
        m = Mat(rows)
        assert det(m) == naive_det(m)

    def test_zero_leading_block_forces_row_swaps(self):
        # three zero rows over the first three columns: an odd number of swaps
        rng = random.Random(7)
        top = [[0] * 3 + [rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
        bottom = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(5)]
        m = Mat(top + bottom)
        assert det(m) == naive_det(m) != 0

    def test_rejects_size_nine(self):
        with pytest.raises(ShapeError):
            det(Mat.identity(9))

    def test_singular_fraction_matrix_is_zero(self):
        row = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
        m = Mat([row, [Fraction(3, 4), 1, Fraction(2, 9)], [3 * x for x in row]])
        assert det(m) == 0


class TestRank:
    def test_identity(self):
        assert rank(Mat.identity(4)).rank == 4

    def test_zero(self):
        assert rank(Mat.zeros(3, 5)).rank == 0

    def test_outer_product(self):
        u = [1, 2, 3]
        v = [4, 5]
        m = Mat([[a * b for b in v] for a in u])
        assert rank(m).rank == 1

    def test_float_rank_with_tolerance(self):
        m = Mat([[1.0, 0.0], [0.0, 1e-14]])
        assert rank(m, tol=1e-9).rank == 1
        assert rank(m, tol=1e-16).rank == 2

    @given(int_matrix(4, 5))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_row_permutation(self, rows):
        m = Mat(rows)
        rng = random.Random(7)
        perm = list(range(4))
        rng.shuffle(perm)
        pm = Mat([rows[i] for i in perm])
        assert rank(m).rank == rank(pm).rank

    @given(int_matrix(4, 4))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_invertible_multiplication(self, rows):
        m = Mat(rows)
        g = Mat([[1, 2, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0], [1, 0, 0, 1]])
        assert det(g) != 0
        assert rank(g @ m).rank == rank(m).rank


@st.composite
def planted_rank(draw):
    """Integer rows L R, with L of size rows x r and R of size r x cols:
    up to 8 x 8, of rank at most the planted r."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(0, min(rows, cols)))
    left, right = draw(int_matrix(rows, r)), draw(int_matrix(r, cols))
    return [[sum(a * b for a, b in zip(lr, rc)) for rc in zip(*right)] if r else [0] * cols
            for lr in left]


class TestFloatMatchesExact:
    @given(planted_rank())
    @settings(max_examples=200, deadline=None)
    def test_float_rank_on_planted_rank(self, rows):
        # on 10^5 such matrices the nonzero singular values were at least
        # 4.8e-6 of the largest and the others at most 3.8e-16 of it, so the
        # default relative tolerance 1e-9 lies far inside the gap
        exact = rank(Mat(rows)).rank
        m = Mat([[float(x) for x in r] for r in rows])
        assert rank(m).rank == exact


class TestSignedMaximalMinors:
    def test_cross_product_of_unit_rows(self):
        m = Mat([[1, 0, 0], [0, 1, 0]])
        assert signed_maximal_minors(m) == (0, 0, 1)

    def test_three_by_four(self):
        m = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert signed_maximal_minors(m) == (0, 0, 0, -1)

    def test_random_orthogonality(self):
        rng = random.Random(12345)
        for _ in range(20):
            m = Mat([[rng.randint(-20, 20) for _ in range(6)] for _ in range(5)])
            w = signed_maximal_minors(m)
            assert m.apply(w) == (0,) * 5

    @given(int_matrix(3, 4))
    @settings(max_examples=40, deadline=None)
    def test_orthogonality_property(self, rows):
        m = Mat(rows)
        w = signed_maximal_minors(m)
        assert m.apply(w) == (0, 0, 0)

    @given(st.one_of(int_matrix(5, 6),
                     st.lists(st.lists(st.fractions(max_denominator=7, min_value=-9, max_value=9),
                                       min_size=6, max_size=6), min_size=5, max_size=5)))
    @settings(max_examples=60, deadline=None)
    def test_equals_signed_column_deleted_dets(self, rows):
        m = Mat(rows)
        got = signed_maximal_minors(m)
        want = [det(m.delete_col(i)) * (-1) ** i for i in range(6)]
        assert list(got) == want
        assert [type(x) for x in got] == [type(x) for x in want]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            signed_maximal_minors(Mat.identity(3))


class TestMatBasics:
    def test_mixing_fraction_and_float_rejected(self):
        with pytest.raises(BackendError):
            Mat([[Fraction(1, 2), 0.5]])

    def test_int_and_float_coerce(self):
        m = Mat([[1, 0.5]])
        assert m.backend == FLOAT
        assert isinstance(m[0, 0], float)

    def test_exact_backend_detected(self):
        assert Mat([[1, Fraction(1, 2)]]).backend == EXACT

    def test_immutable(self):
        m = Mat.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_matmul_and_apply(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([[5], [6]])
        assert (a @ b).col(0) == (17, 39)
        assert a.apply((5, 6)) == (17, 39)

    def test_integer_cleared(self):
        assert integer_cleared([Fraction(1, 2), Fraction(3, 4), 0]) == (2, 3, 0)
        assert integer_cleared([4, 6, 8]) == (2, 3, 4)


def _normalized(x):
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


@st.composite
def square_matrices(draw, entries):
    """Square matrices of size 1 to 8 whose integral entries are ints, as
    decoded input gives them; about half are made singular by a zero row or
    a row that is a multiple of another."""
    n = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(entries)
        rows[i] = [_normalized(c * x) if i != j else 0 for x in rows[j]]
    return Mat(rows)


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=7).map(_normalized)
exact_square = st.one_of(square_matrices(small_int), square_matrices(small_fraction))


def _same(got, want):
    """Equal in value and in type, entry by entry for matrices."""
    if isinstance(want, Mat):
        return got.data == want.data and all(
            type(g) is type(w) for gr, wr in zip(got.data, want.data) for g, w in zip(gr, wr))
    return got == want and type(got) is type(want)


class TestEliminationReferences:
    """det, adjugate and invert read the elimination of rank;
    these compare them with independent references."""

    @given(exact_square)
    @settings(max_examples=60, deadline=None)
    def test_exact_det_matches_partial_pivoting(self, m):
        assert _same(det(m), _normalized(reference_det(m)))

    @given(exact_square)
    @settings(max_examples=40, deadline=None)
    def test_exact_adjugate_matches_cofactors(self, m):
        adj = adjugate(m)
        assert _same(adj, reference_adjugate(m))
        d = det(m)
        assert (m @ adj).data == tuple(tuple(d if i == j else 0 for j in range(m.rows))
                                       for i in range(m.rows))

    @given(exact_square)
    @settings(max_examples=40, deadline=None)
    def test_exact_invert_matches_gauss_jordan(self, m):
        try:
            want = reference_invert(m)
        except ValueError:
            with pytest.raises(ValueError):
                invert(m)
            return
        assert _same(invert(m), want)

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=n,
                                    max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    # a row norm whose squares underflow: the first row's sum of squares is 0
    @example(rows=[[0.0, 6.830866295121082e-250], [4.391465628484104e-42, 27.0]])
    def test_float_det_within_hadamard_bound(self, rows):
        m = Mat([[float(x) for x in r] for r in rows])
        hadamard = 1.0
        for r in m.data:
            hadamard *= math.hypot(*r)
        got = det(m)
        assert type(got) is float
        assert abs(got - reference_det(m)) <= 1e-12 * hadamard

    def test_float_det_singular_is_zero(self):
        assert det(Mat([[1.0, 2.0], [2.0, 4.0]])) == 0.0
        assert det(Mat([[0.0, 0.0], [1.0, 1.0]])) == 0.0

    def test_float_det_sign_follows_row_and_column_swaps(self):
        # complete pivoting swaps both rows and columns here
        m = Mat([[0.0, 1.0, 0.0], [0.0, 0.0, 5.0], [2.0, 0.0, 0.0]])
        assert det(m) == pytest.approx(reference_det(m)) == pytest.approx(10.0)
        assert det(Mat([[0.0, 1.0], [1.0, 0.0]])) == -1.0

    @pytest.mark.parametrize("rows", [
        [[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[4.0]],
    ])
    def test_float_invert_raises_backend_error(self, rows):
        # invert is exact only: a rotation, a singular matrix and a 1x1
        # matrix on floats are all refused
        with pytest.raises(BackendError):
            invert(Mat(rows))

    def test_singular_inputs_raise(self):
        with pytest.raises(ValueError, match="singular"):
            invert(Mat([[1, 2], [2, 4]]))
        with pytest.raises(ShapeError):
            adjugate(Mat([[1, 2, 3]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_entries_rejected(self, bad):
        m = Mat([[bad, 1.0], [2.0, 3.0]])
        for kernel in (det, rank):
            with pytest.raises(ValueError, match="finite"):
                kernel(m)

    def test_one_by_one(self):
        assert _same(invert(Mat([[4]])), Mat([[Fraction(1, 4)]]))
        assert _same(invert(Mat([[Fraction(1, 3)]])), Mat([[3]]))
        assert _same(adjugate(Mat([[7]])), Mat([[1]]))


class TestDecodeScalar:
    @pytest.mark.parametrize("v,want", [
        (1e-13, Fraction(1, 10 ** 13)),
        (2.5e-13, Fraction(1, 4 * 10 ** 12)),
        (0.1, Fraction(1, 10)),
        (123456.789, Fraction(123456789, 1000)),
        (-0.5, Fraction(-1, 2)),
        (3.0, 3),
    ])
    def test_exact_float_is_its_shortest_decimal(self, v, want):
        got = decode_scalar(v)
        assert got == want and type(got) is type(want)
        assert float(got) == v


class TestIntArray:
    """The width rule for stored exact integer arrays."""

    @pytest.mark.parametrize("values,dtype", [
        ([INT64_LIMIT - 1, -(INT64_LIMIT - 1), 0], np.int64),
        ([[1, -2], [3, INT64_LIMIT]], object),
        ([-INT64_LIMIT], object),
        ([], np.int64),
    ])
    def test_width_at_the_limit(self, values, dtype):
        arr = _int_array(values)
        assert arr.dtype == dtype
        assert arr.tolist() == values
        flat = np.ravel(np.array(values, dtype=object)).tolist()
        want = max(map(abs, flat), default=0)
        assert _max_abs(arr) == want and type(_max_abs(arr)) is int
        if dtype == np.int64:
            assert _max_abs(arr.astype(object)) == want

    def test_max_abs_at_the_int64_minimum(self):
        arr = np.array([3, -INT64_LIMIT], dtype=np.int64)
        assert _max_abs(arr) == INT64_LIMIT and type(_max_abs(arr)) is int

    @pytest.mark.parametrize("values", [
        np.zeros(0, dtype=np.int64),
        np.zeros((0, 4), dtype=np.int64),
        np.array([[0, 0], [0, 0]], dtype=np.int64),
        np.array([[-INT64_LIMIT, INT64_LIMIT - 1]], dtype=np.int64),
        np.array([INT64_LIMIT - 1, -5], dtype=np.int64),
        np.array([-(INT64_LIMIT - 1), 7], dtype=np.int64),
        np.random.default_rng(3).integers(-2 ** 62, 2 ** 62, size=(756, 16)),
        np.zeros(0, dtype=object),
        np.array([3, -(2 ** 80), 2 ** 70], dtype=object),
        np.array([[-INT64_LIMIT, 4], [1, -2]], dtype=object),
    ])
    def test_max_abs_matches_python_ints(self, values):
        # int64 input takes numpy's extremes, object input Python's abs
        want = max(map(abs, values.ravel().tolist()), default=0)
        assert _max_abs(values) == want and type(_max_abs(values)) is int
