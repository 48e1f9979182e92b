"""Exact linear algebra over the rationals."""

import math
from fractions import Fraction as Q
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from downup_hh.linalg import (QMatrix, _cleared, _dense, _gauss_jordan,
                              _nonzero, _product, _transposed)

ints = st.integers(min_value=-6, max_value=6)


def qmat(rows):
    return QMatrix([[Q(c) for c in row] for row in rows])


def mat(rows, ncols):
    """QMatrix of the rows with ncols columns, also when there are no rows."""
    return QMatrix(rows) if rows else QMatrix.zeros(0, ncols)


def eval_matrix(p, M):
    """p(M) by Horner's rule, p's coefficients lowest degree first, for the
    Cayley-Hamilton checks."""
    acc = QMatrix.zeros(M.nrows, M.ncols)
    for c in reversed(p):
        acc = acc @ M
        for i in range(M.nrows):
            acc.rows[i][i] += c
    return acc


def is_zero(M):
    """Whether every entry of M is zero."""
    return all(x == 0 for row in M.rows for x in row)


def assert_read_only(value):
    """Item assignment raises TypeError on value, a tuple or a read-only
    map, and on every container inside it; the leaves are immutable
    scalars or words."""
    if isinstance(value, (tuple, MappingProxyType)):
        is_map = isinstance(value, MappingProxyType)
        with pytest.raises(TypeError):
            value[next(iter(value), None) if is_map else 0] = None
        for x in value.values() if is_map else value:
            assert_read_only(x)
    else:
        assert type(value) in (int, Q, str), value


# -- test-only references: textbook Fraction Gauss-Jordan, product and the
# Faddeev-LeVerrier recurrence, for the differential tests below -----------

def ref_rref(rows, ncols):
    """(reduced rows, pivot columns) by Gauss-Jordan over Fraction."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def ref_char_poly(rows):
    """Coefficients of det(t*I - M), lowest first, by Faddeev-LeVerrier."""
    n = len(rows)
    coeffs = [Q(1)]
    acc = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        acc = [[sum((rows[i][l] * acc[l][j] for l in range(n)), Q(0))
                for j in range(n)] for i in range(n)]
        coeffs.append(-sum(acc[i][i] for i in range(n)) / k)
        for i in range(n):
            acc[i][i] += coeffs[-1]
    return coeffs[::-1]


def ref_matmul(a, b, ncols):
    """Textbook product of Fraction row lists; b has ncols columns."""
    return [[sum((x * row[j] for x, row in zip(ar, b)), Q(0)) for j in range(ncols)]
            for ar in a]


def ref_matvec(rows, x):
    """Textbook product of Fraction row lists with a vector."""
    return [sum((a * c for a, c in zip(row, x)), Q(0)) for row in rows]


def ref_solve(rows, b, ncols):
    red, pivots = ref_rref([row + [x] for row, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return x


entries = st.one_of(st.just(Q(0)), st.just(Q(0)),
                    st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def sparse_matrices(draw, square=False):
    """Sparse rational matrices, empty, non-square or rank-deficient ones included."""
    nr = draw(st.integers(0, 6))
    nc = nr if square else (draw(st.integers(0, 6)) if nr else 0)
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    if nr >= 3 and draw(st.booleans()):  # a dependent last row
        c = draw(entries)
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1])]
    return rows


@st.composite
def solve_batches(draw):
    """(rows, ncols, right-hand sides) for solve_many: a sparse matrix of any
    shape, 0 rows or 0 columns included, and up to four right-hand sides,
    each either M x (consistent) or drawn freely (inconsistent whenever it
    leaves the column space)."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    if nr >= 3 and draw(st.booleans()):  # a dependent last row
        c = draw(entries)
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1])]
    bs = [ref_matvec(rows, [draw(entries) for _ in range(nc)])
          if draw(st.booleans())
          else [draw(entries) for _ in range(nr)]
          for _ in range(draw(st.integers(0, 4)))]
    return rows, nc, bs


class TestQMatrix:
    def test_rank_and_rref(self):
        M = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert M.rank() == 2
        R, pivots = M.rref()
        assert pivots == [0, 1]
        assert R.rows[0][0] == 1 and R.rows[1][1] == 1
        assert R.rows[2] == [Q(0)] * 3

    def test_kernel_basis(self):
        M = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        ker = M.kernel_basis()
        assert len(ker) == 1
        for v in ker:
            assert ref_matvec(M.rows, v) == [Q(0)] * 3

    def test_solve(self):
        M = qmat([[2, 0], [0, 3], [2, 3]])
        x = M.solve([Q(4), Q(9), Q(13)])
        assert x == [Q(2), Q(3)]
        assert M.solve([Q(4), Q(9), Q(14)]) is None

    def test_solve_many_eliminates_once(self, monkeypatch):
        M = qmat([[2, 0], [0, 3], [2, 3]])
        calls = []
        eliminate = QMatrix._eliminate
        monkeypatch.setattr(QMatrix, "_eliminate",
                            lambda self, *a: calls.append(1) or eliminate(self, *a))
        xs = M.solve_many([[4, 9, 13], [4, 9, 14], [0, 0, 0], [2, 0, 2]])
        assert xs == [[Q(2), Q(3)], None, [Q(0), Q(0)], [Q(1), Q(0)]]
        assert len(calls) == 1
        assert M.solve_many([]) == []
        with pytest.raises(ValueError):
            M.solve_many([[1, 2, 3], [1, 2]])

    def test_inverse_det(self):
        M = qmat([[2, 1], [1, 1]])
        assert M.det() == 1
        assert M.inverse() @ M == QMatrix.identity(2)
        assert qmat([[1, 1], [1, 1]]).det() == 0
        with pytest.raises(ValueError):
            qmat([[1, 1], [1, 1]]).inverse()

    def test_char_poly_companion(self):
        # companion matrix of t^3 - 2t - 5
        M = qmat([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
        p = M.char_poly()
        assert p == [Q(-5), Q(-2), Q(0), Q(1)]

    @given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, rows):
        M = qmat(rows)
        ker = M.kernel_basis()
        assert M.rank() + len(ker) == 3
        for v in ker:
            assert ref_matvec(M.rows, v) == [Q(0)] * 3

    @given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_char_poly_cayley_hamilton(self, rows):
        M = qmat(rows)
        p = M.char_poly()
        assert p[-1] == 1 and len(p) == 4
        assert is_zero(eval_matrix(p, M))
        # det and trace sit in the char poly coefficients
        assert p[0] == (-1) ** 3 * M.det()
        assert p[2] == -M.trace()


mixed = st.one_of(st.just(Q(0)), st.fractions(min_value=-9, max_value=9,
                                               max_denominator=12))


@st.composite
def product_pairs(draw):
    """(a, b, ncols of b) with mixed denominators, zero rows and columns and
    empty shapes (0 rows, 0 columns or an inner dimension of 0).  The right
    factor, whose nonzeros the product walks, gets zero rows and columns of
    its own."""
    nr, inner, nc = (draw(st.integers(0, 5)) for _ in range(3))
    a = [[draw(mixed) for _ in range(inner)] for _ in range(nr)]
    b = [[draw(mixed) for _ in range(nc)] for _ in range(inner)]
    if nr and draw(st.booleans()):
        a[draw(st.integers(0, nr - 1))] = [Q(0)] * inner
    for _ in range(draw(st.integers(0, inner))):
        b[draw(st.integers(0, inner - 1))] = [Q(0)] * nc
    for _ in range(draw(st.integers(0, nc))):
        j = draw(st.integers(0, nc - 1))
        for row in b:
            row[j] = Q(0)
    return a, b, nc


class TestEmptyShapes:
    def test_zeros_without_rows_keeps_its_columns(self):
        assert QMatrix.zeros(0, 3).shape == (0, 3)

    def test_transpose_of_a_matrix_without_columns(self):
        assert QMatrix.zeros(2, 0).transpose().shape == (0, 2)
        assert QMatrix.zeros(0, 2).transpose().shape == (2, 0)

    def test_from_empty_columns(self):
        assert QMatrix.from_columns([[], [], []]).shape == (0, 3)
        assert QMatrix.from_columns([]).shape == (0, 0)

    def test_product_over_an_empty_inner_dimension(self):
        P = QMatrix.zeros(2, 0) @ QMatrix.zeros(0, 3)
        assert P.shape == (2, 3) and P == QMatrix.zeros(2, 3)

    def test_equality_sees_the_shape(self):
        assert QMatrix.zeros(0, 3) != QMatrix.zeros(0, 2)


class TestKernelAgainstReferences:
    @given(product_pairs())
    @settings(max_examples=150, deadline=None)
    def test_product(self, pair):
        a, b, nc = pair
        P = mat(a, len(b)) @ mat(b, nc)
        assert P.shape == (len(a), nc)
        assert P.rows == ref_matmul(a, b, nc)

    @given(sparse_matrices(), st.lists(entries, min_size=6, max_size=6),
           st.lists(entries, min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_rank_rref_kernel_solve(self, rows, x, b):
        M = QMatrix(rows)
        red, pivots = ref_rref(rows, M.ncols)
        assert M.rank() == len(pivots)
        assert M.rref() == (QMatrix(red), pivots)
        free = [c for c in range(M.ncols) if c not in pivots]
        assert M.kernel_basis() == [
            [Q(int(c == fc)) if c not in pivots else -red[pivots.index(c)][fc]
             for c in range(M.ncols)] for fc in free]
        consistent = ref_matvec(rows, x[:M.ncols])
        for rhs in (consistent, b[:M.nrows]):
            assert M.solve(rhs) == ref_solve(rows, rhs, M.ncols)
        assert M.solve(consistent) is not None

    @given(solve_batches())
    @example(([], 3, [[], []]))                     # 0 rows
    @example(([[], []], 0, [[Q(0), Q(0)], [Q(1), Q(0)]]))  # 0 columns
    @example(([[Q(1), Q(2)], [Q(2), Q(4)]], 2, []))  # an empty batch
    @settings(max_examples=150, deadline=None)
    def test_solve_many(self, batch):
        rows, nc, bs = batch
        M = mat(rows, nc)
        xs = M.solve_many(bs)
        assert len(xs) == len(bs)
        for b, x in zip(bs, xs):
            assert x == ref_solve(rows, b, nc)
            assert x == M.solve(b)
            if x is not None:
                assert ref_matvec(rows, x) == b

    @given(sparse_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_inverse_det_char_poly(self, rows):
        M = QMatrix(rows)
        n = M.nrows
        coeffs = ref_char_poly(rows)
        assert M.char_poly() == coeffs
        assert M.det() == (-1) ** n * coeffs[0]
        red, pivots = ref_rref([row + [Q(int(i == j)) for j in range(n)]
                                for i, row in enumerate(rows)], n)
        if len(pivots) < n:
            assert M.det() == 0
            with pytest.raises(ValueError):
                M.inverse()
        else:
            assert M.inverse() == QMatrix([row[n:] for row in red])

    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(mixed, min_size=n, max_size=n), min_size=n, max_size=n)))
    @example([[Q(1, 2), Q(1, 3), Q(0)], [Q(-2, 5), Q(0), Q(1, 4)],
              [Q(0), Q(3, 7), Q(-1, 6)]])
    @settings(max_examples=100, deadline=None)
    def test_char_poly_with_denominators(self, rows):
        # Berkowitz runs on d*M and divides coefficient k by d^(n-k).
        assert QMatrix(rows).char_poly() == ref_char_poly(rows)



# -- int | Fraction entries: integral values are exact ints -----------------

def wrapped(M):
    """M with every entry a Fraction, integral ones included: the same
    matrix as the kernel saw it before integral entries stayed ints."""
    return QMatrix._of([[Q(x) for x in row] for row in M.rows], M.ncols)


def exact(x):
    """Whether x is an int when integral and a Fraction otherwise."""
    return type(x) is (int if x.denominator == 1 else Q)


def all_exact(rows):
    return all(exact(x) for row in rows for x in row)


int_or_fraction = st.one_of(ints, st.fractions(min_value=-4, max_value=4,
                                               max_denominator=5))


@st.composite
def mixed_matrices(draw, square=False, nrows=None):
    """Small matrices whose entries are ints and Fractions, mixed."""
    nr = draw(st.integers(0, 5)) if nrows is None else nrows
    nc = nr if square else draw(st.integers(0, 5))
    rows = [[draw(int_or_fraction) for _ in range(nc)] for _ in range(nr)]
    if nr >= 3 and draw(st.booleans()):  # a dependent last row
        rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]
    return mat(rows, nc)


class TestExactScalars:
    @pytest.mark.parametrize("rows", [[[0.5]], [[1, 2.0]], [[Q(1), -0.0]],
                                      [[0, float("nan")]]])
    def test_qmatrix_rejects_a_float_entry(self, rows):
        with pytest.raises(TypeError, match="not an exact scalar"):
            QMatrix(rows)

    @pytest.mark.parametrize("b", [[1, 0.5], [0.0, 1], [Q(1), 2.0]])
    def test_solve_many_rejects_a_float_right_hand_side(self, b):
        M = QMatrix([[1, 0], [0, 1]])
        with pytest.raises(TypeError, match="not an exact scalar"):
            M.solve_many([[1, 2], b])
        with pytest.raises(TypeError, match="not an exact scalar"):
            M.solve(b)

    def test_integral_values_become_ints(self):
        M = QMatrix([[Q(4, 2), Q(1, 2), "3", "3/6", True, -7]])
        assert [type(x) for x in M.rows[0]] == [int, Q, int, Q, int, int]
        assert M.rows == [[2, Q(1, 2), 3, Q(1, 2), 1, -7]]
        assert all_exact(QMatrix.identity(3).rows + QMatrix.zeros(2, 2).rows)

    @given(mixed_matrices(), st.lists(int_or_fraction, min_size=5, max_size=5),
           st.lists(int_or_fraction, min_size=5, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_rank_rref_kernel_solve_match_the_fraction_matrix(self, M, x, b):
        F, fractions = wrapped(M), [[Q(c) for c in row] for row in M.rows]
        red, pivots = ref_rref(fractions, M.ncols)
        assert M.rank() == F.rank() == len(pivots)
        R, piv = M.rref()
        assert (R, piv) == F.rref() == (mat(red, M.ncols), pivots)
        assert all_exact(R.rows)
        ker = M.kernel_basis()
        assert ker == F.kernel_basis()
        assert all_exact(ker)
        assert [ref_matvec(fractions, v) for v in ker] == [[0] * M.nrows] * len(ker)
        rhs = [ref_matvec(fractions, x[:M.ncols]), b[:M.nrows]]
        xs = M.solve_many(rhs)
        assert xs == F.solve_many(rhs)
        assert xs == [ref_solve(fractions, r, M.ncols) for r in rhs]
        assert xs[0] is not None
        assert all_exact(s for s in xs if s is not None)

    @given(mixed_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_inverse_det_char_poly_match_the_fraction_matrix(self, M):
        F, fractions = wrapped(M), [[Q(c) for c in row] for row in M.rows]
        det, poly = M.det(), M.char_poly()
        assert det == F.det() and exact(det)
        assert poly == F.char_poly() == ref_char_poly(fractions)
        assert all(exact(c) for c in poly)
        if det:
            inv = M.inverse()
            assert inv == F.inverse() and all_exact(inv.rows)
            assert inv @ M == QMatrix.identity(M.nrows)
        else:
            with pytest.raises(ValueError):
                M.inverse()

    @given(mixed_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_product_matches_the_fraction_matrix(self, A, data):
        B = data.draw(mixed_matrices(nrows=A.ncols))
        P = A @ B
        assert P == wrapped(A) @ wrapped(B) == A @ wrapped(B)
        assert P.rows == ref_matmul(wrapped(A).rows, wrapped(B).rows, B.ncols)
        assert all_exact(P.rows)


# -- the nonzero-row kernels against dense references ------------------------

@st.composite
def kernel_rows(draw, nrows=None, ncols=None):
    """Dense rows for the kernels: all-int or mixed int/Fraction entries,
    zero rows, 0 x k and k x 0 shapes, and integral Fractions that in-place
    `+= Q(c)` edits leave behind."""
    nr = draw(st.integers(0, 6)) if nrows is None else nrows
    nc = draw(st.integers(0, 6)) if ncols is None else ncols
    scalar = draw(st.sampled_from([ints, int_or_fraction, mixed]))
    rows = [[draw(scalar) for _ in range(nc)] for _ in range(nr)]
    if nr and draw(st.booleans()):
        rows[draw(st.integers(0, nr - 1))] = [0] * nc
    if nr and nc:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.integers(0, nr - 1)), draw(st.integers(0, nc - 1))
            rows[i][j] += Q(draw(st.integers(-3, 3)))
    return rows, nc


def as_kernel_input(rows, keep_zeros):
    """The nonzero rows of dense rows, or every entry zeros included: the
    kernels drop stored zeros themselves."""
    return [dict(enumerate(row)) for row in rows] if keep_zeros else _nonzero(rows)


class TestNonzeroKernels:
    @given(kernel_rows(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_cleared_rows_are_ints(self, dense, keep_zeros):
        rows, nc = dense
        e, ints = _cleared(as_kernel_input(rows, keep_zeros))
        assert all(type(x) is int and x for row in ints for x in row.values())
        assert _dense(ints, nc) == [[e * Q(x) for x in row] for row in rows]
        assert e == math.lcm(*(Q(x).denominator for row in rows for x in row))

    @given(kernel_rows(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_transposed_and_dense(self, dense, keep_zeros):
        rows, nc = dense
        assert _dense(_nonzero(rows), nc) == rows
        t = _transposed(as_kernel_input(rows, keep_zeros), nc)
        assert _dense(t, len(rows)) == [[row[j] for row in rows]
                                         for j in range(nc)]

    @given(kernel_rows(), st.booleans(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_product_equals_the_dense_product(self, dense, keep_zeros, data):
        a, inner = dense
        b, nc = data.draw(kernel_rows(nrows=inner))
        out = _product(as_kernel_input(a, keep_zeros),
                       as_kernel_input(b, keep_zeros))
        fa, fb = ([[Q(x) for x in row] for row in m] for m in (a, b))
        assert len(out) == len(a)
        assert _dense(out, nc) == ref_matmul(fa, fb, nc)
        assert all(exact(x) and x for row in out for x in row.values())
        assert mat(a, inner) @ mat(b, nc) == QMatrix._of(_dense(out, nc), nc)

    @given(kernel_rows(), st.booleans(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_elimination_equals_dense_gauss_jordan(self, dense, keep_zeros,
                                                   data):
        rows, nc = dense
        width = data.draw(st.integers(0, nc))
        out, pivots, (num, den) = _gauss_jordan(
            as_kernel_input(rows, keep_zeros), width)
        fractions = [[Q(x) for x in row] for row in rows]
        red, ref_pivots = ref_rref(fractions, width)
        assert pivots == ref_pivots and len(out) == len(rows)
        assert all(type(x) is int and x for row in out for x in row.values())
        for row in out:  # primitive
            assert math.gcd(*row.values()) in (0, 1)
        for row, c, ref in zip(out, pivots, red):
            assert _dense([row], nc)[0] == [x * row[c] for x in ref]
        assert not any(j < width for row in out[len(pivots):] for j in row)
        if rows and width == nc == len(rows):
            det = ref_char_poly(fractions)[0] * (-1) ** nc
            assert (Q(num) * det == den * math.prod(
                row[c] for row, c in zip(out, pivots))
                if len(pivots) == nc else det == 0)

    @given(kernel_rows(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_qmatrix_after_in_place_fraction_edits(self, dense, data):
        # `+= Q(c)` leaves integral Fractions in the rows; every method
        # still clears them, and what it returns is exact
        rows, nc = dense
        M = mat([list(row) for row in rows], nc)
        for i in range(M.nrows):
            for j in range(nc):
                M.rows[i][j] += Q(data.draw(st.integers(-1, 1)))
        fractions = [[Q(x) for x in row] for row in M.rows]
        red, pivots = ref_rref(fractions, nc)
        assert M.rank() == len(pivots)
        R, piv = M.rref()
        assert piv == pivots and R == mat(red, nc) and all_exact(R.rows)
        P = M @ M.transpose()
        assert P.rows == ref_matmul(fractions, [list(c) for c in zip(*fractions)],
                                    M.nrows)
        assert all_exact(P.rows)
        if M.nrows == nc:
            assert M.char_poly() == ref_char_poly(fractions)
