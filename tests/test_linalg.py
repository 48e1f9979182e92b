"""Exact linear algebra over the rationals."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from downup_hh.linalg import QMatrix, QPoly, poly_gcd

ints = st.integers(min_value=-6, max_value=6)


def qmat(rows):
    return QMatrix([[Q(c) for c in row] for row in rows])


# -- test-only references: textbook Fraction Gauss-Jordan and the
# Faddeev-LeVerrier recurrence, for the differential test below ------------

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
            assert M.matvec(v) == [Q(0)] * 3

    def test_solve(self):
        M = qmat([[2, 0], [0, 3], [2, 3]])
        x = M.solve([Q(4), Q(9), Q(13)])
        assert x == [Q(2), Q(3)]
        assert M.solve([Q(4), Q(9), Q(14)]) is None

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
        assert p.coeffs == [Q(-5), Q(-2), Q(0), Q(1)]

    @given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, rows):
        M = qmat(rows)
        ker = M.kernel_basis()
        assert M.rank() + len(ker) == 3
        for v in ker:
            assert M.matvec(v) == [Q(0)] * 3

    @given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_char_poly_cayley_hamilton(self, rows):
        M = qmat(rows)
        p = M.char_poly()
        assert p.coeffs[-1] == 1 and p.degree == 3
        assert p.eval_matrix(M).is_zero()
        # det and trace sit in the char poly coefficients
        assert p.coeffs[0] == (-1) ** 3 * M.det()
        assert p.coeffs[2] == -M.trace()


class TestKernelAgainstReferences:
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
        consistent = M.matvec(x[:M.ncols])
        for rhs in (consistent, b[:M.nrows]):
            assert M.solve(rhs) == ref_solve(rows, rhs, M.ncols)
        assert M.solve(consistent) is not None

    @given(sparse_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_inverse_det_char_poly(self, rows):
        M = QMatrix(rows)
        n = M.nrows
        coeffs = ref_char_poly(rows)
        assert M.char_poly().coeffs == coeffs
        assert M.det() == (-1) ** n * coeffs[0]
        red, pivots = ref_rref([row + [Q(int(i == j)) for j in range(n)]
                                for i, row in enumerate(rows)], n)
        if len(pivots) < n:
            assert M.det() == 0
            with pytest.raises(ValueError):
                M.inverse()
        else:
            assert M.inverse() == QMatrix([row[n:] for row in red])


class TestQPoly:
    def test_arith(self):
        f = QPoly([Q(-1), Q(0), Q(1)])  # t^2 - 1
        g = QPoly([Q(1), Q(1)])  # t + 1
        q, r = f.divmod(g)
        assert r.is_zero() and q.coeffs == [Q(-1), Q(1)]
        assert (g * QPoly([Q(-1), Q(1)])).coeffs == f.coeffs
        assert f(Q(3)) == 8

    def test_gcd(self):
        f = QPoly.x_pow_minus_one(6)
        g = QPoly.x_pow_minus_one(4)
        d = poly_gcd(f, g)
        assert d.coeffs == QPoly.x_pow_minus_one(2).coeffs

    @given(st.lists(ints, min_size=1, max_size=5), st.lists(ints, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides(self, fc, gc):
        f = QPoly([Q(c) for c in fc])
        g = QPoly([Q(c) for c in gc])
        d = poly_gcd(f, g)
        if d.is_zero():
            assert f.is_zero() and g.is_zero()
            return
        for h in (f, g):
            _, r = h.divmod(d)
            assert r.is_zero()
