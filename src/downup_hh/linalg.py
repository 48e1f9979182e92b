"""Exact linear algebra over the rationals.

Everything downstream (Hom-complex ranks, kernel bases, Coxeter spectra)
must be exact: a single rounded pivot would corrupt a cohomology dimension.
Scalars are exact: an `int` when integral, else a `fractions.Fraction`
(`_q`); `_as_q` refuses floats.  Both carry `.numerator` and `.denominator`.
Matrices are dense row-major lists.  The elimination, the product and the
characteristic polynomial below clear denominators first, compute over the
integers and form Fractions only for their non-integral results.

One elimination kernel, `QMatrix._eliminate(width)`, serves every solver.
It clears each row of denominators and divides it by its content, then runs
integer Gauss-Jordan elimination with pivots taken from the first `width`
columns; the other columns ride along as right-hand sides.  Every updated
row is divided by its gcd, so rows stay primitive, and rows with a zero in
the pivot column are not touched.  Next to the rows and the pivot columns
it returns the rational factor by which it scaled the determinant, as an
integer numerator and denominator.  So
rank counts pivots; rref, solve_many ([M | b_1 ... b_k], all right-hand
sides in one pass, solve being its one-column case) and inverse ([M | I])
divide pivot rows by their pivots; and det is the product of the pivots
over that factor.

The product A @ B clears row i of A by the lcm d_i of its denominators and
all of B by one lcm e, adds a * (row k of e*B) over the nonzero entries a
of d_i * (row i of A) only, and returns each entry v as v / (d_i * e).
Row k of e*B is kept as its nonzero (column, value) pairs, so each product
costs one multiplication per pair of nonzeros that meet: D1, with at most
two nonzeros per row, makes D2 @ D1 cheap.

The characteristic polynomial is Berkowitz's division-free recurrence
(Inf. Process. Lett. 18, 1984) on the integer matrix d*M, d the lcm of all
denominators: bordering the leading k x k block by row and column k
multiplies its characteristic polynomial by a Toeplitz matrix whose entries
come from k matrix-vector products.  Coefficient k of det(t*I - d*M) is
d^(n-k) times that of det(t*I - M).  It shares no code with the
elimination kernel or the product, and returns a list of exact scalars,
lowest degree first: the package's one polynomial representation, which
everywhere else holds integer coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

Q = Fraction

__all__ = ["Q", "QMatrix"]


def _as_q(x) -> int | Fraction:
    """x as an exact scalar: an int if integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, (int, str)):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact scalar: {x!r}")


def _q(num: int, den: int) -> int | Fraction:
    """num / den exactly: an int when den divides num, else a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


class QMatrix:
    """Dense matrix over Q, row-major."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: list[list]):
        self.rows = [[x if type(x) is int else _as_q(x) for x in row]
                     for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def _of(cls, rows: list[list[int | Fraction]], ncols: int) -> "QMatrix":
        """Wrap rows that already hold exact scalars, with an explicit column
        count (a matrix with no rows keeps it); neither copies nor checks."""
        m = cls.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "QMatrix":
        return cls._of([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    @classmethod
    def from_columns(cls, cols: list[list]) -> "QMatrix":
        return cls(cols).transpose()

    # -- basics -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij: tuple[int, int]) -> int | Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.shape == other.shape
                and self.rows == other.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"QMatrix[{self.nrows}x{self.ncols}: {body}]"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def transpose(self) -> "QMatrix":
        return QMatrix._of([[row[j] for row in self.rows] for j in range(self.ncols)],
                           self.nrows)

    def column(self, j: int) -> list[int | Fraction]:
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self) -> list[list[int | Fraction]]:
        return [self.column(j) for j in range(self.ncols)]

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "QMatrix":
        return QMatrix._of([[self.rows[i][j] for j in col_idx] for i in row_idx],
                           len(col_idx))

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return QMatrix._of([a + b for a, b in zip(self.rows, other.rows)],
                           self.ncols + other.ncols)

    def trace(self) -> int | Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return QMatrix._of(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return QMatrix._of(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols)

    def __neg__(self) -> "QMatrix":
        return QMatrix._of([[-x for x in row] for row in self.rows], self.ncols)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        e, right = _cleared(other.rows)
        right = [[(j, y) for j, y in enumerate(r) if y] for r in right]
        out = []
        for row in self.rows:
            d = lcm(*(x.denominator for x in row))
            acc = [0] * other.ncols
            for a, r in zip(row, right):
                if a and r:
                    a = a.numerator * (d // a.denominator)
                    for j, y in r:
                        acc[j] += a * y
            de = d * e
            out.append(acc if de == 1 else [_q(v, de) for v in acc])
        return QMatrix._of(out, other.ncols)

    def pow(self, k: int) -> "QMatrix":
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        result = QMatrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    # -- elimination ------------------------------------------------------

    def _eliminate(self, width: int | None = None):
        """Integer Gauss-Jordan on the primitive rows, pivots in the first
        `width` columns (see the module docstring).  Returns (rows, pivots,
        factor): the reduced rows, pivot rows first in pivot order; the pivot
        columns; the factor (num, den) by which the elimination scaled the
        determinant, as two integers: only det reads it.
        """
        width = self.ncols if width is None else width
        rows, num, den = [], 1, 1
        for row in self.rows:
            mult = lcm(*(x.denominator for x in row))
            ints = [x.numerator * (mult // x.denominator) for x in row]
            content = gcd(*ints) or 1
            rows.append([x // content for x in ints] if content > 1 else ints)
            num, den = num * mult, den * content
        pivots: list[int] = []
        for c in range(width):
            r = len(pivots)
            if r == self.nrows:
                break
            piv = next((i for i in range(r, self.nrows) if rows[i][c]), None)
            if piv is None:
                continue
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                num = -num
            prow, p = rows[r], rows[r][c]
            for i, row in enumerate(rows):
                a = row[c]
                if a and i != r:
                    new = [p * x - a * y for x, y in zip(row, prow)]
                    g = gcd(*new) or 1
                    rows[i] = [x // g for x in new] if g > 1 else new
                    num, den = num * p, den * g
            pivots.append(c)
        return rows, pivots, (num, den)

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def rref(self) -> tuple["QMatrix", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        rows, pivots, _ = self._eliminate()
        for r, c in enumerate(pivots):
            rows[r] = [_q(x, rows[r][c]) for x in rows[r]]
        return QMatrix._of(rows, self.ncols), pivots

    def kernel_basis(self) -> list[list[int | Fraction]]:
        """Basis of the right null space {v : Mv = 0}, one vector per free column."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [0] * self.ncols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc]
            basis.append(v)
        return basis

    def solve(self, b: list) -> list[int | Fraction] | None:
        """One exact solution of Mx = b (free variables 0), or None if inconsistent."""
        return self.solve_many([b])[0]

    def solve_many(self, bs: list[list]) -> list[list[int | Fraction] | None]:
        """solve(b) for every b in bs from one elimination of [M | b_1 ... b_k]:
        the right-hand sides ride along as extra columns, never as pivots."""
        cols = [[_as_q(x) for x in b] for b in bs]
        if any(len(b) != self.nrows for b in cols):
            raise ValueError("rhs length mismatch")
        n = self.ncols
        aug = QMatrix._of([row + [b[i] for b in cols]
                           for i, row in enumerate(self.rows)], n + len(cols))
        rows, pivots, _ = aug._eliminate(n)
        rank, out = len(pivots), []
        for k in range(n, n + len(cols)):
            if any(row[k] for row in rows[rank:]):
                out.append(None)
                continue
            x = [0] * n
            for row, c in zip(rows, pivots):
                x[c] = _q(row[k], row[c])
            out.append(x)
        return out

    def inverse(self) -> "QMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        rows, pivots, _ = self.hstack(QMatrix.identity(n))._eliminate(n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return QMatrix([[_q(x, row[c]) for x in row[n:]] for row, c in zip(rows, pivots)])

    def det(self) -> int | Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        rows, pivots, (num, den) = self._eliminate()
        if len(pivots) < self.nrows:
            return 0
        return _q(prod(row[c] for row, c in zip(rows, pivots)) * den, num)

    def char_poly(self) -> list[int | Fraction]:
        """The coefficients of det(t*I - M), lowest degree first, by
        Berkowitz's division-free recurrence on d*M."""
        if self.nrows != self.ncols:
            raise ValueError("char poly of non-square matrix")
        n = self.nrows
        d, a = _cleared(self.rows)
        poly = [1]  # char poly of the leading k x k block, highest degree first
        for k in range(n):
            # Bordering the block A by the row R, the column S and the corner
            # a_kk multiplies its char poly by the lower triangular Toeplitz
            # matrix of [1, -a_kk, -R S, -R A S, ..., -R A^(k-1) S].
            A, R = [row[:k] for row in a[:k]], a[k][:k]
            col, v = [1, -a[k][k]], [row[k] for row in a[:k]]
            for _ in range(k):
                col.append(-sum(map(mul, R, v)))
                v = [sum(map(mul, row, v)) for row in A]
            poly = [sum(col[h - i] * poly[i] for i in range(min(h, k) + 1))
                    for h in range(k + 2)]
        return [_q(c, d ** h) for h, c in enumerate(poly)][::-1]


def _cleared(rows: list[list[Fraction]]) -> tuple[int, list[list[int]]]:
    """(e, e*rows) with e the lcm of every denominator: the rows over Z."""
    e = lcm(*(x.denominator for row in rows for x in row))
    return e, [[x.numerator * (e // x.denominator) for x in row] for row in rows]
