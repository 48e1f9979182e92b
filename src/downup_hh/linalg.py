"""Exact linear algebra over the rationals.

Everything downstream (Hom-complex ranks, kernel bases, Coxeter spectra)
must be exact: a single rounded pivot would corrupt a cohomology dimension.
Scalars are exact: an `int` when integral, else a `fractions.Fraction`
(`_q`); `_as_q` refuses floats.  Both carry `.numerator` and `.denominator`.

`QMatrix` is the one public matrix type, dense and row-major.  Its two
kernels work on *nonzero rows* instead: one dict {column: value} per row,
holding that row's nonzero entries (`_nonzero`, `_dense` and `_transposed`
convert).  The Hom complex keeps its differentials in this form from the
pairing walk on, so its certificate, cocycle test, images and cokernels
never touch a zero; `QMatrix.rank`, `_eliminate` and `@` hand their rows to
the same kernels (rank only counts the pivots and densifies nothing).  Both
kernels start from `_cleared`, which multiplies the rows by the lcm of every
denominator and makes every entry an int, integral Fractions included (when
every entry already is an int, it only copies); they compute over the
integers and form Fractions only for their non-integral results.

The elimination kernel, `_gauss_jordan(rows, width)`, serves every solver.
It divides each cleared row by its content, then runs integer Gauss-Jordan
elimination with pivots taken from the first `width` columns; the other
columns ride along as right-hand sides.  Every updated row is divided by
its gcd, so rows stay primitive, and rows with a zero in the pivot column
are not touched.  An update walks the nonzeros of the two rows it combines.
Next to the rows and the pivot columns it returns the rational factor by
which it scaled the determinant, as an integer numerator and denominator.
So rank counts pivots; rref, solve_many ([M | b_1 ... b_k], all right-hand
sides in one pass, solve being its one-column case) and inverse ([M | I])
divide pivot rows by their pivots; and det is the product of the pivots
over that factor.

The product kernel, `_product(a, b)`, clears A by d and B by e, adds
x * (row k of e*B) over the nonzero entries x of row i of d*A, and returns
each entry v as v / (d * e).  So a product costs one multiplication per
pair of nonzeros that meet: D1, with at most two nonzeros per row, makes
D2 D1 cheap.

The characteristic polynomial is Berkowitz's division-free recurrence
(Inf. Process. Lett. 18, 1984) on the integer matrix d*M, d the lcm of all
denominators: bordering the leading k x k block by row and column k
multiplies its characteristic polynomial by a Toeplitz matrix whose entries
come from k matrix-vector products.  Coefficient k of det(t*I - d*M) is
d^(n-k) times that of det(t*I - M).  It shares only `_cleared` with the
two kernels, and returns a list of exact scalars,
lowest degree first: the package's one polynomial representation, which
everywhere else holds integer coefficients.  No command runs it: the
unipotency of the Serre action is decided by divisibility and by a
nilpotency witness (`invariants`), and char_poly stays as a method that
the benchmark's tracer wraps and the tests use as a reference.
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

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.shape == other.shape
                and self.rows == other.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"QMatrix[{self.nrows}x{self.ncols}: {body}]"

    def transpose(self) -> "QMatrix":
        return QMatrix._of([[row[j] for row in self.rows] for j in range(self.ncols)],
                           self.nrows)

    def trace(self) -> int | Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        return QMatrix._of(
            _dense(_product(_nonzero(self.rows), _nonzero(other.rows)),
                   other.ncols), other.ncols)

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
        """`_gauss_jordan` on the nonzero rows, pivots in the first `width`
        columns, with the reduced rows returned dense: (rows, pivots,
        factor)."""
        rows, pivots, factor = _gauss_jordan(
            _nonzero(self.rows), self.ncols if width is None else width)
        return _dense(rows, self.ncols), pivots, factor

    def rank(self) -> int:
        return len(_gauss_jordan(_nonzero(self.rows), self.ncols)[1])

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
        rows, pivots, _ = QMatrix._of(
            [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.rows)],
            2 * n)._eliminate(n)
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
        d, a = _cleared(_nonzero(self.rows))
        a = _dense(a, n)
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


# -- nonzero rows and the two kernels ----------------------------------------

def _nonzero(rows: list[list]) -> list[dict]:
    """Each dense row as the dict {column: value} of its nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense(rows: list[dict], ncols: int) -> list[list]:
    """Nonzero rows back as dense rows of ncols entries."""
    out = []
    for row in rows:
        dense = [0] * ncols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def _transposed(rows: list[dict], ncols: int) -> list[dict]:
    """The nonzero rows of the transpose of a matrix with ncols columns."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def _cleared(rows: list[dict]) -> tuple[int, list[dict]]:
    """(e, e*rows) with e the lcm of every denominator: the nonzero rows
    over Z, stored zeros dropped and integral Fractions made ints.  When
    every entry already is a nonzero int, e = 1 and the rows themselves
    come back, not a copy: the kernels never change a row in place."""
    if all(type(x) is int and x for row in rows for x in row.values()):
        return 1, rows
    e = lcm(*(x.denominator for row in rows for x in row.values()))
    return e, [{j: x.numerator * (e // x.denominator)
                for j, x in row.items() if x} for row in rows]


def _gauss_jordan(rows: list[dict], width: int):
    """Integer Gauss-Jordan on the nonzero rows, pivots in the first `width`
    columns (see the module docstring).  Returns (rows, pivots, factor): the
    reduced rows as dicts of nonzero ints, pivot rows first in pivot order;
    the pivot columns; the factor (num, den) by which the elimination scaled
    the determinant, as two integers: only det reads it.
    """
    e, out = _cleared(rows)
    out, num, den = list(out), e ** len(out), 1
    for i, row in enumerate(out):
        content = gcd(*row.values()) or 1
        if content > 1:
            out[i] = {j: x // content for j, x in row.items()}
            den *= content
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == len(out):
            break
        piv = next((i for i in range(r, len(out)) if c in out[i]), None)
        if piv is None:
            continue
        if piv != r:
            out[r], out[piv] = out[piv], out[r]
            num = -num
        prow = out[r]
        p = prow[c]
        for i, row in enumerate(out):
            a = row.get(c)
            if a and i != r:
                new = {j: p * x for j, x in row.items()}
                for j, y in prow.items():
                    x = new.get(j, 0) - a * y
                    if x:
                        new[j] = x
                    else:
                        del new[j]
                g = gcd(*new.values()) or 1
                out[i] = {j: x // g for j, x in new.items()} if g > 1 else new
                num, den = num * p, den * g
        pivots.append(c)
    return out, pivots, (num, den)


def _product(a: list[dict], b: list[dict]) -> list[dict]:
    """The nonzero rows of AB from those of A and B (see the module
    docstring); every column of A must index a row of B."""
    (d, left), (e, right) = _cleared(a), _cleared(b)
    de = d * e
    out = []
    for row in left:
        acc: dict[int, int] = {}
        for k, x in row.items():
            for j, y in right[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v if de == 1 else _q(v, de) for j, v in acc.items() if v})
    return out
