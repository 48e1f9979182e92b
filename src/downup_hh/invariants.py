"""Derived-equivalence invariants from the Cartan matrix.

The Cartan matrix C of the bound quiver algebra (C[p][q] = dim e_p B e_q)
is also the Gram matrix of the Euler form on the Grothendieck group of the
derived category with respect to the standard exceptional collection.  Two
matrices derived from it are therefore invariant under derived equivalence:
the automorphism induced by the Serre functor,

    s = C^{-1} C^T,

and the Coxeter matrix  Phi = -C^{-T} C.  Happel's trace formula identifies
-tr Phi = tr s (cyclicity of the trace) with the alternating sum of the
Hochschild cohomology dimensions; happel_trace_check verifies that identity
against the direct computation of the dimensions.  If s acts unipotently --
as it must whenever the derived category is that of a smooth projective
surface -- then tr s equals the rank 2(n+m) of the Grothendieck group.  The
computed Euler characteristic meets that bar exactly at weights (1,1) and
(1,2), and serre_unipotent confirms unipotence precisely there; for
m > n > 1 the mismatch rules the surface out.

C is upper unitriangular Toeplitz: C[u][u+d] = h_d, the number of
(a, b, c) with a*m + b*(n+m) + c*n = d, i.e. the coefficients of the
Hilbert series 1/p(t) with p(t) = (1-t^n)(1-t^m)(1-t^{n+m}), a polynomial
of degree ell = 2(n+m) with p(0) = 1.  Its inverse is therefore the banded
Toeplitz matrix of p, and s and Phi are integer matrices.

On K_0 the Serre functor is the Gorenstein twist by ell (Yekutieli-Zhang,
Serre duality for noncommutative projective schemes, 1997): s = T^{-ell},
where T is the companion matrix of p, multiplication by t on Z[t]/(p) in
the basis 1, t, ..., t^{ell-1}.  serre_matrix builds T^{-ell} by polynomial
arithmetic (column j is t^{j-ell} mod p) and certifies it as C^{-1} C^T:
C is upper unitriangular, hence invertible, and C T^{-ell} = C^T exactly.
The minimal polynomial of T is p, so (s - 1)^ell = 0 exactly when p
divides (t^ell - 1)^ell, which _unipotent decides mod p and cross-checks
by the nilpotency of s - 1 (`_nilpotent`, read off s alone).  Each weight
pair costs one C, one pass over its lower triangle, one ell x ell product
and ell integer matrix-vector products per column the witness reads; off
weights (1,1) and (1,2) it reads one, as the first column already shows
(s - 1)^ell != 0 at every pair with n + m <= 40.
"""

from fractions import Fraction as Q
from functools import cache
from operator import mul

from .algebra import Beilinson
from .cohomology import hh_dims_computed
from .core import Instance
from .linalg import QMatrix
from .resolution import HomComplex


def cartan_matrix(inst: Instance) -> QMatrix:
    return Beilinson(inst).cartan_matrix()


@cache
def hilbert_numerator(n: int, m: int) -> tuple[int, ...]:
    """Integer coefficients of p(t) = (1-t^n)(1-t^m)(1-t^{n+m}), lowest
    degree first."""
    p = [1]
    for d in (n, m, n + m):
        p = [a - b for a, b in zip(p + [0] * d, [0] * d + p)]
    return tuple(p)


def gorenstein_shift(p: tuple[int, ...]) -> list[list[int]]:
    """The rows of T^{-ell}, T the companion matrix of p (p(0) = 1, degree
    ell): column j holds t^{j-ell} mod p, reached from 1 by ell divisions
    by the unit t, each r -> (r - r(0) p) / t."""
    ell = len(p) - 1
    r, cols = [1] + [0] * (ell - 1), []
    for _ in range(ell):
        c = r[0]
        r = [a - c * b for a, b in zip(r + [0], p)][1:]
        cols.append(r)
    cols.reverse()
    return [list(row) for row in zip(*cols)]


def _mulmod(a: list[int], b: list[int], p: tuple[int, ...]) -> list[int]:
    """a * b mod p over the integers; p's leading coefficient is a unit."""
    ell, lead = len(p) - 1, p[-1]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for i in range(len(out) - 1, ell - 1, -1):
        q = out[i] * lead  # out[i] / lead, as lead = +-1
        if q:
            for j, c in enumerate(p):
                out[i - ell + j] -= q * c
    return out[:ell]


def _nilpotent(N: list[list[int]]) -> bool:
    """Whether N^ell = 0 for the ell x ell integer rows N: N is applied up to
    ell times to each unit vector e_j, stopping at the first column with
    N^ell e_j != 0, which proves N^ell != 0."""
    ell = len(N)
    for j in range(ell):
        v = [row[j] for row in N]  # N e_j
        for _ in range(ell - 1):
            if not any(v):
                break
            v = [sum(map(mul, row, v)) for row in N]
        if any(v):
            return False
    return True


def _unipotent(s: QMatrix, p: tuple[int, ...]) -> bool:
    """Decided twice -- p | (t^ell - 1)^ell, by repeated squaring mod p,
    which is (s - 1)^ell = 0 for s = T^{-ell} with T of minimal polynomial
    p; and (s - 1)^ell = 0 on every unit vector, by `_nilpotent` on s
    itself -- and the two verdicts are required to agree."""
    ell = s.nrows
    base = _mulmod([0] * ell + [1], [1], p)  # t^ell mod p
    base[0] -= 1
    acc, k = [1], ell
    while k:
        if k & 1:
            acc = _mulmod(acc, base, p)
        base = _mulmod(base, base, p) if k > 1 else base
        k >>= 1
    divides = not any(acc)
    nilpotent = _nilpotent([[x - (i == j) for j, x in enumerate(row)]
                            for i, row in enumerate(s.rows)])
    if divides != nilpotent:
        raise AssertionError("unipotence criteria disagree")
    return divides


def serre_matrix(inst: Instance) -> QMatrix:
    """s = C^{-1} C^T as the Gorenstein shift T^{-ell}, certified by one
    pass and one product: C is upper unitriangular and C T^{-ell} = C^T."""
    C = cartan_matrix(inst)
    key = (inst.n, inst.m)
    s = QMatrix(gorenstein_shift(hilbert_numerator(*key)))
    if any(C.rows[u][v] != (u == v)
           for u in range(C.nrows) for v in range(u + 1)):
        raise AssertionError(f"C is not upper unitriangular at {key}")
    if C @ s != C.transpose():
        raise AssertionError(f"C T^-ell != C^T at {key}")
    return s


def serre_unipotent(inst: Instance) -> bool:
    """Whether the Serre automorphism acts unipotently."""
    return derived_invariants(inst)["serre_unipotent"]


def happel_trace_check(C: HomComplex) -> dict:
    """Happel's trace formula against the direct cohomology computation."""
    h0, h1, h2 = hh_dims_computed(C)
    chi_direct = h0 - h1 + h2
    chi_trace = derived_invariants(C.inst)["chi_trace"]
    return {"chi_direct": chi_direct, "chi_trace": chi_trace,
            "match": chi_direct == chi_trace}


def unipotent_closed_form(n: int, m: int) -> bool:
    """The unipotency verdict in closed form: every root zeta of p has
    zeta^ell = 1, i.e. n | 2m and m | 2n -- exactly weights (1,1), (1,2)."""
    return 2 * m % n == 0 and 2 * n % m == 0


def derived_invariants(inst: Instance) -> dict:
    """Summary of the derived-equivalence invariants for one instance.

    trace_matches_rank is the necessary condition (tr s = rank K_0) for the
    Serre action to be unipotent -- failing it obstructs derived equivalence
    with a smooth projective surface.  Computed once per weight pair from
    serre_matrix's certified s; each call returns a fresh dict.
    """
    return dict(_invariants(inst.n, inst.m))


@cache
def _invariants(n: int, m: int) -> dict:
    """derived_invariants per weight pair: none depends on (alpha, beta)."""
    ell = 2 * (n + m)
    s = serre_matrix(Instance(n, m, Q(0), Q(1)))
    chi = s.trace()
    return {"rank_K0": ell, "chi_trace": chi,
            "serre_unipotent": _unipotent(s, hilbert_numerator(n, m)),
            "trace_matches_rank": chi == ell}
