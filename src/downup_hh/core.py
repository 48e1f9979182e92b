"""Down-up algebra instances, the lambda recurrence, and case classification.

A(alpha, beta) is the algebra on x, y with relations

    x^2 y = beta y x^2 + alpha x y x,      x y^2 = beta y^2 x + alpha y x y,

graded by deg x = n, deg y = m. It is Artin-Schelter regular of dimension 3
with Gorenstein parameter ell = 2(n + m) exactly when beta != 0, which is
required throughout. The canonical weight regime is gcd(n, m) = 1 with
m >= n >= 1; general weights reduce to it (see `reduce_weights`).

Two classifications control every closed formula downstream:

* Condition 1: Case I iff n + m is even and alpha = 0, else Case II.
* Condition 2 (via lambda_{m+1} and the discriminant alpha^2 + 4 beta):
  Case 1 iff lambda_{m+1} = 0; Case 2 iff lambda_{m+1} != 0 and
  alpha^2 + 4 beta = 0; Case 3 otherwise.

The lambda sequence is the Chebyshev-like solution of
lambda_{r+2} = alpha lambda_{r+1} + beta lambda_r with lambda_0 = 0 and
lambda_{-1} = 1/beta (hence lambda_1 = 1).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd

from .linalg import Q, _as_q

__all__ = [
    "Cond1",
    "Cond2",
    "Instance",
    "classify",
    "reduce_weights",
    "swap_weight_params",
    "canonical_instance",
]


class Cond1(enum.Enum):
    CASE_I = "I"
    CASE_II = "II"


class Cond2(enum.Enum):
    CASE_1 = "1"
    CASE_2 = "2"
    CASE_3 = "3"


def reduce_weights(n0: int, m0: int) -> tuple[tuple[int, int], int]:
    """Reduce a weight pair to the canonical coprime regime.

    Returns ((n, m), k) with n <= m, gcd(n, m) = 1 and {n0, m0} = {k n, k m}.
    The cohomology of the weight-(n0, m0) Beilinson algebra is k copies of
    the coprime one's; swapping the weights corresponds to exchanging the
    roles of x and y, which transforms (alpha, beta) by `swap_weight_params`.
    """
    if n0 < 1 or m0 < 1:
        raise ValueError("weights must be positive")
    k = gcd(n0, m0)
    n, m = n0 // k, m0 // k
    if n > m:
        n, m = m, n
    return (n, m), k


def swap_weight_params(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    """Parameter transform under exchanging x and y: (alpha, beta) -> (-alpha/beta, 1/beta)."""
    if beta == 0:
        raise ValueError("beta must be nonzero")
    return (-alpha / beta, 1 / beta)


class Instance:
    """A graded down-up algebra in the canonical weight regime: immutable,
    compared and hashed by (n, m, alpha, beta)."""

    def __init__(self, n: int, m: int, alpha: Fraction, beta: Fraction):
        alpha, beta = Q(alpha), Q(beta)
        if beta == 0:
            raise ValueError("beta = 0: not Artin-Schelter regular")
        if not (1 <= n <= m):
            raise ValueError(f"weights must satisfy m >= n >= 1, got ({n}, {m})")
        if gcd(n, m) != 1:
            raise ValueError(
                f"weights ({n}, {m}) are not coprime; reduce them first"
            )
        for name, value in (("n", n), ("m", m), ("alpha", alpha), ("beta", beta),
                            ("_lam_cache", {-1: _as_q(1 / beta), 0: 0, 1: 1})):
            object.__setattr__(self, name, value)

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot change field {name!r} of an Instance")

    __setattr__ = __delattr__ = _frozen

    def _fields(self) -> tuple:
        return (self.n, self.m, self.alpha, self.beta)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "Instance(n={!r}, m={!r}, alpha={!r}, beta={!r})".format(*self._fields())

    @property
    def ell(self) -> int:
        """Gorenstein parameter: number of Beilinson quiver vertices."""
        return 2 * (self.n + self.m)

    def lam(self, r: int) -> int | Fraction:
        """lambda_r for r >= -1, memoized as an exact scalar: an int when
        integral (always for integral alpha, beta and r >= 0), else a
        Fraction."""
        if r < -1:
            raise ValueError("lambda_r defined for r >= -1")
        cache = self._lam_cache
        if r not in cache:
            a, b = _as_q(self.alpha), _as_q(self.beta)
            for s in range(max(cache) + 1, r + 1):
                cache[s] = _as_q(a * cache[s - 1] + b * cache[s - 2])
        return cache[r]

    def key(self) -> str:
        return f"n={self.n} m={self.m} alpha={self.alpha} beta={self.beta}"


def classify(inst: Instance) -> tuple[Cond1, Cond2]:
    """Both case classifications; Condition 2 is always computed."""
    cond1 = (
        Cond1.CASE_I
        if (inst.n + inst.m) % 2 == 0 and inst.alpha == 0
        else Cond1.CASE_II
    )
    if inst.lam(inst.m + 1) == 0:
        cond2 = Cond2.CASE_1
    elif inst.alpha * inst.alpha + 4 * inst.beta == 0:
        cond2 = Cond2.CASE_2
    else:
        cond2 = Cond2.CASE_3
    return cond1, cond2


def canonical_instance(
    n0: int, m0: int, alpha, beta, *, allow_reduce: bool = False, allow_swap: bool = False
) -> tuple[Instance, int, bool]:
    """Build the canonical-regime instance for possibly unreduced weights.

    Returns (instance, k, swapped). Raises ValueError unless the needed
    normalizations are explicitly allowed, so callers cannot silently get a
    different algebra than they asked for.
    """
    alpha, beta = Q(alpha), Q(beta)
    (n, m), k = reduce_weights(n0, m0)
    if k != 1 and not allow_reduce:
        raise ValueError(
            f"gcd({n0}, {m0}) = {k} != 1; pass allow_reduce to work with the reduced pair"
        )
    swapped = n0 // k > m0 // k
    if swapped:
        if not allow_swap:
            raise ValueError(
                f"weights ({n0}, {m0}) have deg x > deg y; pass allow_swap to exchange x and y"
            )
        alpha, beta = swap_weight_params(alpha, beta)
    return Instance(n, m, alpha, beta), k, swapped
