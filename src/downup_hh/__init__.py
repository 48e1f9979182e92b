"""Hochschild cohomology of Beilinson algebras of graded down-up algebras.

The object of study is the graded down-up algebra A(alpha, beta) on two
generators x, y of weights deg x = n, deg y = m (beta != 0), and the
Beilinson algebra of its quotient stack: a bound quiver algebra on
2(n + m) vertices. This package computes, in exact rational arithmetic,

* the group dimensions HH^0, HH^1, HH^2 (HH^r = 0 for r >= 3),
* explicit cocycle bases of HH^1 and HH^2,
* the Yoneda ring structure on HH^* (cup products, a presentation as an
  exterior-type quotient), and
* derived-equivalence invariants (Cartan matrix, Serre action, its trace
  tr s = -tr Phi as the Euler characteristic of HH^*, unipotency),

and cross-checks every closed-form formula against an independent direct
matrix computation on the Hom complex of the minimal projective bimodule
resolution.
"""

from .core import Cond1, Cond2, Instance, classify, reduce_weights
from .linalg import Q, QMatrix

__all__ = [
    "Cond1",
    "Cond2",
    "Instance",
    "classify",
    "reduce_weights",
    "Q",
    "QMatrix",
]

__version__ = "0.1.0"
