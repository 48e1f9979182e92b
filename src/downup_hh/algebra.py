"""Bound quiver model of the Beilinson algebra of a graded down-up algebra.

For weights deg x = n, deg y = m (gcd(n, m) = 1, m >= n >= 1) the Beilinson
algebra B of A(alpha, beta) is the quotient of the path algebra of the quiver
with vertices 1..ell, ell = 2(n + m), arrows

    x_i : i -> i + n   (1 <= i <= n + 2m),
    y_j : j -> j + m   (1 <= j <= 2n + m),

by the relations (paths written left to right, f_i starting at i <= m and
g_j starting at j <= n)

    f_i : x x y - alpha x y x - beta y x x,
    g_j : x y y - alpha y x y - beta y y x.

Because every arrow raises the vertex index by its degree, a path starting at
vertex v whose letters have total degree d ends at v + d and exists iff
v + d <= ell; a product of two existing composable paths always exists, so no
truncation happens during multiplication.  Rewriting the factors xxy and xyy
left to right strictly decreases the number of (x, y) inversions, hence
terminates, and the single overlap xxyy resolves to the same normal form both
ways (identically in alpha, beta), so the system is confluent and the words
y^a (xy)^b x^c form a basis of e_u B e_v, one for each solution of
a m + b(n + m) + c n = v - u.  A normal form is a dict mapping normal words
to exact coefficients: an int wherever the value is integral, so every
coefficient is an int when alpha and beta are, and a Fraction only where a
non-integral parameter leaves a remainder.
"""

from .core import Instance
from .linalg import QMatrix, _as_q

XXY = "xxy"
XYY = "xyy"


def acc(out, key, c):
    """out[key] += c, dropping zeros."""
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    elif key in out:
        del out[key]


class Beilinson:
    """The bound quiver algebra, with rewriting to the y^a (xy)^b x^c basis."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = inst.n
        self.m = inst.m
        self.alpha = _as_q(inst.alpha)
        self.beta = _as_q(inst.beta)
        self.ell = inst.ell
        self.nx = inst.n + 2 * inst.m  # arrows x_1 .. x_nx
        self.ny = 2 * inst.n + inst.m  # arrows y_1 .. y_ny
        self._nf = {}
        self._words = {}
        self._degrees = {}

    # -- words ------------------------------------------------------------

    def word_degree(self, w):
        """n #x + m #y, memoized."""
        d = self._degrees.get(w)
        if d is None:
            d = self._degrees[w] = self.n * w.count("x") + self.m * w.count("y")
        return d

    def rewrite_at(self, w, i):
        """One rewriting step at position i; returns {word: coeff}."""
        red = w[i:i + 3]
        if red == XXY:
            terms = (("xyx", self.alpha), ("yxx", self.beta))
        elif red == XYY:
            terms = (("yxy", self.alpha), ("yyx", self.beta))
        else:
            raise ValueError(f"no relation factor at position {i} of {w!r}")
        return {w[:i] + rep + w[i + 3:]: c for rep, c in terms}

    def normal_form(self, w):
        """Rewrite w (leftmost redex first) into normal words, memoized.

        The result {normal word: coeff} does not depend on the source vertex:
        the relations look the same from every vertex where they exist, and a
        factor xxy or xyy inside an existing path always starts at a vertex
        v <= m resp. v <= n, so its relation does exist.
        """
        cached = self._nf.get(w)
        if cached is not None:
            return cached
        px = w.find(XXY)
        py = w.find(XYY)
        i = min(p for p in (px, py) if p >= 0) if (px >= 0 or py >= 0) else -1
        if i < 0:
            out = {w: 1}
        else:
            out = {}
            for w1, c1 in self.rewrite_at(w, i).items():
                for w2, c2 in self.normal_form(w1).items():
                    acc(out, w2, c1 * c2)
        self._nf[w] = out
        return out

    # -- graded structure -------------------------------------------------

    def normal_triples(self, d):
        """Exponent triples (a, b, c) with a*m + b*(n+m) + c*n = d, most
        y-heavy first."""
        if d < 0:
            return []
        n, m = self.n, self.m
        out = []
        for a in range(d // m, -1, -1):
            r1 = d - a * m
            for b in range(r1 // (n + m), -1, -1):
                r2 = r1 - b * (n + m)
                if r2 % n == 0:
                    out.append((a, b, r2 // n))
        return out

    def triple_word(self, a, b, c):
        return "y" * a + "xy" * b + "x" * c

    def graded_dim(self, d):
        """dim of the degree-d component of e_u B e_{u+d} (independent of u)."""
        return len(self.normal_triples(d))

    def hom_words(self, u, v):
        """Normal words spanning e_u B e_v, in a fixed order, as a tuple.

        The words depend only on the degree v - u, so each degree's tuple is
        built once and kept.
        """
        if not (1 <= u <= self.ell and 1 <= v <= self.ell and u <= v):
            return ()
        words = self._words.get(v - u)
        if words is None:
            words = self._words[v - u] = tuple(
                self.triple_word(a, b, c) for a, b, c in self.normal_triples(v - u))
        return words

    def cartan_matrix(self):
        """C[u][v] = dim e_{u+1} B e_{v+1} (0-indexed): the upper
        unitriangular Toeplitz band of h_d = graded_dim(d), row u being
        u zeros and then h_0 .. h_{ell-1-u}."""
        ell = self.ell
        h = [self.graded_dim(d) for d in range(ell)]
        return QMatrix._of([[0] * u + h[:ell - u] for u in range(ell)], ell)
