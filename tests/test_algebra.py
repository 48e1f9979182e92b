"""The bound quiver algebra: rewriting, normal words, graded dimensions."""

from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from downup_hh.algebra import Beilinson
from downup_hh.core import Instance

rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_rats = rats.filter(lambda b: b != 0)


def alg(n, m, alpha, beta):
    return Beilinson(Instance(n, m, Q(alpha), Q(beta)))


def redex_positions(w):
    """Start positions of the relation factors xxy and xyy in w."""
    return [i for i in range(len(w) - 2) if w[i:i + 3] in ("xxy", "xyy")]


def is_valid(B, src, w):
    """Whether the path with letters w starting at src exists."""
    return 1 <= src <= B.ell and src + B.word_degree(w) <= B.ell


def trivial(B, v):
    """The trivial path at vertex v."""
    if not 1 <= v <= B.ell:
        raise ValueError(f"vertex {v} out of range 1..{B.ell}")
    return {(v, ""): 1}


def path(B, src, word):
    """The class of the path with letters `word` starting at src (0 if it
    does not exist), as {(source, normal word): coefficient}."""
    if not is_valid(B, src, word):
        return {}
    return {(src, w): c for w, c in B.normal_form(word).items()}


def arrow(B, letter, i):
    """The arrow x_i or y_i as an element."""
    if not 1 <= i <= (B.nx if letter == "x" else B.ny):
        raise ValueError(f"{letter}_{i} is not an arrow")
    return path(B, i, letter)


def mul(B, a, b):
    """Reference product of two algebra elements: concatenate composable
    paths and rewrite; non-composable pairs give 0."""
    out = {}
    for (s1, w1), c1 in a.items():
        t1 = s1 + B.word_degree(w1)
        for (s2, w2), c2 in b.items():
            if s2 != t1:
                continue
            for w3, c3 in B.normal_form(w1 + w2).items():
                key = (s1, w3)
                out[key] = out.get(key, 0) + c1 * c2 * c3
    return {k: c for k, c in out.items() if c}


def hilbert_coeffs(n, m, upto):
    """Coefficients of 1/((1-t^n)(1-t^m)(1-t^(n+m))) by series convolution."""
    out = [0] * (upto + 1)
    out[0] = 1
    for step in (n, m, n + m):
        for d in range(step, upto + 1):
            out[d] += out[d - step]
    return out


class TestRewriting:
    def test_relations_rewrite(self):
        B = alg(1, 2, 3, 5)
        assert B.normal_form("xxy") == {"xyx": Q(3), "yxx": Q(5)}
        assert B.normal_form("xyy") == {"yxy": Q(3), "yyx": Q(5)}
        assert B.normal_form("yx") == {"yx": Q(1)}

    def test_normal_words_are_fixed(self):
        B = alg(1, 2, 1, 1)
        for w in ("", "x", "y", "yx", "xy", "yyxyxx"):
            assert B.normal_form(w) == {w: Q(1)}
            assert redex_positions(w) == []

    def test_degree_preserved(self):
        B = alg(2, 3, 2, -1)
        for w, c in B.normal_form("xxyxyy").items():
            assert B.word_degree(w) == B.word_degree("xxyxyy")

    @given(st.text(alphabet="xy", max_size=9), rats, nonzero_rats)
    @settings(max_examples=120, deadline=None)
    def test_confluence_random_order(self, w, alpha, beta):
        """Reducing by any redex choices reaches the leftmost-first answer."""
        B = alg(1, 2, alpha, beta)
        target = B.normal_form(w)
        # expand by always taking the *rightmost* redex instead
        frontier = {w: Q(1)}
        done = {}
        while frontier:
            w1, c1 = frontier.popitem()
            pos = redex_positions(w1)
            if not pos:
                v = done.get(w1, 0) + c1
                if v:
                    done[w1] = v
                elif w1 in done:
                    del done[w1]
                continue
            for w2, c2 in B.rewrite_at(w1, pos[-1]).items():
                v = frontier.get(w2, 0) + c1 * c2
                if v:
                    frontier[w2] = v
                elif w2 in frontier:
                    del frontier[w2]
        assert done == target

    def test_overlap_xxyy_both_ways(self):
        B = alg(1, 1, 2, 3)
        via_left = {}
        for w1, c1 in B.rewrite_at("xxyy", 0).items():
            for w2, c2 in B.normal_form(w1).items():
                via_left[w2] = via_left.get(w2, 0) + c1 * c2
        via_right = {}
        for w1, c1 in B.rewrite_at("xxyy", 1).items():
            for w2, c2 in B.normal_form(w1).items():
                via_right[w2] = via_right.get(w2, 0) + c1 * c2
        via_left = {k: v for k, v in via_left.items() if v}
        via_right = {k: v for k, v in via_right.items() if v}
        assert via_left == via_right == B.normal_form("xxyy")

    def test_exhaustive_confluence_short_words(self):
        """All reduction orders agree for every word of length <= 7."""
        B = alg(1, 2, 2, -3)

        def reduce_all_orders(w):
            pos = redex_positions(w)
            if not pos:
                return {w: Q(1)}
            results = []
            for i in pos:
                out = {}
                for w1, c1 in B.rewrite_at(w, i).items():
                    for w2, c2 in reduce_all_orders(w1).items():
                        v = out.get(w2, 0) + c1 * c2
                        if v:
                            out[w2] = v
                        elif w2 in out:
                            del out[w2]
                results.append(out)
            assert all(r == results[0] for r in results[1:])
            return results[0]

        for L in range(3, 8):
            for letters in product("xy", repeat=L):
                reduce_all_orders("".join(letters))


class TestDownUpIdentity:
    @given(rats, nonzero_rats, st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_x_power_past_y(self, alpha, beta, i):
        # x^i y = beta lambda_{i-1} y x^i + lambda_i x y x^{i-1}  (n = 1)
        inst = Instance(1, 7, alpha, beta)
        B = Beilinson(inst)
        lhs = B.normal_form("x" * i + "y")
        rhs = {}
        c1 = beta * inst.lam(i - 1)
        c2 = inst.lam(i)
        if c1:
            rhs["y" + "x" * i] = c1
        if c2:
            rhs["xy" + "x" * (i - 1)] = c2
        assert lhs == rhs


class TestAlgebraStructure:
    def test_path_validity(self):
        B = alg(1, 2, 1, 1)  # ell = 6
        assert path(B, 1, "x") == {(1, "x"): Q(1)}
        assert path(B, 6, "x") == {}  # would end at 7 > ell
        assert path(B, 5, "y") == {}  # 5 + 2 = 7 > ell
        assert path(B, 4, "y") == {(4, "y"): Q(1)}

    def test_arrow_ranges(self):
        B = alg(2, 3, 1, 1)  # nx = 8, ny = 7, ell = 10
        assert arrow(B, "x", 8) == {(8, "x"): Q(1)}
        assert arrow(B, "y", 7) == {(7, "y"): Q(1)}
        with pytest.raises(ValueError):
            arrow(B, "x", 9)
        with pytest.raises(ValueError):
            arrow(B, "y", 8)

    def test_mul_composability(self):
        B = alg(1, 2, 1, 1)
        xy = mul(B, path(B, 1, "x"), path(B, 2, "y"))
        assert xy == {(1, "xy"): Q(1)}
        assert mul(B, path(B, 1, "x"), path(B, 3, "y")) == {}
        assert mul(B, trivial(B, 1), path(B, 1, "x")) == path(B, 1, "x")
        assert mul(B, path(B, 1, "x"), trivial(B, 2)) == path(B, 1, "x")

    def test_mul_applies_relations(self):
        B = alg(1, 2, 3, 5)
        xx = mul(B, path(B, 1, "x"), path(B, 2, "x"))
        xxy = mul(B, xx, path(B, 3, "y"))
        assert xxy == {(1, "xyx"): Q(3), (1, "yxx"): Q(5)}

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5),
           rats, nonzero_rats)
    @settings(max_examples=30, deadline=None)
    def test_associativity_on_paths(self, n, m, alpha, beta):
        from math import gcd
        if gcd(n, m) != 1 or n > m:
            return
        B = Beilinson(Instance(n, m, alpha, beta))
        a = path(B, 1, "x")
        b = (path(B, 1 + n, "xy") if is_valid(B, 1 + n, "xy")
             else trivial(B, 1 + n))
        t = 1 + n + B.word_degree("xy") if is_valid(B, 1 + n, "xy") else 1 + n
        c = path(B, t, "y") if is_valid(B, t, "y") else trivial(B, t)
        assert mul(B, mul(B, a, b), c) == mul(B, a, mul(B, b, c))


class TestGradedDimensions:
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 3), (3, 4), (2, 5)])
    def test_graded_dim_matches_hilbert_series(self, n, m):
        B = alg(n, m, 1, 1)
        h = hilbert_coeffs(n, m, 3 * (n + m))
        for d in range(3 * (n + m) + 1):
            assert B.graded_dim(d) == h[d]

    def test_hom_words_validity_and_count(self):
        B = alg(1, 2, 1, 1)
        for u in range(1, B.ell + 1):
            for v in range(u, B.ell + 1):
                words = B.hom_words(u, v)
                assert len(words) == B.graded_dim(v - u)
                for w in words:
                    assert is_valid(B, u, w)
                    assert B.word_degree(w) == v - u
                    assert redex_positions(w) == []
        assert B.hom_words(3, 2) == ()

    def test_hom_words_are_kept_per_degree(self):
        B = alg(1, 2, 1, 1)
        words = B.hom_words(1, 4)
        assert isinstance(words, tuple)
        assert B.hom_words(1, 4) is words
        assert B.hom_words(2, 5) is words  # same degree, other vertices
        assert list(words) == [B.triple_word(*t) for t in B.normal_triples(3)]

    def test_normal_words_linearly_independent_under_rewriting(self):
        # rewriting is the identity on the spanning words it reports
        B = alg(2, 3, 2, -1)
        for u in range(1, B.ell + 1):
            for v in range(u, B.ell + 1):
                for w in B.hom_words(u, v):
                    assert B.normal_form(w) == {w: Q(1)}

    def test_cartan_unitriangular(self):
        B = alg(1, 2, 1, 1)
        C = B.cartan_matrix()
        for i in range(B.ell):
            assert C.rows[i][i] == 1
            for j in range(i):
                assert C.rows[i][j] == 0
        # first superdiagonals: dim of degree-1 and degree-2 pieces
        assert C.rows[0][1] == 1  # only x
        assert C.rows[0][2] == 2  # xx and y
