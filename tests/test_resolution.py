"""The bimodule resolution, the Hom complex, and its matrices."""

import itertools
import random
import re
from fractions import Fraction as Q

import pytest

from downup_hh.cohomology import sample_instances
from downup_hh.core import Cond1, Cond2, Instance, classify
from downup_hh import algebra, cli, resolution
from downup_hh.algebra import Beilinson
from downup_hh.linalg import QMatrix, _nonzero
from downup_hh.resolution import (
    HomComplex,
    L2_display,
    Resolution,
    kept,
    rank_L1_closed_form,
    tau_label,
    tau_weight,
)
from downup_hh.yoneda import ChainMap, _el, cup_vector
from test_algebra import path
from test_cohomology import column
from test_invariants import coprime_instances, coprime_weights
from test_linalg import assert_read_only, is_zero

WEIGHTS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]
PARAMS = [(Q(0), Q(1)), (Q(1), Q(1)), (Q(2), Q(-1)), (Q(1), Q(-1)), (Q(3), Q(2))]


def instances():
    for n, m in WEIGHTS:
        for a, b in PARAMS:
            yield Instance(n, m, a, b)


class TestKept:
    def test_computes_once_per_object_and_arguments(self):
        class Box:
            runs = []

            @kept
            def twice(self, x):
                self.runs.append(x)
                return [2 * x]

        a, b = Box(), Box()
        assert a.twice(1) is a.twice(1) and a.twice(1) == [2]
        assert a.twice(2) == [4] and b.twice(1) is not a.twice(1)
        assert Box.runs == [1, 2, 1]
        assert Box.twice.__name__ == "twice" and len(a._kept) == 2

    def test_a_raising_call_keeps_nothing(self):
        class Box:
            @kept
            def fails(self):
                raise ValueError("no value")

        box = Box()
        for _ in range(2):
            with pytest.raises(ValueError):
                box.fails()
        assert box._kept == {}


class TestResolution:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_complex_property_on_generators(self, n, m):
        res = Resolution(Instance(n, m, Q(2), Q(-3)))
        # aug . d1 = 0
        for a in res.gens1():
            assert res.aug(res.d1(a)) == {}
        # d1 . d2 = 0
        for h in res.gens2():
            assert res.apply_map(res.d1, res.d2(h)) == {}

    def test_d1_value(self):
        res = Resolution(Instance(1, 2, Q(1), Q(1)))
        val = res.d1(("x", 1))
        assert val == {(("e", 1), 1, "", "x"): Q(1), (("e", 2), 1, "x", ""): Q(-1)}

    def test_d2_value_small(self):
        # d2(f_1) for (n, m) = (1, 2): nine terms, one per relation letter
        res = Resolution(Instance(1, 2, Q(3), Q(5)))
        val = res.d2(("f", 1))
        expect = {
            # x x y from vertex 1
            (("x", 1), 1, "", "xy"): Q(1),
            (("x", 2), 1, "x", "y"): Q(1),
            (("y", 3), 1, "xx", ""): Q(1),
            # -alpha x y x
            (("x", 1), 1, "", "yx"): Q(-3),
            (("y", 2), 1, "x", "x"): Q(-3),
            (("x", 4), 1, "xy", ""): Q(-3),
            # -beta y x x
            (("y", 1), 1, "", "xx"): Q(-5),
            (("x", 3), 1, "y", "x"): Q(-5),
            (("x", 4), 1, "yx", ""): Q(-5),
        }
        assert val == expect

    def test_degree_zero_bigrading(self):
        # every term of d2(h) has left/right words putting the generator at
        # its positional vertex
        res = Resolution(Instance(2, 3, Q(1), Q(4)))
        for h in res.gens2():
            for (gen, ls, lw, rw), c in res.d2(h).items():
                assert ls == res.gen_source(h)
                assert ls + res.B.word_degree(lw) == res.gen_source(gen)
                assert (res.gen_target(gen) + res.B.word_degree(rw)
                        == res.gen_target(h))


def random_p0_element(res, rng, nterms=6):
    """A random rational combination of tensors (("e", v), ls, lw, rw) with
    lw and rw normal words through v."""
    B = res.B
    out = {}
    while len(out) < nterms:
        ls, v, t = sorted(rng.randint(1, B.ell) for _ in range(3))
        lws, rws = B.hom_words(ls, v), B.hom_words(v, t)
        if not (lws and rws):
            continue
        key = (("e", v), ls, rng.choice(lws), rng.choice(rws))
        out[key] = out.get(key, 0) + Q(rng.randint(-5, 5), rng.randint(1, 4))
    return {k: c for k, c in out.items() if c}


class TestContractingHomotopy:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_d1_contract_is_identity_minus_augmentation(self, n, m):
        rng = random.Random(100 * n + m)
        res = Resolution(Instance(n, m, Q(2), Q(-3)))
        for _ in range(20):
            z = random_p0_element(res, rng)
            want = dict(z)
            for (ls, w), c in res.aug(z).items():
                key = (("e", ls + res.B.word_degree(w)), ls, w, "")
                want[key] = want.get(key, 0) - c
            want = {k: c for k, c in want.items() if c}
            assert res.apply_map(res.d1, res.contract(z)) == want

    def test_contract_value(self):
        # u (x) w_1 w_2 with u = x, w = yx at (1, 2): two terms, the first
        # prefix x needing no rewriting, the second prefix x y neither
        res = Resolution(Instance(1, 2, Q(3), Q(5)))
        z = {(("e", 2), 1, "x", "yx"): Q(1)}
        assert res.contract(z) == {(("y", 2), 1, "x", "x"): Q(1),
                                   (("x", 4), 1, "xy", ""): Q(1)}

    def test_differentials_are_computed_once_per_generator(self, monkeypatch):
        runs = []
        act = Resolution.act
        monkeypatch.setattr(Resolution, "act",
                            lambda self, *a: runs.append(1) or act(self, *a))
        res = Resolution(Instance(1, 3, Q(0), Q(1)))
        first = {g: res.d1(g) for g in res.gens1()}
        first.update({h: res.d2(h) for h in res.gens2()})
        assert runs
        runs.clear()
        assert all(res.d1(g) is first[g] for g in res.gens1())
        assert all(res.d2(h) is first[h] for h in res.gens2())
        assert runs == []


# -- test-only reference: the textbook pairing, one scan over every term of
# the element per functional, for the differential tests below ------------

def apply_tau(res, tau, p_el):
    """Value of the functional tau = (gen, word) on a P^r element, as
    {(left source, normal word): coefficient}."""
    gen, w = tau
    out = {}
    for (g, ls, lw, rw), c in p_el.items():
        if g != gen:
            continue
        for w2, c2 in res.B.normal_form(lw + w + rw).items():
            out[(ls, w2)] = out.get((ls, w2), 0) + c * c2
    return {k: c for k, c in out.items() if c}


def lmul(res, alg_el, p_el):
    """Left action of an algebra element {(source, word): c} on a P^r
    element, term by term; a term not starting where the path ends is
    skipped."""
    B = res.B
    out = {}
    for (s1, w1), c1 in alg_el.items():
        t1 = s1 + B.word_degree(w1)
        for (gen, ls, lw, rw), c2 in p_el.items():
            if ls != t1:
                continue
            for w, c3 in B.normal_form(w1 + lw).items():
                key = (gen, s1, w, rw)
                out[key] = out.get(key, 0) + c1 * c2 * c3
    return {k: c for k, c in out.items() if c}


def rmul(res, p_el, alg_el):
    """Right action of an algebra element on a P^r element, term by term; a
    path not starting where the term ends is skipped."""
    B = res.B
    out = {}
    for (gen, ls, lw, rw), c1 in p_el.items():
        t1 = res.gen_target(gen) + B.word_degree(rw)
        for (s2, w2), c2 in alg_el.items():
            if s2 != t1:
                continue
            for w, c3 in B.normal_form(rw + w2).items():
                key = (gen, ls, lw, w)
                out[key] = out.get(key, 0) + c1 * c2 * c3
    return {k: c for k, c in out.items() if c}


def letter_words(B, d):
    """Every word in x and y, normal or not, of degree d."""
    if d == 0:
        return [""]
    return [letter + w for letter in "xy" if B.word_degree(letter) <= d
            for w in letter_words(B, d - B.word_degree(letter))]


def pull_back(res, vec, basis_lo, basis_hi, fun, gens):
    """The cochain vec (coordinates over basis_lo) pulled back along the
    generator assignment fun, in coordinates over basis_hi."""
    idx_hi = {t: k for k, t in enumerate(basis_hi)}
    out = [Q(0)] * len(basis_hi)
    for gen in gens:
        for tau, c in zip(basis_lo, vec):
            for (ls, w), d in apply_tau(res, tau, fun(gen)).items():
                assert ls == res.gen_source(gen)
                out[idx_hi[(gen, w)]] += c * d
    return out


def scan_matrix(C, basis_lo, basis_hi, fun, gens):
    """The matrix of a differential, one pull-back per domain functional."""
    cols = []
    for k in range(len(basis_lo)):
        unit = [Q(0)] * len(basis_lo)
        unit[k] = Q(1)
        cols.append(pull_back(C.res, unit, basis_lo, basis_hi, fun, gens))
    return QMatrix(cols).transpose()


def random_value(res, rng, gen, gens_lo, nterms=4):
    """A random rational combination of tensors lw [g] rw, g in gens_lo,
    starting at the source of gen and ending at its target."""
    return random_element(res, rng, gens_lo, res.gen_source(gen),
                          res.gen_target(gen), nterms)


def random_element(res, rng, gens, src, tgt, nterms=4):
    """A random rational combination of tensors lw [g] rw, g in gens, with
    normal words, starting at vertex src and ending at vertex tgt."""
    B = res.B
    cands = [(g, src, lw, rw) for g in gens
             for lw in B.hom_words(src, res.gen_source(g))
             for rw in B.hom_words(res.gen_target(g), tgt)]
    out = {}
    for key in rng.sample(cands, min(nterms, len(cands))):
        out[key] = Q(rng.randint(-5, 5), rng.randint(1, 4))
    return {k: c for k, c in out.items() if c}


class TestTauPairing:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    @pytest.mark.parametrize("a,b", [(Q(0), Q(1)), (Q(2), Q(-3))])
    def test_matrices_equal_the_scan(self, n, m, a, b):
        C = HomComplex(Instance(n, m, a, b))
        res = C.res
        assert C.D1 == scan_matrix(C, C.basis0, C.basis1, res.d1, res.gens1())
        assert C.D2 == scan_matrix(C, C.basis1, C.basis2, res.d2, res.gens2())

    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_cup_and_induced_vectors_equal_the_scan(self, n, m):
        rng = random.Random(100 * n + m)
        C = HomComplex(Instance(n, m, Q(2), Q(-3)))
        res = C.res
        for _ in range(5):
            s0 = {a: random_value(res, rng, a, res.gens0())
                  for a in res.gens1()}
            s1 = {h: random_value(res, rng, h, res.gens1())
                  for h in res.gens2()}
            phi = [Q(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in C.basis1]
            unit = [Q(1)] * len(C.basis0)
            assert cup_vector(C, phi, s1) == pull_back(
                res, phi, C.basis1, C.basis2, lambda h: s1.get(h, {}),
                res.gens2())
            assert ChainMap(C, s0, s1).induced_vector() == pull_back(
                res, unit, C.basis0, C.basis1, lambda a: s0.get(a, {}),
                res.gens1())

    def test_a_term_at_a_wrong_vertex_is_rejected(self):
        C = HomComplex(Instance(1, 2, Q(1), Q(1)))
        # each value starts one vertex after its generator's source
        s0 = {("x", 1): {(("e", 2), 2, "", ""): Q(1)}}
        s1 = {("f", 1): {(("x", 2), 2, "", "xy"): Q(1)}}
        phi = [Q(1)] * len(C.basis1)
        with pytest.raises(AssertionError, match="vertex 2"):
            ChainMap(C, s0, {}).induced_vector()
        with pytest.raises(AssertionError, match="vertex 2"):
            cup_vector(C, phi, s1)


class TestBimoduleAction:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    @pytest.mark.parametrize("a,b", [(Q(0), Q(1)), (Q(2), Q(-3))])
    def test_act_equals_lmul_then_rmul(self, n, m, a, b):
        rng = random.Random(100 * n + m)
        res = Resolution(Instance(n, m, a, b))
        B = res.B
        # (element, source, target): the d2 values, random P1 values of the
        # relation generators and random P2 elements between two vertices
        els = [(res.d2(h), res.gen_source(h), res.gen_target(h))
               for h in res.gens2()]
        els += [(random_value(res, rng, h, res.gens1()), res.gen_source(h),
                 res.gen_target(h)) for h in res.gens2()]
        p2 = [(random_element(res, rng, res.gens2(), s, t), s, t)
              for s in range(1, B.ell + 1) for t in range(s, B.ell + 1)]
        p2 = [e for e in p2 if e[0]]
        els += rng.sample(p2, min(6, len(p2)))
        for el, s, t in els:
            assert el
            lefts = [(u, lw) for u in range(1, s + 1)
                     for lw in letter_words(B, s - u)]
            rights = [rw for d in range(B.ell - t + 1)
                      for rw in letter_words(B, d)]
            for _ in range(4):
                u, lw = rng.choice(lefts)
                rw = rng.choice(rights)
                c = Q(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                want = rmul(res, lmul(res, path(B, u, lw), el), path(B, t, rw))
                want = {k: c * x for k, x in want.items()}
                assert want
                out = {}
                assert res.act(out, c, u, lw, el, rw) is out
                assert out == want
                # act adds into what out holds, dropping the zeros
                assert res.act(dict(want), -c, u, lw, el, rw) == {}

    def test_a_term_at_a_wrong_vertex_is_rejected(self):
        res = Resolution(Instance(1, 2, Q(1), Q(1)))
        # x from vertex 1 ends at 2, but the generator x_3 starts at 3
        with pytest.raises(AssertionError, match="vertex 3"):
            res.act({}, Q(1), 1, "x", res.gen_elem(("x", 3)), "")
        with pytest.raises(AssertionError, match="vertex 3"):
            _el(res, [(1, 1, "x", ("x", 3), "")])


def hat_dims(n, m):
    """Expected tau-basis sizes of (P0^, P1^, P2^)."""
    d0 = 2 * (n + m)
    if n >= 2:
        d1 = 3 * (n + m)
    elif m > 1:
        d1 = 4 * m + 5
    else:
        d1 = 12
    if n >= 3:
        d2 = 2 * (n + m)
    elif n == 2:
        d2 = 2 * m + 6
    elif m >= 3:
        d2 = 3 * m + 5
    elif m == 2:
        d2 = 13
    else:
        d2 = 12
    return d0, d1, d2


def rank_L2_closed_form(inst):
    """The rank of the x-power block L2 (n = 1): m + 2 less 2, 1 or 0 in
    Case 1, 2 or 3."""
    c2 = classify(inst)[1]
    drop = {Cond2.CASE_1: 2, Cond2.CASE_2: 1, Cond2.CASE_3: 0}[c2]
    return inst.m + 2 - drop


def L1(C):
    """The weight-(0,0) block of D2, cut from its nonzero rows: rows of the
    arrow-letter relation functionals against the arrow columns, a
    2(n+m) x 3(n+m) matrix.  The program reads only its rank, from
    `HomComplex.block_rank`."""
    return C.block((0, 0))


def submatrix(M, row_idx, col_idx):
    """The entries of M in the given rows and columns, in that order."""
    return QMatrix([[M.rows[i][j] for j in col_idx] for i in row_idx])


class TestHomComplex:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_dims(self, n, m):
        C = HomComplex(Instance(n, m, Q(1), Q(1)))
        assert C.dims == hat_dims(n, m)

    @pytest.mark.parametrize("inst", list(instances()), ids=lambda i: i.key())
    def test_rank_d1_and_kernel(self, inst):
        C = HomComplex(inst)
        assert C.D1.rank() == 2 * (inst.n + inst.m) - 1
        # the kernel is spanned by the sum of all vertex functionals
        ones = [Q(1)] * len(C.basis0)
        assert is_zero(C.D1 @ QMatrix.from_columns([ones]))

    def test_L1_display_n_equals_m_equals_1(self):
        a, b = Q(2), Q(7)
        C = HomComplex(Instance(1, 1, a, b))
        rows = [tau_label(t) for t in C.basis2[:4]]
        assert rows == ["tau[f1]^yxx", "tau[g1]^yyx", "tau[g1]^yxy", "tau[f1]^xyx"]
        cols = [tau_label(t) for t in C.basis1[:6]]
        assert cols == ["tau[x1]^x", "tau[x2]^x", "tau[x3]^x",
                        "tau[y1]^y", "tau[y2]^y", "tau[y3]^y"]
        expect = QMatrix([
            [b, 0, -b, -b, 0, b],
            [b, 0, -b, -b, 0, b],
            [a, -a, 0, -a, a, 0],
            [0, a, -a, 0, -a, a],
        ])
        assert L1(C) == expect

    def test_worked_columns_n_at_least_3(self):
        a, b = Q(3), Q(5)
        C = HomComplex(Instance(3, 4, a, b))
        for p in (1, 2):
            col = column(C.D2, p - 1)
            expect = {C.idx2[(("f", p), "yxx")]: b,
                      C.idx2[(("g", p), "yyx")]: b,
                      C.idx2[(("g", p), "yxy")]: a}
            assert {i: c for i, c in enumerate(col) if c} == expect

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
    @pytest.mark.parametrize("a,b", [(Q(0), Q(1)), (Q(2), Q(-3)), (Q(1), Q(1))])
    def test_d2_columns_match_index_shift_formulas(self, n, m, a, b):
        """Independent closed-form prediction of D2 on arrow functionals,
        valid for m > n > 1."""
        inst = Instance(n, m, a, b)
        C = HomComplex(inst)

        def predicted(terms):
            out = {}
            for kind, i, w, c in terms:
                top = m if kind == "f" else n
                if 1 <= i <= top and c:
                    key = ((kind, i), w)
                    out[C.idx2[key]] = out.get(C.idx2[key], Q(0)) + c
            return {k: v for k, v in out.items() if v}

        for p in range(1, C.B.nx + 1):
            expect = predicted([
                ("f", p, "yxx", b), ("g", p, "yxy", a), ("g", p, "yyx", b),
                ("f", p - n, "xyx", a), ("f", p - n, "yxx", b),
                ("f", p - m, "yxx", -b), ("g", p - m, "yxy", -a),
                ("f", p - n - m, "xyx", -a), ("f", p - n - m, "yxx", -b),
                ("g", p - 2 * m, "yyx", -b),
            ])
            col = column(C.D2, p - 1)
            assert {i: c for i, c in enumerate(col) if c} == expect, f"x_{p}"
        for q in range(1, C.B.ny + 1):
            expect = predicted([
                ("f", q - 2 * n, "xyx", a), ("f", q - 2 * n, "yxx", b),
                ("f", q - n, "xyx", -a),
                ("f", q, "yxx", -b),
                ("g", q - n, "yxy", a), ("g", q - n, "yyx", b),
                ("g", q - n - m, "yyx", b),
                ("g", q, "yxy", -a), ("g", q, "yyx", -b),
                ("g", q - m, "yyx", -b),
            ])
            col = column(C.D2, C.B.nx + q - 1)
            assert {i: c for i, c in enumerate(col) if c} == expect, f"y_{q}"

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("a,b", [(Q(0), Q(1)), (Q(1), Q(1)), (Q(2), Q(-1)),
                                     (Q(1), Q(-1)), (Q(5), Q(3))])
    def test_L2_block_matches_display(self, m, a, b):
        inst = Instance(1, m, a, b)
        C = HomComplex(inst)
        assert C.L2() == L2_display(inst)

    def test_L2_star_block(self):
        # the mirror block for n = m = 1 equals the same display matrix
        for a, b in [(Q(0), Q(1)), (Q(2), Q(-1)), (Q(1), Q(1)), (Q(3), Q(4))]:
            inst = Instance(1, 1, a, b)
            C = HomComplex(inst)
            assert C.L2_star() == L2_display(inst)
            labels = [tau_label(t) for t in C.basis2]
            assert [labels.index(lbl) for lbl in (
                "tau[g1]^yyy", "tau[f1]^yyx", "tau[f1]^yxy")] == [7, 8, 9]

    def test_L2_display_m1(self):
        inst = Instance(1, 1, Q(3), Q(2))
        lam = inst.lam
        expect = QMatrix([
            [Q(1), -inst.alpha, -inst.beta],
            [-lam(2), Q(0), -inst.beta * lam(2)],
            [lam(1), lam(2), -lam(3)],
        ])
        assert L2_display(inst) == expect

    @pytest.mark.parametrize("inst", list(instances()), ids=lambda i: i.key())
    def test_rank_L1(self, inst):
        C = HomComplex(inst)
        assert L1(C).rank() == rank_L1_closed_form(inst)

    def test_rank_L2(self):
        cases = [
            (1, 1, Q(0), Q(1)),   # Case 1
            (1, 2, Q(1), Q(-1)),  # Case 1
            (1, 3, Q(0), Q(1)),   # Case 1
            (1, 2, Q(2), Q(-1)),  # Case 2
            (1, 3, Q(2), Q(-1)),  # Case 2
            (1, 2, Q(1), Q(1)),   # Case 3
            (1, 5, Q(1), Q(1)),   # Case 3
        ]
        for n, m, a, b in cases:
            inst = Instance(n, m, a, b)
            C = HomComplex(inst)
            assert C.L2().rank() == rank_L2_closed_form(inst), inst.key()

    def test_zero_rows(self):
        # n = 2: both x-power relation functionals give zero rows of D2
        C = HomComplex(Instance(2, 3, Q(1), Q(1)))
        for r in (10, 11):
            assert all(c == 0 for c in C.D2.rows[r])
        # n = 1: the pure x-power g-functional gives a zero row
        C = HomComplex(Instance(1, 3, Q(1), Q(1)))
        assert tau_label(C.basis2[3 * 3 + 4]) == "tau[g1]^xxxxxxx"
        assert all(c == 0 for c in C.D2.rows[3 * 3 + 4])
        # n = 1, m = 2: x^5 and the two y^2 functionals give zero rows
        C = HomComplex(Instance(1, 2, Q(1), Q(1)))
        for r in (10, 11, 12):
            assert all(c == 0 for c in C.D2.rows[r])


def letter_weight(tau):
    """Reference weight of tau[h]^w: the letters of w minus the letters of h
    itself (an arrow is its letter, f is xxy and g is xyy)."""
    (kind, _), w = tau
    own = {"e": "", "x": "x", "y": "y", "f": "xxy", "g": "xyy"}[kind]
    return (w.count("x") - own.count("x"), w.count("y") - own.count("y"))


def ref_build_matrix(C, idx_lo, idx_hi, gens_hi, d_fun):
    """The matrix of d_fun paired generator by generator, every generator
    on its own with no translation."""
    rows = [[0] * len(idx_lo) for _ in idx_hi]
    for row, col, c in C.res.pair(d_fun, gens_hi):
        rows[idx_hi[row]][idx_lo[col]] += c
    return QMatrix(rows)


class TestTranslatedMatrices:
    """D1 and D2 pair one generator per kind and translate its entries."""

    def test_the_sweep_holds_a_fraction_parameter_point(self):
        assert Instance(1, 3, Q(1), Q(-1, 2)) in coprime_instances(10)

    @pytest.mark.parametrize("inst", coprime_instances(10), ids=lambda i: i.key())
    def test_equal_to_the_per_generator_loop(self, inst):
        C = HomComplex(inst)
        res = C.res
        assert C.D1 == ref_build_matrix(C, C.idx0, C.idx1, res.gens1(), res.d1)
        assert C.D2 == ref_build_matrix(C, C.idx1, C.idx2, res.gens2(), res.d2)

    def test_pairs_one_generator_per_kind(self, monkeypatch):
        monkeypatch.setattr(resolution, "_SPACES", {})
        seen = []
        pair = Resolution.pair
        monkeypatch.setattr(Resolution, "pair", lambda res, fun, gens, *a:
                            seen.append(list(gens)) or pair(res, fun, gens, *a))
        HomComplex(Instance(2, 5, Q(1), Q(1)))
        assert seen == [[("x", 1), ("y", 1)], [("f", 1), ("g", 1)]]


class TestNonzeroRows:
    """Each differential is kept as its nonzero rows; D1, D2 are them dense."""

    @pytest.mark.parametrize("inst", coprime_instances(8), ids=lambda i: i.key())
    def test_the_nonzero_rows_are_the_dense_matrices(self, inst):
        C = HomComplex(inst)
        for k, D in ((1, C.D1), (2, C.D2)):
            assert list(C.nonzero[k]) == _nonzero(D.rows)
            assert D.shape == (C.dims[k], C.dims[k - 1])
            assert all(x and type(x) is (int if x.denominator == 1 else Q)
                       for row in C.nonzero[k] for x in row.values())

    @pytest.mark.parametrize("inst", coprime_instances(10), ids=lambda i: i.key())
    def test_the_complex_stores_one_form(self, inst):
        # no dense copy is kept, also once a block and the images are
        # read; D1 and D2 densify the nonzero rows on each read
        C = HomComplex(inst)
        L1(C)
        C.image(1), C.image(2)
        assert not [k for k, v in vars(C).items() if isinstance(v, QMatrix)]
        for k, D in ((1, C.D1), (2, C.D2)):
            width = C.dims[k - 1]
            assert D.shape == (len(C.nonzero[k]), width)
            assert D.rows == [[row.get(j, 0) for j in range(width)]
                              for row in C.nonzero[k]]

    def test_the_certificate_reads_the_nonzero_rows(self, monkeypatch):
        # a corrupted entry in the nonzero rows of D1 breaks D2 D1 = 0
        monkeypatch.setattr(resolution, "_SPACES", {})
        build = resolution._differential

        def corrupted(res, positions, k):
            rows = build(res, positions, k)
            if k == 1:
                rows[0][0] = rows[0].get(0, 0) + 1
            return rows
        monkeypatch.setattr(resolution, "_differential", corrupted)
        with pytest.raises(AssertionError, match="D2 \\* D1 != 0"):
            HomComplex(Instance(1, 2, Q(1), Q(1)))


class TestSharedSpaces:
    """The tau bases and index maps depend on (n, m) alone: one read-only
    copy per weight pair, built and checked once."""

    def test_complexes_of_a_weight_pair_share_one_copy(self):
        C, D = (HomComplex(Instance(1, 3, a, b))
                for a, b in ((Q(0), Q(1)), (Q(1), Q(-1, 2))))
        for name in ("basis0", "basis1", "basis2", "idx0", "idx1", "idx2"):
            assert getattr(C, name) is getattr(D, name), name
        assert HomComplex(Instance(2, 3, Q(0), Q(1))).basis1 != C.basis1

    def test_bases_are_tuples_and_index_maps_read_only(self):
        C = HomComplex(Instance(2, 3, Q(1), Q(1)))
        for basis, idx in ((C.basis0, C.idx0), (C.basis1, C.idx1),
                           (C.basis2, C.idx2)):
            assert type(basis) is tuple
            assert idx == {t: k for k, t in enumerate(basis)}
            with pytest.raises(TypeError):
                idx[basis[0]] = 1
            with pytest.raises(TypeError):
                basis[0] = basis[1]
        for k, idx in enumerate((C.idx0, C.idx1, C.idx2)):
            positions = C._positions[k]
            assert sum(map(len, positions.values())) == len(idx)
            for ((kind, i), w), pos in idx.items():
                assert positions[kind, w][i - 1] == pos
            with pytest.raises(TypeError):
                positions[next(iter(positions))] = ()

    def test_each_basis_is_built_once_per_weight_pair(self, monkeypatch):
        monkeypatch.setattr(resolution, "_SPACES", {})
        calls = []
        basis = resolution._basis
        monkeypatch.setattr(
            resolution, "_basis", lambda res, k:
            calls.append(((res.B.n, res.B.m), k)) or basis(res, k))
        for n, m in ((1, 3), (2, 3)):
            for inst in sample_instances(n, m):
                HomComplex(inst)
        assert calls == [((1, 3), 1), ((1, 3), 2), ((2, 3), 1), ((2, 3), 2)]

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (2, 3)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_a_display_list_with_a_duplicate_or_a_stray_raises(
            self, monkeypatch, n, m, k):
        res = Resolution(Instance(n, m, Q(1), Q(1)))
        displays = resolution._displays(res)
        side = 2 - k  # the columns are P1^ functionals, the rows P2^ ones
        gen = (res.gens1, res.gens2)[k - 1]()[-1]
        beyond = ((gen[0], gen[1] + 1), displays[0][side][-1][1])
        off = (gen, "xxy" if k == 2 else "xx")  # not normal, or off degree
        for extra in (displays[-1][side][0], beyond, off):
            bad = [list(block) for block in displays]
            bad[-1][side] = bad[-1][side] + [extra]
            monkeypatch.setattr(resolution, "_displays", lambda res: bad)
            with pytest.raises(AssertionError,
                               match=f"display functionals of P{k}\\^"):
                resolution._basis(res, k)
        monkeypatch.undo()
        C = HomComplex(res.inst)
        assert resolution._basis(res, k) == (C.basis1, C.basis2)[k - 1]


def ref_display_labels(n, m):
    """The (rows, columns) of L1, L2 (n = 1) and L2* (n = m = 1) by label,
    in the order of their closed forms."""
    fs, gs = range(1, m + 1), range(1, n + 1)
    out = [([f"tau[f{i}]^yxx" for i in fs] + [f"tau[g{j}]^yyx" for j in gs]
            + [f"tau[g{j}]^yxy" for j in gs] + [f"tau[f{i}]^xyx" for i in fs],
            [f"tau[x{i}]^x" for i in range(1, n + 2 * m + 1)]
            + [f"tau[y{j}]^y" for j in range(1, 2 * n + m + 1)])]
    if n == 1:
        xm = "x" * m
        out.append(([f"tau[f{i}]^{xm}xx" for i in range(m, 0, -1)]
                    + [f"tau[g1]^y{xm}x", f"tau[g1]^xy{xm}"],
                    [f"tau[y{j}]^{xm}" for j in range(m + 2, 0, -1)]))
    if n == m == 1:
        out.append((["tau[g1]^yyy", "tau[f1]^yyx", "tau[f1]^yxy"],
                    ["tau[x1]^y", "tau[x2]^y", "tau[x3]^y"]))
    return out


class TestBasisRule:
    """Each basis lists the display blocks' functionals first, in their
    closed forms' order, and every other functional after them in
    enumeration order."""

    @pytest.mark.parametrize("n,m", coprime_weights(12))
    def test_display_functionals_first_then_the_enumeration(self, n, m):
        C = HomComplex(Instance(n, m, Q(1), Q(1)))
        res = C.res
        displays = resolution._displays(res)
        assert [([*map(tau_label, rows)], [*map(tau_label, cols)])
                for rows, cols in displays] == ref_display_labels(n, m)
        for k, basis, gens in ((1, C.basis1, res.gens1()),
                               (2, C.basis2, res.gens2())):
            head = [t for block in displays for t in block[2 - k]]
            enum = [(g, w) for g in gens
                    for w in res.B.hom_words(g[1], res.gen_target(g))]
            assert list(basis[:len(head)]) == head
            assert list(basis[len(head):]) == [t for t in enum
                                               if t not in head]
            assert len(set(basis)) == len(basis) and set(basis) == set(enum)


def ref_relation(kind, a, b):
    """The relation of kind f or g as the literal table it once was."""
    return {"f": [("xxy", 1), ("xyx", -a), ("yxx", -b)],
            "g": [("xyy", 1), ("yxy", -a), ("yyx", -b)]}[kind]


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3)])
@pytest.mark.parametrize("a,b", [(Q(0), Q(1)), (Q(2), Q(-1)),
                                 (Q(1, 2), Q(-1, 16)), (Q(3), Q(4))])
def test_relation_is_the_leading_word_minus_its_rewriting(n, m, a, b):
    res = Resolution(Instance(n, m, a, b))
    for h in res.gens2():
        got = res.relation(h)
        assert got == ref_relation(h[0], a, b), h
        assert [type(c) for _, c in got] == [
            int, type(-res.B.alpha), type(-res.B.beta)]
    for gen in res.gens0() + res.gens1():
        with pytest.raises(ValueError, match="not a relation generator"):
            res.relation(gen)


def ref_d2(res, h):
    """d2 on a relation with one act per letter position at the relation's
    own source, every relation on its own: the build before the shift."""
    src, out = res.gen_source(h), {}
    for word, c in res.relation(h):
        for p, letter in enumerate(word):
            v = src + res.B.word_degree(word[:p])
            res.act(out, c, src, word[:p],
                    res.gen_elem((letter, v)), word[p + 1:])
    return out


def words_up_to(length):
    """Every word in x and y of at most `length` letters."""
    return ["".join(w) for k in range(length + 1)
            for w in itertools.product("xy", repeat=k)]


class TestSharedParts:
    """Each part of a complex is computed at the scope it depends on: D1
    and image(1) per weight pair, normal forms per (alpha, beta), d2 of a
    relation as a vertex shift of the first relation of its kind."""

    def test_the_sweeps_cover_alpha_zero_and_a_fraction_beta(self):
        insts = coprime_instances(10)
        assert any(i.alpha == 0 for i in insts)
        assert any(Q(i.beta).denominator > 1 for i in insts)

    @pytest.mark.parametrize("n,m", coprime_weights(10))
    def test_d1_does_not_depend_on_alpha_and_beta(self, n, m):
        # every complex holds the weight pair's one D1, and D1 built afresh
        # on any of its complexes equals it
        insts = sample_instances(n, m)
        shared = HomComplex(insts[0])._shared.d1
        for inst in insts:
            C = HomComplex(inst)
            assert C.nonzero[1] is shared
            assert resolution._differential(
                C.res, C._positions, 1) == list(shared), inst.key()

    def test_verify_builds_d1_once_per_weight_pair(self, monkeypatch):
        monkeypatch.setattr(resolution, "_SPACES", {})
        built = []
        build = resolution._differential
        monkeypatch.setattr(
            resolution, "_differential", lambda res, positions, k:
            built.append(((res.B.n, res.B.m), k)) or build(res, positions, k))
        monkeypatch.delenv("HH_THREADS", raising=False)
        assert cli.main(["verify", "--max-sum", "8"]) == 0
        # D1 once per weight pair, D2 once per complex: one per instance
        pairs = cli.sweep_weights(8)
        assert [pair for pair, k in built if k == 1] == pairs
        assert [pair for pair, k in built if k == 2] == [
            pair for pair in pairs for _ in sample_instances(*pair)]

    def test_normal_forms_do_not_depend_on_the_weights(self, monkeypatch):
        words = words_up_to(6)
        assert len(words) == 127
        for a, b in PARAMS + [(Q(1), Q(-1, 2))]:
            forms = []
            for n, m in ((1, 3), (2, 5)):
                monkeypatch.setattr(algebra, "_NORMAL_FORMS", {})
                B = Beilinson(Instance(n, m, a, b))
                forms.append({w: B.normal_form(w) for w in words})
            assert forms[0] == forms[1], (a, b)

    def test_normal_forms_are_shared_per_alpha_and_beta(self):
        B, C = (Beilinson(Instance(n, m, Q(2), Q(-1)))
                for n, m in ((1, 3), (2, 5)))
        assert B._nf is C._nf
        assert B._nf is not Beilinson(Instance(1, 3, Q(1), Q(1)))._nf
        assert B._words is not C._words and B._degrees is not C._degrees
        assert B._words is Beilinson(Instance(1, 3, Q(1), Q(1)))._words

    @pytest.mark.parametrize("inst", coprime_instances(10),
                             ids=lambda i: i.key())
    def test_shifted_d2_equals_the_act_per_letter_build(self, inst):
        res = Resolution(inst)
        for h in res.gens2():
            assert res.d2(h) == ref_d2(res, h), h

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 8), (7, 9)])
    def test_d2_makes_18_act_calls_per_complex(self, monkeypatch, n, m):
        calls = []
        act = Resolution.act
        monkeypatch.setattr(Resolution, "act", lambda res, *a:
                            calls.append(1) or act(res, *a))
        C = HomComplex(Instance(n, m, Q(2), Q(-1)))
        for h in C.res.gens2():
            C.res.d2(h)
        assert len(calls) == 18

    def test_every_shared_value_refuses_mutation(self):
        C = HomComplex(Instance(1, 3, Q(1), Q(-1, 2)))
        for value in (C.basis0, C.basis1, C.basis2, C.idx0, C.idx1, C.idx2,
                      C._positions, C._weights, C.nonzero[1], C.image(1),
                      C.image(2)):
            assert_read_only(value)
        for w in words_up_to(5):
            assert_read_only(C.B.normal_form(w))
        for d in range(C.B.ell):
            assert_read_only(C.B.hom_words(1, 1 + d))


class TestLetterContentBlocks:
    @pytest.mark.parametrize("inst", coprime_instances(10), ids=lambda i: i.key())
    def test_differentials_have_no_off_block_entries(self, inst):
        C = HomComplex(inst)
        for D, lo, hi in ((C.D1, C.basis0, C.basis1),
                          (C.D2, C.basis1, C.basis2)):
            for r, row in enumerate(D.rows):
                for c, x in enumerate(row):
                    if x:
                        assert tau_weight(hi[r]) == tau_weight(lo[c]), (r, c)

    @pytest.mark.parametrize("inst", coprime_instances(10), ids=lambda i: i.key())
    def test_blocks_equal_the_position_ranges(self, inst):
        # the rows and columns the blocks were once cut out by, by position
        n, m = inst.n, inst.m
        C = HomComplex(inst)
        r0, c0 = 2 * (n + m), 3 * (n + m)
        assert L1(C) == submatrix(C.D2, list(range(r0)), list(range(c0)))
        if n == 1:
            assert C.L2() == submatrix(C.D2, list(range(r0, r0 + m + 2)),
                                       list(range(c0, c0 + m + 2)))
        if n == m == 1:
            at = {tau_label(t): k for basis in (C.basis1, C.basis2)
                  for k, t in enumerate(basis)}
            rows = [at[lbl] for lbl in ("tau[g1]^yyy", "tau[f1]^yyx",
                                        "tau[f1]^yxy")]
            cols = [at[f"tau[x{i}]^y"] for i in (1, 2, 3)]
            assert (rows, cols) == ([7, 8, 9], [9, 10, 11])
            assert C.L2_star() == submatrix(C.D2, rows, cols)

    @pytest.mark.parametrize("inst", coprime_instances(12),
                             ids=lambda i: i.key())
    def test_block_rank_is_the_dense_rank_of_the_block(self, inst):
        # the pivots of the one elimination of D2, counted per weight, are
        # the ranks of the blocks cut out and eliminated on their own
        C = HomComplex(inst)
        assert C.block_rank((0, 0)) == L1(C).rank()
        weights = set(C._weights[2])
        assert {w: C.block_rank(w) for w in weights} == {
            w: C.block(w).rank() for w in weights}
        assert sum(map(C.block_rank, weights)) == C.ranks[1]

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (2, 5)])
    def test_block_rank_refuses_an_off_block_entry(self, n, m):
        C = HomComplex(Instance(n, m, Q(1), Q(1)))
        w1, w2 = C._weights[1], C._weights[2]
        r, j = next((r, j) for r in range(len(w2)) for j in range(len(w1))
                    if w1[j] != w2[r])
        rows = [dict(row) for row in C.nonzero[2]]
        rows[r][j] = 1
        C.nonzero = {**C.nonzero, 2: rows}
        detail = (f"off-block D2 entry ({r}, {j}): row weight {w2[r]}, "
                  f"column weight {w1[j]}")
        with pytest.raises(AssertionError, match=re.escape(detail)):
            C.block_rank((0, 0))

    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_weight_agrees_with_the_letter_count(self, n, m):
        C = HomComplex(Instance(n, m, Q(1), Q(1)))
        for t in C.basis0 + C.basis1 + C.basis2:
            assert tau_weight(t) == letter_weight(t), tau_label(t)

    def test_weights_by_case(self):
        # n >= 3: one block; n = 2 adds (m,-2); n = 1 adds (m,-1) and (2m,-2)
        def weights(n, m):
            C = HomComplex(Instance(n, m, Q(1), Q(1)))
            return {tau_weight(t) for t in C.basis1 + C.basis2}
        assert weights(3, 5) == {(0, 0)}
        assert weights(2, 5) == {(0, 0), (5, -2)}
        assert weights(1, 4) == {(0, 0), (4, -1), (8, -2)}
        assert weights(1, 1) == {(0, 0), (1, -1), (-1, 1), (2, -2), (-2, 2)}

    def test_blocks_keep_their_guards(self):
        with pytest.raises(ValueError, match="only for n = 1"):
            HomComplex(Instance(2, 3, Q(1), Q(1))).L2()
        with pytest.raises(ValueError, match="only for n = m = 1"):
            HomComplex(Instance(1, 2, Q(1), Q(1))).L2_star()

