"""Acceptance sweep: one test per criterion over all coprime weights n+m <= 16.

Every criterion runs in exact rational arithmetic with zero tolerance.  The
three places where the stored closed-form tables are provably inconsistent
with the direct matrix computation keep strict-xfail companion tests that
assert the stored form verbatim: they fail today by necessity, and the
strict marker turns any status change into an error so the defects cannot
silently disappear.  The verified corrections live in hh2_basis (one
substituted entry), the restored coefficient factors of the product values,
and the computed ring ideals; see the module docstrings for the details.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from downup_hh.cohomology import (
    euler_characteristic_closed_form,
    hh1_basis,
    hh2_basis,
    hh_dims_closed_form,
    hh_dims_computed,
    independent_mod_image,
    is_cocycle,
)
from downup_hh.core import Cond1, Cond2, Instance, Q, classify
from downup_hh.invariants import (
    happel_trace_check,
    serre_unipotent,
)
from downup_hh.linalg import QMatrix
from downup_hh.resolution import HomComplex
from downup_hh.yoneda import (
    LIFT_SIGN,
    closed_form_lifts,
    cup_vector,
    generic_lift,
    ring_row_defect_expected,
    ring_row_report,
    ring_structure,
)
from test_algebra import is_valid, path
from test_cohomology import hh2_table_row
from test_invariants import (coprime_instances, coprime_weights,
                             ref_euler_characteristic_trace)
from test_linalg import is_zero
from test_resolution import L1, hat_dims
from test_yoneda import classes_equal, in_image, read_pairs, ref_all_products

MAX_SUM = 16

_COMPLEX = {}


def complex_for(inst):
    """One shared complex per instance, with every kept value on it: a test
    that monkeypatches a builder of a kept value builds its own HomComplex."""
    if inst not in _COMPLEX:
        _COMPLEX[inst] = HomComplex(inst)
    return _COMPLEX[inst]


def unit2(C, kind, i, w, coeff=Q(1)):
    v = [Q(0)] * len(C.basis2)
    v[C.idx2[((kind, i), w)]] = Q(coeff)
    return v


def scale(v, c):
    return [Q(c) * x for x in v]


def lifts_for(inst):
    return closed_form_lifts(complex_for(inst))


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_dimension_theorems():
    """Computed (h0, h1, h2) equals the closed form on every reachable
    stratum with n+m <= 16, plus fixed spot values in all four regimes."""
    for inst in coprime_instances(MAX_SUM):
        C = complex_for(inst)
        assert hh_dims_computed(C) == hh_dims_closed_form(inst), inst.key()
    spots = [
        (Instance(2, 3, Q(1), Q(1)), (1, 1, 7)),
        (Instance(3, 5, Q(0), Q(1)), (1, 2, 9)),
        (Instance(1, 1, Q(0), Q(1)), (1, 6, 9)),
        (Instance(1, 2, Q(1), Q(-1)), (1, 3, 8)),  # beta = -alpha^2
    ]
    for inst, want in spots:
        assert hh_dims_closed_form(inst) == want, inst.key()
        assert hh_dims_computed(complex_for(inst)) == want, inst.key()


# -- criterion 2 ------------------------------------------------------------

def circulant(r: int, coeffs) -> QMatrix:
    """The r x r circulant whose row i holds t^i * f(t) modulo t^r - 1."""
    M = QMatrix.zeros(r, r)
    for i in range(r):
        for j, c in enumerate(coeffs):
            M.rows[i][(i + j) % r] += Q(c)
    return M


def _trim(p):
    """p over Q without its zero leading coefficients."""
    p = [Q(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def gcd_degree(f, g) -> int:
    """deg gcd(f, g) by Euclid over Q, coefficients lowest degree first
    (-1 for gcd(0, 0))."""
    a, b = _trim(f), _trim(g)
    while b:
        while len(a) >= len(b):  # a <- a mod b, one leading term at a time
            q, shift = a[-1] / b[-1], len(a) - len(b)
            a = _trim([x - q * b[i - shift] if i >= shift else x
                       for i, x in enumerate(a)])
        a, b = b, a
    return len(a) - 1


def circulant_rank(r: int, coeffs) -> int:
    """rank of circulant(r, f) = r - deg gcd(t^r - 1, f)."""
    if not any(coeffs):
        return 0
    return r - gcd_degree([-1] + [0] * (r - 1) + [1], coeffs)


class TestCirculant:
    def test_values(self):
        M = circulant(3, [1, 2])
        assert M == QMatrix([[Q(1), Q(2), Q(0)], [Q(0), Q(1), Q(2)], [Q(2), Q(0), Q(1)]])

    @pytest.mark.parametrize("r", [2, 3, 4, 6])
    @pytest.mark.parametrize("coeffs", [[1], [1, -1], [1, 1], [1, 0, -1], [2, 3, 1]])
    def test_rank_formula(self, r, coeffs):
        assert circulant(r, coeffs).rank() == circulant_rank(r, coeffs)

    def test_rank_formula_statement(self):
        # rank = r - deg gcd(t^r - 1, f) spelled out on one example
        r, coeffs = 6, [1, 0, -1]  # f = 1 - t^2, gcd with t^6 - 1 is t^2 - 1
        assert gcd_degree([-1] + [0] * (r - 1) + [1], coeffs) == 2
        assert circulant(r, coeffs).rank() == 4


def test_criterion_2_rank_lemma_and_circulants():
    """The arrow-functional block of the second differential has rank
    n+m (minus one in the even alpha=0 case) whenever m > n > 1, and the
    polynomial-gcd circulant rank agrees with the dense rank up to size 12."""
    for inst in coprime_instances(MAX_SUM):
        if inst.n == 1:
            continue
        c1, _ = classify(inst)
        want = inst.n + inst.m - (1 if c1 == Cond1.CASE_I else 0)
        assert L1(complex_for(inst)).rank() == want, inst.key()
    families = [[0], [1], [3], [1, 1], [1, -1], [0, 1], [1, 0, -1],
                [2, 3, 1], [1, -2, 1], [1, 0, 0, -1], [1, 1, 1, 1]]
    for r in range(1, 13):
        for coeffs in families:
            assert circulant(r, coeffs).rank() == circulant_rank(r, coeffs)


# -- criterion 3 ------------------------------------------------------------

def test_criterion_3_basis_tables():
    """Every degree-1 representative is a cocycle outside the coboundaries;
    the degree-2 set is independent modulo coboundaries with cardinality h2,
    on every reachable stratum."""
    for inst in coprime_instances(MAX_SUM):
        C = complex_for(inst)
        _, h1, h2 = hh_dims_computed(C)
        b1 = hh1_basis(C)
        assert len(b1) == h1, inst.key()
        for lbl, v in b1:
            assert is_cocycle(C, [v]), (inst.key(), lbl)
            assert not in_image(C, 1, v), (inst.key(), lbl)
        assert independent_mod_image(C, 1, [v for _, v in b1]), inst.key()
        b2 = hh2_basis(C)
        assert len(b2) == h2, inst.key()
        assert independent_mod_image(C, 2, [v for _, v in b2]), inst.key()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the stored degree-2 row is dependent "
                   "modulo coboundaries when both weights are odd and alpha "
                   "is nonzero; hh2_basis substitutes one entry")
def test_criterion_3_defect_stored_hh2_row_verbatim():
    inst = Instance(1, 3, Q(2), Q(-1))
    C = complex_for(inst)
    row = hh2_table_row(C)
    assert independent_mod_image(C, 2, [v for _, v in row])


# -- criterion 4 ------------------------------------------------------------

def test_criterion_4_chain_maps():
    """Each stored degree-1 lift satisfies both commuting squares generator
    by generator, and the generic (homotopy) lift reproduces it up to
    coboundary (equal product classes against every basis cocycle)."""
    for inst in coprime_instances(MAX_SUM):
        C = complex_for(inst)
        basis = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        assert set(lifts) == set(basis), inst.key()
        for lbl, cm in lifts.items():
            sign = LIFT_SIGN.get(lbl, Q(1))
            assert cm.induced_vector() == scale(basis[lbl], sign), \
                (inst.key(), lbl)
            assert cm.verify(), (inst.key(), lbl)
        for ql, cm in lifts.items():
            gen = generic_lift(C, basis[ql])
            sign = LIFT_SIGN.get(ql, Q(1))
            for pl, pv in basis.items():
                u = cup_vector(C, pv, cm.sigma1)
                v = scale(cup_vector(C, pv, gen.sigma1), sign)
                assert classes_equal(C, u, v), (inst.key(), pl, ql)


# -- criterion 5 ------------------------------------------------------------

def test_criterion_5_cup_products():
    """All stated degree-1 product values hold as cohomology classes (with
    the three restored coefficient factors), and the product is graded
    commutative with vanishing squares on every stratum."""
    for inst in coprime_instances(MAX_SUM):
        n, m = inst.n, inst.m
        b, lam = inst.beta, inst.lam
        c1, c2 = classify(inst)
        C = complex_for(inst)
        hv = dict(hh1_basis(C))
        lifts = lifts_for(inst)
        if c1 == Cond1.CASE_I:
            rep = cup_vector(C, hv["h1"], lifts["h2"].sigma1)
            assert classes_equal(C, rep, unit2(C, "g", n, "yyx", m * b)), \
                inst.key()
        if n == 1 and c2 == Cond2.CASE_1:
            rep = cup_vector(C, hv["h1"], lifts["h3"].sigma1)
            want = unit2(C, "g", 1, "y" + "x" * (m + 1), m * b * lam(m))
            assert classes_equal(C, rep, want), inst.key()
            rep = cup_vector(C, hv["h1"], lifts["h4"].sigma1)
            want = unit2(C, "g", 1, "xy" + "x" * m, -m * b * lam(m))
            assert classes_equal(C, rep, want), inst.key()
            rep = cup_vector(C, hv["h3"], lifts["h4"].sigma1)
            want = unit2(C, "g", 1, "x" * (2 * m + 1), b * lam(m))
            assert classes_equal(C, rep, want), inst.key()
        if n == 1 and c1 == Cond1.CASE_I and c2 == Cond2.CASE_1:
            assert in_image(C, 2, cup_vector(C, hv["h2"], lifts["h3"].sigma1))
            rep = cup_vector(C, hv["h2"], lifts["h4"].sigma1)
            want = unit2(C, "g", 1, "xy" + "x" * m, -b * lam(m))
            assert classes_equal(C, rep, want), inst.key()
        if n == 1 and m > 1 and c2 == Cond2.CASE_2:
            assert in_image(C, 2, cup_vector(C, hv["h1"], lifts["h5"].sigma1))
        if (n, m) == (1, 1) and c2 == Cond2.CASE_1:
            values = [("h1", "h3p", "f", "yyx", b), ("h1", "h4p", "f", "yxy", -b),
                      ("h2", "h4p", "f", "yxy", -b), ("h3", "h4p", "g", "yxy", -b),
                      ("h4", "h3p", "f", "xyx", -b), ("h3p", "h4p", "f", "yyy", -b)]
            for p, q, kind, w, c in values:
                rep = cup_vector(C, hv[p], lifts[q].sigma1)
                assert classes_equal(C, rep, unit2(C, kind, 1, w, c)), (p, q)
            for p, q in [("h2", "h3p"), ("h4", "h4p"), ("h3", "h3p")]:
                assert in_image(C, 2, cup_vector(C, hv[p], lifts[q].sigma1))
        if (n, m) == (1, 1) and c2 == Cond2.CASE_2:
            for p, q in [("h1", "h5p"), ("h5", "h5p")]:
                assert in_image(C, 2, cup_vector(C, hv[p], lifts[q].sigma1))
        # graded commutativity and vanishing squares, all degree-1 pairs of
        # the reference; ring_structure holds its products p < q
        rs = ring_structure(C)
        prods = ref_all_products(C)
        assert list(rs["products"]) == read_pairs(rs["labels"]), inst.key()
        for pl in rs["labels"]:
            for ql in rs["labels"]:
                assert prods[(pl, ql)] == \
                    scale(prods[(ql, pl)], -1), (inst.key(), pl, ql)
            assert prods[(pl, pl)] == \
                [Q(0)] * len(rs["classes2"]), (inst.key(), pl)
        for pq, coords in rs["products"].items():
            assert coords == prods[pq], (inst.key(), pq)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the stored even-sum alpha=0 value "
                   "m [g_n^yyx] drops a beta factor; the class is "
                   "m beta [g_n^yyx]")
def test_criterion_5_defect_stored_case_I_value_verbatim():
    inst = Instance(1, 3, Q(0), Q(2))
    C = complex_for(inst)
    rep = cup_vector(C, dict(hh1_basis(C))["h1"], lifts_for(inst)["h2"].sigma1)
    assert classes_equal(C, rep, unit2(C, "g", 1, "yyx", inst.m))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the stored value -beta lambda_m "
                   "[g_1^xyx^m] for the first generator against the fourth "
                   "lift drops an m factor")
def test_criterion_5_defect_stored_h1_h4_value_verbatim():
    inst = Instance(1, 2, Q(1), Q(-1))
    C = complex_for(inst)
    rep = cup_vector(C, dict(hh1_basis(C))["h1"], lifts_for(inst)["h4"].sigma1)
    want = unit2(C, "g", 1, "xyxx", -inst.beta * inst.lam(2))
    assert classes_equal(C, rep, want)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the stored value -beta [g_1^xyx^m] "
                   "for the second generator against the fourth lift drops "
                   "a lambda_m factor (invisible at m = 1)")
def test_criterion_5_defect_stored_h2_h4_value_verbatim():
    inst = Instance(1, 3, Q(0), Q(2))
    assert inst.lam(3) == 2
    C = complex_for(inst)
    rep = cup_vector(C, dict(hh1_basis(C))["h2"], lifts_for(inst)["h4"].sigma1)
    assert classes_equal(C, rep, unit2(C, "g", 1, "xyxxx", -inst.beta))


# -- criterion 6 ------------------------------------------------------------

def test_criterion_6_ring_presentations():
    """The first-principles presentation Lambda(a, b)/I matches the stored
    regime row on every stratum (up to the documented diagonal rescale), and
    its degree-1 and degree-2 dimensions equal h1 and h2.  On the two
    documented defect strata the stored row fails its own degree count and
    the computed ideal is kept."""
    for inst in coprime_instances(MAX_SUM):
        C = complex_for(inst)
        rep = ring_row_report(C)
        pres = rep["presentation"]
        _, h1, h2 = hh_dims_computed(C)
        ncomb = pres["a"] * (pres["a"] - 1) // 2
        assert pres["a"] == h1, inst.key()
        assert ncomb - len(pres["ideal"]) + pres["b"] == h2, inst.key()
        if ring_row_defect_expected(inst):
            assert not rep["row_self_consistent"], inst.key()
            assert not rep["ideal_match_after_rescale"], inst.key()
            assert pres["ideal"], inst.key()
        else:
            assert rep["dims_match"], inst.key()
            assert rep["row_self_consistent"], inst.key()
            assert rep["ideal_match"] or rep["ideal_match_after_rescale"], \
                inst.key()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the stored rows for n = 1, Case II "
                   "and quadratic-root parameters declare a zero ideal, "
                   "which contradicts their own degree-2 dimension count")
def test_criterion_6_defect_stored_row_verbatim():
    inst = Instance(1, 2, Q(2), Q(-1))
    rep = ring_row_report(complex_for(inst))
    assert rep["ideal_match"] and rep["row_self_consistent"]


# -- criterion 7 ------------------------------------------------------------

def test_criterion_7_derived_invariants():
    """Happel's trace formula holds against the direct computation on every
    stratum; the Serre action is unipotent exactly at weights (1,1) and
    (1,2); for m > n > 1 the trace is m+4 or n+m and never 2(n+m)."""
    for n, m in coprime_weights(MAX_SUM):
        inst = Instance(n, m, Q(1), Q(1))
        assert serre_unipotent(inst) == ((n, m) in ((1, 1), (1, 2))), (n, m)
        chi = ref_euler_characteristic_trace(inst)
        assert chi == Q(euler_characteristic_closed_form(inst)), (n, m)
        if m > n > 1:
            assert chi == Q(m + 4 if n == 2 else n + m), (n, m)
            assert chi != Q(2 * (n + m)), (n, m)
    for inst in coprime_instances(MAX_SUM):
        assert happel_trace_check(complex_for(inst))["match"], inst.key()


# -- criterion 8 ------------------------------------------------------------

def _combo(B, words):
    """Normal form of a linear combination of letter words, as a dict."""
    out = {}
    for w, c in words:
        for nw, d in B.normal_form(w).items():
            out[nw] = out.get(nw, Q(0)) + c * d
    return {w: c for w, c in out.items() if c != 0}


def test_criterion_8_structural_properties():
    """Differentials compose to zero with a one-dimensional kernel; the Hom
    spaces have the closed-form sizes; the two rewriting rules resolve their
    overlap word consistently (n+m <= 8, every start vertex); the x-power
    straightening identity holds for n = 1 up to i = m+1."""
    for inst in coprime_instances(MAX_SUM):
        C = complex_for(inst)
        assert is_zero(C.D2 @ C.D1), inst.key()
        assert len(C.basis0) - C.D1.rank() == 1, inst.key()
        assert C.dims == hat_dims(inst.n, inst.m), inst.key()
    for inst in coprime_instances(8):
        B = complex_for(inst).B
        a, b = inst.alpha, inst.beta
        # xxyy: rewrite the front redex first vs the back redex first
        front = _combo(B, [("xyxy", a), ("yxxy", b)])
        back = _combo(B, [("xyxy", a), ("xyyx", b)])
        assert front == back, inst.key()
        for v in range(1, B.ell + 1):
            if not is_valid(B, v, "xxyy"):
                continue
            elf = {}
            elb = {}
            for target, combo in ((elf, front), (elb, back)):
                for w, c in combo.items():
                    for key, d in path(B, v, w).items():
                        target[key] = target.get(key, Q(0)) + c * d
            assert {k: c for k, c in elf.items() if c != 0} == \
                {k: c for k, c in elb.items() if c != 0}, (inst.key(), v)
        if inst.n != 1:
            continue
        for i in range(1, inst.m + 2):
            lhs_word = "x" * i + "y"
            for v in range(1, B.ell + 1):
                if not is_valid(B, v, lhs_word):
                    continue
                lhs = path(B, v, lhs_word)
                rhs = {}
                for w, c in [("y" + "x" * i, b * inst.lam(i - 1)),
                             ("xy" + "x" * (i - 1), inst.lam(i))]:
                    for key, d in path(B, v, w).items():
                        rhs[key] = rhs.get(key, Q(0)) + c * d
                rhs = {k: c for k, c in rhs.items() if c != 0}
                assert lhs == rhs, (inst.key(), i, v)


# -- criterion 9 ------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "downup_hh.cli", *args],
                          capture_output=True, text=True)


def test_criterion_9_cli_contract():
    """Table and JSON outputs are byte-stable against the golden files, and
    the verify gate's exit status flips under an injected lambda-sign fault."""
    golden_cases = [
        ("dims_table.csv", ["table", "--which", "dims", "--max-sum", "5",
                            "--format", "csv"]),
        ("ring_table.csv", ["table", "--which", "ring", "--max-sum", "5",
                            "--format", "csv"]),
        ("compute_2_3.json", ["compute", "--n", "2", "--m", "3", "--alpha",
                              "0", "--beta", "1", "--format", "json"]),
    ]
    for name, args in golden_cases:
        r = _cli(*args)
        assert r.returncode == 0, r.stderr
        assert r.stdout == (GOLDEN / name).read_text(), name
        again = _cli(*args)
        assert again.stdout == r.stdout, name
    rep = json.loads(_cli("compute", "--n", "2", "--m", "3", "--alpha", "0",
                          "--beta", "1", "--format", "json").stdout)
    assert json.dumps(rep, indent=2) + "\n" == \
        (GOLDEN / "compute_2_3.json").read_text()
    clean = _cli("verify", "--max-sum", "3")
    assert clean.returncode == 0, clean.stdout
    mutated = _cli("verify", "--max-sum", "3", "--inject-fault", "lambda-sign")
    assert mutated.returncode == 1
    assert any(line.startswith("FAIL") for line in mutated.stdout.splitlines())
