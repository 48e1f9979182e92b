"""Cohomology dimensions, distinguished bases, stratum sampling."""

import subprocess
import sys
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import event, given, settings, strategies as st

from downup_hh import cli, cohomology, linalg, resolution, yoneda
from downup_hh.core import (Cond1, Cond2, Instance, canonical_instance,
                            classify)
from downup_hh.cohomology import (
    basis_labels,
    coords_mod_image,
    euler_characteristic_closed_form,
    hh0_basis,
    hh1_basis,
    hh2_basis,
    hh2_substitution_needed,
    hh_dims_closed_form,
    hh_dims_computed,
    independent_mod_image,
    is_cocycle,
    lambda_poly_in_beta,
    rational_roots,
    sample_instances,
    stratum_samples,
    verify_bases,
)
from downup_hh.linalg import QMatrix, _nonzero
from downup_hh.resolution import HomComplex
from downup_hh.yoneda import ring_row_report, ring_structure
from test_invariants import coprime_weights
from test_linalg import assert_read_only, exact, ref_rref
from test_yoneda import classes_equal, in_image

I, II = Cond1.CASE_I, Cond1.CASE_II
C1, C2, C3 = Cond2.CASE_1, Cond2.CASE_2, Cond2.CASE_3


def hh_dims_general(n0, m0, alpha, beta):
    """(h0, h1, h2) for arbitrary weights: gcd times the reduced value."""
    inst, k, _ = canonical_instance(n0, m0, alpha, beta,
                                    allow_reduce=True, allow_swap=True)
    return tuple(k * d for d in hh_dims_closed_form(inst))


def hh2_table_row(C):
    """The uncorrected one-functional-per-class HH^2 list for the stratum:
    hh2_basis with g_n^yyx swapped back to g_n^yxy.  Outside Case I,
    g_n^yyx enters the list only through the substitution.

    On the strata flagged by hh2_substitution_needed this list has the right
    length but is *not* a basis (one dependency); everywhere else it equals
    hh2_basis.
    """
    n = C.B.n
    if classify(C.inst)[0] == I:
        return hh2_basis(C)
    stored = [0] * len(C.basis2)
    stored[C.idx2[(("g", n), "yxy")]] = 1
    return [(f"g{n}^yxy", stored) if lbl == f"g{n}^yyx" else (lbl, v)
            for lbl, v in hh2_basis(C)]


def ref_hh2_specs(inst, substitute):
    """The HH^2 classes as functionals (kind, i, w) in table order, by the
    rule the package had while it also shipped the unsubstituted row:
    substitute says whether g_n^yyx replaces g_n^yxy."""
    n, m = inst.n, inst.m
    c1, c2 = classify(inst)
    if n == 1 and m == 1:
        rows = {
            (I, C1): [("g", 1, "yyx"), ("g", 1, "yxy"), ("f", 1, "xyx"),
                      ("g", 1, "yxx"), ("g", 1, "xyx"), ("f", 1, "yyx"),
                      ("f", 1, "yxy"), ("g", 1, "xxx"), ("f", 1, "yyy")],
            (II, C2): [("g", 1, "yxy"), ("f", 1, "xyx"), ("g", 1, "xyx"),
                       ("f", 1, "yxy"), ("g", 1, "xxx"), ("f", 1, "yyy")],
            (II, C3): [("g", 1, "yxy"), ("f", 1, "xyx"),
                       ("g", 1, "xxx"), ("f", 1, "yyy")],
        }
        specs = rows[(c1, c2)]
    elif n == 1 and m == 2:
        base = [("f", 1, "xyx"), ("f", 2, "xyx"), ("g", 1, "yxy")]
        drop = {C1: [], C2: ["yxxx"], C3: ["yxxx", "xyxx"]}[c2]
        mids = [w for w in ("yxxx", "xyxx") if w not in drop]
        specs = (base + [("g", 1, w) for w in mids]
                 + [("g", 1, "xxxxx"), ("f", 1, "yy"), ("f", 2, "yy")])
    elif n == 1:
        specs = [("f", i, "xyx") for i in range(1, m + 1)] + [("g", 1, "yxy")]
        if (c1, c2) == (I, C1):
            specs.append(("g", 1, "yyx"))
        if c2 == C1:
            specs.append(("g", 1, "y" + "x" * (m + 1)))
        if c2 in (C1, C2):
            specs.append(("g", 1, "xy" + "x" * m))
        specs.append(("g", 1, "x" * (2 * m + 1)))
    else:
        specs = ([("f", i, "xyx") for i in range(1, m + 1)]
                 + [("g", j, "yxy") for j in range(1, n + 1)])
        if c1 == I:
            specs.append(("g", n, "yyx"))
        if n == 2:
            specs += [("g", 1, "x" * (m + 1)), ("g", 2, "x" * (m + 1))]
    if substitute:
        specs = [("g", n, "yyx") if s == ("g", n, "yxy") else s for s in specs]
    return specs


def column(M, j):
    """Column j of the QMatrix M as a list."""
    return [row[j] for row in M.rows]


def columns(M):
    """Every column of the QMatrix M, as lists."""
    return [column(M, j) for j in range(M.ncols)]


def times(M, v):
    """M v as a list: the product of M with the one-column matrix of v."""
    return column(M @ QMatrix.from_columns([v]), 0)


SMALL_WEIGHTS = [(n, m) for m in range(1, 8) for n in range(1, m + 1)
                 if gcd(n, m) == 1 and n + m <= 9]


def sweep():
    for n, m in SMALL_WEIGHTS:
        for inst in sample_instances(n, m):
            yield inst


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = rationals.filter(lambda q: q != 0)


@st.composite
def stratum_params(draw):
    """(alpha, beta) from one of three families: alpha = 0 with beta free
    (Case I for even n + m, Case 1 for odd m), the discriminant curve
    beta = -alpha^2/4 with alpha != 0 (Case 2 off Case 1), or both free."""
    family = draw(st.sampled_from(["alpha-zero", "discriminant", "free"]))
    if family == "alpha-zero":
        return Q(0), draw(nonzero)
    if family == "discriminant":
        a = draw(nonzero)
        return a, -a * a / 4
    return draw(rationals), draw(nonzero)


class TestDimensions:
    @pytest.mark.parametrize("inst", list(sweep()), ids=lambda i: i.key())
    def test_computed_equals_closed_form(self, inst):
        C = HomComplex(inst)
        assert hh_dims_computed(C) == hh_dims_closed_form(inst)

    def test_h0_is_one_and_higher_vanish(self):
        # the complex stops at P2^, so HH^r = 0 for r >= 3 by construction;
        # h0 = 1 comes out of the rank of D1
        for inst in sample_instances(1, 2):
            C = HomComplex(inst)
            h0, _, _ = hh_dims_computed(C)
            assert h0 == 1

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=4),
           st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda b: b != 0))
    @settings(max_examples=25, deadline=None)
    def test_closed_form_any_parameters_1_2(self, a, b):
        inst = Instance(1, 2, a, b)
        assert hh_dims_computed(HomComplex(inst)) == hh_dims_closed_form(inst)

    @given(st.fractions(min_value=-2, max_value=2, max_denominator=3),
           st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(lambda b: b != 0))
    @settings(max_examples=12, deadline=None)
    def test_closed_form_any_parameters_2_3(self, a, b):
        inst = Instance(2, 3, a, b)
        assert hh_dims_computed(HomComplex(inst)) == hh_dims_closed_form(inst)

    @given(st.sampled_from([(n, m) for n, m in SMALL_WEIGHTS if n + m <= 8]),
           stratum_params())
    @settings(max_examples=100, deadline=None)
    def test_closed_form_and_bases_on_every_stratum(self, nm, ab):
        inst = Instance(*nm, *ab)
        c1, c2 = classify(inst)
        event(f"stratum {c1.value}/{c2.value}")
        C = HomComplex(inst)
        assert hh_dims_computed(C) == hh_dims_closed_form(inst)
        assert verify_bases(C) == hh_dims_computed(C)

    def test_dimension_table_values(self):
        # (1,1) strata
        assert hh_dims_closed_form(Instance(1, 1, Q(0), Q(1))) == (1, 6, 9)
        assert hh_dims_closed_form(Instance(1, 1, Q(2), Q(-1))) == (1, 3, 6)
        assert hh_dims_closed_form(Instance(1, 1, Q(1), Q(1))) == (1, 1, 4)
        # (1,2) strata
        assert hh_dims_closed_form(Instance(1, 2, Q(1), Q(-1))) == (1, 3, 8)
        assert hh_dims_closed_form(Instance(1, 2, Q(2), Q(-1))) == (1, 2, 7)
        assert hh_dims_closed_form(Instance(1, 2, Q(1), Q(1))) == (1, 1, 6)
        # (1,3) strata
        assert hh_dims_closed_form(Instance(1, 3, Q(0), Q(1))) == (1, 4, 8)
        assert hh_dims_closed_form(Instance(1, 3, Q(1), Q(-2, 1))) == (1, 3, 7) \
            if Instance(1, 3, Q(1), Q(-2)).lam(4) == 0 else True
        assert hh_dims_closed_form(Instance(1, 3, Q(1), Q(-1, 2))) == (1, 3, 7)
        assert hh_dims_closed_form(Instance(1, 3, Q(2), Q(-1))) == (1, 2, 6)
        assert hh_dims_closed_form(Instance(1, 3, Q(1), Q(1))) == (1, 1, 5)
        # n = 2 and n >= 3
        assert hh_dims_closed_form(Instance(2, 3, Q(0), Q(1))) == (1, 1, 7)
        assert hh_dims_closed_form(Instance(2, 3, Q(1), Q(1))) == (1, 1, 7)
        assert hh_dims_closed_form(Instance(3, 5, Q(0), Q(1))) == (1, 2, 9)
        assert hh_dims_closed_form(Instance(3, 5, Q(1), Q(1))) == (1, 1, 8)
        assert hh_dims_closed_form(Instance(3, 4, Q(1), Q(1))) == (1, 1, 7)

    def test_general_weights(self):
        assert hh_dims_general(4, 6, Q(1), Q(1)) == (2, 2, 14)
        assert hh_dims_general(5, 5, Q(0), Q(1)) == (5, 30, 45)
        # swapped weights transport the parameters
        a, b = Q(1), Q(2)
        swapped = Instance(2, 3, -a / b, 1 / b)
        expect = tuple(2 * d for d in hh_dims_closed_form(swapped))
        assert hh_dims_general(6, 4, a, b) == expect

    def test_euler_characteristic(self):
        for inst in sweep():
            h0, h1, h2 = hh_dims_closed_form(inst)
            assert 1 - h1 + h2 == euler_characteristic_closed_form(inst)


class TestBases:
    @pytest.mark.parametrize("inst", list(sweep()), ids=lambda i: i.key())
    def test_verify_bases(self, inst):
        C = HomComplex(inst)
        assert verify_bases(C) == hh_dims_closed_form(inst)

    @pytest.mark.parametrize("inst", list(sweep()), ids=lambda i: i.key())
    def test_labels_come_from_the_stratum(self, inst):
        C = HomComplex(inst)
        assert basis_labels(inst) == ([lbl for lbl, _ in hh1_basis(C)],
                                      [lbl for lbl, _ in hh2_basis(C)])

    def test_verify_bases_still_fails_under_python_O(self):
        # `python -O` strips assert statements; a basis short of one HH^1
        # vector must be rejected all the same.
        script = "\n".join([
            "assert False, 'this interpreter keeps asserts'",
            "from fractions import Fraction as Q",
            "from downup_hh import cohomology",
            "from downup_hh.core import Instance",
            "from downup_hh.resolution import HomComplex",
            "full = cohomology.hh1_basis",
            "cohomology.hh1_basis = lambda C: full(C)[:-1]",
            "try:",
            "    cohomology.verify_bases(HomComplex(Instance(2, 3, Q(0), Q(1))))",
            "except AssertionError as exc:",
            "    print('rejected:', exc)",
        ])
        r = subprocess.run([sys.executable, "-O", "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "rejected: 0 HH^1 vectors for h1 = 1\n"

    def test_hh0(self):
        C = HomComplex(Instance(2, 3, Q(1), Q(1)))
        (lbl, v), = hh0_basis(C)
        assert lbl == "unit" and times(C.D1, v) == [Q(0)] * len(C.basis1)

    # The basis labels per stratum, one table each for n = m = 1, n = 1 < m
    # and n >= 2.
    H1_LABELS = {
        "n=m=1": {(I, C1): ["h1", "h2", "h3", "h4", "h3p", "h4p"],
                  (II, C2): ["h1", "h5", "h5p"], (II, C3): ["h1"]},
        "n=1<m": {(I, C1): ["h1", "h2", "h3", "h4"],
                  (II, C1): ["h1", "h3", "h4"], (II, C2): ["h1", "h5"],
                  (II, C3): ["h1"]},
        "n>=2": {(I, C1): ["h1", "h2"], (II, C1): ["h1"], (II, C2): ["h1"],
                 (II, C3): ["h1"]},
    }

    def test_labels_by_stratum(self):
        def labels(n, m, a, b):
            return [l for l, _ in hh1_basis(HomComplex(Instance(n, m, Q(a), Q(b))))]

        assert labels(1, 1, 0, 1) == ["h1", "h2", "h3", "h4", "h3p", "h4p"]
        assert labels(1, 1, 2, -1) == ["h1", "h5", "h5p"]
        assert labels(1, 1, 1, 1) == ["h1"]
        assert labels(1, 3, 0, 1) == ["h1", "h2", "h3", "h4"]
        assert labels(1, 2, 1, -1) == ["h1", "h3", "h4"]
        assert labels(1, 2, 2, -1) == ["h1", "h5"]
        assert labels(1, 2, 1, 1) == ["h1"]
        assert labels(3, 5, 0, 1) == ["h1", "h2"]
        assert labels(2, 3, 1, 1) == ["h1"]
        # One stratum sample for every row of every table.
        seen = set()
        for n, m in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (3, 5)]:
            table = "n=m=1" if m == 1 else "n=1<m" if n == 1 else "n>=2"
            for stratum, rec in stratum_samples(n, m).items():
                if rec["status"] == "reached":
                    inst = rec["instance"]
                    got = labels(n, m, inst.alpha, inst.beta)
                    assert got == self.H1_LABELS[table][stratum], inst.key()
                    seen.add((table, stratum))
        assert seen == {(t, s) for t, rows in self.H1_LABELS.items()
                        for s in rows}

    def test_h2_and_h4p_entries(self):
        C = HomComplex(Instance(1, 1, Q(0), Q(5)))
        vecs = dict(hh1_basis(C))
        h2 = vecs["h2"]
        assert h2[C.idx1[(("x", 2), "x")]] == 1
        assert sum(1 for c in h2 if c) == 1  # m = 1: single term
        h4p = vecs["h4p"]
        assert h4p[C.idx1[(("x", 1), "y")]] == 5
        assert h4p[C.idx1[(("x", 3), "y")]] == 1
        assert sum(1 for c in h4p if c) == 2
        # the mirrored combination is *not* a cocycle
        bad = [Q(0)] * len(C.basis1)
        bad[C.idx1[(("x", 3), "y")]] = Q(5)
        bad[C.idx1[(("x", 1), "y")]] = Q(1)
        assert not is_cocycle(C, [bad])
        assert not is_cocycle(C, [h2, bad]) and is_cocycle(C, [h2, h4p])
        assert is_cocycle(C, [])

    def test_alternating_h2_larger(self):
        C = HomComplex(Instance(3, 5, Q(0), Q(1)))
        vecs = dict(hh1_basis(C))
        h2 = vecs["h2"]
        for r in range(1, 6):
            assert h2[C.idx1[(("x", 3 + r), "x")]] == (-1) ** (r - 1)

    def test_hh2_labels_1_2(self):
        C = HomComplex(Instance(1, 2, Q(1), Q(-1)))
        assert [l for l, _ in hh2_basis(C)] == [
            "f1^xyx", "f2^xyx", "g1^yxy", "g1^yxxx", "g1^xyxx",
            "g1^xxxxx", "f1^yy", "f2^yy"]
        C = HomComplex(Instance(1, 2, Q(2), Q(-1)))
        assert [l for l, _ in hh2_basis(C)] == [
            "f1^xyx", "f2^xyx", "g1^yxy", "g1^xyxx", "g1^xxxxx", "f1^yy", "f2^yy"]
        C = HomComplex(Instance(1, 2, Q(1), Q(1)))
        assert [l for l, _ in hh2_basis(C)] == [
            "f1^xyx", "f2^xyx", "g1^yxy", "g1^xxxxx", "f1^yy", "f2^yy"]

    def test_coords_mod_image(self):
        inst = Instance(1, 2, Q(1), Q(1))
        C = HomComplex(inst)
        basis = [v for _, v in hh2_basis(C)]
        # a basis vector has unit coordinates
        coords = coords_mod_image(C, basis, [basis[0]])[0]
        assert coords == [Q(1)] + [Q(0)] * (len(basis) - 1)
        # any image column has zero coordinates
        col = column(C.D2, 0)
        coords = coords_mod_image(C, basis, [col])[0]
        assert coords == [Q(0)] * len(basis)

    def test_hh2_substitution_strata(self):
        # substitution exactly when both weights are odd and alpha != 0
        assert hh2_substitution_needed(Instance(1, 3, Q(1), Q(1)))
        assert hh2_substitution_needed(Instance(3, 5, Q(2), Q(-1)))
        assert not hh2_substitution_needed(Instance(1, 3, Q(0), Q(1)))  # Case I
        assert not hh2_substitution_needed(Instance(1, 2, Q(1), Q(1)))  # m even
        assert not hh2_substitution_needed(Instance(2, 3, Q(1), Q(1)))  # n even

    @pytest.mark.parametrize("n,m,a,b", [
        (1, 1, 2, -1), (1, 1, 1, 1), (1, 3, 1, Q(-1, 2)), (1, 3, 2, -1),
        (1, 3, 1, 1), (3, 5, 1, -1), (3, 5, 1, 1), (1, 5, 1, 1), (1, 7, 1, 1)])
    def test_unsubstituted_row_is_not_a_basis(self, n, m, a, b):
        """On both-odd Case II strata the one-functional-per-class row has
        exactly one dependency: the coboundary of sum_p (-1)^p tau[x_p]."""
        inst = Instance(n, m, Q(a), Q(b))
        assert hh2_substitution_needed(inst)
        C = HomComplex(inst)
        h2 = hh_dims_computed(C)[2]
        row = hh2_table_row(C)
        assert len(row) == h2  # right count ...
        vecs = [v for _, v in row]
        assert not independent_mod_image(C, 2, vecs)  # ... but dependent
        from downup_hh.linalg import QMatrix
        A = QMatrix.from_columns(columns(C.D2) + vecs)
        assert A.rank() == C.D2.rank() + len(vecs) - 1  # exactly one relation
        # the dependency comes from the alternating coboundary: it is
        # supported on the f^xyx / g^yxy coordinates with coefficients 2 alpha
        alt = [Q(0)] * len(C.basis1)
        for p in range(1, C.B.nx + 1):
            alt[C.idx1[(("x", p), "x")]] = Q(-1) ** p
        u = times(C.D2, alt)
        assert any(c != 0 for c in u)
        support = {C.basis2[i] for i, c in enumerate(u) if c}
        allowed = ({(("f", i), "xyx") for i in range(1, m + 1)}
                   | {(("g", j), "yxy") for j in range(1, inst.n + 1)})
        assert support <= allowed
        for i, c in enumerate(u):
            if c:
                assert abs(c) == 2 * abs(inst.alpha)
        # the substituted list is a basis and differs in exactly one entry
        fixed = hh2_basis(C)
        assert independent_mod_image(C, 2, [v for _, v in fixed])
        diff = [(r[0], f[0]) for r, f in zip(row, fixed) if r[0] != f[0]]
        assert diff == [(f"g{inst.n}^yxy", f"g{inst.n}^yyx")]

    @pytest.mark.parametrize("n,m", coprime_weights(12))
    def test_bases_follow_the_reference_rule(self, n, m):
        # the package's one HH^2 rule: the stored row with the substitution
        # applied exactly where hh2_substitution_needed says
        for inst in sample_instances(n, m):
            C = HomComplex(inst)
            want = ref_hh2_specs(inst, hh2_substitution_needed(inst))
            labels = [f"{kind}{i}^{w}" for kind, i, w in want]
            assert basis_labels(inst)[1] == labels, inst.key()
            assert hh2_basis(C) == [
                (lbl, [int(t == ((kind, i), w)) for t in C.basis2])
                for lbl, (kind, i, w) in zip(labels, want)], inst.key()

    def test_row_equals_basis_off_the_defect_strata(self):
        for inst in sweep():
            if not hh2_substitution_needed(inst):
                C = HomComplex(inst)
                assert [l for l, _ in hh2_table_row(C)] == [
                    l for l, _ in hh2_basis(C)]

    def test_independent_mod_image_rejects_dependent(self):
        inst = Instance(1, 2, Q(1), Q(1))
        C = HomComplex(inst)
        basis = [v for _, v in hh2_basis(C)]
        assert independent_mod_image(C, 2, basis)
        assert not independent_mod_image(C, 2, basis + [column(C.D2, 0)])
        assert not independent_mod_image(C, 2, basis + [basis[0]])


# The augmented-matrix logic that the images kept on HomComplex replaced,
# kept as the reference that they are tested against.

def ref_independent(M, vecs):
    """rank [M | vecs] = rank M + len(vecs)."""
    if not vecs:
        return True
    A = QMatrix.from_columns(columns(M) + list(vecs))
    return A.rank() == M.rank() + len(vecs)


def ref_coords(M, basis, vs):
    """The basis part of a solution of [M | basis] x = v, for each v."""
    A = QMatrix.from_columns(columns(M) + list(basis))
    return [None if x is None else x[M.ncols:] for x in A.solve_many(vs)]


def ref_in_image(M, v):
    return M.solve(list(v)) is not None


def units(d):
    return [[Q(int(i == j)) for j in range(d)] for i in range(d)]


def ref_image(D):
    """(reduced rows, pivot columns) of the dense D^T by textbook Fraction
    Gauss-Jordan: the echelon basis of im D."""
    red, pivots = ref_rref([[Q(x) for x in col] for col in zip(*D.rows)],
                           D.nrows)
    return red[:len(pivots)], pivots


def ref_coker(red, pivots, free, v):
    """v minus its pivot coordinates times the echelon basis, read on the
    free columns."""
    w = [Q(x) for x in v]
    for c, row in zip(pivots, red):
        w = [x - v[c] * y for x, y in zip(w, row)]
    return [w[j] for j in free]


def record_eliminations(monkeypatch, seen):
    """Append to `seen` the nonzero rows handed to the one elimination
    kernel, at both of its call sites: QMatrix._eliminate and the images."""
    kernel = linalg._gauss_jordan

    def recorded(rows, width):
        seen.append(rows)
        return kernel(rows, width)
    monkeypatch.setattr(linalg, "_gauss_jordan", recorded)
    monkeypatch.setattr(resolution, "_gauss_jordan", recorded)


def eliminations(C, seen):
    """[#D1^T, #D2^T] among the eliminated nonzero rows `seen`.  Fails on
    eliminated rows whose leading columns are a differential: the augmented
    [Dk | vectors] that the images replace."""
    out = []
    for D in (C.D1, C.D2):
        rows = _nonzero(D.rows)
        for M in seen:
            assert not (len(M) == D.nrows and rows == [
                {j: x for j, x in r.items() if j < D.ncols} for r in M])
        out.append(sum(M == _nonzero(D.transpose().rows) for M in seen))
    return out


class TestImages:
    @pytest.mark.parametrize("inst", [i for i in sweep()
                                      if i.n + i.m <= 8],
                             ids=lambda i: i.key())
    def test_agrees_with_the_augmented_matrices(self, inst):
        C = HomComplex(inst)
        b1 = [v for _, v in hh1_basis(C)]
        b2 = [v for _, v in hh2_basis(C)]
        row = [v for _, v in hh2_table_row(C)]
        for k, vecs in ((1, b1), (2, b2), (2, row),
                        (2, b2 + [column(C.D2, 0)]), (2, [b2[0], b2[0]])):
            M = (C.D1, C.D2)[k - 1]
            assert independent_mod_image(C, k, vecs) == ref_independent(
                M, vecs), k
        for k, M in ((1, C.D1), (2, C.D2)):
            for v in columns(M) + units(M.nrows) + (b1 if k == 1 else b2):
                assert in_image(C, k, v) == ref_in_image(M, v), k
        probes = units(len(C.basis2)) + columns(C.D2)
        assert coords_mod_image(C, b2, probes) == ref_coords(C.D2, b2, probes)
        assert coords_mod_image(C, b2[:-1], probes) == ref_coords(
            C.D2, b2[:-1], probes)

    @pytest.mark.parametrize("inst", [i for i in sweep()
                                      if i.n + i.m <= 8],
                             ids=lambda i: i.key())
    def test_images_ranks_and_cokernels_equal_a_dense_reference(self, inst):
        # the reference reduces the dense C.D1, C.D2 over Fraction
        C = HomComplex(inst)
        assert {k: list(rows) for k, rows in C.nonzero.items()} == {
            1: _nonzero(C.D1.rows), 2: _nonzero(C.D2.rows)}
        bases = {1: [v for _, v in hh1_basis(C)], 2: [v for _, v in hh2_basis(C)]}
        for k, D in ((1, C.D1), (2, C.D2)):
            red, pivots = ref_image(D)
            free = [j for j in range(D.nrows) if j not in pivots]
            s, got_free, rows = C.image(k)
            assert list(got_free) == free and sorted(rows) == pivots
            assert C.ranks[k - 1] == len(pivots)
            assert {c: {j: Q(x, s) for j, x in rows[c].items()}
                    for c in pivots} == {c: {j: r[j] for j in free if r[j]}
                                         for c, r in zip(pivots, red)}
            for v in columns(D) + units(D.nrows) + bases[k]:
                assert C.coker(k, v) == ref_coker(red, pivots, free, v), k
                assert all(map(exact, C.coker(k, v)))

    @given(st.sampled_from([i for i in sweep() if i.n + i.m <= 5]),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_image_plus_classes(self, inst, data):
        """v = Dk x + sum c_i b_i: coordinates c, in the image iff c = 0."""
        C = HomComplex(inst)
        small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        for k, M, basis in ((1, C.D1, [v for _, v in hh1_basis(C)]),
                            (2, C.D2, [v for _, v in hh2_basis(C)])):
            x = data.draw(st.lists(small, min_size=M.ncols,
                                   max_size=M.ncols))
            c = data.draw(st.lists(small, min_size=len(basis),
                                   max_size=len(basis)))
            v = [a + sum((ci * b[i] for ci, b in zip(c, basis)), Q(0))
                 for i, a in enumerate(times(M, x))]
            event(f"k={k} in image: {not any(c)}")
            assert in_image(C, k, v) == (not any(c)) == ref_in_image(M, v)
            assert independent_mod_image(C, k, [v]) == any(c)
            assert not independent_mod_image(C, k, basis + [v])
            u = times(M, x)
            assert C.coker(k, [a + b for a, b in zip(u, v)]) == [
                a + b for a, b in zip(C.coker(k, u), C.coker(k, v))]
            if k == 2:
                assert coords_mod_image(C, basis, [v]) == [c] == ref_coords(
                    M, basis, [v])
                assert classes_equal(C, v, [a - b for a, b in zip(v, u)])

    @pytest.mark.parametrize("k", [1, 2])
    def test_coker_refuses_a_vector_of_the_wrong_length(self, k):
        C = HomComplex(Instance(1, 2, Q(1), Q(1)))
        d = C.dims[k]
        for bad in ([Q(0)] * (d - 1), [Q(0)] * (d + 1)):
            with pytest.raises(ValueError, match="length"):
                C.coker(k, bad)
            with pytest.raises(ValueError, match="length"):
                in_image(C, k, bad)
        assert not any(C.coker(k, [Q(0)] * d))

    @pytest.mark.parametrize("only", [None] + list(cli.CHECKS))
    def test_each_image_is_eliminated_once_per_complex(self, monkeypatch,
                                                       only):
        # image(2) once per complex; image(1) once per weight pair, whose
        # complexes share it
        monkeypatch.setattr(resolution, "_SPACES", {})
        seen, per_pair = [], {}
        record_eliminations(monkeypatch, seen)
        for inst in (i for i in sweep() if i.n + i.m <= 5):
            C = HomComplex(inst)
            seen.clear()
            cli._verify_worker((inst, None, only))
            one, two = eliminations(C, seen)
            assert two <= 1, inst.key()
            if only is None:
                assert two == 1, inst.key()
            pair = (inst.n, inst.m)
            per_pair[pair] = per_pair.get(pair, 0) + one
            seen.clear()
            # a ring-table row never eliminates D1, and D2 only when it has
            # a product to resolve: when HH^1 has two basis classes or more
            cli._ring_row(inst)
            a = len(hh1_basis(C))
            assert eliminations(C, seen) == [0, int(a >= 2)], inst.key()
        assert len(per_pair) == 5 and max(per_pair.values()) <= 1, per_pair
        if only is None:
            assert set(per_pair.values()) == {1}, per_pair

    def test_verify_eliminates_d1_per_weight_pair_and_d2_per_instance(
            self, monkeypatch, capsys):
        # verify --max-sum 6: 6 weight pairs, 19 instances
        monkeypatch.setattr(resolution, "_SPACES", {})
        seen = []
        record_eliminations(monkeypatch, seen)
        monkeypatch.delenv("HH_THREADS", raising=False)
        assert cli.main(["verify", "--max-sum", "6"]) == 0
        assert "226 checks, 0 failed" in capsys.readouterr().out
        complexes = [HomComplex(inst) for n, m in cli.sweep_weights(6)
                     for inst in sample_instances(n, m)]
        assert len(complexes) == 19
        d1 = {(C.B.n, C.B.m): _nonzero(C.D1.transpose().rows)
              for C in complexes}
        assert len(d1) == 6
        assert [seen.count(rows) for rows in d1.values()] == [1] * 6
        assert [seen.count(_nonzero(C.D2.transpose().rows))
                for C in complexes] == [1] * 19


class TestKeptPerComplex:
    """Each per-complex quantity is computed once per complex and kept."""

    KEPT = (hh1_basis, hh2_basis, ring_structure, ring_row_report)

    @pytest.mark.parametrize("inst,units", [
        (Instance(1, 1, Q(0), Q(1)), 6 + 9), (Instance(2, 3, Q(0), Q(1)), 8)],
        ids=lambda x: x.key() if isinstance(x, Instance) else str(x))
    def test_verify_builds_each_basis_once(self, monkeypatch, inst, units):
        # every HH^1 and HH^2 basis vector is one _unit_vec call, so a full
        # verify of one instance makes h1 + h2 of them
        calls = []
        unit_vec = cohomology._unit_vec
        monkeypatch.setattr(cohomology, "_unit_vec",
                            lambda *a: calls.append(1) or unit_vec(*a))
        checks = cli._verify_worker((inst, None, None))
        assert checks and all(c["pass"] for c in checks)
        _, h1, h2 = hh_dims_computed(HomComplex(inst))
        assert len(calls) == h1 + h2 == units

    def test_verify_decides_the_hh1_cocycles_once_per_complex(
            self, monkeypatch, capsys):
        # the bases and the ring group both read one kept decision, so the
        # 19 instances of verify --max-sum 6 make 19 cocycle products
        calls = []
        is_cocycle = cohomology.is_cocycle
        counted = lambda C, vecs: calls.append(C) or is_cocycle(C, vecs)
        monkeypatch.setattr(cohomology, "is_cocycle", counted)
        # and wherever else it might be bound
        monkeypatch.setattr(yoneda, "is_cocycle", counted, raising=False)
        monkeypatch.delenv("HH_THREADS", raising=False)
        assert cli.main(["verify", "--max-sum", "6"]) == 0
        assert "226 checks, 0 failed" in capsys.readouterr().out
        assert len(calls) == len({C.inst for C in calls}) == 19

    def test_a_kept_value_is_one_object(self):
        C = HomComplex(Instance(1, 3, Q(0), Q(1)))
        for fn in self.KEPT:
            assert fn(C) is fn(C), fn.__name__

    def test_the_two_images_are_kept_apart(self):
        C = HomComplex(Instance(1, 2, Q(1), Q(-1)))
        one, two = C.image(1), C.image(2)
        assert one is C.image(1) and two is C.image(2)
        assert one != two
        assert C.ranks == (len(one[2]), len(two[2]))

    def test_two_complexes_of_one_instance_share_only_read_only_values(self):
        # what depends on (alpha, beta) is built per complex; D1 and its
        # image, which depend on (n, m) alone, are shared and read-only
        inst = Instance(1, 1, Q(0), Q(1))
        C, D = HomComplex(inst), HomComplex(inst)
        for fn in self.KEPT:
            assert fn(C) is not fn(D) and fn(C) == fn(D), fn.__name__
        assert C.image(2) is not D.image(2) and C.image(2) == D.image(2)
        assert C.nonzero[2] is not D.nonzero[2]
        assert C.nonzero[2] == D.nonzero[2]
        for h in C.res.gens2():
            assert C.res.d2(h) is not D.res.d2(h)
        assert C._kept is not D._kept and C.res._kept is not D.res._kept
        assert C.image(1) is D.image(1) and C.nonzero[1] is D.nonzero[1]
        assert_read_only(C.image(1))
        assert_read_only(C.nonzero[1])


class TestStrata:
    def test_lambda_poly_matches_recurrence(self):
        for r in range(9):
            p = lambda_poly_in_beta(r)
            assert all(type(c) is int for c in p) and (not p or p[-1]), r
            for beta in (Q(1), Q(-1), Q(2, 3)):
                inst = Instance(1, 2, Q(1), beta)
                assert sum(c * beta ** k for k, c in enumerate(p)) == inst.lam(r)
        assert lambda_poly_in_beta(0) == [] and lambda_poly_in_beta(1) == [1]
        assert lambda_poly_in_beta(5) == [1, 3, 1]  # 1 + 3 beta + beta^2

    def test_rational_roots(self):
        # (2t - 1)(t + 3)(t^2 + 1)
        assert rational_roots([-3, 5, -1, 5, 2]) == [Q(-3), Q(1, 2)]

    def test_rational_roots_drops_zero_and_trailing_zeros(self):
        # t^2 (t - 2)(3t + 1), written with two trailing zero coefficients
        assert rational_roots([0, 0, -2, -5, 3, 0, 0]) == [Q(-1, 3), Q(2)]
        assert rational_roots([5]) == [] and rational_roots([0, 4, 0]) == []
        with pytest.raises(ValueError, match="zero polynomial"):
            rational_roots([0, 0])

    def test_stratum_reachability(self):
        s = stratum_samples(1, 1)
        assert s[(I, C1)]["status"] == "reached"
        assert s[(II, C1)]["status"] == "vacuous"
        assert s[(I, C2)]["status"] == s[(I, C3)]["status"] == "vacuous"

        s = stratum_samples(1, 2)
        assert s[(I, C1)]["status"] == "vacuous"
        rec = s[(II, C1)]
        assert rec["status"] == "reached"
        assert (rec["instance"].alpha, rec["instance"].beta) == (Q(1), Q(-1))

        s = stratum_samples(1, 3)
        assert s[(II, C1)]["instance"].beta == Q(-1, 2)

        s = stratum_samples(1, 4)
        assert s[(II, C1)]["status"] == "no-rational-point"

        s = stratum_samples(1, 5)
        assert rational_roots(lambda_poly_in_beta(6)) == [Q(-1), Q(-1, 3)]
        assert s[(II, C1)]["instance"].beta == Q(-1)

        s = stratum_samples(2, 3)
        rec = s[(II, C1)]
        assert rec["status"] == "reached"
        assert (rec["instance"].alpha, rec["instance"].beta) == (Q(0), Q(1))

        s = stratum_samples(3, 5)
        assert s[(I, C1)]["status"] == "reached"
        assert s[(II, C1)]["instance"].beta == Q(-1)

    def test_samples_classify_correctly(self):
        for n, m in SMALL_WEIGHTS:
            for key, rec in stratum_samples(n, m).items():
                if rec["status"] == "reached":
                    assert classify(rec["instance"]) == key

    def test_strata_come_in_report_order(self):
        order = [(c1, c2) for c1 in (I, II) for c2 in (C1, C2, C3)]
        pairs = coprime_weights(30)
        assert len(pairs) == 139
        for n, m in pairs:
            assert list(stratum_samples(n, m)) == order

    def test_a_misplaced_sample_is_rejected_under_python_O(self):
        # `python -O` strips assert statements; a sample that leaves its
        # stratum must be rejected all the same.
        script = "\n".join([
            "assert False, 'this interpreter keeps asserts'",
            "from downup_hh import cohomology",
            "from downup_hh.core import Cond1, Cond2",
            "cohomology.classify = lambda inst: (Cond1.CASE_II, Cond2.CASE_3)",
            "try:",
            "    cohomology.stratum_samples(1, 2)",
            "except AssertionError as exc:",
            "    print('rejected:', exc)",
        ])
        r = subprocess.run([sys.executable, "-O", "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == ("rejected: sample n=1 m=2 alpha=1 beta=-1 is not "
                            "in stratum (II, 1)\n")
