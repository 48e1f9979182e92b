"""Chain-map liftings, cup products and the ring structure of HH^*."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from downup_hh import linalg, resolution, yoneda
from downup_hh.cli import main
from downup_hh.core import Cond1, Cond2, Instance, Q, classify
from downup_hh.cohomology import (
    coords_mod_image,
    hh0_basis,
    hh1_basis,
    hh2_basis,
    hh_dims_computed,
    is_cocycle,
)
from downup_hh.linalg import QMatrix
from downup_hh.resolution import HomComplex, L2_display
from downup_hh.yoneda import (
    LIFT_SIGN,
    ChainMap,
    closed_form_lifts,
    cup_class,
    cup_vector,
    generic_lift,
    ring_presentation,
    ring_row_defect_expected,
    ring_row_report,
    ring_structure,
    ring_table_row,
    _pairs,
    _rescale,
    _row_space,
)
from test_invariants import coprime_instances, coprime_weights

def times(M, v):
    """M v as a list: the product of M with the one-column matrix of v."""
    return [row[0] for row in (M @ QMatrix.from_columns([v])).rows]


def in_image(C, k, v):
    """Whether v lies in im Dk: whether its class modulo im Dk is zero."""
    return not any(C.coker(k, v))


def classes_equal(C, u, v):
    """Whether two degree-2 cochain vectors represent the same HH^2 class."""
    return in_image(C, 2, [a - b for a, b in zip(u, v)])


def unit2(C, kind, i, w):
    v = [Q(0)] * len(C.basis2)
    v[C.idx2[((kind, i), w)]] = Q(1)
    return v


def scale(v, c):
    return [Q(c) * x for x in v]


class TestClosedFormLifts:
    @pytest.mark.parametrize("inst", coprime_instances(9), ids=lambda i: i.key())
    def test_every_basis_label_has_a_valid_lift(self, inst):
        C = HomComplex(inst)
        basis = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        assert set(lifts) == set(basis)
        for lbl, cm in lifts.items():
            assert cm.verify(), lbl
            sign = LIFT_SIGN.get(lbl, Q(1))
            assert cm.induced_vector() == scale(basis[lbl], sign), lbl

    def test_lift_table_covers_primed_maps(self):
        C = HomComplex(Instance(1, 1, Q(0), Q(1)))
        assert set(closed_form_lifts(C)) == {"h1", "h2", "h3", "h4",
                                             "h3p", "h4p"}
        C = HomComplex(Instance(1, 1, Q(2), Q(-1)))
        assert set(closed_form_lifts(C)) == {"h1", "h5", "h5p"}


class TestGenericLift:
    @pytest.mark.parametrize("inst", coprime_instances(9), ids=lambda i: i.key())
    def test_lifts_every_basis_class(self, inst):
        C = HomComplex(inst)
        for lbl, vec in hh1_basis(C):
            cm = generic_lift(C, vec)
            assert cm.verify(), lbl
            assert cm.induced_vector() == vec, lbl

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("n,m,a,b", [
        (1, 1, 0, 1), (1, 1, 2, -1), (1, 2, 1, -1), (1, 3, 0, 2),
        (2, 3, 1, 1), (3, 5, 0, 1)])
    def test_lifts_random_cocycles(self, n, m, a, b, side):
        # random rational combinations of the basis plus a coboundary
        rng = random.Random(f"{n},{m},{a},{b},{side}")
        rand = lambda: Q(rng.randint(-4, 4), rng.randint(1, 3))
        C = HomComplex(Instance(n, m, Q(a), Q(b)))
        basis = [v for _, v in hh1_basis(C)]
        for _ in range(3):
            phi = times(C.D1, [rand() for _ in C.basis0])
            for v in basis:
                c = rand()
                phi = [x + c * y for x, y in zip(phi, v)]
            cm = generic_lift(C, phi, side=side)
            assert cm.verify()
            assert cm.induced_vector() == phi

    def test_builds_no_matrix(self, monkeypatch):
        C = HomComplex(Instance(1, 3, Q(0), Q(1)))
        basis = hh1_basis(C)

        def forbidden(*args, **kwargs):
            raise AssertionError("generic_lift touched a matrix solver")

        for name in ("zeros", "solve", "rref", "rank", "__matmul__"):
            monkeypatch.setattr(QMatrix, name, forbidden)
        for lbl, vec in basis:
            assert generic_lift(C, vec).induced_vector() == vec, lbl

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("inst", coprime_instances(6),
                             ids=lambda i: i.key())
    def test_rejects_non_cocycle(self, inst, side):
        # The per-relation augmentation test is the only cocycle test.
        C = HomComplex(inst)
        bad = [Q(0)] * len(C.basis1)
        bad[0] = Q(1)  # tau[x1]^x alone is not a cocycle
        assert any(c != 0 for c in times(C.D2, bad))
        h1 = hh1_basis(C)[0][1]
        for phi in (bad, [x + y for x, y in zip(h1, bad)]):
            with pytest.raises(ValueError, match="not a 1-cocycle"):
                generic_lift(C, phi, side=side)
        assert generic_lift(C, h1, side=side).verify()

    @pytest.mark.parametrize("n,m,a,b", [
        (1, 1, 0, 1), (1, 2, 1, -1), (1, 3, 2, -1), (2, 3, 1, 1),
        (3, 5, 0, 1)])
    def test_product_class_independent_of_slot_choice(self, n, m, a, b):
        # the left- and right-slot sigma_0 give genuinely different chain
        # maps; the induced products agree in HH^2
        inst = Instance(n, m, Q(a), Q(b))
        C = HomComplex(inst)
        basis = hh1_basis(C)
        for ql, qv in basis:
            left = generic_lift(C, qv, side="left")
            right = generic_lift(C, qv, side="right")
            assert left.verify() and right.verify()
            for pl, pv in basis:
                u = cup_vector(C, pv, left.sigma1)
                v = cup_vector(C, pv, right.sigma1)
                assert classes_equal(C, u, v), (pl, ql)

    @pytest.mark.parametrize("n,m,a,b", [
        (1, 1, 0, -2), (1, 2, 1, -1), (1, 3, 0, 2), (2, 3, 2, -1),
        (3, 4, 1, 1)])
    def test_closed_form_and_generic_products_agree_up_to_sign(self, n, m,
                                                               a, b):
        inst = Instance(n, m, Q(a), Q(b))
        C = HomComplex(inst)
        basis = hh1_basis(C)
        vv = dict(basis)
        closed = closed_form_lifts(C)
        for ql, cm in closed.items():
            gen = generic_lift(C, vv[ql])
            sign = LIFT_SIGN.get(ql, Q(1))
            for pl, pv in basis:
                u = cup_vector(C, pv, cm.sigma1)
                v = scale(cup_vector(C, pv, gen.sigma1), sign)
                assert classes_equal(C, u, v), (pl, ql)


def ref_verify(cm):
    """ChainMap.verify as two sides compared: d1 . sigma_1 against
    -sigma_0 . d2 on each relation, each side through apply_map."""
    res = cm.C.res
    return all(res.apply_map(res.d1, cm.sigma1.get(h, {}))
               == res.apply_map(lambda g: cm.sigma0.get(g, {}), res.d2(h), -1)
               for h in res.gens2())


def all_lifts(C):
    """The closed-form and the left- and right-slot generic lifts of every
    HH^1 basis class of C."""
    return ([cm for _, cm in sorted(closed_form_lifts(C).items())]
            + [generic_lift(C, v, side) for _, v in hh1_basis(C)
               for side in ("left", "right")])


class TestChainMapVerify:
    @pytest.mark.parametrize("inst", coprime_instances(7),
                             ids=lambda i: i.key())
    def test_a_dropped_sigma1_term_fails(self, inst):
        C = HomComplex(inst)
        for cm in all_lifts(C):
            assert cm.verify() and ref_verify(cm)
            for h, el in cm.sigma1.items():
                for drop in el:
                    s1 = {**cm.sigma1,
                          h: {k: c for k, c in el.items() if k != drop}}
                    broken = ChainMap(C, cm.sigma0, s1)
                    assert not broken.verify(), (h, drop)
                    assert not ref_verify(broken), (h, drop)

    @pytest.mark.parametrize("inst", coprime_instances(6),
                             ids=lambda i: i.key())
    def test_agrees_with_the_two_sides_compared(self, inst):
        # scaled, merged and emptied maps: one sum decides as two sides do
        rng = random.Random(inst.key())
        C = HomComplex(inst)
        lifts = all_lifts(C)
        for _ in range(6):
            cm, other = rng.choice(lifts), rng.choice(lifts)
            c = Q(rng.randint(-3, 3), rng.randint(1, 2))
            s0 = {**cm.sigma0, **other.sigma0}
            s1 = {h: {k: c * x for k, x in el.items()}
                  for h, el in cm.sigma1.items()}
            for mixed in (ChainMap(C, s0, cm.sigma1), ChainMap(C, cm.sigma0, s1),
                          ChainMap(C, {}, {}), ChainMap(C, cm.sigma0, {})):
                assert mixed.verify() == ref_verify(mixed)

    def test_a_sigma1_term_off_its_arrow_source_raises(self):
        C = HomComplex(Instance(1, 2, Q(1), Q(1)))
        cm = closed_form_lifts(C)["h1"]
        h, el = next(iter(cm.sigma1.items()))
        ((letter, s), ls, u, v), c = next(iter(el.items()))
        # the same words, but the arrow one vertex further on
        moved = {**cm.sigma1, h: {((letter, s + 1), ls, u, v): c}}
        with pytest.raises(AssertionError,
                           match=f"left word ending at vertex {s}"):
            ChainMap(C, cm.sigma0, moved).verify()

    def test_a_sigma0_term_off_its_vertex_raises(self):
        C = HomComplex(Instance(1, 2, Q(1), Q(1)))
        cm = closed_form_lifts(C)["h1"]
        # sigma_0(x_1) starting at vertex 2 instead of 1
        s0 = {**cm.sigma0, ("x", 1): {(("e", 2), 2, "", "x"): 1}}
        with pytest.raises(AssertionError, match="vertex 2, not 1"):
            ChainMap(C, s0, cm.sigma1).verify()


class TestCupValues:
    """The stated product values, with the three dropped factors restored."""

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (1, 5), (1, 7),
                                     (3, 5), (3, 7), (5, 7)])
    @pytest.mark.parametrize("b", [1, -1, 2, -3])
    def test_case_I_h1_h2(self, n, m, b):
        inst = Instance(n, m, Q(0), Q(b))
        C = HomComplex(inst)
        h1v = dict(hh1_basis(C))["h1"]
        rep = cup_vector(C, h1v, closed_form_lifts(C)["h2"].sigma1)
        want = scale(unit2(C, "g", n, "yyx"), Q(m) * Q(b))
        assert classes_equal(C, rep, want)
        # the value without the beta factor holds only at beta = 1
        bare = scale(unit2(C, "g", n, "yyx"), Q(m))
        assert classes_equal(C, rep, bare) == (b == 1)

    CASE_1_INSTANCES = [
        (1, 1, 0, 1), (1, 1, 0, -2), (1, 2, 1, -1), (1, 2, 2, -4),
        (1, 3, 1, Q(-1, 2)), (1, 3, 0, 2), (1, 5, 1, -1), (1, 5, 0, -3)]

    @pytest.mark.parametrize("n,m,a,b", CASE_1_INSTANCES)
    def test_case_1_values(self, n, m, a, b):
        inst = Instance(n, m, Q(a), Q(b))
        assert classify(inst)[1] == Cond2.CASE_1
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        lam_m = inst.lam(m)
        rep = cup_vector(C, hv["h1"], lifts["h3"].sigma1)
        want = scale(unit2(C, "g", 1, "y" + "x" * (m + 1)), m * Q(b) * lam_m)
        assert classes_equal(C, rep, want)
        rep = cup_vector(C, hv["h1"], lifts["h4"].sigma1)
        want = scale(unit2(C, "g", 1, "xy" + "x" * m), -m * Q(b) * lam_m)
        assert classes_equal(C, rep, want)
        rep = cup_vector(C, hv["h3"], lifts["h4"].sigma1)
        want = scale(unit2(C, "g", 1, "x" * (2 * m + 1)), Q(b) * lam_m)
        assert classes_equal(C, rep, want)

    @pytest.mark.parametrize("n,m,a,b", [
        (1, 1, 0, 1), (1, 1, 0, -2), (1, 3, 0, 2), (1, 5, 0, -3),
        (1, 3, 0, 1), (1, 5, 0, 1)])
    def test_case_I_and_1_h2_products(self, n, m, a, b):
        inst = Instance(n, m, Q(a), Q(b))
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        rep = cup_vector(C, hv["h2"], lifts["h3"].sigma1)
        assert in_image(C, 2, rep)  # [h2 sigma3] = 0
        rep = cup_vector(C, hv["h2"], lifts["h4"].sigma1)
        want = scale(unit2(C, "g", 1, "xy" + "x" * m), -Q(b) * inst.lam(m))
        assert classes_equal(C, rep, want)

    def test_dropped_factor_documentation(self):
        # [h1 sigma4]: the m-less value fails for m > 1
        inst = Instance(1, 2, Q(1), Q(-1))
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        rep = cup_vector(C, hv["h1"], lifts["h4"].sigma1)
        bare = scale(unit2(C, "g", 1, "xyxx"), -Q(-1) * inst.lam(2))
        assert not classes_equal(C, rep, bare)
        # [h2 sigma4]: the lambda-less value fails when lambda_m != 1
        inst = Instance(1, 3, Q(0), Q(2))
        assert inst.lam(3) == 2
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        rep = cup_vector(C, hv["h2"], lifts["h4"].sigma1)
        bare = scale(unit2(C, "g", 1, "xyxxx"), -Q(2))
        assert not classes_equal(C, rep, bare)

    @pytest.mark.parametrize("n,m,a,b", [
        (1, 2, 2, -1), (1, 3, 2, -1), (1, 4, 6, -9), (1, 5, 2, -1)])
    def test_case_2_vanishing(self, n, m, a, b):
        inst = Instance(n, m, Q(a), Q(b))
        assert classify(inst)[1] == Cond2.CASE_2
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        assert in_image(C, 2, cup_vector(C, hv["h1"], lifts["h5"].sigma1))

    @pytest.mark.parametrize("b", [1, -2, 3])
    def test_one_one_case_1_products(self, b):
        inst = Instance(1, 1, Q(0), Q(b))
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        bq = Q(b)

        def cls(p, q):
            return cup_vector(C, hv[p], lifts[q].sigma1)

        assert classes_equal(C, cls("h1", "h3p"),
                             scale(unit2(C, "f", 1, "yyx"), bq))
        assert classes_equal(C, cls("h1", "h4p"),
                             scale(unit2(C, "f", 1, "yxy"), -bq))
        assert classes_equal(C, cls("h2", "h4p"),
                             scale(unit2(C, "f", 1, "yxy"), -bq))
        assert classes_equal(C, cls("h3", "h4p"),
                             scale(unit2(C, "g", 1, "yxy"), -bq))
        assert classes_equal(C, cls("h4", "h3p"),
                             scale(unit2(C, "f", 1, "xyx"), -bq))
        assert classes_equal(C, cls("h3p", "h4p"),
                             scale(unit2(C, "f", 1, "yyy"), -bq))
        for p, q in [("h2", "h3p"), ("h4", "h4p"), ("h3", "h3p")]:
            assert in_image(C, 2, cls(p, q)), (p, q)

    @pytest.mark.parametrize("a,b", [(2, -1), (4, -4), (-2, -1)])
    def test_one_one_case_2_vanishing(self, a, b):
        inst = Instance(1, 1, Q(a), Q(b))
        assert classify(inst) == (Cond1.CASE_II, Cond2.CASE_2)
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        lifts = closed_form_lifts(C)
        assert in_image(C, 2, cup_vector(C, hv["h1"], lifts["h5p"].sigma1))
        assert in_image(C, 2, cup_vector(C, hv["h5"], lifts["h5p"].sigma1))


def ref_all_products(C):
    """Every ordered product [h_p][h_q] of the HH^1 basis, squares and
    reversed pairs included: a generic lift of every class and one
    cup_class per ordered pair."""
    hv = dict(hh1_basis(C))
    sigma1 = {q: generic_lift(C, v).sigma1 for q, v in hv.items()}
    return {(p, q): cup_class(C, hv[p], sigma1[q]) for p in hv for q in hv}


def read_pairs(labels):
    """The products ring_structure computes: p before q, in label order."""
    return [(labels[i], labels[j]) for i, j in _pairs(len(labels))]


class TestRingStructure:
    @pytest.mark.parametrize("inst", coprime_instances(9), ids=lambda i: i.key())
    def test_graded_commutativity(self, inst):
        C = HomComplex(inst)
        rs = ring_structure(C)
        labels = rs["labels"]
        prods = ref_all_products(C)
        assert list(rs["products"]) == read_pairs(labels)
        for p in labels:
            assert all(c == 0 for c in prods[(p, p)]), p  # squares vanish
            for q in labels:
                assert prods[(p, q)] == scale(prods[(q, p)], -1), (p, q)
        for pq, coords in rs["products"].items():
            assert coords == prods[pq], pq

    @pytest.mark.parametrize("inst", coprime_instances(9), ids=lambda i: i.key())
    def test_presentation_dimension_count(self, inst):
        C = HomComplex(inst)
        pres = ring_presentation(C)
        h1, h2 = hh_dims_computed(C)[1:]
        assert pres["a"] == h1
        npairs = len(pres["pairs"])
        assert npairs - len(pres["ideal"]) + pres["b"] == h2

    def test_one_one_products_span_everything(self):
        # at (1,1) Case I the six generators multiply onto all of HH^2
        C = HomComplex(Instance(1, 1, Q(0), Q(1)))
        pres = ring_presentation(C)
        assert (pres["a"], pres["b"]) == (6, 0)
        assert pres["rank"] == 9
        assert len(pres["ideal"]) == 6

    def test_every_ring_table_lift_commutes_and_induces_its_cocycle(
            self, monkeypatch, capsys):
        # the ring table of the benchmark lifts no chain map; the right
        # factor of every product cochain it resolves lifts to a chain map
        # that induces its cocycle, and the cochain is phi_p . sigma_1^q
        made, lifted = [], []

        def recording(C, phi, psi):
            out = product_cochain(C, phi, psi)
            made.append((C, phi, psi, list(out)))
            return out

        def refused(*args, **kwargs):
            lifted.append(args)
            raise AssertionError("the ring table lifted a chain map")

        product_cochain = yoneda._product_cochain
        monkeypatch.setattr(yoneda, "_product_cochain", recording)
        monkeypatch.setattr(yoneda, "generic_lift", refused)
        monkeypatch.setattr(resolution.Resolution, "contract", refused)
        assert main(["table", "--which", "ring", "--max-sum", "8"]) == 0
        capsys.readouterr()
        monkeypatch.undo()
        assert lifted == []
        assert len({id(C) for C, *_ in made}) == 16
        right = {}
        for C, phi, psi, out in made:
            right.setdefault((id(C), tuple(psi)), (C, psi))
        assert len(right) == 31  # every label but the first, per complex
        lifts = {key: generic_lift(C, psi) for key, (C, psi) in right.items()}
        for cm, (C, psi) in zip(lifts.values(), right.values()):
            assert cm.verify(), C.inst.key()
            assert cm.induced_vector() == psi, C.inst.key()
        for C, phi, psi, out in made:
            cm = lifts[(id(C), tuple(psi))]
            assert out == cup_vector(C, phi, cm.sigma1), C.inst.key()


class TestBatchedProducts:
    @pytest.mark.parametrize("inst", coprime_instances(8), ids=lambda i: i.key())
    def test_products_equal_per_pair_cup_class(self, inst):
        C = HomComplex(inst)
        rs = ring_structure(C)
        hv = dict(hh1_basis(C))
        ref = ref_all_products(C)
        assert set(ref) == {(p, q) for p in hv for q in hv}
        assert list(rs["products"]) == read_pairs(list(hv))
        for (p, q), coords in rs["products"].items():
            assert coords == ref[(p, q)], (p, q)

    @pytest.mark.parametrize("inst,a", [
        (Instance(2, 3, Q(1), Q(1)), 1), (Instance(1, 2, Q(1), Q(1)), 1),
        (Instance(3, 5, Q(0), Q(1)), 2), (Instance(1, 1, Q(0), Q(1)), 6)],
        ids=lambda x: x.key() if isinstance(x, Instance) else str(x))
    def test_only_the_read_products_are_computed(self, monkeypatch, inst, a):
        # no lift and no pairing: a(a-1)/2 product cochains and two
        # eliminations, of D2^T and of the basis classes modulo im D2; a
        # single label skips all of them
        calls = {"lift": 0, "cup": 0, "cochain": 0, "elim": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        C = HomComplex(inst)
        monkeypatch.setattr("downup_hh.yoneda.generic_lift",
                            counted("lift", generic_lift))
        monkeypatch.setattr("downup_hh.yoneda.cup_vector",
                            counted("cup", cup_vector))
        monkeypatch.setattr("downup_hh.yoneda._product_cochain",
                            counted("cochain", yoneda._product_cochain))
        kernel = counted("elim", linalg._gauss_jordan)  # both call sites
        monkeypatch.setattr(linalg, "_gauss_jordan", kernel)
        monkeypatch.setattr(resolution, "_gauss_jordan", kernel)
        rs = ring_structure(C)
        assert len(rs["labels"]) == a
        assert calls == {"lift": 0, "cup": 0, "cochain": a * (a - 1) // 2,
                         "elim": 2 * (a >= 2)}
        if a == 1:
            assert rs["products"] == {}
            assert ring_presentation(C)["ideal"] == []
            assert calls["elim"] == 0  # nor does the presentation eliminate

    @pytest.mark.parametrize("inst", [Instance(2, 3, Q(1), Q(1)),
                                      Instance(1, 3, Q(0), Q(1))],
                             ids=lambda i: i.key())
    def test_a_non_cocycle_basis_vector_is_refused(self, monkeypatch, inst):
        # no label is lifted and the product rule holds for cocycles only,
        # so only the cocycle decision can catch a fault in the first label
        C = HomComplex(inst)
        bad = [Q(0)] * len(C.basis1)
        bad[0] = Q(1)  # tau[x1]^x alone is not a cocycle
        basis = hh1_basis(C)
        patched = [(basis[0][0], [x + y for x, y in zip(basis[0][1], bad)])]
        for site in ("yoneda", "cohomology"):  # the cocycle decision's too
            monkeypatch.setattr(f"downup_hh.{site}.hh1_basis",
                                lambda C: patched + basis[1:])
        with pytest.raises(ValueError, match="not a 1-cocycle"):
            ring_structure(C)

    def test_a_product_outside_the_basis_span_is_refused(self, monkeypatch):
        # at (1,1) Case I the products span HH^2, so some product needs the
        # basis vector that the patched basis leaves out
        monkeypatch.setattr("downup_hh.yoneda.hh2_basis",
                            lambda C: hh2_basis(C)[:-1])
        C = HomComplex(Instance(1, 1, Q(0), Q(1)))
        with pytest.raises(AssertionError, match="outside the HH\\^2 basis span"):
            ring_structure(C)


def random_parameter_points():
    """Three seeded (alpha, beta) at each coprime weight pair with
    n + m <= 12, the first with alpha = 0."""
    rng = random.Random(31)
    points = []
    for n, m in coprime_weights(12):
        for k in range(3):
            alpha = Q(rng.randint(-5, 5), rng.randint(1, 4)) if k else Q(0)
            beta = Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            points.append(Instance(n, m, alpha, beta))
    return points


class TestProductRule:
    """_product_cochain(C, phi, psi) is phi . sigma_1 for the left-slot
    generic lifting sigma of psi, entry for entry, for 1-cocycles phi and
    psi."""

    @pytest.mark.parametrize("inst", coprime_instances(12), ids=lambda i: i.key())
    def test_equals_the_cup_with_a_generic_lift(self, inst):
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        for q, psi in hv.items():
            sigma1 = generic_lift(C, psi).sigma1
            for p, phi in hv.items():
                if p != q:
                    assert (yoneda._product_cochain(C, phi, psi)
                            == cup_vector(C, phi, sigma1)), (p, q)

    def test_the_random_points_hold_alpha_zero(self):
        points = random_parameter_points()
        assert len(points) == 3 * len(coprime_weights(12)) == 69
        assert sum(inst.alpha == 0 for inst in points) >= len(points) // 3
        assert len(set(points)) == len(points)

    @pytest.mark.parametrize("inst", random_parameter_points(),
                             ids=lambda i: i.key())
    def test_at_random_parameters_and_cocycles(self, inst):
        # the basis vectors and each one plus a random coboundary D1 x, every
        # ordered pair: the rule needs cocycles, not basis vectors
        rng = random.Random(inst.key())
        C = HomComplex(inst)
        basis = [v for _, v in hh1_basis(C)]
        dx = times(C.D1, [Q(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in C.basis0])
        cocycles = basis + [[x + y for x, y in zip(v, dx)] for v in basis]
        assert is_cocycle(C, cocycles)
        for psi in cocycles:
            sigma1 = generic_lift(C, psi).sigma1
            for phi in cocycles:
                assert (yoneda._product_cochain(C, phi, psi)
                        == cup_vector(C, phi, sigma1))


def ref_cup_vector(C, phi_vec, sigma1):
    """The dense pairing: sigma_1 pulls back every functional, and the
    products where phi is zero are dropped afterwards."""
    out = [0] * len(C.basis2)
    for row, tau, c in C.res.pair(sigma1.get, sigma1):
        a = phi_vec[C.idx1[tau]]
        if a:
            out[C.idx2[row]] += a * c
    return out


class TestSparsePairing:
    """cup_vector pairs sigma_1 only against the support of phi."""

    def test_the_sweep_holds_a_fraction_parameter_point(self):
        assert Instance(1, 3, Q(1), Q(-1, 2)) in coprime_instances(8)

    @pytest.mark.parametrize("inst", coprime_instances(8), ids=lambda i: i.key())
    def test_agrees_with_the_dense_pairing(self, inst):
        C = HomComplex(inst)
        hv = dict(hh1_basis(C))
        sigma1 = {q: generic_lift(C, v).sigma1 for q, v in hv.items()}
        for p, phi in hv.items():
            for q, s1 in sigma1.items():
                assert cup_vector(C, phi, s1) == ref_cup_vector(C, phi, s1), (p, q)

    @pytest.mark.parametrize("inst", coprime_instances(8), ids=lambda i: i.key())
    def test_agrees_on_a_dense_support(self, inst):
        # a basis vector plus the coboundary D1 x of a random x: the support
        # of phi covers every functional that D1 reaches
        rng = random.Random(inst.key())
        C = HomComplex(inst)
        basis = hh1_basis(C)
        dx = times(C.D1, [Q(rng.randint(1, 5), rng.randint(1, 3))
                          for _ in C.basis0])
        for lbl, v in basis:
            phi = [x + y for x, y in zip(v, dx)]
            assert sum(1 for x in phi if x) > sum(1 for x in v if x)
            for s1 in (generic_lift(C, phi).sigma1,
                       generic_lift(C, v, "right").sigma1):
                assert cup_vector(C, phi, s1) == ref_cup_vector(C, phi, s1), lbl
                assert cup_vector(C, v, s1) == ref_cup_vector(C, v, s1), lbl


class TestRingTableRows:
    @pytest.mark.parametrize("inst", coprime_instances(9), ids=lambda i: i.key())
    def test_rows_against_computation(self, inst):
        C = HomComplex(inst)
        rep = ring_row_report(C)
        assert rep["dims_match"]
        if ring_row_defect_expected(inst):
            # printed I = {0} cannot present the ring: it contradicts the
            # dimension of HH^2, and indeed [h1][h5] = 0 forces s1 s2 in I
            assert not rep["ideal_match"]
            assert not rep["ideal_match_after_rescale"]
            assert not rep["row_self_consistent"]
            assert rep["presentation"]["ideal"] != []
        else:
            assert rep["row_self_consistent"]
            assert rep["ideal_match_after_rescale"]

    def test_exact_match_strata(self):
        for args in [(1, 1, 0, 1), (1, 1, 2, -1), (1, 1, 1, 1),
                     (1, 2, 1, -1), (1, 2, 1, 1), (2, 3, 0, 1),
                     (3, 5, 0, 1), (3, 4, 1, 1)]:
            n, m, a, b = args
            C = HomComplex(Instance(n, m, Q(a), Q(b)))
            assert ring_row_report(C)["ideal_match"], args

    def test_rescale_needed_for_case_I_relation(self):
        # computed relation s1 s4 - m * s2 s4 vs printed s1 s4 - s2 s4:
        # equal only after rescaling s2, an automorphism of the exterior
        # algebra, so the row is accepted with a recorded rescale witness
        C = HomComplex(Instance(1, 3, Q(0), Q(1)))
        rep = ring_row_report(C)
        assert not rep["ideal_match"]
        assert rep["ideal_match_after_rescale"]
        assert rep["rescale"] == (1, 3, 1, 1)
        pres = rep["presentation"]
        pairs = pres["pairs"]
        lbl = pres["labels"]
        i14 = pairs.index((lbl.index("h1"), lbl.index("h4")))
        i24 = pairs.index((lbl.index("h2"), lbl.index("h4")))
        i23 = pairs.index((lbl.index("h2"), lbl.index("h3")))
        want = []
        v = [Q(0)] * len(pairs)
        v[i14], v[i24] = Q(1), Q(-3)
        want.append(v)
        v = [Q(0)] * len(pairs)
        v[i23] = Q(1)
        want.append(v)
        assert sorted(pres["ideal"]) == sorted(want)

    def test_defect_rows_fail_their_own_dimension_count(self):
        for args in [(1, 2, 2, -1), (1, 3, 2, -1), (1, 5, 2, -1)]:
            n, m, a, b = args
            inst = Instance(n, m, Q(a), Q(b))
            assert ring_row_defect_expected(inst)
            row = ring_table_row(inst)
            C = HomComplex(inst)
            h2 = hh_dims_computed(C)[2]
            ncomb = row["a"] * (row["a"] - 1) // 2
            assert ncomb - len(row["ideal"]) + row["b"] != h2
            # and the computed ideal is exactly {s1 s2}
            pres = ring_presentation(C)
            assert pres["ideal"] == [[Q(1)]]

    def test_every_sweep_stratum_has_a_row(self):
        for inst in coprime_instances(9):
            row = ring_table_row(inst)
            assert row["a"] >= 1 and row["b"] >= 0


def ref_rescale_search(printed, computed, a, pairs):
    """Search diagonal rescalings c (c_0 = 1) with span(c.printed) = computed.

    Candidate values for each c_p are ratios of nonzero coefficients seen in
    the computed ideal, their inverses and negatives; this is finite and
    covers the lambda-proportional relations that arise here.
    """
    if len(printed) != len(computed):
        return False, None
    cands = {Q(1), Q(-1)}
    for v in computed + printed:
        nz = [c for c in v if c]
        for x in nz:
            for y in nz:
                r = Q(x) / y
                cands.update({r, -r, 1 / r, -1 / r})
    cands = sorted(cands)
    if len(cands) ** max(a - 1, 0) > 100000:
        return False, None

    def search(scales):
        if len(scales) == a:
            scaled = [[v[t] * scales[i] * scales[j]
                       for t, (i, j) in enumerate(pairs)]
                      for v in printed]
            if _row_space(scaled) == computed:
                return tuple(scales)
            return None
        for c in cands:
            hit = search(scales + [c])
            if hit:
                return hit
        return None

    hit = search([Q(1)])
    return (True, hit) if hit else (False, None)


def rescaled(rows, c, pairs):
    return [[u * c[i] * c[j] for u, (i, j) in zip(row, pairs)]
            for row in rows]


@st.composite
def shared_index_ideals(draw):
    """(a, reduced echelon rows) whose off-pivot entries all share an index
    with their pivot's pair."""
    a = draw(st.integers(2, 6))
    pairs = _pairs(a)
    pivots = sorted(draw(st.sets(st.integers(0, len(pairs) - 1),
                                 max_size=len(pairs))))
    coeff = st.fractions(-5, 5, max_denominator=4)
    rows = []
    for p in pivots:
        row = [Q(0)] * len(pairs)
        row[p] = Q(1)
        for t in range(p + 1, len(pairs)):
            if t not in pivots and set(pairs[t]) & set(pairs[p]):
                row[t] = draw(coeff)
        rows.append(row)
    return a, rows


class TestRescale:
    """The diagonal rescaling read off the reduced ideals."""

    @pytest.mark.parametrize("inst", coprime_instances(16), ids=lambda i: i.key())
    def test_verdict_equals_the_search(self, inst):
        rep = ring_row_report(HomComplex(inst))
        pres = rep["presentation"]
        found, _ = (ref_rescale_search(rep["printed"], pres["ideal"],
                                       pres["a"], pres["pairs"])
                    if rep["dims_match"] and not rep["ideal_match"]
                    else (False, None))
        assert rep["ideal_match_after_rescale"] == (rep["ideal_match"]
                                                    or found)
        assert (rep["rescale"] is not None) == found
        if found:
            assert _row_space(rescaled(rep["printed"], rep["rescale"],
                                       pres["pairs"])) == pres["ideal"]

    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_case_I_witness_scales_only_h2(self, m):
        rep = ring_row_report(HomComplex(Instance(1, m, Q(0), Q(1))))
        assert rep["presentation"]["labels"] == ["h1", "h2", "h3", "h4"]
        assert rep["rescale"] == (1, m, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(shared_index_ideals(), st.data())
    def test_finds_a_scaling_of_a_scaled_ideal(self, ideal, data):
        a, rows = ideal
        pairs = _pairs(a)
        assert _row_space(rows) == rows
        nonzero = st.fractions(-6, 6, max_denominator=3).filter(bool)
        c = [Q(1)] + [data.draw(nonzero) for _ in range(a - 1)]
        computed = _row_space(rescaled(rows, c, pairs))
        got = _rescale(rows, computed, a, pairs)
        assert got is not None and got[0] == 1
        assert _row_space(rescaled(rows, got, pairs)) == computed

    def test_conflicting_ratios_give_none(self):
        # over s1s2, s1s3, s1s4, s2s3, s2s4, s3s4: the first row fixes
        # c3/c2 = 1 and c3/c1 = 2, the second c2/c1 = 1
        pairs = _pairs(4)
        printed = [[Q(x) for x in row] for row in
                   ([1, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 0])]
        computed = [[Q(x) for x in row] for row in
                    ([1, 1, 0, 2, 0, 0], [0, 0, 1, 0, 1, 0])]
        assert _rescale(printed, computed, 4, pairs) is None
        assert ref_rescale_search(printed, computed, 4, pairs) == (False,
                                                                   None)

    def test_different_supports_or_sizes_give_none(self):
        pairs = _pairs(3)
        one = [[Q(1), Q(1), Q(0)]]
        assert _rescale(one, [[Q(1), Q(0), Q(0)]], 3, pairs) is None
        assert _rescale(one, [[Q(0), Q(1), Q(0)]], 3, pairs) is None
        assert _rescale(one, [], 3, pairs) is None

    def test_a_pair_sharing_no_index_with_its_pivot_raises(self):
        # s1s2 + s3s4 scales by c3 c4 / (c1 c2), not by one ratio
        pairs = _pairs(4)
        printed = [[Q(1), Q(0), Q(0), Q(0), Q(0), Q(1)]]
        computed = [[Q(1), Q(0), Q(0), Q(0), Q(0), Q(2)]]
        with pytest.raises(ValueError, match="shares no index"):
            _rescale(printed, computed, 4, pairs)

    def test_a_duplicated_stored_generator_still_matches(self, monkeypatch):
        row = ring_table_row(Instance(1, 3, Q(0), Q(1)))
        doubled = {**row, "ideal": row["ideal"] + row["ideal"][:1]}
        monkeypatch.setattr("downup_hh.yoneda.ring_table_row",
                            lambda inst: doubled)
        rep = ring_row_report(HomComplex(Instance(1, 3, Q(0), Q(1))))
        assert rep["ideal_match_after_rescale"]
        assert rep["rescale"] == (1, 3, 1, 1)
        assert len(rep["printed"]) == 3


class TestCochainApplication:
    def test_cup_class_coordinates(self):
        C = HomComplex(Instance(1, 2, Q(1), Q(-1)))
        hv = dict(hh1_basis(C))
        cm = generic_lift(C, hv["h3"])
        coords = cup_class(C, hv["h1"], cm.sigma1)
        labels = [l for l, _ in hh2_basis(C)]
        nz = {l: c for l, c in zip(labels, coords) if c}
        assert nz == {"g1^yxxx": Q(-2)}


# -- exactness: every value an int or a Fraction, never a float -------------

def exactness_sweep():
    """Every sampled instance with n + m <= 8, and the Case 2 points where
    alpha is an integer but alpha / 2 or beta is not."""
    return coprime_instances(8) + [Instance(1, 1, Q(3), Q(-9, 4)), Instance(1, 2, Q(3), Q(-9, 4)),
                  Instance(1, 3, Q(1), Q(-1, 4))]


def inexact(values):
    return [x for x in values if type(x) not in (int, Q)]


def non_ints(values):
    return [x for x in values if type(x) is not int]


def chain_map_values(cm):
    return [c for el in (*cm.sigma0.values(), *cm.sigma1.values())
            for c in el.values()]


class TestExactValues:
    def test_the_sweep_holds_the_case_2_points(self):
        points = exactness_sweep()[-3:]
        assert all(classify(inst)[1] == Cond2.CASE_2 for inst in points)
        assert all(inst.alpha.denominator == 1 for inst in points)

    @pytest.mark.parametrize("inst", exactness_sweep(), ids=lambda i: i.key())
    def test_no_float_reaches_a_matrix_or_a_cochain(self, inst):
        C = HomComplex(inst)
        one = hh1_basis(C)
        bases = hh0_basis(C) + one + hh2_basis(C)
        generic = [generic_lift(C, v, side)
                   for _, v in one for side in ("left", "right")]
        lifts = list(closed_form_lifts(C).values()) + generic
        cups = [cup_vector(C, phi, cm.sigma1) for _, phi in one
                for cm in generic[::2]]  # the left lifts
        cups += [yoneda._product_cochain(C, phi, psi)
                 for _, phi in one for _, psi in one]
        cokers = ([C.coker(1, v) for _, v in one]
                  + [C.coker(2, v) for v in cups + [v for _, v in hh2_basis(C)]])
        assert inexact(x for D in (C.D1, C.D2) for row in D.rows for x in row) == []
        assert inexact(x for _, v in bases for x in v) == []
        assert inexact(x for cm in lifts for x in chain_map_values(cm)) == []
        assert inexact(x for v in cups + cokers for x in v) == []

    @pytest.mark.parametrize(
        "inst", [i for i in exactness_sweep()
                 if i.alpha.denominator == i.beta.denominator == 1],
        ids=lambda i: i.key())
    def test_integral_parameters_give_ints_throughout(self, inst):
        # beta = +-1 on every such point, so even lambda_{-1} = 1/beta is one
        assert inst.beta in (1, -1)
        C = HomComplex(inst)
        one = hh1_basis(C)
        generic = [generic_lift(C, v, side)
                   for _, v in one for side in ("left", "right")]
        lifts = list(closed_form_lifts(C).values()) + generic
        cups = [cup_vector(C, phi, cm.sigma1) for _, phi in one
                for cm in generic]
        cups += [yoneda._product_cochain(C, phi, psi)
                 for _, phi in one for _, psi in one]
        cokers = ([C.coker(1, v) for _, v in one]
                  + [C.coker(2, v) for v in cups + [v for _, v in hh2_basis(C)]])
        assert non_ints([inst.lam(r) for r in range(-1, inst.m + 3)]) == []
        assert non_ints(x for _, v in hh0_basis(C) + one + hh2_basis(C)
                        for x in v) == []
        assert non_ints(x for cm in lifts for x in chain_map_values(cm)) == []
        assert non_ints(x for v in cups + cokers for x in v) == []
        if inst.n == 1:
            assert non_ints(x for row in L2_display(inst).rows for x in row) == []
