"""Cartan-matrix invariants: Serre action, Coxeter trace, Happel's formula."""

import math

import pytest

from downup_hh import invariants
from downup_hh.core import Instance, Q
from downup_hh.cohomology import (
    euler_characteristic_closed_form,
    sample_instances,
)
from downup_hh.invariants import (
    cartan_matrix,
    derived_invariants,
    happel_trace_check,
    hilbert_numerator,
    serre_matrix,
    serre_unipotent,
    unipotent_closed_form,
)
from downup_hh.linalg import QMatrix
from downup_hh.resolution import HomComplex
from test_linalg import is_zero


def coprime_weights(max_sum):
    return [(n, m) for m in range(1, max_sum) for n in range(1, m + 1)
            if n + m <= max_sum and math.gcd(n, m) == 1]


WEIGHTS = coprime_weights(13)

UNIPOTENT_WEIGHTS = {(1, 1), (1, 2)}


def an_instance(n, m):
    return Instance(n, m, Q(1), Q(-1))


def ref_unipotent(s):
    """The matrix-power verdict (s - 1)^ell = 0: the reference for the
    divisibility verdict of derived_invariants."""
    minus_one = QMatrix([[x - (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate(s.rows)])
    return is_zero(minus_one.pow(s.nrows))


def ref_coxeter_matrix(inst):
    """Phi = -C^{-T} C, with C^{-1} by elimination."""
    C = cartan_matrix(inst)
    phi = C.inverse().transpose() @ C
    return QMatrix([[-x for x in row] for row in phi.rows])


def ref_euler_characteristic_trace(inst):
    """The alternating HH-dimension sum as -tr of the Coxeter matrix: the
    reference for the Serre trace of derived_invariants."""
    return -ref_coxeter_matrix(inst).trace()


def ref_euler_characteristic(n, m):
    """1 - h1 + h2 as a stratum table: the reference for the arithmetic
    closed form."""
    if n == 1:
        return {1: 4, 2: 6}.get(m, m + 2)
    return m + 4 if n == 2 else n + m


def eval_matrix(p, M):
    """p(M) by Horner's rule, p's coefficients lowest degree first, for the
    Cayley-Hamilton checks."""
    acc = QMatrix.zeros(M.nrows, M.ncols)
    for c in reversed(p):
        acc = acc @ M
        for i in range(M.nrows):
            acc.rows[i][i] += c
    return acc


class TestCartan:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_unitriangular(self, n, m):
        M = cartan_matrix(an_instance(n, m))
        ell = 2 * (n + m)
        assert M.shape == (ell, ell)
        for p in range(ell):
            assert M.rows[p][p] == 1
            for q in range(p):
                assert M.rows[p][q] == 0
        assert M.det() == 1

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 3), (1, 4)])
    def test_independent_of_parameters(self, n, m):
        insts = [Instance(n, m, Q(0), Q(1)), Instance(n, m, Q(2), Q(-1)),
                 Instance(n, m, Q(1), Q(-3, 7))]
        mats = [cartan_matrix(i) for i in insts]
        assert mats[0].rows == mats[1].rows == mats[2].rows


def banded_inverse(n, m):
    """The banded Toeplitz matrix of (1-t^n)(1-t^m)(1-t^{n+m})."""
    ell, band = 2 * (n + m), hilbert_numerator(n, m)
    return QMatrix([[band[v - u] if v >= u else 0 for v in range(ell)]
                    for u in range(ell)])


class TestClosedFormInverse:
    @pytest.mark.parametrize("n,m", [(n, m) for n, m in WEIGHTS if n + m <= 12])
    def test_banded_inverse_equals_the_eliminated_inverse(self, n, m):
        C = cartan_matrix(an_instance(n, m))
        assert banded_inverse(n, m) == C.inverse()

    @pytest.mark.parametrize("u,v", [(0, 0), (0, 5), (3, 9), (2, 1)])
    def test_certificate_rejects_a_perturbed_cartan_matrix(self, monkeypatch,
                                                           u, v):
        # (0,0) and (2,1) break unitriangularity, (0,5) and (3,9) the
        # product C T^{-ell} = C^T.
        def perturbed(inst):
            C = cartan_matrix(inst)
            C.rows[u][v] += 1
            return C

        monkeypatch.setattr(invariants, "cartan_matrix", perturbed)
        with pytest.raises(AssertionError):
            serre_matrix(an_instance(2, 5))

    @pytest.mark.parametrize("n,m", [(7, 9), (1, 15)])
    def test_cayley_hamilton_for_the_serre_matrix(self, n, m):
        s = serre_matrix(an_instance(n, m))
        assert is_zero(eval_matrix(s.char_poly(), s))


class TestTraces:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_serre_trace_equals_minus_coxeter_trace(self, n, m):
        inst = an_instance(n, m)
        s = serre_matrix(inst)
        phi = ref_coxeter_matrix(inst)
        assert (s.trace() == -phi.trace()
                == ref_euler_characteristic_trace(inst))

    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_trace_matches_closed_form_euler_characteristic(self, n, m):
        inst = an_instance(n, m)
        chi = ref_euler_characteristic_trace(inst)
        assert chi == Q(euler_characteristic_closed_form(inst))

    @pytest.mark.parametrize("inst", [i for n, m in WEIGHTS if n + m <= 8
                                      for i in sample_instances(n, m)],
                             ids=lambda i: i.key())
    def test_happel_formula_against_direct_computation(self, inst):
        chk = happel_trace_check(HomComplex(inst))
        assert chk["match"], chk


class TestUnipotence:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_unipotent_exactly_at_the_two_small_weights(self, n, m):
        assert serre_unipotent(an_instance(n, m)) == ((n, m) in UNIPOTENT_WEIGHTS)

    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_trace_matches_rank_exactly_when_unipotent(self, n, m):
        inv = derived_invariants(an_instance(n, m))
        assert inv["rank_K0"] == 2 * (n + m)
        assert inv["trace_matches_rank"] == inv["serre_unipotent"]
        assert inv["serre_unipotent"] == ((n, m) in UNIPOTENT_WEIGHTS)
        assert inv["serre_unipotent"] == unipotent_closed_form(n, m)
        # Results are kept per weight pair: every stratum sample must agree
        # with the direct computation on that very instance.
        for inst in sample_instances(n, m) if n + m <= 7 else []:
            got = derived_invariants(inst)
            assert got["serre_unipotent"] == ref_unipotent(serre_matrix(inst)), \
                inst.key()
            assert got["chi_trace"] == ref_euler_characteristic_trace(inst), \
                inst.key()

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
    def test_surface_obstruction_for_interior_weights(self, n, m):
        # m > n > 1: the trace falls short of rank K_0, so the Serre action
        # cannot be unipotent and no smooth projective surface model exists.
        inv = derived_invariants(an_instance(n, m))
        assert not inv["trace_matches_rank"]
        assert inv["chi_trace"] == Q(m + 4 if n == 2 else n + m)
        assert type(inv["chi_trace"]) is int  # the trace of an integral s


class TestGorensteinShift:
    """s = C^{-1} C^T is T^{-ell} for the companion matrix T of
    p = (1-t^n)(1-t^m)(1-t^{n+m}), certified inside serre_matrix."""

    @pytest.fixture
    def fresh(self):
        invariants._invariants.cache_clear()
        yield
        invariants._invariants.cache_clear()

    def test_serre_matrix_is_the_gorenstein_shift(self):
        weights = coprime_weights(16)
        assert len(weights) == 40
        for n, m in weights:
            inst = an_instance(n, m)
            C = cartan_matrix(inst)
            assert serre_matrix(inst) == C.inverse() @ C.transpose(), (n, m)

    def test_hilbert_numerator_is_the_banded_inverse(self):
        p = hilbert_numerator(2, 3)
        assert p == (1, 0, -1, -1, 0, 0, 0, 1, 1, 0, -1)
        assert list(p[:-1]) == cartan_matrix(an_instance(2, 3)).inverse().rows[0]

    @pytest.mark.parametrize("u,v", [(0, 0), (0, 9), (4, 2), (13, 13)])
    def test_certificate_rejects_a_perturbed_gorenstein_shift(
            self, fresh, monkeypatch, u, v):
        true_shift = invariants.gorenstein_shift

        def perturbed(p):
            rows = true_shift(p)
            rows[u][v] += 1
            return rows

        monkeypatch.setattr(invariants, "gorenstein_shift", perturbed)
        with pytest.raises(AssertionError, match="T\\^-ell"):
            derived_invariants(an_instance(3, 4))

    def test_no_matrix_power_and_one_product_per_weight_pair(self, fresh,
                                                             monkeypatch):
        def refuse(self, k):
            raise AssertionError("derived_invariants took a matrix power")

        products = []
        matmul = QMatrix.__matmul__

        def counted(a, b):
            products.append((a.shape, b.shape))
            return matmul(a, b)

        monkeypatch.setattr(QMatrix, "pow", refuse)
        monkeypatch.setattr(QMatrix, "__matmul__", counted)
        pairs = [(1, 1), (1, 2), (2, 3), (3, 8), (7, 9)]
        for n, m in pairs:
            ell = 2 * (n + m)
            before = len(products)
            got = derived_invariants(an_instance(n, m))
            assert got["serre_unipotent"] == ((n, m) in UNIPOTENT_WEIGHTS)
            assert products[before:] == [((ell, ell), (ell, ell))]
            derived_invariants(Instance(n, m, Q(2), Q(3)))
        assert len(products) == len(pairs)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 3)])
    def test_a_wrong_char_poly_breaks_the_unipotence_cross_check(
            self, fresh, monkeypatch, n, m):
        # At the unipotent (1,2) one perturbed coefficient moves the char
        # poly off (t - 1)^ell.  At (2,3) it is (t - 1)^8 (t^2 + t + 1),
        # nine coefficients away from (t - 1)^10, so no single perturbation
        # can reach it: there the fake claims (t - 1)^ell outright.
        true_char_poly, ell = QMatrix.char_poly, 2 * (n + m)

        def perturbed(self):
            if (n, m) == (2, 3):
                return [Q((-1) ** (ell - k) * math.comb(ell, k))
                        for k in range(ell + 1)]
            p = true_char_poly(self)
            p[0] += 1
            return p

        monkeypatch.setattr(QMatrix, "char_poly", perturbed)
        with pytest.raises(AssertionError, match="unipotence criteria disagree"):
            invariants._invariants(n, m)

    @pytest.mark.parametrize("n,m", coprime_weights(12))
    def test_divisibility_verdict_equals_the_matrix_power(self, n, m):
        inst = an_instance(n, m)
        assert serre_unipotent(inst) == ref_unipotent(serre_matrix(inst))


class TestClosedForms:
    """The arithmetic closed forms against the stratum tables they replaced."""

    WIDE = coprime_weights(60)

    def test_euler_characteristic_formula_equals_the_table(self):
        for n, m in self.WIDE:
            assert (euler_characteristic_closed_form(an_instance(n, m))
                    == ref_euler_characteristic(n, m)), (n, m)

    def test_unipotency_formula_equals_the_table(self):
        for n, m in self.WIDE:
            assert unipotent_closed_form(n, m) == ((n, m) in UNIPOTENT_WEIGHTS), \
                (n, m)
