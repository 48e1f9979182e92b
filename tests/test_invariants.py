"""Cartan-matrix invariants: Serre action, Coxeter trace, Happel's formula."""

import math

import pytest

from downup_hh.core import Instance, Q
from downup_hh.cohomology import (
    euler_characteristic_closed_form,
    sample_instances,
)
from downup_hh.invariants import (
    cartan_inverse,
    cartan_matrix,
    coxeter_matrix,
    derived_invariants,
    euler_characteristic_trace,
    happel_trace_check,
    serre_matrix,
    serre_unipotent,
    unipotent_closed_form,
)
from downup_hh.linalg import QMatrix
from downup_hh.resolution import HomComplex

WEIGHTS = [(n, m) for m in range(1, 13) for n in range(1, m + 1)
           if n + m <= 13 and math.gcd(n, m) == 1]

UNIPOTENT_WEIGHTS = {(1, 1), (1, 2)}


def an_instance(n, m):
    return Instance(n, m, Q(1), Q(-1))


def eval_matrix(p, M):
    """p(M) by Horner's rule, for the Cayley-Hamilton checks."""
    acc = QMatrix.zeros(M.nrows, M.ncols)
    for c in reversed(p.coeffs):
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


class TestClosedFormInverse:
    @pytest.mark.parametrize("n,m", [(n, m) for n, m in WEIGHTS if n + m <= 12])
    def test_banded_inverse_equals_the_eliminated_inverse(self, n, m):
        inst = an_instance(n, m)
        C = cartan_matrix(inst)
        assert cartan_inverse(inst, C) == C.inverse()

    @pytest.mark.parametrize("u,v", [(0, 0), (0, 5), (3, 9), (2, 1)])
    def test_certificate_rejects_a_perturbed_cartan_matrix(self, u, v):
        inst = an_instance(2, 5)
        C = cartan_matrix(inst)
        C.rows[u][v] += 1
        with pytest.raises(AssertionError):
            cartan_inverse(inst, C)

    @pytest.mark.parametrize("n,m", [(7, 9), (1, 15)])
    def test_cayley_hamilton_for_the_serre_matrix(self, n, m):
        s = serre_matrix(an_instance(n, m))
        assert eval_matrix(s.char_poly(), s).is_zero()


class TestTraces:
    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_serre_trace_equals_minus_coxeter_trace(self, n, m):
        inst = an_instance(n, m)
        s = serre_matrix(inst)
        phi = coxeter_matrix(inst)
        assert s.trace() == -phi.trace() == euler_characteristic_trace(inst)

    @pytest.mark.parametrize("n,m", WEIGHTS)
    def test_trace_matches_closed_form_euler_characteristic(self, n, m):
        inst = an_instance(n, m)
        chi = euler_characteristic_trace(inst)
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
            assert got["serre_unipotent"] == serre_unipotent(inst), inst.key()
            assert got["chi_trace"] == euler_characteristic_trace(inst), inst.key()

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
    def test_surface_obstruction_for_interior_weights(self, n, m):
        # m > n > 1: the trace falls short of rank K_0, so the Serre action
        # cannot be unipotent and no smooth projective surface model exists.
        inv = derived_invariants(an_instance(n, m))
        assert not inv["trace_matches_rank"]
        assert inv["chi_trace"] == Q(m + 4 if n == 2 else n + m)
