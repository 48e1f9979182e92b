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
from downup_hh.linalg import QMatrix, _dense, _nonzero
from downup_hh.resolution import HomComplex
from test_linalg import eval_matrix, is_zero


def coprime_weights(max_sum):
    """The coprime weights n <= m with n + m <= max_sum, by m and then n."""
    return [(n, m) for m in range(1, max_sum) for n in range(1, m + 1)
            if n + m <= max_sum and math.gcd(n, m) == 1]


def coprime_instances(max_sum):
    """Every sampled instance of coprime_weights(max_sum)."""
    return [inst for n, m in coprime_weights(max_sum)
            for inst in sample_instances(n, m)]


WEIGHTS = coprime_weights(13)

UNIPOTENT_WEIGHTS = {(1, 1), (1, 2)}


def an_instance(n, m):
    return Instance(n, m, Q(1), Q(-1))


def minus_one(s):
    """The nonzero rows of s - 1."""
    return [{j: x - (i == j) for j, x in enumerate(row) if x != (i == j)}
            for i, row in enumerate(s.rows)]


def ref_unipotent(s):
    """The matrix-power verdict (s - 1)^ell = 0: the reference for the
    divisibility verdict of derived_invariants."""
    return is_zero(QMatrix(_dense(minus_one(s), s.ncols)).pow(s.nrows))


def ref_divides(p):
    """p | (t^ell - 1)^ell, ell = deg p, by repeated squaring mod p over the
    integers (p's leading coefficient is a unit): the reference for the
    divisibility verdict of _unipotent, which divides only the cube."""
    ell = len(p) - 1

    def mulmod(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for i in range(len(out) - 1, ell - 1, -1):
            q = out[i] * p[-1]  # out[i] / p[-1], as p[-1] = +-1
            if q:
                for j, c in enumerate(p):
                    out[i - ell + j] -= q * c
        return out[:ell]

    base = mulmod([0] * ell + [1], [1])  # t^ell mod p
    base[0] -= 1
    acc, k = [1], ell
    while k:
        if k & 1:
            acc = mulmod(acc, base)
        base = mulmod(base, base)
        k >>= 1
    return not any(acc)


def stable_rank(s):
    """r_inf of N = s - 1: the ranks of N, N^2, ... fall strictly and then
    stop (Fitting's lemma); the value where they stop."""
    N = QMatrix(_dense(minus_one(s), s.ncols))
    power, rank = N, N.rank()
    while True:
        power = power @ N
        following = power.rank()
        if following == rank:
            return rank
        rank = following


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
    def test_a_wrong_nilpotency_witness_breaks_the_unipotence_cross_check(
            self, fresh, monkeypatch, n, m):
        # (1,2) is unipotent and (2,3) is not: a witness flipped either way
        # meets the divisibility verdict and must raise.
        witness = invariants._nilpotent
        monkeypatch.setattr(invariants, "_nilpotent",
                            lambda N: not witness(N))
        with pytest.raises(AssertionError, match="unipotence criteria disagree"):
            invariants._invariants(n, m)

    @pytest.mark.parametrize("ell", [1, 2, 3, 6, 12])
    def test_nilpotency_witness_on_the_shift_and_the_cycle(self, ell):
        # J^(ell-1) != 0 = J^ell, so a witness one product short calls the
        # shift J not nilpotent; J plus its corner is a cyclic permutation.
        J = [[int(i == j + 1) for j in range(ell)] for i in range(ell)]
        assert not is_zero(QMatrix(J).pow(ell - 1))
        assert invariants._nilpotent(_nonzero(J))
        cycle = [row[:] for row in J]
        cycle[0][ell - 1] += 1
        assert not invariants._nilpotent(_nonzero(cycle))
        assert invariants._nilpotent(_nonzero([[0] * ell for _ in range(ell)]))

    @pytest.mark.parametrize("n,m", coprime_weights(16))
    def test_nilpotency_witness_equals_the_berkowitz_verdict(self, n, m):
        s = serre_matrix(an_instance(n, m))
        ell = s.nrows
        berkowitz = s.char_poly() == [(-1) ** (ell - k) * math.comb(ell, k)
                                      for k in range(ell + 1)]  # (t - 1)^ell
        assert invariants._nilpotent(minus_one(s)) == berkowitz

    def test_the_cube_verdict_equals_the_power_and_the_closed_form(
            self, monkeypatch):
        # p | (t^ell - 1)^3 against p | (t^ell - 1)^ell by squaring.  The
        # witness, tested against Berkowitz above, is pinned to the closed
        # form here (it would take 2 s at n + m <= 40): _unipotent raises
        # unless its division verdict meets it, and returns that verdict.
        weights = coprime_weights(40)
        assert len(weights) == 245
        for n, m in weights:
            p = hilbert_numerator(n, m)
            monkeypatch.setattr(invariants, "_nilpotent",
                                lambda N: unipotent_closed_form(n, m))
            s = QMatrix(invariants.gorenstein_shift(p))
            assert invariants._unipotent(s, p) == ref_divides(p), (n, m)

    @pytest.mark.parametrize("k", range(6))
    def test_a_wrong_numerator_breaks_the_unipotence_cross_check(self, k):
        # (1,2) is unipotent; p with one coefficient below the leading one
        # changed no longer divides (t^6 - 1)^3, while the witness on s
        # still finds s - 1 nilpotent.
        p = list(hilbert_numerator(1, 2))
        p[k] += 1
        assert not ref_divides(p)
        with pytest.raises(AssertionError, match="unipotence criteria disagree"):
            invariants._unipotent(serre_matrix(an_instance(1, 2)), tuple(p))

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

    @pytest.mark.parametrize("n,m", coprime_weights(20))
    def test_generalized_one_eigenspace_in_closed_form(self, n, m):
        # ell - r_inf is the multiplicity of the eigenvalue 1 of s = T^-ell:
        # the roots zeta of p with ord zeta | ell, gcd(n, ell) + gcd(m, ell)
        # + gcd(n + m, ell) of them.
        r_inf = stable_rank(serre_matrix(an_instance(n, m)))
        assert 2 * (n + m) - r_inf == n + m + 2 + (n * m % 2 == 0)
        assert (r_inf == 0) == unipotent_closed_form(n, m)

    def test_unipotency_formula_equals_the_table(self):
        for n, m in self.WIDE:
            assert unipotent_closed_form(n, m) == ((n, m) in UNIPOTENT_WEIGHTS), \
                (n, m)
