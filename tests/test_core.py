"""Weights, parameters, the lambda sequence, and case classification."""

import pickle
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from downup_hh.core import (
    Cond1,
    Cond2,
    Instance,
    canonical_instance,
    classify,
    reduce_weights,
    swap_weight_params,
)

rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(1, 1, Q(1), Q(0))  # beta = 0
    with pytest.raises(ValueError):
        Instance(2, 1, Q(1), Q(1))  # n > m
    with pytest.raises(ValueError):
        Instance(2, 4, Q(1), Q(1))  # gcd > 1


def test_instance_is_an_immutable_value():
    inst = Instance(1, 2, 1, Q(-1))
    assert (inst.alpha, inst.beta) == (Q(1), Q(-1))
    for name in ("n", "alpha", "_lam_cache", "other"):
        with pytest.raises(AttributeError):
            setattr(inst, name, 3)
        with pytest.raises(AttributeError):
            delattr(inst, name)
    inst.lam(6)  # memoizing lambda changes neither equality nor hash
    same = Instance(1, 2, Q(1), Q(-1))
    assert inst == same and hash(inst) == hash(same)
    assert inst != Instance(1, 2, Q(1), Q(-2)) and inst != Instance(1, 3, Q(1), Q(-1))
    assert inst != (1, 2, Q(1), Q(-1)) and inst != "n=1 m=2 alpha=1 beta=-1"
    assert len({inst, same, Instance(1, 2, Q(2), Q(-1))}) == 2
    assert repr(inst) == "Instance(n=1, m=2, alpha=Fraction(1, 1), beta=Fraction(-1, 1))"


def test_instance_pickles_for_worker_processes():
    inst = Instance(2, 5, Q(3, 7), Q(-2))
    back = pickle.loads(pickle.dumps(inst))
    assert back == inst and hash(back) == hash(inst)
    assert back.lam(9) == inst.lam(9)
    with pytest.raises(AttributeError):
        back.m = 7


def test_lambda_recurrence_and_seeds():
    inst = Instance(1, 3, Q(2), Q(-3))
    assert inst.lam(-1) == Q(-1, 3)
    assert inst.lam(0) == 0
    assert inst.lam(1) == 1
    for r in range(1, 12):
        assert inst.lam(r + 1) == inst.alpha * inst.lam(r) + inst.beta * inst.lam(r - 1)


def test_lambda_case2_closed_form():
    # alpha^2 + 4 beta = 0 forces lambda_r = r (alpha/2)^(r-1)
    inst = Instance(1, 2, Q(2), Q(-1))
    for r in range(0, 10):
        assert inst.lam(r) == r * (inst.alpha / 2) ** (r - 1) if r else inst.lam(0) == 0


@given(rats, st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda b: b != 0),
       st.integers(min_value=1, max_value=3).map(lambda c: Q(c)))
@settings(max_examples=40, deadline=None)
def test_lambda_weighted_homogeneity(alpha, beta, c):
    # lambda_r(c a, c^2 b) = c^(r-1) lambda_r(a, b)
    i1 = Instance(1, 2, alpha, beta)
    i2 = Instance(1, 2, c * alpha, c * c * beta)
    for r in range(0, 9):
        assert i2.lam(r) == c ** (r - 1) * i1.lam(r) if r else i2.lam(0) == 0


def test_classify():
    # n + m even and alpha = 0 -> Case I; lambda_{m+1} = 0 -> Case 1
    assert classify(Instance(1, 1, Q(0), Q(1))) == (Cond1.CASE_I, Cond2.CASE_1)
    assert classify(Instance(1, 3, Q(0), Q(1))) == (Cond1.CASE_I, Cond2.CASE_1)
    # lambda_3(0, 1) = 0 indeed
    assert Instance(1, 1, Q(0), Q(1)).lam(2) == 0
    # Fibonacci parameters: lambda never vanishes, alpha^2+4beta = 5
    assert classify(Instance(1, 2, Q(1), Q(1))) == (Cond1.CASE_II, Cond2.CASE_3)
    # alpha^2 + 4 beta = 0
    assert classify(Instance(1, 2, Q(2), Q(-1))) == (Cond1.CASE_II, Cond2.CASE_2)
    # lambda_{m+1} = 0 with alpha != 0: m = 2, lambda_3 = alpha^2 + beta = 0
    assert classify(Instance(1, 2, Q(1), Q(-1))) == (Cond1.CASE_II, Cond2.CASE_1)
    # Case I forces Case 1 when it occurs (n, m both odd)
    c1, c2 = classify(Instance(3, 5, Q(0), Q(2)))
    assert (c1, c2) == (Cond1.CASE_I, Cond2.CASE_1)


def test_case_i_needs_even_weight_sum():
    # n + m odd cannot be Case I even with alpha = 0
    assert classify(Instance(1, 2, Q(0), Q(1)))[0] == Cond1.CASE_II


def test_reduce_weights():
    assert reduce_weights(4, 6) == ((2, 3), 2)
    assert reduce_weights(6, 4) == ((2, 3), 2)
    assert reduce_weights(5, 5) == ((1, 1), 5)
    assert reduce_weights(1, 2) == ((1, 2), 1)


def test_swap_weight_params():
    a, b = swap_weight_params(Q(3), Q(2))
    assert (a, b) == (Q(-3, 2), Q(1, 2))
    assert swap_weight_params(*swap_weight_params(Q(3), Q(2))) == (Q(3), Q(2))


def test_canonical_instance():
    with pytest.raises(ValueError):
        canonical_instance(4, 6, Q(1), Q(1))
    inst, k, swapped = canonical_instance(4, 6, Q(1), Q(1), allow_reduce=True)
    assert (inst.n, inst.m, k, swapped) == (2, 3, 2, False)
    with pytest.raises(ValueError):
        canonical_instance(3, 2, Q(1), Q(2), allow_reduce=True)
    inst, k, swapped = canonical_instance(3, 2, Q(1), Q(2), allow_reduce=True, allow_swap=True)
    assert (inst.n, inst.m, k, swapped) == (2, 3, 1, True)
    assert (inst.alpha, inst.beta) == (Q(-1, 2), Q(1, 2))
