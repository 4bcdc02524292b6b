"""Even-power map tests: images, constants, bound propagation."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congabc.abc_core import ABCSolution, make_solution
from congabc.numtheory import totient
from congabc.theta import (
    DEFAULT_EXPONENT_CAP,
    ExponentCapExceeded,
    InternalInexactDivision,
    LemmaConstants,
    NonpositiveEpsilon,
    OddN,
    _constants,
    derived_full_bound,
    lemma_constants,
    theta,
)
from congabc.harness import CorpusSpec


def test_theta_examples():
    r = theta(make_solution(-1, -2, 3), 2)
    assert r.raw == (-1, -8, 9)
    assert r.m == 0
    assert r.output == ABCSolution(-8, -1, 9)

    r = theta(make_solution(-1, -3, 4), 2)
    assert r.raw == (-1, -3, 4)
    assert r.m == 2
    assert r.output == ABCSolution(-3, -1, 4)

    r = theta(make_solution(-1, -8, 9), 2)
    assert r.raw == (-49, -32, 81)
    assert r.output == ABCSolution(-49, -32, 81)

    r = theta(make_solution(-1, -3, 4), 4)
    assert r.raw == (-1, -15, 16)
    assert r.m == 4


def test_theta_chain_regression():
    # (-1,-2,3) -> (-1,-8,9) -> (-49,-32,81) -> (-289,-6272,6561) at n = 2
    aa = make_solution(-1, -2, 3)
    expected = [(-1, -8, 9), (-49, -32, 81), (-289, -6272, 6561)]
    for want in expected:
        r = theta(aa, 2)
        assert r.raw == want
        aa = r.output


def test_theta_fixed_point():
    aa = make_solution(-1, -3, 4)
    r = theta(aa, 2)
    assert r.output == aa


def test_theta_raw_component_relations():
    for aa in CorpusSpec(60):
        for n in (2, 4, 6):
            r = theta(aa, n)
            d = aa.a - aa.b
            scale = 1 << r.m
            assert r.m == (n if aa.c % 2 == 0 else 0)
            assert r.raw[0] * scale == -(d**n)
            assert r.raw[1] * scale == -(aa.c**n - d**n)
            assert r.raw[2] * scale == aa.c**n
            assert len(set(r.raw)) == 3
            assert r.input == aa
            assert r.n == n


def test_even_c_exact_division_structure():
    # for even c exactly one of c, a-b is divisible by 4, and the
    # 2**n division in the map is always remainder-free
    for aa in CorpusSpec(120):
        if aa.c % 2 == 0:
            d = abs(aa.a - aa.b)
            assert d % 2 == 0
            assert (aa.c % 4 == 0) != (d % 4 == 0)
            for n in (2, 4):
                assert d**n % (1 << n) == 0
                assert aa.c**n % (1 << n) == 0


def test_theta_closure_small_corpus():
    for aa in CorpusSpec(300):
        for n in (2, 4, 6, 8):
            out = theta(aa, n).output
            assert out.a <= out.b < 0 < out.c
            assert out.a + out.b + out.c == 0
            assert math.gcd(out.a, out.b) == 1


def test_theta_rejects_bad_exponents():
    aa = make_solution(-1, -2, 3)
    for n in (1, 3, 7, 0, -2):
        with pytest.raises(OddN):
            theta(aa, n)
    with pytest.raises(ExponentCapExceeded):
        theta(aa, DEFAULT_EXPONENT_CAP + 2)


def test_theta_inexact_division_guard():
    # reachable only with a malformed triple whose sum is nonzero
    broken = ABCSolution(-1, -2, 4)
    with pytest.raises(InternalInexactDivision):
        theta(broken, 2)
    assert issubclass(InternalInexactDivision, RuntimeError)


def test_lemma_constants_examples():
    lc = lemma_constants(2, 1.0)
    assert lc.c_lin == pytest.approx(2.0 / 3.0, abs=0)
    assert lc.c_off == pytest.approx(-3.2346868426130781, abs=1e-12)
    assert lc.eps_out == pytest.approx(1.0 / 3.0, abs=0)

    assert lemma_constants(2, 3.0).eps_out == pytest.approx(0.6, abs=1e-12)
    assert lemma_constants(8, 0.5).eps_out == pytest.approx(0.5 / 11.5, abs=1e-12)


def test_lemma_constants_closed_forms():
    for n in (2, 4, 6, 8, 10):
        for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
            lc = lemma_constants(n, eps)
            denom = n + n * eps - eps
            assert lc.c_lin == pytest.approx(n / denom, abs=1e-15)
            assert lc.c_off == pytest.approx(
                -n * (1 + eps) * math.log(2 * n) / denom - n * math.log(2), abs=1e-12
            )
            assert lc.eps_out == pytest.approx(eps / (n + (n - 1) * eps), abs=1e-15)
            assert 0 < lc.c_lin <= 1
            assert lc.c_off < 0
            assert lc.eps_out < eps
            assert isinstance(lc, LemmaConstants)


def test_lemma_constants_float_and_mpf_share_one_formula():
    # the floats are those of the formula written out (int eps too), bit for
    # bit; the same formula at 160 bits agrees with them to double precision
    for n in (2, 4, 6, 8, 12):
        for eps in (0.1, 0.5, 1, 2):
            lc = lemma_constants(n, eps)
            denom = n + n * eps - eps
            assert (lc.epsilon, lc.c_lin, lc.c_off, lc.eps_out) == (
                float(eps),
                n / denom,
                -n * (1.0 + eps) * math.log(2 * n) / denom - n * math.log(2.0),
                eps / denom,
            )
            assert lc.lift(10.0) == (10.0 - lc.c_off) / lc.c_lin
            with mpmath.workprec(160):
                hp = _constants(n, mpmath.mpf(eps), mpmath.log)
                for hp_value, value in zip((hp.c_lin, hp.c_off, hp.eps_out),
                                           (lc.c_lin, lc.c_off, lc.eps_out)):
                    assert abs(hp_value - value) <= 4e-16 * abs(value)


def test_lemma_constants_small_epsilon_limit():
    for n in (2, 4, 8):
        assert lemma_constants(n, 1e-12).c_lin == pytest.approx(1.0, abs=1e-12)


def test_lemma_constants_rejects_bad_args():
    with pytest.raises(OddN):
        lemma_constants(3, 1.0)
    with pytest.raises(NonpositiveEpsilon):
        lemma_constants(2, 0.0)
    with pytest.raises(NonpositiveEpsilon):
        lemma_constants(2, -1.0)
    with pytest.raises(ValueError, match="finite"):
        lemma_constants(2, 1e308)  # n * epsilon overflows: c_lin 0, c_off NaN


def test_derived_full_bound_examples():
    assert derived_full_bound(3, 1.0, 10.0) == pytest.approx(19.852, abs=1e-3)
    assert derived_full_bound(3, 1.0, 10.0) == pytest.approx(
        19.852030263919617, abs=1e-12
    )
    assert derived_full_bound(2, 0.3, 7.7) == 7.7
    assert derived_full_bound(1, 0.3, -2.5) == -2.5

    lc = lemma_constants(8, 1.0)  # totient(16) = 8
    assert derived_full_bound(16, 1.0, 0.0) == pytest.approx(
        -lc.c_off / lc.c_lin, abs=1e-12
    )
    assert derived_full_bound(16, 1.0, 0.0) == pytest.approx(
        15.942385152878742, abs=1e-12
    )


@given(
    st.integers(3, 60),
    st.floats(0.01, 5.0, allow_nan=False),
    st.floats(-20.0, 20.0, allow_nan=False),
)
@settings(max_examples=150)
def test_derived_full_bound_linear_in_constant(N, eps, const):
    lc = lemma_constants(totient(N), eps)
    want = (const - lc.c_off) / lc.c_lin
    assert derived_full_bound(N, eps, const) == pytest.approx(want, rel=1e-12)


def test_derived_full_bound_rejects_bad_args():
    with pytest.raises(NonpositiveEpsilon):
        derived_full_bound(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        derived_full_bound(0, 1.0, 1.0)
    # finite inputs, but the lift (C - c_off) / c_lin passes float64
    for eps, C in ((1.0, 1.5e308), (1e307, 1e300)):
        with pytest.raises(ValueError, match="finite"):
            derived_full_bound(3, eps, C)
