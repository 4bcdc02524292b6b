"""Factorization engine tests: known answers, invariants, budgets."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congabc import numtheory
from congabc.numtheory import (
    BUDGET_ENV_VAR,
    Factorization,
    FactorizationFailure,
    _iroot,
    _prime_array,
    _residues,
    factorize,
    is_probable_prime,
    radical,
    rho_budget,
    totient,
    valuation2,
)


def test_valuation2_examples():
    assert valuation2(48) == 4
    assert valuation2(7) == 0
    assert valuation2(37281920) == 7
    assert valuation2(-48) == 4
    with pytest.raises(ValueError):
        valuation2(0)


@given(st.integers(min_value=1, max_value=1 << 80))
def test_valuation2_strips_even_part(n):
    v = valuation2(n)
    assert n % (1 << v) == 0 and (n >> v) % 2 == 1


def test_factorize_examples():
    assert factorize(360).as_dict() == {2: 3, 3: 2, 5: 1}
    assert factorize(1).factors == ()
    # B component of the n=8 image of (-1,-8,9): 9**8 - 7**8
    assert factorize(37281920).as_dict() == {2: 7, 5: 1, 13: 1, 4481: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorization_type_invariants():
    f = factorize(360)
    assert f.value() == 360
    assert f.radical_value() == 30
    assert all(e >= 1 for _, e in f.factors)
    assert all(p < q for (p, _), (q, _) in zip(f.factors, f.factors[1:]))
    assert all(is_probable_prime(p) for p, _ in f.factors)
    assert Factorization(f.factors) == f  # factorize's result passes the check it skips
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponent < 1


def test_factorize_exhaustive_round_trip():
    # factorize skips Factorization's re-check, so check its invariants here
    primes = set(_prime_array(1_000_000).tolist())
    for k in range(1, 1_000_001):
        f = factorize(k)
        assert f.value() == k
        assert all(p in primes and e >= 1 for p, e in f.factors)
        assert all(p < q for (p, _), (q, _) in zip(f.factors, f.factors[1:]))


def test_factorize_mersenne_67():
    # classic known answer, forces the rho path on a 67-bit composite
    f = factorize(2**67 - 1)
    assert f.as_dict() == {193707721: 1, 761838257287: 1}


def _next_prime(lo: int) -> int:
    k = lo | 1
    while not is_probable_prime(k):
        k += 2
    return k


def test_factorize_random_128bit_products():
    # 200 seeded 128-bit integers with known factorizations.  Prime
    # sizes stay within reach of the default rho budget (a uniform
    # 128-bit sample would occasionally be a large semiprime, which
    # the engine classifies as inconclusive by design).
    rng = random.Random(20260814)
    patterns = [(32, 32, 32, 32), (40, 40, 24, 24), (36, 36, 28, 28),
                (40, 32, 32, 24), (34, 33, 31, 30)]
    for i in range(200):
        bits = patterns[i % len(patterns)]
        primes = sorted(_next_prime(rng.getrandbits(b) | (1 << (b - 1))) for b in bits)
        n = math.prod(primes)
        assert n.bit_length() >= 124
        want: dict[int, int] = {}
        for p in primes:
            want[p] = want.get(p, 0) + 1
        got = factorize(n)
        assert got.as_dict() == want
        assert got.value() == n


_MID_PRIMES = [p for p in _prime_array(100_000).tolist() if p > 1000]  # the numpy stage
_ABOVE_PRIMES = [p for p in _prime_array(100_500).tolist() if p > 100_000]  # past trial division


@given(
    st.lists(st.sampled_from(_MID_PRIMES), max_size=4),
    st.dictionaries(st.sampled_from(_ABOVE_PRIMES), st.integers(1, 6), max_size=2),
    st.none() | st.integers(1 << 63, 1 << 80).map(_next_prime),
)
@settings(max_examples=200, deadline=None)
def test_factorize_recovers_a_drawn_multiset(mid, above, big):
    # primes in (1000, 10**5] for the numpy remainder, powers of primes just
    # above 10**5 for the perfect-power step, and a prime that puts n past
    # 2**63 onto the limb path of the remainder
    want = Counter(mid) + Counter(above)
    if big:
        want[big] += 1
    n = math.prod(p**e for p, e in want.items())
    assert factorize(n).as_dict() == dict(want)


@pytest.mark.parametrize("n", [
    2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**90 + 2**30 - 1, 10**32 + 7, 3**400,
])
def test_residues_are_exact_on_both_sides_of_2_63(n):
    primes = _prime_array(100_000)
    assert _residues(n, primes).tolist() == [n % p for p in primes.tolist()]


@given(st.integers(1, 1 << 400), st.integers(2, 13))
def test_iroot_is_the_floor_root(m, k):
    r = _iroot(m, k)
    assert r**k <= m < (r + 1) ** k


def test_perfect_powers_above_the_trial_bound_skip_rho(monkeypatch):
    def no_rho(*args):
        raise AssertionError("rho was called")

    monkeypatch.setattr(numtheory, "_rho_brent", no_rho)
    assert factorize(100003**5).as_dict() == {100003: 5}
    assert factorize(8 * 100019**4).as_dict() == {2: 3, 100019: 4}


def test_factorize_budget_failure(monkeypatch):
    # a product of two ~64-bit primes, far beyond a 100-step rho budget
    hard = (2**64 - 59) * (2**64 - 83)
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    with pytest.raises(FactorizationFailure) as exc:
        factorize(hard)
    assert exc.value.budget == 100
    assert exc.value.n > 1
    assert hard % exc.value.n == 0


def test_factorize_budget_env_var(monkeypatch):
    # the variable is read when a cofactor first needs rho, not at import
    hard = (2**64 - 59) * (2**64 - 83)
    monkeypatch.setenv(BUDGET_ENV_VAR, "250")
    with pytest.raises(FactorizationFailure) as exc:
        factorize(hard)
    assert exc.value.budget == 250
    assert rho_budget() == 250


def test_factorize_malformed_budget_env_var(monkeypatch):
    hard = (2**64 - 59) * (2**64 - 83)
    for raw in ("1e6", "0", "-5"):
        monkeypatch.setenv(BUDGET_ENV_VAR, raw)
        with pytest.raises(ValueError, match=BUDGET_ENV_VAR):
            rho_budget()
        with pytest.raises(ValueError, match=BUDGET_ENV_VAR):
            factorize(hard)


def test_is_probable_prime_known_cases():
    assert not is_probable_prime(1)
    assert is_probable_prime(2)
    assert is_probable_prime(2**64 - 59)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(3215031751)  # strong pseudoprime to 2,3,5,7
    assert is_probable_prime(2**89 - 1)  # Mersenne prime above 2**64
    assert not is_probable_prime(2**67 - 1)


def test_is_probable_prime_matches_sieve():
    # covers the base-2 strong pseudoprimes 2047, 3277, 4033 and the
    # strong Lucas pseudoprimes 5459, 5777, 10877: each half of
    # Baillie-PSW alone would accept some of them
    limit = 2_000_000
    is_prime = [False] * limit
    for p in _prime_array(limit - 1).tolist():
        is_prime[p] = True
    assert [n for n in range(limit) if is_probable_prime(n) != is_prime[n]] == []


def test_is_probable_prime_above_2_64():
    assert is_probable_prime(2**64 + 13)
    assert not any(is_probable_prime(2**64 + k) for k in range(1, 12, 2))


@pytest.mark.parametrize("k", [242396, 242420, 242475])
def test_is_probable_prime_rejects_chernick_carmichael(k):
    # (6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael
    # number, so it passes Fermat's test to base 2
    factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    assert all(is_probable_prime(p) for p in factors)
    n = math.prod(factors)
    assert n > 2**64
    assert pow(2, n - 1, n) == 1
    assert not is_probable_prime(n)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=300)
def test_factorize_round_trip_random(n):
    f = factorize(n)
    assert f.value() == n
    assert f.radical_value() == radical(n)


def test_radical_examples():
    assert radical(72) == 6
    assert radical(1) == 1
    assert radical(15042) == 15042  # 2*3*23*109 squarefree


def test_totient_examples():
    assert totient(16) == 8
    assert totient(1) == 1
    assert totient(15) == 8


def test_totient_brute_force_small():
    for n in range(1, 301):
        count = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert totient(n) == count


def test_radical_totient_full_range_against_spf_sieve():
    # independent oracle: smallest-prime-factor sieve up to 10**5
    limit = 100_000
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    for n in range(1, limit + 1):
        m, rad, phi = n, 1, 1
        while m > 1:
            p = spf[m]
            rad *= p
            phi *= p - 1
            m //= p
            while m % p == 0:
                phi *= p
                m //= p
        assert radical(n) == rad
        assert totient(n) == phi


@given(st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=200)
def test_radical_submultiplicative(x, y):
    assert radical(x * y) <= radical(x) * radical(y)
    if math.gcd(x, y) == 1:
        assert radical(x * y) == radical(x) * radical(y)


@given(st.integers(1, 10**9), st.integers(1, 6))
@settings(max_examples=200)
def test_radical_power_invariant(x, n):
    assert radical(x**n) == radical(x)


@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=3000),
)
@settings(max_examples=200)
def test_totient_multiplicative(m, n):
    if math.gcd(m, n) == 1:
        assert totient(m * n) == totient(m) * totient(n)


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_radical_divides_and_squarefree(n):
    r = radical(n)
    assert n % r == 0
    assert all(e == 1 for _, e in factorize(r).factors)
