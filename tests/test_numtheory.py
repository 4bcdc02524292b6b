"""Factorization engine tests: known answers, invariants, budgets."""

import math
import random
import weakref
from collections import Counter

import numpy as np
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
    assert isinstance(f, Factorization) and f.as_dict() == {2: 3, 3: 2, 5: 1}


def test_factorize_exhaustive_round_trip():
    # Factorization checks nothing itself, so check factorize's invariants here
    primes = set(_prime_array(1_000_000).tolist())
    for k in range(1, 1_000_001):
        f = factorize(k)
        assert f.value() == k
        assert all(p in primes and e >= 1 for p, e in f.factors)
        assert all(p < q for (p, _), (q, _) in zip(f.factors, f.factors[1:]))


def test_primes_to_slices_one_array(monkeypatch):
    # over rising and falling limits each slice is the primes up to its limit,
    # a view of the one array kept; only a limit above its bound builds another,
    # and the array it replaces is freed
    monkeypatch.setattr(numtheory, "_SIEVED", [1, _prime_array(1)])
    built = []
    real = numtheory._prime_array
    monkeypatch.setattr(numtheory, "_prime_array",
                        lambda limit: built.append(weakref.ref(a := real(limit))) or a)
    for limit in (0, 1, 2, 1000, 10, 1 << 18, 1023, 5000, (1 << 18) + 1, 3, 1 << 19):
        primes = numtheory._primes_to(limit)
        assert primes.tolist() == real(limit).tolist()
        assert np.shares_memory(primes, numtheory._SIEVED[1]) or limit < 2
    del primes
    assert numtheory._SIEVED[0] == 1 << 19
    assert [ref() is not None for ref in built] == [False, False, True]


def test_prime_array_matches_a_plain_sieve():
    # the odd-only sieve gives the same int64 primes as a plain sieve over all n
    def plain(limit):
        flags = [False, False] + [True] * (limit - 1)
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
        return [n for n in range(limit + 1) if flags[n]]

    for limit in [*range(201), 1024, 1 << 17, 1 << 21]:
        primes = _prime_array(limit)
        assert primes.dtype == np.int64, limit
        assert primes.tolist() == plain(limit), limit


def test_factorize_mersenne_67():
    # classic known answer, forces the rho path on a 67-bit composite
    f = factorize(2**67 - 1)
    assert f.as_dict() == {193707721: 1, 761838257287: 1}


def _next_prime(lo: int) -> int:
    k = lo | 1
    while not is_probable_prime(k):
        k += 2
    return k


def _prev_prime(hi: int) -> int:
    k = hi - 1 + hi % 2
    while not is_probable_prime(k):
        k -= 2
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


def test_a_cofactor_is_proved_once(monkeypatch):
    # 2**67 - 1 = 193707721 * 761838257287 survives trial division as a composite
    seen = []
    real = numtheory.is_probable_prime
    monkeypatch.setattr(numtheory, "is_probable_prime", lambda n: seen.append(n) or real(n))
    assert factorize(2**67 - 1).as_dict() == {193707721: 1, 761838257287: 1}
    assert seen.count(2**67 - 1) == 1


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


def _rule_cases() -> list[int]:
    """Numbers for radical's cube-root rule: pq, p**2, p**2 * k, p**3, p**2 * q and
    p*q*r from primes just above 10**5, products straddling 10**15, and random n
    up to 10**20."""
    above = [p for p in _prime_array(100_200).tolist() if p > 100_000][:6]
    p, q, r = above[:3]
    cases = [p * q, p * p, p**3, p * p * q, p * q * r, 99_991**2, 99_991**3]
    cases += [x * y for x in above for y in above]
    cases += [p * p * k for k in (2, 3, 12, 997, 99_991, 99_989, 100_000, 10**5 - 1)]
    cases += [x * y * t for x in above[:3] for y in above[:3] for t in (7, 1009, 99_991)]
    cases += [10**15 + d for d in range(-40, 41)]
    rng = random.Random(16)
    cases += [rng.randrange(1, 10**e) for e in (6, 10, 14, 15, 16, 20) for _ in range(150)]
    below = [n for n in cases if n < 10**15]
    assert len(below) > 100 and len(cases) - len(below) > 100
    return cases


def test_radical_cube_root_rule_matches_factorize():
    for n in _rule_cases():
        assert radical(n) == factorize(n).radical_value(), n
    assert radical(99_991**2) == 99_991  # the largest prime below 10**5
    assert radical(100_003**2 * 99_991) == 100_003 * 99_991  # a p**2 cofactor
    with pytest.raises(ValueError):
        radical(0)


def test_radical_from_2_63_trial_divides_once(monkeypatch):
    # for a cofactor of 2**63 or more (what the gcd with the loop primes leaves),
    # the numpy stage runs once, over the primes from 1009 to below 10**5; a
    # cofactor of 10**15 or more has then met every trial prime, so _split takes
    # it as it is, not n from the start again.  The rule goes by the cofactor, not
    # n: one below 2**63 is trial divided up to its cube root and needs no _split,
    # however large n is
    p, q = 100_000_007, 100_000_037
    calls = []
    real_residues, real_split = numtheory._residues, numtheory._split

    def residues_spy(n, primes):
        calls.append(("residues", n, primes[0], primes[-1]))
        return real_residues(n, primes)

    def split_spy(counts, m):
        calls.append(("split", m))
        return real_split(counts, m)

    monkeypatch.setattr(numtheory, "_residues", residues_spy)
    monkeypatch.setattr(numtheory, "_split", split_spy)
    below = _prev_prime(numtheory._TRIAL_BOUND)
    for n, want, stages in (
        (12 * 997 * 1009 * p * q, 6 * 997 * 1009 * p * q,
         [("residues", 1009 * p * q, 1009, below), ("split", p * q)]),
        (7 * 99_991 * p * p, 7 * 99_991 * p,
         [("residues", 99_991 * p * p, 1009, below), ("split", p * p)]),
        (p**3, p, [("residues", p**3, 1009, below), ("split", p**3)]),
        (12 * 997 * p * q, 6 * 997 * p * q,
         [("residues", p * q, 1009, _prev_prime(numtheory._iroot(p * q, 3) + 1))]),
    ):
        assert n >= 1 << 63
        assert (stages[-1][0] == "split") == (stages[0][1] >= 1 << 63)
        calls.clear()
        assert radical(n) == want
        assert calls == stages, n


_LOOP_PRIMORIAL = math.prod(numtheory._loop_primes())


def test_radical_where_gcd_and_numpy_stages_meet():
    # high powers of loop primes, cofactors on both sides of 1009**2 and
    # 1009**3, the loop primorial and its square, and a number from 2**63 on
    p, q = 100_000_007, 100_000_037
    cases = [1, 2**62, 3**39, 997**6,
             997**3, 997**2 * 1009, 1009**2, 1009**3 - 1, 1009**3, 1009 * 1013 * 1019,
             _LOOP_PRIMORIAL, _LOOP_PRIMORIAL**2, 12 * 997 * p * q]
    assert 12 * 997 * p * q >= 1 << 63
    for n in cases:
        assert radical(n) == factorize(n).radical_value(), n


_NEAR_PRIMES = [p for p in _prime_array(1100).tolist() if p > 1000] + _ABOVE_PRIMES[:10]


@given(
    st.dictionaries(st.sampled_from(numtheory._loop_primes()), st.integers(1, 40), max_size=10),
    st.sampled_from(_NEAR_PRIMES), st.sampled_from(_NEAR_PRIMES), st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_radical_of_loop_primes_times_a_small_cofactor(small, p, q, shape):
    # loop primes to any power, stripped by gcds, times a cofactor 1, p, p*q or
    # p**2 with p and q just above 1000 or just above 10**5
    n = math.prod(r**e for r, e in small.items()) * (1, p, p * q, p * p)[shape]
    want = math.prod(small) * (1, p, math.lcm(p, q), p)[shape]
    assert radical(n) == factorize(n).radical_value() == want


def test_radical_skips_the_numpy_stage_below_1009_cubed(monkeypatch):
    # a cofactor below 1009**3 left by the gcd is 1, p, p*q or p**2: one isqrt,
    # no remainder over the primes above 1000
    rng = random.Random(31)
    cases = [*range(1, 20_001), 2**62, 997**6 * 1009**2, 1009**3 - 1, 1009 * 1013,
             _LOOP_PRIMORIAL**2 * 32_003**2, 12 * 997 * 1009 * 1013]
    assert all(numtheory._strip(n, math.gcd(n, _LOOP_PRIMORIAL)) < 1009**3 for n in cases)
    cases += [rng.randrange(1, 1009**3) for _ in range(2000)]
    want = {n: factorize(n).radical_value() for n in cases}
    calls = []
    real = numtheory._residues
    monkeypatch.setattr(numtheory, "_residues",
                        lambda n, primes: calls.append(n) or real(n, primes))
    assert {n: radical(n) for n in cases} == want
    assert calls == []
    assert radical(1009**3) == 1009 and calls == [1009**3]  # the spy sees the stage


def _refuse_below_2_63(monkeypatch):
    """Make is_probable_prime, _rho_brent and factorize raise for every n < 2**63."""
    for name in ("is_probable_prime", "_rho_brent", "factorize"):
        def guard(n, *args, _name=name, _real=getattr(numtheory, name)):
            if n < 1 << 63:
                raise AssertionError(f"radical below 2**63 called {_name}({n})")
            return _real(n, *args)

        monkeypatch.setattr(numtheory, name, guard)


def test_radical_below_2_63_needs_no_primality_test_nor_rho(monkeypatch):
    want = {n: factorize(n).radical_value() for n in _rule_cases() if n < 1 << 63}
    _refuse_below_2_63(monkeypatch)
    assert {n: radical(n) for n in want} == want


def test_radical_cube_root_rule_from_10_15_to_2_63(monkeypatch):
    # the range that trial division up to the true cube root settles: cofactors
    # of 10**15 or more, built from primes just above 10**5, just below 2**21
    # (whose cube is just below 2**63) and just below sqrt(2**63) ~ 3.04 * 10**9
    lo = [p for p in _prime_array(100_200).tolist() if p > 100_000][:3]
    hi = _prime_array(1 << 21).tolist()[-3:]
    top = _prev_prime(math.isqrt(1 << 63))
    top = [top, _prev_prime(top - 1)]
    cases = []
    for p, q, r in (lo, hi):
        cases += [p**3, p * p * q, q * q * r, p * q * r]
        # pq with q the prime just below 2**63 / p: trial division leaves q
        cases += [t * _prev_prime((1 << 63) // t) for t in (p, r)]
    cases += [p * p for p in top] + [top[0] * top[1]]
    assert all(10**15 <= n < 1 << 63 for n in cases)
    cases += [(1 << 63) - 1, 1 << 63, (1 << 63) + 1]
    want = {n: factorize(n).radical_value() for n in cases}
    _refuse_below_2_63(monkeypatch)
    assert {n: radical(n) for n in cases} == want


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
