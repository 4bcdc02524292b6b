"""Exact arbitrary-precision number theory primitives.

Everything here operates on Python integers and is pure: primality
testing, complete factorization, the radical (squarefree kernel),
Euler's totient, and small exact helpers.  The factorization engine
runs four stages:

- trial division by the primes below 10**5 (_trial_divide), sliced by
  _primes_to from the package's one prime array, of which the harness's
  numpy sieve tables take their primes too: the 168 primes
  below 1000 in a Python loop, the rest as one numpy remainder over the
  primes up to sqrt(n) (exact for any n, by 30-bit limbs above 2**63);
- the Baillie-PSW primality test (one deterministic test for every n:
  a strong base-2 test plus a strong Lucas test);
- a perfect-power step, so that q**k with q above the trial bound is
  split by an exact k-th root rather than by rho;
- Brent's variant of Pollard's rho, with an iteration budget.

radical finds the primes below 1000 by one gcd with their product, takes
the numpy remainder only for a cofactor of 1009**3 or more, and the last
three stages (_split, which factorize shares) only for one of 2**63 or more.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import random
from dataclasses import dataclass

import numpy as np

_TRIAL_BOUND = 100_000
# radical trial divides a cofactor m < 2**63 (what the gcd with the primes below
# 1000 leaves) up to its cube root, below 2**21 = _CUBE_BOUND: those primes are one
# int64 remainder away, with no limbs.  From 2**63 on it keeps _TRIAL_BOUND, where
# each prime costs a limb remainder and rho decides the cofactor anyway.
_CUBE_BOUND = 1 << 21
# The primes below _LOOP_BOUND (168 of them): _trial_divide tries them one at
# a time in Python, which beats a numpy call on small arguments, and radical
# finds them by one gcd with their product.  A cofactor without them has no
# prime below 1009, so below 1009**3 at most two; only above, the numpy stage.
_LOOP_BOUND = 1000
_LIMB_BITS = 30  # r * 2**30 + limb < 2**47 for r < p < 2**17: exact in int64
DEFAULT_RHO_BUDGET = 1 << 26
BUDGET_ENV_VAR = "CONGABC_FACTOR_BUDGET"

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FactorizationFailure(RuntimeError):
    """A composite cofactor resisted the configured effort budget."""

    def __init__(self, n: int, budget: int):
        super().__init__(
            f"no factor of {n} found within {budget} rho steps; "
            f"raise the budget by setting {BUDGET_ENV_VAR}"
        )
        self.n = n
        self.budget = budget


@dataclass(frozen=True)
class Factorization:
    """A complete prime factorization as (prime, exponent) pairs.

    Pairs are sorted by strictly increasing prime and every exponent is
    at least 1; the empty tuple represents 1.  The type checks none of
    this: factorize, its one producer, proves each prime it finds.
    """

    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        """The integer this factorization multiplies back to."""
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def radical_value(self) -> int:
        """Product of the distinct primes."""
        out = 1
        for p, _ in self.factors:
            out *= p
        return out

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def valuation2(n: int) -> int:
    """Largest k with 2**k dividing n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = n if n > 0 else -n
    return (v & -v).bit_length() - 1


def _prime_array(limit: int) -> np.ndarray:
    """The primes up to limit, ascending, as int64 (sieve of Eratosthenes)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones((limit + 1) // 2, dtype=bool)  # sieve[i] stands for 2*i + 1
    sieve[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = False
    return np.concatenate((np.array([2], dtype=np.int64), 2 * np.flatnonzero(sieve) + 1))


# the one prime array kept, as [bound, the primes up to bound]
_SIEVED: list = [1, _prime_array(1)]


def _primes_to(limit: int) -> np.ndarray:
    """The primes up to limit, a view of the one prime array kept.  A limit
    above its bound replaces it by the primes up to the next power of two,
    so every limit is a slice of the largest array built so far."""
    if limit > _SIEVED[0]:
        _SIEVED[:] = 1 << limit.bit_length(), _prime_array(1 << limit.bit_length())
    primes = _SIEVED[1]
    return primes[:int(np.searchsorted(primes, limit, side="right"))]


@functools.cache
def _loop_primes() -> tuple[int, ...]:
    """The trial primes below _LOOP_BOUND, as Python ints for the loop."""
    return tuple(_primes_to(_LOOP_BOUND).tolist())


@functools.cache
def _loop_product() -> int:
    """The product of the loop primes: its gcd with n is their part of rad(n)."""
    return math.prod(_loop_primes())


def _strip(n: int, h: int) -> int:
    """n with every prime of h divided out, for h | n: each next h = gcd(n, h*h)
    keeps the primes of h left in n, so p**e goes in about log2(e) rounds."""
    while h > 1:
        n //= h
        h = math.gcd(n, h * h)
    return n


@functools.cache
def _loop_squares() -> tuple[tuple[int, int], ...]:
    """(p, p**2) for the loop primes p: the loop's stopping test, precomputed."""
    return tuple((p, p * p) for p in _loop_primes())


def _residues(n: int, primes: np.ndarray) -> np.ndarray:
    """n % p for every p in primes (int64), exactly, for n >= 0.

    Below 2**63 this is one int64 remainder; above, a Horner pass over
    the 30-bit limbs of n from the top, which needs every p below 2**17.
    """
    if n < 1 << 63:
        return n % primes
    r = np.zeros_like(primes)
    mask = (1 << _LIMB_BITS) - 1
    for shift in range((n.bit_length() - 1) // _LIMB_BITS * _LIMB_BITS, -1, -_LIMB_BITS):
        r = ((r << _LIMB_BITS) + ((n >> shift) & mask)) % primes
    return r


def _divide_out(n: int, p: int, counts: dict[int, int]) -> int:
    """n with every factor p removed; p's exponent goes into counts."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    counts[p] = e
    return n


def _iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) exactly, for m >= 1 and k >= 2 (Newton's method)."""
    if k == 2:
        return math.isqrt(m)
    r = 1 << -(-m.bit_length() // k)  # 2**ceil(bits/k) > m ** (1/k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r**k for the smallest prime k that works, else (m, 1).

    m has no prime factor below _TRIAL_BOUND, so a root r exceeds it and
    only the k with _TRIAL_BOUND**k <= m can work.  The loop primes serve
    as exponents, which covers every m < _TRIAL_BOUND**1009; a power with
    a larger prime exponent is left to rho, slower but just as exact.
    """
    for k in _loop_primes():
        if _TRIAL_BOUND**k > m:
            break
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int, D: int) -> bool:
    """Strong Lucas probable-prime test of odd n with P = 1, Q = (1 - D)/4.

    With n + 1 = d * 2**s, d odd, n passes when U_d = 0 or
    V_(d * 2**r) = 0 (mod n) for some 0 <= r < s.
    """
    Q = (1 - D) // 4
    d = n + 1
    s = valuation2(d)
    d >>= s
    # ladder over the bits of d from the top: (U_k, V_k, Q**k) at k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # k -> k + 1: U = (U + V)/2, V = (D*U + V)/2 (mod n, n odd)
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW primality, one deterministic test for every n.

    After a screen by the primes up to 37, n must pass a strong
    base-2 Miller-Rabin test, must not be a perfect square, and must
    pass a strong Lucas test with P = 1 and D the first of
    5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1 (Selfridge's
    method A).  No composite below 2**64 passes (the base-2 strong
    pseudoprimes there are enumerated, Feitsma-Galway), and none is
    known above.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = valuation2(d)
    d >>= s
    x = pow(2, d, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False  # gcd(D, n) is a proper factor of n
        D = -D - 2 if D > 0 else -D + 2
    return _strong_lucas(n, D)


def _rho_brent(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Find a nontrivial factor of odd composite n with Brent's rho.

    Returns (factor, steps_spent); factor is 0 if the budget ran out.
    gcds are batched over 128-step windows for speed.  The differences
    x - y enter with their sign, which does not change any gcd with n.
    """
    spent = 0
    while spent < budget:
        y = rng.randrange(1, n)
        const = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + const) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + const) % n
                    q = q * (x - y) % n
                spent += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time to recover the factor
            g = 1
            while g == 1:
                ys = (ys * ys + const) % n
                spent += 1
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g, spent
        # cycle without a factor: retry with a fresh polynomial
    return 0, spent


def rho_budget() -> int:
    """The rho step budget per composite: CONGABC_FACTOR_BUDGET, else 2**26.

    The variable is the budget's only setting.  Raises ValueError, naming
    it, if it is set to anything but an integer >= 1.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_RHO_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0  # not an integer: rejected below
    if budget < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer >= 1, got {raw!r}")
    return budget


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """(counts, cofactor): the exponents in n >= 1 of the primes p below
    _TRIAL_BOUND with p**2 <= n, and n with them divided out.  n shrinks
    as primes are divided out, so the cofactor m keeps no such prime with
    p**2 <= m.  Those below _LOOP_BOUND are tried in a Python loop, the
    rest up to the square root of n as one numpy remainder (_residues); only
    the primes that divide n are divided out."""
    counts: dict[int, int] = {}
    small = _loop_squares()
    for p, square in small:
        if square > n:
            break
        if n % p == 0:
            n = _divide_out(n, p, counts)
    else:  # the loop primes ran out before p**2 > n
        primes = _primes_to(min(math.isqrt(n), _TRIAL_BOUND - 1))[len(small):]
        for p in primes[_residues(n, primes) == 0].tolist():
            n = _divide_out(n, p, counts)
    return counts, n


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1: trial division (_trial_divide),
    then _split of the cofactor, which may raise FactorizationFailure.  n goes through
    operator.index, so a float is a TypeError and a numpy integer a Python int."""
    if (n := operator.index(n)) < 1:
        raise ValueError("factorize expects n >= 1")
    return _split(*_trial_divide(n))


def _split(counts: dict[int, int], m: int) -> Factorization:
    """The factorization of m times the prime powers in counts, for a cofactor
    m >= 1 with no prime factor below _TRIAL_BOUND (updates counts).

    m goes on one stack, as does every factor split from it: each is prime
    below _TRIAL_BOUND**2, else proved by is_probable_prime or split, first
    as a perfect power by an exact integer root, else by rho with a fixed
    stream per composite.  Raises FactorizationFailure if some composite
    cannot be split within rho_budget() steps (read when rho first runs).
    Each prime is proved once, by trial division or is_probable_prime.
    """
    stack = [(m, 1)] if m > 1 else []
    budget = None
    while stack:
        m, e = stack.pop()
        # m has no prime factor below _TRIAL_BOUND, nor has any factor of it,
        # so below _TRIAL_BOUND**2 it is prime
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(m):
            counts[m] = counts.get(m, 0) + e
            continue
        r, k = _perfect_power(m)
        if k > 1:
            stack.append((r, e * k))
            continue
        if budget is None:
            budget = rho_budget()
        # a fixed stream per composite: the factors found do not vary
        rng = random.Random(f"0:rho:{m}")
        f, _ = _rho_brent(m, rng, budget)
        if f == 0:
            raise FactorizationFailure(m, budget)
        stack.append((f, e))
        stack.append((m // f, e))
    return Factorization(tuple(sorted(counts.items())))


def radical(n: int) -> int:
    """Product of the distinct primes dividing n >= 1; radical(1) = 1.

    gcd(n, _loop_product()) is the part of the loop primes, and _strip divides
    it out.  The cofactor m below 1009**3, or once trial divided up to its
    cube root by the primes below top (the numpy stage), has every prime
    factor above its cube root: m is 1, p, p*q or p**2, and its radical is
    isqrt(m) when m is a square, else m, with no primality test and no rho
    (the n**(1/3) bound of Lehman's method).  top is _CUBE_BOUND for m (not n)
    below 2**63 = _CUBE_BOUND**3, so that m never meets rho, and _TRIAL_BOUND
    from there on, where an m of 10**15 = _TRIAL_BOUND**3 or more goes to _split.
    """
    if n < 1:
        raise ValueError("radical expects n >= 1")
    rad = math.gcd(n, _loop_product())
    m = _strip(n, rad)
    if m >= 1009**3:  # else m has at most two primes, each at least 1009
        top = _CUBE_BOUND if m < 1 << 63 else _TRIAL_BOUND
        primes = _primes_to(min(_iroot(m, 3), top - 1))[len(_loop_primes()):]
        found = math.prod(primes[_residues(m, primes) == 0].tolist())
        rad, m = rad * found, _strip(m, found)
        if m >= top**3:
            return rad * _split({}, m).radical_value()
    r = math.isqrt(m)
    return rad * (r if r * r == m else m)


def totient(n: int) -> int:
    """Euler's totient via factorization; totient(1) = 1."""
    out = 1
    for p, e in factorize(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out
