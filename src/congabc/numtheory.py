"""Exact arbitrary-precision number theory primitives.

Everything here operates on Python integers and is pure: primality
testing, complete factorization, the radical (squarefree kernel),
Euler's totient, and small exact helpers.  The factorization engine
runs four stages:

- trial division by the primes below 10**5, from the package's one
  prime sieve, _prime_array, which also builds the harness's numpy
  sieve tables: the 168 primes below 1000 in a Python loop, the rest
  as one numpy remainder over the primes up to sqrt(n) (exact for any
  n, by 30-bit limbs above 2**63);
- the Baillie-PSW primality test (one deterministic test for every n:
  a strong base-2 test plus a strong Lucas test);
- a perfect-power step, so that q**k with q above the trial bound is
  split by an exact k-th root rather than by rho;
- Brent's variant of Pollard's rho, with an iteration budget.
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass

import numpy as np

_TRIAL_BOUND = 100_000
# The trial primes below _LOOP_BOUND (168 of them) are tried one at a time
# in Python, which beats a numpy call on the many small arguments; with no
# other stage that loop fully factors every n < 1009**2, 1009 being the
# next prime.  Only larger n reach the numpy stage.
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
            f"raise the budget (e.g. via {BUDGET_ENV_VAR})"
        )
        self.n = n
        self.budget = budget


@dataclass(frozen=True)
class Factorization:
    """A complete prime factorization as (prime, exponent) pairs.

    Pairs are sorted by strictly increasing prime and every exponent
    is at least 1; the empty tuple represents 1.  Construction checks
    this and proves each prime; factorize, whose primes are already
    proved, builds its result without the check.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be distinct and strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

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


@functools.cache
def _prime_array(limit: int) -> np.ndarray:
    """The primes up to limit, ascending (sieve of Eratosthenes)."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


@functools.cache
def _loop_primes() -> tuple[int, ...]:
    """The trial primes below _LOOP_BOUND, as Python ints for the loop."""
    primes = _prime_array(_TRIAL_BOUND)
    return tuple(primes[primes < _LOOP_BOUND].tolist())


def _residues(n: int, primes: np.ndarray) -> np.ndarray:
    """n % p for every p in primes (int64, each below 2**17), exactly, for n >= 0.

    Below 2**63 this is one int64 remainder; above, a Horner pass over
    the 30-bit limbs of n from the top.
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


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1.

    Trial division by the primes below _TRIAL_BOUND: those below
    _LOOP_BOUND in a Python loop, the rest up to sqrt(n) as one numpy
    remainder (_residues), after which only the primes that divide n are
    divided out.  A cofactor left below _TRIAL_BOUND**2 is prime; a larger
    one is proved by is_probable_prime or split, first as a perfect power
    by an exact integer root, else by rho with a fixed stream per
    composite.  Raises FactorizationFailure if some composite cofactor
    cannot be split within rho_budget() steps (read once a cofactor
    survives trial division as a composite).  Each prime is proved once,
    by trial division or is_probable_prime, so the result is built
    without Factorization's re-check.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    counts: dict[int, int] = {}
    small = _loop_primes()
    for p in small:
        if p * p > n:
            break
        if n % p == 0:
            n = _divide_out(n, p, counts)
    else:  # the loop primes ran out before p * p > n
        bound = math.isqrt(n) if n < _TRIAL_BOUND * _TRIAL_BOUND else _TRIAL_BOUND
        primes = _prime_array(_TRIAL_BOUND)
        primes = primes[len(small) : int(np.searchsorted(primes, bound, side="right"))]
        for p in primes[_residues(n, primes) == 0].tolist():
            n = _divide_out(n, p, counts)
    if n > 1:
        if n < _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(n):
            # below _TRIAL_BOUND**2 a surviving cofactor is prime
            counts[n] = counts.get(n, 0) + 1
        else:
            budget = rho_budget()
            stack = [(n, 1)]
            while stack:
                m, e = stack.pop()
                if is_probable_prime(m):
                    counts[m] = counts.get(m, 0) + e
                    continue
                r, k = _perfect_power(m)
                if k > 1:
                    stack.append((r, e * k))
                    continue
                # a fixed stream per composite: the factors found do not vary
                rng = random.Random(f"0:rho:{m}")
                f, _ = _rho_brent(m, rng, budget)
                if f == 0:
                    raise FactorizationFailure(m, budget)
                stack.append((f, e))
                stack.append((m // f, e))
    out = object.__new__(Factorization)
    object.__setattr__(out, "factors", tuple(sorted(counts.items())))
    return out


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    return factorize(n).radical_value()


def totient(n: int) -> int:
    """Euler's totient via factorization; totient(1) = 1."""
    out = 1
    for p, e in factorize(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out
