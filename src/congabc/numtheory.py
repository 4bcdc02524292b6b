"""Exact arbitrary-precision number theory primitives.

Everything here operates on Python integers and is pure: primality
testing, complete factorization, the radical (squarefree kernel),
Euler's totient, and small exact helpers.  The factorization engine
is trial division up to a configurable bound, Miller-Rabin primality
(deterministic below 2**64, seeded-probabilistic above), and Brent's
variant of Pollard's rho with an iteration budget for splitting.  Its
trial primes come from the package's one prime sieve, _prime_array,
which also builds the harness's numpy sieve tables.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_TRIAL_BOUND = 100_000
DEFAULT_RHO_BUDGET = 1 << 26
DEFAULT_MR_ROUNDS = 40
BUDGET_ENV_VAR = "CONGABC_FACTOR_BUDGET"

# Below 2**64 these witnesses make Miller-Rabin deterministic.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_U64 = 1 << 64


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
    is at least 1; the empty tuple represents 1.
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


_prime_cache: dict[int, np.ndarray] = {}
_trial_cache: dict[int, list[int]] = {}


def _prime_array(limit: int) -> np.ndarray:
    """The primes up to limit, ascending (sieve of Eratosthenes)."""
    primes = _prime_cache.get(limit)
    if primes is None:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.nonzero(sieve)[0].astype(np.int64)
        _prime_cache[limit] = primes
    return primes


def _trial_primes(bound: int) -> list[int]:
    primes = _trial_cache.get(bound)
    if primes is None:
        primes = _trial_cache[bound] = _prime_array(bound).tolist()
    return primes


def is_probable_prime(n: int, *, seed: int = 0, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Miller-Rabin primality.

    Deterministic (fixed witness set) for n < 2**64.  Above that the
    witnesses come from a generator seeded with (seed, n), so repeated
    calls under the same seed are reproducible.
    """
    if n < 2:
        return False
    for p in _DETERMINISTIC_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = valuation2(d)
    d >>= s
    if n < _U64:
        bases = _DETERMINISTIC_WITNESSES
    else:
        rng = random.Random(f"{seed}:{n}")
        bases = [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_brent(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Find a nontrivial factor of odd composite n with Brent's rho.

    Returns (factor, steps_spent); factor is 0 if the budget ran out.
    gcds are batched over 128-step windows for speed.
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
                    q = q * abs(x - y) % n
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
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, spent
        # cycle without a factor: retry with a fresh polynomial
    return 0, spent


def factorize(
    n: int,
    *,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    budget: int | None = None,
    seed: int = 0,
    rounds: int = DEFAULT_MR_ROUNDS,
) -> Factorization:
    """Complete prime factorization of n >= 1.

    Raises FactorizationFailure if some composite cofactor cannot be
    split within the rho step budget (default 2**26 per composite,
    overridable via the CONGABC_FACTOR_BUDGET environment variable).
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    if budget is None:
        budget = int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_RHO_BUDGET))
    counts: dict[int, int] = {}
    for p in _trial_primes(trial_bound):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            counts[p] = e
    if n > 1:
        if n < trial_bound * trial_bound or is_probable_prime(n, seed=seed, rounds=rounds):
            # below trial_bound**2 a surviving cofactor is prime
            counts[n] = counts.get(n, 0) + 1
        else:
            stack = [n]
            while stack:
                m = stack.pop()
                if is_probable_prime(m, seed=seed, rounds=rounds):
                    counts[m] = counts.get(m, 0) + 1
                    continue
                rng = random.Random(f"{seed}:rho:{m}")
                f, _ = _rho_brent(m, rng, budget)
                if f == 0:
                    raise FactorizationFailure(m, budget)
                stack.append(f)
                stack.append(m // f)
    return Factorization(tuple(sorted(counts.items())))


def radical(n: int, **kwargs) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    return factorize(n, **kwargs).radical_value()


def totient(n: int, **kwargs) -> int:
    """Euler's totient via factorization; totient(1) = 1."""
    out = 1
    for p, e in factorize(n, **kwargs).factors:
        out *= (p - 1) * p ** (e - 1)
    return out
