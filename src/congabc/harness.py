"""Corpus generation and the verification suites.

Corpora are either explicit iterables of solutions or a CorpusSpec
describing the exhaustive corpus (every solution with c <= max_c,
optionally restricted to those with N | abc).  The suites check, over
a corpus:

  verify_lemma1           the merit amplification inequality
  verify_lemma2           N divides the image product A*B*C at n = totient(N)
  verify_proof_identities the exact power-difference identity, the
                          quotient bound, and the image-radical log bound
  verify_reduction_chain  the end-to-end bound propagation

Inequality checks use float arithmetic with an absolute slack
tolerance (default 1e-9); any verdict whose slack is within the
recheck band (default 1e-6) or below -tolerance is recomputed from
exact integers at 160-bit precision before final classification, so
no failure is reported from floats alone.  Divisibility and identity
checks are exact integer arithmetic throughout.

Image radicals.  Per-solution lemma1 and the chain take the exact
radical of the image under theta from its pieces (_Radicals): |a|,
|b|, c, |a - b| and the cyclotomic values Phi_k(c, |a - b|) for
k | n, k > 2, numbers of about c**phi(k) digits where the image has
c**n.  The full image, through theta and radical, is the independent
oracle: the 160-bit rechecks and the identities' radical bound use
it, and so does a per-block audit, which runs the first solution of
every block through it at every n.  An audit mismatch raises
InternalRadicalMismatch; an audit factorization that gives up makes
those checks inconclusive.

Verification is data-parallel over deterministic c-range blocks; the
block layout depends only on the corpus, never on the worker count,
and results are merged in corpus order, so summaries are reproducible
bit-for-bit regardless of parallelism.
"""

from __future__ import annotations

import functools
import hashlib
import math
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import mpmath
import numpy as np

from .abc_core import ABCSolution, MeritReport, merit, radical_abc
from .numtheory import FactorizationFailure, _prime_array, factorize, radical, totient
from .theta import (
    DEFAULT_EXPONENT_CAP,
    ExponentCapExceeded,
    NonpositiveEpsilon,
    OddN,
    lemma_constants,
    theta,
)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_RECHECK_BAND = 1e-6
HP_PRECISION_BITS = 160
DEFAULT_MAX_COUNTEREXAMPLES = 25

_LN2 = math.log(2.0)
_VECTOR_MAX_C = 50_000
_BLOCK_SLOTS = 2_500_000


class HypothesisViolated(ValueError):
    """The assumed uniform constant is below an observed image merit."""


@dataclass(frozen=True)
class CorpusSpec:
    """The exhaustive corpus of solutions with c <= max_c.

    congruence > 1 restricts to solutions whose product a*b*c is
    divisible by it.  Iterating a spec yields the solutions in
    canonical corpus order: c ascending, then the smaller magnitude
    |b| ascending.
    """

    max_c: int
    congruence: int = 1

    def __post_init__(self):
        if self.max_c < 3:
            raise ValueError("max_c must be at least 3")
        if self.congruence < 1:
            raise ValueError("congruence must be a positive integer")

    def describe(self) -> str:
        return f"exhaustive:max_c={self.max_c};congruence={self.congruence}"

    def __iter__(self) -> Iterator[ABCSolution]:
        return filter_congruence(enumerate_solutions(self.max_c), self.congruence)

    def __len__(self) -> int:
        return _corpus_count(self)

    def digest(self) -> str:
        """Stable identifier of the corpus this spec denotes."""
        return _corpus_hash(_spec_head(self), _corpus_count(self))


@dataclass(frozen=True)
class LemmaVerdict:
    """One checked instance: the inequality sides, slack and outcome.

    For inequality checks lhs is the side asserted to be larger, so
    pass means slack = lhs - rhs >= -tolerance.  For exact integer
    checks lhs/rhs/slack are zero and witness carries the evidence
    (a remainder or difference; zero on pass).
    """

    triple: ABCSolution
    params: dict
    lhs: float
    rhs: float
    slack: float
    passed: bool
    witness: int | None = None
    inconclusive: bool = False
    note: str = ""


@dataclass(frozen=True)
class SuiteSummary:
    """Aggregate outcome of one verification suite over one corpus."""

    suite: str
    params: dict
    corpus_size: int
    checks: int
    passes: int
    failures: int
    inconclusives: int
    min_slack: float | None
    extremal: LemmaVerdict | None
    counterexamples: tuple[LemmaVerdict, ...]
    inconclusive_examples: tuple[LemmaVerdict, ...]
    corpus_hash: str
    wall_time: float
    workers: int

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.inconclusives == 0


def enumerate_solutions(max_c: int) -> Iterator[ABCSolution]:
    """Every solution with c <= max_c, exactly once, in corpus order.

    For each c the solutions are (s - c, -s, c) over 1 <= s < c/2 with
    gcd(s, c) = 1, yielded with s ascending.
    """
    if max_c < 3:
        raise ValueError("max_c must be at least 3")
    for c in range(3, max_c + 1):
        for s in range(1, (c - 1) // 2 + 1):
            if math.gcd(s, c) == 1:
                yield ABCSolution(s - c, -s, c)


def filter_congruence(stream: Iterable[ABCSolution], N: int) -> Iterator[ABCSolution]:
    """Keep solutions whose product a*b*c is divisible by N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return (aa for aa in stream if (aa.a * aa.b * aa.c) % N == 0)


def random_solutions(max_c: int, count: int, seed: int = 0) -> list[ABCSolution]:
    """count solutions sampled uniformly from the c <= max_c corpus.

    Rejection sampling over the (c, s) rectangle with a seeded
    generator; for scales where exhaustive enumeration is infeasible.
    """
    if max_c < 3:
        raise ValueError("max_c must be at least 3")
    rng = random.Random(seed)
    out = []
    s_hi = (max_c - 1) // 2
    while len(out) < count:
        c = rng.randrange(3, max_c + 1)
        s = rng.randrange(1, s_hi + 1)
        if 2 * s < c and math.gcd(s, c) == 1:
            out.append(ABCSolution(s - c, -s, c))
    return out


# ---------------------------------------------------------------------------
# sieve tables (process-global, copy-on-write shared with forked workers)

_table_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_phi_cache: dict[int, np.ndarray] = {}
_p1mod4_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _radical_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(log rad, log of odd part of rad) for 0..limit."""
    tables = _table_cache.get(limit)
    if tables is None:
        rad = np.ones(limit + 1, dtype=np.int64)
        for p in _prime_array(limit):
            rad[p::p] *= p
        lograd = np.zeros(limit + 1, dtype=np.float64)
        lograd[1:] = np.log(rad[1:].astype(np.float64))
        lograd_odd = lograd.copy()
        lograd_odd[2::2] -= _LN2
        tables = (lograd, lograd_odd)
        _table_cache[limit] = tables
    return tables


def _phi_table(limit: int) -> np.ndarray:
    phi = _phi_cache.get(limit)
    if phi is None:
        phi = np.arange(limit + 1, dtype=np.int64)
        for p in _prime_array(limit):
            phi[p::p] = phi[p::p] // p * (p - 1)
        _phi_cache[limit] = phi
    return phi


def _p1mod4(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primes p = 1 mod 4 up to limit, their logs, and the two roots
    u = (1 +- i)/2 mod p of 2u**2 - 2u + 1, where i**2 = -1 mod p."""
    cached = _p1mod4_cache.get(limit)
    if cached is None:
        primes = _prime_array(limit)
        sel = primes[primes % 4 == 1]
        roots = np.empty((len(sel), 2), dtype=np.int64)
        for k, p in enumerate(sel.tolist()):
            g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
            i = pow(g, (p - 1) // 4, p)
            roots[k] = (1 + i) * (p + 1) // 2 % p, (1 - i) * (p + 1) // 2 % p
        cached = (sel, np.log(sel.astype(np.float64)), roots)
        _p1mod4_cache[limit] = cached
    return cached


def _c_blocks(max_c: int, target_slots: int = _BLOCK_SLOTS) -> list[tuple[int, int]]:
    """Deterministic c-range blocks of roughly target_slots (c, s) slots."""
    blocks = []
    lo, slots = 3, 0
    for c in range(3, max_c + 1):
        slots += (c - 1) // 2
        if slots >= target_slots:
            blocks.append((lo, c))
            lo, slots = c + 1, 0
    if lo <= max_c:
        blocks.append((lo, max_c))
    return blocks or [(3, max_c)]


def _block_grid(c_lo: int, c_hi: int, congruence: int = 1) -> tuple:
    """Corpus pairs (c, s) of the block, in corpus order, and the grid layout.

    Row c of the full grid holds s = 1 .. (c-1)//2 from position starts[row];
    keep marks the corpus pairs (gcd(s, c) = 1, and N | abc for congruence
    N > 1), so grid position g holds output pair cumsum(keep)[g] - 1.
    """
    cs = np.arange(c_lo, c_hi + 1, dtype=np.int64)
    reps = (cs - 1) // 2
    c_arr = np.repeat(cs, reps)
    starts = np.cumsum(reps) - reps
    s_arr = np.arange(len(c_arr), dtype=np.int64) - np.repeat(starts, reps) + 1
    keep = np.gcd(s_arr, c_arr) == 1
    if congruence > 1:
        keep &= _congruence_mask(c_arr, s_arr, congruence)
    return c_arr[keep], s_arr[keep], (cs, reps, starts, keep)


def _pair(c_arr: np.ndarray, s_arr: np.ndarray, i: int) -> ABCSolution:
    """The solution at position i of a block's (c, s) pairs."""
    c, s = int(c_arr[i]), int(s_arr[i])
    return ABCSolution(s - c, -s, c)


def _congruence_mask(c_arr: np.ndarray, s_arr: np.ndarray, N: int) -> np.ndarray:
    prod = (c_arr - s_arr) * s_arr % N * (c_arr % N) % N
    return prod == 0


def _corpus_count(spec: CorpusSpec) -> int:
    if spec.congruence == 1:
        phi = _phi_table(spec.max_c)
        return int((phi[3:] // 2).sum())
    return sum(len(_block_grid(c_lo, c_hi, spec.congruence)[0])
               for c_lo, c_hi in _c_blocks(spec.max_c))


def _spec_head(spec: CorpusSpec):
    return hashlib.sha256(f"{spec.describe()};".encode())


def _list_head(triples: list[ABCSolution]):
    h = hashlib.sha256()
    for aa in triples:
        h.update(f"{aa.a},{aa.b},{aa.c};".encode())
    return h


def _corpus_hash(head, size: int) -> str:
    """The corpus hash: sha256 of its head (the spec, or every triple), then its size."""
    head.update(f"size={size}".encode())
    return head.hexdigest()


def _lograd_odd_sum_squares(x: np.ndarray, y: np.ndarray, grid: tuple, max_c: int) -> np.ndarray:
    """log of the product of distinct odd primes of x**2 + y**2.

    x = c - s and y = s are a block's corpus pairs and grid its layout
    from _block_grid.  gcd(x, y) = 1, so every odd prime factor is
    1 mod 4 and the 2-adic valuation is at most 1.  Such a p divides
    (c - s)**2 + s**2 exactly when s = c*u mod p for a root u of
    2u**2 - 2u + 1, so the hits of p in row c are two arithmetic
    progressions of step p (a root sieve, as in the quadratic sieve);
    rows with p | c start both at s = 0 mod p, never coprime, and are
    skipped.  Each p < c_hi is sieved over the rows with c > p and
    removed completely at its hits only; what is left of the odd part,
    below c**2, has no prime factor below c, so it is 1 or one prime.
    Logs are added in ascending prime order, that prime last: a prime's
    log is the same float whether the sieve or the cofactor supplies
    it, so the sums, and the verdict bytes, do not depend on where the
    sieve stops and equal those of trial division.
    """
    t = x * x + y * y
    t[(t & 1) == 0] >>= 1
    cs, reps, starts, keep = grid
    rank = np.cumsum(keep) - 1
    primes, logp, roots = _p1mod4(max_c)
    out = np.zeros(len(t), dtype=np.float64)
    for i in range(int(np.searchsorted(primes, cs[-1]))):
        p = int(primes[i])
        row = int(np.searchsorted(cs, p, side="right"))
        s0 = (cs[row:, None] % p) * roots[i] % p
        count = np.where(s0 > 0, (reps[row:, None] - s0) // p + 1, 0).ravel()
        step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        pos = np.repeat((starts[row:, None] + s0 - 1).ravel(), count) + p * step
        hit = rank[pos[keep[pos]]]
        out[hit] += logp[i]
        w = t[hit] // p
        again = w % p == 0
        while again.any():
            w[again] //= p
            again &= w % p == 0
        t[hit] = w
    rest = t > 1
    out[rest] += np.log(t[rest].astype(np.float64))
    return out


# ---------------------------------------------------------------------------
# exact image radicals from the cyclotomic pieces


class InternalRadicalMismatch(RuntimeError):
    """The image radical from the pieces differs from the full image's; a bug."""


def _cyclotomic_pieces(c: int, dd: int, n: int) -> list[int]:
    """Phi_k(c, dd) for k | n with k > 2, the homogeneous cyclotomic values.

    Each comes from those of the divisors below it by the exact division
    c**k - dd**k = prod of Phi_j(c, dd) over j | k.
    """
    phi: dict[int, int] = {}
    for k in range(1, n + 1):
        if n % k == 0:
            v = c**k - dd**k
            for j, pj in phi.items():
                if k % j == 0:
                    v //= pj
            phi[k] = v
    return [v for k, v in phi.items() if k > 2]


class _Radicals:
    """rad(|a*b*c|) of one solution and the exact radicals of its images.

    With x = |a|, y = |b| and dd = |a - b| = x - y, the image under theta
    at even n is (dd**n, c**n - dd**n, c**n) up to sign, each divided by
    2**m.  Halving changes no odd prime, exactly one image component is
    even, c - dd = 2y, c + dd = 2x, and c**n - dd**n is the product of
    the Phi_k(c, dd) over k | n, so

        rad(|A*B*C|) = 2 * (odd primes of x, y, c, dd, Phi_k(c, dd) for k | n, k > 2)

    as a union of prime sets, since the Phi_k can share primes dividing
    n.  A Phi_k has about c**phi(k) digits where the image has c**n.
    Each piece is factored once per solution, shared by every n and eps
    and by rad_in; FactorizationFailure propagates.
    """

    def __init__(self, aa: ABCSolution):
        self.aa = aa
        self._known: dict[int, frozenset[int]] = {}
        self.rad_in = math.prod(self._primes(-aa.a) | self._primes(-aa.b) | self._primes(aa.c))

    def _primes(self, v: int) -> frozenset[int]:
        if v not in self._known:
            self._known[v] = frozenset(p for p, _ in factorize(v).factors)
        return self._known[v]

    def image(self, n: int, audit: bool = False) -> tuple[int, int]:
        """(image c, rad of the image product) at n, exactly.

        With audit, both are also taken from the full image through theta,
        the independent oracle, and a mismatch raises InternalRadicalMismatch.
        """
        aa = self.aa
        x, y, c = -aa.a, -aa.b, aa.c
        dd = x - y
        odd = set().union(*map(self._primes, (x, y, c, dd, *_cyclotomic_pieces(c, dd, n))))
        odd.discard(2)
        got = (c**n >> (n if c % 2 == 0 else 0), 2 * math.prod(odd))
        if audit:
            img = theta(aa, n, cap=n).output
            want = (img.c, radical_abc(img))
            if got != want:
                raise InternalRadicalMismatch(
                    f"image of {aa} at n={n}: pieces give (c, rad) = {got}, "
                    f"the full image {want}"
                )
        return got


# ---------------------------------------------------------------------------
# high-precision rechecks: each recomputes a slack from exact integers with
# 160-bit logs and returns it as an mpf; they take the radicals from the full
# image, independent of _Radicals


def _exact_radicals(aa: ABCSolution, n: int) -> tuple[int, int, int]:
    """(rad of |a*b*c|, rad of the image product, image c) exactly."""
    rad_in = radical_abc(aa)
    img = theta(aa, n, cap=n).output
    return rad_in, radical_abc(img), img.c


def _hp_merits(aa: ABCSolution, n: int, eps: float, rad_in: int, rad_img: int, c_img: int):
    """(f(input, eps), f(image, eps_out), c_lin, c_off) at the working precision."""
    e = mpmath.mpf(eps)
    denom = n + n * e - e
    eps_out = e / denom
    c_lin = mpmath.mpf(n) / denom
    c_off = -n * (1 + e) * mpmath.log(2 * n) / denom - n * mpmath.log(2)
    f_in = mpmath.log(aa.c) - (1 + e) * mpmath.log(rad_in)
    f_img = mpmath.log(c_img) - (1 + eps_out) * mpmath.log(rad_img)
    return f_in, f_img, c_lin, c_off


def _hp_lemma1(aa: ABCSolution, n: int, eps: float):
    radicals = _exact_radicals(aa, n)
    with mpmath.workprec(HP_PRECISION_BITS):
        f_in, f_img, c_lin, c_off = _hp_merits(aa, n, eps, *radicals)
        return f_img - (c_lin * f_in + c_off)


def _hp_radical_bound(aa: ABCSolution, n: int):
    rad_in, rad_img, _ = _exact_radicals(aa, n)
    dd = abs(aa.a - aa.b)
    rad_q = radical(4 * _identity_sum(aa.c, dd, n))
    with mpmath.workprec(HP_PRECISION_BITS):
        lhs = mpmath.log(dd) + mpmath.log(rad_in) + mpmath.log(rad_q)
        return lhs - mpmath.log(rad_img)


def _hp_chain(aa: ABCSolution, n: int, eps: float, assumed_constant: float) -> tuple:
    """Slacks of both chain checks for one triple."""
    radicals = _exact_radicals(aa, n)
    with mpmath.workprec(HP_PRECISION_BITS):
        f_in, f_img, c_lin, c_off = _hp_merits(aa, n, eps, *radicals)
        lifted = (f_img - c_off) / c_lin
        full = (mpmath.mpf(assumed_constant) - c_off) / c_lin
        return lifted - f_in, full - lifted


# ---------------------------------------------------------------------------
# the block tally and its judge


@dataclass
class _Tally:
    """One block's counts, capped examples and best verdict.

    best is (key, verdict) with the smallest key (slack, block_idx,
    local, combo) seen, so the extremal verdict does not depend on how
    the blocks were spread over workers.
    """

    cap: int
    tolerance: float = DEFAULT_TOLERANCE
    band: float = DEFAULT_RECHECK_BAND
    triples: int = 0
    checks: int = 0
    passes: int = 0
    failures: int = 0
    inconclusives: int = 0
    counterexamples: list = field(default_factory=list)
    inconclusive_examples: list = field(default_factory=list)
    best: tuple | None = None

    def passed(self, k: int = 1) -> None:
        self.checks += k
        self.passes += k

    def failed(self, aa, params, lhs=0.0, rhs=0.0, slack=0.0, witness=None) -> None:
        self.checks += 1
        self.failures += 1
        if len(self.counterexamples) < self.cap:
            self.counterexamples.append(LemmaVerdict(aa, params, lhs, rhs, slack, False, witness))

    def inconclusive(self, k: int, aa, params, exc: FactorizationFailure) -> None:
        self.checks += k
        self.inconclusives += k
        if len(self.inconclusive_examples) < self.cap:
            self.inconclusive_examples.append(
                LemmaVerdict(aa, params, 0.0, 0.0, 0.0, False, inconclusive=True, note=str(exc))
            )

    def offer(self, key: tuple, verdict) -> None:
        """Keep verdict() as the best if key is the smallest so far."""
        if self.best is None or key < self.best[0]:
            self.best = (key, verdict())

    def judge(self, where: tuple, slack: float, recheck, aa, params, lhs, rhs) -> float:
        """Count one inequality check; it passes when slack >= -tolerance.

        A near tie (|slack| < band) or a float failure is decided by
        recheck(), the slack recomputed from exact integers at 160 bits;
        if a factorization there gives up, the check is inconclusive.
        The verdict competes for best under the key (slack, *where).
        Returns the final slack, inf for an inconclusive check.
        """
        if abs(slack) < self.band or slack < -self.tolerance:
            try:
                hp = recheck()
            except FactorizationFailure as exc:
                self.inconclusive(1, aa, params, exc)
                return math.inf
            passed, slack = bool(hp >= -self.tolerance), float(hp)
        else:
            passed = slack >= -self.tolerance
        if passed:
            self.passed()
        else:
            self.failed(aa, params, lhs, rhs, slack)
        self.offer((slack, *where), lambda: LemmaVerdict(aa, params, lhs, rhs, slack, passed))
        return slack

    def absorb(self, later: "_Tally") -> None:
        """Fold in the tally of a later block."""
        self.triples += later.triples
        self.checks += later.checks
        self.passes += later.passes
        self.failures += later.failures
        self.inconclusives += later.inconclusives
        self.counterexamples += later.counterexamples[: self.cap - len(self.counterexamples)]
        self.inconclusive_examples += later.inconclusive_examples[
            : self.cap - len(self.inconclusive_examples)
        ]
        if later.best is not None:
            self.offer(later.best[0], lambda: later.best[1])


def _lemma1_sides(lc, eps, logc, lnrad_in, ln_c_img, lnrad_img):
    """(lhs, rhs) of the amplification inequality, from floats or arrays of logs.

    lhs = f(image, eps_out) and rhs = c_lin * f(input, eps) + c_off.
    """
    lhs = ln_c_img - (1.0 + lc.eps_out) * lnrad_img
    rhs = lc.c_lin * (logc - (1.0 + eps) * lnrad_in) + lc.c_off
    return lhs, rhs


# ---------------------------------------------------------------------------
# block kernels (top-level so they pickle into worker processes)


def _iter_source(source) -> Iterator[ABCSolution]:
    """The solutions of one block source, in corpus order."""
    if source[0] == "list":
        return iter(source[1])
    c_arr, s_arr, _ = _block_grid(*source[1:])
    return (_pair(c_arr, s_arr, i) for i in range(len(c_arr)))


def _k_lemma1_vector(args) -> _Tally:
    """The scalar lane's checks over a whole block, from sieve-table logs."""
    (source, block_idx, max_c, n_grid, eps_grid, tolerance, band, cex_cap) = args
    lograd, lograd_odd = _radical_tables(max_c)
    c_arr, s_arr, grid = _block_grid(*source[1:])
    tally = _Tally(cex_cap, tolerance, band, triples=len(c_arr))
    if len(c_arr) == 0:
        return tally
    aabs = c_arr - s_arr
    babs = s_arr
    d_arr = aabs - babs
    logc = np.log(c_arr.astype(np.float64))
    lnrad_abc = lograd[aabs] + lograd[babs] + lograd[c_arr]
    base_odd = lograd_odd[d_arr] + lograd_odd[c_arr] + lograd_odd[aabs] + lograd_odd[babs]
    lnrad_img = {2: _LN2 + base_odd}
    if 4 in n_grid:
        lnrad_img[4] = _LN2 + base_odd + _lograd_odd_sum_squares(aabs, babs, grid, max_c)
    even = (c_arr & 1) == 0

    for ni, n in enumerate(n_grid):
        logs = (logc, lnrad_abc, n * logc - (n * _LN2) * even, lnrad_img[n])
        for ei, eps in enumerate(eps_grid):
            combo = ni * len(eps_grid) + ei
            params = {"n": n, "eps": eps}
            lc = lemma_constants(n, eps)
            # keep only the slack array (peak memory): the sides of one pair
            # come from the same formula on its logs, bit for bit the same
            slack = np.subtract(*_lemma1_sides(lc, eps, *logs))
            suspects = np.flatnonzero((np.abs(slack) < band) | (slack < -tolerance))
            tally.passed(len(slack) - len(suspects))
            for i in suspects.tolist():
                aa = _pair(c_arr, s_arr, i)
                lhs, rhs = _lemma1_sides(lc, eps, *(float(x[i]) for x in logs))
                slack[i] = tally.judge((block_idx, i, combo), lhs - rhs,
                                       lambda: _hp_lemma1(aa, n, eps), aa, params, lhs, rhs)
            i = int(np.argmin(slack))
            lhs, rhs = _lemma1_sides(lc, eps, *(float(x[i]) for x in logs))
            tally.offer((float(slack[i]), block_idx, i, combo), lambda: LemmaVerdict(
                _pair(c_arr, s_arr, i), params, lhs, rhs, float(slack[i]),
                bool(slack[i] >= -tolerance),
            ))
    return tally


def _k_lemma1_scalar(args) -> _Tally:
    (source, block_idx, n_grid, eps_grid, tolerance, band, cex_cap) = args
    tally = _Tally(cex_cap, tolerance, band)
    constants = {(n, eps): lemma_constants(n, eps) for n in n_grid for eps in eps_grid}
    for local, aa in enumerate(_iter_source(source)):
        tally.triples += 1
        try:
            rads = _Radicals(aa)
        except FactorizationFailure as exc:
            tally.inconclusive(len(n_grid) * len(eps_grid), aa, {}, exc)
            continue
        logc = math.log(aa.c)
        lnrad_in = math.log(rads.rad_in)
        for ni, n in enumerate(n_grid):
            try:
                # the block's first solution is audited against the full image
                c_img, rad_img = rads.image(n, audit=local == 0)
            except FactorizationFailure as exc:
                tally.inconclusive(len(eps_grid), aa, {"n": n}, exc)
                continue
            ln_c_img, lnrad_img = math.log(c_img), math.log(rad_img)
            for ei, eps in enumerate(eps_grid):
                lhs, rhs = _lemma1_sides(
                    constants[(n, eps)], eps, logc, lnrad_in, ln_c_img, lnrad_img
                )
                tally.judge(
                    (block_idx, local, ni * len(eps_grid) + ei), lhs - rhs,
                    lambda: _hp_lemma1(aa, n, eps), aa, {"n": n, "eps": eps}, lhs, rhs,
                )
    return tally


def _k_lemma2(args) -> _Tally:
    (source, block_idx, N, n, cex_cap) = args
    tally = _Tally(cex_cap)
    params = {"N": N, "n": n}
    if source[0] == "list":
        for aa in source[1]:
            tally.triples += 1
            img = theta(aa, n, cap=n)
            witness = abs(img.raw[0] * img.raw[1] * img.raw[2]) % N
            if witness == 0:
                tally.passed()
            else:
                tally.failed(aa, params, witness=witness)
        return tally
    # |A*B*C| = d**n * (c**n - d**n) * c**n with d = c - 2s, both halved
    # when c is even, so the witness comes from a residue table of n-th
    # powers; products of two residues fit int64 while N < 2**31
    c_arr, s_arr, _ = _block_grid(*source[1:])
    dtype = np.int64 if N < 1 << 31 else object
    pow_mod = np.array([pow(v, n, N) for v in range(source[2] + 1)], dtype=dtype)
    halve = 1 - (c_arr & 1)
    pv = pow_mod[c_arr >> halve]
    pu = pow_mod[(c_arr - 2 * s_arr) >> halve]
    witness = pu * ((pv - pu) % N) % N * pv % N
    bad = np.flatnonzero(witness)
    tally.triples = len(c_arr)
    tally.passed(len(c_arr) - len(bad))
    for i in bad.tolist():
        tally.failed(_pair(c_arr, s_arr, i), params, witness=int(witness[i]))
    return tally


def _identity_sum(c: int, dd: int, n: int) -> int:
    """sum of c**(n-2-2i) * dd**(2i) for 0 <= i < n/2 (exact)."""
    d2 = dd * dd
    total = 0
    dpow = 1
    for i in range(n // 2):
        total += c ** (n - 2 - 2 * i) * dpow
        dpow *= d2
    return total


def _k_identities(args) -> _Tally:
    (source, block_idx, n_grid, tolerance, band, radical_scale, cex_cap) = args
    tally = _Tally(cex_cap, tolerance, band)
    for local, aa in enumerate(_iter_source(source)):
        tally.triples += 1
        c = aa.c
        dd = abs(aa.a - aa.b)
        ab = aa.a * aa.b  # positive
        combo = 0
        for n in n_grid:
            cn = c**n
            dn = dd**n
            s_val = _identity_sum(c, dd, n)
            diff = cn - dn - 4 * ab * s_val
            if diff == 0:
                tally.passed()
            else:
                tally.failed(aa, {"n": n, "check": "power-difference-identity"}, witness=diff)
            quotient, rem = divmod(cn - dn, ab)
            margin = 2 * n * c ** (n - 2) - abs(quotient)
            if rem == 0 and margin >= 0:
                tally.passed()
            else:
                tally.failed(aa, {"n": n, "check": "quotient-bound"}, witness=margin)
            combo += 2
            if radical_scale is not None and c > radical_scale:
                continue
            params = {"n": n, "check": "radical-log-bound"}
            try:
                rad_in, rad_img, _ = _exact_radicals(aa, n)
                rad_q = radical(4 * s_val)
            except FactorizationFailure as exc:
                tally.inconclusive(1, aa, params, exc)
                continue
            lhs = math.log(dd) + math.log(rad_in) + math.log(rad_q)
            rhs = math.log(rad_img)
            tally.judge((block_idx, local, combo), lhs - rhs,
                        lambda: _hp_radical_bound(aa, n), aa, params, lhs, rhs)
            combo += 1
    return tally


def _k_chain(args) -> _Tally:
    (source, block_idx, N, n, eps, assumed_constant, full_bound, tolerance, band, cex_cap) = args
    tally = _Tally(cex_cap, tolerance, band)
    lc = lemma_constants(n, eps)
    for local, aa in enumerate(_iter_source(source)):
        tally.triples += 1
        try:
            rads = _Radicals(aa)
            c_img, rad_img = rads.image(n, audit=local == 0)
        except FactorizationFailure as exc:
            tally.inconclusive(2, aa, {"N": N, "eps": eps}, exc)
            continue
        f_in = math.log(aa.c) - (1.0 + eps) * math.log(rads.rad_in)
        f_img = math.log(c_img) - (1.0 + lc.eps_out) * math.log(rad_img)
        if f_img > assumed_constant:
            raise HypothesisViolated(
                f"assumed constant {assumed_constant} is below the observed image "
                f"merit {f_img:.12g} at {aa}"
            )
        lifted = (f_img - lc.c_off) / lc.c_lin
        hp = functools.cache(lambda: _hp_chain(aa, n, eps, assumed_constant))
        for j, (check, lhs, rhs) in enumerate((
            ("input-merit-bound", lifted, f_in),
            ("derived-bound-dominates", full_bound, lifted),
        )):
            tally.judge((block_idx, local, j), lhs - rhs, lambda: hp()[j], aa,
                        {"N": N, "eps": eps, "n": n, "check": check}, lhs, rhs)
    return tally


# ---------------------------------------------------------------------------
# parallel driver and merge


def _map_blocks(kernel, argslist: list, workers: int) -> list[_Tally]:
    if workers <= 1 or len(argslist) <= 1:
        return [kernel(a) for a in argslist]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [kernel(a) for a in argslist]
    with ctx.Pool(min(workers, len(argslist))) as pool:
        return list(pool.imap(kernel, argslist))


def _merge(
    suite: str,
    params: dict,
    parts: list[_Tally],
    corpus_head,
    wall_time: float,
    workers: int,
) -> SuiteSummary:
    """One summary from the block tallies, in corpus order (there is always one).

    The corpus is hashed here, from the size the kernels counted.
    """
    total = parts[0]
    for part in parts[1:]:
        total.absorb(part)
    best = total.best
    return SuiteSummary(
        suite=suite,
        params=params,
        corpus_size=total.triples,
        checks=total.checks,
        passes=total.passes,
        failures=total.failures,
        inconclusives=total.inconclusives,
        min_slack=best[1].slack if best else None,
        extremal=best[1] if best else None,
        counterexamples=tuple(total.counterexamples),
        inconclusive_examples=tuple(total.inconclusive_examples),
        corpus_hash=_corpus_hash(corpus_head, total.triples),
        wall_time=wall_time,
        workers=workers,
    )


def _sources(corpus) -> tuple[list, object, int | None, int]:
    """Block sources, corpus hash head, max_c (if spec-backed), and congruence."""
    if isinstance(corpus, CorpusSpec):
        blocks = _c_blocks(corpus.max_c)
        sources = [("range", lo, hi, corpus.congruence) for lo, hi in blocks]
        return sources, _spec_head(corpus), corpus.max_c, corpus.congruence
    triples = list(corpus)
    return [("list", tuple(triples))], _list_head(triples), None, 1


def _validated_n_grid(n_grid) -> tuple[int, ...]:
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid:
        raise ValueError("parameter grids must be nonempty")
    for n in n_grid:
        if n < 2 or n % 2 != 0:
            raise OddN(f"exponent grid entries must be even and >= 2, got {n}")
    return n_grid


def _validated_grids(n_grid, eps_grid) -> tuple[tuple[int, ...], tuple[float, ...]]:
    n_grid = _validated_n_grid(n_grid)
    eps_grid = tuple(float(e) for e in eps_grid)
    if not eps_grid:
        raise ValueError("parameter grids must be nonempty")
    for e in eps_grid:
        if e <= 0:
            raise NonpositiveEpsilon(f"epsilon grid entries must be positive, got {e}")
    return n_grid, eps_grid


def verify_lemma1(
    corpus,
    n_grid: Iterable[int],
    eps_grid: Iterable[float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    recheck_band: float = DEFAULT_RECHECK_BAND,
    workers: int = 1,
    max_counterexamples: int = DEFAULT_MAX_COUNTEREXAMPLES,
) -> SuiteSummary:
    """Check the amplification inequality over a corpus and grids.

    For every (solution, n, eps): the image merit at eps_out must be
    at least c_lin * f(solution, eps) + c_off, within tolerance.  For
    a CorpusSpec with n restricted to {2, 4} a vectorized lane computes
    radicals by sieve tables; otherwise each solution is handled
    individually through the factorization engine.  Both lanes hand
    their slacks to the same judge, which rechecks near ties and
    failures at high precision from exact integers.
    """
    n_grid, eps_grid = _validated_grids(n_grid, eps_grid)
    t0 = time.perf_counter()
    sources, corpus_head, max_c, congruence = _sources(corpus)
    use_vector = (
        max_c is not None
        and max_c <= _VECTOR_MAX_C
        and set(n_grid) <= {2, 4}
        and congruence < 1 << 31
    )
    if use_vector:
        _radical_tables(max_c)  # build in the parent so workers share pages
        argslist = [
            (src, idx, max_c, n_grid, eps_grid, tolerance, recheck_band, max_counterexamples)
            for idx, src in enumerate(sources)
        ]
        parts = _map_blocks(_k_lemma1_vector, argslist, workers)
    else:
        argslist = [
            (src, idx, n_grid, eps_grid, tolerance, recheck_band, max_counterexamples)
            for idx, src in enumerate(sources)
        ]
        parts = _map_blocks(_k_lemma1_scalar, argslist, workers)
    corpus_desc = f"max_c={max_c},congruence={congruence}" if max_c is not None else "stream"
    params = {
        "n": list(n_grid),
        "eps": list(eps_grid),
        "tolerance": tolerance,
        "corpus": corpus_desc,
    }
    return _merge("lemma1", params, parts, corpus_head, time.perf_counter() - t0, workers)


def verify_lemma2(
    corpus,
    N: int,
    *,
    workers: int = 1,
    cap: int = DEFAULT_EXPONENT_CAP,
    max_counterexamples: int = DEFAULT_MAX_COUNTEREXAMPLES,
) -> SuiteSummary:
    """Check that N divides the image product A*B*C at n = totient(N).

    Exact integer divisibility, no tolerance.  N must be at least 3 so
    that totient(N) is even.
    """
    if N < 3:
        raise ValueError("N must be at least 3")
    n = totient(N)
    if n > cap:
        raise ExponentCapExceeded(f"totient({N}) = {n} exceeds cap {cap}")
    assert n % 2 == 0
    t0 = time.perf_counter()
    sources, corpus_head, _max_c, _cong = _sources(corpus)
    argslist = [(src, idx, N, n, max_counterexamples) for idx, src in enumerate(sources)]
    parts = _map_blocks(_k_lemma2, argslist, workers)
    params = {"N": N, "n": n}
    return _merge("lemma2", params, parts, corpus_head, time.perf_counter() - t0, workers)


def verify_proof_identities(
    corpus,
    n_grid: Iterable[int],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    recheck_band: float = DEFAULT_RECHECK_BAND,
    radical_scale: int | None = None,
    workers: int = 1,
    max_counterexamples: int = DEFAULT_MAX_COUNTEREXAMPLES,
) -> SuiteSummary:
    """Check the exact identities behind the amplification bound.

    Per (solution, n): (i) c**n - (a-b)**n = 4ab * sum(...) exactly;
    (ii) the quotient (c**n - (a-b)**n) / (ab) is bounded by
    2n * c**(n-2) exactly; (iii) the image radical log bound, within
    tolerance.  Check (iii) factorizes image-sized integers, so
    radical_scale (when not None) restricts it to solutions with
    c <= radical_scale; (i) and (ii) always run on every solution.
    """
    n_grid = _validated_n_grid(n_grid)
    t0 = time.perf_counter()
    sources, corpus_head, _max_c, _cong = _sources(corpus)
    argslist = [
        (src, idx, n_grid, tolerance, recheck_band, radical_scale, max_counterexamples)
        for idx, src in enumerate(sources)
    ]
    parts = _map_blocks(_k_identities, argslist, workers)
    params = {
        "n": list(n_grid),
        "tolerance": tolerance,
        "radical_scale": radical_scale,
    }
    return _merge("identities", params, parts, corpus_head, time.perf_counter() - t0, workers)


def verify_reduction_chain(
    corpus,
    N: int,
    eps: float,
    assumed_constant: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    recheck_band: float = DEFAULT_RECHECK_BAND,
    workers: int = 1,
    cap: int = DEFAULT_EXPONENT_CAP,
    max_counterexamples: int = DEFAULT_MAX_COUNTEREXAMPLES,
) -> SuiteSummary:
    """Check the end-to-end bound chain under an assumed constant.

    assumed_constant is a hypothesis: a uniform upper bound on the
    image merits f(image, eps_out).  It is checked; HypothesisViolated
    is raised the moment an image merit exceeds it.  Per solution two
    checks: the input merit is at most (f(image, eps_out) - c_off) /
    c_lin, and that quantity is at most derived_full_bound(N, eps,
    assumed_constant).
    """
    if N < 3:
        raise ValueError("N must be at least 3")
    if eps <= 0:
        raise NonpositiveEpsilon(f"epsilon must be positive, got {eps}")
    n = totient(N)
    if n > cap:
        raise ExponentCapExceeded(f"totient({N}) = {n} exceeds cap {cap}")
    lc = lemma_constants(n, eps)
    full_bound = (assumed_constant - lc.c_off) / lc.c_lin
    t0 = time.perf_counter()
    sources, corpus_head, _max_c, _cong = _sources(corpus)
    argslist = [
        (src, idx, N, n, float(eps), float(assumed_constant), full_bound,
         tolerance, recheck_band, max_counterexamples)
        for idx, src in enumerate(sources)
    ]
    parts = _map_blocks(_k_chain, argslist, workers)
    params = {
        "N": N,
        "n": n,
        "eps": float(eps),
        "assumed_constant": float(assumed_constant),
        "bound": full_bound,
    }
    return _merge("chain", params, parts, corpus_head, time.perf_counter() - t0, workers)


def search_quality(max_c: int, threshold: float) -> list[MeritReport]:
    """All solutions with c <= max_c and quality above the threshold.

    Sorted by descending quality; ties keep corpus order.  Candidate
    qualities come from sieve tables, and each hit is recomputed
    through the factorization engine before being reported.
    """
    if max_c < 3:
        raise ValueError("max_c must be at least 3")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lograd, _ = _radical_tables(max_c)
    hits: list[MeritReport] = []
    for c_lo, c_hi in _c_blocks(max_c):
        c_arr, s_arr, _ = _block_grid(c_lo, c_hi)
        if len(c_arr) == 0:
            continue
        aabs = c_arr - s_arr
        q = np.log(c_arr.astype(np.float64)) / (lograd[aabs] + lograd[s_arr] + lograd[c_arr])
        for i in np.nonzero(q > threshold - 1e-9)[0]:
            rep = merit(_pair(c_arr, s_arr, i), 0.0)
            if rep.quality > threshold:
                hits.append(rep)
    hits.sort(key=lambda r: -r.quality)
    return hits
