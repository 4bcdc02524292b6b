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
recheck band (default 1e-6) is recomputed from exact integers at
160-bit precision before final classification.  Divisibility and
identity checks are exact integer arithmetic throughout.

Verification is data-parallel over deterministic c-range blocks; the
block layout depends only on the corpus, never on the worker count,
and results are merged in corpus order, so summaries are reproducible
bit-for-bit regardless of parallelism.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import random
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import mpmath
import numpy as np

from .abc_core import ABCSolution, MeritReport, merit
from .numtheory import FactorizationFailure, _prime_array, radical, totient
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
        return _corpus_hash_spec(self, _corpus_count(self))


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

_table_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_phi_cache: dict[int, np.ndarray] = {}
_p1mod4_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _radical_tables(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rad, log rad, log of odd part of rad) for 0..limit."""
    tables = _table_cache.get(limit)
    if tables is None:
        rad = np.ones(limit + 1, dtype=np.int64)
        for p in _prime_array(limit):
            rad[p::p] *= p
        lograd = np.zeros(limit + 1, dtype=np.float64)
        lograd[1:] = np.log(rad[1:].astype(np.float64))
        lograd_odd = lograd.copy()
        lograd_odd[2::2] -= _LN2
        tables = (rad, lograd, lograd_odd)
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


def _block_pairs(c_lo: int, c_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Coprime (c, s) pairs of the block, in corpus order."""
    return _block_grid(c_lo, c_hi)[:2]


def _congruence_mask(c_arr: np.ndarray, s_arr: np.ndarray, N: int) -> np.ndarray:
    prod = (c_arr - s_arr) * s_arr % N * (c_arr % N) % N
    return prod == 0


def _corpus_count(spec: CorpusSpec) -> int:
    if spec.congruence == 1:
        phi = _phi_table(spec.max_c)
        return int((phi[3:] // 2).sum())
    total = 0
    for c_lo, c_hi in _c_blocks(spec.max_c):
        c_arr, s_arr = _block_pairs(c_lo, c_hi)
        total += int(_congruence_mask(c_arr, s_arr, spec.congruence).sum())
    return total


def _corpus_hash_spec(spec: CorpusSpec, size: int) -> str:
    return hashlib.sha256(f"{spec.describe()};size={size}".encode()).hexdigest()


def _corpus_hash_list(triples: list[ABCSolution]) -> str:
    h = hashlib.sha256()
    for aa in triples:
        h.update(f"{aa.a},{aa.b},{aa.c};".encode())
    h.update(f"size={len(triples)}".encode())
    return h.hexdigest()


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
# high-precision rechecks (exact integers, 160-bit logs)


def _exact_radicals(aa: ABCSolution, n: int) -> tuple[int, int, int]:
    """(rad of |a*b*c|, rad of the image product, image c) exactly."""
    rad_in = radical(-aa.a) * radical(-aa.b) * radical(aa.c)
    img = theta(aa, n, cap=n)
    rad_img = radical(-img.output.a) * radical(-img.output.b) * radical(img.output.c)
    return rad_in, rad_img, img.output.c


def _hp_lemma1(aa: ABCSolution, n: int, eps: float, tolerance: float) -> tuple[bool, float]:
    rad_in, rad_img, c_img = _exact_radicals(aa, n)
    with mpmath.workprec(HP_PRECISION_BITS):
        e = mpmath.mpf(eps)
        denom = n + n * e - e
        eps_out = e / denom
        c_lin = mpmath.mpf(n) / denom
        c_off = -n * (1 + e) * mpmath.log(2 * n) / denom - n * mpmath.log(2)
        lhs = mpmath.log(c_img) - (1 + eps_out) * mpmath.log(rad_img)
        rhs = c_lin * (mpmath.log(aa.c) - (1 + e) * mpmath.log(rad_in)) + c_off
        slack = lhs - rhs
        return bool(slack >= -mpmath.mpf(tolerance)), float(slack)


def _hp_radical_bound(aa: ABCSolution, n: int, tolerance: float) -> tuple[bool, float]:
    rad_in, rad_img, _ = _exact_radicals(aa, n)
    dd = abs(aa.a - aa.b)
    quotient = 4 * _identity_sum(aa.c, dd, n)
    rad_q = radical(quotient)
    with mpmath.workprec(HP_PRECISION_BITS):
        lhs = mpmath.log(dd) + mpmath.log(rad_in) + mpmath.log(rad_q)
        rhs = mpmath.log(rad_img)
        slack = lhs - rhs
        return bool(slack >= -mpmath.mpf(tolerance)), float(slack)


def _hp_chain(
    aa: ABCSolution, n: int, eps: float, assumed_constant: float, tolerance: float
) -> tuple[bool, float, bool, float]:
    """High-precision slacks of both chain checks for one triple."""
    rad_in, rad_img, c_img = _exact_radicals(aa, n)
    with mpmath.workprec(HP_PRECISION_BITS):
        e = mpmath.mpf(eps)
        denom = n + n * e - e
        eps_out = e / denom
        c_lin = mpmath.mpf(n) / denom
        c_off = -n * (1 + e) * mpmath.log(2 * n) / denom - n * mpmath.log(2)
        f_in = mpmath.log(aa.c) - (1 + e) * mpmath.log(rad_in)
        f_img = mpmath.log(c_img) - (1 + eps_out) * mpmath.log(rad_img)
        lifted = (f_img - c_off) / c_lin
        full = (mpmath.mpf(assumed_constant) - c_off) / c_lin
        tol = mpmath.mpf(tolerance)
        s1 = lifted - f_in
        s2 = full - lifted
        return bool(s1 >= -tol), float(s1), bool(s2 >= -tol), float(s2)


# ---------------------------------------------------------------------------
# block kernels (top-level so they pickle into worker processes)


def _iter_source(source) -> Iterator[ABCSolution]:
    kind = source[0]
    if kind == "range":
        _, c_lo, c_hi, congruence = source
        for c in range(c_lo, c_hi + 1):
            for s in range(1, (c - 1) // 2 + 1):
                if math.gcd(s, c) == 1:
                    if congruence == 1 or ((c - s) * s * c) % congruence == 0:
                        yield ABCSolution(s - c, -s, c)
    else:
        yield from source[1]


def _k_lemma1_vector(args) -> dict:
    (c_lo, c_hi, block_idx, max_c, congruence, n_grid, eps_grid, tolerance, band, cex_cap) = args
    _, lograd, lograd_odd = _radical_tables(max_c)
    c_arr, s_arr, grid = _block_grid(c_lo, c_hi, congruence)
    out = {
        "triples": len(c_arr),
        "checks": 0,
        "passes": 0,
        "failures": 0,
        "inconclusives": 0,
        "counterexamples": [],
        "inconclusive_examples": [],
        "best": None,
    }
    if len(c_arr) == 0:
        return out
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

    def _triple(i: int) -> ABCSolution:
        return ABCSolution(int(s_arr[i] - c_arr[i]), int(-s_arr[i]), int(c_arr[i]))

    combo = 0
    for n in n_grid:
        ln_c_img = n * logc - (n * _LN2) * even
        for eps in eps_grid:
            lc = lemma_constants(n, eps)
            lhs = ln_c_img - (1.0 + lc.eps_out) * lnrad_img[n]
            rhs = lc.c_lin * (logc - (1.0 + eps) * lnrad_abc) + lc.c_off
            slack = lhs - rhs
            suspects = np.nonzero((np.abs(slack) < band) | (slack < -tolerance))[0]
            for i in suspects:
                aa = _triple(int(i))
                try:
                    ok, hp_slack = _hp_lemma1(aa, n, eps, tolerance)
                except FactorizationFailure as exc:
                    out["inconclusives"] += 1
                    if len(out["inconclusive_examples"]) < cex_cap:
                        out["inconclusive_examples"].append(
                            LemmaVerdict(aa, {"n": n, "eps": eps}, 0.0, 0.0, 0.0, False,
                                         inconclusive=True, note=str(exc))
                        )
                    slack[i] = np.inf  # excluded from min tracking
                    continue
                slack[i] = hp_slack
                if not ok:
                    out["failures"] += 1
                    if len(out["counterexamples"]) < cex_cap:
                        out["counterexamples"].append(
                            LemmaVerdict(aa, {"n": n, "eps": eps},
                                         float(lhs[i]), float(rhs[i]), hp_slack, False)
                        )
            out["checks"] += len(c_arr)
            i_min = int(np.argmin(slack))
            key = (float(slack[i_min]), block_idx, i_min, combo)
            if out["best"] is None or key < out["best"][0]:
                aa = _triple(i_min)
                verdict = LemmaVerdict(
                    aa, {"n": n, "eps": float(eps)},
                    float(lhs[i_min]), float(rhs[i_min]), float(slack[i_min]),
                    bool(slack[i_min] >= -tolerance),
                )
                out["best"] = (key, verdict)
            combo += 1
    # counts: every check either passed, failed, or was inconclusive
    out["passes"] = out["checks"] - out["failures"] - out["inconclusives"]
    return out


def _k_lemma1_scalar(args) -> dict:
    (source, block_idx, n_grid, eps_grid, tolerance, band, cex_cap) = args
    out = {
        "triples": 0,
        "checks": 0,
        "passes": 0,
        "failures": 0,
        "inconclusives": 0,
        "counterexamples": [],
        "inconclusive_examples": [],
        "best": None,
    }
    constants = {(n, eps): lemma_constants(n, eps) for n in n_grid for eps in eps_grid}
    local = -1
    for aa in _iter_source(source):
        local += 1
        out["triples"] += 1
        try:
            rad_in = radical(-aa.a) * radical(-aa.b) * radical(aa.c)
        except FactorizationFailure as exc:
            k = len(n_grid) * len(eps_grid)
            out["checks"] += k
            out["inconclusives"] += k
            if len(out["inconclusive_examples"]) < cex_cap:
                out["inconclusive_examples"].append(
                    LemmaVerdict(aa, {}, 0.0, 0.0, 0.0, False, inconclusive=True, note=str(exc))
                )
            continue
        logc = math.log(aa.c)
        lnrad_in = math.log(rad_in)
        combo = 0
        for n in n_grid:
            try:
                img = theta(aa, n, cap=n)
                rad_img = (
                    radical(-img.output.a) * radical(-img.output.b) * radical(img.output.c)
                )
            except FactorizationFailure as exc:
                k = len(eps_grid)
                out["checks"] += k
                out["inconclusives"] += k
                if len(out["inconclusive_examples"]) < cex_cap:
                    out["inconclusive_examples"].append(
                        LemmaVerdict(aa, {"n": n}, 0.0, 0.0, 0.0, False,
                                     inconclusive=True, note=str(exc))
                    )
                combo += len(eps_grid)
                continue
            ln_c_img = math.log(img.output.c)
            lnrad_img = math.log(rad_img)
            for eps in eps_grid:
                lc = constants[(n, eps)]
                lhs = ln_c_img - (1.0 + lc.eps_out) * lnrad_img
                rhs = lc.c_lin * (logc - (1.0 + eps) * lnrad_in) + lc.c_off
                slack = lhs - rhs
                passed = slack >= -tolerance
                if abs(slack) < band:
                    passed, slack = _hp_lemma1(aa, n, eps, tolerance)
                out["checks"] += 1
                if passed:
                    out["passes"] += 1
                else:
                    out["failures"] += 1
                    if len(out["counterexamples"]) < cex_cap:
                        out["counterexamples"].append(
                            LemmaVerdict(aa, {"n": n, "eps": float(eps)}, lhs, rhs, slack, False)
                        )
                key = (slack, block_idx, local, combo)
                if out["best"] is None or key < out["best"][0]:
                    out["best"] = (
                        key,
                        LemmaVerdict(aa, {"n": n, "eps": float(eps)}, lhs, rhs, slack, passed),
                    )
                combo += 1
    return out


def _k_lemma2(args) -> dict:
    (source, block_idx, N, n, max_c, cex_cap) = args
    out = {
        "triples": 0,
        "checks": 0,
        "passes": 0,
        "failures": 0,
        "inconclusives": 0,
        "counterexamples": [],
        "inconclusive_examples": [],
        "best": None,
    }
    if source[0] == "range" and max_c is not None:
        # image product mod N via a residue table of n-th powers
        pow_mod = [pow(v, n, N) for v in range(max_c + 1)]
        _, c_lo, c_hi, congruence = source
        for c in range(c_lo, c_hi + 1):
            half = (c - 1) // 2
            c_even = c % 2 == 0
            pv = pow_mod[c // 2] if c_even else pow_mod[c]
            for s in range(1, half + 1):
                if math.gcd(s, c) != 1:
                    continue
                if congruence > 1 and ((c - s) * s * c) % congruence != 0:
                    continue
                out["triples"] += 1
                out["checks"] += 1
                dd = c - 2 * s
                pu = pow_mod[dd >> 1] if c_even else pow_mod[dd]
                witness = pu * ((pv - pu) % N) % N * pv % N
                if witness == 0:
                    out["passes"] += 1
                else:
                    out["failures"] += 1
                    if len(out["counterexamples"]) < cex_cap:
                        aa = ABCSolution(s - c, -s, c)
                        out["counterexamples"].append(
                            LemmaVerdict(aa, {"N": N, "n": n}, 0.0, 0.0, 0.0, False,
                                         witness=witness)
                        )
        return out
    for aa in _iter_source(source):
        out["triples"] += 1
        out["checks"] += 1
        img = theta(aa, n, cap=n)
        witness = abs(img.raw[0] * img.raw[1] * img.raw[2]) % N
        if witness == 0:
            out["passes"] += 1
        else:
            out["failures"] += 1
            if len(out["counterexamples"]) < cex_cap:
                out["counterexamples"].append(
                    LemmaVerdict(aa, {"N": N, "n": n}, 0.0, 0.0, 0.0, False, witness=witness)
                )
    return out


def _identity_sum(c: int, dd: int, n: int) -> int:
    """sum of c**(n-2-2i) * dd**(2i) for 0 <= i < n/2 (exact)."""
    d2 = dd * dd
    total = 0
    dpow = 1
    for i in range(n // 2):
        total += c ** (n - 2 - 2 * i) * dpow
        dpow *= d2
    return total


def _k_identities(args) -> dict:
    (source, block_idx, n_grid, tolerance, band, radical_scale, cex_cap) = args
    out = {
        "triples": 0,
        "checks": 0,
        "passes": 0,
        "failures": 0,
        "inconclusives": 0,
        "counterexamples": [],
        "inconclusive_examples": [],
        "best": None,
    }
    local = -1
    for aa in _iter_source(source):
        local += 1
        out["triples"] += 1
        c = aa.c
        dd = abs(aa.a - aa.b)
        ab = aa.a * aa.b  # positive
        combo = 0
        for n in n_grid:
            cn = c**n
            dn = dd**n
            s_val = _identity_sum(c, dd, n)
            diff = cn - dn - 4 * ab * s_val
            out["checks"] += 1
            if diff == 0:
                out["passes"] += 1
            else:
                out["failures"] += 1
                if len(out["counterexamples"]) < cex_cap:
                    out["counterexamples"].append(
                        LemmaVerdict(aa, {"n": n, "check": "power-difference-identity"},
                                     0.0, 0.0, 0.0, False, witness=diff)
                    )
            combo += 1
            quotient, rem = divmod(cn - dn, ab)
            margin = 2 * n * c ** (n - 2) - abs(quotient)
            out["checks"] += 1
            if rem == 0 and margin >= 0:
                out["passes"] += 1
            else:
                out["failures"] += 1
                if len(out["counterexamples"]) < cex_cap:
                    out["counterexamples"].append(
                        LemmaVerdict(aa, {"n": n, "check": "quotient-bound"},
                                     0.0, 0.0, 0.0, False, witness=margin)
                    )
            combo += 1
            if radical_scale is not None and c > radical_scale:
                continue
            out["checks"] += 1
            try:
                rad_in, rad_img, _ = _exact_radicals(aa, n)
                rad_q = radical(4 * s_val)
            except FactorizationFailure as exc:
                out["inconclusives"] += 1
                if len(out["inconclusive_examples"]) < cex_cap:
                    out["inconclusive_examples"].append(
                        LemmaVerdict(aa, {"n": n, "check": "radical-log-bound"},
                                     0.0, 0.0, 0.0, False, inconclusive=True, note=str(exc))
                    )
                continue
            lhs = math.log(dd) + math.log(rad_in) + math.log(rad_q)
            rhs = math.log(rad_img)
            slack = lhs - rhs
            passed = slack >= -tolerance
            if abs(slack) < band:
                passed, slack = _hp_radical_bound(aa, n, tolerance)
            if passed:
                out["passes"] += 1
            else:
                out["failures"] += 1
                if len(out["counterexamples"]) < cex_cap:
                    out["counterexamples"].append(
                        LemmaVerdict(aa, {"n": n, "check": "radical-log-bound"},
                                     lhs, rhs, slack, False)
                    )
            key = (slack, block_idx, local, combo)
            if out["best"] is None or key < out["best"][0]:
                out["best"] = (
                    key,
                    LemmaVerdict(aa, {"n": n, "check": "radical-log-bound"},
                                 lhs, rhs, slack, passed),
                )
            combo += 1
    return out


def _k_chain(args) -> dict:
    (source, block_idx, N, n, eps, assumed_constant, full_bound, tolerance, band, cex_cap) = args
    out = {
        "triples": 0,
        "checks": 0,
        "passes": 0,
        "failures": 0,
        "inconclusives": 0,
        "counterexamples": [],
        "inconclusive_examples": [],
        "best": None,
    }
    lc = lemma_constants(n, eps)
    local = -1
    for aa in _iter_source(source):
        local += 1
        out["triples"] += 1
        try:
            rep = merit(aa, eps)
            img = theta(aa, n, cap=n)
            rad_img = radical(-img.output.a) * radical(-img.output.b) * radical(img.output.c)
        except FactorizationFailure as exc:
            out["checks"] += 2
            out["inconclusives"] += 2
            if len(out["inconclusive_examples"]) < cex_cap:
                out["inconclusive_examples"].append(
                    LemmaVerdict(aa, {"N": N, "eps": eps}, 0.0, 0.0, 0.0, False,
                                 inconclusive=True, note=str(exc))
                )
            continue
        f_img = math.log(img.output.c) - (1.0 + lc.eps_out) * math.log(rad_img)
        if f_img > assumed_constant:
            raise HypothesisViolated(
                f"assumed constant {assumed_constant} is below the observed image "
                f"merit {f_img:.12g} at {aa}"
            )
        lifted = (f_img - lc.c_off) / lc.c_lin
        hp = None
        for check, lhs, rhs in (
            ("input-merit-bound", lifted, rep.merit),
            ("derived-bound-dominates", full_bound, lifted),
        ):
            slack = lhs - rhs
            passed = slack >= -tolerance
            if abs(slack) < band:
                if hp is None:
                    hp = _hp_chain(aa, n, eps, assumed_constant, tolerance)
                if check == "input-merit-bound":
                    passed, slack = hp[0], hp[1]
                else:
                    passed, slack = hp[2], hp[3]
            out["checks"] += 1
            params = {"N": N, "eps": float(eps), "n": n, "check": check}
            if passed:
                out["passes"] += 1
            else:
                out["failures"] += 1
                if len(out["counterexamples"]) < cex_cap:
                    out["counterexamples"].append(
                        LemmaVerdict(aa, params, lhs, rhs, slack, False)
                    )
            key = (slack, block_idx, local, 0 if check == "input-merit-bound" else 1)
            if out["best"] is None or key < out["best"][0]:
                out["best"] = (key, LemmaVerdict(aa, params, lhs, rhs, slack, passed))
    return out


# ---------------------------------------------------------------------------
# parallel driver and merge


def _map_blocks(kernel, argslist: list, workers: int) -> list[dict]:
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
    parts: list[dict],
    corpus_hash: str,
    wall_time: float,
    workers: int,
    cex_cap: int,
) -> SuiteSummary:
    corpus_size = sum(p["triples"] for p in parts)
    checks = sum(p["checks"] for p in parts)
    passes = sum(p["passes"] for p in parts)
    failures = sum(p["failures"] for p in parts)
    inconclusives = sum(p["inconclusives"] for p in parts)
    counterexamples: list[LemmaVerdict] = []
    inconclusive_examples: list[LemmaVerdict] = []
    for p in parts:
        counterexamples.extend(p["counterexamples"])
        inconclusive_examples.extend(p["inconclusive_examples"])
    best = None
    for p in parts:
        if p["best"] is not None and (best is None or p["best"][0] < best[0]):
            best = p["best"]
    return SuiteSummary(
        suite=suite,
        params=params,
        corpus_size=corpus_size,
        checks=checks,
        passes=passes,
        failures=failures,
        inconclusives=inconclusives,
        min_slack=best[1].slack if best else None,
        extremal=best[1] if best else None,
        counterexamples=tuple(counterexamples[:cex_cap]),
        inconclusive_examples=tuple(inconclusive_examples[:cex_cap]),
        corpus_hash=corpus_hash,
        wall_time=wall_time,
        workers=workers,
    )


def _sources(corpus) -> tuple[list, str, int | None, int]:
    """Block sources, corpus hash, max_c (if spec-backed), and congruence."""
    if isinstance(corpus, CorpusSpec):
        size = _corpus_count(corpus)
        blocks = _c_blocks(corpus.max_c)
        sources = [("range", lo, hi, corpus.congruence) for lo, hi in blocks]
        return sources, _corpus_hash_spec(corpus, size), corpus.max_c, corpus.congruence
    triples = list(corpus)
    return [("list", tuple(triples))], _corpus_hash_list(triples), None, 1


def _validated_grids(n_grid, eps_grid) -> tuple[tuple[int, ...], tuple[float, ...]]:
    n_grid = tuple(int(n) for n in n_grid)
    eps_grid = tuple(float(e) for e in eps_grid)
    if not n_grid or not eps_grid:
        raise ValueError("parameter grids must be nonempty")
    for n in n_grid:
        if n < 2 or n % 2 != 0:
            raise OddN(f"exponent grid entries must be even and >= 2, got {n}")
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
    individually through the factorization engine.  Both lanes feed
    near-tie verdicts through the exact high-precision recheck.
    """
    n_grid, eps_grid = _validated_grids(n_grid, eps_grid)
    t0 = time.perf_counter()
    sources, corpus_hash, max_c, congruence = _sources(corpus)
    use_vector = (
        max_c is not None
        and max_c <= _VECTOR_MAX_C
        and set(n_grid) <= {2, 4}
        and congruence < 1 << 31
    )
    if use_vector:
        _radical_tables(max_c)  # build in the parent so workers share pages
        argslist = [
            (lo, hi, idx, max_c, congruence, n_grid, eps_grid, tolerance,
             recheck_band, max_counterexamples)
            for idx, (_, lo, hi, _c) in enumerate(sources)
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
    return _merge("lemma1", params, parts, corpus_hash, time.perf_counter() - t0,
                  workers, max_counterexamples)


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
    sources, corpus_hash, max_c, _cong = _sources(corpus)
    argslist = [
        (src, idx, N, n, max_c, max_counterexamples) for idx, src in enumerate(sources)
    ]
    parts = _map_blocks(_k_lemma2, argslist, workers)
    params = {"N": N, "n": n}
    return _merge("lemma2", params, parts, corpus_hash, time.perf_counter() - t0,
                  workers, max_counterexamples)


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
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid:
        raise ValueError("parameter grids must be nonempty")
    for n in n_grid:
        if n < 2 or n % 2 != 0:
            raise OddN(f"exponent grid entries must be even and >= 2, got {n}")
    t0 = time.perf_counter()
    sources, corpus_hash, _max_c, _cong = _sources(corpus)
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
    return _merge("identities", params, parts, corpus_hash, time.perf_counter() - t0,
                  workers, max_counterexamples)


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
    sources, corpus_hash, _max_c, _cong = _sources(corpus)
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
    return _merge("chain", params, parts, corpus_hash, time.perf_counter() - t0,
                  workers, max_counterexamples)


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
    _, lograd, _ = _radical_tables(max_c)
    hits: list[MeritReport] = []
    for c_lo, c_hi in _c_blocks(max_c):
        c_arr, s_arr = _block_pairs(c_lo, c_hi)
        if len(c_arr) == 0:
            continue
        aabs = c_arr - s_arr
        q = np.log(c_arr.astype(np.float64)) / (lograd[aabs] + lograd[s_arr] + lograd[c_arr])
        for i in np.nonzero(q > threshold - 1e-9)[0]:
            aa = ABCSolution(int(s_arr[i] - c_arr[i]), int(-s_arr[i]), int(c_arr[i]))
            rep = merit(aa, 0.0)
            if rep.quality > threshold:
                hits.append(rep)
    hits.sort(key=lambda r: -r.quality)
    return hits
