"""The exhaustive corpus and the verification suites.

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
no failure is reported from floats alone.  A slack that is not finite
is refused (ValueError, exit 2), never judged.  Divisibility and
identity checks are exact integer arithmetic throughout.

Two lanes.  lemma1 and the chain (lemma1 at n = totient(N), rearranged)
are one plan of checks (_Plan) over the logs of one row per solution and
n, (c, rad, image c, image rad): c and rad(|a*b*c|) of the solution and
of its image under theta.  Both lanes take those logs by one float
formula (_judge_logs), from np.log of rad|a|, rad|b|, rad c, rad |a - b|
and a part of each cyclotomic piece of the image.  The scalar lane reads
these integers from each solution's _Radicals, which factors them, not
the image; for a CorpusSpec with c <= _VECTOR_MAX_C whose every piece fits
int64 (_plan_kernel) the sieve lane reads the same integers a block at a time
from the sieve table's log radicals, the pieces' values, by the scalar lane's
table (_phi_table), and their sieve.  So the lanes agree bit for bit.  That
table (_sieve_table), one per process and grown by powers of two, also gives
each c-range its coprime pairs, from least prime factors, and its size, from
totients.  The full image, through theta, is the independent oracle
(_proved_image, _exact_radicals) of the 160-bit rechecks, the identities'
radical bound, every row made exact and the audit of _AUDIT_ROWS seeded
positions of every block at every n; where no dataclass is needed the proof
reads theta's bare image (_image), theta's own arithmetic.  lemma2's witness
depends on a residue class alone: its table is audited against theta on
_AUDIT_ROWS seeded classes, and where it is 0 a CorpusSpec passes by its
totient count, else every pair goes through theta.
The sieve lane's numbers are below 2**63, where radical needs no rho, so that
lane, its rechecks included, never calls factorize.

One driver (_verify) runs every suite over deterministic blocks: c-ranges
of a CorpusSpec or slices of a list, of the size the suite names, never by
the worker count.  It reads each block once and merges the tallies in corpus
order, so summaries are reproducible bit-for-bit regardless of parallelism.

The kernels of a c-range write its block-sized arrays into one workspace per
process (_WORKSPACE), whose named buffers keep their pages from block to
block, so only the first block faults them in.  Two rules keep it sound:
nothing outlives the block that holds a view of a buffer (a tally keeps
Python ints and floats, and a generator over a CorpusSpec copies), and
nothing reads a buffer past the current block's length (every kernel works
on the views of its own length).  A list block never touches the workspace.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import functools
import hashlib
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .abc_core import ABCSolution, MeritReport, merit
from .numtheory import FactorizationFailure, _primes_to, _strip, factorize, radical, totient
from .theta import (
    DEFAULT_EXPONENT_CAP,
    ExponentCapExceeded,
    LemmaConstants,
    _constants,
    _image,
    _integral,
    _require_exponent,
    derived_full_bound,
    lemma_constants,
    theta,
)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_RECHECK_BAND = 1e-6
HP_PRECISION_BITS = 160
DEFAULT_MAX_COUNTEREXAMPLES = 25

_LN2 = math.log(2.0)
# the largest c of the sieve lane and of search_quality: a size guard on their
# tables and root-sieve passes (primes up to sqrt(3) * max_c); the values sieved,
# below 3 * max_c**2, are far inside int64, and _plan_kernel bounds the pieces
_VECTOR_MAX_C = 50_000
# rows per block that both lanes check against the full image at every n:
# a handful of _proved_image calls of about 23 us each, 8% of the time of lemma1 at
# n 2,4 over c <= 3000 in 100k-slot blocks (3% in 300k-slot blocks)
_AUDIT_ROWS = 8
# a row's logs, in both lanes, are sums of a few logs of integers, each off by about
# an ulp in float64, about 1e-13 at the sieve lane's sizes; a prime missed or
# counted twice moves a log by at least ln 2
_AUDIT_TOL = 1e-6
# added to the log of U: where U is the radical its log is the exact one, the same
# floats summed in the same order, so a bounded slack is strictly below the exact
# one, which _Tally.judge's suspect test and argmin loop rely on.  Far below
# _AUDIT_TOL and ln 5, the least U / radical above 1
_BOUND_MARGIN = 1e-9
# the least integer that float() cannot round to a float64: the largest float64,
# 2**1024 - 2**971, plus half its ulp
_FLOAT_LIMIT = (1 << 1024) - (1 << 970)
# (c, s) slots per block for the kernels that take numpy arrays.  Every block writes
# into the workspace's pages, so the size sets the peak RSS and how much of a block's
# ~15 buffers stays in cache.  A sweep from 50k to 300k slots (CHANGES.md) found the
# time flat below 100k, while the audits (_AUDIT_ROWS per block) grow
_BLOCK_SLOTS = 100_000
_TRIPLE_BLOCK = 4096  # slots, or listed solutions, per block for the per-triple kernels
# a workspace buffer grows to a quarter more than it is asked for, so a block a few
# rows longer than the one before fits the pages it already has: a block of
# _BLOCK_SLOTS varies by at most max_c / 2 slots, 25% at _VECTOR_MAX_C
_WORKSPACE_HEADROOM = 4


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
        if not (isinstance(self.max_c, int) and isinstance(self.congruence, int)):
            raise ValueError(f"max_c and congruence must be integers: {self}")
        if self.max_c < 3:
            raise ValueError("max_c must be at least 3")
        if self.congruence < 1:
            raise ValueError("congruence must be a positive integer")

    def __iter__(self) -> Iterator[ABCSolution]:
        for source in _blocks(self, _TRIPLE_BLOCK):
            c, s, _, _ = _block(source)
            # copies: the generator outlives the block, and so its views of the workspace
            yield from map(functools.partial(_pair, c.copy(), s.copy()), range(len(c)))

    def __len__(self) -> int:
        return sum(map(_count, _blocks(self, _BLOCK_SLOTS)))

    def digest(self) -> str:
        """Stable identifier of the corpus this spec denotes."""
        return _corpus_hash(self, len(self))


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
    """Aggregate outcome of one verification suite over one corpus: each check
    counts once, so passes = checks - failures - inconclusives."""

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


# ---------------------------------------------------------------------------
# the workspace of the range blocks


class _Workspace:
    """Named 1-D buffers that the kernels of c-range blocks write into.

    ws(name, size, dtype) is a view of the first size entries of buffer name,
    which grows, with _WORKSPACE_HEADROOM, when it is shorter and never
    shrinks; one buffer may be viewed as int64 in one phase and float64 in the
    next.  A view is good until the next request for its name.  Kernels write
    with out= and in place; np.take takes mode "clip", its indices being in
    range, as the default "raise" copies out= through a temporary.  The names:

      "c", "s"          the block's pairs (_block_grid)
      "keep"            the grid's mask of corpus pairs (_block_grid)
      "scratch0..2"     scratch of any dtype, free again once the function that
                        asked returns: _block_grid's rows, _progressions'
                        positions, _piece_values' powers and terms, _lograd_piece's
                        ranks, _judge_rows' slacks
      "mask0"           bool scratch, likewise
      "logc", "lnrad_abc", "lnrad_dd", "img", "lnrad_img", "even", "bounded"
                        the sieve lane's logs and masks (_k_vector, _judge_logs)
      "piece", "lograd" a piece t_k (_piece_values), and the piece sieve's
                        rad(t_k), then its log (_lograd_piece)
      "logt<k>"         log t_k for the block, where more than one n of lemma1's
                        grid takes the piece k (_k_vector): "logt4" at n 8, 12
    """

    def __init__(self):
        self._raw: dict[str, np.ndarray] = {}

    def __call__(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        nbytes = size * np.dtype(dtype).itemsize
        raw = self._raw.get(name)
        if raw is None or len(raw) < nbytes:
            self._raw.pop(name, None)  # the old pages go before the new ones come
            raw = np.empty(nbytes + nbytes // _WORKSPACE_HEADROOM, dtype=np.uint8)
            self._raw[name] = raw
        return raw[:nbytes].view(dtype)


# one per process: a forked worker starts from a copy of its parent's
_WORKSPACE = _Workspace()


def _fresh(name: str, size: int, dtype=np.int64) -> np.ndarray:
    """A new array in place of a workspace buffer: the scalar lane's, whose
    blocks are small and may be lists, which never touch the workspace."""
    return np.empty(size, dtype)


# ---------------------------------------------------------------------------
# sieve tables (process-global, copy-on-write shared with forked workers), built to
# the power of two above the largest c asked for: a process that sweeps max_c keeps
# one corpus table and a piece table per k and power of two, not a table per bound

# the one corpus table kept, (least, lograd, pairs) (_sieve_table)
_SIEVE: list = [np.zeros(0, dtype=np.int32), np.zeros(0), np.zeros(0, dtype=np.int64)]


def _sieve_table(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one corpus table kept, over v in 0..size - 1 with size a power of two above
    limit, grown as _primes_to's prime array: a limit past it builds the table to the
    next power of two, and a smaller limit gets the same arrays, a tuple of them
    without slicing, as _count reads it once per block.  least comes from the primes up to its square root, rad and the totient from
    least, a numpy pass per prime power over every v at once: about log2(size)
    passes, where a slice per prime below size took 2.6 ms more at size 4096.

      least   the least prime factor of v (v itself below 2), int32: the primes
              of each row of the grid (_block_grid)
      lograd  log rad(v), np.log of the int64 radical (0 at v = 0 and v = 1)
      pairs   the corpus pairs with c <= v, the sum of totient(c) // 2 over c <= v
              (_count): row c of the grid keeps the totient(c) / 2 s < c/2 prime
              to c, as s and c - s are prime to c together, and totient(c) // 2
              is 0 below 3
    """
    if limit >= len(_SIEVE[0]):
        size = 1 << limit.bit_length()
        least = np.arange(size, dtype=np.int32)
        for p in _primes_to(math.isqrt(size - 1))[::-1].tolist():  # the least p of v writes last
            least[p * p::p] = p
        # v's primes read off least as _block_grid reads a row's: the least prime of
        # v / p is p again until p is divided out
        rad, phi = np.ones(size, dtype=np.int64), np.arange(size, dtype=np.int64)
        at = np.arange(2, size)
        v, last = at, 0
        while len(v):
            p = least[v].astype(np.int64)
            new, q = at[p != last], p[p != last]
            rad[new] *= q
            phi[new] = phi[new] // q * (q - 1)
            v = v // p
            live = v > 1
            at, v, last = at[live], v[live], p[live]
        lograd = np.zeros(size, dtype=np.float64)
        lograd[1:] = np.log(rad[1:].astype(np.float64))
        _SIEVE[:] = least, lograd, np.cumsum(phi // 2)
    return tuple(_SIEVE)


@functools.cache
def _piece_ks(n: int) -> tuple[int, ...]:
    """The k | n with k > 2: the cyclotomic pieces of the image at n."""
    return tuple(k for k in range(3, n + 1) if n % k == 0)


@functools.cache
def _phi_table(k: int) -> tuple[int, ...]:
    """The one table of Phi_k, k > 2: Phi_k(x + y, x - y) = the sum over j = 0..m of
    b_j * X**(m - j) * Y**j, m = totient(k)/2, X = x**2, Y = y**2 in x = |a|, y = |b| (Phi_k
    is palindromic).  In u = x/y, highest power first: (u + 1)**k - (u - 1)**k divided
    exactly by Phi_j(u + 1, u - 1) = 2, 2u or the table of j, j | k below k."""
    q = [math.comb(k, i) * (1 - (-1) ** i) for i in range(1, k + 1)]
    for j in (j for j in range(1, k) if k % j == 0):
        den = [v for b in _phi_table(j) for v in (b, 0)][:-1] if j > 2 else [2, 0][:j]
        for i in range(len(q) - len(den) + 1):  # long division, every step exact
            q[i] //= den[0]
            q[i + 1:i + len(den)] = [r - q[i] * v for r, v in zip(q[i + 1:], den[1:])]
        del q[len(q) - len(den) + 1:]
    return tuple(q[::2])


def _sieve_lead(k: int) -> int:
    """a of the piece sieve's q_k = a*x**2 + b*y**2, Phi_k(x + y, x - y) over its content:
    the tables at k = 3, 4, 6 are (3, 1), (2, 2), (1, 3), so a is 3, 1, 1."""
    return _phi_table(k)[0] // math.gcd(*_phi_table(k))


@functools.cache
def _piece_table(k: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes p = 1 mod k that the piece sieve of q_k needs for c < size, a
    power of two (1 << max_c.bit_length(), so a sweep over max_c keeps one table
    per k and power of two; _lograd_piece stops at each block's own bound), and
    the two roots u = (1 - zeta**-1)/2 mod p, zeta either primitive k-th root of
    unity mod p: p | Phi_k(c, d) exactly when c = zeta*d, that is s = c*u.
    (For k = 4 these are (1 +- i)/2; for k = 3 and 6, (3 +- r)/4 and (1 +- r)/4
    with r = 2*omega + 1 = sqrt(-3), omega a primitive cube root of unity.)"""
    primes = _primes_to(math.isqrt(_sieve_lead(k) * size * size))
    sel = primes[primes % k == 1]
    roots = np.empty((len(sel), 2), dtype=np.int64)
    for i, p in enumerate(sel.tolist()):
        zeta = next(z for z in (pow(g, (p - 1) // k, p) for g in range(2, p))
                    if all(pow(z, k // q, p) != 1 for q in (2, 3) if k % q == 0))
        half = (p + 1) // 2
        roots[i] = (1 - pow(zeta, -1, p)) * half % p, (1 - zeta) * half % p
    return sel, roots


def _c_blocks(max_c: int, target_slots: int) -> list[tuple[int, int]]:
    """Deterministic c-range blocks of at least target_slots (c, s) slots each, the
    last excepted: rows 3..c hold (c - 1)**2 // 4 slots, so a block from lo ends at
    the least c with (c - 1)**2 >= 4 * ((lo - 2)**2 // 4 + target_slots)."""
    blocks, lo = [], 3
    while lo <= max_c:
        hi = min(2 + math.isqrt(4 * ((lo - 2) ** 2 // 4 + target_slots) - 1), max_c)
        blocks.append((lo, hi))
        lo = hi + 1
    return blocks


def _count(source) -> int:
    """The corpus pairs of a c-range (c_lo, c_hi, congruence): at congruence 1 from
    the sieve table's pairs, else the length of its grid."""
    lo, hi, congruence = source
    if congruence > 1:
        return len(_block_grid(*source)[0])
    pairs = _sieve_table(hi)[2]
    return int(pairs[hi] - pairs[lo - 1])


def _block_grid(c_lo: int, c_hi: int, congruence: int = 1) -> tuple:
    """Corpus pairs (c, s) of the block, in corpus order, and the grid layout.

    Row c of the full grid holds s = 1 .. (c-1)//2 from position starts[row];
    keep marks the corpus pairs (gcd(s, c) = 1, and N | abc for congruence
    N > 1), so grid position g holds output pair cumsum(keep)[g] - 1.  The
    pairs and keep are views of the workspace, at every congruence.  Each c's
    primes come from the sieve table's least prime factors (_sieve_table), and
    the pairs are placed by each row's count of kept positions.
    """
    cs = np.arange(c_lo, c_hi + 1, dtype=np.int64)
    reps = (cs - 1) // 2
    starts = np.cumsum(reps) - reps
    size = int(reps.sum())
    keep = _WORKSPACE("keep", size, bool)
    keep.fill(True)
    # gcd(s, c) > 1 exactly when s = 0 mod a prime p of c, and such an s has
    # p <= reps: the multiples of p in the row, a slice each.  The primes of each
    # c come from the least prime factors, one pass per prime power: the least
    # prime of v / p is p again until p is divided out
    least, row, v, last = _sieve_table(c_hi)[0], np.arange(len(cs)), cs, 0
    while len(row):
        p = least[v].astype(np.int64)
        new = (p != last) & (p <= reps[row])
        for lo, hi, step in zip((starts[row] + p - 1)[new].tolist(),
                                (starts + reps)[row][new].tolist(), p[new].tolist()):
            keep[lo:hi:step] = False
        v = v // p
        live = v > 1
        row, v, last = row[live], v[live], p[live]
    # the kept positions, found once for c and s (np.compress(keep, ..., out=)
    # finds them per array and copies out= through a temporary), and each row's
    # count of them, from its first (s = 1 is kept in every row); s = position -
    # starts[row] + 1, the row's start read by c from a table over 0..c_hi
    at = np.flatnonzero(keep)
    kept = len(at)
    count = np.diff(np.searchsorted(at, starts), append=kept)
    c = _WORKSPACE("c", kept)
    c[:] = np.repeat(cs.astype(np.int32), count)  # half the temporary of int64
    before = np.zeros(c_hi + 1, dtype=np.int64)
    before[c_lo:] = starts - 1
    s = np.take(before, c, out=_WORKSPACE("s", kept), mode="clip")
    np.subtract(at, s, out=s)
    if congruence > 1:
        sel = _congruence_mask(c, s, congruence)
        keep[keep] = sel
        kept = int(np.count_nonzero(sel))
        c[:kept], s[:kept] = c[sel], s[sel]
        c, s = c[:kept], s[:kept]
    return c, s, (cs, reps, starts, keep)


def _progressions(starts, reps, s0, p) -> tuple[np.ndarray, np.ndarray]:
    """The grid positions of s = s0, s0 + p, ... up to reps in each row, one
    progression after another, and the number of terms of each progression.

    Row r of the grid holds s = 1 .. reps[r] from position starts[r]; s0 = 0
    stands for no progression.  starts, reps and the steps p, one per
    progression, broadcast against s0.  The positions are a view of the
    workspace's scratch0.
    """
    count = np.where(s0 > 0, (reps - s0) // p + 1, 0).ravel()
    live = count > 0
    terms = count[live]
    first = np.broadcast_to(starts + s0 - 1, s0.shape).ravel()[live]
    step = np.broadcast_to(p, s0.shape).ravel()[live]
    at = np.cumsum(terms) - terms  # where each progression begins
    pos = _WORKSPACE("scratch0", int(terms.sum()))
    # a running sum of differences gives each position its progression's step, and a
    # second the positions: each the one before plus its step, the first of each
    # progression the jump from the last of the one before
    pos.fill(0)
    pos[at] = np.diff(step, prepend=0)
    np.cumsum(pos, out=pos)
    last = first + step * (terms - 1)
    pos[at] = first - np.concatenate(([0], last[:-1]))
    return np.cumsum(pos, out=pos), count


def _pair(c_arr: np.ndarray, s_arr: np.ndarray, i: int) -> ABCSolution:
    """The solution at position i of a block's (c, s) pairs."""
    c, s = int(c_arr[i]), int(s_arr[i])
    return ABCSolution(s - c, -s, c)


def _congruence_mask(c_arr: np.ndarray, s_arr: np.ndarray, N: int) -> np.ndarray:
    """Whether N divides |a*b*c| = (c - s) * s * c, in (0, c**3 / 4], for each grid pair.

    So an N above c_hi**3 / 4 divides none; else each product below is at most
    min(N, c**2 / 4) * min(N, c) <= c_hi**3 / 4: int64 while c_hi**3 < 2**65
    (c_hi below 3.3 million), Python ints past that.
    """
    c_hi = int(c_arr[-1])  # the grid is in corpus order, never empty
    if 4 * N > c_hi**3:
        return np.zeros(len(c_arr), dtype=bool)
    if c_hi**3 >= 1 << 65:
        c_arr, s_arr = c_arr.astype(object), s_arr.astype(object)
    return (c_arr - s_arr) * s_arr % N * (c_arr % N) % N == 0


def _corpus_hash(corpus, size: int) -> str:
    """The corpus hash: sha256 of the spec, or of every triple of a list, then the size."""
    h = hashlib.sha256()
    if isinstance(corpus, CorpusSpec):
        h.update(f"exhaustive:max_c={corpus.max_c};congruence={corpus.congruence};".encode())
    else:
        for aa in corpus:
            h.update(f"{aa.a},{aa.b},{aa.c};".encode())
    h.update(f"size={size}".encode())
    return h.hexdigest()


def _piece_values(k: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t_k = Phi_k(c, d) with the primes of 2k divided out, by Horner on _phi_table as
    _Radicals._phi: the piece as _Radicals.piece takes it on a bounded row.

    x = c - s and y = s are a block's corpus pairs; every term fits int64 (_plan_kernel).
    A prime of t_k is 1 mod k and divides none of x, y, c or d, nor another t of the same
    n, and each prime of 2k is in rad_in or a piece that keeps it (_Radicals.bound); so the
    logs of t_k's primes add to the others as the primes of the lcm that _Radicals takes;
    so do d's odd primes, as gcd(d, x*y) = 1 and gcd(d, c) | 2.  t_k is written over x.
    """
    b = _phi_table(k)
    m, size = len(b) - 1, len(x)
    big_x = np.multiply(x, x, out=x if m == 1 else _WORKSPACE("scratch0", size))
    t = np.multiply(big_x, b[0], out=x)
    power = np.multiply(y, y, out=_WORKSPACE("scratch1", size))  # Y**j
    term = power if m == 1 else _WORKSPACE("scratch2", size)
    for j in range(1, m + 1):
        if j > 1:  # h*X, and Y**j from Y**(j - 1)
            t *= big_x
            power *= np.multiply(y, y, out=term)
        t += np.multiply(power, b[j], out=term)
    # the 2s at once: t & -t is the largest power of 2 dividing t > 0
    t //= np.bitwise_and(t, np.negative(t, out=term), out=term)
    for p in (p for p in _primes_to(k)[1:].tolist() if k % p == 0):
        at = np.flatnonzero(np.equal(np.remainder(t, p, out=term), 0,
                                     out=_WORKSPACE("mask0", size, bool)))
        while len(at):
            t[at] //= p
            at = at[t[at] % p == 0]
    return t


def _lograd_piece(k: int, t: np.ndarray, grid: tuple, max_c: int) -> np.ndarray:
    """log rad(t) for the t_k of _piece_values of a block's corpus pairs, grid
    their layout from _block_grid: the chain's piece sieve.  It leaves rad(t) in t.

    The root sieve, as in the quadratic sieve: p | q_k(c - s, s) exactly
    when s = c*u mod p for a root u from _piece_table, so the hits of p in
    row c are two progressions of step p; rows with p | c start both at
    s = 0 mod p, never coprime, and are skipped.  At each hit p is
    multiplied into the row's radical and divided out of t completely.

    The primes go in bulk, an octave [2**j, 2**(j+1)) at a time: one
    _progressions call over primes x rows x roots gives every hit of the
    octave, about slots/(j ln 2), less than a block's worth.
    np.floor_divide.at divides an element hit by several primes once per
    prime, then again while p still divides, as p**2 can divide q_k even with
    p above the row length (c = 7, s = 3: q_4 = 5**2).  A hit that p does not
    divide is a wrong table or value, InternalRadicalMismatch, where the
    division would go on forever.

    The bound, at degree 2: t_k <= q_k = a*x**2 + b*y**2 (_sieve_lead) < a*c**2,
    as c**2 - x**2 = y*(c + x) and b*y < a*(c + x) (y < x, b <= 3a).  Row c is
    sieved by every prime p with p**2 <= a*c**2, so a composite cofactor m, with a
    prime factor q, q**2 <= m < a*c**2, cannot be left: what is left is 1 or the
    radical's last prime.  The radical, below 3 * _VECTOR_MAX_C**2 < 2**53, is
    exact in float64, and its np.log is that of _Radicals.piece's.
    """
    a = _sieve_lead(k)
    cs, reps, starts, keep = grid
    rank = np.cumsum(keep, out=_WORKSPACE("scratch1", len(keep), np.int32))  # below 2**31
    rank -= 1
    primes, roots = _piece_table(k, 1 << max_c.bit_length())
    rad = _WORKSPACE("lograd", len(t))
    rad.fill(1)
    c_hi = int(cs[-1])
    end = int(np.searchsorted(primes, math.isqrt(a * c_hi * c_hi), side="right"))
    octaves = np.searchsorted(primes[:end], [1 << j for j in range(c_hi.bit_length() + 2)])
    for lo, hi in itertools.pairwise(octaves.tolist()):
        p = primes[lo:hi, None, None]
        s0 = (cs[:, None] % p) * roots[lo:hi, None, :] % p  # primes x rows x roots
        s0 = np.where(a * cs[:, None] ** 2 >= p * p, s0, 0)
        pos, count = _progressions(starts[:, None], reps[:, None], s0, p)
        kept = keep[pos]
        hit = rank[pos[kept]]
        p = np.repeat(primes[lo:hi], count.reshape(s0.shape).sum(axis=(1, 2)))[kept]
        np.multiply.at(rad, hit, p)
        if (wrong := np.flatnonzero(t[hit] % p)).size:
            i = wrong[0]
            raise InternalRadicalMismatch(
                f"the piece sieve of t_{k} hits block position {hit[i]} with the prime "
                f"{p[i]}, which does not divide its value {t[hit[i]]}")
        while len(hit):
            np.floor_divide.at(t, hit, p)
            again = t[hit] % p == 0
            hit, p = hit[again], p[again]
    t *= rad  # the cofactor, 1 or a prime; rad's buffer then takes the logs
    return np.log(t, out=_WORKSPACE("lograd", len(t), np.float64))


# ---------------------------------------------------------------------------
# the independent oracle, the full image through theta: for the 160-bit
# rechecks, the per-block audits and the identities' radical bound


def _exact_radicals(aa: ABCSolution, n: int) -> tuple[int, int, int, int]:
    """The row (c, rad(|a*b*c|), image c, image rad) exactly, each radical from
    factorize: the scalar lane's audit, which so checks radical's cube-root rule,
    as _proved_image cannot (_is_radical passes p**2 as rad(p**2) if p**2 | image)."""
    img = theta(aa, n).output

    def rad(t: ABCSolution) -> int:
        return math.prod(factorize(v).radical_value() for v in (-t.a, -t.b, t.c))

    return aa.c, rad(aa), img.c, rad(img)


def _is_radical(r: int, m: int) -> bool:
    """Whether r, a product of distinct primes, is rad(m) for m >= 1, by exact
    division alone: r | m puts every prime of r in m, and m | r**e with
    e = m.bit_length() every prime of m in r, since none divides m e times."""
    return m % r == 0 and pow(r, m.bit_length(), m) == 0


# ---------------------------------------------------------------------------
# exact image radicals from the cyclotomic pieces


class InternalRadicalMismatch(RuntimeError):
    """A table or value that a verdict rests on differs from the full image's: the
    image radical from the pieces, a hit of the piece sieve, or an entry of lemma2's
    witness table (_audit_witnesses); a bug."""


class _Lazy(functools.cached_property):
    """functools.cached_property without the lock that it takes before Python 3.12,
    about 1 us of a first access: the value is set as a plain attribute of the
    instance on first access, where the method's exception surfaces."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


class _Radicals:
    """The rows (c, rad(|a*b*c|), image c, image rad) of one solution, exactly.

    With x = |a|, y = |b| and dd = |a - b| = x - y, the image under theta
    at even n is (dd**n, c**n - dd**n, c**n) up to sign, each divided by
    2**m.  Halving changes no odd prime, exactly one image component is
    even, and c**n - dd**n = (c - dd) * (c + dd) * S = 4ab * S, S the
    product of the pieces Phi_k(c, dd) over k | n with k > 2, so

        rad(|A*B*C|) = lcm(rad_in, rad(dd), rad(4S)),  rad(4S) = lcm(2, rad(Phi_k(c, dd)), ...)

    lcms, not products, since the Phi_k can share primes dividing n.  Each Phi_k is computed
    once per solution (_phi, on the sieve lane's table), parts(n) once per n, and each
    number's radical once (_rad) in the memo known, shared by every n and eps, and by
    every _Radicals given the same memo (the identities share one per block).  A
    FactorizationFailure is kept and raised again for the same number, so a composite
    that resists the budget costs one rho run per memo; the sieve lane's rows made
    exact, pieces below 2**63, none.
    """

    def __init__(self, aa: ABCSolution, known: dict | None = None):
        self.aa = aa
        self._known: dict[int, int | FactorizationFailure] = {} if known is None else known
        self._phis: dict[int, int] = {}
        self._parts: dict[int, tuple[int, int]] = {}

    def _rad(self, v: int) -> int:
        known = self._known.get(v)
        if known is None:
            try:
                known = radical(v)
            except FactorizationFailure as exc:
                known = exc
            self._known[v] = known
        if isinstance(known, FactorizationFailure):
            raise known
        return known

    @_Lazy
    def rad_in(self) -> int:
        return math.lcm(*map(self._rad, (-self.aa.a, -self.aa.b, self.aa.c)))

    def _phi(self, k: int) -> int:
        """Phi_k(c, dd) once per k, by Horner on _phi_table: h = h*X + b_j*Y**j."""
        v = self._phis.get(k)
        if v is None:
            big_x, big_y, v, power = self.aa.a**2, self.aa.b**2, 0, 1
            for b in _phi_table(k):
                v, power = v * big_x + b * power, power * big_y
            self._phis[k] = v
        return v

    def pieces(self, n: int) -> list[int]:
        """Phi_k(c, dd) for the k | n with k > 2: the cyclotomic pieces of the image."""
        return [self._phi(k) for k in _piece_ks(n)]

    def parts(self, n: int) -> tuple[int, int]:
        """(rad(dd), rad(4S)) at n, exactly, once per n."""
        got = self._parts.get(n)
        if got is None:
            got = self._parts[n] = (self._rad(self.aa.b - self.aa.a),
                                    math.lcm(2, *map(self._rad, self.pieces(n))))
        return got

    def row(self, n: int) -> tuple[int, int, int, int]:
        """The row (c, rad(|a*b*c|), image c, image rad) at n, exactly."""
        c = self.aa.c
        return (c, self.rad_in, c**n >> (n if c % 2 == 0 else 0),
                math.lcm(self.rad_in, *self.parts(n)))

    def piece(self, k: int, bound: bool) -> int:
        """The piece Phi_k(c, dd) with the primes of 2k divided out, t_k, where
        bound, no radical taken; else rad(t_k), the primes the piece adds to the
        image radical."""
        v = self._phi(k)
        if bound:
            return _strip(v, math.gcd(v, 2 * k))
        r = self._rad(v)
        return r // math.gcd(r, 2 * k)

    def bound(self, n: int) -> tuple[int, int, int, int]:
        """The row at n with U for the image radical, no piece factored: U is
        lcm(rad_in, rad(dd)) times each t_k (piece), a multiple of the image
        radical.  2 divides rad_in, and an odd p | k that divides Phi_k(c, dd)
        divides Phi_m(c, dd), m = k / p**v (Roitman, "On Zsigmondy primes",
        Proc. AMS 125, 1997): x or y for m <= 2, else the piece Phi_m, which
        keeps p.  So no prime is lost."""
        c, u = self.aa.c, math.lcm(self.rad_in, self._rad(self.aa.b - self.aa.a))
        u *= math.prod(self.piece(k, True) for k in _piece_ks(n))
        return c, self.rad_in, c**n >> (n if c % 2 == 0 else 0), u


def _proved_image(rads: _Radicals, n: int, bound: bool = False) -> tuple[int, int, int, int]:
    """rads.row(n), the row of _exact_radicals, once proved to be that of the full
    image |A*B*C| by exact division (_is_radical), without factoring the image:
    InternalRadicalMismatch unless it is.  The image is theta's bare (A, B, C)
    (_image), theta's own arithmetic without its dataclasses.  With bound,
    rads.bound(n), once every prime of the image is proved to divide its U."""
    row = rads.bound(n) if bound else rads.row(n)
    raw = _image(rads.aa, n)[1]
    m = abs(math.prod(raw))
    if raw[2] != row[2] or not (pow(row[3], m.bit_length(), m) == 0 if bound
                                else _is_radical(row[3], m)):
        raise InternalRadicalMismatch(
            f"{rads.aa} at n={n}: the pieces give (c, rad, image c, "
            f"{'U' if bound else 'image rad'}) = {row}, not those of the full image "
            f"{theta(rads.aa, n).output}"
        )
    return row


# ---------------------------------------------------------------------------
# the block tally and its judge


@dataclass
class _Tally:
    """One block's counts, capped examples and best verdict.

    Every example comes with its key where = (block_idx, local, check):
    its block, its position there and the index of its check.  The
    examples kept are the cap with the smallest keys, in key order, so
    corpus order, however the checks of a block were visited and however
    the corpus was cut into blocks.  best is (key, verdict) with the
    smallest key (slack, *where) seen, so the extremal verdict does not
    depend on how the blocks were spread over workers.  judge is the one
    judge of every float check, a block's slacks of one check at a time.
    """

    cap: int
    tolerance: float
    band: float
    triples: int = 0
    checks: int = 0
    failures: int = 0
    inconclusives: int = 0
    counterexamples: list = field(default_factory=list)
    inconclusive_examples: list = field(default_factory=list)
    best: tuple | None = None

    def passed(self, k: int = 1) -> None:
        self.checks += k

    def _keep(self, examples: list, where: tuple, verdict: Callable[[], LemmaVerdict]) -> None:
        """Put (where, verdict()) into examples if where is among the cap smallest."""
        if len(examples) < self.cap or examples and where < examples[-1][0]:
            bisect.insort(examples, (where, verdict()), key=operator.itemgetter(0))
            del examples[self.cap:]

    def failed(self, where: tuple, aa, params, lhs=0.0, rhs=0.0, slack=0.0, witness=None) -> None:
        self.checks += 1
        self.failures += 1
        self._keep(self.counterexamples, where,
                   lambda: LemmaVerdict(aa, params, lhs, rhs, slack, False, witness))

    def inconclusive(self, where: tuple, k: int, aa, params, exc: FactorizationFailure) -> None:
        """Count k checks inconclusive, one example for them all under where."""
        self.checks += k
        self.inconclusives += k
        self._keep(self.inconclusive_examples, where, lambda: LemmaVerdict(
            aa, params, 0.0, 0.0, 0.0, False, inconclusive=True, note=str(exc)))

    def offer(self, key: tuple, verdict) -> None:
        """Keep verdict() as the best if key is the smallest so far."""
        if self.best is None or key < self.best[0]:
            self.best = (key, verdict())

    def judge(self, slack: np.ndarray, below: np.ndarray, verdict, recheck, bounded=None,
              exact=None) -> list[int]:
        """Judge one float check over a block's entries, slack[i] = lhs - rhs of
        entry i, in place; returns the suspects held bounded, which it leaves uncounted.

        An entry passes when its slack is at least -tolerance.  The suspects, |slack|
        < band or slack < -tolerance, are screened by slack < max(band, -tolerance)
        into the bool buffer below; the others pass at once.  verdict(i) gives entry
        i's (where, solution, params, lhs, rhs) by the float formula, where growing
        with i; a suspect still one on those sides is decided by recheck(i), its slack
        from exact integers at 160 bits (_hp_slacks), which it keeps.

        Where bounded[i] is set, entry i's slack is a lower bound, and exact(i) makes
        it exact, clearing bounded[i], or returns the FactorizationFailure that stops
        it.  A bounded suspect is made exact before it is judged, and the argmin until
        it is exact: the exact argmin.  Only that is offered, as every final slack is
        in place and keys grow with i; one that stayed bounded passes only if its
        slack clears the band.
        """
        def gave_up(i):  # what keeps entry i bounded, None once it is exact
            return exact(i) if bounded is not None and bounded[i] else None

        rows = np.flatnonzero(np.less(slack, max(self.band, -self.tolerance), out=below))
        under = slack[rows]
        held, lost = [], set()
        for i in rows[(np.abs(under) < self.band) | (under < -self.tolerance)].tolist():
            if gave_up(i):
                held.append(i)
                continue
            where, aa, params, lhs, rhs = verdict(i)
            hp = lhs - rhs
            if abs(hp) < self.band or hp < -self.tolerance:
                hp = recheck(i)
            slack[i] = low = float(hp)
            if hp < -self.tolerance:  # the 160-bit slack decides, not its float
                lost.add(i)
                self.failed(where, aa, params, lhs, rhs, low)
        self.passed(len(slack) - len(held) - len(lost))
        if len(slack):
            i = int(np.argmin(slack))
            while bounded is not None and bounded[i] and exact(i) is None:
                slack[i] = operator.sub(*verdict(i)[3:])
                i = int(np.argmin(slack))
            (where, aa, params, lhs, rhs), low, exc = verdict(i), float(slack[i]), gave_up(i)
            passed = (i not in lost and low >= -self.tolerance
                      and (exc is None or abs(low) >= self.band))
            note = f"slack is a lower bound, from a multiple of the image radical: {exc}"
            self.offer((low, *where), lambda: LemmaVerdict(
                aa, params, lhs, rhs, low, passed, inconclusive=exc is not None and not passed,
                note=note if exc else ""))
        return held

    def absorb(self, later: "_Tally") -> None:
        """Fold in the tally of a later block, whose keys are all larger."""
        self.triples += later.triples
        self.checks += later.checks
        self.failures += later.failures
        self.inconclusives += later.inconclusives
        self.counterexamples += later.counterexamples[: self.cap - len(self.counterexamples)]
        self.inconclusive_examples += later.inconclusive_examples[
            : self.cap - len(self.inconclusive_examples)
        ]
        if later.best is not None:
            self.offer(later.best[0], lambda: later.best[1])


# ---------------------------------------------------------------------------
# lemma1 and the chain: one formula each, for floats, arrays and mpf


def _logs(values) -> np.ndarray:
    """np.log of the float64 of each integer of a sequence, as a row takes every log,
    or math.log from _FLOAT_LIMIT on, which no float64 holds: the rule goes by the
    value, not the lane (the sieve lane's numbers are below 2**63)."""
    logs = np.log(np.array([v if v < _FLOAT_LIMIT else 1 for v in values], dtype=np.float64))
    for i in (i for i, v in enumerate(values) if v >= _FLOAT_LIMIT):
        logs[i] = math.log(values[i])
    return logs


def _merits(k: LemmaConstants, logc, lnrad_in, ln_c_img, lnrad_img) -> tuple:
    """(f(solution, eps), f(image, eps_out)) from the four logs."""
    return logc - (1.0 + k.epsilon) * lnrad_in, ln_c_img - (1.0 + k.eps_out) * lnrad_img


def _lemma1_sides(k: LemmaConstants, f_in, f_img, bound) -> tuple:
    """The amplification inequality f(image, eps_out) >= c_lin * f(solution, eps) + c_off."""
    return ((f_img, k.c_lin * f_in + k.c_off),)


def _chain_sides(k: LemmaConstants, f_in, f_img, bound) -> tuple:
    """f(solution, eps) <= lifted = (f(image, eps_out) - c_off) / c_lin
    (lemma1 rearranged) and lifted <= (bound - c_off) / c_lin."""
    lifted = k.lift(f_img)
    return ((lifted, f_in), (k.lift(bound), lifted))


def _merit_arrays(k: LemmaConstants, logs: tuple, f_in: np.ndarray, f_img: np.ndarray) -> None:
    """_merits over arrays of logs, into f_in and f_img: the same operations in the
    same order, so each entry is the float _merits gives from that row's logs."""
    logc, lnrad_in, ln_c_img, lnrad_img = logs
    np.subtract(logc, np.multiply(lnrad_in, 1.0 + k.epsilon, out=f_in), out=f_in)
    np.subtract(ln_c_img, np.multiply(lnrad_img, 1.0 + k.eps_out, out=f_img), out=f_img)


def _slack_arrays(plan: "_Plan", k: LemmaConstants, f_in: np.ndarray, f_img: np.ndarray) -> tuple:
    """The slacks lhs - rhs of plan.sides over the arrays of _merit_arrays, in their
    place, each entry the float that plan.sides gives from that row's merits."""
    if plan.sides is _lemma1_sides:  # f_img - (c_lin * f_in + c_off)
        np.add(np.multiply(f_in, k.c_lin, out=f_in), k.c_off, out=f_in)
        return (np.subtract(f_img, f_in, out=f_img),)
    # the chain: lifted - f_in and lift(bound) - lifted, lifted = (f_img - c_off) / c_lin
    lifted = np.divide(np.subtract(f_img, k.c_off, out=f_img), k.c_lin, out=f_img)
    return np.subtract(lifted, f_in, out=f_in), np.subtract(k.lift(plan.bound), lifted, out=lifted)


@dataclass(frozen=True)
class _Plan:
    """The checks lemma1 or the chain makes of every solution, in both lanes.

    At each n of n_grid and eps of eps_grid, sides(k, f_in, f_img, bound)
    gives the (lhs, rhs) of each check, lhs asserted to be the larger,
    from k = lemma_constants(n, eps) and the merits (_merits), in floats,
    arrays or mpf.  A bound (the chain's assumed constant) is a hypothesis,
    tested before any check is judged.  A check's params are context, n,
    eps and its label.
    """

    n_grid: tuple[int, ...]
    eps_grid: tuple[float, ...]
    sides: Callable
    bound: float | None = None
    labels: tuple[dict, ...] = ({},)
    context: dict = field(default_factory=dict)


@contextlib.contextmanager
def _at_160_bits():
    """mpmath at HP_PRECISION_BITS, the one entry of every 160-bit recheck;
    mpmath is imported here, so only a run that rechecks loads it."""
    import mpmath
    with mpmath.workprec(HP_PRECISION_BITS):
        yield mpmath


def _hp_slacks(rads: _Radicals, n: int, eps: float, plan: _Plan) -> list:
    """The slacks of plan's checks of one solution at (n, eps), at 160 bits, from
    _proved_image of the _Radicals its row was judged from, so no radical is taken
    twice.  None gives up: a row is made exact, its radicals taken, before it is
    rechecked."""
    row = _proved_image(rads, n)
    with _at_160_bits() as mp:
        k = _constants(n, mp.mpf(eps), mp.log)
        logs = map(mp.log, row)
        return [lhs - rhs for lhs, rhs in plan.sides(k, *_merits(k, *logs), plan.bound)]


# ---------------------------------------------------------------------------
# block kernels: kernel(tally, block, block_idx, *consts) counts the checks of
# one nonempty block (see _block) into tally; top-level, so they pickle into
# worker processes


def _judge_rows(tally: _Tally, plan: _Plan, block_idx: int, ni: int, logs: tuple, where,
                radicals, bounded=None, exact=None, buf=_fresh) -> None:
    """Judge plan's checks at its ni-th n over the rows of one block (tally.judge).

    logs holds the arrays of the four logs, one row per solution, where[i]
    the block position of row i and radicals(p) the _Radicals of the solution
    at p, which the 160-bit rechecks read.  A row's sides come from the same
    formula on its logs, bit for bit the arrays' entries (_merit_arrays,
    _slack_arrays), so only the slack arrays are kept, in buffers from buf
    (the workspace, or _fresh).

    Where bounded[i] is set, row i's fourth log is that of a multiple of the
    image radical (lemma1's), and exact(i) the exact one, which settle writes
    in for the judge once, for every eps.  A row whose radicals give up counts
    the checks it was held at as inconclusive, under its first check's key at n.
    """
    n = plan.n_grid[ni]
    size = len(where)
    f_in, f_img = buf("scratch0", size, np.float64), buf("scratch1", size, np.float64)
    near = buf("mask0", size, bool)
    failed, held = {}, collections.Counter()  # rows that gave up, and their suspect checks

    def settle(i):
        """Make bounded row i exact, once: the FactorizationFailure that stops it, else None."""
        if i not in failed:
            try:
                logs[3][i], bounded[i] = exact(i), False
            except FactorizationFailure as exc:
                failed[i] = exc
        return failed.get(i)

    for ei, eps in enumerate(plan.eps_grid):
        k = lemma_constants(n, eps)

        def merits(i):
            return _merits(k, *(float(x[i]) for x in logs))

        with np.errstate(over="ignore", invalid="ignore"):
            _merit_arrays(k, logs, f_in, f_img)
            if plan.bound is not None and np.greater(f_img, plan.bound, out=near).any():
                i = int(np.argmax(near))  # the first row over the bound
                raise HypothesisViolated(
                    f"assumed constant {plan.bound} is below the observed image "
                    f"merit {merits(i)[1]:.12g} at {radicals(where[i]).aa}"
                )
            slacks = _slack_arrays(plan, k, f_in, f_img)
        # a non-finite slack is no suspect (abs(inf) < band and nan < -tol are false): a pass
        if not all(np.isfinite(slack, out=near).all() for slack in slacks):
            raise ValueError(f"the checks at n={n}, eps={eps} are not finite in float64")
        hp = functools.cache(lambda i: _hp_slacks(radicals(where[i]), n, eps, plan))
        first = (ni * len(plan.eps_grid) + ei) * len(plan.labels)
        for j, slack in enumerate(slacks):
            params = {**plan.context, "n": n, "eps": eps, **plan.labels[j]}

            def verdict(i):
                return ((block_idx, where[i], first + j), radicals(where[i]).aa, params,
                        *plan.sides(k, *merits(i), plan.bound)[j])

            held.update(tally.judge(slack, near, verdict, lambda i: hp(i)[j], bounded, settle))
    for i, count in held.items():
        tally.inconclusive((block_idx, where[i], ni * len(plan.eps_grid) * len(plan.labels)),
                           count, radicals(where[i]).aa, plan.context or {"n": n}, failed[i])


def _audit_rows(block_idx: int, size: int) -> list[int]:
    """The block positions both lanes audit: a sample drawn by a generator
    seeded from the block index alone, so it does not depend on the workers.
    (random, not numpy.random: importing that adds about 2 MB to a run's RSS.)"""
    return sorted(random.Random(block_idx).sample(range(size), min(size, _AUDIT_ROWS)))


def _audit_logs(got: tuple, rads: _Radicals, n: int, bound: bool = False) -> None:
    """Compare the four logs of one row with those of _proved_image's row, the full
    image, or with bound those of its U: a difference above _AUDIT_TOL raises
    InternalRadicalMismatch."""
    want = tuple(map(math.log, _proved_image(rads, n, bound)))
    if any(abs(g - w) > _AUDIT_TOL for g, w in zip(got, want)):
        raise InternalRadicalMismatch(
            f"{rads.aa} at n={n}: the sieve gives the logs of (c, rad, image c, "
            f"{'U' if bound else 'image rad'}) {got}, the full image {want}"
        )


def _takes_bounds(plan: _Plan) -> bool:
    """Whether plan's rows at an n with a piece are judged on a multiple of the image
    radical (_Radicals.bound): lemma1's, whose slacks fall as it grows, not the chain's."""
    return plan.sides is _lemma1_sides


def _judge_logs(tally: _Tally, plan: _Plan, block_idx: int, nis, logc: np.ndarray,
                lograds: tuple, even: np.ndarray, pieces, where, radicals, audit, buf) -> None:
    """plan's checks at plan.n_grid[ni], ni in nis, over the rows of one block, by
    the float formula of both lanes, from np.log of integers (_logs).

    where and radicals are _judge_rows'.  logc holds log c, lograds log rad of
    |a|, |b|, c and d = |a - b| (summed in place), even marks the rows of even c,
    and pieces(n, bound) gives the log of each piece k | n, k > 2.  At n, each
    term the log of the primes its factor adds to the image radical (_piece_values):

      log rad_in = (log rad|a| + log rad|b|) + log rad c
      lnrad_dd   = log rad_in + log rad d, less ln 2 where c is even
      image c    = n * log c, less n * ln 2 where c is even
      image rad  = lnrad_dd + the log of each piece

    lemma1's rows at an n with a piece are bounded (_takes_bounds): each piece
    is t_k, so the last log is that of _Radicals.bound's U, plus _BOUND_MARGIN,
    and exact(i) makes row i exact with rad(t_k), as the other rows take it
    (_Radicals.piece).  The rows of audit, at every n, and those made exact are
    audited (_audit_logs).  Arrays come from buf, as in _judge_rows.
    """
    lnrad_abc, lnrad_b, lnrad_c, lnrad_dd = lograds
    np.add(np.add(lnrad_abc, lnrad_b, out=lnrad_abc), lnrad_c, out=lnrad_abc)
    np.subtract(np.add(lnrad_abc, lnrad_dd, out=lnrad_dd), _LN2, out=lnrad_dd, where=even)
    img, lnrad_img = (buf(name, len(where), np.float64) for name in ("img", "lnrad_img"))
    bounded = buf("bounded", len(where), bool)
    for ni in nis:
        n = plan.n_grid[ni]
        bound = n > 2 and _takes_bounds(plan)
        np.copyto(lnrad_img, lnrad_dd)
        for term in pieces(n, bound):
            lnrad_img += term
        if bound:
            lnrad_img += _BOUND_MARGIN
        np.subtract(np.multiply(logc, n, out=img), n * _LN2, out=img, where=even)
        logs = (logc, lnrad_abc, img, lnrad_img)
        for i in audit:
            _audit_logs(tuple(float(x[i]) for x in logs), radicals(where[i]), n, bound)

        def exact(i, n=n, logs=logs):
            rads, value = radicals(where[i]), float(lnrad_dd[i])
            for k in _piece_ks(n):
                value += _logs([rads.piece(k, False)])[0]
            _audit_logs((*(float(x[i]) for x in logs[:3]), value), rads, n)
            return value

        bounded.fill(bound)
        _judge_rows(tally, plan, block_idx, ni, logs, where, radicals, bounded, exact, buf)


def _k_vector(tally: _Tally, block, block_idx: int, max_c: int, plan: _Plan) -> None:
    """plan's checks over one c-range of a CorpusSpec (_judge_logs): each log rad from
    the sieve table's lograd (_sieve_table), each piece's from its values t_k
    (_piece_values), or where not bounded their sieve (_lograd_piece, degree 2), in
    buffers of the workspace alone."""
    lograd = _sieve_table(max_c)[1]
    c_arr, s_arr, grid, solution = block
    size, ws = len(c_arr), _WORKSPACE

    def table(values, name):  # every value at most max_c
        return np.take(lograd, values, out=ws(name, size, np.float64), mode="clip")

    # each bounded log once per block: that of a piece that more than one n of the
    # grid takes (t_4 at n 8, 12) in a buffer of its own, any other in scratch1,
    # which no later n reads
    ks, kept = [k for n in plan.n_grid for k in _piece_ks(n)], {}

    def pieces(n, bound):
        for k in _piece_ks(n):
            if k not in kept:
                t = _piece_values(k, np.subtract(c_arr, s_arr, out=ws("piece", size)), s_arr)
                if not bound:  # the chain, at its one n
                    yield _lograd_piece(k, t, grid, max_c)
                    continue
                name = f"logt{k}" if ks.count(k) > 1 else "scratch1"
                kept[k] = np.log(t, out=ws(name, size, np.float64))
            yield kept[k]

    # log rad of |a| = c - s, |b| = s, c and d = c - 2s; |b|'s and c's in the
    # buffers of the image logs, which _judge_logs takes once it has summed them
    d = ws("scratch0", size)
    lograds = (table(np.subtract(c_arr, s_arr, out=d), "lnrad_abc"), table(s_arr, "img"),
               table(c_arr, "lnrad_img"),
               table(np.subtract(c_arr, np.multiply(s_arr, 2, out=d), out=d), "lnrad_dd"))
    even = np.equal(np.bitwise_and(c_arr, 1, out=d), 0, out=ws("even", size, bool))
    _judge_logs(tally, plan, block_idx, range(len(plan.n_grid)),
                np.log(c_arr, out=ws("logc", size, np.float64)), lograds, even, pieces,
                range(size), functools.cache(lambda i: _Radicals(solution(i))),
                _audit_rows(block_idx, size), ws)


def _k_scalar(tally: _Tally, block, block_idx: int, plan: _Plan) -> None:
    """plan's checks over one block (_judge_logs), from each solution's integers in
    its _Radicals: rad|a|, rad|b|, rad c, rad d and at each n the pieces.  The
    block's first solution is audited against the full image (_exact_radicals).
    A row whose radicals or audit give up at an n is inconclusive there."""
    per_n, solution = len(plan.eps_grid) * len(plan.labels), block[3]
    radicals = [_Radicals(solution(i)) for i in range(len(block[0]))]
    audited = set(_audit_rows(block_idx, len(radicals)))
    for ni, n in enumerate(plan.n_grid):
        bound, rows = n > 2 and _takes_bounds(plan), []
        for local, rads in enumerate(radicals):
            aa = rads.aa
            try:
                row = (local, aa.c, *map(rads._rad, (-aa.a, -aa.b, aa.c, aa.b - aa.a)),
                       *(rads.piece(k, bound) for k in _piece_ks(n)))
                # the audit is in this try: if it gives up, so do this n's checks
                if local == 0 and (got := rads.row(n)) != (want := _exact_radicals(aa, n)):
                    raise InternalRadicalMismatch(
                        f"{aa} at n={n}: the pieces give (c, rad, image c, image rad) = "
                        f"{got}, the full image {want}")
                rows.append(row)
            except FactorizationFailure as exc:
                # lemma1 names the n whose radicals gave up, the chain has one n
                tally.inconclusive((block_idx, local, ni * per_n), per_n, aa,
                                   plan.context or {"n": n}, exc)
        if rows:
            where, cs, *ints = zip(*rows)
            logs = [_logs(col) for col in ints]
            _judge_logs(tally, plan, block_idx, (ni,), _logs(cs), logs[:4],
                        np.array([v % 2 == 0 for v in cs]), lambda n, bound: logs[4:], where,
                        radicals.__getitem__, [i for i, p in enumerate(where) if p in audited],
                        _fresh)


def _lemma2_witnesses(N: int, n: int) -> np.ndarray:
    """The witness |A*B*C| mod N of the image at n of the solution (c, s), s = |b|,
    at position (c mod 2N) * N + s mod N: it depends on those residues alone.

    |A*B*C| = d**n * (c**n - d**n) * c**n with d = c - 2s, both halved when c is
    even; c' = c or c/2 and d' = c - 2s or c/2 - s are fixed mod N by c mod 2N and
    s mod N.  totient(N) <= DEFAULT_EXPONENT_CAP = 64 forces N <= 240, so the
    table has 2N**2 < 2**17 entries, and pu * (pv - pu + N) * pv < N**3 fits int32.
    """
    power = np.array([pow(v, n, N) for v in range(N)], dtype=np.int32)
    r, q = np.arange(2 * N)[:, None], np.arange(N)
    half = r % 2 == 0
    pv = power[np.where(half, r // 2, r) % N]
    pu = power[np.where(half, r // 2 - q, r - 2 * q) % N]
    return (pu * (pv - pu + N) * pv % N).ravel()


def _audit_witnesses(table: np.ndarray, N: int, n: int) -> None:
    """Check _AUDIT_ROWS classes (c mod 2N, s mod N) of lemma2's witness table, drawn
    by a generator seeded from N among those that coprime pairs reach, against theta's
    image of the first such pair a short search finds: InternalRadicalMismatch where
    they differ.  A class is reached exactly when gcd(c mod 2N, s mod N, N) = 1."""
    rng, drawn = random.Random(N), set()
    while len(drawn) < _AUDIT_ROWS:  # at least 16 of the 2N**2 classes are reached
        r, q = divmod(rng.randrange(2 * N * N), N)
        if math.gcd(r, q, N) == 1:
            drawn.add((r, q))
    for r, q in sorted(drawn):
        aa = next(ABCSolution(s - c, -s, c) for c in itertools.count(r or 2 * N, 2 * N)
                  for s in range(q or N, (c + 1) // 2, N) if math.gcd(c, s) == 1)
        if (want := abs(math.prod(theta(aa, n).raw)) % N) != table[r * N + q]:
            raise InternalRadicalMismatch(f"lemma2's witness table at N={N}, n={n} gives "
                                          f"{table[r * N + q]} at {aa}, theta {want}")


def _k_lemma2(tally: _Tally, block, block_idx: int, N: int, n: int) -> None:
    """N | A*B*C for the image at n of each solution of one block, exactly, the full
    image through theta, the oracle: the path of a list, and of a CorpusSpec whose
    witness table has a nonzero entry (verify_lemma2), so failures come in corpus
    order with their witness |A*B*C| mod N."""
    solution = block[3]
    for i in range(len(block[0])):
        aa = solution(i)
        if witness := abs(math.prod(theta(aa, n).raw)) % N:
            tally.failed((block_idx, i), aa, {"N": N, "n": n}, witness=witness)
        else:
            tally.passed()


def _identity_sum(c, dd, n: int):
    """sum of c**(n-2-2i) * dd**(2i) for 0 <= i < n/2 (exact), of ints or of
    object arrays of ints."""
    return sum(c ** (n - 2 - 2 * i) * dd ** (2 * i) for i in range(n // 2))


def _radical_sides(rads: _Radicals, n: int, log) -> tuple:
    """The sides of check (iii) at n by log, math.log or the recheck's at 160 bits:
    log dd + log rad(|a*b*c|) + log rad(4 * S) and log of the image radical, proved
    by _proved_image, with rad(4 * S) from the parts(n) that its rads.row(n) took:
    one lookup of the memo."""
    _, rad_in, _, rad_img = _proved_image(rads, n)
    return log(rads.aa.b - rads.aa.a) + log(rad_in) + log(rads._parts[n][1]), log(rad_img)


def _k_identities(tally: _Tally, block, block_idx: int, n_grid: tuple[int, ...],
                  radical_scale: int | None) -> None:
    """The exact identities, and the radical bound up to radical_scale, over one block.

    Checks (i) and (ii) run on the whole block at once and record their
    failures from its arrays: int64 at an n with n * c_hi**n < 2**62, c_hi the
    block's largest c, as no term exceeds (n/2 + 1) * c**n, else numpy object
    arrays of Python ints, which never wrap.  Then the rows with c <=
    radical_scale take check (iii).  At the t-th n, check j (0, 1, 2 for (i),
    (ii), (iii)) has the key (block_idx, position, 3*t + j), so the tally
    keeps them per solution, per n, in that order, however they were
    visited.  Check (iii) takes rad(|a*b*c|) and the image radical from one
    _Radicals per solution, proved against theta's bare image (_image) by
    _proved_image at every (solution, n), and rad(4 * S) from the parts that
    proof's row took (_radical_sides): check (i) is what shows S =
    _identity_sum(c, dd, n) to be the product of the pieces.  The block's
    _Radicals share one radical memo, and only the floats of its rows are kept,
    judged by one tally.judge (a suspect's integers taken again from the memo for
    the 160-bit recheck).
    """
    c_arr, s_arr, _, solution = block
    c_hi = int(c_arr.max())

    @functools.cache
    def terms(dtype) -> tuple:
        c, s = c_arr.astype(dtype), s_arr.astype(dtype)
        a, b = s - c, -s
        return c, np.abs(a - b), a * b  # ab positive

    for t, n in enumerate(n_grid):
        c, dd, ab = terms(np.int64 if n * c_hi**n < 1 << 62 else object)
        power_diff = c**n - dd**n
        diff = power_diff - 4 * ab * _identity_sum(c, dd, n)
        margin = 2 * n * c ** (n - 2) - np.abs(power_diff // ab)
        checks = (("power-difference-identity", diff == 0, diff),
                  ("quotient-bound", (power_diff % ab == 0) & (margin >= 0), margin))
        for j, (check, ok, witness) in enumerate(checks):
            tally.passed(int(ok.sum()))
            for i in np.flatnonzero(~ok).tolist():
                tally.failed((block_idx, i, 3 * t + j), solution(i), {"n": n, "check": check},
                             witness=int(witness[i]))
    scale = math.inf if radical_scale is None else radical_scale
    rows = np.flatnonzero(c_arr <= scale).tolist()
    per_row = len(n_grid)
    known: dict = {}  # one radical memo for the block's _Radicals
    lhs, rhs = np.full((2, len(rows) * per_row), np.nan)  # NaN where inconclusive

    def params(t):
        return {"n": n_grid[t], "check": "radical-log-bound"}

    for r, local in enumerate(rows):
        rads = _Radicals(solution(local), known)
        for t, n in enumerate(n_grid):
            try:
                lhs[r * per_row + t], rhs[r * per_row + t] = _radical_sides(rads, n, math.log)
            except FactorizationFailure as exc:
                tally.inconclusive((block_idx, local, 3 * t + 2), 1, rads.aa, params(t), exc)
    # the rows judged, in (position, n) order, so np.argmin breaks ties as the keys do
    live = np.flatnonzero(~np.isnan(lhs))
    slack = np.subtract(lhs[live], rhs[live])

    def verdict(i):  # the key, solution, params and sides of the i-th row judged
        r, t = divmod(int(live[i]), per_row)
        return ((block_idx, rows[r], 3 * t + 2), solution(rows[r]), params(t),
                float(lhs[live[i]]), float(rhs[live[i]]))

    def recheck(i):  # the integers taken again, from the block's memo
        _, aa, check, _, _ = verdict(i)
        with _at_160_bits() as mp:
            return operator.sub(*_radical_sides(_Radicals(aa, known), check["n"], mp.log))

    tally.judge(slack, np.empty(len(slack), bool), verdict, recheck)


# ---------------------------------------------------------------------------
# the driver: one for every suite


def _blocks(corpus, slots: int) -> list:
    """The block sources of corpus, a CorpusSpec or a list, in corpus order.

    A CorpusSpec is cut into c-ranges (c_lo, c_hi, congruence) of about
    slots (c, s) slots, the size the suite names: _BLOCK_SLOTS for the
    kernels that take a range as numpy arrays, _TRIPLE_BLOCK for those that
    go one solution at a time.  A list is cut every _TRIPLE_BLOCK solutions.
    The layout depends on the corpus and the suite, never on the worker count.
    """
    if isinstance(corpus, CorpusSpec):
        return [(lo, hi, corpus.congruence) for lo, hi in _c_blocks(corpus.max_c, slots)]
    return [corpus[i:i + _TRIPLE_BLOCK] for i in range(0, len(corpus), _TRIPLE_BLOCK)]


def _block(source) -> tuple:
    """One block source of _blocks, read: (c, s, grid, solution), s = |b|.  A
    c-range gives _block_grid's int64 pairs and layout; a list slice object
    arrays of Python ints, grid None, and its own solutions, so verdicts name them."""
    if isinstance(source, list):
        c, s = np.array([(aa.c, -aa.b) for aa in source], dtype=object).T
        return c, s, None, source.__getitem__
    c, s, grid = _block_grid(*source)
    return c, s, grid, functools.partial(_pair, c, s)


def _run_block(job) -> _Tally:
    """One block's tally: the block read once and its triples counted here, the
    kernel called only when it holds any (a congruence block can be empty).  No
    kernel passes one check per pair of a c-range, counted by _count: no grid at
    congruence 1, and no take."""
    kernel, source, block_idx, consts, limits = job
    tally = _Tally(*limits)
    if kernel is None:
        tally.triples = tally.checks = _count(source)
        return tally
    block = _block(source)
    tally.triples = len(block[0])
    if tally.triples:
        kernel(tally, block, block_idx, *consts)
    return tally


def _verify(suite: str, params: dict, corpus, kernel, slots: int, consts: tuple, workers: int,
            max_counterexamples: int, tolerance: float = DEFAULT_TOLERANCE,
            band: float = DEFAULT_RECHECK_BAND) -> SuiteSummary:
    """The summary of kernel(tally, block, block_idx, *consts) over the blocks of
    corpus, c-ranges of about slots (c, s) slots for a CorpusSpec (_blocks); with
    kernel None, of one passing check per pair, counted (_run_block).

    Each block gets a fresh tally with these limits.  The blocks run on up to
    workers forked processes (serially with one worker or block, or without
    fork), and the tallies merge in block order; an exception from a block
    cancels the blocks not yet started.  Any corpus but a CorpusSpec is read
    into a list once, then cut and hashed, with the size the driver counted.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not (math.isfinite(tolerance) and math.isfinite(band)):
        # a comparison with NaN is false, so a NaN tolerance would pass every check
        raise ValueError(f"tolerance and recheck band must be finite, got {tolerance}, {band}")
    t0 = time.perf_counter()
    if not isinstance(corpus, CorpusSpec):
        corpus = list(corpus)
    sources = _blocks(corpus, slots)
    limits = (max_counterexamples, tolerance, band)
    jobs = [(kernel, source, idx, consts, limits) for idx, source in enumerate(sources)]
    total = _Tally(*limits)
    with contextlib.ExitStack() as stack:
        parts = map(_run_block, jobs)
        if workers > 1 and len(jobs) > 1:
            # not multiprocessing.Pool: its terminate can hang on a task too large
            # for the pipe (a list block), and it waits forever on a dead worker;
            # both imported here, as together they add about 20 ms to every start-up
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            if "fork" in multiprocessing.get_all_start_methods():
                ctx = multiprocessing.get_context("fork")
                pool = stack.enter_context(
                    ProcessPoolExecutor(min(workers, len(jobs)), mp_context=ctx))
                parts = pool.map(_run_block, jobs)
        for part in parts:
            total.absorb(part)
    best = total.best
    return SuiteSummary(
        suite=suite,
        params=params,
        corpus_size=total.triples,
        checks=total.checks,
        passes=total.checks - total.failures - total.inconclusives,
        failures=total.failures,
        inconclusives=total.inconclusives,
        min_slack=best[1].slack if best else None,
        extremal=best[1] if best else None,
        counterexamples=tuple(v for _, v in total.counterexamples),
        inconclusive_examples=tuple(v for _, v in total.inconclusive_examples),
        corpus_hash=_corpus_hash(corpus, total.triples),
        wall_time=time.perf_counter() - t0,
        workers=workers,
    )


def _validated_grid(values, convert, check) -> tuple:
    """values as a nonempty tuple without repeats, each entry converted by convert,
    then passed to check; both raise."""
    grid = tuple(map(convert, values))
    if not grid:
        raise ValueError("parameter grids must be nonempty")
    for i, g in enumerate(grid):
        check(g)
        if g in grid[:i]:
            raise ValueError(f"parameter grids must not repeat a value, got {g!r} twice")
    return grid


def _exponent(n) -> int:
    """An exponent of a grid as the int it equals: 4.0 is 4, and 4.9, which int()
    would change, is refused."""
    return _integral(n, "exponents must be integers")


def _totient_exponent(N) -> tuple[int, int]:
    """N as the int it equals, and n = totient(N), the exponent of lemma2 and the
    chain: even, at most the cap."""
    if (N := _integral(N, "N must be an integer")) < 3:
        raise ValueError("N must be at least 3")
    n = totient(N)
    if n > DEFAULT_EXPONENT_CAP:
        raise ExponentCapExceeded(f"totient({N}) = {n} exceeds cap {DEFAULT_EXPONENT_CAP}")
    return N, n


def _plan_kernel(plan: _Plan, corpus) -> tuple[Callable, int, tuple]:
    """The kernel, block size and consts of plan's checks: the sieve lane where it applies."""
    ks = {k for n in plan.n_grid for k in _piece_ks(n)}
    sieve_lane = (
        isinstance(corpus, CorpusSpec)  # only a CorpusSpec comes in c-ranges to sieve
        and corpus.max_c <= _VECTOR_MAX_C
        # every Horner term fits int64 (y < x < max_c); an exact row needs degree 2
        and all(sum(map(abs, b := _phi_table(k))) * corpus.max_c ** (2 * len(b) - 2) < 1 << 63
                and (_takes_bounds(plan) or len(b) == 2) for k in ks)
    )
    if not sieve_lane:
        return _k_scalar, _TRIPLE_BLOCK, (plan,)
    # build in the parent so workers share pages
    _sieve_table(corpus.max_c)
    if not _takes_bounds(plan):  # the piece sieve serves only the chain
        for k in ks:
            _piece_table(k, 1 << corpus.max_c.bit_length())
    return _k_vector, _BLOCK_SLOTS, (corpus.max_c, plan)


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
    at least c_lin * f(solution, eps) + c_off, within tolerance.  A
    CorpusSpec with max_c <= _VECTOR_MAX_C whose pieces fit int64 (_plan_kernel)
    takes the sieve lane, any other corpus the scalar lane; both take the same
    floats (_judge_logs), and near ties and float failures are rechecked
    with the formula at 160 bits.  At an n with a piece both judge a row on a multiple of the
    image radical (_Radicals.bound), a lower bound on its slack, and make
    it exact only for a suspect or the extremal.  An extremal whose
    radicals give up is reported with that lower bound (_judge_rows).
    """
    n_grid = _validated_grid(n_grid, _exponent, _require_exponent)
    # each eps's constants before any block runs: they overflow first at the largest n
    eps_grid = _validated_grid(eps_grid, float, functools.partial(lemma_constants, max(n_grid)))
    params = {
        "n": list(n_grid),
        "eps": list(eps_grid),
        "tolerance": tolerance,
        "corpus": f"max_c={corpus.max_c},congruence={corpus.congruence}"
        if isinstance(corpus, CorpusSpec) else "stream",
    }
    plan = _Plan(n_grid, eps_grid, _lemma1_sides)
    return _verify("lemma1", params, corpus, *_plan_kernel(plan, corpus), workers,
                   max_counterexamples, tolerance, recheck_band)


def verify_lemma2(
    corpus,
    N: int,
    *,
    workers: int = 1,
    max_counterexamples: int = DEFAULT_MAX_COUNTEREXAMPLES,
) -> SuiteSummary:
    """Check that N divides the image product A*B*C at n = totient(N).

    Exact integer divisibility, no tolerance.  N must be at least 3 so
    that totient(N) is even.  The witness |A*B*C| mod N depends on the class
    (c mod 2N, s mod N) alone: its table (_lemma2_witnesses) is built once
    and audited against theta (_audit_witnesses).  Where it is 0 everywhere,
    a CorpusSpec passes every pair by count (_count), the pair's witness
    shown 0 through its class; a list, or a table with a nonzero entry, takes
    each image through theta (_k_lemma2).
    """
    N, n = _totient_exponent(N)
    table = _lemma2_witnesses(N, n)
    _audit_witnesses(table, N, n)
    kernel = None if isinstance(corpus, CorpusSpec) and not table.any() else _k_lemma2
    if kernel is None:  # the count reads the sieve table: built here, so workers share it
        _sieve_table(corpus.max_c)
    return _verify("lemma2", {"N": N, "n": n}, corpus, kernel, _BLOCK_SLOTS, (N, n), workers,
                   max_counterexamples)


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
    tolerance.  Check (iii) factors |a|, |b|, c, a - b and the
    cyclotomic pieces of the image, whose product is the sum (about
    c**(n-2)), and proves the image radical from them by exact division
    against the image (InternalRadicalMismatch if that proof fails); so
    radical_scale (when not None) restricts it to solutions with
    c <= radical_scale; (i) and (ii) always run on every solution.
    """
    n_grid = _validated_grid(n_grid, _exponent, _require_exponent)
    params = {"n": list(n_grid), "tolerance": tolerance, "radical_scale": radical_scale}
    return _verify("identities", params, corpus, _k_identities, _TRIPLE_BLOCK,
                   (n_grid, radical_scale), workers, max_counterexamples, tolerance,
                   recheck_band)


def verify_reduction_chain(
    corpus,
    N: int,
    eps: float,
    assumed_constant: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    recheck_band: float = DEFAULT_RECHECK_BAND,
    workers: int = 1,
    max_counterexamples: int = DEFAULT_MAX_COUNTEREXAMPLES,
) -> SuiteSummary:
    """Check the end-to-end bound chain under an assumed constant.

    assumed_constant is a hypothesis: a uniform upper bound on the
    image merits f(image, eps_out) at n = totient(N), checked first:
    HypothesisViolated names the first solution in corpus order whose
    image merit exceeds it.  Per solution two checks, lemma1 at (n, eps)
    rearranged: the input merit is at most lifted = (f(image, eps_out)
    - c_off) / c_lin, and lifted is at most derived_full_bound(N, eps,
    assumed_constant).  The lanes are lemma1's, every row exact: the sieve lane
    takes a CorpusSpec with max_c <= _VECTOR_MAX_C when n is 2, 4 or 6 (N in
    {3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18}), whose pieces, of degree 2, it sieves.
    """
    N, n = _totient_exponent(N)
    bound = derived_full_bound(N, eps, assumed_constant)  # NonpositiveEpsilon for eps <= 0
    eps, assumed_constant = float(eps), float(assumed_constant)
    params = {"N": N, "n": n, "eps": eps, "assumed_constant": assumed_constant, "bound": bound}
    labels = ({"check": "input-merit-bound"}, {"check": "derived-bound-dominates"})
    plan = _Plan((n,), (eps,), _chain_sides, assumed_constant, labels, {"N": N, "eps": eps})
    return _verify("chain", params, corpus, *_plan_kernel(plan, corpus), workers,
                   max_counterexamples, tolerance, recheck_band)


def search_quality(max_c: int, threshold: float) -> list[MeritReport]:
    """All solutions with c <= max_c and quality above the threshold.

    Sorted by descending quality; ties keep corpus order.  Candidate
    qualities come from the sieve table's log radicals (_sieve_table), and
    each hit is recomputed through the factorization engine before being
    reported.
    """
    if max_c > _VECTOR_MAX_C:  # before any block is cut or table built
        raise ValueError(f"max_c {max_c} is above the size guard _VECTOR_MAX_C = {_VECTOR_MAX_C}")
    sources = _blocks(CorpusSpec(max_c), _BLOCK_SLOTS)  # ValueError for max_c < 3
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    lograd = _sieve_table(max_c)[1]
    hits: list[MeritReport] = []
    for source in sources:
        c_arr, s_arr, _, solution = _block(source)
        aabs = c_arr - s_arr
        q = np.log(c_arr.astype(np.float64)) / (lograd[aabs] + lograd[s_arr] + lograd[c_arr])
        for i in np.nonzero(q > threshold - 1e-9)[0]:
            rep = merit(solution(i), 0.0)
            if rep.quality > threshold:
                hits.append(rep)
    hits.sort(key=lambda r: -r.quality)
    return hits
