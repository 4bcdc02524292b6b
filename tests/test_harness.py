"""Corpus harness tests: enumeration, suites, lanes, determinism."""

import collections
import itertools
import math
import random
import subprocess
import sys
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from congabc import harness, numtheory
from congabc.abc_core import ABCSolution, make_solution, merit, radical_abc
from congabc.harness import (
    CorpusSpec,
    HypothesisViolated,
    SuiteSummary,
    _block_grid,
    _lograd_piece,
    search_quality,
    verify_lemma1,
    verify_lemma2,
    verify_proof_identities,
    verify_reduction_chain,
)
from congabc.numtheory import FactorizationFailure, factorize, radical, totient, valuation2
from congabc.theta import (
    DEFAULT_EXPONENT_CAP,
    ExponentCapExceeded,
    NonpositiveEpsilon,
    OddN,
    derived_full_bound,
    lemma_constants,
    theta,
)


def brute_force_counts(max_c: int) -> dict[int, int]:
    """Oracle: solutions per c via a double loop over coprime pairs."""
    counts: dict[int, int] = {}
    for c in range(3, max_c + 1):
        hits = 0
        for s in range(1, c):
            a, b = s - c, -s
            if a > b or a == b:
                continue
            if math.gcd(-a, -b) != 1 or math.gcd(-a, c) != 1 or math.gcd(-b, c) != 1:
                continue
            hits += 1
        counts[c] = hits
    return counts


# ---------------------------------------------------------------------------
# corpus


def test_enumerate_examples():
    assert list(CorpusSpec(3)) == [ABCSolution(-2, -1, 3)]
    assert list(CorpusSpec(4)) == [
        ABCSolution(-2, -1, 3),
        ABCSolution(-3, -1, 4),
    ]
    assert len(list(CorpusSpec(10))) == 15


def test_enumerate_against_brute_force_oracle():
    oracle = brute_force_counts(200)
    got: dict[int, int] = {c: 0 for c in oracle}
    for aa in CorpusSpec(200):
        got[aa.c] += 1
    assert got == oracle
    # cumulative counts then agree for every max_c <= 200
    total = 0
    stream = list(CorpusSpec(200))
    for max_c in range(3, 201):
        total += oracle[max_c]
        assert sum(1 for aa in stream if aa.c <= max_c) == total


@pytest.mark.parametrize("congruence", [1, 7])
def test_block_grid_matches_a_gcd_enumeration_at_the_benchmarks_blocks(congruence):
    # every block of c <= 3000 in _BLOCK_SLOTS blocks (the sieve lane's) and the one
    # block of c <= 350 (lemma2's): the pairs are the slots with gcd(s, c) = 1 and,
    # at congruence 7, 7 | (c - s) * s * c, in corpus order, as views of the
    # workspace's "c" and "s", and keep marks those slots
    blocks = harness._c_blocks(3000, harness._BLOCK_SLOTS) + [(3, 350)]
    assert len(blocks) > 20
    for c_lo, c_hi in blocks:
        c_arr, s_arr, (cs, reps, starts, keep) = _block_grid(c_lo, c_hi, congruence)
        rows = [np.arange(1, (v - 1) // 2 + 1) for v in range(c_lo, c_hi + 1)]
        s = np.concatenate(rows)
        c = np.concatenate([np.full(len(row), v) for v, row in enumerate(rows, c_lo)])
        want =(np.gcd(s, c) == 1) & ((c - s) * s % congruence * c % congruence == 0)
        assert (cs.tolist(), reps.tolist()) == (list(range(c_lo, c_hi + 1)),
                                                [(v - 1) // 2 for v in range(c_lo, c_hi + 1)])
        assert np.array_equal(keep, want), (c_lo, c_hi)
        assert np.array_equal(c_arr, c[want]) and np.array_equal(s_arr, s[want]), (c_lo, c_hi)
        assert np.all(2 * s_arr < c_arr)
        for name, arr in (("c", c_arr), ("s", s_arr)):
            assert np.shares_memory(arr, harness._WORKSPACE._raw[name]), (name, c_lo, c_hi)


def test_enumerate_stream_is_ordered_valid_and_unique():
    seen = set()
    prev = None
    for aa in CorpusSpec(120):
        assert aa.a <= aa.b < 0 < aa.c <= 120
        assert aa.a + aa.b + aa.c == 0
        assert math.gcd(aa.a, aa.b) == 1
        key = (aa.c, -aa.b)
        if prev is not None:
            assert key > prev
        prev = key
        seen.add(aa)
    assert len(seen) == len(list(CorpusSpec(120)))


def test_corpus_size_is_the_totient_sum():
    # len at congruence 1 from the totient sieve: the brute-force count of coprime
    # pairs at every max_c <= 200, and the grid's count at 3000 and at a congruence
    oracle = brute_force_counts(200)
    for max_c in range(3, 201):
        assert len(CorpusSpec(max_c)) == sum(oracle[c] for c in range(3, max_c + 1))
    for spec in (CorpusSpec(3000), CorpusSpec(3000, congruence=7)):
        grid = sum(len(_block_grid(*source)[0])
                   for source in harness._blocks(spec, harness._BLOCK_SLOTS))
        assert len(spec) == grid
    assert len(CorpusSpec(3000)) == 1_368_093


def _fresh_sieve(monkeypatch):
    # a process that has built no sieve table yet
    monkeypatch.setattr(harness, "_SIEVE", [np.zeros(0, dtype=np.int32), np.zeros(0),
                                            np.zeros(0, dtype=np.int64)])


def test_sieve_table_matches_brute_force():
    # every v < 4096: the least prime factor by trial division, log rad bit for bit
    # np.log of the radical, and pairs the running sum of totient(c) // 2
    least, lograd, pairs = harness._sieve_table(4095)
    assert least.dtype == np.int32 and len(least) == len(lograd) == len(pairs) >= 4096
    assert (least[0], lograd[0], pairs[0]) == (0, 0.0, 0)
    total = 0
    for v in range(1, 4096):
        assert least[v] == next((p for p in range(2, v + 1) if v % p == 0), v), v
        assert lograd[v] == np.log(float(radical(v))), v
        total += totient(v) // 2
        assert pairs[v] == total, v


def test_sieve_table_keeps_one_table(monkeypatch):
    # over rising and falling limits every call gets the arrays of the one table
    # kept; only a limit past it builds another, to the next power of two, and the
    # one it replaces is freed
    _fresh_sieve(monkeypatch)
    built, sizes = {}, []
    for limit in (3, 1000, 10, 1 << 12, 4095, 5000, 3):
        tables = harness._sieve_table(limit)
        assert all(t is kept for t, kept in zip(tables, harness._SIEVE, strict=True))
        sizes.append(len(tables[0]))
        built.setdefault(sizes[-1], weakref.ref(harness._SIEVE[0]))
    del tables
    assert sizes == [4, 1024, 1024, 8192, 8192, 8192, 8192]
    assert {size: ref() is not None for size, ref in built.items()} == {
        4: False, 1024: False, 8192: True}


def test_a_sweep_over_max_c_keeps_one_table_per_power_of_two(monkeypatch):
    # a table keyed by each max_c was kept for every bound a process saw: one sieve
    # table is kept, and a piece table per k (3 and 6 at N = 7) and power of two
    _fresh_sieve(monkeypatch)
    harness._piece_table.cache_clear()
    for max_c in range(3, 301):
        assert verify_lemma1(CorpusSpec(max_c), [2], [1.0]).ok
    for max_c in range(3, 201):
        assert verify_reduction_chain(CorpusSpec(max_c), 7, 1.0, 10.0).ok
    assert [len(t) for t in harness._SIEVE] == [512] * 3
    assert all(t is kept for t, kept in zip(harness._sieve_table(3), harness._SIEVE))
    powers = {1 << max_c.bit_length() for max_c in range(3, 201)}
    assert harness._piece_table.cache_info().currsize <= 2 * len(powers) == 14


def _c_blocks_by_loop(max_c: int, target_slots: int) -> list[tuple[int, int]]:
    # a block ends at the first c whose rows bring it to target_slots slots
    blocks, lo, slots = [], 3, 0
    for c in range(3, max_c + 1):
        slots += (c - 1) // 2
        if slots >= target_slots:
            blocks.append((lo, c))
            lo, slots = c + 1, 0
    if lo <= max_c:
        blocks.append((lo, max_c))
    return blocks


def test_c_blocks_match_a_loop_over_every_c():
    for max_c in range(3, 400):
        for target in (1, 2, 3, 5, 17, 100, 4096, 100_000):
            assert harness._c_blocks(max_c, target) == _c_blocks_by_loop(max_c, target)
    for max_c in (3000, 10**4, 50_000):
        for target in (1, 200, 4096, 100_000):
            assert harness._c_blocks(max_c, target) == _c_blocks_by_loop(max_c, target)


def test_corpus_spec_matches_enumeration():
    spec = CorpusSpec(max_c=150, congruence=5)
    from_spec = list(spec)
    oracle = [aa for aa in CorpusSpec(150) if (aa.a * aa.b * aa.c) % 5 == 0]
    assert from_spec == oracle
    assert len(spec) == len(oracle)


def test_corpus_spec_validation_and_hash():
    with pytest.raises(ValueError):
        CorpusSpec(max_c=2)
    with pytest.raises(ValueError):
        CorpusSpec(max_c=10, congruence=0)
    assert CorpusSpec(max_c=50).digest() == CorpusSpec(max_c=50).digest()
    assert CorpusSpec(max_c=50).digest() != CorpusSpec(max_c=51).digest()
    assert CorpusSpec(max_c=50).digest() != CorpusSpec(max_c=50, congruence=2).digest()


@pytest.mark.parametrize("kw", [{"max_c": 1000.0}, {"max_c": 100, "congruence": 7.0},
                                {"max_c": "100"}])
def test_corpus_spec_refuses_a_non_integral_bound(kw):
    # CorpusSpec(max_c=1000.0) was built, then len() or a suite failed with a
    # TypeError deep in the block cutting or the radical table
    with pytest.raises(ValueError, match="integers"):
        CorpusSpec(**kw)


# ---------------------------------------------------------------------------
# verify_lemma1


def test_lemma1_single_triple_values():
    s = verify_lemma1([make_solution(-1, -2, 3)], [2], [1.0])
    assert (s.checks, s.passes, s.failures, s.inconclusives) == (1, 1, 0, 0)
    v = s.extremal
    assert v.lhs == pytest.approx(-0.1917880483011873, abs=1e-9)
    assert v.rhs == pytest.approx(-4.8912912758050783, abs=1e-9)
    assert v.slack == pytest.approx(4.699503227503891, abs=1e-9)
    assert v.passed
    assert s.ok


def test_lemma1_fixed_point_instance():
    aa = make_solution(-1, -3, 4)
    s = verify_lemma1([aa], [2], [1.0])
    lc = lemma_constants(2, 1.0)
    lhs = math.log(4) - (1 + lc.eps_out) * math.log(6)
    rhs = lc.c_lin * (math.log(4) - 2 * math.log(6)) + lc.c_off
    assert s.extremal.lhs == pytest.approx(lhs, abs=1e-9)
    assert s.extremal.rhs == pytest.approx(rhs, abs=1e-9)
    assert s.passes == 1


def test_lemma1_empty_corpus():
    s = verify_lemma1([], [2], [1.0])
    assert (s.checks, s.passes, s.failures) == (0, 0, 0)
    assert s.extremal is None
    assert s.min_slack is None
    assert s.ok


def test_lemma1_corpus_spec_clean():
    s = verify_lemma1(CorpusSpec(max_c=400), [2, 4], [0.1, 1.0])
    assert s.failures == 0
    assert s.inconclusives == 0
    assert s.checks == 4 * len(CorpusSpec(max_c=400))
    assert s.min_slack > 0


def _same_verdicts(one: SuiteSummary, other: SuiteSummary) -> bool:
    """Whether two summaries of one corpus agree bit for bit: every count, the
    minimum slack, the extremal and every example, lhs, rhs and slack included.
    Their params and corpus hash may differ, as a spec and a list name a corpus
    differently."""
    ignored = dict(params={}, corpus_hash="", wall_time=0.0, workers=0)
    return replace(one, **ignored) == replace(other, **ignored)


# the tolerances at which the lane-agreement tests keep every counterexample
_KEEP_ALL_LEMMA1 = dict(tolerance=-6.0, max_counterexamples=10**6)
_KEEP_ALL_CHAIN = dict(tolerance=-20.0, max_counterexamples=10**6)


def test_lemma1_lane_agreement(monkeypatch):
    # both lanes take every log with one float formula, so they agree to the
    # last bit, over several blocks
    _small_blocks(monkeypatch, 6000)
    runs = [(CorpusSpec(max_c=300), {}), (CorpusSpec(max_c=150), _KEEP_ALL_LEMMA1)]
    for (spec, kw), workers in itertools.product(runs, (1, 3)):
        fast = verify_lemma1(spec, [2, 4], [0.5, 1.0], workers=workers, **kw)
        slow = verify_lemma1(list(spec), [2, 4], [0.5, 1.0], workers=workers, **kw)
        assert fast.checks == 4 * len(spec)
        assert (fast.failures > 0) == ("tolerance" in kw)
        assert _same_verdicts(fast, slow)


# N = 1025 * 1024 * 2049 >= 2**31 is |abc| of (-1025, -1024, 2049); 2 * N exceeds
# 2050**3 / 4, so only a solution with |abc| = N can qualify, and that one does
_CONGRUENCE_CASES = [(7, 36_576, 400), (16, 12_260, 400), (60, 18_296, 400),
                     (1025 * 1024 * 2049, 4, 2050)]


@pytest.mark.parametrize("N, checks, max_c", _CONGRUENCE_CASES,
                         ids=[f"{N}-{checks}" for N, checks, _ in _CONGRUENCE_CASES])
def test_lemma1_lane_agreement_congruence(monkeypatch, N, checks, max_c):
    spec = CorpusSpec(max_c=max_c, congruence=N)
    assert harness._plan_kernel(harness._Plan((2,), (1.0,), None), spec)[0] is harness._k_vector
    listed = list(spec)
    _small_blocks(monkeypatch, 5000)
    # checks counts both eps; every counterexample kept at one eps keeps the run short
    for workers, eps_grid, kw in ((1, [0.5, 1.0], {}), (3, [1.0], _KEEP_ALL_LEMMA1)):
        fast = verify_lemma1(spec, [2, 4], eps_grid, workers=workers, **kw)
        slow = verify_lemma1(listed, [2, 4], eps_grid, workers=workers, **kw)
        assert fast.checks == checks * len(eps_grid) // 2
        assert _same_verdicts(fast, slow)


@pytest.mark.parametrize("N", [7, 1025 * 1024 * 2049, 3_999_997 * 3 * 4_000_000,
                               3_999_996 * 5 * 4_000_001, 2**63 + 3, 2**70])
def test_congruence_mask_is_exact_for_every_N(N):
    # past c = 3.3 million a product of residues leaves int64, and an N past
    # 2**63 does not fit it at all
    pairs = [(2049, 1023), (2049, 1024), (4_000_000, 1), (4_000_000, 3), (4_000_001, 5)]
    c_arr, s_arr = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    got = harness._congruence_mask(c_arr, s_arr, N).tolist()
    assert got == [(c - s) * s * c % N == 0 for c, s in pairs]
    want = sum(aa.a * aa.b * aa.c % N == 0 for aa in CorpusSpec(max_c=60))
    assert len(CorpusSpec(max_c=60, congruence=N)) == want


@pytest.mark.parametrize("workers", [1, 3])
def test_spec_corpus_size_and_hash_match_the_spec(workers):
    # the suites hash a spec corpus from the triples their kernels counted
    spec = CorpusSpec(max_c=400, congruence=7)
    want = (len(spec), spec.digest())
    for s in (
        verify_lemma1(spec, [2, 4], [1.0], workers=workers),
        verify_lemma2(spec, 7, workers=workers),
        verify_proof_identities(spec, [2], radical_scale=50, workers=workers),
        verify_reduction_chain(spec, 7, 1.0, 10.0, workers=workers),
    ):
        assert (s.corpus_size, s.corpus_hash) == want, s.suite


# every c up to 300 as a block of its own: most primes lie above the row length
# (c - 1)/2 and hit it at most once per root, and some divide the piece twice
# (c = 7, s = 3: 4**2 + 3**2 = 5**2)
_ONE_ROW_BLOCKS = [(c, c) for c in range(3, 301)]


def _log_radical(m):
    """np.log of factorize's radical of m: the piece sieve's float, exactly."""
    return np.log(factorize(m).radical_value())


def _sieved_pieces(k, blocks, congruence, max_c):
    """The (c, s) pairs of the blocks and _lograd_piece's log of each, block by block."""
    pairs, got = [], []
    for c_lo, c_hi in blocks:
        c_arr, s_arr, grid = _block_grid(c_lo, c_hi, congruence)
        t = harness._piece_values(k, c_arr - s_arr, s_arr)
        logs = _lograd_piece(k, t, grid, max_c).tolist()
        assert len(logs) == len(c_arr) > 0
        pairs += zip(c_arr.tolist(), s_arr.tolist())
        got += logs
    return pairs, got


_SIEVE_BLOCKS = pytest.mark.parametrize("blocks, congruence, max_c", [
    ([(3, 60)], 1, 60),           # the first rows, where a prime p up to sqrt(a)*c has p > c
    ([(1500, 1600)], 1, 10_000),  # a block that does not start at c = 3
    ([(3, 400)], 7, 400),         # a congruence-restricted block
    (_ONE_ROW_BLOCKS, 1, 300),
    ([(50_000, 50_000)], 1, 50_000),  # the lane's largest row: the last octave of primes
], ids=["3-60-1-60", "1500-1600-1-10000", "3-400-7-400", "one-row-blocks", "50000-50000-1-50000"])


@_SIEVE_BLOCKS
def test_sum_squares_root_sieve_matches_factorization(blocks, congruence, max_c):
    pairs, got = _sieved_pieces(4, blocks, congruence, max_c)
    if congruence == 7:
        assert (8, 1) in pairs  # 7**2 + 1**2 = 2 * 5**2
        assert any(c == 65 for c, _ in pairs)  # 5 | 65 and 13 | 65
    if blocks[0][0] == 3 and congruence == 1:
        assert (7, 3) in pairs  # 4**2 + 3**2 = 5**2, 5 above the row length 3
    for (c, s), value in zip(pairs, got):
        t = (c - s) ** 2 + s**2
        assert value == _log_radical(t >> valuation2(t)), (c, s)


def _piece_value(k, c, s):
    """Phi_k(c, d) for k = 3 or 6 and d = c - 2s, with every factor 2 and 3 divided out."""
    d = c - 2 * s
    t = c * c + (c * d if k == 3 else -c * d) + d * d
    for q in (2, 3):
        while t % q == 0:
            t //= q
    return t


@pytest.mark.parametrize("k", [3, 6])
@_SIEVE_BLOCKS
def test_cube_root_sieve_matches_factorization(k, blocks, congruence, max_c):
    # Phi_3 = 3x**2 + y**2 and Phi_6 = x**2 + 3y**2 at n = 6, against factorize
    pairs, got = _sieved_pieces(k, blocks, congruence, max_c)
    if blocks[0][0] == 3 and congruence == 1:
        assert (7, 3) in pairs  # 3 | y: Phi_3 = 57 = 3 * 19, Phi_6 = 43
        assert _piece_value(3, 5, 1) == 7**2  # c < p = 7 < sqrt(3) * c
        assert _piece_value(3, 33, 13) == 37**2  # c < p = 37 < sqrt(3) * c
        assert {(5, 1), (33, 13)} <= set(pairs)
    for (c, s), value in zip(pairs, got):
        assert value == _log_radical(_piece_value(k, c, s)), (c, s)


@pytest.mark.parametrize("k", [3, 4, 6])
def test_a_row_made_exact_adds_the_floats_of_the_piece_sieve(monkeypatch, k):
    # a lemma1 row made exact on the sieve lane reads rad(t_k) from its _Radicals,
    # rad Phi_k with the primes of 2k divided out, and the chain's piece sieve
    # multiplies the primes of t_k: the same integer on every row, so exact(i) and
    # the chain's fourth log at an n with the piece are the same float, bit for bit
    n = 4 if k == 4 else 6
    got = []

    def judge(tally, plan, block_idx, ni, logs, where, radicals, bounded, exact, buf):
        got.append([exact(i) for i in where] if bounded.all() else logs[3].tolist())

    monkeypatch.setattr(harness, "_judge_rows", judge)
    lemma1 = harness._Plan((n,), (1.0,), harness._lemma1_sides)
    chain = harness._Plan((n,), (1.0,), harness._chain_sides, 10.0)
    for idx, source in enumerate(harness._blocks(CorpusSpec(300), harness._BLOCK_SLOTS)):
        block = harness._block(source)
        c_arr, s_arr, grid, solution = block
        t = harness._piece_values(k, c_arr - s_arr, s_arr)
        _lograd_piece(k, t, grid, 300)
        for i, value in enumerate(t.tolist()):
            rads = harness._Radicals(solution(i))
            r = rads._rad(rads._phi(k))
            assert r // math.gcd(r, 2 * k) == value, solution(i)
        got.clear()
        for plan in (lemma1, chain):
            harness._k_vector(harness._Tally(1, 1e-9, 1e-6), block, idx, 300, plan)
        made_exact, sieved = got
        assert made_exact == sieved


@pytest.mark.parametrize("n_grid, kernel", [
    ([2], "_k_vector"), ([4], "_k_vector"), ([6], "_k_vector"), ([2, 4, 6], "_k_vector"),
])
def test_plan_kernel_takes_the_sieve_lane_at_n_2_4_6(n_grid, kernel):
    # every piece of degree 2: both lemma1 and the chain's exact rows, whose piece
    # sieve knows that degree alone
    for sides in (harness._lemma1_sides, harness._chain_sides):
        plan = harness._Plan(tuple(n_grid), (1.0,), sides)
        assert harness._plan_kernel(plan, CorpusSpec(max_c=100))[0] is getattr(harness, kernel)
        assert harness._plan_kernel(plan, list(CorpusSpec(max_c=10)))[0] is harness._k_scalar


@pytest.mark.parametrize("sides, n_grid, max_c, kernel", [
    ("lemma1", [8], 100, "_k_vector"), ("lemma1", [2, 8], 100, "_k_vector"),
    ("lemma1", [10], 100, "_k_vector"), ("lemma1", [12], 100, "_k_vector"),
    ("lemma1", [8], 27_554, "_k_vector"),  # 16 * 27,554**4 < 2**63, the sum of (2, 12, 2)
    ("lemma1", [8], 27_555, "_k_scalar"),  # one more and t_8's terms can leave int64
    ("lemma1", [14], 724, "_k_vector"), ("lemma1", [14], 725, "_k_scalar"),
    ("lemma1", [16], 117, "_k_vector"), ("lemma1", [16], 118, "_k_scalar"),
    ("lemma1", [32], 100, "_k_scalar"),
    ("chain", [8], 100, "_k_scalar"),  # N = 16: an exact row of degree 4, no piece sieve
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else str(v))
def test_plan_kernel_reads_the_lane_from_the_table(sides, n_grid, max_c, kernel):
    # a spec takes the sieve lane when every Horner term of every piece fits int64,
    # sum |b_j| * max_c**totient(k) < 2**63, and, on a row that is not bounded,
    # every piece has degree 2
    plan = harness._Plan(tuple(n_grid), (1.0,), getattr(harness, f"_{sides}_sides"))
    assert harness._plan_kernel(plan, CorpusSpec(max_c=max_c))[0] is getattr(harness, kernel)


# per n, a tolerance at which some checks over c <= 300 fail, every counterexample kept
_FAILING_TOLERANCE = {6: -6.0, 8: -7.0, 10: -8.5, 12: -10.0}


@pytest.mark.parametrize("congruence", [1, 7])
def test_lemma1_lane_agreement_at_n6(monkeypatch, congruence):
    # and at n = 8, 10 and 12, whose pieces of degree 4 the sieve lane takes by
    # Horner on int64 from the table the scalar lane evaluates on Python ints
    _small_blocks(monkeypatch, 6000)
    spec = CorpusSpec(max_c=300, congruence=congruence)
    listed = list(spec)
    for n, tolerance in _FAILING_TOLERANCE.items():
        assert harness._plan_kernel(harness._Plan((n,), (1.0,), harness._lemma1_sides),
                                    spec)[0] is harness._k_vector
        runs = ({}, {**_KEEP_ALL_LEMMA1, "tolerance": tolerance})
        for kw, workers in itertools.product(runs, (1, 3)):
            fast = verify_lemma1(spec, [n], [0.5, 1.0], workers=workers, **kw)
            slow = verify_lemma1(listed, [n], [0.5, 1.0], workers=workers, **kw)
            assert fast.checks == 2 * len(listed)
            assert fast.inconclusives == 0
            assert (fast.failures > 0) == bool(kw)
            assert _same_verdicts(fast, slow)


def test_lemma1_worker_count_is_invisible():
    spec = CorpusSpec(max_c=600)
    one = verify_lemma1(spec, [2], [1.0], workers=1)
    three = verify_lemma1(spec, [2], [1.0], workers=3)
    assert one.checks == three.checks
    assert one.min_slack == three.min_slack
    assert one.extremal == three.extremal
    assert one.corpus_hash == three.corpus_hash


def test_lemma1_forced_high_precision_recheck():
    spec = CorpusSpec(max_c=80)
    normal = verify_lemma1(spec, [2], [1.0])
    forced = verify_lemma1(spec, [2], [1.0], recheck_band=1e9)
    assert normal.failures == forced.failures == 0
    assert normal.passes == forced.passes
    assert normal.min_slack == pytest.approx(forced.min_slack, abs=1e-9)
    assert normal.extremal.triple == forced.extremal.triple


def test_import_leaves_mpmath_to_the_first_recheck():
    # mpmath serves the 160-bit rechecks alone, so importing the package
    # and its CLI does not load it; a recheck does
    code = ("import sys, congabc, congabc.cli; assert 'mpmath' not in sys.modules; "
            "congabc.verify_lemma1([congabc.make_solution(-1, -2, 3)], [2], [1.0], "
            "recheck_band=1e9); assert 'mpmath' in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_lemma1_wide_grid_clean():
    # full exponent and epsilon grids; rows made exact at n = 8 take their
    # pieces' radicals one at a time, so keep the corpus modest
    s = verify_lemma1(CorpusSpec(max_c=200), [2, 4, 6, 8], [0.1, 0.5, 1.0, 2.0])
    assert s.failures == 0 and s.inconclusives == 0
    assert s.checks == 16 * len(CorpusSpec(max_c=200))
    wide_eps = verify_lemma1(CorpusSpec(max_c=2000), [2, 4], [0.1, 0.5, 1.0, 2.0])
    assert wide_eps.failures == 0 and wide_eps.inconclusives == 0


def test_lemma1_grid_validation():
    corpus = [make_solution(-1, -2, 3)]
    with pytest.raises(OddN):
        verify_lemma1(corpus, [3], [1.0])
    with pytest.raises(NonpositiveEpsilon):
        verify_lemma1(corpus, [2], [0.0])
    with pytest.raises(ValueError):
        verify_lemma1(corpus, [], [1.0])
    with pytest.raises(ValueError):
        verify_lemma1(corpus, [2], [])


@pytest.mark.parametrize("run", [
    lambda grid: verify_lemma1(CorpusSpec(max_c=30), grid, [1.0]),
    lambda grid: verify_proof_identities(CorpusSpec(max_c=30), grid),
])
def test_suites_refuse_an_exponent_that_int_would_change(run):
    # 4.9 ran at n = 4 and reported "n": [4]; an integral float is that integer
    for grid in ([4.9], [2, 4.5]):
        with pytest.raises(ValueError, match=f"integers, got {grid[-1]}"):
            run(grid)
    assert run([4.0]).params["n"] == run([4]).params["n"] == [4]


def _verdict(s: SuiteSummary) -> tuple:
    return s.params, s.checks, s.ok, s.corpus_hash


@pytest.mark.parametrize("call, bad, good, same, error", [
    (factorize, 7.0, np.int64(12), 12, TypeError),
    (totient, 7.5, np.int64(12), 12, TypeError),
    (lambda N: derived_full_bound(N, 1.0, 10.0), 7.5, 7.0, 7, ValueError),
    (lambda N: _verdict(verify_lemma2(CorpusSpec(50), N)), 7.5, 7.0, 7, ValueError),
    (lambda N: _verdict(verify_reduction_chain(CorpusSpec(50), N, 1.0, 10.0)),
     7.5, 7.0, 7, ValueError),
])
def test_a_non_integer_N_or_number_to_factor_is_refused(call, bad, good, same, error):
    # factorize(7.0) gave ((7.0, 1),), totient(7.5) 6.5, derived_full_bound(7.5, ...)
    # an OddN naming 6.5 and verify_lemma2 at 7.0 a TypeError inside range: a number
    # to factor is an index, and an N that equals an integer is that integer
    with pytest.raises(error, match="float" if error is TypeError else repr(bad)):
        call(bad)
    assert call(good) == call(same)


def test_suites_refuse_a_repeated_grid_value():
    # --n 2,2 --eps 1,1 counted each of 138 triples' checks four times
    spec = CorpusSpec(max_c=30)
    for run, value in ((lambda: verify_lemma1(spec, [2, 4, 2], [1.0]), "2"),
                       (lambda: verify_lemma1(spec, [2], [0.5, 1, 1.0]), "1.0"),
                       (lambda: verify_proof_identities(spec, [4, 4]), "4")):
        with pytest.raises(ValueError, match=f"repeat a value, got {value} twice"):
            run()


def test_suites_reject_exponents_above_the_cap():
    # theta's rule, even with 2 <= n <= 64, holds for the suites' grids too
    spec = CorpusSpec(max_c=3)
    with pytest.raises(ExponentCapExceeded):
        verify_lemma1(spec, [DEFAULT_EXPONENT_CAP + 2], [1.0])
    with pytest.raises(ExponentCapExceeded):
        verify_proof_identities(spec, [DEFAULT_EXPONENT_CAP + 2])


# ---------------------------------------------------------------------------
# verify_lemma2


def test_lemma2_single_triple_examples():
    assert verify_lemma2([make_solution(-1, -2, 3)], 5).ok  # image (-1,-80,81)
    assert verify_lemma2([make_solution(-1, -8, 9)], 16).ok  # 2**7 divides B
    assert verify_lemma2([make_solution(-1, -2, 3)], 3).ok
    s = verify_lemma2([make_solution(-1, -2, 3)], 5)
    assert (s.checks, s.passes) == (1, 1)
    assert s.params["n"] == 4  # totient(5)


def test_lemma2_corpus_clean_and_paths_agree():
    spec = CorpusSpec(max_c=60)
    listed = list(spec)
    for N in (3, 4, 5, 7, 9, 12, 16, 25, 50):
        fast = verify_lemma2(spec, N)
        slow = verify_lemma2(listed, N)
        assert fast.failures == slow.failures == 0
        assert fast.checks == slow.checks == len(listed)
        assert fast.passes == slow.passes


def test_lemma2_validation():
    corpus = [make_solution(-1, -2, 3)]
    with pytest.raises(ValueError):
        verify_lemma2(corpus, 2)
    with pytest.raises(ExponentCapExceeded):
        verify_lemma2(corpus, 257)  # totient(257) = 256 exceeds the cap of 64


@pytest.mark.parametrize("N", [3, 4, 5, 7, 12, 16, 48, 50])
def test_lemma2_witness_table_is_the_image_mod_N_on_every_reached_class(N):
    # the witness |A*B*C| mod N depends on (c mod 2N, s mod N) alone: the table
    # against theta on the first and the last pair of c <= 1000 in each class, at
    # n = totient(N), where the table is 0, and at totient(N) + 2, where it mostly
    # is not.  The classes reached are those with gcd(c mod 2N, s mod N, N) = 1,
    # the audit's rule; c mod 2N fixes the parity of c, so odd and even c are covered
    c_arr, s_arr, _ = _block_grid(3, 1000)
    at = (c_arr % (2 * N) * N + s_arr % N).tolist()
    first, last = {}, {}
    for i, k in enumerate(at):
        first.setdefault(k, i)
        last[k] = i
    assert sorted(first) == [k for k in range(2 * N * N) if math.gcd(k // N, k % N, N) == 1]
    for n in (totient(N), totient(N) + 2):
        table = harness._lemma2_witnesses(N, n)
        assert table.shape == (2 * N * N,)
        for k in first:
            for i in {first[k], last[k]}:
                c, s = int(c_arr[i]), int(s_arr[i])
                assert table[k] == abs(math.prod(theta(ABCSolution(s - c, -s, c), n).raw)) % N
    assert not harness._lemma2_witnesses(N, totient(N)).any()
    # totient(N) + 2 still forces N | A*B*C at N = 3, 4, 12; elsewhere some class fails
    assert harness._lemma2_witnesses(N, totient(N) + 2).any() == (N not in (3, 4, 12))


@pytest.mark.parametrize("N", [5, 7, 16])
def test_lemma2_audit_catches_a_wrong_witness_table(monkeypatch, capsys, N):
    # an exponent two above totient(N), where the table has nonzero entries and the
    # pairs fail through theta, and the table replaced by zeros, which would pass
    # every pair by count: the seeded audit draws a class whose image is not 0 mod N
    from congabc.cli import main

    real = harness.totient
    monkeypatch.setattr(harness, "totient", lambda N: real(N) + 2)
    assert verify_lemma2(CorpusSpec(max_c=100), N).failures > 0
    table = harness._lemma2_witnesses(N, real(N) + 2)
    assert 0 < np.count_nonzero(table) < len(table)
    monkeypatch.setattr(harness, "_lemma2_witnesses", lambda N, n: np.zeros(2 * N * N, np.int32))
    for corpus in (CorpusSpec(max_c=100), CorpusSpec(max_c=100, congruence=N),
                   list(CorpusSpec(max_c=100))):
        with pytest.raises(harness.InternalRadicalMismatch, match="witness table"):
            verify_lemma2(corpus, N)
    assert main(["verify", "lemma2", "--max-c", "100", "--N", str(N)]) == 4
    assert "witness table" in capsys.readouterr().err


def test_lemma2_counts_a_clean_corpus_without_a_grid_or_a_take(monkeypatch):
    # a zero table passes a plain CorpusSpec by its totient count: no grid, no
    # workspace, and theta only on the audit's classes; a congruence spec counts its
    # masked grid; both report the checks and size of the list path through theta
    calls = collections.Counter()
    for name in ("theta", "_block_grid"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, real=real, name=name: (
            calls.update([name]), real(*a))[1])
    workspace = harness._Workspace()
    monkeypatch.setattr(harness, "_WORKSPACE", workspace)
    for N in (3, 16, 50):
        calls.clear()
        s = verify_lemma2(CorpusSpec(max_c=350), N, workers=3)
        assert s.ok and s.checks == s.corpus_size == len(CorpusSpec(max_c=350)) == 18_664
        assert s.workers == 3 and s.min_slack is None
        assert calls == {"theta": harness._AUDIT_ROWS} and workspace._raw == {}
    spec = CorpusSpec(max_c=200, congruence=16)
    calls.clear()
    s = verify_lemma2(spec, 16)
    assert calls["theta"] == harness._AUDIT_ROWS and calls["_block_grid"] > 0
    listed = verify_lemma2(list(spec), 16)
    assert s.ok and (s.checks, s.corpus_size) == (listed.checks, listed.corpus_size) == (
        len(spec), len(spec))


# ---------------------------------------------------------------------------
# verify_proof_identities


def test_identities_hand_examples():
    # (-1,-2,3): (a+b)^2 - (a-b)^2 = 9 - 1 = 8 = 4ab with a single sum term
    s = verify_proof_identities([make_solution(-1, -2, 3)], [2])
    assert s.failures == 0 and s.checks == 3

    # (-1,-8,9): 81 - 49 = 32 = 4*8, |32/8| = 4 equals the n=2 bound exactly
    s = verify_proof_identities([make_solution(-1, -8, 9)], [2])
    assert s.failures == 0
    assert s.ok


def test_identities_corpus_clean():
    s = verify_proof_identities(CorpusSpec(max_c=200), [2, 4, 6, 8])
    assert s.failures == 0 and s.inconclusives == 0
    size = len(CorpusSpec(max_c=200))
    assert s.checks == 3 * 4 * size


def test_identities_radical_scale_gates_third_check():
    spec = CorpusSpec(max_c=100)
    size = len(spec)
    gated = verify_proof_identities(spec, [2], radical_scale=0)
    assert gated.checks == 2 * size
    full = verify_proof_identities(spec, [2])
    assert full.checks == 3 * size
    assert full.failures == gated.failures == 0


# ---------------------------------------------------------------------------
# reduction chain suite


def test_chain_single_triple_values():
    s = verify_reduction_chain([make_solution(-1, -2, 3)], 3, 1.0, 10.0)
    assert s.failures == 0
    assert s.checks == 2
    # lifted bound (10 - c_off)/c_lin applied through the two-step chain
    lift = 4.5643481914678362
    f_in = -2.4849066497880003
    full = 19.852030263919617
    assert s.min_slack == pytest.approx(min(lift - f_in, full - lift), abs=1e-9)


def test_chain_corpus_passes_with_generous_constant():
    s = verify_reduction_chain(CorpusSpec(max_c=100), 3, 1.0, 10.0)
    assert s.failures == 0
    assert s.checks == 2 * len(CorpusSpec(max_c=100))
    assert s.ok


def test_chain_empty_corpus_vacuous():
    s = verify_reduction_chain([], 3, 1.0, 10.0)
    assert s.checks == 0
    assert s.ok


def test_chain_detects_violated_hypothesis():
    with pytest.raises(HypothesisViolated):
        verify_reduction_chain([make_solution(-1, -2, 3)], 3, 1.0, -1.0)
    assert issubclass(HypothesisViolated, ValueError)


def _small_blocks(monkeypatch, slots):
    # blocks of about this many (c, s) slots for every kernel, and lists cut
    # every this many solutions, so that workers 3 spreads them
    monkeypatch.setattr(harness, "_BLOCK_SLOTS", slots)
    monkeypatch.setattr(harness, "_TRIPLE_BLOCK", slots)


@pytest.mark.parametrize("N, eps", [(3, 1.0), (5, 0.5), (8, 1.0), (12, 2.0),
                                    (7, 1.0), (9, 0.5), (14, 1.0), (18, 2.0)])
def test_chain_lane_agreement(monkeypatch, N, eps):
    # totient(N) is 2, 4 or 6: a spec corpus takes the sieve lane, the same
    # solutions as a list the scalar lane
    _small_blocks(monkeypatch, 1000)
    spec = CorpusSpec(max_c=100)
    listed = list(spec)
    assert len(harness._blocks(spec, harness._BLOCK_SLOTS)) > 2
    assert len(harness._blocks(listed, harness._TRIPLE_BLOCK)) > 1
    for workers in (1, 3):
        fast = verify_reduction_chain(spec, N, eps, 10.0, workers=workers)
        slow = verify_reduction_chain(listed, N, eps, 10.0, workers=workers)
        assert fast.checks == fast.passes == 2 * len(spec)
        assert _same_verdicts(fast, slow)
    # a tolerance of -20 fails most input-merit checks, and at N = 3, 5 and
    # 8 some derived-bound checks too
    for workers in (1, 3):
        fast = verify_reduction_chain(spec, N, eps, 10.0, workers=workers, **_KEEP_ALL_CHAIN)
        slow = verify_reduction_chain(listed, N, eps, 10.0, workers=workers, **_KEEP_ALL_CHAIN)
        assert fast.failures == len(fast.counterexamples) > 0
        assert _same_verdicts(fast, slow)
        checks = {v.params["check"] for v in fast.counterexamples}
        assert len(checks) == (1 if N == 12 else 2)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("N, congruence, assumed_constant",
                         [(5, 5, -0.5), (7, 1, 0.7), (16, 5, 0.3)])
def test_chain_names_the_first_violated_hypothesis(monkeypatch, workers, N, congruence,
                                                   assumed_constant):
    # image merits above the assumed constant in several blocks; the first
    # in corpus order, neither its block's first solution nor its largest
    # merit, is named for a spec (the sieve lane at N = 5 and 7, the scalar
    # lane at N = 16) and for a list (the scalar lane)
    _small_blocks(monkeypatch, 200)
    spec = CorpusSpec(max_c=60, congruence=congruence)
    eps_out = lemma_constants(totient(N), 1.0).eps_out
    over = [aa for aa in spec
            if merit(theta(aa, totient(N)).output, eps_out).merit > assumed_constant]
    blocks = harness._c_blocks(60, 200)
    assert len({next(b for b in blocks if b[0] <= aa.c <= b[1]) for aa in over}) > 2
    for corpus in (spec, list(spec)):
        with pytest.raises(HypothesisViolated) as info:
            verify_reduction_chain(corpus, N, 1.0, assumed_constant, workers=workers)
        assert str(info.value).endswith(f" at {over[0]}")


# identities and the chain fail some checks at these tolerances (the capped
# counterexamples in corpus order), lemma1 and lemma2 pass
_SUITES = {
    "lemma1": lambda corpus, **kw: verify_lemma1(corpus, [2, 4], [0.5, 1.0], **kw),
    "lemma2": lambda corpus, **kw: verify_lemma2(corpus, 7, **kw),
    "identities": lambda corpus, **kw: verify_proof_identities(
        corpus, [2, 4], radical_scale=30, tolerance=-1.0, **kw),
    "chain": lambda corpus, **kw: verify_reduction_chain(corpus, 7, 1.0, 10.0, tolerance=-10.0,
                                                         **kw),
    # totient(16) = 8: a spec on the scalar lane; below -14 the derived-bound
    # check fails too
    "chain16": lambda corpus, **kw: verify_reduction_chain(corpus, 16, 1.0, 10.0,
                                                           tolerance=-14.0, **kw),
    # 33 failures of both checks, over the cap of 25: which are kept, and
    # their order, must not depend on how the corpus was cut into blocks
    "chain16-capped": lambda corpus, **kw: verify_reduction_chain(corpus, 16, 1.0, 10.0,
                                                                  tolerance=-15.0, **kw),
}


@pytest.mark.parametrize("kind", ["list", "spec"])
@pytest.mark.parametrize("suite", list(_SUITES))
def test_suites_agree_across_block_layouts(monkeypatch, suite, kind):
    # in one block by default; cut into several, spread over workers 1 and 3,
    # every suite gives the same summary, and the corpus its size and hash
    spec = CorpusSpec(max_c=60)
    corpus = spec if kind == "spec" else list(spec)
    want = (len(spec), harness._corpus_hash(corpus, len(spec)))
    whole = _SUITES[suite](corpus)
    assert whole.ok == (suite in ("lemma1", "lemma2"))
    assert len(harness._blocks(corpus, harness._TRIPLE_BLOCK)) == 1
    _small_blocks(monkeypatch, 200)
    assert len(harness._blocks(corpus, harness._TRIPLE_BLOCK)) > 1
    for workers in (1, 3):
        s = _SUITES[suite](corpus, workers=workers)
        assert _same_summary(s, whole)
        assert (s.corpus_size, s.corpus_hash) == want


@pytest.mark.parametrize("suite", list(_SUITES))
def test_suites_skip_empty_blocks(monkeypatch, suite):
    # with 59 | abc and c <= 60 only c = 59 and 60 hold solutions, so most blocks
    # of 20 slots are empty: the driver counts them as no triples and calls no
    # kernel, and the summary is that of the spec in one block, and in its
    # verdicts that of the same solutions as a list (on the scalar lane, where
    # the spec of lemma1 and the chain at N = 7 takes the sieve lane, whose
    # floats differ in the last bits)
    def outcome(s):
        return (s.corpus_size, s.checks, s.passes, s.failures, s.inconclusives,
                [(v.triple, v.params) for v in (s.extremal, *s.counterexamples) if v])

    spec = CorpusSpec(max_c=60, congruence=59)
    whole, listed = _SUITES[suite](spec), _SUITES[suite](list(spec))
    assert outcome(whole) == outcome(listed)
    _small_blocks(monkeypatch, 20)
    sizes = [len(harness._block(source)[0]) for source in harness._blocks(spec, 20)]
    assert sizes.count(0) > len(sizes) // 2 and sum(sizes) == whole.corpus_size > 0
    for workers in (1, 3):
        assert _same_summary(_SUITES[suite](spec, workers=workers), whole)
    # 1000 divides no a*b*c with c <= 10: one empty block
    none = _SUITES[suite](CorpusSpec(max_c=10, congruence=1000))
    assert (none.corpus_size, none.checks, none.extremal, none.ok) == (0, 0, None, True)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_suites_reject_a_non_finite_tolerance(value):
    # a NaN or infinite tolerance would let every check pass
    spec = CorpusSpec(max_c=3)
    runs = (lambda **kw: verify_lemma1(spec, [2], [1.0], **kw),
            lambda **kw: verify_proof_identities(spec, [2], **kw),
            lambda **kw: verify_reduction_chain(spec, 3, 1.0, 10.0, **kw))
    for run in runs:
        for key in ("tolerance", "recheck_band"):
            with pytest.raises(ValueError, match="finite"):
                run(**{key: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_epsilon_constant_and_threshold_are_rejected(value):
    # a comparison with NaN is false, so a NaN epsilon passed every lemma1 check
    spec = CorpusSpec(max_c=3)
    runs = (lambda: verify_lemma1(spec, [2], [value]),
            lambda: verify_reduction_chain(spec, 3, value, 10.0),
            lambda: verify_reduction_chain(spec, 3, 1.0, value),
            lambda: lemma_constants(2, value),
            lambda: merit(make_solution(-1, -8, 9), value),
            lambda: search_quality(10, value))
    for run in runs:
        with pytest.raises(ValueError, match="finite"):
            run()


def test_lemma1_rejects_an_epsilon_whose_constants_overflow():
    # n * eps overflows at n = 64 but not at 2; checked before any block runs,
    # so also over a corpus with no solution
    for corpus, n_grid, eps in ((CorpusSpec(max_c=3), [2, 64], 1e307),
                                (CorpusSpec(max_c=10, congruence=10**6), [2], 1e308)):
        with pytest.raises(ValueError, match="finite"):
            verify_lemma1(corpus, n_grid, [eps])


def test_checks_that_overflow_are_rejected():
    # the constants at eps = 1e307 are finite, but (1 + eps) * ln rad(abc)
    # overflows once ln rad(abc) passes about 17.9, and the chain's lifted merit
    # sooner: each slack came out +inf, a pass, on the sieve and scalar lanes
    spec = CorpusSpec(max_c=1000)
    runs = (lambda: verify_lemma1(spec, [2], [1e307]),
            lambda: verify_lemma1(list(spec), [2], [1e307]),
            lambda: verify_reduction_chain(CorpusSpec(max_c=200), 3, 1e307, 10.0),
            lambda: verify_reduction_chain(list(CorpusSpec(max_c=200)), 3, 1e307, 10.0))
    for run in runs:
        with pytest.raises(ValueError, match="finite"):
            run()
    # logs that stay finite still run
    assert verify_lemma1(list(CorpusSpec(max_c=300)), [2], [1e307]).ok


def test_a_python_float_infinity_in_the_slacks_is_rejected(monkeypatch):
    # the chain lifts its bound as a Python float, which overflows to inf without a
    # numpy warning; with derived_full_bound's own check out of the way, the slack
    # check alone must refuse it on both lanes
    monkeypatch.setattr(harness, "derived_full_bound", lambda *args: 0.0)
    spec = CorpusSpec(max_c=20)
    for corpus in (spec, list(spec)):
        with pytest.raises(ValueError, match="finite"):
            verify_reduction_chain(corpus, 3, 1.0, 1.5e308)


@pytest.mark.parametrize("suite", list(_SUITES))
def test_suites_reject_fewer_than_one_worker(suite):
    # checked in _verify, so the API rejects what the CLI does
    for workers in (0, -4):
        with pytest.raises(ValueError, match="workers"):
            _SUITES[suite](CorpusSpec(max_c=3), workers=workers)


_STOP_ON_ERROR = """
from congabc.harness import CorpusSpec, HypothesisViolated, verify_reduction_chain
listed = list(CorpusSpec(max_c=500))
for _ in range(5):
    try:
        verify_reduction_chain(listed, 3, 1.0, -5.0, workers=3)
    except HypothesisViolated:
        continue
    raise SystemExit("the hypothesis holds")
"""


def test_an_error_in_a_block_stops_the_workers():
    # the first block of a long list violates the hypothesis while later
    # blocks, each too large for the pipe, are still being handed to the
    # workers; the call must raise and return (multiprocessing.Pool's
    # terminate hung here), so it runs in a subprocess under a timeout
    subprocess.run([sys.executable, "-c", _STOP_ON_ERROR], check=True, timeout=120)


def test_chain_validation():
    corpus = [make_solution(-1, -2, 3)]
    with pytest.raises(ValueError):
        verify_reduction_chain(corpus, 2, 1.0, 10.0)
    with pytest.raises(NonpositiveEpsilon):
        verify_reduction_chain(corpus, 3, 0.0, 10.0)


# ---------------------------------------------------------------------------
# search


def test_search_quality_examples():
    hits = search_quality(100, 1.2)
    triples = [r.triple for r in hits]
    assert ABCSolution(-80, -1, 81) in triples
    assert ABCSolution(-8, -1, 9) in triples
    assert len(hits) == 2
    qualities = [r.quality for r in hits]
    assert qualities == sorted(qualities, reverse=True)
    assert qualities[0] == pytest.approx(1.2920, abs=1e-4)
    assert qualities[1] == pytest.approx(1.2263, abs=1e-4)


def test_search_quality_threshold_is_strict():
    for rep in search_quality(300, 1.0):
        assert rep.quality > 1.0
    assert search_quality(3, 1.0) == []
    with pytest.raises(ValueError):
        search_quality(2, 1.0)


def test_search_quality_refuses_max_c_above_the_size_guard(monkeypatch):
    # the check comes before the blocks and the radical table are built
    def unreachable(*args):
        raise AssertionError("reached a table past the size guard")

    monkeypatch.setattr(harness, "_c_blocks", unreachable)
    monkeypatch.setattr(harness, "_sieve_table", unreachable)
    with pytest.raises(ValueError, match="_VECTOR_MAX_C"):
        search_quality(harness._VECTOR_MAX_C + 1, 1.0)
    with pytest.raises(ValueError, match="_VECTOR_MAX_C"):
        search_quality(10**9, 1.0)


def test_suite_summary_shape():
    s = verify_lemma1(CorpusSpec(max_c=50), [2], [1.0])
    assert isinstance(s, SuiteSummary)
    assert s.suite == "lemma1"
    assert s.corpus_size == len(CorpusSpec(max_c=50))
    assert isinstance(s.corpus_hash, str) and len(s.corpus_hash) == 64
    assert s.wall_time >= 0.0
    assert s.workers == 1
    assert s.passes + s.failures + s.inconclusives == s.checks


# ---------------------------------------------------------------------------
# failure, fault-injection and inconclusive paths


def _same_summary(one: SuiteSummary, other: SuiteSummary) -> bool:
    return replace(one, wall_time=0.0, workers=0) == replace(other, wall_time=0.0, workers=0)


def test_lemma1_failures_agree_across_lanes():
    # the corpus's smallest slack is 2.54, so a tolerance of -5 demands a
    # margin of 5 that most checks miss
    spec = CorpusSpec(max_c=60)
    kw = dict(tolerance=-5.0, max_counterexamples=1000)
    fast = verify_lemma1(spec, [2, 4], [0.5, 1.0], **kw)
    slow = verify_lemma1(list(spec), [2, 4], [0.5, 1.0], **kw)
    assert fast.checks == 4 * len(spec)
    assert fast.failures == len(fast.counterexamples) == 777
    assert _same_verdicts(fast, slow)  # the same records, in the same order
    assert all(not v.passed and v.slack < 5.0 for v in fast.counterexamples)
    assert not fast.ok and not slow.ok
    for corpus in (spec, list(spec)):
        capped = verify_lemma1(corpus, [2, 4], [0.5, 1.0], tolerance=-5.0)
        assert capped.failures == 777
        assert len(capped.counterexamples) == 25
    three = verify_lemma1(spec, [2, 4], [0.5, 1.0], workers=3, **kw)
    assert _same_summary(fast, three)


def test_injected_false_inequality_is_the_minimal_counterexample(monkeypatch, capsys):
    # c_off raised by delta, between the clean run's smallest slack s1 and its
    # second smallest s2, makes lemma1 false at the clean extremal alone: both
    # lanes, at workers 1 and 3, report it as the one counterexample, and the
    # CLI exits 1
    from congabc.cli import main

    spec = CorpusSpec(max_c=200)

    def run(corpus, **kw):
        return verify_lemma1(corpus, [2, 4], [0.5, 1.0], **kw)

    clean = run(spec)
    s1 = clean.min_slack
    near = run(spec, tolerance=-(s1 + 1.0), max_counterexamples=10**6)
    slacks = sorted(v.slack for v in near.counterexamples)
    assert clean.ok and slacks[0] == pytest.approx(s1, abs=1e-12) and slacks[1] > s1 + 1e-4
    delta = (s1 + slacks[1]) / 2
    real_k, real_constants = harness.lemma_constants, harness._constants

    def shift(k):
        return replace(k, c_off=k.c_off + delta)

    # the floats' constants and the 160-bit recheck's
    monkeypatch.setattr(harness, "lemma_constants", lambda n, eps: shift(real_k(n, eps)))
    monkeypatch.setattr(harness, "_constants",
                        lambda n, eps, log: shift(real_constants(n, eps, log)))
    for corpus in (spec, list(spec)):
        for workers in (1, 3):
            s = run(corpus, workers=workers)
            assert (s.checks, s.failures, s.inconclusives) == (clean.checks, 1, 0)
            (v,) = s.counterexamples
            assert (v.triple, v.params) == (clean.extremal.triple, clean.extremal.params)
            assert v.slack == pytest.approx(s1 - delta, abs=1e-9) and v.slack < 0
            assert s.extremal == v
    code = main(["verify", "lemma1", "--max-c", "200", "--n", "2,4", "--eps", "0.5,1"])
    out, _ = capsys.readouterr()
    assert code == 1 and "counterexample" in out


def test_chain_failures_are_reported():
    # min slack over c <= 60 is 9.904, so a tolerance of -10 fails three checks
    s = verify_reduction_chain(CorpusSpec(max_c=60), 7, 1.0, 10.0, tolerance=-10.0)
    assert (s.checks, s.passes, s.failures, s.inconclusives) == (1100, 1097, 3, 0)
    assert [(v.triple, v.params) for v in s.counterexamples] == [
        (ABCSolution(-c + 1, -1, c), {"N": 7, "eps": 1.0, "n": 6, "check": "input-merit-bound"})
        for c in (44, 48, 60)
    ]
    assert not s.ok


def test_identities_radical_bound_failures_are_reported():
    spec = CorpusSpec(max_c=40)
    s = verify_proof_identities(spec, [2, 4], tolerance=-1.0, max_counterexamples=1000)
    assert s.checks == 3 * 2 * len(spec)
    assert s.failures == len(s.counterexamples) == 276
    assert {v.params["check"] for v in s.counterexamples} == {"radical-log-bound"}
    assert all(v.slack < 1.0 for v in s.counterexamples)
    # the 160-bit recheck that decided each failure evaluates the float sides' formula
    assert all(v.slack == pytest.approx(v.lhs - v.rhs, abs=1e-12) for v in s.counterexamples)


def test_lemma2_injected_exponent_paths_agree(monkeypatch):
    # an exponent two above totient(N): both paths must report the same
    # counterexamples with the same witnesses
    real = harness.totient
    monkeypatch.setattr(harness, "totient", lambda N: real(N) + 2)
    spec = CorpusSpec(max_c=200)
    listed = list(spec)
    failures = {}
    for N in (5, 7, 12, 16, 50):
        fast = verify_lemma2(spec, N, max_counterexamples=10**6)
        slow = verify_lemma2(listed, N, max_counterexamples=10**6)
        assert fast.params == slow.params == {"N": N, "n": real(N) + 2}
        assert (fast.checks, fast.passes) == (slow.checks, slow.passes)
        failures[N] = fast.failures
        assert fast.failures == slow.failures == len(fast.counterexamples)
        assert [(v.triple, v.witness) for v in fast.counterexamples] == [
            (v.triple, v.witness) for v in slow.counterexamples
        ]
        assert all(v.witness != 0 for v in fast.counterexamples)
    # totient(12) + 2 = 6 still forces 12 | ABC; the other four fail
    assert failures == {5: 2037, 7: 3074, 12: 0, 16: 2040, 50: 3672}
    # the witness table against theta at every N the benchmark runs, odd and even,
    # with the halving at even c, and over a corpus cut by a congruence
    for spec, moduli in ((CorpusSpec(max_c=60), range(3, 51)),
                         (CorpusSpec(max_c=200, congruence=16), (5, 7, 16, 50))):
        listed = list(spec)
        for N in moduli:
            fast = verify_lemma2(spec, N, max_counterexamples=10**6)
            slow = verify_lemma2(listed, N, max_counterexamples=10**6)
            assert (fast.checks, fast.passes, fast.failures) == (
                slow.checks, slow.passes, slow.failures), (spec, N)
            assert [(v.triple, v.witness) for v in fast.counterexamples] == [
                (v.triple, v.witness) for v in slow.counterexamples], (spec, N)
            failures[spec, N] = fast.failures
    assert failures[CorpusSpec(max_c=60), 47] > 0 and failures[CorpusSpec(max_c=60), 48] > 0
    assert failures[CorpusSpec(max_c=200, congruence=16), 16] == 0


def test_identities_injected_sum_fails_everywhere(monkeypatch):
    real = harness._identity_sum
    monkeypatch.setattr(harness, "_identity_sum", lambda c, dd, n: real(c, dd, n) + 1)
    spec = CorpusSpec(max_c=60)
    s = verify_proof_identities(spec, [2, 4], radical_scale=0, max_counterexamples=10**6)
    assert s.checks == 2 * 2 * len(spec)
    assert s.failures == 2 * len(spec)
    expected = [((aa, n), -4 * aa.a * aa.b) for aa in spec for n in (2, 4)]
    assert [((v.triple, v.params["n"]), v.witness) for v in s.counterexamples] == expected
    assert {v.params["check"] for v in s.counterexamples} == {"power-difference-identity"}


@pytest.mark.parametrize("workers", [1, 3])
def test_identities_fail_alike_on_both_sides_of_the_int64_bound(monkeypatch, workers):
    # checks (i) and (ii) take int64 arrays at n where n * c_hi**n < 2**62, c_hi a
    # block's largest c, else object arrays: at n = 8 the bound falls at c_hi = 165,
    # between two blocks here, and every check (i) must fail on both sides with the
    # witness -4ab of the object path, a Python int
    real = harness._identity_sum
    monkeypatch.setattr(harness, "_identity_sum", lambda c, dd, n: real(c, dd, n) + 1)
    _small_blocks(monkeypatch, 2000)
    spec = CorpusSpec(max_c=200)
    c_his = [hi for _, hi, _ in harness._blocks(spec, harness._TRIPLE_BLOCK)]
    assert 157 in c_his and 181 in c_his and 8 * 157**8 < 2**62 <= 8 * 181**8
    s = verify_proof_identities(spec, [2, 8], radical_scale=0, workers=workers,
                                max_counterexamples=10**6)
    assert (s.checks, s.failures) == (2 * 2 * len(spec), 2 * len(spec))
    expected = [((aa, n), -4 * aa.a * aa.b) for aa in spec for n in (2, 8)]
    assert [((v.triple, v.params["n"]), v.witness) for v in s.counterexamples] == expected
    assert {v.params["check"] for v in s.counterexamples} == {"power-difference-identity"}
    assert {type(v.witness) for v in s.counterexamples} == {int}


def test_identities_arrays_never_wrap(monkeypatch):
    # c**64 has 4161 bits: (i) and (ii) run on object arrays of Python ints
    big = make_solution(-(2**65 - 1), -1, 2**65)
    s = verify_proof_identities([big], [2, 8, 64], radical_scale=0)
    assert (s.checks, s.passes) == (6, 6)
    real = harness._identity_sum
    monkeypatch.setattr(harness, "_identity_sum", lambda c, dd, n: real(c, dd, n) + 1)
    s = verify_proof_identities([big], [2, 8, 64], radical_scale=0)
    assert (s.checks, s.passes, s.failures) == (6, 3, 3)
    assert [(v.params, v.witness) for v in s.counterexamples] == [
        ({"n": n, "check": "power-difference-identity"}, -4 * big.a * big.b) for n in (2, 8, 64)
    ]


def test_identities_record_failures_in_corpus_order(monkeypatch):
    # every check (i) fails, some checks (iii) of the rows that radical_scale
    # lets through do: per solution, per n, (i) before (iii), in one block and
    # across blocks and workers.  Check (iii)'s rows are judged in bulk: the
    # extremal is the first of the least slacks in corpus order, from the floats
    # at the default tolerance, where no row is a suspect, and at tolerance -1.0
    # from the 160-bit recheck of each suspect (every slack below 1.0)
    import mpmath

    real = harness._identity_sum
    monkeypatch.setattr(harness, "_identity_sum", lambda c, dd, n: real(c, dd, n) + 1)
    spec = CorpusSpec(max_c=20)

    def failures(**kw):
        s = verify_proof_identities(spec, [2, 4], tolerance=-1.0, radical_scale=12, **kw)
        assert (s.min_slack, s.extremal.triple, s.extremal.params, s.extremal.passed) == (
            rechecked[0], rechecked[1], {"n": rechecked[2], "check": "radical-log-bound"}, False)
        clean = verify_proof_identities(spec, [2, 4], radical_scale=12, **kw)
        assert (clean.min_slack, clean.extremal.triple, clean.extremal.params) == (
            floats[0], floats[1], {"n": floats[2], "check": "radical-log-bound"})
        return [(v.triple, v.params["n"], v.params["check"], v.witness)
                for v in s.counterexamples]

    expected, slacks = [], []
    for aa in spec:
        dd = aa.b - aa.a
        for n in (2, 4):
            expected.append((aa, n, "power-difference-identity", -4 * aa.a * aa.b))
            if aa.c <= 12:
                rad_q = radical(4 * real(aa.c, dd, n))  # check (iii) takes S from the pieces
                rad_img = radical_abc(theta(aa, n).output)
                lhs = math.log(dd) + math.log(radical_abc(aa)) + math.log(rad_q)
                slack = hp = lhs - math.log(rad_img)
                if slack < 1.0:
                    expected.append((aa, n, "radical-log-bound", None))
                    with mpmath.workprec(harness.HP_PRECISION_BITS):
                        hp = float(mpmath.log(dd) + mpmath.log(radical_abc(aa))
                                   + mpmath.log(rad_q) - mpmath.log(rad_img))
                slacks.append((slack, hp, aa, n))
    floats = min(((slack, aa, n) for slack, _, aa, n in slacks), key=lambda row: row[0])
    rechecked = min(((hp, aa, n) for _, hp, aa, n in slacks), key=lambda row: row[0])
    assert floats[0] > harness.DEFAULT_RECHECK_BAND
    assert sum(hp == rechecked[0] for _, hp, _, _ in slacks) > 1  # a tie, broken by position
    assert len(harness._blocks(spec, harness._TRIPLE_BLOCK)) == 1
    assert failures(max_counterexamples=10**6) == expected
    _small_blocks(monkeypatch, 50)
    assert len(harness._blocks(spec, harness._TRIPLE_BLOCK)) > 1
    for workers in (1, 3):
        assert failures(workers=workers, max_counterexamples=10**6) == expected
        assert failures(workers=workers) == expected[:harness.DEFAULT_MAX_COUNTEREXAMPLES]
    assert len(expected) > harness.DEFAULT_MAX_COUNTEREXAMPLES
    # both checks fail at both n, and in rows on both sides of the scale
    assert {(n, check) for _, n, check, _ in expected} == {
        (n, check) for n in (2, 4) for check in ("power-difference-identity", "radical-log-bound")
    }
    assert expected[-1][0].c > 12
    # a tie among rows no suspect: the bulk judge offers the first position
    low, aa = floats[:2]
    other = make_solution(-5, -2, 7)
    for corpus, position in (([aa, aa], 0), ([other, aa, aa], 1)):
        tally = harness._run_block((harness._k_identities, corpus, 0, ((2, 4), None),
                                    (25, harness.DEFAULT_TOLERANCE, harness.DEFAULT_RECHECK_BAND)))
        assert tally.best[0] == (low, 0, position, 3 * (2, 4).index(floats[2]) + 2)


def test_identities_factor_neither_the_image_nor_the_sum(monkeypatch):
    # check (iii) proves its image radical by exact division and takes rad(4 * S)
    # from the pieces: nothing goes to _exact_radicals, no 4 * S to radical
    spec = CorpusSpec(max_c=40)
    images, factored = [], []
    real_exact, real_radical = harness._exact_radicals, harness.radical
    monkeypatch.setattr(harness, "_exact_radicals",
                        lambda aa, n: images.append(aa) or real_exact(aa, n))
    monkeypatch.setattr(harness, "radical", lambda v: factored.append(v) or real_radical(v))
    s = verify_proof_identities(spec, [2, 4, 6], tolerance=-1.0, max_counterexamples=10**6)
    assert s.failures > 0 and s.checks == 3 * 3 * len(spec)
    parts = {v for aa in spec for n in (4, 6) for v in (
        -aa.a, -aa.b, aa.c, aa.b - aa.a, *harness._Radicals(aa).pieces(n))}
    sums = {4 * harness._identity_sum(aa.c, aa.b - aa.a, n) for aa in spec for n in (4, 6)}
    assert images == [] and set(factored) <= parts and sums - parts


@pytest.mark.parametrize("workers", [1, 3])
def test_identities_catch_a_dropped_piece(monkeypatch, capsys, workers):
    from congabc.cli import main

    _small_blocks(monkeypatch, 50)
    assert len(harness._blocks(CorpusSpec(max_c=40), harness._TRIPLE_BLOCK)) > 3
    _drop_last_piece(monkeypatch)
    with pytest.raises(harness.InternalRadicalMismatch, match="not those of the full image"):
        verify_proof_identities(CorpusSpec(max_c=40), [2, 4], workers=workers)
    code = main(["verify", "identities", "--max-c", "40", "--n", "2,4", "--workers", str(workers)])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and "InternalRadicalMismatch" in err


# two primes near 3.04 * 10**9, out of reach of rho at 1000 steps; from 2**63 on,
# where radical trial divides by the primes below 10**5 only, and so it goes to
# rho.  _BIG_C - 2 .. _BIG_C + 2 leave a prime or a cofactor below 10**15 there,
# so no other number of the test triples needs rho.
_BIG_C = 3037000507 * 3037000537


@pytest.mark.parametrize("suite, counts, params", [
    # rad(|abc|) gives up: lemma1 names each n, as for an image that gives up
    (lambda corpus, **kw: verify_lemma1(corpus, [2, 4], [0.5, 1.0], **kw),
     (12, 8, 4), [{"n": 2}, {"n": 4}]),
    (lambda corpus, **kw: verify_reduction_chain(corpus, 3, 1.0, 10.0, **kw),
     (6, 4, 2), [{"N": 3, "eps": 1.0}]),
    (lambda corpus, **kw: verify_proof_identities(corpus, [2], **kw),
     (9, 8, 1), [{"n": 2, "check": "radical-log-bound"}]),
])
def test_exhausted_factor_budget_is_inconclusive(monkeypatch, suite, counts, params):
    monkeypatch.setenv("CONGABC_FACTOR_BUDGET", "1")
    big = make_solution(-(_BIG_C - 1), -1, _BIG_C)
    corpus = [make_solution(-1, -2, 3), big, make_solution(-1, -2, 3)]
    s = suite(corpus)
    assert (s.checks, s.passes, s.inconclusives) == counts
    assert s.failures == 0
    assert not s.ok
    assert [(v.triple, v.params, v.inconclusive) for v in s.inconclusive_examples] == [
        (big, p, True) for p in params
    ]
    note = s.inconclusive_examples[0].note
    assert "rho steps" in note
    assert "CONGABC_FACTOR_BUDGET" in note and "e.g." not in note  # the budget's one setting
    assert _same_summary(s, suite(corpus, workers=3))


@pytest.mark.parametrize("suite, aa", [
    # c is the composite: rad(|a*b*c|), needed at every n of check (iii)
    (lambda corpus: verify_proof_identities(corpus, [2, 4, 6]),
     make_solution(-(_BIG_C - 1), -1, _BIG_C)),
    # dd is the composite: the image radical of the scalar lane at every n
    (lambda corpus: verify_lemma1(corpus, [2, 4, 6], [1.0]),
     make_solution(-(_BIG_C + 1), -1, _BIG_C + 2)),
])
def test_a_failed_factorization_is_not_retried(monkeypatch, suite, aa):
    monkeypatch.setenv("CONGABC_FACTOR_BUDGET", "1000")
    runs = []
    real = numtheory._rho_brent
    monkeypatch.setattr(numtheory, "_rho_brent", lambda n, *args: runs.append(n) or real(n, *args))
    s = suite([aa])
    assert s.inconclusives == 3  # one per n
    assert runs == [_BIG_C]


# ---------------------------------------------------------------------------
# image radicals from the cyclotomic pieces, against the full image


def _assert_pieces_match_full_image(aa, n_grid):
    rads = harness._Radicals(aa)
    assert rads.rad_in == radical_abc(aa)
    for n in n_grid:
        img = theta(aa, n).output
        _, _, c_img, rad_img = rads.row(n)
        assert (c_img, rad_img) == (img.c, radical_abc(img)), (aa, n)
        assert math.log(c_img) == math.log(img.c)


def test_image_radicals_match_full_image_exhaustive():
    # every solution with c <= 200, odd and even c
    for aa in CorpusSpec(200):
        _assert_pieces_match_full_image(aa, (2, 4, 6, 8, 12))


def test_radical_parts_are_those_of_the_identity_sum():
    # check (iii) of the identities takes rad(dd) and rad(4 * S) from the pieces
    for aa in CorpusSpec(200):
        rads, dd = harness._Radicals(aa), aa.b - aa.a
        for n in (2, 4, 6, 8, 12):
            assert rads.parts(n) == (radical(dd), radical(4 * harness._identity_sum(aa.c, dd, n)))


def _sample(max_c, count, seed):
    """count solutions drawn uniformly from the c <= max_c corpus, by rejection
    over the (c, s) rectangle with a seeded generator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = rng.randrange(3, max_c + 1)
        s = rng.randrange(1, (max_c - 1) // 2 + 1)
        if 2 * s < c and math.gcd(s, c) == 1:
            out.append(ABCSolution(s - c, -s, c))
    return out


# how many of each sample the oracle compares under the 2**19-step budget
_COMPARED = {4: 6, 8: 5, 12: 4}


@pytest.mark.parametrize("digits", [4, 8, 12])
def test_image_radicals_match_full_image_sampled(monkeypatch, digits):
    # prime powers of c and dd no longer reach rho, but c**n - dd**n can hold
    # large primes from two different pieces, and splitting that product of a
    # whole image near c = 10**12 can keep rho busy for minutes; under a
    # 2**19-step budget the oracle gives up on those and the solution is
    # skipped (at n = 6: one solution of the 8-digit sample, two of the 12)
    monkeypatch.setenv("CONGABC_FACTOR_BUDGET", str(1 << 19))
    sample = _sample(10**digits, 6, seed=digits)
    compared = 0
    for aa in sample:
        try:
            _assert_pieces_match_full_image(aa, (2, 4, 6))
        except FactorizationFailure:
            continue
        compared += 1
    assert compared >= _COMPARED[digits]


def _drop_last_piece(monkeypatch):
    real = harness._Radicals.pieces
    monkeypatch.setattr(harness._Radicals, "pieces", lambda self, n: real(self, n)[:-1])


@pytest.mark.parametrize("corpus, n_grid", [
    ([make_solution(-1, -2, 3), make_solution(-1, -4, 5)], [2, 4]),
    (CorpusSpec(max_c=30), [8]),  # the sieve lane at n = 8: a row made exact is audited
    (CorpusSpec(max_c=30), [6]),  # the sieve lane, whose oracle takes the pieces too
    (list(CorpusSpec(max_c=30)), [8]),  # n = 8 on the scalar lane
])
def test_lemma1_audit_catches_a_dropped_piece(monkeypatch, corpus, n_grid):
    _drop_last_piece(monkeypatch)
    with pytest.raises(harness.InternalRadicalMismatch):
        verify_lemma1(corpus, n_grid, [1.0])


def test_audit_catches_a_wrong_input_radical(monkeypatch):
    real = harness._Radicals.__init__

    def init(self, aa):
        real(self, aa)
        self.rad_in *= 5

    monkeypatch.setattr(harness._Radicals, "__init__", init)
    with pytest.raises(harness.InternalRadicalMismatch, match="pieces give"):
        verify_lemma1([make_solution(-1, -2, 3)], [2], [1.0])


@pytest.mark.parametrize("workers", [1, 3])
def test_chain_audit_catches_a_dropped_piece(monkeypatch, workers):
    _small_blocks(monkeypatch, 200)
    assert len(harness._blocks(CorpusSpec(max_c=60), harness._TRIPLE_BLOCK)) > 3
    _drop_last_piece(monkeypatch)
    with pytest.raises(harness.InternalRadicalMismatch):
        # totient(16) = 8: the scalar lane
        verify_reduction_chain(CorpusSpec(max_c=60), 16, 1.0, 10.0, workers=workers)


def _drop_a_square_prime_of_an_audited_row(monkeypatch, spec):
    # dropped from the Phi_3 table, a prime of a piece to the first power is
    # left in the cofactor, which makes the same radical; its square makes the
    # cofactor p**2 and counts ln p twice, which the audit must see
    squares = set()
    for idx, source in enumerate(harness._blocks(spec, harness._BLOCK_SLOTS)):
        c_arr, s_arr, _ = _block_grid(*source)
        for i in harness._audit_rows(idx, len(c_arr)):
            t = _piece_value(3, int(c_arr[i]), int(s_arr[i]))
            squares |= {p for p, e in factorize(t).factors if e > 1}
    assert squares
    drop = min(squares)
    real = harness._piece_table

    def table(k, max_c):
        primes, roots = real(k, max_c)
        keep = primes != (drop if k == 3 else 0)
        return primes[keep], roots[keep]

    monkeypatch.setattr(harness, "_piece_table", table)


@pytest.mark.parametrize("workers", [1, 3])
def test_sieve_lane_audit_catches_a_dropped_prime(monkeypatch, capsys, workers):
    # the piece sieve serves the chain alone: lemma1 adds each piece whole, reads
    # no table, and gives the same summary without the prime
    from congabc.cli import main

    _small_blocks(monkeypatch, 200)
    spec = CorpusSpec(max_c=60)
    assert len(harness._blocks(spec, harness._BLOCK_SLOTS)) > 3
    clean = verify_lemma1(spec, [2, 6], [1.0], workers=workers)
    assert clean.ok and verify_reduction_chain(spec, 7, 1.0, 10.0, workers=workers).ok
    _drop_a_square_prime_of_an_audited_row(monkeypatch, spec)
    assert _same_summary(verify_lemma1(spec, [2, 6], [1.0], workers=workers), clean)
    with pytest.raises(harness.InternalRadicalMismatch, match="the sieve gives"):
        verify_reduction_chain(spec, 7, 1.0, 10.0, workers=workers)
    code = main(["verify", "chain", "--max-c", "60", "--N", "7", "--eps", "1", "--C", "10",
                 "--workers", str(workers)])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and "InternalRadicalMismatch" in err


@pytest.mark.parametrize("workers", [1, 3])
def test_every_sieve_row_is_the_proved_row(monkeypatch, workers):
    # every position of every block audited: _audit_logs compares the four logs
    # of each row, at each n, with those of _proved_image
    monkeypatch.setattr(harness, "_audit_rows", lambda block_idx, size: range(size))
    _small_blocks(monkeypatch, 2000)
    for spec in (CorpusSpec(200), CorpusSpec(400, congruence=7)):
        assert len(harness._blocks(spec, harness._BLOCK_SLOTS)) > 3
        assert verify_lemma1(spec, [2, 4, 6], [1.0], workers=workers).ok
    real = harness._sieve_table

    def table(limit):
        # rad(175) = 5 * 7 counted as 5**2 * 7, in every table that reaches it
        least, lograd, pairs = real(limit)
        if len(lograd) > 175:
            lograd = lograd.copy()
            lograd[175] += math.log(5)
        return least, lograd, pairs

    monkeypatch.setattr(harness, "_sieve_table", table)
    with pytest.raises(harness.InternalRadicalMismatch, match="the sieve gives"):
        verify_lemma1(CorpusSpec(200), [2, 4, 6], [1.0], workers=workers)


@pytest.mark.parametrize("workers", [1, 3])
def test_sieve_lane_never_factorizes(monkeypatch, workers):
    # its audit and its rechecks included: every number of the lane is below
    # 2**63, where radical trial divides to the cube root and needs no rho, so
    # factorize, and its budget, never matter
    real = numtheory.factorize

    def refuse(n, *args, **kwargs):
        if n == 9:  # totient(N) of the chain at N = 9, a parameter
            return real(n, *args, **kwargs)
        raise AssertionError(f"factorize({n}) on the sieve lane")

    monkeypatch.setattr(numtheory, "factorize", refuse)
    monkeypatch.setattr(harness, "factorize", refuse)
    _small_blocks(monkeypatch, 2000)
    spec = CorpusSpec(max_c=200, congruence=7)
    assert len(harness._blocks(spec, harness._BLOCK_SLOTS)) > 3
    assert verify_lemma1(spec, [2, 4, 6], [0.5, 1.0], workers=workers).ok
    assert verify_lemma1(spec, [8, 10, 12], [0.5, 1.0], workers=workers).ok
    assert verify_reduction_chain(spec, 9, 1.0, 10.0, workers=workers).ok
    # a margin that many checks miss: every failure is rechecked, and its row, at
    # n = 8 too, made exact
    s = verify_lemma1(spec, [2, 4, 6], [0.5, 1.0], tolerance=-5.0, workers=workers)
    assert s.failures > 0 and s.inconclusives == 0
    s = verify_lemma1(spec, [8, 10, 12], [0.5, 1.0], tolerance=-7.0, workers=workers)
    assert s.failures > 0 and s.inconclusives == 0


def test_proved_image_is_the_full_image(monkeypatch):
    for aa in CorpusSpec(60):
        rads = harness._Radicals(aa)
        for n in (2, 4, 6, 8):  # 8: a piece of degree 4
            row = rads.row(n)
            assert row == harness._proved_image(rads, n) == harness._exact_radicals(aa, n)
    # a piece left out: its primes are missing from the full image's
    _drop_last_piece(monkeypatch)
    rads = harness._Radicals(make_solution(-4, -3, 7))
    assert rads.row(6)[3] == 2 * 3 * 7 * 19  # Phi_3(7, 1) = 3 * 19, Phi_6(7, 1) = 43 dropped
    with pytest.raises(harness.InternalRadicalMismatch, match="not those of the full image"):
        harness._proved_image(rads, 6)


def test_theta_is_its_bare_image():
    # theta wraps _image, which check (iii) and _proved_image read: the same m and raw
    # image, and the output the raw image sorted
    from congabc.theta import _image

    for aa in CorpusSpec(200):
        for n in range(2, 17, 2):
            r = theta(aa, n)
            assert (r.m, r.raw) == _image(aa, n), (aa, n)
            assert r.output == ABCSolution(*sorted(r.raw[:2]), r.raw[2])


def test_check_iii_proves_every_row_against_the_image(monkeypatch):
    # the audit workload's identities call: each of its 1,521 rows with c <= 100 at
    # each of the 4 n, 6,084 (row, n), is proved against the full image once, by
    # _is_radical on the image radical and the image c compared, and holds
    proofs, images = [], []
    real_radical, real_image = harness._is_radical, harness._image
    monkeypatch.setattr(harness, "_is_radical", lambda r, m: (
        proofs.append(real_radical(r, m)), proofs[-1])[1])
    monkeypatch.setattr(harness, "_image", lambda aa, n: (
        images.append((aa, n)), real_image(aa, n))[1])
    s = verify_proof_identities(CorpusSpec(300), [2, 4, 6, 8], radical_scale=100)
    assert s.ok and s.checks == 2 * 4 * len(CorpusSpec(300)) + 6084  # (i), (ii) on every row
    rows = [aa for aa in CorpusSpec(100)]
    assert len(rows) == 1521 and len(proofs) == 6084 and all(proofs)
    assert sorted(images, key=lambda x: (x[0].c, -x[0].b, x[1])) == [
        (aa, n) for aa in rows for n in (2, 4, 6, 8)]


def test_is_radical_is_the_certificate():
    # the one test of the sieve lane's oracle and of the identities' check (iii)
    outside = 10**9 + 7  # a prime above every piece, so dividing no image below
    for aa in CorpusSpec(60):
        for n in (2, 4, 6, 8):
            img = theta(aa, n).output
            m = abs(img.a * img.b * img.c)
            r = radical_abc(img)
            assert harness._is_radical(r, m)
            for p, _ in factorize(r).factors:
                assert not harness._is_radical(r // p, m), (aa, n, p)  # misses p
            assert not harness._is_radical(r * outside, m)  # a prime that m lacks
    assert harness._is_radical(1, 1) and not harness._is_radical(2, 1)


@pytest.mark.parametrize("workers", [1, 3])
def test_audit_catches_a_radical_without_its_square_step(monkeypatch, workers):
    # a cube-root rule that takes a p**2 cofactor for a prime: dd = p**2 of the
    # first solution gets the radical p**2, and the audit, which factors the
    # full image with factorize, must see it
    p = 100_003

    def no_isqrt(n):
        return radical(n) * (p if n % (p * p) == 0 else 1)

    corpus = [make_solution(-(p * p + 1), -1, p * p + 2), make_solution(-1, -2, 3)]
    assert verify_lemma1(corpus, [2, 4], [1.0], workers=workers).ok
    monkeypatch.setattr(harness, "radical", no_isqrt)
    with pytest.raises(harness.InternalRadicalMismatch, match="the full image"):
        verify_lemma1(corpus, [2, 4], [1.0], workers=workers)


_P, _Q = 100_003, 100_019  # primes: |a|, |b|, c and dd stay below 10**10, |a*b| does not


@pytest.mark.parametrize("suite, params", [
    (lambda corpus, **kw: verify_lemma1(corpus, [2], [0.5, 1.0], **kw), {"n": 2}),
    (lambda corpus, **kw: verify_reduction_chain(corpus, 3, 1.0, 10.0, **kw),
     {"N": 3, "eps": 1.0}),
])
def test_exhausted_budget_in_the_audit_is_inconclusive(monkeypatch, suite, params):
    # every piece of the first solution factors without rho, but its full
    # image holds -(c**2 - dd**2)/4 = -_P*_Q, which needs rho (a prime power
    # such as _P**2 would not): the audit gives up, and that solution's checks
    # are inconclusive, never passed; the same solution later in the block is
    # not audited and passes
    monkeypatch.setenv("CONGABC_FACTOR_BUDGET", "1")
    first = make_solution(-_Q, -_P, _P + _Q)
    corpus = [first, make_solution(-1, -2, 3), first]
    s = suite(corpus)
    assert (s.checks, s.passes, s.inconclusives, s.failures) == (6, 4, 2, 0)
    assert [(v.triple, v.params, v.inconclusive) for v in s.inconclusive_examples] == [
        (first, params, True)
    ]
    assert f"{_P * _Q}" in s.inconclusive_examples[0].note
    assert _same_summary(s, suite(corpus, workers=3))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("suite", [
    lambda corpus, **kw: verify_lemma1(corpus, [2], [0.5, 1.0], **kw),
    lambda corpus, **kw: verify_reduction_chain(corpus, 3, 1.0, 10.0, **kw),
], ids=["lemma1", "chain"])
def test_recheck_needs_no_factored_image(monkeypatch, suite, workers):
    # the image of the _P, _Q solution holds _P*_Q, out of reach of the budget;
    # at position 1 it is not audited, and its recheck (the band takes every
    # check) proves the image radical from the parts: judged, not inconclusive
    monkeypatch.setenv("CONGABC_FACTOR_BUDGET", "1")
    corpus = [make_solution(-1, -2, 3), make_solution(-_Q, -_P, _P + _Q)]
    s = suite(corpus, recheck_band=1e9, workers=workers)
    assert (s.checks, s.passes, s.inconclusives) == (4, 4, 0)


def test_identities_radical_bound_needs_no_factored_image(monkeypatch):
    # the same solution's image holds _P*_Q, out of reach of the budget, but
    # check (iii) factors only |a*b*c|, dd and 4 * S = 4 at n = 2, and proves
    # the image radical from them by exact division: judged, not inconclusive
    monkeypatch.setenv("CONGABC_FACTOR_BUDGET", "1")
    first = make_solution(-_Q, -_P, _P + _Q)
    with pytest.raises(FactorizationFailure):
        harness._exact_radicals(first, 2)  # the oracle gives up
    s = verify_proof_identities([first], [2])
    assert (s.checks, s.passes, s.inconclusives) == (3, 3, 0)
    assert s.extremal.params == {"n": 2, "check": "radical-log-bound"}


# ---------------------------------------------------------------------------
# bounded rows in both lanes: lemma1 judged on a multiple of the image radical


_BOUNDED_RUNS = {
    # a spec at n = 8 to 16 is on the sieve lane, its list twin on the scalar lane
    "n8,12": (CorpusSpec(150), [8, 12], [0.5, 1.0], {}),
    "n8-tol-7": (CorpusSpec(150), [8], [0.1, 1.0], {"tolerance": -7.0}),
    "n16": (CorpusSpec(100), [16], [1.0], {}),
    "n16-tol-12.5": (CorpusSpec(100), [16], [1.0], {"tolerance": -12.5}),
    "list-n8,12": (list(CorpusSpec(150)), [8, 12], [0.5, 1.0], {}),
    "list-n8-tol-7": (list(CorpusSpec(150)), [8], [0.1, 1.0], {"tolerance": -7.0}),
    "list-n16": (list(CorpusSpec(100)), [16], [1.0], {}),
    "list-n16-tol-12.5": (list(CorpusSpec(100)), [16], [1.0], {"tolerance": -12.5}),
    "n32": (CorpusSpec(30), [32], [1.0], {}),
    "list-n2,4,6-tol-4": (list(CorpusSpec(100)), [2, 4, 6], [0.5, 1.0], {"tolerance": -4.0}),
    "sampled": (_sample(10**8, 150, seed=1), [2, 4], [0.1, 1.0], {}),
    # the sieve lane: the piece sieve once the bound is off
    "sieve-n4,6-tol-4": (CorpusSpec(200), [4, 6], [0.5, 1.0], {"tolerance": -4.0}),
    "sieve-n2,4,6-tol-4": (CorpusSpec(200), [2, 4, 6], [0.1, 1.0], {"tolerance": -4.0}),
}


@pytest.mark.parametrize("run", list(_BOUNDED_RUNS))
def test_bounded_rows_agree_with_exact_rows(monkeypatch, run):
    # the same summary, every counterexample kept, as when every row is exact,
    # over several blocks at workers 1 and 3
    corpus, n_grid, eps_grid, kw = _BOUNDED_RUNS[run]
    kw = {**kw, "max_counterexamples": 10**6}
    _small_blocks(monkeypatch, 60)
    assert len(harness._blocks(corpus, harness._TRIPLE_BLOCK)) > 2
    bounded = [verify_lemma1(corpus, n_grid, eps_grid, workers=w, **kw) for w in (1, 3)]
    assert ("tolerance" in kw) == (bounded[0].failures > 0)
    monkeypatch.setattr(harness, "_takes_bounds", lambda plan: False)  # every row exact
    for s, workers in zip(bounded, (1, 3)):
        assert _same_summary(s, verify_lemma1(corpus, n_grid, eps_grid, workers=workers, **kw))


def test_bound_strips_the_primes_of_2k_as_the_power_gcd_did():
    # U divides each piece Phi_k(c, dd) by every power of the primes of 2k; the
    # gcd strip must give the same U as dividing by gcd(v, (2k)**bitlen(v))
    for aa in CorpusSpec(200):
        rads = harness._Radicals(aa)
        for n in (4, 6, 8, 12, 16, 30):
            u = math.lcm(rads.rad_in, radical(aa.b - aa.a))
            for k in harness._piece_ks(n):
                v = rads._phi(k)
                u *= v // math.gcd(v, (2 * k) ** v.bit_length())
            assert rads.bound(n)[3] == u, (aa, n)


def test_a_tie_between_bounded_and_exact_rows_goes_by_position():
    # (-4, -3, 7) at n = 4: Phi_4(7, 1) = 2 * 5**2, so U = 5 * rad and the
    # bounded slack is below the exact one, 9.98; once made exact it ties with
    # the same solution's exact row, and the first position is the extremal
    aa, other = make_solution(-4, -3, 7), make_solution(-23, -14, 37)  # slack 10.59
    rads = harness._Radicals(aa)
    assert rads.bound(4)[3] == 5 * rads.row(4)[3]
    exact, bound = (tuple(map(math.log, row(4))) for row in (rads.row, rads.bound))
    want = verify_lemma1([aa], [4], [1.0]).extremal
    plan = harness._Plan((4,), (1.0,), harness._lemma1_sides)
    for first_bounded in (True, False):
        tally = harness._Tally(25, 1e-9, 1e-6)
        logs = tuple(map(np.array, zip(*((bound, exact) if first_bounded else (exact, bound)))))
        harness._judge_rows(tally, plan, 0, 0, logs, [0, 1], lambda p: rads,
                            np.array([first_bounded, not first_bounded]), lambda i: exact[3])
        assert tally.best == ((want.slack, 0, 0, 0), want)
    # through the scalar lane, where every row at n = 4 is bounded: the argmin is
    # made exact until it is exact, and the tie goes to the first position
    for corpus, position in (([aa, other, aa], 0), ([other, aa, aa], 1)):
        tally = harness._run_block((harness._k_scalar, corpus, 0, (plan,), (25, 1e-9, 1e-6)))
        assert tally.best == ((want.slack, 0, position, 0), want)


def _judge_hand_made(monkeypatch, slacks, tolerance, band):
    """(tally, rows rechecked) of _judge_rows over rows whose slacks are the given
    floats: the first log is the slack, the others 0, a plan whose one check is
    (f_in, 0), and a recheck that returns the slack."""
    aa = make_solution(-1, -2, 3)
    rows = [SimpleNamespace(aa=aa, i=i) for i in range(len(slacks))]
    rechecked = []

    def hp(rads, n, eps, plan):
        rechecked.append(rads.i)
        return [slacks[rads.i]]

    monkeypatch.setattr(harness, "_slack_arrays", lambda plan, k, f_in, f_img: (f_in,))
    monkeypatch.setattr(harness, "_hp_slacks", hp)
    plan = harness._Plan((2,), (1.0,), lambda k, f_in, f_img, bound: ((f_in, 0.0),))
    tally = harness._Tally(10**6, tolerance, band)
    logs = (np.array(slacks, dtype=np.float64), *(np.zeros(len(slacks)) for _ in range(3)))
    harness._judge_rows(tally, plan, 0, 0, logs, range(len(slacks)), rows.__getitem__)
    return tally, rechecked


# rows in every region of the suspect rule |slack| < band or slack < -tolerance,
# the suspects among them, and the rows that fail
_SCREENED = {
    # tolerance <= band: the band reaches below -tolerance
    "tolerance-below-band": (1e-9, 1e-6, [-1.0, -5e-7, -1e-9, 5e-7, 1e-6, 2.0],
                             [0, 1, 2, 3], [0, 1]),
    # tolerance > band: row 1, between -tolerance and -band, is no suspect
    "tolerance-above-band": (1e-3, 1e-6, [-1.0, -1e-4, -5e-7, 5e-7, 1e-6, 2.0],
                             [0, 2, 3], [0]),
    # a negative tolerance: every slack below 6 fails, after its recheck
    "tolerance--6": (-6.0, 1e-6, [-1.0, 3.0, 5e-7, 6.0, 7.0], [0, 1, 2], [0, 1, 2]),
}


@pytest.mark.parametrize("case", list(_SCREENED))
def test_judge_screens_suspects_with_the_three_comparison_rule(monkeypatch, case):
    # _judge_rows screens rows with one comparison, slack < max(band, -tolerance),
    # then applies the rule to those rows only: the same suspects, in row order
    tolerance, band, slacks, suspects, failing = _SCREENED[case]
    assert suspects == [i for i, x in enumerate(slacks) if abs(x) < band or x < -tolerance]
    tally, rechecked = _judge_hand_made(monkeypatch, slacks, tolerance, band)
    assert rechecked == suspects
    assert (tally.checks, tally.failures) == (len(slacks), len(failing))
    assert [where[1] for where, _ in tally.counterexamples] == failing
    assert tally.best[0][:3] == (min(slacks), 0, slacks.index(min(slacks)))


_GAVE_UP = FactorizationFailure(91, 1)
_LOWER_BOUND_NOTE = f"slack is a lower bound, from a multiple of the image radical: {_GAVE_UP}"


def _judge(slacks, rechecks=(), exact=(), tolerance=1e-9, band=1e-6):
    """(tally, held, rechecked, made exact, slack, below) of _Tally.judge over hand-made
    entries: entry i has the key (0, 10 * i, 0), the sides (its slack, 0), the slack
    rechecks[i] at 160 bits and, where exact has it, is bounded, made exact with the
    slack exact[i], or gives up where that is None."""
    tally = harness._Tally(10**6, tolerance, band)
    slack, below = np.array(slacks, dtype=np.float64), np.zeros(len(slacks), dtype=bool)
    values, exact = list(slacks), dict(exact)
    bounded = np.array([i in exact for i in range(len(slacks))], dtype=bool)
    rechecked, made = [], []

    def verdict(i):
        return (0, 10 * i, 0), make_solution(-1, -2, 3), {"i": i}, values[i], 0.0

    def recheck(i):
        rechecked.append(i)
        return dict(rechecks)[i]

    def settle(i):
        if exact[i] is None:
            return _GAVE_UP
        made.append(i)
        values[i], bounded[i] = exact[i], False
        return None

    held = tally.judge(slack, below, verdict, recheck, bounded, settle)
    return tally, held, rechecked, made, slack.tolist(), below.tolist()


def test_the_judge_rules_on_hand_made_slacks():
    # entries 2.0, -1.0, 5e-7 (bounded), 1e-7 (bounded, gives up) and 0.5: of the
    # three suspects the first fails after its recheck, the second is exact at 3.0,
    # no suspect then and so not rechecked, and the third is held and not counted.
    # The screen goes into the caller's buffer
    aa = make_solution(-1, -2, 3)
    tally, held, rechecked, made, slack, below = _judge(
        [2.0, -1.0, 5e-7, 1e-7, 0.5], rechecks={1: -0.25}, exact={2: 3.0, 3: None})
    assert (held, rechecked, made) == ([3], [1], [2])
    assert below == [False, True, True, True, False]
    assert slack == [2.0, -0.25, 3.0, 1e-7, 0.5]
    assert (tally.checks, tally.failures, tally.inconclusives) == (4, 1, 0)
    failure = harness.LemmaVerdict(aa, {"i": 1}, -1.0, 0.0, -0.25, False)
    assert tally.counterexamples == [((0, 10, 0), failure)]
    assert tally.best == ((-0.25, 0, 10, 0), failure)
    # no suspect: the argmin is made exact until it is exact or gives up, and an
    # extremal that gave up passes with the note, as its slack clears the band
    tally, held, rechecked, made, slack, _ = _judge([0.4, 0.2, 0.3, 0.6],
                                                    exact={1: 0.8, 2: None})
    assert (held, rechecked, made, slack) == ([], [], [1], [0.4, 0.8, 0.3, 0.6])
    assert (tally.checks, tally.failures) == (4, 0)
    assert tally.best == ((0.3, 0, 20, 0), harness.LemmaVerdict(
        aa, {"i": 2}, 0.3, 0.0, 0.3, True, note=_LOWER_BOUND_NOTE))
    tally, _, _, made, _, _ = _judge([0.4, 0.2], exact={1: 0.3})
    assert made == [1]
    assert tally.best == ((0.3, 0, 10, 0), harness.LemmaVerdict(aa, {"i": 1}, 0.3, 0.0, 0.3, True))
    # a held suspect as the extremal: inconclusive, with the note
    tally, held, rechecked, _, _, _ = _judge([0.4, 5e-7], exact={1: None})
    assert (held, rechecked, tally.checks, tally.inconclusives) == ([1], [], 1, 0)
    assert tally.best == ((5e-7, 0, 10, 0), harness.LemmaVerdict(
        aa, {"i": 1}, 5e-7, 0.0, 5e-7, False, inconclusive=True, note=_LOWER_BOUND_NOTE))
    # ties go to the first entry, among floats and among 160-bit slacks
    assert _judge([0.5, 0.25, 0.25])[0].best[0] == (0.25, 0, 10, 0)
    tally, _, rechecked, _, _, _ = _judge([0.7, -1.0, -2.0], rechecks={1: -0.5, 2: -0.5})
    assert rechecked == [1, 2]
    assert [where for where, _ in tally.counterexamples] == [(0, 10, 0), (0, 20, 0)]
    assert tally.best[0] == (-0.5, 0, 10, 0)
    # the 160-bit slack decides, not its float: one below -tolerance by less than
    # half an ulp fails, though its float is -tolerance
    with harness._at_160_bits() as mp:
        hp = mp.mpf(-1e-9) - mp.mpf(2) ** -100
    assert float(hp) == -1e-9
    tally, _, _, _, slack, _ = _judge([-1.0, 0.5], rechecks={0: hp})
    assert (tally.failures, slack[0], tally.best[1].passed) == (1, -1e-9, False)
    tally, held, _, _, _, _ = _judge([])
    assert (held, tally.checks, tally.best) == ([], 0, None)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_judge_refuses_a_non_finite_hand_made_slack(monkeypatch, value):
    # a NaN or +inf slack is below no screen and -inf below every one: each is
    # refused before any row is screened, whatever the tolerance
    for tolerance in (1e-9, 1e-3, -6.0):
        with pytest.raises(ValueError, match="not finite"):
            _judge_hand_made(monkeypatch, [1.0, value, -1.0], tolerance, 1e-6)


@pytest.mark.parametrize("sides, bound", [(harness._lemma1_sides, None),
                                          (harness._chain_sides, 30.0)])
@pytest.mark.parametrize("n, eps", [(2, 0.1), (4, 1.0), (6, 2.5)])
def test_slack_arrays_are_the_float_formula_bit_for_bit(sides, bound, n, eps):
    # the judge writes its slacks in place (_merit_arrays, _slack_arrays) and
    # reads a suspect's or the extremal's sides from the float formula: the
    # two must agree on every row, to the last bit
    rng = random.Random(n)
    logs = tuple(np.array([rng.uniform(0.0, 40.0) for _ in range(500)]) for _ in range(4))
    plan = harness._Plan((n,), (eps,), sides, bound)
    k = lemma_constants(n, eps)
    f_in, f_img = np.empty(500), np.empty(500)
    harness._merit_arrays(k, logs, f_in, f_img)
    slacks = harness._slack_arrays(plan, k, f_in, f_img)
    assert len(slacks) == len(sides(k, 0.0, 0.0, bound))
    for i in range(500):
        merits = harness._merits(k, *(float(x[i]) for x in logs))
        assert [float(s[i]) for s in slacks] == [lhs - rhs for lhs, rhs in sides(k, *merits, bound)]


def test_a_recheck_takes_no_radical_its_row_took(monkeypatch):
    # two solutions without a number in common, so a value that radical sees twice
    # is one row's: every check fails, and each recheck, of the exact first row and
    # of the bounded second made exact, reads the _Radicals its row was judged from
    corpus = [make_solution(-1, -2, 3), make_solution(-11, -16, 27)]
    taken, rechecks = [], []
    real_radical, real_hp = harness.radical, harness._hp_slacks
    monkeypatch.setattr(harness, "radical", lambda v: taken.append(v) or real_radical(v))
    monkeypatch.setattr(harness, "_hp_slacks", lambda *a: rechecks.append(a) or real_hp(*a))
    s = verify_lemma1(corpus, [2, 8], [0.5, 1.0], tolerance=-100.0)
    assert s.failures == s.checks == len(rechecks) == 8
    assert len(taken) == len(set(taken))


def test_only_the_rows_made_exact_take_the_radical_of_their_piece(monkeypatch):
    # a sampled-sized batch at n 2, 4: Phi_4 = c**2 + dd**2 goes to radical only
    # for the rows made exact, which read rad(t_4) (_Radicals.piece without
    # bound): one extremal at both eps.  The first row's audit against the full
    # image takes it too
    batch = _sample(10**8, 150, seed=0)
    phi4 = {aa.c**2 + (aa.b - aa.a) ** 2: aa for aa in batch}
    taken, made = set(), set()
    real_radical, real_piece = harness.radical, harness._Radicals.piece

    def piece(self, k, bound):
        if not bound:
            made.add(self.aa)
        return real_piece(self, k, bound)

    monkeypatch.setattr(harness, "radical", lambda v: taken.add(v) or real_radical(v))
    monkeypatch.setattr(harness._Radicals, "piece", piece)
    s = verify_lemma1(batch, [2, 4], [0.1, 1.0])
    assert s.ok
    assert len(made) == 1 and batch[0] not in made
    assert {phi4[v] for v in taken & phi4.keys()} == made | {batch[0]}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("wrong", ["over-stripped", "piece-dropped"])
def test_bound_audit_catches_a_missing_prime(monkeypatch, capsys, wrong, workers):
    # a U that misses a prime of the image: its 5s divided out as if 5 were a
    # prime of 2k, or the piece at k = n left out.  The audited rows of every
    # block prove that each prime of the full image divides U
    from congabc.cli import main

    real = harness._Radicals.bound

    def bound(self, n):
        c, rad_in, c_img, u = real(self, n)
        if wrong == "over-stripped":
            return c, rad_in, c_img, u // math.gcd(u, 5 ** u.bit_length())
        piece = self._phi(n)
        return c, rad_in, c_img, u // (piece // math.gcd(piece, (2 * n) ** piece.bit_length()))

    _small_blocks(monkeypatch, 200)
    spec = CorpusSpec(max_c=60)
    assert verify_lemma1(spec, [4, 8, 16], [1.0], workers=workers).ok
    monkeypatch.setattr(harness._Radicals, "bound", bound)
    for corpus, n_grid in ((list(spec), [4]), (spec, [8]), (spec, [2, 16]),
                           (list(spec), [8]), (list(spec), [2, 16])):
        with pytest.raises(harness.InternalRadicalMismatch, match="not those of the full image"):
            verify_lemma1(corpus, n_grid, [1.0], workers=workers)
    code = main(["verify", "lemma1", "--max-c", "60", "--n", "8", "--eps", "1",
                 "--workers", str(workers)])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and "InternalRadicalMismatch" in err


@pytest.mark.parametrize("workers", [1, 3])
def test_sieve_bound_audit_catches_an_over_stripped_piece(monkeypatch, capsys, workers):
    # t_4 with its 5s divided out as if 5 were a prime of 2k: lemma1's log of U
    # misses them, and the audit of its bounded rows sees it
    from congabc.cli import main

    real = harness._piece_values

    def values(k, x, y):
        t = real(k, x, y)
        while k == 4 and (at := np.flatnonzero(t % 5 == 0)).size:
            t[at] //= 5
        return t

    _small_blocks(monkeypatch, 200)
    spec = CorpusSpec(max_c=60)
    assert verify_lemma1(spec, [4], [1.0], workers=workers).ok
    monkeypatch.setattr(harness, "_piece_values", values)
    with pytest.raises(harness.InternalRadicalMismatch, match="the sieve gives.* U"):
        verify_lemma1(spec, [2, 4], [1.0], workers=workers)
    code = main(["verify", "lemma1", "--max-c", "60", "--n", "4", "--eps", "1",
                 "--workers", str(workers)])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and "InternalRadicalMismatch" in err


@pytest.mark.parametrize("workers", [1, 3])
def test_piece_sieve_refuses_a_hit_that_does_not_divide(monkeypatch, capsys, workers):
    # t_4 with its 5s divided out: the chain's piece sieve still hits 5 wherever
    # 5 | q_4, and must say so rather than divide a value 5 does not divide, which
    # reaches 0 and then divides forever
    from congabc.cli import main

    real = harness._piece_values

    def values(k, x, y):
        t = real(k, x, y)
        while k == 4 and (at := np.flatnonzero(t % 5 == 0)).size:
            t[at] //= 5
        return t

    _small_blocks(monkeypatch, 200)
    spec = CorpusSpec(max_c=60)
    assert verify_reduction_chain(spec, 5, 1.0, 10.0, workers=workers).ok
    monkeypatch.setattr(harness, "_piece_values", values)
    with pytest.raises(harness.InternalRadicalMismatch, match="which does not divide"):
        verify_reduction_chain(spec, 5, 1.0, 10.0, workers=workers)
    code = main(["verify", "chain", "--max-c", "60", "--N", "5", "--eps", "1", "--C", "10",
                 "--workers", str(workers)])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and "InternalRadicalMismatch" in err


def _phi(k, c, dd):
    """Phi_k(c, dd): c - dd and c + dd at k = 1 and 2, else _Radicals._phi, Horner on
    the table, at x = c + dd and y = c - dd, whose Phi_k(2c, 2dd) is 2**totient(k) times
    Phi_k(c, dd), so that c and dd need not have one parity."""
    if k <= 2:
        return c - dd if k == 1 else c + dd
    return harness._Radicals(ABCSolution(-(c + dd), dd - c, 2 * c))._phi(k) >> totient(k)


def test_cyclotomic_values_multiply_to_the_power_difference():
    # the one table of Phi_k; the oracle is the product over the divisors, c**k - dd**k
    for k in range(1, DEFAULT_EXPONENT_CAP + 1):
        divisors = [j for j in range(1, k + 1) if k % j == 0]
        for c in range(2, 31):
            for dd in range(1, c):
                if math.gcd(c, dd) == 1:
                    got = math.prod(_phi(j, c, dd) for j in divisors)
                    assert got == c**k - dd**k, (k, c, dd)


def test_piece_values_wrap_nowhere_at_the_lanes_limit():
    # c = 27,554 is the largest c with 16 * c**4 < 2**63, 16 the sum of the tables
    # of k = 5, 8, 10 and 12: every int64 t_k of the row is the Python-int value
    c_arr, s_arr, _ = _block_grid(27_554, 27_554)
    c_arr, s_arr = c_arr.copy(), s_arr.copy()
    for k in (5, 8, 10, 12):
        assert sum(harness._phi_table(k)) == 16
        got = harness._piece_values(k, c_arr - s_arr, s_arr).tolist()
        for (c, s), t in zip(zip(c_arr.tolist(), s_arr.tolist()), got):
            v = harness._Radicals(ABCSolution(s - c, -s, c))._phi(k)
            assert t == numtheory._strip(v, math.gcd(v, 2 * k)), (k, c, s)


def _canonical(summary: SuiteSummary) -> str:
    from congabc.cli import _canon, _summary_record
    return _canon(_summary_record(summary))


_WORKSPACE_SUITES = {
    "lemma1": lambda corpus, workers: verify_lemma1(
        corpus, [2, 4, 6, 8], [0.1, 1.0], tolerance=-6.0, max_counterexamples=10**6,
        workers=workers),
    "chain": lambda corpus, workers: verify_reduction_chain(corpus, 7, 1.0, 10.0,
                                                            workers=workers),
    # a plain spec is counted, never read (test_lemma2_counts_a_clean_corpus_...):
    # a congruence spec's count reads its grid from the workspace
    "lemma2": lambda corpus, workers: verify_lemma2(replace(corpus, congruence=13), 13,
                                                    workers=workers),
    "identities": lambda corpus, workers: verify_proof_identities(
        corpus, [2, 4, 6, 8], radical_scale=40, workers=workers),
}


def test_a_piece_that_two_n_take_is_computed_once_per_block(monkeypatch):
    # t_4 serves n = 8 and n = 12: once per block of c <= 1000 (three blocks), in a
    # buffer of its own, and the summary is the one computed twice per block gave
    # (its canonical JSON's sha256); lemma1 at n 2, 4, where no piece repeats,
    # allocates no such buffer
    import hashlib

    real, calls = harness._piece_values, collections.Counter()

    def values(k, x, y):
        calls[k] += 1
        return real(k, x, y)

    monkeypatch.setattr(harness, "_piece_values", values)
    workspace = harness._Workspace()
    monkeypatch.setattr(harness, "_WORKSPACE", workspace)
    spec = CorpusSpec(max_c=1000)
    assert verify_lemma1(spec, [2, 4], [0.1, 1.0]).ok
    assert not any(name.startswith("logt") for name in workspace._raw)
    calls.clear()
    s = verify_lemma1(spec, [8, 12], [1.0])
    assert len(harness._blocks(spec, harness._BLOCK_SLOTS)) == 3
    assert calls == {4: 3, 8: 3, 3: 3, 6: 3, 12: 3}
    assert [name for name in workspace._raw if name.startswith("logt")] == ["logt4"]
    assert hashlib.sha256(_canonical(s).encode()).hexdigest() == (
        "17138579e02f4207a973308fc747e0b05673a3709830bee4344e0f85756c86fb")


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("suite", sorted(_WORKSPACE_SUITES))
def test_workspace_reuse_leaks_nothing_into_a_later_run(monkeypatch, suite, workers):
    # each suite over a larger corpus and then a smaller one in one process, in
    # small blocks, so the last block is shorter than the buffers: the smaller
    # run's summary is that of a run on a fresh workspace, byte for byte.  In
    # between every buffer is filled with 0xff bytes (NaN as float64, -1 as
    # int64), so a read past a block's length or of a value no kernel wrote
    # shows; forked workers start from those buffers
    run = _WORKSPACE_SUITES[suite]
    _small_blocks(monkeypatch, 700)
    small, large = CorpusSpec(max_c=90), CorpusSpec(max_c=160)
    assert len(harness._blocks(small, harness._BLOCK_SLOTS)) > 2
    monkeypatch.setattr(harness, "_WORKSPACE", harness._Workspace())
    want = _canonical(run(small, workers))
    workspace = harness._Workspace()
    monkeypatch.setattr(harness, "_WORKSPACE", workspace)
    run(large, 1)
    assert workspace._raw
    for raw in workspace._raw.values():
        raw.fill(0xFF)
    assert _canonical(run(small, workers)) == want


def test_a_listed_corpus_never_touches_the_workspace(monkeypatch):
    # list blocks (the scalar lane and the list paths of lemma2 and the
    # identities) allocate no workspace buffer
    listed = list(CorpusSpec(max_c=40))
    workspace = harness._Workspace()
    monkeypatch.setattr(harness, "_WORKSPACE", workspace)
    assert verify_lemma1(listed, [2, 4, 8], [0.1, 1.0]).ok
    assert verify_reduction_chain(listed, 7, 1.0, 10.0).ok
    assert verify_lemma2(listed, 13).ok
    assert verify_proof_identities(listed, [2, 4]).ok
    assert workspace._raw == {}

def _formula_logs(aa: ABCSolution, n: int, bound: bool) -> tuple:
    """The four logs of aa's row at n by the float formula, one float operation at
    a time: np.log of each integer's float64, summed in the judge's order.  With
    bound each piece is t_k, and _BOUND_MARGIN is added."""
    def log(v):
        return float(np.log(float(v)))

    rads, ln2 = harness._Radicals(aa), math.log(2.0)
    even = aa.c % 2 == 0
    logc = log(aa.c)
    lnrad_in = (log(radical(-aa.a)) + log(radical(-aa.b))) + log(radical(aa.c))
    lnrad_img = lnrad_in + log(radical(aa.b - aa.a)) - (ln2 if even else 0.0)
    for k in harness._piece_ks(n):
        lnrad_img += log(rads.piece(k, bound))
    if bound:
        lnrad_img += harness._BOUND_MARGIN
    return logc, lnrad_in, logc * n - (n * ln2 if even else 0.0), lnrad_img


# (-401, -8, 409) at n = 16: Phi_16(409, 393) = 409**8 + 393**8 is 2 * 25409 *
# 5602001 * 4749436529, whose cofactor after the gcd with the primes below 1000 is
# above 2**63; so radical trial divides it only up to 10**5 and gives
# 26606348184894529 to rho, which does not split it in one step.  Its other numbers
# need no rho.  Its exact slacks are above 20.7; U is 289 times the image radical
# (17**3 | Phi_8), so its bounded slack is 14.94, below the 17.76 of (-2, -1, 3),
# the exact extremal
_T16 = make_solution(-401, -8, 409)


@pytest.mark.parametrize("tolerance, counts", [(1e-9, (6, 6, 0)), (-15.0, (6, 4, 2))])
def test_a_bounded_row_whose_piece_resists_rho(monkeypatch, tolerance, counts):
    # at n = 16, so bounded: a check whose bounded slack clears the band
    # passes; a suspect that cannot be made exact is inconclusive, one example
    # for the row; the extremal that cannot be is reported with its bounded
    # slack, a lower bound, from the float formula, and a note naming the failure
    monkeypatch.setenv("CONGABC_FACTOR_BUDGET", "1")
    x = make_solution(-1, -2, 3)
    s = verify_lemma1([x, _T16, x], [16], [0.5, 1.0], tolerance=tolerance)
    assert (s.checks, s.passes, s.inconclusives, s.failures) == (*counts, 0)
    k = lemma_constants(16, 0.5)
    logs = _formula_logs(_T16, 16, bound=True)
    ((lhs, rhs),) = harness._lemma1_sides(k, *harness._merits(k, *logs), None)
    v = s.extremal
    assert (v.triple, v.params, v.lhs, v.rhs, v.slack) == (_T16, {"n": 16, "eps": 0.5}, lhs,
                                                           rhs, lhs - rhs)
    assert v.note.startswith("slack is a lower bound") and "26606348184894529" in v.note
    assert (v.passed, v.inconclusive) == ((True, False) if tolerance > 0 else (False, True))
    assert [(e.triple, e.params) for e in s.inconclusive_examples] == (
        [] if tolerance > 0 else [(_T16, {"n": 16})])
    monkeypatch.delenv("CONGABC_FACTOR_BUDGET")
    exact = verify_lemma1([x, _T16, x], [16], [0.5, 1.0], tolerance=tolerance)
    assert exact.ok and exact.extremal.triple == x
    assert v.slack < verify_lemma1([_T16], [16], [0.5]).min_slack


def test_logs_take_math_log_from_the_float_limit():
    # the least integer that no float64 holds, and one below it, which rounds to
    # the largest float64
    limit = harness._FLOAT_LIMIT
    assert float(limit - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(limit)
    got = harness._logs([3, limit - 1, limit, 2**4000]).tolist()
    assert got == [np.log(3.0), np.log(sys.float_info.max), math.log(limit), math.log(2**4000)]


def test_a_piece_past_the_float_range_is_judged(monkeypatch):
    # (-2**64, -1, 2**64 + 1) at n = 32: its piece t_32 is beyond the float64
    # range, so its log is math.log's; the row is bounded, its Phi_32 resists
    # rho, and so it is the extremal with its bounded slack, a lower bound
    monkeypatch.setenv("CONGABC_FACTOR_BUDGET", "1000")
    big = make_solution(-(2**64), -1, 2**64 + 1)
    assert harness._Radicals(big).piece(32, True) >= harness._FLOAT_LIMIT
    s = verify_lemma1([make_solution(-2, -1, 3), big], [32], [1.0])
    assert (s.checks, s.passes, s.inconclusives) == (2, 2, 0)
    v = s.extremal
    assert v.triple == big and math.isfinite(v.slack) and (v.passed, v.inconclusive) == (True, False)
    assert v.note == (
        "slack is a lower bound, from a multiple of the image radical: no factor of "
        f"{2**128 + 1} found within 1000 rho steps; raise the budget by setting "
        "CONGABC_FACTOR_BUDGET")
    assert v.slack == pytest.approx(26.4056, abs=1e-4)
