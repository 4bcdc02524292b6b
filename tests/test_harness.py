"""Corpus harness tests: enumeration, suites, lanes, determinism."""

import math
import subprocess
import sys
from dataclasses import replace

import pytest

from congabc import harness
from congabc.abc_core import ABCSolution, make_solution, merit, radical_abc
from congabc.harness import (
    CorpusSpec,
    HypothesisViolated,
    SuiteSummary,
    _block_grid,
    _lograd_odd_sum_squares,
    enumerate_solutions,
    filter_congruence,
    random_solutions,
    search_quality,
    verify_lemma1,
    verify_lemma2,
    verify_proof_identities,
    verify_reduction_chain,
)
from congabc.numtheory import FactorizationFailure, radical, totient, valuation2
from congabc.theta import (
    DEFAULT_EXPONENT_CAP,
    ExponentCapExceeded,
    NonpositiveEpsilon,
    OddN,
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
    assert list(enumerate_solutions(3)) == [ABCSolution(-2, -1, 3)]
    assert list(enumerate_solutions(4)) == [
        ABCSolution(-2, -1, 3),
        ABCSolution(-3, -1, 4),
    ]
    assert len(list(enumerate_solutions(10))) == 15


def test_enumerate_against_brute_force_oracle():
    oracle = brute_force_counts(200)
    got: dict[int, int] = {c: 0 for c in oracle}
    for aa in enumerate_solutions(200):
        got[aa.c] += 1
    assert got == oracle
    # cumulative counts then agree for every max_c <= 200
    total = 0
    stream = list(enumerate_solutions(200))
    for max_c in range(3, 201):
        total += oracle[max_c]
        assert sum(1 for aa in stream if aa.c <= max_c) == total


def test_enumerate_stream_is_ordered_valid_and_unique():
    seen = set()
    prev = None
    for aa in enumerate_solutions(120):
        assert aa.a <= aa.b < 0 < aa.c <= 120
        assert aa.a + aa.b + aa.c == 0
        assert math.gcd(aa.a, aa.b) == 1
        key = (aa.c, -aa.b)
        if prev is not None:
            assert key > prev
        prev = key
        seen.add(aa)
    assert len(seen) == len(list(enumerate_solutions(120)))


def test_enumerate_rejects_small_bound():
    with pytest.raises(ValueError):
        list(enumerate_solutions(2))


def test_filter_congruence_examples():
    stream = [make_solution(-1, -2, 3), make_solution(-1, -3, 4)]
    assert list(filter_congruence(stream, 4)) == [ABCSolution(-3, -1, 4)]
    corpus = list(enumerate_solutions(100))
    assert list(filter_congruence(corpus, 1)) == corpus
    assert list(filter_congruence(corpus, 2)) == corpus  # an entry is always even
    for aa in filter_congruence(corpus, 6):
        assert (aa.a * aa.b * aa.c) % 6 == 0
    with pytest.raises(ValueError):
        list(filter_congruence(corpus, 0))


def test_corpus_spec_matches_enumeration():
    spec = CorpusSpec(max_c=150, congruence=5)
    from_spec = list(spec)
    oracle = [aa for aa in enumerate_solutions(150) if (aa.a * aa.b * aa.c) % 5 == 0]
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


def test_random_solutions_deterministic_and_valid():
    one = random_solutions(500, 40, seed=7)
    two = random_solutions(500, 40, seed=7)
    other = random_solutions(500, 40, seed=8)
    assert one == two
    assert one != other
    assert len(one) == 40
    for aa in one:
        assert aa.a <= aa.b < 0 < aa.c <= 500
        assert math.gcd(aa.a, aa.b) == 1


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


def test_lemma1_lane_agreement():
    spec = CorpusSpec(max_c=300)
    fast = verify_lemma1(spec, [2, 4], [0.5, 1.0])
    slow = verify_lemma1(list(spec), [2, 4], [0.5, 1.0])
    assert (fast.checks, fast.passes, fast.failures) == (
        slow.checks, slow.passes, slow.failures,
    )
    assert fast.min_slack == pytest.approx(slow.min_slack, abs=1e-9)
    assert fast.extremal.triple == slow.extremal.triple
    assert fast.extremal.params == slow.extremal.params


@pytest.mark.parametrize("N, checks", [(7, 36_576), (16, 12_260), (60, 18_296)])
def test_lemma1_lane_agreement_congruence(N, checks):
    spec = CorpusSpec(max_c=400, congruence=N)
    fast = verify_lemma1(spec, [2, 4], [0.5, 1.0])
    slow = verify_lemma1(list(spec), [2, 4], [0.5, 1.0])
    assert fast.checks == slow.checks == checks
    assert (fast.passes, fast.failures) == (slow.passes, slow.failures)
    assert fast.min_slack == pytest.approx(slow.min_slack, abs=1e-9)
    assert fast.extremal.triple == slow.extremal.triple
    assert fast.extremal.params == slow.extremal.params


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


@pytest.mark.parametrize("c_lo, c_hi, congruence, max_c", [
    (1500, 1600, 1, 10_000),  # a block that does not start at c = 3
    (3, 400, 7, 400),         # a congruence-restricted block
])
def test_sum_squares_root_sieve_matches_factorization(c_lo, c_hi, congruence, max_c):
    c_arr, s_arr, grid = _block_grid(c_lo, c_hi, congruence)
    got = _lograd_odd_sum_squares(c_arr - s_arr, s_arr, grid, max_c)
    pairs = list(zip(c_arr.tolist(), s_arr.tolist()))
    assert len(got) == len(pairs) > 0
    if congruence == 7:
        assert (8, 1) in pairs  # 7**2 + 1**2 = 2 * 5**2
        assert any(c == 65 for c, _ in pairs)  # 5 | 65 and 13 | 65
    for (c, s), value in zip(pairs, got.tolist()):
        t = (c - s) ** 2 + s**2
        assert value == pytest.approx(math.log(radical(t >> valuation2(t))), abs=1e-12)


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


def test_lemma1_wide_grid_clean():
    # full exponent and epsilon grids; higher n goes through the
    # factorization lane, so keep the corpus modest
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


@pytest.mark.parametrize("N, eps", [(3, 1.0), (5, 0.5), (8, 1.0), (12, 2.0)])
def test_chain_lane_agreement(monkeypatch, N, eps):
    # totient(N) is 2 or 4: a spec corpus takes the sieve lane, the same
    # solutions as a list the scalar lane
    _small_blocks(monkeypatch, 1000)
    spec = CorpusSpec(max_c=100)
    listed = list(spec)
    assert len(harness._blocks(spec, harness._k_vector)[0]) > 2
    assert len(harness._blocks(listed, harness._k_scalar)[0]) > 1
    for workers in (1, 3):
        fast = verify_reduction_chain(spec, N, eps, 10.0, workers=workers)
        slow = verify_reduction_chain(listed, N, eps, 10.0, workers=workers)
        assert fast.checks == slow.checks == fast.passes == slow.passes == 2 * len(spec)
        assert fast.failures == slow.failures == fast.inconclusives == slow.inconclusives == 0
        assert fast.min_slack == pytest.approx(slow.min_slack, abs=1e-9)
        assert fast.extremal.triple == slow.extremal.triple
        assert fast.extremal.params == slow.extremal.params
    # a tolerance of -20 fails most input-merit checks, and at N = 3, 5 and
    # 8 some derived-bound checks too
    kw = dict(tolerance=-20.0, max_counterexamples=10**6)
    for workers in (1, 3):
        fast = verify_reduction_chain(spec, N, eps, 10.0, workers=workers, **kw)
        slow = verify_reduction_chain(listed, N, eps, 10.0, workers=workers, **kw)
        assert fast.failures == slow.failures == len(fast.counterexamples) > 0
        assert (fast.checks, fast.passes) == (slow.checks, slow.passes)
        assert {(v.triple, v.params["check"]) for v in fast.counterexamples} == {
            (v.triple, v.params["check"]) for v in slow.counterexamples
        }
        checks = {v.params["check"] for v in fast.counterexamples}
        assert len(checks) == (1 if N == 12 else 2)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("N, congruence, assumed_constant", [(5, 5, -0.5), (7, 1, 0.7)])
def test_chain_names_the_first_violated_hypothesis(monkeypatch, workers, N, congruence,
                                                   assumed_constant):
    # image merits above the assumed constant in several blocks; the first
    # in corpus order, neither its block's first solution nor its largest
    # merit, is named on the sieve lane (spec, N = 5) and the scalar lane
    # (list, and spec at N = 7)
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
}


@pytest.mark.parametrize("kind", ["list", "spec"])
@pytest.mark.parametrize("suite", list(_SUITES))
def test_suites_agree_across_block_layouts(monkeypatch, suite, kind):
    # in one block by default; cut into several, spread over workers 1 and 3,
    # every suite gives the same summary, and the corpus its size and hash
    spec = CorpusSpec(max_c=60)
    corpus = spec if kind == "spec" else list(spec)
    head = harness._spec_head(spec) if kind == "spec" else harness._list_head(corpus)
    want = (len(spec), harness._corpus_hash(head, len(spec)))
    whole = _SUITES[suite](corpus)
    assert whole.ok == (suite in ("lemma1", "lemma2"))
    assert len(harness._blocks(corpus, harness._k_scalar)[0]) == 1
    _small_blocks(monkeypatch, 200)
    assert len(harness._blocks(corpus, harness._k_scalar)[0]) > 1
    for workers in (1, 3):
        s = _SUITES[suite](corpus, workers=workers)
        assert _same_summary(s, whole)
        assert (s.corpus_size, s.corpus_hash) == want


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


def _verdict_keys(verdicts):
    return {(v.triple, v.params["n"], v.params["eps"]) for v in verdicts}


def _same_summary(one: SuiteSummary, other: SuiteSummary) -> bool:
    return replace(one, wall_time=0.0, workers=0) == replace(other, wall_time=0.0, workers=0)


def test_lemma1_failures_agree_across_lanes():
    # the corpus's smallest slack is 2.54, so a tolerance of -5 demands a
    # margin of 5 that most checks miss
    spec = CorpusSpec(max_c=60)
    kw = dict(tolerance=-5.0, max_counterexamples=1000)
    fast = verify_lemma1(spec, [2, 4], [0.5, 1.0], **kw)
    slow = verify_lemma1(list(spec), [2, 4], [0.5, 1.0], **kw)
    assert fast.checks == slow.checks == 4 * len(spec)
    assert fast.failures == slow.failures == len(fast.counterexamples) == 777
    assert (fast.passes, fast.inconclusives) == (slow.passes, slow.inconclusives)
    assert _verdict_keys(fast.counterexamples) == _verdict_keys(slow.counterexamples)
    # one block, so both lanes list them in the same order too
    assert [(v.triple, v.params) for v in fast.counterexamples] == [
        (v.triple, v.params) for v in slow.counterexamples
    ]
    assert all(not v.passed and v.slack < 5.0 for v in fast.counterexamples + slow.counterexamples)
    assert not fast.ok and not slow.ok
    for corpus in (spec, list(spec)):
        capped = verify_lemma1(corpus, [2, 4], [0.5, 1.0], tolerance=-5.0)
        assert capped.failures == 777
        assert len(capped.counterexamples) == 25
    three = verify_lemma1(spec, [2, 4], [0.5, 1.0], workers=3, **kw)
    assert _same_summary(fast, three)


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


_BIG_C = 1000003 * 1000033  # two primes, out of reach of a one-step rho


@pytest.mark.parametrize("suite, counts, params", [
    (lambda corpus, **kw: verify_lemma1(corpus, [2, 4], [0.5, 1.0], **kw),
     (12, 8, 4), {}),
    (lambda corpus, **kw: verify_reduction_chain(corpus, 3, 1.0, 10.0, **kw),
     (6, 4, 2), {"N": 3, "eps": 1.0}),
    (lambda corpus, **kw: verify_proof_identities(corpus, [2], **kw),
     (9, 8, 1), {"n": 2, "check": "radical-log-bound"}),
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
        (big, params, True)
    ]
    assert "rho steps" in s.inconclusive_examples[0].note
    assert _same_summary(s, suite(corpus, workers=3))


# ---------------------------------------------------------------------------
# image radicals from the cyclotomic pieces, against the full image


def _assert_pieces_match_full_image(aa, n_grid):
    rads = harness._Radicals(aa)
    assert rads.rad_in == radical_abc(aa)
    for n in n_grid:
        img = theta(aa, n).output
        c_img, rad_img = rads.image(n)
        assert (c_img, rad_img) == (img.c, radical_abc(img)), (aa, n)
        assert math.log(c_img) == math.log(img.c)


def test_image_radicals_match_full_image_exhaustive():
    # every solution with c <= 200, odd and even c
    for aa in enumerate_solutions(200):
        _assert_pieces_match_full_image(aa, (2, 4, 6, 8, 12))


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
    sample = random_solutions(10**digits, 6, seed=digits)
    compared = 0
    for aa in sample:
        try:
            _assert_pieces_match_full_image(aa, (2, 4, 6))
        except FactorizationFailure:
            continue
        compared += 1
    assert compared >= _COMPARED[digits]


def _drop_last_piece(monkeypatch):
    real = harness._cyclotomic_pieces
    monkeypatch.setattr(harness, "_cyclotomic_pieces", lambda c, dd, n: real(c, dd, n)[:-1])


@pytest.mark.parametrize("corpus, n_grid", [
    ([make_solution(-1, -2, 3), make_solution(-1, -4, 5)], [2, 4]),
    (CorpusSpec(max_c=30), [6]),
])
def test_lemma1_audit_catches_a_dropped_piece(monkeypatch, corpus, n_grid):
    _drop_last_piece(monkeypatch)
    with pytest.raises(harness.InternalRadicalMismatch):
        verify_lemma1(corpus, n_grid, [1.0])


@pytest.mark.parametrize("workers", [1, 3])
def test_chain_audit_catches_a_dropped_piece(monkeypatch, workers):
    _small_blocks(monkeypatch, 200)
    assert len(harness._blocks(CorpusSpec(max_c=60), harness._k_scalar)[0]) > 3
    _drop_last_piece(monkeypatch)
    with pytest.raises(harness.InternalRadicalMismatch):
        verify_reduction_chain(CorpusSpec(max_c=60), 7, 1.0, 10.0, workers=workers)


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
