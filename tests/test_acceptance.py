"""Acceptance gate: one test per top-level criterion.

Each test prints a single ACCEPTANCE PASS/FAIL line (bypassing
capture) and then asserts, so the gate is auditable from the test log
alone.  Frozen numbers were re-derived from the closed forms with
mpmath at 50 digits and cross-checked against an independent
factorization oracle before being written down here.
"""

import math

import pytest

from congabc.abc_core import make_solution, merit
from congabc.cli import main
from congabc.harness import (
    CorpusSpec,
    verify_lemma1,
    verify_lemma2,
    verify_proof_identities,
)
from congabc.theta import derived_full_bound, lemma_constants, theta


def announce(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}: {label}: {detail}")


def test_acceptance_lemma1_exhaustive(capsys):
    s = verify_lemma1(CorpusSpec(max_c=10_000), [2, 4], [0.1, 1.0], tolerance=1e-9)
    ok = s.failures == 0 and s.inconclusives == 0 and s.wall_time < 600
    announce(
        capsys, ok, "lemma1 exhaustive c<=10^4, n in {2,4}, eps in {0.1,1}",
        f"{s.corpus_size} triples, {s.checks} checks, {s.failures} counterexamples, "
        f"{s.inconclusives} inconclusive, min slack {s.min_slack:.6f} at "
        f"{s.extremal.triple}, {s.wall_time:.1f}s",
    )
    assert s.failures == 0
    assert s.inconclusives == 0
    assert s.checks == 4 * s.corpus_size
    assert s.wall_time < 600


def test_acceptance_lemma2_all_moduli(capsys):
    spec = CorpusSpec(max_c=1_000)
    total_checks = 0
    failures = 0
    wall = 0.0
    for N in range(3, 51):
        s = verify_lemma2(spec, N)
        total_checks += s.checks
        failures += s.failures + s.inconclusives
        wall += s.wall_time
    ok = failures == 0 and wall < 300
    announce(
        capsys, ok, "lemma2 exact divisibility c<=10^3, N in 3..50",
        f"{total_checks} checks, {failures} counterexamples, {wall:.1f}s",
    )
    assert failures == 0
    assert wall < 300


def test_acceptance_exact_identities(capsys):
    # radical_scale=0 restricts the suite to the two exact integer
    # checks, which is precisely what this criterion covers
    s = verify_proof_identities(CorpusSpec(max_c=1_000), [2, 4, 6, 8], radical_scale=0)
    ok = s.failures == 0 and s.inconclusives == 0
    announce(
        capsys, ok, "exact power-difference identity and quotient bound, "
        "c<=10^3, n in {2,4,6,8}",
        f"{s.checks} exact checks, {s.failures} failures",
    )
    assert s.failures == 0
    assert s.inconclusives == 0
    assert s.checks == 2 * 4 * s.corpus_size


def test_acceptance_regression_values(capsys):
    aa = make_solution(-1, -2, 3)
    raws = []
    for _ in range(3):
        r = theta(aa, 2)
        raws.append(r.raw)
        aa = r.output
    chain_ok = raws == [(-1, -8, 9), (-49, -32, 81), (-289, -6272, 6561)]

    fp = theta(make_solution(-1, -3, 4), 2)
    fixed_ok = fp.raw == (-1, -3, 4) and fp.output == make_solution(-1, -3, 4)

    lc = lemma_constants(2, 1.0)
    # closed form -4*ln4/3 - 2*ln2, re-derived at 50 digits
    c_off_oracle = -3.2346868426130781
    const_ok = (
        lc.c_lin == 2.0 / 3.0
        and lc.eps_out == 1.0 / 3.0
        and abs(lc.c_off - c_off_oracle) < 1e-6
    )

    bound = derived_full_bound(3, 1.0, 10.0)
    bound_ok = abs(bound - 19.852) < 1e-3

    ok = chain_ok and fixed_ok and const_ok and bound_ok
    announce(
        capsys, ok, "regression values",
        f"theta2 chain {raws}, fixed point {fp.raw}, c_lin={lc.c_lin}, "
        f"c_off={lc.c_off:.10f}, eps_out={lc.eps_out}, bound(3,1,10)={bound:.6f}",
    )
    assert chain_ok
    assert fixed_ok
    assert const_ok
    assert abs(lc.c_off - c_off_oracle) < 1e-12
    assert bound_ok
    assert abs(bound - 19.852030263919617) < 1e-12


def test_acceptance_quality_oracle(capsys):
    rep = merit(make_solution(-2, -6436341, 6436343), 0.0)
    ok = rep.rad_abc == 15042 and abs(rep.quality - 1.6299) < 5e-4
    announce(
        capsys, ok, "quality oracle (-2, -6436341, 6436343)",
        f"rad={rep.rad_abc}, quality={rep.quality:.7f}",
    )
    assert rep.rad_abc == 15042
    assert rep.quality == pytest.approx(1.6299, abs=5e-4)


def test_acceptance_enumeration_oracle(capsys):
    def brute(max_c):
        out = []
        for c in range(3, max_c + 1):
            for s in range(1, c):
                a, b = s - c, -s
                if a >= b:
                    continue
                if math.gcd(-b, c) != 1 or math.gcd(-a, c) != 1 or math.gcd(-a, -b) != 1:
                    continue
                out.append((a, b, c))
        return out

    fifteen = list(CorpusSpec(10))
    exact_ok = [(x.a, x.b, x.c) for x in fifteen] == brute(10) and len(fifteen) == 15

    stream = list(CorpusSpec(200))
    counts_ok = all(
        sum(1 for x in stream if x.c <= m) == len(brute(m)) for m in range(3, 201)
    )
    ok = exact_ok and counts_ok
    announce(
        capsys, ok, "enumeration oracle",
        f"{len(fifteen)} solutions at max_c=10, counts match brute force "
        f"for every max_c <= 200",
    )
    assert exact_ok
    assert counts_ok


def test_acceptance_determinism_byte_identical(capsys):
    suites = [
        ["verify", "lemma1", "--max-c", "500", "--n", "2,4", "--eps", "0.1,1"],
        ["verify", "lemma2", "--max-c", "300", "--N", "16"],
        ["verify", "identities", "--max-c", "200", "--n", "2,4"],
        ["verify", "chain", "--max-c", "200", "--N", "3", "--eps", "1", "--C", "10"],
    ]
    all_ok = True
    for argv in suites:
        outs = []
        for workers in ("1", "3"):
            code = main(argv + ["--format", "json", "--workers", workers])
            outs.append(capsys.readouterr().out)
            assert code == 0
        all_ok = all_ok and outs[0] == outs[1]
    announce(
        capsys, all_ok, "determinism",
        "JSON summaries byte-identical for workers 1 vs 3 across all four suites",
    )
    assert all_ok
