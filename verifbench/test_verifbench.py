"""Tests of the benchmark itself, on the smoke sizes (about half a minute).

    python3 -m pytest verifbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import congabc  # noqa: E402
import run  # noqa: E402
import trace_layers  # noqa: E402
import worker  # noqa: E402  (reads --spawned-at only when run as a script)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "verifbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_all_workloads_end_to_end():
    out = result(bench("--workload", "all", "--smoke", "--seconds", "1", "--seed", "3"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3 * run.MIN_REPS
    assert set(out["metrics"]) == {f"{w}.{m}" for w in run.WORKLOADS for m, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_counts_repeat_and_match_expectations():
    layers = {}
    for workload in run.WORKLOADS:
        first = result(bench("--workload", workload, "--smoke", "--seconds", "1", "--trace", "1"))
        assert first["correct"], first
        assert list(first["metrics"]) == [name for name, _ in run.PER_LAYER]
        layers[workload] = {k: m["value"] for k, m in first["metrics"].items()}
    assert layers["sieve"]["numtheory.factorize.calls"] == 0
    assert layers["sampled"]["numtheory.factorize.calls_ge2p64"] > 0
    assert all(v["harness.recheck.calls"] == 0 for v in layers.values())
    again = result(bench("--workload", "audit", "--smoke", "--seconds", "1", "--trace", "1"))
    counts = {k for k, unit in run.PER_LAYER if unit == "count"}
    assert {k: m["value"] for k, m in again["metrics"].items() if k in counts} == {
        k: v for k, v in layers["audit"].items() if k in counts}


def test_recheck_spans_are_counted():
    triples = worker.sample_triples(7, 0, 3, 1000)
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        summary = congabc.verify_lemma1(triples, (2,), (1.0,), recheck_band=1e9)
    finally:
        tracer.uninstall()
    counts = tracer.report()["counts"]
    assert counts["harness.recheck.calls"] == summary.checks == counts["harness.checks"] == 3
    assert congabc.harness.radical is congabc.numtheory.radical  # originals restored


def test_times_are_reported_at_the_reference_speed():
    rep = {"verdict_s": 2.0, "host_scale": 0.5, "setup_s": 0.4, "rss_mb": 40.0,
           "ops": [{"checks": 100}]}
    setup = {"setup_s": 0.3, "host_scale": 2.0}
    metrics = run._end_to_end_metrics([rep], [rep, setup, setup])
    assert {k: m["value"] for k, m in metrics.items()} == {
        "verdict_s": 1.0, "checks_per_s": 100.0, "setup_s": 0.6, "peak_rss_mb": 40.0}


def test_judge_flags_each_kind_of_wrong_output():
    ref = run.load_reference(smoke=True)["audit"]
    good = [{"name": n, "error": None, "result": "pass", "exit_code": 0, "inconclusives": 0,
             "checks": c, "sha256": ref["sha256"][n]} for n, c in ref["checks"].items()]
    assert run.judge("audit", 5, good, ref) == []
    for change in ({"result": "counterexample", "exit_code": 1}, {"inconclusives": 2},
                   {"checks": 1}, {"sha256": "0" * 64}, {"error": "ValueError: x"}):
        ops = [dict(op) for op in good]
        ops[1].update(change)
        assert len(run.judge("audit", 5, ops, ref)) == 1, change
    assert len(run.judge("audit", 5, good[:-1], ref)) == 1
    # the sampled inputs change with the seed, so only the default seed has fixed bytes
    sampled = run.load_reference(smoke=True)["sampled"]
    op = {"name": "lemma1-list", "error": None, "result": "pass", "exit_code": None,
          "inconclusives": 0, "checks": sampled["checks"]["lemma1-list"], "sha256": "0" * 64}
    assert run.judge("sampled", 5, [op], sampled) == []
    assert len(run.judge("sampled", run.DEFAULT_SEED, [op], sampled)) == 1
    # each batch of the default seed has its own bytes, recorded for the first batches
    recorded = sampled["sha256"]["lemma1-list"]
    assert len(set(recorded)) == len(recorded) > 1
    assert run.judge("sampled", run.DEFAULT_SEED, [dict(op, sha256=recorded[1])], sampled, 1) == []
    assert len(run.judge("sampled", run.DEFAULT_SEED, [dict(op, sha256=recorded[1])], sampled)) == 1
    assert run.judge("sampled", run.DEFAULT_SEED, [op], sampled, len(recorded)) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "verifbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sieve", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
