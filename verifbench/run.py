"""Time-to-verdict benchmark of congabc, end to end and per layer.

    python3 verifbench/run.py --workload {sieve,sampled,audit,all} \\
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run it from anywhere inside a checkout of the repository; it needs only
`src/` (pure Python, nothing to build) and the interpreter it runs under.
Every repetition of a workload runs in a fresh interpreter (worker.py)
with workers=1.  The run keeps starting repetitions until --seconds have
passed (at least MIN_REPS of them), checks every operation's verdict
against reference.json, and reports medians.  On `sampled` each
repetition verifies its own seeded batch of triples.

The speed of a shared host drifts by a third within seconds to minutes,
and a fixed pure-Python loop, calib(), slows with the program.  So this
process times that loop before and after every interpreter it starts,
and reports each time at the reference speed: multiplied by REF_CALIB_S
over the mean of the two loop times.  The wall times are kept in the
record and the stderr table.

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced
and untraced repetitions and reports the per-layer metrics, and writes
the spans to verifbench/out/.  A human-readable table goes to stderr;
the last stdout line is the JSON result.  See README.md for what each
workload and metric is for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sieve", "sampled", "audit")
DEFAULT_SEED = 0
# exhaustive corpora: their inputs, so their output bytes, do not depend on the seed
SEED_FREE = {"sieve", "audit"}
# import-only interpreters after each repetition, so the setup_s samples
# are spread over the whole run like the verdict_s ones
SETUPS_PER_REP = 1
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
CALIB_LOOPS = 1_000_000
# median time of calib() on the reference host: a 2-core Intel Xeon
# virtual machine at 2.1 GHz with Python 3.11.7
REF_CALIB_S = 0.09

END_TO_END = (("verdict_s", "s"), ("checks_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("numtheory.factorize.calls", "count"),
    ("numtheory.factorize.calls_ge2p64", "count"),
    ("numtheory.factorize.failures", "count"),
    ("numtheory.is_probable_prime.calls", "count"),
    ("numtheory.is_probable_prime.calls_ge2p64", "count"),
    ("numtheory.radical.calls", "count"),
    ("theta.theta.calls", "count"),
    ("theta.lemma_constants.calls", "count"),
    ("abc_core.merit.calls", "count"),
    ("abc_core.make_solution.calls", "count"),
    ("harness.checks", "count"),
    ("harness.recheck.calls", "count"),
    ("harness.recheck.per_check", "1/check"),
    ("cli.json_bytes", "B"),
    ("harness.self_s", "s"),
    ("theta.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed verdict)."""


def calib() -> float:
    """Seconds for a fixed pure-Python loop that never touches congabc:
    the speed of the host at this moment."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIB_LOOPS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def spawn(workload: str, seed: int, trace: int, smoke: bool, batch: int = 0) -> dict:
    """One fresh interpreter running worker.py; returns its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same dict layouts in every repetition
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{workload} repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def load_reference(smoke: bool) -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["smoke" if smoke else "full"]


def judge(workload: str, seed: int, ops: list, ref: dict, batch: int = 0) -> list[str]:
    """One message per failed operation.

    An operation fails if it raised, if its verdict is not pass, if it
    has inconclusives, if its check count differs from the reference,
    or, where the output is fixed (seed-free workloads and the default
    seed), if the sha256 of its canonical JSON differs.  On `sampled`
    the reference holds one sha256 per batch of the default seed, for
    the first batches only.
    """
    check_sha = workload in SEED_FREE or seed == DEFAULT_SEED
    if [op["name"] for op in ops] != list(ref["checks"]):
        return [f"{workload}: ran {[op['name'] for op in ops]}, expected {list(ref['checks'])}"]
    bad = []
    for op in ops:
        name = op["name"]
        want = _reference_sha(ref["sha256"][name], batch) if check_sha else None
        if op["error"] is not None:
            why = op["error"]
        elif op["result"] != "pass" or op["exit_code"] not in (0, None):
            why = f"verdict {op['result']} (exit code {op['exit_code']})"
        elif op["inconclusives"]:
            why = f"{op['inconclusives']} inconclusives"
        elif op["checks"] != ref["checks"][name]:
            why = f"{op['checks']} checks, expected {ref['checks'][name]}"
        elif want is not None and op["sha256"] != want:
            why = f"output sha256 {op['sha256'][:16]} differs from the reference"
        else:
            continue
        bad.append(f"{workload}/{name}: {why}")
    return bad


def _reference_sha(want, batch: int) -> str | None:
    """The recorded sha256 for this batch, or None if none was recorded."""
    if isinstance(want, str):  # seed-free workloads: one output for every batch
        return want
    return want[batch] if batch < len(want) else None


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload for about `seconds`; return metrics and the record."""
    ref = load_reference(smoke)[workload]
    start = time.monotonic()
    deadline = start + seconds
    spawn("setup", seed, 0, smoke)  # warm-up: compiles bytecode, fills the file cache
    calibs = [calib()]

    def timed_spawn(*args) -> dict:
        """spawn(), plus the host-speed factor over the interpreter's life."""
        report = spawn(*args)
        calibs.append(calib())
        report["host_scale"] = 2 * REF_CALIB_S / (calibs[-2] + calibs[-1])
        return report

    setups, reports, bad, attempted = [], [], [], 0
    min_reps = 2 if trace else MIN_REPS
    last_wall = 0.0
    while len(reports) < min_reps or time.monotonic() + last_wall < deadline:
        traced = trace and len(reports) % 2 == 0
        # traced runs repeat batch 0, so that their counts must repeat exactly
        batch = 0 if trace else len(reports)
        t0 = time.monotonic()
        rep = timed_spawn(workload, seed, int(traced), smoke, batch)
        setups += [rep] + [timed_spawn("setup", seed, 0, smoke) for _ in range(SETUPS_PER_REP)]
        last_wall = time.monotonic() - t0
        rep["traced"] = bool(traced)
        attempted += len(rep["ops"])
        bad += judge(workload, seed, rep["ops"], ref, batch)
        reports.append(rep)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "repetitions": len(reports),
        "verdict_s": [r["verdict_s"] for r in reports],
        "host_scale": [r["host_scale"] for r in reports],
        "wall": {"verdict_s": statistics.median(r["verdict_s"] for r in reports),
                 "setup_s": statistics.median(s["setup_s"] for s in setups)},
        "calib_s": calibs,
        "measured_s": time.monotonic() - start,
        "env": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                **reports[0]["env"], "seed": seed,
                "host.calib_s": [calibs[0], calibs[-1]]},
        "attempted": attempted, "failed": len(bad), "failures": bad[:20],
    }
    if trace:
        metrics, counts_repeat = _layer_metrics(reports, record)
    else:
        metrics, counts_repeat = _end_to_end_metrics(reports, setups), True
    record.update(correct=not bad and counts_repeat, metrics=metrics)
    if trace:  # the spans are written once, when the run ends
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}{'-smoke' if smoke else ''}-seed{seed}.json"
        path.write_text(json.dumps(record) + "\n")
        record.pop("traced_repetitions")
    return record


def _end_to_end_metrics(reports: list, setups: list) -> dict:
    """Medians over the repetitions, with each time at the reference speed."""
    units = dict(END_TO_END)
    values = {
        "verdict_s": statistics.median(r["verdict_s"] * r["host_scale"] for r in reports),
        "checks_per_s": statistics.median(
            sum(op["checks"] or 0 for op in r["ops"]) / (r["verdict_s"] * r["host_scale"])
            for r in reports),
        "setup_s": statistics.median(s["setup_s"] * s["host_scale"] for s in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def _layer_metrics(reports: list, record: dict) -> tuple[dict, bool]:
    """Per-layer metrics from the traced repetitions; counts must repeat."""
    traced = [r for r in reports if r["traced"]]
    untraced = [r for r in reports if not r["traced"]]
    counts = [r["trace"]["counts"] for r in traced]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        record["failures"].append("per-layer counts differ between traced repetitions")
    seconds = {key: statistics.median(r["trace"]["seconds"].get(key, 0.0) * r["host_scale"]
                                      for r in traced)
               for key in sorted({k for r in traced for k in r["trace"]["seconds"]})}
    record.update(trace_counts=counts[0], trace_seconds=seconds,
                  missing_seams=traced[0]["trace"]["missing_seams"],
                  traced_repetitions=[{"verdict_s": r["verdict_s"], "host_scale": r["host_scale"],
                                       **r["trace"]} for r in traced])
    values = dict(counts[0])
    checks = values["harness.checks"]
    values["harness.recheck.per_check"] = values["harness.recheck.calls"] / checks if checks else 0.0
    values["cli.json_bytes"] = sum(op["bytes"] for op in traced[0]["ops"])
    for key in ("harness.self_s", "theta.self_s", "cli.self_s"):
        values[key] = seconds.get(key, 0.0)
    values["trace.overhead_s"] = (
        statistics.median(r["verdict_s"] * r["host_scale"] for r in traced)
        - statistics.median(r["verdict_s"] * r["host_scale"] for r in untraced))
    units = dict(PER_LAYER)
    return {k: {"value": values[k], "unit": units[k]} for k in units}, repeat


def print_table(record: dict, out=sys.stderr) -> None:
    env = record["env"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['repetitions']} repetitions in {record['measured_s']:.1f} s", file=out)
    print(f"   nproc {env['nproc']} (usable {env['cpus_usable']}), python {env['python']}, "
          f"numpy {env['numpy']}, mpmath {env['mpmath']}, host.calib_s before/after "
          f"{env['host.calib_s'][0]:.3f}/{env['host.calib_s'][1]:.3f}", file=out)
    print("   wall verdict_s of each repetition: "
          + " ".join(f"{v:.3f}" for v in record["verdict_s"]), file=out)
    print("   host speed factor of each repetition: "
          + " ".join(f"{v:.3f}" for v in record["host_scale"]), file=out)
    print(f"   wall medians: verdict_s {record['wall']['verdict_s']:.4f} s, setup_s "
          f"{record['wall']['setup_s']:.4f} s; calib_s median "
          f"{statistics.median(record['calib_s']):.4f} s (reference {REF_CALIB_S} s)", file=out)
    for name, m in record["metrics"].items():
        print(f"   {name:<42} {m['value']:>16.6g} {m['unit']}", file=out)
    for name, value in record.get("trace_seconds", {}).items():
        print(f"   (span) {name:<35} {value:>16.6g} s", file=out)
    if record.get("missing_seams"):
        print(f"   not traced (absent from congabc): {', '.join(record['missing_seams'])}", file=out)
    ratio = record["failed"] / record["attempted"]
    print(f"   fail_ratio {ratio:g} ({record['failed']} failed of {record['attempted']} "
          f"operations); correct {record['correct']}", file=out)
    for msg in record["failures"]:
        print(f"   FAIL {msg}", file=out)


def main() -> int:
    parser = argparse.ArgumentParser(description="Time-to-verdict benchmark of congabc.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the benchmark's own tests")
    args = parser.parse_args()
    if not (SRC / "congabc" / "__init__.py").is_file():
        print(f"error: no congabc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(w, args.seed, args.seconds, args.trace, args.smoke) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_table(record)
        print(json.dumps({"env": record["env"], "workload": record["workload"]}))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
