"""One repetition of one benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition with `src` on PYTHONPATH.
It imports congabc, builds the workload's inputs from the seed, runs
every operation (one suite call each) serially with workers=1, and
prints one JSON report as its last stdout line.  The congabc CLI's own
output is captured, never printed.

    python3 verifbench/worker.py --workload audit --seed 0 --spawned-at 0

--batch picks which seeded batch of triples `sampled` verifies; run.py
gives each repetition its own batch, so that one run covers many
different inputs.  The CLI workloads ignore it.

--spawned-at is the parent's time.monotonic() just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so
setup_s = (import congabc returned) - (spawned-at).
"""

import time

import congabc  # timed: this import is the setup being measured

_READY_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402

from congabc import cli  # noqa: E402
from trace_layers import NoTracer, Tracer  # noqa: E402  (sibling module: sys.path[0] is this directory)

_CLI_TAIL = ["--format", "json", "--workers", "1"]

# Workload sizes.  "full" is what the benchmark measures; "smoke" is a
# tiny copy of each workload for the benchmark's own tests.
SIZES = {
    "full": {
        "sieve": {"max_c": 3000},
        "sampled": {"count": 150, "max_c": 10**8},
        "audit": {"chain_max_c": 200, "lemma2_max_c": 350, "lemma2_N": range(3, 51),
                  "identities_max_c": 300, "radical_scale": 100},
    },
    "smoke": {
        "sieve": {"max_c": 300},
        "sampled": {"count": 12, "max_c": 10**6},
        "audit": {"chain_max_c": 40, "lemma2_max_c": 60, "lemma2_N": range(3, 7),
                  "identities_max_c": 40, "radical_scale": 20},
    },
}


def sample_triples(seed: int, batch: int, count: int, max_c: int) -> list:
    """count solutions drawn uniformly from the coprime (c, s) pairs with
    3 <= c <= max_c and 1 <= s < c/2, by rejection from a rectangle.
    Each (seed, batch) has its own stream of random numbers."""
    rng = random.Random(f"{seed}:{batch}")
    s_hi = (max_c - 1) // 2
    out = []
    while len(out) < count:
        c = rng.randrange(3, max_c + 1)
        s = rng.randrange(1, s_hi + 1)
        if 2 * s < c and math.gcd(s, c) == 1:
            out.append(congabc.ABCSolution(s - c, -s, c))
    return out


def cli_ops(workload: str, size: dict) -> list:
    """(name, argv) of each CLI call of a CLI workload, in run order."""
    if workload == "sieve":
        return [("lemma1", ["verify", "lemma1", "--max-c", str(size["max_c"]),
                            "--n", "2,4", "--eps", "0.1,1"])]
    ops = [("chain", ["verify", "chain", "--max-c", str(size["chain_max_c"]),
                      "--N", "7", "--eps", "1", "--C", "10"])]
    ops += [(f"lemma2-N{k}", ["verify", "lemma2", "--max-c", str(size["lemma2_max_c"]),
                              "--N", str(k)])
            for k in size["lemma2_N"]]
    ops.append(("identities", ["verify", "identities", "--max-c", str(size["identities_max_c"]),
                               "--n", "2,4,6,8", "--radical-scale", str(size["radical_scale"])]))
    return ops


def run_cli(ops: list, tracer) -> tuple[float, list]:
    """Run each CLI call; return the wall seconds and the raw results."""
    results = []
    t0 = time.perf_counter()
    for name, argv in ops:
        buf = io.StringIO()
        with tracer.span("bench.op"), contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv + _CLI_TAIL)
                error = None
            except Exception as exc:  # one failed operation must not hide the others
                code, error = None, f"{type(exc).__name__}: {exc}"
        results.append((name, code, buf.getvalue(), error))
    return time.perf_counter() - t0, results


def run_sampled(triples: list, tracer) -> tuple[float, list]:
    """verify_lemma1 on the list, then its canonical JSON."""
    t0 = time.perf_counter()
    with tracer.span("bench.op"):
        try:
            summary = congabc.verify_lemma1(triples, (2, 4), (0.1, 1.0), workers=1)
            with tracer.span("cli.serialize"):
                text = cli._canon(cli._summary_record(summary)) + "\n"
            error = None
        except Exception as exc:  # reported as a failed operation
            text, error = "", f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, [("lemma1-list", None, text, error)]


def op_record(name: str, code, text: str, error) -> dict:
    """What run.py needs to judge one operation."""
    rec = {"name": name, "exit_code": code, "error": error, "bytes": len(text.encode()),
           "sha256": hashlib.sha256(text.encode()).hexdigest(),
           "result": None, "checks": None, "inconclusives": None}
    if error is None:
        try:
            summary = json.loads(text)
            rec.update(result=summary["result"], checks=summary["checks"],
                       inconclusives=summary["inconclusives"])
        except (ValueError, KeyError, TypeError) as exc:
            rec["error"] = f"unreadable output: {exc}"
    return rec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("setup", "sieve", "sampled", "audit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    report = {
        "setup_s": _READY_AT - args.spawned_at,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "mpmath": mpmath.__version__},
    }
    if args.workload != "setup":
        size = SIZES["smoke" if args.smoke else "full"][args.workload]
        if args.workload == "sampled":
            inputs = sample_triples(args.seed, args.batch, size["count"], size["max_c"])
        else:
            inputs = cli_ops(args.workload, size)
        tracer = Tracer() if args.trace else NoTracer()
        if args.trace:
            tracer.install()
        runner = run_sampled if args.workload == "sampled" else run_cli
        verdict_s, raw = runner(inputs, tracer)
        report["verdict_s"] = verdict_s
        report["ops"] = [op_record(*r) for r in raw]
        if args.trace:
            tracer.uninstall()
            report["trace"] = tracer.report()
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
