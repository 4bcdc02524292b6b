"""Record reference.json from the program as it is.

    python3 verifbench/record_reference.py

For each size (full and smoke) and workload it runs worker.py at the
default seed and keeps each operation's check count and the sha256 of
its canonical JSON.  `sampled` gets one sha256 per batch, for the first
BATCHES batches.  Every operation must pass; nothing is written if one
does not.  Record again only when the canonical JSON is meant to change.
"""

import json
import sys

import run

BATCHES = {"full": 40, "smoke": 8}


def record(size: str, workload: str) -> dict:
    batches = 1 if workload in run.SEED_FREE else BATCHES[size]
    runs = [run.spawn(workload, run.DEFAULT_SEED, 0, size == "smoke", b)["ops"]
            for b in range(batches)]
    for ops in runs:
        for op in ops:
            if op["error"] or op["result"] != "pass" or op["inconclusives"]:
                raise run.BenchError(f"{size}/{workload}/{op['name']} did not pass: {op}")
    checks = {op["name"]: op["checks"] for op in runs[0]}
    if any({op["name"]: op["checks"] for op in ops} != checks for ops in runs):
        raise run.BenchError(f"{size}/{workload}: check counts differ between batches")
    if workload in run.SEED_FREE:
        sha = {op["name"]: op["sha256"] for op in runs[0]}
    else:
        sha = {name: [ops[i]["sha256"] for ops in runs] for i, name in enumerate(checks)}
    return {"checks": checks, "sha256": sha}


def main() -> int:
    try:
        ref = {size: {w: record(size, w) for w in run.WORKLOADS} for size in BATCHES}
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
