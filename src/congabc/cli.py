"""Command-line front end.

Subcommands: analyze (triple metrics), theta (orbit of the even-power
map), verify (corpus suites), bound (constant propagation), search
(high-quality solutions).  Output formats: table (human), json
(canonical: sorted keys, floats at 12 significant digits, big integers
as decimal strings), csv.

Each verify suite takes only the options it reads, after the suite name:
--max-c, --congruence, --workers and --format; --tolerance in all but
lemma2; and --n and --eps (lemma1), --N (lemma2), --n and --radical-scale
(identities), or --N, --C and a single --eps (chain).

Exit codes: 0 pass, 1 counterexample found, 2 usage or validation
error, 3 inconclusive results only (factorization budget exhausted),
4 internal error (an independent cross-check disagreed: a bug).

Each setting has one knob and one check.  The rho budget is only the
CONGABC_FACTOR_BUDGET environment variable; main reads it once before
dispatch, so a malformed value fails before any work.  --workers and
the exponents are checked by the suites, as for API callers.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from .abc_core import ABCSolution, SolutionError, make_solution, merit
from .harness import (
    DEFAULT_TOLERANCE,
    CorpusSpec,
    InternalRadicalMismatch,
    LemmaVerdict,
    SuiteSummary,
    search_quality,
    verify_lemma1,
    verify_lemma2,
    verify_proof_identities,
    verify_reduction_chain,
)
from .numtheory import FactorizationFailure, factorize, rho_budget, totient
from .theta import InternalInexactDivision, derived_full_bound, lemma_constants, theta

FORMATS = ("table", "json", "csv")

VERIFY_CSV_COLUMNS = (
    "kind", "a", "b", "c", "n", "eps", "N", "check",
    "rad", "quality", "f", "lhs", "rhs", "slack", "pass",
)


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def _canon(obj) -> str:
    """Canonical JSON: sorted keys, fixed float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite float in JSON output")
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + _canon(v) for k, v in sorted(obj.items())
        ) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _triple_record(aa: ABCSolution) -> dict:
    return {"a": str(aa.a), "b": str(aa.b), "c": str(aa.c)}


def _factor_string(factors: tuple[tuple[int, int], ...]) -> str:
    if not factors:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


def _verdict_record(v: LemmaVerdict) -> dict:
    return {
        "triple": _triple_record(v.triple),
        "params": v.params,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "slack": v.slack,
        "pass": v.passed,
        "witness": None if v.witness is None else str(v.witness),
        "inconclusive": v.inconclusive,
        "note": v.note,
    }


def _summary_status(s: SuiteSummary) -> str:
    if s.failures:
        return "counterexample"
    if s.inconclusives:
        return "inconclusive"
    return "pass"


def _summary_record(s: SuiteSummary) -> dict:
    # wall time and worker count are intentionally excluded:
    # serialized summaries must be identical across runs
    return {
        "suite": s.suite,
        "params": s.params,
        "corpus": {"size": s.corpus_size, "hash": s.corpus_hash},
        "checks": s.checks,
        "passes": s.passes,
        "failures": s.failures,
        "inconclusives": s.inconclusives,
        "min_slack": s.min_slack,
        "extremal": None if s.extremal is None else _verdict_record(s.extremal),
        "counterexamples": [_verdict_record(v) for v in s.counterexamples],
        "inconclusive_examples": [_verdict_record(v) for v in s.inconclusive_examples],
        "result": _summary_status(s),
    }


def _coerce_triple(x: int, y: int, z: int) -> tuple[int, int, int]:
    """Map the all-positive a + b = c habit onto the zero-sum convention."""
    if x > 0 and y > 0 and z > 0:
        lo, mid, hi = sorted((x, y, z))
        if lo + mid == hi:
            return -lo, -mid, hi
    return x, y, z


def _parse_list(text: str, kind: type) -> list:
    """The comma-separated values of text as kind, empty entries skipped."""
    return [kind(t) for t in text.split(",") if t.strip() != ""]


def _print_csv(rows: list[list], header: list[str]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    eps_list = _parse_list(args.eps, float)
    if not eps_list:
        raise ValueError("--eps must list at least one value")
    aa = make_solution(*_coerce_triple(args.x, args.y, args.z))
    facs = {
        "a": factorize(-aa.a),
        "b": factorize(-aa.b),
        "c": factorize(aa.c),
    }
    reports = [merit(aa, e) for e in eps_list]
    base = reports[0]
    if args.format == "json":
        record = {
            "triple": _triple_record(aa),
            "factors": {k: [[str(p), e] for p, e in f.factors] for k, f in facs.items()},
            "rad": str(base.rad_abc),
            "quality": base.quality,
            "merit": [{"eps": r.epsilon, "f": r.merit} for r in reports],
        }
        print(_canon(record))
    elif args.format == "csv":
        rows = [
            [aa.a, aa.b, aa.c, base.rad_abc, _fmt(base.quality), _fmt(r.epsilon), _fmt(r.merit)]
            for r in reports
        ]
        _print_csv(rows, ["a", "b", "c", "rad", "quality", "eps", "f"])
    else:
        print(f"triple: (a, b, c) = {aa}")
        print(f"|a| = {-aa.a} = {_factor_string(facs['a'].factors)}")
        print(f"|b| = {-aa.b} = {_factor_string(facs['b'].factors)}")
        print(f"c = {aa.c} = {_factor_string(facs['c'].factors)}")
        print(f"rad(abc) = {base.rad_abc}")
        print(f"quality = {_fmt(base.quality)}")
        for r in reports:
            print(f"f(eps={_fmt(r.epsilon)}) = {_fmt(r.merit)}")
    return 0


# ---------------------------------------------------------------------------
# theta


def cmd_theta(args: argparse.Namespace) -> int:
    if args.iter < 1:
        raise ValueError("--iter must be at least 1")
    aa = make_solution(*_coerce_triple(args.x, args.y, args.z))
    steps = []
    current = aa
    for k in range(1, args.iter + 1):
        result = theta(current, args.n)
        rep = merit(result.output, 0.0)
        fixed = result.output == current
        steps.append((k, result, rep, fixed))
        current = result.output
        if fixed:
            break
    if args.format == "json":
        record = {
            "input": _triple_record(aa),
            "n": args.n,
            "steps": [
                {
                    "step": k,
                    "m": res.m,
                    "raw": {"a": str(res.raw[0]), "b": str(res.raw[1]), "c": str(res.raw[2])},
                    "triple": _triple_record(res.output),
                    "rad": str(rep.rad_abc),
                    "quality": rep.quality,
                    "fixed_point": fixed,
                }
                for k, res, rep, fixed in steps
            ],
        }
        print(_canon(record))
    elif args.format == "csv":
        rows = [
            [k, res.m, res.output.a, res.output.b, res.output.c,
             rep.rad_abc, _fmt(rep.quality)]
            for k, res, rep, fixed in steps
        ]
        _print_csv(rows, ["step", "m", "a", "b", "c", "rad", "quality"])
    else:
        print(f"input: {aa}")
        for k, res, rep, fixed in steps:
            raw = f"({res.raw[0]}, {res.raw[1]}, {res.raw[2]})"
            print(
                f"step {k}: n = {res.n}, m = {res.m}, raw = {raw}, "
                f"normalized = {res.output}, rad = {rep.rad_abc}, "
                f"quality = {_fmt(rep.quality)}"
            )
            if fixed:
                print(f"fixed point reached at step {k}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_csv_rows(s: SuiteSummary) -> list[list]:
    rows = []
    kinds = [("extremal", v) for v in ([s.extremal] if s.extremal else [])]
    kinds += [("counterexample", v) for v in s.counterexamples]
    kinds += [("inconclusive", v) for v in s.inconclusive_examples]
    for kind, v in kinds:
        eps = v.params.get("eps")
        try:
            rep = merit(v.triple, eps if eps is not None else 0.0)
            rad, q, f = rep.rad_abc, _fmt(rep.quality), _fmt(rep.merit)
        except FactorizationFailure:
            rad, q, f = "", "", ""
        rows.append([
            kind, v.triple.a, v.triple.b, v.triple.c,
            v.params.get("n", ""), "" if eps is None else _fmt(eps),
            v.params.get("N", ""), v.params.get("check", ""),
            rad, q, f,
            _fmt(v.lhs), _fmt(v.rhs), _fmt(v.slack), str(v.passed).lower(),
        ])
    return rows


def _print_verify_table(s: SuiteSummary) -> None:
    print(f"suite: {s.suite}")
    print(f"params: {', '.join(f'{k} = {v}' for k, v in sorted(s.params.items()))}")
    print(f"corpus: {s.corpus_size} triples (hash {s.corpus_hash[:16]})")
    print(
        f"checks = {s.checks}, passes = {s.passes}, "
        f"failures = {s.failures}, inconclusives = {s.inconclusives}"
    )
    if s.min_slack is not None and s.extremal is not None:
        print(
            f"min slack = {_fmt(s.min_slack)} at triple = {s.extremal.triple}, "
            f"params = {s.extremal.params}"
        )
    if s.counterexamples:
        v = s.counterexamples[0]
        print(
            f"counterexample: triple = {v.triple}, params = {v.params}, "
            f"lhs = {_fmt(v.lhs)}, rhs = {_fmt(v.rhs)}, slack = {_fmt(v.slack)}, "
            f"witness = {v.witness}"
        )
    for v in s.inconclusive_examples[:3]:
        print(f"inconclusive: triple = {v.triple}, note = {v.note}")
    print(f"workers = {s.workers}, wall time = {s.wall_time:.2f} s")
    print(f"result: {_summary_status(s).upper()}")


def cmd_verify(args: argparse.Namespace) -> int:
    # run is the suite's own call, with the options that suite takes
    summary = args.run(args, CorpusSpec(max_c=args.max_c, congruence=args.congruence))
    # the verdict's code, set before the output, so it stands if stdout closes early
    args.exit_code = {"pass": 0, "counterexample": 1, "inconclusive": 3}[_summary_status(summary)]
    if args.format == "json":
        print(_canon(_summary_record(summary)))
    elif args.format == "csv":
        _print_csv(_verify_csv_rows(summary), list(VERIFY_CSV_COLUMNS))
    else:
        _print_verify_table(summary)
    return args.exit_code


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args: argparse.Namespace) -> int:
    value = derived_full_bound(args.N, args.eps, args.C)
    record = {
        "N": str(args.N),
        "eps": args.eps,
        "assumed_constant": args.C,
        "bound": value,
        "phi": None,
        "c_lin": None,
        "c_off": None,
        "eps_out": None,
    }
    if args.N >= 3:
        n = totient(args.N)
        lc = lemma_constants(n, args.eps)
        record.update(
            {"phi": str(n), "c_lin": lc.c_lin, "c_off": lc.c_off, "eps_out": lc.eps_out}
        )
    if args.format == "json":
        print(_canon(record))
    elif args.format == "csv":
        row = [
            args.N, record["phi"] or "", _fmt(args.eps), _fmt(args.C),
            "" if record["c_lin"] is None else _fmt(record["c_lin"]),
            "" if record["c_off"] is None else _fmt(record["c_off"]),
            "" if record["eps_out"] is None else _fmt(record["eps_out"]),
            _fmt(value),
        ]
        _print_csv([row], ["N", "phi", "eps", "assumed_constant",
                           "c_lin", "c_off", "eps_out", "bound"])
    else:
        print(f"N = {args.N}")
        if record["phi"] is None:
            print("restriction is vacuous for N <= 2; bound passes through")
        else:
            print(f"phi(N) = {record['phi']}")
            print(f"c_lin = {_fmt(record['c_lin'])}")
            print(f"c_off = {_fmt(record['c_off'])}")
            print(f"eps_out = {_fmt(record['eps_out'])}")
        print(f"bound = {_fmt(value)}")
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args: argparse.Namespace) -> int:
    hits = search_quality(args.max_c, args.min_quality)
    if args.format == "json":
        record = {
            "max_c": args.max_c,
            "threshold": args.min_quality,
            "hits": [
                {
                    "triple": _triple_record(r.triple),
                    "rad": str(r.rad_abc),
                    "quality": r.quality,
                    "merit": [{"eps": r.epsilon, "f": r.merit}],
                }
                for r in hits
            ],
        }
        print(_canon(record))
    elif args.format == "csv":
        rows = [
            [r.triple.a, r.triple.b, r.triple.c, r.rad_abc,
             _fmt(r.quality), _fmt(r.epsilon), _fmt(r.merit)]
            for r in hits
        ]
        _print_csv(rows, ["a", "b", "c", "rad", "quality", "eps", "f"])
    else:
        if not hits:
            print(f"no solutions with c <= {args.max_c} and quality > {args.min_quality}")
        for r in hits:
            print(
                f"triple = {r.triple}, rad = {r.rad_abc}, "
                f"quality = {_fmt(r.quality)}, f(0) = {_fmt(r.merit)}"
            )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="table", help="output format")


@functools.cache  # one build per process: main runs many times in one process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congabc",
        description="ABC-solution metrics, the even-power amplification map, "
                    "and exhaustive corpus verification.",
    )
    parser.set_defaults(exit_code=0)  # the code of a command whose stdout closes early
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="normalize a triple and report rad/quality/merit")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("z", type=int)
    p.add_argument("--eps", default="0", help="comma-separated epsilon values")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("theta", help="apply the even-power map repeatedly")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("z", type=int)
    p.add_argument("--n", type=int, required=True, help="even exponent >= 2")
    p.add_argument("--iter", type=int, default=1, help="number of applications")
    _add_common(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("verify", help="run a verification suite over the exhaustive corpus")
    p.set_defaults(func=cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    corpus = argparse.ArgumentParser(add_help=False)  # the options every suite reads
    corpus.add_argument("--max-c", type=int, required=True, help="corpus bound on c")
    corpus.add_argument("--congruence", type=int, default=1,
                        help="restrict the corpus to triples with this divisor of abc")
    corpus.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    _add_common(corpus)
    inexact = argparse.ArgumentParser(add_help=False, parents=[corpus])  # the float suites'
    inexact.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                         help="absolute slack tolerance for inequality checks "
                              "(default %(default)s)")

    s = suites.add_parser("lemma1", parents=[inexact], help="the amplification inequality")
    s.add_argument("--n", default="2,4",
                   help="comma-separated even exponents (default %(default)s)")
    s.add_argument("--eps", default="1",
                   help="comma-separated epsilon values (default %(default)s)")
    s.set_defaults(run=lambda a, spec: verify_lemma1(
        spec, _parse_list(a.n, int), _parse_list(a.eps, float),
        tolerance=a.tolerance, workers=a.workers))

    s = suites.add_parser("lemma2", parents=[corpus], help="N divides the image at n = phi(N)")
    s.add_argument("--N", type=int, required=True, help="modulus")
    s.set_defaults(run=lambda a, spec: verify_lemma2(spec, a.N, workers=a.workers))

    s = suites.add_parser("identities", parents=[inexact], help="the identities behind lemma1")
    s.add_argument("--n", default="2,4,6,8",
                   help="comma-separated even exponents (default %(default)s)")
    s.add_argument("--radical-scale", type=int, default=None,
                   help="run the radical log bound only for c up to this")
    s.set_defaults(run=lambda a, spec: verify_proof_identities(
        spec, _parse_list(a.n, int), tolerance=a.tolerance,
        radical_scale=a.radical_scale, workers=a.workers))

    s = suites.add_parser("chain", parents=[inexact], help="the end-to-end reduction chain")
    s.add_argument("--N", type=int, required=True, help="modulus")
    s.add_argument("--eps", type=float, default=1.0, help="epsilon (default %(default)s)")
    s.add_argument("--C", type=float, required=True, help="assumed constant")
    s.set_defaults(run=lambda a, spec: verify_reduction_chain(
        spec, a.N, a.eps, a.C, tolerance=a.tolerance, workers=a.workers))

    p = sub.add_parser("bound", help="propagate an assumed constant to the full bound")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--C", type=float, required=True, help="assumed constant")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("search", help="list solutions above a quality threshold")
    p.add_argument("--max-c", type=int, required=True)
    p.add_argument("--min-quality", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        rho_budget()  # a malformed CONGABC_FACTOR_BUDGET fails before any work
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early (`| head`): that ends the output, not the command;
        # stdout goes to os.devnull, so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return args.exit_code
    except FactorizationFailure as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (SolutionError, ValueError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except (InternalRadicalMismatch, InternalInexactDivision) as exc:
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
