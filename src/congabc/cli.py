"""Command-line front end.

Subcommands: analyze (triple metrics), theta (orbit of the even-power
map), verify (corpus suites), bound (constant propagation), search
(high-quality solutions).

Each command builds a JSON record, CSV rows (dicts keyed by column) and
table lines, and one renderer, _emit, prints the --format asked for:
json (canonical: sorted keys, floats at 12 significant digits, big
integers as decimal strings), csv (a cell is empty for None, true or
false for a bool, a float at 12 significant digits, else str) or table.
Rows and lines may be generators: only the format printed is computed.

Each verify suite takes only the options it reads, after the suite name:
--max-c, --congruence, --workers and --format; --tolerance in all but
lemma2; and --n and --eps (lemma1), --N (lemma2), --n and --radical-scale
(identities), or --N, --C and a single --eps (chain).

Exit codes: 0 pass, 1 counterexample found, 2 usage or validation
error or an input whose result is not a finite float, 3 inconclusive
results only (factorization budget exhausted), 4 internal error (an
independent cross-check disagreed: a bug).

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
import re
import sys

from .abc_core import ABCSolution, MeritReport, SolutionError, make_solution, merit
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

MERIT_CSV_COLUMNS = ("a", "b", "c", "rad", "quality", "eps", "f")

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


def _cell(v) -> str:
    """One CSV cell: None is empty, a bool true or false, a float _fmt, else str."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return _fmt(v) if isinstance(v, float) else str(v)


def _emit(args: argparse.Namespace, record: dict, columns, rows, lines) -> int:
    """Print what --format asks for: record as canonical JSON, rows (dicts
    keyed by column, a missing key an empty cell) as CSV under a header of
    columns, or lines as a table.  Returns args.exit_code: the parser's 0,
    or the verdict's code that cmd_verify sets."""
    if args.format == "json":
        print(_canon(record))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row.get(k)) for k in columns] for row in rows)
    else:
        for line in lines:
            print(line)
    return args.exit_code


def _triple_record(aa: ABCSolution) -> dict:
    return {"a": str(aa.a), "b": str(aa.b), "c": str(aa.c)}


def _merit_row(r: MeritReport) -> dict:
    """The MERIT_CSV_COLUMNS cells of one merit report."""
    return {"a": r.triple.a, "b": r.triple.b, "c": r.triple.c,
            "rad": r.rad_abc, "quality": r.quality, "eps": r.epsilon, "f": r.merit}


def _merit_record(reports: list[MeritReport]) -> dict:
    """The JSON of one triple's merit reports, which share its radical and quality."""
    r = reports[0]
    return {"triple": _triple_record(r.triple), "rad": str(r.rad_abc), "quality": r.quality,
            "merit": [{"eps": x.epsilon, "f": x.merit} for x in reports]}


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


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    eps_list = _parse_list(args.eps, float)
    if not eps_list:
        raise ValueError("--eps must list at least one value")
    aa = make_solution(*_coerce_triple(args.x, args.y, args.z))
    facs = {"a": factorize(-aa.a), "b": factorize(-aa.b), "c": factorize(aa.c)}
    reports = [merit(aa, e) for e in eps_list]
    record = {
        **_merit_record(reports),
        "factors": {k: [[str(p), e] for p, e in f.factors] for k, f in facs.items()},
    }
    lines = [
        f"triple: (a, b, c) = {aa}",
        f"|a| = {-aa.a} = {_factor_string(facs['a'].factors)}",
        f"|b| = {-aa.b} = {_factor_string(facs['b'].factors)}",
        f"c = {aa.c} = {_factor_string(facs['c'].factors)}",
        f"rad(abc) = {reports[0].rad_abc}",
        f"quality = {_fmt(reports[0].quality)}",
        *(f"f(eps={_fmt(r.epsilon)}) = {_fmt(r.merit)}" for r in reports),
    ]
    return _emit(args, record, MERIT_CSV_COLUMNS, map(_merit_row, reports), lines)


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
    record = {
        "input": _triple_record(aa),
        "n": args.n,
        "steps": [
            {
                "step": k,
                "m": res.m,
                "raw": dict(zip("abc", map(str, res.raw))),
                "triple": _triple_record(res.output),
                "rad": str(rep.rad_abc),
                "quality": rep.quality,
                "fixed_point": fixed,
            }
            for k, res, rep, fixed in steps
        ],
    }

    def lines():
        yield f"input: {aa}"
        for k, res, rep, fixed in steps:
            raw = f"({res.raw[0]}, {res.raw[1]}, {res.raw[2]})"
            yield (
                f"step {k}: n = {res.n}, m = {res.m}, raw = {raw}, "
                f"normalized = {res.output}, rad = {rep.rad_abc}, "
                f"quality = {_fmt(rep.quality)}"
            )
            if fixed:
                yield f"fixed point reached at step {k}"

    rows = ({"step": k, "m": res.m, **_merit_row(rep)} for k, res, rep, _ in steps)
    return _emit(args, record, ("step", "m", "a", "b", "c", "rad", "quality"), rows, lines())


# ---------------------------------------------------------------------------
# verify


def _verify_rows(s: SuiteSummary):
    """The extremal, the counterexamples and the inconclusive examples, each
    with its merit cells at its eps (blank if the factorization gives up)."""
    kinds = [("extremal", v) for v in ([s.extremal] if s.extremal else [])]
    kinds += [("counterexample", v) for v in s.counterexamples]
    kinds += [("inconclusive", v) for v in s.inconclusive_examples]
    for kind, v in kinds:
        eps = v.params.get("eps")
        try:
            cells = _merit_row(merit(v.triple, 0.0 if eps is None else eps))
        except FactorizationFailure:
            cells = {}
        yield {**vars(v.triple), **cells, **v.params, "kind": kind, "eps": eps,
               "lhs": v.lhs, "rhs": v.rhs, "slack": v.slack, "pass": v.passed}


def _verify_lines(s: SuiteSummary):
    yield f"suite: {s.suite}"
    yield f"params: {', '.join(f'{k} = {v}' for k, v in sorted(s.params.items()))}"
    yield f"corpus: {s.corpus_size} triples (hash {s.corpus_hash[:16]})"
    yield (
        f"checks = {s.checks}, passes = {s.passes}, "
        f"failures = {s.failures}, inconclusives = {s.inconclusives}"
    )
    if s.min_slack is not None and s.extremal is not None:
        yield (
            f"min slack = {_fmt(s.min_slack)} at triple = {s.extremal.triple}, "
            f"params = {s.extremal.params}"
        )
    if s.counterexamples:
        v = s.counterexamples[0]
        yield (
            f"counterexample: triple = {v.triple}, params = {v.params}, "
            f"lhs = {_fmt(v.lhs)}, rhs = {_fmt(v.rhs)}, slack = {_fmt(v.slack)}, "
            f"witness = {v.witness}"
        )
    for v in s.inconclusive_examples[:3]:
        yield f"inconclusive: triple = {v.triple}, note = {v.note}"
    yield f"workers = {s.workers}, wall time = {s.wall_time:.2f} s"
    yield f"result: {_summary_status(s).upper()}"


def cmd_verify(args: argparse.Namespace) -> int:
    # run is the suite's own call, with the options that suite takes
    summary = args.run(args, CorpusSpec(max_c=args.max_c, congruence=args.congruence))
    # the verdict's code, set before the output, so it stands if stdout closes early
    args.exit_code = {"pass": 0, "counterexample": 1, "inconclusive": 3}[_summary_status(summary)]
    return _emit(args, _summary_record(summary), VERIFY_CSV_COLUMNS,
                 _verify_rows(summary), _verify_lines(summary))


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args: argparse.Namespace) -> int:
    value = derived_full_bound(args.N, args.eps, args.C)
    record = {"N": str(args.N), "eps": args.eps, "assumed_constant": args.C, "bound": value,
              **dict.fromkeys(("phi", "c_lin", "c_off", "eps_out"))}
    lines = [f"N = {args.N}"]
    if args.N >= 3:
        n = totient(args.N)
        lc = lemma_constants(n, args.eps)
        record.update(phi=str(n), c_lin=lc.c_lin, c_off=lc.c_off, eps_out=lc.eps_out)
        lines.append(f"phi(N) = {n}")
        lines += [f"{k} = {_fmt(record[k])}" for k in ("c_lin", "c_off", "eps_out")]
    else:
        lines.append("restriction is vacuous for N <= 2; bound passes through")
    lines.append(f"bound = {_fmt(value)}")
    columns = ("N", "phi", "eps", "assumed_constant", "c_lin", "c_off", "eps_out", "bound")
    return _emit(args, record, columns, [record], lines)


# ---------------------------------------------------------------------------
# search


def cmd_search(args: argparse.Namespace) -> int:
    hits = search_quality(args.max_c, args.min_quality)
    record = {
        "max_c": args.max_c,
        "threshold": args.min_quality,
        "hits": [_merit_record([r]) for r in hits],
    }
    lines = [
        f"triple = {r.triple}, rad = {r.rad_abc}, "
        f"quality = {_fmt(r.quality)}, f(0) = {_fmt(r.merit)}"
        for r in hits
    ] or [f"no solutions with c <= {args.max_c} and quality > {args.min_quality}"]
    return _emit(args, record, MERIT_CSV_COLUMNS, map(_merit_row, hits), lines)


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="table", help="output format")


class _Parser(argparse.ArgumentParser):
    """A parser that reads -1e3 as a negative number, not an option: argparse's
    own pattern (3.10, 3.11) has no exponent.  Its subparsers are of this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache  # one build per process: main runs many times in one process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
