"""CLI tests: subcommand output, formats, exit codes, JSON round-trip."""

import importlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from congabc.cli import _canon, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_table(capsys):
    code, out, _ = run_cli(capsys, "analyze", "1", "8", "-9", "--eps", "0,1")
    assert code == 0
    assert "(a, b, c) = (-8, -1, 9)" in out
    assert "|a| = 8 = 2^3" in out
    assert "c = 9 = 3^2" in out
    assert "rad(abc) = 6" in out
    assert "quality = 1.22629438553" in out
    assert "f(eps=0) = 0.405465108108" in out
    assert "f(eps=1) = -1.38629436112" in out


def test_analyze_positive_convention(capsys):
    code, out, _ = run_cli(capsys, "analyze", "3", "5", "8")
    assert code == 0
    assert "(a, b, c) = (-5, -3, 8)" in out
    code, out, _ = run_cli(capsys, "analyze", "1", "2", "-3")
    assert code == 0
    assert "quality = 0.613147192765" in out


def test_analyze_exit_codes(capsys):
    code, _, err = run_cli(capsys, "analyze", "2", "4", "-6")
    assert code == 2
    assert "NotCoprime" in err
    code, _, err = run_cli(capsys, "analyze", "1", "1", "3")
    assert code == 2


def test_analyze_json_schema_and_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "1", "8", "-9", "--eps", "0,1", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["triple"] == {"a": "-8", "b": "-1", "c": "9"}
    assert record["rad"] == "6"
    assert record["quality"] == pytest.approx(1.226294385530, abs=1e-9)
    assert record["merit"][0] == {"eps": 0, "f": pytest.approx(0.405465108108)}
    assert _canon(record) == out.strip()


def test_analyze_csv(capsys):
    code, out, _ = run_cli(capsys, "analyze", "1", "8", "-9", "--eps", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,c,rad,quality,eps,f"
    assert lines[1].startswith("-8,-1,9,6,")


# ---------------------------------------------------------------------------
# theta


def test_theta_chain(capsys):
    code, out, _ = run_cli(capsys, "theta", "1", "2", "-3", "--n", "2", "--iter", "2")
    assert code == 0
    assert "raw = (-1, -8, 9)" in out
    assert "raw = (-49, -32, 81)" in out


def test_theta_fixed_point_reported(capsys):
    code, out, _ = run_cli(capsys, "theta", "1", "3", "-4", "--n", "2", "--iter", "5")
    assert code == 0
    assert "fixed point reached at step 1" in out
    assert out.count("step") >= 1


def test_theta_odd_n_rejected(capsys):
    code, _, err = run_cli(capsys, "theta", "1", "2", "-3", "--n", "3")
    assert code == 2
    assert "OddN" in err


def test_theta_json(capsys):
    code, out, _ = run_cli(
        capsys, "theta", "1", "2", "-3", "--n", "2", "--iter", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["input"] == {"a": "-2", "b": "-1", "c": "3"}
    assert record["steps"][0]["raw"] == {"a": "-1", "b": "-8", "c": "9"}
    assert record["steps"][1]["triple"] == {"a": "-49", "b": "-32", "c": "81"}
    assert _canon(record) == out.strip()


# ---------------------------------------------------------------------------
# verify


def test_verify_lemma1_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "lemma1", "--max-c", "1000", "--n", "2", "--eps", "1"
    )
    assert code == 0
    assert "result: PASS" in out
    assert "min slack" in out


def test_verify_lemma2_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma2", "--N", "16", "--max-c", "500")
    assert code == 0
    assert "result: PASS" in out


def test_verify_odd_n_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "verify", "lemma1", "--max-c", "100", "--n", "3", "--eps", "1"
    )
    assert code == 2


def test_verify_missing_modulus_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "lemma2", "--max-c", "100")
    assert code == 2
    assert "--N" in err


def test_verify_chain_and_identities(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "chain", "--max-c", "100", "--N", "3",
        "--eps", "1", "--C", "10",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", "identities", "--max-c", "100", "--n", "2,4",
    )
    assert code == 0


def test_verify_counterexample_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "lemma1", "--max-c", "60", "--n", "2,4",
        "--eps", "0.5,1", "--tolerance", "-5", "--format", "json",
    )
    assert code == 1
    record = json.loads(out)
    assert record["result"] == "counterexample"
    assert record["failures"] == 777
    assert len(record["counterexamples"]) == 25
    assert '"result":"counterexample"' in out


def test_verify_json_idempotent_across_workers(capsys):
    argv = ["verify", "lemma1", "--max-c", "400", "--n", "2,4",
            "--eps", "0.1,1", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv, "--workers", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--workers", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["result"] == "pass"
    assert record["failures"] == 0
    assert record["corpus"]["size"] == 24338
    assert _canon(record) == out1.strip()


def test_verify_json_excludes_timing(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "lemma2", "--N", "7", "--max-c", "50", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert "wall_time" not in out
    assert "workers" not in record
    assert "seed" not in record


def test_verify_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "lemma1", "--max-c", "50", "--n", "2",
        "--eps", "1", "--format", "csv",
    )
    assert code == 0
    header = out.strip().splitlines()[0]
    assert header == "kind,a,b,c,n,eps,N,check,rad,quality,f,lhs,rhs,slack,pass"
    assert out.strip().splitlines()[1].startswith("extremal,")


def test_verify_seed_is_not_an_option(capsys):
    # primality is deterministic, so there is no seed to set
    code, _, err = run_cli(capsys, "verify", "lemma2", "--N", "9", "--max-c", "200", "--seed", "1")
    assert code == 2
    assert "--seed" in err


_SUITE_ARGV = {
    "lemma1": ["--n", "2", "--eps", "1"],
    "lemma2": ["--N", "7"],
    "identities": ["--n", "2"],
    "chain": ["--N", "3", "--eps", "1", "--C", "10"],
}


@pytest.mark.parametrize("suite, option, value", [
    ("lemma1", "--N", "7"), ("lemma1", "--C", "10"), ("lemma1", "--radical-scale", "10"),
    ("lemma2", "--n", "4"), ("lemma2", "--eps", "1"), ("lemma2", "--C", "10"),
    ("lemma2", "--tolerance", "-5"), ("lemma2", "--radical-scale", "10"),
    ("identities", "--eps", "1"), ("identities", "--N", "7"), ("identities", "--C", "10"),
    ("chain", "--n", "4"), ("chain", "--radical-scale", "10"),
])
def test_verify_rejects_options_the_suite_does_not_read(capsys, suite, option, value):
    # a setting with no effect is a usage error, not silently dropped
    argv = ["verify", suite, "--max-c", "30", *_SUITE_ARGV[suite], option, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {option} {value}" in err


def test_verify_chain_takes_one_eps(capsys):
    code, _, err = run_cli(capsys, "verify", "chain", "--max-c", "30", "--N", "3",
                           "--eps", "0.5,1", "--C", "10")
    assert code == 2
    assert "--eps" in err
    code, _, err = run_cli(capsys, "verify", "chain", "--max-c", "30", "--N", "3")
    assert code == 2
    assert "--C" in err


@pytest.mark.parametrize("congruence", [2**62 + 5, 2**63 + 3])
def test_verify_congruence_beyond_every_product(capsys, congruence):
    # 0 < |abc| <= c**3 / 4 < congruence: the corpus is empty, not an error
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--max-c", "60", "--n", "2",
                           "--congruence", str(congruence), "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert (record["checks"], record["corpus"]["size"], record["result"]) == (0, 0, "pass")


def test_readme_command_lines_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("congabc ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_readme_module_table_names_exist():
    # every backticked name in a row of the library layout table is an
    # attribute of the module that row names
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    assert len(rows) == 5
    for module, contents in rows:
        mod = importlib.import_module(re.fullmatch(r"\s*`([\w.]+)`\s*", module)[1])
        names = re.findall(r"`(\w+)`", contents)
        assert [name for name in names if not hasattr(mod, name)] == [], mod.__name__


def test_parser_is_built_once_and_keeps_no_values(capsys):
    assert build_parser() is build_parser()
    argv = ["verify", "lemma1", "--max-c", "20", "--n", "2", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--tolerance", "-5")
    assert (code, json.loads(out)["params"]["tolerance"]) == (1, -5.0)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["params"]["tolerance"] == 1e-09


def test_factor_budget_is_not_an_option(capsys):
    # the rho budget has one knob, CONGABC_FACTOR_BUDGET
    code, _, err = run_cli(
        capsys, "verify", "lemma2", "--N", "9", "--max-c", "200", "--factor-budget", "100"
    )
    assert code == 2
    assert "--factor-budget" in err


# ---------------------------------------------------------------------------
# bound


def test_bound_values(capsys):
    code, out, _ = run_cli(capsys, "bound", "--N", "3", "--eps", "1", "--C", "10")
    assert code == 0
    assert "phi(N) = 2" in out
    assert "bound = 19.8520302639" in out

    code, out, _ = run_cli(capsys, "bound", "--N", "2", "--eps", "1", "--C", "5")
    assert code == 0
    assert "bound = 5" in out

    code, out, _ = run_cli(capsys, "bound", "--N", "16", "--eps", "0.5", "--C", "1")
    assert code == 0
    assert "phi(N) = 8" in out
    assert "eps_out = 0.0434782608696" in out


def test_bound_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--N", "16", "--eps", "1", "--C", "0", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["phi"] == "8"
    assert record["bound"] == pytest.approx(15.942385152878742, abs=1e-9)
    assert _canon(record) == out.strip()


# ---------------------------------------------------------------------------
# search


def test_search_two_hits(capsys):
    code, out, _ = run_cli(capsys, "search", "--max-c", "100", "--min-quality", "1.2")
    assert code == 0
    assert "(-80, -1, 81)" in out
    assert "(-8, -1, 9)" in out


def test_search_empty_and_invalid(capsys):
    code, out, _ = run_cli(capsys, "search", "--max-c", "3", "--min-quality", "1")
    assert code == 0
    assert "no solutions" in out
    code, _, err = run_cli(capsys, "search", "--max-c", "2")
    assert code == 2


def test_search_above_the_size_guard_exits_2_before_any_table(capsys, monkeypatch):
    # --max-c 10**9 would cut a billion c into blocks, then take a table of at
    # least 17 bytes per c: refused before either
    from congabc import harness

    def unreachable(*args):
        raise AssertionError("reached a table past the size guard")

    monkeypatch.setattr(harness, "_c_blocks", unreachable)
    monkeypatch.setattr(harness, "_sieve_table", unreachable)
    code, out, err = run_cli(capsys, "search", "--max-c", str(10**9))
    assert (code, out) == (2, "")
    assert "_VECTOR_MAX_C" in err


def test_search_json(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--max-c", "100", "--min-quality", "1.2", "--format", "json"
    )
    record = json.loads(out)
    assert len(record["hits"]) == 2
    assert record["hits"][0]["triple"] == {"a": "-80", "b": "-1", "c": "81"}
    assert _canon(record) == out.strip()


# ---------------------------------------------------------------------------
# output bytes


# (command line, env, format) -> exact stdout and exit code, verify's wall time masked:
# every command, search with and without hits, and verify passing, failing and
# inconclusive, in each format
_PINNED = json.loads((Path(__file__).parent / "cli_outputs.json").read_text())


@pytest.mark.parametrize("case", _PINNED, ids=lambda c: f"{c['line']} --format {c['format']}")
def test_output_bytes_are_pinned(capsys, monkeypatch, case):
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    code, out, _ = run_cli(capsys, *case["line"].split(), "--format", case["format"])
    out = re.sub(r"wall time = [0-9.]+ s", "wall time = * s", out)
    assert (code, out) == (case["code"], case["stdout"])


@pytest.mark.parametrize("argv", [
    ["verify", "lemma1", "--max-c", "50", "--n", "2", "--eps", "nan"],
    ["verify", "lemma1", "--max-c", "50", "--n", "2", "--eps", "inf"],
    ["verify", "chain", "--max-c", "50", "--N", "3", "--eps", "1", "--C", "nan"],
    ["bound", "--N", "3", "--eps", "nan", "--C", "10"],
    ["bound", "--N", "2", "--eps", "1", "--C", "inf"],
    # finite, but n * eps overflows: c_lin is 0 and c_off NaN
    ["verify", "lemma1", "--max-c", "50", "--n", "2", "--eps", "1e308"],
    ["bound", "--N", "3", "--eps", "1e308", "--C", "10"],
    # finite constants, but (1 + eps) * ln rad and the chain's sides overflow
    ["verify", "lemma1", "--max-c", "1000", "--n", "2", "--eps", "1e307"],
    ["verify", "chain", "--max-c", "200", "--N", "3", "--eps", "1e307", "--C", "10"],
    ["analyze", "1", "8", "-9", "--eps", "nan"],
    ["search", "--max-c", "100", "--min-quality", "nan"],
    # finite inputs whose derived bound or merit is not: the bound lifts past float64
    # (the chain's slacks then compare against inf), or (1 + eps) * ln rad overflows
    ["bound", "--N", "3", "--eps", "1", "--C", "1.5e308"],
    ["bound", "--N", "3", "--eps", "1e307", "--C", "1e300"],
    ["verify", "chain", "--max-c", "20", "--N", "3", "--eps", "1", "--C", "1.5e308"],
    ["verify", "chain", "--max-c", "20", "--N", "3", "--eps", "1e307", "--C", "1e300"],
    ["analyze", "3", "125", "-128", "--eps", "1e308"],
])
def test_non_finite_inputs_exit_2(capsys, argv):
    # a comparison with NaN is false: each of these printed a PASS, a nan or an inf,
    # exit 0, in some format; every format exits 2 with nothing on stdout
    for fmt in ("table", "csv", "json"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, ""), fmt
        assert "finite" in err, fmt


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_negative_numbers_take_an_exponent(capsys, fmt):
    # argparse's own pattern for a negative number has no exponent: each of these
    # was "expected one argument", exit 2
    bound = ["bound", "--N", "3", "--eps", "1", "--format", fmt, "--C"]
    got = run_cli(capsys, *bound, "-1e3")
    assert got[0] == 0 and got == run_cli(capsys, *bound, "-1000")
    code, out, err = run_cli(capsys, "verify", "chain", "--max-c", "20", "--N", "3",
                             "--eps", "1", "--C", "-1e3", "--format", fmt)
    assert (code, out) == (2, "")
    assert "HypothesisViolated" in err and "argument" not in err
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--max-c", "30",
                           "--tolerance", "-1e-3", "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["params"]["tolerance"] == -0.001


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_empty_eps_and_zero_iterations_exit_2(capsys, fmt):
    for argv, message in [
        (["analyze", "1", "8", "-9", "--eps", ","], "--eps must list at least one value"),
        (["theta", "1", "2", "-3", "--n", "2", "--iter", "0"], "--iter must be at least 1"),
    ]:
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_repeated_grid_values_exit_2(capsys, fmt):
    # each repeat counted every check of the repeated value again, exit 0
    for argv, message in [
        (["verify", "lemma1", "--max-c", "30", "--n", "2,2"], "got 2 twice"),
        (["verify", "lemma1", "--max-c", "30", "--n", "2", "--eps", "1,1"], "got 1.0 twice"),
        (["verify", "identities", "--max-c", "30", "--n", "2,2"], "got 2 twice"),
    ]:
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert message in err


# ---------------------------------------------------------------------------
# plumbing


@pytest.mark.parametrize("fault", ["drop a piece", "inexact division"])
def test_internal_error_exit_4(capsys, monkeypatch, fault):
    # an internal error is neither a counterexample (1) nor a usage error (2)
    from congabc import harness
    from congabc.theta import InternalInexactDivision

    real = harness._Radicals.pieces

    def pieces(self, n):
        if fault == "drop a piece":
            return real(self, n)[:-1]
        raise InternalInexactDivision("injected")

    monkeypatch.setattr(harness._Radicals, "pieces", pieces)
    # totient(16) = 8, so the chain takes the scalar lane, which factors the pieces
    code, out, err = run_cli(
        capsys, "verify", "chain", "--max-c", "20", "--N", "16", "--eps", "1", "--C", "10"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ")
    want = "InternalRadicalMismatch" if fault == "drop a piece" else "InternalInexactDivision"
    assert want in err


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0


def test_factor_budget_flag_triggers_inconclusive(capsys, monkeypatch):
    from congabc.numtheory import BUDGET_ENV_VAR

    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    hard = (2**64 - 59) * (2**64 - 83)
    code, _, err = run_cli(capsys, "analyze", "1", str(hard - 1), str(-hard))
    assert code == 3
    assert "inconclusive" in err


def test_malformed_budget_env_var_is_a_usage_error(capsys, monkeypatch):
    from congabc.numtheory import BUDGET_ENV_VAR

    # rejected before any work, even by a run that never reaches rho
    for raw in ("lots", "0", "-5"):
        monkeypatch.setenv(BUDGET_ENV_VAR, raw)
        code, _, err = run_cli(capsys, "verify", "lemma1", "--max-c", "40", "--n", "2")
        assert code == 2
        assert BUDGET_ENV_VAR in err


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "congabc.cli", "analyze", "1", "8", "-9"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "rad(abc) = 6" in proc.stdout


@pytest.mark.parametrize("argv, code", [
    (["verify", "chain", "--max-c", "100", "--N", "7", "--C", "10", "--format", "json"], 0),
    (["verify", "lemma1", "--max-c", "30", "--tolerance", "-5"], 1),
    (["bound", "--N", "3", "--eps", "1", "--C", "10"], 0),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # a reader that leaves at once (`| head -c 0`): verify still exits with its
    # verdict's code, any other command with 0, and nothing goes to stderr
    proc = subprocess.Popen([sys.executable, "-m", "congabc.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (code, b"")


# the child's own peak RSS in kilobytes and its minor page faults, on stderr
# after the command's output.  The peak is VmHWM, not ru_maxrss: a child started
# by vfork and exec inherits its parent's high-water mark in ru_maxrss, so a large
# parent (a pytest process that ran other tests) would be measured instead
_RUSAGE = ("import resource, sys\n"
           "from congabc.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "with open('/proc/self/status') as f:\n"
           "    hwm = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
           "print(hwm, resource.getrusage(resource.RUSAGE_SELF).ru_minflt, file=sys.stderr)\n"
           "sys.exit(code)\n")


def _sieve_run_usage(max_c: int) -> tuple[float, int]:
    """(peak RSS in MB, minor page faults) of a child running lemma1 over
    c <= max_c at n 2,4 and eps 0.1,1: the sieve lane."""
    argv = ["verify", "lemma1", "--max-c", str(max_c), "--n", "2,4", "--eps", "0.1,1"]
    proc = subprocess.run([sys.executable, "-c", _RUSAGE, *argv, "--format", "json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == "pass"
    peak, minflt = map(int, proc.stderr.split()[-2:])
    return peak / 1024, minflt


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is in /proc/self/status on Linux")
def test_sieve_run_peak_rss_is_bounded_by_the_block():
    # a sieve run's peak RSS follows _BLOCK_SLOTS, not the corpus: over c <= 3000
    # (2.25M slots) it is about 41 MB in 100k-slot blocks, 51 MB in 300k-slot blocks
    # and about 170 MB in one block
    assert _sieve_run_usage(3000)[0] < 100


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt as Linux counts it")
def test_sieve_run_page_faults_follow_the_block_not_the_corpus():
    # every block after the first writes into the workspace's pages: c <= 6000 has
    # four times the slots of c <= 3000 and about as many faults (7k each).  With
    # fresh arrays in every block they were 47k and 174k
    assert _sieve_run_usage(6000)[1] < 1.5 * _sieve_run_usage(3000)[1]
