"""Per-layer tracing of congabc from outside the package.

Tracer.install() rebinds the public functions at each module seam of
congabc (and mpmath.workprec, the entry to every 160-bit recheck) to
timing wrappers, in every congabc module that imported them, so calls
between modules go through a wrapper.  src/ is not edited.

Every wrapped call is a span named <layer>.<function>; the layer is the
congabc module.  Spans are kept in memory.  Leaf spans are aggregated by
name (calls, inclusive seconds, self seconds); the coarse ones (each
benchmark operation, CLI call, suite call and recheck) are also kept
one by one with start, end and parent, so report() can write them out
when the run ends.  Self time is a span's duration minus the time its
child spans cover.
"""

import contextlib
import functools
import importlib
import time

import mpmath

import congabc

# the package re-exports the function theta, so fetch modules by name
numtheory, abc_core, theta, harness, cli = (
    importlib.import_module("congabc." + m)
    for m in ("numtheory", "abc_core", "theta", "harness", "cli"))

MODULES = (congabc, numtheory, abc_core, theta, harness, cli)

# (defining module, function name, span name)
SEAMS = (
    (numtheory, "factorize", "numtheory.factorize"),
    (numtheory, "is_probable_prime", "numtheory.is_probable_prime"),
    (numtheory, "radical", "numtheory.radical"),
    (numtheory, "totient", "numtheory.totient"),
    (abc_core, "make_solution", "abc_core.make_solution"),
    (abc_core, "merit", "abc_core.merit"),
    (theta, "theta", "theta.theta"),
    (theta, "lemma_constants", "theta.lemma_constants"),
    (harness, "verify_lemma1", "harness.verify_lemma1"),
    (harness, "verify_lemma2", "harness.verify_lemma2"),
    (harness, "verify_proof_identities", "harness.verify_proof_identities"),
    (harness, "verify_reduction_chain", "harness.verify_reduction_chain"),
    (cli, "main", "cli.main"),
)

# spans also kept one by one, not only aggregated
COARSE = {"bench.op", "cli.main", "cli.serialize", "harness.recheck"} | {
    name for _, _, name in SEAMS if name.startswith("harness.verify_")}

# first positional argument at or above this takes the random-witness
# Miller-Rabin path in numtheory
BIG = 1 << 64


class NoTracer:
    """Stand-in for untraced runs."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self._stack = []  # frames: [start, child_seconds, span id or None]
        self._open_ids = []  # ids of the open coarse spans, innermost last
        self.agg = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {"numtheory.factorize.calls_ge2p64": 0,
                       "numtheory.factorize.failures": 0,
                       "numtheory.is_probable_prime.calls_ge2p64": 0,
                       "harness.checks": 0}
        self.spans = []  # [id, name, start, end, parent id]
        self.missing = []  # seams the program no longer has
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)

    def _enter(self, name):
        sid = None
        if name in COARSE:
            sid = len(self.spans)
            parent = self._open_ids[-1] if self._open_ids else None
            self.spans.append([sid, name, 0.0, 0.0, parent])
            self._open_ids.append(sid)
        self._stack.append([time.perf_counter(), 0.0, sid])

    def _exit(self, name):
        end = time.perf_counter()
        start, child_s, sid = self._stack.pop()
        dur = end - start
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_s
        if self._stack:
            self._stack[-1][1] += dur
        if sid is not None:
            self.spans[sid][2:4] = [start, end]
            self._open_ids.pop()

    def _wrap(self, name, fn):
        enter, exit_, counts = self._enter, self._exit, self.counts
        big_key = name + ".calls_ge2p64"
        count_big = big_key in counts
        failure_key = name + ".failures" if name + ".failures" in counts else None
        is_suite = name.startswith("harness.verify_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_big and args[0] >= BIG:
                counts[big_key] += 1
            enter(name)
            try:
                result = fn(*args, **kwargs)
            except numtheory.FactorizationFailure:
                if failure_key:
                    counts[failure_key] += 1
                raise
            finally:
                exit_(name)
            if is_suite:
                counts["harness.checks"] += result.checks
            return result

        return wrapper

    def _workprec(self, original):
        tracer = self

        @functools.wraps(original)
        def workprec(*args, **kwargs):
            @contextlib.contextmanager
            def timed():
                with original(*args, **kwargs), tracer.span("harness.recheck"):
                    yield

            return timed()

        return workprec

    def install(self):
        """Rebind every seam in every congabc module that holds it."""
        for home, attr, name in SEAMS:
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in MODULES:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        original = mpmath.workprec
        mpmath.workprec = self._workprec(original)
        self._undo.append((mpmath, "workprec", original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def report(self) -> dict:
        """Counts (exactly repeatable) and seconds, per span and per layer."""
        counts = dict(self.counts)
        for _, _, name in SEAMS:
            counts[name + ".calls"] = self.agg.get(name, [0])[0]
        counts["harness.recheck.calls"] = self.agg.get("harness.recheck", [0])[0]
        seconds = {name + ".s": agg[1] for name, agg in self.agg.items()}
        layer_self = {}
        for name, agg in self.agg.items():
            layer = name.split(".", 1)[0]
            layer_self[layer + ".self_s"] = layer_self.get(layer + ".self_s", 0.0) + agg[2]
        seconds.update(layer_self)
        return {"counts": counts, "seconds": seconds, "spans": self.spans,
                "missing_seams": self.missing}
