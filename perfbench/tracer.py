"""In-memory spans and counters around oligocat's public functions.

`install()` wraps the functions from outside: a function is replaced in
every loaded oligocat module namespace that holds it (modules import each
other's functions by name), a method on its class.  Coarse functions get a
span (name, start, end, parent); hot inner boundaries get a counter only,
because a timer on each call would cost more than the call.

Self time is a span's duration minus the time its child spans cover.
"""

import json
import sys
import time
from collections import Counter

SUITES = ("integration-laws", "matrix-laws", "category-laws", "sym-oracle",
          "order-counts", "glq-identities", "boron", "rado-demo")


class Tracer:
    def __init__(self):
        self.names = []              # span name per name id
        self.spans = []              # (name id, start, end, parent index)
        self.stack = []              # open frames, see _Frame
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  `before(args)` returns a state that
        `after(args, result, state, frame)` receives when fn returns."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time

        def wrapped(*args, **kwargs):
            state = before(args) if before else None
            parent = stack[-1].index if stack else -1
            frame = _Frame(len(spans), name)
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[frame.index] = (name_id, start, end, parent)
                if stack:
                    stack[-1].child_time += duration
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - frame.child_time
            if after:
                after(args, result, state, frame)
            return result
        wrapped.__wrapped__ = fn
        return wrapped

    def counter(self, name, fn, under=None):
        """Wrap fn in a call counter.  Calls made while the innermost open
        span is named `under` are also counted on that frame."""
        counts, stack = self.counts, self.stack

        def wrapped(*args, **kwargs):
            counts[name] += 1
            if under is not None and stack and stack[-1].name == under:
                stack[-1].inner += 1
            return fn(*args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def dump(self, path):
        """Write the recorded spans as JSON: names and [name, start, end,
        parent] rows, times in seconds of time.perf_counter()."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts)}


class _Frame:
    __slots__ = ("index", "name", "child_time", "inner")

    def __init__(self, index, name):
        self.index = index
        self.name = name
        self.child_time = 0.0
        self.inner = 0


def _replace_everywhere(orig, wrapped):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "oligocat" or mod_name.startswith("oligocat."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)


def install() -> Tracer:
    """Wrap oligocat's public functions; call after importing what the
    workload uses and before binding any of its names."""
    from oligocat import (category, fraisse, glqmeasure, integration,
                          matrixalg, ordercontext, scalar, symcontext)
    tr = Tracer()

    def function(module, attr, name, **hooks):
        orig = getattr(module, attr)
        _replace_everywhere(orig, tr.span(name, orig, **hooks))

    def method(cls, attr, name, **hooks):
        setattr(cls, attr, tr.span(name, cls.__dict__[attr], **hooks))

    # orbit enumeration: canonicalize calls made directly under orbits, and
    # the orbits returned by the calls that enumerated (cache misses)
    for module, cls in ((symcontext, symcontext.SymContext),
                        (ordercontext, ordercontext.OrderContext)):
        layer = module.__name__.rsplit(".", 1)[1]
        orbits_span = f"{layer}.orbits"

        def kept(args, result, state, frame, layer=layer):
            if frame.inner:
                tr.counts[f"{layer}.enum.orbits"] += len(result)
                tr.counts[f"{layer}.enum.canonicalize"] += frame.inner

        method(cls, "orbits", orbits_span, after=kept)
        method(cls, "measure", f"{layer}.measure")
        cls.canonicalize = tr.counter(f"{layer}.canonicalize",
                                      cls.__dict__["canonicalize"],
                                      under=orbits_span)
        cls.image_orbit = tr.counter(f"{layer}.image_orbit",
                                     cls.__dict__["image_orbit"])
        cls.push_orbit = tr.counter(f"{layer}.push_orbit",
                                    cls.__dict__["push_orbit"])

    def pull_before(args):
        return len(integration._pull_index)

    def pull_after(args, result, before_len, frame):
        f, psi = args
        if len(integration._pull_index) > before_len:
            index = integration._pull_index[(psi.ctx, f, psi.level)]
            tr.counts["integration.pull_index.orbits"] += sum(
                len(v) for v in index.values())
        tr.counts["integration.pull.terms"] += len(result.terms)

    def push_before(args):
        tr.counts["integration.pushforward.terms"] += len(args[1].terms)

    def matmul_before(args):
        b, a = args
        tr.counts["matrixalg.matmul.support_pairs"] += (
            len(b.entries.terms) * len(a.entries.terms))

    function(integration, "pullback", "integration.pullback",
             before=pull_before, after=pull_after)
    function(integration, "pushforward", "integration.pushforward",
             before=push_before)
    function(integration, "change_level", "integration.change_level")
    function(matrixalg, "matmul", "matrixalg.matmul", before=matmul_before)
    function(matrixalg, "trace", "matrixalg.trace")
    function(matrixalg, "char_series", "matrixalg.char_series")
    method(matrixalg.EndAlgebra, "structure_constants",
           "matrixalg.structure_constants")
    for attr in ("tensor", "zigzag", "idempotent_decompose"):
        function(category, attr, f"category.{attr}")
    for attr in ("verify_measure", "enumerate_amalgamations",
                 "boron_theta_witness", "rado_invariant_check"):
        function(fraisse, attr, f"fraisse.{attr}")
    for attr in ("check_q_pascal", "grassmann_structure_constants"):
        method(glqmeasure.QContext, attr, f"glqmeasure.{attr}")
    function(glqmeasure, "count_spanning_pairs",
             "glqmeasure.count_spanning_pairs")

    poly = scalar.Poly
    mul, add = poly.__dict__["__mul__"], poly.__dict__["__add__"]
    poly.__mul__ = poly.__rmul__ = tr.counter("scalar.poly_mul", mul)
    poly.__add__ = poly.__radd__ = tr.counter("scalar.poly_add", add)

    if "oligocat.verify" in sys.modules:
        from oligocat import cli, verify
        function(verify, "run_suites", "verify.run_suites")
        for suite in SUITES:
            attr = "suite_" + suite.replace("-", "_")
            function(verify, attr, f"verify.{suite}")
        function(cli, "main", "cli.main")
    return tr
