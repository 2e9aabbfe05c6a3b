"""Per-layer spans and counts for the traced run, recorded from outside eqflag.

While a traced pass runs, the public functions listed in TARGETS are
replaced by wrappers that record a span (name, start, end, parent span, op
id) and update exact work counts.  A wrapper replaces every binding of the
function inside the eqflag package, so calls that one layer makes into
another (``flags.verify_intro1`` calling ``flags.h_st``, the CLI calling
``groups.character_table``) are spanned too.  Spans stay in memory until
the run ends; self times are derived from them afterwards.

Untraced passes run with nothing replaced.
"""
from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

from eqflag import groups


# Counters get the tracer's Counter, the call's positional arguments and
# its result.
def _color_aut(c, args, grp):
    blocks = Counter(args[0].coloring).values()
    c["complexes.color_automorphism_group.candidates"] += math.prod(
        math.factorial(k) for k in blocks)
    c["complexes.color_automorphism_group.found"] += grp.order


def _table(c, args, table):
    c["groups.order_sum"] += args[0].order
    c["groups.classes_sum"] += args[0].num_classes


def _cells(c, args, _):
    c["homology.cells"] += len(args[0])


def _delta(c, args, _):
    c["serre.delta_faces"] += len(args[0].delta)


def _pairs(c, args, _):
    c["flags.h_st.pairs"] += 1


def _graph_aut(c, args, grp):
    c["mixedgraph.automorphism_group.candidates"] += math.factorial(args[0].n)


def _poset_aut(c, args, grp):
    c["doubleposet.automorphism_group.candidates"] += math.factorial(args[0].n)


def _compiled(c, args, result):
    cx, ideals = result
    c["mixedgraph.ideals"] += len(ideals)
    c["mixedgraph.compiled_faces"] += len(cx.faces)


def _verdict(c, args, report):
    c["verifiers.counterexamples"] += len(report.get("failures")
                                          or report.get("counterexamples") or [])


# (module, attribute, span name, counter); a dotted attribute is a method.
TARGETS = (
    ("complexes", "load_complex", "complexes.load_complex", None),
    ("complexes", "color_automorphism_group", "complexes.color_automorphism_group", _color_aut),
    ("groups", "close_group", "groups.close_group", None),
    ("groups", "character_table", "groups.character_table", _table),
    ("groups", "decompose", "groups.decompose", None),
    ("qsym", "m_to_f", "qsym.m_to_f", None),
    ("homology", "equivariant_homology_traces", "homology.equivariant_homology_traces", _cells),
    ("homology", "hopf_trace_check", "homology.hopf_trace_check", None),
    ("serre", "serre_depth", "serre.serre_depth", _delta),
    ("serre", "verify_restriction_theorem", "serre.verify_restriction_theorem", _verdict),
    ("flags", "hilb", "flags.hilb", None),
    ("flags", "FlagVectors", "flags.FlagVectors", None),
    ("flags", "h_st", "flags.h_st", _pairs),
    ("flags", "verify_eulerchar2", "verifiers.verify_eulerchar2", _verdict),
    ("flags", "verify_intro1", "verifiers.verify_intro1", _verdict),
    ("flags", "verify_intro2", "verifiers.verify_intro2", _verdict),
    ("flags", "verify_intro3", "verifiers.verify_intro3", _verdict),
    ("mixedgraph", "MixedGraph.automorphism_group", "mixedgraph.automorphism_group", _graph_aut),
    ("mixedgraph", "chromatic_qsym", "mixedgraph.chromatic_qsym", None),
    ("mixedgraph", "coloring_complex", "mixedgraph.coloring_complex", _compiled),
    ("mixedgraph", "verify_graphtocomplex", "verifiers.verify_graphtocomplex", _verdict),
    ("mixedgraph", "verify_mixedgraph_theorem", "verifiers.verify_mixedgraph_theorem", _verdict),
    ("doubleposet", "DoublePoset.automorphism_group", "doubleposet.automorphism_group",
     _poset_aut),
    ("doubleposet", "omega_qsym", "doubleposet.omega_qsym", None),
    ("doubleposet", "verify_doubleposet_theorems", "verifiers.verify_doubleposet_theorems",
     _verdict),
)

# Errors of the floating-point character table, counted where they escape
# (an exact table may remove them).
TABLE_ERRORS = tuple(getattr(groups, name) for name in ("NumericalDegeneracy", "RoundingError")
                     if hasattr(groups, name))


class Tracer:
    """Spans as [name, start, end, parent index, op id], plus counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op_id = None
        self._patches = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def run_op(self, op_id, fn, arg, layer=None):
        """Run one op inside a top-level span; layer names an extra span
        around the whole call (the CLI subcommand)."""
        self.op_id = op_id
        self._open("op")
        try:
            if layer is None:
                return fn(arg)
            self._open(layer)
            try:
                return fn(arg)
            finally:
                self._close()
        finally:
            self._close()
            self.op_id = None

    def wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except TABLE_ERRORS:
                tracer.counts["groups.table_errors"] += 1
                raise
            finally:
                tracer._close()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def install(self):
        """Replace every eqflag binding of each target with its wrapper.
        A target that no longer exists is skipped."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "eqflag" or name.startswith("eqflag."))]
        for module_name, attr, span, count in TARGETS:
            owner = sys.modules.get(f"eqflag.{module_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                continue
            wrapper = self.wrap(span, original, count)
            if len(path) > 1:      # a method: patch the class
                self._patches.append((owner, path[-1], original))
                setattr(owner, path[-1], wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def self_times(self):
        """Per span name: (self seconds, calls).  Self time is a span's
        duration minus the time its child spans cover; the self time of the
        op spans themselves is reported as "other"."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            key = "other" if name == "op" else name
            out[key][0] += end - start - child[i]
            out[key][1] += 1
        total = sum(end - start for name, start, end, _, _ in self.spans if name == "op")
        return dict(out), total
