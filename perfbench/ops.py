"""One op per input: the public-API pipeline of each workload, with the
outputs checked and hashed.

An op returns the digest of its exact outputs and the CLI exit code (None
outside cli_session), and raises ``OpFailed`` when an output breaks a check
that holds for every correct run.  The eqflag cross-checks stay on: h_st
compares its three computations, and the Hopf and Euler identities are
verified in every complex op.

The calls go through module attributes (``complexes.load_complex``, not a
name imported here), so that the traced run can wrap them; see spans.py.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

from eqflag import (cli, complexes, doubleposet, flags, groups, homology,
                    mixedgraph, qsym, serre)


class OpFailed(Exception):
    """An op produced a wrong or unparsable result, or a forbidden exit code."""


def canon(x):
    """A JSON-ready form of an output: exact numbers kept exact (Fractions as
    strings), floats rounded to 9 places, containers in a fixed order."""
    if isinstance(x, groups.ClassFunction):
        return [canon(v) for v in x.values]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return round(x, 9) + 0.0
    if isinstance(x, dict):
        return sorted([canon(k), canon(v)] for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(canon(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x):
    text = json.dumps(canon(x), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check(ok, what):
    if not ok:
        raise OpFailed(what)


def _qsym_values(q):
    return {s: q.coeffs[s] for s in sorted(q.coeffs)}


# ------------------------------------------------------------ complex_sweep

def complex_op(data):
    """load -> symmetry -> table, depth and flag characters, homology traces
    and the Hopf identity, Euler check, every h_{S,T}, the depth theorems,
    and the decomposition of the flag characters."""
    cx = complexes.load_complex(data)
    grp = complexes.color_automorphism_group(cx)
    action = complexes.GroupAction(cx, grp)
    table = groups.character_table(grp)
    depth = serre.serre_depth(cx)
    q = flags.hilb(cx, action, basis="M")
    qf = qsym.m_to_f(q)
    fv = flags.FlagVectors(cx, action)
    traces = homology.equivariant_homology_traces(cx.faces, grp)
    hopf_ok, _ = homology.hopf_trace_check(cx.faces, grp)
    euler = flags.verify_eulerchar2(cx, action)
    hst = {}
    for t in qsym.subsets(range(1, cx.d + 1)):
        for s in qsym.subsets(t):
            hst[(s, t)] = flags.h_st(cx, action, frozenset(s), frozenset(t))
    verdicts = {}
    if depth > 0:
        verdicts["intro1"] = flags.verify_intro1(cx, action, depth, table)["ok"]
        verdicts["intro2"] = flags.verify_intro2(cx, action, depth, table)["ok"]
        verdicts["intro3"] = flags.verify_intro3(cx, action, depth, table)["ok"]
        verdicts["restriction"] = not serre.verify_restriction_theorem(
            cx, depth)["counterexamples"]
    mults = {s: groups.decompose(cf, table) for s, cf in q.coeffs.items()}

    # f_S at the identity counts the faces of colour set S, read off the input
    colour = data["colors"]
    fibers = {}
    for f in data["faces"]:
        key = tuple(sorted(colour[v] for v in f))
        fibers[key] = fibers.get(key, 0) + 1
    _check({s: cf.at_identity for s, cf in q.coeffs.items() if cf.at_identity} == fibers,
           "flag f-character at the identity does not count the fibers")
    _check(all(m >= 0 for ms in mults.values() for m in ms),
           "a permutation character decomposed with a negative multiplicity")
    _check(hopf_ok, "Hopf trace identity fails")
    _check(euler["ok"], "Euler characteristic check fails")
    _check(all(verdicts.values()), f"theorem check fails: {verdicts}")
    return digest([grp.order, grp.num_classes, depth, _qsym_values(q), _qsym_values(qf),
                   fv.fS, fv.hS, traces, hst, verdicts, mults]), None


# -------------------------------------------------------------- graph_sweep

def _graph_common(data):
    g = mixedgraph.load_graph(data)
    grp = g.automorphism_group()
    table = groups.character_table(grp)
    chrom = mixedgraph.chromatic_qsym(g, grp)
    cx, ideals = mixedgraph.coloring_complex(g)
    return g, grp, table, chrom, cx, ideals


def _graph_verdicts(g, grp):
    g2c = mixedgraph.verify_graphtocomplex(g, grp)
    # no table here: the theorem checks inequalities on the compiled
    # complex's own group, which a table of grp does not fit
    thm = mixedgraph.verify_mixedgraph_theorem(g, grp)
    _check(g2c["ok"], "coloring function differs from the flag function")
    _check(thm["ok"], "mixed graph theorem check fails")
    return [g2c["ok"], thm["ok"], thm.get("skipped"), thm.get("m"),
            thm.get("depth_at_least_m")]


def small_graph_op(data):
    """The acceptance-style pipeline, including the colour-automorphism
    search on the compiled complex."""
    g, grp, table, chrom, cx, ideals = _graph_common(data)
    cx_grp = complexes.color_automorphism_group(cx)
    # graph automorphisms act faithfully on the ideals, so the graph group
    # is a subgroup of the compiled complex's colour automorphism group
    _check(cx_grp.order % grp.order == 0,
           "graph group order does not divide the compiled complex's group order")
    verdicts = _graph_verdicts(g, grp)
    return digest([grp.order, grp.num_classes, _qsym_values(chrom),
                   complexes.dump_complex(cx), [sorted(i) for i in ideals],
                   cx_grp.order, cx_grp.num_classes, verdicts, len(table)]), None


def graph_op(data):
    g, grp, table, chrom, cx, ideals = _graph_common(data)
    verdicts = _graph_verdicts(g, grp)
    return digest([grp.order, grp.num_classes, _qsym_values(chrom),
                   complexes.dump_complex(cx), [sorted(i) for i in ideals],
                   verdicts, len(table)]), None


def dposet_op(data):
    dp = doubleposet.load_double_poset(data)
    grp = dp.automorphism_group()
    table = groups.character_table(grp)
    omega = doubleposet.omega_qsym(dp, grp)
    g = doubleposet.to_mixed_graph(dp)
    r = doubleposet.verify_doubleposet_theorems(dp, grp, table)
    _check(r["ok"], f"double poset theorem check fails: {r['failures']}")
    return digest([grp.order, grp.num_classes, _qsym_values(omega), g.n,
                   sorted(sorted(e) for e in g.U), sorted(g.D),
                   r["tertispecial"], r["inversion_reducible"]]), None


# -------------------------------------------------------------- cli_session

def run_cli(argv):
    """Run ``eqflag.cli.run`` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def cli_op(spec):
    """One CLI command: its exit code must be allowed and its report must
    parse; the digest covers the report without its timestamps."""
    argv = spec["argv"]
    try:
        code, text = run_cli(argv)
    except SystemExit as err:   # argparse rejected the command line
        raise OpFailed(f"usage error, exit {err.code}") from None
    if code not in spec["codes"]:
        raise OpFailed(f"exit code {code}, expected one of {spec['codes']}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        raise OpFailed(f"report does not parse: {err}") from None
    report.pop("started", None)
    report.pop("elapsed", None)
    _check(report.get("command") == argv[1], "report names another command")
    return digest([code, report]), code


OPS = {"complex": complex_op, "small_graph": small_graph_op, "graph": graph_op,
       "dposet": dposet_op, "cli": cli_op}


def op_key(kind, data):
    """The digest key of an op's input.  Instances are keyed by vertex index
    instead of vertex name, since no output of the sweeps names a vertex."""
    if kind == "cli":
        return digest([kind, data["key"]])
    names = data.get("vertices") or data.get("elements") or []
    index = {v: i for i, v in enumerate(names)}
    if kind == "complex":
        form = [[data["colors"][v] for v in names], data["num_colors"],
                sorted(sorted(index[v] for v in f) for f in data["faces"])]
    else:
        form = [len(names)] + [sorted([index[a], index[b]] for a, b in data[k])
                               for k in data if k not in ("vertices", "elements")]
    return digest([kind, form])


# Defects known at the baseline, run once per run outside the timed ops
# (a workload's ops must all succeed) and reported with their outcome; a
# fix shows as "fixed" and as a lower known_defects.open count.
#   name, argv before the instance flag, instance flag, instance, exit codes
#   a correct eqflag gives
KNOWN_DEFECTS = (
    # cmd_verify builds the table on another group object: GroupMismatch
    ("verify_mixedgraph_edge", ["verify", "--theorem", "mixedgraph"], "--graph",
     {"vertices": ["u", "v"], "undirected": [], "directed": [["u", "v"]]}, (0,)),
    # its 126 proper ideals exceed the 32-vertex cap of a complex: InvalidComplex
    ("compile_7_isolated", ["compile"], "--graph",
     {"vertices": [f"w{i}" for i in range(7)], "undirected": [], "directed": []}, (0, 2)),
    # is_inversion_reducible holds for every double poset, so the verifier
    # compares the enumerators where the theorem does not apply, and reports
    # a counterexample (exit 1) for the inversion e2 < e1 that no strict
    # cover-graph edge carries
    ("verify_doubleposet_nonreducible", ["verify", "--theorem", "doubleposet"], "--dposet",
     {"elements": ["e0", "e1", "e2", "e3"],
      "order1": [["e2", "e3"], ["e3", "e1"], ["e1", "e0"]],
      "order2": [["e1", "e2"], ["e3", "e0"]]}, (0,)),
)


def probe_defects(work_dir):
    """Outcome of each known defect: 'fixed', or what happens today."""
    out = {}
    for name, args, flag, data, codes in KNOWN_DEFECTS:
        path = f"{work_dir}/defect_{name}.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        try:
            code, _ = run_cli(["--json"] + args + [flag, path])
            out[name] = "fixed" if code in codes else f"exit {code}"
        except SystemExit as err:
            out[name] = f"usage error, exit {err.code}"
        except Exception as err:   # a library error escaping cli.run
            out[name] = f"uncaught {type(err).__name__}"
    return out


# The README's quick-start values for the cone example with (a c)(b d).
README_HILB = {(2,): [1, 1], (1, 2): [2, 0], (2, 3): [2, 0], (1, 2, 3): [4, 0]}


def self_check(fig1, z2):
    """The checker itself: eqflag must reproduce the README's hilb values
    for fig1 and z2, and a digest must change when one value changes."""
    cx = complexes.load_complex(fig1)
    grp = groups.load_group(z2)
    q = flags.hilb(cx, complexes.GroupAction(cx, grp), basis="M")
    got = {s: list(cf.values) for s, cf in q.coeffs.items()}
    if got != README_HILB:
        return f"hilb of fig1 under z2 is {got}, the README says {README_HILB}"
    changed = dict(got)
    changed[(2,)] = [1, 2]
    if digest(changed) == digest(got):
        return "the digest does not see a changed value"
    return None
