"""Command-line front-end: JSON in, reports out.

Exit codes: 0 = success / all checks pass, 1 = a verification check found a
counterexample, 2 = input error (also any library error on the input, such as
a size cap or the group-order bound), 3 = numerical failure.  With --json the
report is a single JSON document; otherwise it is printed as readable lines.
The --seed flag affects only character-table numerics, never combinatorial
output.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import complexes, doubleposet, flags, groups, homology, mixedgraph, qsym, serre


class InputError(Exception):
    pass


# What a loader raises on JSON of the wrong shape: a key missing, or a value
# of the wrong type where a list, a name or a finite number is expected.
MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError)


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}")
    except json.JSONDecodeError as err:
        raise InputError(f"{what} file {path} is not valid JSON: {err}")


def _jsonable(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else str(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set)):
        return [_jsonable(v) for v in x]
    return x


def _class_labels(group):
    return ["*".join(map(str, sorted(g.cycle_type(), reverse=True))) or "1"
            for g in group.class_reps]


def _character_report(cf, table=None):
    """Per-class values plus irreducible multiplicities (auditable form)."""
    out = {"classes": _class_labels(cf.group), "values": list(cf.values)}
    try:
        mults = groups.decompose(cf, table)
        out["multiplicities"] = mults
        out["effective"] = all(m >= 0 for m in mults)
    except groups.RoundingError as err:
        out["multiplicities"] = None
        out["decompose_error"] = str(err)
    return out


def _qsym_report(q, table=None):
    terms = []
    for s in sorted(q.coeffs, key=lambda t: (len(t), t)):
        terms.append({"subset": list(s), "character": _character_report(q.coeff(s), table)})
    return {"degree": q.degree, "basis": q.basis, "terms": terms}


def _load_complex(args):
    if not args.complex:
        raise InputError("--complex is required for this command")
    data = _load_json(args.complex, "complex")
    try:
        return complexes.load_complex(data)
    except (complexes.ComplexError, *MALFORMED) as err:
        raise InputError(f"invalid complex: {err}")


def _load_group(args, points=None):
    """The group of the --group file, on the given point order if any."""
    data = _load_json(args.group, "group")
    try:
        if points is not None:
            if set(data["points"]) != set(points):
                raise InputError("group points must match the complex vertices")
            data = dict(data, points=points)
        return groups.load_group(data, bound=args.bound)
    except (groups.GroupError, *MALFORMED) as err:
        raise InputError(f"invalid group: {err}")


def _load_group_for(cx, args):
    """Group from --group on the complex's vertex order, or the full color
    automorphism group when no file is given."""
    if args.group:
        return _load_group(args, points=list(cx.vertices))
    return complexes.color_automorphism_group(cx, bound=args.bound)


def _load_graph(args):
    if not args.graph:
        raise InputError("--graph is required for this command")
    data = _load_json(args.graph, "graph")
    try:
        return mixedgraph.load_graph(data)
    except (mixedgraph.GraphError, *MALFORMED) as err:
        raise InputError(f"invalid graph: {err}")


def _load_dposet(args):
    if not args.dposet:
        raise InputError("--dposet is required for this command")
    data = _load_json(args.dposet, "double poset")
    try:
        return doubleposet.load_double_poset(data)
    except (doubleposet.PosetError, *MALFORMED) as err:
        raise InputError(f"invalid double poset: {err}")


def cmd_validate(args, report):
    if args.complex:
        data = _load_json(args.complex, "complex")
        try:
            cx = complexes.ColoredRelativeComplex(
                list(data["vertices"]),
                [int(data["colors"][v]) for v in data["vertices"]],
                int(data["num_colors"]),
                [frozenset(data["vertices"].index(v) for v in f) for f in data["faces"]],
                check=False)
        except MALFORMED as err:
            raise InputError(f"malformed complex: {err}")
        problems = cx.validate()
        report["problems"] = problems
        if problems:
            raise InputError("; ".join(problems[:3]))
        return 0
    if args.graph:
        _load_graph(args)
        report["problems"] = []
        return 0
    if args.dposet:
        _load_dposet(args)
        report["problems"] = []
        return 0
    raise InputError("nothing to validate: pass --complex, --graph, or --dposet")


def cmd_chartable(args, report):
    if not args.group:
        raise InputError("--group is required")
    grp = _load_group(args)
    table = groups.character_table(grp, seed=args.seed)
    report["order"] = grp.order
    report["classes"] = _class_labels(grp)
    report["class_sizes"] = list(grp.class_sizes)
    report["irreducibles"] = [[_jsonable(v) for v in chi.values]
                              for chi in table.irreducibles]
    report["degrees"] = table.degrees
    return 0


def cmd_hilb(args, report):
    cx = _load_complex(args)
    grp = _load_group_for(cx, args)
    action = complexes.GroupAction(cx, grp)
    table = groups.character_table(grp, seed=args.seed)
    basis = args.basis.upper()
    if basis not in ("M", "F"):
        raise InputError("--basis must be m or f")
    q = flags.hilb(cx, action, basis=basis)
    report["hilb"] = _qsym_report(q, table)
    return 0


def cmd_orbital(args, report):
    cx = _load_complex(args)
    grp = _load_group_for(cx, args)
    action = complexes.GroupAction(cx, grp)
    q = flags.orbital_hilb(cx, action)
    report["orbital"] = {"terms": [{"subset": list(s), "orbits": q.coeff(s).at_identity}
                                   for s in sorted(q.coeffs, key=lambda t: (len(t), t))]}
    return 0


def cmd_homology(args, report):
    cx = _load_complex(args)
    faces = cx.faces
    if args.restrict:
        s = frozenset(int(c) for c in args.restrict.split(","))
        faces = cx.color_restriction(s)
        report["restricted_to"] = sorted(s)
    report["betti"] = {str(d): b for d, b in homology.betti(faces).items()}
    if args.group:
        grp = _load_group_for(cx, args)
        traces = homology.equivariant_homology_traces(faces, grp)
        table = groups.character_table(grp, seed=args.seed)
        report["characters"] = {str(d): _character_report(cf, table)
                                for d, cf in traces.items()}
    return 0


def cmd_serre(args, report):
    cx = _load_complex(args)
    if args.depth:
        report["depth"] = serre.serre_depth(cx)
        report["relatively_cm"] = report["depth"] == cx.d
        return 0
    if args.ell is None:
        raise InputError("pass --ell L or --depth")
    ok, witness = serre.satisfies_serre(cx, args.ell)
    report["ell"] = args.ell
    report["satisfied"] = ok
    if witness:
        sigma, i = witness
        report["witness"] = {"face": cx.label(sigma), "degree": i}
    return 0 if ok else 1


def cmd_flags(args, report):
    cx = _load_complex(args)
    grp = _load_group_for(cx, args)
    action = complexes.GroupAction(cx, grp)
    table = groups.character_table(grp, seed=args.seed)
    fv = flags.FlagVectors(cx, action)
    report["classes"] = _class_labels(grp)
    report["fS"] = {",".join(map(str, s)) or "-": list(fv.fS[s].values) for s in fv.fS}
    report["hS"] = {",".join(map(str, s)) or "-": _character_report(fv.hS[s], table)
                    for s in fv.hS}
    report["f"] = [list(c.values) for c in fv.fi]
    report["h"] = [list(c.values) for c in fv.hi]
    return 0


def cmd_chromatic(args, report):
    g = _load_graph(args)
    if g.n > mixedgraph.MAX_QSYM_VERTICES:
        raise mixedgraph.SizeBound(f"capped at {mixedgraph.MAX_QSYM_VERTICES} vertices")
    grp = g.automorphism_group(bound=args.bound)
    table = groups.character_table(grp, seed=args.seed)
    q = mixedgraph.chromatic_qsym(g, grp)
    report["stats"] = {k: _jsonable(v) for k, v in g.stats().items()}
    report["chromatic"] = _qsym_report(q, table)
    return 0


def cmd_dpartitions(args, report):
    dp = _load_dposet(args)
    counts = {k: len(dp.d_partitions(k)) for k in range(1, args.max_colors + 1)}
    report["counts"] = counts
    return 0


def cmd_compile(args, report):
    if args.graph:
        g = _load_graph(args)
        cx, ideals = mixedgraph.coloring_complex(g)
        out = complexes.dump_complex(cx)
        out["ideals"] = [sorted(g.vertices[v] for v in i) for i in ideals]
        report["complex"] = out
        return 0
    if args.dposet:
        dp = _load_dposet(args)
        g = doubleposet.to_mixed_graph(dp)
        report["graph"] = {
            "vertices": list(g.vertices),
            "undirected": [sorted(g.vertices[v] for v in e) for e in sorted(g.U, key=sorted)],
            "directed": [[g.vertices[u], g.vertices[v]] for u, v in sorted(g.D)],
        }
        return 0
    raise InputError("pass --graph (graph to complex) or --dposet (double poset to graph)")


def cmd_verify(args, report):
    thm = args.theorem
    report["theorem"] = thm
    if thm == "restriction":
        cx = _load_complex(args)
        r = serre.verify_restriction_theorem(cx, args.ell)
        report.update(_jsonable(r))
        return 0 if not r["counterexamples"] else 1
    if thm in ("eulerchar2", "intro1", "intro2", "intro3", "interpretation"):
        cx = _load_complex(args)
        grp = _load_group_for(cx, args)
        action = complexes.GroupAction(cx, grp)
        table = groups.character_table(grp, seed=args.seed)
        ell = args.ell if args.ell is not None else serre.serre_depth(cx)
        report["ell"] = ell
        if thm == "eulerchar2":
            r = flags.verify_eulerchar2(cx, action)
        elif thm in ("intro1", "interpretation"):
            # intro1 includes the homology-form (interpretation) comparison
            r = flags.verify_intro1(cx, action, ell, table)
        elif thm == "intro2":
            r = flags.verify_intro2(cx, action, ell, table)
        else:
            r = flags.verify_intro3(cx, action, ell, table)
        report.update(_jsonable(r))
        return 0 if r["ok"] else 1
    if thm == "graphtocomplex":
        g = _load_graph(args)
        r = mixedgraph.verify_graphtocomplex(g, g.automorphism_group(bound=args.bound))
        report.update(_jsonable(r))
        return 0 if r["ok"] else 1
    if thm == "mixedgraph":
        g = _load_graph(args)
        grp = g.automorphism_group(bound=args.bound)
        table = groups.character_table(grp, seed=args.seed)
        r = mixedgraph.verify_mixedgraph_theorem(g, grp, table)
        report.update(_jsonable(r))
        return 0 if r["ok"] else 1
    if thm == "doubleposet":
        dp = _load_dposet(args)
        grp = dp.automorphism_group(bound=args.bound)
        table = groups.character_table(grp, seed=args.seed)
        r = doubleposet.verify_doubleposet_theorems(dp, grp, table)
        report.update(_jsonable(r))
        return 0 if r["ok"] else 1
    raise InputError(f"unknown theorem: {thm}")


# The base classes of every error the library raises on its own input.
LIBRARY_ERRORS = (complexes.ComplexError, groups.GroupError, mixedgraph.GraphError,
                  doubleposet.PosetError, qsym.QSymError, homology.HomologyError,
                  flags.FlagError)

COMMANDS = {
    "validate": cmd_validate,
    "chartable": cmd_chartable,
    "hilb": cmd_hilb,
    "orbital": cmd_orbital,
    "homology": cmd_homology,
    "serre": cmd_serre,
    "flags": cmd_flags,
    "chromatic": cmd_chromatic,
    "dpartitions": cmd_dpartitions,
    "compile": cmd_compile,
    "verify": cmd_verify,
}


def _global_flags(default):
    """The flags every command takes, before or after its name.

    The copy on the subcommands defaults to SUPPRESS, so that a flag given
    before the subcommand is not overwritten by the subcommand's default.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", action="store_true", default=default(False),
                   help="emit the report as JSON")
    p.add_argument("--seed", type=int, default=default(0),
                   help="seed for character-table numerics only")
    p.add_argument("--bound", type=int, default=default(groups.DEFAULT_ORDER_BOUND),
                   help="cap on the order of every group the command builds")
    return p


def build_parser():
    p = argparse.ArgumentParser(prog="eqflag", parents=[_global_flags(lambda v: v)],
                                description="equivariant flag enumeration toolkit")
    after = _global_flags(lambda v: argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, parents=[after])
        sp.add_argument("--complex")
        sp.add_argument("--group")
        sp.add_argument("--graph")
        sp.add_argument("--dposet")
        if name == "hilb":
            sp.add_argument("--basis", default="m")
        if name == "homology":
            sp.add_argument("--restrict")
        if name == "serre":
            sp.add_argument("--ell", type=int)
            sp.add_argument("--depth", action="store_true")
        if name == "dpartitions":
            sp.add_argument("--max-colors", dest="max_colors", type=int, required=True)
        if name == "verify":
            sp.add_argument("--theorem", required=True)
            sp.add_argument("--ell", type=int)
    return p


# Built once: parse_args keeps no state between calls.
PARSER = build_parser()


def _emit(report, as_json):
    if as_json:
        print(json.dumps(_jsonable(report), indent=2))
        return
    def simple(v):
        if isinstance(v, (int, float, str, bool)) or v is None:
            return True
        if isinstance(v, (list, tuple)):
            return all(simple(x) for x in v)
        return False

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if simple(v) or not v:
                    print(f"{pad}{k}: {_jsonable(v)}")
                else:
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
        elif isinstance(obj, list):
            for v in obj:
                if simple(v):
                    print(f"{pad}{_jsonable(v)}")
                else:
                    walk(v, indent)
        else:
            print(f"{pad}{_jsonable(obj)}")
    walk(report)


def run(argv):
    args = PARSER.parse_args(argv)
    report = {"command": args.command, "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
    t0 = time.time()
    try:
        code = COMMANDS[args.command](args, report)
    except InputError as err:
        code, report["error"] = 2, str(err)
    except (groups.RoundingError, groups.NumericalDegeneracy) as err:
        code, report["error"] = 3, f"numerical failure: {err}"
    except LIBRARY_ERRORS as err:
        code, report["error"] = 2, f"{type(err).__name__}: {err}"
    report["elapsed"] = round(time.time() - t0, 3)
    _emit(report, args.json)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
