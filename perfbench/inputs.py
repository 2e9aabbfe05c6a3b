"""Seeded inputs for the three workloads, in the JSON forms eqflag loads.

Everything here is the benchmark's own code: it does not use
``eqflag.corpus``, whose generators later changes may rewrite, and it calls
eqflag only through public constructors (``MixedGraph``, ``DoublePoset``,
``order_ideals``) to filter candidates.  The same seed and pass number always
give the same inputs.

A workload runs in passes.  Pass 0 is built at set-up; later passes draw
fresh instances and relabel the fixed ones (the complex sample, the
exhaustive graphs, the README instances), so that no input is seen twice
within a run.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from collections import Counter

import eqflag

SMALL_GRAPH_CLASSES = 115   # acyclic, near-cycle-free mixed graphs on <= 4 vertices
RANDOM_GRAPHS_PER_PASS = 24  # 12 each on 5 and 6 vertices
DPOSETS_PER_PASS = 36       # 12 each on 3..5 elements
MAX_RANDOM_GRAPH_IDEALS = 24


def rng_for(workload, seed, pass_no):
    return random.Random(f"{workload}:{seed}:{pass_no}")


# ---------------------------------------------------------------- complexes

def _closure(faces):
    out = set()
    for f in faces:
        for r in range(len(f) + 1):
            out.update(frozenset(c) for c in itertools.combinations(sorted(f), r))
    return out


def random_complex(rng, d):
    """A balanced relative complex with d colours and 1-3 vertices per colour,
    drawn as in the acceptance corpus.

    Facets are random colour transversals; with probability 0.7 the closure
    of a few non-facet faces is removed, so Phi = Delta minus Gamma stays
    pure and satisfies the sandwich condition by construction.  Vertices
    that no facet uses stay in the vertex set.
    """
    sizes = [rng.randint(1, 3) for _ in range(d)]
    coloring = [c + 1 for c, size in enumerate(sizes) for _ in range(size)]
    blocks = [[v for v, c in enumerate(coloring) if c == k + 1] for k in range(d)]
    facets = {frozenset(rng.choice(b) for b in blocks)
              for _ in range(rng.randint(1, min(5, 1 + max(sizes) ** d)))}
    delta = _closure(facets)
    non_facets = sorted((f for f in delta if f not in facets), key=sorted)
    gamma = set()
    if non_facets and rng.random() < 0.7:
        gamma = _closure(rng.sample(non_facets, rng.randint(1, min(3, len(non_facets)))))
    names = [f"v{v}" for v in range(len(coloring))]
    return {
        "vertices": names,
        "colors": {names[v]: c for v, c in enumerate(coloring)},
        "num_colors": d,
        "faces": [[names[v] for v in sorted(f)]
                  for f in sorted(delta - gamma, key=lambda f: (len(f), sorted(f)))],
    }


def cost_proxy(data):
    """Faces times the order of the symmetry that permutes the unused vertices
    of one colour.  Over random complexes with d = 4 its logarithm correlates
    0.8 with the logarithm of the op's time."""
    used = {v for f in data["faces"] for v in f}
    unused = Counter(data["colors"][v] for v in data["vertices"] if v not in used)
    return len(data["faces"]) * math.prod(math.factorial(k) for k in unused.values())


# Complexes for each colour count; d = 1 has only 22 distinct inputs.
COMPLEXES_PER_D = {1: 10, 2: 25, 3: 30, 4: 35}
POOL_FACTOR = 10


def complex_sample():
    """One fixed random sample of the corpus population, the same for every
    seed.  For each d, a pool of random complexes is sorted by cost_proxy
    and sampled at evenly spaced ranks, so the sample holds the population's
    spread of cheap and costly complexes, rare costly ones included.

    The sample is fixed because op times are heavy-tailed: a fresh sample per
    seed spread ops_per_s by 0.22-0.25 (interquartile range over median, five
    seeds) even when stratified this way, more than the bound allows."""
    rng = random.Random("complex-population")
    sample = []
    for d, count in COMPLEXES_PER_D.items():
        pool = {}
        for _ in range(POOL_FACTOR * count):
            data = random_complex(rng, d)
            pool[json.dumps(data)] = data
        ranked = [pool[k] for k in sorted(pool, key=lambda k: (cost_proxy(pool[k]), k))]
        sample += [ranked[int((i + 0.5) * len(ranked) / count)] for i in range(count)]
    return sample


def relabel_complex(rng, data, tag, reorder):
    """The same complex under fresh vertex names; with reorder, also with its
    vertices and faces listed in a random order."""
    order = list(data["vertices"])
    faces = [list(f) for f in data["faces"]]
    if reorder:
        rng.shuffle(order)
        rng.shuffle(faces)
    names = {v: f"{tag}{i}" for i, v in enumerate(order)}
    return {"vertices": [names[v] for v in order],
            "colors": {names[v]: data["colors"][v] for v in order},
            "num_colors": data["num_colors"],
            "faces": [[names[v] for v in f] for f in faces]}


class ComplexSweepInputs:
    """Each pass runs the whole sample under seeded names, in a seeded order.
    Pass 0 keeps each complex's vertex order, so its outputs, which name no
    vertex, match the digests recorded for every seed; later passes reorder
    vertices and faces, so a cache keyed on the input cannot hit."""

    def __init__(self, seed):
        self.seed = seed
        self.sample = complex_sample()

    def make_pass(self, pass_no):
        rng = rng_for("complex_sweep", self.seed, pass_no)
        tag = f"s{self.seed}p{pass_no}v"
        items = [("complex", relabel_complex(rng, data, tag, reorder=pass_no > 0))
                 for data in self.sample]
        rng.shuffle(items)
        return items


# ------------------------------------------------------------------- graphs

def _canonical(n, states):
    """Least pair-state tuple over all relabelings; states maps (u, v), u < v,
    to 0 (none), 1 (undirected), 2 (u -> v) or 3 (v -> u)."""
    best = None
    for perm in itertools.permutations(range(n)):
        key = []
        for a, b in itertools.combinations(range(n), 2):
            u, v = perm[a], perm[b]
            if u < v:
                key.append(states[(u, v)])
            else:
                s = states[(v, u)]
                key.append(5 - s if s >= 2 else s)   # the edge turns round
        key = tuple(key)
        if best is None or key < best:
            best = key
    return best


def _usable(n, undirected, directed):
    g = eqflag.MixedGraph(list(range(n)), [frozenset(e) for e in undirected], directed)
    st = g.stats()
    return g.is_acyclic() and not st["near_cycles"], g


def small_graphs():
    """One representative of every acyclic, near-cycle-free mixed graph class
    on 1..4 vertices, found by the benchmark's own canonical form."""
    out = []
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for assignment in itertools.product(range(4), repeat=len(pairs)):
            states = dict(zip(pairs, assignment))
            key = _canonical(n, states)
            if key in seen:
                continue
            seen.add(key)
            und = [p for p, s in states.items() if s == 1]
            dire = [p for p, s in states.items() if s == 2]
            dire += [(v, u) for (u, v), s in states.items() if s == 3]
            ok, _ = _usable(n, und, dire)
            if ok:
                out.append((n, und, dire))
    if len(out) != SMALL_GRAPH_CLASSES:
        raise RuntimeError(f"expected {SMALL_GRAPH_CLASSES} small graph classes, "
                           f"found {len(out)}")
    return out


def relabel(rng, n, undirected, directed, tag, reorder=True):
    """The same graph under fresh vertex names; with reorder, also under a
    random vertex order."""
    perm = list(range(n))
    if reorder:
        rng.shuffle(perm)
    name = [f"{tag}{perm[v]}" for v in range(n)]
    return {"vertices": [f"{tag}{v}" for v in range(n)],
            "undirected": [[name[a], name[b]] for a, b in undirected],
            "directed": [[name[a], name[b]] for a, b in directed]}


def random_graph(rng, n, max_ideals=MAX_RANDOM_GRAPH_IDEALS):
    """An acyclic, near-cycle-free mixed graph whose compiled complex stays
    small (at most max_ideals proper ideals)."""
    while True:
        und, dire = [], []
        for u, v in itertools.combinations(range(n), 2):
            r = rng.random()
            if r < 0.25:
                und.append((u, v))
            elif r < 0.45:
                dire.append((u, v) if rng.random() < 0.5 else (v, u))
        ok, g = _usable(n, und, dire)
        if ok and len(eqflag.order_ideals(g)) - 2 <= max_ideals:
            return und, dire


def _random_orders(rng, n, tertispecial):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    while True:
        r1 = rng.sample(pairs, rng.randint(0, min(4, len(pairs))))
        r2 = rng.sample(pairs, rng.randint(0, min(4, len(pairs))))
        try:
            dp = eqflag.DoublePoset(list(range(n)), r1, r2)
        except eqflag.doubleposet.NotAPartialOrder:
            continue
        if not tertispecial or dp.is_tertispecial():
            return r1, r2


def dposet_json(n, r1, r2, names=None):
    names = names or [f"e{i}" for i in range(n)]
    return {"elements": list(names),
            "order1": [[names[a], names[b]] for a, b in r1],
            "order2": [[names[a], names[b]] for a, b in r2]}


def random_dposet(rng, n, tertispecial=False):
    """A double poset on n elements from the closures of two random relations;
    with tertispecial, only a tertispecial one (every cover of the first
    order comparable in the second)."""
    return dposet_json(n, *_random_orders(rng, n, tertispecial))


def graph_sample():
    """One fixed random sample of 5- and 6-vertex graphs and of tertispecial
    double posets on 3-5 elements, the same for every seed, as
    (n, relation, relation) triples.  Fixed for the reason given at
    complex_sample: with fresh graphs per seed, op_p90_ms of graph_sweep,
    which falls among these graphs, spread by 0.56 over nine seeds."""
    rng = random.Random("graph-population")
    graphs = [(n, *random_graph(rng, n))
              for n in (5, 6) for _ in range(RANDOM_GRAPHS_PER_PASS // 2)]
    dposets, seen = [], set()
    for n in (3, 4, 5):
        while len(dposets) < (n - 2) * DPOSETS_PER_PASS // 3:
            r1, r2 = _random_orders(rng, n, tertispecial=True)
            if json.dumps([n, r1, r2]) not in seen:
                seen.add(json.dumps([n, r1, r2]))
                dposets.append((n, r1, r2))
    return graphs, dposets


class GraphSweepInputs:
    """The 115 small graph classes and a fixed sample of larger graphs and
    double posets, under seeded names, in a seeded order.  Pass 0 keeps the
    vertex order, so its outputs, which name no vertex, match the digests
    recorded for every seed; later passes also reorder the vertices.

    The double posets are tertispecial, the class the acceptance gate checks:
    on the others the verifier's inversion-reducibility test is vacuous and
    it reports false counterexamples (see ops.KNOWN_DEFECTS)."""

    def __init__(self, seed):
        self.seed = seed
        self.small = small_graphs()
        self.graphs, self.dposets = graph_sample()

    def make_pass(self, pass_no):
        rng = rng_for("graph_sweep", self.seed, pass_no)
        tag = f"s{self.seed}p{pass_no}x"
        reorder = pass_no > 0
        items = [("small_graph", relabel(rng, *g, tag, reorder)) for g in self.small]
        items += [("graph", relabel(rng, *g, tag, reorder)) for g in self.graphs]
        for n, r1, r2 in self.dposets:
            perm = list(range(n))
            if reorder:
                rng.shuffle(perm)
            items.append(("dposet", dposet_json(
                n, [(perm[a], perm[b]) for a, b in r1], [(perm[a], perm[b]) for a, b in r2],
                [f"{tag}{i}" for i in range(n)])))
        rng.shuffle(items)
        return items


# -------------------------------------------------------------------- CLI

FIG1 = {"vertices": ["a", "b", "c", "d", "e"],
        "colors": {"a": 1, "b": 3, "c": 1, "d": 3, "e": 2},
        "num_colors": 3,
        "faces": [["e"], ["a", "e"], ["b", "e"], ["c", "e"], ["d", "e"],
                  ["a", "b", "e"], ["b", "c", "e"], ["c", "d", "e"], ["a", "d", "e"]]}
Z2 = {"degree": 5, "points": ["a", "b", "c", "d", "e"],
      "generators": [{"a": "c", "b": "d", "c": "a", "d": "b", "e": "e"}]}
EDGE = {"vertices": ["u", "v"], "undirected": [], "directed": [["u", "v"]]}
FIG3 = {"elements": ["a", "b", "c", "d"],
        "order1": [["b", "a"], ["c", "b"], ["c", "d"], ["d", "a"]],
        "order2": [["b", "a"], ["d", "c"], ["d", "a"], ["b", "c"]]}

# The heavy commands of every pass, the same for every seed up to names, so
# that each pass weighs the same: chartable on S_6 and twelve times on S_5,
# chromatic on an 8- and a 9-vertex template graph, and hilb or verify on
# complete balanced joins (block sizes, command), whose colour group has
# order prod(block sizes!), e.g. 72 for blocks 3,3,2.  Five of them take
# longer than chartable on S_5 and the two hilb joins about as long, so the
# twelve S_5 tables and the two joins hold ranks 6-19 from the top of every
# pass, and op_p90_ms, near rank 11, is the time of chartable on S_5 even
# when a few of those fourteen ops are slowed.
CHARTABLE_DEGREES = (5,) * 12 + (6,)
JOINS = (((3, 3, 2), "hilb"), ((2, 2, 2, 2), "hilb"),
         ((3, 2, 2), "intro1"), ((3, 3, 2), "eulerchar2"))
# How many of each cheap, seeded command a pass holds.  Their instances are
# small enough that every one runs faster than the heavy commands above, so
# that op_p90_ms falls among the heavy commands, whatever the seed.
CHEAP_COMMANDS = (("dpartitions", 16), ("compile_graph", 16), ("compile_dposet", 12),
                  ("graphtocomplex", 16), ("doubleposet", 16))


def _chromatic_templates():
    """An 8-vertex and a 9-vertex graph, the same for every seed:
    how long chromatic takes depends on a graph's structure far more than on
    its size, so the seed only relabels them."""
    rng = random.Random("chromatic-templates")
    out = []
    for n in (8, 9):
        while True:
            und, dire = [], []
            for u, v in itertools.combinations(range(n), 2):
                r = rng.random()
                if r < 0.3:
                    und.append((u, v))
                elif r < 0.55:
                    dire.append((u, v) if rng.random() < 0.5 else (v, u))
            if eqflag.MixedGraph(list(range(n)), [frozenset(e) for e in und],
                                 dire).is_acyclic():
                out.append((n, und, dire))
                break
    return out


def _rename(data, tag):
    """A copy of a JSON instance with every vertex, element or point name
    suffixed by tag; the mathematics is unchanged."""
    if "faces" in data:
        m = {v: v + tag for v in data["vertices"]}
        return {"vertices": [m[v] for v in data["vertices"]],
                "colors": {m[v]: c for v, c in data["colors"].items()},
                "num_colors": data["num_colors"],
                "faces": [[m[v] for v in f] for f in data["faces"]]}
    if "generators" in data:
        m = {p: p + tag for p in data["points"]}
        return {"degree": data["degree"], "points": [m[p] for p in data["points"]],
                "generators": [{m[a]: m[b] for a, b in g.items()} for g in data["generators"]]}
    if "elements" in data:
        m = {e: e + tag for e in data["elements"]}
        return {"elements": [m[e] for e in data["elements"]],
                "order1": [[m[a], m[b]] for a, b in data["order1"]],
                "order2": [[m[a], m[b]] for a, b in data["order2"]]}
    m = {v: v + tag for v in data["vertices"]}
    return {"vertices": [m[v] for v in data["vertices"]],
            "undirected": [[m[a], m[b]] for a, b in data["undirected"]],
            "directed": [[m[a], m[b]] for a, b in data["directed"]]}


def symmetric_group(rng, n, tag):
    """S_n as a group file: a random n-cycle and a transposition of two points
    adjacent on it, on freshly named points."""
    points = [f"{tag}{i}" for i in range(n)]
    cyc = points[:]
    rng.shuffle(cyc)
    shift = {cyc[i]: cyc[(i + 1) % n] for i in range(n)}
    k = rng.randrange(n)
    a, b = cyc[k], cyc[(k + 1) % n]
    swap = {p: p for p in points}
    swap[a], swap[b] = b, a
    return {"degree": n, "points": points, "generators": [shift, swap]}


def complete_join(blocks, tag):
    """All colour transversals on blocks of the given sizes."""
    names, colors = [], {}
    by_color = []
    for c, size in enumerate(blocks, start=1):
        block = [f"{tag}c{c}v{i}" for i in range(size)]
        by_color.append(block)
        names += block
        colors.update({v: c for v in block})
    faces = []
    for r in range(len(blocks) + 1):
        for cs in itertools.combinations(range(len(blocks)), r):
            faces += [list(f) for f in itertools.product(*[by_color[c] for c in cs])]
    return {"vertices": names, "colors": colors, "num_colors": len(blocks), "faces": faces}


class CliSessionInputs:
    """Commands for ``eqflag.cli.run``, each reading instance files of its
    own, written under work_dir.  A command is ("cli", spec) with spec
    holding the argv, the allowed exit codes (0: every command is valid and
    every verified theorem holds), and the content key that identifies it
    for the recorded digests."""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.chromatic_templates = _chromatic_templates()
        os.makedirs(work_dir, exist_ok=True)

    def make_pass(self, pass_no):
        rng = rng_for("cli_session", self.seed, pass_no)
        cmds = []

        def add(args, files):
            k = len(cmds)
            argv = ["--json"] + list(args)
            for flag, (stem, data) in files.items():
                path = os.path.join(self.work_dir, f"p{pass_no}_{k:03d}_{stem}.json")
                with open(path, "w") as fh:
                    json.dump(data, fh)
                argv += [flag, path]
            contents = {flag: data for flag, (_, data) in files.items()}
            cmds.append(("cli", {"argv": argv, "codes": (0,),
                                 "key": [list(args), contents]}))

        def tag():
            return f"_p{pass_no}q{len(cmds)}"

        # the README commands; pass 0 uses the README instances verbatim
        t = tag() if pass_no else ""
        fig1, z2 = _rename(FIG1, t), _rename(Z2, t)
        edge, fig3 = _rename(EDGE, t), _rename(FIG3, t)
        add(["validate"], {"--complex": ("fig1", fig1)})
        add(["hilb", "--basis", "f"], {"--complex": ("fig1", fig1), "--group": ("z2", z2)})
        add(["serre", "--depth"], {"--complex": ("fig1", fig1)})
        add(["homology"], {"--complex": ("fig1", fig1), "--group": ("z2", z2)})
        add(["chromatic"], {"--graph": ("edge", edge)})
        add(["compile"], {"--graph": ("edge", edge)})
        add(["verify", "--theorem", "restriction"], {"--complex": ("fig1", fig1)})
        add(["verify", "--theorem", "doubleposet"], {"--dposet": ("fig3", fig3)})

        for n in CHARTABLE_DEGREES:
            add(["chartable"], {"--group": (f"s{n}", symmetric_group(rng, n, "s" + tag()))})
        for blocks, command in JOINS:
            args = ["hilb"] if command == "hilb" else ["verify", "--theorem", command]
            add(args, {"--complex": ("join", complete_join(blocks, "j" + tag()))})
        for n, und, dire in self.chromatic_templates:
            add(["chromatic"], {"--graph": ("chrom", relabel(rng, n, und, dire, "g" + tag()))})

        for kind, count in CHEAP_COMMANDS:
            for _ in range(count):
                if kind == "dpartitions":
                    dp = _rename(random_dposet(rng, rng.randint(2, 5)), tag())
                    add(["dpartitions", "--max-colors", str(rng.randint(2, 4))],
                        {"--dposet": ("dp", dp)})
                elif kind == "compile_graph":
                    n = rng.choice((4, 5))
                    graph = relabel(rng, n, *random_graph(rng, n), "c" + tag())
                    add(["compile"], {"--graph": ("cg", graph)})
                elif kind == "compile_dposet":
                    dp = _rename(random_dposet(rng, rng.randint(2, 5)), tag())
                    add(["compile"], {"--dposet": ("cd", dp)})
                elif kind == "graphtocomplex":
                    n = rng.choice((3, 4))
                    graph = relabel(rng, n, *random_graph(rng, n), "t" + tag())
                    add(["verify", "--theorem", "graphtocomplex"], {"--graph": ("gc", graph)})
                else:
                    dp = _rename(random_dposet(rng, rng.randint(3, 4), tertispecial=True), tag())
                    add(["verify", "--theorem", "doubleposet"], {"--dposet": ("vd", dp)})
        rng.shuffle(cmds)
        return cmds
