"""Mixed graphs: coloring enumeration, cycle statistics, and the compilation
to a balanced relative complex of stable chains of order ideals.

A mixed graph has undirected edges (coloring constraint: different values)
and directed edges (constraint: weakly increasing values).  A mixed cycle is
a simple cycle of the underlying graph using at least one directed and at
least one undirected edge; m(G) is the least number of undirected edges on
such a cycle (n when none exist).  A mixed cycle is coherent when its
directed edges can all be traversed forward going around once.
"""
from __future__ import annotations

from itertools import product

from .complexes import (MAX_VERTICES, ColoredRelativeComplex, GroupAction,
                        InvalidComplex)
from .groups import (DEFAULT_ORDER_BOUND, PermGroup, Permutation,
                     automorphism_search, close_group)
from .qsym import from_masks

MAX_CYCLE_VERTICES = 12
MAX_QSYM_VERTICES = 10


class GraphError(Exception):
    pass


class SizeBound(GraphError):
    pass


class NotAcyclic(GraphError):
    pass


class MixedGraph:
    """Vertices 0..n-1 with labels; U: frozenset pairs; D: ordered pairs.

    A directed edge (u, v) constrains f(u) <= f(v).
    """

    def __init__(self, vertices, undirected, directed, allow_strict=False):
        self.vertices = list(vertices)
        self.n = len(self.vertices)
        self.U = frozenset(frozenset(e) for e in undirected)
        self.D = frozenset((u, v) for u, v in directed)
        for e in self.U:
            if len(e) != 2:
                raise GraphError(f"undirected edge {set(e)} is not a pair")
        for e in (*self.U, *self.D):
            if any(v not in range(self.n) for v in e):
                raise GraphError(f"edge {tuple(e)} leaves 0..{self.n - 1}")
        for u, v in self.D:
            if u == v:
                raise GraphError("self-loop")
            if not allow_strict and frozenset((u, v)) in self.U:
                # a pair carrying both edges means a strict constraint
                # f(u) < f(v); permitted only where explicitly requested
                # (cover graphs of double posets)
                raise GraphError(f"edge {{{u},{v}}} is both directed and undirected")

    def underlying_pairs(self):
        return self.U | {frozenset(e) for e in self.D}

    def is_acyclic(self):
        """No directed cycle among the directed edges."""
        adj = {v: [] for v in range(self.n)}
        for u, v in self.D:
            adj[u].append(v)
        state = [0] * self.n
        def dfs(v):
            state[v] = 1
            for w in adj[v]:
                if state[w] == 1 or (state[w] == 0 and dfs(w)):
                    return True
            state[v] = 2
            return False
        return not any(state[v] == 0 and dfs(v) for v in range(self.n))

    def simple_cycles(self):
        """Vertex sequences of simple cycles of the underlying graph (length
        >= 3), each reported once."""
        if self.n > MAX_CYCLE_VERTICES:
            raise SizeBound(f"cycle enumeration capped at {MAX_CYCLE_VERTICES} vertices")
        pairs = self.underlying_pairs()
        adj = {v: set() for v in range(self.n)}
        for e in pairs:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        cycles = []

        def extend(path, visited):
            start = path[0]
            last = path[-1]
            for w in sorted(adj[last]):
                if w == start and len(path) >= 3:
                    # canonical: start is smallest, second < last
                    if path[1] < path[-1]:
                        cycles.append(tuple(path))
                elif w > start and w not in visited:
                    visited.add(w)
                    path.append(w)
                    extend(path, visited)
                    path.pop()
                    visited.remove(w)

        for s in range(self.n):
            extend([s], {s})
        return cycles

    def cycle_edge_counts(self, cycle):
        """(undirected count, directed count, coherent) for a vertex cycle.

        A pair carrying both edge kinds counts toward both tallies.  Coherent
        means some traversal direction takes every purely directed edge
        forward; pairs that also carry an undirected edge do not constrain
        the direction.
        """
        u_count = 0
        d_count = 0
        fwd = back = True
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            und = frozenset((a, b)) in self.U
            if und:
                u_count += 1
            has_ab, has_ba = (a, b) in self.D, (b, a) in self.D
            if has_ab or has_ba:
                d_count += 1
                if not und:
                    fwd = fwd and has_ab
                    back = back and has_ba
        return u_count, d_count, fwd or back

    def stats(self):
        """Acyclicity, near cycles, m(G), and the least feasible color count."""
        mixed = []
        coherent = []
        for cyc in self.simple_cycles():
            u_count, d_count, coh = self.cycle_edge_counts(cyc)
            if d_count >= 1 and u_count >= 1:
                mixed.append((cyc, u_count))
                if coh:
                    coherent.append((cyc, u_count))
        near = [cyc for cyc, u in mixed if len(cyc) == 3 and u == 1]
        m = min((u for _, u in mixed), default=self.n)
        m_coh = min((u for _, u in coherent), default=self.n)
        return {
            "acyclic": self.is_acyclic(),
            "mixed_cycles": mixed,
            "coherent_mixed_cycles": coherent,
            "near_cycles": near,
            "m": m,
            "m_coherent": m_coh,
            "chrom_min": self.chrom_min(),
        }

    def is_weak_coloring(self, f):
        return (all(f[u] != f[v] for e in self.U for u, v in [sorted(e)])
                and all(f[u] <= f[v] for u, v in self.D))

    def weak_colorings(self, k, perm=None):
        """All weak colorings with values in 1..k (fixed by perm if given)."""
        if k ** self.n > 10 ** 8:
            raise SizeBound("coloring enumeration too large")
        out = []
        for f in product(range(1, k + 1), repeat=self.n):
            if not self.is_weak_coloring(f):
                continue
            if perm is not None and any(f[perm(v)] != f[v] for v in range(self.n)):
                continue
            out.append(f)
        return out

    def count_weak_colorings(self, k, perm=None):
        return len(self.weak_colorings(k, perm))

    def chrom_min(self):
        """Least k admitting a weak coloring, None if there is none: the
        fewest steps of a level chain (see `level_chain_qsym`), found by a
        breadth-first search over the prefix sets."""
        if self.n > MAX_CYCLE_VERTICES:
            raise SizeBound(f"capped at {MAX_CYCLE_VERTICES} vertices")
        _, steps = _step_rule([(v,) for v in range(self.n)], self.U, self.D)
        full = (1 << self.n) - 1
        level, seen, k = {0}, {0}, 0
        while level:
            if full in level:
                return k
            level = {j for i in level for j in steps(i) if j not in seen}
            seen |= level
            k += 1
        return None

    def automorphism_group(self, bound=DEFAULT_ORDER_BOUND):
        """All vertex permutations preserving both edge sets."""
        relations = [("U", e) for e in self.U] + [("D", a) for a in self.D]
        return automorphism_search([0] * self.n, relations, bound)

    def __repr__(self):
        return f"MixedGraph(n={self.n}, |U|={len(self.U)}, |D|={len(self.D)})"


def _step_rule(blocks, apart, arcs):
    """The steps of level chains whose prefixes are unions of `blocks`, the
    disjoint vertex tuples covering 0..n-1; a set of blocks is a bitmask B
    over their indices.  Returns (vmask, steps): vmask[B] is the vertex
    bitmask of B, and steps(I) yields every J > I such that I -> J is a step:
    J - I holds no `apart` pair, and J holds u for each arc (u, v) with v in
    J."""
    n = sum(map(len, blocks))
    conflict, pred = [0] * n, [0] * n
    for u, v in apart:
        conflict[u] |= 1 << v
        conflict[v] |= 1 << u
    for u, v in arcs:
        pred[v] |= 1 << u
    vmask = [0] * (1 << len(blocks))
    cmask, pmask = vmask[:], vmask[:]
    for b in range(1, len(vmask)):
        low = b & -b
        vmask[b], cmask[b], pmask[b] = vmask[b ^ low], cmask[b ^ low], pmask[b ^ low]
        for v in blocks[low.bit_length() - 1]:
            vmask[b] |= 1 << v
            cmask[b] |= conflict[v]
            pmask[b] |= pred[v]

    def steps(i):
        rest = sub = (len(vmask) - 1) & ~i
        while sub:
            if not (cmask[sub] & vmask[sub] or pmask[sub] & ~vmask[i | sub]):
                yield i | sub
            sub = (sub - 1) & rest

    return vmask, steps


def level_chain_qsym(n, apart, arcs, group):
    """The M-basis class function of level chains: chains of vertex sets from
    the empty set to 0..n-1 whose steps are those of `_step_rule`.  They are
    the level-set sequences of the maps f onto some 1..k with f(u) != f(v) on
    apart pairs and f(u) <= f(v) on arcs.  The coefficient of S counts, per
    conjugacy class, the fixed chains whose proper nonempty prefix sizes are
    S; a chain is fixed by g exactly when each prefix is a union of cycles
    of g (Stanley, EC1 2nd ed., section 3.15), so one dynamic program over
    those unions per class representative counts them, keyed by the bitmask
    of S (size s at bit s - 1)."""
    rows = {}
    for k, rep in enumerate(group.class_reps):
        vmask, steps = _step_rule(rep.cycles(), apart, arcs)
        counts = [{} for _ in vmask]
        counts[0][0] = 1
        for i in range(len(vmask) - 1):
            here, counts[i] = counts[i], None
            if here and i:
                bit = 1 << (vmask[i].bit_count() - 1)
                here = {key | bit: c for key, c in here.items()}
            for j in steps(i) if here else ():
                there = counts[j]
                for key, c in here.items():
                    there[key] = there.get(key, 0) + c
        for m, count in counts[-1].items():
            rows.setdefault(m, [0] * group.num_classes)[k] = count
    return from_masks(n, group, "M", rows)


def chromatic_qsym(g, group=None):
    """The weak-coloring quasisymmetric class function, degree n, M basis.

    The M-coefficient of the subset S encoding the composition
    (s1, s2-s1, ..., n-sk) counts, per conjugacy class, the fixed weak
    colorings onto [k+1] with those level-set sizes: the level chains of
    `level_chain_qsym` with the undirected edges apart and the directed
    edges as arcs.
    """
    if g.n > MAX_QSYM_VERTICES:
        raise SizeBound(f"capped at {MAX_QSYM_VERTICES} vertices")
    if group is None:
        group = close_group([], degree=g.n)
    return level_chain_qsym(g.n, g.U, g.D, group)


def order_ideals(g):
    """Order ideals of the transitive closure of the directed edges,
    including the empty and full sets, sorted by (size, membership)."""
    return list(_ideals_by_size(g))


def _ideals_by_size(g):
    """The order ideals in the order of order_ideals, generated one size at a
    time from the ideals one smaller, so that a caller can stop early."""
    if not g.is_acyclic():
        raise NotAcyclic("directed part has a cycle")
    # an ideal holds the predecessors of its predecessors, so adding v keeps
    # it an ideal once the direct predecessors of v are in it
    pred = {v: {u for u, w in g.D if w == v} for v in range(g.n)}
    layer = [frozenset()]
    while layer:
        yield from layer
        grown = {i | {v} for i in layer for v in range(g.n)
                 if v not in i and pred[v] <= i}
        layer = sorted(grown, key=sorted)


def _stable(g, small, big):
    return not any(e <= (big - small) for e in g.U)


def coloring_complex(g):
    """The complex of stable chains of proper nonempty order ideals.

    Vertices are the ideals, colored by size; faces are the chains whose
    consecutive pairs, padded with the empty and full ideals, are stable
    (no undirected edge inside the difference).  Returns the complex and the
    ideal list (in vertex order).  More proper nonempty ideals than a complex
    may have vertices raise InvalidComplex before any chain is built.
    """
    n = g.n
    full = frozenset(range(n))
    ideals = []
    for i in _ideals_by_size(g):
        if i and i != full:
            ideals.append(i)
        if len(ideals) > MAX_VERTICES:
            raise InvalidComplex(f"more than {MAX_VERTICES} vertices")
    index = {i: k for k, i in enumerate(ideals)}
    faces = []
    if _stable(g, frozenset(), full):
        faces.append(frozenset())

    def rec(chain):
        last = chain[-1]
        if _stable(g, last, full):
            faces.append(frozenset(index[i] for i in chain[1:]))
        for i in ideals:
            if last < i and _stable(g, last, i):
                chain.append(i)
                rec(chain)
                chain.pop()

    rec([frozenset()])
    return ColoredRelativeComplex([f"I{k}" for k in range(len(ideals))],
                                  [len(i) for i in ideals],
                                  n - 1, faces), ideals


def induced_ideal_group(g, graph_group, ideals):
    """The permutation group induced on the ideal list by graph automorphisms.

    Returns (group, mapping) where mapping sends each graph-group element to
    its induced permutation.  The induced map is injective: an automorphism
    fixing every principal ideal fixes every vertex.
    """
    index = {i: k for k, i in enumerate(ideals)}
    mapping = {}
    elements = []
    for p in graph_group.elements:
        images = [index[frozenset(p(v) for v in i)] for i in ideals]
        q = Permutation(images)
        mapping[p] = q
        elements.append(q)
    assert len(set(elements)) == len(graph_group.elements)
    group = PermGroup(len(ideals), [mapping[p] for p in graph_group.generators],
                      set(elements))
    return group, mapping


def verify_graphtocomplex(g, group=None):
    """Weak-coloring quasisymmetric function = flag function of the chain
    complex, compared per graph-group element.  Returns a report."""
    from .flags import hilb

    if group is None:
        group = g.automorphism_group()
    chrom = chromatic_qsym(g, group)
    cx, ideals = coloring_complex(g)
    cx_group, mapping = induced_ideal_group(g, group, ideals)
    action = GroupAction(cx, cx_group)
    flag = hilb(cx, action, basis="M")
    failures = []
    keys = set(chrom.coeffs) | set(flag.coeffs)
    for s in keys:
        a = chrom.coeff(s)
        b = flag.coeff(s)
        for p in group.class_reps:
            if a.value_at(p) != b.value_at(mapping[p]):
                failures.append({"S": list(s), "element": repr(p),
                                 "chromatic": a.value_at(p),
                                 "complex": b.value_at(mapping[p])})
    return {"ok": not failures, "failures": failures}


def verify_mixedgraph_theorem(g, group=None, table=None):
    """Checks for an acyclic, near-cycle-free mixed graph:
    (a) the chain complex has depth at least m(G);
    (b) F-coefficients of the coloring function are effective for |S| <= m(G);
    (c) the aggregate h-inequalities with ell = m(G);
    (d) when m(G) >= the least feasible color count: the three f-inequalities.

    table, when given, is the character table of the graph group and serves
    only (b); (c) and (d) act on the compiled complex, whose group is the
    induced group on the ideals, and use that group's own table.
    """
    from .flags import verify_intro2, verify_intro3
    from .qsym import m_to_f
    from .serre import serre_depth
    from .groups import is_effective

    st = g.stats()
    if not st["acyclic"] or st["near_cycles"]:
        return {"ok": True, "skipped": True,
                "reason": "needs acyclic directed part and no near cycles"}
    if group is None:
        group = g.automorphism_group()
    m = st["m"]
    cx, ideals = coloring_complex(g)
    cx_group, mapping = induced_ideal_group(g, group, ideals)
    action = GroupAction(cx, cx_group)
    report = {"ok": True, "skipped": False, "m": m, "chrom_min": st["chrom_min"],
              "failures": []}

    depth = serre_depth(cx, max_ell=min(m, cx.d))
    report["depth_at_least_m"] = depth >= min(m, cx.d)
    if not report["depth_at_least_m"]:
        report["failures"].append({"kind": "depth", "depth": depth, "m": m})

    chrom_f = m_to_f(chromatic_qsym(g, group))
    for s, cf in chrom_f.coeffs.items():
        if len(s) <= m:
            ok, mults = is_effective(cf, table)
            if not ok:
                report["failures"].append({"kind": "F-coeff", "S": list(s),
                                           "multiplicities": mults})

    ell = min(m, cx.d)
    r2 = verify_intro2(cx, action, ell)
    if not r2["ok"]:
        report["failures"].append({"kind": "h-inequalities", "detail": r2["failures"]})

    if st["chrom_min"] is not None and m >= st["chrom_min"]:
        r3 = verify_intro3(cx, action, st["chrom_min"])
        if not (r3.get("skipped") or r3["ok"]):
            report["failures"].append({"kind": "f-inequalities", "detail": r3["failures"]})
        report["intro3"] = r3

    report["ok"] = not report["failures"]
    return report


def load_graph(data):
    vertices = list(data["vertices"])
    index = {v: i for i, v in enumerate(vertices)}
    und = [frozenset((index[a], index[b])) for a, b in data.get("undirected", [])]
    dire = [(index[a], index[b]) for a, b in data.get("directed", [])]
    return MixedGraph(vertices, und, dire)
