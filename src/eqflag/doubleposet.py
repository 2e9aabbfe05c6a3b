"""Double posets: two partial orders on one ground set, their partition
enumerators, and the associated mixed graph.

A D-partition is weakly increasing along the first order and strictly
increasing on inversions (pairs comparable both ways, in opposite
directions).  The enumerator is a quasisymmetric class function; tertispecial
double posets (first-order covers always comparable in the second order) are
the ones whose enumerator has all fundamental coefficients effective.
"""
from __future__ import annotations

from itertools import product

from .groups import DEFAULT_ORDER_BOUND, automorphism_search, close_group
from .mixedgraph import (MixedGraph, SizeBound, chromatic_qsym,
                         level_chain_qsym)


class PosetError(Exception):
    pass


class NotAPartialOrder(PosetError):
    pass


def _closure(n, pairs):
    """Reflexive-transitive closure as a boolean matrix."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        if a not in range(n) or b not in range(n):
            raise PosetError(f"relation ({a}, {b}) leaves 0..{n - 1}")
        leq[a][b] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


class DoublePoset:
    """Ground set 0..n-1 with labels and two partial orders.

    Input relations may be cover pairs or full orders; both are closed
    reflexively and transitively, then checked for antisymmetry.
    """

    def __init__(self, elements, rel1, rel2):
        self.elements = list(elements)
        self.n = len(self.elements)
        self.leq1 = _closure(self.n, rel1)
        self.leq2 = _closure(self.n, rel2)
        for name, leq in (("first", self.leq1), ("second", self.leq2)):
            for i in range(self.n):
                for j in range(self.n):
                    if i != j and leq[i][j] and leq[j][i]:
                        raise NotAPartialOrder(
                            f"{name} relation has a cycle through "
                            f"{self.elements[i]}, {self.elements[j]}")

    def lt1(self, a, b):
        return a != b and self.leq1[a][b]

    def lt2(self, a, b):
        return a != b and self.leq2[a][b]

    def covers1(self):
        """Cover pairs of the first order."""
        out = []
        for a in range(self.n):
            for b in range(self.n):
                if self.lt1(a, b) and not any(
                        self.lt1(a, c) and self.lt1(c, b) for c in range(self.n)):
                    out.append((a, b))
        return out

    def inversions(self):
        return [(a, b) for a in range(self.n) for b in range(self.n)
                if self.lt1(a, b) and self.lt2(b, a)]

    def descents(self):
        cov = set(self.covers1())
        return [(a, b) for a, b in self.inversions() if (a, b) in cov]

    def is_tertispecial(self):
        return all(self.leq2[a][b] or self.leq2[b][a] for a, b in self.covers1())

    def is_inversion_reducible(self):
        """Every inversion (a, b) lies over a descent (x, y), a <=_1 x and
        y <=_1 b, so that the cover graph forces f(a) <= f(x) < f(y) <= f(b)."""
        desc = self.descents()
        return all(any(self.leq1[a][x] and self.leq1[y][b] for x, y in desc)
                   for a, b in self.inversions())

    def is_d_partition(self, f):
        return (all(f[a] <= f[b] for a in range(self.n) for b in range(self.n)
                    if self.lt1(a, b))
                and all(f[a] < f[b] for a, b in self.inversions()))

    def d_partitions(self, k, perm=None):
        """All D-partitions with values in 1..k (fixed by perm if given)."""
        if k ** self.n > 10 ** 8:
            raise SizeBound("partition enumeration too large")
        out = []
        for f in product(range(1, k + 1), repeat=self.n):
            if not self.is_d_partition(f):
                continue
            if perm is not None and any(f[perm(v)] != f[v] for v in range(self.n)):
                continue
            out.append(f)
        return out

    def automorphism_group(self, bound=DEFAULT_ORDER_BOUND):
        """Permutations preserving both orders."""
        relations = [(tag, (a, b)) for tag, lt in (("<1", self.lt1), ("<2", self.lt2))
                     for a in range(self.n) for b in range(self.n) if lt(a, b)]
        return automorphism_search([0] * self.n, relations, bound)

    def __repr__(self):
        return f"DoublePoset(n={self.n})"


def omega_qsym(dp, group=None):
    """The D-partition quasisymmetric class function, degree n, M basis.

    The M-coefficient of a subset counts fixed surjective D-partitions whose
    level-set sizes form the matching composition: the level chains of
    `level_chain_qsym` with the inversions apart and the strict first-order
    pairs as arcs.
    """
    if dp.n > 10:
        raise SizeBound("capped at 10 elements")
    if group is None:
        group = close_group([], degree=dp.n)
    rel1 = [(a, b) for a in range(dp.n) for b in range(dp.n) if dp.lt1(a, b)]
    return level_chain_qsym(dp.n, dp.inversions(), rel1, group)


def to_mixed_graph(dp):
    """The cover graph: every cover of the first order is a directed edge, and
    covers that are descents additionally carry an undirected edge.

    The pairing of both edge kinds on a descent makes the coloring constraint
    strict there; weak colorings of this graph are then exactly the
    D-partitions whenever the double poset is inversion-reducible.
    """
    desc = set(dp.descents())
    dire = dp.covers1()
    und = [frozenset(e) for e in dire if e in desc]
    return MixedGraph(dp.elements, und, dire, allow_strict=True)


def verify_doubleposet_theorems(dp, group=None, table=None):
    """(a) the partition enumerator equals the weak-coloring function of the
    cover graph (for inversion-reducible inputs); (b) tertispecial implies
    inversion-reducible, a cycle-free cover graph, and effective fundamental
    coefficients."""
    from .groups import is_effective
    from .qsym import m_to_f

    if group is None:
        group = dp.automorphism_group()
    report = {"ok": True, "failures": [],
              "tertispecial": dp.is_tertispecial(),
              "inversion_reducible": dp.is_inversion_reducible()}
    g = to_mixed_graph(dp)
    st = g.stats()
    report["graph_acyclic"] = st["acyclic"]
    report["graph_mixed_cycles"] = len(st["coherent_mixed_cycles"])

    if report["inversion_reducible"]:
        omega = omega_qsym(dp, group)
        chrom = chromatic_qsym(g, group)
        if omega != chrom:
            report["failures"].append({"kind": "enumerator mismatch"})

    if report["tertispecial"]:
        if not report["inversion_reducible"]:
            report["failures"].append({"kind": "tertispecial but not inversion-reducible"})
        if not st["acyclic"] or st["coherent_mixed_cycles"]:
            report["failures"].append({"kind": "tertispecial cover graph has cycles"})
        omega_f = m_to_f(omega_qsym(dp, group))
        for s, cf in omega_f.coeffs.items():
            ok, mults = is_effective(cf, table)
            if not ok:
                report["failures"].append({"kind": "F-coeff", "S": list(s),
                                           "multiplicities": mults})
    report["ok"] = not report["failures"]
    return report


def load_double_poset(data):
    elements = list(data["elements"])
    index = {v: i for i, v in enumerate(elements)}
    r1 = [(index[a], index[b]) for a, b in data.get("order1", [])]
    r2 = [(index[a], index[b]) for a, b in data.get("order2", [])]
    return DoublePoset(elements, r1, r2)
