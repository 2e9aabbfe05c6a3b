"""Level chains: the dynamic program behind chromatic_qsym and omega_qsym, and
MixedGraph.chrom_min.

Both functions used to enumerate every ordered set partition, and chrom_min
tried every map into 1..k for k = 1, 2, ...  Those enumerators are kept here
as oracles and checked against the replacements under the trivial group and
the automorphism group.
"""
import contextlib
import io
import json
import random
import time
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from eqflag import cli
from eqflag.corpus import (random_double_posets, small_mixed_graphs,
                           tertispecial_double_posets)
from eqflag.doubleposet import DoublePoset, omega_qsym
from eqflag.groups import ClassFunction, close_group
from eqflag.mixedgraph import MixedGraph, chromatic_qsym
from eqflag.qsym import QSymClassFunction, subsets


# ------------------------------------------------------------------ oracles

def ordered_set_partitions(n, valid_block):
    """Ordered set partitions of 0..n-1 into nonempty blocks, pruned by
    valid_block(block, remaining_after).  Yields tuples of frozensets."""
    def rec(remaining, acc):
        if not remaining:
            yield tuple(acc)
            return
        rem = sorted(remaining)
        for r in range(1, len(rem) + 1):
            for chosen in combinations(rem, r):
                block = frozenset(chosen)
                rest = remaining - block
                if valid_block(block, rest):
                    acc.append(block)
                    yield from rec(rest, acc)
                    acc.pop()

    yield from rec(frozenset(range(n)), [])


def partitions_to_qsym(parts, n, group):
    """Aggregate level-set sequences into a degree-n M-basis class function.

    The subset key is the partial-sum encoding of the block-size composition;
    the per-class value counts sequences whose every block is fixed setwise.
    """
    counts = {}
    for part in parts:
        sizes = [len(b) for b in part]
        s = tuple(sizes[0] + sum(sizes[1:i]) for i in range(1, len(sizes)))
        key = counts.setdefault(s, [0] * group.num_classes)
        for k, rep in enumerate(group.class_reps):
            if all(rep.apply_set(b) == b for b in part):
                key[k] += 1
    coeffs = {s: ClassFunction(group, vals) for s, vals in counts.items()}
    return QSymClassFunction(n, group, "M", coeffs)


def coloring_partitions(g):
    """Level-set sequences of weak colorings of a mixed graph: no undirected
    edge inside a block, every directed edge pointing weakly forward."""
    def valid_block(block, remaining_after):
        return (not any(e <= block for e in g.U)
                and not any(v in block and u in remaining_after for u, v in g.D))

    return ordered_set_partitions(g.n, valid_block)


def oracle_chromatic(g, group):
    return partitions_to_qsym(coloring_partitions(g), g.n, group)


def oracle_omega(dp, group):
    inv = dp.inversions()
    rel1 = [(a, b) for a in range(dp.n) for b in range(dp.n) if dp.lt1(a, b)]

    def valid_block(block, remaining_after):
        # weakly increasing along the first order across blocks,
        # strictly increasing on inversions
        return (not any(a in block and b in block for a, b in inv)
                and not any(b in block and a in remaining_after for a, b in rel1))

    return partitions_to_qsym(ordered_set_partitions(dp.n, valid_block), dp.n, group)


def oracle_chrom_min(g):
    """The least k with a weak coloring into 1..k, trying every map.  The old
    search gave up (returning None) once k^n passed 10^8; this one does not,
    so keep n small."""
    for k in range(1, g.n + 1):
        if any(g.is_weak_coloring(f) for f in product(range(1, k + 1), repeat=g.n)):
            return k
    return None


# ------------------------------------------------------------------ checks

def assert_matches(q, oracle):
    assert q == oracle
    assert list(q.coeffs) == [s for s in subsets(range(1, q.degree)) if s in q.coeffs]
    assert all(type(v) is int for cf in q.coeffs.values() for v in cf.values)


def trivial(n):
    return close_group([], degree=n)


def check_graph(g, chrom_min_oracle=True):
    for group in (trivial(g.n), g.automorphism_group()):
        assert_matches(chromatic_qsym(g, group), oracle_chromatic(g, group))
    least = min((len(p) for p in coloring_partitions(g)), default=None)
    assert g.chrom_min() == least
    if chrom_min_oracle:
        assert g.chrom_min() == oracle_chrom_min(g)


def check_dposet(dp):
    for group in (trivial(dp.n), dp.automorphism_group()):
        assert_matches(omega_qsym(dp, group), oracle_omega(dp, group))


# a pair of vertices carries nothing, an undirected edge, a directed edge
# either way, or a strict pair (both kinds) either way
PAIR_STATES = 6


def graph_from_states(n, states):
    und, dire = [], []
    for (u, v), state in zip(combinations(range(n), 2), states):
        if state in (1, 4, 5):
            und.append((u, v))
        if state in (2, 4):
            dire.append((u, v))
        if state in (3, 5):
            dire.append((v, u))
    return MixedGraph(list(range(n)), und, dire, allow_strict=True)


def per_pair(n, values):
    """One drawn value per pair of 0..n-1."""
    return st.lists(values, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)


def random_mixed_graphs(count, max_n, seed):
    """Mixed graphs with directed cycles and strict pairs allowed."""
    rng = random.Random(seed)
    weights = [8, 4, 3, 3, 1, 1]
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        states = rng.choices(range(PAIR_STATES), weights, k=n * (n - 1) // 2)
        out.append(graph_from_states(n, states))
    return out


class TestAgainstOracles:
    def test_small_mixed_graphs(self):
        graphs = small_mixed_graphs(max_n=4)
        assert len(graphs) == 115
        for g in graphs:
            check_graph(g)

    def test_random_graphs_with_cycles_and_strict_pairs(self):
        graphs = random_mixed_graphs(120, max_n=7, seed=11)
        assert any(not g.is_acyclic() for g in graphs)
        assert any(frozenset(a) in g.U for g in graphs for a in g.D)
        for g in graphs:
            check_graph(g, chrom_min_oracle=g.n <= 5)

    def test_uncolourable_graphs(self):
        # an undirected edge inside a directed cycle, and a strict pair both
        # ways round a directed cycle: no chain, so no weak coloring
        for g in (MixedGraph("abc", [(0, 1)], [(0, 1), (1, 2), (2, 0)],
                             allow_strict=True),
                  MixedGraph("ab", [(0, 1)], [(0, 1), (1, 0)], allow_strict=True)):
            check_graph(g)
            assert g.chrom_min() is None and chromatic_qsym(g).coeffs == {}

    def test_random_double_posets(self):
        for dp in random_double_posets(150, max_n=5, seed=5):
            check_dposet(dp)

    def test_tertispecial_double_posets(self):
        for dp in tertispecial_double_posets(100, max_n=5, seed=6):
            check_dposet(dp)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), per_pair(n, st.integers(0, PAIR_STATES - 1)))))
    def test_drawn_graphs(self, drawn):
        check_graph(graph_from_states(*drawn))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(n)),
        per_pair(n, st.booleans()), per_pair(n, st.booleans()))))
    def test_drawn_double_posets(self, drawn):
        # both relations go up a linear order, so both are partial orders
        n, perm, keep1, keep2 = drawn
        pairs = list(combinations(range(n), 2))
        rel1 = [p for p, keep in zip(pairs, keep1) if keep]
        rel2 = [(perm[a], perm[b]) for (a, b), keep in zip(pairs, keep2) if keep]
        check_dposet(DoublePoset(list(range(n)), rel1, rel2))


class TestChromMin:
    def test_beyond_the_old_search_cap(self):
        # the old search stopped with None once k^n passed 10^8
        assert MixedGraph(range(9), list(combinations(range(9), 2)), []).chrom_min() == 9
        assert MixedGraph(range(10), list(combinations(range(7), 2)), []).chrom_min() == 7
        assert MixedGraph(range(12), list(combinations(range(5), 2)), []).chrom_min() == 5

    def test_chains_of_directed_and_strict_edges(self):
        path = [(i, i + 1) for i in range(9)]
        assert MixedGraph(range(10), [], path).chrom_min() == 1
        assert MixedGraph(range(10), path, path, allow_strict=True).chrom_min() == 10


class TestTiming:
    """Inputs at the size caps that the enumerators could not finish: 9
    isolated vertices took 128 s and the CLI on a 10-vertex path did not end
    within 300 s."""

    @staticmethod
    def seconds(fn):
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result

    def test_nine_isolated_vertices(self):
        took, q = self.seconds(lambda: chromatic_qsym(MixedGraph(range(9), [], [])))
        assert took < 2
        assert q.coeffs[()].at_identity == 1 and len(q.coeffs) == 2 ** 8

    def test_ten_vertex_path(self):
        path = [(i, i + 1) for i in range(9)]
        took, q = self.seconds(lambda: chromatic_qsym(MixedGraph(range(10), path, [])))
        assert took < 2
        # onto two colours the path alternates, starting either way
        assert q.coeffs[(5,)].at_identity == 2

    def test_ten_element_antichain(self):
        took, q = self.seconds(lambda: omega_qsym(DoublePoset(range(10), [], [])))
        assert took < 2
        assert q.coeffs[tuple(range(1, 10))].at_identity == 3628800

    def test_cli_chromatic_ten_vertex_path(self, tmp_path):
        names = [f"p{i}" for i in range(10)]
        target = tmp_path / "path.json"
        target.write_text(json.dumps({"vertices": names, "directed": [],
                                      "undirected": [list(e) for e in zip(names, names[1:])]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            took, code = self.seconds(
                lambda: cli.run(["--json", "chromatic", "--graph", str(target)]))
        assert took < 2 and code == 0
        assert json.loads(out.getvalue())["stats"]["chrom_min"] == 2
