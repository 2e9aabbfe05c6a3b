"""Mixed graphs: colorings, cycle statistics, and the chain-of-ideals complex."""
import json
import os

import pytest

from conftest import DATA

from eqflag.corpus import m_three_graph, m_two_graph, small_mixed_graphs
from eqflag.groups import close_group
from eqflag.mixedgraph import (GraphError, MixedGraph, NotAcyclic,
                               chromatic_qsym, coloring_complex, load_graph,
                               order_ideals, verify_graphtocomplex,
                               verify_mixedgraph_theorem)
from eqflag.qsym import principal_specialization
from eqflag.serre import serre_depth


def directed_edge():
    return MixedGraph(["u", "v"], [], [(0, 1)])


class TestColorings:
    def test_directed_edge_m_expansion(self):
        q = chromatic_qsym(directed_edge())
        assert {s: cf.at_identity for s, cf in q.coeffs.items()} == {(): 1, (1,): 1}

    def test_directed_edge_counts(self):
        g = directed_edge()
        assert [g.count_weak_colorings(k) for k in range(1, 5)] == [1, 3, 6, 10]
        p = principal_specialization(chromatic_qsym(g))
        assert [p.evaluate(k).at_identity for k in range(1, 5)] == [1, 3, 6, 10]

    def test_undirected_edge(self):
        g = MixedGraph(["u", "v"], [(0, 1)], [])
        q = chromatic_qsym(g)
        assert {s: cf.at_identity for s, cf in q.coeffs.items()} == {(1,): 2}
        assert [g.count_weak_colorings(k) for k in range(1, 4)] == [0, 2, 6]

    def test_specialization_matches_brute_force(self):
        g = m_two_graph()
        p = principal_specialization(chromatic_qsym(g))
        for k in range(1, 5):
            assert p.evaluate(k).at_identity == g.count_weak_colorings(k)

    def test_dual_pair_is_strict(self):
        g = MixedGraph(["u", "v"], [(0, 1)], [(0, 1)], allow_strict=True)
        assert [g.count_weak_colorings(k) for k in range(1, 5)] == [0, 1, 3, 6]

    def test_dual_pair_rejected_by_default(self):
        with pytest.raises(GraphError, match="both"):
            MixedGraph(["u", "v"], [(0, 1)], [(0, 1)])

    def test_edge_endpoints_out_of_range(self):
        for und, dire in (([(0, 5)], []), ([], [(1, -1)]), ([(0, 5)], [(1, -1)])):
            with pytest.raises(GraphError, match="leaves"):
                MixedGraph(range(3), und, dire)


class TestCycles:
    def test_triangle_one_directed(self):
        g = MixedGraph("abc", [(0, 1), (1, 2)], [(0, 2)])
        st = g.stats()
        assert st["m"] == 2 and not st["near_cycles"] and st["acyclic"]

    def test_near_cycle(self):
        g = MixedGraph("uvw", [(0, 2)], [(0, 1), (2, 1)])
        st = g.stats()
        assert st["near_cycles"] == [(0, 1, 2)]
        assert st["m"] == 1

    def test_all_undirected_has_no_mixed_cycle(self):
        g = MixedGraph("abc", [(0, 1), (1, 2), (0, 2)], [])
        st = g.stats()
        assert st["mixed_cycles"] == [] and st["m"] == 3

    def test_pure_directed_has_no_mixed_cycle(self):
        g = MixedGraph("abc", [], [(0, 1), (1, 2), (0, 2)])
        st = g.stats()
        assert st["mixed_cycles"] == [] and st["m"] == 3 and st["acyclic"]

    def test_directed_cycle_detected(self):
        g = MixedGraph("abc", [], [(0, 1), (1, 2), (2, 0)])
        assert not g.is_acyclic()
        with pytest.raises(NotAcyclic):
            order_ideals(g)

    def test_m_families(self):
        assert m_two_graph().stats()["m"] == 2
        assert m_three_graph().stats()["m"] == 3

    def test_coherence_split(self):
        # alternating forward/backward directed edges on a 4-cycle with one
        # undirected edge: the cycle is mixed but not coherent
        g = MixedGraph("abcd", [(3, 0)], [(0, 1), (2, 1), (2, 3)])
        st = g.stats()
        assert st["mixed_cycles"] and not st["coherent_mixed_cycles"]
        assert st["m"] == 1 and st["m_coherent"] == 4


class TestIdealsAndComplex:
    def test_chain_ideals(self):
        g = MixedGraph("abc", [], [(0, 1), (1, 2)])
        ids = order_ideals(g)
        assert ids == [frozenset(), frozenset({0}), frozenset({0, 1}),
                       frozenset({0, 1, 2})]

    def test_transitive_closure(self):
        g = MixedGraph("abc", [], [(0, 1), (1, 2)])
        assert frozenset({0, 2}) not in order_ideals(g)

    def test_directed_edge_complex(self):
        cx, ideals = coloring_complex(directed_edge())
        assert ideals == [frozenset({0})]
        assert cx.d == 1 and cx.faces == {frozenset(), frozenset({0})}

    def test_undirected_edge_complex(self):
        # antichain of two vertices with a stability constraint: the empty
        # chain is not stable (the full difference contains the edge)
        cx, ideals = coloring_complex(MixedGraph("uv", [(0, 1)], []))
        assert frozenset() not in cx.faces
        assert len(ideals) == 2 and len(cx.faces) == 2


class TestVerifiers:
    def test_graphtocomplex_examples(self):
        for g in (directed_edge(), m_two_graph(), m_three_graph(),
                  MixedGraph("abc", [(0, 1), (1, 2)], [(0, 2)])):
            assert verify_graphtocomplex(g)["ok"]

    def test_theorem_on_m_two(self):
        g = m_two_graph()
        report = verify_mixedgraph_theorem(g)
        assert report["ok"] and not report["skipped"]
        cx, _ = coloring_complex(g)
        assert serre_depth(cx, max_ell=2) >= 2

    def test_theorem_skips_near_cycles(self):
        g = MixedGraph("uvw", [(0, 2)], [(0, 1), (2, 1)])
        assert verify_mixedgraph_theorem(g)["skipped"]

    def test_exhaustive_small_sample(self):
        graphs = small_mixed_graphs(max_n=3)
        assert all(verify_graphtocomplex(g)["ok"] for g in graphs)


class TestIo:
    def test_load_graph(self):
        with open(os.path.join(DATA, "edge.json")) as fh:
            g = load_graph(json.load(fh))
        assert g.n == 2 and g.D == {(0, 1)} and not g.U

    def test_automorphisms(self):
        g = MixedGraph("uv", [(0, 1)], [])
        assert g.automorphism_group().order == 2
        assert directed_edge().automorphism_group().order == 1
