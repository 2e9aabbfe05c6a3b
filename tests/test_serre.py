"""Depth conditions and the restriction theorem.

The one-pass depth is checked against the definition: (S_ell) tested for
ell = 1, 2, ... on the relative link of every face of Delta, built from the
links in Delta and in Gamma.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig1_complex

from eqflag.complexes import ColoredRelativeComplex
from eqflag.corpus import random_complex, random_complexes, small_mixed_graphs
from eqflag.homology import homology_vanishes_up_to
from eqflag.mixedgraph import MixedGraph, coloring_complex
from eqflag.serre import (is_relatively_cm, satisfies_serre, serre_depth,
                          verify_restriction_theorem)


def link(cx, sigma):
    """The Phi-faces lk_Delta(sigma) minus lk_Gamma(sigma) of the relative
    link of sigma."""
    lk_delta = {f - sigma for f in cx.delta if sigma <= f}
    lk_gamma = {f - sigma for f in cx.gamma if sigma <= f}
    return lk_delta - lk_gamma


def satisfies_serre_by_links(cx, ell):
    """(S_ell) with every link built by link(); (ok, witness)."""
    for sigma in sorted(cx.delta, key=lambda f: (len(f), sorted(f))):
        phi_faces = link(cx, sigma)
        if not phi_faces:
            continue
        bound = min(max(len(f) for f in phi_faces) - 1, ell - 1) - 1
        if bound < -1:
            continue
        ok, dim = homology_vanishes_up_to(phi_faces, bound)
        if not ok:
            return False, (sigma, dim + 1)
    return True, None


def serre_depth_by_scan(cx, max_ell=None):
    """Largest ell with (S_ell), scanning ell upward to the first failure."""
    top = cx.d if max_ell is None else min(max_ell, cx.d)
    depth = 0
    for ell in range(1, top + 1):
        if not satisfies_serre_by_links(cx, ell)[0]:
            break
        depth = ell
    return depth


def assert_depth_matches_scan(cx):
    assert set(cx.links) == cx.delta
    for sigma, faces in cx.links.items():
        assert len(set(faces)) == len(faces) and set(faces) == link(cx, sigma)
    for max_ell in (None, 1, 2):
        assert serre_depth(cx, max_ell) == serre_depth_by_scan(cx, max_ell)
    for ell in range(1, cx.d + 2):
        assert satisfies_serre(cx, ell) == satisfies_serre_by_links(cx, ell)


class TestSerre:
    def test_fig1_full_depth(self):
        cx = fig1_complex()
        assert serre_depth(cx) == 3
        assert is_relatively_cm(cx)

    def test_ell_guard(self):
        with pytest.raises(ValueError):
            satisfies_serre(fig1_complex(), 0)

    def test_disconnected_pair_of_edges(self):
        # two disjoint edges: depth 1 (the empty-face link sees two components)
        cx = ColoredRelativeComplex(list("abcd"), [1, 2, 1, 2], 2,
                                    [frozenset(), {0}, {1}, {2}, {3},
                                     {0, 1}, {2, 3}])
        assert serre_depth(cx) == 1
        ok, witness = satisfies_serre(cx, 2)
        assert not ok and witness[0] == frozenset()

    def test_nested_conditions(self):
        # (S_ell) for ell <= depth, fails above
        cx = fig1_complex()
        for ell in (1, 2, 3):
            assert satisfies_serre(cx, ell)[0]


class TestRestriction:
    def test_fig1_all_subsets(self):
        report = verify_restriction_theorem(fig1_complex())
        assert report["holds_on_input"]
        assert report["checked"] == 8
        assert report["counterexamples"] == []

    def test_corpus_sample(self):
        for cx in random_complexes(25, seed=7):
            depth = serre_depth(cx)
            if depth == 0:
                continue
            report = verify_restriction_theorem(cx, depth)
            assert report["counterexamples"] == [], (cx, depth)

    def test_coloring_complex_depth_vs_m(self):
        # one directed path: no mixed cycle, full depth
        g = MixedGraph(list(range(3)), [], [(0, 1), (1, 2)])
        cx, _ = coloring_complex(g)
        assert serre_depth(cx) == cx.d


class TestOnePassDepth:
    def test_acceptance_corpus(self):
        corpus = list(random_complexes(200, seed=0))
        corpus += [coloring_complex(g)[0] for g in small_mixed_graphs(max_n=4)]
        assert len(corpus) == 315
        depths = set()
        for cx in corpus:
            assert_depth_matches_scan(cx)
            depths.add((serre_depth(cx), cx.d))
        # the corpus reaches every cap: depth 0, partial and full depth
        assert {depth for depth, d in depths} >= {0, 1, 2, 3}
        assert any(0 < depth < d for depth, d in depths)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_complexes(self, rng):
        assert_depth_matches_scan(random_complex(rng, 1, 5))

    def test_void_and_empty(self):
        void = ColoredRelativeComplex([], [], 2, [])
        assert serre_depth(void) == 2 == serre_depth_by_scan(void)
        assert serre_depth(fig1_complex(), max_ell=0) == 0
