"""The backtracking automorphism search against brute force, and conjugacy
classes from generators against classes from all elements.

The brute-force searches are the ones the library used before the search:
every product of per-colour bijections for a complex, every permutation for
a mixed graph or a double poset.  They are kept here as oracles.
"""
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqflag.complexes import color_automorphism_group
from eqflag.corpus import (random_complex, random_complexes,
                           tertispecial_double_posets)
from eqflag.doubleposet import DoublePoset
from eqflag.groups import (OrderBoundExceeded, Permutation, automorphism_search,
                           close_group)
from eqflag.mixedgraph import MixedGraph, coloring_complex


def brute_color_automorphisms(cx):
    n = len(cx.vertices)
    by_color = {}
    for v in range(n):
        by_color.setdefault(cx.coloring[v], []).append(v)
    blocks = list(by_color.values())
    faces = [sorted(f) for f in cx.faces]
    elements = set()
    for choice in product(*[list(permutations(b)) for b in blocks]):
        images = list(range(n))
        for block, img in zip(blocks, choice):
            for src, dst in zip(block, img):
                images[src] = dst
        if all(frozenset(images[v] for v in f) in cx.faces for f in faces):
            elements.add(Permutation(images))
    return elements


def brute_graph_automorphisms(g):
    elements = set()
    for images in permutations(range(g.n)):
        p = Permutation(images)
        if (all(frozenset((p(u), p(v))) in g.U for e in g.U for u, v in [sorted(e)])
                and all((p(u), p(v)) in g.D for u, v in g.D)):
            elements.add(p)
    return elements


def brute_poset_automorphisms(dp):
    elements = set()
    for images in permutations(range(dp.n)):
        p = Permutation(images)
        if all(dp.leq1[a][b] == dp.leq1[p(a)][p(b)]
               and dp.leq2[a][b] == dp.leq2[p(a)][p(b)]
               for a in range(dp.n) for b in range(dp.n)):
            elements.add(p)
    return elements


def classes_from_elements(group):
    """Conjugacy classes by definition: {h x h^-1 : h in G}."""
    remaining = set(group.elements)
    classes = []
    for x in group.elements:
        if x not in remaining:
            continue
        cls = {h * x * h.inverse() for h in group.elements}
        remaining -= cls
        classes.append(tuple(sorted(cls)))
    return tuple(classes)


def assert_generated(group):
    """The generators generate the group, and there are at most log2 |G|."""
    assert set(close_group(group.generators, degree=group.degree).elements) \
        == set(group.elements)
    assert 2 ** len(group.generators) <= group.order


def assert_same_group(group, oracle):
    assert set(group.elements) == oracle
    assert_generated(group)


@pytest.fixture(scope="module")
def small_graphs():
    from eqflag.corpus import small_mixed_graphs
    return small_mixed_graphs(max_n=4)


def test_acceptance_corpus_complexes(small_graphs):
    corpus = list(random_complexes(200, seed=0))
    corpus += [coloring_complex(g)[0] for g in small_graphs]
    for cx in corpus:
        assert_same_group(color_automorphism_group(cx), brute_color_automorphisms(cx))


def test_small_mixed_graphs(small_graphs):
    assert len(small_graphs) == 115
    for g in small_graphs:
        assert_same_group(g.automorphism_group(), brute_graph_automorphisms(g))


def test_tertispecial_double_posets():
    for dp in tertispecial_double_posets(200, seed=0):
        assert_same_group(dp.automorphism_group(), brute_poset_automorphisms(dp))


def test_bound_stops_the_search():
    with pytest.raises(OrderBoundExceeded, match="bound 100"):
        automorphism_search([0] * 13, [], bound=100)
    assert automorphism_search([0] * 5, [], bound=120).order == 120


def test_relabelled_cycle():
    # the dihedral group of order 2n; visiting the vertices by index order
    # instead of along the relations makes this search take minutes
    n = 24
    label = list(range(n))
    random.Random(n).shuffle(label)
    edges = [frozenset((label[i], label[(i + 1) % n])) for i in range(n)]
    assert MixedGraph(list(range(n)), edges, []).automorphism_group().order == 2 * n


def test_no_points():
    grp = automorphism_search([], [])
    assert grp.order == 1 and grp.degree == 0


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_complexes_match_brute_force(rng):
    cx = random_complex(rng, 1, 3)
    assert_same_group(color_automorphism_group(cx), brute_color_automorphisms(cx))


@st.composite
def mixed_graphs(draw):
    """A pair is empty, undirected, an arc either way, or undirected and an
    arc at once (a strict constraint)."""
    n = draw(st.integers(1, 6))
    und, dire = [], []
    for u, v in combinations(range(n), 2):
        state = draw(st.integers(0, 4))
        if state in (1, 4):
            und.append(frozenset((u, v)))
        if state in (2, 4):
            dire.append((u, v))
        if state == 3:
            dire.append((v, u))
    return MixedGraph(list(range(n)), und, dire, allow_strict=True)


@settings(max_examples=60, deadline=None)
@given(mixed_graphs())
def test_random_graphs_match_brute_force(g):
    assert_same_group(g.automorphism_group(), brute_graph_automorphisms(g))


@st.composite
def double_posets(draw):
    """Two orders, each the closure of pairs increasing in a drawn labelling."""
    n = draw(st.integers(1, 5))
    pairs = list(combinations(range(n), 2))
    orders = []
    for _ in range(2):
        label = draw(st.permutations(range(n)))
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
        orders.append([(label[a], label[b]) for a, b in chosen])
    return DoublePoset(list(range(n)), *orders)


@settings(max_examples=60, deadline=None)
@given(double_posets())
def test_random_double_posets_match_brute_force(dp):
    assert_same_group(dp.automorphism_group(), brute_poset_automorphisms(dp))


@st.composite
def generator_lists(draw):
    n = draw(st.integers(3, 6))
    return n, draw(st.lists(st.permutations(list(range(n))), max_size=3))


def symmetric(n):
    """S_n from an n-cycle and a transposition."""
    return n, [list(range(1, n)) + [0], [1, 0] + list(range(2, n))]


@settings(max_examples=30, deadline=None)
@given(generator_lists())
@example(symmetric(3))
@example(symmetric(4))
@example(symmetric(5))
@example(symmetric(6))
def test_classes_from_generators(gens):
    n, images = gens
    grp = close_group([Permutation(p) for p in images], degree=n)
    assert grp.classes == classes_from_elements(grp)
