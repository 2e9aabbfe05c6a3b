"""Balanced relative complexes: validation, restrictions, links, actions.

The linear validate is checked against the quadratic one it replaced, which
tests every pair of faces for the sandwich condition.
"""
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig1_complex, fig1_z2

from eqflag.complexes import (MAX_FACE_SIZE, ActionDoesNotPreservePair,
                              ColoredRelativeComplex, GroupAction, InvalidComplex,
                              color_automorphism_group, downward_closure,
                              dump_complex, load_complex)
from eqflag.corpus import random_complexes, small_mixed_graphs
from eqflag.groups import Permutation, close_group
from eqflag.mixedgraph import coloring_complex


def validate_by_pairs(cx):
    """The violations of cx, with the sandwich condition tested on every pair
    of faces rho < tau and every face between them."""
    problems = []
    if cx.d < 0:
        problems.append(f"negative number of colors {cx.d}")
    for i, c in enumerate(cx.coloring):
        if not 1 <= c <= cx.d:
            problems.append(f"vertex {cx.vertices[i]} has color {c} outside 1..{cx.d}")
    for f in cx.faces:
        if len(cx.colorset(f)) != len(f):
            problems.append(f"face {cx.label(f)} repeats a color")
    top = [f for f in cx.faces if len(f) == cx.d]
    for f in cx.faces:
        if not any(f <= t for t in top):
            problems.append(f"face {cx.label(f)} has no size-{cx.d} extension")
    for tau in cx.faces:
        for rho in cx.faces:
            if rho < tau:
                mid = sorted(tau - rho)
                for r in range(1, len(mid)):
                    for extra in combinations(mid, r):
                        sigma = rho | frozenset(extra)
                        if sigma not in cx.faces:
                            problems.append(
                                f"sandwich violated: {cx.label(rho)} <= "
                                f"{cx.label(sigma)} <= {cx.label(tau)}")
    for f in cx.gamma:
        for v in f:
            if f - {v} not in cx.gamma and f - {v} not in cx.faces:
                problems.append(f"{cx.label(f - {v})} escapes Delta")
    return problems


KINDS = ("negative number", "outside", "repeats", "extension", "sandwich", "escapes")


def assert_validate_matches_pairs(cx):
    """Same validity and problem kinds; every sandwich message names a
    triple the pair test finds, and the other messages agree exactly."""
    new, old = cx.validate(), validate_by_pairs(cx)
    assert bool(new) == bool(old)
    assert {k for p in new for k in KINDS if k in p} == {k for p in old for k in KINDS if k in p}
    assert set(new) <= set(old)
    assert {p for p in new if "sandwich" not in p} == {p for p in old if "sandwich" not in p}
    return new


def without_one_face(cx):
    """cx with its middle face (by size, then vertices) removed, unchecked."""
    faces = sorted(cx.faces, key=lambda f: (len(f), sorted(f)))
    gone = faces[len(faces) // 2]
    return ColoredRelativeComplex(cx.vertices, cx.coloring, cx.d,
                                  [f for f in faces if f != gone], check=False)


@st.composite
def face_families(draw):
    """Unchecked families on up to 6 vertices with up to 4 colors; a vertex
    may get a color outside 1..d, and no face is larger than d."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(0, 6))
    coloring = draw(st.lists(st.integers(0, d + 1), min_size=n, max_size=n))
    face = st.sets(st.integers(0, n - 1), max_size=d).map(frozenset) if n else st.just(frozenset())
    faces = draw(st.sets(face, max_size=12))
    return ColoredRelativeComplex([f"v{i}" for i in range(n)], coloring, d, faces, check=False)


class TestValidation:
    def test_fig1_is_valid(self):
        cx = fig1_complex()
        assert cx.validate() == []
        assert cx.d == 3 and cx.dim == 2

    def test_sandwich_violation(self):
        with pytest.raises(InvalidComplex, match="sandwich"):
            ColoredRelativeComplex(list("abc"), [1, 2, 3], 3,
                                   [{0}, {0, 1, 2}])

    def test_color_repeat_rejected(self):
        with pytest.raises(InvalidComplex, match="repeats"):
            ColoredRelativeComplex(list("ab"), [1, 1], 2, [{0, 1}])

    def test_purity_violation(self):
        # a lone small face with no size-d extension
        with pytest.raises(InvalidComplex, match="extension"):
            ColoredRelativeComplex(list("abc"), [1, 2, 3], 3, [{0}])

    def test_empty_face_allowed(self):
        cx = ColoredRelativeComplex(list("a"), [1], 1, [frozenset(), {0}])
        assert frozenset() in cx.faces and cx.gamma == frozenset()

    def test_relative_part_derived(self):
        cx = fig1_complex()
        assert frozenset() in cx.gamma
        assert all(f not in cx.faces for f in cx.gamma)
        assert cx.delta == cx.faces | cx.gamma


class TestLinearValidation:
    def test_acceptance_corpus(self):
        corpus = list(random_complexes(200, seed=0))
        corpus += [coloring_complex(g)[0] for g in small_mixed_graphs(max_n=4)]
        assert len(corpus) == 315
        broken = 0
        for cx in corpus:
            assert assert_validate_matches_pairs(cx) == []
            broken += bool(assert_validate_matches_pairs(without_one_face(cx)))
        assert broken > 100

    @settings(max_examples=300, deadline=None)
    @given(face_families())
    def test_random_face_families(self, cx):
        assert_validate_matches_pairs(cx)

    def test_sandwich_message_sorted(self):
        # Gamma = {b}, {c}, {b,c} under {a,b,c}; only {b} and {c} sit one
        # vertex above a face of Phi
        cx = ColoredRelativeComplex(list("abc"), [1, 2, 3], 3,
                                    [frozenset(), {0}, {0, 1}, {0, 2}, {0, 1, 2}],
                                    check=False)
        assert cx.validate() == [
            "sandwich violated: {} <= {b} <= {a,b}",
            "sandwich violated: {} <= {c} <= {a,c}",
        ]

    def test_face_with_more_vertices_than_colors(self):
        # at 21 vertices the closure alone would list 2^21 subsets
        t0 = time.perf_counter()
        with pytest.raises(InvalidComplex, match="repeats one of 3 colors"):
            ColoredRelativeComplex([f"v{i}" for i in range(21)], [1, 2, 3] * 7, 3,
                                   [set(range(21))], check=False)
        assert time.perf_counter() - t0 < 1.0

    def test_face_over_the_size_cap(self):
        n = MAX_FACE_SIZE + 1
        t0 = time.perf_counter()
        with pytest.raises(InvalidComplex, match=f"more than {MAX_FACE_SIZE} vertices"):
            ColoredRelativeComplex([f"v{i}" for i in range(n)], list(range(1, n + 1)), n,
                                   [set(range(n))], check=False)
        assert time.perf_counter() - t0 < 1.0


class TestRestriction:
    def test_color_restriction_keeps_indices(self):
        cx = fig1_complex()
        rest = cx.color_restriction({2})
        assert rest == {frozenset({4})}

    def test_restrict_reindexes(self):
        cx = fig1_complex()
        sub = cx.restrict([2, 3])
        assert sub.d == 2
        assert sorted(sub.vertices) == ["b", "d", "e"]
        assert sub.validate() == []

    def test_restrict_full_is_identity_on_faces(self):
        cx = fig1_complex()
        sub = cx.restrict([1, 2, 3])
        assert len(sub.faces) == len(cx.faces)


class TestLink:
    def test_link_of_center(self):
        cx = fig1_complex()
        link = cx.links[frozenset({4})]
        # the link of e is the square boundary relative to its vertices/edges
        assert max(len(f) for f in link) - 1 == 1
        assert len(link) == 9

    def test_link_outside_delta(self):
        cx = fig1_complex()
        assert frozenset({0, 2}) not in cx.links
        assert set(cx.links) == cx.delta

    def test_void_link(self):
        cx = ColoredRelativeComplex(list("a"), [1], 1, [frozenset(), {0}])
        assert cx.links[frozenset({0})] == [frozenset()]  # only the empty face remains


class TestAction:
    def test_fig1_action_valid(self):
        GroupAction(fig1_complex(), fig1_z2())

    def test_color_breaking_rejected(self):
        cx = fig1_complex()
        with pytest.raises(ActionDoesNotPreservePair):
            GroupAction(cx, close_group([Permutation([4, 1, 2, 3, 0])], degree=5))

    def test_fixed_faces_vertexwise(self):
        cx = fig1_complex()
        act = GroupAction(cx, fig1_z2())
        g = act.group.generators[0]
        assert {frozenset(f) for f in act.fixed_faces(g)} == {frozenset({4})}

    def test_full_automorphism_group(self):
        # Z/2 x Z/2: swap a<->c, swap b<->d, independently
        grp = color_automorphism_group(fig1_complex())
        assert grp.order == 4


class TestJson:
    def test_roundtrip(self):
        cx = fig1_complex()
        again = load_complex(dump_complex(cx))
        assert again.faces == cx.faces and again.coloring == cx.coloring

    def test_downward_closure(self):
        closed = downward_closure([frozenset({0, 1})])
        assert closed == {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}
