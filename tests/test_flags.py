"""Flag f/h characters, Hilb expansions, h_{S,T}, and the theorem verifiers.

The fixed-point tables are checked against the paths they replaced: one
rescans every face for every color set, and the homology form of h_{S,T}
induces the homology characters of one link per orbit from its stabilizer.
"""
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig1_complex, fig1_z2

from eqflag.complexes import ColoredRelativeComplex, GroupAction, color_automorphism_group
from eqflag.corpus import random_complex, random_complexes, small_mixed_graphs
from eqflag.flags import (FlagVectors, fibers, h_st, hilb, homology_h_st,
                          orbital_hilb, verify_eulerchar2, verify_intro1,
                          verify_intro2, verify_intro3)
from eqflag.groups import (ClassFunction, GroupError, PermGroup, Permutation,
                           character_table, close_group, is_effective, orbits,
                           permutation_character)
from eqflag.homology import equivariant_homology_traces
from eqflag.mixedgraph import coloring_complex
from eqflag.qsym import principal_specialization, subsets
from eqflag.serre import serre_depth


class NotASubgroup(GroupError):
    pass


def subgroup(group, elements):
    """Wrap a subset of a group's elements (assumed closed) as a PermGroup."""
    elements = list(elements)
    elset = set(elements)
    for g in elements:
        if g not in group:
            raise NotASubgroup("element outside the parent group")
    for g in elements:
        for h in elements:
            if g * h not in elset:
                raise NotASubgroup("element set is not closed under multiplication")
    return PermGroup(group.degree, elements, elements, points=group.points)


def stabilizer(group, item, act):
    """Stabilizer subgroup of one item."""
    return subgroup(group, [g for g in group.elements if act(g, item) == item])


def induce(x, big_group):
    """Induce a class function from a subgroup to a containing group."""
    h = x.group
    for g in h.elements:
        if g not in big_group:
            raise NotASubgroup("class function's group is not a subgroup")
    values = []
    for rep in big_group.class_reps:
        total = Fraction(0)
        for k in big_group.elements:
            conj = k * rep * k.inverse()
            if conj in h:
                total += Fraction(x.value_at(conj))
        values.append(Fraction(total, h.order))
    return ClassFunction(big_group, values)


def fiber(faces, coloring, s):
    """Faces with color set exactly s."""
    s = frozenset(s)
    return [f for f in faces if frozenset(coloring[v] for v in f) == s]


def fiber_character(faces, coloring, group, s):
    fib = fiber(faces, coloring, s)
    return permutation_character(group, fib, lambda g, f: g.apply_set(f), check=False)


def h_character(faces, coloring, group, s):
    """h_S = alternating sum of f_T over subsets T of S, one rescan each."""
    total = ClassFunction.zero(group)
    for t in subsets(sorted(s)):
        total = total + ((-1) ** (len(s) - len(t))) * fiber_character(faces, coloring, group, t)
    return total


def h_st_by_rescan(cx, action, s, t):
    """h_{S,T} three ways, every fiber and link found by a scan of its own."""
    s, t = frozenset(s), frozenset(t)
    g, coloring = action.group, cx.coloring
    rest = list(cx.color_restriction(t))
    via_a = ClassFunction.zero(g)
    mid = sorted(t - s)
    for r in range(len(mid) + 1):
        for extra in combinations(mid, r):
            via_a = via_a + h_character(rest, coloring, g, s | frozenset(extra))
    via_b = ClassFunction.zero(g)
    opt = sorted(s)
    for r in range(len(opt) + 1):
        for extra in combinations(opt, r):
            q = (t - s) | frozenset(extra)
            via_b = via_b + (-1) ** (len(t) - len(q)) * fiber_character(rest, coloring, g, q)
    via_c = ClassFunction.zero(g)
    for orb in orbits(g, fiber(cx.delta, coloring, t - s), lambda p, f: p.apply_set(f)):
        tau = min(orb, key=sorted)
        stab = stabilizer(g, tau, lambda p, f: p.apply_set(f))
        in_s = [f - tau for f in cx.faces
                if tau <= f and frozenset(coloring[v] for v in f - tau) <= s]
        via_c = via_c + induce(h_character(in_s, coloring, stab, s), g)
    assert via_a == via_b == via_c
    return via_a


def transversal_links(cx, g, s, t):
    """(stabilizer of tau, the color-S part of the link of tau) for one tau
    in each g-orbit of the (T\\S)-fiber of Delta."""
    fib = fibers(cx.delta, cx.coloring).get(t - s, [])
    for orb in orbits(g, fib, lambda p, f: p.apply_set(f)):
        tau = min(orb, key=sorted)
        link = [f for f in cx.links[tau] if frozenset(cx.coloring[v] for v in f) <= s]
        yield stabilizer(g, tau, lambda p, f: p.apply_set(f)), link


def homology_h_st_by_induction(cx, action, s, t):
    """h_{S,T} in homology form: the top homology character of the color-S
    part of one link per orbit, induced from the stabilizer of its face."""
    s, t = frozenset(s), frozenset(t)
    g = action.group
    total = ClassFunction.zero(g)
    for stab, link in transversal_links(cx, g, s, t):
        traces = equivariant_homology_traces(link, stab)
        total = total + induce(traces.get(len(s) - 1, ClassFunction.zero(stab)), g)
    return total


def complete_join(blocks, facets_only=False):
    """Every color transversal (or only the full ones) on blocks of the given
    sizes; its color automorphism group has order prod(size!)."""
    by_color, coloring = [], []
    for c, size in enumerate(blocks, 1):
        by_color.append(range(len(coloring), len(coloring) + size))
        coloring += [c] * size
    sizes = [len(blocks)] if facets_only else range(len(blocks) + 1)
    faces = [frozenset(f) for r in sizes
             for cs in combinations(by_color, r) for f in product(*cs)]
    return ColoredRelativeComplex([f"v{i}" for i in range(len(coloring))], coloring,
                                  len(blocks), faces)


JOINS = [(3, 2, 2), (3, 3, 2), (2, 2, 2, 2), (4, 2), (3,)]


def oracle_corpus():
    """random_complexes(200, seed=0), the compiled small-graph complexes,
    and the complete joins above, full and facets only."""
    yield from random_complexes(200, seed=0)
    for g in small_mixed_graphs(4):
        yield coloring_complex(g)[0]
    for blocks in JOINS:
        yield complete_join(blocks)
        yield complete_join(blocks, facets_only=True)


def assert_homology_matches_induction(cx, action):
    for t in subsets(range(1, cx.d + 1)):
        for s in subsets(t):
            sub, whole = frozenset(s), frozenset(t)
            assert (homology_h_st(cx, action, sub, whole)
                    == homology_h_st_by_induction(cx, action, sub, whole)), (s, t)


def assert_flags_match_rescan(cx):
    action = GroupAction(cx, color_automorphism_group(cx))
    g = action.group
    fv = FlagVectors(cx, action)
    for s in subsets(range(1, cx.d + 1)):
        assert fv.fS[s] == fiber_character(cx.faces, cx.coloring, g, s)
        assert fv.hS[s] == h_character(cx.faces, cx.coloring, g, s)
        for q in subsets(s):
            t, sub = frozenset(s), frozenset(q)
            assert h_st(cx, action, sub, t) == h_st_by_rescan(cx, action, sub, t)


@pytest.fixture(scope="module")
def fig1_setup():
    cx = fig1_complex()
    grp = fig1_z2()
    return cx, GroupAction(cx, grp), character_table(grp)


class TestHilb:
    def test_fig1_m_expansion(self, fig1_setup):
        # the printed expansion: M_{2} + rho(M_{12} + M_{23} + 2 M_{123})
        cx, act, _ = fig1_setup
        q = hilb(cx, act, basis="M")
        expect = {(2,): (1, 1), (1, 2): (2, 0), (2, 3): (2, 0), (1, 2, 3): (4, 0)}
        assert {s: tuple(cf.values) for s, cf in q.coeffs.items()} == expect

    def test_fig1_f_expansion(self, fig1_setup):
        cx, act, _ = fig1_setup
        q = hilb(cx, act, basis="F")
        # h_{123} = f_{123} - f_{12} - f_{23} - f_2 + ... = (1, 1)
        assert tuple(q.coeff((1, 2, 3)).values) == (1, 1)

    def test_orbital(self, fig1_setup):
        cx, act, _ = fig1_setup
        q = orbital_hilb(cx, act)
        counts = {s: cf.at_identity for s, cf in q.coeffs.items()}
        assert counts == {(2,): 1, (1, 2): 1, (2, 3): 1, (1, 2, 3): 2}

    def test_m_coefficients_sum_to_face_count(self, fig1_setup):
        cx, act, _ = fig1_setup
        q = hilb(cx, act, basis="M")
        assert sum(cf.at_identity for cf in q.coeffs.values()) == len(cx.faces)

    def test_ps_values(self, fig1_setup):
        # [DERIVED: sum of C(x, |S|+1)-weighted identity coefficients]
        cx, act, _ = fig1_setup
        p = principal_specialization(hilb(cx, act, basis="M"))
        assert [p.evaluate(x).at_identity for x in range(5)] == [0, 0, 1, 7, 26]


class TestFlagVectors:
    def test_identity_column_counts_fibers(self, fig1_setup):
        cx, act, _ = fig1_setup
        fv = FlagVectors(cx, act)
        assert fv.fS[(2,)].at_identity == 1
        assert fv.fS[(1, 2, 3)].at_identity == 4
        assert fv.fi[3].at_identity == 4

    def test_h_inverts_to_f(self, fig1_setup):
        cx, act, _ = fig1_setup
        fv = FlagVectors(cx, act)
        for s in fv.fS:
            total = None
            for t in subsets(s):
                cf = fv.hS[tuple(t)]
                total = cf if total is None else total + cf
            assert total == fv.fS[s]


class TestHst:
    def test_three_way_fig1(self, fig1_setup):
        cx, act, _ = fig1_setup
        for t in subsets(range(1, 4)):
            for s in subsets(t):
                val = h_st(cx, act, frozenset(s), frozenset(t))
                homo = homology_h_st(cx, act, frozenset(s), frozenset(t))
                assert homo == val, (s, t)

    def test_subset_guard(self, fig1_setup):
        cx, act, _ = fig1_setup
        with pytest.raises(ValueError):
            h_st(cx, act, {1, 2}, {2, 3})

    def test_h_ss_is_h_s(self, fig1_setup):
        cx, act, _ = fig1_setup
        fv = FlagVectors(cx, act)
        for s in subsets(range(1, 4)):
            assert h_st(cx, act, frozenset(s), frozenset(s)) == fv.hS[tuple(s)]

    def test_three_way_corpus(self):
        for cx in random_complexes(8, seed=11, min_colors=2, max_colors=3):
            grp = color_automorphism_group(cx)
            act = GroupAction(cx, grp)
            for t in subsets(range(1, cx.d + 1)):
                for s in subsets(t):
                    h_st(cx, act, frozenset(s), frozenset(t))  # asserts equality


class TestAgainstRescan:
    def test_corpus(self):
        for cx in oracle_corpus():
            assert_flags_match_rescan(cx)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_complexes(self, rng):
        assert_flags_match_rescan(random_complex(rng, 1, 4))


class TestAgainstInduction:
    def test_corpus(self):
        for cx in oracle_corpus():
            assert_homology_matches_induction(cx, GroupAction(cx, color_automorphism_group(cx)))

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_complexes(self, rng):
        cx = random_complex(rng, 1, 4)
        assert_homology_matches_induction(cx, GroupAction(cx, color_automorphism_group(cx)))


class TestFlagTable:
    def test_one_table_per_action(self):
        cx = fig1_complex()
        z2 = GroupAction(cx, fig1_z2())
        trivial = GroupAction(cx, close_group([], degree=5))
        assert z2.flag_table is z2.flag_table
        assert z2.flag_table is not trivial.flag_table
        for action in (z2, trivial):
            g = action.group
            fv = FlagVectors(cx, action)
            for t in subsets(range(1, 4)):
                assert fv.fS[t] == fiber_character(cx.faces, cx.coloring, g, t)
                for s in subsets(t):
                    sub, whole = frozenset(s), frozenset(t)
                    assert h_st(cx, action, sub, whole) == h_st_by_rescan(cx, action, sub, whole)
                    assert (homology_h_st(cx, action, sub, whole)
                            == homology_h_st_by_induction(cx, action, sub, whole))
        # the identity column is the same under both groups
        assert ({s: cf.at_identity for s, cf in FlagVectors(cx, z2).hS.items()}
                == {s: cf.at_identity for s, cf in FlagVectors(cx, trivial).hS.items()})

    @pytest.mark.parametrize("cx", [
        fig1_complex(),
        ColoredRelativeComplex([], [], 3, []),
        ColoredRelativeComplex(["a", "b"], [1, 2], 2, [{0}, {0, 1}, {1}, set()]),
    ], ids=["fig1", "void", "edge"])
    def test_every_key_and_int_values(self, cx):
        action = GroupAction(cx, color_automorphism_group(cx))
        fv = FlagVectors(cx, action)
        keys = list(subsets(range(1, cx.d + 1)))
        assert list(fv.fS) == keys and list(fv.hS) == keys and len(keys) == 2 ** cx.d
        values = [v for cf in [*fv.fS.values(), *fv.hS.values()] for v in cf.values]
        for t in keys:
            for s in subsets(t):
                values += h_st(cx, action, frozenset(s), frozenset(t)).values
        assert values and all(type(v) is int for v in values)

    def test_intro1_on_a_large_group(self):
        # the complete join 3,3,3 has colour group S_3 x S_3 x S_3, order 216
        cx = complete_join((3, 3, 3))
        action = GroupAction(cx, color_automorphism_group(cx))
        table = character_table(action.group)
        assert action.group.order == 216
        t0 = time.perf_counter()
        r = verify_intro1(cx, action, serre_depth(cx), table)
        assert r["ok"] and r["checked"] == 27
        assert time.perf_counter() - t0 < 2.0


class TestInduce:
    def test_subgroup_closure_checked(self):
        g = close_group([Permutation([1, 0, 2]), Permutation([1, 2, 0])], degree=3)
        with pytest.raises(NotASubgroup):
            subgroup(g, [g.identity, Permutation([1, 2, 0])])

    def test_induce_trivial_gives_permutation_character(self):
        # [DERIVED: induction from the point stabilizer = natural character]
        g = close_group([Permutation([1, 0, 2]), Permutation([1, 2, 0])], degree=3)
        stab = stabilizer(g, 2, lambda p, x: p(x))
        ind = induce(ClassFunction.trivial(stab), g)
        nat = permutation_character(g, [0, 1, 2], lambda p, x: p(x))
        assert ind == nat

    def test_induce_degree(self):
        g = close_group([Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])], degree=4)
        sub = subgroup(g, [g.identity, Permutation([1, 0, 2, 3])])
        ind = induce(ClassFunction.trivial(sub), g)
        assert ind.at_identity == g.order // 2


class TestVerifiers:
    def test_eulerchar2_fig1(self, fig1_setup):
        cx, act, _ = fig1_setup
        assert verify_eulerchar2(cx, act)["ok"]

    def test_intro1_fig1(self, fig1_setup):
        cx, act, table = fig1_setup
        r = verify_intro1(cx, act, 3, table)
        assert r["ok"] and r["checked"] == 27

    def test_intro2_fig1(self, fig1_setup):
        cx, act, table = fig1_setup
        assert verify_intro2(cx, act, 3, table)["ok"]

    def test_intro3_fig1(self, fig1_setup):
        # ell = 1 only needs f_{-1} = 0, which holds (the empty face is absent)
        cx, act, table = fig1_setup
        r = verify_intro3(cx, act, 1, table)
        assert r["ok"] and not r["skipped"] and r["tail_from_ell_ok"]

    def test_intro3_hypothesis_skip(self, fig1_setup):
        cx, act, table = fig1_setup
        # ell = 2 additionally wants f_0 = 0, but there is a vertex in the family
        fv = FlagVectors(cx, act)
        assert not fv.fi[1].is_zero()
        r = verify_intro3(cx, act, 2, table)
        assert r["skipped"]

    def test_intro_effectiveness_on_corpus(self):
        for cx in random_complexes(12, seed=5, min_colors=2, max_colors=3):
            grp = color_automorphism_group(cx)
            act = GroupAction(cx, grp)
            table = character_table(grp)
            depth = serre_depth(cx)
            assert verify_intro1(cx, act, depth, table)["ok"]
            assert verify_intro2(cx, act, depth, table)["ok"]
            r = verify_intro3(cx, act, depth, table)
            assert r.get("skipped") or r["ok"]
