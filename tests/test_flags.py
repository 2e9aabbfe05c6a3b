"""Flag f/h characters, Hilb expansions, h_{S,T}, and the theorem verifiers.

The one-pass fiber tables are checked against the path they replaced, which
rescans every face for every color set.
"""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig1_complex, fig1_z2

from eqflag.complexes import GroupAction, color_automorphism_group
from eqflag.corpus import random_complex, random_complexes
from eqflag.flags import (FlagVectors, h_st, hilb, homology_h_st, orbital_hilb,
                          verify_eulerchar2, verify_intro1, verify_intro2,
                          verify_intro3)
from eqflag.groups import (ClassFunction, character_table, close_group, induce,
                           is_effective, orbits, permutation_character, stabilizer)
from eqflag.qsym import principal_specialization, subsets
from eqflag.serre import serre_depth


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
        for cx in random_complexes(60, seed=0):
            assert_flags_match_rescan(cx)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_complexes(self, rng):
        assert_flags_match_rescan(random_complex(rng, 1, 4))


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
