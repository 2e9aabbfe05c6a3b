"""Double posets: partition enumerators, cover graphs, and the verifiers."""
import json
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import DATA, fig2_dposet, fig3_dposet

from eqflag.doubleposet import (DoublePoset, NotAPartialOrder, PosetError,
                                load_double_poset, omega_qsym, to_mixed_graph,
                                verify_doubleposet_theorems)
from eqflag.corpus import random_double_posets, tertispecial_double_posets
from eqflag.mixedgraph import chromatic_qsym
from eqflag.qsym import m_to_f, principal_specialization


def expand(q):
    return {s: tuple(cf.values) for s, cf in q.coeffs.items() if not cf.is_zero()}


class TestStructure:
    def test_antisymmetry_enforced(self):
        with pytest.raises(NotAPartialOrder):
            DoublePoset("ab", [(0, 1), (1, 0)], [])

    def test_relation_out_of_range(self):
        for rel1, rel2 in (([(0, 5)], []), ([], [(-1, 2)])):
            with pytest.raises(PosetError, match="leaves"):
                DoublePoset(range(3), rel1, rel2)

    def test_fig2_inversions_descents(self):
        dp = fig2_dposet()
        assert set(dp.inversions()) == {(0, 3), (2, 1)}
        assert set(dp.descents()) == {(0, 3), (2, 1)}
        assert not dp.is_tertispecial()
        assert dp.is_inversion_reducible()

    def test_fig3_flags(self):
        dp = fig3_dposet()
        assert dp.is_tertispecial()
        assert dp.is_inversion_reducible()
        assert set(dp.inversions()) == {(2, 1), (2, 3)}
        assert set(dp.descents()) == {(2, 1), (2, 3)}

    def test_fig3_partition_counts(self):
        dp = fig3_dposet()
        assert [len(dp.d_partitions(k)) for k in (1, 2, 3)] == [0, 1, 6]

    def test_automorphisms(self):
        assert fig2_dposet().automorphism_group().order == 2
        assert fig3_dposet().automorphism_group().order == 2


class TestOmega:
    def test_fig2_m_expansion(self):
        dp = fig2_dposet()
        q = omega_qsym(dp, dp.automorphism_group())
        assert expand(q) == {(2,): (1, 1), (1, 2): (2, 0), (1, 3): (2, 0),
                             (2, 3): (2, 0), (1, 2, 3): (4, 0)}

    def test_fig2_f_expansion(self):
        dp = fig2_dposet()
        q = m_to_f(omega_qsym(dp, dp.automorphism_group()))
        assert expand(q) == {(2,): (1, 1), (1, 2): (1, -1), (2, 3): (1, -1),
                             (1, 3): (2, 0), (1, 2, 3): (-1, 1)}

    def test_fig3_m_expansion(self):
        dp = fig3_dposet()
        q = omega_qsym(dp, dp.automorphism_group())
        assert expand(q) == {(1,): (1, 1), (1, 3): (1, 1), (1, 2): (2, 0),
                             (1, 2, 3): (2, 0)}

    def test_fig3_f_expansion(self):
        dp = fig3_dposet()
        q = m_to_f(omega_qsym(dp, dp.automorphism_group()))
        assert expand(q) == {(1,): (1, 1), (1, 2): (1, -1)}

    def test_specialization_counts_partitions(self):
        for dp in (fig2_dposet(), fig3_dposet()):
            p = principal_specialization(omega_qsym(dp))
            for k in range(1, 5):
                assert p.evaluate(k).at_identity == len(dp.d_partitions(k))


class TestCoverGraph:
    def test_fig2_graph(self):
        g = to_mixed_graph(fig2_dposet())
        assert g.D == {(0, 1), (2, 3), (2, 1), (0, 3)}
        assert g.U == {frozenset({0, 3}), frozenset({2, 1})}

    def test_fig2_enumerator_matches_colorings(self):
        dp = fig2_dposet()
        grp = dp.automorphism_group()
        assert omega_qsym(dp, grp) == chromatic_qsym(to_mixed_graph(dp), grp)

    def test_fig2_has_coherent_mixed_cycle(self):
        st = to_mixed_graph(fig2_dposet()).stats()
        assert st["coherent_mixed_cycles"] and st["m_coherent"] == 2

    def test_fig3_graph_cycle_free(self):
        st = to_mixed_graph(fig3_dposet()).stats()
        assert st["acyclic"] and not st["coherent_mixed_cycles"]


def assert_reducible_means_equal(dp):
    """Where the predicate holds, the D-partitions are exactly the weak
    colorings of the cover graph."""
    if dp.is_inversion_reducible():
        grp = dp.automorphism_group()
        assert omega_qsym(dp, grp) == chromatic_qsym(to_mixed_graph(dp), grp)


@st.composite
def double_posets(draw):
    n = draw(st.integers(1, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    rel1 = draw(st.lists(pair, max_size=6))
    rel2 = draw(st.lists(pair, max_size=6))
    try:
        return DoublePoset([f"e{i}" for i in range(n)], rel1, rel2)
    except NotAPartialOrder:
        assume(False)


class TestInversionReducible:
    def test_random_double_posets(self):
        sample = random_double_posets(300, seed=0)
        reducible = [dp for dp in sample if dp.is_inversion_reducible()]
        assert 0 < len(reducible) < len(sample)
        for dp in reducible:
            assert_reducible_means_equal(dp)

    @settings(max_examples=150, deadline=None)
    @given(double_posets())
    def test_hypothesis_double_posets(self, dp):
        assert_reducible_means_equal(dp)

    def test_tertispecial_is_reducible(self):
        assert all(dp.is_inversion_reducible() for dp in tertispecial_double_posets(100, seed=1))

    def test_inversion_over_no_descent(self):
        # e2 <1 e3 <1 e1 <1 e0 with e1 <2 e2 and e3 <2 e0: the inversion
        # (e2, e1) spans two covers, neither of them a descent
        e0, e1, e2, e3 = range(4)
        dp = DoublePoset(["e0", "e1", "e2", "e3"], [(e2, e3), (e3, e1), (e1, e0)],
                         [(e1, e2), (e3, e0)])
        assert dp.inversions() == [(e2, e1)] and dp.descents() == []
        assert not dp.is_inversion_reducible()
        grp = dp.automorphism_group()
        assert omega_qsym(dp, grp) != chromatic_qsym(to_mixed_graph(dp), grp)
        assert verify_doubleposet_theorems(dp)["ok"]


class TestVerifier:
    def test_fig3_full_report(self):
        r = verify_doubleposet_theorems(fig3_dposet())
        assert r["ok"] and r["tertispecial"] and r["graph_mixed_cycles"] == 0

    def test_fig2_report(self):
        r = verify_doubleposet_theorems(fig2_dposet())
        assert r["ok"] and not r["tertispecial"]

    def test_fig2_noneffective_coefficient(self):
        # the degree-3 fundamental coefficient is minus the sign character
        dp = fig2_dposet()
        q = m_to_f(omega_qsym(dp, dp.automorphism_group()))
        assert tuple(q.coeff((1, 2, 3)).values) == (-1, 1)

    def test_random_sample(self):
        for dp in random_double_posets(40, seed=3):
            assert verify_doubleposet_theorems(dp)["ok"]

    def test_tertispecial_sample(self):
        sample = tertispecial_double_posets(25, seed=9)
        assert all(dp.is_tertispecial() for dp in sample)
        assert all(verify_doubleposet_theorems(dp)["ok"] for dp in sample)


class TestIo:
    def test_load_fig2(self):
        with open(os.path.join(DATA, "fig2_dposet.json")) as fh:
            dp = load_double_poset(json.load(fh))
        assert dp.n == 4 and not dp.is_tertispecial()

    def test_load_fig3(self):
        with open(os.path.join(DATA, "fig3_dposet.json")) as fh:
            dp = load_double_poset(json.load(fh))
        assert dp.is_tertispecial()
