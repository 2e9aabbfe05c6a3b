"""Permutations, group closure, conjugacy classes, and character tables."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqflag.groups import (ClassFunction, NonIntegerOrbitCount, OrderBoundExceeded,
                           Permutation, character_table, close_group, decompose,
                           inner_product, is_effective, leq_g, load_group,
                           orbit_count, orbits, permutation_character)


def s3():
    return close_group([Permutation([1, 0, 2]), Permutation([1, 2, 0])], degree=3)


def z2x2():
    return close_group([Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])], degree=4)


class TestPermutation:
    def test_identity_and_composition(self):
        p = Permutation.from_cycles(3, [(0, 1)])
        q = Permutation.from_cycles(3, [(1, 2)])
        # p * q applies p first, then q
        assert (p * q).images == (2, 0, 1) or (p * q)(0) in (1, 2)
        assert (p * p).images == (0, 1, 2)

    def test_inverse(self):
        p = Permutation([2, 0, 1])
        assert (p * p.inverse()).images == (0, 1, 2)

    def test_sign_and_cycle_type(self):
        assert Permutation([1, 0, 2]).sign() == -1
        assert sorted(Permutation([1, 0, 3, 2]).cycle_type()) == [2, 2]
        assert Permutation([1, 0, 3, 2]).sign() == 1

    def test_apply_set(self):
        p = Permutation([1, 2, 0])
        assert p.apply_set(frozenset({0, 1})) == frozenset({1, 2})


class TestCloseGroup:
    def test_s3_order(self):
        assert s3().order == 6
        assert s3().num_classes == 3

    def test_trivial(self):
        g = close_group([], degree=4)
        assert g.order == 1

    def test_identity_class_first(self):
        g = s3()
        assert g.class_reps[0] == g.identity

    def test_order_bound(self):
        with pytest.raises(OrderBoundExceeded):
            close_group([Permutation([1, 2, 3, 4, 0])], degree=5, bound=3)


class TestCharacterTable:
    def test_s3_table(self):
        # [DERIVED: classical S3 table] degrees 1,1,2 with sgn and the standard rep
        table = character_table(s3())
        assert sorted(table.degrees) == [1, 1, 2]
        assert table.degrees[0] == 1
        assert list(table.irreducibles[0].values) == [1, 1, 1]

    def test_orthogonality_tolerance(self):
        for grp in (s3(), z2x2(), close_group([Permutation([1, 2, 3, 0])], degree=4)):
            table = character_table(grp)
            for i, chi in enumerate(table.irreducibles):
                for j, psi in enumerate(table.irreducibles):
                    ip = complex(inner_product(chi, psi))
                    assert abs(ip - (1 if i == j else 0)) < 1e-8

    def test_seed_stability(self):
        t0 = character_table(s3(), seed=0)
        t1 = character_table(s3(), seed=12345)
        assert t0.degrees == t1.degrees

    def test_decompose_regular(self):
        # [TRIVIAL] regular character = sum of deg(chi) * chi
        g = s3()
        table = character_table(g)
        mults = decompose(ClassFunction.regular(g), table)
        assert mults == table.degrees

    def test_decompose_permutation_character(self):
        # [DERIVED: natural S3 action = trivial + standard]
        g = s3()
        chi = permutation_character(g, [0, 1, 2], lambda p, x: p(x))
        ok, mults = is_effective(chi)
        assert ok and sum(mults) == 2 and mults[0] == 1

    def test_leq_g(self):
        g = s3()
        triv = ClassFunction.trivial(g)
        reg = ClassFunction.regular(g)
        assert leq_g(triv, reg)
        assert not leq_g(reg, triv)

    def test_sign_effective_but_difference_not(self):
        g = close_group([Permutation([1, 0])], degree=2)
        sgn = ClassFunction.sign(g)
        triv = ClassFunction.trivial(g)
        assert is_effective(sgn)[0]
        assert not is_effective(sgn - triv)[0]


class TestOrbits:
    def test_orbit_partition(self):
        g = z2x2()
        orbs = orbits(g, [0, 1, 2, 3], lambda p, x: p(x))
        assert sorted(sorted(o) for o in orbs) == [[0, 1], [2, 3]]

    def test_burnside_matches_partition(self):
        g = s3()
        pairs = [frozenset(p) for p in [(0, 1), (0, 2), (1, 2)]]
        assert orbit_count(g, pairs, lambda p, f: p.apply_set(f)) == 1

    def test_non_closed_action_rejected(self):
        from eqflag.groups import ActionNotClosed
        g = s3()
        with pytest.raises(ActionNotClosed):
            permutation_character(g, [0, 1], lambda p, x: p(x))


class TestLoadGroup:
    def test_mapping_form(self):
        g = load_group({"degree": 3, "points": ["x", "y", "z"],
                        "generators": [{"x": "y", "y": "x", "z": "z"}]})
        assert g.order == 2

    def test_missing_point_rejected(self):
        with pytest.raises(ValueError):
            load_group({"degree": 2, "points": ["x", "y"],
                        "generators": [{"x": "y"}]})


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(5))))
def test_permutation_inverse_roundtrip(images):
    p = Permutation(images)
    assert (p * p.inverse()).images == tuple(range(5))
    assert p.sign() * p.inverse().sign() == 1


@settings(max_examples=20, deadline=None)
@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=2))
def test_closure_contains_generators_and_divides_factorial(gens):
    perms = [Permutation(g) for g in gens]
    grp = close_group(perms, degree=4)
    assert all(p in grp for p in perms)
    assert math.factorial(4) % grp.order == 0
