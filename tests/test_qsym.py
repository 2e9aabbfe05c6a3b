"""Quasisymmetric class functions: basis change, specialization, flawlessness."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqflag.groups import ClassFunction, Permutation, close_group
from eqflag.qsym import (BasisMismatch, NonIntegralHVector, PolyClassFunction,
                         QSymClassFunction, dump_qsym, f_to_m,
                         is_effectively_flawless,
                         is_strongly_flawless, load_qsym, m_to_f,
                         principal_specialization, shifted_flawless_check,
                         subsets)

TRIV = close_group([], degree=1)


def q_from_ints(degree, terms, basis="M", group=TRIV):
    coeffs = {s: ClassFunction(group, [v] * group.num_classes)
              for s, v in terms.items()}
    return QSymClassFunction(degree, group, basis, coeffs)


class TestBasisChange:
    def test_f_empty_is_m_empty_plus_m1(self):
        # degree 2: F_{} = M_{} + M_{1}
        q = q_from_ints(2, {(): 1, (1,): 1})
        f = m_to_f(q)
        assert f.coeff(()).at_identity == 1
        assert f.coeff((1,)).is_zero()

    def test_f_to_m_inverse(self):
        q = q_from_ints(2, {(): 1})
        m = f_to_m(QSymClassFunction(2, TRIV, "F", q.coeffs))
        assert m.coeff(()).at_identity == 1 and m.coeff((1,)).at_identity == 1

    def test_basis_guard(self):
        q = q_from_ints(2, {(): 1})
        with pytest.raises(BasisMismatch):
            f_to_m(q)

    def test_zero_roundtrip(self):
        q = q_from_ints(4, {})
        assert f_to_m(m_to_f(q)) == q

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(
        st.sets(st.integers(min_value=1, max_value=3), max_size=3).map(tuple),
        st.integers(min_value=-5, max_value=5), max_size=8))
    def test_roundtrip_random_degree4(self, terms):
        q = q_from_ints(4, {tuple(sorted(s)): v for s, v in terms.items()})
        assert f_to_m(m_to_f(q)) == q

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(
        st.sets(st.integers(min_value=1, max_value=3), max_size=3).map(tuple),
        st.integers(min_value=-5, max_value=5), max_size=8))
    def test_mobius_oracle(self, terms):
        # [DERIVED: direct Mobius inversion over the Boolean lattice]
        q = q_from_ints(4, {tuple(sorted(s)): v for s, v in terms.items()})
        f = m_to_f(q)
        for s in subsets(range(1, 4)):
            expect = sum((-1) ** (len(s) - len(t)) * q.coeff(t).at_identity
                         for t in subsets(s))
            assert f.coeff(s).at_identity == expect


class TestPrincipalSpecialization:
    def test_single_m_term(self):
        # ps(M_{S,n}) = C(x, |S|+1)
        q = q_from_ints(4, {(1, 3): 1})
        p = principal_specialization(q)
        for x in range(7):
            assert p.evaluate(x).at_identity == comb(x, 3)

    def test_brute_force_counts(self):
        # one directed edge: colorings with f(u) <= f(v), so C(k+1, 2) of them
        q = q_from_ints(2, {(): 1, (1,): 1})
        p = principal_specialization(q)
        for k in range(5):
            assert p.evaluate(k).at_identity == k * (k + 1) // 2


def solve_square(rows, rhs):
    """Solve a square nonsingular rational system by Gauss-Jordan elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return [row[n] for row in m]


def hvec_by_solving(p):
    """The h-vector solved exactly from the evaluations at x = 0..n, per class."""
    n = p.degree
    rows = [[comb(x + n - i, n) for i in range(n + 1)] for x in range(n + 1)]
    per_class = [solve_square(rows, [p.evaluate(x).values[k] for x in range(n + 1)])
                 for k in range(p.group.num_classes)]
    return [[per_class[k][i] for k in range(p.group.num_classes)] for i in range(n + 1)]


C2 = close_group([Permutation([1, 0])], degree=2)


class TestHVector:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                             min_size=n + 1, max_size=n + 1))))
    def test_closed_form_matches_solver(self, case):
        n, values = case
        p = PolyClassFunction(C2, [ClassFunction(C2, v) for v in values], degree=n)
        assert [list(h.values) for h in p.hvec()] == hvec_by_solving(p)

    @pytest.mark.parametrize("degree, terms", [
        (4, {(1, 3): 1}), (2, {(): 1, (1,): 1}), (3, {(): 2, (1,): -1, (2,): 4, (1, 2): 3}),
        (5, {(1, 2, 3, 4): 1, (2,): 7})])
    def test_principal_specializations_match_solver(self, degree, terms):
        p = principal_specialization(q_from_ints(degree, terms))
        assert [list(h.values) for h in p.hvec()] == hvec_by_solving(p)

    def test_non_integral_rejected(self):
        p = PolyClassFunction(TRIV, [ClassFunction(TRIV, [Fraction(1, 2)]),
                                     ClassFunction(TRIV, [0])], degree=1)
        with pytest.raises(NonIntegralHVector):
            p.hvec()

    def test_degree_too_small_rejected(self):
        # C(x, 2) has no expansion in C(x+1-i, 1)
        p = PolyClassFunction(TRIV, [ClassFunction(TRIV, [int(i == 2)]) for i in range(3)],
                              degree=1)
        with pytest.raises(NonIntegralHVector, match="round-trip"):
            p.hvec()

    def test_top_binomial(self):
        # p(x) = C(x, n) has h = (0, ..., 0, 1)
        n = 3
        p = PolyClassFunction(TRIV, [ClassFunction(TRIV, [int(i == n)])
                                     for i in range(n + 1)], degree=n)
        h = p.hvec()
        assert [c.at_identity for c in h] == [0, 0, 0, 1]

    def test_linear(self):
        # x = C(x+0, 1): h = (0, 1) at n=1 since C(x+1-1,1) = x
        p = PolyClassFunction(TRIV, [ClassFunction(TRIV, [0]), ClassFunction(TRIV, [1])],
                              degree=1)
        assert [c.at_identity for c in p.hvec()] == [0, 1]

    def test_directed_edge_h(self):
        # x(x+1)/2 = C(x+1, 2), the index-1 slot of C(x+2-i, 2)
        p = PolyClassFunction(TRIV, [ClassFunction(TRIV, [0]), ClassFunction(TRIV, [1]),
                                     ClassFunction(TRIV, [1])], degree=2)
        h = p.hvec()
        assert [c.at_identity for c in h] == [0, 1, 0]
        for x in range(5):
            assert comb(x + 1, 2) == x * (x + 1) // 2


class TestFlawless:
    def test_symmetric_unimodal(self):
        assert is_strongly_flawless([1, 2, 2, 1], d=3)[0]

    def test_first_family_violation(self):
        ok, witness = is_strongly_flawless([2, 1], d=1)
        assert not ok and witness[1] == 0

    def test_effective_version_catches_sign(self):
        g = close_group([Permutation([1, 0])], degree=2)
        sgn = ClassFunction.sign(g)
        triv = ClassFunction.trivial(g)
        ok, _ = is_effectively_flawless([triv, sgn], d=1)
        assert not ok  # sgn - triv = (0, -2) is not effective

    def test_shifted_hypothesis_fails_at_zero(self):
        hyp, concl = shifted_flawless_check([1, 3, 3, 1], r=0, d=3)
        assert not hyp and concl

    def test_shifted_implication_observed(self):
        # whenever the hypothesis chain holds the tail must be flawless
        for fvec in ([0, 0, 1, 1], [0, 1, 2, 1], [0, 0, 0, 5], [1, 3, 3, 1]):
            for r in range(4):
                hyp, concl = shifted_flawless_check(fvec, r=r, d=3)
                if hyp:
                    assert concl

    def test_off_by_two_counterexample(self):
        # slope family with r = ell - 2 = -1 does not make the ell = 1 tail
        # flawless: (3, 5, 2) fails the mirror inequality 3 <= 2
        ok, _ = is_strongly_flawless([3, 5, 2], d=2)
        assert not ok
        assert is_strongly_flawless([0, 0, 3, 5, 2], d=4)[0]


class TestJson:
    def test_roundtrip(self):
        q = q_from_ints(3, {(1,): 2, (1, 2): -1})
        assert load_qsym(dump_qsym(q), TRIV) == q
