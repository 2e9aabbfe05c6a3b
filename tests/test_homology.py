"""Relative homology, equivariant traces, and the Hopf trace identity.

The traces from fixed-point Betti numbers are checked against the trace on
cycles minus the trace on boundaries, computed with Fraction nullspaces and
an exact solve of B X = M B; that Fraction path is kept here as the oracle.
"""
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig1_complex, fig1_z2

from eqflag import flags
from eqflag.complexes import GroupAction, color_automorphism_group, downward_closure
from eqflag.corpus import random_complex, random_complexes, small_mixed_graphs
from eqflag.groups import ClassFunction, Permutation, close_group
from eqflag.homology import (ChainComplex, HomologyError, betti,
                             equivariant_homology_traces,
                             homology_vanishes_up_to, hopf_trace_check)
from eqflag.linalg import rank_exact, rank_int, rank_mod_p
from eqflag.mixedgraph import coloring_complex
from eqflag.qsym import subsets


# ------------------------------------------------------------------ oracle

def rref(rows):
    """Reduced row echelon form over Fractions; returns (matrix, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace, as Fraction column vectors."""
    if not rows:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_columns(a_cols, b_cols):
    """Coordinates of each b in terms of the independent columns a."""
    if not a_cols:
        assert not any(any(b) for b in b_cols)
        return [[] for _ in b_cols]
    k = len(a_cols)
    aug = [[a[i] for a in a_cols] + [b[i] for b in b_cols]
           for i in range(len(a_cols[0]))]
    red, pivots = rref(aug)
    assert pivots == list(range(k)), "dependent columns or inconsistent system"
    return [[red[r][k + j] for r in range(k)] for j in range(len(b_cols))]


def induced_matrix(cc, g, dim):
    """Signed permutation matrix of g on dim-chains (columns = images)."""
    basis = cc.basis(dim)
    mat = [[0] * len(basis) for _ in basis]
    for j, f in enumerate(basis):
        img = g.apply_set(f)
        if img not in cc.index[dim]:
            raise HomologyError(f"face {sorted(f)} not preserved by the action")
        mat[cc.index[dim][img]][j] = sort_sign([g(v) for v in sorted(f)])
    return mat


def sort_sign(seq):
    """Parity of the permutation sorting seq (distinct entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        m = min(range(i, len(seq)), key=seq.__getitem__)
        if m != i:
            seq[i], seq[m] = seq[m], seq[i]
            sign = -sign
    return sign


def trace_on_subspace(basis_cols, matrix):
    """Trace of a map on an invariant subspace: solve B X = M B."""
    if not basis_cols:
        return Fraction(0)
    n = len(basis_cols[0])
    mapped = [[sum(matrix[i][j] * col[j] for j in range(n)) for i in range(n)]
              for col in basis_cols]
    coords = solve_columns(basis_cols, mapped)
    return sum(coords[k][k] for k in range(len(basis_cols)))


def oracle_traces(faces, group):
    """dim -> class values: trace on cycles minus trace on boundaries."""
    cc = ChainComplex(faces)
    cc.check_d_squared()
    out = {}
    for dim in cc.dims:
        cycles = nullspace(cc.boundary(dim), len(cc.basis(dim)))
        up = cc.boundary(dim + 1)
        boundaries = ([[Fraction(up[i][j]) for i in range(len(up))]
                       for j in rref(up)[1]] if up and up[0] else [])
        out[dim] = ClassFunction(group, [
            trace_on_subspace(cycles, induced_matrix(cc, g, dim))
            - trace_on_subspace(boundaries, induced_matrix(cc, g, dim))
            for g in group.class_reps])
    return out


def assert_matches_oracle(faces, group):
    traces = equivariant_homology_traces(faces, group)
    assert traces == oracle_traces(faces, group)
    assert all(type(v) is int for cf in traces.values() for v in cf.values)
    return traces


def set_automorphisms(faces, n):
    """Every permutation of range(n) that maps the face set onto itself."""
    faces = set(faces)
    return close_group([p for p in map(Permutation, permutations(range(n)))
                        if all(p.apply_set(f) in faces for f in faces)], degree=n)


def triangle_boundary():
    """Boundary of a 2-simplex: a circle, betti (1, 1) in dims 0 (reduced: H_-1=0,
    H_0=0, H_1=1 with the empty face present)."""
    faces = downward_closure([{0, 1}, {1, 2}, {0, 2}])
    return faces


class TestBetti:
    def test_full_simplex_contractible(self):
        faces = downward_closure([{0, 1, 2}])
        assert all(b == 0 for b in betti(faces).values())

    def test_circle(self):
        # reduced homology of S^1: one class in dim 1
        b = betti(triangle_boundary())
        assert b[1] == 1 and b[0] == 0 and b[-1] == 0

    def test_fig1_relative(self):
        # cone minus its boundary square: everything concentrated in dim 2
        b = betti(fig1_complex().faces)
        assert b == {0: 0, 1: 0, 2: 1}

    def test_void_family(self):
        assert betti([]) == {}

    def test_empty_face_only(self):
        assert betti([frozenset()]) == {-1: 1}

    def test_modular_fast_path_agrees(self):
        faces = triangle_boundary()
        assert betti(faces, exact=False) == betti(faces, exact=True)

    def test_vanishing_certificate(self):
        ok, dim = homology_vanishes_up_to(downward_closure([{0, 1, 2}]), 2)
        assert ok and dim is None
        ok, dim = homology_vanishes_up_to(triangle_boundary(), 1)
        assert not ok and dim == 1


class TestRank:
    def test_pivot_kept_on_rows_without_entry(self):
        # elimination must scale a row with a zero in the pivot column too,
        # or a later exact division goes wrong; the rank is 3, not 2
        m = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 2], [2, 0, 1, 0]]
        assert rank_int(m) == rank_exact(m) == 3
        assert rank_int([[2, 2, 1], [0, -1, -1], [0, 2, 1]]) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda c: st.lists(
        st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=1, max_size=6)))
    def test_against_fraction_elimination(self, rows):
        rank = len(rref(rows)[1])
        assert rank_int(rows) == rank_exact(rows) == rank
        assert rank_mod_p(rows) <= rank


class TestChainComplex:
    def test_d_squared(self):
        cc = ChainComplex(downward_closure([{0, 1, 2}, {1, 2, 3}]))
        cc.check_d_squared()

    def test_relative_boundary_drops_missing(self):
        # relative pair: triangle minus its boundary; d2 is injective with
        # zero target rows outside the family
        faces = [frozenset({0, 1, 2})]
        cc = ChainComplex(faces)
        assert cc.boundary(2) == []

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.sets(st.integers(min_value=0, max_value=5),
                           min_size=1, max_size=4).map(frozenset),
                   min_size=1, max_size=6))
    def test_d_squared_random_closures(self, tops):
        cc = ChainComplex(downward_closure(tops))
        cc.check_d_squared()


class TestEquivariant:
    def test_fig1_top_trace(self):
        # [DERIVED: rotation-by-half fixes no 2-face; H_2 carries the trivial character]
        cx = fig1_complex()
        traces = equivariant_homology_traces(cx.faces, fig1_z2())
        assert list(traces[2].values) == [1, 1]
        assert traces[0].is_zero() and traces[1].is_zero()

    def test_circle_with_rotation(self):
        grp = close_group([Permutation([1, 2, 0])], degree=3)
        traces = equivariant_homology_traces(triangle_boundary(), grp)
        # H_1 of the circle: orientation class fixed by rotation
        assert traces[1].at_identity == 1

    def test_hopf_trace_fig1(self):
        ok, report = hopf_trace_check(fig1_complex().faces, fig1_z2())
        assert ok
        assert report["chain"] == report["homology"]

    @settings(max_examples=15, deadline=None)
    @given(st.sets(st.sets(st.integers(min_value=0, max_value=3),
                           min_size=1, max_size=3).map(frozenset),
                   min_size=1, max_size=5))
    def test_hopf_trace_random(self, tops):
        faces = downward_closure(tops)
        verts = sorted({v for f in faces for v in f})
        if not verts:
            return
        n = max(verts) + 1
        grp = close_group([], degree=n)
        ok, _ = hopf_trace_check(faces, grp)
        assert ok


class TestAgainstOracle:
    """Fixed-point Betti numbers against the Fraction trace path."""

    @pytest.fixture(scope="class")
    def corpus(self):
        cxs = list(random_complexes(200, seed=0))
        cxs += [coloring_complex(g)[0] for g in small_mixed_graphs(max_n=4)]
        return [(cx, color_automorphism_group(cx)) for cx in cxs]

    def test_acceptance_corpus(self, corpus):
        assert len(corpus) == 315
        for cx, grp in corpus:
            assert_matches_oracle(cx.faces, grp)

    def test_links_and_restrictions(self, corpus, monkeypatch):
        """Every face family that homology_h_st and verify_eulerchar2 hand to
        the traces on the acceptance corpus."""
        calls = {}

        def record(faces, group, max_dim=None):
            faces = frozenset(faces)
            calls.setdefault((faces, group.elements), (faces, group))
            return equivariant_homology_traces(faces, group, max_dim)

        monkeypatch.setattr(flags, "equivariant_homology_traces", record)
        for cx, grp in corpus:
            action = GroupAction(cx, grp)
            assert flags.verify_eulerchar2(cx, action)["ok"]
            for t in subsets(range(1, cx.d + 1)):
                for s in subsets(t):
                    flags.homology_h_st(cx, action, frozenset(s), frozenset(t))
        assert len(calls) > 1000
        for faces, group in calls.values():
            assert_matches_oracle(faces, group)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_balanced_complexes(self, rng):
        cx = random_complex(rng, 1, 4)
        assert_matches_oracle(cx.faces, color_automorphism_group(cx))

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.sets(st.integers(0, 4), min_size=1, max_size=4).map(frozenset),
                   min_size=1, max_size=5),
           st.sets(st.sets(st.integers(0, 4), max_size=3).map(frozenset), max_size=3))
    def test_random_relative_families(self, tops, removed):
        """Delta minus a subcomplex Gamma under every permutation preserving
        the family, colour-preserving or not."""
        gamma = downward_closure(removed) & downward_closure(tops)
        faces = downward_closure(tops) - gamma
        grp = set_automorphisms(faces, 5)
        assert_matches_oracle(faces, grp)
        assert hopf_trace_check(faces, grp)[0]


class TestOrientationReversingActions:
    """Actions that do not preserve colour: a face fixed as a set need not be
    fixed point by point, and the orbit sum of a face whose stabilizer
    reverses its orientation is 0."""

    def check_orientation_character(self, faces, grp, top):
        traces = assert_matches_oracle(faces, grp)
        assert traces[top] == ClassFunction(grp, [orientation(g, faces) for g in grp.class_reps])
        assert all(cf.is_zero() for dim, cf in traces.items() if dim != top)
        assert hopf_trace_check(faces, grp)[0]

    def test_s3_on_triangle_boundary(self):
        faces = triangle_boundary()
        grp = set_automorphisms(faces, 3)
        assert grp.order == 6
        self.check_orientation_character(faces, grp, 1)

    def test_s4_on_tetrahedron_boundary(self):
        faces = downward_closure(combinations(range(4), 3))
        grp = set_automorphisms(faces, 4)
        assert grp.order == 24
        self.check_orientation_character(faces, grp, 2)

    def test_dihedral_on_square(self):
        faces = downward_closure([{0, 1}, {1, 2}, {2, 3}, {3, 0}])
        grp = set_automorphisms(faces, 4)
        assert grp.order == 8
        self.check_orientation_character(faces, grp, 1)

    def test_reversed_edge_drops_out(self):
        # the swap of an edge's ends reverses it: the edge alone carries the
        # sign character, and nothing is invariant
        faces = [frozenset({0, 1})]
        grp = close_group([Permutation([1, 0])], degree=2)
        assert equivariant_homology_traces(faces, grp)[1].values == (1, -1)
        assert hopf_trace_check(faces, grp)[0]

    def test_action_leaving_the_family(self):
        with pytest.raises(HomologyError, match="not preserved"):
            equivariant_homology_traces([frozenset({0}), frozenset()],
                                        close_group([Permutation([1, 0])], degree=2))


def orientation(g, faces):
    """+1 when g preserves the orientation of the top-dimensional cycle of a
    sphere given by all of its faces, -1 when it reverses it: the sign of g on
    the vertex set for a simplex boundary, and for a polygon the sign of g on
    its edges' cyclic order."""
    verts = sorted({v for f in faces for v in f})
    top = max(len(f) for f in faces)
    if top == len(verts) - 1:
        return Permutation([verts.index(g(v)) for v in verts]).sign()
    n = len(verts)
    return 1 if g(1) == (g(0) + 1) % n else -1
