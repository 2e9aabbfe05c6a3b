"""Equivariant flag enumeration: f/h characters, Hilbert-series class
functions, the two-set refinement h_{S,T}, and inequality verifiers.

Every character here is a count of fixed points (Stanley, "Some aspects of
groups acting on finite posets", JCTA 1982), so all of them are read off one
integer table per action, `FlagTable`, with one value per class
representative.  Colour sets are bitmasks (colour c is bit c - 1), and the
subset sums run over submasks (Bjorklund, Husfeldt, Kaski and Koivisto,
STOC 2007).  For Q inside T, the Q-fiber of the colour restriction to T
equals the Q-fiber of the whole family, so restrictions need no table of
their own.
"""
from __future__ import annotations

from functools import cached_property
from math import comb

from .groups import ClassFunction, close_group, is_effective, leq_g, orbit_count
from .homology import ChainComplex, element_traces, equivariant_homology_traces
from .qsym import (QSymClassFunction, add_scaled, from_masks, m_to_f, mask,
                   submasks, subsets)


class FlagError(Exception):
    pass


class ThreeWayMismatch(FlagError):
    pass


def fibers(faces, coloring):
    """Map each color set to the faces with exactly that color set, in one
    pass over the faces."""
    out = {}
    for f in faces:
        out.setdefault(frozenset(coloring[v] for v in f), []).append(f)
    return out


def _masks(face, coloring):
    """(vertex mask, colour mask) of a face."""
    return sum(1 << v for v in face), mask(coloring[v] for v in face)


def subset_transform(rows, sign):
    """Entry S of a dense table indexed by bitmask becomes the sum over Q <= S
    of sign^|S - Q| times entry Q: the zeta transform for sign 1, the Moebius
    transform for sign -1, in d passes over the 2^d rows."""
    rows = list(rows)
    bit = 1
    while bit < len(rows):
        for m in range(len(rows)):
            if m & bit:
                rows[m] = [a + sign * b for a, b in zip(rows[m], rows[m ^ bit])]
        bit <<= 1
    return rows


class FlagTable:
    """Fixed-point counts of one action, as lists of ints over the class
    representatives.  A colour-preserving g fixes a face setwise exactly when
    it fixes each of its vertices, so each count tests a vertex mask against
    the points g fixes.

    f[Q] counts the Phi-faces of colour set Q, for the colour sets of
    non-empty fibers only.  h, dense over all 2^d colour sets, is the Moebius
    transform of f.  links[A][Q] counts the pairs (tau, rho) with tau in
    Delta of colour set A and rho in lk tau of colour set Q; g fixes the pair
    when it fixes both.  h and links are built on first use, links from the
    complex's link index.
    """

    def __init__(self, action):
        self.complex = cx = action.complex
        self.fixed = [sum(1 << v for v, w in enumerate(g.images) if v == w)
                      for g in action.group.class_reps]
        self.f = {}
        for face in cx.faces:
            vertices, colours = _masks(face, cx.coloring)
            self._tally(self.f, colours, vertices)
        self.link_homology = {}    # (tau, S) -> chain complex, Betti cache

    def _tally(self, table, key, vertices):
        row = table.setdefault(key, [0] * len(self.fixed))
        for k, fixed in enumerate(self.fixed):
            if not vertices & ~fixed:
                row[k] += 1

    @cached_property
    def h(self):
        zero = [0] * len(self.fixed)
        return subset_transform((self.f.get(m, zero) for m in range(1 << self.complex.d)), -1)

    @cached_property
    def delta_fibers(self):
        """Colour set A -> (tau, vertex mask) for each tau in Delta of colour set A."""
        out = {}
        for tau in self.complex.links:
            vertices, a = _masks(tau, self.complex.coloring)
            out.setdefault(a, []).append((tau, vertices))
        return out

    @cached_property
    def links(self):
        cx = self.complex
        out = {}
        for a, taus in self.delta_fibers.items():
            counts = out[a] = {}
            for tau, t_vertices in taus:
                for rho in cx.links[tau]:
                    vertices, q = _masks(rho, cx.coloring)
                    self._tally(counts, q, t_vertices | vertices)
        return out


class FlagVectors:
    """All flag f/h characters of a complex with action, plus size aggregates.

    fS/hS: dict from color subset (tuple) to ClassFunction, every subset of
    [d] included, read densely off the action's FlagTable.
    fi[i] = sum of f_S over |S| = i (the aggregate f_{i-1});
    hi[i] = sum of h_S over |S| = i (the aggregate h_{i-1}).
    """

    def __init__(self, cx, action):
        self.complex = cx
        self.group = g = action.group
        table = action.flag_table
        zero = [0] * g.num_classes
        f = [table.f.get(m, zero) for m in range(1 << cx.d)]
        # every face lies in exactly one fiber, and h sums back to f
        assert sum(row[0] for row in f) == len(cx.faces)
        assert subset_transform(table.h, 1) == f
        self.fS = {}
        self.hS = {}
        for s in subsets(range(1, cx.d + 1)):
            m = mask(s)
            self.fS[s] = ClassFunction(g, f[m])
            self.hS[s] = ClassFunction(g, table.h[m])
        self.fi = [ClassFunction.zero(g) for _ in range(cx.d + 1)]
        self.hi = [ClassFunction.zero(g) for _ in range(cx.d + 1)]
        for s, cf in self.fS.items():
            self.fi[len(s)] = self.fi[len(s)] + cf
        for s, cf in self.hS.items():
            self.hi[len(s)] = self.hi[len(s)] + cf


def hilb(cx, action, basis="M"):
    """The flag quasisymmetric class function, degree d+1.

    M-coefficient of a color set S is the permutation character on the
    S-fiber, one per non-empty fiber; the F basis is obtained by conversion.
    """
    q = from_masks(cx.d + 1, action.group, "M", action.flag_table.f)
    if basis == "F":
        return m_to_f(q)
    return q


def orbital_hilb(cx, action, out_group=None):
    """Orbit-counting version over the trivial group: M-coefficient of S is
    the number of face orbits in the S-fiber, computed by both explicit
    partitioning and the fixed-point average (asserted equal inside
    orbit_count)."""
    if out_group is None:
        out_group = close_group([], degree=1)
    coeffs = {}
    fibs = fibers(cx.faces, cx.coloring)
    for s in subsets(range(1, cx.d + 1)):
        fib = fibs.get(frozenset(s))
        if not fib:
            continue
        n = orbit_count(action.group, fib, lambda g, f: g.apply_set(f), check=False)
        coeffs[tuple(s)] = ClassFunction(out_group, [n] * out_group.num_classes)
    return QSymClassFunction(cx.d + 1, out_group, "M", coeffs)


def h_st(cx, action, s, t):
    """The refinement h_{S,T}, computed three ways from the action's
    FlagTable and asserted equal.

    (a) sum of h_R over S <= R <= T;
    (b) alternating sum of f_Q over T\\S <= Q <= T;
    (c) the sum over tau in the (T\\S)-fiber of Delta of the characters
        Ind h_S(lk tau) induced from the stabilizers of tau.  By Frobenius
        its value at g is the sum, over the tau that g fixes, of h_S of the
        colour-S part of lk tau at g: the alternating sum over Q <= S of the
        fixed pairs (tau, rho) counted in the link table.
    """
    s, t = frozenset(s), frozenset(t)
    if not s <= t:
        raise ValueError("need S a subset of T")
    g = action.group
    table = action.flag_table
    sm, a = mask(s), mask(t - s)
    via_a, via_b, via_c = ([0] * g.num_classes for _ in range(3))
    for q in submasks(a):
        add_scaled(via_a, 1, table.h[sm | q])
    links = table.links.get(a, {})
    for q in submasks(sm):
        sign = (-1) ** (sm ^ q).bit_count()
        add_scaled(via_b, sign, table.f.get(a | q, ()))
        add_scaled(via_c, sign, links.get(q, ()))
    if not (via_a == via_b == via_c):
        raise ThreeWayMismatch(f"S={sorted(s)}, T={sorted(t)}: "
                               f"{via_a} / {via_b} / {via_c}")
    return ClassFunction(g, via_a)


def homology_h_st(cx, action, s, t):
    """h_{S,T} in homology form: at each class representative g, the sum
    over the tau in the (T\\S)-fiber of Delta that g fixes of the trace of g
    on the top homology of the colour-S part of lk tau (simplicial dimension
    |S| - 1, since that part has faces of size at most |S|).  By Frobenius
    this is the sum over orbits of the characters induced from the
    stabilizers."""
    s, t = frozenset(s), frozenset(t)
    g = action.group
    table = action.flag_table
    dim = len(s) - 1
    values = [0] * g.num_classes
    for tau, vertices in table.delta_fibers.get(mask(t - s), []):
        if (tau, s) not in table.link_homology:
            cc = ChainComplex(rho for rho in cx.links[tau]
                              if all(cx.coloring[v] in s for v in rho))
            cc.check_d_squared()
            table.link_homology[tau, s] = cc, {}
        cc, cache = table.link_homology[tau, s]
        for k, rep in enumerate(g.class_reps):
            if dim in cc.by_dim and not vertices & ~table.fixed[k]:
                values[k] += element_traces(cc, rep, [dim], cache)[dim]
    return ClassFunction(g, values)


def verify_eulerchar2(cx, action):
    """F-coefficients of Hilb equal alternating homology character sums.

    For each color set S: [F_S] Hilb = sum over i of (-1)^(|S|-i) times the
    character of H_{i-1} of the color restriction to S.  Exact per class.
    """
    g = action.group
    f_expansion = hilb(cx, action, basis="F")
    failures = []
    for s in subsets(range(1, cx.d + 1)):
        rest = list(cx.color_restriction(s))
        traces = equivariant_homology_traces(rest, g)
        rhs = ClassFunction.zero(g)
        for dim, cf in traces.items():
            i = dim + 1
            rhs = rhs + ((-1) ** (len(s) - i)) * cf
        lhs = f_expansion.coeff(s)
        if lhs != rhs:
            failures.append({"S": list(s), "F_coeff": lhs.values, "homology": rhs.values})
    return {"ok": not failures, "failures": failures}


def verify_intro1(cx, action, ell, table=None):
    """Effectiveness of h_{S,T} for |S| <= ell, with the homology form checked
    independently against the combinatorial three-way value."""
    failures = []
    checked = 0
    for t in subsets(range(1, cx.d + 1)):
        for s in subsets(t):
            if len(s) > ell:
                continue
            val = h_st(cx, action, s, t)
            checked += 1
            ok, mults = is_effective(val, table)
            if not ok:
                failures.append({"S": list(s), "T": list(t), "value": val.values,
                                 "multiplicities": mults})
            homo = homology_h_st(cx, action, frozenset(s), frozenset(t))
            if homo != val:
                failures.append({"S": list(s), "T": list(t),
                                 "reason": "homology form disagrees",
                                 "value": val.values, "homology": homo.values})
    return {"ok": not failures, "checked": checked, "failures": failures}


def verify_intro2(cx, action, ell, table=None):
    """h_i effective for i <= ell, plus the binomial h-combinations
    for 0 <= i <= ell <= j <= d, plus the per-S binomial combination."""
    fv = FlagVectors(cx, action)
    d = cx.d
    failures = []
    for i in range(0, min(ell, d) + 1):
        ok, _ = is_effective(fv.hi[i], table)
        if not ok:
            failures.append({"kind": "h_i", "i": i, "value": fv.hi[i].values})
    for i in range(0, ell + 1):
        for j in range(ell, d + 1):
            total = ClassFunction.zero(action.group)
            for k in range(ell, j + 1):
                total = total + comb(d - k, j - k) * comb(k - ell + i, i) * fv.hi[k]
            ok, _ = is_effective(total, table)
            if not ok:
                failures.append({"kind": "binomial", "i": i, "j": j, "value": total.values})
    for s in subsets(range(1, d + 1)):
        for i in range(0, ell + 1):
            total = ClassFunction.zero(action.group)
            for t in subsets(s):
                if len(t) >= ell:
                    total = total + comb(len(t) - (ell - i), i) * fv.hS[tuple(t)]
            ok, _ = is_effective(total, table)
            if not ok:
                failures.append({"kind": "per-S", "S": list(s), "i": i, "value": total.values})
    return {"ok": not failures, "failures": failures}


def verify_intro3(cx, action, ell, table=None):
    """The aggregate f-inequality families under the vanishing hypothesis
    f_{i-1} = 0 for i < ell.

    Asserted: the slope family (d-i) f_{i-1} <= (i-ell+2) f_i for i >= ell,
    and the unimodal/mirror families for the shifted tail starting at
    r = ell-2 (the range the slope family actually supports; see
    shifted_flawless_check).  The unshifted ranges starting at ell admit
    counterexamples, e.g. the f-vector (0, 3, 5, 2) with d = 3, ell = 1;
    their status is reported in "tail_from_ell_ok" without failing the check.
    """
    fv = FlagVectors(cx, action)
    d = cx.d
    zero = ClassFunction.zero(action.group)
    for i in range(0, ell):
        if not fv.fi[i].is_zero():
            return {"ok": True, "skipped": True,
                    "reason": f"hypothesis fails: f_{{{i - 1}}} nonzero"}
    failures = []
    # fi[k] = f_{k-1} throughout
    for i in range(ell, d + 1):
        lhs = (d - i) * fv.fi[i]
        rhs = (i - ell + 2) * (fv.fi[i + 1] if i + 1 <= d else zero)
        if not leq_g(lhs, rhs, table):
            failures.append({"kind": "slope", "i": i})

    def flawless_families(r):
        bad = []
        for i in range(r, (d + r - 1) // 2 + 1):
            if not leq_g(fv.fi[i], fv.fi[i + 1] if i + 1 <= d else zero, table):
                bad.append({"kind": "unimodal", "i": i})
        for i in range(r, (d + r) // 2 + 1):
            j = d + r - i
            other = fv.fi[j] if 0 <= j <= d else zero
            if not leq_g(fv.fi[i], other, table):
                bad.append({"kind": "mirror", "i": i})
        return bad

    report = {"skipped": False}
    if ell >= 2:
        failures.extend(flawless_families(ell - 2))
    report["tail_from_ell_ok"] = not flawless_families(ell)
    report["failures"] = failures
    report["ok"] = not failures
    return report
