"""Equivariant flag enumeration: f/h characters, Hilbert-series class
functions, the two-set refinement h_{S,T}, and inequality verifiers.

The flag f-character f_S is the permutation character of the group acting on
the S-fiber, the faces whose color set is exactly S.  `fibers` buckets a face
family by color set in one pass, and every f_S, h_S and h_{S,T} here is read
off one such table: h_S is its inclusion-exclusion transform over the color
sets inside S.  For Q inside T, the Q-fiber of the color restriction to T
equals the Q-fiber of the whole family, so restrictions never need
re-indexing here.  Links come from the complex's link index.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from .groups import (ClassFunction, close_group, induce, is_effective, leq_g,
                     orbit_count, orbits, permutation_character, stabilizer)
from .homology import equivariant_homology_traces
from .qsym import QSymClassFunction, m_to_f, subsets


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


def fiber_characters(faces, coloring, group):
    """Map each color set S to f_S, the permutation character of the group on
    the S-fiber; color sets with an empty fiber are left out."""
    return {s: permutation_character(group, fib, lambda g, f: g.apply_set(f), check=False)
            for s, fib in fibers(faces, coloring).items()}


def h_from_f(f_chars, s, group):
    """h_S = sum of (-1)^(|S|-|Q|) f_Q over the color sets Q <= S of a
    fiber_characters table."""
    total = ClassFunction.zero(group)
    for q, cf in f_chars.items():
        if q <= s:
            total = total + ((-1) ** (len(s) - len(q))) * cf
    return total


class FlagVectors:
    """All flag f/h characters of a complex with action, plus size aggregates.

    fS/hS: dict from color subset (tuple) to ClassFunction.
    fi[i] = sum of f_S over |S| = i (the aggregate f_{i-1});
    hi[i] = sum of h_S over |S| = i (the aggregate h_{i-1}).
    """

    def __init__(self, cx, action):
        self.complex = cx
        self.group = g = action.group
        f_chars = fiber_characters(cx.faces, cx.coloring, g)
        # every face lies in exactly one fiber
        assert sum(cf.at_identity for cf in f_chars.values()) == len(cx.faces)
        self.fS = {}
        self.hS = {}
        for s in subsets(range(1, cx.d + 1)):
            self.fS[s] = f_chars.get(frozenset(s), ClassFunction.zero(g))
            self.hS[s] = h_from_f(f_chars, frozenset(s), g)
        self.fi = [ClassFunction.zero(g) for _ in range(cx.d + 1)]
        self.hi = [ClassFunction.zero(g) for _ in range(cx.d + 1)]
        for s, cf in self.fS.items():
            self.fi[len(s)] = self.fi[len(s)] + cf
        for s, cf in self.hS.items():
            self.hi[len(s)] = self.hi[len(s)] + cf
        # sanity: h inverts back to f
        for s, cf in self.fS.items():
            back = ClassFunction.zero(g)
            for t in subsets(s):
                back = back + self.hS[t]
            assert back == cf


def hilb(cx, action, basis="M"):
    """The flag quasisymmetric class function, degree d+1.

    M-coefficient of a color set S is the permutation character on the
    S-fiber; the F basis is obtained by conversion.
    """
    fv = FlagVectors(cx, action)
    q = QSymClassFunction(cx.d + 1, action.group, "M", dict(fv.fS))
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
    """The refinement h_{S,T}, computed three ways and asserted equal.

    (a) sum of h_R over S <= R <= T, on the color restriction to T;
    (b) alternating sum of f_Q over T\\S <= Q <= T, same restriction;
    (c) sum over orbit representatives tau of the (T\\S)-fiber of the induced
        character of h_S of (link of tau) restricted to colors S, over the
        stabilizer of tau.
    """
    s, t = frozenset(s), frozenset(t)
    if not s <= t:
        raise ValueError("need S a subset of T")
    g = action.group
    coloring = cx.coloring
    f_chars = fiber_characters(cx.color_restriction(t), coloring, g)

    via_a = ClassFunction.zero(g)
    mid = sorted(t - s)
    for r in range(len(mid) + 1):
        for extra in combinations(mid, r):
            via_a = via_a + h_from_f(f_chars, s | frozenset(extra), g)

    via_b = ClassFunction.zero(g)
    for q, cf in f_chars.items():
        if t - s <= q:
            via_b = via_b + ((-1) ** (len(t) - len(q))) * cf

    via_c = ClassFunction.zero(g)
    for stab, link in _transversal_links(cx, g, s, t):
        local = h_from_f(fiber_characters(link, coloring, stab), s, stab)
        via_c = via_c + induce(local, g)

    if not (via_a == via_b == via_c):
        raise ThreeWayMismatch(f"S={sorted(s)}, T={sorted(t)}: "
                               f"{via_a.values} / {via_b.values} / {via_c.values}")
    return via_a


def _transversal_links(cx, g, s, t):
    """(stabilizer of tau, the color-S part of the link of tau) for one tau
    in each g-orbit of the (T\\S)-fiber of the closure Delta: the colored part
    of a Phi-face need not itself be a Phi-face."""
    fib = fibers(cx.delta, cx.coloring).get(t - s, [])
    for orb in orbits(g, fib, lambda p, f: p.apply_set(f)):
        tau = min(orb, key=sorted)
        link = [f for f in cx.links[tau] if frozenset(cx.coloring[v] for v in f) <= s]
        yield stabilizer(g, tau, lambda p, f: p.apply_set(f)), link


def homology_h_st(cx, action, s, t):
    """h_{S,T} in homology form: induced characters of the top homology of the
    color-S restriction of each transversal link (simplicial dimension
    |S| - 1, since the restricted link has faces of size at most |S|)."""
    s, t = frozenset(s), frozenset(t)
    g = action.group
    target_dim = len(s) - 1
    total = ClassFunction.zero(g)
    for stab, link in _transversal_links(cx, g, s, t):
        traces = equivariant_homology_traces(link, stab)
        total = total + induce(traces.get(target_dim, ClassFunction.zero(stab)), g)
    return total


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
