"""Depth conditions: homology vanishing of links up to a threshold.

A relative family satisfies condition (S_ell) when for every face sigma of
Delta the relative link homology H_{i-1} vanishes for all i up to
min(dim of the link's Phi-part, ell - 1).  Links whose Phi-part is empty are
vacuous.  The maximal such ell is the depth; full depth d means the complex
is relatively Cohen-Macaulay.
"""
from __future__ import annotations

from itertools import combinations

from .homology import homology_vanishes_up_to


def satisfies_serre(cx, ell):
    """Check (S_ell); returns (ok, witness) with witness = (sigma, i) on failure."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    for sigma in sorted(cx.links, key=lambda f: (len(f), sorted(f))):
        link = cx.links[sigma]
        link_dim = max(len(f) for f in link) - 1
        # condition: H_{i-1}(link) = 0 for i <= min(link_dim, ell - 1),
        # i.e. homology dims -1 .. min(link_dim, ell - 1) - 1 all vanish
        bound = min(link_dim, ell - 1) - 1
        if bound < -1:
            continue
        ok, dim = homology_vanishes_up_to(link, bound)
        if not ok:
            return False, (sigma, dim + 1)
    return True, None


def serre_depth(cx, max_ell=None):
    """Largest ell in 1..d with (S_ell); 0 if even (S_1) fails.

    One pass over the links: a link whose homology H_j with j below its
    dimension does not vanish fails (S_ell) exactly for ell >= j + 2, so it
    caps the depth at j + 1.  Each link is asked only about the degrees
    below the current cap.
    """
    cap = cx.d if max_ell is None else min(max_ell, cx.d)
    for link in cx.links.values():
        if cap <= 0:
            break
        bound = min(max(len(f) for f in link) - 1, cap - 1) - 1
        if bound < -1:
            continue
        ok, dim = homology_vanishes_up_to(link, bound)
        if not ok:
            cap = dim + 1
    return max(cap, 0)


def is_relatively_cm(cx):
    """Full depth: (S_d) with d = number of colors = dim Phi + 1."""
    ok, _ = satisfies_serre(cx, cx.d)
    return ok


def verify_restriction_theorem(cx, ell=None):
    """Restrictions preserve (S_ell): check every color subset.

    With ell=None, uses the full depth of cx.  Returns a report dict; the
    expected outcome is no counterexamples.
    """
    if ell is None:
        ell = serre_depth(cx)
    report = {"ell": ell, "holds_on_input": None, "counterexamples": [], "checked": 0}
    if ell == 0:
        report["holds_on_input"] = False
        return report
    ok, _ = satisfies_serre(cx, ell)
    report["holds_on_input"] = ok
    if not ok:
        return report
    colors = range(1, cx.d + 1)
    for r in range(cx.d + 1):
        for s in combinations(colors, r):
            sub = cx.restrict(s)
            sub_ok, witness = satisfies_serre(sub, ell)
            report["checked"] += 1
            if not sub_ok:
                report["counterexamples"].append({"S": list(s), "witness": str(witness)})
    return report
