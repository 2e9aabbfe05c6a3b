"""Quasisymmetric class functions of bounded degree.

A degree-n quasisymmetric class function is stored as a map from subsets of
[n-1] to class functions, tagged with the basis (monomial M or fundamental F).
Principal specialization lands in polynomial class functions expressed in the
binomial basis C(x, i), with an exact change of basis to C(x+n-i, n).
"""
from __future__ import annotations

from itertools import chain, combinations
from math import comb

from .groups import ClassFunction, GroupMismatch, is_effective, leq_g


class QSymError(Exception):
    pass


class BasisMismatch(QSymError):
    pass


class NonIntegralHVector(QSymError):
    pass


def subsets(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


class QSymClassFunction:
    """Map subset of [n-1] -> ClassFunction, in the M or F basis."""

    def __init__(self, degree, group, basis, coeffs):
        if basis not in ("M", "F"):
            raise BasisMismatch(f"unknown basis {basis!r}")
        self.degree = degree
        self.group = group
        self.basis = basis
        clean = {}
        for s, cf in coeffs.items():
            s = tuple(sorted(s))
            if s and (s[0] < 1 or s[-1] > degree - 1):
                raise ValueError(f"subset {s} not contained in [1..{degree - 1}]")
            if len(set(s)) != len(s):
                raise ValueError(f"repeated entries in {s}")
            if cf.group is not group:
                raise GroupMismatch("coefficient on the wrong group")
            if not cf.is_zero():
                clean[s] = cf
        self.coeffs = clean

    def coeff(self, s):
        return self.coeffs.get(tuple(sorted(s)), ClassFunction.zero(self.group))

    def __eq__(self, other):
        return (isinstance(other, QSymClassFunction)
                and self.degree == other.degree and self.group is other.group
                and self.basis == other.basis and self.coeffs == other.coeffs)

    def __add__(self, other):
        if self.basis != other.basis or self.degree != other.degree:
            raise BasisMismatch("cannot add across bases or degrees")
        out = dict(self.coeffs)
        for s, cf in other.coeffs.items():
            out[s] = out[s] + cf if s in out else cf
        return QSymClassFunction(self.degree, self.group, self.basis, out)

    def __sub__(self, other):
        return self + QSymClassFunction(other.degree, other.group, other.basis,
                                        {s: -cf for s, cf in other.coeffs.items()})

    def __repr__(self):
        terms = ", ".join(f"{set(s) if s else '{}'}: {cf.values}"
                          for s, cf in sorted(self.coeffs.items()))
        return f"QSym[{self.basis},deg {self.degree}]({terms})"


def mask(s):
    """The bitmask of a set of positive integers: i is bit i - 1."""
    return sum(1 << (i - 1) for i in s)


def unmask(m):
    """The ascending tuple of a bitmask's elements."""
    return tuple(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def submasks(m):
    sub = m
    while sub:
        yield sub
        sub = (sub - 1) & m
    yield 0


def add_scaled(total, scale, values):
    for k, v in enumerate(values):
        total[k] += scale * v


def from_masks(degree, group, basis, rows):
    """The QSymClassFunction whose coefficient on the subset of each bitmask
    m has the class values rows[m], in `subsets` order."""
    order = sorted(rows, key=lambda m: (m.bit_count(), unmask(m)))
    return QSymClassFunction(degree, group, basis,
                             {unmask(m): ClassFunction(group, rows[m]) for m in order})


def _superset_sums(q, sign, basis):
    """The coefficient of S in the result is the sum over T <= S of
    sign^|S - T| times the coefficient of T in q.  Only supersets of the
    nonzero coefficients can be nonzero, so each is pushed to its supersets
    inside [n-1]."""
    full = (1 << (q.degree - 1)) - 1
    sums = {}
    for t, cf in q.coeffs.items():
        m = mask(t)
        for sub in submasks(full & ~m):
            add_scaled(sums.setdefault(m | sub, [0] * q.group.num_classes),
                       sign ** sub.bit_count(), cf.values)
    return from_masks(q.degree, q.group, basis, sums)


def m_to_f(q):
    """Rewrite from the monomial to the fundamental basis.

    F_S = sum over T containing S of M_T, so the F-coefficient of S is the
    alternating sum over T inside S of the M-coefficients.
    """
    if q.basis != "M":
        raise BasisMismatch("m_to_f needs an M-basis input")
    return _superset_sums(q, -1, "F")


def f_to_m(q):
    """Rewrite from the fundamental to the monomial basis."""
    if q.basis != "F":
        raise BasisMismatch("f_to_m needs an F-basis input")
    return _superset_sums(q, 1, "M")


class PolyClassFunction:
    """Polynomial class function p(x) = sum_i fvec[i] * C(x, i).

    fvec[i] is the coefficient of C(x, i); conventionally written
    (f_{-1}, f_0, ..., f_{d-1}) so f_{i-1} sits at index i.
    """

    def __init__(self, group, fvec, degree=None):
        self.group = group
        self.fvec = list(fvec)
        self.degree = degree if degree is not None else len(self.fvec) - 1

    def evaluate(self, x):
        """Exact value at a nonnegative integer x, as a ClassFunction."""
        total = ClassFunction.zero(self.group)
        for i, cf in enumerate(self.fvec):
            total = total + comb(x, i) * cf
        return total

    def hvec(self):
        """Coefficients h with p(x) = sum_i h[i] * C(x+n-i, n), n = degree.

        Closed form h_k = sum over i <= k of (-1)^(k-i) C(n-i, k-i) f_i;
        entries must come out integral per class, and the two expansions are
        compared once more at x = n+1.
        """
        n = self.degree
        hvec = []
        for k in range(n + 1):
            total = ClassFunction.zero(self.group)
            for i in range(min(k, len(self.fvec) - 1) + 1):
                total = total + (-1) ** (k - i) * comb(n - i, k - i) * self.fvec[i]
            if not all(isinstance(v, int) for v in total.values):
                raise NonIntegralHVector(f"h-vector entry {total.values} is not integral")
            hvec.append(total)
        x = n + 1
        rhs_cf = ClassFunction.zero(self.group)
        for i, cf in enumerate(hvec):
            rhs_cf = rhs_cf + comb(x + n - i, n) * cf
        if self.evaluate(x) != rhs_cf:
            raise NonIntegralHVector("binomial-basis change failed round-trip")
        return hvec


def principal_specialization(q):
    """Substitute x_1 = ... = x_x = 1 (rest 0): M_{S,n} becomes C(x, |S|+1)."""
    if q.basis != "M":
        q = f_to_m(q)
    n = q.degree
    fvec = [ClassFunction.zero(q.group) for _ in range(n + 1)]
    for s, cf in q.coeffs.items():
        fvec[len(s) + 1] = fvec[len(s) + 1] + cf
    return PolyClassFunction(q.group, fvec, degree=n)


def _pairwise_checks(fvec, d, compare):
    """Shared driver for the two flawlessness inequality families.

    fvec is indexed so fvec[i] = f_{i-1}; compare(a, b) decides a <= b.
    Returns (ok, first_violation) with violations tagged by family.
    """
    def f(i):
        idx = i + 1
        if 0 <= idx < len(fvec):
            return fvec[idx]
        return None
    for i in range(0, d + 1):
        if 2 * i <= d - 1:
            a, b = f(i - 1), f(i)
            if a is not None and b is not None and not compare(a, b):
                return False, ("f_{i-1} <= f_i", i)
        if 2 * i <= d:
            a, b = f(i - 1), f(d - i - 1)
            if a is not None and b is not None and not compare(a, b):
                return False, ("f_{i-1} <= f_{d-i-1}", i)
    return True, None


def is_strongly_flawless(fvec, d=None):
    """Integer flawlessness of (f_{-1}, ..., f_{d-1}); fvec holds ints."""
    if d is None:
        d = len(fvec) - 1
    return _pairwise_checks(fvec, d, lambda a, b: a <= b)


def is_effectively_flawless(fvec, d=None, table=None):
    """Equivariant flawlessness: differences must be effective characters."""
    if d is None:
        d = len(fvec) - 1
    return _pairwise_checks(fvec, d, lambda a, b: leq_g(a, b, table))


def shifted_flawless_check(fvec, r, d=None, table=None):
    """Check (d-i) f_{i-1} <= (i-r) f_i for all i, and flawlessness of the tail.

    Returns (hypothesis, conclusion); the implication between them is a claim
    to be observed, not assumed.  Scalar entries are compared as integers,
    ClassFunction entries by effectiveness of the difference.
    """
    if d is None:
        d = len(fvec) - 1
    equivariant = isinstance(fvec[0], ClassFunction) if fvec else False
    cmp = (lambda a, b: leq_g(a, b, table)) if equivariant else (lambda a, b: a <= b)

    hypothesis = True
    for i in range(0, d + 1):
        a = fvec[i] if i < len(fvec) else None          # f_{i-1}
        b = fvec[i + 1] if i + 1 < len(fvec) else None  # f_i
        if a is None or b is None:
            continue
        if not cmp((d - i) * a, (i - r) * b):
            hypothesis = False
            break

    tail = fvec[r:]  # (f_{r-1}, ..., f_{d-1}), re-indexed as its own f-vector
    if equivariant:
        conclusion, _ = is_effectively_flawless(tail, d=d - r, table=table)
    else:
        conclusion, _ = is_strongly_flawless(tail, d=d - r)
    return hypothesis, conclusion


def load_qsym(data, group):
    """Build a QSymClassFunction from its JSON form."""
    degree = int(data["degree"])
    basis = data["basis"]
    coeffs = {}
    for term in data.get("terms", []):
        s = tuple(sorted(int(x) for x in term["subset"]))
        values = term["values"]
        if len(values) != group.num_classes:
            raise ValueError(f"term {s}: expected {group.num_classes} class values")
        cf = ClassFunction(group, values)
        coeffs[s] = coeffs[s] + cf if s in coeffs else cf
    return QSymClassFunction(degree, group, basis, coeffs)


def dump_qsym(q):
    return {
        "degree": q.degree,
        "basis": q.basis,
        "terms": [{"subset": list(s), "values": list(cf.values)}
                  for s, cf in sorted(q.coeffs.items())],
    }
