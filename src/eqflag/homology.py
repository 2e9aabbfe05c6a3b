"""Relative simplicial homology over the rationals, with equivariant traces.

The chain complex of a relative family depends only on its face set Phi: the
i-chain basis is the set of i-dimensional Phi-faces, and boundary terms that
land outside Phi are dropped.  The empty face spans degree -1; a void family
(no faces at all) has zero chain groups everywhere.

Everything is read off integer ranks of boundary matrices.  Equivariant
traces come from Betti numbers of fixed-point complexes: over Q the
invariants H_i(C)^H of a subgroup H are the homology of the invariant
complex C^H, spanned by the orbit sums of faces (the transfer; Bredon,
Introduction to Compact Transformation Groups, ch. III).  For g of order m
and each k | m, the Betti number b_k of C^<g^k> is the sum of phi(e) a_e
over e | k, where a_e counts the copies of the rational irreducible Q(zeta_e)
of <g> in H_i.  Moebius inversion gives the a_e, and g has trace mu(e) on
Q(zeta_e), so tr(g | H_i) = sum over e | m of a_e mu(e); this is the
equivariant Hopf trace of Stanley (JCTA 1982) read one degree at a time.
"""
from __future__ import annotations

from math import gcd

from .groups import ClassFunction
from .linalg import rank_exact, rank_mod_p


class HomologyError(Exception):
    pass


class ChainComplex:
    """Chain groups and boundary matrices of a relative face family.

    faces: iterable of frozensets of integer vertices.  Dimension i runs from
    -1 (the empty face) to the top face dimension.
    """

    def __init__(self, faces):
        faces = [frozenset(f) for f in faces]
        self.by_dim = {}
        for f in faces:
            self.by_dim.setdefault(len(f) - 1, []).append(f)
        for dim in self.by_dim:
            self.by_dim[dim].sort(key=sorted)
        self.index = {dim: {f: i for i, f in enumerate(fs)}
                      for dim, fs in self.by_dim.items()}
        self.dims = sorted(self.by_dim)
        self.top = self.dims[-1] if self.dims else -2

    def basis(self, dim):
        return self.by_dim.get(dim, [])

    def facets(self, f):
        """(position, facet) for the codimension-one faces of f in the family;
        the boundary coefficient of the facet is (-1) ** position."""
        below = self.index.get(len(f) - 2, {})
        for pos, v in enumerate(sorted(f)):
            sub = f - {v}
            if sub in below:
                yield pos, sub

    def boundary(self, dim):
        """Boundary matrix from dim-chains to (dim-1)-chains, integer entries.

        Rows are indexed by (dim-1)-faces, columns by dim-faces; faces missing
        from the family contribute nothing.
        """
        row_index = self.index.get(dim - 1, {})
        mat = [[0] * len(self.basis(dim)) for _ in self.basis(dim - 1)]
        for j, f in enumerate(self.basis(dim)):
            for pos, sub in self.facets(f):
                mat[row_index[sub]][j] = (-1) ** pos
        return mat

    def check_d_squared(self):
        """Raise unless every boundary of a boundary vanishes in the family."""
        for dim in self.dims:
            for f in self.basis(dim):
                total = {}
                for pos, sub in self.facets(f):
                    for pos2, sub2 in self.facets(sub):
                        total[sub2] = total.get(sub2, 0) + (-1) ** (pos + pos2)
                if any(total.values()):
                    raise HomologyError("boundary squared is nonzero")

    def betti(self, max_dim=None, exact=True):
        """Betti numbers as a dict dim -> rank of homology.

        With exact=False a single modular rank pass is used, which can only
        overestimate betti; a zero result is therefore still a certificate of
        vanishing.
        """
        rank = rank_exact if exact else rank_mod_p
        out = {}
        boundary_rank = {}
        for dim in self.dims:
            if max_dim is not None and dim > max_dim:
                break
            ncols = len(self.basis(dim))
            if dim not in boundary_rank:
                boundary_rank[dim] = rank(self.boundary(dim))
            up = self.boundary(dim + 1)
            boundary_rank[dim + 1] = rank(up)
            out[dim] = ncols - boundary_rank[dim] - boundary_rank[dim + 1]
        return out

    def fixed_betti(self, images, dims):
        """Betti numbers, in the given dims, of the complex of orbit sums of
        the cyclic group generated by the permutation with these images.

        Each face gets its orbit's first face and the sign that carries one
        to the other.  An orbit whose stabilizer reverses orientation has
        orbit sum 0 and is dropped.  The boundary of an orbit sum is again
        invariant, so its coordinate on an orbit is its coefficient on that
        orbit's first face.
        """
        label = {}
        for dim in range(dims[0] - 1, dims[-1] + 2):
            family = self.index.get(dim, {})
            for f in self.basis(dim):
                if f in label:
                    continue
                orbit, cur, sign = [], f, 1
                while True:
                    orbit.append((cur, sign))
                    src = sorted(cur)
                    img = [images[v] for v in src]
                    cur = frozenset(img)
                    if cur not in family:
                        raise HomologyError(f"face {src} not preserved by the action")
                    sign *= _sort_sign(img)
                    if cur == f:
                        break
                for face, s in orbit:
                    label[face] = (f, s) if sign > 0 else None
        reps = {dim: [f for f in self.basis(dim) if label[f] == (f, 1)]
                for dim in range(dims[0] - 1, dims[-1] + 2)}
        ranks = {}
        for dim in range(dims[0], dims[-1] + 2):
            rows = {f: i for i, f in enumerate(reps[dim - 1])}
            cols = {f: j for j, f in enumerate(reps[dim])}
            mat = [[0] * len(cols) for _ in rows]
            for f in self.basis(dim):
                if label[f] is None:
                    continue
                rep, s = label[f]
                for pos, sub in self.facets(f):
                    i = rows.get(sub)
                    if i is not None:
                        mat[i][cols[rep]] += s * (-1) ** pos
            ranks[dim] = rank_exact(mat)
        return {dim: len(reps[dim]) - ranks[dim] - ranks[dim + 1] for dim in dims}


def _sort_sign(seq):
    """Parity of the permutation sorting seq (distinct entries)."""
    sign = 1
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if a > b:
                sign = -sign
    return sign


def betti(faces, max_dim=None, exact=True):
    """Betti numbers of a relative face family, dict dim -> rank."""
    cc = ChainComplex(faces)
    return cc.betti(max_dim=max_dim, exact=exact)


def homology_vanishes_up_to(faces, max_dim):
    """True iff H_i = 0 for all i <= max_dim.  Fast path: modular ranks can
    only overestimate betti, so all-zero modular betti certifies vanishing;
    nonzero values are confirmed exactly."""
    cc = ChainComplex(faces)
    fast = cc.betti(max_dim=max_dim, exact=False)
    hit = [dim for dim, b in fast.items() if b != 0]
    if not hit:
        return True, None
    slow = cc.betti(max_dim=max_dim, exact=True)
    for dim in sorted(slow):
        if slow[dim] != 0:
            return False, dim
    return True, None


def _divisors(m):
    return [k for k in range(1, m + 1) if m % k == 0]


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def element_traces(cc, g, dims, cache):
    """Dict dim -> tr(g | H_dim) on the chain complex cc; cache maps each
    cyclic subgroup to the Betti numbers of its fixed-point complex."""
    powers = [tuple(range(len(g.images)))]
    while True:
        nxt = tuple(g.images[v] for v in powers[-1])
        if nxt == powers[0]:
            break
        powers.append(nxt)
    m = len(powers)
    fixed = {}
    for k in _divisors(m):
        key = frozenset(powers[k * j % m] for j in range(m // k))
        if key not in cache:
            cache[key] = cc.fixed_betti(powers[k % m], dims)
        fixed[k] = cache[key]
    traces = {}
    for dim in dims:
        trace = 0
        for e in _divisors(m):
            total = sum(_mobius(e // k) * fixed[k][dim] for k in _divisors(e))
            count, rest = divmod(total, _totient(e))
            if rest or count < 0:
                raise HomologyError(f"fixed-point Betti numbers in dimension {dim} "
                                    f"do not invert to a representation of {g!r}")
            trace += count * _mobius(e)
        traces[dim] = trace
    return traces


def equivariant_homology_traces(faces, group, max_dim=None):
    """For each dimension, the trace of every class representative on H_dim.

    Returns dict dim -> ClassFunction, with integer values.  The Betti
    numbers of the fixed-point complexes are cached per cyclic subgroup.
    """
    cc = ChainComplex(faces)
    cc.check_d_squared()
    dims = [dim for dim in cc.dims if max_dim is None or dim <= max_dim]
    if not dims:
        return {}
    cache = {}
    per_rep = [element_traces(cc, g, dims, cache) for g in group.class_reps]
    return {dim: ClassFunction(group, [t[dim] for t in per_rep]) for dim in dims}


def hopf_trace_check(faces, group):
    """Alternating chain-level traces vs alternating homology traces, per class.

    The chain-level trace of g in dimension i is the signed count of the
    i-faces g fixes as sets, each with the sign of g on its vertices (always
    +1 under a colour-preserving action, since the colours on a face are
    distinct).

    Returns (ok, report) with both sides per class representative.
    """
    cc = ChainComplex(faces)
    homo = equivariant_homology_traces(faces, group)
    lhs, rhs = [], []
    for g in group.class_reps:
        chain_side = 0
        for dim in cc.dims:
            for f in cc.basis(dim):
                if g.apply_set(f) == f:
                    chain_side += (-1) ** dim * _sort_sign([g(v) for v in sorted(f)])
        lhs.append(chain_side)
        rhs.append(sum((-1) ** dim * cf.value_at(g) for dim, cf in homo.items()))
    return lhs == rhs, {"chain": lhs, "homology": rhs}
