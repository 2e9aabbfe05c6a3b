"""Permutation groups, conjugacy classes, characters and class functions.

Groups come from two places.  ``close_group`` closes a generator list under
multiplication by breadth-first search.  ``automorphism_search`` finds every
automorphism of a coloured set system by backtracking and keeps a small
generating set, at most log2 of the order.  Either way a PermGroup holds all
of its elements and a generating set, and its conjugacy classes are the
orbits of conjugation by those generators.  Character tables are computed
numerically from the class-multiplication matrices (random real combination,
eigendecomposition) and validated against orthogonality; everything
downstream that should be an integer is rounded with a tight tolerance and
cross-checked.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

DEFAULT_ORDER_BOUND = 10_000
TABLE_TOL = 1e-8
ROUND_TOL = 1e-6


class GroupError(Exception):
    pass


class DegreeMismatch(GroupError):
    pass


class OrderBoundExceeded(GroupError):
    pass


class GroupMismatch(GroupError):
    pass


class ActionNotClosed(GroupError):
    pass


class NonIntegerOrbitCount(GroupError):
    pass


class RoundingError(GroupError):
    pass


class NumericalDegeneracy(GroupError):
    pass


class Permutation:
    """A permutation of {0, ..., n-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n, cycles):
        images = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        # (self * other)(i) = self(other(i))
        return Permutation(self.images[j] for j in other.images)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def apply_set(self, s):
        return frozenset(self.images[i] for i in s)

    def cycles(self):
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def sign(self):
        return (-1) ** sum(len(c) - 1 for c in self.cycles())

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)


class PermGroup:
    """A permutation group with enumerated elements and conjugacy classes.

    Classes are ordered by their lexicographically-least member (which puts the
    identity class first) so every derived object is deterministic.
    """

    def __init__(self, degree, generators, elements, points=None):
        self.degree = degree
        self.points = list(points) if points is not None else list(range(degree))
        self.generators = list(generators)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self._element_set = frozenset(self.elements)
        self.classes = self._conjugacy_classes()
        self.class_reps = tuple(cls[0] for cls in self.classes)
        self.class_sizes = tuple(len(cls) for cls in self.classes)
        self.num_classes = len(self.classes)
        self._class_of = {g.images: k for k, cls in enumerate(self.classes) for g in cls}
        self._table_cache = {}
        assert sum(self.class_sizes) == self.order

    def _conjugacy_classes(self):
        """Orbits of conjugation by the generators, each sorted, in order of
        their least element.

        These are the conjugacy classes only because the generators generate
        the group; every constructor of a PermGroup guarantees that.
        """
        gens = [(g.images, g.inverse().images) for g in self.generators]
        by_images = {g.images: g for g in self.elements}
        seen = set()
        classes = []
        for g in self.elements:
            if g.images in seen:
                continue
            orbit = {g.images}
            frontier = [g.images]
            while frontier:
                x = frontier.pop()
                for h, h_inv in gens:
                    y = tuple(h[x[i]] for i in h_inv)     # h x h^-1
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            seen |= orbit
            classes.append(tuple(by_images[y] for y in sorted(orbit)))
        return tuple(classes)

    @property
    def identity(self):
        return Permutation.identity(self.degree)

    def __contains__(self, perm):
        return perm in self._element_set

    def class_index(self, perm):
        try:
            return self._class_of[perm.images]
        except KeyError:
            raise GroupMismatch(f"{perm!r} is not an element of this group") from None

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order}, classes={self.num_classes})"


def close_group(generators, degree=None, points=None, bound=DEFAULT_ORDER_BOUND):
    """Close a generator list under multiplication; conjugacy classes included."""
    if degree is None:
        if not generators:
            raise ValueError("degree required for an empty generator list")
        degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
    elements = _close({tuple(range(degree))}, [g.images for g in generators], bound)
    return PermGroup(degree, generators, map(Permutation, elements), points=points)


def _close(elements, generators, bound):
    """Close a set of image tuples under left multiplication by generators
    (image tuples too); raises OrderBoundExceeded past bound elements."""
    elements = set(elements)
    frontier = list(elements)
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple(g[i] for i in x)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
                if len(elements) > bound:
                    raise OrderBoundExceeded(f"group order exceeds bound {bound}")
    return elements


def automorphism_search(colors, relations, bound=DEFAULT_ORDER_BOUND):
    """All automorphisms of a coloured set system, as a PermGroup.

    The points are 0..n-1 with n = len(colors).  A relation is a pair
    (tag, points), where points is a frozenset (a face, an undirected edge)
    or a tuple (an arc, an order pair).  An automorphism keeps every colour
    and maps each relation to a relation with the same tag.

    Backtracking over vertex images (McKay & Piperno, "Practical graph
    isomorphism, II", 2014, without refinement beyond the starting cells):
    a vertex may only go to a vertex with the same colour and the same
    multiset of (tag, kind, size, position) over the relations through it.
    Vertices are assigned smallest cell first, and among those the one that
    completes the most relations; each relation is checked as soon as its
    last point has an image.  An element joins the generators only when the
    generators so far do not already generate it, so there are at most
    log2 |G| of them.  Raises OrderBoundExceeded once more than bound
    elements have been found.
    """
    n = len(colors)
    if n == 0:
        return PermGroup(0, [], [Permutation([])])
    relations = set(relations)
    nonempty = [(tag, points) for tag, points in relations if points]
    through = [[] for _ in range(n)]
    rels_at = [[] for _ in range(n)]
    for i, (tag, points) in enumerate(nonempty):
        ordered = isinstance(points, tuple)
        for pos, v in enumerate(points):
            through[v].append((tag, ordered, len(points), pos if ordered else -1))
            rels_at[v].append(i)
    keys = [(colors[v], tuple(sorted(through[v]))) for v in range(n)]
    cells = {}
    for v, key in enumerate(keys):
        cells.setdefault(key, []).append(v)
    candidates = [cells[key] for key in keys]

    # completing many relations early makes the checks prune early
    unplaced = [set(points) for _, points in nonempty]
    completes = [0] * n
    for points in unplaced:
        if len(points) == 1:
            completes[min(points)] += 1
    order = []
    left = set(range(n))
    while left:
        v = min(left, key=lambda u: (len(candidates[u]), -completes[u], u))
        left.remove(v)
        order.append(v)
        for i in rels_at[v]:
            unplaced[i].discard(v)
            if len(unplaced[i]) == 1:
                completes[min(unplaced[i])] += 1
    step = {v: k for k, v in enumerate(order)}
    checks = [[] for _ in range(n)]    # relations whose last point is order[k]
    for tag, points in nonempty:
        checks[max(step[v] for v in points)].append(
            (tag, points, isinstance(points, tuple)))

    image = [None] * n
    used = [False] * n
    elements = []
    generators = []
    span = {tuple(range(n))}

    def consistent(k):
        for tag, points, is_tuple in checks[k]:
            moved = (tuple(image[v] for v in points) if is_tuple
                     else frozenset(image[v] for v in points))
            if (tag, moved) not in relations:
                return False
        return True

    tried = [0] * n    # how many candidates of order[k] have been tried
    k = 0
    while k >= 0:
        v = order[k]
        if image[v] is not None:
            used[image[v]] = False
            image[v] = None
        cands = candidates[v]
        while tried[k] < len(cands):
            w = cands[tried[k]]
            tried[k] += 1
            if not used[w]:
                image[v] = w
                if consistent(k):
                    break
                image[v] = None
        if image[v] is None:
            tried[k] = 0
            k -= 1
            continue
        used[image[v]] = True
        if k < n - 1:
            k += 1
            continue
        p = Permutation(image)
        elements.append(p)
        if len(elements) > bound:
            raise OrderBoundExceeded(f"group order exceeds bound {bound}")
        if p.images not in span:
            generators.append(p)
            span = _close(span, [g.images for g in generators], bound)
    return PermGroup(n, generators, elements)


class ClassFunction:
    """A class function, stored as one value per conjugacy class.

    Values are kept exact (int / Fraction) whenever they arise from counting;
    only character-table rows carry floating complex entries.
    """

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = tuple(values)
        if len(values) != group.num_classes:
            raise ValueError("one value per conjugacy class required")
        self.group = group
        self.values = tuple(_normalize(v) for v in values)

    @classmethod
    def trivial(cls, group):
        return cls(group, [1] * group.num_classes)

    @classmethod
    def zero(cls, group):
        return cls(group, [0] * group.num_classes)

    @classmethod
    def sign(cls, group):
        return cls(group, [g.sign() for g in group.class_reps])

    @classmethod
    def regular(cls, group):
        return cls(group, [group.order] + [0] * (group.num_classes - 1))

    def value_at(self, perm):
        return self.values[self.group.class_index(perm)]

    @property
    def at_identity(self):
        return self.values[0]

    def is_zero(self):
        return all(v == 0 for v in self.values)

    def is_exact(self):
        return all(isinstance(v, (int, Fraction)) for v in self.values)

    def _check(self, other):
        if self.group is not other.group:
            raise GroupMismatch("class functions live on different groups")

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group, (a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group, (a - b for a, b in zip(self.values, other.values)))

    def __neg__(self):
        return ClassFunction(self.group, (-a for a in self.values))

    def __rmul__(self, scalar):
        return ClassFunction(self.group, (scalar * a for a in self.values))

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.group), self.values))

    def __repr__(self):
        return f"ClassFunction{self.values}"


def _normalize(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    if isinstance(v, complex) and v.imag == 0:
        return v.real
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def inner_product(a, b):
    """<a, b> = (1/|G|) sum over g of conj(a(g)) b(g), conjugate-linear in a."""
    if a.group is not b.group:
        raise GroupMismatch("class functions live on different groups")
    g = a.group
    if a.is_exact() and b.is_exact():
        total = sum(size * Fraction(x) * Fraction(y)
                    for size, x, y in zip(g.class_sizes, a.values, b.values))
        return _normalize(Fraction(total, g.order))
    total = sum(size * np.conj(complex(x)) * complex(y)
                for size, x, y in zip(g.class_sizes, a.values, b.values))
    return total / g.order


class CharacterTable:
    """Irreducible characters of a group, numerically computed and validated."""

    def __init__(self, group, irreducibles, tolerance=TABLE_TOL):
        self.group = group
        self.irreducibles = list(irreducibles)
        self.tolerance = tolerance
        self.degrees = [int(round(chi.at_identity.real if isinstance(chi.at_identity, (complex, float))
                                  else chi.at_identity)) for chi in self.irreducibles]
        self._validate()

    def _validate(self):
        g = self.group
        tol = self.tolerance
        if len(self.irreducibles) != g.num_classes:
            raise NumericalDegeneracy("wrong number of irreducibles")
        for i, chi in enumerate(self.irreducibles):
            for j, psi in enumerate(self.irreducibles):
                ip = inner_product(chi, psi)
                if abs(complex(ip) - (1 if i == j else 0)) > tol:
                    raise NumericalDegeneracy(f"orthogonality fails at ({i},{j})")
        for chi, deg in zip(self.irreducibles, self.degrees):
            if abs(complex(chi.at_identity) - deg) > tol or deg < 1:
                raise NumericalDegeneracy("non-integer character degree")
        if abs(sum(d * d for d in self.degrees) - g.order) > tol:
            raise NumericalDegeneracy("degree sum check fails")

    def __len__(self):
        return len(self.irreducibles)


def _class_mult_matrix(group, rng):
    """Random real combination of the class-multiplication matrices."""
    g = group
    r = g.num_classes
    weights = rng.uniform(1.0, 2.0, size=r)
    m = np.zeros((r, r))
    index = g._class_of
    reps = g.class_reps
    for i, cls in enumerate(g.classes):
        for x in cls:
            xinv = x.inverse()
            for k, z in enumerate(reps):
                j = index[(xinv * z).images]
                m[j, k] += weights[i]
    return m


def character_table(group, seed=0, tolerance=TABLE_TOL):
    """Character table via simultaneous diagonalization of class-sum matrices."""
    key = (seed, tolerance)
    cached = group._table_cache.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(seed)
    last_err = None
    for _ in range(5):
        try:
            table = _attempt_table(group, rng, tolerance)
            group._table_cache[key] = table
            return table
        except NumericalDegeneracy as err:
            last_err = err
    raise NumericalDegeneracy(f"character table failed after 5 attempts: {last_err}")


def _attempt_table(group, rng, tolerance):
    g = group
    r = g.num_classes
    m = _class_mult_matrix(g, rng)
    eigvals, eigvecs = np.linalg.eig(m)
    order = np.argsort(eigvals.real, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    scale = max(1.0, np.max(np.abs(eigvals)))
    for a, b in itertools.combinations(eigvals, 2):
        if abs(a - b) < 1e-7 * scale:
            raise NumericalDegeneracy("eigenvalues not separated")
    sizes = np.array(g.class_sizes, dtype=float)
    rows = []
    for idx in range(r):
        v = eigvecs[:, idx]
        if abs(v[0]) < 1e-12:
            raise NumericalDegeneracy("eigenvector vanishes at the identity class")
        v = v / v[0]
        denom = np.sum(np.abs(v) ** 2 / sizes)
        deg = np.sqrt(g.order / denom)
        chi = deg * v / sizes
        rows.append(chi)
    # trivial character first, then by degree and value vector
    rows.sort(key=lambda row: (not all(abs(x - 1) < 1e-6 for x in row),
                               round(row[0].real, 6),
                               tuple(-round(x.real, 6) for x in row),
                               tuple(round(x.imag, 6) for x in row)))
    irreducibles = [ClassFunction(g, (_snap(x) for x in row)) for row in rows]
    return CharacterTable(g, irreducibles, tolerance)


def _snap(z, tol=1e-9):
    """Snap floating complex values to nearby exact integers for readability."""
    re, im = z.real, z.imag
    if abs(im) < tol and abs(re - round(re)) < tol:
        return int(round(re))
    return complex(z)


def decompose(x, table=None):
    """Multiplicities of x in the irreducible basis; all must round to ints."""
    if table is None:
        table = character_table(x.group)
    mults = []
    for chi in table.irreducibles:
        m = complex(inner_product(chi, x))
        mi = round(m.real)
        if abs(m - mi) > ROUND_TOL:
            raise RoundingError(f"multiplicity {m} does not round to an integer")
        mults.append(mi)
    # reconstruction check
    for k in range(x.group.num_classes):
        recon = sum(m * complex(chi.values[k]) for m, chi in zip(mults, table.irreducibles))
        if abs(recon - complex(x.values[k])) > ROUND_TOL:
            raise RoundingError("reconstruction from multiplicities fails")
    return mults


def is_effective(x, table=None):
    """Whether x is a nonnegative integer combination of irreducibles."""
    mults = decompose(x, table)
    return all(m >= 0 for m in mults), mults


def leq_g(a, b, table=None):
    """a <=_G b iff b - a is an effective character."""
    ok, _ = is_effective(b - a, table)
    return ok


def check_action_closed(group, items, act):
    item_set = set(items)
    for g in group.generators:
        for x in items:
            if act(g, x) not in item_set:
                raise ActionNotClosed(f"action not closed at {x!r}")


def permutation_character(group, items, act, check=True):
    """chi(g) = number of fixed points of g on items."""
    items = list(items)
    if check:
        check_action_closed(group, items, act)
    values = [sum(1 for x in items if act(g, x) == x) for g in group.class_reps]
    return ClassFunction(group, values)


def orbits(group, items, act):
    """Explicit orbit partition of items under the group."""
    remaining = list(items)
    out = []
    seen = set()
    for x in remaining:
        if x in seen:
            continue
        orb = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in group.generators:
                z = act(g, y)
                if z not in orb:
                    orb.add(z)
                    frontier.append(z)
        seen |= orb
        out.append(orb)
    return out


def orbit_count(group, items, act, check=True):
    """Burnside average of fixed-point counts; must be an exact integer."""
    items = list(items)
    if check:
        check_action_closed(group, items, act)
    chi = permutation_character(group, items, act, check=False)
    total = sum(size * v for size, v in zip(group.class_sizes, chi.values))
    count = Fraction(total, group.order)
    if count.denominator != 1:
        raise NonIntegerOrbitCount(f"Burnside average {count} is not an integer")
    count = int(count)
    if count != len(orbits(group, items, act)):
        raise NonIntegerOrbitCount("Burnside count disagrees with orbit partition")
    return count


def load_group(data, bound=DEFAULT_ORDER_BOUND):
    """Build a PermGroup from the group JSON mapping form."""
    points = list(data["points"])
    degree = int(data.get("degree", len(points)))
    if degree != len(points):
        raise ValueError("degree does not match the number of points")
    index = {p: i for i, p in enumerate(points)}
    gens = []
    for mapping in data.get("generators", []):
        if set(mapping) != set(points):
            missing = set(points) - set(mapping)
            raise ValueError(f"generator must list every point; missing {sorted(missing)}")
        images = [0] * degree
        for src, dst in mapping.items():
            images[index[src]] = index[dst]
        gens.append(Permutation(images))
    return close_group(gens, degree=degree, points=points, bound=bound)
