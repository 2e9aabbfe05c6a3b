"""Balanced relative simplicial complexes with vertex colorings and actions.

A relative complex is the face family Phi = Delta \\ Gamma; it is stored as
the set Phi itself, with Delta (downward closure) and Gamma (the difference)
derived.  Vertices are indexed 0..n-1 in input order; colors are 1..d; faces
are frozensets of vertex indices.  The empty face is allowed in Phi.
"""
from __future__ import annotations

from itertools import combinations

from .groups import DEFAULT_ORDER_BOUND, PermGroup, automorphism_search

MAX_VERTICES = 32
MAX_FACES = 1 << 20


class ComplexError(Exception):
    pass


class InvalidComplex(ComplexError):
    pass


class FaceNotInDelta(ComplexError):
    pass


class ActionDoesNotPreservePair(ComplexError):
    pass


def downward_closure(faces):
    closed = set()
    for f in faces:
        for r in range(len(f) + 1):
            for sub in combinations(sorted(f), r):
                closed.add(frozenset(sub))
    return closed


class ColoredRelativeComplex:
    """Relative face family with a balanced coloring.

    vertices: list of ids (for display); coloring: list, coloring[i] in 1..d;
    faces: the set Phi as frozensets of vertex indices.
    """

    def __init__(self, vertices, coloring, num_colors, faces, check=True):
        if len(vertices) > MAX_VERTICES:
            raise InvalidComplex(f"more than {MAX_VERTICES} vertices")
        if len(faces) > MAX_FACES:
            raise InvalidComplex(f"more than {MAX_FACES} faces")
        self.vertices = list(vertices)
        self.coloring = list(coloring)
        self.d = num_colors
        self.faces = frozenset(frozenset(f) for f in faces)
        self.delta = frozenset(downward_closure(self.faces))
        self.gamma = self.delta - self.faces
        if check:
            report = self.validate()
            if report:
                raise InvalidComplex("; ".join(report[:3]))

    def colorset(self, face):
        return frozenset(self.coloring[v] for v in face)

    @property
    def dim(self):
        """dim Phi = max face size - 1; -inf represented as None for void."""
        if not self.faces:
            return None
        return max(len(f) for f in self.faces) - 1

    def validate(self):
        """List of violation descriptions (empty when valid)."""
        problems = []
        if self.d < 0:
            problems.append(f"negative number of colors {self.d}")
        for i, c in enumerate(self.coloring):
            if not 1 <= c <= self.d:
                problems.append(f"vertex {self.vertices[i]} has color {c} outside 1..{self.d}")
        # balanced: the coloring is injective on every face
        for f in self.faces:
            if len(self.colorset(f)) != len(f):
                problems.append(f"face {self.label(f)} repeats a color")
        # purity: every face extends to a size-d face inside Phi
        top = [f for f in self.faces if len(f) == self.d]
        for f in self.faces:
            if not any(f <= t for t in top):
                problems.append(f"face {self.label(f)} has no size-{self.d} extension")
        # sandwich: rho <= sigma <= tau with rho, tau in Phi forces sigma in Phi
        for tau in self.faces:
            for rho in self.faces:
                if rho < tau:
                    mid = sorted(tau - rho)
                    for r in range(1, len(mid)):
                        for extra in combinations(mid, r):
                            sigma = rho | frozenset(extra)
                            if sigma not in self.faces:
                                problems.append(
                                    f"sandwich violated: {self.label(rho)} <= "
                                    f"{self.label(sigma)} <= {self.label(tau)}")
        # Gamma must be downward closed (a consequence; assert anyway)
        for f in self.gamma:
            for v in f:
                if f - {v} not in self.gamma and f - {v} not in self.faces:
                    problems.append(f"{self.label(f - {v})} escapes Delta")
        return problems

    def label(self, face):
        return "{" + ",".join(str(self.vertices[v]) for v in sorted(face)) + "}"

    def faces_by_colorset(self, s):
        """The fiber: faces whose color set is exactly s."""
        s = frozenset(s)
        return {f for f in self.faces if self.colorset(f) == s}

    def color_restriction(self, s):
        """Faces of Phi whose colors lie inside s (no re-indexing)."""
        s = frozenset(s)
        return {f for f in self.faces if self.colorset(f) <= s}

    def restrict(self, s):
        """Restriction to a color subset, re-indexed to colors 1..|s|."""
        s = sorted(set(s))
        rank = {c: i + 1 for i, c in enumerate(s)}
        keep = [v for v in range(len(self.vertices)) if self.coloring[v] in rank]
        vmap = {v: i for i, v in enumerate(keep)}
        faces = {frozenset(vmap[v] for v in f) for f in self.color_restriction(s)}
        return ColoredRelativeComplex(
            [self.vertices[v] for v in keep],
            [rank[self.coloring[v]] for v in keep],
            len(s), faces, check=False)

    def link(self, sigma):
        """The relative pair (lk_Delta(sigma), lk_Gamma(sigma)).

        Returned as a RelativePair on the colors missing from sigma; vertex
        indexing is inherited from this complex.
        """
        sigma = frozenset(sigma)
        if sigma not in self.delta:
            raise FaceNotInDelta(f"{self.label(sigma)} is not a face of Delta")
        lk_delta = {f - sigma for f in self.delta if sigma <= f}
        lk_gamma = {f - sigma for f in self.gamma if sigma <= f}
        return RelativePair(self, lk_delta, lk_gamma)

    def delete(self, vertex_set):
        """The pair (Delta minus the vertices, Gamma minus the vertices)."""
        vs = frozenset(vertex_set)
        return RelativePair(self,
                            {f for f in self.delta if not (f & vs)},
                            {f for f in self.gamma if not (f & vs)})

    def is_independent(self, j):
        j = frozenset(j)
        return all(len(f & j) <= 1 for f in self.delta)

    def is_excellent(self, j):
        j = frozenset(j)
        facets = [f for f in self.delta
                  if not any(f < g for g in self.delta)]
        return all(len(f & j) == 1 for f in facets)

    def as_pair(self):
        return RelativePair(self, set(self.delta), set(self.gamma))

    def __repr__(self):
        return (f"ColoredRelativeComplex(|V|={len(self.vertices)}, d={self.d}, "
                f"|Phi|={len(self.faces)})")


class RelativePair:
    """A pair (X, Y) of face sets with Y a subcomplex of X; Phi = X \\ Y.

    Homology of the pair depends only on phi_faces, so links and deletions
    are handed downstream as plain face sets.
    """

    def __init__(self, parent, big, small):
        self.parent = parent
        self.big = frozenset(frozenset(f) for f in big)
        self.small = frozenset(frozenset(f) for f in small)
        self.phi_faces = self.big - self.small

    @property
    def is_void(self):
        return not self.big

    def phi_dim(self):
        if not self.phi_faces:
            return None
        return max(len(f) for f in self.phi_faces) - 1

    def __repr__(self):
        return f"RelativePair(|X|={len(self.big)}, |Y|={len(self.small)})"


class GroupAction:
    """A color- and face-preserving action of a PermGroup on a complex."""

    def __init__(self, cx: ColoredRelativeComplex, group: PermGroup):
        if group.degree != len(cx.vertices):
            raise ActionDoesNotPreservePair("group degree != number of vertices")
        self.complex = cx
        self.group = group
        for g in group.generators:
            for v in range(group.degree):
                if cx.coloring[g(v)] != cx.coloring[v]:
                    raise ActionDoesNotPreservePair(
                        f"color of {cx.vertices[v]} not preserved by {g!r}")
            for f in cx.faces:
                if g.apply_set(f) not in cx.faces:
                    raise ActionDoesNotPreservePair(
                        f"face {cx.label(f)} leaves the complex under {g!r}")

    def fixed_faces(self, g, faces=None):
        """Faces fixed setwise by g; such faces are fixed vertexwise (asserted),
        because g preserves the coloring and colors are distinct on a face."""
        if faces is None:
            faces = self.complex.faces
        out = []
        for f in faces:
            if g.apply_set(f) == f:
                assert all(g(v) == v for v in f)
                out.append(f)
        return out


def color_automorphism_group(cx, bound=DEFAULT_ORDER_BOUND):
    """The group of colour-preserving vertex permutations that map Phi onto
    itself."""
    return automorphism_search(cx.coloring, [("face", f) for f in cx.faces], bound)


def load_complex(data):
    """Build a ColoredRelativeComplex from its JSON form."""
    vertices = list(data["vertices"])
    index = {v: i for i, v in enumerate(vertices)}
    colors = data["colors"]
    missing = [v for v in vertices if v not in colors]
    if missing:
        raise ValueError(f"missing colors for {missing}")
    coloring = [int(colors[v]) for v in vertices]
    faces = [frozenset(index[v] for v in f) for f in data["faces"]]
    return ColoredRelativeComplex(vertices, coloring, int(data["num_colors"]), faces)


def dump_complex(cx):
    return {
        "vertices": list(cx.vertices),
        "colors": {v: cx.coloring[i] for i, v in enumerate(cx.vertices)},
        "num_colors": cx.d,
        "faces": [[cx.vertices[v] for v in sorted(f)] for f in sorted(cx.faces, key=sorted)],
    }
