"""Balanced relative simplicial complexes with vertex colorings and actions.

A relative complex is the face family Phi = Delta \\ Gamma; it is stored as
the set Phi itself, with Delta (downward closure) and Gamma (the difference)
derived.  Vertices are indexed 0..n-1 in input order; colors are 1..d; faces
are frozensets of vertex indices.  The empty face is allowed in Phi.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .groups import DEFAULT_ORDER_BOUND, PermGroup, automorphism_search

MAX_VERTICES = 32
MAX_FACES = 1 << 20
# a face of more vertices has more than MAX_FACES subsets in Delta
MAX_FACE_SIZE = MAX_FACES.bit_length() - 1


class ComplexError(Exception):
    pass


class InvalidComplex(ComplexError):
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
        # checked before the closure, which lists 2^|f| subsets of each face
        for f in self.faces:
            if len(f) > num_colors:
                raise InvalidComplex(f"a face of {len(f)} vertices repeats one "
                                     f"of {num_colors} colors")
            if len(f) > MAX_FACE_SIZE:
                raise InvalidComplex(f"a face of more than {MAX_FACE_SIZE} vertices")
        # a pure non-void complex with more colours has a larger face, and
        # the dense flag tables have 2^num_colors colour sets
        if num_colors > MAX_FACE_SIZE:
            raise InvalidComplex(f"more than {MAX_FACE_SIZE} colors")
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
        """List of violation descriptions (empty when valid), each kind in
        sorted order."""
        problems = []
        if self.d < 0:
            problems.append(f"negative number of colors {self.d}")
        for i, c in enumerate(self.coloring):
            if not 1 <= c <= self.d:
                problems.append(f"vertex {self.vertices[i]} has color {c} outside 1..{self.d}")
        # balanced: the coloring is injective on every face
        for f in sorted((f for f in self.faces if len(self.colorset(f)) != len(f)), key=sorted):
            problems.append(f"face {self.label(f)} repeats a color")
        # purity: every face lies in a size-d face of Phi
        pure = downward_closure(f for f in self.faces if len(f) == self.d)
        for f in sorted((f for f in self.faces if f not in pure), key=sorted):
            problems.append(f"face {self.label(f)} has no size-{self.d} extension")
        # sandwich: rho <= sigma <= tau with rho, tau in Phi forces sigma in
        # Phi.  That holds exactly when Gamma is downward closed, and when it
        # is not, some Gamma face lies one vertex above a Phi face.
        broken = sorted(((sigma - {v}, sigma) for sigma in self.gamma for v in sigma
                         if sigma - {v} in self.faces),
                        key=lambda pair: (sorted(pair[1]), sorted(pair[0])))
        for rho, sigma in broken:
            tau = min((f for f in self.faces if sigma < f),
                      key=lambda f: (len(f), sorted(f)))
            problems.append(f"sandwich violated: {self.label(rho)} <= "
                            f"{self.label(sigma)} <= {self.label(tau)}")
        return problems

    def label(self, face):
        return "{" + ",".join(str(self.vertices[v]) for v in sorted(face)) + "}"

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

    @cached_property
    def links(self):
        """Map every face sigma of Delta to its link in Phi, [f - sigma : f in
        Phi, sigma <= f]: the Phi-part lk_Delta(sigma) minus lk_Gamma(sigma)
        of its relative link.  Built on first use."""
        index = {}
        for f in self.faces:
            verts = sorted(f)
            for r in range(len(verts) + 1):
                for sigma in combinations(verts, r):
                    sigma = frozenset(sigma)
                    index.setdefault(sigma, []).append(f - sigma)
        return index

    def __repr__(self):
        return (f"ColoredRelativeComplex(|V|={len(self.vertices)}, d={self.d}, "
                f"|Phi|={len(self.faces)})")


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

    @cached_property
    def flag_table(self):
        """The flags.FlagTable of this action, built on first use; not cached
        on the complex, which can meet several groups."""
        from .flags import FlagTable
        return FlagTable(self)

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
