"""Simplicial complexes, Stanley-Reisner ideals, links, joins, sphere checks."""

from itertools import combinations


class SimplicialComplex:
    """Stored by facets; faces are materialized on demand."""

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices, facets):
        self.vertices = sorted(vertices)
        vertex_set = set(self.vertices)
        cleaned = []
        for f in facets:
            fs = frozenset(f)
            if not fs <= vertex_set:
                raise ValueError("facet uses unknown vertices")
            cleaned.append(fs)
        # drop facets contained in others
        self.facets = sorted(
            (f for f in set(cleaned)
             if not any(f < g for g in cleaned)),
            key=lambda f: tuple(sorted(f)))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.facets == other.facets)

    def faces(self):
        """All faces, including the empty face."""
        out = set()
        for f in self.facets:
            items = sorted(f)
            for r in range(len(items) + 1):
                out.update(frozenset(c) for c in combinations(items, r))
        return out

    def is_face(self, subset):
        fs = frozenset(subset)
        return any(fs <= f for f in self.facets)

    def is_pure(self):
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1

    def dimension(self):
        return max((len(f) for f in self.facets), default=0) - 1

    def __repr__(self):
        return "SimplicialComplex(%r, %r)" % (
            self.vertices, [sorted(f) for f in self.facets])


class MonomialIdeal:
    """A monomial ideal given by its minimal generators.

    generators are exponent tuples over `variables`; the stored list is the
    unique minimal generating set, sorted lexicographically for bit-exact
    output.
    """

    __slots__ = ("variables", "generators")

    def __init__(self, variables, generators):
        self.variables = list(variables)
        gens = sorted({tuple(g) for g in generators})
        minimal = []
        for g in gens:
            if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in gens):
                minimal.append(g)
        self.generators = minimal

    def contains_monomial(self, exponents):
        return any(all(a <= b for a, b in zip(g, exponents))
                   for g in self.generators)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.variables == other.variables
                and self.generators == other.generators)

    def __repr__(self):
        return "MonomialIdeal(%r, %r)" % (self.variables, self.generators)


def cluster_complex(atlas):
    """Vertices = mutable cluster variables; facets = mutable cluster parts."""
    vertices = [v.id for v in atlas.mutable_variables]
    facets = [frozenset(state.ids[:atlas.n]) for state in atlas.seeds]
    return SimplicialComplex(vertices, facets)


def minimal_nonfaces(K):
    faces = K.faces()
    candidates = set()
    vertex_set = set(K.vertices)
    for f in faces:
        for v in vertex_set - f:
            s = f | {v}
            if s in faces:
                continue
            if all((s - {u}) in faces for u in s):
                candidates.add(s)
    return sorted(candidates, key=lambda s: tuple(sorted(s)))


def sr_ideal(K, cone_points=()):
    """Stanley-Reisner ideal of K joined with the simplex on `cone_points`.

    Cone points (frozen variables) occur in no generator; they only extend
    the variable list.
    """
    variables = list(K.vertices) + [c for c in cone_points if c not in K.vertices]
    index = {v: i for i, v in enumerate(variables)}
    gens = []
    for nf in minimal_nonfaces(K):
        e = [0] * len(variables)
        for v in nf:
            e[index[v]] = 1
        gens.append(tuple(e))
    return MonomialIdeal(variables, gens)


def link(K, face):
    face = frozenset(face)
    if not K.is_face(face):
        raise ValueError("not a face of the complex")
    new_facets = [f - face for f in K.facets if face <= f]
    vertices = set()
    for f in new_facets:
        vertices.update(f)
    return SimplicialComplex(sorted(vertices), new_facets)


def join(K1, K2):
    overlap = set(K1.vertices) & set(K2.vertices)
    if overlap:
        raise ValueError("vertex sets overlap: %r" % sorted(overlap))
    facets1 = K1.facets or [frozenset()]
    facets2 = K2.facets or [frozenset()]
    return SimplicialComplex(
        list(K1.vertices) + list(K2.vertices),
        [f | g for f in facets1 for g in facets2])


def sphere_check(K):
    """Pseudomanifold and Euler-characteristic checks for an (n-1)-sphere."""
    if not K.is_pure() or not K.facets:
        return {"pseudomanifold": False, "euler_ok": False}
    s = len(K.facets[0])
    ridge_owners = {}
    for i, f in enumerate(K.facets):
        for r in combinations(sorted(f), s - 1):
            ridge_owners.setdefault(r, []).append(i)
    # every codimension-1 face in exactly two facets
    pseudo = s >= 1 and all(len(o) == 2 for o in ridge_owners.values())
    # facet adjacency connected
    if pseudo and len(K.facets) > 1:
        adjacency = {i: set() for i in range(len(K.facets))}
        for i, j in ridge_owners.values():
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        pseudo = len(seen) == len(K.facets)
    counts = {}
    for f in K.faces():
        counts[len(f)] = counts.get(len(f), 0) + 1
    reduced_euler = sum((-1) ** (size - 1) * c for size, c in counts.items() if size >= 1) - 1
    euler_ok = reduced_euler == (-1) ** (s - 1)
    return {"pseudomanifold": pseudo, "euler_ok": euler_ok}
