"""Simplicial complexes and their Stanley-Reisner ideals.

Finite-type cluster complexes are flag (Fomin and Zelevinsky, "Y-systems
and generalized associahedra", Ann. Math. 2003), so the Stanley-Reisner
ideal is read off the facets: its generators are the pairs of vertices
that share no facet.  No face is ever enumerated; the face enumeration is
kept as a test oracle."""

from itertools import groupby


class SimplicialComplex:
    """Stored by facets, the maximal faces."""

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices, facets):
        self.vertices = sorted(vertices)
        vertex_set = set(self.vertices)
        cleaned = set()
        for f in facets:
            fs = frozenset(f)
            if not fs <= vertex_set:
                raise ValueError("facet uses unknown vertices")
            cleaned.add(fs)
        # drop facets contained in others; only a larger facet can contain
        # one, so a pure complex makes no subset test
        kept = []
        for _, group in groupby(sorted(cleaned, key=len, reverse=True),
                                key=len):
            larger = list(kept)
            kept += [f for f in group if not any(f < g for g in larger)]
        self.facets = sorted(kept, key=lambda f: tuple(sorted(f)))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.facets == other.facets)

    def __repr__(self):
        return "SimplicialComplex(%r, %r)" % (
            self.vertices, [sorted(f) for f in self.facets])


def support_mask(exponents):
    """The bit mask of a monomial's support: bit i for each variable i
    with a nonzero exponent."""
    return sum(1 << i for i, e in enumerate(exponents) if e)


class MonomialIdeal:
    """A squarefree monomial ideal given by its minimal generators.

    generators are 0/1 exponent tuples over `variables`; the stored list is
    the unique minimal generating set, sorted lexicographically for
    bit-exact output, and `masks` holds the same generators as bit masks
    (bit i for variable i).  Any other exponent raises ValueError.
    """

    __slots__ = ("variables", "generators", "masks")

    def __init__(self, variables, generators):
        self.variables = list(variables)
        # only a generator of lower degree can divide one
        minimal = []
        for _, group in groupby(sorted({tuple(g) for g in generators},
                                       key=sum), key=sum):
            lower = [m for _, m in minimal]
            for g in group:
                if any(e not in (0, 1) for e in g):
                    raise ValueError("generator %r is not squarefree" % (g,))
                m = support_mask(g)
                if not any(h & m == h for h in lower):
                    minimal.append((g, m))
        minimal.sort()
        self.generators = [g for g, _ in minimal]
        self.masks = [m for _, m in minimal]

    def contains(self, support):
        """Whether the ideal holds the monomials whose support is the bit
        mask `support`: some generator's mask is a submask of it."""
        return any(m & support == m for m in self.masks)

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
    """The minimal nonfaces of the flag complex K, as pairs sorted by their
    sorted vertices.  A flag complex is the clique complex of its edges,
    so its minimal nonfaces are the pairs of vertices that share no facet;
    every finite-type cluster complex is flag (Fomin and Zelevinsky,
    "Y-systems and generalized associahedra", Ann. Math. 2003).  Each
    vertex's star mask ORs the bit masks of the facets that hold it."""
    bit = {v: 1 << i for i, v in enumerate(K.vertices)}
    star = dict.fromkeys(K.vertices, 0)
    for f in K.facets:
        mask = sum(bit[v] for v in f)
        for v in f:
            star[v] |= mask
    return [frozenset((u, w)) for i, u in enumerate(K.vertices)
            for w in K.vertices[i + 1:] if not star[u] & bit[w]]


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
