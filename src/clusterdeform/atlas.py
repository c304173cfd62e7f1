"""Exhaustive exchange-graph enumeration for finite cluster type, in two
layers.

The search is integer-only.  Each seed keeps B~_t and H_t, the inverse of
its mutable g-matrix block; its g-vectors are its variables', and its
c-vectors come from H_t by tropical duality (Nakanishi-Zelevinsky, "On
tropical dualities in cluster algebras", 2012): D^-1 G_t^T D C_t = I, so
c_ik = H_ki d_k / d_i, d the skew-symmetrizer.  Mutation at k requires row
k of H_t to be sign-coherent with sign eps and changes only the k-th
g-vector, to -g_k + sum over i != k of max(0, -eps*b_ik) g_i.  Variables
are named by their g-vectors, so each edge computes only that sum, and a
seed is identified by the set of its mutable variable ids.  B~_t and H_t
are built only for a new seed, the exchange monomials only for a new pair,
and a back edge is the position of the new variable in the seed found.
The same duality gives the universal coefficients (see `universal`).

The Laurent layer, `Atlas.principal`, is computed on first read: each
variable's principal-coefficient expansion in the ring
K[x_1^{+-},..,x_n^{+-}, x_{n+1},..,x_m, y_1,..,y_n], of which the Laurent
expansion and the F-polynomial are projections.  It divides once per edge
of the exchange graph, and on every edge checks that the g-vector read off
by separation is the one the search gave.
"""

from functools import cached_property

from .intlinalg import identity_matrix, vec_dot
from .polynomials import Poly, exact_divide
from .seeds import mutate_entries


class AtlasError(Exception):
    pass


class ClusterVariable:
    __slots__ = ("id", "g_vector", "is_frozen")

    def __init__(self, id, g_vector, is_frozen):
        self.id = id
        self.g_vector = tuple(g_vector)
        self.is_frozen = is_frozen

    def __repr__(self):
        return "ClusterVariable(%r, g=%r)" % (self.id, self.g_vector)


class ExchangePair:
    """An unordered exchangeable pair with its exchange-relation monomials.

    monomials holds the two sides of x*x' = alpha_1 + alpha_2 as sorted
    (id, exponent) tuples, in a canonical order.  The enumeration first
    found the pair by mutating the seed with index `seed` at position k.
    """

    __slots__ = ("pair", "monomials", "seed", "k")

    def __init__(self, pair, monomials, seed, k):
        self.pair = frozenset(pair)
        self.monomials = monomials
        self.seed = seed
        self.k = k

    def __repr__(self):
        return "ExchangePair(%r, %r)" % (set(self.pair), self.monomials)


class SeedState:
    """One enumerated seed: B~_t, variable ids by position, and H_t (see the
    module docstring)."""

    __slots__ = ("index", "matrix", "ids", "inverse", "path")

    def __init__(self, index, matrix, ids, inverse, path):
        self.index = index
        self.matrix = matrix          # m x n, B~_t
        self.ids = ids                # length m
        self.inverse = inverse        # n x n, H_t
        self.path = path              # mutation sequence from the root


class Atlas:
    def __init__(self, initial_seed):
        self.initial_seed = initial_seed
        self.n = initial_seed.matrix.n
        self.m = initial_seed.matrix.m
        self.variables = {}
        self.id_by_g = {}
        self.seeds = []
        self.seed_graph = {}
        self.exchange_pairs = {}

    @property
    def frozen_ids(self):
        return list(self.initial_seed.var_ids[self.n:])

    @property
    def mutable_variables(self):
        return [v for v in self.variables.values() if not v.is_frozen]

    @property
    def clusters(self):
        out = []
        for state in self.seeds:
            out.append(tuple(sorted(state.ids[:self.n])) + tuple(state.ids[self.n:]))
        return out

    @cached_property
    def principal(self):
        """Principal-coefficient expansion of every variable, by id."""
        return _principal_expansions(self)

    def laurent_expansion(self, variable_id):
        return self.principal[self._get(variable_id).id].project(range(self.m))

    def _get(self, variable_id):
        if variable_id not in self.variables:
            raise KeyError("unknown variable id %r" % (variable_id,))
        return self.variables[variable_id]

    def exchanged(self, s, k):
        """The id of the variable that edge (s, k) puts at position k."""
        (new,) = (set(self.seeds[self.seed_graph[(s, k)]].ids)
                  - set(self.seeds[s].ids))
        return new

    def cluster_monomial(self, g):
        """The cluster monomial with g-vector g as sorted (id, exponent)
        pairs, or None if g lies in no cone or needs a negative frozen
        exponent.

        A walk through the g-vector fan finds the cone: from the root seed
        it mutates at a negative coordinate of g until none is left, reading
        coordinates through each seed's H_t.  In finite type the fan is the
        normal fan of a simple polytope (Hohlweg-Pilaud-Stella 2018), where
        such a mutation is a simplex pivot that strictly raises the
        objective g, so the walk enters each seed at most once.  The frozen
        coordinates are what the mutable variables' g-vectors leave of g."""
        n, s = self.n, 0
        for _ in self.seeds:
            c = [vec_dot(h, g) for h in self.seeds[s].inverse]
            if min(c) >= 0:
                break
            s = self.seed_graph[(s, c.index(min(c)))]
        else:
            return None
        ids = self.seeds[s].ids
        c += [g[r] - sum(x * self.variables[v].g_vector[r]
                         for x, v in zip(c, ids)) for r in range(n, self.m)]
        if min(c) < 0:
            return None
        return tuple(sorted((v, x) for v, x in zip(ids, c) if x))

    def fan_defect(self):
        """None if the seeds' cones form a complete simplicial fan by the
        pseudomanifold criterion (De Loera, Rambau and Santos,
        "Triangulations", 2010, ch. 4), else its first failure.  (a) Each
        cone is unimodular, which the search checks as it builds H_t; (b)
        each edge (s, k) -> j has its back edge, and (c) j's new variable
        has a negative k-th coordinate in s's basis, so the two cones lie on
        opposite sides of their wall: then the number of cones holding a
        point off the walls is constant, and (d) no cone but the root's
        holding (1, ..., 1) makes it 1."""
        n = self.n
        for s, state in enumerate(self.seeds):
            H = state.inverse
            if s and min(map(sum, H)) >= 0:
                return "the cone of seed %d holds (1, ..., 1)" % s
            for k in range(n):
                j = self.seed_graph.get((s, k))
                edge = "edge (%d, %d) -> %s" % (s, k, j)
                if s not in (self.seed_graph.get((j, i)) for i in range(n)):
                    return "%s has no back edge" % edge
                new = self.variables[self.exchanged(s, k)]
                if vec_dot(H[k], new.g_vector) >= 0:
                    return "%s: the cones lie on one side of their wall" % edge
        return None


def _variable_name(g):
    return "x(" + ",".join(str(x) for x in g) + ")"


def _extract_g(principal, m, n):
    """The exponent of the unique y-free term of a principal expansion."""
    candidates = [e for e in principal.terms if all(x == 0 for x in e[m:])]
    if len(candidates) != 1:
        raise AtlasError("separation failure: y-free term not unique")
    e = candidates[0]
    if principal.terms[e] != 1:
        raise AtlasError("separation failure: y-free coefficient not 1")
    return tuple(e[:m])


def _pivot(H, g, k):
    """H_t of a seed whose k-th g-vector became g, from H of the seed
    before, or None if its cone is not unimodular, that is if u = H g has
    u_k != +-1.  Else H_t is H with row k scaled by u_k and u_i u_k times
    it taken from row i; rows with u_i = 0 are shared."""
    u = [vec_dot(h, g) for h in H]
    if u[k] not in (1, -1):
        return None
    hk = [u[k] * x for x in H[k]]
    return [hk if i == k else [x - ui * y for x, y in zip(h, hk)] if ui
            else h for i, (h, ui) in enumerate(zip(H, u))]


def enumerate_atlas(seed, max_seeds=100000):
    """BFS over labeled seeds, deduplicated by the set of mutable variable
    ids; collects all cluster variables and exchange relations.

    Every edge (s, k) checks the sign-coherence of the k-th c-vector and
    computes the new g-vector sparsely from the variables' g-vectors, which
    names the new variable.  The mutated matrix, its H_t and the exchange
    monomials are built only for a new seed or a new pair."""
    n, m = seed.matrix.n, seed.matrix.m
    atlas = Atlas(seed)
    variables, seeds, graph = atlas.variables, atlas.seeds, atlas.seed_graph

    for i in range(m):
        g = tuple(1 if j == i else 0 for j in range(m))
        var = ClusterVariable(seed.var_ids[i], g, is_frozen=i >= n)
        variables[var.id] = var
        atlas.id_by_g[g] = var.id

    root = SeedState(0, seed.matrix.entries, tuple(seed.var_ids),
                     identity_matrix(n), ())
    seeds.append(root)
    cluster_index = {frozenset(root.ids[:n]): 0}

    frontier = [root]
    while frontier:
        next_frontier = []
        for state in frontier:
            s, rows, ids = state.index, state.matrix, state.ids
            for k in range(n):
                if (s, k) in graph:
                    continue
                hk = state.inverse[k]
                eps = 1 if max(hk) > 0 else -1
                if eps == 1 and min(hk) < 0:
                    raise AtlasError("c-vector sign-coherence violated")
                g_new = [-x for x in variables[ids[k]].g_vector]
                for v, row in zip(ids, rows):
                    b = -eps * row[k]
                    if b > 0:
                        g_new = [x + b * y for x, y
                                 in zip(g_new, variables[v].g_vector)]
                g_new = tuple(g_new)
                new_id = atlas.id_by_g.get(g_new)
                if new_id is None:
                    new_id = _variable_name(g_new)
                    if new_id in variables:
                        raise AtlasError("the new variable %s is named like "
                                         "a label of the seed" % new_id)
                    variables[new_id] = ClusterVariable(new_id, g_new, False)
                    atlas.id_by_g[g_new] = new_id
                new_ids = ids[:k] + (new_id,) + ids[k + 1:]
                key = frozenset(new_ids[:n])
                j = cluster_index.get(key)
                if j is not None:
                    graph[(s, k)] = j
                    graph[(j, seeds[j].ids.index(new_id))] = s
                else:
                    if len(seeds) >= max_seeds:
                        raise AtlasError(
                            "exchange-graph search: more than %d seeds "
                            "(--max-seeds %d)" % (len(seeds), max_seeds))
                    j = cluster_index[key] = len(seeds)
                    inverse = _pivot(state.inverse, g_new, k)
                    if inverse is None:
                        raise AtlasError(
                            "the cone of seed %d is not unimodular" % j)
                    new_state = SeedState(j, mutate_entries(rows, k), new_ids,
                                          inverse, state.path + (k,))
                    seeds.append(new_state)
                    graph[(s, k)] = j
                    graph[(j, k)] = s
                    next_frontier.append(new_state)
                pair_key = frozenset({ids[k], new_id})
                if pair_key not in atlas.exchange_pairs:
                    monomials = tuple(sorted(
                        tuple(sorted(side.items()))
                        for side in exchange_monomials(ids, rows, k)))
                    atlas.exchange_pairs[pair_key] = ExchangePair(
                        pair_key, monomials, s, k)
        frontier = next_frontier
    return atlas


def _principal_expansions(atlas):
    """Walk every edge (s, k) -> j of the seed graph with j > s once, in the
    order the search found it: the new variable's principal expansion is the
    exchange binomial in the expansions of seed s, with the k-th c-vector
    c_ik = H_ki d_k / d_i as its y-exponents, divided by the expansion of
    its k-th variable, and separation must read off the search's
    g-vector."""
    n, m = atlas.n, atlas.m
    nv = m + n
    d = atlas.initial_seed.matrix.skew_symmetrizer
    principal = {v: Poly.variable(nv, i)
                 for i, v in enumerate(atlas.initial_seed.var_ids)}
    ys = [Poly.variable(nv, i) for i in range(m, nv)]
    for (s, k), j in atlas.seed_graph.items():
        if j < s:
            continue
        state = atlas.seeds[s]
        hk = state.inverse[k]
        column = [row[k] for row in state.matrix] + \
            [hk[i] * d[k] // d[i] for i in range(n)]
        sides = [Poly.one(nv), Poly.one(nv)]
        for base, b in zip([principal[v] for v in state.ids] + ys, column):
            if b:
                sides[b < 0] = sides[b < 0] * base ** abs(b)
        new = exact_divide(sides[0] + sides[1], principal[state.ids[k]])
        new_id = atlas.exchanged(s, k)
        g_new = atlas.variables[new_id].g_vector
        g_extracted = _extract_g(new, m, n)
        if g_extracted != g_new:
            raise AtlasError("g-vector recursion disagrees with separation: "
                             "%r vs %r" % (g_new, g_extracted))
        principal.setdefault(new_id, new)
    return principal


def exchange_monomials(ids, rows, k):
    """The two sides of the exchange relation at column k, as exponent dicts
    keyed by ids[i] for row i: the positive and the negated negative entries."""
    plus = {}
    minus = {}
    for v, row in zip(ids, rows):
        b = row[k]
        if b > 0:
            plus[v] = b
        elif b < 0:
            minus[v] = -b
    return plus, minus
