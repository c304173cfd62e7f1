"""Exhaustive exchange-graph enumeration for finite cluster type, in two
layers.

The search is integer-only.  Each seed carries its extended exchange matrix
with the c-vector rows of principal coefficients under it, and its g-matrix.
Mutation at k requires the k-th c-vector to be sign-coherent with sign eps
and changes only column k of the g-matrix, to -g_k + sum over i != k of
max(0, -eps*b_ik) g_i.  Seeds are identified by the multiset of their mutable
g-vectors, which also name the variables.

The Laurent layer, `Atlas.principal`, is computed on first read: each
variable's principal-coefficient expansion in the ring
K[x_1^{+-},..,x_n^{+-}, x_{n+1},..,x_m, y_1,..,y_n], of which the Laurent
expansion and the F-polynomial are projections.  It divides once per edge
of the exchange graph, and on every edge checks that the g-vector read off
by separation is the one the search gave.
"""

from functools import cached_property

from .intlinalg import invert_unimodular, vec_dot
from .polynomials import Poly, exact_divide
from .seeds import ExtendedExchangeMatrix, e_column, mutate_entries


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
    """One enumerated seed: matrix, variable ids by position, g-matrix."""

    __slots__ = ("index", "matrix", "ids", "g_matrix", "path")

    def __init__(self, index, matrix, ids, g_matrix, path):
        self.index = index
        self.matrix = matrix          # (m+n) x n principal extension rows
        self.ids = ids                # length m
        self.g_matrix = g_matrix      # m x m, columns are g-vectors
        self.path = path              # mutation sequence from the root

    def base_matrix(self, n, m):
        return ExtendedExchangeMatrix([list(r) for r in self.matrix[:m]], n=n)


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
        self._inverses = {}

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

    def f_polynomial(self, variable_id):
        return self.principal[self._get(variable_id).id].project(
            range(self.m, self.m + self.n))

    def _get(self, variable_id):
        if variable_id not in self.variables:
            raise KeyError("unknown variable id %r" % (variable_id,))
        return self.variables[variable_id]

    def cluster_monomial(self, g):
        """The cluster monomial with g-vector g as sorted (id, exponent)
        pairs, or None if g lies in no cone or needs a negative frozen
        exponent.

        A walk through the g-vector fan finds the cone: from the root seed
        it mutates at a negative coordinate of g until none is left, reading
        coordinates through the inverse of each seed's mutable g-matrix
        block, computed once per seed.  In finite type the fan is the normal
        fan of a simple polytope (Hohlweg-Pilaud-Stella 2018), where such a
        mutation is a simplex pivot that strictly raises the objective g, so
        the walk enters each seed at most once."""
        n, s = self.n, 0
        for _ in self.seeds:
            c = [vec_dot(h, g) for h in self._inverse(s)]
            if min(c) >= 0:
                break
            s = self.seed_graph[(s, c.index(min(c)))]
        else:
            return None
        G = self.seeds[s].g_matrix
        c += [g[r] - vec_dot(G[r], c) for r in range(n, self.m)]
        if min(c) < 0:
            return None
        return tuple(sorted((v, x) for v, x in zip(self.seeds[s].ids, c)
                            if x))

    def _inverse(self, s):
        """The inverse of seed s's mutable g-matrix block, computed once."""
        if s not in self._inverses:
            self._inverses[s] = invert_unimodular(
                [row[:self.n] for row in self.seeds[s].g_matrix[:self.n]])
        return self._inverses[s]

    def fan_defect(self):
        """None if the seeds' cones form a complete simplicial fan by the
        pseudomanifold criterion (De Loera, Rambau and Santos,
        "Triangulations", 2010, ch. 4), else its first failure.  (a) Each
        cone is unimodular; (b) each edge (s, k) -> j has its back edge, and
        (c) j's new variable has a negative k-th coordinate in s's basis, so
        the two cones lie on opposite sides of their wall: then the number
        of cones holding a point off the walls is constant, and (d) no cone
        but the root's holding (1, ..., 1) makes it 1."""
        n = self.n
        for s, state in enumerate(self.seeds):
            try:
                H = self._inverse(s)
            except ValueError:
                return "the cone of seed %d is not unimodular" % s
            if s and min(map(sum, H)) >= 0:
                return "the cone of seed %d holds (1, ..., 1)" % s
            for k in range(n):
                j = self.seed_graph.get((s, k))
                edge = "edge (%d, %d) -> %s" % (s, k, j)
                if s not in (self.seed_graph.get((j, i)) for i in range(n)):
                    return "%s has no back edge" % edge
                (new,) = set(self.seeds[j].ids[:n]) - set(state.ids)
                if vec_dot(H[k], self.variables[new].g_vector) >= 0:
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


def enumerate_atlas(seed, max_seeds=100000):
    """BFS over labeled seeds, deduplicated by the multiset of mutable
    g-vectors; collects all cluster variables and exchange relations."""
    n, m = seed.matrix.n, seed.matrix.m
    atlas = Atlas(seed)

    for i in range(m):
        g = tuple(1 if j == i else 0 for j in range(m))
        var = ClusterVariable(seed.var_ids[i], g, is_frozen=i >= n)
        atlas.variables[var.id] = var
        atlas.id_by_g[g] = var.id

    bp0 = tuple(tuple(seed.matrix.entries[i]) for i in range(m)) + \
        tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    g0 = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
    root = SeedState(0, bp0, tuple(seed.var_ids), g0, ())
    atlas.seeds.append(root)
    cluster_index = {_cluster_key(atlas, root, n): 0}

    frontier = [root]
    while frontier:
        next_frontier = []
        for state in frontier:
            for k in range(n):
                if (state.index, k) in atlas.seed_graph:
                    continue
                new_state, pair_info = _mutate_state(atlas, state, k, n, m)
                key = _cluster_key(atlas, new_state, n)
                if key in cluster_index:
                    j = cluster_index[key]
                    atlas.seed_graph[(state.index, k)] = j
                    existing = atlas.seeds[j]
                    back = _find_back_index(atlas, existing, state, n)
                    if back is not None:
                        atlas.seed_graph[(j, back)] = state.index
                else:
                    if len(atlas.seeds) >= max_seeds:
                        raise AtlasError("enumeration budget exceeded")
                    new_state.index = len(atlas.seeds)
                    atlas.seeds.append(new_state)
                    cluster_index[key] = new_state.index
                    atlas.seed_graph[(state.index, k)] = new_state.index
                    atlas.seed_graph[(new_state.index, k)] = state.index
                    next_frontier.append(new_state)
                pair_key, monomials = pair_info
                if pair_key not in atlas.exchange_pairs:
                    atlas.exchange_pairs[pair_key] = ExchangePair(
                        pair_key, monomials, state.index, k)
        frontier = next_frontier
    return atlas


def _cluster_key(atlas, state, n):
    return tuple(sorted(atlas.variables[state.ids[i]].g_vector for i in range(n)))


def _find_back_index(atlas, existing, origin, n):
    """Position in `existing` whose mutation returns to `origin`'s cluster."""
    origin_set = set(atlas.variables[origin.ids[i]].g_vector for i in range(n))
    exist_set = set(atlas.variables[existing.ids[i]].g_vector for i in range(n))
    diff = exist_set - origin_set
    if len(diff) != 1:
        return None
    g = diff.pop()
    for i in range(n):
        if atlas.variables[existing.ids[i]].g_vector == g:
            return i
    return None


def _mutate_state(atlas, state, k, n, m):
    rows = state.matrix

    # g-matrix recursion: eps = common sign of the k-th c-vector
    c_col = [rows[m + i][k] for i in range(n)]
    has_pos = any(x > 0 for x in c_col)
    has_neg = any(x < 0 for x in c_col)
    if has_pos and has_neg:
        raise AtlasError("c-vector sign-coherence violated")
    eps = 1 if has_pos else -1
    col = e_column(rows[:m], k, eps)
    g_new = tuple(sum(g * e for g, e in zip(grow, col))
                  for grow in state.g_matrix)
    new_g_matrix = tuple(grow[:k] + (x,) + grow[k + 1:]
                         for grow, x in zip(state.g_matrix, g_new))

    if g_new in atlas.id_by_g:
        new_id = atlas.id_by_g[g_new]
    else:
        new_id = _variable_name(g_new)
        atlas.variables[new_id] = ClusterVariable(new_id, g_new, False)
        atlas.id_by_g[g_new] = new_id

    pair_key = frozenset({state.ids[k], new_id})
    monomials = tuple(sorted(tuple(sorted(side.items())) for side in
                             exchange_monomials(state.ids, rows[:m], k)))

    new_ids = list(state.ids)
    new_ids[k] = new_id
    new_state = SeedState(-1, mutate_entries(rows, k), tuple(new_ids),
                          new_g_matrix, state.path + (k,))
    return new_state, (pair_key, monomials)


def _principal_expansions(atlas):
    """Walk every edge (s, k) -> j of the seed graph with j > s once, in the
    order the search found it: the new variable's principal expansion is the
    exchange binomial in the expansions of seed s divided by that of its
    k-th variable, and separation must read off the search's g-vector."""
    n, m = atlas.n, atlas.m
    nv = m + n
    principal = {v: Poly.variable(nv, i)
                 for i, v in enumerate(atlas.initial_seed.var_ids)}
    ys = [Poly.variable(nv, i) for i in range(m, nv)]
    for (s, k), j in atlas.seed_graph.items():
        if j < s:
            continue
        state = atlas.seeds[s]
        bases = [principal[v] for v in state.ids] + ys
        sides = []
        for side in exchange_monomials(range(nv), state.matrix, k):
            poly = Poly.one(nv)
            for i, b in side.items():
                poly = poly * bases[i] ** b
            sides.append(poly)
        new = exact_divide(sides[0] + sides[1], bases[k])
        (new_id,) = set(atlas.seeds[j].ids[:n]) - set(state.ids[:n])
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


def separation_check(atlas):
    """Verify x^g * F(y_hat) = principal expansion for every variable."""
    n, m = atlas.n, atlas.m
    nv = m + n
    b0 = atlas.initial_seed.matrix.entries
    yhat = []
    for j in range(n):
        e = [0] * nv
        e[m + j] = 1
        for i in range(m):
            e[i] += b0[i][j]
        yhat.append(Poly.monomial(nv, e))
    for var in atlas.variables.values():
        f = atlas.f_polynomial(var.id)
        f_full = Poly(nv, {(0,) * m + e: c for e, c in f.terms.items()})
        rhs = f_full.compose([Poly.one(nv)] * m + yhat) if n else Poly.one(nv)
        rhs = rhs.scale_monomial(tuple(var.g_vector) + (0,) * n)
        if rhs != atlas.principal[var.id]:
            return False
    return True


def tropical_g_vector(atlas, variable_id):
    """g-vector via the tropical evaluation of the F-polynomial (finite type)."""
    f = atlas.f_polynomial(variable_id)
    n, m = atlas.n, atlas.m
    if f.is_zero() or f == Poly.one(n):
        raise ValueError("F-polynomial is 1; tropical formula does not apply")
    b0 = atlas.initial_seed.matrix.entries
    num = []
    den = []
    for i in range(m):
        vals_num = []
        vals_den = []
        for alpha in f.terms:
            vals_num.append(sum(a * (-1 if j == i and j < n else 0)
                                for j, a in enumerate(alpha)))
            vals_den.append(sum(a * b0[i][j] for j, a in enumerate(alpha)))
        num.append(min(vals_num))
        den.append(min(vals_den))
    return tuple(x - y for x, y in zip(num, den))
