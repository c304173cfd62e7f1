"""Independent references for the exchange-graph search and the universal
coefficients, kept as oracles for `atlas.enumerate_atlas` and
`universal.build_universal`.

`reference_atlas` is the search as it was first written: it mutates the
whole seed (matrix with its principal-coefficient rows by the textbook
rule, g-matrix by the dense E_{k,eps} product, exchange monomials) on every
edge, keys clusters by the sorted mutable g-vectors and finds each back
edge by comparing g-vector sets.  Its seeds are `ReferenceState`s, which
keep the c-vectors and the g-matrix that `atlas.SeedState` derives.
`transpose_u_rows` reads the coefficient rows off a second search, of the
transpose pattern B^T (Reading, "Universal geometric cluster algebras",
2014).
`separation_check` and `tropical_g_vector` recompute the g-vectors from the
F-polynomials that `f_polynomial` reads off the principal expansions.  `SEARCH_SEEDS` are the seeds both oracles run on.
"""

import random

from clusterdeform.atlas import (Atlas, AtlasError, ClusterVariable,
                                 ExchangePair, _variable_name,
                                 exchange_monomials)
from clusterdeform.polynomials import Poly
from clusterdeform.seeds import ExtendedExchangeMatrix, Seed, mutate
from tests.conftest import AUGMENTED, augmented_seed, path_seed, tree_seed
from tests.groebner_oracle import compose


def _path(a, b, r):
    """Path of rank r, simply laced but for the pair (a, b) at its end."""
    return lambda: path_seed([(1, -1)] * (r - 2) + [(a, b)])


def _opposite(make):
    """The seed with the opposite exchange matrix -B."""
    def opposite():
        seed = make()
        return Seed(ExtendedExchangeMatrix(
            [[-x for x in row] for row in seed.matrix.entries],
            n=seed.matrix.n), seed.var_ids)
    return opposite


def _mutated(make, rng):
    """The seed mutated at one index drawn now from rng."""
    k = rng.randrange(make().matrix.n)
    return lambda: mutate(make(), k)


def _search_seeds():
    types = {"A%d" % r: _path(1, -1, r) for r in range(2, 7)}
    types.update(("B%d" % r, _path(1, -2, r)) for r in range(3, 6))
    types.update(("C%d" % r, _path(2, -1, r)) for r in range(3, 6))
    types.update(("D%d" % r, lambda r=r: tree_seed(
        r, [(i, i + 1) for i in range(r - 2)] + [(r - 3, r - 1)]))
        for r in range(4, 7))
    types["E6"] = lambda: tree_seed(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    types["F4"] = lambda: path_seed([(1, -1), (1, -2), (1, -1)])
    types["G2"] = _path(1, -3, 2)
    types["G2t"] = _path(3, -1, 2)
    rng = random.Random(17)
    out = {}
    for name, make in types.items():
        out[name] = make
        out[name + "_op"] = _opposite(make)
        out[name + "_mu"] = _mutated(make, rng)
    out.update((name, lambda name=name: augmented_seed(name))
               for name in AUGMENTED)
    return out


# A2-A6, B3-B5, C3-C5, D4-D6, E6, F4, G2 and its transpose G2t, each also
# with the opposite matrix -B and after one random mutation, and the
# augmented seeds of conftest.
SEARCH_SEEDS = _search_seeds()


class ReferenceState:
    """One seed of `reference_atlas`: its (m+n) x n matrix, B~_t over the
    principal-coefficient rows C_t, its variable ids by position, and its
    m x m g-matrix, whose columns are their g-vectors."""

    def __init__(self, index, matrix, ids, g_matrix, path):
        self.index = index
        self.matrix = matrix
        self.ids = ids
        self.g_matrix = g_matrix
        self.path = path


def reference_atlas(seed, max_seeds=100000):
    """BFS over labeled seeds, deduplicated by the multiset of mutable
    g-vectors, with the full mutation on every edge."""
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
    root = ReferenceState(0, bp0, tuple(seed.var_ids), g0, ())
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
    return tuple(sorted(atlas.variables[state.ids[i]].g_vector
                        for i in range(n)))


def _find_back_index(atlas, existing, origin, n):
    """Position in `existing` whose mutation returns to `origin`'s cluster."""
    origin_set = set(atlas.variables[origin.ids[i]].g_vector for i in range(n))
    exist_set = set(atlas.variables[existing.ids[i]].g_vector
                    for i in range(n))
    diff = exist_set - origin_set
    if len(diff) != 1:
        return None
    g = diff.pop()
    for i in range(n):
        if atlas.variables[existing.ids[i]].g_vector == g:
            return i
    return None


def e_column(entries, k, sign):
    """Column k of E_{k,eps}, the only column where it differs from the
    identity: -1 at k and max(0, -eps*b_ik) at every other row i.

    Mutation at k multiplies the g-matrix by E on the right (Fomin-Zelevinsky,
    Cluster algebras IV), so only the k-th g-vector changes."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return [-1 if i == k else max(0, -sign * row[k])
            for i, row in enumerate(entries)]


def _mutate_state(atlas, state, k, n, m):
    rows = state.matrix
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
    new_state = ReferenceState(-1, _mutate_rows(rows, k), tuple(new_ids),
                               new_g_matrix, state.path + (k,))
    return new_state, (pair_key, monomials)


def _mutate_rows(entries, k):
    """b'_ij = -b_ij if i = k or j = k, else b_ij + sgn(b_ik) max(b_ik b_kj, 0)
    (Fomin-Zelevinsky), on every row."""
    out = []
    for i, row in enumerate(entries):
        bik = row[k]
        out.append(tuple(
            -x if k in (i, j) else
            x + (1 if bik > 0 else -1) * max(bik * entries[k][j], 0)
            for j, x in enumerate(row)))
    return tuple(out)


def transpose_u_rows(seed):
    """The sorted g-vectors of the transpose pattern B^T, enumerated."""
    n = seed.matrix.n
    bt_rows = [[seed.matrix.entries[j][i] for j in range(n)]
               for i in range(n)]
    t_seed = Seed(ExtendedExchangeMatrix(bt_rows, n=n),
                  ["w%d" % (i + 1) for i in range(n)])
    return sorted(list(v.g_vector)
                  for v in reference_atlas(t_seed).mutable_variables)


def f_polynomial(atlas, variable_id):
    """The F-polynomial of a variable: its principal expansion with every
    initial variable set to 1."""
    return atlas.principal[variable_id].project(
        range(atlas.m, atlas.m + atlas.n))


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
        f = f_polynomial(atlas, var.id)
        f_full = Poly(nv, {(0,) * m + e: c for e, c in f.terms.items()})
        rhs = (compose(f_full, [Poly.one(nv)] * m + yhat) if n
               else Poly.one(nv))
        rhs = rhs.scale_monomial(tuple(var.g_vector) + (0,) * n)
        if rhs != atlas.principal[var.id]:
            return False
    return True


def tropical_g_vector(atlas, variable_id):
    """g-vector via the tropical evaluation of the F-polynomial (finite type)."""
    f = f_polynomial(atlas, variable_id)
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
