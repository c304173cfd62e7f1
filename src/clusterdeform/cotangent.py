"""Graded first-order deformation degrees of the cluster complex: family
enumeration, the invariant pinned degrees, the characteristic image, and
the obstructedness lookup."""

from .intlinalg import smith_normal_form, vec_dot
from .seeds import classify_finite_type


class CotangentError(Exception):
    pass


class T1Degree:
    """One graded degree c = a - b.

    b is supported on an exchangeable pair; a is supported on omega plus
    frozen variables.  In family form a is left symbolic (any nonnegative
    support on omega); pinned degrees carry the exact exponents and the
    witness vector w.
    """

    __slots__ = ("seed_index", "k", "pair", "omega", "a", "b", "family",
                 "witness_w")

    def __init__(self, seed_index, k, pair, omega, a, b, family, witness_w=None):
        self.seed_index = seed_index
        self.k = k
        self.pair = frozenset(pair)
        self.omega = frozenset(omega)
        self.a = dict(a) if a is not None else None
        self.b = dict(b)
        self.family = family
        self.witness_w = witness_w

    def degree_key(self):
        if self.a is None:
            raise ValueError("family degrees have no pinned exponents")
        return (tuple(sorted(self.a.items())), tuple(sorted(self.b.items())))

    def degree_vector(self, order):
        index = {v: i for i, v in enumerate(order)}
        vec = [0] * len(order)
        for v, e in self.a.items():
            vec[index[v]] += e
        for v, e in self.b.items():
            vec[index[v]] -= e
        return tuple(vec)

    def __repr__(self):
        return "T1Degree(pair=%r, a=%r, family=%r)" % (
            set(self.pair), self.a, self.family)


def _subsets(items):
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return out


def _partner_id(atlas, state, k):
    other = atlas.seeds[atlas.seed_graph[(state.index, k)]]
    n = atlas.n
    diff = set(other.ids[:n]) - set(state.ids[:n])
    if len(diff) != 1:
        raise CotangentError("adjacent clusters differ in %d variables"
                             % len(diff))
    return diff.pop()


def t1_degree_families(atlas, K):
    """Family-form degrees: one per (exchangeable pair, omega) where omega
    contains every neighbor of the mutated vertex in the mutable graph."""
    n = atlas.n
    seen = {}
    for state in atlas.seeds:
        B = state.matrix
        for k in range(n):
            pair = frozenset({state.ids[k], _partner_id(atlas, state, k)})
            neighbors = [i for i in range(n) if i != k and B[i][k] != 0]
            required = {state.ids[i] for i in neighbors}
            optional = [state.ids[i] for i in range(n)
                        if i != k and state.ids[i] not in required]
            for extra in _subsets(optional):
                omega = frozenset(required | set(extra))
                key = (pair, omega)
                if key in seen:
                    continue
                b = {v: 1 for v in pair}
                seen[key] = T1Degree(state.index, k, pair, omega,
                                     None, b, family=True)
    return sorted(seen.values(),
                  key=lambda d: (tuple(sorted(d.pair)), tuple(sorted(d.omega))))


def t1_witnesses(matrix, j, weights, snf=None):
    """All w in the integer column span of the matrix with w_j = 0 and the
    componentwise lower bounds that make the degree a - b effective.

    weights must be strictly positive with matrix^T weights = 0; they bound
    the search box.  Each candidate of weight 0 is tested against the
    diagonal of the matrix's Smith form `snf`, computed here unless the
    caller, searching every j of one matrix, passes it in."""
    m, n = matrix.m, matrix.n
    entries = matrix.entries
    lower = []
    for i in range(m):
        if i == j:
            lower.append(0)
        elif i < n and entries[i][j] != 0:
            lower.append(1 - max(0, entries[i][j]))
        else:
            lower.append(-max(0, entries[i][j]))
    if any(vec_dot(row, weights[:m]) != 0 for row in zip(*entries)):
        raise CotangentError("weights are not a grading for this matrix")
    if snf is None:
        snf = smith_normal_form([list(r) for r in entries])
    out = []
    w = [0] * m
    tail = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        tail[i] = tail[i + 1] + weights[i] * lower[i]

    def rec(i, acc):
        if i == m:
            if acc == 0 and snf.diagonal_solution(w) is not None:
                out.append(list(w))
            return
        if i == j:
            w[i] = 0
            rec(i + 1, acc)
            return
        v = lower[i]
        while acc + weights[i] * v + tail[i + 1] <= 0:
            w[i] = v
            rec(i + 1, acc + weights[i] * v)
            v += 1

    rec(0, 0)
    return out


def seed_weights(atlas, state, D):
    """Transport a strictly positive grading of the initial seed to the
    given seed: the degree of each cluster position is g . D."""
    return [vec_dot(state.g_vector_at(i), D) for i in range(atlas.m)]


def t1_invariant(atlas, K, J, D_strict):
    """Pinned degrees: for every seed and mutable index, every witness w in
    the column span meeting the bounds yields a = w + max(0, B_k)."""
    if D_strict is None:
        raise CotangentError("no strictly positive grading")
    n, m = atlas.n, atlas.m
    found = {}
    for state in atlas.seeds:
        matrix = state.base_matrix(n, m)
        weights = seed_weights(atlas, state, D_strict)
        snf = smith_normal_form([list(r) for r in matrix.entries])
        for k in range(n):
            pair = frozenset({state.ids[k], _partner_id(atlas, state, k)})
            b = {v: 1 for v in pair}
            for w in t1_witnesses(matrix, k, weights, snf):
                a = {}
                for i in range(m):
                    e = w[i] + max(0, matrix.entries[i][k])
                    if e:
                        a[state.ids[i]] = e
                omega = {state.ids[i] for i in range(n) if a.get(state.ids[i])}
                deg = T1Degree(state.index, k, pair, omega, a, b,
                               family=False, witness_w=list(w))
                found.setdefault(deg.degree_key(), deg)
    return sorted(found.values(), key=lambda d: d.degree_key())


def characteristic_image(univ):
    """One pinned degree per universal coefficient, read off the relation
    that carries the coefficient alone with exponent 1."""
    if univ.has_isolated_vertex:
        raise CotangentError("isolated vertex: characteristic map degenerate")
    out = []
    for t_id in univ.t_ids:
        rel_idx, side_idx = univ.owners[t_id][0]
        rel = univ.univ_relations[rel_idx]
        _, z_part = rel["sides"][side_idx]
        b = {v: 1 for v in rel["pair"]}
        mutable = {v.id for v in univ.base_atlas.mutable_variables}
        omega = {v for v in z_part if v in mutable}
        out.append(T1Degree(None, None, rel["pair"], omega,
                            dict(z_part), b, family=False))
    return out


def obstruction_class(matrix):
    """Unobstructed exactly when the mutable block is skew-symmetric."""
    info = classify_finite_type(matrix)
    if not info["finite"]:
        raise CotangentError("not of finite cluster type")
    n = matrix.n
    symmetric = all(matrix.entries[i][j] == -matrix.entries[j][i]
                    for i in range(n) for j in range(n))
    if symmetric:
        reason = "all components simply laced: %s" % ", ".join(info["components"])
    else:
        reason = "non-simply-laced component among: %s" % ", ".join(info["components"])
    return {"unobstructed": symmetric, "reason": reason}
