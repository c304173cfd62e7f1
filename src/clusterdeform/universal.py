"""Universal coefficients: the canonical frozen extension, its exchange
relations, the coefficient degrees deg_T, and the fiber-at-zero
consistency check.

The coefficient rows are the universal coefficients of Reading ("Universal
geometric cluster algebras", Math. Z. 2014), the g-vectors of the
transpose pattern B^T.  They are read off the base atlas by tropical
duality (Nakanishi-Zelevinsky, "On tropical dualities in cluster
algebras", Contemp. Math. 565, 2012): D^-1 G_t^T D C_t = I, so the
variable at position i of a seed, with g-vector g in `Atlas.variables`,
gives the row h_j = -d_j g_j / d_i, with d the skew-symmetrizer of B.
Frozen rows mutate with the mutable block alone (Fomin-Zelevinsky, Cluster
algebras IV), so each extended exchange relation is a column of the
extended matrix at a base seed, where `frozen_mover` (shared with
`gradings`) moves added frozen rows.
"""

from .atlas import exchange_monomials
from .seeds import is_isolated_vertex_free, mutate_entries
from .simplicial import support_mask


class UniversalError(Exception):
    pass


class UniversalData:
    """The coefficient extension of a base seed.

    u_rows are the added frozen rows (one per coefficient), t_ids their
    names, univ_relations the exchange relations of the extended algebra
    with each side split into a t-part and a z-part over base variables.
    t_degrees lists deg_T(t) for each t of t_ids, over variable_order: the
    exponent vector of an exchangeable pair minus the z-part of the side
    that carries t alone, with exponent 1, opposite a side with no mutable
    variable.
    """

    __slots__ = ("base_atlas", "u_rows", "t_ids", "univ_relations",
                 "t_degrees", "variable_order", "has_isolated_vertex")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def p(self):
        return len(self.t_ids)


def frozen_mover(base_atlas, rows):
    """at(state): frozen rows under the base atlas's initial mutable block,
    mutated along the path of the base seed `state` (memoised by prefix);
    the moved mutable block must be the state's own."""
    n = base_atlas.n
    moved = {(): base_atlas.initial_seed.matrix.entries[:n] + tuple(rows)}

    def move(path):
        if path not in moved:
            moved[path] = mutate_entries(move(path[:-1]), path[-1])
        return moved[path]

    def at(state):
        stack = move(state.path)
        if stack[:n] != state.matrix[:n]:
            raise UniversalError("mutable block moved along the path of "
                                 "seed %d does not match it" % state.index)
        return stack[n:]
    return at


def _t_name(g):
    return "t(" + ",".join(str(x) for x in g) + ")"


def build_universal(base_atlas):
    """Read the coefficient rows off the base atlas by tropical duality,
    stack them as frozen rows under the initial seed's matrix, and read
    each extended exchange relation off column k of that matrix moved to
    the seed where the base atlas first found the pair; the two sides are
    ordered by their sorted (id, exponent) items.  Each variable's row must
    be integral, and the same at every seed that holds it: its g-vector is
    fixed, so every position it takes must have the same d_i.  Each
    coefficient's degree deg_T is read off the relation side that carries
    it alone, and must be the same on every such side."""
    seed = base_atlas.initial_seed
    n = seed.matrix.n
    d = seed.matrix.skew_symmetrizer

    first, u_rows = {}, {}
    for state in base_atlas.seeds:
        for i, v in enumerate(state.ids[:n]):
            if v in first:
                if first[v][0] != d[i]:
                    raise UniversalError(
                        "duality check: the coefficient row of %s differs "
                        "between seeds %d and %d"
                        % (v, first[v][1], state.index))
                continue
            first[v] = (d[i], state.index)
            g = base_atlas.variables[v].g_vector
            h = [-d[j] * g[j] for j in range(n)]
            if any(x % d[i] for x in h):
                raise UniversalError(
                    "duality check: the coefficient row of %s is not "
                    "integral at seed %d" % (v, state.index))
            u_rows[v] = tuple(x // d[i] for x in h)
    t_gs = sorted(u_rows.values())
    t_ids = [_t_name(g) for g in t_gs]
    if len(set(t_ids)) != len(t_ids):
        raise UniversalError("coefficient g-vectors are not distinct")

    u_rows_at = frozen_mover(base_atlas, t_gs)
    relations = []
    for ep in base_atlas.exchange_pairs.values():
        state = base_atlas.seeds[ep.seed]
        t_sides = exchange_monomials(t_ids, u_rows_at(state), ep.k)
        z_sides = exchange_monomials(state.ids, state.matrix, ep.k)
        sides = sorted(zip(t_sides, z_sides),
                       key=lambda tz: sorted([*tz[0].items(), *tz[1].items()]))
        relations.append({"pair": ep.pair, "sides": tuple(sides)})
    relations.sort(key=lambda r: tuple(sorted(r["pair"])))

    has_isolated = not is_isolated_vertex_free(seed.matrix)
    frozen_base = set(base_atlas.frozen_ids)
    order = [v.id for v in base_atlas.mutable_variables] + base_atlas.frozen_ids
    # a side carries its coefficient alone when the opposite side involves
    # no mutable variable; a sink-and-source pair has two such sides, one
    # for each of its coefficients
    degrees = {}
    for rel in relations:
        pure_frozen = [all(v in frozen_base for v in z)
                       for _, z in rel["sides"]]
        for s in (0, 1):
            if not pure_frozen[1 - s]:
                continue
            t_part, z_part = rel["sides"][s]
            if len(t_part) != 1 or next(iter(t_part.values())) != 1:
                raise UniversalError(
                    "distinguished side of {%s} does not carry a single "
                    "coefficient with exponent 1"
                    % ", ".join(sorted(rel["pair"])))
            (t_id,) = t_part
            vec = tuple((v in rel["pair"]) - z_part.get(v, 0) for v in order)
            if degrees.setdefault(t_id, vec) != vec:
                raise UniversalError("inconsistent degrees for %s: %r and %r"
                                     % (t_id, degrees[t_id], vec))

    missing = [t for t in t_ids if t not in degrees]
    if missing:
        raise UniversalError("coefficients never appear alone: %r" % missing)

    return UniversalData(
        base_atlas=base_atlas, u_rows=[list(g) for g in t_gs], t_ids=t_ids,
        univ_relations=relations, t_degrees=[degrees[t] for t in t_ids],
        variable_order=order, has_isolated_vertex=has_isolated)


def fiber_at_zero(univ, ideal):
    """Setting t = 0 turns every relation into the monomial z_x z_{x'};
    the verdict records whether each lies in the given monomial ideal."""
    index = {v: i for i, v in enumerate(ideal.variables)}
    monomials = []
    verdict = True
    for rel in univ.univ_relations:
        e = [0] * len(ideal.variables)
        for v in rel["pair"]:
            e[index[v]] += 1
        e = tuple(e)
        monomials.append(e)
        if not ideal.contains(support_mask(e)):
            verdict = False
    return {"monomials": monomials, "verdict": verdict}
