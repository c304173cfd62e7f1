"""Universal coefficients: the canonical frozen extension, its exchange
relations, coefficient ownership, and the fiber-at-zero consistency check."""

from .atlas import enumerate_atlas
from .seeds import ExtendedExchangeMatrix, Seed, is_isolated_vertex_free


class UniversalError(Exception):
    pass


class UniversalData:
    """The coefficient extension of a base seed.

    u_rows are the added frozen rows (one per coefficient), t_ids their
    names, univ_relations the exchange relations of the extended algebra
    with each side split into a t-part and a z-part over base variables.
    owners maps each t to every (relation index, side index) where it
    appears alone with exponent 1 on a side containing a mutable variable.
    """

    __slots__ = ("base_seed", "base_atlas", "univ_seed", "univ_atlas",
                 "u_rows", "t_ids", "univ_relations",
                 "owners", "variable_order", "has_isolated_vertex")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def p(self):
        return len(self.t_ids)


def _t_name(g):
    return "t(" + ",".join(str(x) for x in g) + ")"


def build_universal(seed, max_seeds=100000, base_atlas=None):
    """Enumerate the transpose pattern, stack its g-vectors as frozen rows,
    re-enumerate, and collect the coefficient-extended exchange relations.

    base_atlas, when given, must be the atlas of `seed`; it is enumerated
    here otherwise."""
    if base_atlas is None:
        base_atlas = enumerate_atlas(seed, max_seeds=max_seeds)
    n, m = seed.matrix.n, seed.matrix.m

    bt_rows = [[seed.matrix.entries[j][i] for j in range(n)] for i in range(n)]
    t_seed = Seed(ExtendedExchangeMatrix(bt_rows, n=n),
                  ["w%d" % (i + 1) for i in range(n)])
    t_atlas = enumerate_atlas(t_seed, max_seeds=max_seeds)
    t_gs = sorted(v.g_vector for v in t_atlas.mutable_variables)
    t_ids = [_t_name(g) for g in t_gs]
    if len(set(t_ids)) != len(t_ids):
        raise UniversalError("coefficient g-vectors are not distinct")

    rows = [list(r) for r in seed.matrix.entries] + [list(g) for g in t_gs]
    labels = list(seed.var_ids) + t_ids
    univ_seed = Seed(ExtendedExchangeMatrix(rows, n=n), labels)
    univ_atlas = enumerate_atlas(univ_seed, max_seeds=max_seeds)

    # match extended cluster variables to base ones by the g-vector prefix
    to_base = {}
    for var in univ_atlas.variables.values():
        if var.id in t_ids:
            continue
        if var.id in seed.var_ids:
            to_base[var.id] = var.id
            continue
        prefix = var.g_vector[:m]
        if prefix not in base_atlas.id_by_g:
            raise UniversalError("g-vector prefix %r has no base counterpart"
                                 % (prefix,))
        to_base[var.id] = base_atlas.id_by_g[prefix]

    frozen_base = set(base_atlas.frozen_ids)
    t_set = set(t_ids)

    relations = []
    for ep in univ_atlas.exchange_pairs.values():
        pair = frozenset(to_base[v] for v in ep.pair)
        if len(pair) != 2:
            raise UniversalError("exchange pair collapsed under relabeling")
        sides = []
        for side in ep.monomials:
            t_part = {}
            z_part = {}
            for v, e in side:
                if v in t_set:
                    t_part[v] = e
                else:
                    z_part[to_base[v]] = e
            sides.append((t_part, z_part))
        relations.append({"pair": pair, "sides": tuple(sides)})
    relations.sort(key=lambda r: tuple(sorted(r["pair"])))

    if len(relations) != len(base_atlas.exchange_pairs):
        raise UniversalError("exchange pair count changed under extension")

    # specializing t -> 1 must recover the base exchange relations
    base_by_pair = {ep.pair: ep.monomials
                    for ep in base_atlas.exchange_pairs.values()}
    for rel in relations:
        got = tuple(sorted(tuple(sorted(z.items())) for _, z in rel["sides"]))
        if rel["pair"] not in base_by_pair or got != base_by_pair[rel["pair"]]:
            raise UniversalError("t -> 1 specialization does not match the "
                                 "base relation for %r" % (set(rel["pair"]),))

    # a coefficient is owned through the relations where it appears alone
    # with exponent 1 while the opposite side involves no mutable variable;
    # for a sink-and-source pair both sides qualify and contribute one each
    has_isolated = not is_isolated_vertex_free(seed.matrix)
    owners = {}
    for idx, rel in enumerate(relations):
        pure_frozen = [all(v in frozen_base for v in z)
                       for _, z in rel["sides"]]
        for s in (0, 1):
            if not pure_frozen[1 - s]:
                continue
            t_part, z_part = rel["sides"][s]
            if len(t_part) != 1 or next(iter(t_part.values())) != 1:
                raise UniversalError(
                    "distinguished side of %r does not carry a single "
                    "coefficient with exponent 1" % (set(rel["pair"]),))
            t_id = next(iter(t_part))
            owners.setdefault(t_id, []).append((idx, s))

    missing = [t for t in t_ids if t not in owners]
    if missing:
        raise UniversalError("coefficients never appear alone: %r" % missing)

    order = [v.id for v in base_atlas.mutable_variables] + base_atlas.frozen_ids

    return UniversalData(
        base_seed=seed, base_atlas=base_atlas, univ_seed=univ_seed,
        univ_atlas=univ_atlas, u_rows=[list(g) for g in t_gs], t_ids=t_ids,
        univ_relations=relations,
        owners=owners,
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
        if not ideal.contains_monomial(e):
            verdict = False
    return {"monomials": monomials, "verdict": verdict}
