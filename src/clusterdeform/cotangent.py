"""Graded first-order deformation degrees: the pinned T1 degrees a - b,
read off the witnesses of a lattice walk over the seeds.

The T1 witness search is a call to `intlinalg.nonnegative_solutions`, the
bounded search that the T0 and T0* checkers in `properties` use too;
`t1_witness_walk` runs it over every seed and mutable index for both
`t1_invariant` and `properties.check_t1`.  Lattice membership at every
seed is read off the one M-grading of the initial seed (`m_grading`): no
seed takes a Smith form of its own."""

from .intlinalg import nonnegative_solutions, vec_dot


class CotangentError(Exception):
    pass


def t1_witnesses(rows, j, weights, free, torsion):
    """All w in the integer column span of the seed's rows with w_j = 0 and
    the componentwise lower bounds that make the degree a - b effective.

    weights must be strictly positive with rows^T weights = 0; they bound
    the search box.  Shifted by its lower bounds and without index j, w is
    a solution of `nonnegative_solutions` of weight -weights . lower.  The
    column span is the kernel of w -> sum of w_i deg(x_i) in M (see
    `t1_witness_walk`): each row a of `free` (one per free coordinate of M,
    over the seed's positions) is the equality a . w = 0, and each pair
    (a, d) of `torsion` is tested as a . w = 0 modulo d at the leaf."""
    m, n = len(rows), len(rows[0])
    # 1 - max(0, b_ij) on the mutable neighbors of j, -max(0, b_ij)
    # elsewhere; b_jj = 0 gives lower_j = 0
    lower = [(i < n and row[j] != 0) - max(0, row[j])
             for i, row in enumerate(rows)]
    if any(vec_dot(col, weights[:m]) != 0 for col in zip(*rows)):
        raise CotangentError("weights are not a grading for this matrix")
    equalities = [(a[:j] + a[j + 1:], -vec_dot(a, lower)) for a in free]
    out = []
    for u in nonnegative_solutions(weights[:j] + weights[j + 1:m],
                                   -vec_dot(weights, lower), equalities):
        w = [a + x for a, x in zip(lower, u[:j] + (0,) + u[j:])]
        if not any(vec_dot(a, w) % d for a, d in torsion):
            out.append(w)
    return out


def variable_weights(atlas, ids, D):
    """Degrees g . D of the given variables, each of which must be >= 1: a
    strictly positive grading D of the initial seed, read at any seed.  The
    T1, T0 and T0* checkers all read D here, so this is where a missing D
    (None) is reported."""
    if D is None:
        raise CotangentError("no strictly positive grading")
    weights = [vec_dot(atlas.variables[v].g_vector, D) for v in ids]
    if any(x < 1 for x in weights):
        raise CotangentError("grading not strictly positive on all variables")
    return weights


def t1_witness_walk(atlas, D, grading):
    """(seed, rows, j, w) for every seed, every mutable index j and every
    witness w of `t1_witnesses`, where rows is the seed's extended exchange
    matrix B~_t.  Each seed's equalities are the free parts of deg_H of its
    variables, and its torsion residues are tested modulo grading.torsion.

    Lemma: the column span of B~_t is the kernel of the degree map
    e_i -> deg(x_{i;t}) from Z^m to M = coker(B~_0).  By tropical duality
    G_t B~_t = B~_0 C_t (Nakanishi-Zelevinsky, "On tropical dualities in
    cluster algebras", 2012), with G_t the g-matrix and C_t the c-matrix
    of seed t, so that e_i -> deg(x_{i;t}) is Z^m --G_t--> Z^m -> M.
    (i) The identity puts every column of B~_t in the kernel.
    (ii) The degree map is onto, because G_t is unimodular.
    (iii) Z^m / colspan(B~_t) is isomorphic to M, because each mutation
    t - t' has B~_t = P B~_t' Q with P and Q unimodular
    (Berenstein-Fomin-Zelevinsky, "Cluster algebras III", Lemma 3.2).
    (iv) By (i) and (ii) the degree map induces a surjection from
    Z^m / colspan(B~_t) onto M; a surjection between isomorphic finitely
    generated abelian groups is injective, so the kernel is the span."""
    for state in atlas.seeds:
        rows = state.matrix
        weights = variable_weights(atlas, state.ids, D)
        free, torsion = grading.degree_rows(state.ids)
        for j in range(atlas.n):
            for w in t1_witnesses(rows, j, weights, free, torsion):
                yield state, rows, j, w


def t1_invariant(atlas, D_strict, grading):
    """Pinned degrees: for every seed and mutable index k, every witness w
    of `t1_witness_walk` yields a = w + max(0, B_k), and b is 1 on the
    exchangeable pair.  Each distinct (a, b) gives one dict {"pair", "a",
    "b", "witness"}, with the first witness found; the pair, a and b are
    sorted by variable id, and the list by (a, b)."""
    found = {}
    for state, rows, k, w in t1_witness_walk(atlas, D_strict, grading):
        pair = sorted({state.ids[k], atlas.exchanged(state.index, k)})
        exponents = sorted((state.ids[i], w[i] + max(0, row[k]))
                           for i, row in enumerate(rows))
        a = {v: e for v, e in exponents if e}
        b = {v: 1 for v in pair}
        found.setdefault((tuple(a.items()), tuple(b.items())),
                         {"pair": pair, "a": a, "b": b, "witness": w})
    return [found[key] for key in sorted(found)]
