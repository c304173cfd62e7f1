"""Gradings: the M-grading (cokernel of the exchange matrix), positive
grading search, rank flags and frozen-variable augmentation, whose added
rows are verified along the base seed's one exchange-graph search."""

from .atlas import enumerate_atlas
from .cones import slack_ray
from .intlinalg import identity_matrix, smith_normal_form, vec_dot
from .seeds import ExtendedExchangeMatrix, Seed
from .universal import frozen_mover


class GradingData:
    """The universal grading by M = coker(B~) and the degrees of variables.

    deg_H maps a variable id to a pair (free part, torsion residues); the
    torsion moduli are listed in `torsion`.
    """

    __slots__ = ("free_rank", "torsion", "deg_H", "free_rows",
                 "_moduli_rows")

    def __init__(self, free_rank, torsion, deg_H, free_rows, moduli_rows):
        self.free_rank = free_rank
        self.torsion = torsion
        self.deg_H = deg_H
        # rows of L giving the free components: a basis of the integer
        # left kernel of B~
        self.free_rows = free_rows
        self._moduli_rows = moduli_rows  # (modulus, row of L) for torsion

    def degree_of_vector(self, w):
        """Image in M of an arbitrary integer vector of length m."""
        free = tuple(vec_dot(row, w) for row in self.free_rows)
        tors = tuple(vec_dot(row, w) % d for d, row in self._moduli_rows)
        return (free, tors)

    def degree_rows(self, ids):
        """The degrees of the variables ids by position: one row per free
        coordinate of M, and one (row, modulus) pair per torsion factor."""
        free, tors = zip(*(self.deg_H[v] for v in ids))
        return list(zip(*free)), list(zip(zip(*tors), self.torsion))


def m_grading(atlas):
    """M = coker(B~) of the atlas's initial seed, via one Smith normal form;
    every variable gets deg_H = the image of its g-vector."""
    matrix = atlas.initial_seed.matrix
    m = matrix.m
    A = [list(r) for r in matrix.entries]
    snf = smith_normal_form(A)
    r = snf.rank
    moduli_rows = [(snf.diag[i], snf.left[i]) for i in range(r) if snf.diag[i] > 1]
    rows = [snf.left[i] for i in range(r, m)]
    torsion = [d for d, _ in moduli_rows]
    free_rank = m - r

    deg_H = {}
    data = GradingData(free_rank, torsion, deg_H, rows, moduli_rows)
    for var in atlas.variables.values():
        deg_H[var.id] = data.degree_of_vector(list(var.g_vector))
    return data


def rank_flags(matrix, grading):
    """Rank flags of B~ read off its M-grading: rank B~ = m - free rank, and
    the column lattice is saturated exactly when M has no torsion."""
    full_rank = matrix.m - grading.free_rank == matrix.n
    return {"full_rank": full_rank,
            "full_Z_rank": full_rank and not grading.torsion}


def find_positive_grading(atlas, grading, strict=False):
    """Integer D with B~^T D = 0 and g . D >= 1 for every mutable g-vector,
    searched in the span of the free rows of the atlas's M-grading.

    With strict=True every variable (frozen included) must get degree >= 1,
    which is the termination requirement of the property checkers."""
    matrix = atlas.initial_seed.matrix
    basis = grading.free_rows
    if not basis:
        return None
    targets = [list(v.g_vector) for v in atlas.mutable_variables]
    if strict:
        targets += identity_matrix(matrix.m)[matrix.n:]
    # mu with <a, mu> >= 1 for every constraint row a, solved exactly as the
    # slack ray of the homogenized problem <a, mu> - s >= 0, s >= 0
    mu = slack_ray([[vec_dot(g, b) for b in basis] + [-1] for g in targets],
                   len(basis) + 1)
    if mu is None:
        return None
    D = [sum(mu[b] * basis[b][i] for b in range(len(basis))) for i in range(matrix.m)]
    assert all(vec_dot(g, D) >= 1 for g in targets)
    return D


def find_strictly_positive(atlas, grading):
    return find_positive_grading(atlas, grading, strict=True)


def augmented_degrees(base, rows):
    """Degrees under (1,...,1) of the base atlas's variables with the frozen
    `rows` added, by the search's recursion on the edge that first reaches
    each: -deg(x_k) + sum_i max(0, -eps*b~_ik) deg(x_i), eps the sign of row
    k of H_t and b~ the seed's matrix over the rows moved by `frozen_mover`.
    Every initial variable and added row has degree 1."""
    rows_at = frozen_mover(base, rows)
    deg = dict.fromkeys(base.initial_seed.var_ids, 1)
    for state in base.seeds[1:]:
        k = state.path[-1]
        if state.ids[k] in deg:
            continue
        parent = base.seeds[base.seed_graph[(state.index, k)]]
        eps = 1 if max(parent.inverse[k]) > 0 else -1
        degrees = [deg[v] for v in parent.ids] + [1] * len(rows)
        deg[state.ids[k]] = -deg[parent.ids[k]] + sum(
            max(0, -eps * row[k]) * d
            for row, d in zip(parent.matrix + rows_at(parent), degrees))
    return deg


def add_frozen_for_positivity(seed, max_seeds=100000):
    """Add n frozen rows plus one balancing row so that (1,...,1) becomes a
    grading giving every cluster variable positive degree; one search and
    `augmented_degrees` verify it."""
    n = seed.matrix.n
    if n == 0:
        raise ValueError("rank 0: no mutable variable to make positive")
    base = enumerate_atlas(seed, max_seeds=max_seeds)
    c = min(sum(v.g_vector) for v in base.mutable_variables) - 1
    rows = [list(r) for r in seed.matrix.entries]
    rows += [[-abs(c) if j == k else 0 for j in range(n)] for k in range(n)]
    # balancing row: make every column sum zero, so (1,...,1) is a grading
    rows.append([-sum(row[j] for row in rows) for j in range(n)])
    labels = list(seed.var_ids)
    for label in ["aux%d" % (k + 1) for k in range(n)] + ["bal"]:
        while label in labels:      # a seed augmented before holds it
            label += "'"
        labels.append(label)
    if min(augmented_degrees(base, rows[seed.matrix.m:]).values()) < 1:
        raise ValueError("positivity augmentation failed verification")
    return Seed(ExtendedExchangeMatrix(rows, n=n), labels)
