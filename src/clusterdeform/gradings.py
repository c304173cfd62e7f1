"""Gradings: the M-grading (cokernel of the exchange matrix), positive
grading search, rank flags and frozen-variable augmentation."""

from .atlas import enumerate_atlas
from .cones import slack_ray
from .intlinalg import identity_matrix, smith_normal_form, vec_dot
from .seeds import ExtendedExchangeMatrix, Seed


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


def positive_combination(constraint_rows, dim):
    """A mu with <a, mu> >= 1 for every constraint row, or None.

    Solved exactly as the slack ray of the homogenized problem
    <a, mu> - s >= 0, s >= 0."""
    ray = slack_ray([list(a) + [-1] for a in constraint_rows], dim + 1)
    return None if ray is None else ray[:dim]


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
    constraints = [[vec_dot(g, b) for b in basis] for g in targets]
    mu = positive_combination(constraints, len(basis))
    if mu is None:
        return None
    D = [sum(mu[b] * basis[b][i] for b in range(len(basis))) for i in range(matrix.m)]
    assert all(vec_dot(g, D) >= 1 for g in targets)
    return D


def find_strictly_positive(atlas, grading):
    return find_positive_grading(atlas, grading, strict=True)


def add_frozen_for_positivity(seed, max_seeds=100000):
    """Add n frozen rows plus one balancing row so that (1,...,1) becomes a
    grading giving every cluster variable positive degree."""
    n = seed.matrix.n
    if n == 0:
        raise ValueError("rank 0: no mutable variable to make positive")
    base = enumerate_atlas(seed, max_seeds=max_seeds)
    c = min(sum(v.g_vector) for v in base.mutable_variables) - 1
    rows = [list(r) for r in seed.matrix.entries]
    for k in range(n):
        rows.append([-abs(c) if j == k else 0 for j in range(n)])
    # balancing row: make every column sum zero, so (1,...,1) is a grading
    rows.append([-sum(row[j] for row in rows) for j in range(n)])
    labels = list(seed.var_ids)
    for label in ["aux%d" % (k + 1) for k in range(n)] + ["bal"]:
        while label in labels:      # a seed augmented before holds it
            label += "'"
        labels.append(label)
    out = Seed(ExtendedExchangeMatrix(rows, n=n), labels)

    # re-verify: every cluster variable of the augmented algebra has
    # positive degree under the all-ones grading
    check = enumerate_atlas(out, max_seeds=max_seeds)
    if any(sum(v.g_vector) < 1 for v in check.mutable_variables):
        raise RuntimeError("positivity augmentation failed verification")
    return out

