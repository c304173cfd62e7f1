"""Exact integer-lattice linear algebra: the Smith normal form, the one
eliminator, which serves every rank, kernel and lattice test; the Hermite
normal form, which only gives the canonical basis of a row lattice; and
`nonnegative_solutions`, the one bounded search for nonnegative integer
points that the T1, T0 and T0* checkers share.

Matrices are lists of row lists of Python ints.  Everything here is pure and
allocation-happy; the lattices involved are small (dimension <= a few dozen).
"""

from operator import mul


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


def vec_dot(u, v):
    return sum(map(mul, u, v))


class SnfResult:
    """L * A * R = D with L, R unimodular and D diagonal (divisibility chain).

    diag holds the nonnegative diagonal entries (including trailing zeros up
    to min(rows, cols)); rank is the number of nonzero entries.
    """

    __slots__ = ("diag", "left", "right", "rows", "cols")

    def __init__(self, diag, left, right, rows, cols):
        self.diag = diag
        self.left = left
        self.right = right
        self.rows = rows
        self.cols = cols

    @property
    def rank(self):
        return sum(1 for d in self.diag if d != 0)

    def diagonal_solution(self, w):
        """mu with D * mu = L * w, or None when w is not in the column
        lattice of A: then some (L * w)_i is not divisible by d_i, or is
        nonzero where d_i = 0.  A * (R * mu) = w; the coordinates of mu on
        kernel directions are zero."""
        if len(w) != self.rows:
            raise ValueError("dimension mismatch")
        mu = [0] * self.cols
        for i, row in enumerate(self.left):
            c = vec_dot(row, w)
            d = self.diag[i] if i < len(self.diag) else 0
            if d == 0:
                if c != 0:
                    return None
            elif c % d != 0:
                return None
            else:
                mu[i] = c // d
        return mu


def smith_normal_form(A):
    """Smith normal form over Z with unimodular transforms on both sides."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [list(r) for r in A]
    L = identity_matrix(rows)
    R = identity_matrix(cols)

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        L[i], L[j] = L[j], L[i]

    def swap_cols(i, j):
        for r in M:
            r[i], r[j] = r[j], r[i]
        for r in R:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):  # row i += c * row j
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        L[i] = [a + c * b for a, b in zip(L[i], L[j])]

    def add_col(i, j, c):  # col i += c * col j
        for r in M:
            r[i] += c * r[j]
        for r in R:
            r[i] += c * r[j]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # find pivot: smallest nonzero |entry| in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if M[i][j] != 0 and (best is None or abs(M[i][j]) < best):
                    best = abs(M[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if M[i][t] != 0:
                q = M[i][t] // M[t][t]
                add_row(i, t, -q)
                if M[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if M[t][j] != 0:
                q = M[t][j] // M[t][t]
                add_col(j, t, -q)
                if M[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # smaller entries appeared; redo this pivot
        # divisibility: pivot must divide every remaining entry
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if M[i][j] % M[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if M[t][t] < 0:
            M[t] = [-a for a in M[t]]
            L[t] = [-a for a in L[t]]
        t += 1

    diag = [M[i][i] if i < cols else 0 for i in range(limit)]
    return SnfResult(diag, L, R, rows, cols)


def hermite_normal_form(A):
    """Row-style Hermite normal form H of A: H = U*A for a unimodular U.

    Pivot entries are positive, entries above a pivot are reduced into
    [0, pivot), zero rows are at the bottom.  H is a canonical basis of the
    row lattice of A (padded with zero rows).
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    H = [list(r) for r in A]
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # euclidean elimination in this column below pivot_row
        while True:
            nz = [i for i in range(pivot_row, rows) if H[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(H[i][col]))
            if i_min != pivot_row:
                H[pivot_row], H[i_min] = H[i_min], H[pivot_row]
            done = True
            for i in range(pivot_row + 1, rows):
                if H[i][col] != 0:
                    q = H[i][col] // H[pivot_row][col]
                    H[i] = [a - q * b for a, b in zip(H[i], H[pivot_row])]
                    if H[i][col] != 0:
                        done = False
            if done:
                break
        if H[pivot_row][col] == 0:
            continue
        if H[pivot_row][col] < 0:
            H[pivot_row] = [-a for a in H[pivot_row]]
        for i in range(pivot_row):
            q = H[i][col] // H[pivot_row][col]
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[pivot_row])]
        pivot_row += 1
    return H


def row_lattice_basis(A):
    """Canonical (HNF) basis of the lattice spanned by the rows of A."""
    if not A:
        return []
    return [r for r in hermite_normal_form(A) if any(r)]


def lattice_coordinates(w, A):
    """Solve A * lam = w over Z; returns lam or None.

    Free coordinates (kernel directions of A) are set to zero.
    """
    snf = smith_normal_form(A)
    mu = snf.diagonal_solution(w)
    return None if mu is None else mat_vec(snf.right, mu)


def kernel_basis(A):
    """Basis of the integer kernel {x : A*x = 0} (a saturated lattice)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if cols == 0:
        return []
    snf = smith_normal_form(A)
    r = snf.rank
    rt = transpose(snf.right)
    return [list(rt[j]) for j in range(r, cols)]


def nonnegative_solutions(weights, total, equalities=(), inequalities=()):
    """All alpha >= 0 with sum alpha_i * weights_i = total, a . alpha = b
    for each row (a, b) of equalities and a . alpha >= b for each row of
    inequalities, in lexicographic order.  The weights must be positive;
    with none, the answer is [()] when total is 0 and every row holds.

    An equality is the pair of rows (a, b), (-a, -b).  The weight `left`
    still to place after index i adds at most left * max(a_k / w_k, k > i)
    to a . alpha.  With left shrinking as the exponent at i grows, that
    bound is linear in the exponent, so the exponents worth trying form an
    interval.  The last exponent is fixed by the weight."""
    n = len(weights)
    rows = list(inequalities) + [row for a, b in equalities
                                 for row in ((a, b), ([-x for x in a], -b))]
    if total < 0 or not n:
        return [()] if total == 0 and all(b <= 0 for _, b in rows) else []
    # cuts[i]: (j, c, q, p) reads e * c <= p * left - q * gap_j for
    # alpha_i = e, where gap_j = b_j - a_j . alpha so far and p / q is the
    # largest a_k / w_k, k > i, kept unreduced: scaling p and q scales c
    # and the bound alike, so the floors do not change
    cuts = [[] for _ in range(n)]
    for j, (a, _) in enumerate(rows):
        p, q = a[-1], weights[-1]
        for i in range(n - 2, -1, -1):
            cuts[i].append((j, weights[i] * p - a[i] * q, q, p))
            if a[i] * q > p * weights[i]:
                p, q = a[i], weights[i]
    cols = [[a[i] for a, _ in rows] for i in range(n)]
    out = []
    alpha = [0] * n

    def rec(i, left, gaps):
        w, col = weights[i], cols[i]
        if i == n - 1:
            e, rest = divmod(left, w)
            if rest == 0 and all(g <= e * x for g, x in zip(gaps, col)):
                alpha[i] = e
                out.append(tuple(alpha))
            return
        lo, hi = 0, left // w
        for j, c, q, p in cuts[i]:
            bound = p * left - q * gaps[j]
            if c > 0:
                hi = min(hi, bound // c)
            elif c < 0:
                lo = max(lo, -(bound // -c))
            elif bound < 0:
                return
        for e in range(lo, hi + 1):
            alpha[i] = e
            rec(i + 1, left - e * w, [g - e * x for g, x in zip(gaps, col)])

    rec(0, total, [b for _, b in rows])
    return out


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    from math import gcd
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g in (0, 1):
        return list(v)
    return [x // g for x in v]
