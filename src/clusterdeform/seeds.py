"""Extended exchange matrices, labeled seeds, mutation, and type classification.

Indices are 0-based throughout the library; the first n indices are mutable,
the remaining m - n are frozen.
"""

import json
from fractions import Fraction
from math import gcd

from .intlinalg import determinant


class ExtendedExchangeMatrix:
    """An m x n integer matrix whose top n x n block is skew-symmetrizable."""

    __slots__ = ("n", "m", "entries", "skew_symmetrizer")

    def __init__(self, entries, n=None, skew_symmetrizer=None):
        self.entries = tuple(tuple(row) for row in entries)
        self.m = len(self.entries)
        self.n = n if n is not None else (len(self.entries[0]) if self.entries else 0)
        if any(len(row) != self.n for row in self.entries):
            raise ValueError("all rows must have length n")
        if self.m < self.n:
            raise ValueError("m must be at least n")
        for i in range(self.n):
            if self.entries[i][i] != 0:
                raise ValueError("diagonal of B must be zero")
        if skew_symmetrizer is None:
            skew_symmetrizer = _find_skew_symmetrizer(self.entries, self.n)
        else:
            skew_symmetrizer = tuple(skew_symmetrizer)
            _validate_skew_symmetrizer(self.entries, self.n, skew_symmetrizer)
        self.skew_symmetrizer = skew_symmetrizer

    def __eq__(self, other):
        return (isinstance(other, ExtendedExchangeMatrix)
                and self.n == other.n and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, self.entries))

    def __repr__(self):
        return "ExtendedExchangeMatrix(%r, n=%d)" % ([list(r) for r in self.entries], self.n)

    def mutate(self, k):
        if not 0 <= k < self.n:
            raise IndexError("mutation index out of range")
        return ExtendedExchangeMatrix(mutate_entries(self.entries, k),
                                      n=self.n,
                                      skew_symmetrizer=self.skew_symmetrizer)


def mutate_entries(entries, k):
    """Matrix mutation at k of a tuple of rows whose first rows form the
    mutable block: b'_ij = -b_ij if i = k or j = k, else
    b_ij + sgn(b_ik) max(b_ik b_kj, 0).  Extra rows below the extended
    matrix (such as principal coefficient rows) mutate the same way.  The
    added term is b_ik max(b_kj, 0) for b_ik > 0 and b_ik max(-b_kj, 0) for
    b_ik < 0."""
    pos = [y if y > 0 else 0 for y in entries[k]]
    neg = [-y if y < 0 else 0 for y in entries[k]]
    out = []
    for i, row in enumerate(entries):
        bik = row[k]
        if i == k:
            new = [-x for x in row]
        elif bik:
            new = [x + bik * y for x, y in zip(row, pos if bik > 0 else neg)]
        else:
            out.append(tuple(row))
            continue
        new[k] = -bik
        out.append(tuple(new))
    return tuple(out)


def mutate_along(entries, path):
    """Rows mutated at each index of `path` in turn (see mutate_entries)."""
    for k in path:
        entries = mutate_entries(entries, k)
    return entries


def _find_skew_symmetrizer(entries, n):
    """Minimal positive integer d with d_i b_ij = -d_j b_ji, per component."""
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        comp = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                bij, bji = entries[i][j], entries[j][i]
                if (bij == 0) != (bji == 0):
                    raise ValueError("matrix is not skew-symmetrizable")
                if bij == 0 or j == i:
                    continue
                if (bij > 0) == (bji > 0):
                    raise ValueError("matrix is not skew-symmetrizable")
                val = d[i] * abs(bij) / abs(bji)
                if d[j] is None:
                    d[j] = val
                    queue.append(j)
                    comp.append(j)
                elif d[j] != val:
                    raise ValueError("matrix is not skew-symmetrizable")
        denom = 1
        for j in comp:
            denom = denom * d[j].denominator // gcd(denom, d[j].denominator)
        nums = [int(d[j] * denom) for j in comp]
        g = 0
        for x in nums:
            g = gcd(g, x)
        for j, x in zip(comp, nums):
            d[j] = x // g
    return tuple(int(x) for x in d)


def _validate_skew_symmetrizer(entries, n, d):
    if len(d) != n or any(x <= 0 for x in d):
        raise ValueError("skew-symmetrizer must be positive of length n")
    for i in range(n):
        for j in range(n):
            if d[i] * entries[i][j] != -d[j] * entries[j][i]:
                raise ValueError("stored d is not a skew-symmetrizer")


class Seed:
    """A labeled seed: matrix, variable ids, optional grading rows D (m x d)."""

    __slots__ = ("matrix", "var_ids", "grading_rows")

    def __init__(self, matrix, var_ids, grading_rows=None):
        self.matrix = matrix
        self.var_ids = tuple(var_ids)
        if len(self.var_ids) != matrix.m:
            raise ValueError("need one variable id per row")
        if grading_rows is not None:
            grading_rows = tuple(tuple(r) for r in grading_rows)
            if len(grading_rows) != matrix.m:
                raise ValueError("grading rows must match matrix rows")
            bt_d = _bt_times_d(matrix, grading_rows)
            if any(any(x != 0 for x in row) for row in bt_d):
                raise ValueError("grading rows must satisfy B~^T D = 0")
        self.grading_rows = grading_rows

    def __eq__(self, other):
        return (isinstance(other, Seed) and self.matrix == other.matrix
                and self.var_ids == other.var_ids
                and self.grading_rows == other.grading_rows)

    def __hash__(self):
        return hash((self.matrix, self.var_ids, self.grading_rows))

    def __repr__(self):
        return "Seed(%r, %r)" % (self.matrix, list(self.var_ids))


def _bt_times_d(matrix, grading_rows):
    n, m = matrix.n, matrix.m
    width = len(grading_rows[0]) if grading_rows else 0
    return [[sum(matrix.entries[i][j] * grading_rows[i][c] for i in range(m))
             for c in range(width)] for j in range(n)]


def mutate(seed, k):
    """Mutate a seed at mutable index k; the new variable gets a fresh id."""
    matrix = seed.matrix.mutate(k)
    var_ids = list(seed.var_ids)
    var_ids[k] = "mu%d(%s)" % (k, var_ids[k])
    grading = None
    if seed.grading_rows is not None:
        grading = mutate_grading(seed.matrix, seed.grading_rows, k)
    return Seed(matrix, var_ids, grading)


def e_column(entries, k, sign):
    """Column k of E_{k,eps}, the only column where it differs from the
    identity: -1 at k and max(0, -eps*b_ik) at every other row i.

    Mutation at k multiplies the g-matrix by E on the right and the grading
    rows by E^T on the left (Fomin-Zelevinsky, Cluster algebras IV), so in
    both only the k-th g-vector or grading row changes."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return [-1 if i == k else max(0, -sign * row[k])
            for i, row in enumerate(entries)]


def mutate_grading(matrix, grading_rows, k, sign=1):
    """Transport grading rows across a mutation: D' = (E_{k,eps})^T D."""
    col = e_column(matrix.entries, k, sign)
    out = [list(r) for r in grading_rows]
    out[k] = [sum(e * x for e, x in zip(col, column))
              for column in zip(*grading_rows)]
    return tuple(tuple(r) for r in out)


def is_isolated_vertex_free(matrix):
    """True iff no mutable index has an all-zero column of the extended matrix."""
    return all(any(matrix.entries[i][k] != 0 for i in range(matrix.m))
               for k in range(matrix.n))


def cartan_counterpart(matrix):
    """A(B): 2 on the diagonal, -|b_ij| off it (mutable block only)."""
    n = matrix.n
    return [[2 if i == j else -abs(matrix.entries[i][j]) for j in range(n)]
            for i in range(n)]


def _components(matrix):
    n = matrix.n
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and matrix.entries[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _positive_principal_minors(A):
    from itertools import combinations
    n = len(A)
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            sub = [[A[i][j] for j in subset] for i in subset]
            if determinant(sub) <= 0:
                return False
    return True


def _bn_cartan(r):
    A = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i in range(r - 1):
        A[i][i + 1] = -1
        A[i + 1][i] = -1
    A[r - 1][r - 2] = -2  # the short-root row carries the -2
    return A


def _component_label(A, idx):
    """Dynkin label of one connected positive component (vertex set idx)."""
    r = len(idx)
    if r == 1:
        return "A1"
    sub = [[A[i][j] for j in idx] for i in idx]
    edges = [(i, j) for i in range(r) for j in range(i + 1, r)
             if sub[i][j] != 0]
    weights = sorted(sub[i][j] * sub[j][i] for i, j in edges)
    deg = [sum(1 for e in edges if v in e) for v in range(r)]
    if 3 in weights:
        return "G2" if r == 2 else "unknown"
    if all(w == 1 for w in weights):
        if max(deg) <= 2:
            return "A%d" % r
        center = deg.index(3)
        lengths = sorted(_branch_lengths(edges, r, center))
        if lengths == [1, 1, r - 3] or (r == 4 and lengths == [1, 1, 1]):
            return "D%d" % r
        if lengths == [1, 2, 2]:
            return "E6"
        if lengths == [1, 2, 3]:
            return "E7"
        if lengths == [1, 2, 4]:
            return "E8"
        return "unknown"
    # exactly one weight-2 edge in a path: types B/C/F
    if weights.count(2) != 1 or max(deg) > 2:
        return "unknown"
    if r == 2:
        return "B2"
    order = _path_order(edges, r)
    if order is None:
        return "unknown"
    hi, hj = next((i, j) for i, j in edges if sub[i][j] * sub[j][i] == 2)
    pos = sorted((order.index(hi), order.index(hj)))
    if pos == [1, 2] and r == 4:
        return "F4"
    if pos[0] != r - 2:
        order = order[::-1]
        pos = sorted((order.index(hi), order.index(hj)))
    if pos != [r - 2, r - 1]:
        return "unknown"
    perm = [[sub[order[i]][order[j]] for j in range(r)] for i in range(r)]
    if perm == _bn_cartan(r):
        return "B%d" % r
    if perm == [list(col) for col in zip(*_bn_cartan(r))]:
        return "C%d" % r
    return "unknown"


def _branch_lengths(edges, r, center):
    adj = {v: [] for v in range(r)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    lengths = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths


def _path_order(edges, r):
    adj = {v: [] for v in range(r)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    ends = [v for v in range(r) if len(adj[v]) == 1]
    if len(ends) != 2:
        return None
    order = [ends[0]]
    prev = None
    while len(order) < r:
        nxt = [v for v in adj[order[-1]] if v != prev]
        if not nxt:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def classify_finite_type(matrix, mutation_search=False, max_matrices=5000):
    """Finite-type test via positivity of the Cartan counterpart.

    Positivity of A(B) on the given representative certifies finite type;
    with mutation_search=True the whole mutation class (bounded by
    max_matrices) is scanned, so a negative answer then means the class
    contains no positive representative found within the budget.
    """
    result = _classify_direct(matrix)
    if result["finite"] or not mutation_search:
        return result
    seen = {matrix.entries}
    frontier = [matrix]
    while frontier:
        nxt = []
        for mat in frontier:
            for k in range(mat.n):
                mut = mat.mutate(k)
                if mut.entries in seen:
                    continue
                seen.add(mut.entries)
                if len(seen) > max_matrices:
                    return {"finite": False, "components": ["not finite"]}
                res = _classify_direct(mut)
                if res["finite"]:
                    return res
                nxt.append(mut)
        frontier = nxt
    return {"finite": False, "components": ["not finite"]}


def _classify_direct(matrix):
    A = cartan_counterpart(matrix)
    comps = _components(matrix)
    labels = []
    for idx in comps:
        sub = [[A[i][j] for j in idx] for i in idx]
        if not _positive_principal_minors(sub):
            return {"finite": False, "components": ["not finite"]}
        labels.append(_component_label(A, idx))
    return {"finite": True, "components": labels}


def seed_from_dict(data):
    n = data["n"]
    m = data["m"]
    B = data["B"]
    if len(B) != m:
        raise ValueError("B must have m rows")
    labels = data.get("labels")
    if labels is None:
        labels = ["x%d" % (i + 1) for i in range(n)] + \
                 ["f%d" % (i + 1) for i in range(m - n)]
    if len(labels) != m:
        raise ValueError("need m labels")
    matrix = ExtendedExchangeMatrix(B, n=n)
    return Seed(matrix, labels, data.get("D"))


def load_seed(path):
    with open(path) as fh:
        return seed_from_dict(json.load(fh))


def seed_to_dict(seed):
    data = {
        "n": seed.matrix.n,
        "m": seed.matrix.m,
        "B": [list(r) for r in seed.matrix.entries],
        "labels": list(seed.var_ids),
    }
    if seed.grading_rows is not None:
        data["D"] = [list(r) for r in seed.grading_rows]
    return data
