"""Extended exchange matrices, labeled seeds, and mutation.

Indices are 0-based throughout the library; the first n indices are mutable,
the remaining m - n are frozen.
"""

import json
from math import gcd


class ExtendedExchangeMatrix:
    """An m x n integer matrix whose top n x n block is skew-symmetrizable."""

    __slots__ = ("n", "m", "entries", "skew_symmetrizer")

    def __init__(self, entries, n=None):
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
        self.skew_symmetrizer = _find_skew_symmetrizer(self.entries, self.n)

    def __eq__(self, other):
        return (isinstance(other, ExtendedExchangeMatrix)
                and self.n == other.n and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, self.entries))

    def __repr__(self):
        return "ExtendedExchangeMatrix(%r, n=%d)" % ([list(r) for r in self.entries], self.n)


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
    """Minimal positive integer d with d_i b_ij = -d_j b_ji, per component.

    A component grows from d = 1 by d_j = d_i |b_ij| / |b_ji|.  When that
    ratio is not integral, the component so far is first scaled by the
    least factor that makes it so; the gcd of the component stays 1."""
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = 1
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
                num, den = d[i] * abs(bij), abs(bji)
                if d[j] is None:
                    scale = den // gcd(num, den)
                    for c in comp:
                        d[c] *= scale
                    d[j] = num * scale // den
                    queue.append(j)
                    comp.append(j)
                elif d[j] * den != num:
                    raise ValueError("matrix is not skew-symmetrizable")
    return tuple(d)


class Seed:
    """A labeled seed: an extended exchange matrix and one variable id per
    row.  Every other value, the skew-symmetrizer and the gradings
    included, is derived from these two."""

    __slots__ = ("matrix", "var_ids")

    def __init__(self, matrix, var_ids):
        self.matrix = matrix
        self.var_ids = tuple(var_ids)
        if len(self.var_ids) != matrix.m:
            raise ValueError("need one variable id per row")
        if len(set(self.var_ids)) != matrix.m:
            raise ValueError("variable ids must be distinct")

    def __eq__(self, other):
        return (isinstance(other, Seed) and self.matrix == other.matrix
                and self.var_ids == other.var_ids)

    def __hash__(self):
        return hash((self.matrix, self.var_ids))

    def __repr__(self):
        return "Seed(%r, %r)" % (self.matrix, list(self.var_ids))


def mutate(seed, k):
    """Mutate a seed at mutable index k; the new variable gets a fresh id."""
    if not 0 <= k < seed.matrix.n:
        raise IndexError("mutation index out of range")
    matrix = ExtendedExchangeMatrix(
        mutate_entries(seed.matrix.entries, k), n=seed.matrix.n)
    var_ids = list(seed.var_ids)
    var_ids[k] = "mu%d(%s)" % (k, var_ids[k])
    return Seed(matrix, var_ids)


def add_frozen_rows(seed, rows, labels):
    """The seed with the frozen `rows` appended under `labels`, each primed
    until it is new: an earlier augmentation or the file may hold it."""
    ids = list(seed.var_ids)
    for label in labels:
        while label in ids:
            label += "'"
        ids.append(label)
    return Seed(ExtendedExchangeMatrix(seed.matrix.entries + tuple(rows),
                                       n=seed.matrix.n), ids)


def is_isolated_vertex_free(matrix):
    """True iff no mutable index has an all-zero column of the extended matrix."""
    return all(any(matrix.entries[i][k] != 0 for i in range(matrix.m))
               for k in range(matrix.n))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def seed_from_dict(data):
    """The seed of a JSON object with keys "n", "m", "B" and optionally
    "labels"; other keys are ignored.  A malformed value raises ValueError
    naming its key."""
    if not isinstance(data, dict):
        raise ValueError("a seed must be a JSON object")
    for key in ("n", "m"):
        if not _is_int(data.get(key)) or data[key] < 0:
            raise ValueError('"%s" must be a nonnegative integer' % key)
    n, m, B = data["n"], data["m"], data.get("B")
    if not (isinstance(B, list) and all(isinstance(row, list)
                                        and all(map(_is_int, row))
                                        for row in B)):
        raise ValueError('"B" must be a list of rows of integers')
    if len(B) != m:
        raise ValueError("B must have m rows")
    labels = data.get("labels")
    if labels is None:
        labels = ["x%d" % (i + 1) for i in range(n)] + \
                 ["f%d" % (i + 1) for i in range(m - n)]
    if not (isinstance(labels, list)
            and all(isinstance(x, str) for x in labels)):
        raise ValueError('"labels" must be a list of strings')
    if len(labels) != m:
        raise ValueError("need m labels")
    matrix = ExtendedExchangeMatrix(B, n=n)
    return Seed(matrix, labels)


def load_seed(path):
    with open(path) as fh:
        return seed_from_dict(json.load(fh))


def seed_to_dict(seed):
    return {
        "n": seed.matrix.n,
        "m": seed.matrix.m,
        "B": [list(r) for r in seed.matrix.entries],
        "labels": list(seed.var_ids),
    }
