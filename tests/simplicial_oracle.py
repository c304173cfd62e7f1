"""Face enumeration, kept as an oracle for `simplicial.minimal_nonfaces`
and `simplicial.sr_ideal`, which read the minimal nonfaces of a flag
complex off its facets.

`faces` lists every face, `face_walk_nonfaces` finds the minimal nonfaces
of any complex by walking the faces, and `sphere_check` tests the
pseudomanifold property and the Euler characteristic of a sphere.  `link`
and `join` build the complexes that cluster complexes are compared with,
and `is_pure` and `dimension` read a complex's shape.
`ORACLE_SEEDS` are the seeds the oracle test runs on.
"""

from importlib import resources
from itertools import combinations

from clusterdeform.simplicial import SimplicialComplex
from tests.conftest import (AUGMENTED, augmented_seed, data_seed, path_seed,
                            tree_seed)

BUNDLED = sorted(p.name[:-5] for p in resources.files("clusterdeform.data")
                 .iterdir() if p.name.endswith(".json"))


def _d(r):
    return lambda: tree_seed(
        r, [(i, i + 1) for i in range(r - 2)] + [(r - 3, r - 1)])


# every bundled seed, every augmented seed, and A5, A6, D5, D6 and E6
ORACLE_SEEDS = dict(
    [(name, lambda name=name: data_seed(name))
     for name in BUNDLED]
    + [(name, lambda name=name: augmented_seed(name)) for name in AUGMENTED]
    + [("a5", lambda: path_seed([(1, -1)] * 4)),
       ("a6", lambda: path_seed([(1, -1)] * 5)),
       ("d5", _d(5)), ("d6", _d(6)),
       ("e6", lambda: tree_seed(6, [(0, 1), (1, 2), (2, 3), (3, 4),
                                    (2, 5)]))])


def is_pure(K):
    return len({len(f) for f in K.facets}) <= 1


def dimension(K):
    return max((len(f) for f in K.facets), default=0) - 1


def link(K, face):
    face = frozenset(face)
    if not any(face <= f for f in K.facets):
        raise ValueError("not a face of the complex")
    new_facets = [f - face for f in K.facets if face <= f]
    vertices = set()
    for f in new_facets:
        vertices.update(f)
    return SimplicialComplex(sorted(vertices), new_facets)


def join(K1, K2):
    overlap = set(K1.vertices) & set(K2.vertices)
    if overlap:
        raise ValueError("vertex sets overlap: %r" % sorted(overlap))
    facets1 = K1.facets or [frozenset()]
    facets2 = K2.facets or [frozenset()]
    return SimplicialComplex(
        list(K1.vertices) + list(K2.vertices),
        [f | g for f in facets1 for g in facets2])


def faces(K):
    """All faces, including the empty face."""
    out = set()
    for f in K.facets:
        items = sorted(f)
        for r in range(len(items) + 1):
            out.update(frozenset(c) for c in combinations(items, r))
    return out


def face_walk_nonfaces(K):
    """The minimal nonfaces of any complex: the sets one vertex above a
    face that are not faces themselves but whose every facet-wise
    deletion is, sorted by their sorted vertices."""
    all_faces = faces(K)
    candidates = set()
    vertex_set = set(K.vertices)
    for f in all_faces:
        for v in vertex_set - f:
            s = f | {v}
            if s in all_faces:
                continue
            if all((s - {u}) in all_faces for u in s):
                candidates.add(s)
    return sorted(candidates, key=lambda s: tuple(sorted(s)))


def sphere_check(K):
    """Pseudomanifold and Euler-characteristic checks for an (n-1)-sphere."""
    if not is_pure(K) or not K.facets:
        return {"pseudomanifold": False, "euler_ok": False}
    s = len(K.facets[0])
    ridge_owners = {}
    for i, f in enumerate(K.facets):
        for r in combinations(sorted(f), s - 1):
            ridge_owners.setdefault(r, []).append(i)
    # every codimension-1 face in exactly two facets
    pseudo = s >= 1 and all(len(o) == 2 for o in ridge_owners.values())
    # facet adjacency connected
    if pseudo and len(K.facets) > 1:
        adjacency = {i: set() for i in range(len(K.facets))}
        for i, j in ridge_owners.values():
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        pseudo = len(seen) == len(K.facets)
    counts = {}
    for f in faces(K):
        counts[len(f)] = counts.get(len(f), 0) + 1
    reduced_euler = sum((-1) ** (size - 1) * c for size, c in counts.items() if size >= 1) - 1
    euler_ok = reduced_euler == (-1) ** (s - 1)
    return {"pseudomanifold": pseudo, "euler_ok": euler_ok}
