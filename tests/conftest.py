"""Shared fixtures: bundled seeds and cached pipeline stages."""

import pytest

from clusterdeform.atlas import enumerate_atlas
from clusterdeform.cli import _data_path
from clusterdeform.gradings import (add_frozen_for_positivity,
                                    find_strictly_positive, m_grading)
from clusterdeform.seeds import ExtendedExchangeMatrix, Seed, load_seed
from clusterdeform.simplicial import cluster_complex, sr_ideal
from clusterdeform.universal import build_universal


def data_seed(name):
    return load_seed(_data_path(name))


def path_seed(coeffs):
    """Path quiver with prescribed off-diagonal pairs (b_{i,i+1}, b_{i+1,i})."""
    n = len(coeffs) + 1
    B = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate(coeffs):
        B[i][i + 1] = a
        B[i + 1][i] = b
    return Seed(ExtendedExchangeMatrix(B, n=n),
                ["z%d" % (i + 1) for i in range(n)])


def tree_seed(n, edges):
    """Simply-laced quiver on n vertices with one arrow i -> j per edge."""
    B = [[0] * n for _ in range(n)]
    for i, j in edges:
        B[i][j] = 1
        B[j][i] = -1
    return Seed(ExtendedExchangeMatrix(B, n=n),
                ["z%d" % (i + 1) for i in range(n)])


# Seeds without frozen rows, to be augmented with frozen rows.
AUGMENTED = {
    "aug_b3": lambda: path_seed([(1, -1), (1, -2)]),
    "aug_c3": lambda: path_seed([(1, -1), (2, -1)]),
    "aug_a4": lambda: path_seed([(1, -1)] * 3),
    "aug_b4": lambda: path_seed([(1, -1), (1, -1), (1, -2)]),
    "aug_c4": lambda: path_seed([(1, -1), (1, -1), (2, -1)]),
    "aug_d4": lambda: tree_seed(4, [(0, 1), (0, 2), (0, 3)]),
    "aug_f4": lambda: path_seed([(1, -1), (1, -2), (1, -1)]),
}


def owning_sides(relations, frozen):
    """t -> (relation index, side index) of the side that carries the
    coefficient t alone, opposite a side whose z-part is frozen.  Every
    coefficient has exactly one such side on every seed tested."""
    out = {}
    for idx, rel in enumerate(relations):
        for s in (0, 1):
            if all(v in frozen for v in rel["sides"][1 - s][1]):
                (t_id,) = rel["sides"][s][0]
                assert t_id not in out, "two owning sides for " + t_id
                out[t_id] = (idx, s)
    return out


def gradings_of(atlas):
    """The strictly positive grading D and the M-grading of an atlas, as
    the pipeline builds them: D is searched in the M-grading's free rows."""
    grading = m_grading(atlas)
    return find_strictly_positive(atlas, grading), grading


def augmented_seed(name):
    """The seed AUGMENTED[name] with the n frozen rows and the balancing
    row of add_frozen_for_positivity."""
    return add_frozen_for_positivity(AUGMENTED[name]())


@pytest.fixture(scope="session")
def a2_seed():
    return data_seed("a2")


@pytest.fixture(scope="session")
def a2_atlas(a2_seed):
    return enumerate_atlas(a2_seed)


@pytest.fixture(scope="session")
def a2_ideal(a2_atlas):
    return sr_ideal(cluster_complex(a2_atlas), a2_atlas.frozen_ids)


@pytest.fixture(scope="session")
def a2_univ(a2_atlas):
    return build_universal(a2_atlas)


@pytest.fixture(scope="session")
def g2_seed():
    return data_seed("g2")


@pytest.fixture(scope="session")
def g2_atlas(g2_seed):
    return enumerate_atlas(g2_seed)


@pytest.fixture(scope="session")
def g2_univ(g2_atlas):
    return build_universal(g2_atlas)


@pytest.fixture(scope="session")
def a3_bad_seed():
    return data_seed("a3_bad")


def pytest_terminal_summary(terminalreporter):
    import sys

    for name, mod in list(sys.modules.items()):
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            results = getattr(mod, "RESULTS", None)
            if results:
                for num in sorted(results):
                    terminalreporter.write_line(
                        "CRITERION %d: %s" % (num, results[num]))
                return
