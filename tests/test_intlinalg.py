"""Integer lattice linear algebra: normal forms, kernels, solving; and the
reference eliminator over Q of `tests/rational_oracle`."""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from clusterdeform.intlinalg import (hermite_normal_form, identity_matrix,
                                     kernel_basis, lattice_coordinates,
                                     mat_vec, primitive, row_lattice_basis,
                                     smith_normal_form, transpose)
from tests.rational_oracle import invert_unimodular, rref


def mat_mul(A, B):
    if not A or not B:
        return []
    bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in bt] for row in A]


def rank(A):
    if not A or not A[0]:
        return 0
    return smith_normal_form(A).rank


def matrices(rows, cols, bound=5):
    return st.lists(st.lists(st.integers(-bound, bound),
                             min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.integers(1, 4)).flatmap(
    lambda rc: matrices(rc[0], rc[1]))))
@settings(max_examples=80, deadline=None)
def test_snf_factorization(A):
    snf = smith_normal_form(A)
    D = mat_mul(mat_mul(snf.left, A), snf.right)
    rows, cols = len(A), len(A[0])
    for i in range(rows):
        for j in range(cols):
            expected = snf.diag[i] if i == j and i < len(snf.diag) else 0
            assert D[i][j] == expected
    # divisibility chain
    for i in range(snf.rank - 1):
        assert snf.diag[i + 1] % snf.diag[i] == 0
    assert all(d >= 0 for d in snf.diag)


@given(matrices(3, 3))
@settings(max_examples=60, deadline=None)
def test_hnf_factorization(A):
    """H and A span the same row lattice: each row of one has integer
    coordinates on the rows of the other."""
    H = hermite_normal_form(A)
    assert len(H) == len(A)
    for rows, basis in ((H, A), (A, H)):
        for row in rows:
            lam = lattice_coordinates(row, transpose(basis))
            assert lam is not None
            assert mat_vec(transpose(basis), lam) == row
    # pivots positive, entries above reduced, zero rows at the bottom
    pivots = []
    for i, row in enumerate(H):
        nz = [j for j, x in enumerate(row) if x != 0]
        if nz:
            assert len(pivots) == i
            pivots.append((nz[0], row[nz[0]]))
    for r, (col, val) in enumerate(pivots):
        assert val > 0
        assert all(0 <= H[i][col] < val for i in range(r))


@given(matrices(3, 3), st.permutations(range(3)))
@settings(max_examples=40, deadline=None)
def test_row_lattice_basis_is_canonical(A, perm):
    shuffled = [A[i] for i in perm]
    assert row_lattice_basis(A) == row_lattice_basis(shuffled)


@given(matrices(3, 4))
@settings(max_examples=60, deadline=None)
def test_kernel_basis_annihilates_and_saturates(A):
    basis = kernel_basis(A)
    cols = len(A[0])
    for v in basis:
        assert all(x == 0 for x in mat_vec(A, v))
    assert len(basis) == cols - rank(A)
    # saturation: any integer kernel vector has integer coordinates
    if basis:
        comb = [sum(2 * b[i] - 3 * basis[0][i] for b in basis)
                for i in range(cols)]
        Bt = transpose(basis)
        assert lattice_coordinates(comb, Bt) is not None


@given(matrices(4, 3), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_lattice_coordinates_solves(A, lam):
    w = mat_vec(A, lam)
    sol = lattice_coordinates(w, A)
    assert sol is not None
    assert mat_vec(A, sol) == w


def test_lattice_coordinates_rejects_nonmember():
    A = [[2, 0], [0, 2]]
    assert lattice_coordinates([1, 0], A) is None
    assert lattice_coordinates([2, 4], A) == [1, 2]


def test_invert_unimodular():
    U = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    V = invert_unimodular(U)
    assert mat_mul(U, V) == identity_matrix(3)
    try:
        invert_unimodular([[2, 0], [0, 1]])
    except ValueError:
        pass
    else:
        raise AssertionError("non-unimodular matrix accepted")
    with pytest.raises(ValueError, match="not unimodular"):
        invert_unimodular([[1, 1], [1, 1]])


def test_primitive():
    assert primitive([4, -6, 2]) == [2, -3, 1]
    assert primitive([0, 0]) == [0, 0]
    assert primitive([3]) == [1]


def dense_rref(rows, ncols):
    """Gauss-Jordan over Q that updates every entry of every row; the
    pivot of each column is the first nonzero row at or below the current
    one."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


@st.composite
def sparse_systems(draw):
    """Rows that are mostly zero, some entries fractional, and a pivot
    range ncols that may leave augmented columns on the right."""
    width = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2)])
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=7))
    return rows, draw(st.integers(0, width))


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_rref_matches_dense_gauss_jordan(system):
    rows, ncols = system
    before = [list(r) for r in rows]
    assert rref(rows, ncols) == dense_rref(rows, ncols)
    assert rows == before
