"""The reference eliminator over Q: reduced row echelon form, the inverse
of a unimodular matrix and the determinant, in `Fraction`s.  The package
itself works over Z only; the tests use these as independent references
for the integer inverse updates of `Atlas._inverse`, the lineality bases
of the cones, the linear solves of the order-by-order lift and the Smith
form certificates of `cone_certificates`."""

from fractions import Fraction

from clusterdeform.intlinalg import identity_matrix


def rref(rows, ncols):
    """Reduced row echelon form over Q, pivoting only in the first ncols
    columns; any further (augmented) columns are carried along.

    The pivot of each column is the first nonzero row at or below the
    current one.  Returns (rows, pivot columns): the first len(pivots) rows
    are the pivot rows, the rest are zero in the first ncols columns.  A
    row is updated in place, over the pivot row's nonzero columns only.
    """
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = prow = [x * inv for x in mat[r]]
        support = [(c, x) for c, x in enumerate(prow) if x]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                for c, x in support:
                    row[c] -= f * x
        pivots.append(col)
        r += 1
    return mat, pivots


def invert_unimodular(U):
    """Inverse of a unimodular integer matrix, returned as an integer matrix."""
    n = len(U)
    mat, pivots = rref([list(row) + e for row, e in zip(U, identity_matrix(n))],
                       n)
    inverse = [row[n:] for row in mat]
    if len(pivots) < n or any(x.denominator != 1 for row in inverse for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inverse]


def determinant(rows):
    """Determinant of a square integer matrix by Gaussian elimination over Q."""
    mat = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(len(mat)):
        piv = next((i for i in range(col, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for i in range(col + 1, len(mat)):
            f = mat[i][col] / mat[col][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return int(det)
