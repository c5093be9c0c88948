"""Exact linear algebra over Z and Q: Hermite forms, inverses, duals.

Everything here works on lists of lists of int or Fraction. Matrices are
row-major; lattice bases are given as rows. No floating point anywhere.
"""

from fractions import Fraction
from math import gcd


def hnf_rows(rows):
    """Row Hermite normal form of an integer matrix.

    Returns a new matrix in row-style HNF: pivots positive, entries above a
    pivot reduced into [0, pivot), zero rows dropped. The row span over Z is
    preserved. Input rows are not modified.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        # gcd elimination below position (row, col)
        piv = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nrows):
            while m[r][col] != 0:
                q = m[row][col] // m[r][col]
                for c in range(ncols):
                    m[row][c] -= q * m[r][c]
                m[row], m[r] = m[r], m[row]
        if m[row][col] < 0:
            m[row] = [-x for x in m[row]]
        for r in range(row):
            q = m[r][col] // m[row][col]
            if q:
                for c in range(ncols):
                    m[r][c] -= q * m[row][c]
        row += 1
    return [r for r in m[:row] if any(r)]


def mat_mul(a, b):
    n, k, mcols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(mcols)]
        for i in range(n)
    ]


def mat_inv(a):
    """Inverse of a square matrix with Fraction arithmetic (Gauss-Jordan)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def mat_det(a):
    """Determinant via fraction-free-ish Gaussian elimination on Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def rational_hnf(rows):
    """HNF basis of the Z-span of rational rows.

    Scales by the lcm of denominators, runs integer HNF, scales back.
    Returns Fraction rows forming a canonical basis of the same Z-module.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    den = 1
    for r in rows:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    scaled = [[int(x * den) for x in r] for r in rows]
    h = hnf_rows(scaled)
    return [[Fraction(x, den) for x in r] for r in h]


def lll_reduce_gram(gram, delta=Fraction(3, 4)):
    """LLL on a positive definite Gram matrix, fully exact.

    Returns (reduced_gram, U) with U * gram * U^T = reduced_gram and U
    unimodular.  Sizes here are tiny (rank <= 4), so Gram-Schmidt data is
    recomputed after every change instead of updated incrementally.
    """
    n = len(gram)
    g0 = [[Fraction(x) for x in row] for row in gram]
    U = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def current():
        return mat_mul(mat_mul(U, g0), [[U[j][i] for j in range(n)] for i in range(n)])

    def gs(g):
        mu = [[Fraction(0)] * n for _ in range(n)]
        B = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                s = g[i][j] - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))
                mu[i][j] = s / B[j]
            B[i] = g[i][i] - sum(mu[i][k] ** 2 * B[k] for k in range(i))
            if B[i] <= 0:
                raise ValueError("Gram matrix is not positive definite")
        return mu, B

    k = 1
    while k < n:
        g = current()
        mu, B = gs(g)
        for j in range(k - 1, -1, -1):
            q = (2 * mu[k][j].numerator + mu[k][j].denominator) // (2 * mu[k][j].denominator)
            if q:
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                g = current()
                mu, B = gs(g)
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            k = max(k - 1, 1)
    g = current()
    return [[x for x in row] for row in g], [[int(x) for x in row] for row in U]


def dual_basis(rows):
    """Rows of the dual lattice basis: inverse transpose of a square basis."""
    inv = mat_inv(rows)
    n = len(inv)
    return [[inv[j][i] for j in range(n)] for i in range(n)]


def lattice_intersection(rows_a, rows_b):
    """Intersection of two full-rank lattices given by square rational bases.

    Uses duality: (A cap B)^* = A^* + B^*, and the sum is an HNF of the
    stacked dual bases.
    """
    da = dual_basis(rows_a)
    db = dual_basis(rows_b)
    s = rational_hnf(da + db)
    if len(s) != len(rows_a):
        raise ValueError("intersection is not full rank")
    return dual_basis(s)
