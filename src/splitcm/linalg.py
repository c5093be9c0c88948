"""Exact linear algebra over Z and Q: Hermite forms, inverses, LLL.

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
    unimodular.  The Gram matrix follows each basis change by row and
    column operations, and mu by the exact update of a size-reduction step;
    Gram-Schmidt data are recomputed only after a swap.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def gs():
        mu = [[Fraction(0)] * n for _ in range(n)]
        B = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                s = Fraction(g[i][j]) - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))
                mu[i][j] = s / B[j]
            B[i] = Fraction(g[i][i]) - sum(mu[i][k] ** 2 * B[k] for k in range(i))
            if B[i] <= 0:
                raise ValueError("Gram matrix is not positive definite")
        return mu, B

    mu, B = gs()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = (2 * mu[k][j].numerator + mu[k][j].denominator) // (2 * mu[k][j].denominator)
            if q:
                # b_k -= q b_j
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                for i in range(n):
                    g[k][i] -= q * g[j][i]
                for i in range(n):
                    g[i][k] -= q * g[i][j]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            mu, B = gs()
            k = max(k - 1, 1)
    return g, U
