"""Exact linear algebra over Z: Hermite forms, Gram-Schmidt, LLL.

Everything here works on lists of lists of Python ints. Matrices are
row-major; lattice bases are given as rows. No floating point and no
Fraction anywhere: rational data are passed as integer rows over a common
denominator.
"""


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


def gram_schmidt(gram):
    """Integer Gram-Schmidt data (d, lam) of a positive definite integer Gram matrix.

    d[i] is the determinant of the leading i x i block, so the i-th
    Gram-Schmidt vector has squared length B_i = d[i+1]/d[i], and
    lam[k][j] = d[j+1] mu[k][j] for j < k.  All of them are integers, and
    every division below is exact (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7).
    """
    n = len(gram)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise ValueError("Gram matrix is not positive definite")
            else:
                d[k + 1] = u
    return d, lam


def lll_reduce_gram(gram):
    """LLL (delta = 3/4) on a positive definite integer Gram matrix, in integers.

    Returns (reduced_gram, U) with U * gram * U^T = reduced_gram and U
    unimodular.  The Gram matrix follows each basis change by row and
    column operations, and the gram_schmidt integers d and lam follow it by
    the exact updates of Cohen's Alg. 2.6.7.  Each vector is first
    size-reduced against all earlier ones, then the Lovasz condition
    B_k >= (3/4 - mu[k][k-1]^2) B_(k-1) is tested, multiplied out to
    4 (d[k+1] d[k-1] + lam^2) >= 3 d[k]^2.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    d, lam = gram_schmidt(g)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            if q:
                # b_k -= q b_j
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                for i in range(n):
                    g[k][i] -= q * g[j][i]
                for i in range(n):
                    g[i][k] -= q * g[i][j]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
                lam[k][j] -= q * d[j + 1]
        r = lam[k][k - 1]
        if 4 * (d[k + 1] * d[k - 1] + r * r) >= 3 * d[k] * d[k]:
            k += 1
            continue
        U[k], U[k - 1] = U[k - 1], U[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        b = (d[k - 1] * d[k + 1] + r * r) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - r * t) // d[k]
            lam[i][k - 1] = (b * t + r * lam[i][k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return g, U
