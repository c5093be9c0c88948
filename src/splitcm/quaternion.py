"""The definite quaternion algebra B = (D, -N) and its maximal orders.

Basis 1, u, v, w = uv with u^2 = D, v^2 = -N, vu = -uv.  Since D < 0 and
N > 0 the reduced norm

    nrd(x) = x0^2 - D x1^2 + N x2^2 - D N x3^2

is positive definite.

Everything is stored and computed on Python ints, in one representation:
an element is a tuple of four integer numerators read over the
denominator of the lattice that holds it.  A lattice L (a full rank-4
Z-module) is the Hermite normal form of the integer lattice den L, with
den the least positive integer that makes it integral, so the pair is
unique.  Products (_mul), conjugates (_conj), norms (_nrd), the pairing
trd(x conj(y)) (_pair), membership (a triangular solve on the Hermite
rows), Gram matrices and LLL all run on those integers; a
product of numerators over den and den' is the numerator of the product
over den den'.  Rational results that are not coordinates
(QuatLattice.norm, the symplectic Gram) are returned as Fractions.

The module provides the ideal attached to a split-CM point, its
right order (by the one formula conj(I) I / nrd(I) for invertible I),
discriminants, units, the trace-zero Gross lattice with its embedding
numbers, and isometry testing of orders by an exact search.  Each Order
computes what is derived from it once and keeps it, the search's
candidate vectors included; every lattice count runs through the one
cone enumeration, short_vectors.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod

from .errors import InputError, InternalError, ResourceError
from .linalg import gram_schmidt, hnf_rows, lll_reduce_gram

MAX_ENUMERATION_NODES = 4 * 10**6


@dataclass(frozen=True)
class QuatAlgebra:
    D: int
    N: int

    def __post_init__(self):
        if self.D >= 0 or self.N <= 0:
            raise InputError("algebra needs D < 0 and N > 0")


def _mul(D, N, x, y):
    """Coordinates of the product x y of two integer coordinate tuples."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + D * x1 * y1 - N * x2 * y2 + D * N * x3 * y3,
        x0 * y1 + x1 * y0 + N * (x2 * y3 - x3 * y2),
        x0 * y2 + x2 * y0 + D * (x1 * y3 - x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def _nrd(D, N, x):
    x0, x1, x2, x3 = x
    return x0 * x0 - D * x1 * x1 + N * x2 * x2 - D * N * x3 * x3


def _pair(D, N, x, y):
    """trd(x conj(y)) of two integer coordinate tuples, a diagonal form."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return 2 * (x0 * y0 - D * x1 * y1 + N * x2 * y2 - D * N * x3 * y3)


def _conj(x):
    return (x[0], -x[1], -x[2], -x[3])


def _combine(coords, rows):
    """The integer row sum_i coords[i] * rows[i]."""
    return tuple(sum(c * r[k] for c, r in zip(coords, rows)) for k in range(4))


def _int_gram(D, N, rows, den):
    """The Gram trd(x_i conj(x_j)) of the elements rows[i] / den, which must be integral."""
    dd = den * den
    gram = [[_pair(D, N, x, y) for y in rows] for x in rows]
    if any(e % dd for r in gram for e in r):
        raise InternalError("Gram of rows over %d is not integral" % den)
    return [[e // dd for e in r] for r in gram]


@dataclass(frozen=True)
class QuatLattice:
    """Full rank-4 lattice L = span(rows) / den.

    rows is the Hermite normal form of the integer lattice den L, and den
    is the least positive integer that makes den L integral, so the pair is
    canonical and == compares lattices.  gens, if set, is a generator
    quadruple (rows, den) that the lattice was spanned from.
    """

    alg: QuatAlgebra
    rows: tuple
    den: int
    gens: tuple = field(default=None, compare=False)

    @classmethod
    def span(cls, alg, rows, den, gens=None):
        """The lattice spanned by the integer rows over the denominator den > 0."""
        h = hnf_rows(rows)
        if len(h) != 4:
            raise InputError("lattice is not full rank")
        g = gcd(den, *(x for r in h for x in r))
        return cls(alg, tuple(tuple(x // g for x in r) for r in h), den // g, gens)

    def contains(self, num, den):
        """Whether num / den is in L: solve c rows = den_L num / den over Z.

        The rows are upper triangular, so the solve is forward substitution,
        and it fails at the first remainder.
        """
        t = []
        for a in num:
            q, r = divmod(a * self.den, den)
            if r:
                return False
            t.append(q)
        for j, row in enumerate(self.rows):
            c, r = divmod(t[j], row[j])
            if r:
                return False
            for i in range(j + 1, 4):
                t[i] -= c * row[i]
        return True

    def norm(self):
        """gcd of nrd over the lattice: gcd of nrd(b_i) and trd(b_i conj(b_j))."""
        D, N, R = self.alg.D, self.alg.N, self.rows
        vals = [_nrd(D, N, r) for r in R]
        vals += [_pair(D, N, R[i], R[j]) for i in range(4) for j in range(i + 1, 4)]
        return Fraction(gcd(*vals), self.den * self.den)

    def scaled_gram(self):
        """Integer Gram trd(b_i conj(b_j)) on the canonical basis, or error."""
        return _int_gram(self.alg.D, self.alg.N, self.rows, self.den)


def build_Iz(ctx, Q):
    """The rank-4 lattice attached to the split-CM point of Q under ctx.

    With tau = (-b1p + sqrt(D))/(2 N) the context's Heegner point and
    Q = [a, b, c] of discriminant -N, the generators are

        x1 = ((b1p - u)/(2 N)) * a v
        x2 = ((b1p - u)/(2 N)) * (N + b v)/2
        y1 = (b - v)/2
        y2 = -a

    in that order (a symplectic basis for the twisted trace pairing).  They
    are kept as gens = (rows, 2m), integer rows over 2m with m = 2 N.
    """
    if Q.disc != -ctx.N:
        raise InputError("form discriminant %d is not -N = %d" % (Q.disc, -ctx.N))
    D, N, a, b = ctx.D, ctx.N, Q.a, Q.b
    m = 2 * N
    front = (ctx.class_point.b, -1, 0, 0)
    rows = (
        tuple(2 * c for c in _mul(D, N, front, (0, 0, a, 0))),
        _mul(D, N, front, (N, 0, b, 0)),
        (m * b, 0, -m, 0),
        (-2 * m * a, 0, 0, 0),
    )
    return QuatLattice.span(QuatAlgebra(D, N), rows, 2 * m, (rows, 2 * m))


def symplectic_gram(I):
    """Matrix of E(x, y) = trd(u^(-1) x conj(y)) / norm(I) on the stored gens.

    With u^(-1) = u / D and gens x / den, trd(u^(-1) x conj(y)) is 2 z0 / D
    over den^2 for z = u x conj(y).
    """
    if not I.gens:
        raise InputError("lattice has no stored generator quadruple")
    D, N = I.alg.D, I.alg.N
    rows, den = I.gens
    scale = D * den * den * I.norm()
    ux = [_mul(D, N, (0, 1, 0, 0), x) for x in rows]
    return [[2 * _mul(D, N, x, _conj(y))[0] / scale for y in rows] for x in ux]


def right_order(I):
    """The right order {x : I x <= I} of an invertible lattice, as conj(I) I / nrd(I).

    For invertible I, I^-1 = conj(I) / nrd(I) and O_R(I) = I^-1 I (Voight,
    Quaternion Algebras, ch. 16), spanned by the 16 products conj(b_i) b_j
    / nrd(I).  That span O is kept only when I O <= I, which puts O inside
    O_R(I) and makes it an order; so O = O_R(I) whenever O is maximal.
    A lattice that fails the check is not invertible: InputError.  On the
    integer rows r_i = den b_i, conj(b_i) b_j / nrd(I) is conj(r_i) r_j
    over den^2 nrd(I).
    """
    D, N, R = I.alg.D, I.alg.N, I.rows
    nrm = I.norm()
    rows = [[c * nrm.denominator for c in _mul(D, N, _conj(x), y)] for x in R for y in R]
    O = QuatLattice.span(I.alg, rows, I.den * I.den * nrm.numerator)
    if not all(I.contains(_mul(D, N, x, y), I.den * O.den) for x in R for y in O.rows):
        raise InputError("lattice is not invertible: I conj(I) I / nrd(I) is not inside I")
    return Order(O)


@dataclass(frozen=True)
class Order:
    lattice: QuatLattice

    def __post_init__(self):
        L = self.lattice
        D, N, R, dd = L.alg.D, L.alg.N, L.rows, L.den * L.den
        if not L.contains((1, 0, 0, 0), 1):
            raise InputError("order does not contain 1")
        for x in R:
            if 2 * x[0] % L.den or _nrd(D, N, x) % dd:
                raise InputError("order contains a non-integral basis element")
        if not all(L.contains(_mul(D, N, x, y), dd) for x in R for y in R):
            raise InputError("lattice is not multiplicatively closed")

    @property
    def alg(self):
        return self.lattice.alg

    @cached_property
    def gram(self):
        """The integer norm Gram trd(e_i conj(e_j)) on the lattice's canonical basis."""
        return self.lattice.scaled_gram()

    @cached_property
    def disc(self):
        """det of gram = (reduced discriminant)^2 = 16 (D N)^2 (prod_i rows[i][i])^2 / den^8.

        gram = B M B^T: B the triangular rows over den, M = diag(2, -2D, 2N, -2DN).
        """
        L = self.lattice
        return 16 * (L.alg.D * L.alg.N * prod(r[i] for i, r in enumerate(L.rows))) ** 2 // L.den**8

    @cached_property
    def reduced_gram(self):
        """The LLL-reduced gram, which orders_isometric searches on."""
        g, _ = lll_reduce_gram(self.gram)
        return tuple(tuple(row) for row in g)

    @cached_property
    def gross(self):
        """This order's GrossLattice, which embedding_count enumerates on."""
        return gross_lattice(self)

    @cached_property
    def omega(self):
        """|O^x| / 2: the norm-1 elements up to sign, by the exact solve at 2 on reduced_gram."""
        return len(short_vectors(self.reduced_gram, 2, True))

    @cached_property
    def units(self):
        """The omega units up to sign, as numerators s over lattice.den; s^-1 = conj(s).

        Found by the exact solve on gram, apart from the one on reduced_gram
        behind omega, which they check.
        """
        units = tuple(_combine(c, self.lattice.rows) for c, _ in short_vectors(self.gram, 2, True))
        if len(units) != self.omega:
            raise InternalError("%d units up to sign, but omega is %d" % (len(units), self.omega))
        return units


def is_maximal(O):
    return O.disc == O.alg.D * O.alg.D


def short_vectors(gram, bound2, exact):
    """(x, x G x^T) for all x in Z^n, x != 0, with x G x^T <= bound2, up to sign.

    With exact, only the vectors of x G x^T = bound2.  bound2 is an integer,
    and one of x, -x is returned: the one whose first (lowest-index) nonzero
    coordinate is positive.

    Exact enumeration over the LDL cone (Fincke-Pohst; Cohen, GTM 138,
    section 2.7).  The cone is Q(x) = sum_i diag_i (x_i + off_i)^2 with
    off_i = sum_{j>i} L[j][i] x_j, read from the integer Gram-Schmidt data:
    diag_i = dets[i+1]/dets[i] and L[j][i] = lam[j][i]/dets[i+1].  These are
    scaled by their common denominator s, so the arithmetic is on integers
    and each level's range is exact: with t = s x_i + s off_i, the term
    diag_i (x_i + off_i)^2 is (s diag_i) t^2 / s^3 = d_i t^2 / s^3, and it fits
    in what is left of bound2 (scaled by s^3, as rem) exactly when
    |t| <= isqrt(rem // d_i).

    Coordinates are filled from the last index down to x_1, each level
    running its range in ascending order.  Each level passes down the sign
    of the lowest-index nonzero coordinate set so far (0 while all are
    zero); the kept representative has its first nonzero coordinate
    positive, so x_0 decides the sign pair unless it is 0.  The last
    coordinate is no level of its own:
    - the leaf range: every x_0 >= 1 in range, and x_0 = 0 too when the sign
      passed down is positive, each with x G x^T = (top - rem + d_0 t^2)/s^3,
      top = bound2 s^3;
    - the exact solve: x G x^T = bound2 exactly when d_0 t^2 = rem, so t is
      0 or +-isqrt(rem / d_0), and x_0 = (t - s off_0)/s must be an integer;
      at most two x_0 remain, in ascending order, under the same sign rule.

    Before walking, the node count of the levels that are walked is
    bounded from d and bound2: level i runs at most 2 isqrt(top // d_i) // s + 1
    values per node above it.  The bound also counts the leaf range in
    the inexact mode, where each leaf is a returned vector, and not the
    exact solve, which costs one isqrt per node above it.  Over
    MAX_ENUMERATION_NODES, ResourceError names the bound and the cap
    before any work is done.
    """
    n = len(gram)
    if bound2 < 0:
        return []
    try:
        dets, lam = gram_schmidt(gram)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    s = lcm(
        *(dets[i] // gcd(dets[i], dets[i + 1]) for i in range(n)),
        *(dets[i + 1] // gcd(lam[j][i], dets[i + 1]) for j in range(n) for i in range(j)),
    )
    d = [s * dets[i + 1] // dets[i] for i in range(n)]
    Ls = [[s * lam[j][i] // dets[i + 1] for i in range(j)] for j in range(n)]
    s3 = s**3
    top = bound2 * s3
    nodes, level = 0, 1
    for i in range(n - 1, 0 if exact else -1, -1):
        level *= 2 * isqrt(top // d[i]) // s + 1
        nodes += level
    if nodes > MAX_ENUMERATION_NODES:
        raise ResourceError(
            "short-vector enumeration bounded by %d nodes, over the cap of %d"
            % (nodes, MAX_ENUMERATION_NODES)
        )
    d0 = d[0]
    out = []
    coords = [0] * n

    def leaf(rem, off, sign):
        low = 0 if sign > 0 else 1
        if exact:
            q, r = divmod(rem, d0)
            t = isqrt(q)
            if r or t * t != q:
                return
            for u in (-t, t) if t else (0,):
                x0, r = divmod(u - off, s)
                if not r and x0 >= low:
                    out.append(((x0, *coords[1:]), bound2))
            return
        r = isqrt(rem // d0)
        spent = top - rem
        tail = tuple(coords[1:])
        for x0 in range(max(low, -((off + r) // s)), (r - off) // s + 1):
            t = x0 * s + off
            out.append(((x0,) + tail, (spent + d0 * t * t) // s3))

    def rec(i, rem, partial, sign):
        off, di, Li = partial[i], d[i], Ls[i]
        r = isqrt(rem // di)
        for xi in range(-((off + r) // s), (r - off) // s + 1):
            t = xi * s + off
            coords[i] = xi
            below = [partial[k] + Li[k] * xi for k in range(i)]
            if i == 1:
                leaf(rem - di * t * t, below[0], xi or sign)
            else:
                rec(i - 1, rem - di * t * t, below, xi or sign)
        coords[i] = 0

    if n == 1:
        leaf(top, 0, 0)
    else:
        rec(n - 1, top, [0] * n, 0)
    return out


@dataclass(frozen=True)
class GrossLattice:
    """Trace-zero part of Z + 2R: rank 3, with its integer Gram (diag 2 nrd).

    basis is LLL-reduced and holds integer numerators over the order's
    lattice.den.
    """

    basis: tuple
    gram: tuple


def gross_lattice(O):
    """The trace-zero part of Z + 2R: the last three rows of the HNF of Z + 2R, LLL-reduced.

    trd(x) = 2 x0 over den, and the HNF is upper triangular, so its row 0 is
    the only one nonzero in column 0.  Those rows' Gram has entries that
    grow with N; the exact solve behind embedding_count runs on the
    reduced Gram, where it walks far fewer nodes (at (-7, 60083) it runs
    about 5 times faster).
    """
    L = O.lattice
    h = hnf_rows([[L.den, 0, 0, 0]] + [[2 * x for x in r] for r in L.rows])
    if len(h) != 4:
        raise InternalError("Z + 2R is not full rank")
    basis = tuple(tuple(r) for r in h[1:])
    if any(r[0] for r in basis):
        raise InternalError("trace-zero rows of Z + 2R have a nonzero trace")
    gram, U = lll_reduce_gram(_int_gram(O.alg.D, O.alg.N, basis, L.den))
    basis = tuple(_combine(u, basis) for u in U)
    return GrossLattice(basis, tuple(tuple(r) for r in gram))


def embedding_count(O, N):
    """h_R(-N): norm-N vector count of the Gross lattice over the unit action.

    Two independent counts are made: the vector count divided by omega, and
    a direct orbit count of the corresponding quadratic roots under unit
    conjugation.  They must agree.
    """
    if N <= 3 or N % 4 != 3:
        raise InputError("level must be a prime 3 mod 4 greater than 3")
    gl = O.gross
    halves = [x for x, _ in short_vectors(gl.gram, 2 * N, True)]
    raw = 2 * len(halves)
    omega = O.omega
    if raw % omega:
        raise InternalError("vector count %d not divisible by omega %d" % (raw, omega))
    by_mass = raw // omega
    by_orbits = _root_orbit_count(O, gl, halves)
    if by_mass != by_orbits:
        raise InternalError(
            "embedding counts disagree: %d by Gross count, %d by orbits" % (by_mass, by_orbits)
        )
    return by_mass


def _root_orbit_count(O, gl, halves):
    """Count orbits of {x in S0 : nrd(x) = N} under x -> s^(-1) x s, s a unit.

    halves holds the Gross-lattice coordinates of those x, one of each sign
    pair.  Elements are numerators over den = O.lattice.den, so s^(-1) x s
    = conj(s) x s has numerator conj(s) x s / den^2.  O.units is the whole
    unit group up to sign, identity included, so the orbit of x is the set
    of its conjugates by O.units, found in one pass.
    """
    D, N, den = O.alg.D, O.alg.N, O.lattice.den
    dd = den * den
    vecs = []
    for c in halves:
        x = _combine(c, gl.basis)
        # (1-x)/2 = 1 - (1+x)/2, so -x passes exactly when x does
        if not O.lattice.contains((den + x[0], x[1], x[2], x[3]), 2 * den):
            raise InternalError("root (1+x)/2 escaped the order")
        vecs += [x, tuple(-a for a in x)]
    conjugates = [(_conj(s), s) for s in O.units]
    seen = set()
    orbits = 0
    for x in vecs:
        if x in seen:
            continue
        orbits += 1
        for t, s in conjugates:
            z = _mul(D, N, _mul(D, N, t, x), s)
            if any(a % dd for a in z):
                raise InternalError("unit conjugate of a root is not integral over den")
            seen.add(tuple(a // dd for a in z))
    return orbits


def orders_isometric(O1, O2):
    """Whether the norm lattices (O, trd(x conj y)) are isometric over Z.

    Conjugate orders are always isometric; at this scale the converse is
    relied on for classification and is cross-checked globally by the mass
    identity.  Different discriminants answer False, equal reduced_gram
    True; otherwise a backtracking search (Plesken-Souvignier) looks for U
    with U G2 U^T = G1 on the reduced_gram G1 of O1 and G2 of O2.  Its
    candidates are O2's vectors up to G1's largest diagonal entry, grouped
    by norm; O1 is never enumerated.  They are not kept: classes are keyed
    by reduced point, so few searches run (94 in the discovery for
    D = -163).
    """
    if O1.disc != O2.disc:
        return False
    g1, g2 = O1.reduced_gram, O2.reduced_gram
    if g1 == g2:
        return True
    cand = {}
    for x, q in short_vectors(g2, max(g1[i][i] for i in range(4)), False):
        cand.setdefault(q, []).extend((x, tuple(-c for c in x)))

    def pair(x, y):
        return sum(g2[i][j] * x[i] * y[j] for i in range(4) for j in range(4))

    rows = []

    def extend(k):
        if k == 4:
            return True
        for x in cand.get(g1[k][k], []):
            if all(pair(x, rows[j]) == g1[k][j] for j in range(k)):
                rows.append(x)
                if extend(k + 1):
                    return True
                rows.pop()
        return False

    return extend(0)
