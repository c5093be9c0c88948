"""The definite quaternion algebra B = (D, -N) and its maximal orders.

Basis 1, u, v, w = uv with u^2 = D, v^2 = -N, vu = -uv.  Since D < 0 and
N > 0 the reduced norm

    nrd(x) = x0^2 - D x1^2 + N x2^2 - D N x3^2

is positive definite.  Lattices are rank-4 Z-modules given by rational
basis rows in these coordinates, stored with a Hermite-form canonical
basis.  The module provides the ideal attached to a split-CM point, right
orders, discriminants, unit counts, the trace-zero Gross lattice with its
embedding numbers, and isometry testing of orders via their norm Gram
matrices.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import InputError, InternalError, ResourceError
from .linalg import (
    hnf_rows,
    lattice_intersection,
    lll_reduce_gram,
    mat_det,
    mat_inv,
    mat_mul,
    rational_hnf,
)
from .quadratic import heegner_point


@dataclass(frozen=True)
class QuatAlgebra:
    D: int
    N: int

    def __post_init__(self):
        if self.D >= 0 or self.N <= 0:
            raise InputError("algebra needs D < 0 and N > 0")

    def elem(self, x0, x1=0, x2=0, x3=0):
        return QuatElem(self, (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3)))

    @property
    def one(self):
        return self.elem(1)

    @property
    def u(self):
        return self.elem(0, 1)

    @property
    def v(self):
        return self.elem(0, 0, 1)

    @property
    def w(self):
        return self.elem(0, 0, 0, 1)


@dataclass(frozen=True)
class QuatElem:
    alg: QuatAlgebra
    co: tuple

    def _check(self, other):
        if not isinstance(other, QuatElem) or other.alg != self.alg:
            raise InputError("mixed quaternion algebras")

    def __add__(self, other):
        self._check(other)
        return QuatElem(self.alg, tuple(a + b for a, b in zip(self.co, other.co)))

    def __sub__(self, other):
        self._check(other)
        return QuatElem(self.alg, tuple(a - b for a, b in zip(self.co, other.co)))

    def __neg__(self):
        return QuatElem(self.alg, tuple(-a for a in self.co))

    def scale(self, s):
        s = Fraction(s)
        return QuatElem(self.alg, tuple(a * s for a in self.co))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        D, N = self.alg.D, self.alg.N
        x0, x1, x2, x3 = self.co
        y0, y1, y2, y3 = other.co
        return QuatElem(
            self.alg,
            (
                x0 * y0 + D * x1 * y1 - N * x2 * y2 + D * N * x3 * y3,
                x0 * y1 + x1 * y0 + N * (x2 * y3 - x3 * y2),
                x0 * y2 + x2 * y0 + D * (x1 * y3 - x3 * y1),
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
            ),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def conjugate(self):
        x0, x1, x2, x3 = self.co
        return QuatElem(self.alg, (x0, -x1, -x2, -x3))

    def nrd(self):
        D, N = self.alg.D, self.alg.N
        x0, x1, x2, x3 = self.co
        return x0 * x0 - D * x1 * x1 + N * x2 * x2 - D * N * x3 * x3

    def trd(self):
        return 2 * self.co[0]

    def inverse(self):
        n = self.nrd()
        if n == 0:
            raise InputError("zero quaternion has no inverse")
        return self.conjugate().scale(Fraction(1, 1) / n)

    def is_zero(self):
        return all(a == 0 for a in self.co)

    def __str__(self):
        return "(%s, %s, %s, %s)" % self.co

    def left_matrix(self):
        """Matrix L with row(self * x) = row(x) * L^T; columns are self*e_j."""
        cols = [(self * b).co for b in _basis(self.alg)]
        return [[cols[j][i] for j in range(4)] for i in range(4)]

    def right_matrix(self):
        cols = [(b * self).co for b in _basis(self.alg)]
        return [[cols[j][i] for j in range(4)] for i in range(4)]


def _basis(alg):
    return (alg.one, alg.u, alg.v, alg.w)


def pair_trd(x, y):
    """The norm-form pairing trd(x * conj(y)); diagonal is 2 nrd."""
    return (x * y.conjugate()).trd()


@dataclass(frozen=True)
class QuatLattice:
    """Full rank-4 lattice; hnf rows are the canonical basis, gens optional."""

    alg: QuatAlgebra
    hnf: tuple
    gens: tuple = None

    @classmethod
    def from_elems(cls, elems):
        alg = elems[0].alg
        rows = [list(e.co) for e in elems]
        h = rational_hnf(rows)
        if len(h) != 4:
            raise InputError("lattice is not full rank")
        return cls(alg, tuple(tuple(r) for r in h), tuple(elems))

    @classmethod
    def from_rows(cls, alg, rows):
        return cls.from_elems([QuatElem(alg, tuple(Fraction(x) for x in r)) for r in rows])

    def basis(self):
        return [QuatElem(self.alg, row) for row in self.hnf]

    def __eq__(self, other):
        return isinstance(other, QuatLattice) and self.alg == other.alg and self.hnf == other.hnf

    def __hash__(self):
        return hash((self.alg, self.hnf))

    def contains(self, x):
        coords = mat_mul([list(x.co)], _inv_cached(self.hnf))[0]
        return all(c.denominator == 1 for c in coords)

    def norm(self):
        """gcd of nrd over the lattice: gcd of nrd(b_i) and trd(b_i conj(b_j))."""
        vals = []
        bas = self.basis()
        for i, bi in enumerate(bas):
            vals.append(bi.nrd())
            for bj in bas[i + 1 :]:
                vals.append(pair_trd(bi, bj))
        return _fraction_gcd(vals)

    def scaled_gram(self):
        """Integer Gram trd(b_i conj(b_j)) on the canonical basis, or error."""
        bas = self.basis()
        g = [[pair_trd(bi, bj) for bj in bas] for bi in bas]
        out = []
        for row in g:
            out.append([_as_int(x, "Gram entry") for x in row])
        return out


@lru_cache(maxsize=512)
def _inv_cached(hnf):
    return mat_inv([list(r) for r in hnf])


def _fraction_gcd(vals):
    den = 1
    for v in vals:
        den = den * Fraction(v).denominator // gcd(den, Fraction(v).denominator)
    num = 0
    for v in vals:
        num = gcd(num, int(Fraction(v) * den))
    return Fraction(num, den)


def _as_int(x, what):
    x = Fraction(x)
    if x.denominator != 1:
        raise InternalError("%s is not an integer: %s" % (what, x))
    return int(x)


def build_Iz(ctx, Q):
    """The rank-4 lattice attached to the split-CM point of Q under ctx.

    With tau = (-b1p + sqrt(D))/(2 a1 N) the context's Heegner point and
    Q = [a, b, c] of discriminant -N, the generators are

        x1 = ((b1p - u)/(2 a1 N)) * a v
        x2 = ((b1p - u)/(2 a1 N)) * (N + b v)/2
        y1 = (b - v)/2
        y2 = -a

    in that order (a symplectic basis for the twisted trace pairing).
    """
    if Q.disc != -ctx.N:
        raise InputError("form discriminant %d is not -N = %d" % (Q.disc, -ctx.N))
    pt = heegner_point(ctx, ctx.class_rep)
    a1, b1p = pt.a1, pt.b
    alg = QuatAlgebra(ctx.D, ctx.N)
    a, b = Q.a, Q.b
    front = alg.elem(b1p, -1).scale(Fraction(1, 2 * a1 * ctx.N))
    x1 = front * alg.v.scale(a)
    x2 = front * (alg.elem(ctx.N) + alg.v.scale(b)).scale(Fraction(1, 2))
    y1 = (alg.elem(b) - alg.v).scale(Fraction(1, 2))
    y2 = alg.elem(-a)
    return QuatLattice.from_elems([x1, x2, y1, y2])


def symplectic_gram(I):
    """Matrix of E(x, y) = trd(u^(-1) x conj(y)) / norm(I) on the stored gens."""
    if not I.gens or len(I.gens) != 4:
        raise InputError("lattice has no stored generator quadruple")
    uinv = I.alg.u.inverse()
    nrm = I.norm()
    out = []
    for x in I.gens:
        out.append([Fraction((uinv * x * y.conjugate()).trd()) / nrm for y in I.gens])
    return out


def right_order(I):
    """The right order {x : I x <= I} of a full lattice."""
    rows = [list(r) for r in I.hnf]
    pieces = []
    for g in I.basis():
        lm = g.inverse().left_matrix()
        lmt = [[lm[j][i] for j in range(4)] for i in range(4)]
        pieces.append(mat_mul(rows, lmt))
    cur = pieces[0]
    for nxt in pieces[1:]:
        cur = lattice_intersection(cur, nxt)
    return Order(QuatLattice.from_rows(I.alg, cur))


@dataclass(frozen=True)
class Order:
    lattice: QuatLattice

    def __post_init__(self):
        L = self.lattice
        if not L.contains(L.alg.one):
            raise InputError("order does not contain 1")
        bas = L.basis()
        for x in bas:
            if Fraction(x.trd()).denominator != 1 or Fraction(x.nrd()).denominator != 1:
                raise InputError("order contains a non-integral basis element")
        for x in bas:
            for y in bas:
                if not L.contains(x * y):
                    raise InputError("lattice is not multiplicatively closed")

    @property
    def alg(self):
        return self.lattice.alg

    def __eq__(self, other):
        return isinstance(other, Order) and self.lattice == other.lattice

    def __hash__(self):
        return hash(self.lattice)


def order_discriminant(O):
    """det of the trd(e_i conj(e_j)) Gram; equals (reduced discriminant)^2."""
    g = O.lattice.scaled_gram()
    d = mat_det(g)
    return _as_int(d, "order discriminant")


def is_maximal(O):
    return order_discriminant(O) == O.alg.D * O.alg.D


def _ldl(gram):
    """Q(x) = sum_i diag[i] (x_i + sum_{k<i} L[i][k] x_k)^2, exact Fractions."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    diag = [Fraction(0)] * n
    L = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d = a[i][i]
        if d <= 0:
            raise InputError("Gram matrix is not positive definite")
        diag[i] = d
        for j in range(i + 1, n):
            L[j][i] = a[i][j] / d
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / d
                a[k][j] = a[j][k]
    return diag, L


def short_vectors(gram, bound2):
    """All x in Z^n, x != 0, with x G x^T <= bound2, up to sign (one of x, -x).

    Exact enumeration over the LDL cone; coordinates are filled from the
    last index down, and the kept representative has its first nonzero
    coordinate positive.
    """
    n = len(gram)
    diag, L = _ldl(gram)
    out = []
    budget = [0]
    coords = [0] * n

    def rec(i, rem, partial):
        off = partial[i]
        root = _frac_sqrt_floor(rem / diag[i])
        lo = _frac_floor(-off - root) - 1
        hi = _frac_ceil(-off + root) + 1
        for xi in range(lo, hi + 1):
            val = diag[i] * (xi + off) ** 2
            if val > rem:
                continue
            budget[0] += 1
            if budget[0] > 4 * 10**6:
                raise ResourceError("short-vector enumeration budget exceeded")
            coords[i] = xi
            if i == 0:
                first = next((c for c in coords if c), 0)
                if first > 0:
                    out.append(tuple(coords))
            else:
                new_partial = [partial[k] + L[i][k] * xi for k in range(i)]
                rec(i - 1, rem - val, new_partial)
        coords[i] = 0

    rec(n - 1, Fraction(bound2), [Fraction(0)] * n)
    return out


def _frac_sqrt_floor(x):
    x = Fraction(x)
    if x < 0:
        return Fraction(0)
    return Fraction(isqrt(x.numerator * x.denominator), x.denominator)


def _frac_ceil(x):
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def _frac_floor(x):
    x = Fraction(x)
    return x.numerator // x.denominator


def count_lattice_norm(gram, n):
    """Number of lattice vectors with norm n, where norm(x) = x G x^T / 2."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    hits = [x for x in short_vectors(gram, 2 * n) if _quadval(gram, x) == 2 * n]
    return 2 * len(hits)


def _quadval(gram, x):
    n = len(x)
    return sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def unit_count(O):
    """omega = |O^x| / 2: count of norm-1 vectors over the sign pair."""
    g = O.lattice.scaled_gram()
    return count_lattice_norm(g, 1) // 2


@dataclass(frozen=True)
class GrossLattice:
    """Trace-zero part of Z + 2R: rank 3, with its integer Gram (diag 2 nrd)."""

    order: Order
    basis: tuple
    gram: tuple


def gross_lattice(O):
    one = O.alg.one
    rows = [list(one.co)] + [list((b + b).co) for b in O.lattice.basis()]
    h = rational_hnf(rows)
    if len(h) != 4:
        raise InternalError("Z + 2R is not full rank")
    elems = [QuatElem(O.alg, tuple(r)) for r in h]
    traces = [[_as_int(e.trd(), "trace")] for e in elems]
    kern = _integer_kernel(traces)
    if len(kern) != 3:
        raise InternalError("trace-zero sublattice has rank %d" % len(kern))
    basis = []
    for c in kern:
        x = O.alg.elem(0)
        for ci, e in zip(c, elems):
            x = x + e.scale(ci)
        basis.append(x)
    gram = [[_as_int(pair_trd(x, y), "Gross Gram") for y in basis] for x in basis]
    return GrossLattice(O, tuple(basis), tuple(tuple(r) for r in gram))


def _integer_kernel(cols):
    """Basis of {c in Z^k : c * cols = 0} via HNF bookkeeping."""
    k = len(cols)
    width = len(cols[0])
    # rows [cols_i | e_i]; rows of the HNF with zero left part give the kernel
    rows = []
    for i in range(k):
        rows.append(list(cols[i]) + [int(i == j) for j in range(k)])
    h = hnf_rows(rows)
    out = []
    for r in h:
        if all(x == 0 for x in r[:width]):
            out.append(r[width:])
    return out


def embedding_count(O, N):
    """h_R(-N): norm-N vector count of the Gross lattice over the unit action.

    Two independent counts are made: the vector count divided by omega, and
    a direct orbit count of the corresponding quadratic roots under unit
    conjugation.  They must agree.
    """
    if N <= 3 or N % 4 != 3:
        raise InputError("level must be a prime 3 mod 4 greater than 3")
    gl = gross_lattice(O)
    raw = count_lattice_norm(gl.gram, N)
    omega = unit_count(O)
    if raw % omega:
        raise InternalError("vector count %d not divisible by omega %d" % (raw, omega))
    by_mass = raw // omega
    by_orbits = _root_orbit_count(O, gl, N)
    if by_mass != by_orbits:
        raise InternalError(
            "embedding counts disagree: %d by Gross count, %d by orbits" % (by_mass, by_orbits)
        )
    return by_mass


def _root_orbit_count(O, gl, N):
    """Count orbits of {x in S0 : nrd(x) = N} under x -> s^(-1) x s, s a unit."""
    halves = [x for x in short_vectors(list(map(list, gl.gram)), 2 * N) if _quadval(gl.gram, x) == 2 * N]
    vecs = []
    for c in halves:
        x = O.alg.elem(0)
        for ci, e in zip(c, gl.basis):
            x = x + e.scale(ci)
        vecs.append(x)
        vecs.append(-x)
    for x in vecs:
        w = (O.alg.one + x).scale(Fraction(1, 2))
        if not O.lattice.contains(w):
            raise InternalError("root (1+x)/2 escaped the order")
    units = []
    ug = O.lattice.scaled_gram()
    for c in short_vectors(ug, 2):
        if _quadval(ug, c) != 2:
            continue
        s = O.alg.elem(0)
        for ci, e in zip(c, O.lattice.basis()):
            s = s + e.scale(ci)
        units.append(s)
    seen = set()
    orbits = 0
    for x in vecs:
        key = x.co
        if key in seen:
            continue
        orbits += 1
        stack = [x]
        seen.add(key)
        while stack:
            y = stack.pop()
            for s in units:
                z = s.inverse() * y * s
                if z.co not in seen:
                    seen.add(z.co)
                    stack.append(z)
    return orbits


def _norm_profile(O, depth=12):
    g = O.lattice.scaled_gram()
    return tuple(count_lattice_norm(g, n) for n in range(1, depth + 1))


def _gross_profile(O, depth=12):
    g = gross_lattice(O).gram
    return tuple(count_lattice_norm(g, n) for n in range(1, depth + 1))


def orders_isometric(O1, O2):
    """Whether the norm lattices (O, trd(x conj y)) are isometric over Z.

    Conjugate orders are always isometric; at this scale the converse is
    relied on for classification and is cross-checked globally by the mass
    identity.  Invariant pre-filters (discriminant, unit count, small norm
    counts of the order and its Gross lattice) cut off almost everything;
    the remaining candidates get an exact backtracking search for U with
    U G1 U^T = G2 on the LLL-reduced Gram matrices.
    """
    if order_discriminant(O1) != order_discriminant(O2):
        return False
    if unit_count(O1) != unit_count(O2):
        return False
    if _norm_profile(O1) != _norm_profile(O2):
        return False
    if _gross_profile(O1) != _gross_profile(O2):
        return False
    g1, _ = lll_reduce_gram(O1.lattice.scaled_gram())
    g2, _ = lll_reduce_gram(O2.lattice.scaled_gram())
    g1 = [[int(x) for x in row] for row in g1]
    g2 = [[int(x) for x in row] for row in g2]
    if g1 == g2:
        return True
    maxd = max(g1[i][i] for i in range(4))
    cand = {}
    for x in short_vectors(g2, maxd):
        for y in (x, tuple(-c for c in x)):
            cand.setdefault(_quadval(g2, y), []).append(y)

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
