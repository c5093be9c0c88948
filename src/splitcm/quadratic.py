"""Binary quadratic forms, ideals of imaginary quadratic fields, Heegner points.

Conventions used throughout:

* A form [a, b, c] is a*x^2 + b*x*y + c*y^2, always primitive and positive
  definite here, with discriminant d = b^2 - 4ac < 0.
* An ideal (a, b) of discriminant d is the Z-module a*Z + ((-b+sqrt(d))/2)*Z
  with b^2 = d mod 4a; b is stored normalized into (-a, a].  The form
  [a, b, c] corresponds to the ideal (a, b) and the conjugate ideal to
  [a, -b, c].
* A Heegner point of level N is tau = (-b + sqrt(D))/(2*a1*N) with
  b^2 = D mod 4*a1*N, obtained from an ideal [a1*N, (-b+sqrt(D))/2].

Only fundamental discriminants with h small ever appear, but nothing below
assumes that.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import is_prime, jacobi
from .errors import InputError, InternalError, SplitError
from .linalg import hnf_rows


def validate_disc(d):
    """Reject non-discriminants and the extra-unit cases d = -3, -4."""
    if d >= 0:
        raise InputError("discriminant must be negative, got %d" % d)
    if d % 4 not in (0, 1):
        raise InputError("d = %d is not 0 or 1 mod 4" % d)
    if d in (-3, -4):
        raise InputError("discriminants -3 and -4 (extra units) are not supported")


@dataclass(frozen=True)
class QuadForm:
    """Primitive positive definite binary quadratic form [a, b, c]."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise InputError("form %s is not positive definite" % (self,))
        if self.disc >= 0:
            raise InputError("form %s has nonnegative discriminant" % (self,))
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise InputError("form %s is not primitive" % (self,))

    @property
    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    def value(self, m, n):
        return self.a * m * m + self.b * m * n + self.c * n * n

    def is_reduced(self):
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def __str__(self):
        return "[%d,%d,%d]" % (self.a, self.b, self.c)


def reduce_form(f):
    """Gauss reduction: the unique reduced form properly equivalent to f."""
    a, b, c = f.a, f.b, f.c
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b <= -a or b > a:
            # translate b into (-a, a]; [a,b,c] -> [a, b+2ak, a k^2 + b k + c]
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
            continue
        break
    if a == c and b < 0:
        b = -b
    return QuadForm(a, b, c)


def reduced_forms(d):
    """All reduced primitive forms of discriminant d, sorted by (a, b)."""
    validate_disc(d)
    out = []
    amax = isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b * b - d) % (4 * a) != 0:
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(QuadForm(a, b, c))
    out.sort(key=lambda f: (f.a, f.b))
    return out


def class_number(d):
    return len(reduced_forms(d))


@dataclass(frozen=True)
class QuadIdeal:
    """Primitive ideal a*Z + ((-b+sqrt(d))/2)*Z with b normalized into (-a, a]."""

    a: int
    b: int
    d: int

    def __post_init__(self):
        validate_disc(self.d)
        if self.a <= 0:
            raise InputError("ideal norm must be positive, got %d" % self.a)
        bn = ((self.b + self.a - 1) % (2 * self.a)) - self.a + 1
        object.__setattr__(self, "b", bn)
        if (self.b * self.b - self.d) % (4 * self.a) != 0:
            raise InputError(
                "(%d, %d) is not an ideal of discriminant %d" % (self.a, self.b, self.d)
            )

    @property
    def norm(self):
        return self.a

    def conjugate(self):
        return QuadIdeal(self.a, -self.b, self.d)

    def contains(self, p, q):
        """Membership of the element (p + q*sqrt(d))/2, given as integers."""
        if (p - q * self.d) % 2 != 0:
            return False
        return (p + self.b * q) % (2 * self.a) == 0

    def __str__(self):
        return "(%d, %d)" % (self.a, self.b)


def unit_ideal(d):
    return QuadIdeal(1, 1, d) if d % 2 else QuadIdeal(1, 0, d)


def ideal_of_form(f):
    return QuadIdeal(f.a, f.b, f.disc)


def form_of_ideal(ideal):
    c = (ideal.b * ideal.b - ideal.d) // (4 * ideal.a)
    return QuadForm(ideal.a, ideal.b, c)


def ideal_product(x, y):
    """Product of two ideals as (content, primitive ideal).

    The module product is spanned by the four pairwise generator products;
    writing elements as (p + q*sqrt(d))/2 and running a Hermite normal form
    on (q, p) rows gives [[c, t], [0, s]] with content c, norm s/(2c) and
    b = -t/c mod 2a for the primitive part.
    """
    if x.d != y.d:
        raise InputError("ideal product needs equal discriminants")
    d = x.d
    rows = [
        [0, 2 * x.a * y.a],
        [x.a, -x.a * y.b],
        [y.a, -y.a * x.b],
        [-(x.b + y.b) // 2, (x.b * y.b + d) // 2],
    ]
    h = hnf_rows(rows)
    if len(h) != 2 or h[1][0] != 0:
        raise InternalError("ideal product HNF degenerated: %r" % (h,))
    content, t = h[0]
    s = h[1][1]
    if t % content or s % (2 * content):
        raise InternalError("ideal product content mismatch: %r" % (h,))
    a_new = s // (2 * content)
    prim = QuadIdeal(a_new, -(t // content), d)
    if content * content * prim.a != x.a * y.a:
        raise InternalError("ideal product norm check failed")
    return content, prim


def smallest_odd_root(D, N):
    """Smallest positive odd b with b^2 = D mod 4N; requires D square mod 4N."""
    for b in range(1, 2 * N, 2):
        if (b * b - D) % (4 * N) == 0:
            return b
    raise SplitError("D = %d is not an odd square mod 4N for N = %d" % (D, N))


def prime_ideal_above(D, N):
    """The prime ideal (N, b1) over a split N = 3 mod 4, b1 the pinned root."""
    validate_disc(D)
    if not is_prime(N):
        raise InputError("level N = %d is not prime" % N)
    if jacobi(D % N, N) != 1:
        raise SplitError("N = %d does not split in discriminant %d" % (N, D))
    if N % 4 != 3:
        raise InputError("level N = %d is not 3 mod 4" % N)
    if N == 3:
        raise InputError("level N = 3 is excluded (extra units on the -N side)")
    return QuadIdeal(N, smallest_odd_root(D, N), D)


@dataclass(frozen=True)
class HeegnerPoint:
    """The point tau = (-b + sqrt(D))/(2*a1*N) with b^2 = D mod 4*a1*N."""

    D: int
    N: int
    a1: int
    b: int

    def __post_init__(self):
        validate_disc(self.D)
        if self.a1 <= 0 or self.N <= 0:
            raise InputError("Heegner point needs positive a1 and N")
        if (self.b * self.b - self.D) % (4 * self.a1 * self.N) != 0:
            raise InputError(
                "b = %d is not a root of D = %d mod %d" % (self.b, self.D, 4 * self.a1 * self.N)
            )

    @property
    def root(self):
        """Residue of the root in Z/2N, odd by construction."""
        return self.b % (2 * self.N)

    def __str__(self):
        return "(%d + sqrt(%d))/%d" % (-self.b, self.D, 2 * self.a1 * self.N)


def heegner_point(ctx, a):
    """Heegner point of the ideal product a * M, where M is ctx's level ideal.

    ctx supplies D, N, b1 and the choice of M via ctx.tau_ideal: "nbar" takes
    the conjugate (N, -b1) (the default convention), "n" takes (N, b1).  The
    class representative a must have norm coprime to N.
    """
    if gcd(a.norm, ctx.N) != 1:
        raise InputError("ideal norm %d is not coprime to N = %d" % (a.norm, ctx.N))
    level_ideal = QuadIdeal(ctx.N, ctx.b1, ctx.D)
    if ctx.tau_ideal == "nbar":
        level_ideal = level_ideal.conjugate()
    content, prod = ideal_product(a, level_ideal)
    if content != 1:
        raise InternalError("product with level ideal has content %d" % content)
    if prod.a != a.norm * ctx.N:
        raise InternalError("product norm %d is not a1*N" % prod.a)
    want = -ctx.b1 if ctx.tau_ideal == "nbar" else ctx.b1
    if (prod.b - want) % (2 * ctx.N) != 0:
        raise InternalError("product root %d is not %d mod 2N" % (prod.b, want))
    return HeegnerPoint(ctx.D, ctx.N, a.norm, prod.b)
