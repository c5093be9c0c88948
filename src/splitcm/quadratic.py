"""Binary quadratic forms, ideals of imaginary quadratic fields, Heegner points.

Conventions used throughout:

* A form [a, b, c] is a*x^2 + b*x*y + c*y^2, always primitive and positive
  definite here, with discriminant d = b^2 - 4ac < 0.
* An ideal (a, b) of discriminant d is the Z-module a*Z + ((-b+sqrt(d))/2)*Z
  with b^2 = d mod 4a; b is stored normalized into (-a, a].  The form
  [a, b, c] corresponds to the ideal (a, b) and the conjugate ideal to
  [a, -b, c].
* A Heegner point of level N is tau = (-b + sqrt(D))/(2*a1*N) with
  b^2 = D mod 4*a1*N, obtained from an ideal [a1*N, (-b+sqrt(D))/2]: the
  product of a class representative of norm a1 coprime to N with the
  prime (N, -b1), whose root b follows from the two factors' roots by CRT.

Only fundamental discriminants with h small ever appear; the forms and
ideals below assume nothing more, the Heegner point assumes D odd.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import is_prime, jacobi
from .errors import InputError, SplitError, UnsupportedError


def validate_disc(d):
    """Reject non-discriminants and the extra-unit cases d = -3, -4."""
    if d >= 0:
        raise InputError("discriminant must be negative, got %d" % d)
    if d % 4 not in (0, 1):
        raise InputError("d = %d is not 0 or 1 mod 4" % d)
    if d in (-3, -4):
        raise InputError("discriminants -3 and -4 (extra units) are not supported")


def validate_field_disc(D):
    """Admit only odd D with |D| prime and h(D) = 1, else UnsupportedError naming the cause.

    For these D, O_K = Z[(1+sqrt(D))/2] has units +-1 and every ideal is principal.
    """
    validate_disc(D)
    if D % 2 == 0:
        cause = "D = %d is even" % D
    elif D < -163:  # Heegner-Stark: -163 is the least D with h(D) = 1
        cause = "h(D) > 1 for D = %d < -163 (Heegner-Stark)" % D
    elif not is_prime(-D):
        cause = "|D| = %d is not prime" % -D
    elif class_number(D) != 1:
        cause = "h(D) = %d for D = %d" % (class_number(D), D)
    else:
        return
    raise UnsupportedError(cause + "; supported D are odd with |D| prime and h(D) = 1")


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
    """Gauss reduction: (g, (p, q, r, s)), g the unique reduced form properly
    equivalent to f, with g(x, y) = f(p x + q y, r x + s y) and p s - q r = 1."""
    a, b, c = f.a, f.b, f.c
    p, q, r, s = 1, 0, 0, 1
    while True:
        if a > c or (a == c and b < 0):
            # [a,b,c] -> [c,-b,a] by (x, y) -> (-y, x)
            a, b, c = c, -b, a
            p, q, r, s = q, -p, s, -r
            continue
        if b <= -a or b > a:
            # translate b into (-a, a]: [a,b,c] -> [a, b+2ak, a k^2 + b k + c] by (x, y) -> (x + k y, y)
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
            q, s = q + k * p, s + k * r
            continue
        break
    return QuadForm(a, b, c), (p, q, r, s)


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


def smallest_odd_root(D, N):
    """Smallest positive odd b with b^2 = D mod 4N, for N a prime 3 mod 4 (else b may be wrong).

    r = D^((N+1)/4) mod N squares to D mod N if anything does; b is the smaller
    odd lift of r or N - r into [1, 2N), and SplitError if it is no root.
    """
    r = pow(D % N, (N + 1) // 4, N)
    b = min(x if x % 2 else x + N for x in (r, N - r))
    if (b * b - D) % (4 * N):
        raise SplitError("D = %d is not an odd square mod 4N for N = %d" % (D, N))
    return b


def prime_ideal_above(D, N):
    """The prime ideal (N, b1) over a split N = 3 mod 4, b1 the pinned root."""
    validate_disc(D)
    if not is_prime(N):
        raise InputError("level N = %d is not prime" % N)
    if N == 2:  # the one even prime, where the Jacobi symbol is undefined
        raise InputError("level N = 2 is not 3 mod 4")
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

    def __str__(self):
        return "(%d + sqrt(%d))/%d" % (-self.b, self.D, 2 * self.a1 * self.N)


def heegner_point(ctx, a):
    """Heegner point of the ideal product a * (N, -b1), the conjugate of ctx's level ideal.

    ctx supplies D, N and b1.  The class representative a must have norm
    a1 coprime to N; the product is then the primitive ideal (a1 N, B) with
    B = a.b mod 2 a1 and B = -b1 mod 2N (B odd, as D is), by CRT.
    """
    a1, N = a.norm, ctx.N
    if gcd(a1, N) != 1:
        raise InputError("ideal norm %d is not coprime to N = %d" % (a1, N))
    t = (a.b + ctx.b1) // 2 * pow(N, -1, a1) % a1
    B = -ctx.b1 + 2 * N * t
    return HeegnerPoint(ctx.D, N, a1, QuadIdeal(a1 * N, B, ctx.D).b)
