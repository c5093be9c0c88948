"""The character chi mod the level ideal and the weight-one character psi.

The setting: K = Q(sqrt(D)) imaginary quadratic with |D| prime, N a prime
that is 3 mod 4 and splits in K, and a fixed prime ideal (N, b1) over N.
chi(alpha) is the Jacobi symbol of the residue of alpha modulo that ideal;
psi((alpha)) = chi(alpha) * alpha is well defined on principal ideals and,
when h(D) = 1, on all ideals.

All complex embeddings use sqrt(D) = +i*sqrt(|D|).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

import mpmath
from mpmath import mp, mpf

from .arith import jacobi, smallest_prime_factors, sqrts_mod
from .errors import InputError, InternalError, UnsupportedError
from .numeric import GUARD_DIGITS, BigComplex
from .quadratic import (
    QuadIdeal,
    class_number,
    prime_ideal_above,
    unit_ideal,
    validate_disc,
)

TAU_IDEAL_CHOICES = ("nbar", "n")
ETA_CONVENTION_CHOICES = ("sec6", "sec7")


@dataclass(frozen=True)
class KElem:
    """Field element (p + q*sqrt(D))/2 with p = q*D mod 2 (so it lies in O_K)."""

    p: int
    q: int
    D: int

    def __post_init__(self):
        validate_disc(self.D)
        if (self.p - self.q * self.D) % 2 != 0:
            raise InputError("(%d + %d*sqrt(D))/2 is not integral" % (self.p, self.q))

    @property
    def x(self):
        return Fraction(self.p, 2)

    @property
    def y(self):
        return Fraction(self.q, 2)

    def __add__(self, other):
        self._check(other)
        return KElem(self.p + other.p, self.q + other.q, self.D)

    def __sub__(self, other):
        self._check(other)
        return KElem(self.p - other.p, self.q - other.q, self.D)

    def __mul__(self, other):
        if isinstance(other, int):
            return KElem(self.p * other, self.q * other, self.D)
        self._check(other)
        return KElem(
            (self.p * other.p + self.q * other.q * self.D) // 2,
            (self.p * other.q + self.q * other.p) // 2,
            self.D,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return KElem(-self.p, -self.q, self.D)

    def _check(self, other):
        if not isinstance(other, KElem) or other.D != self.D:
            raise InputError("mixed fields in KElem arithmetic")

    def conjugate(self):
        return KElem(self.p, -self.q, self.D)

    def norm(self):
        return (self.p * self.p - self.D * self.q * self.q) // 4

    def trace(self):
        return self.p

    def is_zero(self):
        return self.p == 0 and self.q == 0

    def embed(self, prec):
        """Complex value under sqrt(D) -> +i*sqrt(|D|)."""
        with mp.workdps(prec + GUARD_DIGITS):
            return BigComplex(mpf(self.p) / 2, mpf(self.q) * mpmath.sqrt(-self.D) / 2, prec)

    def __str__(self):
        return "(%d + %d*sqrt(%d))/2" % (self.p, self.q, self.D)


@dataclass(frozen=True)
class HeckeContext:
    """Fixed (D, N, b1) bundle threading every convention-sensitive value.

    tau_ideal selects which ideal over N multiplies the class representative
    when forming Heegner points: "nbar" (conjugate, the default) or "n".
    eta_convention selects the eta normalization product: "sec6" builds it
    from the per-ideal rule e48(a(b+3)) * eta((-b+sqrt(D))/(2a)), "sec7"
    uses the single prefactor e24(N(b1+3)^2).  Defaults reproduce the
    reference tables; both alternates are kept for convention diagnostics.
    """

    D: int
    N: int
    b1: int = None
    bOK: int = 1
    prec: int = 80
    tau_ideal: str = "nbar"
    eta_convention: str = "sec6"
    class_rep: QuadIdeal = None
    h: int = field(init=False, default=0)

    def __post_init__(self):
        level = prime_ideal_above(self.D, self.N)
        if self.b1 is None:
            object.__setattr__(self, "b1", level.b % (2 * self.N))
        if self.b1 % 2 == 0 or (self.b1 * self.b1 - self.D) % (4 * self.N) != 0:
            raise InputError("b1 = %d is not an odd root of D mod 4N" % self.b1)
        if self.bOK % 2 == 0:
            raise InputError("bOK must be odd")
        if self.prec <= 0:
            raise InputError("precision must be positive")
        if self.tau_ideal not in TAU_IDEAL_CHOICES:
            raise InputError("tau_ideal must be one of %s" % (TAU_IDEAL_CHOICES,))
        if self.eta_convention not in ETA_CONVENTION_CHOICES:
            raise InputError("eta_convention must be one of %s" % (ETA_CONVENTION_CHOICES,))
        if self.class_rep is None:
            object.__setattr__(self, "class_rep", unit_ideal(self.D))
        if self.class_rep.d != self.D:
            raise InputError("class representative has wrong discriminant")
        if gcd(self.class_rep.norm, self.N) != 1:
            raise InputError("class representative norm is not coprime to N")
        object.__setattr__(self, "h", class_number(self.D))

    @property
    def level_ideal(self):
        return QuadIdeal(self.N, self.b1, self.D)

    @property
    def char_root(self):
        """Root of D mod the character ideal: b1 for "n", -b1 for "nbar"."""
        return self.b1 if self.tau_ideal == "n" else -self.b1


def mu_residue(ctx, alpha, root=None):
    """Residue of alpha in Z/N under sqrt(D) -> root (default ctx.b1)."""
    if alpha.D != ctx.D:
        raise InputError("element has wrong discriminant")
    if root is None:
        root = ctx.b1
    inv2 = (ctx.N + 1) // 2
    return (alpha.p + alpha.q * root) * inv2 % ctx.N


def chi(ctx, alpha, root=None):
    """Quadratic character (mu(alpha) | N); 0 exactly on the character ideal."""
    return jacobi(mu_residue(ctx, alpha, root), ctx.N)


def psi_principal(ctx, alpha, root=None):
    """psi((alpha)) = chi(alpha)*alpha, embedded; independent of the unit sign."""
    if alpha.is_zero():
        raise InputError("psi of the zero element")
    return chi(ctx, alpha, root) * alpha.embed(ctx.prec)


def find_generator(ideal):
    """A generator of a primitive ideal in a class-number-one field."""
    D, a = ideal.d, ideal.norm
    qmax = isqrt(4 * a // -D)
    for q in range(qmax + 1):
        rest = 4 * a + D * q * q
        p = isqrt(rest)
        if p * p != rest:
            continue
        for pp, qq in ((p, q), (-p, q)) if p else ((0, q),):
            if ideal.contains(pp, qq):
                return KElem(pp, qq, D)
    raise InternalError("no generator found for %s (is h(%d) = 1?)" % (ideal, D))


def psi_ideal(ctx, a, root=None):
    """psi on an arbitrary primitive ideal; zero on conductor multiples.

    The conductor is the kernel ideal of the residue map for the root in
    force, one of the two primes over N; ideals divisible by the conjugate
    prime are coprime to the conductor and get nonzero values.
    """
    if ctx.h > 1:
        raise UnsupportedError(
            "psi on non-principal ideals needs a choice among h(D) = %d extensions" % ctx.h
        )
    if a.d != ctx.D:
        raise InputError("ideal has wrong discriminant")
    r = ctx.b1 if root is None else root
    if a.norm % ctx.N == 0 and (a.b - r) % (2 * ctx.N) == 0:
        return BigComplex.make(0, 0, ctx.prec)
    return psi_principal(ctx, find_generator(a), root)


def psi_denominator(ctx):
    """The divisor psi_conj(conj(class_rep)) used to normalize theta values.

    The character belongs to the conjugate of the tau ideal, so its root is
    -ctx.char_root.
    """
    return psi_ideal(ctx, ctx.class_rep.conjugate(), root=-ctx.char_root)


def enumerate_ideals(D, max_norm):
    """Yield (primitive ideal, content) for every ideal of norm <= max_norm.

    The full ideal is content * primitive and has norm content^2 * a; each
    ideal appears exactly once.  Order: by content, then norm, then b.
    """
    validate_disc(D)
    if max_norm < 1:
        return
    spf = smallest_prime_factors(max_norm)
    # b^2 = D mod 4a with b defined mod 2a; for odd D the mod-4 part is
    # automatic, so solve mod 4a and fold the roots into (-a, a].
    root_table = [None] * (max_norm + 1)
    for m in range(1, isqrt(max_norm) + 1):
        cap = max_norm // (m * m)
        for a in range(1, cap + 1):
            if root_table[a] is None:
                folded = sorted({((r + a - 1) % (2 * a)) - a + 1 for r in sqrts_mod(D, 4 * a, spf)})
                root_table[a] = tuple(folded)
            for b in root_table[a]:
                yield QuadIdeal(a, b, D), m
