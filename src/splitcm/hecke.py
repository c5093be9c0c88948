"""The level's fixed data: field, level ideal, precision, and each form's reduced point.

The setting: K = Q(sqrt(D)) imaginary quadratic with |D| prime and h(D) = 1,
N a prime that is 3 mod 4 and splits in K, and a prime ideal (N, b1) over
N.  The root b1 is the one convention of the package: the conjugate root
2N - b1 picks the conjugate prime, and with it the conjugate character.

All complex embeddings use sqrt(D) = +i*sqrt(|D|).

HeckeContext computes each level quantity once, on first use: the reduced
forms of discriminant -N, the class point, the eta factor at prec, each
form's split-CM point reduced by Sp4(Z), the theta integers and the theta
values.  The reduced points (theta.reduce_splitcm) are exact, and three
readers share them: theta_integers, through theta.theta_integers, which
takes each normalized theta's integer in complex floats from one constant
per reduced point and digits; thetas, through theta.reduced_theta, which
evaluates siegel_theta once per reduced point and digits and sums no
q-series, for the direct path of the central value; and the class keys of
central.ClassStore.  Theta enters the central value only through
integers, so both are computed at S = min(prec, THETA_DIGITS) digits; the
eta factor is also a factor of the period, so it is computed at prec.
"""

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import mpmath
from mpmath import mp, mpf

from . import theta
from .errors import InputError, InternalError
from .numeric import GUARD_DIGITS, BigComplex
from .quadratic import (
    QuadIdeal,
    heegner_point,
    prime_ideal_above,
    reduced_forms,
    unit_ideal,
    validate_disc,
    validate_field_disc,
)

MIN_PREC = 20  # at prec <= 15 the 10^-(prec - 15) checks on L and W would pass anything
THETA_DIGITS = 80  # the most digits of theta, which is needed only for integers


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

    def embed(self, prec):
        """Complex value under sqrt(D) -> +i*sqrt(|D|)."""
        with mp.workdps(prec + GUARD_DIGITS):
            return BigComplex(mpf(self.p) / 2, mpf(self.q) * mpmath.sqrt(-self.D) / 2, prec)

    def __str__(self):
        return "(%d + %d*sqrt(%d))/2" % (self.p, self.q, self.D)


@dataclass(frozen=True)
class HeckeContext:
    """Fixed (D, N, b1, prec) bundle threading every level-dependent value.

    b1 (default: the smallest odd root of D mod 4N) fixes the level ideal
    (N, b1), and is kept reduced mod 2N, which names the same ideal.
    Heegner points are built on its conjugate (N, -b1), and theta values
    are normalized by the eta factor of that conjugate and of O_K.
    Passing 2N - b1 swaps the two primes over N; in every table checked
    (see README) this flips the sign of every theta value at the levels
    N = 3 mod 8 and at no other level.
    """

    D: int
    N: int
    b1: int = None
    prec: int = 80

    def __post_init__(self):
        validate_field_disc(self.D)
        level = prime_ideal_above(self.D, self.N)
        b1 = level.b if self.b1 is None else self.b1
        if b1 % 2 == 0 or (b1 * b1 - self.D) % (4 * self.N) != 0:
            raise InputError("b1 = %d is not an odd root of D mod 4N" % b1)
        object.__setattr__(self, "b1", b1 % (2 * self.N))
        if self.prec < MIN_PREC:
            raise InputError("precision must be at least %d digits" % MIN_PREC)

    @property
    def level_ideal(self):
        return QuadIdeal(self.N, self.b1, self.D)

    @property
    def class_rep(self):
        """The class representative: O_K, the only class when h(D) = 1."""
        return unit_ideal(self.D)

    @cached_property
    def class_point(self):
        """The level's Heegner point of class_rep: every form is evaluated here."""
        return heegner_point(self, self.class_rep)

    @cached_property
    def forms(self):
        """The reduced forms of discriminant -N."""
        return tuple(reduced_forms(-self.N))

    @cached_property
    def eta_factor(self):
        """eta_norm_factor at prec: it normalizes theta and is a factor of the period."""
        return theta.eta_norm_factor(self)

    @cached_property
    def reduced_points(self):
        """theta.reduce_splitcm of each form at class_point: its reduced point, phase and inverted entries."""
        return tuple(theta.reduce_splitcm(Q, self.class_point) for Q in self.forms)

    @cached_property
    def theta_integers(self):
        """theta.theta_integers: each form's theta over the eta factor, in complex floats from one
        constant per reduced point at min(prec, THETA_DIGITS) digits; ConventionError off an integer."""
        return theta.theta_integers(self, min(self.prec, THETA_DIGITS))

    @cached_property
    def thetas(self):
        """theta.reduced_theta of each form's reduced point, at min(prec, THETA_DIGITS) digits."""
        digits = min(self.prec, THETA_DIGITS)
        return tuple(theta.reduced_theta(self.D, red, digits) for red in self.reduced_points)


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
