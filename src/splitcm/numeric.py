"""Arbitrary-precision complex values with an explicit decimal precision tag.

BigComplex wraps a pair of mpmath reals plus the number of decimal digits
they are good for.  Arithmetic, with another BigComplex or an int, carries
the minimum precision of the operands and is evaluated with guard digits;
comparisons always take an explicit tolerance.  Instances are immutable.
"""

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from .errors import InputError

GUARD_DIGITS = 10


@dataclass(frozen=True)
class BigComplex:
    re: object
    im: object
    prec: int

    @classmethod
    def make(cls, re, im=0, prec=53):
        if prec <= 0:
            raise InputError("precision must be positive, got %r" % (prec,))
        with mp.workdps(prec + GUARD_DIGITS):
            return cls(mpf(re), mpf(im), prec)

    @classmethod
    def from_mpc(cls, z, prec):
        with mp.workdps(prec + GUARD_DIGITS):
            return cls(mpf(z.real), mpf(z.imag), prec)

    def to_mpc(self):
        with mp.workdps(self.prec + GUARD_DIGITS):
            return mpmath.mpc(self.re, self.im)

    def _coerce(self, other):
        if isinstance(other, BigComplex):
            return other
        if isinstance(other, int):
            return BigComplex.make(other, 0, self.prec)
        return NotImplemented

    def _binary(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = min(self.prec, other.prec)
        with mp.workdps(prec + GUARD_DIGITS):
            z = op(self.to_mpc(), other.to_mpc())
            return BigComplex(mpf(z.real), mpf(z.imag), prec)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def distance(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        with mp.workdps(prec + GUARD_DIGITS):
            return abs(self.to_mpc() - other.to_mpc())

    def nearest_int(self):
        """(n, err): nearest rational integer to re and the full 2d distance."""
        with mp.workdps(self.prec + GUARD_DIGITS):
            n = int(mpmath.nint(self.re))
            err = abs(self.to_mpc() - n)
        return n, err

    def __str__(self):
        return "(%s + %s*i) @%ddg" % (mpmath.nstr(self.re, 15), mpmath.nstr(self.im, 15), self.prec)
