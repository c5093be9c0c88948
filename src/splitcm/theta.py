"""Dedekind eta, binary theta series, symplectic theta at split-CM points.

Two independent evaluation paths are kept on purpose:

* theta_form collects integer representation numbers of the form and sums
  a single q-power series;
* siegel_theta sums exp(pi*i*x^t z x) over a 2d box using power tables.

They must agree to working precision on every split-CM point; the
normalized value (level_thetas) divides by the eta factor of the level.

Truncation policy: every series drops only terms whose rigorously bounded
tail is below 10^(-prec-10).
"""

from dataclasses import dataclass
from math import isqrt

import mpmath
from mpmath import mp, mpf

from .errors import InputError, ResourceError
from .numeric import GUARD_DIGITS, BigComplex
from .quadratic import HeegnerPoint, QuadForm

MAX_TAIL_TERMS = 5 * 10**6


def _point_to_mpc(tau):
    """Upper-half-plane value of a HeegnerPoint, BigComplex, or mpc-like."""
    if isinstance(tau, HeegnerPoint):
        return (-tau.b + mpmath.sqrt(tau.D)) / (2 * tau.a1 * tau.N)
    if isinstance(tau, BigComplex):
        return tau.to_mpc()
    return mpmath.mpc(tau)


def _form_tail_cutoff(Q, absq, prec):
    """Smallest T with sum_{k>T} r_Q(k) |q|^k provably < 10^(-prec-10).

    Uses r_Q(k) <= (2 sqrt(k/lam) + 1)^2 <= 9k/lam for k >= lam, where
    lam = (N/4)/(a+c) bounds the smallest Gram eigenvalue from below.
    """
    lam = mpf(-Q.disc) / (4 * (Q.a + Q.c))
    target = mpf(10) ** (-prec - 10)
    one_minus = 1 - absq
    T = 16
    while True:
        tail = (9 / lam) * (T + 2) * absq ** (T + 1) / one_minus**2
        if tail < target:
            return T
        T *= 2
        if T > MAX_TAIL_TERMS:
            raise ResourceError("theta tail needs more than %d terms" % MAX_TAIL_TERMS)


def representation_counts(Q, T):
    """r_Q(k) for 0 <= k <= T by ellipse enumeration (exact integers)."""
    r = [0] * (T + 1)
    a, b, c, d = Q.a, Q.b, Q.c, Q.disc
    mmax = isqrt(4 * c * T // -d)
    for m in range(-mmax, mmax + 1):
        # c n^2 + b m n + (a m^2 - T) <= 0
        disc_n = 4 * c * T + d * m * m
        if disc_n < 0:
            continue
        s = isqrt(disc_n)
        lo = -(s + b * m) // (2 * c)
        hi = (s - b * m) // (2 * c)
        for n in range(lo - 1, hi + 2):
            k = Q.value(m, n)
            if k <= T:
                r[k] += 1
    return r


def theta_form(Q, tau, prec):
    """Sum of q^Q(m,n) over the integer lattice, q = e^(2 pi i tau)."""
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z = _point_to_mpc(tau)
        if z.imag <= 0:
            raise InputError("theta needs a point in the upper half plane")
        q = mpmath.exp(2j * mpmath.pi * z)
        T = _form_tail_cutoff(Q, abs(q), prec)
        r = representation_counts(Q, T)
        total = mpmath.mpc(r[0])
        p = mpmath.mpc(1)
        for k in range(1, T + 1):
            p *= q
            if r[k]:
                total += r[k] * p
        return BigComplex.from_mpc(total, prec)


@dataclass(frozen=True)
class SplitCMPoint:
    """Siegel point [[2a,b],[b,2c]] * tau attached to a form of disc -N."""

    Q: QuadForm
    tau: HeegnerPoint

    def __post_init__(self):
        if self.Q.disc != -self.tau.N:
            raise InputError(
                "form discriminant %d does not match level %d" % (self.Q.disc, self.tau.N)
            )

    def z_matrix(self):
        """Entries (z11, z12, z22) under the current mpmath precision."""
        t = _point_to_mpc(self.tau)
        return 2 * self.Q.a * t, self.Q.b * t, 2 * self.Q.c * t


def _siegel_box(lam, prec):
    """Smallest S with sum_{|x|_inf >= S} exp(-pi lam |x|^2) < 10^(-prec-10)."""
    target = mpf(10) ** (-prec - 10)
    t = mpmath.exp(-mpmath.pi * lam)
    S = 4
    while True:
        u = t ** (2 * S)
        tail = 8 * t ** (S * S) * (S / (1 - u) + u / (1 - u) ** 2)
        if tail < target:
            return S
        S = S + S // 2 + 1
        if S * S > MAX_TAIL_TERMS:
            raise ResourceError("siegel box needs more than %d points" % MAX_TAIL_TERMS)


def siegel_theta(z11, z12, z22, prec):
    """theta(z) = sum exp(pi i (z11 m^2 + 2 z12 m n + z22 n^2)) over Z^2."""
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z11, z12, z22 = mpmath.mpc(z11), mpmath.mpc(z12), mpmath.mpc(z22)
        y11, y12, y22 = z11.imag, z12.imag, z22.imag
        det = y11 * y22 - y12 * y12
        if y11 <= 0 or det <= 0:
            raise InputError("imaginary part is not positive definite")
        lam = det / (y11 + y22)
        S = _siegel_box(lam, prec)
        A = mpmath.exp(1j * mpmath.pi * z11)
        B = mpmath.exp(2j * mpmath.pi * z12)
        C = mpmath.exp(1j * mpmath.pi * z22)
        Binv = 1 / B
        sq = S * S
        apow = _powers(A, sq)
        bpow = _powers(B, sq)
        bneg = _powers(Binv, sq)
        cpow = _powers(C, sq)
        total = mpmath.mpc(0)
        for m in range(-S, S + 1):
            am = apow[m * m]
            for n in range(-S, S + 1):
                mn = m * n
                bmn = bpow[mn] if mn >= 0 else bneg[-mn]
                total += am * bmn * cpow[n * n]
        return BigComplex.from_mpc(total, prec)


def _powers(x, top):
    out = [mpmath.mpc(1)] * (top + 1)
    for i in range(1, top + 1):
        out[i] = out[i - 1] * x
    return out


def symplectic_theta_splitcm(point, prec):
    """Direct Siegel-theta evaluation at a split-CM point."""
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z11, z12, z22 = point.z_matrix()
    return siegel_theta(z11, z12, z22, prec)


def dedekind_eta(z, prec):
    """eta(z) = e^(2 pi i z/24) * prod (1 - e^(2 pi i n z)), Im z > 0.

    Evaluated through the pentagonal-number series of the product.
    """
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z = _point_to_mpc(z)
        if z.imag <= 0:
            raise InputError("eta needs a point in the upper half plane")
        q = mpmath.exp(2j * mpmath.pi * z)
        absq = abs(q)
        cut = mpf(10) ** (-prec - 12)
        total = mpmath.mpc(1)
        k = 1
        while True:
            e1 = k * (3 * k - 1) // 2
            e2 = k * (3 * k + 1) // 2
            term = q**e1 + q**e2
            total += term if k % 2 == 0 else -term
            # tail of the alternating series is below twice the next term
            if absq**e1 < cut:
                break
            k += 1
            if e1 > MAX_TAIL_TERMS:
                raise ResourceError("eta series needs more than %d terms" % MAX_TAIL_TERMS)
        total *= mpmath.exp(2j * mpmath.pi * z / 24)
        return BigComplex.from_mpc(total, prec)


def _e48(k, prec):
    """exp(2 pi i k / 48) for integer k."""
    with mp.workdps(prec + GUARD_DIGITS + 5):
        return mpmath.exp(2j * mpmath.pi * (k % 48) / 48)


def eta_ideal(ideal, prec):
    """e48(a(b+3)) * eta((-b+sqrt(d))/(2a)) for the ideal (a, b)."""
    a, b = ideal.a, ideal.b
    with mp.workdps(prec + GUARD_DIGITS + 5):
        tau = (-b + mpmath.sqrt(ideal.d)) / (2 * a)
        value = _e48(a * (b + 3), prec) * dedekind_eta(BigComplex.from_mpc(tau, prec), prec).to_mpc()
        return BigComplex.from_mpc(value, prec)


def eta_norm_factor(ctx):
    """The eta product normalizing theta at level N.

    The product of the per-ideal values for the conjugate (N, -b1) of the
    level ideal and for the class representative O_K = (1, 1).
    """
    return eta_ideal(ctx.level_ideal.conjugate(), ctx.prec) * eta_ideal(ctx.class_rep, ctx.prec)


@dataclass(frozen=True)
class LevelThetas:
    """One level's theta series at its class point, and their normalization.

    raw[i] is theta_form of forms[i]; eta = eta_norm_factor depends only on
    the level, so it is computed once for all forms.  The normalized value
    of a form is raw / eta.
    """

    forms: tuple
    raw: tuple
    eta: BigComplex

    def normalized(self):
        return [value / self.eta for value in self.raw]


def level_thetas(ctx, forms):
    """LevelThetas of forms of discriminant -N at the context's class point.

    The normalized values are real and integral.
    """
    forms = tuple(forms)
    for Q in forms:
        if Q.disc != -ctx.N:
            raise InputError("form discriminant %d is not -N = %d" % (Q.disc, -ctx.N))
    raw = tuple(theta_form(Q, ctx.class_point, ctx.prec) for Q in forms)
    return LevelThetas(forms, raw, eta_norm_factor(ctx))
