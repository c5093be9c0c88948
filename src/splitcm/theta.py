"""Dedekind eta, binary theta series, symplectic theta at split-CM points.

A form Q = [a, b, c] of discriminant -N has the split-CM point
Z = tau [[2a, b], [b, 2c]] at the level's class point tau, and
theta(Z) = sum exp(pi i x^t Z x) = sum_x q^Q(x), q = e^(2 pi i tau).  Three
evaluations of it are kept on purpose, each with its own kernel:

* the reduced path, which the product reads (HeckeContext.thetas):
  reduce_splitcm moves Z by Sp4(Z) into the Siegel fundamental domain in
  exact integer arithmetic, and reduced_theta multiplies siegel_theta at
  the reduced point, evaluated once per (D, point, digits), by a root of
  unity and the roots of the entries that the reduction inverted.  Its
  cost does not grow with N;
* theta_form sums the q-series of one form's integer representation
  numbers by Horner's rule over a table of q-powers (_q_series, which
  also sums dedekind_eta's pentagonal series);
* siegel_theta at Z itself (symplectic_theta_splitcm) sums
  exp(pi*i*x^t z x) over a 2d box, row by row, by Horner's rule outward
  from each row's largest term, over a range of each row solved in closed
  form, along the axis of the smaller Im diagonal entry (few long rows).

The last two are independent of the reduction and stay as its checks:
the class invariant that classify compares every reduced value with comes
from theta_form (discover_classes), and the tests compare the three paths.
The normalized value divides by the eta factor of the level, which
HeckeContext.eta_factor computes once per level.

That factor (eta_norm_factor) takes eta at the level point gamma tau0 from
eta at tau0 = (-1 + sqrt(D))/2 by the modular transformation (c > 0, principal
square root, eps(gamma) exact by a Dedekind sum): dedekind_eta runs only at tau0.

Truncation and rounding policy: every series drops only terms whose
rigorously bounded tail is below 10^(-prec-10) (10^(-prec-12) for eta).
The kernels then sum in Gaussian fixed point: a complex value x is held as
the integer pair 2^P x, truncated, and each product of two such values is
shifted back by P bits, which costs at most sqrt(2) 2^-P per product.
(a + i b)(c + i d) is k - b (c + d) + i (k + a (d - c)), k = c (a + b):
three integer products, the four-product form's integers.  Each kernel writes its rounding bound, (terms) x (steps) x 2^-P, next to its tail
bound and takes P from _fixed_bits, so that the bound is also below the
tail target:

* _q_series: 2 T (R + 1) 2^-P, for the Horner steps up to the top power T
  of a q-series whose integer coefficients have absolute sum R.
  theta_form and dedekind_eta both sum through it: theta_form over the
  nonzero representation numbers up to the form's least cutoff T (at
  least 16) that passes the tail bound, dedekind_eta over its +-1
  pentagonal terms.  Every step runs at the one scale 2^-P, and the
  table of q-powers, stepped in Gaussian fixed point a little finer than
  2^-P and truncated toward zero once to 2^-P, stays within the same bound;
* siegel_theta: 24 (2S+1)^4 2^-P, of which it uses less than 4 (2S+1)^4.
  A row's terms t(m, n0 +- j) are t(m, n0) rho^j G_j, rho the row's first
  ratio up or down and G_j = (C^2)^(j (j-1)/2) from one table per call,
  so each direction is one Horner sum at one product per term.  The
  Horner steps, the G table (stepped at L bits and truncated once to
  2^-P) and the start values keep each row within 2 (2S+1)^2 units of
  2^-P, the 2S + 1 rows with their mirrors within 2 (2S+1)^3.  Each
  direction's length is solved in floats from the Gaussian |t(m, n)| at
  2^(7-P), one bit below the 2^(8-P) allowed a dropped term, and the rows
  stop once a row's largest term is below 2^(8-P): the at most (2S+1)^2
  dropped terms add less than 2^8 (2S+1)^2 units (see siegel_theta).
  The rows' start terms and first ratios come from a walk on integer
  mantissas, each product shifted down to L = P + 22 + 2 bitlen(S) bits
  within relative sqrt(2) 2^(1-L), which the same bound covers;
* reduced_theta: M times siegel_theta's bound at the reduced point, with
  M = prod_j |w_j|^(-1/2) over the inverted entries w_j, exact from their
  norms, plus the rounding of its few mpmath operations (see there).

Both tail cutoffs, theta's T (_form_tail_cutoff) and the Siegel box S
(_siegel_box), are decided on the log of their tail bound in floats, and
on the bound itself, in mpmath, only where that log lies within a
relative 10^-6 of the target's, so they are the ones the exact bounds
give.  The representation numbers come from the lattice points of one
half plane, each counted with its negative (representation_counts).  A
form whose ellipse may hold more than MAX_TAIL_TERMS lattice points is
refused with ResourceError before any point is visited.

The error of a product of fixed-point values stays within these bounds only
because no table entry or step factor exceeds 1 in modulus, and each bound
counts the size of the partial sums that its steps multiply.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, expm1, floor, gcd, isqrt, log, log1p, pi, sqrt

import mpmath
from mpmath import mp, mpf

from .errors import InputError, InternalError, ResourceError
from .numeric import GUARD_DIGITS, BigComplex
from .quadratic import HeegnerPoint, QuadForm, reduce_form

# the most lattice points of one theta form, points of a Siegel box, or eta exponents
MAX_TAIL_TERMS = 5 * 10**6
# a Siegel box sum may drop terms below 2^STOP_BITS units
STOP_BITS = 8


def _point_to_mpc(tau):
    """Upper-half-plane value of a HeegnerPoint or mpc-like."""
    if isinstance(tau, HeegnerPoint):
        return (-tau.b + mpmath.sqrt(tau.D)) / (2 * tau.a1 * tau.N)
    return mpmath.mpc(tau)


def _fixed_bits(digits, count):
    """A scale P with count * 2^-P < 10^-digits."""
    return digits * 3322 // 1000 + 1 + count.bit_length()


def _to_fixed(z, P):
    """The Gaussian integer 2^P z, each part truncated toward zero.

    z must be computed to at least P bits after the binary point.
    """
    return int(mpmath.ldexp(z.real, P)), int(mpmath.ldexp(z.imag, P))


def _from_fixed(x, y, P, prec):
    """BigComplex of (x + i y) 2^-P at prec digits."""
    with mp.workdps(prec + GUARD_DIGITS):
        return BigComplex(mpf((x, -P)), mpf((y, -P)), prec)


def _form_tail(Q, absq, T):
    """A bound on sum_{k>T} r_Q(k) |q|^k.

    Uses r_Q(k) <= (2 sqrt(k/lam) + 1)^2 <= 9k/lam for k >= lam, where
    lam = (N/4)/(a+c) bounds the smallest Gram eigenvalue from below, and
    r_Q(k) = 0 for 0 < k < lam; then sum_{k>T} k |q|^k is at most
    (T + 2) |q|^(T+1) / (1 - |q|)^2.
    """
    lam = mpf(-Q.disc) / (4 * (Q.a + Q.c))
    return (9 / lam) * (T + 2) * absq ** (T + 1) / (1 - absq) ** 2


def _lattice_points(Q, T):
    """An upper bound on the number of (m, n) with Q(m, n) <= T.

    The ellipse Q(m, n) <= T has area 2 pi T/sqrt|disc Q| and spans the
    2 mmax + 1 rows |m| <= mmax.  Row m holds at most L_m + 1 points for
    its length L_m, and the L_m, unimodal in m, sum to at most the area
    plus the longest, L_0 = 2 sqrt(T/c).
    """
    return int(2 * pi * T / sqrt(-Q.disc) + 2 * sqrt(T / Q.c)) + 2 * isqrt(4 * Q.c * T // -Q.disc) + 2


def _form_tail_cutoff(Q, y, prec):
    """Least T >= 16 with _form_tail(Q, |q|, T) < 10^(-prec-10), |q| = e^(-2 pi y).

    The log of the bound over the target, base + log(T + 2) + (T + 1) log|q|
    with log|q| = -2 pi y, is concave in T, so when T = 16 fails, the
    T >= 16 that pass form one interval [T0, oo).  Doubling and bisection
    on that log in floats put a T near T0, and steps of one settle T0.
    Each step decides on the float log, and on the bound itself, in mpmath
    at the caller's precision, only where that log lies within a relative
    10^-6 of the target's, as _siegel_box does.  The float log's terms are
    each within a few multiples of the target's log, so its rounding is
    far inside that window and T is the one the exact bound gives.

    Raises ResourceError when the ellipse Q(m, n) <= T may hold more than
    MAX_TAIL_TERMS lattice points (_lattice_points), before any is visited;
    the doubling checks each T it steps past, so that a tiny y, whose T the
    float log no longer resolves to one step, is refused at once.  A y
    whose log|q| underflows to 0 in floats is refused before the search.
    """
    ltarget = (prec + 10) * log(10)
    lq = -2 * pi * float(y)
    if lq == 0:
        raise ResourceError(
            "theta of %s: Im tau = %s is below the float range that sizes the cutoff T" % (Q, mpmath.nstr(y, 3))
        )
    # log(bound at T = -1) - log(target) = log(9/lam) - 2 log(1 - |q|) + (prec + 10) log 10
    base = log(9 * 4 * (Q.a + Q.c) / -Q.disc) - 2 * log(-expm1(lq)) + ltarget

    def excess(T):
        return base + log(T + 2) + (T + 1) * lq

    def passes(T):
        if abs(excess(T)) <= 1e-6 * ltarget:
            return _form_tail(Q, mpmath.exp(-2 * mpmath.pi * y), T) < mpf(10) ** (-prec - 10)
        return excess(T) < 0

    def check_points(T):
        # called with T no larger than the cutoff
        points = _lattice_points(Q, T)
        if points > MAX_TAIL_TERMS:
            raise ResourceError(
                "theta of %s needs a cutoff T >= %d, where up to %d lattice points lie, more than %d"
                % (Q, T, points, MAX_TAIL_TERMS)
            )

    if passes(16):
        return 16
    lo, hi = 16, 32
    while not excess(hi) < 0:
        lo, hi = hi, 2 * hi
        check_points(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if excess(mid) < 0:
            hi = mid
        else:
            lo = mid
    T = hi
    while not passes(T):
        T += 1
    while T > 16 and passes(T - 1):
        T -= 1
    check_points(T)
    return T


def representation_counts(Q, T):
    """The nonzero r_Q(k), 0 <= k <= T, as {k: r_Q(k)}, by ellipse enumeration.

    Q(-m, -n) = Q(m, n), so only the half plane m > 0, or m = 0 and n > 0,
    is enumerated, each point counting twice, and r_Q(0) = 1.  Along each
    row m, Q(m, n) is stepped by its first difference
    Q(m, n + 1) - Q(m, n) = b m + c (2n + 1), which grows by 2c per step.
    Q(n, m) = [c, b, a], of the same r_Q(k), is enumerated when a < c: fewer rows.
    """
    if Q.a < Q.c:
        Q = QuadForm(Q.c, Q.b, Q.a)
    a, b, c, d = Q.a, Q.b, Q.c, Q.disc
    r = {0: 1}
    get = r.get
    for m in range(isqrt(4 * c * T // -d) + 1):
        # c n^2 + b m n + (a m^2 - T) <= 0
        s = isqrt(4 * c * T + d * m * m)
        lo = -(s + b * m) // (2 * c) - 1 if m else 1
        hi = (s - b * m) // (2 * c) + 1
        k = Q.value(m, lo)
        step = b * m + c * (2 * lo + 1)
        for _ in range(hi - lo + 1):
            if k <= T:
                r[k] = get(k, 0) + 2
            k += step
            step += 2 * c
    return r


def _truncate(x, bits):
    """x / 2^bits truncated toward zero."""
    return x >> bits if x >= 0 else -(-x >> bits)


def _q_series(ks, cs, z, P):
    """The Gaussian integer 2^P sum_k c_k q^k, q = e^(2 pi i z), within 2 T (R + 1) of it.

    ks are the increasing exponents, from ks[0] = 0, and cs[i] the integer
    coefficient c_k at k = ks[i], of either sign; T = ks[-1] and
    R = sum_k |c_k|.  Horner's rule in Gaussian fixed point at the one
    scale 2^-P: from one k to the next lower one k', h becomes
    h q^(k-k') + c_k', with q^(k-k') from a table of powers up to the
    largest gap G between consecutive exponents.

    q comes from one mpmath exp at W = P + 20 + bitlen(G) bits, and its
    powers q^g = q^(g-1) q are stepped in Gaussian fixed point at scale
    2^-W, each product shifted back by W bits.  With w = |2 pi z|, the
    exponent 2 pi i z is rounded within 3 w 2^-W and the exp within
    relative (3 w + 1) 2^-W, so 2^W q is within 3 w + 3 units, and each
    step adds at most that error of q plus sqrt(2) for its shift: q^g is
    within g (3 w + 5) units of 2^-W, below (3 w + 5) 2^-20 of 2^-P for
    g <= G.  Each power is truncated toward zero once to 2^-P, so that it
    is within (sqrt(2) + (3 w + 5) 2^-20) 2^-P of q^g and no entry exceeds
    |q|^g in modulus.

    A step adds below sqrt(2) 2^-P of rounding and |h| sqrt(2) 2^-P from
    the truncated entry, with |h| <= R; the later steps multiply both by
    at most 1.  Over the at most T steps, the error is below
    sqrt(2) T (R + 1) 2^-P < 2 T (R + 1) 2^-P; while 3 w + 5 < 2^19, the
    excess of the entries over sqrt(2) 2^-P lies inside that slack.
    """
    top_gap = max((b - a for a, b in zip(ks, ks[1:])), default=0)
    W = P + 20 + top_gap.bit_length()
    with mp.workprec(W):
        qr, qi = _to_fixed(mpmath.exp(2j * mpmath.pi * z), W)
    qs, qd = qr + qi, qi - qr
    xr, xi = 1 << W, 0
    table = [None]
    for _ in range(top_gap):
        g = qr * (xr + xi)
        xr, xi = (g - xi * qs) >> W, (g + xr * qd) >> W
        er, ei = _truncate(xr, W - P), _truncate(xi, W - P)
        table.append((er, er + ei, ei - er))
    hr, hi = cs[-1] << P, 0
    for i in range(len(ks) - 2, -1, -1):
        er, es, ed = table[ks[i + 1] - ks[i]]
        g = er * (hr + hi)
        hr, hi = ((g - hi * es) >> P) + (cs[i] << P), (g + hr * ed) >> P
    return hr, hi


def theta_form(Q, tau, prec):
    """Sum of q^Q(m,n) over the integer lattice, q = e^(2 pi i tau).

    The q-series of the nonzero representation numbers r_Q(k), k <= T, for
    the form's cutoff T, summed by _q_series at P = _fixed_bits(prec + 10,
    2 T (R + 1)), R = sum r_Q(k), within its bound 2 T (R + 1) 2^-P.
    """
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z = _point_to_mpc(tau)
        if z.imag <= 0:
            raise InputError("theta needs a point in the upper half plane")
        T = _form_tail_cutoff(Q, z.imag, prec)
    r = representation_counts(Q, T)
    ks = sorted(r)
    P = _fixed_bits(prec + 10, 2 * T * (sum(r.values()) + 1))
    return _from_fixed(*_q_series(ks, [r[k] for k in ks], z, P), P, prec)


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
    """Smallest S with sum_{|x|_inf >= S} exp(-pi lam |x|^2) < 10^(-prec-10).

    S runs through 4, 7, 11, 17, ... and is tried on the bound
    8 t^(S^2) (S/(1-u) + u/(1-u)^2), t = e^(-pi lam), u = t^(2S), by its log
    in floats; only where that log lies within a relative 10^-6 of the
    target's is the bound itself evaluated, in mpmath at the caller's
    precision, so S is the one the exact bound gives.

    Every S within the cap, S^2 <= MAX_TAIL_TERMS, leaves a bound above
    8 t^MAX_TAIL_TERMS.  Where t^MAX_TAIL_TERMS alone exceeds the target,
    no S passes, and ResourceError is raised before any S is tried; this
    also refuses a lam that underflows in floats, where u = 1.
    """
    ltarget = -(prec + 10) * log(10)
    lt = -pi * float(lam)
    if MAX_TAIL_TERMS * lt > ltarget:
        raise ResourceError(
            "siegel box needs more than %d points for lam = %s" % (MAX_TAIL_TERMS, mpmath.nstr(lam, 3))
        )
    S = 4
    while True:
        # with v = 1 - u, log(S/(1-u) + u/(1-u)^2) = log(1 + (S-1) v) - 2 log v
        v = -expm1(2 * S * lt)
        ltail = log(8) + S * S * lt + log1p((S - 1) * v) - 2 * log(v)
        if abs(ltail - ltarget) <= 1e-6 * -ltarget:
            t = mpmath.exp(-mpmath.pi * lam)
            u = t ** (2 * S)
            passes = 8 * t ** (S * S) * (S / (1 - u) + u / (1 - u) ** 2) < mpf(10) ** (-prec - 10)
        else:
            passes = ltail < ltarget
        if passes:
            return S
        S = S + S // 2 + 1
        if S * S > MAX_TAIL_TERMS:
            raise ResourceError("siegel box needs more than %d points" % MAX_TAIL_TERMS)


def _parts(v):
    """(x, y, e) with (x + i y) 2^e equal to the mpc v."""
    (x, ex), (y, ey) = v.real.man_exp, v.imag.man_exp
    e = min(ex, ey)
    return (-x if v.real < 0 else x) << (ex - e), (-y if v.imag < 0 else y) << (ey - e), e


def _mul(u, v, L):
    """The product of (x + i y) 2^e values, both parts shifted by one count s down to L bits:
    within relative sqrt(2) 2^(1-L), as a part loses below 2^s and the larger keeps 2^(L+s-1)."""
    (a, b, e), (c, d, f) = u, v
    k = c * (a + b)
    x, y = k - b * (c + d), k + a * (d - c)
    s = max(x.bit_length(), y.bit_length(), L) - L
    return x >> s, y >> s, e + f + s


def _inverse(u, L):
    """1/u = (x - i y) 2^k/(x^2 + y^2) at 2^(-e-k) for u = (x + i y) 2^e, each part
    floored: of modulus >= 2^(L+1), so within relative 2^-L."""
    x, y, e = u
    n = x * x + y * y
    k = L + 1 + (n.bit_length() + 1) // 2
    return (x << k) // n, (-y << k) // n, -e - k


def _scaled(u, P):
    """The Gaussian integer 2^P (x + i y) 2^e, each part truncated toward zero."""
    x, y, e = u
    if e + P >= 0:
        return x << (e + P), y << (e + P)
    return _truncate(x, -e - P), _truncate(y, -e - P)


def _siegel_rows(y12, y22, det, S, P):
    """(n0, down, up) for each row m = 0, 1, ... that siegel_theta sums.

    In n, |t(m, n)| = exp(-pi (y22 (n - c)^2 + m^2 det/y22)) is a Gaussian
    centred at c = -m y12/y22.  The row starts at n0 = round(c), clamped
    to the box, and sums n0 - down .. n0 + up: n0 and the integers of the
    box whose term is at least 2^(STOP_BITS - 1 - P), that is
    y22 (n - c)^2 + m^2 det/y22 <= (P - STOP_BITS + 1) ln 2/pi.  The rows
    stop at the first m > 0 whose real maximum exp(-pi m^2 det/y22) is
    below 2^(STOP_BITS - P).  Both are solved in floats; their rounding,
    relative 10^-13 or so of the exponents, lies far inside the one bit
    between the solved 2^(STOP_BITS - 1 - P) and the 2^(STOP_BITS - P)
    that siegel_theta allows a dropped term, so every term the sum leaves
    out is below 2^(STOP_BITS - P).
    """
    shift, width, fall = float(-y12 / y22), float(y22), float(det / y22)
    cut = (P - STOP_BITS) * log(2) / pi
    bound = cut + log(2) / pi
    spans = []
    for m in range(min(S, int(sqrt(cut / fall))) + 1):
        c = m * shift
        # m = 0 is kept off fall, which overflows to inf for a huge y11
        r = sqrt((bound - m * m * fall if m else bound) / width)
        n0 = max(-S, min(S, round(c)))
        spans.append((n0, max(0, n0 - max(-S, ceil(c - r))), max(0, min(S, floor(c + r)) - n0)))
    return spans


def siegel_theta(z11, z12, z22, prec):
    """theta(z) = sum exp(pi i (z11 m^2 + 2 z12 m n + z22 n^2)) over Z^2.

    Box sum over |m|, |n| <= S in Gaussian fixed point.  When y11 < y22,
    z11 and z22 are exchanged, as theta(PzP) = theta(z), P = [[0, 1], [1, 0]],
    so rows run along the smaller y22: about sqrt(y22/det) of them.  The
    term t(m, n) is even in (m, n), so row -m repeats row m and only rows
    m = 0..S are summed.  Row m starts at its largest term, n0 = round(-m y12/y22)
    clamped to the box.  With rho = t(m, n0 +- 1)/t(m, n0), the ratio one
    step up or down, the ratio of each next step gains the factor
    C^2 = e^(2 pi i z22), so the term j steps out is
    t(m, n0 +- j) = t(m, n0) rho^j G_j, G_j = (C^2)^(j (j-1)/2), in either
    direction.  The row is t(m, n0) (1 + rho+ H+ + rho- H-), where a
    direction of J terms has H = G_1 + rho G_2 + ... + rho^(J-1) G_J,
    summed by Horner's rule at one complex product per term.  The G_j
    come from one table per call that every row and both directions share.
    In n, |t(m, n)| is a Gaussian centred at -m y12/y22, which lies within
    1/2 of n0 or beyond the box edge n0, so |t| falls from n0 outward:
    every term, rho and G_j that a sum uses has modulus <= 1, whatever the
    sign of Im z12, and |H| <= J.  Each direction's J is solved in closed
    form (_siegel_rows): the row sums n0 and every term of the box of at
    least 2^(7-P), one bit below 2^(STOP_BITS-P) = 2^(8-P), and the rows
    stop at the first m > 0 whose largest term is below 2^(8-P).

    The bound, in units of 2^-P, with w = pi max |z_ij|:
    * A start term t(m, n0) or ratio rho, truncated from the mantissa walk
      below, is within sqrt(2) + (w + 7) 2^-18 < 2.5 while w + 7 < 2^18.
    * G_(j+1) = G_j (C^2)^j is stepped at scale 2^-L from C^2, itself
      within 4 (w + 4) units of 2^-L, so G_j is within 3 j^2 (w + 4)
      units of 2^-L; for j <= 2S, 2^(L-P) > 2^22 S^2 makes that below
      (w + 4) 2^-18, and the entry, truncated once to 2^-P, is within 2.5.
    * A Horner step multiplies h, |h| <= J, by rho: with rho's 2.5, the
      step's sqrt(2) and G_j's 2.5, H is within 1.25 J^2 + 4 J and rho H
      within 1.25 J^2 + 6.5 J + 1.5.  The two directions have
      J+ + J- <= 2S, so 1 + rho+ H+ + rho- H-, of modulus <= 2S + 1, is
      within 5 S^2 + 13 S + 3, and the row, times t(m, n0), within
      5 S^2 + 18 S + 7 <= 2 (2S+1)^2 for S >= 4.  The 2S + 1 rows, counted
      with their mirrors, are within 2 (2S+1)^3.
    * The dropped terms: up to the float rounding of _siegel_rows, which
      the one-bit margin absorbs, every term left out of a summed row is
      below 2^(7-P), and every term of a row past the last is below
      2^(8-P) (their maxima fall with m, while the start terms need not).
      At most (2S+1)^2 terms, each below 2^(8-P), drop less than
      2^8 (2S+1)^2.
    With S >= 4, so (2S+1)^2 >= 81, rounding and dropped terms together
    stay below 4 (2S+1)^4 2^-P, inside the 24 (2S+1)^4 2^-P that P is
    sized from.

    The start values t(m, n0) and the first ratios of each row come from a
    walk along the path (m, n0(m)) on integer mantissas (x + i y) 2^e,
    which keep relative precision however large B^m = e^(2 pi i z12 m)
    becomes.  _mul shifts a product down to L = P + 22 + 2 bitlen(S) bits,
    within relative sqrt(2) 2^(1-L).  A, B and C, mpmath.expjpi of z11,
    2 z12 and z22 at L bits, are within relative (w + 3) 2^(1-L), the
    rounding of 2 z12 included, and A^2, C^2 (_mul), B^-1 and C^-2
    (_inverse) within (w + 5) 2^(1-L).
    Each of up, down and across is a constant times at most 2S step
    factors, and t is at most 2S products of these, so a value's relative
    errors add up to at most (2S+1)^2 (w + 7) 2^(1-L), and the value is
    within relative (2S+1)^2 (w + 7) 2^(2-L) < (w + 7) 2^(-18-P) of exact.
    Truncated to 2^-P, a start term or first ratio, of modulus <= 1, is
    within (sqrt(2) + (w + 7) 2^-18) 2^-P, the 2.5 units used above.
    """
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z11, z12, z22 = mpmath.mpc(z11), mpmath.mpc(z12), mpmath.mpc(z22)
        if z11.imag < z22.imag:
            z11, z22 = z22, z11
        y11, y12, y22 = z11.imag, z12.imag, z22.imag
        det = y11 * y22 - y12 * y12
        if y11 <= 0 or det <= 0:
            raise InputError("imaginary part is not positive definite")
        lam = det / (y11 + y22)
        S = _siegel_box(lam, prec)
        P = _fixed_bits(prec + 10, 24 * (2 * S + 1) ** 4)
        spans = _siegel_rows(y12, y22, det, S, P)
    L = P + 22 + 2 * S.bit_length()
    with mp.workprec(L):
        A, B, C = (_parts(mpmath.expjpi(z)) for z in (z11, 2 * z12, z22))
    A2, C2 = _mul(A, A, L), _mul(C, C, L)
    Binv, C2inv = _inverse(B, L), _inverse(C2, L)
    # G[j] = 2^P G_j for j = 0 .. the longest direction, G_0 = G_1 = 1
    # G_(j+1) = G_j (C^2)^j, stepped at scale 2^-L and truncated once to 2^-P
    c2r, c2i = _scaled(C2, L)
    c2s, c2d = c2r + c2i, c2i - c2r
    xr, xi, cr, ci = 1 << L, 0, c2r, c2i
    G = [(1 << P, 0), (1 << P, 0)]
    for _ in range(1, max(max(down, up) for _, down, up in spans)):
        k = cr * (xr + xi)
        xr, xi = (k - xi * (cr + ci)) >> L, (k + xr * (ci - cr)) >> L
        k = c2r * (cr + ci)
        cr, ci = (k - ci * c2s) >> L, (k + cr * c2d) >> L
        G.append((_truncate(xr, L - P), _truncate(xi, L - P)))
    # at (m, n): t = t(m, n); up, down and across are t(m, n+1), t(m, n-1)
    # and t(m+1, n) over t, that is B^m C^(2n+1), B^-m C^(1-2n), A^(2m+1) B^n
    t, up, down, across = (1, 0, 0), C, C, A
    n = 0
    sr = si = 0
    for m, (n0, below, above) in enumerate(spans):
        while n < n0:
            t = _mul(t, up, L)
            up, down, across = _mul(up, C2, L), _mul(down, C2inv, L), _mul(across, B, L)
            n += 1
        while n > n0:
            t = _mul(t, down, L)
            up, down, across = _mul(up, C2inv, L), _mul(down, C2, L), _mul(across, Binv, L)
            n -= 1
        # f = 1 + rho+ H+ + rho- H-, each 1 + rho H by Horner down to G_0 = 1
        fr, fi = 1 << P, 0
        for ratio, J in ((up, above), (down, below)):
            if J:
                rr, ri = _scaled(ratio, P)
                rs, rd = rr + ri, ri - rr
                hr, hi = G[J]
                for gr, gi in G[J - 1 :: -1]:
                    k = rr * (hr + hi)
                    hr, hi = ((k - hi * rs) >> P) + gr, ((k + hr * rd) >> P) + gi
                fr, fi = fr + hr - (1 << P), fi + hi
        tr, ti = _scaled(t, P)
        k = tr * (fr + fi)
        weight = 2 if m else 1
        sr += weight * ((k - fi * (tr + ti)) >> P)
        si += weight * ((k + fr * (ti - tr)) >> P)
        t = _mul(t, across, L)
        up, down, across = _mul(up, B, L), _mul(down, Binv, L), _mul(across, A2, L)
    return _from_fixed(sr, si, P, prec)


def symplectic_theta_splitcm(point, prec):
    """Direct Siegel-theta evaluation at a split-CM point."""
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z11, z12, z22 = point.z_matrix()
    return siegel_theta(z11, z12, z22, prec)


@dataclass(frozen=True)
class ReducedPoint:
    """A form's split-CM point Z, reduced by Sp4(Z) (reduce_splitcm).

    theta(Z) = e(eighths/8) prod_j (-i w_j)^(-1/2) theta(point), with
    e(x) = exp(2 pi i x) and principal roots.  A point is the seven
    integers (x11, x12, x22, y11, y12, y22, d) of Z = (X + Y sqrt(D))/d,
    X and Y symmetric and d > 0, with no common factor.  key is the
    reduced Z' in the Siegel fundamental domain, which names the Sp4(Z)
    orbit of Z; point is Z'' = Z' after the moves that take its
    characteristic to 0; inverted holds each inverted entry
    w_j = (x + y sqrt(D))/d as (x, y, d).
    """

    key: tuple
    point: tuple
    eighths: int
    inverted: tuple


def _gauss(z, ch):
    """Z -> U Z U^t for U = M^t, M the matrix of reduce_form on Y's form [y11, 2 y12, y22].

    reduce_form's g(w) = f(M w) means M^t Y M is Gauss-reduced.  The doubled
    characteristic (A, B) = (2a, 2b) goes to (U^-t A, U B) = (M^-1 A, M^t B).
    """
    x11, x12, x22, y11, y12, y22, d = z
    A1, A2, B1, B2 = ch
    g = gcd(y11, 2 * y12, y22)
    _, (p, q, r, s) = reduce_form(QuadForm(y11 // g, 2 * y12 // g, y22 // g))

    def congruent(u11, u12, u22):
        # the entries of M^t [[u11, u12], [u12, u22]] M
        return (
            u11 * p * p + 2 * u12 * p * r + u22 * r * r,
            u11 * p * q + u12 * (p * s + q * r) + u22 * r * s,
            u11 * q * q + 2 * u12 * q * s + u22 * s * s,
        )

    ch = s * A1 - q * A2, p * A2 - r * A1, p * B1 + r * B2, q * B1 + s * B2
    return congruent(x11, x12, x22) + congruent(y11, y12, y22) + (d,), ch


def _translate(z, ch, eighths, s11, s12, s22):
    """Z -> Z - S for the integer symmetric S = [[s11, s12], [s12, s22]], and its phase.

    theta[a,b](Z' + S) = e(-a^t S a/2 - a.diag(S)/2) theta[a, b + S a + diag(S)/2](Z'),
    in eighths and doubled characteristics, then _normalized.
    """
    x11, x12, x22, y11, y12, y22, d = z
    A1, A2, B1, B2 = ch
    eighths -= s11 * A1 * (A1 + 2) + 2 * s12 * A1 * A2 + s22 * A2 * (A2 + 2)
    ch = A1, A2, B1 + s11 * (A1 + 1) + s12 * A2, B2 + s12 * A1 + s22 * (A2 + 1)
    return ((x11 - s11 * d, x12 - s12 * d, x22 - s22 * d, y11, y12, y22, d),) + _normalized(ch, eighths)


def _invert(z, ch, eighths, D, inverted):
    """The partial inversion J1: z11 -> -1/z11, z12 -> z12/z11, z22 -> z22 - z12^2/z11.

    Poisson summation over the first coordinate gives
    theta[a,b](Z) = (-i z11)^(-1/2) e(a1 b1) theta[(-b1, a2), (a1, b2)](J1 Z).
    With n = x11^2 - D y11^2 = d^2 |z11|^2, the new point has denominator
    d n before the seven integers are divided by their gcd.  Appends z11,
    as (x11, y11, d), to inverted.
    """
    x11, x12, x22, y11, y12, y22, d = z
    A1, A2, B1, B2 = ch
    n = x11 * x11 - D * y11 * y11
    # z12^2 = (p + q sqrt(D))/d^2, and d^3 z12^2 conj(z11) = (p x11 - D q y11) + (q x11 - p y11) sqrt(D)
    p, q = x12 * x12 + D * y12 * y12, 2 * x12 * y12
    w = (
        -d * d * x11,
        d * (x12 * x11 - D * y12 * y11),
        n * x22 - p * x11 + D * q * y11,
        d * d * y11,
        d * (y12 * x11 - x12 * y11),
        n * y22 - q * x11 + p * y11,
        d * n,
    )
    g = gcd(*w)
    inverted.append((x11, y11, d))
    return (tuple(v // g for v in w),) + _normalized((-B1, A2, A1, B2), eighths + 2 * A1 * B1)


def _swap(z, ch):
    """Z -> P Z P, P = [[0, 1], [1, 0]] = P^-t: the two coordinates exchanged."""
    x11, x12, x22, y11, y12, y22, d = z
    A1, A2, B1, B2 = ch
    return (x22, x12, x11, y22, y12, y11, d), (A2, A1, B2, B1)


def _normalized(ch, eighths):
    """(a, b) into {0, 1/2}^4: theta[a + j, b] = theta[a, b], theta[a, b + k] = e(a.k) theta[a, b]."""
    A1, A2, B1, B2 = ch
    a1, a2 = A1 % 2, A2 % 2
    eighths += 2 * (a1 * (B1 - B1 % 2) + a2 * (B2 - B2 % 2))
    return (a1, a2, B1 % 2, B2 % 2), eighths % 8


def reduce_splitcm(Q, tau):
    """The ReducedPoint of Q's split-CM point Z = tau [[2a, b], [b, 2c]], exactly.

    Gottschling's genus-2 reduction (Deconinck, Heil, Bobenko, van Hoeij
    and Schmies, "Computing Riemann theta functions", Math. Comp. 73
    (2004), Sec. 3): Gauss-reduce Y, which is Im Z up to the factor
    sqrt|D|/d; subtract the rounded real part S = round(X/d); stop when
    |z11| >= 1, that is x11^2 - D y11^2 >= d^2; otherwise apply J1 and
    repeat.  tau lies in Q(sqrt(D)), so every step is integer arithmetic
    on the seven integers of Z.  The characteristic (a, b), from 0, and
    the phase r follow each move by the rules of the helpers above, as in
    theta[a,b](Z) = theta[U^-t a, U b](U Z U^t) for U in GL2(Z) (Mumford,
    Tata Lectures on Theta I, II.5), with a and b kept in {0, 1/2}, doubled,
    and r in eighths.

    The characteristic stays even.  It is taken to 0 by the same moves:
    if a1 = b1 = 1/2, a translation by s12 = +-1 (evenness then forces
    a2 = b2 = 1/2, and b becomes 0); if then a1 = 1/2 and b1 = 0, J1; if
    a2 = 1/2, and so b2 = 0, J2, which is J1 on the exchanged coordinates;
    finally theta[0, b](Z') = theta(Z' + diag(2b)).
    """
    D, B = tau.D, tau.b
    # tau = (-B + sqrt(D))/d, so X = -B M and Y = M for M = [[2a, b], [b, 2c]]
    z = (-2 * B * Q.a, -B * Q.b, -2 * B * Q.c, 2 * Q.a, Q.b, 2 * Q.c, 2 * tau.a1 * tau.N)
    g = gcd(*z)
    z, ch, eighths, inverted = tuple(v // g for v in z), (0, 0, 0, 0), 0, []
    while True:
        z, ch = _gauss(z, ch)
        d = z[6]
        z, ch, eighths = _translate(z, ch, eighths, *((2 * x + d) // (2 * d) for x in z[:3]))
        if z[0] * z[0] - D * z[3] * z[3] >= d * d:
            break
        z, ch, eighths = _invert(z, ch, eighths, D, inverted)
    key = z
    if ch[0] and ch[2]:
        z, ch, eighths = _translate(z, ch, eighths, 0, 1 if z[1] >= 0 else -1, 0)
    if ch[0] and not ch[2]:
        z, ch, eighths = _invert(z, ch, eighths, D, inverted)
    if ch[1]:
        z, ch, eighths = _invert(*_swap(z, ch), eighths, D, inverted)
        z, ch = _swap(z, ch)
    if ch[0] or ch[1]:
        raise InternalError("characteristic %s of %s did not reach a = 0" % (ch, Q))
    x11, x12, x22, y11, y12, y22, d = z
    point = (x11 + ch[2] * d, x12, x22 + ch[3] * d, y11, y12, y22, d)
    return ReducedPoint(key, point, eighths, tuple(inverted))


@lru_cache(maxsize=32)
def _phase_constants(D, prec):
    """The eighth roots of unity e(k/8), k = 0..7, and sqrt|D|, at prec + GUARD_DIGITS + 5 digits."""
    with mp.workdps(prec + GUARD_DIGITS + 5):
        return tuple(mpmath.expjpi(mpf(k) / 4) for k in range(8)), mpmath.sqrt(-D)


@lru_cache(maxsize=None)
def _reduced_siegel(D, point, prec):
    """siegel_theta at a reduced point as an mpc, once per (D, point, prec); each D has a few dozen points."""
    x11, x12, x22, y11, y12, y22, d = point
    _, root_d = _phase_constants(D, prec)
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z11, z12, z22 = (mpmath.mpc(x, y * root_d) / d for x, y in ((x11, y11), (x12, y12), (x22, y22)))
    return siegel_theta(z11, z12, z22, prec).to_mpc()


def reduced_theta(D, red, prec):
    """theta(Z) at prec digits from Z's ReducedPoint red: no q-series at all.

    theta(Z) = e(r) prod_j (-i w_j)^(-1/2) theta(Z''), with theta(Z'') from
    siegel_theta, once per (D, Z'', prec).  The J roots take one complex
    square root: of (-i)^J W, with W = prod_j w_j exact in Q(sqrt(D)).  The
    product of the principal roots is that root times +-1, and the sign is
    read from the product of the principal roots in floats.

    Bound: siegel_theta is within 10^-(prec+10) of theta at the entries of
    Z'' it is given, and the factor e(r)/root has modulus
    M = prod_j |w_j|^(-1/2), exactly prod_j (d_j^2/(x_j^2 - D y_j^2))^(1/4)
    from the norms, so the value is within M 10^-(prec+10) of theta(Z).
    To that add the rounding of the entries of Z'', of W's value, its root,
    one product and one quotient: at most about eight operations at
    prec + GUARD_DIGITS + 5 digits, each within a relative
    10^-(prec+GUARD_DIGITS+4) of the value it makes.
    """
    roots, root_d = _phase_constants(D, prec)
    x, y, d = 1, 0, 1
    floats = 1
    for wx, wy, wd in red.inverted:
        x, y, d = x * wx + D * y * wy, x * wy + y * wx, d * wd
        # -i w = (y sqrt|D| - i x)/d
        floats *= cmath.sqrt(complex(wy / wd * sqrt(-D), -wx / wd))
    with mp.workdps(prec + GUARD_DIGITS + 5):
        root = mpmath.sqrt(mpmath.mpc(x, y * root_d) / d * (-1j) ** len(red.inverted))
        if (floats * complex(root).conjugate()).real < 0:
            root = -root
        value = roots[red.eighths] * _reduced_siegel(D, red.point, prec) / root
    return BigComplex.from_mpc(value, prec)


def dedekind_eta(z, prec):
    """eta(z) = e^(2 pi i z/24) * prod (1 - e^(2 pi i n z)), Im z > 0.

    Evaluated through the pentagonal-number series of the product,
    1 + sum_k (-1)^k (q^e1 + q^e2) with e1 = k(3k-1)/2 and e2 = e1 + k.
    Summing stops after the first k = K with |q|^e1 < 10^(-prec-12); the
    tail of the alternating series is below twice the next term.  The
    2K + 1 terms, coefficients +-1 up to T = e2(K), are summed by _q_series
    within 2 T (2K + 2) 2^-P.
    """
    with mp.workdps(prec + GUARD_DIGITS + 5):
        z = _point_to_mpc(z)
        if z.imag <= 0:
            raise InputError("eta needs a point in the upper half plane")
        # |q|^e1 = e^(-2 pi e1 Im z) < 10^(-prec-12) exactly when the
        # integer e1 exceeds last
        last = int((prec + 12) * mpmath.ln10 / (2 * mpmath.pi * z.imag))
        if last > MAX_TAIL_TERMS:
            raise ResourceError("eta series needs more than %d terms" % MAX_TAIL_TERMS)
    c, k = {0: 1}, 0
    while k * (3 * k - 1) // 2 <= last:
        k += 1
        e1 = k * (3 * k - 1) // 2
        c[e1] = c[e1 + k] = (-1) ** k
    ks = list(c)
    P = _fixed_bits(prec + 12, 2 * ks[-1] * (len(ks) + 1))
    sr, si = _q_series(ks, list(c.values()), z, P)
    with mp.workprec(P + 20):
        total = mpmath.mpc(mpf((sr, -P)), mpf((si, -P))) * mpmath.exp(2j * mpmath.pi * z / 24)
    return BigComplex.from_mpc(total, prec)


@lru_cache(maxsize=32)
def _eta_tau0(D, prec):
    """dedekind_eta at tau0 = (-1 + sqrt(D))/2, which depends only on D and prec."""
    with mp.workdps(prec + GUARD_DIGITS + 5):
        tau0 = (mpmath.sqrt(D) - 1) / 2
    return dedekind_eta(tau0, prec)


def _dedekind_sum(h, k):
    """The Dedekind sum s(h, k), k > 0, gcd(h, k) = 1, by reciprocity: s(h, k) =
    s(h mod k, k), s(0, 1) = 0, s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4."""
    total, sign = Fraction(0), 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k, sign = k % h, h, -sign
    return total


def eta_norm_factor(ctx):
    """The eta product normalizing theta at level N.

    e48(N (b + 3)) eta(tau_N) for the conjugate (N, b) of the level ideal,
    times e48(4) eta(tau0) for O_K = (1, 1), tau0 = (-1 + sqrt(D))/2, where
    e48(k) = exp(2 pi i k/48).  As h(D) = 1, reduce_form maps tau_N's form
    [N, b, .] to tau0's by a gamma = [[a, .], [c, d]] in SL2(Z) with
    tau_N = gamma tau0; c != 0 as Im tau_N != Im tau0, and -gamma acts
    alike, so take c > 0.  Then, with the principal square root and the
    Dedekind sum s(d, c) (Apostol, Modular Functions and Dirichlet Series,
    Thm 3.4),

        eta(tau_N) = exp(pi i ((a + d)/(12 c) - s(d, c))) sqrt(-i (c tau0 + d)) eta(tau0),

    so the factor is exp(2 pi i t) sqrt(-i (c tau0 + d)) eta(tau0)^2, with
    t = (N (b + 3) + 4)/48 + (a + d)/(24 c) - s(d, c)/2: dedekind_eta runs
    only at tau0, once per (D, prec).
    """
    N, b = ctx.N, ctx.level_ideal.conjugate().b
    _, (a, _, c, d) = reduce_form(QuadForm(N, b, (b * b - ctx.D) // (4 * N)))
    a, c, d = (a, c, d) if c > 0 else (-a, -c, -d)
    turns = (Fraction(N * (b + 3) + 4, 48) + Fraction(a + d, 24 * c) - _dedekind_sum(d, c) / 2) % 1
    with mp.workdps(ctx.prec + GUARD_DIGITS + 5):
        root = mpmath.expjpi(mpf(2 * turns.numerator) / turns.denominator)
        scale = mpmath.sqrt(-1j * (c * (mpmath.sqrt(ctx.D) - 1) / 2 + d))
        value = root * scale * _eta_tau0(ctx.D, ctx.prec).to_mpc() ** 2
        return BigComplex.from_mpc(value, ctx.prec)
