"""Correctness checks on the outputs the benchmark times.

Each check returns a list of problem strings; an empty list means the
output is correct.  The checks compare against the paper's tables, against
counts made here without splitcm, and against properties the method must
have.  None of them compares against output saved from an earlier run.
"""

from fractions import Fraction
from math import gcd, isqrt

import mpmath
from mpmath import mpf

THETA_TOL_EXP = 70
ORACLE_REL_TOL = 1.0e-2
CONJ_RESIDUAL_FLOOR = 1.0e-3


def brute_class_number(d):
    """h(d) by counting reduced primitive forms, written out here on purpose."""
    count = 0
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            count += 1
    return count


def check_store(store):
    """Eichler mass: sum over classes of 1/(2 omega) is (|D| - 1)/24."""
    mass = sum(Fraction(1, 2 * info.omega) for info in store.classes)
    want = Fraction(-store.D - 1, 24)
    if mass != want:
        return ["D=%d: class mass %s != (|D|-1)/24 = %s" % (store.D, mass, want)]
    return []


def check_table_level(N, rows, reference):
    """Rows of one level against the paper's rows for that level.

    reference is a list of (abs_theta, count, h_eps).  abs_theta, count and
    |h_eps| must match exactly, h_R must be 2 * count, and the signed h_eps
    may differ from the paper by one global sign per level; rows with theta
    0 have eps = +1, so their h_eps must match exactly.  The h_R summed
    over classes must be 2 h(-N), with h(-N) counted by brute force.
    """
    problems = []
    got = sorted((r.abs_theta, r.count, r.h_eps, r.h_r) for r in rows)
    want = sorted(reference)
    unsigned_got = sorted((a, c, abs(h)) for a, c, h, _ in got)
    unsigned_want = sorted((a, c, abs(h)) for a, c, h in want)
    if unsigned_got != unsigned_want:
        return ["N=%d: unsigned rows %s != paper %s" % (N, unsigned_got, unsigned_want)]
    for a, c, _, h_r in got:
        if h_r != 2 * c:
            problems.append("N=%d: h_R %d != 2 * count %d" % (N, h_r, c))
    signs = set()
    for (a, _, h_got, _), (_, _, h_want) in zip(got, want):
        if a == 0 and h_got != h_want:
            problems.append("N=%d: theta-0 row has h_eps %d != %d" % (N, h_got, h_want))
        elif a != 0 and h_want != 0:
            signs.add(h_got // h_want if h_got in (h_want, -h_want) else 0)
    if 0 in signs or len(signs) > 1:
        problems.append("N=%d: signed h_eps %s is not the paper's %s up to one sign" % (N, got, want))
    total = sum(h_r for *_, h_r in got)
    if total != 2 * brute_class_number(-N):
        problems.append("N=%d: sum of h_R %d != 2 h(-N) = %d" % (N, total, 2 * brute_class_number(-N)))
    return problems


def root_number_residual(L, prime, find_generator):
    """Im of L^2 * conj(i pi/|pi|), pi a generator of the prime ideal.

    The functional equation of psi_N gives L = W conj(L) with root number
    W = +-i pi/|pi| for pi generating the conductor, so this is zero for the
    conductor and not for its conjugate.  Evaluated in mpmath at L's
    precision (plus guard digits).
    """
    with mpmath.workdps(L.prec + 20):
        pi = find_generator(prime).embed(L.prec).to_mpc()
        z = L.to_mpc() ** 2 * mpmath.conj(1j * pi / abs(pi))
        return abs(z.imag)


def check_lvalue(ctx, L, find_generator):
    """The phase of L is the one the root number forces, and L is not 0."""
    problems = []
    tol = mpf(10) ** -(ctx.prec - 30)
    res = root_number_residual(L, ctx.level_ideal, find_generator)
    if not res < tol:
        problems.append("(%d, %d): residual %s >= %s" % (ctx.D, ctx.N, mpmath.nstr(res, 3), mpmath.nstr(tol, 3)))
    guard = root_number_residual(L, ctx.level_ideal.conjugate(), find_generator)
    if not guard > CONJ_RESIDUAL_FLOOR:
        problems.append("(%d, %d): conjugate-prime residual %s <= %g" % (ctx.D, ctx.N, mpmath.nstr(guard, 3), CONJ_RESIDUAL_FLOOR))
    return problems


def check_oracle(D, N, L, oracle):
    """The series oracle agrees with the theta value L to 1e-2 relative."""
    want = complex(float(L.re), float(L.im))
    rel = abs(oracle - want) / abs(want)
    if not rel < ORACLE_REL_TOL:
        return ["(%d, %d): oracle %r vs L %r, relative error %.3g" % (D, N, oracle, want, rel)]
    return []


def check_theta_pair(label, classical, siegel):
    """Classical and Siegel theta at one split-CM point agree to 1e-70."""
    gap = classical.distance(siegel)
    if not gap < mpf(10) ** -THETA_TOL_EXP:
        return ["%s: |theta - siegel| = %s" % (label, mpmath.nstr(gap, 3))]
    return []
