"""Theta series and eta: classical constants, functional equations, identity
of the two evaluation paths at split-CM points."""

import time
from fractions import Fraction
from functools import lru_cache
from math import expm1, floor, gcd, isqrt, log, pi

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from splitcm import hecke, theta
from splitcm.arith import jacobi
from splitcm.central import admissible_levels
from splitcm.errors import InputError, ResourceError
from splitcm.hecke import HeckeContext
from splitcm.numeric import GUARD_DIGITS, BigComplex
from splitcm.quadratic import QuadForm, class_number, heegner_point, reduced_forms
from splitcm.theta import (
    SplitCMPoint,
    dedekind_eta,
    eta_norm_factor,
    representation_counts,
    siegel_theta,
    symplectic_theta_splitcm,
    theta_form,
)

upper_half = st.builds(
    mpmath.mpc,
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.floats(min_value=0.15, max_value=2.5, allow_nan=False),
)


def test_theta_square_form_gauss_constant():
    # sum over Z^2 of e^(-pi(m^2+n^2)) = sqrt(pi)/Gamma(3/4)^2
    v = theta_form(QuadForm(1, 0, 1), mpmath.mpc(0, "0.5"), 60)
    with mpmath.workdps(80):
        want = mpmath.sqrt(mpmath.pi) / mpmath.gamma(mpf(3) / 4) ** 2
        assert abs(v.to_mpc() - want) < mpf(10) ** -55


def test_theta_diagonal_form_is_jtheta_product():
    tau = mpmath.mpc("0.3", "0.8")
    for prec in (60, 600):
        v = theta_form(QuadForm(2, 0, 3), tau, prec)
        with mpmath.workdps(prec + 20):
            q = mpmath.exp(2j * mpmath.pi * tau)
            want = mpmath.jtheta(3, 0, q**2) * mpmath.jtheta(3, 0, q**3)
            assert abs(v.to_mpc() - want) < mpf(10) ** -(prec - 5), prec


def test_theta_form_with_no_value_below_the_cutoff():
    # at Im tau = 3 the cutoff stays at its floor, below the form's minimum 101
    v = theta_form(QuadForm(101, 1, 203), mpmath.mpc("0.1", 3), 40)
    assert v.distance(1) < mpf(10) ** -40


def test_representation_counts_brute_force():
    # [1, 1, 48] and the unreduced [3, 11, 12] have long, skewed ellipses;
    # [5, -1, 3] and [48, 1, 1], with c < a, are enumerated as given, the
    # others, with a < c, as Q(n, m)
    abcs = ((1, 1, 2), (2, 1, 3), (3, -1, 5), (1, 1, 48), (3, 11, 12), (5, -1, 3), (48, 1, 1))
    forms = [QuadForm(*abc) for abc in abcs]
    for Q in forms:
        r = representation_counts(Q, 50)
        brute = {}
        for m in range(-40, 41):
            for n in range(-40, 41):
                k = Q.value(m, n)
                if k <= 50:
                    brute[k] = brute.get(k, 0) + 1
        assert r == brute, Q
        # the half-plane enumeration counts each point with its negative
        assert all(rk % 2 == 0 for k, rk in r.items() if k > 0), Q
        assert sum(r.values()) <= theta._lattice_points(Q, 50), Q


def test_form_tail_cutoff_is_least():
    # the cutoff passes the tail bound and the cutoff one below does not
    prec = 80
    for D, N, abc, want in [(-7, 191, (1, 1, 48), 5154), (-7, 43, (1, 1, 11), 1138), (-11, 251, (7, 1, 9), 5373)]:
        Q = QuadForm(*abc)
        ctx = HeckeContext(D, N, prec=prec)
        with mpmath.workdps(prec + GUARD_DIGITS + 5):
            y = theta._point_to_mpc(ctx.class_point).imag
            T = theta._form_tail_cutoff(Q, y, prec)
            absq = mpmath.exp(-2 * mpmath.pi * y)
            target = mpf(10) ** (-prec - 10)
            assert _form_tail(Q, absq, T) < target, (D, N, Q)
            assert not _form_tail(Q, absq, T - 1) < target, (D, N, Q)
        assert T == want, (D, N, Q, T)


def _full_scale_horner(ks, cs, z, P):
    """(hr, hi): _q_series' Horner at the single scale 2^-P, every step."""
    with mpmath.workprec(P + 20):
        q = mpmath.exp(2j * mpmath.pi * z)
        power = mpmath.mpc(1)
        qpow = [(1 << P, 0)]
        for _ in range(max((b - a for a, b in zip(ks, ks[1:])), default=0)):
            power *= q
            qpow.append(theta._to_fixed(power, P))
    hr = hi = 0
    above = ks[-1]
    for k, ck in zip(reversed(ks), reversed(cs)):
        qr, qi = qpow[above - k]
        hr, hi = ((hr * qr - hi * qi) >> P) + (ck << P), (hr * qi + hi * qr) >> P
        above = k
    return hr, hi


def test_theta_form_within_its_bound_of_the_full_scale_horner(monkeypatch):
    # theta_form and dedekind_eta sum through _q_series, which steps its
    # q-powers a little finer than 2^-P and truncates each once to 2^-P;
    # each fixed-point sum must stay within its written bound
    # 2 T (R + 1) 2^-P of the value, for T = ks[-1] and R = sum |cs_i|.
    # The reference is the full-scale Horner run `extra` bits finer, itself
    # within 2 T (R + 1) 2^-(P + extra) of the value.
    extra = 32
    sums = []
    q_series = theta._q_series

    def record(ks, cs, z, P):
        result = q_series(ks, cs, z, P)
        sums.append((ks, cs, z, P, result))
        return result

    def sum_within_bound():
        ((ks, cs, z, P, (x, y)),) = sums
        T, R = ks[-1], sum(map(abs, cs))
        hr, hi = _full_scale_horner(ks, cs, z, P + extra)
        # both sides in units of 2^-(P + extra), exactly
        gap = abs(mpmath.mpc((x << extra) - hr, (y << extra) - hi))
        assert gap < 2 * T * (R + 1) * (2**extra - 1), (z, P, gap)
        sums.clear()
        return z, P, ks, cs

    monkeypatch.setattr(theta, "_q_series", record)
    points = []
    for D, N, prec in [(-7, 43, 600), (-7, 191, 600), (-11, 47, 600), (-7, 43, 80), (-7, 151, 80)]:
        ctx = HeckeContext(D, N, prec=prec)
        points += [(Q, ctx.class_point, prec) for Q in ctx.forms]
    # |q| = e^(-6 pi) keeps T at its floor of 16
    points.append((QuadForm(1, 1, 2), mpmath.mpc("0.1", 3), 80))
    for Q, tau, prec in points:
        theta_form(Q, tau, prec)
        z, P, ks, cs = sum_within_bound()
        # each form's P is the one its own cutoff T >= ks[-1] asks for
        with mpmath.workdps(prec + GUARD_DIGITS + 5):
            T = theta._form_tail_cutoff(Q, z.imag, prec)
        assert ks[-1] <= T and P == theta._fixed_bits(prec + 10, 2 * T * (sum(cs) + 1)), Q
    assert T == 16
    # eta at tau0 of -7 and -163, the only points the product uses, and at
    # a point of small height with many pentagonal terms
    with mpmath.workdps(620):
        etas = [(mpmath.sqrt(D) - 1) / 2 for D in (-7, -163)] + [mpmath.mpc("0.1", "0.2")]
    for z in etas:
        for prec in (80, 600):
            dedekind_eta(z, prec)
            _, P, ks, cs = sum_within_bound()
            K = (len(ks) - 1) // 2
            assert ks[-1] == K * (3 * K + 1) // 2 and cs[-1] == (-1) ** K
            assert P == theta._fixed_bits(prec + 12, 2 * ks[-1] * (2 * K + 2))


def test_q_series_block_shapes_within_the_bound(monkeypatch):
    # _q_series sums blocks of s = isqrt(T) powers in exact integers and
    # runs Horner's rule in q^s over them.  Against the full-scale Horner
    # `extra` bits finer, it stays within 2 T (R + 1) (2^extra - 1) units
    # of 2^-(P + extra) for each shape of blocks, and for eta's series at a
    # high point, T = 2 with coefficients -1
    extra, P = 32, 300
    z = mpmath.mpc("0.13", "0.04")

    def within_bound(ks, cs, z, P):
        x, y = theta._q_series(ks, cs, z, P)
        hr, hi = _full_scale_horner(ks, cs, z, P + extra)
        gap = abs(mpmath.mpc((x << extra) - hr, (y << extra) - hi))
        return gap < 2 * ks[-1] * (sum(map(abs, cs)) + 1) * (2**extra - 1)

    shapes = {
        "T = 7^2": list(range(50)),
        "T = 7^2 - 1": list(range(49)),
        # s = 6: the last block [42, 48) holds 42 alone
        "last block alone": list(range(0, 40, 3)) + [42],
        "dense": list(range(401)),
        # s = 16: every gap is 20
        "gaps beyond s": list(range(0, 281, 20)),
    }
    for name, ks in shapes.items():
        assert within_bound(ks, [(-1) ** k * (k % 5 + 1) for k in ks], z, P), name
    ks = shapes["last block alone"]
    assert [k // isqrt(ks[-1]) for k in ks].count(ks[-1] // isqrt(ks[-1])) == 1
    ks = shapes["gaps beyond s"]
    assert min(b - a for a, b in zip(ks, ks[1:])) > isqrt(ks[-1])
    # ks = [0]: c_0 2^P exactly
    assert theta._q_series([0], [-7], z, P) == (-7 << P, 0)
    # eta at Im z = 30, 20 digits: 1 - q - q^2
    calls = []
    q_series = theta._q_series

    def record(*args):
        calls.append(args)
        return q_series(*args)

    monkeypatch.setattr(theta, "_q_series", record)
    dedekind_eta(mpmath.mpc("0.2", 30), 20)
    monkeypatch.undo()
    ((ks, cs, w, P),) = calls
    assert ks == [0, 1, 2] and cs == [1, -1, -1]
    assert within_bound(ks, cs, w, P)


@pytest.mark.parametrize(
    "D, N, prec",
    [(-7, 1031, 80), (-11, 199, 80), (-163, 1019, 80), (-11, 47, 80), (-7, 191, 80), (-19, 239, 40)],
)
def test_level_thetas_within_their_bound_of_the_q_series(D, N, prec):
    # HeckeContext.thetas, from the reduced points, phase and sign included,
    # against each form's q-series at the same S digits: within 10^-(S+5)
    ctx = HeckeContext(D, N, prec=prec)
    S = min(ctx.prec, hecke.THETA_DIGITS)
    for Q, v in zip(ctx.forms, ctx.thetas):
        assert v.prec == S
        assert v.distance(theta_form(Q, ctx.class_point, S)) < mpf(10) ** -(S + 5), (N, Q)


def test_level_thetas_sum_no_q_series(monkeypatch):
    # the product path evaluates siegel_theta at reduced points only: no
    # q-series, at any level
    def refuse(*args):
        raise AssertionError("HeckeContext.thetas reached the q-series code")

    monkeypatch.setattr(theta, "_q_series", refuse)
    for D, N in [(-7, 11), (-11, 47), (-163, 1019), (-7, 20063)]:
        assert len(HeckeContext(D, N).thetas) == class_number(-N)


def test_reduced_thetas_snap_to_the_q_series_integers(monkeypatch):
    # at every admissible level <= 1000 of the six D, at 30 digits, the
    # reduced path, the q-series and the float integers (theta_integers)
    # give the same integers.  Every key is Gauss-reduced with |Re| <= 1/2
    # and |z11| >= 1; siegel_theta runs once per (D, reduced point, digits),
    # at no more than 27 points per D, and the float integers add no call
    calls = []
    siegel = theta.siegel_theta

    def spy(z11, z12, z22, prec):
        calls.append(prec)
        return siegel(z11, z12, z22, prec)

    monkeypatch.setattr(theta, "siegel_theta", spy)
    theta._reduced_siegel.cache_clear()
    for D in (-7, -11, -19, -43, -67, -163):
        keys, points = set(), set()
        for N in admissible_levels(D, 1000):
            ctx = HeckeContext(D, N, prec=30)
            for Q, red, v, n in zip(ctx.forms, ctx.reduced_points, ctx.thetas, ctx.theta_integers):
                x11, x12, x22, y11, y12, y22, d = red.key
                assert abs(2 * y12) <= y11 <= y22 and 2 * max(abs(x11), abs(x12), abs(x22)) <= d, (D, N, Q)
                assert x11 * x11 - D * y11 * y11 >= d * d, (D, N, Q)
                want, _ = (theta_form(Q, ctx.class_point, 30) / ctx.eta_factor).nearest_int()
                got, err = (v / ctx.eta_factor).nearest_int()
                assert got == want == n and err < mpf(10) ** -25, (D, N, Q)
                keys.add(red.key)
                points.add(red.point)
        assert len(points) <= len(keys) <= 27, D
        assert theta._reduced_siegel.cache_info().currsize == len(calls)
    assert calls == [30] * len(calls)


def test_theta_refuses_too_many_lattice_points_before_enumerating(monkeypatch):
    # the cap is on the lattice points of the cutoff's ellipse, not on T:
    # at Im tau = 1e-9, T ~ 10^11, the doubling refuses at once; at (-7, 43)
    # the form [1, 1, 11] has T = 1138 at 80 digits, is refused under a cap
    # one below its point bound and runs under a cap of exactly that bound.
    # No refusal visits a point
    def refuse(*args):
        raise AssertionError("representation_counts ran")

    monkeypatch.setattr(theta, "representation_counts", refuse)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="lattice points lie, more than 5000000"):
        theta_form(QuadForm(1, 1, 2), mpmath.mpc("0.1", "1e-9"), 80)
    assert time.perf_counter() - start < 1.0
    Q = QuadForm(1, 1, 11)
    pt = HeckeContext(-7, 43).class_point
    bound = theta._lattice_points(Q, 1138)
    monkeypatch.setattr(theta, "MAX_TAIL_TERMS", bound - 1)
    with pytest.raises(ResourceError, match="T >= 1138, where up to %d lattice points lie" % bound):
        theta_form(Q, pt, 80)
    monkeypatch.undo()
    monkeypatch.setattr(theta, "MAX_TAIL_TERMS", bound)
    theta_form(Q, pt, 80)


def test_theta_kernels_refuse_heights_below_the_float_range():
    # Im tau = 1e-330 is 0 in floats, where both tail cutoffs are sized;
    # each kernel names the cause at once, with no untyped error from the
    # float log or the exact box bound
    for call, message in [
        (lambda: theta_form(QuadForm(1, 1, 2), mpmath.mpc("0.1", "1e-330"), 80), "below the float range"),
        (
            lambda: siegel_theta(mpmath.mpc(0, "1e-330"), 0, mpmath.mpc(0, "1e-330"), 80),
            "siegel box needs more than 5000000 points for lam = 5.0e-331",
        ),
    ]:
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=message):
            call()
        assert time.perf_counter() - start < 1.0, message


def test_theta_rejects_lower_half_plane():
    with pytest.raises(InputError):
        theta_form(QuadForm(1, 1, 2), mpmath.mpc(0, -1), 40)
    with pytest.raises(InputError):
        dedekind_eta(mpmath.mpc("0.3", 0), 40)


@given(upper_half)
@settings(max_examples=25, deadline=None)
def test_theta_precision_doubling(tau):
    # halving the tail target must not move the value at base precision
    Q = QuadForm(1, 1, 2)
    lo = theta_form(Q, tau, 40)
    hi = theta_form(Q, tau, 70)
    assert lo.distance(hi) < mpf(10) ** -38


def test_dedekind_eta_at_i():
    v = dedekind_eta(mpmath.mpc(0, 1), 60)
    with mpmath.workdps(80):
        want = mpmath.gamma(mpf(1) / 4) / (2 * mpmath.pi ** mpf("0.75"))
        assert abs(v.to_mpc() - want) < mpf(10) ** -55


def test_dedekind_eta_600_digits_is_q_pochhammer():
    z = mpmath.mpc("0.1", "0.2")
    v = dedekind_eta(z, 600)
    with mpmath.workdps(630):
        q = mpmath.exp(2j * mpmath.pi * z)
        want = mpmath.exp(2j * mpmath.pi * z / 24) * mpmath.qp(q)
        assert abs(v.to_mpc() - want) < mpf(10) ** -605


@pytest.mark.parametrize("D", [-7, -11, -19, -43, -67, -163])
def test_eta_at_tau0_is_chowla_selberg(D):
    # the product uses eta only at tau0 = (-1 + sqrt(D))/2.  For h(D) = 1 and
    # w = 2, Chowla-Selberg gives |eta(tau0)|^4 = prod_{a=1}^{|D|-1}
    # Gamma(a/|D|)^(a/|D|) / (2 pi |D|), with no q-series in it; and
    # q(tau0) = -e^(-pi sqrt|D|) is real, so arg eta(tau0) = -pi/24 exactly
    prec = 80
    v = theta._eta_tau0(D, prec).to_mpc()
    n = -D
    with mpmath.workdps(prec + 20):
        gammas = mpmath.fprod(mpmath.gamma(mpf(a) / n) ** jacobi(a, n) for a in range(1, n))
        want = gammas / (2 * mpmath.pi * n)
        assert abs(abs(v) ** 4 / want - 1) < mpf(10) ** -(prec - 5), D
        assert abs(mpmath.arg(v) + mpmath.pi / 24) < mpf(10) ** -(prec - 5), D


@given(upper_half)
@settings(max_examples=25, deadline=None)
def test_eta_translation_law(z):
    with mpmath.workdps(70):
        lhs = dedekind_eta(z + 1, 50).to_mpc()
        rhs = mpmath.exp(1j * mpmath.pi / 12) * dedekind_eta(z, 50).to_mpc()
        assert abs(lhs - rhs) < mpf(10) ** -42


@given(upper_half)
@settings(max_examples=25, deadline=None)
def test_eta_inversion_law(z):
    with mpmath.workdps(70):
        lhs = dedekind_eta(-1 / z, 50).to_mpc()
        rhs = mpmath.sqrt(-1j * z) * dedekind_eta(z, 50).to_mpc()
        assert abs(lhs - rhs) < mpf(10) ** -42


def test_siegel_theta_diagonal_product():
    z11, z22 = mpmath.mpc("0.2", "1.1"), mpmath.mpc("-0.4", "0.7")
    v = siegel_theta(z11, 0, z22, 60)
    with mpmath.workdps(80):
        want = mpmath.jtheta(3, 0, mpmath.exp(1j * mpmath.pi * z11)) * mpmath.jtheta(
            3, 0, mpmath.exp(1j * mpmath.pi * z22)
        )
        assert abs(v.to_mpc() - want) < mpf(10) ** -55


def test_siegel_theta_with_growing_off_diagonal_factor():
    # Im z12 < 0, so |e^(2 pi i z12)| = e^(0.9 pi) > 1 and the powers
    # e^(2 pi i z12 m n) grow along the rows; -y12/y22 = 1.5 also moves each
    # row's largest term to n0 = round(1.5 m), away from the row's middle.
    # The row starts come from a walk on integer mantissas shifted down to
    # L = P + 22 + 2 bitlen(S) bits; at 300 digits it feeds 22 rows while
    # |B^m| grows to e^(0.9 pi m).  The form's least eigenvalue exceeds
    # 0.11, so the terms with |x|_inf > 50 add below 10^-380.
    # The reference sums every term of the box, each the product
    # e^(pi i z11 m^2) e^(2 pi i z12 mn) e^(pi i z22 n^2) of three
    # exponentials, one per distinct m^2, mn and n^2, at 30 guard digits.
    z11, z12, z22 = mpmath.mpc("0.3", "1.2"), mpmath.mpc("0.17", "-0.45"), mpmath.mpc("-0.2", "0.3")
    for prec, radius in ((60, 30), (300, 50)):
        v = siegel_theta(z11, z12, z22, prec)
        with mpmath.workdps(prec + 30):
            box = range(-radius, radius + 1)
            first = {m: mpmath.exp(1j * mpmath.pi * z11 * m * m) for m in box}
            last = {n: mpmath.exp(1j * mpmath.pi * z22 * n * n) for n in box}
            cross = {k: mpmath.exp(2j * mpmath.pi * z12 * k) for k in {m * n for m in box for n in box}}
            want = mpmath.fsum(first[m] * cross[m * n] * last[n] for m in box for n in box)
            assert abs(v.to_mpc() - want) < mpf(10) ** -(prec + 5), prec


def _jtheta_rows(z11, z12, z22, below):
    """Sum of the rows exp(pi i z11 m^2) jtheta(3, pi z12 m, q), q = e^(pi i z22),
    m in Z, in closed form and independent of any box, until a row falls
    below `below`.  Each jtheta(3, w, q) is taken as
    q^(k^2) e^(2 i k w) jtheta(3, w + k pi z22, q) with k = round(-Im w/(pi Im z22)),
    which brings Im w near 0, where mpmath sums it fastest."""
    q = mpmath.exp(1j * mpmath.pi * z22)
    total, m = 0, 0
    while True:
        w = mpmath.pi * z12 * m
        k = int(mpmath.nint(-w.imag / (mpmath.pi * z22.imag)))
        row = q ** (k * k) * mpmath.expj(2 * k * w) * mpmath.jtheta(3, w + k * mpmath.pi * z22, q)
        row *= mpmath.exp(1j * mpmath.pi * z11 * m * m)
        total += row if m == 0 else 2 * row
        if abs(row) < below:
            return total
        m += 1


def test_siegel_theta_clamps_row_starts_at_the_box_edge():
    # y12/y22 = -6, so row m peaks at n = 6m, and det = 0.0005 makes the
    # rows fall slowly: at 20 digits the box is S = 314 and rows m = 0..54
    # are walked, so rows 53 and 54 (6m = 318, 324) start clamped at n0 = S.
    # The reference sums each row in closed form with jtheta, independent of
    # the box, until a row falls below 10^-50.
    z11, z12, z22 = mpmath.mpc("0.1", "1.81"), mpmath.mpc("0.2", "-0.3"), mpmath.mpc("0.3", "0.05")
    with mpmath.workdps(20 + GUARD_DIGITS + 5):
        lam = (z11.imag * z22.imag - z12.imag**2) / (z11.imag + z22.imag)
        assert theta._siegel_box(lam, 20) == 314
    v = siegel_theta(z11, z12, z22, 20)
    with mpmath.workdps(60):
        assert abs(v.to_mpc() - _jtheta_rows(z11, z12, z22, mpf(10) ** -50)) < mpf(10) ** -25


def _siegel_bound(z, prec):
    """siegel_theta's written bound at z: 24 (2S+1)^4 2^-P for the rounding
    and dropped terms, and 10^-(prec+10) for the box tail."""
    with mpmath.workdps(prec + GUARD_DIGITS + 5):
        y11, y12, y22 = (mpmath.mpc(x).imag for x in z)
        S = theta._siegel_box((y11 * y22 - y12 * y12) / (y11 + y22), prec)
    P = theta._fixed_bits(prec + 10, 24 * (2 * S + 1) ** 4)
    return 24 * (2 * S + 1) ** 4 * mpf(2) ** -P + mpf(10) ** -(prec + 10)


def test_siegel_theta_within_its_bound_at_600_digits():
    # the Horner steps, the G table and the dropped terms must stay within
    # the written budget 24 (2S+1)^4 2^-P, and the box tail within
    # 10^-(prec+10), also at 600 digits; the growing off-diagonal Z and the
    # split-CM point ((-7, 43), [1, 1, 11]), against the rows in closed form
    # at 630 digits
    prec = 600
    ctx = HeckeContext(-7, 43, prec=prec)
    with mpmath.workdps(prec + GUARD_DIGITS + 5):
        split_cm = SplitCMPoint(QuadForm(1, 1, 11), heegner_point(ctx, ctx.class_rep)).z_matrix()
    growing = (mpmath.mpc("0.3", "1.2"), mpmath.mpc("0.17", "-0.45"), mpmath.mpc("-0.2", "0.3"))
    for z in (growing, split_cm):
        v = siegel_theta(*z, prec)
        with mpmath.workdps(630):
            want = _jtheta_rows(*z, mpf(10) ** -650)
            gap = abs(v.to_mpc() - want)
            assert gap < _siegel_bound(z, prec), gap


def _as_integers(ys):
    """Integers Y_i and one exponent e with y_i = Y_i 2^e, for mpf y_i."""
    pairs = [(-man if y < 0 else man, exp) for y, (man, exp) in ((y, y.man_exp) for y in ys)]
    e = min(exp for _, exp in pairs)
    return [man << (exp - e) for man, exp in pairs], e


def test_siegel_rows_hold_every_term_above_the_resolution(monkeypatch):
    # _siegel_rows solves each row's summed range n0 - down .. n0 + up in
    # closed form.  A brute-force scan of the box, on the exponent
    # x^t Y x as an exact integer over a power of two, checks it: every term
    # of modulus at least 2^(7-P) (with a relative 10^-6 for the float
    # solve) lies in its row's range, no row past the last holds a term of
    # 2^(8-P), and a range runs past the terms of at least 2^(8-P), or past
    # n0 where there are none, by at most two at each end.  The box is
    # scanned in the orientation the kernel summed, read from the y22 it
    # passed: the split-CM points, with y11 < y22, are summed exchanged
    calls = []
    rows = theta._siegel_rows

    def spy(*args):
        spans = rows(*args)
        calls.append((args, spans))
        return spans

    monkeypatch.setattr(theta, "_siegel_rows", spy)
    points = [
        ((mpmath.mpc("0.2", "1.1"), 0, mpmath.mpc("-0.4", "0.7")), 60),
        ((mpmath.mpc("0.3", "1.2"), mpmath.mpc("0.17", "-0.45"), mpmath.mpc("-0.2", "0.3")), 60),
        ((mpmath.mpc("0.1", "1.81"), mpmath.mpc("0.2", "-0.3"), mpmath.mpc("0.3", "0.05")), 20),
    ]
    for D, N in [(-7, 43), (-11, 47)]:
        ctx = HeckeContext(D, N, prec=80)
        pt = heegner_point(ctx, ctx.class_rep)
        with mpmath.workdps(80 + GUARD_DIGITS + 5):
            points += [(SplitCMPoint(Q, pt).z_matrix(), 80) for Q in reduced_forms(-N)]
    clamped = swapped = 0
    for z, prec in points:
        siegel_theta(*z, prec)
        ((y12, y22, _, S, P), spans) = calls.pop()
        with mpmath.workdps(prec + GUARD_DIGITS + 5):
            ys = [mpmath.mpc(x).imag for x in z]
        if y22 != ys[2]:
            ys.reverse()
            swapped += 1
        assert ys[1:] == [y12, y22], z
        (Y11, Y12, Y22), e = _as_integers(ys)
        with mpmath.workprec(P - e + 64):
            # modulus >= 2^(s-P) (1 + d) exactly when the integer exponent
            # Y11 m^2 + 2 Y12 m n + Y22 n^2 is at most this floor
            def level(s, d=0):
                return int(mpmath.floor(((P - s) * mpmath.ln2 - mpmath.log1p(d)) / (mpmath.pi * mpf(2) ** e)))

            held, above = level(7, mpf("1e-6")), level(8)
        for m in range(S + 1):
            exps = [(n, Y11 * m * m + 2 * Y12 * m * n + Y22 * n * n) for n in range(-S, S + 1)]
            if m >= len(spans):
                assert all(x > above for _, x in exps), (z, m)
                continue
            n0, down, up = spans[m]
            clamped += abs(n0) == S
            lo, hi = n0 - down, n0 + up
            assert all(lo <= n <= hi for n, x in exps if x <= held), (z, m)
            big = [n for n, x in exps if x <= above] or [n0]
            assert min(big) - 2 <= lo and hi <= max(big) + 2, (z, m, lo, hi, big)
    assert not calls and clamped >= 2 and swapped == 6


def _box_bound(t, S):
    # _siegel_box's tail bound for the box |x|_inf < S, t = e^(-pi lam)
    u = t ** (2 * S)
    return 8 * t ** (S * S) * (S / (1 - u) + u / (1 - u) ** 2)


def _form_tail(Q, absq, T):
    # _form_tail_cutoff's bound on sum_{k>T} r_Q(k) |q|^k
    lam = mpf(-Q.disc) / (4 * (Q.a + Q.c))
    return (9 / lam) * (T + 2) * absq ** (T + 1) / (1 - absq) ** 2


def _crossings(bound, lo, hi, target):
    """Points around the x* in [lo, hi] where the decreasing bound(x) crosses target.

    bound(lo) >= target > bound(hi) must hold.  x* is bracketed within a ratio 1 + 10^-6 by bisection on a log scale
    at 15 digits, then found by the secant method at 40 digits.
    x* (1 - 10^-30) fails, as its bound is at least target, and
    x* (1 + 10^-30) passes; x* (1 + e) for e = +-1e-16, +-1e-13 and
    +-1e-9 lie around them, where a float log of the bound alone may not
    decide.
    """

    def excess(x):
        return mpmath.log(bound(x)) - mpmath.log(target)

    assert bound(lo) >= target > bound(hi), (lo, hi)
    with mpmath.workdps(15):
        while hi > lo * (1 + mpf(10) ** -6):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if excess(mid) >= 0 else (lo, mid)
    with mpmath.workdps(40):
        x = mpmath.findroot(excess, (lo, hi))
    lo, hi = x * (1 - mpf(10) ** -30), x * (1 + mpf(10) ** -30)
    assert bound(lo) >= target > bound(hi), x
    return [lo] + [hi * (1 + mpf(e)) for e in (0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-9, -1e-9)]


@lru_cache(maxsize=None)
def _box_crossings(prec):
    """For each candidate S whose box bound crosses 10^(-prec-10) inside
    lam in [0.005, 5], the points around its crossing lam* (_crossings)."""
    out = []
    with mpmath.workdps(prec + GUARD_DIGITS + 5):
        target, S = mpf(10) ** (-prec - 10), 4
        while S * S <= theta.MAX_TAIL_TERMS:
            lo, hi = mpf("0.005"), mpf(5)

            def bound(lam):
                return _box_bound(mpmath.exp(-mpmath.pi * lam), S)

            if bound(lo) >= target > bound(hi):
                out.append(_crossings(bound, lo, hi, target))
            S = S + S // 2 + 1
    return tuple(out)


@lru_cache(maxsize=None)
def _tail_crossings(prec):
    """(Q, ys) for three forms and five T: the points around each y* in
    [1e-6, 100] where the tail bound at T crosses 10^(-prec-10)
    (y* > 13 for T = 16 at 600 digits)."""
    out = []
    with mpmath.workdps(prec + GUARD_DIGITS + 5):
        target = mpf(10) ** (-prec - 10)
        for Q in (QuadForm(1, 1, 2), QuadForm(1, 1, 48), QuadForm(7, 1, 9)):
            for T in (16, 17, 250, 4000, 60000):
                ys = _crossings(
                    lambda y: _form_tail(Q, mpmath.exp(-2 * mpmath.pi * y), T), mpf("1e-6"), mpf(100), target
                )
                out.append((Q, ys))
    return tuple(out)


def test_siegel_box_passes_the_exact_bound_at_most_one_step_late():
    # the exact-bound scan that _siegel_box's float rule replaces, kept as the reference
    def exact_box(lam, prec):
        t, target, S = mpmath.exp(-mpmath.pi * lam), mpf(10) ** (-prec - 10), 4
        while _box_bound(t, S) >= target:
            S = S + S // 2 + 1
        return S

    crossings, late = 0, 0
    for prec in (20, 80, 600):
        with mpmath.workdps(prec + GUARD_DIGITS + 5):
            target = mpf(10) ** (-prec - 10)
            lams = [5 * mpf(10) ** (k / mpf(8)) for k in range(-24, 1)]
            for points in _box_crossings(prec):
                lams += points
                crossings += 1
            for lam in lams:
                # S passes the exact bound and is the exact least or the next S
                S, least = theta._siegel_box(lam, prec), exact_box(lam, prec)
                assert _box_bound(mpmath.exp(-mpmath.pi * lam), S) < target, (prec, lam, S)
                assert S in (least, least + least // 2 + 1), (prec, lam, S, least)
                late += S != least
    assert crossings >= 15 and late > 0


def _exact_cutoff(Q, y, prec):
    # the cutoff search that _form_tail_cutoff's float rule replaces, kept as
    # the reference: a float guess, then every step on the exact bound
    absq = mpmath.exp(-2 * mpmath.pi * y)
    target = mpf(10) ** (-prec - 10)

    def passes(T):
        return _form_tail(Q, absq, T) < target

    if passes(16):
        return 16
    lq = -2 * pi * float(y)
    base = log(9 * 4 * (Q.a + Q.c) / -Q.disc) - 2 * log(-expm1(lq)) + (prec + 10) * log(10)

    def guess_passes(T):
        return base + log(T + 2) + (T + 1) * lq < 0

    lo, hi = 16, 32
    while not guess_passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if guess_passes(mid) else (mid, hi)
    T = hi
    while not passes(T):
        T += 1
    while T > 16 and passes(T - 1):
        T -= 1
    return T


def test_form_tail_cutoff_passes_the_exact_bound_at_most_one_step_late():
    # every form of the levels up to 400 of D = -7 and -11, at its class
    # point, and the points around each constructed crossing (_tail_crossings)
    crossings, late = 0, 0
    for prec in (20, 80, 600):
        with mpmath.workdps(prec + GUARD_DIGITS + 5):
            target = mpf(10) ** (-prec - 10)
            cases = []
            for D in (-7, -11):
                for N in admissible_levels(D, 400):
                    ctx = HeckeContext(D, N, prec=prec)
                    y = theta._point_to_mpc(ctx.class_point).imag
                    cases += [(Q, y) for Q in ctx.forms]
            for Q, ys in _tail_crossings(prec):
                cases += [(Q, y) for y in ys]
                crossings += 1
            for Q, y in cases:
                # T passes the exact bound and is the exact least or one past it
                T, least = theta._form_tail_cutoff(Q, y, prec), _exact_cutoff(Q, y, prec)
                assert _form_tail(Q, mpmath.exp(-2 * mpmath.pi * y), T) < target, (prec, Q, y, T)
                assert T in (least, least + 1), (prec, Q, y, T, least)
                late += T != least
    assert crossings == 45 and late > 0


def test_cutoff_window_absorbs_a_perturbed_float_log(monkeypatch):
    # the float log of each tail bound moved by a relative 1e-9 toward
    # passing, far more than its rounding: at every constructed T and S
    # crossing the cutoff still certifies its exact bound, and with
    # CUTOFF_WINDOW = 0 some cutoff does not
    passes = theta._cutoff_passes
    monkeypatch.setattr(theta, "_cutoff_passes", lambda lbound, prec: passes(lbound - 1e-9 * abs(lbound), prec))

    def uncertified():
        count = 0
        for prec in (20, 80, 600):
            with mpmath.workdps(prec + GUARD_DIGITS + 5):
                target = mpf(10) ** (-prec - 10)
                for points in _box_crossings(prec):
                    for lam in points:
                        S = theta._siegel_box(lam, prec)
                        count += _box_bound(mpmath.exp(-mpmath.pi * lam), S) >= target
                for Q, ys in _tail_crossings(prec):
                    for y in ys:
                        T = theta._form_tail_cutoff(Q, y, prec)
                        count += _form_tail(Q, mpmath.exp(-2 * mpmath.pi * y), T) >= target
        return count

    assert uncertified() == 0
    monkeypatch.setattr(theta, "CUTOFF_WINDOW", 0)
    assert uncertified() > 0


def test_siegel_theta_mpmath_products_do_not_grow_with_the_rows(monkeypatch):
    # the row starts walk on integer mantissas, so a call makes the same
    # few mpmath values however many rows it walks: 11 rows at (-7, 11) for
    # [1, 1, 3] and 26 at (-7, 191) for [6, 1, 8]; the mpmath calls counted
    # are its exponentials and complex products
    calls, rows = [], []
    mul, rmul, expjpi, siegel_rows = mpmath.mpc.__mul__, mpmath.mpc.__rmul__, mpmath.expjpi, theta._siegel_rows

    def counting(f):
        def counted(*args):
            calls[-1] += 1
            return f(*args)

        return counted

    def spy_rows(*args):
        spans = siegel_rows(*args)
        rows.append(len(spans))
        return spans

    for D, N, abc in [(-7, 11, (1, 1, 3)), (-7, 191, (6, 1, 8))]:
        ctx = HeckeContext(D, N, prec=80)
        pt = heegner_point(ctx, ctx.class_rep)
        with mpmath.workdps(80 + GUARD_DIGITS + 5):
            z = SplitCMPoint(QuadForm(*abc), pt).z_matrix()
        calls.append(0)
        monkeypatch.setattr(mpmath.mpc, "__mul__", counting(mul))
        monkeypatch.setattr(mpmath.mpc, "__rmul__", counting(rmul))
        monkeypatch.setattr(mpmath, "expjpi", counting(expjpi))
        monkeypatch.setattr(theta, "_siegel_rows", spy_rows)
        siegel_theta(*z, 80)
        monkeypatch.undo()
    assert rows == [11, 26] and calls[0] == calls[1] <= 4, (rows, calls)


def test_siegel_theta_walks_the_long_axis(monkeypatch):
    # at (-7, 43), [1, 1, 11] has y22 = 11 y11: summed with z11 and z22
    # exchanged, its rows run along the coordinate of the smaller entry,
    # 11 rows instead of the 35 along the other one
    rows = []
    siegel_rows = theta._siegel_rows

    def spy(*args):
        rows.append(siegel_rows(*args))
        return rows[-1]

    monkeypatch.setattr(theta, "_siegel_rows", spy)
    ctx = HeckeContext(-7, 43, prec=80)
    symplectic_theta_splitcm(SplitCMPoint(QuadForm(1, 1, 11), heegner_point(ctx, ctx.class_rep)), 80)
    (spans,) = rows
    assert len(spans) <= 12, len(spans)


def test_siegel_theta_is_invariant_under_the_exchange(monkeypatch):
    # theta(P Z P) = theta(Z) for P = [[0, 1], [1, 0]]: siegel_theta at Z
    # and at Z with z11 and z22 exchanged agree within the sum of their
    # written bounds, at the 16 points of the benchmark's theta check (the
    # split-CM points of D = -7 at levels <= 43 and of D = -11 at levels
    # <= 47), the diagonal, growing off-diagonal and clamped-edge points,
    # and two points with y11 = y22, which the kernel sums in the given
    # orientation, so that the two calls sum along different axes
    axes = []
    siegel_rows = theta._siegel_rows

    def spy(*args):
        axes.append(args[1])
        return siegel_rows(*args)

    monkeypatch.setattr(theta, "_siegel_rows", spy)
    points = [
        ((mpmath.mpc("0.2", "1.1"), 0, mpmath.mpc("-0.4", "0.7")), 60),
        ((mpmath.mpc("0.3", "1.2"), mpmath.mpc("0.17", "-0.45"), mpmath.mpc("-0.2", "0.3")), 60),
        ((mpmath.mpc("0.1", "1.81"), mpmath.mpc("0.2", "-0.3"), mpmath.mpc("0.3", "0.05")), 20),
    ]
    tied = [
        ((mpmath.mpc("0.2", "1.1"), mpmath.mpc("0.3", "-0.2"), mpmath.mpc("-0.4", "1.1")), 60),
        ((mpmath.mpc("0.3", "1.2"), mpmath.mpc("0.17", "-0.45"), mpmath.mpc("-0.2", "1.2")), 60),
    ]
    for D, n_max in [(-7, 43), (-11, 47)]:
        for N in admissible_levels(D, n_max):
            ctx = HeckeContext(D, N, prec=80)
            pt = heegner_point(ctx, ctx.class_rep)
            with mpmath.workdps(80 + GUARD_DIGITS + 5):
                points += [(SplitCMPoint(Q, pt).z_matrix(), 80) for Q in reduced_forms(-N)]
    assert len(points) == 3 + 16
    for z, prec in points + tied:
        v, w = siegel_theta(*z, prec), siegel_theta(z[2], z[1], z[0], prec)
        with mpmath.workdps(prec + 30):
            assert abs(v.to_mpc() - w.to_mpc()) < 2 * _siegel_bound(z, prec), (z, prec)
            # both calls sum along the axis of the smaller Im diagonal entry,
            # except where the entries tie
            y11, y22 = mpmath.mpc(z[0]).imag, mpmath.mpc(z[2]).imag
            second, first = axes.pop(), axes.pop()
            if y11 == y22:
                assert first == y22 and second == y11
            else:
                assert first == second == min(y11, y22)


def test_splitcm_theta_takes_one_exponential(monkeypatch):
    # symplectic_theta_splitcm takes A, B and C as q^a, q^b and q^c of one
    # mpmath exponential q = e^(2 pi i tau); siegel_theta at the same
    # entries takes three.  The two agree within the sum of their written
    # bounds at the 16 points of the benchmark's theta check, which include
    # b < 0 and the exchange of a and c, at (-7, 191) and (-11, 251), and at
    # 600 digits at (-7, 43)
    exponentials = []

    def counting(f):
        def counted(*args, **kwargs):
            exponentials[-1] += 1
            return f(*args, **kwargs)

        return counted

    levels = [(-7, N, 80) for N in admissible_levels(-7, 43)] + [(-11, N, 80) for N in admissible_levels(-11, 47)]
    points = []
    for D, N, prec in levels + [(-7, 191, 80), (-11, 251, 80), (-7, 43, 600)]:
        ctx = HeckeContext(D, N, prec=prec)
        pt = heegner_point(ctx, ctx.class_rep)
        points += [(SplitCMPoint(Q, pt), prec) for Q in reduced_forms(-N)]
    assert len(points) == 16 + 13 + 7 + 1
    assert any(p.Q.b < 0 for p, _ in points[:16]) and any(p.Q.a < p.Q.c for p, _ in points[:16])
    for point, prec in points:
        exponentials.append(0)
        monkeypatch.setattr(mpmath, "expjpi", counting(mpmath.expjpi))
        monkeypatch.setattr(mpmath, "exp", counting(mpmath.exp))
        v = symplectic_theta_splitcm(point, prec)
        monkeypatch.undo()
        with mpmath.workdps(prec + GUARD_DIGITS + 5):
            z = point.z_matrix()
        w = siegel_theta(*z, prec)
        with mpmath.workdps(prec + 30):
            assert abs(v.to_mpc() - w.to_mpc()) < 2 * _siegel_bound(z, prec), (point.Q, prec)
    assert exponentials == [1] * len(points)


def test_siegel_theta_does_not_use_the_q_series(monkeypatch):
    # the two theta paths are compared as independent programs
    def refuse(*args):
        raise AssertionError("siegel_theta reached the q-series code")

    monkeypatch.setattr(theta, "representation_counts", refuse)
    monkeypatch.setattr(theta, "theta_form", refuse)
    ctx = HeckeContext(-7, 11, prec=40)
    pt = heegner_point(ctx, ctx.class_rep)
    symplectic_theta_splitcm(SplitCMPoint(QuadForm(1, 1, 3), pt), 40)


def test_siegel_theta_needs_positive_imaginary_part():
    with pytest.raises(InputError):
        siegel_theta(mpmath.mpc(0, 1), mpmath.mpc(0, 2), mpmath.mpc(0, 1), 40)
    with pytest.raises(InputError):
        siegel_theta(mpmath.mpc(0, -1), 0, mpmath.mpc(0, 1), 40)


def test_splitcm_point_checks_disc():
    ctx = HeckeContext(-7, 11, prec=40)
    pt = heegner_point(ctx, ctx.class_rep)
    with pytest.raises(InputError):
        SplitCMPoint(QuadForm(1, 1, 2), pt)  # disc -7, level wants -11
    SplitCMPoint(QuadForm(1, 1, 3), pt)


def test_two_theta_paths_agree_at_cm_points():
    # the lattice q-series and the Siegel box sum are independent programs;
    # at (-7, 191) and (-11, 251) most of the Siegel box lies below 2^-P, so
    # the walks stop early there
    prec = 80
    for D, N in [(-7, 11), (-11, 23), (-7, 191), (-11, 251)]:
        ctx = HeckeContext(D, N, prec=prec)
        pt = heegner_point(ctx, ctx.class_rep)
        for Q in reduced_forms(-N):
            a = theta_form(Q, pt, prec)
            b = symplectic_theta_splitcm(SplitCMPoint(Q, pt), prec)
            assert a.distance(b) < mpf(10) ** -(prec + 5), (D, N, Q)


def test_eta_norm_factor_conventions_same_modulus():
    # the two primes over N (roots b1 and 2N - b1) give conjugate points, and
    # eta(-conj z) = conj eta(z), so their factors have the same modulus
    for D, N in [(-7, 11), (-11, 23)]:
        ctx = HeckeContext(D, N, prec=50)
        a = eta_norm_factor(ctx)
        b = eta_norm_factor(HeckeContext(D, N, b1=2 * N - ctx.b1, prec=50))
        with mpmath.workdps(60):
            assert abs(abs(a.to_mpc()) - abs(b.to_mpc())) < mpf(10) ** -42
        assert a.distance(b) > mpf(10) ** -3


def _summed_eta_factor(ctx):
    """The level's eta factor with eta summed at tau_N itself: the product of
    e48(a (b + 3)) eta((-b + sqrt(D))/(2a)), e48(k) = exp(2 pi i k/48), over
    the conjugate (N, b) of the level ideal and O_K = (1, 1)."""
    value = 1
    with mpmath.workdps(ctx.prec + GUARD_DIGITS + 5):
        for ideal in (ctx.level_ideal.conjugate(), ctx.class_rep):
            a, b = ideal.a, ideal.b
            tau = (-b + mpmath.sqrt(ctx.D)) / (2 * a)
            value *= mpmath.exp(2j * mpmath.pi * (a * (b + 3) % 48) / 48) * dedekind_eta(tau, ctx.prec).to_mpc()
        return BigComplex.from_mpc(value, ctx.prec)


@pytest.mark.parametrize(
    "D, N, prec",
    [(-7, N, 80) for N in admissible_levels(-7, 191)]
    + [(-11, N, 80) for N in admissible_levels(-11, 223)]
    + [(-7, 191, 600), (-163, 47, 600), (-163, 4003, 600)],
)
def test_eta_norm_factor_matches_eta_summed_at_the_level_point(D, N, prec):
    # eta_norm_factor moves tau_N to tau0 by the modular transformation; its
    # branch of the square root and its root of unity must reproduce eta
    # summed at tau_N, for both primes over N.  The levels are those of
    # criteria 1 and 2; about half of them reduce with c < 0 before the sign
    # flip (e.g. (-7, 11) and (-11, 31)), and (-163, 4003) with |d| = 31
    ctx = HeckeContext(D, N, prec=prec)
    for b1 in (ctx.b1, 2 * N - ctx.b1):
        level = HeckeContext(D, N, b1=b1, prec=prec)
        got = eta_norm_factor(level)
        assert got.prec == prec
        assert got.distance(_summed_eta_factor(level)) < mpf(10) ** -(prec + 5), (D, N, b1)


def test_dedekind_sum_matches_its_definition():
    # the reciprocity loop in integers against the defining sum
    # s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((h r/k)), ((x)) = x - floor(x) - 1/2 off the integers
    def saw(x):
        return x - floor(x) - Fraction(1, 2) if x.denominator != 1 else 0

    for k in range(1, 30):
        for h in range(-k, k):
            if gcd(h, k) == 1:
                want = sum(saw(Fraction(r, k)) * saw(Fraction(h * r, k)) for r in range(1, k))
                assert theta._dedekind_sum(h, k) == want, (h, k)


def test_eta_norm_factor_computes_eta_of_o_k_once():
    theta._eta_tau0.cache_clear()
    for N in (11, 23):
        ctx = HeckeContext(-7, N, prec=60)
        assert eta_norm_factor(ctx).distance(_summed_eta_factor(ctx)) < mpf(10) ** -65, N
    assert theta._eta_tau0.cache_info().currsize == 1
    assert theta._eta_tau0.cache_info().hits == 1
    eta_norm_factor(HeckeContext(-7, 11, prec=70))
    assert theta._eta_tau0.cache_info().currsize == 2
    assert theta._eta_tau0(-7, 70).prec == 70
    assert theta._eta_tau0(-7, 70) is not theta._eta_tau0(-7, 60)


def test_level_thetas_known_integers():
    ctx = HeckeContext(-7, 11, prec=80)
    assert ctx.forms == (QuadForm(1, 1, 3),)
    n, err = (ctx.thetas[0] / ctx.eta_factor).nearest_int()
    assert n == -1 and err < mpf(10) ** -60

    ctx = HeckeContext(-11, 23, prec=80)
    assert ctx.forms == tuple(reduced_forms(-23))
    snapped = []
    for raw in ctx.thetas:
        n, err = (raw / ctx.eta_factor).nearest_int()
        assert err < mpf(10) ** -60
        snapped.append(n)
    assert sorted(abs(n) for n in snapped) == [0, 0, 2]
