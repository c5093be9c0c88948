"""Binary quadratic forms, ideals, and Heegner points."""

import time
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitcm.arith import is_prime, jacobi
from splitcm.errors import InputError, SplitError
from splitcm.hecke import HeckeContext
from splitcm.quadratic import (
    HeegnerPoint,
    QuadForm,
    QuadIdeal,
    class_number,
    heegner_point,
    prime_ideal_above,
    reduce_form,
    reduced_forms,
    smallest_odd_root,
    unit_ideal,
    validate_disc,
)

# forms with bounded coefficients, positive definite, primitive
form_strategy = st.builds(
    lambda a, b, k: (a, b, k),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=40),
).map(lambda t: (t[0], t[1], (t[1] * t[1] + 4 * t[2] - 1) // (4 * t[0]) + 1)).filter(
    lambda t: t[1] * t[1] - 4 * t[0] * t[2] < 0
)


def _gcd3(a, b, c):
    from math import gcd

    return gcd(gcd(a, b), c)


def brute_value_counts(f, cap):
    """How often f represents each value 0 < v <= cap, counted exactly.

    4a f(m, n) = (2am + bn)^2 + |d| n^2 gives |n| <= sqrt(4a cap / |d|), and
    4c f(m, n) = (2cn + bm)^2 + |d| m^2 gives |m| <= sqrt(4c cap / |d|), so
    the scan box is sized per form and sees every representation.
    """
    d = -f.disc
    mmax = isqrt(4 * f.c * cap // d) + 1
    nmax = isqrt(4 * f.a * cap // d) + 1
    counts = {}
    for m in range(-mmax, mmax + 1):
        for n in range(-nmax, nmax + 1):
            v = f.value(m, n)
            if 0 < v <= cap:
                counts[v] = counts.get(v, 0) + 1
    return counts


def test_validate_disc_rejects():
    for bad in (0, 5, -3, -4, -6, -7 * 4 + 2):
        with pytest.raises(InputError):
            validate_disc(bad)
    validate_disc(-7)
    validate_disc(-8)
    validate_disc(-15)


def test_form_validation():
    with pytest.raises(InputError):
        QuadForm(0, 1, 3)
    with pytest.raises(InputError):
        QuadForm(1, 2, 1)  # disc 0
    with pytest.raises(InputError):
        QuadForm(2, 2, 2)  # imprimitive
    f = QuadForm(2, 1, 3)
    assert f.disc == -23
    assert f.value(1, 0) == 2 and f.value(0, 1) == 3 and f.value(1, 1) == 6


@given(form_strategy)
@settings(max_examples=120, deadline=None)
def test_reduction_idempotent_and_reduced(t):
    a, b, c = t
    if _gcd3(a, b, c) != 1:
        return
    f = QuadForm(a, b, c)
    g, (p, q, r, s) = reduce_form(f)
    assert g.is_reduced()
    assert reduce_form(g) == (g, (1, 0, 0, 1))
    assert g.disc == f.disc
    # g(x, y) = f(p x + q y, r x + s y) with p s - q r = 1
    assert p * s - q * r == 1
    assert (g.a, g.c) == (f.value(p, r), f.value(q, s))
    assert g.b == f.value(p + q, r + s) - g.a - g.c


@given(form_strategy)
@example((1, 32, 257))  # skewed: reduces to [1, 0, 1]
@settings(max_examples=60, deadline=None)
def test_reduction_preserves_represented_values(t):
    a, b, c = t
    if _gcd3(a, b, c) != 1:
        return
    f = QuadForm(a, b, c)
    g, _ = reduce_form(f)
    # equivalent forms represent every integer equally often
    cap = min(a, c, g.a, g.c) * 4
    assert brute_value_counts(f, cap) == brute_value_counts(g, cap)


def test_reduced_forms_known_lists():
    assert reduced_forms(-7) == [QuadForm(1, 1, 2)]
    assert reduced_forms(-11) == [QuadForm(1, 1, 3)]
    assert reduced_forms(-23) == [QuadForm(1, 1, 6), QuadForm(2, -1, 3), QuadForm(2, 1, 3)]
    for d in (-7, -11, -23, -47, -71):
        for f in reduced_forms(d):
            assert f.is_reduced() and f.disc == d


def test_class_numbers():
    # textbook values
    known = {-7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3, -31: 3,
             -43: 1, -47: 5, -67: 1, -71: 7, -163: 1, -191: 13}
    for d, h in known.items():
        assert class_number(d) == h, d


def test_ideal_normalization_and_conjugate():
    ideal = QuadIdeal(11, 31, -7)  # 31 = 9 mod 22
    assert ideal.b == 9
    assert ideal.conjugate().b == -9
    assert ideal.norm == 11
    assert unit_ideal(-7).norm == 1


def test_ideal_contains():
    ideal = QuadIdeal(2, -1, -7)  # generated by (1+sqrt(-7))/2
    assert ideal.contains(1, 1)
    assert ideal.contains(4, 0)
    assert not ideal.contains(2, 0)
    assert not ideal.contains(1, -1)
    with pytest.raises(InputError):
        QuadIdeal(2, 0, -7)  # 0^2 != -7 mod 8


def test_form_ideal_roundtrip():
    # a reduced form [a, b, c] is the ideal (a, b) as given: b already lies in (-a, a]
    for d in (-7, -23, -47):
        for f in reduced_forms(d):
            ideal = QuadIdeal(f.a, f.b, f.disc)
            assert (ideal.a, ideal.b, ideal.norm) == (f.a, f.b, f.a)


def test_smallest_odd_root():
    assert smallest_odd_root(-7, 11) == 9
    assert smallest_odd_root(-7, 23) == 19
    assert smallest_odd_root(-11, 23) == 9
    for (D, N) in [(-7, 11), (-7, 43), (-11, 31), (-11, 223)]:
        b1 = smallest_odd_root(D, N)
        assert b1 % 2 == 1 and 0 < b1 < 2 * N
        assert (b1 * b1 - D) % (4 * N) == 0
    with pytest.raises(SplitError):
        smallest_odd_root(-7, 19)  # 19 is inert in discriminant -7


def test_smallest_odd_root_equals_the_scan_of_odd_b():
    # the closed form picks the scan's root on every split level below 3000
    checked = 0
    for D in (-7, -11, -19, -43, -67, -163):
        for N in range(7, 3000, 4):
            if is_prime(N) and jacobi(D % N, N) == 1:
                scan = next(b for b in range(1, 2 * N, 2) if (b * b - D) % (4 * N) == 0)
                assert smallest_odd_root(D, N) == scan, (D, N)
                checked += 1
    assert checked > 600
    # at N = 100000007 the scan of odd b took seconds before any other work
    start = time.perf_counter()
    assert prime_ideal_above(-7, 100000007).b == 99990007
    assert time.perf_counter() - start < 0.5


def test_prime_ideal_above_errors():
    with pytest.raises(SplitError):
        prime_ideal_above(-7, 13)  # 13 is inert
    with pytest.raises(InputError):
        prime_ideal_above(-7, 29)  # split but 1 mod 4
    with pytest.raises(InputError):
        prime_ideal_above(-7, 15)  # composite
    with pytest.raises(InputError):
        prime_ideal_above(-7, 3)
    with pytest.raises(InputError, match="level N = 2 is not 3 mod 4"):
        prime_ideal_above(-7, 2)  # the even prime, before any Jacobi symbol
    ideal = prime_ideal_above(-7, 11)
    assert ideal.norm == 11 and ideal.b == 9


def test_heegner_point_default_stack():
    ctx = HeckeContext(-7, 11, prec=40)
    pt = heegner_point(ctx, ctx.class_rep)
    assert pt.N == 11 and pt.D == -7
    # conjugate-ideal stack pins the root to -b1 mod 2N
    assert pt.b % 22 == (22 - 9) % 22


def test_heegner_point_conjugate_stack():
    # tau = (-9 + sqrt(-7))/22 up to integer translation
    ctx = HeckeContext(-7, 11, b1=2 * 11 - 9, prec=40)
    pt = heegner_point(ctx, ctx.class_rep)
    assert pt.b % 22 == 9


def test_heegner_point_class_input():
    ctx = HeckeContext(-11, 23, prec=40)
    for f in reduced_forms(-11):
        pt = heegner_point(ctx, QuadIdeal(f.a, f.b, f.disc))
        assert (pt.b * pt.b - (-11)) % (4 * 23) == 0


def test_heegner_point_is_the_root_of_the_conjugate_prime():
    # h(D) = 1: O_K is the only class representative, and the point is that of (N, -b1)
    ctx = HeckeContext(-7, 11, prec=40)
    with pytest.raises(InputError, match="must be O_K"):
        heegner_point(ctx, QuadIdeal(2, 1, -7))
    for D, N in ((-7, 11), (-7, 23), (-11, 23), (-19, 47)):
        roots, b = set(), prime_ideal_above(D, N).b
        for b1 in (b, 2 * N - b):
            ctx = HeckeContext(D, N, b1=b1, prec=40)
            pt = heegner_point(ctx, unit_ideal(D))
            assert pt == HeegnerPoint(D, N, ctx.level_ideal.conjugate().b)
            assert (pt.b + b1) % (2 * N) == 0, (D, N, b1)
            roots.add(pt.b)
        assert len(roots) == 2


def test_heegner_point_validation():
    with pytest.raises(InputError):
        HeegnerPoint(-7, 11, 2)  # even root
    HeegnerPoint(-7, 11, 9)  # an odd root is accepted
