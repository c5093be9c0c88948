"""Binary quadratic forms, ideals, and Heegner points."""

from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitcm.errors import InputError, SplitError
from splitcm.hecke import HeckeContext
from splitcm.quadratic import (
    HeegnerPoint,
    QuadForm,
    QuadIdeal,
    class_number,
    form_of_ideal,
    heegner_point,
    ideal_of_form,
    ideal_product,
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
    g = reduce_form(f)
    assert g.is_reduced()
    assert reduce_form(g) == g
    assert g.disc == f.disc


@given(form_strategy)
@example((1, 32, 257))  # skewed: reduces to [1, 0, 1]
@settings(max_examples=60, deadline=None)
def test_reduction_preserves_represented_values(t):
    a, b, c = t
    if _gcd3(a, b, c) != 1:
        return
    f = QuadForm(a, b, c)
    g = reduce_form(f)
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
    for d in (-7, -23, -47):
        for f in reduced_forms(d):
            assert form_of_ideal(ideal_of_form(f)) == f


def test_ideal_product_norm_and_conjugate():
    # a * conj(a) = (norm) * unit ideal
    for d in (-7, -11, -23):
        for f in reduced_forms(d):
            ideal = ideal_of_form(f)
            content, prim = ideal_product(ideal, ideal.conjugate())
            assert content == ideal.norm
            assert prim == unit_ideal(d)


def test_ideal_product_content_squared_norm():
    # norm multiplicativity: content^2 * norm(prim) = norm(x) * norm(y)
    ideals = [QuadIdeal(a, b, -23) for a in range(1, 30)
              for b in range(-a + 1, a + 1) if (b * b + 23) % (4 * a) == 0]
    for x in ideals[:12]:
        for y in ideals[:12]:
            content, prim = ideal_product(x, y)
            assert content * content * prim.norm == x.norm * y.norm


def test_smallest_odd_root():
    assert smallest_odd_root(-7, 11) == 9
    assert smallest_odd_root(-7, 23) == 19
    assert smallest_odd_root(-11, 23) == 9
    for (D, N) in [(-7, 11), (-7, 43), (-11, 31), (-11, 223)]:
        b1 = smallest_odd_root(D, N)
        assert b1 % 2 == 1 and 0 < b1 < 2 * N
        assert (b1 * b1 - D) % (4 * N) == 0


def test_prime_ideal_above_errors():
    with pytest.raises(SplitError):
        prime_ideal_above(-7, 13)  # 13 is inert
    with pytest.raises(InputError):
        prime_ideal_above(-7, 29)  # split but 1 mod 4
    with pytest.raises(InputError):
        prime_ideal_above(-7, 15)  # composite
    with pytest.raises(InputError):
        prime_ideal_above(-7, 3)
    ideal = prime_ideal_above(-7, 11)
    assert ideal.norm == 11 and ideal.b == 9


def test_heegner_point_default_stack():
    ctx = HeckeContext(-7, 11, prec=40)
    pt = heegner_point(ctx, ctx.class_rep)
    assert pt.a1 == 1 and pt.N == 11 and pt.D == -7
    # conjugate-ideal stack pins the root to -b1 mod 2N
    assert pt.b % 22 == (22 - 9) % 22


def test_heegner_point_conjugate_stack():
    # tau = (-9 + sqrt(-7))/22 up to integer translation
    ctx = HeckeContext(-7, 11, prec=40, tau_ideal="n")
    pt = heegner_point(ctx, ctx.class_rep)
    assert pt.b % 22 == 9


def test_heegner_point_class_input():
    ctx = HeckeContext(-11, 23, prec=40)
    for f in reduced_forms(-11):
        pt = heegner_point(ctx, ideal_of_form(f))
        assert (pt.b * pt.b - (-11)) % (4 * pt.a1 * 23) == 0


def test_heegner_point_validation():
    with pytest.raises(InputError):
        HeegnerPoint(-7, 11, 1, 2)  # even root
    pt = HeegnerPoint(-7, 11, 1, 9)
    assert pt.root == 9
