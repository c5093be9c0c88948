"""Hecke character on ideals: residue map, chi, psi, generators."""

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from splitcm.arith import jacobi
from splitcm.errors import InputError
from splitcm.hecke import (
    HeckeContext,
    KElem,
    chi,
    find_generator,
    mu_residue,
    psi_denominator,
    psi_ideal,
    psi_principal,
)
from splitcm.quadratic import QuadIdeal


def kelem(D):
    # integral elements (p + q*sqrt(D))/2 need p = q mod 2 for odd D
    return st.builds(
        lambda x, q: KElem(2 * x + (q % 2), q, D),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )


def test_kelem_integrality():
    with pytest.raises(InputError):
        KElem(1, 2, -7)
    KElem(1, 1, -7)
    KElem(2, 0, -7)


@given(kelem(-7), kelem(-7))
@settings(max_examples=120, deadline=None)
def test_kelem_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(kelem(-11))
@settings(max_examples=60, deadline=None)
def test_kelem_norm_trace(a):
    # x^2 - tr x + nm = 0 for x = a
    assert a * a - a.trace() * a + a.norm() * KElem(2, 0, -11) == KElem(0, 0, -11)
    assert a.norm() == (a * a.conjugate()).p // 2


def test_kelem_embed():
    z = KElem(3, 1, -7).embed(40)
    with mpmath.workdps(50):
        assert abs(z.re - mpf(3) / 2) < 1e-35
        assert abs(z.im - mpmath.sqrt(mpf(7)) / 2) < 1e-35


def test_mu_residue_is_ring_hom():
    ctx = HeckeContext(-7, 11, prec=40)
    one = KElem(2, 0, -7)
    sqrtD = KElem(0, 2, -7)
    assert mu_residue(ctx, one) == 1
    assert mu_residue(ctx, sqrtD) == ctx.b1 % 11


@given(kelem(-7), kelem(-7))
@settings(max_examples=80, deadline=None)
def test_mu_residue_hom_laws(a, b):
    ctx = HeckeContext(-7, 11, prec=40)
    N = 11
    assert mu_residue(ctx, a + b) == (mu_residue(ctx, a) + mu_residue(ctx, b)) % N
    assert mu_residue(ctx, a * b) == (mu_residue(ctx, a) * mu_residue(ctx, b)) % N


def test_chi_on_rational_integers():
    ctx = HeckeContext(-11, 23, prec=40)
    for m in range(1, 40):
        assert chi(ctx, KElem(2 * m, 0, -11)) == jacobi(m % 23, 23)


def test_chi_vanishes_on_level_ideal_only():
    ctx = HeckeContext(-7, 11, prec=40)
    gen = KElem(-ctx.b1, 1, -7)  # (-b1 + sqrt(D))/2, in (N, b1)
    assert chi(ctx, gen) == 0
    assert chi(ctx, gen.conjugate()) != 0
    assert chi(ctx, KElem(2 * 11, 0, -7)) == 0


@given(kelem(-7), kelem(-7))
@settings(max_examples=60, deadline=None)
def test_psi_principal_multiplicative(a, b):
    assume(not a.is_zero() and not b.is_zero())
    ctx = HeckeContext(-7, 11, prec=50)
    lhs = psi_principal(ctx, a * b)
    rhs = psi_principal(ctx, a) * psi_principal(ctx, b)
    assert lhs.close_to(rhs, mpf(10) ** -40)


@given(kelem(-7))
@settings(max_examples=40, deadline=None)
def test_psi_principal_unit_independent(a):
    assume(not a.is_zero())
    ctx = HeckeContext(-7, 11, prec=50)
    assert psi_principal(ctx, a).close_to(psi_principal(ctx, -a), mpf(10) ** -40)


def primitive_ideals(D, max_norm):
    """Every primitive ideal (a, b) of norm a <= max_norm, b in (-a, a]."""
    for a in range(1, max_norm + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a) == 0:
                yield QuadIdeal(a, b, D)


def test_find_generator():
    for D in (-7, -11):
        for ideal in primitive_ideals(D, 150):
            g = find_generator(ideal)
            assert g.norm() == ideal.norm
            assert ideal.contains(g.p, g.q)


def test_psi_ideal_zero_exactly_on_conductor():
    ctx = HeckeContext(-7, 11, prec=50)
    hits = 0
    for ideal in primitive_ideals(-7, 300):
        v = psi_ideal(ctx, ideal)
        if ideal.norm % 11 == 0 and (ideal.b - ctx.b1) % 22 == 0:
            assert v.abs_value() == 0
            hits += 1
        else:
            # |psi(a)| = sqrt(norm a) off the conductor
            with mpmath.workdps(60):
                assert abs(v.abs_value() - mpmath.sqrt(mpf(ideal.norm))) < mpf(10) ** -40
    assert hits > 0


def test_psi_ideal_respects_root_argument():
    ctx = HeckeContext(-7, 11, prec=50)
    level = ctx.level_ideal
    assert psi_ideal(ctx, level).abs_value() == 0
    assert psi_ideal(ctx, level.conjugate()).abs_value() != 0
    # with the conjugate root the roles swap
    assert psi_ideal(ctx, level, root=-ctx.b1).abs_value() != 0
    assert psi_ideal(ctx, level.conjugate(), root=-ctx.b1).abs_value() == 0


def test_psi_denominator_trivial_class():
    # default representative is O_K itself, where psi is chi(1) * 1 = 1
    for (D, N) in [(-7, 11), (-11, 23)]:
        ctx = HeckeContext(D, N, prec=50)
        assert psi_denominator(ctx).close_to(1, mpf(10) ** -40)


def test_context_validation():
    with pytest.raises(InputError):
        HeckeContext(-7, 11, b1=4)
    with pytest.raises(InputError):
        HeckeContext(-7, 11, bOK=2)
    with pytest.raises(InputError):
        HeckeContext(-7, 11, tau_ideal="sigma")
    with pytest.raises(InputError):
        HeckeContext(-7, 11, eta_convention="sec8")
    with pytest.raises(InputError):
        HeckeContext(-7, 11, class_rep=QuadIdeal(1, 1, -11))
    with pytest.raises(InputError):
        HeckeContext(-7, 11, class_rep=QuadIdeal(11, 9, -7))
    ctx = HeckeContext(-7, 11)
    assert ctx.b1 == 9 and ctx.h == 1
    assert ctx.level_ideal == QuadIdeal(11, 9, -7)
    assert ctx.char_root == -9
    assert HeckeContext(-7, 11, tau_ideal="n").char_root == 9
    # the other odd root works too but is a different convention
    assert HeckeContext(-7, 11, b1=13).b1 == 13
