"""The level context and field elements: validation, embedding, generators."""

import dataclasses

import mpmath
import pytest
from mpmath import mpf

from splitcm.errors import InputError
from splitcm.hecke import HeckeContext, KElem, find_generator
from splitcm.quadratic import QuadIdeal, unit_ideal


def test_kelem_integrality():
    with pytest.raises(InputError):
        KElem(1, 2, -7)
    KElem(1, 1, -7)
    KElem(2, 0, -7)


def test_kelem_embed():
    z = KElem(3, 1, -7).embed(40)
    with mpmath.workdps(50):
        assert abs(z.re - mpf(3) / 2) < 1e-35
        assert abs(z.im - mpmath.sqrt(mpf(7)) / 2) < 1e-35


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
            assert (g.p * g.p - D * g.q * g.q) // 4 == ideal.norm
            assert ideal.contains(g.p, g.q)


def test_context_validation():
    with pytest.raises(InputError):
        HeckeContext(-7, 11, b1=4)
    with pytest.raises(InputError):
        HeckeContext(-7, 11, b1=11)
    for prec in (0, 19):  # the floor is 20 digits
        with pytest.raises(InputError):
            HeckeContext(-7, 11, prec=prec)
    assert [f.name for f in dataclasses.fields(HeckeContext)] == ["D", "N", "b1", "prec"]
    ctx = HeckeContext(-7, 11)
    assert ctx.b1 == 9
    assert ctx.level_ideal == QuadIdeal(11, 9, -7)
    assert ctx.class_rep == unit_ideal(-7)
    # the other odd root picks the conjugate prime over N
    other = HeckeContext(-7, 11, b1=13)
    assert other.b1 == 13 and other.level_ideal == ctx.level_ideal.conjugate()


def test_context_keeps_b1_reduced_mod_2n():
    # a root typed as 9 + 22 or as 13 - 22 names the same prime as 9 or 13,
    # so the context, and what is printed and cached from it, is the same
    assert HeckeContext(-7, 11, b1=31) == HeckeContext(-7, 11)
    assert HeckeContext(-7, 11, b1=-9) == HeckeContext(-7, 11, b1=13)
    # a wrong root is refused as it was typed
    with pytest.raises(InputError, match="b1 = 33 "):
        HeckeContext(-7, 11, b1=33)
