"""Classification pipeline, central values, and the series oracle."""

from fractions import Fraction

import pytest
from mpmath import mpf

from splitcm import central
from splitcm.central import (
    ClassRow,
    admissible_levels,
    classify,
    discover_classes,
    l_value,
    l_value_paths,
    make_table,
    oracle_l_value,
)
from splitcm.errors import (
    ConventionError,
    IncompleteClassListError,
    InputError,
    UnsupportedError,
)
from splitcm.hecke import HeckeContext
from splitcm.quadratic import reduced_forms
from splitcm.quaternion import build_Iz, right_order

L_7_11 = 0.27457144311888215 + 0.8185491052922107j
L_7_23 = 0.63241205401606 - 0.33993416083178j
L_11_23 = 0.98776240849350 + 0.68869410015579j


@pytest.fixture(scope="module")
def store7():
    return discover_classes(-7, prec=60)


@pytest.fixture(scope="module")
def store11():
    return discover_classes(-11, prec=60)


def test_admissible_levels_match_known_lists():
    assert admissible_levels(-7, 200) == [11, 23, 43, 67, 71, 79, 107, 127, 151, 163, 179, 191]
    assert admissible_levels(-11, 250) == [23, 31, 47, 59, 67, 71, 103, 163, 179, 191, 199, 223]
    # 7 itself is never admissible for these discs: ramified resp. inert
    assert 7 not in admissible_levels(-7, 10)
    assert 7 not in admissible_levels(-11, 10)


def test_discover_classes_mass_and_units(store7, store11):
    assert len(store7.classes) == 1
    assert store7.classes[0].omega == 2
    assert store7.mass() == Fraction(1, 4) == Fraction(-(-7) - 1, 24)

    assert len(store11.classes) == 2
    assert sorted(info.omega for info in store11.classes) == [2, 3]
    assert store11.mass() == Fraction(5, 12) == Fraction(-(-11) - 1, 24)
    assert sorted(info.theta_abs for info in store11.classes) == [0, 2]


def test_discover_classes_incomplete_scan():
    # a single level where only one of the two classes has points
    with pytest.raises(IncompleteClassListError) as exc:
        discover_classes(-11, levels=[67], prec=60)
    assert "mass" in str(exc.value)


def test_store_matches_orders_from_other_levels(store7):
    ctx = HeckeContext(-7, 23, prec=60)
    for Q in reduced_forms(-23):
        order = right_order(build_Iz(ctx, Q))
        assert store7.match(order) == 0


def test_classify_known_rows(store7, store11):
    ctx = HeckeContext(-7, 11, prec=60)
    records, rows = classify(ctx, store7)
    assert rows == [ClassRow(N=11, abs_theta=1, count=1, h_eps=-1, h_r=2)]
    assert len(records) == 1 and records[0].snapped_integer == -1

    ctx = HeckeContext(-11, 23, prec=60)
    records, rows = classify(ctx, store11)
    assert rows == [
        ClassRow(N=23, abs_theta=0, count=2, h_eps=2, h_r=4),
        ClassRow(N=23, abs_theta=2, count=1, h_eps=1, h_r=2),
    ]
    assert sorted(r.snapped_integer for r in records) == [0, 0, 2]
    for r in records:
        assert r.eps == (1 if r.snapped_integer >= 0 else -1)


def test_classify_rejects_convention_mismatch(store7):
    ctx = HeckeContext(-7, 11, prec=60, tau_ideal="n")
    with pytest.raises(InputError):
        classify(ctx, store7)


def test_sec7_convention_fails_integrality():
    # the collapsed prefactor variant does not make theta_hat an integer
    with pytest.raises(ConventionError):
        discover_classes(-7, prec=60, eta_convention="sec7")


def test_l_value_two_paths_agree(store7):
    ctx = HeckeContext(-7, 11, prec=60)
    direct, structured = l_value_paths(ctx, store7)
    assert direct.distance(structured) < mpf(10) ** -45
    v = l_value(ctx, store7)
    z = complex(float(v.re), float(v.im))
    assert abs(z - L_7_11) < 1e-12


def test_l_value_second_level(store7):
    ctx = HeckeContext(-7, 23, prec=60)
    v = l_value(ctx, store7)
    z = complex(float(v.re), float(v.im))
    assert abs(z - L_7_23) < 1e-11


def test_l_value_other_disc(store11):
    ctx = HeckeContext(-11, 23, prec=60)
    v = l_value(ctx, store11)
    z = complex(float(v.re), float(v.im))
    assert abs(z - L_11_23) < 1e-11


def test_l_value_unsupported_class_number():
    with pytest.raises(UnsupportedError):
        l_value_paths(HeckeContext(-15, 47, prec=40), None)


def test_oracle_fast_matches_l_value():
    for (D, N), want in [((-7, 11), L_7_11), ((-7, 23), L_7_23), ((-11, 23), L_11_23)]:
        got = oracle_l_value(D, N, X=1.0e5)
        assert abs(got - want) / abs(want) < 1e-9, (D, N)


def test_oracle_methods_agree():
    # same smoothed series, two different enumeration programs
    for (D, N) in [(-7, 11), (-11, 23)]:
        fast = oracle_l_value(D, N, X=1.0e3, method="fast")
        exact = oracle_l_value(D, N, X=1.0e3, method="exact")
        assert abs(fast - exact) < 1e-10, (D, N)


def test_oracle_stabilizes_in_cutoff():
    vals = [oracle_l_value(-7, 11, X=x) for x in (2.5e3, 1.0e4, 4.0e4)]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 <= d1 or d2 < 1e-12


def test_oracle_validation():
    with pytest.raises(UnsupportedError):
        oracle_l_value(-15, 47)
    with pytest.raises(InputError):
        oracle_l_value(-7, 11, method="series")
    with pytest.raises(InputError):
        oracle_l_value(-7, 13)  # 13 = 1 mod 4


def test_make_table_small(store7):
    result = make_table(-7, 50, prec=60, store=store7)
    assert result.failures == ()
    assert list(result.rows) == [
        ClassRow(N=11, abs_theta=1, count=1, h_eps=-1, h_r=2),
        ClassRow(N=23, abs_theta=1, count=3, h_eps=-1, h_r=6),
        ClassRow(N=43, abs_theta=1, count=1, h_eps=1, h_r=2),
    ]


def test_make_table_records_split_cm_errors_per_level(store7):
    def level_rows(ctx):
        if ctx.N == 23:
            raise ConventionError("theta is not an integer")
        return classify(ctx, store7)[1]

    result = make_table(-7, 50, prec=60, level_rows=level_rows)
    assert result.failures == ((23, "ConventionError: theta is not an integer"),)
    assert [row.N for row in result.rows] == [11, 43]


def test_make_table_propagates_other_errors(store7, monkeypatch):
    def broken(ctx, store):
        raise TypeError("broken classify")

    monkeypatch.setattr(central, "classify", broken)
    with pytest.raises(TypeError):
        make_table(-7, 50, prec=60, store=store7)
