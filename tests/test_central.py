"""Classification pipeline, central values, and the functional-equation oracle."""

import cmath
import time
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from mpmath import mpf

from splitcm import central, hecke, theta
from splitcm.arith import is_prime, jacobi
from splitcm.central import (
    ClassRow,
    admissible_levels,
    classify,
    discover_classes,
    l_value,
    l_value_paths,
    make_table,
    oracle_central_value,
    oracle_l_value,
)
from splitcm.errors import (
    ConventionError,
    IncompleteClassListError,
    InputError,
    UnsupportedError,
)
from splitcm.hecke import HeckeContext, find_generator
from splitcm.numeric import BigComplex
from splitcm.quadratic import class_number, reduced_forms, smallest_odd_root
from splitcm.quaternion import build_Iz, right_order

L_7_11 = 0.27457144311888215 + 0.8185491052922107j
L_7_23 = 0.63241205401606 - 0.33993416083178j
L_11_23 = 0.98776240849350 + 0.68869410015579j
# levels where the class sum A(N), and so L(psi_N, 1), is 0
VANISHING_LEVELS = ((-11, 163), (-19, 163), (-43, 139))


@pytest.fixture(scope="module")
def store7():
    return discover_classes(-7)


@pytest.fixture(scope="module")
def store11():
    return discover_classes(-11)


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


@pytest.fixture(scope="module")
def store43():
    return discover_classes(-43)


def test_discover_classes_weights_types_by_ideal_classes(store43):
    # a type with no element of reduced norm |D| stands for two left ideal classes
    store19 = discover_classes(-19)
    assert [(info.omega, info.k) for info in store19.classes] == [(1, 1), (2, 1)]
    assert store19.mass() == Fraction(3, 4) == Fraction(19 - 1, 24)
    assert [(info.omega, info.k) for info in store43.classes] == [(1, 1), (1, 2), (2, 1)]
    assert store43.mass() == Fraction(7, 4) == Fraction(43 - 1, 24)
    assert [info.theta_abs for info in store43.classes] == [4, 2, 0]


def test_classify_every_level_of_d43(store43):
    k = {info.theta_abs: info.k for info in store43.classes}
    for N in admissible_levels(-43, 200):
        records, rows = classify(HeckeContext(-43, N, prec=60), store43)
        assert len(records) == sum(row.count for row in rows) == class_number(-N), N
        for row in rows:
            assert 2 * row.count == k[row.abs_theta] * row.h_r, (N, row)


def test_l_value_d43_matches_the_oracle(store43):
    want, _ = oracle_central_value(-43, 47, prec=100)
    got = l_value(HeckeContext(-43, 47, prec=100), store43)
    assert got.distance(want) < mpf(10) ** -85


def test_discover_classes_incomplete_scan(monkeypatch):
    # a single level where only one of the two classes has points
    monkeypatch.setattr(central, "admissible_levels", lambda D, n_max: [67])
    with pytest.raises(IncompleteClassListError) as exc:
        discover_classes(-11)
    assert "mass" in str(exc.value)


def test_store_matches_orders_from_other_levels(store7):
    ctx = HeckeContext(-7, 23, prec=60)
    for Q in reduced_forms(-23):
        order = right_order(build_Iz(ctx, Q))
        assert store7.match(order) == 0


def test_class_keys_equal_the_order_match():
    # every form at every admissible level <= 400 of the six D, under both
    # primes over N: the class that classify takes from the reduced point
    # is the class of the form's own right order under match; no reduced
    # point lies in two classes, and every class is reached
    for D in (-7, -11, -19, -43, -67, -163):
        store = discover_classes(D)
        seen = {}
        for N in admissible_levels(D, 400):
            b1 = HeckeContext(D, N).b1
            for root in (b1, 2 * N - b1):
                ctx = HeckeContext(D, N, b1=root, prec=30)
                records, _ = classify(ctx, store)
                for r, red in zip(records, ctx.reduced_points):
                    cid = store.match(right_order(build_Iz(ctx, r.form)))
                    assert r.class_id == cid == store.keys[red.key], (D, N, root, r.form)
                    assert seen.setdefault(red.key, cid) == cid, (D, N, root, r.form)
        assert set(seen.values()) == set(range(len(store.classes))), D


def test_a_level_of_known_points_builds_no_order(monkeypatch):
    # discovery at D = -11 meets two of its reduced points; (-11, 59) has
    # one more, so classify builds one order there, and none at (-11, 67),
    # whose points are all known by then
    built = []
    order_of = central.right_order

    def spy(I):
        built.append(I)
        return order_of(I)

    store = discover_classes(-11)
    monkeypatch.setattr(central, "right_order", spy)
    first, second = HeckeContext(-11, 59), HeckeContext(-11, 67)
    assert len({red.key for red in first.reduced_points} - set(store.keys)) == 1
    classify(first, store)
    assert len(built) == 1
    built.clear()
    assert {red.key for red in second.reduced_points} <= set(store.keys)
    records, rows = classify(second, store)
    assert built == [] and len(records) == len(second.forms)


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
    # a store holds the classes of one field; -11 splits at 23 like -7 does
    ctx = HeckeContext(-11, 23, prec=60)
    with pytest.raises(InputError) as exc:
        classify(ctx, store7)
    assert "D = -7" in str(exc.value)


def test_sec7_convention_fails_integrality(sec7_eta):
    # the collapsed prefactor variant does not make theta_hat an integer
    with pytest.raises(ConventionError):
        discover_classes(-7)


def test_l_value_two_paths_agree(store7, monkeypatch):
    ctx = HeckeContext(-7, 11, prec=60)
    direct, structured, _ = l_value_paths(ctx, store7)
    assert direct.distance(structured) < mpf(10) ** -45
    v = l_value(ctx, store7)
    z = complex(float(v.re), float(v.im))
    assert abs(z - L_7_11) < 1e-12

    # a structured value of the wrong sign is 1.44 away; even at the precision
    # floor the path check must refuse it
    def flipped(ctx, store):
        direct, structured, weighted = l_value_paths(ctx, store)
        return direct, structured * -1, weighted

    monkeypatch.setattr(central, "l_value_paths", flipped)
    with pytest.raises(ConventionError):
        l_value(HeckeContext(-7, 11, prec=20), store7)


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


def _generator_phase(D, N, prec):
    """i*pi/|pi| for pi a generator of the level ideal (N, b1), as an mpc."""
    with mpmath.workdps(prec + 10):
        pi = find_generator(HeckeContext(D, N).level_ideal).embed(prec).to_mpc()
        return 1j * pi / abs(pi)


def test_oracle_fast_matches_l_value(store7, store11):
    # at 100 digits, in milliseconds
    for D, N, store in ((-7, 11, store7), (-7, 23, store7), (-11, 23, store11)):
        want = l_value(HeckeContext(D, N, prec=100), store)
        got, _ = oracle_central_value(D, N, prec=100)
        assert got.distance(want) < mpf(10) ** -85, (D, N)


def test_l_value_at_600_digits_matches_the_oracle(store7):
    # the oracle runs no theta, so this checks the period P(N) at 600
    # digits (the prefactor and the transformed eta) and the integer A(N),
    # which l_value takes from theta at 80 digits, against an independent path
    prec = 600
    for N in (11, 43):
        want, _ = oracle_central_value(-7, N, prec=prec)
        got = l_value(HeckeContext(-7, N, prec=prec), store7)
        assert got.distance(want) < mpf(10) ** -(prec - 15), N


def test_l_value_at_600_digits_runs_theta_at_80(store7, monkeypatch):
    # the digits of L beyond THETA_DIGITS come from the period alone:
    # reduced_theta runs at no more than THETA_DIGITS, and dedekind_eta only at
    # tau0 = (-1 + sqrt(-7))/2, never at the level point tau_N
    theta_precs, eta_heights = [], []
    reduced_theta, dedekind_eta = theta.reduced_theta, theta.dedekind_eta

    def spy_reduced_theta(D, red, prec):
        theta_precs.append(prec)
        return reduced_theta(D, red, prec)

    def spy_dedekind_eta(z, prec):
        eta_heights.append(float(mpmath.mpc(z).imag))
        return dedekind_eta(z, prec)

    monkeypatch.setattr(theta, "reduced_theta", spy_reduced_theta)
    monkeypatch.setattr(theta, "dedekind_eta", spy_dedekind_eta)
    theta._eta_tau0.cache_clear()
    got = l_value(HeckeContext(-7, 43, prec=600), store7)
    assert got.prec == 600
    assert theta_precs and max(theta_precs) <= hecke.THETA_DIGITS == 80
    assert eta_heights and all(abs(y - 7**0.5 / 2) < 1e-12 for y in eta_heights)


def test_l_value_computes_the_eta_factor_once(store7, monkeypatch):
    # the eta factor normalizes theta and is a factor of the period; one
    # call at prec serves both, also when theta runs at fewer digits
    calls = []
    eta_norm_factor = theta.eta_norm_factor

    def spy(ctx):
        calls.append(ctx.prec)
        return eta_norm_factor(ctx)

    for module in (central, hecke, theta):  # wherever the package binds it
        if getattr(module, "eta_norm_factor", None) is eta_norm_factor:
            monkeypatch.setattr(module, "eta_norm_factor", spy)
    for prec in (80, 600):
        calls.clear()
        l_value(HeckeContext(-7, 43, prec=prec), store7)
        assert calls == [prec]


def test_classify_runs_no_mpmath_per_form(store7, monkeypatch):
    # classify reads each integer from complex floats and one constant per
    # reduced point: with that constant warm it runs neither reduced_theta
    # nor eta_norm_factor, and no BigComplex arithmetic, at 80 or at 600
    # digits, and the records at 600 digits are those of the default precision
    want = classify(HeckeContext(-7, 43), store7)
    misses = theta._reduced_kappa.cache_info().misses

    def refuse(*args):
        raise AssertionError("classify ran mpmath for a form")

    monkeypatch.setattr(theta, "reduced_theta", refuse)
    monkeypatch.setattr(theta, "eta_norm_factor", refuse)
    for name in ("from_mpc", "to_mpc", "__truediv__", "nearest_int"):
        monkeypatch.setattr(BigComplex, name, refuse)
    for prec in (80, 600):
        assert classify(HeckeContext(-7, 43, prec=prec), store7) == want
    assert theta._reduced_kappa.cache_info().misses == misses


@pytest.mark.parametrize("factor", [cmath.exp(1j * cmath.pi / 8), 1 + 1e-6])
def test_classify_refuses_a_kappa_off_its_value(store7, monkeypatch, factor):
    # kappa turned by e(1/16), or off by a relative 1e-6, leaves each value
    # off its integer by far more than the float bound
    kappa = theta._reduced_kappa

    def off(D, point, prec):
        value, radius = kappa(D, point, prec)
        return value * factor, radius

    monkeypatch.setattr(theta, "_reduced_kappa", off)
    for N in (11, 43):
        with pytest.raises(ConventionError):
            classify(HeckeContext(-7, N), store7)


@pytest.mark.parametrize("D, n_classes", [(-7, 1), (-11, 2), (-19, 2), (-43, 3), (-67, 4), (-163, 8)])
def test_discover_classes_computes_theta_of_witnesses_only(D, n_classes, monkeypatch):
    # one theta series per class, for the form where it first appears, and
    # none for the other forms of the scanned levels
    calls = []
    theta_form = theta.theta_form

    def spy(Q, tau, prec):
        calls.append(Q)
        return theta_form(Q, tau, prec)

    monkeypatch.setattr(theta, "theta_form", spy)
    store = discover_classes(D)
    assert calls == [info.witness_form for info in store.classes]
    assert len(calls) == n_classes


def test_oracle_root_number_is_the_generator_phase():
    # criterion 7 assumes W = +-i*pi/|pi|; the oracle solves for W instead, and
    # certifies |W| = 1 also for D = -19 and -43, and at the levels where L = 0
    for D, N in ((-7, 11), (-7, 23), (-11, 23), (-19, 23), (-43, 47), *VANISHING_LEVELS):
        _, root = oracle_central_value(D, N, prec=100)
        phase = _generator_phase(D, N, 100)
        with mpmath.workdps(110):
            w = root.to_mpc()
            assert min(abs(w - phase), abs(w + phase)) < mpf(10) ** -85, (D, N)


def test_oracle_stabilizes_in_cutoff():
    # the cutoff follows from prec: p + 20 digits sum further and must agree to
    # 10^-(p+9), inside the oracle's error budget of amp 10^-(p+12)
    for D, N in ((-7, 11), (-11, 23)):
        for p in (40, 80):
            low, _ = oracle_central_value(D, N, prec=p)
            high, _ = oracle_central_value(D, N, prec=p + 20)
            assert low.distance(high) < mpf(10) ** -(p + 9), (D, N, p)


def test_oracle_vanishes_where_the_class_sum_does():
    # A(N) = sum |theta| h_eps is 0 at these levels, so L = 0 and no relative
    # error can check the oracle there; each part of L within the oracle's
    # certified error amp 10^-digits is returned as an exact 0, and a level
    # where L != 0 keeps both parts
    for D, N in VANISHING_LEVELS:
        value, _ = oracle_central_value(D, N, prec=80)
        assert value.re == 0 and value.im == 0, (D, N)
    value, _ = oracle_central_value(-7, 11, prec=80)
    assert value.re != 0 and value.im != 0


def _series_sum(D, N, t, coefficients):
    """sum a_n/n x^n, x = e^(-2 pi t/sqrt(|D| N)), over [(n, P_n, Q_n)], term by term at the working precision."""
    x = mpmath.exp(-2 * mpmath.pi * t.numerator / (t.denominator * mpmath.sqrt(-D * N)))
    root = mpmath.sqrt(-D)
    return sum((mpmath.mpc(p, root * q) * x**n / (2 * n) for n, p, q in coefficients), mpmath.mpc(0))


@pytest.mark.parametrize("D, N, prec", [(-7, 11, 80), (-11, 67, 80), (-163, 47, 80), (-7, 43, 600)])
def test_oracle_series_within_its_rounding_bound(D, N, prec):
    # _oracle_series sums the three series in one block-scaled fixed-point
    # pass at 2^-P; each must stay within the written bound
    # 4 sqrt|D| (T + 1)^2 2^-P of the same sum cut at its own n_max(t), over
    # the same exact coefficients, summed term by term in mpmath at prec + 40
    # digits, and that bound must be below 10^-digits / 2.  So must each
    # series' tail past n_max(t), summed here at 20 digits to 2 n_max(4/5),
    # past which it is below 10^-(2 digits).
    digits = prec + central.ORACLE_TAIL_DIGITS + central.ORACLE_MARGIN_DIGITS
    b1 = smallest_odd_root(D, N)
    terms, cutoffs, P = central._oracle_terms(D, N, b1, digits)
    coefficients = central._oracle_coefficients(D, N, b1, 2 * cutoffs[0])
    assert terms[1:] == [c for c in coefficients if c[0] <= cutoffs[0]]
    with mpmath.workdps(prec + 40):
        bound = 4 * mpmath.sqrt(-D) * len(terms) ** 2 * mpmath.ldexp(1, -P)
        assert bound < mpf(10) ** -digits / 2
        sums = central._oracle_series(terms, cutoffs, D, N, P)
    for t, n_max, got in zip(central.ORACLE_POINTS, cutoffs, sums):
        with mpmath.workdps(prec + 40):
            head = _series_sum(D, N, t, [c for c in coefficients if c[0] <= n_max])
            assert abs(got - head) < bound, (D, N, t)
        with mpmath.workdps(20):
            tail = _series_sum(D, N, t, [c for c in coefficients if c[0] > n_max])
            assert abs(tail) < mpf(10) ** -digits / 2, (D, N, t)


def test_oracle_series_stops_each_sum_at_its_cutoff():
    # with cutoffs far inside the terms, one term more or less in a sum is
    # far above the rounding bound: the second sum must take the term at its
    # cutoff, and the third must leave out the term just above its cutoff
    D, N, digits = -7, 11, 95
    b1 = smallest_odd_root(D, N)
    terms, cutoffs, P = central._oracle_terms(D, N, b1, digits)
    cutoffs = (cutoffs[0], terms[40][0], terms[20][0] - 1)
    with mpmath.workdps(digits + 20):
        bound = 4 * mpmath.sqrt(-D) * len(terms) ** 2 * mpmath.ldexp(1, -P)
        sums = central._oracle_series(terms, cutoffs, D, N, P)
        for t, n_max, got in zip(central.ORACLE_POINTS, cutoffs, sums):
            head = _series_sum(D, N, t, [c for c in terms[1:] if c[0] <= n_max])
            assert abs(got - head) < bound, t


def test_oracle_rejects_a_wrong_character(monkeypatch):
    # an odd b that is not a root of D mod N gives no character of O_K: |W| != 1
    terms = central._oracle_terms
    monkeypatch.setattr(central, "_oracle_terms", lambda D, N, b1, digits: terms(D, N, b1 + 2, digits))
    with pytest.raises(ConventionError) as exc:
        oracle_central_value(-7, 11)
    assert "|W|" in str(exc.value)


def _coefficient_product(D, x, y):
    """(P, Q) of a_m a_n, each given as (P, Q) with a = (P + Q sqrt(D))/2."""
    (p1, q1), (p2, q2) = x, y
    p, q = p1 * p2 + D * q1 * q2, p1 * q2 + p2 * q1
    assert p % 2 == 0 and q % 2 == 0
    return p // 2, q // 2


def _coefficient_table(D, N, n_max):
    """{n: (P_n, Q_n)} for n = 1..n_max, zeros included, from the sparse coefficient list."""
    sparse = central._oracle_coefficients(D, N, smallest_odd_root(D, N), n_max)
    assert [n for n, _, _ in sparse] == sorted({n for n, _, _ in sparse})
    assert all(p or q for _, p, q in sparse)
    a = dict.fromkeys(range(1, n_max + 1), (0, 0))
    a.update((n, (p, q)) for n, p, q in sparse)
    return a


@pytest.mark.parametrize("D, N", [(-7, 11), (-11, 23), (-163, 47)])
def test_oracle_coefficients_match_their_definition(D, N):
    # a_n = (1/2) sum of chi(alpha) alpha over every alpha = (p + q sqrt(D))/2
    # of norm n, of both signs, with chi(alpha) = jacobi((p + q b1)/2 mod N, N);
    # with a_n = (P_n + Q_n sqrt(D))/2 that is P_n = (1/2) sum chi p and
    # Q_n = (1/2) sum chi q.  Here N < n_max, so the walk's residue wraps.
    n_max = 400
    b1 = smallest_odd_root(D, N)
    inv2 = (N + 1) // 2
    sums = {}
    for q in range(-40, 41):
        for p in range(-40, 41):
            n = (p * p - D * q * q) // 4
            if (p - q) % 2 or not 0 < n <= n_max:
                continue
            sign = jacobi((p + q * b1) * inv2 % N, N)
            P, Q = sums.get(n, (0, 0))
            sums[n] = (P + sign * p, Q + sign * q)
    assert all(P % 2 == 0 and Q % 2 == 0 for P, Q in sums.values())
    want = [(n, P // 2, Q // 2) for n, (P, Q) in sorted(sums.items()) if P or Q]
    assert N < n_max and len(want) > 40
    assert central._oracle_coefficients(D, N, b1, n_max) == want


def test_oracle_coefficients_are_multiplicative():
    # psi_N is a Hecke character, so a_mn = a_m a_n for coprime m, n
    for D, N in ((-7, 11), (-11, 23)):
        a = _coefficient_table(D, N, 400)
        assert a[1] == (2, 0)
        pairs = 0
        for m in range(2, 21):
            for n in range(m + 1, 400 // m + 1):
                if gcd(m, n) == 1:
                    assert a[m * n] == _coefficient_product(D, a[m], a[n]), (D, N, m, n)
                    pairs += 1
        assert pairs > 400


def test_oracle_character_vanishes_on_the_level_ideal_only():
    # chi kills (N, b1) and not its conjugate: a_N = psi((N, -b1)) has norm N,
    # a_(N^2) = a_N^2, and inert primes p have a_p = 0
    for D, N in ((-7, 11), (-7, 23), (-11, 23)):
        a = _coefficient_table(D, N, N * N)
        p, q = a[N]
        assert (p * p - D * q * q) // 4 == N
        assert a[N * N] == _coefficient_product(D, a[N], a[N])
        for ell in range(3, N * N + 1, 2):
            if is_prime(ell) and jacobi(D % ell, ell) == -1:
                assert a[ell] == (0, 0), (D, N, ell)


def test_oracle_character_is_computed_only_at_the_residues_met(monkeypatch):
    # one Jacobi symbol per residue met, not per residue mod N: at most one
    # per alpha up to sign, about pi n_max/sqrt(7) of them at D = -7
    calls, n_maxes = [], []
    real_jacobi, real_coefficients = central.jacobi, central._oracle_coefficients

    def counting_jacobi(a, n):
        calls.append(a)
        return real_jacobi(a, n)

    def recording_coefficients(D, N, b1, n_max):
        n_maxes.append(n_max)
        return real_coefficients(D, N, b1, n_max)

    monkeypatch.setattr(central, "jacobi", counting_jacobi)
    monkeypatch.setattr(central, "_oracle_coefficients", recording_coefficients)
    N = 1000003
    oracle_central_value(-7, N, prec=20)
    assert len(calls) == len(set(calls)) < 2 * sum(n_maxes) < N / 8


def test_oracle_validation():
    with pytest.raises(UnsupportedError):
        oracle_l_value(-15, 47)
    with pytest.raises(InputError):
        oracle_l_value(-7, 13)  # 13 = 1 mod 4
    with pytest.raises(InputError):
        oracle_central_value(-7, 11, prec=19)


@pytest.mark.parametrize(
    "D, cause",
    [(-8, "D = -8 is even"), (-20, "D = -20 is even"), (-15, "|D| = 15 is not prime"),
     (-23, "h(D) = 3 for D = -23"), (-31, "h(D) = 3 for D = -31")],
)
def test_unsupported_disc_is_rejected_at_entry(D, cause):
    # D = -8 does not split at 47: the discriminant is rejected before the level is looked at
    for enter in (
        lambda: oracle_l_value(D, 47),
        lambda: discover_classes(D),
        lambda: HeckeContext(D, 47),
        lambda: make_table(D, 50, level_rows=lambda ctx: ()),
    ):
        with pytest.raises(UnsupportedError) as exc:
            enter()
        assert str(exc.value).startswith(cause)


def test_disc_below_minus_163_is_refused_at_once():
    # by Heegner-Stark no D < -163 has h(D) = 1; listing the reduced forms
    # of D = -1000000007 would take minutes
    start = time.perf_counter()
    with pytest.raises(UnsupportedError) as exc:
        make_table(-1000000007, 50, level_rows=lambda ctx: ())
    assert time.perf_counter() - start < 1
    assert str(exc.value).startswith("h(D) > 1 for D = -1000000007 < -163 (Heegner-Stark)")


def test_to_mpc_keeps_the_value_precision_outside_workdps(store7):
    value = l_value(HeckeContext(-7, 11, prec=80), store7)
    z = value.to_mpc()  # at the ambient 15 digits
    with mpmath.workdps(90):
        assert abs(z.real - value.re) < mpf(10) ** -65
        assert abs(z.imag - value.im) < mpf(10) ** -65


def test_make_table_small(store7):
    result = make_table(-7, 50, prec=60, level_rows=lambda ctx: classify(ctx, store7)[1])
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
        make_table(-7, 50, prec=60, level_rows=lambda ctx: central.classify(ctx, store7)[1])
