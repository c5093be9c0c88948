"""Classification pipeline, central values, and the functional-equation oracle."""

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


def test_classify_at_600_digits_runs_theta_at_80(store7, monkeypatch):
    # classify needs only the integers of theta, so a high-precision context
    # gives the records of the default precision from theta at THETA_DIGITS
    want = classify(HeckeContext(-7, 43), store7)
    precs = []
    reduced_theta = theta.reduced_theta

    def spy(D, red, prec):
        precs.append(prec)
        return reduced_theta(D, red, prec)

    monkeypatch.setattr(theta, "reduced_theta", spy)
    assert classify(HeckeContext(-7, 43, prec=600), store7) == want
    assert precs and max(precs) <= 80  # THETA_DIGITS


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
    # error can check the oracle there; its error budget is 10^-(prec+12) amp
    for D, N in VANISHING_LEVELS:
        value, _ = oracle_central_value(D, N, prec=80)
        assert abs(value.to_mpc()) < mpf(10) ** -90, (D, N)


@pytest.mark.parametrize("D, N, prec", [(-7, 11, 80), (-11, 67, 80), (-163, 47, 80), (-7, 43, 600)])
def test_oracle_series_within_its_rounding_bound(D, N, prec):
    # _oracle_series sums in block-scaled fixed point at 2^-P; it must stay
    # within its written bound 4 sqrt|D| (T + 1)^2 2^-P of the same truncated
    # sum over the same exact coefficients, summed term by term in mpmath at
    # prec + 40 digits, and that bound must be below 10^-digits / 2
    digits = prec + central.ORACLE_TAIL_DIGITS + central.ORACLE_MARGIN_DIGITS
    b1 = smallest_odd_root(D, N)
    terms, gap, P = central._oracle_terms(D, N, b1, digits)
    coefficients = central._oracle_coefficients(D, N, b1, terms[-1][0])
    with mpmath.workdps(prec + 40):
        bound = 4 * mpmath.sqrt(-D) * len(terms) ** 2 * mpmath.ldexp(1, -P)
        assert bound < mpf(10) ** -digits / 2
        for t in (Fraction(1), Fraction(4, 5), Fraction(5, 4)):
            got = central._oracle_series(terms, gap, D, N, t, P)
            x = mpmath.exp(-2 * mpmath.pi * t.numerator / (t.denominator * mpmath.sqrt(-D * N)))
            re, im = mpf(0), mpf(0)
            for n, p, q in coefficients:
                xn = x**n
                re += mpf(p) / n * xn
                im += mpf(q) / n * xn
            want = mpmath.mpc(re, mpmath.sqrt(-D) * im) / 2
            assert abs(got - want) < bound, (D, N, t)


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
        lambda: make_table(D, 50),
    ):
        with pytest.raises(UnsupportedError) as exc:
            enter()
        assert str(exc.value).startswith(cause)


def test_disc_below_minus_163_is_refused_at_once():
    # by Heegner-Stark no D < -163 has h(D) = 1; listing the reduced forms
    # of D = -1000000007 would take minutes
    start = time.perf_counter()
    with pytest.raises(UnsupportedError) as exc:
        make_table(-1000000007, 50)
    assert time.perf_counter() - start < 1
    assert str(exc.value).startswith("h(D) > 1 for D = -1000000007 < -163 (Heegner-Stark)")


def test_to_mpc_keeps_the_value_precision_outside_workdps(store7):
    value = l_value(HeckeContext(-7, 11, prec=80), store7)
    z = value.to_mpc()  # at the ambient 15 digits
    with mpmath.workdps(90):
        assert abs(z.real - value.re) < mpf(10) ** -65
        assert abs(z.imag - value.im) < mpf(10) ** -65


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
