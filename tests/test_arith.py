"""Elementary number theory helpers, checked against brute force."""

from math import gcd, isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from splitcm.arith import (
    is_prime,
    jacobi,
    smallest_prime_factors,
    sqrts_mod,
)


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            for k in range(p * p, limit + 1, p):
                flags[k] = False
    return flags


def test_is_prime_matches_sieve():
    flags = sieve(5000)
    for n in range(2, 5001):
        assert is_prime(n) == flags[n], n
    assert not is_prime(1) and not is_prime(0)


def test_jacobi_euler_criterion():
    # for odd primes p the Jacobi symbol is the Legendre symbol
    for p in (3, 7, 11, 23, 67, 191, 223):
        for a in range(0, p):
            e = pow(a, (p - 1) // 2, p)
            want = -1 if e == p - 1 else e
            assert jacobi(a, p) == want, (a, p)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_jacobi_multiplicative(a, b):
    n = 3 * 5 * 7 * 11
    assert jacobi(a * b % n, n) == jacobi(a % n, n) * jacobi(b % n, n)


def test_smallest_prime_factors():
    spf = smallest_prime_factors(3000)
    for n in range(2, 3001):
        p = spf[n]
        assert n % p == 0 and is_prime(p)
        for q in range(2, p):
            assert n % q != 0


def brute_sqrts(n, m):
    return [x for x in range(m) if (x * x - n) % m == 0]


def test_sqrts_mod_brute_small():
    for m in range(1, 200):
        for n in range(0, m):
            assert sorted(sqrts_mod(n, m)) == brute_sqrts(n, m), (n, m)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4000))
@settings(max_examples=200, deadline=None)
def test_sqrts_mod_brute_random(n, m):
    assert sorted(sqrts_mod(n, m)) == brute_sqrts(n % m, m)


def test_sqrts_mod_prime_powers():
    # every maximal prime-power case the CRT decomposition hits
    cases = [(2, e) for e in range(1, 11)] + [(3, e) for e in range(1, 7)] + [(7, 4), (11, 3)]
    for p, e in cases:
        m = p**e
        for n in range(0, min(m, 400)):
            assert sorted(sqrts_mod(n, m)) == brute_sqrts(n, m), (n, p, e)


def test_sqrts_mod_negative_and_large_n():
    # callers pass n = D < 0 routinely
    for m in (4, 44, 92, 4 * 23, 763):
        for d in (-7, -11):
            got = sorted(sqrts_mod(d, m))
            assert got == brute_sqrts(d % m, m), (d, m)


def test_sqrts_mod_with_spf_table():
    spf = smallest_prime_factors(4 * 500)
    for a in range(1, 501):
        assert sorted(sqrts_mod(-7, 4 * a, spf)) == brute_sqrts(-7 % (4 * a), 4 * a)
