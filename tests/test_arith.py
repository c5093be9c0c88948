"""Elementary number theory helpers, checked against brute force."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcm.arith import PSI_13, is_prime, jacobi
from splitcm.errors import ResourceError


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
    # the least strong pseudoprimes to the first 1, 5, 9 and 12 prime bases
    # (psi_1, psi_5, psi_9, psi_12), all composite
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    # psi_13 is a strong pseudoprime to every base the test uses
    with pytest.raises(ResourceError, match="psi_13 = 3317044064679887385961981"):
        is_prime(PSI_13)
    assert PSI_13 == 1287836182261 * 2575672364521


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

