"""Elementary number-theory helpers: primality, Jacobi symbol."""

from .errors import InputError, ResourceError

# the 13 primes 2..41: the trial divisors and the Miller-Rabin bases of is_prime
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of PRIME_BASES (Sorenson and
# Webster, Math. Comp. 86 (2017)): below it, those bases decide primality
PSI_13 = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test for n < PSI_13, ResourceError above.

    Trial division by PRIME_BASES decides every n < 43^2; the strong
    (Miller-Rabin) test to the same bases decides the rest below PSI_13.
    """
    if n >= PSI_13:
        raise ResourceError("primality of %d is decided only below psi_13 = %d" % (n, PSI_13))
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return n > 1
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a, n):
    """Jacobi symbol (a|n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise InputError("jacobi symbol needs odd positive modulus, got %r" % (n,))
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0

