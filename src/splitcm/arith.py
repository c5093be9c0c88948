"""Elementary number-theory helpers: primality, Jacobi symbol."""

from math import isqrt

from .errors import InputError


def is_prime(n):
    """Deterministic trial-division primality test (intended for n < 10^12)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
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


def smallest_prime_factors(limit):
    """Sieve of smallest prime factors; spf[n] for 0 <= n <= limit."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def sqrt_mod_prime(n, p):
    """A square root of n modulo an odd prime p, or None (Tonelli-Shanks)."""
    n %= p
    if n == 0:
        return 0
    if jacobi(n, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x


def _lift_odd_prime(n, p, e, r):
    # Hensel: r^2 = n mod p^k -> mod p^(k+1); 2r invertible since p odd, p∤r.
    pk = p
    for _ in range(e - 1):
        pk_next = pk * p
        diff = (r * r - n) % pk_next
        r = (r - diff * pow(2 * r, -1, pk_next)) % pk_next
        pk = pk_next
    return r


def _sqrts_mod_odd_prime_power(n, p, e):
    """All square roots of n modulo p^e, p an odd prime."""
    pe = p**e
    if n % p == 0:
        if n % pe == 0:
            step = p ** ((e + 1) // 2)
            return list(range(0, pe, step))
        v = 0
        m = n
        while m % p == 0:
            m //= p
            v += 1
        if v % 2 == 1:
            return []
        roots = _sqrts_mod_odd_prime_power(m, p, e - v)
        shift = p ** (v // 2)
        period = p ** (e - v // 2)
        return sorted({(r * shift) % period + k * period for r in roots for k in range(pe // period)})
    r = sqrt_mod_prime(n, p)
    if r is None:
        return []
    r = _lift_odd_prime(n, p, e, r)
    return sorted({r, pe - r}) if r != 0 else [0]


def _sqrts_mod_two_power(n, e):
    """All square roots of odd n modulo 2^e."""
    if e == 1:
        return [1]
    if e == 2:
        return [1, 3] if n % 4 == 1 else []
    if n % 8 != 1:
        return []
    # lift a base root through powers of two
    r = 1
    for k in range(3, e):
        if (r * r - n) % (1 << (k + 1)) != 0:
            r += 1 << (k - 1)
    mod = 1 << e
    return sorted({r % mod, (-r) % mod, (r + mod // 2) % mod, (-r + mod // 2) % mod})


def sqrts_mod(n, modulus, spf=None):
    """All square roots of n modulo modulus, via factorization and CRT."""
    if modulus == 1:
        return [0]
    factors = []
    m = modulus
    two = 0
    while m % 2 == 0:
        m //= 2
        two += 1
    while m > 1:
        p = spf[m] if spf is not None and m < len(spf) else None
        if p is None:
            p = 3
            while m % p:
                p += 2
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    parts = []
    if two:
        if n % 2 == 0:
            return _sqrts_by_scan(n, modulus)
        parts.append((1 << two, _sqrts_mod_two_power(n, two)))
    for p, e in factors:
        parts.append((p**e, _sqrts_mod_odd_prime_power(n, p, e)))
    roots = [0]
    mod_so_far = 1
    for pe, rs in parts:
        if not rs:
            return []
        inv_a = pow(mod_so_far, -1, pe)
        combined = []
        for x in roots:
            for r in rs:
                combined.append(x + mod_so_far * ((r - x) * inv_a % pe))
        roots = combined
        mod_so_far *= pe
    return sorted(set(roots))


def _sqrts_by_scan(n, modulus):
    return [x for x in range(modulus) if (x * x - n) % modulus == 0]
