"""Central L-values: classification of split-CM points and table rows.

The pipeline: for a level N, every reduced form Q of discriminant -N gets a
normalized theta value (an integer) and a maximal-order class; per class the
table reports the common |theta| value, the number of forms landing in the
class, and the signed count h_eps.  The central value is then

    L = 2 pi * eta_factor / (omega_N sqrt(N)) * sum_classes theta * h_eps

which must match the direct unnormalized sum over forms; both paths are
computed and compared.  An oracle evaluates the same L-value with no theta
machinery at all: the smoothed functional equation of L(psi_N, s), summed
over coefficients counted exactly in O_K, which also solves for the root
number W and certifies |W| = 1.

omega_N (units of the order of discriminant -N modulo sign) is 2 throughout
because N > 4; levels are primes N = 3 mod 4 that split in Q(sqrt(D)).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import mp, mpf

from .arith import is_prime, jacobi
from .errors import (
    ConventionError,
    IncompleteClassListError,
    InputError,
    InternalError,
    SplitCMError,
)
from .hecke import HeckeContext
from .numeric import GUARD_DIGITS, BigComplex
from .quadratic import (
    QuadForm,
    prime_ideal_above,
    reduced_forms,
    smallest_odd_root,
    validate_disc,
    validate_field_disc,
)
from .quaternion import (
    Order,
    build_Iz,
    embedding_count,
    is_maximal,
    orders_isometric,
    right_order,
    unit_count,
)
from .theta import level_thetas

OMEGA_N = 2
DISCOVERY_CAP = 1000
ORACLE_MIN_PREC = 20
ORACLE_TAIL_DIGITS = 12  # the oracle's truncation error stays below 10^-(prec + 12)
ORACLE_MARGIN_DIGITS = 3  # room for the error that solving for W adds


@dataclass(frozen=True)
class ThetaRecord:
    """Per-form data: normalized theta value, its integer, class, and sign."""

    form: QuadForm
    theta_hat: BigComplex
    snapped_integer: int
    class_id: int
    eps: int


@dataclass(frozen=True)
class ClassRow:
    """One table row: class invariant |theta|, counts at this level."""

    N: int
    abs_theta: int
    count: int
    h_eps: int
    h_r: int


@dataclass(frozen=True)
class ClassInfo:
    class_id: int
    order: Order
    omega: int
    theta_abs: int
    witness_level: int
    witness_form: QuadForm


@dataclass(frozen=True)
class ClassStore:
    """The full list of maximal-order classes for a discriminant D.

    Completeness is certified by the mass identity
    sum over classes of 1/(2 omega) = (|D| - 1)/24.
    """

    D: int
    classes: tuple

    def match(self, order):
        for info in self.classes:
            if orders_isometric(order, info.order):
                return info.class_id
        return None

    def mass(self):
        return sum(Fraction(1, 2 * info.omega) for info in self.classes)


def admissible_levels(D, n_max):
    """Primes N = 3 mod 4, N > 3, splitting in the field of discriminant D."""
    validate_disc(D)
    out = []
    for N in range(7, n_max + 1, 4):
        if is_prime(N) and jacobi(D % N, N) == 1:
            out.append(N)
    return out


def _snap(ctx, value):
    """Round a normalized theta value to its integer, or fail loudly."""
    n, err = value.nearest_int()
    tol = mpf(10) ** (-(ctx.prec // 2))
    if err > tol:
        raise ConventionError(
            "normalized theta %s is not within %s of an integer" % (value, tol)
        )
    return n


def _maximal_order(ctx, Q):
    """The right order of the form's ideal, which must be a maximal order."""
    order = right_order(build_Iz(ctx, Q))
    if not is_maximal(order):
        raise InternalError("right order of %s at N=%d is not maximal" % (Q, ctx.N))
    return order


def discover_classes(D, levels=None, prec=80, max_level=DISCOVERY_CAP):
    """Scan levels until the mass identity certifies every class was seen.

    Each new class stores a witness: the level and form where it first
    appeared and the snapped |theta| there, which is the class invariant
    reported in tables even at levels where the class has no points.
    With an explicit level list only those levels are scanned; otherwise
    all admissible levels up to max_level.
    """
    validate_field_disc(D)
    target = Fraction(-D - 1, 24)
    classes = []
    mass = Fraction(0)
    scan = admissible_levels(D, max_level) if levels is None else list(levels)
    last = scan[-1] if scan else 0
    for N in scan:
        ctx = HeckeContext(D, N, prec=prec)
        new = []  # (form, order) of each class first seen at this level
        for Q in reduced_forms(-N):
            order = _maximal_order(ctx, Q)
            known = [info.order for info in classes] + [o for _, o in new]
            if not any(orders_isometric(order, other) for other in known):
                new.append((Q, order))
        values = level_thetas(ctx, [Q for Q, _ in new]).normalized() if new else []
        for (Q, order), value in zip(new, values):
            classes.append(
                ClassInfo(
                    class_id=len(classes),
                    order=order,
                    omega=unit_count(order),
                    theta_abs=abs(_snap(ctx, value)),
                    witness_level=N,
                    witness_form=Q,
                )
            )
            mass += Fraction(1, 2 * classes[-1].omega)
            if mass > target:
                raise InternalError(
                    "class mass %s exceeded the target %s: classification is wrong" % (mass, target)
                )
        if mass == target:
            return ClassStore(D, tuple(classes))
    raise IncompleteClassListError(
        "mass %s of %s reached after scanning levels up to %d" % (mass, target, last)
    )


def classify(ctx, store, thetas=None):
    """All theta records at ctx's level plus one table row per known class.

    thetas is the level's LevelThetas when the caller has computed it
    already; otherwise it is computed here, once for all forms.
    """
    if store.D != ctx.D:
        raise InputError("class store was built for D = %d, not %d" % (store.D, ctx.D))
    if thetas is None:
        thetas = level_thetas(ctx, reduced_forms(-ctx.N))
    records = []
    for Q, value in zip(thetas.forms, thetas.normalized()):
        cid = store.match(_maximal_order(ctx, Q))
        if cid is None:
            raise IncompleteClassListError(
                "order class of %s at N=%d is missing from the store" % (Q, ctx.N)
            )
        snapped = _snap(ctx, value)
        info = store.classes[cid]
        if abs(snapped) != info.theta_abs:
            raise InternalError(
                "theta %d at N=%d breaks the class invariant %d of class %d"
                % (snapped, ctx.N, info.theta_abs, cid)
            )
        records.append(
            ThetaRecord(
                form=Q,
                theta_hat=value,
                snapped_integer=snapped,
                class_id=cid,
                eps=1 if snapped >= 0 else -1,
            )
        )
    rows = []
    for info in store.classes:
        members = [r for r in records if r.class_id == info.class_id]
        h_r = embedding_count(info.order, ctx.N)
        if 2 * len(members) != h_r:
            raise InternalError(
                "class %d has %d points at N=%d but h_R = %d" % (info.class_id, len(members), ctx.N, h_r)
            )
        rows.append(
            ClassRow(
                N=ctx.N,
                abs_theta=info.theta_abs,
                count=len(members),
                h_eps=sum(r.eps for r in members),
                h_r=h_r,
            )
        )
    rows.sort(key=lambda row: (row.abs_theta, row.count))
    return records, rows


def l_value_paths(ctx, store):
    """The central value two ways: direct form sum, and class-aggregated.

    direct     = 2 pi / (omega_N sqrt(N)) * sum_Q theta(Q tau)
    structured = 2 pi eta_factor / (omega_N sqrt(N)) * sum_[R] theta * h_eps

    Both use the theta series of one pass over the level's forms, the one
    that classify snaps to integers.

    Both values are complex in general: the conductor of psi_N is one prime
    over N, not Galois-stable, so the functional equation only makes
    L^2 * conj(i*pi/|pi|) real, with pi a generator of ctx.level_ideal.
    """
    thetas = level_thetas(ctx, reduced_forms(-ctx.N))
    total = BigComplex.make(0, 0, ctx.prec)
    for raw in thetas.raw:
        total = total + raw
    with mp.workdps(ctx.prec + GUARD_DIGITS):
        pref = BigComplex.make(2 * mpmath.pi / (OMEGA_N * mpmath.sqrt(ctx.N)), 0, ctx.prec)
    direct = pref * total

    _, rows = classify(ctx, store, thetas)
    weighted = sum(row.abs_theta * row.h_eps for row in rows)
    structured = pref * thetas.eta * weighted
    return direct, structured


def l_value(ctx, store):
    """The central value; both internal paths must agree to precision.

    The value is complex in general; what is real is L^2 * conj(i*pi/|pi|),
    with pi a generator of ctx.level_ideal (see l_value_paths).
    """
    direct, structured = l_value_paths(ctx, store)
    gap = direct.distance(structured)
    tol = mpf(10) ** (-(ctx.prec - 15))
    if gap > tol:
        raise ConventionError("central value paths differ by %s" % mpmath.nstr(gap, 5))
    return structured


def oracle_l_value(D, N):
    """oracle_central_value(D, N) at 80 digits, as a Python complex."""
    value, _ = oracle_central_value(D, N)
    return complex(float(value.re), float(value.im))


def oracle_central_value(D, N, prec=80):
    """L(psi_N, 1) and its root number W from the functional equation alone.

    With c = 2 pi / sqrt(|D| N) and a_n = (1/2) sum over N(alpha) = n of
    chi(alpha) alpha, for every t > 0 (Cohen, GTM 240, 10.3; Dokchitser,
    Experiment. Math. 13, 2004)

        L(psi_N, 1) = sum a_n/n e^(-c n t) + W sum conj(a_n)/n e^(-c n/t).

    W is solved from t = 1 and t = 5/4, not assumed; |W| != 1 beyond
    10^-(prec-15) raises ConventionError.  The a_n are exact, from this
    function's own enumeration of alpha and residue character.  With each
    truncated sum within T of its series, W = num/den is within
    2T(1 + |W|)/|den| and L = S(1) + W conj(S(1)) within amp * T, where
    amp = 2 + 5 |S(1)|/|den| for |W| = 1.  Returns (L, W) as BigComplex.
    """
    validate_field_disc(D)
    if prec < ORACLE_MIN_PREC:
        raise InputError("oracle precision must be at least %d digits" % ORACLE_MIN_PREC)
    prime_ideal_above(D, N)
    b1 = smallest_odd_root(D, N)
    kappa = 1.6 * math.pi / math.sqrt(-D * N)  # e^(-4cn/5), conj(a_n) at t = 5/4, decays slowest
    digits = prec + ORACLE_TAIL_DIGITS + ORACLE_MARGIN_DIGITS
    while True:
        # a_n sums psi over at most d(n) ideals with |psi| = sqrt(n), so |a_n|/n <= d(n)/sqrt(n) <= 2
        # and each tail past n_max is at most 2 e^(-kappa (n_max + 1)) / (1 - e^(-kappa)) <= 10^-digits
        n_max = math.ceil((digits * math.log(10) + math.log(2 / -math.expm1(-kappa))) / kappa)
        # x^n by n products is off by at most n ulp: 2 len(str(n_max)) more digits absorb n_max^2
        with mp.workdps(digits + GUARD_DIGITS + 2 * len(str(n_max))):
            terms = [(p and mpf(p) / n, q and mpf(q) / n)
                     for n, (p, q) in enumerate(_oracle_coefficients(D, N, b1, n_max), 1)]
            c = 2 * mpmath.pi / mpmath.sqrt(-D * N)
            s1 = _oracle_series(terms, D, c)
            den = mpmath.conj(s1) - _oracle_series(terms, D, c * 4 / 5, conj=True)
            root = (_oracle_series(terms, D, c * 5 / 4) - s1) / den
            if abs(abs(root) - 1) > mpf(10) ** -(prec - 15):
                raise ConventionError("oracle root number has |W| = %s, not 1" % mpmath.nstr(abs(root), 10))
            value = s1 + root * mpmath.conj(s1)
            amp = float(2 + 5 * abs(s1) / abs(den))
        shortfall = prec + ORACLE_TAIL_DIGITS + math.log10(amp) - digits
        if shortfall <= 0:
            return BigComplex.from_mpc(value, prec), BigComplex.from_mpc(root, prec)
        digits += math.ceil(shortfall) + ORACLE_MARGIN_DIGITS


def _oracle_coefficients(D, N, b1, n_max):
    """[(P_n, Q_n) for n = 1..n_max] with a_n = (P_n + Q_n sqrt(D))/2, exact.

    Each alpha = (p + q sqrt(D))/2 (p = q mod 2) of norm <= n_max is taken
    once up to sign, which absorbs the 1/2 of a_n: the units are +-1 and
    chi(-1) = -1 for N = 3 mod 4.  chi is the Jacobi symbol mod N under
    sqrt(D) -> b1.
    """
    chi = [jacobi(r, N) for r in range(N)]
    inv2 = (N + 1) // 2
    P = [0] * (n_max + 1)
    Q = [0] * (n_max + 1)
    for q in range(isqrt(4 * n_max // -D) + 1):
        p_max = isqrt(4 * n_max + D * q * q)
        p_min = -p_max if q else 1
        for p in range(p_min + (p_min - q) % 2, p_max + 1, 2):
            sign = chi[(p + q * b1) * inv2 % N]
            if sign:
                n = (p * p - D * q * q) >> 2
                P[n] += sign * p
                Q[n] += sign * q
    return list(zip(P, Q))[1:]


def _oracle_series(terms, D, k, conj=False):
    """sum a_n/n e^(-kn), or of conj(a_n)/n, from terms [(P_n/n, Q_n/n)]: one exp, then powers."""
    x = mpmath.exp(-k)
    xn, re, im = mpf(1), mpf(0), mpf(0)
    for p, q in terms:
        xn *= x
        if p:
            re += p * xn
        if q:
            im += q * xn
    im *= mpmath.sqrt(-D)
    return mpmath.mpc(re, -im if conj else im) / 2


@dataclass(frozen=True)
class TableResult:
    rows: tuple
    failures: tuple


def make_table(D, n_max, prec=80, store=None, level_rows=None):
    """Rows for every admissible level up to n_max; failures are collected.

    level_rows maps a level's HeckeContext to that level's rows.  By default
    it classifies against store, which is discovered first when not given
    (scanning as far as the mass identity requires, independently of n_max).
    A SplitCMError at one level is recorded as (N, message) in failures and
    the other levels still run; any other exception propagates.
    """
    validate_field_disc(D)
    if level_rows is None:
        if store is None:
            store = discover_classes(D, prec=prec)

        def level_rows(ctx):
            return classify(ctx, store)[1]

    rows = []
    failures = []
    for N in admissible_levels(D, n_max):
        try:
            ctx = HeckeContext(D, N, prec=prec)
            rows.extend(level_rows(ctx))
        except SplitCMError as exc:
            failures.append((N, "%s: %s" % (type(exc).__name__, exc)))
    return TableResult(rows=tuple(rows), failures=tuple(failures))
