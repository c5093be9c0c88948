"""Central L-values: classification of split-CM points and table rows.

The pipeline: for a level N, every reduced form Q of discriminant -N gets a
normalized theta value (an integer) and a maximal-order class; per class the
table reports the common |theta| value, the number of forms landing in the
class, and the signed count h_eps.  The central value is then

    L = P(N) A(N),  P(N) = 2 pi eta_factor / (omega_N sqrt(N)),  A(N) = sum_classes |theta| h_eps

which must match the direct unnormalized sum over forms.  Both read the
level's data from its HeckeContext, which computes it once: the theta
values at S = min(prec, THETA_DIGITS) digits, since theta enters L only
through the integer A(N), and the eta factor at prec, since it also enters
P(N).  The two paths are compared at S digits.

The theta values come from each form's split-CM point reduced by Sp4(Z)
(theta.reduce_splitcm), and the reduced point also names the form's
class: forms whose points reduce to the same Z' lie in one Sp4(Z) orbit,
and so in one maximal-order class.  ClassStore keeps a map from reduced
point to class, so the order of a form (build_Iz, right_order) is built
and matched only for a reduced point not seen before.  Two checks stay
independent of the reduction: each snapped |theta| must equal its class's
invariant, which discover_classes takes from the q-series (theta_form),
and each class's count must equal k h_R / 2, with h_R from the Gross
lattice.  An oracle evaluates
the same L-value with no theta machinery at all: the smoothed functional
equation of L(psi_N, s), summed over coefficients counted exactly in O_K,
which also solves for the root number W and certifies |W| = 1.  Its three
series are summed by its own fixed-point kernel on Python integers
(_oracle_series): Horner's rule over the nonzero coefficients, at the
scale that can still reach 2^-P, within a written rounding bound of
4 sqrt|D| (T + 1)^2 2^-P for T nonzero terms.  Its block loop is the
package's only one: at 600 digits a series sums thousands of terms, and
the kernel is written apart from theta._q_series, so that the oracle
stays independent of the theta code it checks.

omega_N (units of the order of discriminant -N modulo sign) is 2 throughout
because N > 4; levels are primes N = 3 mod 4 that split in Q(sqrt(D)).
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from operator import itemgetter

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
from . import theta
from .hecke import MIN_PREC, THETA_DIGITS, HeckeContext
from .numeric import GUARD_DIGITS, BigComplex
from .quadratic import (
    QuadForm,
    prime_ideal_above,
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
    short_vectors,
)

OMEGA_N = 2
DISCOVERY_CAP = 1000
ORACLE_TAIL_DIGITS = 12  # the oracle's truncation error stays below 10^-(prec + 12)
ORACLE_MARGIN_DIGITS = 3  # room for the error that solving for W adds
# the oracle's Horner scale rises by ORACLE_SCALE_STEP bits from one block of powers to the next
ORACLE_SCALE_STEP = 64


@dataclass(frozen=True)
class ThetaRecord:
    """Per-form data: the normalized theta value's integer, class, and sign."""

    form: QuadForm
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
    """One type of maximal order; k is its number of left ideal classes (1 or 2)."""

    class_id: int
    order: Order
    omega: int
    k: int
    theta_abs: int
    witness_level: int
    witness_form: QuadForm


@dataclass(frozen=True)
class ClassStore:
    """The full list of maximal-order classes for a discriminant D.

    Completeness is certified by the Eichler mass identity over left ideal
    classes, sum over classes of k/(2 omega) = (|D| - 1)/24 (see
    _ideal_class_count for k).

    keys maps a reduced point (ReducedPoint.key) to its class_id: points
    that are equal lie in one Sp4(Z) orbit, and so in one class.
    discover_classes fills it and classify adds to it, each taking a new
    point's class from its form's order (right_order, then match).  A D has
    a few dozen reduced points at most (27 for D = -163 up to N = 3000), so
    most levels build no order at all.
    """

    D: int
    classes: tuple
    keys: dict = field(default_factory=dict, compare=False, repr=False)

    def match(self, order, theta_abs=None):
        """The class_id whose order is isometric to order, or None; classes of the given theta_abs go first."""
        for info in sorted(self.classes, key=lambda info: info.theta_abs != theta_abs):
            if orders_isometric(order, info.order):
                return info.class_id
        return None

    def mass(self):
        return sum(Fraction(info.k, 2 * info.omega) for info in self.classes)


def admissible_levels(D, n_max):
    """Primes N = 3 mod 4, N > 3, splitting in the field of discriminant D."""
    validate_disc(D)
    out = []
    for N in range(7, n_max + 1, 4):
        if is_prime(N) and jacobi(D % N, N) == 1:
            out.append(N)
    return out


def _snap(ctx, raw):
    """The integer of a theta value raw normalized by ctx's eta factor, or fail loudly."""
    value = raw / ctx.eta_factor
    n, err = value.nearest_int()
    tol = mpf(10) ** (-(value.prec // 2))
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


def _ideal_class_count(order, D):
    """k: the number of left ideal classes whose right order is conjugate to order.

    The two-sided ideals of a maximal order O modulo Q^x are generated by
    its prime P over |D|, with P^2 = |D| O; so the ideal classes with right
    order of O's type are I and IP, one class when P is principal, that is
    when O has an element of reduced norm |D| (Voight, Quaternion
    Algebras, ch. 18), and two otherwise.
    """
    return 1 if short_vectors(order.reduced_gram, -2 * D, True) else 2


def discover_classes(D):
    """Scan levels until the mass identity certifies every class was seen.

    Each class weighs k/(2 omega), k = _ideal_class_count(order, D).

    Each new class stores a witness: the level and form where it first
    appeared and the snapped |theta| there, which is the class invariant
    reported in tables even at levels where the class has no points.  Theta
    is computed for the witness forms only, by the q-series (theta_form) at
    the default 80 digits, so that classify's comparison with it checks the
    reduced path: the store holds integers and orders, so nothing in it
    depends on the precision.  Only a form whose reduced point is new has
    its order built and matched; the store's keys record the class of every
    point seen.  It scans the admissible levels up to DISCOVERY_CAP.
    """
    validate_field_disc(D)
    target = Fraction(-D - 1, 24)
    store = ClassStore(D, ())
    scan = admissible_levels(D, DISCOVERY_CAP)
    last = scan[-1] if scan else 0
    for N in scan:
        ctx = HeckeContext(D, N)
        for Q, red in zip(ctx.forms, ctx.reduced_points):
            if red.key in store.keys:
                continue
            order = _maximal_order(ctx, Q)
            cid = store.match(order)
            if cid is None:
                raw = theta.theta_form(Q, ctx.class_point, ctx.prec)
                cid = len(store.classes)
                info = ClassInfo(
                    class_id=cid,
                    order=order,
                    omega=order.omega,
                    k=_ideal_class_count(order, D),
                    theta_abs=abs(_snap(ctx, raw)),
                    witness_level=N,
                    witness_form=Q,
                )
                store = ClassStore(D, store.classes + (info,), store.keys)
            store.keys[red.key] = cid
        mass = store.mass()
        if mass > target:
            raise InternalError("class mass %s exceeded the target %s: classification is wrong"
                                % (mass, target))
        if mass == target:
            return store
    raise IncompleteClassListError(
        "mass %s of %s reached after scanning levels up to %d" % (store.mass(), target, last)
    )


def classify(ctx, store):
    """All theta records at ctx's level and a row per known class.

    Each class's h_R = embedding_count comes first, so that a level past
    its node cap is refused before any per-form work.  A form takes the
    class of its reduced point from store.keys; for a point not seen
    before, its order is matched with the class of its |theta| tried first,
    and the point is added to the keys.
    """
    if store.D != ctx.D:
        raise InputError("class store was built for D = %d, not %d" % (store.D, ctx.D))
    h_rs = [embedding_count(info.order, ctx.N) for info in store.classes]
    records = []
    for Q, red, raw in zip(ctx.forms, ctx.reduced_points, ctx.thetas):
        snapped = _snap(ctx, raw)
        cid = store.keys.get(red.key)
        if cid is None:
            cid = store.match(_maximal_order(ctx, Q), abs(snapped))
            if cid is None:
                raise IncompleteClassListError(
                    "order class of %s at N=%d is missing from the store" % (Q, ctx.N)
                )
            store.keys[red.key] = cid
        info = store.classes[cid]
        if abs(snapped) != info.theta_abs:
            raise InternalError(
                "theta %d at N=%d breaks the class invariant %d of class %d"
                % (snapped, ctx.N, info.theta_abs, cid)
            )
        records.append(
            ThetaRecord(
                form=Q,
                snapped_integer=snapped,
                class_id=cid,
                eps=1 if snapped >= 0 else -1,
            )
        )
    rows = []
    for info, h_r in zip(store.classes, h_rs):
        members = [r for r in records if r.class_id == info.class_id]
        if 2 * len(members) != info.k * h_r:
            raise InternalError(
                "class %d has %d points at N=%d but k h_R = %d * %d"
                % (info.class_id, len(members), ctx.N, info.k, h_r)
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
    """The central value two ways, direct form sum and class-aggregated, and A(N).

    direct     = 2 pi / (omega_N sqrt(N)) * sum_Q theta(Q tau)
    structured = 2 pi eta_factor / (omega_N sqrt(N)) * A(N)

    Both use ctx.thetas, the theta series that classify snaps to integers,
    so direct holds S = min(prec, THETA_DIGITS) digits and structured,
    whose theta enters only through A(N), holds prec.

    Both values are complex in general: the conductor of psi_N is one prime
    over N, not Galois-stable, so the functional equation only makes
    L^2 * conj(i*pi/|pi|) real, with pi a generator of ctx.level_ideal.
    """
    # classify first: it refuses a level past embedding_count's cap before any per-form work
    _, rows = classify(ctx, store)
    total = BigComplex.make(0, 0, ctx.prec)
    for raw in ctx.thetas:
        total = total + raw
    with mp.workdps(ctx.prec + GUARD_DIGITS):
        pref = BigComplex.make(2 * mpmath.pi / (OMEGA_N * mpmath.sqrt(ctx.N)), 0, ctx.prec)
    direct = pref * total

    weighted = sum(row.abs_theta * row.h_eps for row in rows)
    structured = pref * ctx.eta_factor * weighted
    return direct, structured, weighted


def l_value(ctx, store):
    """The central value P(N) * A(N), with the period P(N) at ctx.prec.

    It is the structured value of l_value_paths, whose paths must agree to
    10^-(S - 15) at the S digits of theta (see the module docstring).

    The value is complex in general; what is real is L^2 * conj(i*pi/|pi|),
    with pi a generator of ctx.level_ideal (see l_value_paths).
    """
    direct, structured, _ = l_value_paths(ctx, store)
    gap = direct.distance(structured)
    tol = mpf(10) ** (-(min(ctx.prec, THETA_DIGITS) - 15))
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
    function's own enumeration of alpha and residue character.  Each sum
    S(t) = sum a_n/n e^(-c n t) is cut at n_max, with a tail below
    10^-digits / 2, and summed by _oracle_series in fixed point at 2^-P,
    with a rounding bound of 4 sqrt|D| (T + 1)^2 2^-P for its T nonzero
    terms; P is sized from that bound to keep the rounding below
    10^-digits / 2 as well.  With each sum so within 10^-digits of its
    series, W = num/den is within 2 10^-digits (1 + |W|)/|den| and L =
    S(1) + W conj(S(1)) within amp 10^-digits, where amp = 2 + 5
    |S(1)|/|den| for |W| = 1; digits grows until that is below
    10^-(prec+12).  Returns (L, W) as BigComplex.
    """
    validate_field_disc(D)
    if prec < MIN_PREC:
        raise InputError("oracle precision must be at least %d digits" % MIN_PREC)
    b1 = prime_ideal_above(D, N).b % (2 * N)
    digits = prec + ORACLE_TAIL_DIGITS + ORACLE_MARGIN_DIGITS
    while True:
        terms, gap, P = _oracle_terms(D, N, b1, digits)
        with mp.workdps(digits + GUARD_DIGITS):
            s1 = _oracle_series(terms, gap, D, N, Fraction(1), P)
            den = mpmath.conj(s1 - _oracle_series(terms, gap, D, N, Fraction(4, 5), P))
            root = (_oracle_series(terms, gap, D, N, Fraction(5, 4), P) - s1) / den
            if abs(abs(root) - 1) > mpf(10) ** -(prec - 15):
                raise ConventionError("oracle root number has |W| = %s, not 1" % mpmath.nstr(abs(root), 10))
            value = s1 + root * mpmath.conj(s1)
            amp = float(2 + 5 * abs(s1) / abs(den))
        shortfall = prec + ORACLE_TAIL_DIGITS + math.log10(amp) - digits
        if shortfall <= 0:
            return BigComplex.from_mpc(value, prec), BigComplex.from_mpc(root, prec)
        digits += math.ceil(shortfall) + ORACLE_MARGIN_DIGITS


def _oracle_terms(D, N, b1, digits):
    """([(n, P_n, Q_n)] for n = 0 and every n <= n_max with a_n != 0, gap, P).

    n_max puts each tail of the functional equation below 10^-digits / 2,
    and the scale P keeps _oracle_series's rounding below 10^-digits / 2.
    The entry n = 0, with P_0 = Q_0 = 0, ends the Horner sum at x^0.  gap
    is the largest step between consecutive n, the length of the table of
    powers that each of the three series needs.
    """
    kappa = 1.6 * math.pi / math.sqrt(-D * N)  # e^(-4cn/5), conj(a_n) at t = 5/4, decays slowest
    # a_n sums psi over at most d(n) ideals with |psi| = sqrt(n), so |a_n|/n <= d(n)/sqrt(n) <= 2
    # and each tail past n_max is at most 2 e^(-kappa (n_max + 1)) / (1 - e^(-kappa)) <= 10^-digits / 2
    n_max = math.ceil((digits * math.log(10) + math.log(4 / -math.expm1(-kappa))) / kappa)
    terms = [(0, 0, 0)] + _oracle_coefficients(D, N, b1, n_max)
    gap = max(b[0] - a[0] for a, b in zip(terms, terms[1:]))
    P = digits * 3322 // 1000 + 2 + (4 * (isqrt(-D) + 1) * len(terms) ** 2).bit_length()
    return terms, gap, P


def _oracle_coefficients(D, N, b1, n_max):
    """The a_n = (P_n + Q_n sqrt(D))/2 != 0, n <= n_max, as [(n, P_n, Q_n)] increasing in n.

    Each alpha = (p + q sqrt(D))/2 (p = q mod 2) of norm <= n_max is taken
    once up to sign, which absorbs the 1/2 of a_n: the units are +-1 and
    chi(-1) = -1 for N = 3 mod 4.  chi is the Jacobi symbol mod N under
    sqrt(D) -> b1.  The sums are kept in lists indexed by n: at the
    benchmarked D = -7 and -11 that is faster than a dict over the n that
    occur, although two thirds of the entries stay zero.
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
    return [(n, p, q) for n, (p, q) in enumerate(zip(P, Q)) if p or q]


def _oracle_series(terms, gap, D, N, t, P):
    """sum a_n/n x^n, x = e^(-c t), c = 2 pi/sqrt(|D| N), over terms [(n, P_n, Q_n)].

    With c_n = (P_n + i Q_n)/n, the sum is (Re H + i sqrt|D| Im H)/2 for
    H = sum c_n x^n.  H is summed by Horner's rule over the nonzero n in
    Gaussian fixed point; x is real, so a step is two products: from one
    n to the next lower n', h becomes h x^(n-n') + c_n', with x^(n-n')
    from a table of powers up to x^gap, gap the largest step, truncated
    toward zero, so that no entry exceeds x^(n-n').

    An error made at power n reaches H multiplied by at most x^n =
    2^(-n beta), so at power n, h need only be held at a scale 2^-p with
    p >= P - n beta.  Going down from the top n, the powers fall into
    blocks whose scale is P - j ORACLE_SCALE_STEP (never below 0) for the
    block of n >= j ORACLE_SCALE_STEP / beta; at each block boundary h is
    shifted left, which is exact, and the table is truncated once to the
    block's 2^-p.  Here beta is a float lower bound on -log2 x = c t/ln 2,
    with a relative margin of 10^-9 for its rounding and capped at P.

    Rounding bound.  Each part of c_n is at most 4 in modulus (see
    _oracle_terms: |a_n|/n <= 2 and |D| >= 7), so each part of every
    partial Horner sum is at most sum |c_n| <= 4T over the T nonzero
    terms.  A step at scale p then adds, in each part, below 2^-p from the
    product's shift, 2^-p from c_n' rounded down to 2^-p, and 4T 2^-p from
    the truncated table entry times the partial sum; the later steps
    multiply this by at most x^n' <= 2^(p-P).  Over the T + 1 steps (the
    last one, to n = 0, adds no c_n), each part of H is off by less than
    (T + 1)(4T + 2) 2^-P, so the sum is off by less than
    (1 + sqrt|D|)/2 (T + 1)(4T + 2) 2^-P < 4 sqrt|D| (T + 1)^2 2^-P.
    The kernel is written apart from theta._q_series, which sums at the
    one scale 2^-P, on purpose: the oracle calls nothing in splitcm.theta,
    so that a fault there cannot pass both paths.
    """
    with mp.workprec(P + 20):
        k = 2 * mpmath.pi * t.numerator / (t.denominator * mpmath.sqrt(-D * N))
        x = mpmath.exp(-k)
        power = mpf(1)
        xpow = [1 << P]
        for _ in range(gap):
            power *= x
            xpow.append(int(mpmath.ldexp(power, P)))
        beta = min(float(k / mpmath.ln2) * (1 - 1e-9), P)
    hr = hi = p = 0
    above = terms[-1][0]
    top = len(terms)
    for j in range(int(min(P, above * beta)) // ORACLE_SCALE_STEP, -1, -1):
        bottom = bisect_left(terms, j * ORACLE_SCALE_STEP / beta, key=itemgetter(0))
        if bottom == top:
            continue
        scale = P - j * ORACLE_SCALE_STEP
        hr, hi = hr << (scale - p), hi << (scale - p)
        p = scale
        table = [entry >> (P - p) for entry in xpow]
        for n, cp, cq in reversed(terms[bottom:top]):
            step = table[above - n]
            hr = (hr * step >> p) + (cp and (cp << p) // n)
            hi = (hi * step >> p) + (cq and (cq << p) // n)
            above = n
        top = bottom
    return mpmath.mpc(mpf((hr, -P - 1)), mpmath.sqrt(-D) * mpf((hi, -P - 1)))


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
            store = discover_classes(D)

        def level_rows(ctx):
            return classify(ctx, store)[1]

    rows = []
    failures = []
    for N in admissible_levels(D, n_max):
        ctx = HeckeContext(D, N, prec=prec)
        try:
            rows.extend(level_rows(ctx))
        except SplitCMError as exc:
            failures.append((N, "%s: %s" % (type(exc).__name__, exc)))
    return TableResult(rows=tuple(rows), failures=tuple(failures))
