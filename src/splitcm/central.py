"""Central L-values: classification of split-CM points and table rows.

The pipeline: for a level N, every reduced form Q of discriminant -N gets a
normalized theta value (an integer) and a maximal-order class; per class the
table reports the common |theta| value, the number of forms landing in the
class, and the signed count h_eps.  The central value is then

    L = 2 pi * eta_factor / (omega_N sqrt(N)) * sum_classes theta * h_eps

which must match the direct unnormalized sum over forms; both paths are
computed and compared.  A smoothed Dirichlet-series oracle evaluates the
same L-value with no theta machinery at all.

omega_N (units of the order of discriminant -N modulo sign) is 2 throughout
because N > 4; levels are primes N = 3 mod 4 that split in Q(sqrt(D)).
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp, mpf

from .arith import is_prime, jacobi
from .errors import (
    ConventionError,
    IncompleteClassListError,
    InputError,
    InternalError,
    SplitCMError,
    UnsupportedError,
)
from .hecke import HeckeContext, enumerate_ideals, psi_ideal
from .numeric import GUARD_DIGITS, BigComplex
from .quadratic import (
    QuadForm,
    class_number,
    prime_ideal_above,
    reduced_forms,
    smallest_odd_root,
    validate_disc,
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
from .theta import level_thetas, theta_hat

OMEGA_N = 2
DISCOVERY_CAP = 1000


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
    tau_ideal: str
    eta_convention: str
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


def discover_classes(D, levels=None, prec=80, tau_ideal="nbar", eta_convention="sec6", max_level=DISCOVERY_CAP):
    """Scan levels until the mass identity certifies every class was seen.

    Each new class stores a witness: the level and form where it first
    appeared and the snapped |theta| there, which is the class invariant
    reported in tables even at levels where the class has no points.
    With an explicit level list only those levels are scanned; otherwise
    all admissible levels up to max_level.
    """
    validate_disc(D)
    target = Fraction(-D - 1, 24)
    classes = []
    mass = Fraction(0)
    scan = admissible_levels(D, max_level) if levels is None else list(levels)
    last = scan[-1] if scan else 0
    for N in scan:
        ctx = HeckeContext(D, N, prec=prec, tau_ideal=tau_ideal, eta_convention=eta_convention)
        for Q in reduced_forms(-N):
            order = _maximal_order(ctx, Q)
            if any(orders_isometric(order, info.order) for info in classes):
                continue
            theta_abs = abs(_snap(ctx, theta_hat(ctx, Q)))
            classes.append(
                ClassInfo(
                    class_id=len(classes),
                    order=order,
                    omega=unit_count(order),
                    theta_abs=theta_abs,
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
            return ClassStore(D, tau_ideal, eta_convention, tuple(classes))
    raise IncompleteClassListError(
        "mass %s of %s reached after scanning levels up to %d" % (mass, target, last)
    )


def classify(ctx, store, thetas=None):
    """All theta records at ctx's level plus one table row per known class.

    thetas is the level's LevelThetas when the caller has computed it
    already; otherwise it is computed here, once for all forms.
    """
    if store.D != ctx.D or store.tau_ideal != ctx.tau_ideal or store.eta_convention != ctx.eta_convention:
        raise InputError("class store was built under different conventions")
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

    direct     = 2 pi / (omega_N sqrt(N)) * sum_Q theta(Q tau) / psi_denom
    structured = 2 pi eta_factor / (omega_N sqrt(N)) * sum_[R] theta * h_eps

    Both use the theta series of one pass over the level's forms, the one
    that classify snaps to integers.

    Both values are complex in general: the conductor of psi_N is one prime
    over N, not Galois-stable, so the functional equation only makes
    L^2 * conj(i*pi/|pi|) real, with pi a generator of ctx.level_ideal.
    """
    if ctx.h > 1:
        raise UnsupportedError("central values are computed only for h(D) = 1")
    thetas = level_thetas(ctx, reduced_forms(-ctx.N))
    total = BigComplex.make(0, 0, ctx.prec)
    for raw in thetas.raw:
        total = total + raw
    with mp.workdps(ctx.prec + GUARD_DIGITS):
        pref = BigComplex.make(2 * mpmath.pi / (OMEGA_N * mpmath.sqrt(ctx.N)), 0, ctx.prec)
    direct = pref * total / thetas.psi

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


def oracle_l_value(D, N, X=1.0e5, method="fast"):
    """Smoothed Dirichlet-series evaluation of the same central value.

    Sums chi(alpha) alpha e^(-norm/X)/norm over ideals of norm up to 40X
    (generators alpha up to sign, whence the final halving) with no theta
    series, eta factors, or class data involved.  Float accuracy only;
    intended as an independent cross-check.  method="exact" re-sums the
    series over enumerated ideals with the character evaluated per ideal
    (slow; use small X).
    """
    validate_disc(D)
    if class_number(D) != 1:
        raise UnsupportedError("oracle needs h(D) = 1")
    prime_ideal_above(D, N)
    b1 = smallest_odd_root(D, N)
    if method == "fast":
        return _oracle_fast(D, N, X, b1)
    if method == "exact":
        return _oracle_exact(D, N, X, b1)
    raise InputError("unknown oracle method %r" % (method,))


def _oracle_fast(D, N, X, b1):
    c0 = (1 - D) // 4
    B = 40.0 * X
    mu_w = ((b1 - 1) // 2) % N
    jt = np.array([jacobi(r, N) for r in range(N)], dtype=np.float64)
    rt = np.sqrt(-D) / 2.0
    total = 0.0 + 0.0j
    m = 1
    while m * m <= B:
        chim = jt[m % N]
        if chim:
            layer = _primitive_layer(D, N, c0, mu_w, jt, rt, B / (m * m), m * m / X)
            total += chim / m * layer
        m += 1
    return complex(total / 2.0)


def _primitive_layer(D, N, c0, mu_w, jt, rt, Bm, scale):
    out = 0.0 + 0.0j
    if Bm < 1:
        return out
    vmax = int(np.sqrt(Bm / (c0 - 0.25)))
    for v in range(-vmax, vmax + 1):
        disc = v * v - 4.0 * (c0 * v * v - Bm)
        if disc < 0:
            continue
        s = np.sqrt(disc)
        u = np.arange(int(np.ceil((v - s) / 2)), int(np.floor((v + s) / 2)) + 1, dtype=np.int64)
        n = u * u - u * v + c0 * v * v
        keep = (n > 0) & (n <= Bm) & (np.gcd(np.abs(u), abs(v)) == 1)
        if not keep.any():
            continue
        u = u[keep]
        nf = n[keep].astype(np.float64)
        ch = jt[(u + v * mu_w) % N]
        w = ch * np.exp(-nf * scale) / nf
        out += np.sum(w * (u - v / 2.0)) + 1j * rt * v * np.sum(w)
    return out


def _oracle_exact(D, N, X, b1):
    ctx = HeckeContext(D, N, b1=b1, prec=30)
    cap = int(40 * X)
    total = 0.0 + 0.0j
    for prim, m in enumerate_ideals(D, cap):
        norm = m * m * prim.norm
        chim = jacobi(m % N, N)
        if chim == 0:
            continue
        val = psi_ideal(ctx, prim)
        z = complex(float(val.re), float(val.im))
        if z == 0:
            continue
        total += chim * m * z * np.exp(-norm / X) / norm
    return complex(total)


@dataclass(frozen=True)
class TableResult:
    rows: tuple
    failures: tuple


def make_table(D, n_max, prec=80, tau_ideal="nbar", eta_convention="sec6", store=None, level_rows=None):
    """Rows for every admissible level up to n_max; failures are collected.

    level_rows maps a level's HeckeContext to that level's rows.  By default
    it classifies against store, which is discovered first when not given
    (scanning as far as the mass identity requires, independently of n_max).
    A SplitCMError at one level is recorded as (N, message) in failures and
    the other levels still run; any other exception propagates.
    """
    if level_rows is None:
        if store is None:
            store = discover_classes(D, prec=prec, tau_ideal=tau_ideal, eta_convention=eta_convention)

        def level_rows(ctx):
            return classify(ctx, store)[1]

    rows = []
    failures = []
    for N in admissible_levels(D, n_max):
        try:
            ctx = HeckeContext(D, N, prec=prec, tau_ideal=tau_ideal, eta_convention=eta_convention)
            rows.extend(level_rows(ctx))
        except SplitCMError as exc:
            failures.append((N, "%s: %s" % (type(exc).__name__, exc)))
    return TableResult(rows=tuple(rows), failures=tuple(failures))
