"""Quaternion algebra (D, -N): arithmetic, lattices, orders, class data."""

import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitcm import quaternion
from splitcm.central import ClassStore, _maximal_order, _snap, admissible_levels, discover_classes
from splitcm.errors import InputError, ResourceError
from splitcm.hecke import HeckeContext
from splitcm.linalg import gram_schmidt, hnf_rows, lll_reduce_gram
from splitcm.quadratic import class_number, reduced_forms
from splitcm.quaternion import (
    Order,
    QuatAlgebra,
    QuatLattice,
    _combine,
    _conj,
    _mul,
    _nrd,
    _pair,
    _root_orbit_count,
    build_Iz,
    embedding_count,
    gross_lattice,
    is_maximal,
    orders_isometric,
    right_order,
    short_vectors,
    symplectic_gram,
)

# elements are coordinate tuples; the kernels take ints or Fractions alike
ALG = QuatAlgebra(-7, 11)
ONE, U, V, W = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def mul(x, y, alg=ALG):
    return _mul(alg.D, alg.N, x, y)


def nrd(x, alg=ALG):
    return _nrd(alg.D, alg.N, x)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def scale(x, c):
    return tuple(c * a for a in x)


def inverse(x, alg=ALG):
    return scale(_conj(x), 1 / Fraction(nrd(x, alg)))


def lattice(alg, rows):
    """The lattice spanned by rational coordinate rows."""
    den = math.lcm(*(Fraction(x).denominator for r in rows for x in r))
    return QuatLattice.span(alg, [[int(x * den) for x in r] for r in rows], den)


def elements(L):
    """L's canonical basis as Fraction coordinate tuples."""
    return [tuple(Fraction(a, L.den) for a in r) for r in L.rows]


def contains(L, x):
    """Whether the rational coordinate tuple x lies in L."""
    den = math.lcm(*(Fraction(c).denominator for c in x))
    return L.contains(tuple(int(c * den) for c in x), den)


def conjugate_order(O, x):
    """x^(-1) O x for an invertible element x."""
    xin = inverse(x, O.alg)
    return Order(lattice(O.alg, [mul(mul(xin, b, O.alg), x, O.alg) for b in elements(O.lattice)]))


small_fractions = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4)
)
elems = st.tuples(*[small_fractions] * 4)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def gram_det(gram):
    """det of a positive definite integer Gram matrix: its last Gram-Schmidt minor."""
    return gram_schmidt(gram)[0][-1]


def mat_inv(a):
    """Inverse of a square rational matrix by Gauss-Jordan elimination on Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def rational_hnf(rows):
    """HNF basis, as Fraction rows, of the Z-span of rational rows."""
    den = math.lcm(*(Fraction(x).denominator for r in rows for x in r))
    return [[Fraction(x, den) for x in r] for r in hnf_rows([[int(x * den) for x in r] for r in rows])]


def test_structure_constants():
    D, N = ALG.D, ALG.N
    assert mul(U, U) == (D, 0, 0, 0)
    assert mul(V, V) == (-N, 0, 0, 0)
    assert mul(U, V) == W
    assert mul(V, U) == scale(W, -1)
    assert mul(W, W) == (D * N, 0, 0, 0)
    with pytest.raises(InputError):
        QuatAlgebra(7, 11)
    with pytest.raises(InputError):
        QuatAlgebra(-7, -11)


@given(elems, elems)
@settings(max_examples=100, deadline=None)
def test_nrd_multiplicative(x, y):
    assert nrd(mul(x, y)) == nrd(x) * nrd(y)


@given(elems, elems, elems)
@settings(max_examples=60, deadline=None)
def test_ring_laws(x, y, z):
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert _conj(mul(x, y)) == mul(_conj(y), _conj(x))


@given(elems)
@settings(max_examples=60, deadline=None)
def test_conjugate_norm_trace(x):
    assert mul(x, _conj(x)) == (nrd(x), 0, 0, 0)
    assert add(x, _conj(x)) == (2 * x[0], 0, 0, 0)
    if any(x):
        assert mul(inverse(x), x) == ONE
        assert mul(x, inverse(x)) == ONE


@given(elems, elems)
@settings(max_examples=100, deadline=None)
def test_pair_trd_is_the_trace_of_the_product(x, y):
    assert _pair(ALG.D, ALG.N, x, y) == 2 * mul(x, _conj(y))[0]


# denominators up to 6, so an offset's denominator need not divide the lattice's (at most 12)
offsets = st.tuples(*[st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))] * 4)


@given(st.lists(elems, min_size=4, max_size=6), st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       offsets, st.booleans())
@settings(max_examples=150, deadline=None)
def test_contains_matches_the_fraction_reference(gens, coeffs, offset, inside):
    try:
        L = lattice(ALG, gens)
    except InputError:
        assume(False)
    x = (0, 0, 0, 0)
    for c, g in zip(coeffs, gens):
        x = add(x, scale(g, c))
    if not inside:
        x = add(x, offset)
    coords = mat_mul([list(x)], mat_inv(elements(L)))[0]
    assert contains(L, x) == all(c.denominator == 1 for c in coords)


def test_lattice_canonical_basis():
    a = lattice(ALG, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # a unimodular rewrite of the same lattice
    b = lattice(ALG, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 7], [0, 0, 1, 8]])
    assert a == b
    assert a.contains(W, 1) and not a.contains(W, 2)


def test_free_order_invariants():
    O = Order(lattice(ALG, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert O.disc == (4 * ALG.D * ALG.N) ** 2
    assert not is_maximal(O)
    assert O.omega == 1  # only +-1


def test_hamilton_maximal_order():
    # the classical maximal order in (-1, -1): 24 units, reduced disc 2
    alg = QuatAlgebra(-1, 1)
    half = Fraction(1, 2)
    O = Order(
        lattice(
            alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [half, half, half, half]]
        )
    )
    assert O.disc == 4
    assert O.omega == 12
    # units are numerators over the lattice's denominator
    dd = O.lattice.den ** 2
    assert len(set(O.units) | {scale(s, -1) for s in O.units}) == 24
    for s in O.units:
        assert nrd(s, alg) == dd and mul(s, _conj(s), alg) == (dd, 0, 0, 0)


def test_class_order_units_are_inverted_by_conjugation():
    # nrd(s) = 1, so s^-1 = conj(s): on numerators over den, conj(s) s = den^2
    checked = 0
    for D in (-7, -11, -19, -43, -67, -163):
        for info in discover_classes(D).classes:
            O = info.order
            dd = O.lattice.den ** 2
            for s in O.units:
                assert mul(_conj(s), s, O.alg) == (dd, 0, 0, 0), (D, s)
            signed = set(O.units) | {scale(s, -1) for s in O.units}
            assert len(signed) == 2 * O.omega, D
            checked += len(O.units)
    assert checked == 28


def test_order_validation():
    rows_bad_one = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(InputError):
        Order(lattice(ALG, rows_bad_one))
    rows_not_closed = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(1, 2)]]
    with pytest.raises(InputError):
        Order(lattice(ALG, rows_not_closed))
    # contains 1, but nrd(u/2) = 7/4
    rows_not_integral = [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(InputError, match="non-integral basis element"):
        Order(lattice(ALG, rows_not_integral))


def brute_short_vectors(gram, top):
    """{x: x G x^T} for every x != 0 with x G x^T <= 2 top, by a box search."""
    n = len(gram)
    # box radius from the smallest diagonal entry after clearing is crude
    # but fine for the tiny matrices used here
    R = 2 * top + 2
    out = {}
    for x in itertools.product(range(-R, R + 1), repeat=n):
        q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if any(x) and q <= 2 * top:
            out[x] = q
    return out


# 1x1 to 3x3 Grams; all but [[2]], [[4]] and [[2, 0], [0, 4]] have
# non-integral LDL data, so the cone runs with a common denominator s > 1
SHORT_VECTOR_GRAMS = (
    [[2]],
    [[4]],
    [[2, 1], [1, 2]],
    [[2, 0], [0, 4]],
    [[4, 1], [1, 6]],
    [[6, 3], [3, 4]],
    [[8, -4, 0], [-4, 16, 0], [0, 0, 14]],
    [[8, -4, 1], [-4, 16, 3], [1, 3, 14]],
)


def _first_nonzero(x):
    return next(c for c in x if c)


def _halves(gram, n):
    """The norm-n vectors x G x^T / 2 = n, one of each sign pair, by the exact solve."""
    found = short_vectors(gram, 2 * n, True)
    assert all(q == 2 * n for _, q in found)
    return [x for x, _ in found]


def test_short_vectors_brute_force():
    assert any(
        dets[i + 1] % dets[i] or lam[j][i] % dets[i + 1]
        for dets, lam in map(gram_schmidt, SHORT_VECTOR_GRAMS)
        for j in range(len(dets) - 1)
        for i in range(j + 1)
    )
    for gram in SHORT_VECTOR_GRAMS:
        brute = brute_short_vectors(gram, 8)
        kept = {x: q for x, q in brute.items() if _first_nonzero(x) > 0}
        # the leaf range: one of each sign pair, first nonzero coordinate
        # positive, each with its exact norm x G x^T
        got = short_vectors(gram, 16, False)
        assert dict(got) == kept and len(got) == len(kept), gram
        for n in range(1, 9):
            # the exact solve returns the norm-n vectors in the leaf range's order
            halves = _halves(gram, n)
            assert halves == [x for x, q in got if q == 2 * n], (gram, n)
            assert 2 * len(halves) == sum(q == 2 * n for q in brute.values()), (gram, n)
        assert short_vectors(gram, -3, True) == short_vectors(gram, -3, False) == []
        if len(gram) > 1:
            # x_0 = 0 is kept under a positive tail and dropped under a negative one
            tails = [x for x in brute if x[0] == 0]
            assert any(_first_nonzero(x) > 0 for x in tails)
            assert any(_first_nonzero(x) < 0 for x in tails)
    assert short_vectors([[4]], 8, False) == [((1,), 4)]
    assert short_vectors([[2]], 18, False) == [((1,), 2), ((2,), 8), ((3,), 18)]
    assert short_vectors([[4]], 4, True) == [((1,), 4)]
    assert short_vectors([[4]], 6, True) == []
    # x0^2 + x0 x1 + x1^2 = 7: both roots kept, ascending, at x1 = -3; one
    # root kept at x1 = -2, -1, 1, 2; none at x1 = 3, where both are negative
    assert _halves([[2, 1], [1, 2]], 7) == [
        (1, -3), (2, -3), (3, -2), (3, -1), (2, 1), (1, 2)
    ]


def test_short_vectors_refuses_a_huge_bound_at_once():
    gram = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    for exact in (False, True):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="over the cap of 4000000"):
            short_vectors(gram, 10**12, exact)
        assert time.perf_counter() - start < 0.1


def test_embedding_count_at_a_large_level():
    # the exact solve at (-7, 60083), where enumerating every norm up to N
    # used to exceed the node cap
    order = discover_classes(-7).classes[0].order
    assert embedding_count(order, 60083) == 2 * class_number(-60083) == 106


def test_embedding_counts_sum_to_the_class_number_above_ten_thousand():
    # sum over classes of k h_R(-N) = 2 h(-N), at one level of D = -163
    N = 20047
    classes = discover_classes(-163).classes
    assert len(classes) == 8
    assert sum(info.k * embedding_count(info.order, N) for info in classes) == 2 * class_number(-N)


def test_lll_reduce_gram_is_an_exact_unimodular_change():
    # the norm Gram of the maximal order at (D, N) = (-7, 11) on its HNF basis
    gram = [[82, 56, 51, 112], [56, 42, 35, 77], [51, 35, 32, 70], [112, 77, 70, 154]]
    reduced, U = lll_reduce_gram(gram)
    assert mat_mul(mat_mul(U, gram), [list(r) for r in zip(*U)]) == reduced
    assert gram_det(mat_mul(U, [list(r) for r in zip(*U)])) == 1
    assert reduced == [[2, 0, -1, 0], [0, 2, 0, -1], [-1, 0, 4, 0], [0, -1, 0, 4]]


def _lll_recomputing(gram, delta=Fraction(3, 4)):
    """Reference LLL that recomputes all Gram-Schmidt data after every step."""
    n = len(gram)
    g = [list(row) for row in gram]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def gs():
        mu = [[Fraction(0)] * n for _ in range(n)]
        B = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                s = Fraction(g[i][j]) - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))
                mu[i][j] = s / B[j]
            B[i] = Fraction(g[i][i]) - sum(mu[i][k] ** 2 * B[k] for k in range(i))
        return mu, B

    k = 1
    while k < n:
        mu, B = gs()
        for j in range(k - 1, -1, -1):
            q = (2 * mu[k][j].numerator + mu[k][j].denominator) // (2 * mu[k][j].denominator)
            if q:
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                for i in range(n):
                    g[k][i] -= q * g[j][i]
                for i in range(n):
                    g[i][k] -= q * g[i][j]
                mu, B = gs()
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            k = max(k - 1, 1)
    return g, U


def _hnf_gross_gram(O):
    """The Gram of the trace-zero HNF rows of Z + 2R, before gross_lattice reduces it."""
    L = O.lattice
    h = hnf_rows([[L.den, 0, 0, 0]] + [[2 * x for x in r] for r in L.rows])
    gram = quaternion._int_gram(O.alg.D, O.alg.N, h[1:], L.den)
    assert gram_det(gram) == gram_det(gross_lattice(O).gram)
    return gram


def test_lll_reduce_gram_matches_the_recomputing_reference():
    # in-place Gram-Schmidt updates are exact, so the result is identical
    grams = [[[82, 56, 51, 112], [56, 42, 35, 77], [51, 35, 32, 70], [112, 77, 70, 154]],
             [[2, 1], [1, 2]], [[4, 1], [1, 6]], [[8, -4, 1], [-4, 16, 3], [1, 3, 14]]]
    for D, N in [(-7, 11), (-7, 23), (-11, 23), (-11, 31)]:
        ctx = HeckeContext(D, N, prec=50)
        for Q in reduced_forms(-N):
            O = right_order(build_Iz(ctx, Q))
            grams += [O.lattice.scaled_gram(), _hnf_gross_gram(O)]
    # every class order's norm Gram, whose reduction orders_isometric
    # searches, and its unreduced Gross Gram, which gross_lattice reduces
    for D in (-19, -43, -67, -163):
        for info in discover_classes(D).classes:
            grams += [info.order.gram, _hnf_gross_gram(info.order)]
    for gram in grams:
        assert lll_reduce_gram(gram) == _lll_recomputing(gram), gram


def test_short_vectors_sign_representatives():
    vecs = short_vectors([[2, 1], [1, 2]], 2, False)
    assert len(vecs) == 3  # hexagonal minimal vectors up to sign
    for v, q in vecs:
        first = next(c for c in v if c)
        assert first > 0 and q == 2


def test_build_Iz_symplectic_structure():
    # E(x_i, y_j) = delta, zero blocks elsewhere: [[0, I], [-I, 0]]
    want = [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ]
    for D, N in [(-7, 11), (-11, 23)]:
        ctx = HeckeContext(D, N, prec=50)
        for Q in reduced_forms(-N):
            g = symplectic_gram(build_Iz(ctx, Q))
            assert [[Fraction(x) for x in row] for row in g] == [
                [Fraction(x) for x in row] for row in want
            ]


def test_right_orders_are_maximal():
    for D, N in [(-7, 11), (-11, 23)]:
        ctx = HeckeContext(D, N, prec=50)
        for Q in reduced_forms(-N):
            O = right_order(build_Iz(ctx, Q))
            assert O.disc == D * D
            assert is_maximal(O)


def _dual(rows):
    """Rows of the dual lattice basis: inverse transpose of a square basis."""
    return [list(col) for col in zip(*mat_inv(rows))]


def reference_right_order(I):
    """{x : I x <= I} as the intersection of the lattices g^(-1) I over a basis g of I.

    Each intersection is taken through duals, (A cap B)^* = A^* + B^*.  This
    holds for every full lattice, invertible or not.
    """
    bas = elements(I)
    cur = None
    for g in bas:
        rows = [list(mul(inverse(g, I.alg), b, I.alg)) for b in bas]
        cur = rows if cur is None else _dual(rational_hnf(_dual(cur) + _dual(rows)))
    return lattice(I.alg, cur)


def _splitcm_lattices():
    """Every I_z of criterion 4 (D = -7 to N = 200, D = -11 to 250) and of D = -19 to 120."""
    for D, n_max in ((-7, 200), (-11, 250), (-19, 120)):
        for N in admissible_levels(D, n_max):
            ctx = HeckeContext(D, N, prec=40)
            for Q in reduced_forms(-N):
                yield build_Iz(ctx, Q)


def test_right_order_matches_the_intersection_reference():
    checked = 0
    for I in _splitcm_lattices():
        assert right_order(I).lattice == reference_right_order(I), I
        checked += 1
    assert checked == 128


def test_right_order_of_left_ideals_matches_the_reference():
    # O alpha + O m is a left ideal of a maximal order O, so it is invertible
    rng = random.Random(7)
    for D, N in ((-7, 11), (-11, 23), (-19, 23)):
        ctx = HeckeContext(D, N, prec=40)
        O = right_order(build_Iz(ctx, reduced_forms(-N)[-1]))
        bas = elements(O.lattice)
        for _ in range(6):
            alpha = (0, 0, 0, 0)
            for b in bas:
                alpha = add(alpha, scale(b, rng.randint(-6, 6)))
            if not any(alpha):
                continue
            m = rng.choice((2, 3, 5, 6))
            I = lattice(O.alg, [mul(b, alpha, O.alg) for b in bas] + [scale(b, m) for b in bas])
            R = right_order(I)
            assert R.lattice == reference_right_order(I)
            assert is_maximal(R)


def test_right_order_refuses_a_non_invertible_lattice():
    # Z + Zu + Zv + 2Zw: conj(I) I / nrd(I) is not its right order, and must not be returned
    I = lattice(ALG, [ONE, U, V, scale(W, 2)])
    with pytest.raises(InputError) as exc:
        right_order(I)
    assert "not invertible" in str(exc.value)
    formula = lattice(ALG, [scale(mul(_conj(x), y), 1 / I.norm()) for x in elements(I) for y in elements(I)])
    assert reference_right_order(I) != formula


def test_right_order_is_refused_or_right_on_diagonal_sublattices():
    refused = 0
    for scales in itertools.product((1, 2, 3), repeat=4):
        I = lattice(ALG, [scale(b, d) for b, d in zip((ONE, U, V, W), scales)])
        try:
            R = right_order(I)
        except InputError:
            refused += 1
            continue
        assert R.lattice == reference_right_order(I), scales
    assert 0 < refused < 81


def test_gross_lattice_shape():
    for D, N in [(-7, 11), (-11, 23)]:
        ctx = HeckeContext(D, N, prec=50)
        for Q in reduced_forms(-N):
            O = right_order(build_Iz(ctx, Q))
            gl = gross_lattice(O)
            # the basis rows are numerators over the order's denominator
            dd = O.lattice.den ** 2
            for i, e in enumerate(gl.basis):
                assert e[0] == 0
                assert gl.gram[i][i] * dd == 2 * nrd(e, O.alg)
            assert gram_det(gl.gram) == 32 * D * D


def test_embedding_count_table_values():
    ctx = HeckeContext(-7, 11, prec=50)
    O = right_order(build_Iz(ctx, reduced_forms(-11)[0]))
    assert O.omega == 2
    assert embedding_count(O, 11) == 2

    ctx = HeckeContext(-11, 23, prec=50)
    pairs = sorted(
        (O.omega, embedding_count(O, 23))
        for O in (right_order(build_Iz(ctx, Q)) for Q in reduced_forms(-23))
    )
    assert pairs == [(2, 4), (2, 4), (3, 2)]


def test_embedding_count_level_guard():
    ctx = HeckeContext(-7, 11, prec=50)
    O = right_order(build_Iz(ctx, reduced_forms(-11)[0]))
    with pytest.raises(InputError):
        embedding_count(O, 12)
    with pytest.raises(InputError):
        embedding_count(O, 3)


def test_isometry_classes():
    ctx = HeckeContext(-11, 23, prec=50)
    orders = [right_order(build_Iz(ctx, Q)) for Q in reduced_forms(-23)]
    omegas = [O.omega for O in orders]
    assert sorted(omegas) == [2, 2, 3]
    i3 = omegas.index(3)
    i2 = [i for i in range(3) if i != i3]
    assert orders_isometric(orders[i2[0]], orders[i2[1]])
    assert not orders_isometric(orders[i3], orders[i2[0]])
    for O in orders:
        assert orders_isometric(O, O)


def test_isometry_invariant_under_conjugation():
    ctx = HeckeContext(-7, 11, prec=50)
    O = right_order(build_Iz(ctx, reduced_forms(-11)[0]))
    for x in (add(ONE, U), V, (1, 2, 0, 1), (3, 0, 1, 0)):
        assert orders_isometric(O, conjugate_order(O, x))


def test_omega_matches_the_unit_count_on_the_hnf_gram():
    # omega reads the exact solve on reduced_gram; count again on the HNF basis
    for D, N in [(-7, 11), (-7, 23), (-11, 23), (-11, 31)]:
        ctx = HeckeContext(D, N, prec=50)
        for Q in reduced_forms(-N):
            O = right_order(build_Iz(ctx, Q))
            assert O.disc == gram_det(O.lattice.scaled_gram())
            assert O.omega == len(_halves(O.gram, 1))
    for D in (-7, -11, -19, -43, -67, -163):
        for info in discover_classes(D).classes:
            assert info.omega == len(_halves(info.order.gram, 1)), D


def test_disc_from_the_hermite_diagonal_is_the_gram_determinant():
    # every class order of the six D and every form order at levels <= 300
    orders = []
    for D in (-7, -11, -19, -43, -67, -163):
        orders += [info.order for info in discover_classes(D).classes]
        for N in admissible_levels(D, 300):
            ctx = HeckeContext(D, N, prec=50)
            orders += [right_order(build_Iz(ctx, Q)) for Q in ctx.forms]
    assert len(orders) == 537
    for O in orders:
        assert O.disc == gram_det(O.gram) == O.alg.D ** 2, (O.alg, O.lattice)


def _stack_orbit_count(O, halves):
    """Reference orbit count: close each root's orbit under conjugation by the units, by a stack search."""
    D, N, den = O.alg.D, O.alg.N, O.lattice.den
    vecs = []
    for c in halves:
        x = _combine(c, O.gross.basis)
        vecs += [x, tuple(-a for a in x)]
    seen, orbits = set(), 0
    for x in vecs:
        if x in seen:
            continue
        orbits += 1
        stack = [x]
        seen.add(x)
        while stack:
            y = stack.pop()
            for s in O.units:
                z = _mul(D, N, _mul(D, N, _conj(s), y), s)
                assert not any(a % (den * den) for a in z)
                z = tuple(a // (den * den) for a in z)
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return orbits


def test_root_orbit_count_matches_the_stack_search():
    omegas = set()
    for D in (-7, -11, -19, -43, -67, -163):
        for info in discover_classes(D).classes:
            O = info.order
            omegas.add(O.omega)
            for N in admissible_levels(D, 600):
                halves = _halves(O.gross.gram, N)
                count = _root_orbit_count(O, O.gross, halves)
                assert count == _stack_orbit_count(O, halves) == 2 * len(halves) // O.omega, (D, N)
    assert omegas == {1, 2, 3}


def _fresh_store(store):
    """store with every class order rebuilt, so that no derived data is cached yet."""
    return ClassStore(store.D, tuple(replace(info, order=Order(info.order.lattice)) for info in store.classes))


def test_matching_enumerates_only_class_orders(monkeypatch):
    store = _fresh_store(discover_classes(-11))
    class_grams = [info.order.reduced_gram for info in store.classes]
    forms = []
    for N in admissible_levels(-11, 200):
        ctx = HeckeContext(-11, N)
        forms += [(_maximal_order(ctx, Q), abs(_snap(ctx, raw))) for Q, raw in zip(ctx.forms, ctx.thetas)]
    enumerated, reductions = [], []
    real_short, real_lll = quaternion.short_vectors, quaternion.lll_reduce_gram

    def counting_short(gram, bound2, exact):
        enumerated.append((gram, bound2, exact))
        return real_short(gram, bound2, exact)

    def counting_lll(gram):
        reductions.append(gram)
        return real_lll(gram)

    monkeypatch.setattr(quaternion, "short_vectors", counting_short)
    monkeypatch.setattr(quaternion, "lll_reduce_gram", counting_lll)
    searched = 0
    for O, theta_abs in forms:
        before = len(reductions)
        cid = store.match(O)
        assert store.classes[cid].theta_abs == theta_abs
        # one LLL for the form order's reduced_gram, and no Gross lattice
        assert len(reductions) == before + 1
        searched += O.reduced_gram not in class_grams
        assert store.match(O) == cid and len(reductions) == before + 1
    # every enumeration is of a class order, in inexact mode
    assert searched > 0 and enumerated
    assert all(any(g is c for c in class_grams) and not exact for g, _, exact in enumerated)


def test_order_counts_its_units_once(monkeypatch):
    store = discover_classes(-11)
    info = store.classes[-1]
    ctx = HeckeContext(-11, info.witness_level, prec=50)
    grams = []
    real_gram = QuatLattice.scaled_gram

    def counting_gram(lattice):
        grams.append(lattice)
        return real_gram(lattice)

    monkeypatch.setattr(QuatLattice, "scaled_gram", counting_gram)
    O = right_order(build_Iz(ctx, info.witness_form))
    assert is_maximal(O) and O.disc == 121
    calls = []
    real = quaternion.short_vectors

    def counting(gram, bound2, exact):
        calls.append((gram, bound2, exact))
        return real(gram, bound2, exact)

    monkeypatch.setattr(quaternion, "short_vectors", counting)
    assert O.omega == O.omega == info.omega
    assert calls == [(O.reduced_gram, 2, True)]
    assert len(O.units) == len(O.units) == info.omega
    assert calls[1:] == [(O.gram, 2, True)]
    for _ in range(2):
        embedding_count(O, info.witness_level)
    assert [c[1] for c in calls].count(2) == 2  # omega and the units, each solved once
    assert grams == [O.lattice]  # one norm Gram for the order's whole life


def test_every_form_order_matches_one_class_in_any_order():
    searched = 0
    for D in (-7, -11, -19, -43, -67, -163):
        store = discover_classes(D)
        flipped = ClassStore(D, store.classes[::-1])
        for N in admissible_levels(D, 200):
            ctx = HeckeContext(D, N)
            for Q, raw in zip(ctx.forms, ctx.thetas):
                O = _maximal_order(ctx, Q)
                theta_abs = abs(_snap(ctx, raw))
                cid = store.match(O)
                assert store.classes[cid].theta_abs == theta_abs, (D, N, Q)
                assert flipped.match(O) == cid, (D, N, Q)
        orders = [info.order for info in store.classes]
        for O1, O2 in itertools.permutations(orders, 2):
            assert not orders_isometric(O1, O2), D
        for O in orders:
            C = conjugate_order(O, (1, 2, 0, 1))
            assert C.lattice != O.lattice
            assert orders_isometric(O, C) and orders_isometric(C, O), D
            searched += C.reduced_gram != O.reduced_gram
    assert searched > 0


def test_pair_trd_is_symmetric_bilinear():
    x, y = (1, 2, 3, 4), (-2, 0, 1, 5)
    assert _pair(ALG.D, ALG.N, x, y) == _pair(ALG.D, ALG.N, y, x)
    assert _pair(ALG.D, ALG.N, x, x) == 2 * nrd(x)
