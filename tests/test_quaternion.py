"""Quaternion algebra (D, -N): arithmetic, lattices, orders, class data."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitcm import quaternion
from splitcm.central import admissible_levels, discover_classes
from splitcm.errors import InputError
from splitcm.hecke import HeckeContext
from splitcm.linalg import hnf_rows, lll_reduce_gram, mat_det
from splitcm.quadratic import reduced_forms
from splitcm.quaternion import (
    Order,
    QuatAlgebra,
    QuatElem,
    QuatLattice,
    build_Iz,
    count_lattice_norm,
    embedding_count,
    gross_lattice,
    is_maximal,
    orders_isometric,
    pair_trd,
    right_order,
    short_vectors,
    symplectic_gram,
    unit_count,
)

ALG = QuatAlgebra(-7, 11)


def lattice(alg, rows):
    """The lattice spanned by rational coordinate rows."""
    return QuatLattice.from_elems([alg.elem(*r) for r in rows])


def nrd(x):
    """Reduced norm from the diagonal form x0^2 - D x1^2 + N x2^2 - D N x3^2."""
    D, N = x.alg.D, x.alg.N
    x0, x1, x2, x3 = x.co
    return x0 * x0 - D * x1 * x1 + N * x2 * x2 - D * N * x3 * x3


def conjugate_order(O, x):
    """x^(-1) O x for an invertible element x."""
    xin = x.inverse()
    return Order(QuatLattice.from_elems([xin * b * x for b in O.lattice.basis()]))


small_fractions = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4)
)
elems = st.tuples(*[small_fractions] * 4).map(lambda c: ALG.elem(*c))


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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
    assert ALG.u * ALG.u == ALG.elem(D)
    assert ALG.v * ALG.v == ALG.elem(-N)
    assert ALG.u * ALG.v == ALG.w
    assert ALG.v * ALG.u == -ALG.w
    assert ALG.w * ALG.w == ALG.elem(D * N)
    with pytest.raises(InputError):
        QuatAlgebra(7, 11)
    with pytest.raises(InputError):
        QuatAlgebra(-7, -11)


@given(elems, elems)
@settings(max_examples=100, deadline=None)
def test_nrd_multiplicative(x, y):
    assert nrd(x * y) == nrd(x) * nrd(y)


@given(elems, elems, elems)
@settings(max_examples=60, deadline=None)
def test_ring_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()


@given(elems)
@settings(max_examples=60, deadline=None)
def test_conjugate_norm_trace(x):
    assert x * x.conjugate() == ALG.elem(nrd(x))
    assert x + x.conjugate() == ALG.elem(x.trd())
    if any(x.num):
        assert x.inverse() * x == ALG.one
        assert x * x.inverse() == ALG.one


@given(elems, elems)
@settings(max_examples=100, deadline=None)
def test_pair_trd_is_the_trace_of_the_product(x, y):
    assert pair_trd(x, y) == (x * y.conjugate()).trd()


@given(elems, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
@settings(max_examples=100, deadline=None)
def test_unreduced_inputs_give_equal_elements(x, k, m):
    a = QuatElem(ALG, tuple(c * k for c in x.num), x.den * k)
    b = QuatElem(ALG, tuple(c * m for c in x.num), x.den * m)
    assert a == b == x and hash(a) == hash(b) == hash(x)
    assert (a.num, a.den) == (x.num, x.den) and a.co == x.co
    assert ALG.elem(*(Fraction(c, x.den) for c in x.num)) == x


# denominators up to 6, so an offset's denominator need not divide the lattice's (at most 12)
offsets = st.tuples(*[st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))] * 4).map(
    lambda c: ALG.elem(*c)
)


@given(st.lists(elems, min_size=4, max_size=6), st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       offsets, st.booleans())
@settings(max_examples=150, deadline=None)
def test_contains_matches_the_fraction_reference(gens, coeffs, offset, inside):
    try:
        L = QuatLattice.from_elems(gens)
    except InputError:
        assume(False)
    x = ALG.elem(0)
    for c, g in zip(coeffs, gens):
        x = x + g.scale(c)
    if not inside:
        x = x + offset
    coords = mat_mul([list(x.co)], mat_inv([list(b.co) for b in L.basis()]))[0]
    assert L.contains(x) == all(c.denominator == 1 for c in coords)


def test_zero_has_no_inverse():
    with pytest.raises(InputError):
        ALG.elem(0).inverse()


def test_lattice_canonical_basis():
    a = lattice(ALG, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # a unimodular rewrite of the same lattice
    b = lattice(ALG, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 7], [0, 0, 1, 8]])
    assert a == b
    assert a.contains(ALG.w) and not a.contains(ALG.w.scale(Fraction(1, 2)))


def test_free_order_invariants():
    O = Order(lattice(ALG, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert O.disc == (4 * ALG.D * ALG.N) ** 2
    assert not is_maximal(O)
    assert unit_count(O) == 1  # only +-1


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
    assert unit_count(O) == 12
    assert len({s.co for s, _ in O.units} | {(-s).co for s, _ in O.units}) == 24
    for s, s_inv in O.units:
        assert nrd(s) == 1 and s * s_inv == alg.one


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


def test_short_vectors_brute_force():
    for gram in ([[2, 1], [1, 2]], [[2, 0], [0, 4]], [[4, 1], [1, 6]], [[8, -4, 1], [-4, 16, 3], [1, 3, 14]]):
        brute = brute_short_vectors(gram, 8)
        for n in range(1, 9):
            assert count_lattice_norm(gram, n) == sum(q == 2 * n for q in brute.values()), (gram, n)
        assert count_lattice_norm(gram, 0) == 1
        assert count_lattice_norm(gram, -3) == 0
        # the vectors up to sign, each with its exact norm x G x^T
        got = short_vectors(gram, 16)
        assert len(got) == len(brute) // 2
        for x, q in got:
            assert q == brute[x] == brute[tuple(-c for c in x)], (gram, x)


def test_lll_reduce_gram_is_an_exact_unimodular_change():
    # the norm Gram of the maximal order at (D, N) = (-7, 11) on its HNF basis
    gram = [[82, 56, 51, 112], [56, 42, 35, 77], [51, 35, 32, 70], [112, 77, 70, 154]]
    reduced, U = lll_reduce_gram(gram)
    assert mat_mul(mat_mul(U, gram), [list(r) for r in zip(*U)]) == reduced
    assert abs(mat_det(U)) == 1
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


def test_lll_reduce_gram_matches_the_recomputing_reference():
    # in-place Gram-Schmidt updates are exact, so the result is identical
    grams = [[[82, 56, 51, 112], [56, 42, 35, 77], [51, 35, 32, 70], [112, 77, 70, 154]],
             [[2, 1], [1, 2]], [[4, 1], [1, 6]], [[8, -4, 1], [-4, 16, 3], [1, 3, 14]]]
    for D, N in [(-7, 11), (-7, 23), (-11, 23), (-11, 31)]:
        ctx = HeckeContext(D, N, prec=50)
        for Q in reduced_forms(-N):
            O = right_order(build_Iz(ctx, Q))
            grams += [O.lattice.scaled_gram(), gross_lattice(O).gram]
    # every class order's norm and Gross Grams, whose reductions orders_isometric searches
    for D in (-19, -43, -67, -163):
        for info in discover_classes(D, prec=50).classes:
            grams += [info.order.gram, info.order.invariants.gross.gram]
    for gram in grams:
        assert lll_reduce_gram(gram) == _lll_recomputing(gram), gram


def test_short_vectors_sign_representatives():
    vecs = short_vectors([[2, 1], [1, 2]], 2)
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
    bas = I.basis()
    cur = None
    for g in bas:
        rows = [list((g.inverse() * b).co) for b in bas]
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
        bas = O.lattice.basis()
        for _ in range(6):
            alpha = O.alg.elem(0)
            for b in bas:
                alpha = alpha + b.scale(rng.randint(-6, 6))
            if not any(alpha.num):
                continue
            m = rng.choice((2, 3, 5, 6))
            I = QuatLattice.from_elems([b * alpha for b in bas] + [b.scale(m) for b in bas])
            R = right_order(I)
            assert R.lattice == reference_right_order(I)
            assert is_maximal(R)


def test_right_order_refuses_a_non_invertible_lattice():
    # Z + Zu + Zv + 2Zw: conj(I) I / nrd(I) is not its right order, and must not be returned
    I = QuatLattice.from_elems([ALG.one, ALG.u, ALG.v, ALG.w.scale(2)])
    with pytest.raises(InputError) as exc:
        right_order(I)
    assert "not invertible" in str(exc.value)
    formula = QuatLattice.from_elems(
        [x.conjugate() * y * (1 / I.norm()) for x in I.basis() for y in I.basis()]
    )
    assert reference_right_order(I) != formula


def test_right_order_is_refused_or_right_on_diagonal_sublattices():
    refused = 0
    for scales in itertools.product((1, 2, 3), repeat=4):
        I = QuatLattice.from_elems([b.scale(d) for b, d in zip((ALG.one, ALG.u, ALG.v, ALG.w), scales)])
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
            for e in gl.basis:
                assert e.trd() == 0
            for i, e in enumerate(gl.basis):
                assert gl.gram[i][i] == 2 * nrd(e)
            assert mat_det([list(r) for r in gl.gram]) == 32 * D * D


def test_embedding_count_table_values():
    ctx = HeckeContext(-7, 11, prec=50)
    O = right_order(build_Iz(ctx, reduced_forms(-11)[0]))
    assert unit_count(O) == 2
    assert embedding_count(O, 11) == 2

    ctx = HeckeContext(-11, 23, prec=50)
    pairs = sorted(
        (unit_count(O), embedding_count(O, 23))
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
    omegas = [unit_count(O) for O in orders]
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
    for x in (ALG.one + ALG.u, ALG.v, ALG.elem(1, 2, 0, 1), ALG.elem(3, 0, 1, 0)):
        assert orders_isometric(O, conjugate_order(O, x))


def test_invariant_record_matches_norm_counts():
    for D, N in [(-7, 11), (-7, 23), (-11, 23), (-11, 31)]:
        ctx = HeckeContext(D, N, prec=50)
        for Q in reduced_forms(-N):
            O = right_order(build_Iz(ctx, Q))
            record = O.invariants
            assert record.disc == O.disc == mat_det(O.lattice.scaled_gram())
            g = O.gram
            assert record.norm_counts == tuple(count_lattice_norm(g, n) for n in range(1, 13))
            g = gross_lattice(O).gram
            assert record.gross_counts == tuple(count_lattice_norm(g, n) for n in range(1, 13))


def test_invariant_record_is_computed_once_per_order(monkeypatch):
    store = discover_classes(-11, prec=50)
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

    def counting(gram, bound2):
        calls.append(bound2)
        return real(gram, bound2)

    monkeypatch.setattr(quaternion, "short_vectors", counting)
    assert store.match(O) == info.class_id
    assert len(calls) == 2  # one pass for the norm lattice, one for the Gross lattice
    assert store.match(O) == info.class_id
    assert unit_count(O) == info.omega
    assert len(calls) == 2
    for _ in range(2):
        embedding_count(O, info.witness_level)
    assert calls.count(2) == 1  # the unit group, enumerated once
    assert grams == [O.lattice]  # one norm Gram for the order's whole life


def test_pair_trd_is_symmetric_bilinear():
    x, y = ALG.elem(1, 2, 3, 4), ALG.elem(-2, 0, 1, 5)
    assert pair_trd(x, y) == pair_trd(y, x)
    assert pair_trd(x, x) == 2 * nrd(x)
