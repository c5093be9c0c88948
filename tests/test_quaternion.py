"""Quaternion algebra (D, -N): arithmetic, lattices, orders, class data."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcm.errors import InputError
from splitcm.hecke import HeckeContext
from splitcm.linalg import mat_det
from splitcm.quadratic import reduced_forms
from splitcm.quaternion import (
    Order,
    QuatAlgebra,
    QuatLattice,
    build_Iz,
    count_lattice_norm,
    embedding_count,
    gross_lattice,
    is_maximal,
    order_discriminant,
    orders_isometric,
    pair_trd,
    right_order,
    short_vectors,
    symplectic_gram,
    unit_count,
)

ALG = QuatAlgebra(-7, 11)


def conjugate_order(O, x):
    """x^(-1) O x for an invertible element x."""
    xin = x.inverse()
    return Order(QuatLattice.from_elems([xin * b * x for b in O.lattice.basis()]))


coords = st.tuples(*[st.integers(min_value=-9, max_value=9)] * 4)
elems = coords.map(lambda c: ALG.elem(*c))


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
    assert (x * y).nrd() == x.nrd() * y.nrd()


@given(elems, elems, elems)
@settings(max_examples=60, deadline=None)
def test_ring_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()


@given(elems)
@settings(max_examples=60, deadline=None)
def test_conjugate_norm_trace(x):
    assert x * x.conjugate() == ALG.elem(x.nrd())
    assert x + x.conjugate() == ALG.elem(x.trd())
    if not x.is_zero():
        assert x.inverse() * x == ALG.one
        assert x * x.inverse() == ALG.one


def test_zero_has_no_inverse():
    with pytest.raises(InputError):
        ALG.elem(0).inverse()


@given(elems, elems)
@settings(max_examples=40, deadline=None)
def test_left_right_matrices(x, y):
    lm = x.left_matrix()
    rm = x.right_matrix()
    prod_l = x * y
    prod_r = y * x
    for i in range(4):
        assert prod_l.co[i] == sum(lm[i][j] * y.co[j] for j in range(4))
        assert prod_r.co[i] == sum(rm[i][j] * y.co[j] for j in range(4))


def test_lattice_canonical_basis():
    a = QuatLattice.from_rows(ALG, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # a unimodular rewrite of the same lattice
    b = QuatLattice.from_rows(ALG, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 7], [0, 0, 1, 8]])
    assert a == b
    assert a.contains(ALG.w) and not a.contains(ALG.w.scale(Fraction(1, 2)))


def test_free_order_invariants():
    O = Order(QuatLattice.from_rows(ALG, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert order_discriminant(O) == (4 * ALG.D * ALG.N) ** 2
    assert not is_maximal(O)
    assert unit_count(O) == 1  # only +-1


def test_hamilton_maximal_order():
    # the classical maximal order in (-1, -1): 24 units, reduced disc 2
    alg = QuatAlgebra(-1, 1)
    half = Fraction(1, 2)
    O = Order(
        QuatLattice.from_rows(
            alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [half, half, half, half]]
        )
    )
    assert order_discriminant(O) == 4
    assert unit_count(O) == 12


def test_order_validation():
    rows_bad_one = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(InputError):
        Order(QuatLattice.from_rows(ALG, rows_bad_one))
    rows_not_closed = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(1, 2)]]
    with pytest.raises(InputError):
        Order(QuatLattice.from_rows(ALG, rows_not_closed))


def brute_norm_counts(gram, top):
    n = len(gram)
    # box radius from the smallest diagonal entry after clearing is crude
    # but fine for the tiny matrices used here
    R = 2 * top + 2
    counts = [0] * (top + 1)
    ranges = [range(-R, R + 1)] * n
    import itertools

    for x in itertools.product(*ranges):
        q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if q % 2 == 0 and q // 2 <= top:
            counts[q // 2] += 1
    return counts


def test_short_vectors_brute_force():
    for gram in ([[2, 1], [1, 2]], [[2, 0], [0, 4]], [[4, 1], [1, 6]]):
        brute = brute_norm_counts(gram, 8)
        for n in range(1, 9):
            assert count_lattice_norm(gram, n) == brute[n], (gram, n)
        assert count_lattice_norm(gram, 0) == 1
        assert count_lattice_norm(gram, -3) == 0


def test_short_vectors_sign_representatives():
    vecs = short_vectors([[2, 1], [1, 2]], 2)
    assert len(vecs) == 3  # hexagonal minimal vectors up to sign
    for v in vecs:
        first = next(c for c in v if c)
        assert first > 0


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
            assert order_discriminant(O) == D * D
            assert is_maximal(O)


def test_gross_lattice_shape():
    for D, N in [(-7, 11), (-11, 23)]:
        ctx = HeckeContext(D, N, prec=50)
        for Q in reduced_forms(-N):
            O = right_order(build_Iz(ctx, Q))
            gl = gross_lattice(O)
            for e in gl.basis:
                assert e.trd() == 0
            for i, e in enumerate(gl.basis):
                assert gl.gram[i][i] == 2 * e.nrd()
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


def test_pair_trd_is_symmetric_bilinear():
    x, y = ALG.elem(1, 2, 3, 4), ALG.elem(-2, 0, 1, 5)
    assert pair_trd(x, y) == pair_trd(y, x)
    assert pair_trd(x, x) == 2 * x.nrd()
