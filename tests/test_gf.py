"""Field arithmetic: construction, trace, quadratic character, linearized solves."""

import itertools
import random

import numpy as np
import pytest

from weilcodes.gf import (
    CompositeP,
    DivisionByZero,
    FieldMismatch,
    GFError,
    ReducibleModulus,
    field_create,
    is_irreducible,
    linearized_operator,
    smallest_irreducible,
    solve_linear,
)


def brute_smallest_irreducible_quadratic(p):
    """Independent scan: a monic quadratic is irreducible iff it has no root."""
    for a0, a1 in itertools.product(range(p), repeat=2):
        if all((x * x + a1 * x + a0) % p for x in range(p)):
            return (a0, a1, 1)
    raise AssertionError


def test_prime_field_convention():
    f = field_create(3, 1)
    assert f.modulus == (0, 1)
    assert f.q == 3


def test_smallest_irreducible_matches_scan():
    for p in (3, 5, 7):
        f = field_create(p, 2)
        assert f.modulus == brute_smallest_irreducible_quadratic(p)
    assert field_create(3, 2).modulus == (1, 0, 1)  # X^2 + 1: -1 is a non-square mod 3


# the default moduli, as found by the full Rabin scan over every candidate
DEFAULT_MODULI = {
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1),
    (13, 1): (0, 1),
    (13, 2): (1, 3, 1),
    (13, 3): (1, 0, 4, 1),
}


def test_default_moduli_are_pinned():
    for (p, m), modulus in DEFAULT_MODULI.items():
        assert smallest_irreducible(p, m) == modulus, (p, m)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, modulus=(0, 2, 1))  # X^2 + 2X = X(X+2)
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, modulus=(1, 0, 2))  # not monic


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_bad_p_rejected(p):
    with pytest.raises(CompositeP):
        field_create(p, 1)


def test_irreducibility_catches_2_plus_3_split():
    # degree 5 with no linear factor but a quadratic one: gcd with X^{p^d}-X for
    # proper divisors d alone would miss it
    p = 3
    quad = (1, 0, 1)  # X^2+1 irreducible
    cubic = (1, 2, 0, 1)  # X^3+2X+1: no root mod 3 -> irreducible
    assert all((x**3 + 2 * x + 1) % p for x in range(p))
    prod = [0] * 6
    for i, a in enumerate(quad):
        for j, b in enumerate(cubic):
            prod[i + j] = (prod[i + j] + a * b) % p
    assert not is_irreducible(tuple(prod), p)


def test_f9_basic_arithmetic():
    f9 = field_create(3, 2)
    alpha = f9.gen()
    assert (alpha * alpha).coeffs == (2, 0)  # alpha^2 = -1 = 2
    assert alpha.frobenius_iterate(1) == f9.scalar(2) * alpha  # alpha^3 = 2*alpha
    f3 = field_create(3, 1)
    two = f3.scalar(2)
    assert two.inverse() == two  # 2*2 = 4 = 1


def test_pow_and_inverse():
    f = field_create(5, 3)
    x = f.element((2, 1, 3))
    assert x * x.inverse() == f.one()
    assert x ** (f.q - 1) == f.one()
    assert x**0 == f.one()
    big = f.p ** (2 * f.m) + 7
    assert x**big == x ** (big % (f.q - 1))
    with pytest.raises(DivisionByZero):
        f.zero().inverse()


def test_field_mismatch_is_hard_error():
    a = field_create(3, 2).one()
    b = field_create(3, 2, modulus=(2, 2, 1)).one()  # X^2+2X+2, also irreducible
    with pytest.raises(FieldMismatch):
        a + b


def test_trace_examples():
    f9 = field_create(3, 2)
    assert f9.one().trace() == 2  # Tr(c) = m*c on the prime field
    assert f9.gen().trace() == 0  # alpha + alpha^3 = alpha + 2 alpha = 0
    f3 = field_create(3, 1)
    for x in f3.elements():
        assert x.trace() == x.coeffs[0]


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_trace_linear_frobenius_invariant_nondegenerate(p, m):
    f = field_create(p, m)
    elems = list(f.elements())
    for x in elems[:: max(1, len(elems) // 12)]:
        for y in elems[:: max(1, len(elems) // 12)]:
            assert (x + y).trace() == (x.trace() + y.trace()) % p
        assert x.frobenius_iterate(1).trace() == x.trace()
    # nondegeneracy: b -> Tr(b*_) has trivial kernel
    for b in elems:
        if not b.is_zero():
            assert any((b * x).trace() for x in elems)


def test_eta_examples_and_multiplicativity():
    f3 = field_create(3, 1)
    assert f3.scalar(2).eta() == -1
    f9 = field_create(3, 2)
    assert f9.scalar(2).eta() == 1  # every prime-field unit is a square in even degree
    assert f9.zero().eta() == 0
    elems = [x for x in f9.elements() if not x.is_zero()]
    for x in elems:
        for y in elems:
            assert (x * y).eta() == x.eta() * y.eta()
    assert sum(1 for x in elems if x.eta() == 1) == (f9.q - 1) // 2


def test_linearized_operator_examples():
    f9 = field_create(3, 2)
    op = linearized_operator(f9, f9.one(), 1)  # X^9 + X = 2X on F_9
    assert op.matrix == ((2, 0), (0, 2))
    f3 = field_create(3, 1)
    op3 = linearized_operator(f3, f3.one(), 1)
    assert op3.matrix == ((2,),)
    f81 = field_create(3, 4)
    op81 = linearized_operator(f81, f81.one(), 1)
    assert op81.kernel_dim() == 2  # p^{2v}-1 = 8 nonzero kernel elements, v=1


def test_solve_linear_unique_and_zero():
    f9 = field_create(3, 2)
    op = linearized_operator(f9, f9.one(), 1)  # 2*Id
    alpha = f9.gen()
    sol = solve_linear(op, alpha)
    assert sol.kind == "unique"
    assert sol.particular == f9.scalar(2) * alpha
    assert f9.zero() in solve_linear(op, f9.zero())


def test_solve_linear_singular_counts():
    # over F_{3^4} with u=1, X^{p^{2u}} + X is singular: exactly p^{m-2v} = 9
    # of the 81 right-hand sides -b^{p^u} are solvable
    f = field_create(3, 4)
    op = linearized_operator(f, f.one(), 1)
    solvable = 0
    for b in f.elements():
        rhs = -(b.frobenius_iterate(1))
        sol = solve_linear(op, rhs)
        if sol.kind != "none":
            solvable += 1
            assert sol.size == 3**2
    assert solvable == 9


@pytest.mark.parametrize("p,m,u", [(3, 2, 1), (3, 3, 1), (3, 4, 2), (5, 2, 1)])
def test_solve_linear_roundtrip_and_kernel_size(p, m, u):
    f = field_create(p, m)
    elems = list(f.elements())
    for a in elems[1 :: max(1, len(elems) // 7)]:
        op = linearized_operator(f, a, u)
        for x in elems[:: max(1, len(elems) // 7)]:
            sol = solve_linear(op, op.apply(x))
            assert x in sol
            assert sol.size == p ** op.kernel_dim()


def test_permutation_criterion():
    # the operator is invertible iff m2/v odd, or m2/v even with
    # a^{(p^m-1)/(p^v+1)} != (-1)^{s/v}
    import math

    for p, m, u in [(3, 2, 1), (3, 4, 1), (3, 3, 1), (5, 2, 1)]:
        f = field_create(p, m)
        v = math.gcd(m, u)
        for a in f.elements():
            if a.is_zero():
                continue
            op = linearized_operator(f, a, u)
            invertible = op.kernel_dim() == 0
            if (m // v) % 2 == 1:
                expected = True
            else:
                s = m // 2
                target = f.scalar((-1) ** (s // v))
                expected = a ** ((p**m - 1) // (p**v + 1)) != target
            assert invertible == expected


@pytest.mark.parametrize(
    "p,m,modulus",
    [(3, 1, None), (3, 2, (2, 2, 1)), (5, 3, None), (3, 7, None), (47, 2, (2, 1, 1))],
)
def test_array_tables_match_element_arithmetic(p, m, modulus):
    # the digit-array tables against the polynomial path, on fields on both
    # sides of the former 2048-element table limit
    f = field_create(p, m, modulus)
    rng = random.Random(f.q)
    q = f.q
    # every digit case of the power table: single digits, all digits p - 1
    # (q - 1), the Frobenius wrap (x^(p^m + 1) = x^2) and e > q with no zero digit
    exponents = [0, 1, p, p**2 + 1, (q - 1) // 2, q - 2, q - 1, q, p**m + 1]
    exponents.append(sum(rng.randrange(1, p) * p**k for k in range(m + 2)))
    for _ in range(30):
        x, y = f.from_index(rng.randrange(f.q)), f.from_index(rng.randrange(f.q))
        conjugates = [x ** (p**k) for k in range(m)]
        total = conjugates[0]
        for c in conjugates[1:]:
            total = total + c
        assert total == f.scalar(int(f.trace_table()[x.index]))
        assert f.frob_table()[x.index] == (x**p).index
        assert f.power_table(2)[x.index] == (x * x).index
        for e in exponents:
            assert f.power_table(e)[x.index] == (x**e).index, e
        assert f.eta_table()[x.index] == x.eta()
        assert f.trace_of_products()[x.index, y.index] == (x * y).trace()
        assert f.trace_forms([x.index])[0, y.index] == (x * y).trace()
        assert tuple(f.mulmod(x.coeffs, y.coeffs)) == (x * y).coeffs
    assert f.power_table(0)[0] == 1  # 0^0 = 1
    if f.q <= 125:
        assert (f.mul_table() == [[(x * y).index for y in f.elements()] for x in f.elements()]).all()
        keys = [f.coeffs_of(int(i)) for i in f.lex_order()]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "p,m,modulus",
    [(3, 7, None), (47, 2, None), (131, 1, None), (5, 4, (4, 4, 4, 3, 1))],
)
def test_scalar_path_matches_array_path(p, m, modulus):
    # single elements (polynomial arithmetic on whichever representation they
    # hold) against the whole-field digit-array tables, index by index
    f = field_create(p, m, modulus)
    q = f.q
    if q > 2500:
        indices = random.Random(q).sample(range(q), 2500)
    else:
        indices = range(q)
    rows = f.digits().tolist()
    exponents = [0, 2, p + 1, q - 2]
    powers = {e: f.power_table(e).tolist() for e in exponents}
    traces, etas = f.trace_table().tolist(), f.eta_table().tolist()
    for i in indices:
        x = f.from_index(i)
        assert x.coeffs == tuple(rows[i])
        assert f.element(rows[i]).index == i
        for e in exponents:
            assert (x**e).index == powers[e][i], (i, e)
        if i:
            assert x**-1 == x.inverse()
        assert x.trace() == traces[i]
        assert x.eta() == etas[i]
        by_index, by_coeffs = f.from_index(i), f.element(rows[i])
        assert by_index == by_coeffs and by_coeffs == f.from_index(i)
        assert hash(f.from_index(i)) == hash(f.element(rows[i]))
        assert f.from_index(i) != f.element(rows[(i + 1) % q])
        assert f.from_index(i) != f.from_index(i + 1)
    with pytest.raises(DivisionByZero):
        f.zero() ** -1
    with pytest.raises(DivisionByZero):
        f.from_index(0) ** -1


def test_trace_of_products_does_not_wrap_above_p_127():
    f = field_create(131, 1)
    table = f.trace_of_products()
    assert table.min() >= 0
    rng = random.Random(131)
    for _ in range(200):
        xi, yi = rng.randrange(f.q), rng.randrange(f.q)
        assert table[xi, yi] == (f.from_index(xi) * f.from_index(yi)).trace()
    assert field_create(127, 1).trace_of_products().dtype == np.int8


def test_power_table_refuses_negative_exponent():
    with pytest.raises(GFError):
        field_create(3, 2).power_table(-1)
