"""Field arithmetic: construction, trace, quadratic character, linearized solves."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from weilcodes import gf
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


# the default moduli, as found by a full scan of every candidate with Rabin's
# irreducibility test, before the test became Ben-Or's and the scan skipped c_0 = 0;
# (3, 30), (5, 12) and (131, 4) as Ben-Or's test found them with a product reduced mod p after
# every multiply-add
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
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (3, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
    (3, 13): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1),
    (5, 1): (0, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (7, 5): (1, 0, 0, 0, 3, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1),
    (11, 4): (1, 0, 0, 4, 1),
    (13, 1): (0, 1),
    (13, 2): (1, 3, 1),
    (13, 3): (1, 0, 4, 1),
    (3, 30): (1,) + (0,) * 26 + (1, 0, 2, 1),
    (5, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 1),
    (131, 4): (1, 0, 0, 1, 1),
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


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _poly_mul(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return tuple(prod)


def test_irreducibility_catches_2_plus_3_split():
    # degree 5 with no linear factor but a quadratic one: gcd with X^{p^d}-X for
    # proper divisors d alone would miss it
    p = 3
    quad = (1, 0, 1)  # X^2+1 irreducible
    cubic = (1, 2, 0, 1)  # X^3+2X+1: no root mod 3 -> irreducible
    assert all((x**3 + 2 * x + 1) % p for x in range(p))
    assert not is_irreducible(_poly_mul(quad, cubic, p), p)


@pytest.mark.parametrize(
    "p,m",
    [(3, m) for m in range(1, 8)] + [(5, m) for m in range(1, 5)] + [(7, m) for m in range(1, 4)]
    + [(11, 2), (13, 2)]
    # large p, where X^p takes up to 7 squarings, and a test of 4 steps
    + [(43, 2), (47, 2), (131, 2), (3, 8)],
)
def test_irreducible_count_is_the_necklace_number(p, m):
    # Gauss: there are (1/m) sum_{d | m} mu(d) p^{m/d} monic irreducibles of degree m
    expected = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
    found = sum(is_irreducible(low + (1,), p) for low in itertools.product(range(p), repeat=m))
    assert found == expected


@pytest.mark.parametrize("p,m", [(3, 4), (3, 5), (3, 6), (5, 4), (7, 3)])
def test_irreducible_is_exactly_no_product_of_lower_degrees(p, m):
    # every monic product g h with 1 <= deg g <= m / 2 is reducible, and nothing else is
    monic = {d: [low + (1,) for low in itertools.product(range(p), repeat=d)] for d in range(1, m)}
    reducible = {_poly_mul(g, h, p) for d in range(1, m // 2 + 1) for g in monic[d] for h in monic[m - d]}
    for low in itertools.product(range(p), repeat=m):
        cand = low + (1,)
        assert is_irreducible(cand, p) == (cand not in reducible), cand


def test_irreducibility_checks_factors_up_to_half_the_degree():
    # the smallest factor of each product has degree exactly m // 2, the last k
    # the test tries; each factor is a pinned default modulus, or a cubic with no root
    p = 3
    quad, quartic = DEFAULT_MODULI[3, 2], DEFAULT_MODULI[3, 4]
    cubics = [(1, 0, 2, 1), (2, 2, 0, 1), (2, 1, 1, 1)]
    for c in cubics:
        assert all(sum(ci * x**i for i, ci in enumerate(c)) % p for x in range(p))
    for f in (_poly_mul(quad, quad, p), _poly_mul(cubics[0], cubics[1], p), _poly_mul(cubics[2], quartic, p)):
        assert not is_irreducible(f, p), f
    for f in (quad, quartic, *cubics):
        assert is_irreducible(f, p)


def _poly_rem(a, f, p):
    """a mod the monic f by long division, one coefficient at a time."""
    r = [c % p for c in a]
    m = len(f) - 1
    for d in range(len(r) - 1, m - 1, -1):
        c = r[d]
        for k in range(m + 1):
            r[d - m + k] = (r[d - m + k] - c * f[k]) % p
    return tuple((r + [0] * m)[:m])


def _ref_mul(a, b, f, p):
    return _poly_rem(_poly_mul(a, b, p), f, p)


def _ref_pow(a, e, f, p):
    # right to left, on the schoolbook product
    out = (1,) + (0,) * (len(f) - 2)
    while e:
        if e & 1:
            out = _ref_mul(out, a, f, p)
        a = _ref_mul(a, a, f, p)
        e >>= 1
    return out


@pytest.mark.parametrize("p,m,modulus", [(131, 2, None), (3, 9, None), (5, 4, (4, 4, 4, 3, 1)), (7, 3, None)])
def test_element_arithmetic_matches_a_schoolbook_reference(p, m, modulus):
    # products, squares, powers and inverses of single elements against long division of the
    # plain product, the powers right to left; X and 1 included among the operands
    f = field_create(p, m, modulus)
    mod, q = f.modulus, f.q
    rng = random.Random(q)
    exponents = [0, 1, 2, p, q - 2, q - 1, q, 3 * q - 1] + [rng.randrange(3 * q) for _ in range(4)]
    operands = [f.gen(), f.one()] + [f.from_index(rng.randrange(1, q)) for _ in range(12)]
    for x in operands:
        y = f.from_index(rng.randrange(q))
        assert (x * y).coeffs == _ref_mul(x.coeffs, y.coeffs, mod, p)
        assert (x * x).coeffs == _ref_mul(x.coeffs, x.coeffs, mod, p)
        for e in exponents:
            assert (x**e).coeffs == _ref_pow(x.coeffs, e, mod, p), e
        assert _ref_mul(x.inverse().coeffs, x.coeffs, mod, p) == f.one().coeffs
        assert x.inverse() == x**-1


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


@pytest.mark.parametrize("p,m,modulus", [(3, 1, None), (3, 4, (2, 0, 0, 1, 1)), (3, 7, None), (7, 3, None), (47, 2, None)])
def test_linearized_operator_applies_the_map(p, m, modulus):
    # the matrix against a^{p^u} x^{p^{2u}} + a x in element arithmetic, the powers by square-and-multiply
    f = field_create(p, m, modulus)
    rng = random.Random(f.q)
    for _ in range(10):
        a, u = f.from_index(rng.randrange(f.q)), rng.randrange(3 * m + 1)
        op = linearized_operator(f, a, u)
        for _ in range(5):
            x = f.from_index(rng.randrange(f.q))
            assert op.apply(x) == a ** (p ** (u % m)) * x ** (p ** (2 * u % m)) + a * x


def test_solve_linear_unique_and_zero():
    f9 = field_create(3, 2)
    op = linearized_operator(f9, f9.one(), 1)  # 2*Id
    alpha = f9.gen()
    x0 = solve_linear(op, alpha)
    assert op.apply(x0) == alpha
    assert x0 == f9.scalar(2) * alpha
    assert solve_linear(op, f9.zero()) == f9.zero()


def test_solve_linear_singular_counts():
    # over F_{3^4} with u=1, X^{p^{2u}} + X is singular: exactly p^{m-2v} = 9
    # of the 81 right-hand sides -b^{p^u} are solvable
    f = field_create(3, 4)
    op = linearized_operator(f, f.one(), 1)
    images = [op.apply(x) for x in f.elements()]
    solvable = 0
    for b in f.elements():
        rhs = -(b.frobenius_iterate(1))
        x0 = solve_linear(op, rhs)
        if x0 is not None:
            solvable += 1
            assert op.apply(x0) == rhs
            assert images.count(rhs) == 3 ** op.kernel_dim() == 3**2
        else:
            assert rhs not in images
    assert solvable == 9
    # the designated solution (free coordinates zero) of op(X) = 0 is 0, not a kernel element
    assert solve_linear(op, f.zero()) == f.zero()


@pytest.mark.parametrize("p,m,u", [(3, 2, 1), (3, 3, 1), (3, 4, 2), (5, 2, 1)])
def test_solve_linear_roundtrip_and_kernel_size(p, m, u):
    f = field_create(p, m)
    elems = list(f.elements())
    for a in elems[1 :: max(1, len(elems) // 7)]:
        op = linearized_operator(f, a, u)
        images = [op.apply(y) for y in elems]
        xs = elems[:: max(1, len(elems) // 7)]
        for x in xs:
            rhs = op.apply(x)
            x0 = solve_linear(op, rhs)
            assert op.apply(x0) == rhs  # x lies in x0 + ker
            assert images.count(rhs) == p ** op.kernel_dim()
            for y in xs:  # designated solutions are linear in the rhs
                assert solve_linear(op, rhs + op.apply(y)) == x0 + solve_linear(op, op.apply(y))


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
        for u in (0, 1, m, m + 1, 10**12 * m + 1):
            # Tr(x^{p^u + 1}), Tr(x^2) at u = 0; p^u is out of reach at the largest u,
            # where x^{p^u} is the element's Frobenius iterate
            power = x ** (p**u + 1) if u <= m + 1 else x.frobenius_iterate(u) * x
            assert f.quadratic_trace(u)[x.index] == power.trace(), u
        assert f.eta_table()[x.index] == x.eta()
        assert f.trace_of_products()[x.index, y.index] == (x * y).trace()
        assert f.trace_forms([x.index])[0, y.index] == (x * y).trace()
        assert tuple(f.mulmod(x.coeffs, y.coeffs)) == (x * y).coeffs
    assert f.power_table(0)[0] == 1  # 0^0 = 1
    assert f.quadratic_trace(1).dtype == np.int16
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
            assert x.inverse() == x ** (q - 2)
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


def test_digit_tables_do_not_wrap_above_p_2_15():
    # p - 1 = 32770 passes int16: digits, level and trace values are int32 from p = 32771
    f = field_create(32771, 1)
    x = np.arange(f.q, dtype=np.int64)
    assert np.array_equal(f.quadratic_trace(0), x * x % f.p)
    assert np.array_equal(f.trace_table(), x)  # Tr is the identity on F_p
    assert f.digits().dtype == f.quadratic_trace(0).dtype == f.trace_table().dtype == np.int32
    assert field_create(32749, 1).digits().dtype == np.int16


def test_digit_forms_refuse_values_past_float64_exactness():
    # 2 m (p - 1)^2 >= 2^53 from p = 2^26 + 1 at m = 1: refused before the digit rows are built
    f = field_create(67108879, 1)
    with pytest.raises(gf.GFError):
        f.quadratic_trace(0)
    with pytest.raises(gf.GFError):
        f.trace_values(0, f.one(), f.one())
    assert "digits" not in f._caches


def test_power_table_in_row_blocks_equals_one_block(monkeypatch):
    p, m = 5, 3
    one_block = {e: field_create(p, m).power_table(e) for e in (0, 2, 6, 26, 124, 1000)}
    monkeypatch.setattr(gf, "_BLOCK", 7)  # one row per block at 2m - 1 = 5
    f = field_create(p, m)
    for e, table in one_block.items():
        assert f.power_table(e).dtype == np.int32
        assert (f.power_table(e) == table).all(), e


def test_power_table_memory_is_bounded_by_its_blocks():
    # 3^10: 1.2 MB of int16 digit rows and a 0.24 MB int32 result; the whole-field
    # square ladder would take about 33 MB
    f = field_create(3, 10)
    tracemalloc.start()
    try:
        table = f.power_table(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table[f.gen().index] == (f.gen() * f.gen()).index
    assert peak < 4_000_000


def test_power_table_refuses_negative_exponent():
    with pytest.raises(GFError):
        field_create(3, 2).power_table(-1)


# every field up to 3^10, 5^6 and 7^4, 47^2 and 131^2, and custom moduli
LEVEL_FIELDS = (
    [(3, m, None) for m in range(1, 11)]
    + [(5, m, None) for m in range(1, 7)]
    + [(7, m, None) for m in range(1, 5)]
    + [(47, 2, None), (131, 2, None), (3, 2, (2, 2, 1)), (3, 4, (2, 0, 0, 1, 1)), (5, 3, (2, 0, 3, 1)),
       (5, 4, (4, 4, 4, 3, 1)), (47, 2, (2, 1, 1))]
)


@pytest.mark.parametrize("p,m,modulus", LEVEL_FIELDS)
def test_quadratic_trace_equals_the_trace_of_the_power_table(p, m, modulus):
    # the digit quadratic form x F_u G x^T against Tr read at x^{p^u + 1} from the power table,
    # as whole arrays; u counts mod m, so p^u + 1 is formed from u mod m in the reference
    f = field_create(p, m, modulus)
    for u in (0, 1, m - 1, m, 10**12 * m + 1):
        level = f.quadratic_trace(u)
        assert level.dtype == np.int16
        assert np.array_equal(level, f.trace_table()[f.power_table(p ** (u % m) + 1)]), u


@pytest.mark.parametrize("block", [1, 7, 40])
def test_quadratic_trace_in_row_blocks_equals_one_block(monkeypatch, block):
    # the digit-form evaluator behind both `quadratic_trace` and `trace_values`
    monkeypatch.setattr(gf, "_BLOCK", 1 << 20)
    f = gf.FiniteField(5, 3)
    elements = [(f.from_index(ai), f.from_index(bi)) for ai, bi in ((1, 0), (7, 93), (124, 5), (0, 61))]
    one_block = {u: f.quadratic_trace(u) for u in range(3)}
    values = {(u, i): f.trace_values(u, a, b) for u in range(3) for i, (a, b) in enumerate(elements)}
    monkeypatch.setattr(gf, "_BLOCK", block)  # 1, 2 and 13 rows per block at m = 3
    f = gf.FiniteField(5, 3)
    for u, table in one_block.items():
        assert np.array_equal(f.quadratic_trace(u), table), u
        for i, (a, b) in enumerate(elements):
            assert np.array_equal(f.trace_values(u, f.element(a.coeffs), f.element(b.coeffs)), values[u, i]), (u, i)


def test_quadratic_trace_memory_is_bounded_by_its_blocks():
    # 3^10 with its digit rows built: a 0.12 MB int16 result and blocks of _BLOCK float64 entries;
    # the whole-field int64 product would take 4.7 MB, the power and trace tables 5.2 MB
    f = field_create(3, 10)
    f.digits()
    tracemalloc.start()
    try:
        level = f.quadratic_trace(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    x = f.gen() + f.one()
    assert level[x.index] == (x ** 4).trace()
    assert peak < 1_000_000


SCALAR_FIELDS = [(3, m, None) for m in range(1, 6)] + [(5, m, None) for m in range(1, 4)] + [
    (3, 7, None), (47, 2, None), (131, 2, None), (5, 4, (4, 4, 4, 3, 1))]


@pytest.mark.parametrize("p,m,modulus", SCALAR_FIELDS)
def test_norm_inverse_and_eta_match_square_and_multiply(p, m, modulus):
    # the norm route against powers of x: every unit where there are at most 2 500, else 2 500 of them
    f = field_create(p, m, modulus)
    q = f.q
    units = range(1, q) if q <= 2501 else random.Random(q).sample(range(1, q), 2500)
    one, minus_one = f.one(), -f.one()
    for i in units:
        x = f.from_index(i)
        assert x.inverse() == x ** (q - 2), i
        euler = x ** ((q - 1) // 2)
        assert euler in (one, minus_one)
        assert x.eta() == (1 if euler == one else -1), i
        assert f.scalar(x.norm()) == x ** ((q - 1) // (p - 1)), i
    assert f.zero().norm() == 0 and f.zero().eta() == 0


@pytest.mark.parametrize("p,m,modulus", [(3, 1, None), (3, 5, None), (5, 3, (2, 0, 3, 1)), (13, 2, None), (131, 1, None)])
def test_leading_splits_each_element_into_scalar_and_orbit_unit(p, m, modulus):
    # lead(x) is the first nonzero coefficient (low degree first); x / lead(x) leads with 1, and
    # every c x with c != 0 has the same x / lead(x)
    f = field_create(p, m, modulus)
    lead = f.leading()
    assert lead[0] == 1
    rng = random.Random(f.q)
    for i in rng.sample(range(1, f.q), min(f.q - 1, 300)):
        x = f.from_index(i)
        first = next(c for c in x.coeffs if c)
        assert lead[i] == first
        unit = x / f.scalar(int(lead[i]))
        assert next(c for c in unit.coeffs if c) == 1
        cx = f.scalar(rng.randrange(1, p)) * x
        assert cx / f.scalar(int(lead[cx.index])) == unit
