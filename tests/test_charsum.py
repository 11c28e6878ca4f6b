"""Character sums: CycInt algebra, Gauss/Weil/quadratic sums, closed vs brute."""

import gc
import itertools
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilcodes import gf
from weilcodes.charsum import (
    CycInt,
    ZeroA,
    eta1,
    even_l_power,
    g1,
    gamma_of,
    gamma_table,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    orthogonality_sum,
    quad_sum_bruteforce,
    quad_sum_closed,
    _weil_dispatch,
    weil_sum_bruteforce,
    weil_sum_closed,
)
from weilcodes.gf import FiniteField, field_create, linearized_operator, solve_linear

# fields above the former 2048-element limit of the dense tables, one with a
# non-default modulus (the default for 47^2 is X^2 + 1)
BIG_FIELDS = [(3, 7, None), (47, 2, (2, 1, 1))]
BIG_PARAMS = [pytest.param(p, m, mod, id=f"{p}^{m}") for p, m, mod in BIG_FIELDS]


def message_pairs(field):
    """Every (a, b) with a nonzero, or a seeded sample of 40 of them above 2048 elements."""
    if field.q <= 2048:
        pairs = itertools.product(range(1, field.q), range(field.q))
    else:
        rng = random.Random(field.q)
        pairs = [(rng.randrange(1, field.q), rng.randrange(field.q)) for _ in range(40)]
    for ai, bi in pairs:
        yield field.from_index(ai), field.from_index(bi)


def dict_sum_oracle(p, terms):
    """Independent Z[zeta_p] accumulator: list of (coeff, exponent) pairs."""
    v = [0] * p
    for coeff, e in terms:
        v[e % p] += coeff
    last = v[-1]
    return tuple(c - last for c in v[:-1]) + (0,)


def test_cycint_canonical_form():
    z = CycInt.zeta(3, 1) - CycInt.zeta(3, 2)  # G_1 for p = 3
    assert z.coeffs == (1, 2, 0)
    assert CycInt.zeta(5, 4).coeffs == (-1, -1, -1, -1, 0)
    assert CycInt.integer(7, -4).as_int() == -4


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.data(),
)
def test_cycint_ring_axioms(p, data):
    vec = st.lists(st.integers(-9, 9), min_size=p, max_size=p)
    x = CycInt(p, data.draw(vec))
    y = CycInt(p, data.draw(vec))
    z = CycInt(p, data.draw(vec))
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    # canonical form is unique: equal values compare equal after any shuffle
    k = data.draw(st.integers(1, p - 1))
    assert x.galois(k).galois(pow(k, -1, p)) == x


def test_gauss_brute_f3_and_f9():
    assert gauss_sum_bruteforce(field_create(3, 1)).coeffs == (1, 2, 0)
    # the 9-term sum collapses to the rational integer +3
    g2 = gauss_sum_bruteforce(field_create(3, 2))
    assert g2.as_int() == 3


def test_gauss_brute_modulus_independent():
    a = gauss_sum_bruteforce(field_create(3, 2))
    b = gauss_sum_bruteforce(field_create(3, 2, modulus=(2, 2, 1)))
    assert a == b


def test_gauss_scale_resolution():
    assert even_l_power(3, 2) == -1  # L = i
    assert even_l_power(5, 2) == 1  # L = 1
    assert even_l_power(7, 2) == -1
    assert even_l_power(3, 4) == 1
    with pytest.raises(ValueError):
        even_l_power(3, 3)


def test_g1_squared_is_eta_minus_one_times_p():
    for p in (3, 5, 7, 11):
        assert (g1(p) * g1(p)).as_int() == eta1(p, -1) * p


@pytest.mark.parametrize(
    "p,m,modulus",
    [pytest.param(p, m, None, id=f"{m}-{p}") for m in (1, 2, 3, 4) for p in (3, 5, 7)] + BIG_PARAMS,
)
def test_gauss_closed_equals_brute(p, m, modulus):
    assert gauss_sum_closed(p, m) == gauss_sum_bruteforce(field_create(p, m, modulus))


def test_brute_sums_equal_closed_forms_above_p_2_15():
    # at p = 32771 the digits are int32; int16 ones wrapped and made the brute sums differ
    field = field_create(32771, 1)
    a, b = field.from_index(12345), field.from_index(999)
    assert gauss_sum_bruteforce(field) == gauss_sum_closed(field.p, 1)
    assert quad_sum_bruteforce(field, a, b) == quad_sum_closed(field, a, b)
    assert weil_sum_bruteforce(field, 1, a, b) == weil_sum_closed(field, 1, a, b)


def test_brute_quad_sum_is_exact_past_the_float64_cube_bound():
    # at p = 1 000 003 the values x form x^T pass 2^53; the form is reduced mod p first
    field = field_create(1000003, 1)
    a, b = field.from_index(12345), field.from_index(999)
    assert quad_sum_bruteforce(field, a, b) == quad_sum_closed(field, a, b)


def test_gauss_closed_m1_is_g1():
    assert gauss_sum_closed(3, 1) == g1(3)
    assert (gauss_sum_closed(5, 1) * gauss_sum_closed(5, 1)).as_int() == 5


def test_orthogonality():
    # the exhaustive sum against the orthogonality relation: q at b = 0, else 0
    for p, m in [(3, 1), (3, 2), (3, 3), (5, 2)]:
        field = field_create(p, m)
        for b in field.elements():
            want = CycInt.integer(p, field.q) if b.is_zero() else CycInt.zero(p)
            assert orthogonality_sum(field, b) == want, (p, m, b.index)


def test_weil_brute_spec_values():
    f9 = field_create(3, 2)
    assert weil_sum_bruteforce(f9, 1, f9.one(), f9.zero()).as_int() == -3
    f3 = field_create(3, 1)
    assert weil_sum_bruteforce(f3, 1, f3.one(), f3.zero()) == g1(3)
    f81 = field_create(3, 4)
    assert weil_sum_bruteforce(f81, 1, f81.one(), f81.zero()).as_int() == -27
    with pytest.raises(ZeroA):
        weil_sum_bruteforce(f9, 1, f9.zero(), f9.zero())


def test_weil_brute_matches_independent_oracle():
    # recompute S_{2,1}(a, b) over F_9 with a test-local accumulator
    f9 = field_create(3, 2)
    a, b = f9.gen(), f9.one()
    terms = []
    for x in f9.elements():
        val = a * x ** (3 + 1) + b * x
        terms.append((1, val.trace()))
    assert weil_sum_bruteforce(f9, 1, a, b).coeffs == dict_sum_oracle(3, terms)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 3), (3, 4)])
def test_weil_sums_and_gamma_take_u_mod_m(p, m):
    # x^{p^m} = x, so u and u + k m give one sum and one gamma table, even where p^u is out of reach
    f = field_create(p, m)
    rng = random.Random(p * 10 + m)
    for u in range(1, m + 1):
        for big in (u + m, u + 10**12 * m):
            assert gamma_table(f, big) is gamma_table(f, u % m), (u, big)
            assert f.quadratic_trace(big) is f.quadratic_trace(u % m), (u, big)
            for _ in range(4):
                a, b = f.from_index(rng.randrange(1, f.q)), f.from_index(rng.randrange(f.q))
                want = weil_sum_bruteforce(f, u, a, b)
                assert weil_sum_bruteforce(f, big, a, b) == want == weil_sum_closed(f, big, a, b), (u, big)


def test_weil_closed_spec_values():
    f9 = field_create(3, 2)
    assert weil_sum_closed(f9, 1, f9.one(), f9.zero()).as_int() == -3
    f3 = field_create(3, 1)
    # v = gcd(1,2) = 1, m/v odd; x0 solves 2X = -1 so x0 = 1; value G_1 zeta^{-1}
    got = weil_sum_closed(f3, 2, f3.one(), f3.one())
    assert got == g1(3) * CycInt.zeta(3, -1)
    assert got.coeffs == (1, -1, 0)
    f81 = field_create(3, 4)
    zero_hits = sum(
        1
        for b in f81.elements()
        if weil_sum_closed(f81, 1, f81.one(), b).is_zero()
    )
    assert zero_hits == 81 - 9  # unsolvable branch for 72 of 81 shifts


# the fields up to 5^3, every a != 0 and every b, are criterion 4's in tests/test_acceptance.py
@pytest.mark.parametrize("p,m,modulus", BIG_PARAMS)
def test_weil_closed_equals_brute_everywhere(p, m, modulus):
    field = field_create(p, m, modulus)
    for u in (1, 2, 3):
        for a, b in message_pairs(field):
            assert weil_sum_closed(field, u, a, b) == weil_sum_bruteforce(field, u, a, b), (
                p, m, u, a.index, b.index,
            )


def test_quad_sums():
    f3 = field_create(3, 1)
    assert quad_sum_closed(f3, f3.one(), f3.zero()) == g1(3)
    f9 = field_create(3, 2)
    q2 = quad_sum_closed(f9, f9.one(), f9.zero())
    assert q2 == quad_sum_bruteforce(f9, f9.one(), f9.zero())
    assert q2 == gauss_sum_closed(3, 2)
    # (F_3, a=2, b=1): eta1(2) = -1 and -1/(4*2) = 1 mod 3
    got = quad_sum_closed(f3, f3.scalar(2), f3.one())
    assert got == -1 * g1(3) * CycInt.zeta(3, 1)
    assert got == quad_sum_bruteforce(f3, f3.scalar(2), f3.one())
    with pytest.raises(ZeroA):
        quad_sum_closed(f3, f3.zero(), f3.one())


@pytest.mark.parametrize(
    "p,m,modulus",
    [pytest.param(p, m, None, id=f"{p}-{m}") for p, m in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]]
    + BIG_PARAMS,
)
def test_quad_closed_equals_brute(p, m, modulus):
    field = field_create(p, m, modulus)
    for a, b in message_pairs(field):
        assert quad_sum_closed(field, a, b) == quad_sum_bruteforce(field, a, b)


def reference_sums(field, u, ais, bis):
    """Coefficient tuples of the sums of zeta^{Tr(a x^{p^u + 1} + b x)} at the index pairs (ais[i], bis[i]).

    The plain way: the trace-form rows of a and of b, the first read at
    x^{p^u + 1} from the power table, added, and counted per pair.
    """
    p, n = field.p, len(ais)
    exps = field.trace_forms(ais)[:, field.power_table(p ** (u % field.m) + 1)] + field.trace_forms(bis)
    counts = np.bincount((np.arange(n)[:, None] * p + exps % p).ravel(), minlength=n * p).reshape(n, p)
    return [CycInt(p, row).coeffs for row in counts.tolist()]


def reference_sum(field, u, a, b):
    return CycInt(field.p, reference_sums(field, u, [a.index], [b.index])[0])


def assert_brute_sums_equal_the_reference(field, pairs, weil_us):
    # pairs holds (a index, b index), weil_us[i] the exponents u of the Weil sums at pair i
    ais, bis = np.array(pairs).T
    assert gauss_sum_bruteforce(field) == reference_sum(field, 0, field.one(), field.zero())
    bs = np.unique(bis)
    orth = reference_sums(field, 0, np.zeros_like(bs), bs)
    assert [orthogonality_sum(field, field.from_index(bi)).coeffs for bi in bs.tolist()] == orth
    refs = {u: reference_sums(field, u, ais, bis) for u in {0} | {u % field.m for us in weil_us for u in us}}
    for i, (ai, bi) in enumerate(pairs):
        a, b = field.from_index(ai), field.from_index(bi)
        assert quad_sum_bruteforce(field, a, b).coeffs == refs[0][i], (field, ai, bi)
        for u in weil_us[i]:
            assert weil_sum_bruteforce(field, u, a, b).coeffs == refs[u % field.m][i], (field, u, ai, bi)


def exponents_u(m):
    return (0, 1, m - 1, m, 10**12 * m + 1)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_brute_sums_equal_the_power_table_route_for_every_pair(p, m):
    # every (a, b) with a != 0, q <= 3^4; the Weil sum at one u per pair, the five u in turn
    field = field_create(p, m)
    us = exponents_u(m)
    pairs = [(ai, bi) for ai in range(1, field.q) for bi in range(field.q)]
    assert_brute_sums_equal_the_reference(field, pairs, [(us[i % len(us)],) for i in range(len(pairs))])


@pytest.mark.parametrize(
    "p,m,modulus",
    [(3, 7, None), (47, 2, None), (131, 2, None), (3, 5, (2, 0, 0, 0, 1, 1)), (11, 3, (5, 3, 0, 1))],
)
def test_brute_sums_equal_the_power_table_route_on_sampled_pairs(p, m, modulus):
    # six seeded pairs per field, each at all five u
    field = field_create(p, m, modulus)
    rng = random.Random(field.q)
    pairs = [(rng.randrange(1, field.q), rng.randrange(field.q)) for _ in range(6)]
    assert_brute_sums_equal_the_reference(field, pairs, [exponents_u(m)] * len(pairs))


def test_exhaustive_sums_build_no_power_table(monkeypatch):
    # every exhaustive sum is a digit form: on fresh fields, none builds a power or eta table
    fields = [(3, 1, None), (3, 4, (2, 0, 0, 1, 1)), (5, 3, None), (3, 7, None), (47, 2, (2, 1, 1))]
    expected = []
    for p, m, modulus in fields:
        field = field_create(p, m, modulus)
        a, b = field.from_index(field.q - 1), field.from_index(field.q // 2)
        expected.append((reference_sum(field, 0, field.one(), field.zero()), reference_sum(field, 1, a, b),
                         reference_sum(field, 0, a, b), reference_sum(field, 0, field.zero(), b)))

    def no_table(field, *args):
        raise AssertionError(f"power or eta table built on {field}")

    monkeypatch.setattr(FiniteField, "power_table", no_table)
    monkeypatch.setattr(FiniteField, "eta_table", no_table)
    for (p, m, modulus), (gauss, weil, quad, orth) in zip(fields, expected):
        field = field_create(p, m, modulus)
        a, b = field.from_index(field.q - 1), field.from_index(field.q // 2)
        assert gauss_sum_bruteforce(field) == gauss
        assert weil_sum_bruteforce(field, 1, a, b) == weil
        assert quad_sum_bruteforce(field, a, b) == quad
        assert orthogonality_sum(field, b) == orth
        assert not any(k == "eta_vec" or (isinstance(k, tuple) and k[0] == "pow") for k in field._caches)


# every (p, m, u mod m) with m/v even and q <= 3^8, 5^4 or 7^4
EVEN_QUOTIENTS = [
    (p, m, u)
    for p, m_max in ((3, 8), (5, 4), (7, 4))
    for m in range(2, m_max + 1, 2)
    for u in range(1, m)
    if (m // math.gcd(m, u)) % 2 == 0
]


@pytest.mark.parametrize("p,m,u", EVEN_QUOTIENTS)
def test_weil_dispatch_case_test_matches_the_restricted_power(p, m, u):
    # c^{p^v} = (-1)^{s/v} c with c = prod_j a^{p^{2vj}}, against a^{(p^m-1)/(p^v+1)} = (-1)^{s/v};
    # every unit up to 3^6, 300 of them beyond
    field = field_create(p, m)
    q, v, s = field.q, math.gcd(m, u), m // 2
    sign = (-1) ** (s // v)
    units = range(1, q) if q <= 729 else random.Random(q + u).sample(range(1, q), 300)
    for ai in units:
        a = field.from_index(ai)
        _, scale = _weil_dispatch(field, u, a)
        invertible = scale == CycInt.integer(p, sign * p**s)
        assert invertible == (a ** ((p**m - 1) // (p**v + 1)) != field.scalar(sign)), ai
        assert invertible != (scale == CycInt.integer(p, -sign * p ** (s + v)))


def test_closed_sums_raise_no_element_to_a_power(monkeypatch):
    # once a field and its Frobenius matrix (one p-th power of X) exist, the closed route forms
    # no element power: inverses and eta go through the norm, the Weil case test through c^{p^v}
    cases = []
    for p, m, modulus in [(3, 1, None), (3, 4, (2, 0, 0, 1, 1)), (3, 6, None), (5, 4, None), (7, 2, None),
                          (47, 2, (2, 1, 1)), (11, 3, None)]:
        field = field_create(p, m, modulus)
        field.frob_matrix(1)
        rng = random.Random(field.q)
        for _ in range(12):
            a, b = field.from_index(rng.randrange(1, field.q)), field.from_index(rng.randrange(field.q))
            u = rng.randrange(1, 2 * m + 1)
            cases.append((field, u, a, b, weil_sum_bruteforce(field, u, a, b), quad_sum_bruteforce(field, a, b)))

    def no_power(*args):
        raise AssertionError("element power on the closed route")

    monkeypatch.setattr(gf, "_poly_powmod", no_power)
    for field, u, a, b, weil, quad in cases:
        assert weil_sum_closed(field, u, a, b) == weil
        assert quad_sum_closed(field, a, b) == quad


def test_weil_closed_scalar_a_up_to_3_pow_6():
    # larger fields, prime-field coefficients: every (a, b) with a in F_p^*
    for p, m in [(3, 5), (3, 6), (5, 4), (7, 3)]:
        field = field_create(p, m)
        for u in (1, 2, 3):
            for z1 in range(1, p):
                a = field.scalar(z1)
                for bi in range(field.q):
                    b = field.from_index(bi)
                    assert weil_sum_closed(field, u, a, b) == weil_sum_bruteforce(field, u, a, b)


def test_gamma_of_unsolvable_and_count():
    f81 = field_create(3, 4)
    solvable = [b for b in f81.elements() if gamma_of(f81, 1, b) is not None]
    assert len(solvable) == 9
    assert gamma_of(f81, 1, f81.zero()) == f81.zero()
    # m/v is 7 (odd) for 3^7 and 2 for 47^2 at u = 1: every b is solvable
    for p, m, modulus in BIG_FIELDS:
        field = field_create(p, m, modulus)
        assert all(gamma_of(field, 1, b) is not None for b in field.elements())
        assert gamma_of(field, 1, field.zero()) == field.zero()


@pytest.mark.parametrize(
    "p,m,u,modulus",
    [
        (3, 3, 1, None),  # m/v = 3, odd
        (3, 7, 2, None),  # m/v = 7, odd
        (3, 6, 2, None),  # m/v = 3 with v = 2, odd
        (5, 2, 1, None),  # m/v = 2
        (47, 2, 1, (2, 1, 1)),  # m/v = 2
        (3, 6, 1, None),  # m/v = 6, 2 mod 4
        (3, 4, 1, (2, 0, 0, 1, 1)),  # m/v = 4, 0 mod 4
        (5, 4, 1, None),  # m/v = 4
        (3, 8, 2, None),  # m/v = 4 with v = 2
    ],
)
def test_gamma_of_is_solve_linear_particular_solution(p, m, u, modulus):
    field = field_create(p, m, modulus)
    op = linearized_operator(field, field.one(), u)
    for b in field.elements():
        assert gamma_of(field, u, b) == solve_linear(op, -(b.frobenius_iterate(u))), b.index


@pytest.mark.parametrize("p,m,u,modulus", [(3, 4, 1, (2, 0, 0, 1, 1)), (5, 2, 1, None), (3, 6, 2, None)])
def test_gamma_of_reads_either_representation(p, m, u, modulus):
    # an element built from its coefficients holds no index until one is read
    field = field_create(p, m, modulus)
    for i in range(field.q):
        by_coeffs = field.element(field.coeffs_of(i))
        assert by_coeffs._index is None
        assert gamma_of(field, u, by_coeffs) == gamma_of(field, u, field.from_index(i)), i


@pytest.mark.parametrize("p,m,u", [(3, 5, 1), (5, 4, 1)])
def test_index_reads_compute_no_coefficients(monkeypatch, p, m, u):
    # from_index, .index and gamma_of stay on indices: no coefficient tuple
    field = field_create(p, m)
    table = gamma_table(field, u).tolist()

    def no_coeffs(self, idx):
        raise AssertionError(f"coefficients of index {idx} computed on {self}")

    monkeypatch.setattr(FiniteField, "coeffs_of", no_coeffs)
    for i in range(field.q):
        assert field.from_index(i).index == i
        assert field.from_index(i + field.q).index == i
        gam = gamma_of(field, u, field.from_index(i))
        if table[i] < 0:
            assert gam is None
        else:
            assert gam.index == table[i]


def test_dropped_field_is_freed():
    # per-field data (Weil dispatch, gamma table, level tables) lives with the field
    field = field_create(3, 4, (2, 0, 0, 1, 1))
    a, b = field.gen(), field.one()
    weil_sum_closed(field, 1, a, b)
    gamma_of(field, 1, b)
    weil_sum_bruteforce(field, 1, a, b)
    ref = weakref.ref(field)
    del field, a, b
    gc.collect()
    assert ref() is None


def test_abs_square_spectrum():
    # |S|^2 lands in {0, p^m, p^{m+2v}}
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2)]:
        field = field_create(p, m)
        for u in (1, 2):
            v = math.gcd(m, u)
            allowed = {0, p**m, p ** (m + 2 * v)}
            for ai in range(1, field.q, max(1, field.q // 11)):
                for bi in range(0, field.q, max(1, field.q // 11)):
                    s = weil_sum_bruteforce(field, u, field.from_index(ai), field.from_index(bi))
                    assert s.abs_square().as_int() in allowed
