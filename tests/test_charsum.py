"""Character sums: CycInt algebra, Gauss/Weil/quadratic sums, closed vs brute."""

import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilcodes.charsum import (
    CycInt,
    GaussScale,
    OddQuotient,
    ZeroA,
    eta1,
    g1,
    gamma_of,
    gamma_table,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    orthogonality_sum,
    quad_sum_bruteforce,
    quad_sum_closed,
    restricted_power_check,
    weil_sum_bruteforce,
    weil_sum_closed,
    weil_sum_scalar_closed,
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
    assert GaussScale(3).sign_exponent == 1  # L = i
    assert GaussScale(5).sign_exponent == 0  # L = 1
    assert GaussScale(7).sign_exponent == 1
    assert GaussScale(3).even_power(2) == -1
    assert GaussScale(5).even_power(2) == 1
    with pytest.raises(ValueError):
        GaussScale(3).even_power(3)


def test_g1_squared_is_eta_minus_one_times_p():
    for p in (3, 5, 7, 11):
        assert (g1(p) * g1(p)).as_int() == eta1(p, -1) * p


@pytest.mark.parametrize(
    "p,m,modulus",
    [pytest.param(p, m, None, id=f"{m}-{p}") for m in (1, 2, 3, 4) for p in (3, 5, 7)] + BIG_PARAMS,
)
def test_gauss_closed_equals_brute(p, m, modulus):
    assert gauss_sum_closed(p, m) == gauss_sum_bruteforce(field_create(p, m, modulus))


def test_gauss_closed_m1_is_g1():
    assert gauss_sum_closed(3, 1) == g1(3)
    assert (gauss_sum_closed(5, 1) * gauss_sum_closed(5, 1)).as_int() == 5


def test_orthogonality():
    f9 = field_create(3, 2)
    assert orthogonality_sum(f9, f9.zero()).as_int() == 9
    assert orthogonality_sum(f9, f9.gen()).is_zero()
    f3 = field_create(3, 1)
    assert orthogonality_sum(f3, f3.scalar(2)).is_zero()


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


@pytest.mark.parametrize(
    "p,m,modulus",
    [pytest.param(p, m, None, id=f"{p}-{m}-us{i}")
     for i, (p, m) in enumerate([(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)])]
    + BIG_PARAMS,
)
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


def test_restricted_power_check():
    f9 = field_create(3, 2)
    assert restricted_power_check(2, f9, 1)
    assert restricted_power_check(1, f9, 1)
    f81 = field_create(3, 4)
    assert restricted_power_check(2, f81, 1)  # 2^20 = 1 in F_81
    for z in range(1, 5):
        assert restricted_power_check(z, field_create(5, 2), 1)
    with pytest.raises(OddQuotient):
        restricted_power_check(2, field_create(3, 3), 1)


def test_scalar_fast_path_agrees_with_general_closed_form():
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2)]:
        field = field_create(p, m)
        for u in (1, 2, 3):
            for z1, z2 in itertools.product(range(1, p), repeat=2):
                for bi in range(0, field.q, max(1, field.q // 17)):
                    b = field.from_index(bi)
                    zb = field.scalar(z2) * b
                    general = weil_sum_closed(field, u, field.scalar(z1), zb)
                    fast = weil_sum_scalar_closed(field, u, z1, z2, b)
                    assert general == fast, (p, m, u, z1, z2, bi)


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
        sol = solve_linear(op, -(b.frobenius_iterate(u)))
        assert gamma_of(field, u, b) == sol.particular, b.index


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
    # per-field data (Weil dispatch, gamma table, power tables) lives with the field
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
