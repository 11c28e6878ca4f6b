"""Closed-form predictions against spec examples and structural invariants."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from weilcodes import codes, theory
from weilcodes.charsum import gamma_of
from weilcodes.codes import (
    CodeSpec,
    DefiningSet,
    build_defining_set,
    complete_weight_enumerator,
    encode,
    symbol_count_table,
)
from weilcodes.gf import FiniteField, is_irreducible
from weilcodes.theory import (
    WrongRegime,
    case_of,
    count_A_bar,
    count_A_tilde,
    count_B,
    predict_cwe,
    predict_length,
    predicted_keys,
    predicted_table,
)


def test_case_dispatch_is_total_and_unambiguous():
    for p, m1, m2, u, lam in itertools.product((3, 5), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3), (0, 1)):
        key = case_of(CodeSpec(p, m1, m2, u, lam))
        assert 1 <= key.theorem <= 11
        if lam == 0:
            assert key.theorem <= 5
        else:
            assert key.theorem >= 6


# one spec per theorem 1..11 and its (theorem, W, E), the values the signs were verified at
CASE_RECORDS = [
    ((3, 2, 1, 1, 0), (1, 1, 0)),
    ((5, 1, 1, 1, 0), (2, 1, 0)),
    ((3, 2, 2, 1, 0), (3, -1, 1)),
    ((3, 2, 4, 1, 0), (4, -1, 3)),
    ((3, 1, 4, 1, 0), (5, -1, 2)),
    ((7, 2, 1, 1, 1), (6, 1, 0)),
    ((3, 1, 1, 1, 1), (7, -1, 0)),
    ((5, 1, 2, 1, 2), (8, 1, 0)),
    ((3, 2, 2, 1, 2), (9, -1, 1)),
    ((3, 2, 8, 2, 1), (10, -1, 6)),
    ((7, 1, 4, 1, 3), (11, -1, 2)),
]


@pytest.mark.parametrize("spec,record", CASE_RECORDS, ids=[f"thm{r[0]}" for _, r in CASE_RECORDS])
def test_case_record_pins_theorem_sign_and_exponent(spec, record):
    key = case_of(CodeSpec(*spec))
    assert (key.theorem, key.sign, key.exponent) == record


@pytest.mark.parametrize("lam", [0, 1, 2])
def test_defining_set_length_above_p_2_15(lam):
    # int16 digits wrapped at p = 32771: the scan found 32766 points for lambda = 1, not 32772
    spec = CodeSpec(32771, 1, 1, 1, lam)
    assert len(build_defining_set(spec)) == predict_length(spec)


def test_predict_length_examples():
    assert predict_length(CodeSpec(3, 2, 2, 1, 0)) == 20
    assert predict_length(CodeSpec(3, 2, 2, 1, 2)) == 30
    assert predict_length(CodeSpec(3, 3, 4, 1, 0)) == 728
    assert predict_length(CodeSpec(3, 2, 2, 1, 0, punctured=True)) == 10
    assert predict_length(CodeSpec(3, 2, 2, 1, 2, punctured=True)) == 15


def test_symbol_counts_20_4_12():
    spec = CodeSpec(3, 2, 2, 1, 0)
    ds = build_defining_set(spec)
    f1, f2 = spec.field1, spec.field2
    table = predicted_table(spec)
    seen = set()
    for ai in range(f1.q):
        for bi in range(f2.q):
            if ai == 0 and bi == 0:
                continue
            pred = tuple(table[ai, bi].tolist())
            word = encode(ds, f1.from_index(ai), f2.from_index(bi))
            assert list(pred) == [word.count(r) for r in range(3)]
            seen.add(pred)
    assert seen == {(8, 6, 6), (2, 9, 9)}


def test_symbol_counts_scaling_permutation():
    spec = CodeSpec(3, 1, 2, 1, 2)
    f1, f2 = spec.field1, spec.field2
    a, b = f1.scalar(1), f2.gen()
    table = predicted_table(spec)
    base = table[a.index, b.index].tolist()
    scaled = table[(f1.scalar(2) * a).index, (f2.scalar(2) * b).index].tolist()
    # symbol i of the scaled word equals symbol 2i of the original
    assert scaled == [base[(2 * i) % 3] for i in range(3)]


def test_tab_values():
    # T(0, 0) = 0 with gamma_0 = 0; at m2/v = 4 only 9 of the 81 b have gamma_b
    ta, tb = predicted_keys(CodeSpec(3, 2, 2, 1, 0))
    assert tb[0] >= 0 and (ta[0] + tb[0]) % 3 == 0
    _, tb40 = predicted_keys(CodeSpec(3, 1, 4, 1, 0))
    assert len(tb40) == 81 and int((tb40 < 0).sum()) == 81 - 9


def _other_modulus(p, m):
    """A monic irreducible of degree m other than the default one (for m > 1)."""
    lows = itertools.product(range(p - 1, -1, -1), repeat=m)
    return next(low + (1,) for low in lows if is_irreducible(low + (1,), p))


@pytest.mark.parametrize(
    "p, m1, m2, u, custom",
    [(3, 2, 2, 1, False), (5, 1, 2, 1, False), (3, 1, 4, 1, False), (3, 2, 3, 2, True),
     (3, 3, 4, 1, True), (5, 2, 4, 1, True), (7, 1, 2, 1, True)],
)
def test_predicted_keys_equal_the_per_pair_formulas(p, m1, m2, u, custom):
    # Tr(a^2/4) and Tr(gamma_b^{p^u+1}) in element arithmetic, against the key tables
    mods = (_other_modulus(p, m1), _other_modulus(p, m2)) if custom else (None, None)
    spec = CodeSpec(p, m1, m2, u, 1, mod1=mods[0], mod2=mods[1])
    f1, f2 = spec.field1, spec.field2
    assert (f2.modulus != FiniteField(p, m2).modulus) == custom
    ta, tb = predicted_keys(spec)
    quarter = f1.scalar(pow(4, p - 2, p))
    assert ta.tolist() == [(a * a * quarter).trace() for a in f1.elements()]
    gammas = [gamma_of(f2, u, b) for b in f2.elements()]
    assert tb.tolist() == [-1 if g is None else (g ** (p**u + 1)).trace() for g in gammas]
    # m2/v = 0 mod 4 leaves some b without gamma_b
    assert (None in gammas) == ((m2 // math.gcd(m2, u)) % 4 == 0)


def test_count_A_tilde_examples():
    assert count_A_tilde(CodeSpec(3, 2, 2, 1, 0), 0) == 21
    assert count_A_tilde(CodeSpec(3, 3, 2, 2, 0), 0) == 81
    spec = CodeSpec(3, 2, 2, 1, 0)
    assert sum(count_A_tilde(spec, t) for t in range(3)) == 3**4
    with pytest.raises(WrongRegime):
        count_A_tilde(CodeSpec(3, 1, 4, 1, 0), 0)


def test_count_B_examples():
    assert count_B(CodeSpec(3, 1, 4, 1, 0)) == 9
    assert count_B(CodeSpec(3, 1, 4, 3, 0)) == 9  # v = gcd(4,3) = 1
    assert count_B(CodeSpec(3, 1, 4, 1, 0)) <= 3**4
    with pytest.raises(WrongRegime):
        count_B(CodeSpec(3, 1, 2, 1, 0))


def test_count_A_bar_examples():
    assert count_A_bar(CodeSpec(3, 2, 4, 1, 0), 0) == 21
    assert count_A_bar(CodeSpec(3, 3, 4, 1, 0), 0) == 81
    spec = CodeSpec(3, 2, 4, 1, 0)
    assert sum(count_A_bar(spec, t) for t in range(3)) == 3**2 * count_B(spec)
    with pytest.raises(WrongRegime):
        count_A_bar(CodeSpec(3, 2, 2, 1, 0), 0)


def test_predict_cwe_table_rows():
    pred = predict_cwe(CodeSpec(3, 2, 4, 2, 0))
    assert (pred.length, pred.dimension, pred.source) == (224, 6, 3)
    assert pred.we == {0: 1, 144: 504, 162: 224}

    pred = predict_cwe(CodeSpec(3, 3, 2, 2, 2))
    assert (pred.length, pred.dimension, pred.source) == (90, 5, 6)
    assert pred.we == {0: 1, 54: 80, 60: 72, 66: 90}

    pred = predict_cwe(CodeSpec(3, 2, 4, 1, 0))
    assert (pred.length, pred.source) == (188, 4)
    assert pred.we == {0: 1, 108: 60, 126: 648, 162: 20}


def test_predict_cwe_punctured_has_no_cwe():
    pred = predict_cwe(CodeSpec(3, 2, 2, 1, 0, punctured=True))
    assert pred.cwe is None
    assert pred.we == {0: 1, 6: 60, 9: 20}
    assert pred.length == 10
    assert pred.min_distance == 6


def test_predicted_frequencies_nonnegative_and_pless():
    for p, m1, m2, u, lam in itertools.product((3, 5), (1, 2), (1, 2, 3, 4), (1, 2, 3), (0, 1, 2)):
        spec = CodeSpec(p, m1, m2, u, lam)
        pred = predict_cwe(spec)
        n, K = pred.length, spec.K
        assert all(k >= 0 for k in pred.we.values())
        assert sum(pred.we.values()) == p**K
        assert sum(w * k for w, k in pred.we.items()) == p ** (K - 1) * (p - 1) * n


def test_we_depends_on_lambda_only_through_quadratic_class():
    for p in (3, 5):
        spec_by_lam = {
            lam: predict_cwe(CodeSpec(p, 2, 2, 1, lam)) for lam in range(1, p)
        }
        from weilcodes.charsum import eta1

        for l1 in range(1, p):
            for l2 in range(1, p):
                if eta1(p, l1) == eta1(p, l2):
                    assert spec_by_lam[l1].we == spec_by_lam[l2].we


def test_column_balance_of_predicted_table():
    # sum over all (a,b) of t_rho equals n p^{K-1} for each rho != 0
    for lam in (0, 2):
        spec = CodeSpec(3, 2, 2, 1, lam)
        n = predict_length(spec)
        table = predicted_table(spec)
        sums = table.sum(axis=(0, 1))
        for rho in range(1, 3):
            assert sums[rho] == n * 3 ** (spec.K - 1)


def test_predicted_table_keeps_one_gamma_and_level_table_per_u_mod_m2():
    # x^{p^m2} = x: u = 1..5 over F_9 read two gamma tables and two level tables
    for u in range(1, 6):
        predicted_table(CodeSpec(3, 1, 2, u, 1))
    f9 = CodeSpec(3, 1, 2, 1, 1).field2
    keys = [k for k in f9._caches if isinstance(k, tuple)]
    assert sorted(k for k in keys if k[0] == "gamma") == [("gamma", 0), ("gamma", 1)]
    assert sorted(k for k in keys if k[0] == "quadratic_trace") == [("quadratic_trace", 0), ("quadratic_trace", 1)]


def test_scan_and_predicted_table_build_no_power_table(monkeypatch):
    # the level tables are digit quadratic forms: on fresh fields, the defining-set scan and the
    # predicted table (m2/v odd, 2 and 0 mod 4, punctured, p = 5 and 7) build no power table
    specs = [CodeSpec(3, 2, 4, 1, 1), CodeSpec(3, 3, 4, 1, 0), CodeSpec(3, 2, 3, 1, 0, True), CodeSpec(3, 1, 6, 1, 2),
             CodeSpec(5, 1, 2, 1, 2), CodeSpec(5, 2, 2, 1, 0, True), CodeSpec(7, 1, 2, 1, 3)]

    def scan(spec):
        ds = build_defining_set(spec)
        return ds.xs.tolist(), ds.ys.tolist()

    expected = [(scan(spec), predicted_table(spec)) for spec in specs]

    def no_power_table(field, e):
        raise AssertionError(f"power table x^{e} built on {field}")

    monkeypatch.setattr(FiniteField, "power_table", no_power_table)
    for spec, (points, table) in zip(specs, expected):
        monkeypatch.setattr(codes, "cached_field", functools.lru_cache(maxsize=None)(FiniteField))
        assert not spec.field1._caches and not spec.field2._caches
        assert scan(spec) == points
        assert np.array_equal(predicted_table(spec), table)


def test_predicted_table_matches_measured_spot():
    # (3, 6, 5, 1, 1) has n = 59 292 > 2^15: a table narrower than int32 would wrap there.  The
    # last five differ, codeword by codeword, if `_compositions` reads rho^2 - 8 lambda t at even K
    for spec in (CodeSpec(3, 2, 2, 1, 0), CodeSpec(3, 1, 4, 1, 1), CodeSpec(5, 1, 2, 1, 3), CodeSpec(3, 6, 5, 1, 1),
                 CodeSpec(5, 2, 2, 1, 2), CodeSpec(7, 2, 2, 1, 3), CodeSpec(7, 1, 3, 1, 2), CodeSpec(3, 5, 5, 1, 1),
                 CodeSpec(3, 4, 6, 1, 2)):
        res = complete_weight_enumerator(build_defining_set(spec), budget=None)
        assert np.array_equal(predicted_table(spec), res.table)


@pytest.mark.parametrize("table", ["predicted", "measured"])
def test_tables_refuse_a_length_an_int32_entry_cannot_hold(monkeypatch, table):
    # n = 2^31 is one past the largest int32; the refusal comes before any allocation, where the
    # (43, 43^2, 43) table would take 13.7 MB
    spec = CodeSpec(43, 1, 2, 1, 1)
    ds = build_defining_set(spec)
    if table == "predicted":
        monkeypatch.setattr(theory, "predict_length", lambda spec: 1 << 31)
    else:
        monkeypatch.setattr(DefiningSet, "__len__", lambda self: 1 << 31)
    tracemalloc.start()
    try:
        with pytest.raises(AssertionError, match="too large for the int32 entries"):
            predicted_table(spec) if table == "predicted" else symbol_count_table(ds, budget=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_predicted_table_holds_the_largest_int32_length(monkeypatch):
    # one below the bound is accepted and stored exactly in the zero codeword's entry
    monkeypatch.setattr(theory, "predict_length", lambda spec: (1 << 31) - 1)
    table = predicted_table(CodeSpec(3, 1, 2, 1, 1))
    assert table.dtype == np.int32 and table[0, 0].tolist() == [(1 << 31) - 1, 0, 0]


def test_degenerate_empty_code_is_consistent():
    # p=3, m1=m2=u=1, lambda=0: the defining set is empty and every message
    # encodes to the empty word; prediction and measurement agree throughout
    spec = CodeSpec(3, 1, 1, 1, 0)
    assert predict_length(spec) == 0
    ds = build_defining_set(spec)
    assert len(ds) == 0
    res = complete_weight_enumerator(ds)
    pred = predict_cwe(spec)
    assert pred.we == res.we == {0: 9}
    assert pred.cwe == res.cwe == {(0, 0, 0): 9}
    assert pred.dimension == res.dimension == 0


@pytest.mark.parametrize("spec", [CodeSpec(3, 10, 1, 1, 1), CodeSpec(3, 10, 10, 2, 1)], ids=["K=11", "K=20"])
def test_measurement_builds_no_q_by_q_table(monkeypatch, spec):
    # q1 = 3^10: a q x q table would be 3.5 GB; at K = 20 the code has
    # n = 1.16e9 coordinates and the measurement still takes well under 1 s
    def no_table(field):
        raise AssertionError(f"q x q table built on {field}")

    monkeypatch.setattr(FiniteField, "trace_of_products", no_table)
    monkeypatch.setattr(FiniteField, "mul_table", no_table)
    res = complete_weight_enumerator(build_defining_set(spec), budget=None)
    pred = predict_cwe(spec)
    assert (res.length, res.dimension, res.we, res.cwe) == (pred.length, pred.dimension, pred.we, pred.cwe)


# (p, m1, m2) of the differential test: p^K <= 3^10, 5^5, 7^4, 11^3, 13^3, inside the default budget
_SHAPES = [
    (p, m1, k - m1)
    for p, k_max in ((3, 10), (5, 5), (7, 4), (11, 3), (13, 3))
    for k in range(2, k_max + 1)
    for m1 in range(1, k)
]


def _irreducible_at(p, m, start):
    """The first monic irreducible of degree m at or after candidate number start, cyclically.

    Candidate i has the base-p digits of i as its low coefficients, so every
    irreducible is reachable without listing them all.
    """
    for i in range(start, start + p**m):
        cand = tuple(i % p**m // p**k % p for k in range(m)) + (1,)
        if is_irreducible(cand, p):
            return cand


@st.composite
def _random_specs(draw):
    p, m1, m2 = draw(st.sampled_from(_SHAPES))
    return CodeSpec(
        p,
        m1,
        m2,
        u=draw(st.integers(1, 4)),
        lam=draw(st.integers(0, p - 1)),
        punctured=draw(st.booleans()),
        mod1=_irreducible_at(p, m1, draw(st.integers(0, p**m1 - 1))),
        mod2=_irreducible_at(p, m2, draw(st.integers(0, p**m2 - 1))),
    )


@seed(20211)
@settings(max_examples=300, deadline=None, database=None)
@given(_random_specs())
def test_measured_equals_predicted_on_random_moduli(spec):
    # differential: exhaustive measurement on random field presentations
    # against the closed forms, which depend on the parameters alone
    res = complete_weight_enumerator(build_defining_set(spec))
    pred = predict_cwe(spec)
    assert (res.length, res.dimension, res.we) == (pred.length, pred.dimension, pred.we)
    if not spec.punctured:
        assert res.cwe == pred.cwe
